"""First-order optimization kernels shared by the system and scalar solvers.

Everything here works on flat ndarrays with a fixed positive weight vector
defining the inner product <a, b> = sum(weights * a * b); callers pass
objective and gradient callables expressed in that metric.  All routines are
deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

__all__ = ["OptResult", "weighted_norm", "bb_minimize", "path_saddle", "polish_root"]

_ARMIJO_C = 1e-4  # sufficient decrease of every backtracking line search
_MAX_ITER = 100_000  # descent steps of bb_minimize
_COARSE_TOL = 1e-3  # peak residual at which path_saddle hands over to the polish
_MAX_OUTER = 500  # path sweeps of path_saddle


@dataclass
class OptResult:
    x: np.ndarray
    value: float
    residual: float
    iterations: int
    fevals: int
    converged: bool
    message: str = ""


def weighted_norm(weights: np.ndarray, x: np.ndarray) -> float:
    return math.sqrt(float(np.dot(weights, x * x)))


def bb_minimize(f, grad, x0, weights, tol=1e-8, project=None) -> OptResult:
    """Barzilai-Borwein descent with Armijo backtracking, optional projection."""
    x = np.array(x0, dtype=float)
    if project is not None:
        x = project(x)
    fx = f(x)
    g = grad(x)
    fevals = 1
    step = 1e-2
    for it in range(1, _MAX_ITER + 1):
        res = weighted_norm(weights, g)
        if res <= tol:
            return OptResult(x, fx, res, it - 1, fevals, True)
        slope = -float(np.dot(weights, g * g))
        t = step
        xn, fn = x, fx
        moved = False
        while t >= 1e-18:
            cand = x - t * g
            if project is not None:
                cand = project(cand)
            fc = f(cand)
            fevals += 1
            if fc <= fx + _ARMIJO_C * t * slope:
                xn, fn, moved = cand, fc, True
                break
            t *= 0.5
        if not moved:
            return OptResult(x, fx, res, it, fevals, False, "line search stalled")
        gn = grad(xn)
        s = xn - x
        y = gn - g
        sy = float(np.dot(weights, s * y))
        ss = float(np.dot(weights, s * s))
        step = ss / sy if sy > 1e-30 else min(2.0 * t, 1.0)
        step = min(max(step, 1e-12), 1e6)
        x, fx, g = xn, fn, gn
    return OptResult(x, fx, weighted_norm(weights, g), _MAX_ITER, fevals, False, "max iterations")


def _reparametrize(path: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Redistribute path nodes to equal arclength in the weighted metric."""
    seg = np.array(
        [0.0] + [weighted_norm(weights, path[k] - path[k - 1]) for k in range(1, len(path))]
    )
    s = np.cumsum(seg)
    total = s[-1]
    if total <= 0:
        return path
    targets = np.linspace(0.0, total, len(path))
    out = np.empty_like(path)
    out[0], out[-1] = path[0], path[-1]
    j = 1
    for k in range(1, len(path) - 1):
        t = targets[k]
        while s[j] < t and j < len(path) - 1:
            j += 1
        lo, hi = s[j - 1], s[j]
        lam = 0.0 if hi == lo else (t - lo) / (hi - lo)
        out[k] = (1.0 - lam) * path[j - 1] + lam * path[j]
    return out


def path_saddle(f, grad, weights, endpoint, n_nodes=41) -> tuple:
    """Deform a discretized path from 0 to ``endpoint`` toward the min-max node.

    Every interior node takes one backtracked descent step per sweep, then the
    path is reparametrized to uniform arclength.  Returns the peak node once
    its gradient residual falls under ``_COARSE_TOL`` (the caller polishes it),
    plus iteration/evaluation counts.
    """
    lam = np.linspace(0.0, 1.0, n_nodes)[:, None]
    path = lam * np.asarray(endpoint, float)[None, :]
    steps = np.full(n_nodes, 1e-2)
    fevals = 0
    peak = None
    best_res = math.inf
    stall = 0
    for outer in range(1, _MAX_OUTER + 1):
        energies = np.array([f(x) for x in path])
        fevals += n_nodes
        k_peak = 1 + int(np.argmax(energies[1:-1]))
        peak = path[k_peak].copy()
        g_peak = grad(peak)
        res = weighted_norm(weights, g_peak)
        if res <= _COARSE_TOL:
            return peak, outer, fevals, True
        # stop once the peak residual stops improving; the caller polishes
        if res < 0.99 * best_res:
            best_res = res
            stall = 0
        else:
            stall += 1
            if stall >= 30:
                return peak, outer, fevals, False
        # cap each node's displacement at half the node spacing so nodes
        # downhill of the saddle cannot run away before reparametrization
        seg = sum(
            weighted_norm(weights, path[k] - path[k - 1]) for k in range(1, n_nodes)
        )
        max_move = 0.5 * seg / (n_nodes - 1)
        for k in range(1, n_nodes - 1):
            x = path[k]
            g = grad(x) if k != k_peak else g_peak
            slope = -float(np.dot(weights, g * g))
            if slope == 0.0:
                continue
            gnorm = weighted_norm(weights, g)
            fx = energies[k]
            t = min(steps[k] * 2.0, 1.0, max_move / gnorm)
            while t >= 1e-16:
                cand = x - t * g
                fc = f(cand)
                fevals += 1
                if fc <= fx + _ARMIJO_C * t * slope:
                    path[k] = cand
                    steps[k] = t
                    break
                t *= 0.5
        path = _reparametrize(path, weights)
    return peak, _MAX_OUTER, fevals, False


def polish_root(grad, x0, weights, tol=1e-8) -> OptResult:
    """Drive the gradient to zero: hybrid Powell first, least squares fallback.

    The trial points of both methods may leave the region where the gradient
    is finite, so they run with overflow and invalid-value warnings off.  A
    hybr end point with a non-finite residual counts as residual inf, with a
    named message, and loses to any finite least-squares result.
    """
    x0 = np.asarray(x0, float)
    sw = np.sqrt(weights)

    def scaled(x):
        return sw * grad(x)

    with np.errstate(over="ignore", invalid="ignore"):
        sol = optimize.root(scaled, x0, method="hybr", tol=1e-14)
        res = weighted_norm(weights, grad(sol.x))
        message = sol.message
        if not math.isfinite(res):
            res, message = math.inf, "hybr ended on a non-finite residual"
        best = OptResult(sol.x, 0.0, res, int(sol.nfev), int(sol.nfev), res <= tol, message)
        if best.converged:
            return best
        ls = optimize.least_squares(scaled, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        res_ls = weighted_norm(weights, grad(ls.x))
    if res_ls < best.residual:
        best = OptResult(ls.x, 0.0, res_ls, int(ls.nfev), int(ls.nfev), res_ls <= tol, "least squares")
    return best
