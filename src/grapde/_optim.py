"""Optimization kernels shared by the system and scalar solvers.

Everything here works on flat ndarrays with a fixed positive weight vector
defining the inner product <a, b> = sum(weights * a * b); callers pass
objective and gradient callables expressed in that metric, and the root polish
and the saddle search also the Jacobian of the gradient.  The saddle search
evaluates a whole path at once and the root polish a whole stack of starts,
so their objective, gradient and Jacobian take a stack of states along
leading axes.  One damped Newton loop (``_newton``) serves the stacked
polish (``polish_roots``), its one-start case (``polish_root``) and the
saddle search's trials; it runs its starts in lockstep, and each start ends
exactly as it would alone.  All routines are deterministic for fixed
inputs.  Only ``least_squares_retry`` uses scipy, and imports it when first
called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "OptResult", "weighted_norm", "bb_minimize", "path_saddle", "polish_root", "polish_roots",
    "least_squares_retry",
]

_ARMIJO_C = 1e-4  # sufficient decrease of every backtracking line search
_MAX_ITER = 100_000  # descent steps of bb_minimize
_MAX_OUTER = 500  # path sweeps of path_saddle
_MAX_NEWTON = 100  # Newton steps of each polish
_TRIAL_NEWTON = 15  # Newton steps of each trial from the path peak
_MIN_STEP = 1e-10  # smallest damping factor of a Newton step
_TRIAL_MIN_STEP = 1e-3  # smallest damping factor of a trial step


@dataclass
class OptResult:
    x: np.ndarray
    residual: float
    iterations: int
    fevals: int
    converged: bool
    message: str = ""


def weighted_norm(weights: np.ndarray, x: np.ndarray) -> float:
    return math.sqrt(float(np.dot(weights, x * x)))


def bb_minimize(f, grad, x0, weights, project, tol=1e-8) -> OptResult:
    """Barzilai-Borwein descent with Armijo backtracking, each point projected by ``project``."""
    x = project(np.array(x0, dtype=float))
    fx = f(x)
    g = grad(x)
    fevals = 1
    step = 1e-2
    for it in range(1, _MAX_ITER + 1):
        res = weighted_norm(weights, g)
        if res <= tol:
            return OptResult(x, res, it - 1, fevals, True)
        slope = -float(np.dot(weights, g * g))
        t = step
        xn, fn = x, fx
        moved = False
        while t >= 1e-18:
            cand = project(x - t * g)
            fc = f(cand)
            fevals += 1
            if fc <= fx + _ARMIJO_C * t * slope:
                xn, fn, moved = cand, fc, True
                break
            t *= 0.5
        if not moved:
            return OptResult(x, res, it, fevals, False, "line search stalled")
        gn = grad(xn)
        s = xn - x
        y = gn - g
        sy = float(np.dot(weights, s * y))
        ss = float(np.dot(weights, s * s))
        step = ss / sy if sy > 1e-30 else min(2.0 * t, 1.0)
        step = min(max(step, 1e-12), 1e6)
        x, fx, g = xn, fn, gn
    return OptResult(x, weighted_norm(weights, g), _MAX_ITER, fevals, False, "max iterations")


def _segments(path: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted lengths of the path's segments between consecutive nodes."""
    d = np.diff(path, axis=0)
    return np.sqrt((d * d) @ weights)


def _reparametrize(path: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Redistribute path nodes to equal arclength in the weighted metric."""
    s = np.concatenate(([0.0], np.cumsum(_segments(path, weights))))
    total = s[-1]
    if total <= 0:
        return path
    targets = np.linspace(0.0, total, len(path))[1:-1]
    # the first node at or past each target's arclength, the last node at most
    j = np.minimum(np.searchsorted(s, targets), len(path) - 1)
    lo, hi = s[j - 1], s[j]
    lam = np.divide(targets - lo, hi - lo, out=np.zeros_like(targets), where=hi != lo)
    out = np.empty_like(path)
    out[0], out[-1] = path[0], path[-1]
    out[1:-1] = (1.0 - lam)[:, None] * path[j - 1] + lam[:, None] * path[j]
    return out


def path_saddle(f, grad, weights, endpoint, jac, accept, n_nodes=41, tol=1e-8) -> tuple:
    """Deform a discretized path from 0 to ``endpoint`` toward the min-max node.

    ``f`` and ``grad`` take a stack of states along a leading axis and
    return one energy or gradient per state: each sweep evaluates the
    energy of every node in one call and the gradient of the interior
    nodes in another.  Every interior node then takes one backtracked
    descent step; the line searches run in lockstep, each node halving its
    own step and evaluating only its own pending candidate.  The path is
    then reparametrized to uniform arclength.  After a sweep that brings
    the peak residual below 0.9 times its value at the last trial, a Newton
    trial runs from the peak node: ``_newton`` on ``jac``, at most
    ``_TRIAL_NEWTON`` steps, none damped below ``_TRIAL_MIN_STEP`` (a start
    that needs more damping is not in Newton's basin).  The phase ends as
    soon as a trial converges to a root x with ``accept(x, peak_energy)``
    true, the peak energy being an upper bound on the mountain-pass level.
    Otherwise it ends when the peak residual stalls for 30 sweeps or after
    ``_MAX_OUTER`` sweeps, with the best-residual peak seen.  Returns (point,
    sweeps, fevals, ok): ``fevals`` counts the states whose energy was
    evaluated and the gradient calls of the trials, and ``ok`` is True only
    for an accepted trial.
    """
    lam = np.linspace(0.0, 1.0, n_nodes)[:, None]
    path = lam * np.asarray(endpoint, float)[None, :]
    steps = np.full(n_nodes, 1e-2)
    fevals = 0
    best_peak, best_res = None, math.inf
    stall_res = trial_res = math.inf
    stall = 0
    for outer in range(_MAX_OUTER):
        energies = np.asarray(f(path), float)
        fevals += n_nodes
        k_peak = 1 + int(np.argmax(energies[1:-1]))
        peak = path[k_peak].copy()
        grads = grad(path[1:-1])  # row i belongs to node i + 1
        sq = (grads * grads) @ weights
        res = math.sqrt(sq[k_peak - 1])
        if res < best_res:
            best_peak, best_res = peak, res
        # a trial after a sweep, once the peak residual has fallen by a tenth
        # since the last one: a failing trial costs up to _TRIAL_NEWTON Jacobians
        if outer > 0 and res < 0.9 * trial_res:
            trial_res = res
            trial = _newton(grad, jac, [peak], weights, tol, _TRIAL_NEWTON, _TRIAL_MIN_STEP)[0]
            fevals += trial.fevals
            if trial.converged and accept(trial.x, float(energies[k_peak])):
                return trial.x, outer, fevals, True
        # stop once the peak residual stops improving
        if res < 0.99 * stall_res:
            stall_res = res
            stall = 0
        else:
            stall += 1
            if stall >= 30:
                return best_peak, outer, fevals, False
        # cap each node's displacement at half the node spacing so nodes
        # downhill of the saddle cannot run away before reparametrization
        max_move = 0.5 * float(np.sum(_segments(path, weights))) / (n_nodes - 1)
        # the interior nodes with a nonzero gradient, by row of grads
        todo = np.flatnonzero(sq != 0.0)
        g = grads[todo]
        slope = -sq[todo]
        x, fx = path[1 + todo], energies[1 + todo]
        t = np.minimum(np.minimum(steps[1 + todo] * 2.0, 1.0), max_move / np.sqrt(sq[todo]))
        pending = np.flatnonzero(t >= 1e-16)  # indices into todo
        while pending.size:
            tp = t[pending]
            cand = x[pending] - tp[:, None] * g[pending]
            fc = np.asarray(f(cand), float)
            fevals += pending.size
            done = fc <= fx[pending] + _ARMIJO_C * tp * slope[pending]
            nodes = 1 + todo[pending[done]]
            path[nodes] = cand[done]
            steps[nodes] = tp[done]
            pending = pending[~done]
            t[pending] *= 0.5
            pending = pending[t[pending] >= 1e-16]
        path = _reparametrize(path, weights)
    return best_peak, _MAX_OUTER, fevals, False


def _each(f, rows) -> np.ndarray:
    """f at each state of ``rows``, stacked, each as f gives it for that state alone.

    Several states go to f as a (k, 1, N) stack, one vector-matrix product
    per state: a (k, N) stack runs one matrix product that rounds differently.
    """
    if len(rows) == 1:
        return f(rows[0])[None]
    return f(np.stack(rows)[:, None])[:, 0]


def _newton_steps(J: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The step p of J p = -g for each pair; the min-norm least-squares step where J is singular."""
    try:
        return np.linalg.solve(J, -G[..., None])[..., 0]
    except np.linalg.LinAlgError:  # raised for the whole stack if one J is singular
        if len(J) > 1:  # each pair on its own
            pairs = range(len(J))
            return np.concatenate([_newton_steps(J[i : i + 1], G[i : i + 1]) for i in pairs])
        return np.linalg.lstsq(J[0], -G[0], rcond=None)[0][None]


def _newton(grad, jac, X0, weights, tol, max_steps, min_step=_MIN_STEP) -> list:
    """Damped Newton on ``jac`` from each start of X0, at most ``max_steps`` steps each.

    The starts run in lockstep: each step takes the Jacobians of the starts
    still running in one ``jac`` call and their steps J p = -g in one solve
    (the min-norm least-squares step where J is singular), then one
    ``grad`` call per halving of their line searches.  Each start halves
    its own step, down to ``min_step``, until its weighted residual falls by
    the Armijo fraction.  Line-search points may leave the region where the
    gradient is finite, so they are evaluated with overflow and
    invalid-value warnings off, and a non-finite residual rejects the
    point; only a non-finite residual at the start ends with the message
    "non-finite residual".  Returns one OptResult per start, equal to the
    run from that start alone (``_each``).
    """
    X = [np.array(x0, dtype=float) for x0 in X0]
    k = len(X)
    steps, fevals, messages = [0] * k, [1] * k, [""] * k
    with np.errstate(over="ignore", invalid="ignore"):
        G = list(_each(grad, X))
        res = [weighted_norm(weights, g) for g in G]
        for i in range(k):
            if not math.isfinite(res[i]):
                res[i], messages[i] = math.inf, "non-finite residual"
        while True:
            for i in range(k):
                if not messages[i] and res[i] <= tol:
                    messages[i] = "converged"
                elif not messages[i] and steps[i] == max_steps:
                    messages[i] = "max iterations"
            live = [i for i in range(k) if not messages[i]]
            if not live:
                break
            J = _each(jac, [X[i] for i in live])
            finite = np.isfinite(J).all(axis=(1, 2)).tolist()
            if not all(finite):
                for i, ok in zip(live, finite):
                    messages[i] = messages[i] if ok else "non-finite Jacobian"
                J, live = J[finite], [i for i in live if not messages[i]]
                if not live:
                    continue
            P = _newton_steps(J, np.array([G[i] for i in live]))  # row r: start live[r]
            t = [1.0] * len(live)
            pending = list(range(len(live)))
            while pending:
                cand = [X[live[r]] + t[r] * P[r] for r in pending]
                halved = []
                for x, g, r in zip(cand, _each(grad, cand), pending):
                    i = live[r]
                    fevals[i] += 1
                    rc = weighted_norm(weights, g)
                    if rc <= (1.0 - _ARMIJO_C * t[r]) * res[i]:  # False for a NaN residual
                        X[i], G[i], res[i] = x, g, rc
                        steps[i] += 1
                        continue
                    t[r] *= 0.5
                    if t[r] >= min_step:
                        halved.append(r)
                    else:
                        messages[i] = "line search stalled"
                pending = halved
    return [
        OptResult(x, r, n, f, r <= tol, message)
        for x, r, n, f, message in zip(X, res, steps, fevals, messages)
    ]


def polish_roots(grad, X0, weights, jac, tol=1e-8) -> list:
    """Drive the gradient to zero from each row of X0: damped Newton (``_newton``) on ``jac``.

    ``grad`` and ``jac`` take one state, or a stack of states along leading
    axes, as ``FlatProblem.gradient`` and ``jacobian`` do.  At most
    ``_MAX_NEWTON`` steps per start; one OptResult per start, whose
    ``iterations`` counts its Newton steps and ``fevals`` its gradient
    evaluations.
    """
    return _newton(grad, jac, X0, weights, tol, _MAX_NEWTON)


def polish_root(grad, x0, weights, jac, tol=1e-8) -> OptResult:
    """``polish_roots`` from the one start x0; ``fevals`` counts gradient calls."""
    return polish_roots(grad, [x0], weights, jac, tol)[0]


def least_squares_retry(grad, x0, weights, jac, newton: OptResult, tol=1e-8) -> OptResult:
    """The better of ``newton``, a polish from x0 that stopped short of tol, and least squares.

    ``scipy.optimize.least_squares`` with the same Jacobian runs from x0 on
    the weighted residual, and the smaller residual wins; its result has the
    message "least squares", ``iterations`` adds its Jacobians to the Newton
    steps and ``fevals`` its gradient calls.
    """
    from scipy import optimize  # the only scipy use; importing it costs most of a cold start

    sw = np.sqrt(weights)
    fevals = newton.fevals

    def counted(x):
        nonlocal fevals
        fevals += 1
        return grad(x)

    with np.errstate(over="ignore", invalid="ignore"):
        ls = optimize.least_squares(
            lambda x: sw * counted(x),
            x0,
            jac=lambda x: sw[:, None] * jac(x),
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
        res_ls = weighted_norm(weights, counted(ls.x))
    if res_ls < newton.residual:
        steps = newton.iterations + int(ls.njev)
        return OptResult(ls.x, res_ls, steps, fevals, res_ls <= tol, "least squares")
    return replace(newton, fevals=fevals)
