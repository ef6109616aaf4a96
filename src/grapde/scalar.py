"""Single-unknown specialization: one equation, one norm, the primed bounds.

The scalar problem is the system with one unknown block: ``ScalarInstance``
exposes the same flat-vector surface as ``ProblemInstance`` (an n-vector
here), so the solvers, sweeps, control and nonexistence screen of
``solvers.py`` and ``continuation.py`` serve it unchanged.  What differs by
block count lives here: the energy and gradient, which evaluate only F and
F_u with one poly-Laplacian per gradient; the primed certificate constants,
which lose their min/max structure; and the 1-D sign screen.  Only p >= 2 is
supported: the bound machinery (the 2^{p-1} splitting inequalities and the
monotonicity constant) needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import path_saddle  # noqa: F401  bench/tracing.py requires this binding
from .calculus import OperatorOrder, polylap_apply
from .continuation import sweep
from .energy import FlatProblem, _odd_power
from .graph import WeightedGraph, asvalues, total_measure
from .nonlinearity import HypothesisSpec, Nonlinearity
from .solvers import (
    BoundCertificate,
    CertificateError,
    SolverConfig,
    SolverError,
    mountain_pass_solve,
)
from .spaces import SpaceSpec, w_norm

__all__ = [
    "ScalarInstance",
    "scalar_phi",
    "scalar_grad",
    "scalar_residual",
    "scalar_norm",
    "scalar_bounds",
    "scalar_bounds_min",
    "scalar_ball_radius",
]


@dataclass(frozen=True)
class ScalarInstance(FlatProblem):
    """Scalar problem data; the coupling expression may use u and w only."""

    graph: WeightedGraph
    ord: OperatorOrder
    nl: Nonlinearity  # F in (x, u, w); the partial Fu is the right-hand side f
    spec: HypothesisSpec
    potential: str = "h1"
    w: float = 0.0

    kind_prefix = "scalar-"

    def __post_init__(self):
        if self.ord.s < 2:
            raise ValueError("p must be >= 2")
        lo, hi = self.spec.J
        if not (lo - 1e-12 <= self.w <= hi + 1e-12):
            raise ValueError(f"parameter w={self.w} outside interval J={self.spec.J}")

    @property
    def p(self) -> float:
        return self.ord.s

    # one exponent and one order fill both slots of the shared screens
    q = p
    ord1 = ord2 = property(lambda self: self.ord)

    @property
    def space(self) -> SpaceSpec:
        return SpaceSpec(self.ord, self.potential)

    @property
    def spaces(self) -> tuple:
        return (self.space,)

    @property
    def h(self) -> np.ndarray:
        return self.graph.h1 if self.potential == "h1" else self.graph.h2

    def at(self, w: float) -> "ScalarInstance":
        return ScalarInstance(self.graph, self.ord, self.nl, self.spec, self.potential, w)

    def energy(self, u) -> float:
        return scalar_phi(self, u)

    def gradient(self, u) -> np.ndarray:
        return scalar_grad(self, u)

    def coupling_grad(self, u) -> np.ndarray:
        return self.nl.values("Fu", u, np.zeros_like(u), self.w)

    def sign_screen(self, sampling) -> tuple:
        """Screen f(x, t, w) t < 0 for t != 0 on the sampling box axis."""
        axis = np.linspace(-sampling.box_radius, sampling.box_radius, sampling.box_grid)
        axis = axis[axis != 0]
        for w in self.spec.w_grid(sampling.w_samples):
            vals = self.nl.grid_values("Fu", axis, 0.0, w) * axis
            bad = np.any(vals >= 0, axis=0)
            if np.any(bad):
                k = int(np.argmax(bad))
                vertex = self.graph.vertices[int(np.argmax(vals[:, k]))]
                return "fail", (vertex, float(axis[k]), float(w))
        return "pass (sampled)", None

    def bounds_mp(self, endpoint):
        return scalar_bounds(self, *endpoint)

    def bounds_min(self, t0, rho):
        return scalar_bounds_min(self, t0, rho)

    def ball_radius(self, config=None):
        return scalar_ball_radius(self, config)


def scalar_phi(inst: ScalarInstance, u) -> float:
    u = asvalues(inst.graph, u)
    p = inst.p
    norm_term = w_norm(inst.graph, u, inst.space) ** p / p
    coupling = inst.nl.values("F", u, np.zeros_like(u), inst.w)
    return norm_term - math.fsum(inst.graph.mu * coupling)


def scalar_grad(inst: ScalarInstance, u) -> np.ndarray:
    u = asvalues(inst.graph, u)
    return (
        polylap_apply(inst.graph, u, inst.ord)
        + inst.h * _odd_power(u, inst.p)
        - inst.coupling_grad(u)
    )


# bench/oracle.py re-checks scalar reports through these two names
scalar_residual = ScalarInstance.residual
scalar_norm = ScalarInstance.norm
# criterion_09 (tests/test_acceptance.py) solves the scalar saddle by this name
scalar_solve_mp = mountain_pass_solve
# bench/tracing.py times the scalar sweep under this name
scalar_sweep = sweep


def _embedding(inst: ScalarInstance) -> tuple:
    mu_min = float(np.min(inst.graph.mu))
    h_min = float(np.min(inst.h))
    b = (1.0 / (mu_min * h_min)) ** (1.0 / inst.p)
    K = total_measure(inst.graph) ** (1.0 / inst.p) * b
    return b, K


def scalar_bounds(inst: ScalarInstance, u0) -> BoundCertificate:
    """The primed constants: lower from the growth cap, upper from the endpoint."""
    spec = inst.spec
    p = inst.p
    if spec.c1 is None or spec.r1 is None or spec.theta is None:
        raise CertificateError("scalar certificate requires constants c1, r1, theta")
    if spec.r1 - p <= 0:
        raise CertificateError("constraint violated: r1 - p must be positive")
    if spec.theta - p <= 0:
        raise CertificateError("constraint violated: theta - p must be positive")
    b, _ = _embedding(inst)
    vol = total_measure(inst.graph)
    lower = (1.0 / (2.0**p * vol * spec.c1 * b**spec.r1)) ** (1.0 / (spec.r1 - p))
    norm0 = scalar_norm(inst, asvalues(inst.graph, u0))
    upper = (spec.theta * 2.0 ** (p - 1) * norm0**p / (spec.theta - p)) ** (1.0 / p)
    return BoundCertificate(
        kind="scalar-mountain-pass",
        lower=lower,
        upper=upper,
        constants={"C1": lower, "C2": upper, "endpoint_norm": norm0},
        endpoint=(np.asarray(u0, float),),
    )


def scalar_ball_radius(
    inst: ScalarInstance,
    config: SolverConfig = None,
    ladder_max: float = 1.0,
    ladder_len: int = 40,
    grid: int = 21,
) -> float:
    """Largest ladder radius on whose sphere the energy is certified positive.

    With D = 0.9/(p K^p) and E(rho) the sampled maximum of (F - D|t|^p)_+
    over the vertices, the w grid and |t| <= b rho, every u with
    ||u|| = rho has Phi >= 0.1 rho^p / p - vol * E(rho); the first radius
    rho = ladder_max 2^-k at which this bound is positive is returned.
    """
    config = config or SolverConfig()
    p = inst.p
    b, K = _embedding(inst)
    vol = total_measure(inst.graph)
    D = 0.9 / (p * K**p)
    ws = inst.spec.w_grid(config.w_grid)
    axis = np.linspace(-1.0, 1.0, grid)
    for k in range(ladder_len):
        rho = ladder_max * 0.5**k
        t = b * rho * axis
        cap = D * np.abs(t) ** p * (1.0 + 1e-9)
        budget = 0.1 * rho**p / (p * vol)
        if all(np.max(inst.nl.grid_values("F", t, 0.0, w) - cap) < budget for w in ws):
            return rho
    raise SolverError("small-amplitude growth margin not certifiable at any radius")


def scalar_bounds_min(inst: ScalarInstance, t0: float, rho: float) -> BoundCertificate:
    """Norm bounds for the minimizer in the ball of radius rho.

    If the start t0 * spike has energy -eta < 0, the bounds need no growth
    constants: the upper bound is rho, and the lower bound is the largest
    r = rho 2^-k with vol * max F < eta on |t| <= b r (0 if none qualifies),
    since Phi(u*) <= -eta forces int F(u*) >= eta.  Otherwise the primed
    constants apply: the lower bound from the growth cap (r1 > p) and the
    spike-scaled upper bound (theta > p).
    """
    spec = inst.spec
    p = inst.p
    b, _ = _embedding(inst)
    vol = total_measure(inst.graph)
    spike = inst.spike()
    eta = -scalar_phi(inst, t0 * spike)
    if eta > 0:
        axis = np.linspace(-1.0, 1.0, 21)
        lower = 0.0
        for k in range(40):
            r = rho * 0.5**k
            if vol * np.max(inst.nl.grid_values("F", b * r * axis, 0.0, inst.w)) < eta:
                lower = r
                break
        notes = ("energy-level bounds: the start has negative energy",)
        if lower == 0.0:
            notes += ("vacuous lower bound: no ladder radius qualifies",)
        return BoundCertificate(
            kind="scalar-local-min",
            lower=lower,
            upper=rho,
            constants={"start_energy": -eta, "t0": t0, "rho": rho},
            notes=notes,
        )
    if spec.c1 is None or spec.r1 is None or spec.theta is None:
        raise CertificateError("scalar certificate requires constants c1, r1, theta")
    if spec.r1 - p <= 0 or spec.theta - p <= 0:
        raise CertificateError("constraint violated: r1 and theta must exceed p")
    lower = (1.0 / (2.0**p * vol * spec.c1 * b**spec.r1)) ** (1.0 / (spec.r1 - p))
    spike_norm = scalar_norm(inst, spike)
    upper = (
        spec.theta * 2.0 ** (p - 1) * t0**p * spike_norm**p / (spec.theta - p)
    ) ** (1.0 / p)
    notes = ()
    if upper < lower:
        notes = ("degenerate certificate: upper bound below lower bound",)
    return BoundCertificate(
        kind="scalar-local-min",
        lower=lower,
        upper=upper,
        constants={"C3": lower, "C4": upper, "t0": t0, "rho": rho},
        notes=notes,
    )
