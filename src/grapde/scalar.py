"""Single-unknown specialization: one equation, one norm, the primed bounds.

The scalar problem is the system with one unknown block: ``ScalarInstance``
is a ``FlatProblem`` whose ``spaces`` hold one SpaceSpec, so the energy,
gradient, embedding constants, ball radius, energy-level bounds, hypothesis
screen, solvers, sweeps, control and nonexistence screen of ``energy.py``,
``nonlinearity.py``, ``solvers.py`` and ``continuation.py`` serve it
unchanged (the coupling is evaluated with v = 0).  What is its own lives here: the primed
certificate constants, which lose the min/max structure of the system's, and
the ``scalar-`` report-kind prefix.  Only p >= 2 is supported: the bound
machinery (the 2^{p-1} splitting inequalities and the monotonicity constant)
needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._optim import path_saddle  # noqa: F401  bench/tracing.py requires this binding
from .calculus import OperatorOrder, polylap_apply  # noqa: F401  polylap_apply: likewise
from .continuation import sweep
from .energy import FlatProblem, phi_grad
from .graph import WeightedGraph, asvalues, total_measure
from .nonlinearity import HypothesisSpec, Nonlinearity
from .solvers import (
    BoundCertificate,
    CertificateError,
    energy_level_bounds,
    mountain_pass_solve,
)
from .spaces import SpaceSpec

__all__ = [
    "ScalarInstance",
    "scalar_grad",
    "scalar_residual",
    "scalar_norm",
    "scalar_bounds",
    "scalar_bounds_min",
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
        super().__post_init__()

    @cached_property
    def spaces(self) -> tuple:
        return (SpaceSpec(self.ord, self.potential),)

    def bounds_mp(self, endpoint):
        return scalar_bounds(self, *endpoint)

    def bounds_min(self, t0, rho):
        return scalar_bounds_min(self, t0, rho)


# bench/tracing.py requires this binding; the solvers call ScalarInstance.gradient
def scalar_grad(inst: ScalarInstance, u) -> np.ndarray:
    """Measure-weighted gradient of the scalar energy at u."""
    return phi_grad(inst, (u,))[0]


# bench/oracle.py re-checks scalar reports through these two names
scalar_residual = ScalarInstance.residual
scalar_norm = ScalarInstance.norm
# criterion_09 (tests/test_acceptance.py) solves the scalar saddle by this name
scalar_solve_mp = mountain_pass_solve
# bench/tracing.py times the scalar sweep under this name
scalar_sweep = sweep


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
    (b, _), = inst.embedding.blocks
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


def scalar_bounds_min(inst: ScalarInstance, t0: float, rho: float) -> BoundCertificate:
    """Norm bounds for the minimizer in the ball of radius rho.

    If the start t0 * spike has energy -eta < 0, the bounds need no growth
    constants: the upper bound is rho, and the lower bound is the largest
    r = rho 2^-k with vol * max F < eta on |t| <= b r (0 if none qualifies),
    since Phi(u*) <= -eta forces int F(u*) >= eta.  Otherwise the primed
    constants apply: the lower bound from the growth cap (r1 > p) and the
    spike-scaled upper bound (theta > p).
    """
    cert = energy_level_bounds(inst, t0, rho)
    if cert is not None:
        return cert
    spec = inst.spec
    p = inst.p
    (b, _), = inst.embedding.blocks
    vol = total_measure(inst.graph)
    if spec.c1 is None or spec.r1 is None or spec.theta is None:
        raise CertificateError("scalar certificate requires constants c1, r1, theta")
    if spec.r1 - p <= 0 or spec.theta - p <= 0:
        raise CertificateError("constraint violated: r1 and theta must exceed p")
    lower = (1.0 / (2.0**p * vol * spec.c1 * b**spec.r1)) ** (1.0 / (spec.r1 - p))
    spike_norm = scalar_norm(inst, inst.spike())
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
