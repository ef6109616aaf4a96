"""Single-unknown specialization: the system with one unknown block.

``ScalarInstance`` is a ``FlatProblem`` whose ``spaces`` hold one SpaceSpec,
so the energy, gradient, embedding constants, ball radius, certificates,
hypothesis screen, solvers, sweeps, control and nonexistence screen of
``energy.py``, ``nonlinearity.py``, ``solvers.py`` and ``continuation.py``
serve it unchanged (the coupling is evaluated with v = 0).  Its primed
certificate constants C1'-C4' are the one-block case of the system's
``bound_certificate_mp`` and ``bound_certificate_min``.  What is its own lives
here: the single SpaceSpec and the ``scalar-`` report-kind prefix.  Only
p >= 2 is supported: the bound machinery (the 2^{p-1} splitting inequalities
and the monotonicity constant) needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._optim import path_saddle  # noqa: F401  bench/tracing.py requires this binding
from .calculus import OperatorOrder, polylap_apply  # noqa: F401  polylap_apply: likewise
from .continuation import sweep
from .energy import FlatProblem, phi_grad
from .graph import WeightedGraph
from .nonlinearity import HypothesisSpec, Nonlinearity
from .solvers import bound_certificate_mp, mountain_pass_solve
from .spaces import SpaceSpec

__all__ = [
    "ScalarInstance",
    "scalar_grad",
    "scalar_residual",
    "scalar_norm",
    "scalar_bounds",
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

    @cached_property
    def spaces(self) -> tuple:
        return (SpaceSpec(self.ord, self.potential),)


# bench/tracing.py requires this binding; the solvers call ScalarInstance.gradient
def scalar_grad(inst: ScalarInstance, u) -> np.ndarray:
    """Measure-weighted gradient of the scalar energy at u."""
    return phi_grad(inst, (u,))[0]


# bench/oracle.py re-checks scalar reports through these two names
scalar_residual = ScalarInstance.residual
scalar_norm = ScalarInstance.norm
# criterion_09 (tests/test_acceptance.py) solves the scalar saddle and reads
# its primed bounds C1', C2' (the one-block case of the system's) by these names
scalar_solve_mp = mountain_pass_solve
scalar_bounds = lambda inst, u0: bound_certificate_mp(inst, (u0,))  # noqa: E731
# bench/tracing.py times the scalar sweep under this name
scalar_sweep = sweep
