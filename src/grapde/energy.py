"""Action functional, its gradient in the measure-weighted metric, residuals.

The gradient returned by ``phi_grad`` is the vertex function pair (g_u, g_v)
with directional derivative  <phi'(u,v), (e1, e2)> = integral(g_u e1 + g_v e2).
Descent methods and the residual norm all use this mu-weighted metric, so
tolerances carry the same meaning on graphs with very different measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import OperatorOrder, grad_modulus, polylap_apply
from .graph import StatePair, VertexFunction, WeightedGraph, asvalues, integral
from .nonlinearity import HypothesisSpec, Nonlinearity, check_hypotheses, spike_vertex
from .spaces import SpaceSpec, w_norm

__all__ = ["FlatProblem", "ProblemInstance", "phi", "phi_grad", "el_residual_norm", "psi"]


def _odd_power(t: np.ndarray, p: float) -> np.ndarray:
    """|t|^(p-2) t with the continuous extension 0 at t = 0."""
    if p == 2:
        return t
    out = np.zeros_like(t)
    nz = t != 0
    out[nz] = np.abs(t[nz]) ** (p - 2) * t[nz]
    return out


class FlatProblem:
    """The flat-vector surface that every solver drives.

    A state is one ndarray holding the unknown blocks end to end: (u, v) for
    the system, u alone for the scalar problem.  Subclasses are dataclasses
    with ``graph``, ``nl``, ``spec`` and ``w``; they supply ``p``, ``q``,
    ``ord1``, ``ord2``, ``spaces`` (one SpaceSpec per block), ``at(w)``,
    ``energy``, ``gradient``, ``coupling_grad``, ``sign_screen``, the
    certificate functions ``bounds_mp``, ``bounds_min`` and ``ball_radius``,
    and the report-kind prefix.
    """

    kind_prefix = ""

    @property
    def weights(self) -> np.ndarray:
        """Metric weights of the flat state: mu on every block."""
        return np.tile(self.graph.mu, len(self.spaces))

    def split(self, x) -> tuple:
        n = self.graph.n
        return tuple(x[k * n : (k + 1) * n] for k in range(len(self.spaces)))

    def norm(self, x) -> float:
        """Sum of the block norms, each in its own space."""
        return sum(w_norm(self.graph, b, s) for b, s in zip(self.split(x), self.spaces))

    def residual(self, x) -> float:
        """sqrt of the mu-integral of the squared gradient; zero exactly at critical points."""
        return math.sqrt(integral(self.graph, sum(g * g for g in self.split(self.gradient(x)))))

    def spike(self) -> np.ndarray:
        """Indicator of the spike vertex x0 in every block."""
        x0 = self.spec.x0 or spike_vertex(self.graph, self.spec.L)
        s = np.zeros(self.graph.n)
        s[self.graph.index[x0]] = 1.0
        return np.tile(s, len(self.spaces))

    def state(self, x) -> StatePair:
        return StatePair(*(VertexFunction(self.graph, b) for b in self.split(x)))

    def check(self, sampling=None, h5_ball_radius=None):
        """Hypothesis screen with this problem's exponents and operator orders."""
        return check_hypotheses(
            self.nl, self.spec, self.graph, self.p, self.q, sampling,
            ord1=self.ord1, ord2=self.ord2, h5_ball_radius=h5_ball_radius,
        )


@dataclass(frozen=True)
class ProblemInstance(FlatProblem):
    """All data of one parametrized system: graph, operators, coupling, w."""

    graph: WeightedGraph
    ord1: OperatorOrder
    ord2: OperatorOrder
    nl: Nonlinearity
    spec: HypothesisSpec
    w: float = 0.0

    def __post_init__(self):
        lo, hi = self.spec.J
        if not (lo - 1e-12 <= self.w <= hi + 1e-12):
            raise ValueError(f"parameter w={self.w} outside interval J={self.spec.J}")

    @property
    def p(self) -> float:
        return self.ord1.s

    @property
    def q(self) -> float:
        return self.ord2.s

    @property
    def space1(self) -> SpaceSpec:
        return SpaceSpec(self.ord1, "h1")

    @property
    def space2(self) -> SpaceSpec:
        return SpaceSpec(self.ord2, "h2")

    @property
    def spaces(self) -> tuple:
        return (self.space1, self.space2)

    def at(self, w: float) -> "ProblemInstance":
        return ProblemInstance(self.graph, self.ord1, self.ord2, self.nl, self.spec, w)

    def energy(self, x) -> float:
        return phi(self, self.split(x))

    def gradient(self, x) -> np.ndarray:
        return np.concatenate(phi_grad(self, self.split(x)))

    def coupling_grad(self, x) -> np.ndarray:
        """Flat (F_u, F_v) at the state x."""
        u, v = self.split(x)
        return np.concatenate(
            [self.nl.values("Fu", u, v, self.w), self.nl.values("Fv", u, v, self.w)]
        )

    def sign_screen(self, sampling) -> tuple:
        """Verdict and witness of the sampled sign condition F_u t + F_v s < 0."""
        cond = self.check(sampling).conditions["NONEXIST"]
        return cond.verdict, cond.witness

    # The two-block certificates live in solvers.py, which imports this module.
    def bounds_mp(self, endpoint):
        from .solvers import bound_certificate_mp

        return bound_certificate_mp(self, endpoint)

    def bounds_min(self, t0, rho):
        from .solvers import bound_certificate_min

        return bound_certificate_min(self, t0, rho)

    def ball_radius(self, config=None):
        from .solvers import ball_radius

        return ball_radius(self, config)


def _unpack(inst: ProblemInstance, state) -> tuple:
    """(u, v) as ndarrays; a one-block state has v = 0."""
    if isinstance(state, StatePair):
        state = (state.u, state.v)
    u, v = state
    u = asvalues(inst.graph, u)
    return u, np.zeros_like(u) if v is None else asvalues(inst.graph, v)


def phi(inst: ProblemInstance, state) -> float:
    """Energy (1/p)||u||^p + (1/q)||v||^q - integral of F."""
    g = inst.graph
    u, v = _unpack(inst, state)
    p, q = inst.p, inst.q
    gu = grad_modulus(g, u, inst.ord1.m)
    gv = grad_modulus(g, v, inst.ord2.m)
    term_u = math.fsum(g.mu * (gu**p + g.h1 * np.abs(u) ** p)) / p
    term_v = math.fsum(g.mu * (gv**q + g.h2 * np.abs(v) ** q)) / q
    coupling = math.fsum(g.mu * inst.nl.values("F", u, v, inst.w))
    return term_u + term_v - coupling


def phi_grad(inst: ProblemInstance, state) -> tuple:
    """Measure-weighted gradient pair (g_u, g_v) as ndarrays."""
    g = inst.graph
    u, v = _unpack(inst, state)
    gu = (
        polylap_apply(g, u, inst.ord1)
        + g.h1 * _odd_power(u, inst.p)
        - inst.nl.values("Fu", u, v, inst.w)
    )
    gv = (
        polylap_apply(g, v, inst.ord2)
        + g.h2 * _odd_power(v, inst.q)
        - inst.nl.values("Fv", u, v, inst.w)
    )
    return gu, gv


def el_residual_norm(inst: ProblemInstance, state) -> float:
    """sqrt of the mu-integral of g_u^2 + g_v^2; zero exactly at critical points."""
    return inst.residual(np.concatenate(_unpack(inst, state)))


def psi(inst: ProblemInstance, state, g: Nonlinearity) -> float:
    """Control objective: integral of g(x, u, v, w) over the graph."""
    u, v = _unpack(inst, state)
    return math.fsum(inst.graph.mu * g.values("F", u, v, inst.w))
