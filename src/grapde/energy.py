"""Action functional, its gradient in the measure-weighted metric, residuals.

The gradient returned by ``phi_grad`` is the vertex function pair (g_u, g_v)
with directional derivative  <phi'(u,v), (e1, e2)> = integral(g_u e1 + g_v e2).
Descent methods and the residual norm all use this mu-weighted metric, so
tolerances carry the same meaning on graphs with very different measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .calculus import OperatorOrder, grad_modulus, polylap_apply
from .graph import StatePair, VertexFunction, WeightedGraph, asvalues, integral
from .nonlinearity import HypothesisSpec, Nonlinearity, check_hypotheses, spike_vertex
from .spaces import BlockEmbedding, SpaceSpec, block_embedding, w_norm

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
    """The one problem type: unknown blocks over one flat vector.

    A state is one ndarray holding the unknown blocks end to end: (u, v) for
    the system, u alone for the scalar problem.  Subclasses are dataclasses
    with ``graph``, ``nl``, ``spec`` and ``w``; they supply ``spaces`` (one
    SpaceSpec per block, carrying its order, exponent and potential), the
    certificate functions ``bounds_mp`` and ``bounds_min``, and the
    report-kind prefix.  Everything else is written once over the blocks.
    """

    kind_prefix = ""

    def __post_init__(self):
        lo, hi = self.spec.J
        if not (lo - 1e-12 <= self.w <= hi + 1e-12):
            raise ValueError(f"parameter w={self.w} outside interval J={self.spec.J}")

    @property
    def p(self) -> float:
        return self.spaces[0].ord.s

    @property
    def q(self) -> float:
        """Exponent of the last block (p itself for one block)."""
        return self.spaces[-1].ord.s

    def at(self, w: float):
        return replace(self, w=w)

    @property
    def weights(self) -> np.ndarray:
        """Metric weights of the flat state: mu on every block."""
        return np.tile(self.graph.mu, len(self.spaces))

    @cached_property
    def embedding(self) -> BlockEmbedding:
        """Per-block (b, K) and the small-amplitude cap: ``spaces.block_embedding``."""
        return block_embedding(self.graph, self.spaces)

    def split(self, x) -> tuple:
        n = self.graph.n
        return tuple(x[k * n : (k + 1) * n] for k in range(len(self.spaces)))

    def norm(self, x) -> float:
        """Sum of the block norms, each in its own space."""
        return sum(w_norm(self.graph, b, s) for b, s in zip(self.split(x), self.spaces))

    def energy(self, x) -> float:
        return phi(self, self.split(x))

    def gradient(self, x) -> np.ndarray:
        return np.concatenate(phi_grad(self, self.split(x)))

    def coupling_grad(self, x) -> np.ndarray:
        """Flat (F_u, F_v) at the state x; F_u alone for one block."""
        u, v = _unpack(self, self.split(x))
        partials = Nonlinearity.PARTIALS[: len(self.spaces)]
        return np.concatenate([self.nl.values(which, u, v, self.w) for which in partials])

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
            h5_ball_radius=h5_ball_radius, spaces=self.spaces,
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

    @cached_property
    def spaces(self) -> tuple:
        return (SpaceSpec(self.ord1, "h1"), SpaceSpec(self.ord2, "h2"))

    # bench/oracle.py and the tests read the two factor spaces under these names
    space1 = property(lambda self: self.spaces[0])
    space2 = property(lambda self: self.spaces[1])

    # The two-block certificates live in solvers.py, which imports this module.
    def bounds_mp(self, endpoint):
        from .solvers import bound_certificate_mp

        return bound_certificate_mp(self, endpoint)

    def bounds_min(self, t0, rho):
        from .solvers import bound_certificate_min

        return bound_certificate_min(self, t0, rho)


def _unpack(inst: FlatProblem, state) -> tuple:
    """(u, v) as ndarrays; a one-block state has v = 0."""
    if isinstance(state, StatePair):
        state = (state.u,) if state.v is None else (state.u, state.v)
    return Nonlinearity.pair([asvalues(inst.graph, b) for b in state])


def phi(inst: FlatProblem, state) -> float:
    """Energy: the sum over blocks of (1/p)||u||^p, minus the integral of F."""
    g = inst.graph
    u, v = _unpack(inst, state)
    norms = sum(
        math.fsum(g.mu * (grad_modulus(g, b, s.ord.m) ** s.ord.s
                          + getattr(g, s.potential) * np.abs(b) ** s.ord.s)) / s.ord.s
        for b, s in zip((u, v), inst.spaces)
    )
    return norms - math.fsum(g.mu * inst.nl.values("F", u, v, inst.w))


def phi_grad(inst: FlatProblem, state) -> tuple:
    """Measure-weighted gradient blocks (g_u, g_v), or (g_u,) for one block."""
    g = inst.graph
    u, v = _unpack(inst, state)
    return tuple(
        polylap_apply(g, b, s.ord)
        + getattr(g, s.potential) * _odd_power(b, s.ord.s)
        - inst.nl.values(which, u, v, inst.w)
        for b, s, which in zip((u, v), inst.spaces, Nonlinearity.PARTIALS)
    )


def el_residual_norm(inst: FlatProblem, state) -> float:
    """sqrt of the mu-integral of g_u^2 + g_v^2; zero exactly at critical points."""
    return inst.residual(np.concatenate(_unpack(inst, state)))


def psi(inst: FlatProblem, state, g: Nonlinearity) -> float:
    """Control objective: integral of g(x, u, v, w) over the graph."""
    u, v = _unpack(inst, state)
    return math.fsum(inst.graph.mu * g.values("F", u, v, inst.w))
