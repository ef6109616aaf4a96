"""Action functional, its gradient in the measure-weighted metric, residuals.

The gradient returned by ``phi_grad`` is the vertex function pair (g_u, g_v)
with directional derivative  <phi'(u,v), (e1, e2)> = integral(g_u e1 + g_v e2).
Descent methods and the residual norm all use this mu-weighted metric, so
tolerances carry the same meaning on graphs with very different measures.

``phi``, ``phi_grad`` and ``FlatProblem``'s ``energy``, ``gradient``,
``jacobian`` and ``norm`` take one state or a stack of states along a
leading axis, so a path of states is evaluated in one call; a stack gives an
array of energies or norms, a stack of gradients or of Jacobians.  A (k, N)
stack runs each matrix product of the graph operators once for all states,
which rounds differently from one state alone; ``gradient`` and
``jacobian`` also take a (k, 1, N) stack, one vector-matrix product per
state, whose results equal the single-state ones exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .calculus import OperatorOrder, grad_modulus, polylap_apply, polylap_jacobian, power_coeff
from .graph import StatePair, VertexFunction, WeightedGraph, asvalues, hop_ball, integral
from .nonlinearity import HypothesisSpec, Nonlinearity, check_hypotheses, spike_vertex
from .spaces import BlockEmbedding, SpaceSpec, block_embedding, w_norm

__all__ = [
    "FlatProblem", "Restriction", "ProblemInstance", "phi", "phi_grad", "el_residual_norm", "psi",
]


class FlatProblem:
    """The one problem type: unknown blocks over one flat vector.

    A state is one ndarray holding the unknown blocks end to end: (u, v) for
    the system, u alone for the scalar problem.  Subclasses are dataclasses
    with ``graph``, ``nl``, ``spec`` and ``w``; they supply only ``spaces``
    (one SpaceSpec per block, carrying its order, exponent and potential)
    and the report-kind prefix ``kind_prefix``.  Everything else, the
    certificates of ``solvers.py`` included, is written once over the blocks.
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
        """The blocks of a flat state (N,), or of a stack of them (k, N), along the last axis."""
        n = self.graph.n
        return tuple(x[..., k * n : (k + 1) * n] for k in range(len(self.spaces)))

    def norm(self, x):
        """Sum of the block norms, each in its own space; an array of norms for a stack."""
        return sum(w_norm(self.graph, b, s) for b, s in zip(self.split(x), self.spaces))

    def energy(self, x):
        return phi(self, self.split(x))

    def energies(self, x, ws):
        """The energy at x at each parameter of ws, lazily, each as ``at(w).energy(x)`` gives it.

        The norm part, which does not depend on w, is computed once.
        """
        u, v = _unpack(self, self.split(x))
        norms = _norm_part(self, u, v)
        return (norms - integral(self.graph, self.nl.values("F", u, v, w)) for w in ws)

    def gradient(self, x) -> np.ndarray:
        return np.concatenate(phi_grad(self, self.split(x)), axis=-1)

    def jacobian(self, x) -> np.ndarray:
        """Derivative of ``gradient`` at x: diag(1/mu) times the Hessian of the energy.

        Block i holds the derivative of its poly-Laplacian plus the diagonal
        h (s-1) |b|^(s-2) of its potential; the second partials of the
        coupling enter every block pair on the diagonal.  A stack of states
        (..., N) gives a stack of Jacobians (..., N, N).
        """
        g = self.graph
        blocks = self.split(x)
        u, v = Nonlinearity.pair(blocks)
        n, N = g.n, x.shape[-1]
        J = np.zeros(x.shape + (N,))
        flat = J.reshape(x.shape[:-1] + (N * N,))  # a view: J is contiguous

        def diagonal(i, j):  # of block (i, j) of each matrix, a view
            return flat[..., (i * N + j) * n :: N + 1][..., :n]

        for i, (b, space) in enumerate(zip(blocks, self.spaces)):
            s = space.ord.s
            J[..., i * n : (i + 1) * n, i * n : (i + 1) * n] = polylap_jacobian(g, b, space.ord)
            diagonal(i, i)[...] += getattr(g, space.potential) * (s - 1) * power_coeff(b, s)
        second = {}  # selector -> values: F_uv serves both off-diagonal blocks
        for i, j in itertools.product(range(len(blocks)), repeat=2):
            which = Nonlinearity.SECOND_PARTIALS[i][j]
            if which not in second:
                second[which] = self.nl.values(which, u, v, self.w)
            diagonal(i, j)[...] -= second[which]
        return J

    def morse_index(self, x) -> int:
        """Count of negative eigenvalues of the energy's Hessian at x.

        diag(mu) J is the Hessian, so with D = diag(weights) the matrix
        D^(1/2) J D^(-1/2) is symmetric and, by Sylvester's law, has the
        Hessian's inertia.  Eigenvalues below -1e-8 max(1, |lambda|_max)
        count as negative.
        """
        sw = np.sqrt(self.weights)
        S = sw[:, None] * self.jacobian(x) / sw[None, :]
        lam = np.linalg.eigvalsh(0.5 * (S + S.T))
        return int(np.sum(lam < -1e-8 * max(1.0, float(np.max(np.abs(lam))))))

    def coupling_grad(self, x) -> np.ndarray:
        """Flat (F_u, F_v) at the state x, or at each state of a stack; F_u alone for one block."""
        u, v = _unpack(self, self.split(x))
        partials = Nonlinearity.PARTIALS[: len(self.spaces)]
        return np.concatenate([self.nl.values(which, u, v, self.w) for which in partials], axis=-1)

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

    def check(self, sampling=None):
        """Hypothesis screen with this problem's exponents and operator orders."""
        return check_hypotheses(
            self.nl, self.spec, self.graph, self.p, self.q, sampling, spaces=self.spaces
        )


class Restriction:
    """A problem on the states supported on a vertex set B: its unknowns are the blocks on B.

    B is the vertices where the mask ``ball`` holds.  The problem is
    evaluated on the subgraph of B and a halo of m hops around it (m the
    highest operator order), with the halo pinned at 0.  Every |grad^m|
    term of a state supported on B lives within ceil(m/2) hops of B, so at
    such a state the energy and the norm are the full
    problem's, the energy up to the integral of F(x, 0, 0, w) beyond the
    halo (0 under (F1)), and so are the gradient and Jacobian entries on
    B.  It has the surface that the saddle search reads: ``energy``,
    ``gradient``, ``jacobian``, ``norm``, ``weights``, ``spaces`` and
    ``morse_index``, the index of the Hessian's block on B.  ``extend``
    and ``cut`` map its states to the full problem's and back.
    """

    def __init__(self, problem: FlatProblem, ball):
        g = problem.graph
        ball = np.asarray(ball, bool)
        m = max(space.ord.m for space in problem.spaces)
        keep = np.flatnonzero(hop_ball(g, ball, m))
        sub = g.induced(keep)
        self.problem = problem
        self.spaces = problem.spaces
        self.size = int(np.count_nonzero(ball))
        self.sub = replace(problem, graph=sub, nl=problem.nl.induced(sub, keep))
        blocks = range(len(problem.spaces))
        self._padded = len(problem.spaces) * sub.n  # the size of a sub state
        inner = np.flatnonzero(ball[keep])  # B's places among the kept vertices
        self.free = np.concatenate([k * sub.n + inner for k in blocks])  # in a sub state
        self.cols = np.concatenate([k * g.n + keep[inner] for k in blocks])  # in a full state
        self.weights = problem.weights[self.cols]

    def _pad(self, x) -> np.ndarray:
        z = np.zeros(np.shape(x)[:-1] + (self._padded,))
        z[..., self.free] = x
        return z

    def extend(self, x) -> np.ndarray:
        """The full problem's state that is x on B and 0 elsewhere."""
        z = np.zeros(np.shape(x)[:-1] + (self.problem.weights.size,))
        z[..., self.cols] = x
        return z

    def cut(self, x) -> np.ndarray:
        """The entries on B of the full problem's state x."""
        return x[..., self.cols]

    def energy(self, x):
        return self.sub.energy(self._pad(x))

    def gradient(self, x) -> np.ndarray:
        return self.sub.gradient(self._pad(x))[..., self.free]

    def jacobian(self, x) -> np.ndarray:
        return self.sub.jacobian(self._pad(x))[..., self.free[:, None], self.free]

    def norm(self, x):
        return self.sub.norm(self._pad(x))

    morse_index = FlatProblem.morse_index

    def full_index(self, x) -> tuple:
        """(Morse index, nullity) of the full problem's Hessian at the extension of x.

        Rows and columns of the Jacobian that are exactly 0 (an s > 2 block
        has no curvature where the state and its neighbours vanish) are left
        out and counted as the nullity.  On the rest, let S be the symmetric
        matrix of ``FlatProblem.morse_index`` and C the entries off B.
        Haynsworth's inertia additivity gives In(S) = In(S_BB) + In(S /
        S_BB), with the Schur complement S / S_BB = S_CC - S_CB S_BB^-1 S_BC.
        One Cholesky factorization shows the complement positive definite,
        and then the index is that of S_BB.  The index is None where this is
        not shown: the factorization fails, or an eigenvalue of S_BB lies
        within ``morse_index``'s threshold of 0.
        """
        full = self.problem
        J = full.jacobian(self.extend(x))
        zero = ~(J.any(axis=0) | J.any(axis=1))
        on_ball = np.zeros(zero.size, bool)
        on_ball[self.cols] = True
        b, c = np.flatnonzero(on_ball & ~zero), np.flatnonzero(~on_ball & ~zero)
        live = np.concatenate([b, c])
        sw = np.sqrt(full.weights[live])
        S = sw[:, None] * J[np.ix_(live, live)] / sw[None, :]
        S = 0.5 * (S + S.T)
        k = b.size
        lam, V = np.linalg.eigh(S[:k, :k])
        nullity = int(np.count_nonzero(zero))
        if k and np.min(np.abs(lam)) <= 1e-8 * max(1.0, float(np.max(np.abs(lam)))):
            return None, nullity
        W = S[k:, :k] @ V
        try:
            np.linalg.cholesky(S[k:, k:] - (W / lam) @ W.T)
        except np.linalg.LinAlgError:
            return None, nullity
        return int(np.count_nonzero(lam < 0)), nullity


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


def _unpack(inst: FlatProblem, state) -> tuple:
    """(u, v) as ndarrays; a one-block state has v = 0."""
    if isinstance(state, StatePair):
        state = (state.u,) if state.v is None else (state.u, state.v)
    return Nonlinearity.pair([asvalues(inst.graph, b) for b in state])


def phi(inst: FlatProblem, state):
    """Energy: the sum over blocks of (1/p)||u||^p, minus the integral of F.

    A float for one state; an array of energies for a stack of states.
    """
    u, v = _unpack(inst, state)
    return _norm_part(inst, u, v) - integral(inst.graph, inst.nl.values("F", u, v, inst.w))


def _norm_part(inst: FlatProblem, u, v):
    """The part of the energy that does not depend on w: the sum of (1/p)||u||^p."""
    g = inst.graph
    return sum(
        integral(g, grad_modulus(g, b, s.ord.m) ** s.ord.s
                 + getattr(g, s.potential) * np.abs(b) ** s.ord.s) / s.ord.s
        for b, s in zip((u, v), inst.spaces)
    )


def phi_grad(inst: FlatProblem, state) -> tuple:
    """Measure-weighted gradient blocks (g_u, g_v), or (g_u,) for one block, each in u's shape."""
    g = inst.graph
    u, v = _unpack(inst, state)
    return tuple(
        polylap_apply(g, b, s.ord)
        + getattr(g, s.potential) * power_coeff(b, s.ord.s) * b
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
