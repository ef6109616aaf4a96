"""Sobolev-type norms on vertex functions and the embedding constants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import OperatorOrder, grad_modulus
from .graph import WeightedGraph, asvalues, integral, total_measure

__all__ = [
    "SpaceSpec",
    "EmbeddingConstants",
    "w_norm",
    "sup_norm",
    "embedding_constants",
    "BlockEmbedding",
    "block_embedding",
]


@dataclass(frozen=True)
class SpaceSpec:
    """One factor space: order/exponent plus which potential weights it."""

    ord: OperatorOrder
    potential: str = "h1"

    def __post_init__(self):
        if self.potential not in ("h1", "h2"):
            raise ValueError("potential must be 'h1' or 'h2'")


@dataclass(frozen=True)
class EmbeddingConstants:
    b: float
    d: float
    K1: float
    K2: float


def w_norm(graph: WeightedGraph, u, spec: SpaceSpec):
    """The norm of u in the space; for a stack (k, n), the array of the norms of its rows.

    Each norm of a stack equals the norm of its row alone: the rows go to
    ``grad_modulus`` as a (k, 1, n) stack, one vector-matrix product each,
    and each root is taken of a float, since numpy's array power rounds
    differently.
    """
    u = asvalues(graph, u)
    s = spec.ord.s
    h = graph.h1 if spec.potential == "h1" else graph.h2
    gm = grad_modulus(graph, u if u.ndim == 1 else u[:, None], spec.ord.m).reshape(u.shape)
    val = integral(graph, gm**s + h * np.abs(u) ** s)
    return val ** (1.0 / s) if u.ndim == 1 else np.array([float(v) ** (1.0 / s) for v in val])


def sup_norm(u) -> float:
    vals = u.values if hasattr(u, "values") else np.asarray(u, float)
    return float(np.max(np.abs(vals))) if vals.size else 0.0


class BlockEmbedding(NamedTuple):
    blocks: tuple  # (b, K) per block
    cap: float


def block_embedding(graph: WeightedGraph, spaces) -> BlockEmbedding:
    """Per-block (b, K) and the small-amplitude cap of one SpaceSpec per block.

    A block of exponent s weighted by potential h has the sup-norm embedding
    factor b = (1 / (min mu min h))^(1/s) and the growth constant
    K = vol^(1/s) b.  The cap min_i 1/(s_i K_i^{s_i}) bounds the coupling's
    small-amplitude growth: it is the (F2) bound, and the ball radius, the
    default builtin coefficients and the (H5) radius take a share of it.
    """
    mu_min = float(np.min(graph.mu))
    vol = total_measure(graph)
    pairs = []
    for space in spaces:
        s = space.ord.s
        b = (1.0 / (mu_min * float(np.min(getattr(graph, space.potential))))) ** (1.0 / s)
        pairs.append((b, vol ** (1.0 / s) * b))
    cap = min(1.0 / (space.ord.s * K**space.ord.s) for space, (_, K) in zip(spaces, pairs))
    return BlockEmbedding(tuple(pairs), cap)


def embedding_constants(graph: WeightedGraph, p: float, q: float) -> EmbeddingConstants:
    """(b, K1) and (d, K2) of the blocks of exponent p over h1 and q over h2."""
    spaces = (SpaceSpec(OperatorOrder(1, p), "h1"), SpaceSpec(OperatorOrder(1, q), "h2"))
    (b, K1), (d, K2) = block_embedding(graph, spaces).blocks
    return EmbeddingConstants(b, d, K1, K2)
