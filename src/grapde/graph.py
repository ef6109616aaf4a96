"""Weighted finite graphs, vertex functions, measures and integration.

A graph carries a positive vertex measure ``mu``, two positive potentials
``h1``/``h2`` and symmetric positive edge weights.  All numerical routines
in the package iterate vertices in the stored order, so results are
deterministic for a given input file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .schema import check, load_json

__all__ = [
    "GraphError",
    "WeightedGraph",
    "VertexFunction",
    "StatePair",
    "ValidationReport",
    "validate",
    "integral",
    "total_measure",
    "hop_ball",
    "load_graph",
    "save_graph",
]


class GraphError(ValueError):
    """Structurally malformed graph input (dangling edge, self-loop, ...)."""


@dataclass(frozen=True)
class WeightedGraph:
    """Finite graph with vertex measure, potentials and symmetric edge weights.

    ``vertices`` fixes the ordering used by every array in the package.
    Edges are stored as unordered pairs of vertex indices with ``i < j``;
    the dense weight matrix is symmetric by construction.
    """

    vertices: tuple[str, ...]
    mu: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    edges: tuple[tuple[int, int, float], ...]
    # caches, derived in __post_init__
    weight_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    degree: np.ndarray = field(init=False, repr=False, compare=False)
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.vertices)
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        if len(set(self.vertices)) != n:
            raise GraphError("duplicate vertex id")
        for arr_name in ("mu", "h1", "h2"):
            arr = np.asarray(getattr(self, arr_name), dtype=float)
            if arr.shape != (n,):
                raise GraphError(f"{arr_name} must have one value per vertex")
            object.__setattr__(self, arr_name, arr)
        w = np.zeros((n, n))
        seen = set()
        for i, j, wij in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge ({i},{j}) has a dangling endpoint")
            if i == j:
                raise GraphError(f"self-loop at vertex {self.vertices[i]!r}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphError(
                    f"duplicate edge {{{self.vertices[i]},{self.vertices[j]}}}"
                )
            seen.add(key)
            w[i, j] = wij
            w[j, i] = wij
        object.__setattr__(self, "weight_matrix", w)
        object.__setattr__(self, "degree", w.sum(axis=1))
        object.__setattr__(
            self, "index", {v: k for k, v in enumerate(self.vertices)}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.h1, other.h1)
            and np.array_equal(self.h2, other.h2)
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @classmethod
    def build(cls, vertices, edges) -> "WeightedGraph":
        """Construct from ``[(id, mu, h1, h2), ...]`` and ``[(id_a, id_b, w), ...]``."""
        ids = tuple(v[0] for v in vertices)
        idx = {v: k for k, v in enumerate(ids)}
        mu = np.array([v[1] for v in vertices], dtype=float)
        h1 = np.array([v[2] for v in vertices], dtype=float)
        h2 = np.array([v[3] for v in vertices], dtype=float)
        edge_idx = []
        for a, b, w in edges:
            if a not in idx or b not in idx:
                raise GraphError(f"edge {{{a},{b}}} has a dangling endpoint")
            edge_idx.append((idx[a], idx[b], float(w)))
        return cls(ids, mu, h1, h2, tuple(edge_idx))

    def induced(self, keep) -> "WeightedGraph":
        """The subgraph on the vertices ``keep`` (ascending indices) and the edges among them."""
        keep = np.asarray(keep)
        position = np.full(self.n, -1)
        position[keep] = np.arange(keep.size)
        edges = tuple(
            (int(position[i]), int(position[j]), w)
            for i, j, w in self.edges
            if position[i] >= 0 and position[j] >= 0
        )
        vertices = tuple(self.vertices[k] for k in keep)
        return WeightedGraph(vertices, self.mu[keep], self.h1[keep], self.h2[keep], edges)

    @cached_property
    def laplacian_matrix(self) -> np.ndarray:
        """diag(degree) - W, built on first use and kept on the graph, read-only."""
        L = np.diag(self.degree) - self.weight_matrix
        L.flags.writeable = False
        return L


@dataclass(frozen=True)
class VertexFunction:
    """A real value per vertex, aligned with a specific graph."""

    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.graph.n,):
            raise GraphError("vertex function domain does not match the graph")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_map(cls, graph: WeightedGraph, mapping) -> "VertexFunction":
        missing = [v for v in graph.vertices if v not in mapping]
        extra = [v for v in mapping if v not in graph.index]
        if missing or extra:
            raise GraphError(
                f"vertex function domain mismatch (missing={missing}, extra={extra})"
            )
        return cls(graph, np.array([mapping[v] for v in graph.vertices], float))

    def to_map(self) -> dict:
        return {v: float(x) for v, x in zip(self.graph.vertices, self.values)}


@dataclass(frozen=True)
class StatePair:
    """The unknown (u, v) of the coupled system, or u alone (v None) of the
    scalar problem; all blocks live on one graph."""

    u: VertexFunction
    v: VertexFunction = None

    def __post_init__(self):
        if self.v is not None and self.u.graph is not self.v.graph and self.u.graph != self.v.graph:
            raise GraphError("state components live on different graphs")

    @property
    def blocks(self) -> tuple:
        return (self.u,) if self.v is None else (self.u, self.v)

    def flat(self) -> np.ndarray:
        """The blocks end to end, as the solvers see a state."""
        return np.concatenate([f.values for f in self.blocks])


def asvalues(graph: WeightedGraph, f) -> np.ndarray:
    """Coerce a VertexFunction or array-like to an aligned ndarray.

    An array may be one vertex function, shape (n,), or a stack of them,
    shape (k, n), or a stack of one-function stacks, shape (k, 1, n): the
    vertices are always the last axis.
    """
    if isinstance(f, VertexFunction):
        if f.graph is not graph and f.graph != graph:
            raise GraphError("vertex function belongs to a different graph")
        return f.values
    vals = np.asarray(f, dtype=float)
    if vals.shape[-1:] != (graph.n,) or vals.shape[1:-1] not in ((), (1,)):
        raise GraphError("vertex function domain does not match the graph")
    return vals


@dataclass
class ValidationReport:
    ok: bool
    violations: list
    warnings: list


def validate(graph: WeightedGraph) -> ValidationReport:
    """Check positivity/finiteness invariants; isolated vertices only warn."""
    violations = []
    warnings = []
    for name, arr in (("mu", graph.mu), ("h1", graph.h1), ("h2", graph.h2)):
        if not np.all(np.isfinite(arr)):
            violations.append(f"non-finite {name}")
        bad = np.nonzero(arr <= 0)[0]
        for i in bad:
            violations.append(f"non-positive {name} at vertex {graph.vertices[i]!r}")
    for i, j, w in graph.edges:
        if not math.isfinite(w):
            violations.append(
                f"non-finite weight on {{{graph.vertices[i]},{graph.vertices[j]}}}"
            )
        elif w <= 0:
            violations.append(
                f"non-positive weight on {{{graph.vertices[i]},{graph.vertices[j]}}}"
            )
    for i in range(graph.n):
        if graph.degree[i] == 0:
            warnings.append(f"isolated vertex {graph.vertices[i]!r}")
    return ValidationReport(ok=not violations, violations=violations, warnings=warnings)


def integral(graph: WeightedGraph, f):
    """Measure-weighted sum over vertices (compensated, ``math.fsum``).

    A float for one vertex function; an array of sums for a stack (k, n).
    """
    vals = graph.mu * asvalues(graph, f)
    rows = vals.tolist()  # math.fsum reads Python floats faster than numpy scalars
    return math.fsum(rows) if vals.ndim == 1 else np.array([math.fsum(row) for row in rows])


def total_measure(graph: WeightedGraph) -> float:
    return math.fsum(graph.mu)


def hop_ball(graph: WeightedGraph, members, hops: int) -> np.ndarray:
    """Mask of the vertices within ``hops`` edges of a vertex where the mask ``members`` holds."""
    ball = np.array(members, bool)
    frontier = np.flatnonzero(ball)
    for _ in range(hops):
        near = (graph.weight_matrix[frontier] != 0).any(axis=0)
        frontier = np.flatnonzero(near & ~ball)
        if not frontier.size:
            break
        ball[frontier] = True
    return ball


# --- JSON graph files ---------------------------------------------------

def graph_from_dict(data) -> WeightedGraph:
    """The graph of a loaded graph file; the file must match ``schemas/graph.schema.json``."""
    check(data, "graph", GraphError)
    vertices = [(entry["id"], entry["mu"], entry["h1"], entry["h2"]) for entry in data["vertices"]]
    edges = [(entry["a"], entry["b"], entry["w"]) for entry in data.get("edges", [])]
    return WeightedGraph.build(vertices, edges)


def graph_to_dict(graph: WeightedGraph) -> dict:
    return {
        "vertices": [
            {"id": v, "mu": float(m), "h1": float(a), "h2": float(b)}
            for v, m, a, b in zip(graph.vertices, graph.mu, graph.h1, graph.h2)
        ],
        "edges": [
            {"a": graph.vertices[i], "b": graph.vertices[j], "w": float(w)}
            for i, j, w in graph.edges
        ],
    }


def load_graph(path) -> WeightedGraph:
    return graph_from_dict(load_json(path, GraphError))


def save_graph(graph: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2)


# --- small constructors used all over the test-suite --------------------

def path_graph(n: int, mu=1.0, h1=1.0, h2=1.0, w=1.0) -> WeightedGraph:
    ids = [f"v{i}" for i in range(n)]
    vertices = [(v, mu, h1, h2) for v in ids]
    edges = [(ids[i], ids[i + 1], w) for i in range(n - 1)]
    return WeightedGraph.build(vertices, edges)


def complete_graph(n: int, mu=1.0, h1=1.0, h2=1.0, w=1.0) -> WeightedGraph:
    ids = [f"v{i}" for i in range(n)]
    vertices = [(v, mu, h1, h2) for v in ids]
    edges = [
        (ids[i], ids[j], w) for i in range(n) for j in range(i + 1, n)
    ]
    return WeightedGraph.build(vertices, edges)
