"""Seeded generator of graph and problem files for the benchmark.

Everything here is plain stdlib + numpy and writes the JSON formats that the
``grapde`` CLI reads (``schemas/graph.schema.json`` and
``schemas/problem.schema.json``).  The same seed always yields the same files.

Graph families:

* ``path`` and ``complete`` with unit data, the families the paper's examples
  use;
* ``grid``: an r x c lattice with unit data;
* ``random``: a random spanning tree plus random extra edges, with vertex
  measure, potentials and edge weights drawn from the seed.  This is the only
  family whose shape depends on the seed.
"""

from __future__ import annotations

import json
import os

import numpy as np


def _ids(n):
    return [f"v{i}" for i in range(n)]


def _graph(ids, edges, mu=None, h1=None, h2=None):
    n = len(ids)
    mu = [1.0] * n if mu is None else mu
    h1 = [1.0] * n if h1 is None else h1
    h2 = [1.0] * n if h2 is None else h2
    return {
        "vertices": [
            {"id": v, "mu": float(m), "h1": float(a), "h2": float(b)}
            for v, m, a, b in zip(ids, mu, h1, h2)
        ],
        "edges": [{"a": ids[i], "b": ids[j], "w": float(w)} for i, j, w in edges],
    }


def path(n):
    ids = _ids(n)
    return _graph(ids, [(i, i + 1, 1.0) for i in range(n - 1)])


def complete(n):
    ids = _ids(n)
    return _graph(ids, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def grid(rows, cols):
    ids = _ids(rows * cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c
            if c + 1 < cols:
                edges.append((k, k + 1, 1.0))
            if r + 1 < rows:
                edges.append((k, k + cols, 1.0))
    return _graph(ids, edges)


def random_sparse(n, rng, extra_per_vertex=0.5):
    """Connected random graph: a random recursive tree plus ~n/2 chords.

    Vertex data is drawn from [0.5, 2] and edge weights from [0.5, 1.5], so
    every value is positive and finite as the graph schema requires.
    """
    ids = _ids(n)
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = float(rng.uniform(0.5, 1.5))
    for _ in range(int(extra_per_vertex * n)):
        i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
        edges.setdefault((i, j), float(rng.uniform(0.5, 1.5)))
    mu = rng.uniform(0.5, 2.0, n)
    h1 = rng.uniform(0.5, 2.0, n)
    h2 = rng.uniform(0.5, 2.0, n)
    return _graph(ids, [(i, j, w) for (i, j), w in sorted(edges.items())], mu, h1, h2)


def graph_size(graph: dict) -> dict:
    return {"n": len(graph["vertices"]), "edges": len(graph["edges"])}


# --- problem files --------------------------------------------------------

def builtin_problem(name: str) -> dict:
    return {"builtin": name}


def control_problem() -> dict:
    """mp-example with the control-objective as the integral objective."""
    return {"builtin": "mp-example", "objective": "control-objective"}


def scalar_problem() -> dict:
    """Scalar quartic coupling u^4 (1 + w^2) with p = 2 and its constants.

    F <= 1 * |u|^4 * 2 on J = [-1, 1] gives c1 = 2, r1 = 4; the
    Ambrosetti-Rabinowitz exponent of u^4 is theta = 4 > p.
    """
    return {
        "F": "u^4*(1+w^2)",
        "p": 2,
        "scalar": True,
        "J": [-1, 1],
        "hypotheses": {"theta": 4, "c1": 2, "r1": 4},
    }


def write_json(path: str, data: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path
