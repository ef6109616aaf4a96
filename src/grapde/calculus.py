"""Discrete differential operators: Laplacian, gradient form, poly-Laplacian.

The operator of order ``m`` with exponent ``s`` acts weakly: its pairing with
a test function is an integral of gradient-form (odd ``m``) or iterated
Laplacian (even ``m``) terms.  ``polylap_apply`` recovers the strong form by
testing against the indicator basis; the matrix assembly below is that
recovery evaluated in closed form, so weak/strong duality is exact by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, asvalues, integral

__all__ = [
    "OperatorOrder",
    "laplacian",
    "gradient_form",
    "grad_modulus",
    "polylap_weak_form",
    "polylap_apply",
]


@dataclass(frozen=True)
class OperatorOrder:
    """Order m >= 1 and exponent s >= 2 of one poly-Laplacian factor."""

    m: int
    s: float

    def __post_init__(self):
        if self.m < 1 or int(self.m) != self.m:
            raise ValueError(f"operator order m must be a positive integer, got {self.m}")
        if self.s < 2:
            raise ValueError(f"exponent s must be >= 2, got {self.s}")


def laplacian(graph: WeightedGraph, u) -> np.ndarray:
    u = asvalues(graph, u)
    w = graph.weight_matrix
    return (w @ u - graph.degree * u) / graph.mu


def _lap_matrix(graph: WeightedGraph) -> np.ndarray:
    return (graph.weight_matrix - np.diag(graph.degree)) / graph.mu[:, None]


def gradient_form(graph: WeightedGraph, u, v) -> np.ndarray:
    """Pointwise bilinear form Gamma(u, v)."""
    u = asvalues(graph, u)
    v = asvalues(graph, v)
    w = graph.weight_matrix
    s = w @ (u * v) - u * (w @ v) - v * (w @ u) + graph.degree * u * v
    return s / (2.0 * graph.mu)


def _lap_power(graph: WeightedGraph, u: np.ndarray, k: int) -> np.ndarray:
    for _ in range(k):
        u = laplacian(graph, u)
    return u


def grad_modulus(graph: WeightedGraph, u, m: int) -> np.ndarray:
    """|grad^m u|; odd orders go through the gradient form, even through Delta."""
    if m < 1:
        raise ValueError("m must be >= 1")
    u = asvalues(graph, u)
    if m % 2 == 1:
        a = _lap_power(graph, u, (m - 1) // 2)
        g = gradient_form(graph, a, a)
        return np.sqrt(np.maximum(g, 0.0))
    return np.abs(_lap_power(graph, u, m // 2))


def _power_coeff(t: np.ndarray, s: float) -> np.ndarray:
    """|t|^(s-2) with the continuous extension 0^0 := 1 at s == 2."""
    if s == 2:
        return np.ones_like(t)
    out = np.zeros_like(t)
    nz = t != 0
    out[nz] = np.abs(t[nz]) ** (s - 2)
    return out


def p_laplacian(graph: WeightedGraph, u, p: float) -> np.ndarray:
    """Discrete p-Laplacian; the tests compare polylap_apply(m=1) against it."""
    if p < 2:
        raise ValueError("p must be >= 2")
    u = asvalues(graph, u)
    c = _power_coeff(grad_modulus(graph, u, 1), p)
    w = graph.weight_matrix
    s = w @ (c * u) - u * (w @ c) + c * (w @ u) - graph.degree * c * u
    return s / (2.0 * graph.mu)


def polylap_weak_form(graph: WeightedGraph, u, phi, ord: OperatorOrder) -> float:
    """Weak pairing of the order-(m, s) operator applied to u with phi."""
    u = asvalues(graph, u)
    phi = asvalues(graph, phi)
    m, s = ord.m, ord.s
    if m % 2 == 1:
        k = (m - 1) // 2
        a = _lap_power(graph, u, k)
        b = _lap_power(graph, phi, k)
        c = _power_coeff(grad_modulus(graph, u, m), s)
        return integral(graph, c * gradient_form(graph, a, b))
    j = m // 2
    a = _lap_power(graph, u, j)
    b = _lap_power(graph, phi, j)
    c = _power_coeff(grad_modulus(graph, u, m), s)
    return integral(graph, c * a * b)


def _reweighted_laplacian(graph: WeightedGraph, c: np.ndarray) -> np.ndarray:
    """Edge-reweighted Laplacian: its quadratic form matches the Gamma integral."""
    w_tilde = graph.weight_matrix * 0.5 * (c[:, None] + c[None, :])
    return np.diag(w_tilde.sum(axis=1)) - w_tilde


def polylap_apply(graph: WeightedGraph, u, ord: OperatorOrder) -> np.ndarray:
    """Strong-form vertex function r with integral(r * phi) == weak(u, phi).

    Equivalent to testing the weak form against the indicator of every
    vertex; assembled as a matrix product for exact duality at O(n^2) cost.
    What does not depend on u is built once per graph (``graph.operator``):
    the Laplacian power A^k, and at s = 2 (coefficient 1) the reweighted
    Laplacian.  A^0 = I is not multiplied.
    """
    u = asvalues(graph, u)
    m, s = ord.m, ord.s
    k = m // 2
    M = None
    if k:
        M = graph.operator(("A^k", k), lambda g: np.linalg.matrix_power(_lap_matrix(g), k))
    a = u if M is None else M @ u
    # at s = 2 the coefficient is 1 whatever u is
    c = np.ones(graph.n) if s == 2 else _power_coeff(grad_modulus(graph, u, m), s)
    if m % 2 == 0:
        r = graph.mu * c * a
    elif s == 2:
        r = graph.operator("L(c=1)", lambda g: _reweighted_laplacian(g, c)) @ a
    else:
        r = _reweighted_laplacian(graph, c) @ a
    return (r if M is None else M.T @ r) / graph.mu
