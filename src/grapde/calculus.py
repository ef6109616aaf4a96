"""Discrete differential operators: Laplacian, gradient form, poly-Laplacian.

The operator of order ``m`` with exponent ``s`` acts weakly: its pairing with
a test function is an integral of gradient-form (odd ``m``) or iterated
Laplacian (even ``m``) terms.  ``polylap_apply`` recovers the strong form by
testing against the indicator basis; the matrix assembly below is that
recovery evaluated in closed form, so weak/strong duality is exact by
construction.

Every operator takes one vertex function, shape (n,), or a stack of them,
shape (k, n) or (k, 1, n), and works along the last axis; the weight
matrix is symmetric, so ``u @ W`` is W applied to each state.
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
    "power_coeff",
    "polylap_weak_form",
    "polylap_apply",
    "polylap_jacobian",
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


def _lap_power(graph: WeightedGraph, u: np.ndarray, k: int) -> np.ndarray:
    """Delta^k along the last axis: each vector, or each row of a matrix, is a function."""
    for _ in range(k):
        u = (u @ graph.weight_matrix - graph.degree * u) / graph.mu
    return u


def laplacian(graph: WeightedGraph, u) -> np.ndarray:
    return _lap_power(graph, asvalues(graph, u), 1)


def gradient_form(graph: WeightedGraph, u, v) -> np.ndarray:
    """Pointwise bilinear form Gamma(u, v)."""
    u = asvalues(graph, u)
    v = asvalues(graph, v)
    w = graph.weight_matrix
    s = (u * v) @ w - u * (v @ w) - v * (u @ w) + graph.degree * u * v
    return s / (2.0 * graph.mu)


def _modulus(graph: WeightedGraph, a: np.ndarray, m: int) -> np.ndarray:
    """|grad^m u| from a = Delta^(m // 2) u: sqrt(Gamma(a, a)) for odd m, |a| for even."""
    if m % 2 == 1:
        return np.sqrt(np.maximum(gradient_form(graph, a, a), 0.0))
    return np.abs(a)


def grad_modulus(graph: WeightedGraph, u, m: int) -> np.ndarray:
    """|grad^m u|; odd orders go through the gradient form, even through Delta."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _modulus(graph, _lap_power(graph, asvalues(graph, u), m // 2), m)


def power_coeff(t: np.ndarray, s: float) -> np.ndarray:
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
    c = power_coeff(grad_modulus(graph, u, 1), p)
    w = graph.weight_matrix
    s = w @ (c * u) - u * (w @ c) + c * (w @ u) - graph.degree * c * u
    return s / (2.0 * graph.mu)


def polylap_weak_form(graph: WeightedGraph, u, phi, ord: OperatorOrder) -> float:
    """Weak pairing of the order-(m, s) operator applied to u with phi."""
    m, k = ord.m, ord.m // 2
    a = _lap_power(graph, asvalues(graph, u), k)
    b = _lap_power(graph, asvalues(graph, phi), k)
    c = power_coeff(_modulus(graph, a, m), ord.s)
    return integral(graph, c * (gradient_form(graph, a, b) if m % 2 else a * b))


def _diag(A: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a matrix, or of each matrix of a stack."""
    return np.einsum("...ii->...i", A)


def _laplacian_of(w: np.ndarray) -> np.ndarray:
    """diag(row sums of w) - w, for one weight matrix or a stack of them."""
    L = np.zeros_like(w)
    _diag(L)[...] = w.sum(axis=-1)
    L -= w
    return L


def _reweighted_laplacian(graph: WeightedGraph, c: np.ndarray) -> np.ndarray:
    """Edge-reweighted Laplacian, one per row of a stack c.

    Its quadratic form matches the Gamma integral.
    """
    return _laplacian_of(graph.weight_matrix * 0.5 * (c[..., :, None] + c[..., None, :]))


def polylap_apply(graph: WeightedGraph, u, ord: OperatorOrder) -> np.ndarray:
    """Strong-form vertex function r with integral(r * phi) == weak(u, phi).

    Equivalent to testing the weak form against the indicator of every
    vertex, in closed form at O(n^2) cost per state; u may be a stack of
    states, shape (k, n).  With a = Delta^k u (k = m // 2), the result is
    Delta^k (r / mu), for r the mu-weighted c a (even m) or the reweighted
    Laplacian of a (odd m), c = |grad^m u|^(s-2); as A^T = mu A / mu for
    the Laplacian matrix A, that is M^T r / mu for M = A^k, which is never
    formed.  The reweighted Laplacian is applied as
    0.5 (c (deg a - W a) + a (W c) - W (c a)), so no n x n matrix is built
    per state; at s = 2 (coefficient 1) it is ``graph.laplacian_matrix``.
    """
    u = asvalues(graph, u)
    m, s = ord.m, ord.s
    k = m // 2
    a = _lap_power(graph, u, k)
    # at s = 2 the coefficient is 1 whatever u is
    c = np.ones(graph.n) if s == 2 else power_coeff(_modulus(graph, a, m), s)
    if m % 2 == 0:
        r = graph.mu * c * a
    elif s == 2:
        r = a @ graph.laplacian_matrix
    else:
        w = graph.weight_matrix
        r = 0.5 * (c * (graph.degree * a - a @ w) + a * (c @ w) - (c * a) @ w)
    return _lap_power(graph, r / graph.mu, k)


def polylap_jacobian(graph: WeightedGraph, u, ord: OperatorOrder) -> np.ndarray:
    """The n x n derivative of ``polylap_apply`` at u; a stack (k, n, n) for a stack of states.

    With a = A^k u (k = m // 2), ``polylap_apply`` is M^T r(a) / mu for
    M = A^k, where r is the gradient in a of the integral of |grad^m u|^s / s.
    Its Hessian H(a) is, for even m, diag(mu (s-1) |a|^(s-2)); for odd m,
    with G = Gamma(a, a) and c = G^((s-2)/2),

        H = L~(c) + R^T diag((s-2) / (4 mu) G^((s-4)/2)) R,

    where L~ is the reweighted Laplacian, R[x, x] = sum_y w_xy (a_x - a_y)
    and R[x, y] = -w_xy (a_x - a_y), so that dG = R da / mu.  A row of R
    vanishes where G = 0, and its coefficient is taken as 0 there.  The
    derivative is diag(1/mu) M^T H M = A^k diag(1/mu) H M, applied by
    Delta^k twice: over the rows, H M = (H / mu) M^T mu, then over the
    columns.
    """
    u = asvalues(graph, u)
    m, s = ord.m, ord.s
    k = m // 2
    a = _lap_power(graph, u, k)
    if m % 2 == 0:
        H = np.zeros(a.shape + (graph.n,))
        _diag(H)[...] = graph.mu * (s - 1) * power_coeff(a, s)
    elif s == 2:  # the same for every state
        H = graph.laplacian_matrix
    else:
        G = np.maximum(gradient_form(graph, a, a), 0.0)
        R = _laplacian_of(graph.weight_matrix * (a[..., :, None] - a[..., None, :]))
        kappa = np.zeros_like(G)
        nz = G > 0
        mu = np.broadcast_to(graph.mu, G.shape)
        kappa[nz] = (s - 2) / (4.0 * mu[nz]) * G[nz] ** ((s - 4) / 2)
        R_T = np.swapaxes(R, -1, -2)
        H = _reweighted_laplacian(graph, power_coeff(np.sqrt(G), s)) + R_T @ (kappa[..., None] * R)
    if k:
        H = _lap_power(graph, H / graph.mu, k) * graph.mu
        H = np.swapaxes(_lap_power(graph, np.swapaxes(H / graph.mu[:, None], -1, -2), k), -1, -2)
    else:
        H = H / graph.mu[:, None]
    return H if H.ndim > a.ndim else np.broadcast_to(H, a.shape + (graph.n,))
