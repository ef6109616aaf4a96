import numpy as np
import pytest

from _helpers import random_function, random_graph
from grapde.calculus import (
    OperatorOrder,
    grad_modulus,
    gradient_form,
    laplacian,
    p_laplacian,
    polylap_apply,
    polylap_weak_form,
)
from grapde.graph import integral, path_graph


def test_laplacian_on_two_path():
    g = path_graph(2)
    u = np.array([1.0, 0.0])
    assert np.allclose(laplacian(g, u), [-1.0, 1.0])


def test_laplacian_of_constant_is_zero():
    g = random_graph(np.random.default_rng(0), 6)
    assert np.allclose(laplacian(g, np.full(6, 3.7)), 0.0)


def test_gradient_form_on_two_path():
    g = path_graph(2)
    u = np.array([1.0, 0.0])
    assert np.allclose(gradient_form(g, u, u), [0.5, 0.5])


def test_grad_modulus_orders():
    g = path_graph(2)
    u = np.array([1.0, 0.0])
    assert np.allclose(grad_modulus(g, u, 1), np.sqrt([0.5, 0.5]))
    # even order: |Delta u|
    assert np.allclose(grad_modulus(g, u, 2), [1.0, 1.0])


def test_p_laplacian_two_path():
    g = path_graph(2)
    u = np.array([1.0, 0.0])
    # p = 2 reduces to the Laplacian
    assert np.allclose(p_laplacian(g, u, 2.0), laplacian(g, u))
    # p = 4: coefficient |grad u|^2 = 1/2 at both vertices
    assert np.allclose(p_laplacian(g, u, 4.0), [-0.5, 0.5])


def test_p_laplacian_rejects_small_p():
    g = path_graph(2)
    with pytest.raises(ValueError):
        p_laplacian(g, np.array([1.0, 0.0]), 1.5)


def test_operator_order_validation():
    with pytest.raises(ValueError):
        OperatorOrder(0, 2.0)
    with pytest.raises(ValueError):
        OperatorOrder(1, 1.0)


def test_laplacian_integrates_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng)
        u = random_function(rng, g)
        assert abs(integral(g, laplacian(g, u))) < 1e-10


def test_integration_by_parts():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_graph(rng)
        u = random_function(rng, g)
        phi = random_function(rng, g)
        lhs = integral(g, gradient_form(g, u, phi))
        rhs = -integral(g, laplacian(g, u) * phi)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


def test_first_order_operator_is_negative_p_laplacian():
    rng = np.random.default_rng(3)
    for p in (2.0, 3.0, 4.0):
        for _ in range(10):
            g = random_graph(rng)
            u = random_function(rng, g)
            lhs = polylap_apply(g, u, OperatorOrder(1, p))
            rhs = -p_laplacian(g, u, p)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("m,s", [(1, 2.0), (1, 3.0), (2, 2.0), (2, 4.0), (3, 2.0), (3, 3.0), (4, 2.0)])
def test_weak_strong_duality(m, s):
    rng = np.random.default_rng(10 + m)
    for _ in range(10):
        g = random_graph(rng)
        u = random_function(rng, g)
        phi = random_function(rng, g)
        ord = OperatorOrder(m, s)
        weak = polylap_weak_form(g, u, phi, ord)
        strong = integral(g, polylap_apply(g, u, ord) * phi)
        assert abs(weak - strong) < 1e-10 * (1.0 + abs(weak))


def test_weak_form_even_order_hand_value():
    # P2, m = 2, s = 2: integral of (Delta u)(Delta phi)
    g = path_graph(2)
    u = np.array([1.0, 0.0])
    phi = np.array([0.0, 1.0])
    # Delta u = (-1, 1), Delta phi = (1, -1) -> integral = -2
    assert polylap_weak_form(g, u, phi, OperatorOrder(2, 2.0)) == pytest.approx(-2.0)


def _polylap_uncached(graph, u, ord):
    """polylap_apply assembled from scratch: A and A^k rebuilt, A^0 = I multiplied."""
    m, s = ord.m, ord.s
    A = (graph.weight_matrix - np.diag(graph.degree)) / graph.mu[:, None]
    t = grad_modulus(graph, u, m)
    c = np.ones_like(t) if s == 2 else np.where(t != 0, np.abs(t) ** (s - 2), 0.0)
    M = np.linalg.matrix_power(A, m // 2)
    a = M @ u
    if m % 2 == 1:
        w_tilde = graph.weight_matrix * 0.5 * (c[:, None] + c[None, :])
        l_tilde = np.diag(w_tilde.sum(axis=1)) - w_tilde
        return (M.T @ (l_tilde @ a)) / graph.mu
    return (M.T @ (graph.mu * c * a)) / graph.mu


def test_laplacian_power_cache_is_per_graph():
    # two live graphs with the same n but different weights, called in turn:
    # a cache keyed by n would hand one graph's A^k to the other
    g1 = path_graph(5)
    g2 = path_graph(5, w=2.5)
    rng = np.random.default_rng(4)
    for m in (1, 2, 3, 4):
        for g in (g1, g2, g1, g2):
            u = random_function(rng, g)
            got = polylap_apply(g, u, OperatorOrder(m, 3.0))
            assert np.array_equal(got, _polylap_uncached(g, u, OperatorOrder(m, 3.0)))
    # graphs dropped after use, so a new one may reuse the id() of the last
    for seed in range(8):
        g = random_graph(np.random.default_rng(seed), 5)
        for m in (2, 3, 4):
            u = random_function(rng, g)
            got = polylap_apply(g, u, OperatorOrder(m, 2.0))
            assert np.array_equal(got, _polylap_uncached(g, u, OperatorOrder(m, 2.0)))
        del g
