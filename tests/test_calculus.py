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


def test_laplacian_power_cache_is_per_graph():
    # two live graphs with the same n but different weights, called in turn:
    # a cache keyed by n would hand one graph's Laplacian to the other; the
    # s = 2, m = 1 operator applies the cached diag(degree) - W
    g1 = path_graph(5)
    g2 = path_graph(5, w=2.5)
    rng = np.random.default_rng(4)

    def uncached(g, u):
        W = g.weight_matrix
        return (u @ (np.diag(W.sum(axis=1)) - W)) / g.mu

    for g in (g1, g2, g1, g2):
        u = random_function(rng, g)
        got = polylap_apply(g, u, OperatorOrder(1, 2.0))
        assert np.array_equal(got, uncached(g, u))
        assert not g.laplacian_matrix.flags.writeable
    # graphs dropped after use, so a new one may reuse the id() of the last
    for seed in range(8):
        g = random_graph(np.random.default_rng(seed), 5)
        u = random_function(rng, g)
        assert np.array_equal(polylap_apply(g, u, OperatorOrder(1, 2.0)), uncached(g, u))
        del g


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [2.0, 2.5, 3.0])
def test_reweighted_laplacian_applied_in_closed_form(m, s):
    # odd m: polylap_apply applies the reweighted Laplacian diag(w~ 1) - w~,
    # w~_xy = w_xy (c_x + c_y) / 2, without building it; even m: diag(mu c);
    # M = A^k is applied, never formed; compare the matrices
    rng = np.random.default_rng(20 + m)
    for _ in range(10):
        g = random_graph(rng)
        u = random_function(rng, g)
        W = g.weight_matrix
        A = (W - np.diag(g.degree)) / g.mu[:, None]
        M = np.linalg.matrix_power(A, m // 2)
        t = grad_modulus(g, u, m)
        c = np.where(t != 0, np.abs(t) ** (s - 2), 0.0)
        if m % 2:
            w_tilde = W * 0.5 * (c[:, None] + c[None, :])
            inner = np.diag(w_tilde.sum(axis=1)) - w_tilde
        else:
            inner = np.diag(g.mu * c)
        want = M.T @ (inner @ (M @ u)) / g.mu
        got = polylap_apply(g, u, OperatorOrder(m, s))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

