import numpy as np
import pytest

from _helpers import random_function, random_graph
from grapde.calculus import OperatorOrder
from grapde.graph import StatePair, VertexFunction, path_graph
from grapde.spaces import (
    SpaceSpec,
    block_embedding,
    embedding_constants,
    lr_norm,
    product_norm,
    sup_norm,
    w_norm,
)


def test_w_norm_hand_value():
    g = path_graph(2)
    u = np.array([1.0, 0.0])
    # integral |grad u|^2 = 1, integral u^2 = 1 -> norm sqrt(2)
    assert w_norm(g, u, SpaceSpec(OperatorOrder(1, 2.0))) == pytest.approx(np.sqrt(2.0))


def test_w_norm_uses_selected_potential():
    g = path_graph(2, h1=1.0, h2=4.0)
    u = np.array([1.0, 0.0])
    n1 = w_norm(g, u, SpaceSpec(OperatorOrder(1, 2.0), "h1"))
    n2 = w_norm(g, u, SpaceSpec(OperatorOrder(1, 2.0), "h2"))
    assert n1 == pytest.approx(np.sqrt(2.0))
    assert n2 == pytest.approx(np.sqrt(5.0))


def test_space_spec_potential_validated():
    with pytest.raises(ValueError):
        SpaceSpec(OperatorOrder(1, 2.0), "h3")


def test_product_norm_is_sum():
    g = path_graph(2)
    u = VertexFunction(g, np.array([1.0, 0.0]))
    state = StatePair(u, u)
    s1 = SpaceSpec(OperatorOrder(1, 2.0), "h1")
    s2 = SpaceSpec(OperatorOrder(1, 2.0), "h2")
    assert product_norm(g, state, s1, s2) == pytest.approx(2.0 * np.sqrt(2.0))


def test_sup_and_lr_norms():
    g = path_graph(2, mu=2.0)
    u = np.array([3.0, -4.0])
    assert sup_norm(u) == 4.0
    assert lr_norm(g, u, 2.0) == pytest.approx(np.sqrt(2 * 9 + 2 * 16))


def test_embedding_constants_hand_values():
    g = path_graph(2)
    emb = embedding_constants(g, 2.0, 2.0)
    assert emb.b == 1.0
    assert emb.d == 1.0
    assert emb.K1 == pytest.approx(np.sqrt(2.0))
    assert emb.K2 == pytest.approx(np.sqrt(2.0))


def test_embedding_constants_scaling():
    g = path_graph(2, mu=4.0, h1=0.25)
    emb = embedding_constants(g, 2.0, 2.0)
    assert emb.b == pytest.approx(1.0)  # (1/(4*0.25))^(1/2)
    assert emb.K1 == pytest.approx(np.sqrt(8.0))


def test_block_embedding_is_the_embedding_of_each_block():
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = random_graph(rng)
        p, q = 3.0, 2.0
        emb = embedding_constants(g, p, q)
        two = block_embedding(
            g, (SpaceSpec(OperatorOrder(1, p), "h1"), SpaceSpec(OperatorOrder(2, q), "h2"))
        )
        assert two.blocks == ((emb.b, emb.K1), (emb.d, emb.K2))
        assert two.cap == min(1.0 / (p * emb.K1**p), 1.0 / (q * emb.K2**q))
        # one block weighted by h2 gets the second factor at its own exponent
        one = block_embedding(g, (SpaceSpec(OperatorOrder(1, q), "h2"),))
        assert one.blocks == ((emb.d, emb.K2),)
        assert one.cap == 1.0 / (q * emb.K2**q)


def test_sup_norm_bounded_by_embedding():
    rng = np.random.default_rng(4)
    for _ in range(50):
        g = random_graph(rng)
        u = random_function(rng, g)
        for m in (1, 2):
            for p in (2.0, 3.0):
                emb = embedding_constants(g, p, p)
                norm = w_norm(g, u, SpaceSpec(OperatorOrder(m, p)))
                assert sup_norm(u) <= emb.b * norm + 1e-12


def test_norm_homogeneity():
    rng = np.random.default_rng(5)
    g = random_graph(rng)
    u = random_function(rng, g)
    spec = SpaceSpec(OperatorOrder(1, 3.0))
    assert w_norm(g, 2.5 * u, spec) == pytest.approx(2.5 * w_norm(g, u, spec))
