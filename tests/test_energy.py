import itertools

import numpy as np
import pytest
import scipy.linalg

from _helpers import random_function, random_graph
from grapde.calculus import OperatorOrder, laplacian
from grapde.energy import ProblemInstance, Restriction, el_residual_norm, phi, phi_grad, psi
from grapde.graph import StatePair, VertexFunction, WeightedGraph, hop_ball, integral, path_graph
from grapde.nonlinearity import BUILTIN_NAMES, HypothesisSpec, Nonlinearity, builtin
from grapde.scalar import ScalarInstance
from grapde.spaces import SpaceSpec, w_norm


def _instance(g, F="0", coeffs=None, p=2.0, q=2.0, m1=1, m2=1, w=0.0, spec=None):
    nl = Nonlinearity.from_source(g, F, coeffs or {})
    return ProblemInstance(
        g, OperatorOrder(m1, p), OperatorOrder(m2, q), nl, spec or HypothesisSpec(), w
    )


def test_energy_vanishes_at_origin():
    g = path_graph(3)
    inst = _instance(g, "(u^2+v^2)^2")
    z = np.zeros(3)
    assert phi(inst, (z, z)) == 0.0


def test_energy_without_coupling_is_norm_powers():
    g = path_graph(2)
    inst = _instance(g, "0", p=3.0, q=2.0)
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 2.0])
    nu = w_norm(g, u, inst.space1)
    nv = w_norm(g, v, inst.space2)
    assert phi(inst, (u, v)) == pytest.approx(nu**3 / 3 + nv**2 / 2)


def test_energy_hand_value_quadratic():
    # P2, p = q = 2, F = u^2: phi = (1/2)(1 + 1) + (1/2)(0) - 1 = 0 at u=(1,0)
    g = path_graph(2)
    inst = _instance(g, "u^2")
    u = np.array([1.0, 0.0])
    v = np.zeros(2)
    assert phi(inst, (u, v)) == pytest.approx(0.0)


def test_gradient_linear_case():
    # p = q = 2, F = 0: gradient is (-Delta u + h1 u, -Delta v + h2 v)
    rng = np.random.default_rng(0)
    g = random_graph(rng)
    inst = _instance(g, "0")
    u = random_function(rng, g)
    v = random_function(rng, g)
    gu, gv = phi_grad(inst, (u, v))
    assert np.allclose(gu, -laplacian(g, u) + g.h1 * u)
    assert np.allclose(gv, -laplacian(g, v) + g.h2 * v)


@pytest.mark.parametrize(
    "F,p,q,m1,m2",
    [
        ("0", 3.0, 2.0, 1, 1),
        ("(u^2+v^2)^2*(1+w^2)", 2.0, 2.0, 1, 1),
        ("u^4+v^4", 3.0, 2.0, 2, 1),
        ("sin(u)*cos(v)", 2.0, 3.0, 1, 3),
        ("gamma*u^2*v^2", 4.0, 4.0, 2, 2),
    ],
)
def test_gradient_matches_finite_difference(F, p, q, m1, m2):
    rng = np.random.default_rng(1)
    g = random_graph(rng, 4)
    coeffs = {"gamma": 1.3} if "gamma" in F else {}
    inst = _instance(g, F, coeffs, p=p, q=q, m1=m1, m2=m2, w=0.5)
    u = 0.5 * random_function(rng, g)
    v = 0.5 * random_function(rng, g)
    gu, gv = phi_grad(inst, (u, v))
    h = 1e-6
    for i in range(g.n):
        e = np.zeros(g.n)
        e[i] = h
        fd_u = (phi(inst, (u + e, v)) - phi(inst, (u - e, v))) / (2 * h)
        fd_v = (phi(inst, (u, v + e)) - phi(inst, (u, v - e))) / (2 * h)
        # directional derivative along e_i equals mu_i * g at vertex i
        assert fd_u == pytest.approx(g.mu[i] * gu[i], rel=2e-5, abs=2e-6)
        assert fd_v == pytest.approx(g.mu[i] * gv[i], rel=2e-5, abs=2e-6)


@pytest.mark.parametrize("m,s", list(itertools.product((1, 2, 3, 4), (2.0, 3.0, 4.0))))
@pytest.mark.parametrize("blocks", (1, 2))
def test_jacobian_matches_central_differences(m, s, blocks):
    # mirrors criterion_03 one derivative up; the coupling has F_uv = 1
    rng = np.random.default_rng(10 * m + int(s) + 100 * blocks)
    g = random_graph(rng, 5)
    if blocks == 2:
        # m = 4 repeats Delta in both blocks: k = 2
        m2 = 4 - m if m < 4 else 4
        inst = _instance(g, "u*v + 0.5*u^4 - w*v", p=s, q=6.0 - s, m1=m, m2=m2, w=0.3)
    else:
        nl = Nonlinearity.from_source(g, "0.5*u^4 - w*u", {})
        inst = ScalarInstance(g, OperatorOrder(m, s), nl, HypothesisSpec(), "h2", 0.3)
    # a stack of two states: each Jacobian against the stacked gradients
    X = 0.5 * rng.standard_normal((2, blocks * g.n))
    jacs = inst.jacobian(X)
    h = 1e-5
    fds = np.stack([
        (inst.gradient(X + h * e) - inst.gradient(X - h * e)) / (2 * h)
        for e in np.eye(X.shape[1])
    ], axis=-1)
    for J, fd in zip(jacs, fds):
        assert np.linalg.norm(J - fd) / np.linalg.norm(fd) < 1e-7
        # diag(mu) J is the Hessian of the energy
        hess = inst.weights[:, None] * J
        assert np.allclose(hess, hess.T, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("blocks", (1, 2))
def test_morse_index_is_the_inertia_of_the_hessian(seed, blocks):
    # Sylvester's law: the LDL^T factors of the Hessian diag(mu) J have its inertia
    rng = np.random.default_rng(seed + 10 * blocks)
    g = random_graph(rng, 6)
    if blocks == 2:
        inst = _instance(g, "u*v + 0.5*u^4 - w*v^2", p=3.0, q=2.0, m2=2, w=0.7)
    else:
        nl = Nonlinearity.from_source(g, "0.5*u^4 - w*u^2", {})
        inst = ScalarInstance(g, OperatorOrder(1, 3.0), nl, HypothesisSpec(), "h2", 0.7)
    x = 2.0 * rng.standard_normal(blocks * g.n)
    hess = inst.weights[:, None] * inst.jacobian(x)
    _, d, _ = scipy.linalg.ldl(0.5 * (hess + hess.T))
    negative = int(np.sum(np.linalg.eigvalsh(d) < 0))
    assert 0 < negative < x.size
    assert inst.morse_index(x) == negative


def test_residual_zero_at_linear_eigenpair():
    # P2, h = 2, F = u^2 + v^2: u = v = c solves -Delta u + 2u = 2u for any c... no.
    # Instead: F = u^2, u solves -Delta u + h u = 2u. With h = 1, need Delta u = -u:
    # on P2 eigenvalues of -Delta are 0 and 2, so use F = (3/2) u^2 with h = 1:
    # -Delta u + u = 3 u  <=>  -Delta u = 2u, eigenvector (1,-1).
    g = path_graph(2)
    inst = _instance(g, "1.5*u^2")
    u = np.array([1.0, -1.0])
    v = np.zeros(2)
    assert el_residual_norm(inst, (u, v)) < 1e-14


def test_residual_scales_with_measure():
    rng = np.random.default_rng(2)
    g = random_graph(rng)
    inst = _instance(g, "(u^2+v^2)^2")
    u = random_function(rng, g)
    v = random_function(rng, g)
    gu, gv = phi_grad(inst, (u, v))
    expected = np.sqrt(integral(g, gu**2 + gv**2))
    assert el_residual_norm(inst, (u, v)) == pytest.approx(expected)


def test_instance_rejects_w_outside_interval():
    g = path_graph(2)
    with pytest.raises(ValueError, match="outside"):
        _instance(g, "0", w=2.0)


def test_instance_at_returns_new_parameter():
    g = path_graph(2)
    inst = _instance(g, "u^2*(1+w^2)")
    shifted = inst.at(0.5)
    assert shifted.w == 0.5 and inst.w == 0.0
    u = np.array([1.0, 0.0])
    v = np.zeros(2)
    assert phi(shifted, (u, v)) < phi(inst, (u, v))


def test_state_pair_accepted():
    g = path_graph(2)
    inst = _instance(g, "u^4")
    arrs = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    pair = StatePair(VertexFunction(g, arrs[0]), VertexFunction(g, arrs[1]))
    assert phi(inst, pair) == phi(inst, arrs)


def test_objective_constant_density():
    g = path_graph(3, mu=2.0)
    inst = _instance(g, "0")
    obj = Nonlinearity.from_source(g, "1", {})
    u = np.zeros(3)
    assert psi(inst, (u, u), obj) == pytest.approx(6.0)  # total measure


def test_objective_hand_value():
    g = path_graph(2)
    inst = _instance(g, "0", w=1.0).at(1.0)
    obj = Nonlinearity.from_source(g, "u^2*w", {})
    u = np.array([1.0, 0.0])
    assert psi(inst, (u, np.zeros(2)), obj) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [2.0, 3.0])
def test_stacked_states_match_single_states(m, s):
    # energy, gradient, Jacobian and norm of a stack (k, N) equal the
    # row-by-row calls, for one block and two, on a builtin's coupling and a
    # random graph
    rng = np.random.default_rng(40 + m)
    g = random_graph(rng, 5)
    couplings = [builtin(name, g).nl for name in BUILTIN_NAMES] + [
        Nonlinearity.from_source(g, "(u^2+v^2)^2 + 0.1*w*u*v")
    ]
    ord = OperatorOrder(m, s)
    other = OperatorOrder(m, 5.0 - s)  # the second block takes the other exponent
    problems = [
        ProblemInstance(g, ord, other, nl, HypothesisSpec(), 0.5)
        for nl in couplings
    ] + [
        ScalarInstance(g, ord, Nonlinearity.from_source(g, "u^4*(1+w^2)"), HypothesisSpec()),
    ]
    for inst in problems:
        stack = 0.5 * rng.standard_normal((3, len(inst.weights)))
        energies = inst.energy(stack)
        grads = inst.gradient(stack)
        jacs = inst.jacobian(stack)
        norms = inst.norm(stack)
        assert energies.shape == norms.shape == (3,) and grads.shape == stack.shape
        assert jacs.shape == stack.shape + stack.shape[-1:]
        for x, e, gx, Jx, nx in zip(stack, energies, grads, jacs, norms):
            assert e == pytest.approx(inst.energy(x), rel=1e-12, abs=1e-14)
            assert np.allclose(gx, inst.gradient(x), rtol=1e-12, atol=1e-12)
            assert np.allclose(Jx, inst.jacobian(x), rtol=1e-12, atol=1e-12)
            assert nx == inst.norm(x)
        # a stack of one-state stacks (k, 1, N) runs each state's own products:
        # its gradients and Jacobians equal the single-state ones bit for bit
        alone = np.stack([inst.gradient(x) for x in stack])
        assert inst.gradient(stack[:, None])[:, 0].tobytes() == alone.tobytes()
        alone = np.stack([inst.jacobian(x) for x in stack])
        assert inst.jacobian(stack[:, None])[:, 0].tobytes() == alone.tobytes()



# --- restriction to a vertex set ------------------------------------------

def _grid(rows, cols):
    ids = [f"g{k}" for k in range(rows * cols)]
    edges = [(ids[k], ids[k + 1], 1.0) for k in range(rows * cols) if (k + 1) % cols]
    edges += [(ids[k], ids[k + cols], 1.0) for k in range(rows * cols - cols)]
    return WeightedGraph.build([(v, 1.0, 1.0, 1.0) for v in ids], edges)


def _graph(kind, rng):
    """A graph of the kind and a ball on it that leaves room for a 3-hop halo and more."""
    if kind == "path":
        g, center, hops = path_graph(16), 6, 2
    elif kind == "grid":
        g, center, hops = _grid(6, 6), 14, 1
    else:
        g, center, hops = random_graph(rng, 60), 59, 1
    members = np.zeros(g.n, bool)
    members[center] = True
    return g, hop_ball(g, members, hops)


def _coupled(g, rng, blocks, m, s, w=0.3):
    """A problem whose F and F_uv vanish at u = v = 0, with a coefficient table per vertex."""
    coeffs = {"gamma": rng.uniform(0.5, 2.0, g.n)}
    if blocks == 2:
        F = "gamma*(u^2+v^2)^2 + w*u^2*v^2 - 0.5*w*v^2"
        return _instance(g, F, coeffs, p=s, q=5.0 - s, m1=m, m2=4 - m, w=w)
    nl = Nonlinearity.from_source(g, "gamma*u^4 - w*u^2", coeffs)
    return ScalarInstance(g, OperatorOrder(m, s), nl, HypothesisSpec(), "h2", w)


@pytest.mark.parametrize("kind", ("path", "grid", "random"))
@pytest.mark.parametrize("m,s", list(itertools.product((1, 2, 3), (2.0, 3.0))))
@pytest.mark.parametrize("blocks", (1, 2))
def test_restriction_is_the_full_problem_at_extended_states(kind, m, s, blocks):
    # the halo pinned at 0 makes the restricted energy, norm, gradient and
    # Jacobian those of the full problem at the state extended by 0; the
    # second block takes the order 4 - m, so two blocks mix orders 1 and 3
    rng = np.random.default_rng(7 * m + int(s) + 50 * blocks)
    g, ball = _graph(kind, rng)
    inst = _coupled(g, rng, blocks, m, s)
    R = Restriction(inst, ball)
    assert R.size == np.count_nonzero(ball) < R.sub.graph.n < g.n
    x = 0.5 * rng.standard_normal(R.weights.size)
    X = R.extend(x)
    assert np.count_nonzero(X) == x.size and np.array_equal(R.cut(X), x)
    assert R.energy(x) == pytest.approx(inst.energy(X), rel=1e-12, abs=1e-14)
    assert R.norm(x) == pytest.approx(inst.norm(X), rel=1e-12)
    assert np.allclose(R.gradient(x), R.cut(inst.gradient(X)), rtol=1e-12, atol=1e-12)
    J = inst.jacobian(X)[np.ix_(R.cols, R.cols)]
    assert np.allclose(R.jacobian(x), J, rtol=1e-12, atol=1e-12)
    assert np.array_equal(R.weights, R.cut(inst.weights))
    # and a stack of states gives the stack of the single results
    stack = np.stack([x, 0.5 * x])
    assert np.allclose(R.jacobian(stack)[1], R.jacobian(0.5 * x), rtol=1e-12, atol=1e-12)
    assert R.energy(stack)[1] == pytest.approx(R.energy(0.5 * x), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("kind", ("path", "grid", "random"))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_restricted_jacobian_matches_central_differences(kind, m):
    rng = np.random.default_rng(70 + m)
    g, ball = _graph(kind, rng)
    R = Restriction(_coupled(g, rng, 2, m, 3.0), ball)
    x = 0.5 * rng.standard_normal(R.weights.size)
    h = 1e-5
    fd = np.stack([
        (R.gradient(x + h * e) - R.gradient(x - h * e)) / (2 * h) for e in np.eye(x.size)
    ], axis=-1)
    assert np.linalg.norm(R.jacobian(x) - fd) / np.linalg.norm(fd) < 1e-7


@pytest.mark.parametrize("kind", ("path", "grid", "random"))
@pytest.mark.parametrize("blocks", (1, 2))
def test_haynsworth_index_is_the_eigvalsh_index(kind, blocks):
    # on states supported on the ball, with an s = 3 block that has exactly
    # zero rows away from it: where the Schur complement is shown positive
    # definite, the index of the ball's block is the whole Hessian's, and the
    # zero rows are its null space
    rng = np.random.default_rng(90 + blocks)
    g, ball = _graph(kind, rng)
    inst = _coupled(g, rng, blocks, 1, 3.0)
    R = Restriction(inst, ball)
    shown = []
    for scale in np.geomspace(0.05, 3.0, 10):
        x = scale * rng.standard_normal(R.weights.size)
        X = R.extend(x)
        index, nullity = R.full_index(x)
        sw = np.sqrt(inst.weights)
        S = sw[:, None] * inst.jacobian(X) / sw[None, :]
        lam = np.abs(np.linalg.eigvalsh(0.5 * (S + S.T)))
        assert nullity == np.count_nonzero(lam <= 1e-12 * lam.max())
        if index is None:  # Cauchy interlacing: the ball alone cannot overcount
            assert inst.morse_index(X) >= R.morse_index(x)
        else:
            assert index == inst.morse_index(X) == R.morse_index(x)
        shown.append(index is not None)
    assert any(shown)
