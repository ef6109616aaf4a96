import json
import math

import numpy as np
import pytest

from grapde.graph import (
    GraphError,
    VertexFunction,
    WeightedGraph,
    asvalues,
    complete_graph,
    graph_from_dict,
    graph_to_dict,
    integral,
    load_graph,
    path_graph,
    save_graph,
    total_measure,
    validate,
)


def test_build_and_matrix():
    g = WeightedGraph.build(
        [("a", 1.0, 1.0, 1.0), ("b", 2.0, 1.0, 1.0)], [("a", "b", 3.0)]
    )
    assert g.n == 2
    assert g.weight_matrix[0, 1] == 3.0
    assert g.weight_matrix[1, 0] == 3.0
    assert g.degree[0] == 3.0
    assert g.index == {"a": 0, "b": 1}


def test_dangling_edge_rejected():
    with pytest.raises(GraphError, match="dangling"):
        WeightedGraph.build([("a", 1, 1, 1)], [("a", "zz", 1.0)])


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        WeightedGraph.build([("a", 1, 1, 1)], [("a", "a", 1.0)])


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError, match="duplicate edge"):
        WeightedGraph.build(
            [("a", 1, 1, 1), ("b", 1, 1, 1)], [("a", "b", 1.0), ("b", "a", 2.0)]
        )


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphError, match="duplicate vertex"):
        WeightedGraph.build([("a", 1, 1, 1), ("a", 1, 1, 1)], [])


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        WeightedGraph.build([], [])


def test_integral_is_measure_weighted_sum():
    g = WeightedGraph.build(
        [("a", 2.0, 1, 1), ("b", 3.0, 1, 1)], [("a", "b", 1.0)]
    )
    assert integral(g, np.array([1.0, 1.0])) == 5.0
    assert integral(g, np.array([1.0, -1.0])) == -1.0
    assert total_measure(g) == 5.0


@pytest.mark.parametrize("shape", [(39,), (39, 2), (5, 39), (2, 64)])
def test_integral_equals_fsum_of_the_numpy_values(shape):
    # math.fsum of Python floats is the correctly rounded sum of numpy's rows
    rng = np.random.default_rng(5)
    n = shape[-1]
    mu = rng.uniform(0.1, 3.0, n)
    g = WeightedGraph.build(
        [(f"v{i}", mu[i], 1.0, 1.0) for i in range(n)],
        [(f"v{i}", f"v{i + 1}", 1.0) for i in range(n - 1)],
    )
    for scale in (1.0, 1e-300, 1e300):
        f = scale * rng.standard_normal(shape)
        expected = [math.fsum(row) for row in g.mu * np.atleast_2d(f)]
        got = np.atleast_1d(integral(g, f))
        assert got.tobytes() == np.array(expected).tobytes()


def test_vertex_function_map_roundtrip():
    g = path_graph(3)
    f = VertexFunction.from_map(g, {"v0": 1.0, "v1": 2.0, "v2": 3.0})
    assert np.allclose(f.values, [1, 2, 3])
    assert f.to_map() == {"v0": 1.0, "v1": 2.0, "v2": 3.0}


def test_vertex_function_domain_mismatch():
    g = path_graph(2)
    with pytest.raises(GraphError):
        VertexFunction.from_map(g, {"v0": 1.0})
    with pytest.raises(GraphError):
        VertexFunction(g, np.array([1.0, 2.0, 3.0]))


def test_asvalues_takes_one_state_or_a_stack():
    g = path_graph(2)
    stack = np.arange(6.0).reshape(3, 2)
    assert asvalues(g, stack).shape == (3, 2)
    assert asvalues(g, stack[0]).shape == (2,)
    with pytest.raises(GraphError):  # the vertices are the last axis
        asvalues(g, stack.T)
    with pytest.raises(GraphError):
        asvalues(g, np.zeros((2, 3, 2)))


def test_validate_flags_nonpositive_data():
    g = WeightedGraph.build(
        [("a", 1.0, -1.0, 1.0), ("b", 1.0, 1.0, 1.0)], [("a", "b", 1.0)]
    )
    report = validate(g)
    assert not report.ok
    assert any("h1" in v for v in report.violations)


def test_validate_warns_isolated_vertex():
    g = WeightedGraph.build([("a", 1, 1, 1), ("b", 1, 1, 1)], [])
    report = validate(g)
    assert report.ok
    assert len(report.warnings) == 2


def test_json_roundtrip(tmp_path):
    g = path_graph(3, mu=2.0, h1=1.5, h2=0.5, w=0.25)
    path = tmp_path / "g.json"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.vertices == g.vertices
    assert np.allclose(g2.mu, g.mu)
    assert np.allclose(g2.weight_matrix, g.weight_matrix)


def test_unknown_fields_rejected():
    data = graph_to_dict(path_graph(2))
    data["extra"] = 1
    with pytest.raises(GraphError, match="unknown top-level"):
        graph_from_dict(data)
    data = graph_to_dict(path_graph(2))
    data["vertices"][0]["color"] = "red"
    with pytest.raises(GraphError, match="unknown vertex"):
        graph_from_dict(data)
    data = graph_to_dict(path_graph(2))
    data["edges"][0]["label"] = "e"
    with pytest.raises(GraphError, match="unknown edge"):
        graph_from_dict(data)


def test_nonfinite_values_rejected():
    data = graph_to_dict(path_graph(2))
    data["vertices"][0]["mu"] = float("inf")
    with pytest.raises(GraphError, match="non-finite"):
        graph_from_dict(data)
    data = graph_to_dict(path_graph(2))
    data["edges"][0]["w"] = float("nan")
    with pytest.raises(GraphError, match="non-finite"):
        graph_from_dict(data)


def test_complete_graph_degrees():
    g = complete_graph(4)
    assert np.allclose(g.degree, 3.0)
    assert len(g.edges) == 6
