"""The input-format checker (grapde.schema) against the schemas and against jsonschema."""

import copy
import json
import os
import subprocess
import sys

import jsonschema
import pytest

import grapde
from grapde.schema import KEYWORDS, _TYPES, _finite, _is, check, load_schema

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import golden  # noqa: E402  the golden inputs and the malformed-input probes
import workloads  # noqa: E402  the benchmark's inputs (golden puts bench/ on the path)

SCHEMAS = ("graph", "problem")
ANNOTATIONS = {"$schema", "$id", "title", "description"}  # keys the checker does not read

# Values put in place of each field, one at a time; 2.0 stands for an integral
# float, 10**400 for an int beyond the float range.
REPLACEMENTS = ["x", 0, 1, 2, 2.0, -1, 1.5, True, None, [], {}, [1, 2], [1, 2, 3], {"a": 1},
                float("nan"), float("inf"), 10**400]

# Where the checker deliberately disagrees with jsonschema: a JSON integer is a
# Python int here, so an integral float is not one, as the loaders require.
KNOWN_DIFFERENCES = {("problem", ("m1",), 2.0), ("problem", ("m2",), 2.0)}


def _non_finite(node) -> bool:
    """Whether a number under ``node`` is not finite as a float.

    The second deliberate difference: a number must be finite as a float, as
    a JSON number is, so the checker rejects NaN, infinity and an int beyond
    the float range, which jsonschema takes for numbers.
    """
    if isinstance(node, (dict, list)):
        return any(map(_non_finite, node.values() if isinstance(node, dict) else node))
    return _is(node, "number") and not _finite(node)


def _subschemas(schema):
    """Every schema object under ``schema`` (boolean schemas excluded), itself first."""
    if isinstance(schema, bool):
        return
    yield schema
    for key in ("properties", "dependentSchemas"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    for key in ("additionalProperties", "items"):
        if key in schema:
            yield from _subschemas(schema[key])
    for sub in schema.get("oneOf", ()):
        yield from _subschemas(sub)


@pytest.mark.parametrize("name", SCHEMAS)
def test_the_schemas_use_only_what_the_checker_implements(name):
    for schema in _subschemas(load_schema(name)):
        assert set(schema) <= KEYWORDS | ANNOTATIONS, set(schema) - KEYWORDS - ANNOTATIONS
        if "type" in schema:
            assert schema["type"] in _TYPES
        if "required" in schema or schema.get("additionalProperties") is False:
            assert "title" in schema  # the mismatch message names the object by it
        if "oneOf" in schema:
            # the branch whose type fits is the one to match: types must not overlap
            kinds = [sub["type"] for sub in schema["oneOf"]]
            assert len(set(kinds)) == len(kinds) and not {"number", "integer"} <= set(kinds)


def _inputs(tmp_path):
    """(schema name, document) of every golden and benchmark input."""
    docs = [("graph", make()) for make in golden.GRAPHS.values()]
    docs += [("problem", data) for data in golden.PROBLEMS.values()]
    for workload in workloads.WORKLOADS:
        workloads.build(workload, 1, str(tmp_path / workload))
        for path in sorted((tmp_path / workload).iterdir()):
            docs.append((path.name.split("-")[0], json.loads(path.read_text())))
    return docs


def _probes():
    """(schema name, document) of the graph and problem file of every probe."""
    for _, graph, problem in golden.PROBES.values():
        yield from (("graph", graph), ("problem", problem))


def _head(node):
    """``node`` with every array cut to its first two items: a change to one item
    checks the same as it would in the whole array."""
    if isinstance(node, dict):
        return {key: _head(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_head(value) for value in node[:2]]
    return node


def _leaves(node, path=()):
    """The path of every field and item under ``node``."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        items = ()
    for key, value in items:
        yield path + (key,)
        yield from _leaves(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _changed(doc, path, change):
    """A copy of ``doc`` after change(the container of path's last key, that key)."""
    new = copy.deepcopy(doc)
    change(_at(new, path[:-1]), path[-1])
    return new


def _mutations(doc, properties):
    """(changed path, new value, document) of single-field changes of ``doc``:
    each field, and each absent top-level field of the schema (``properties``),
    set to each value of REPLACEMENTS; each field deleted; and an unknown field
    added to each object."""
    leaves = list(_leaves(doc))
    absent = [(key,) for key in properties if isinstance(doc, dict) and key not in doc]
    for path in leaves + absent:
        for value in REPLACEMENTS:
            yield path, value, _changed(doc, path, lambda node, key: node.__setitem__(key, value))
    for path in leaves:
        yield path, "<deleted>", _changed(doc, path, lambda node, key: node.__delitem__(key))
    for path in [(), *leaves]:
        if isinstance(_at(doc, path), dict):
            path += ("zeta",)
            yield path, 1, _changed(doc, path, lambda node, key: node.__setitem__(key, 1))


def _checker_accepts(doc, name):
    try:
        check(doc, name, ValueError)
    except ValueError:
        return False
    return True


def test_the_checker_agrees_with_jsonschema(tmp_path):
    validators = {
        name: jsonschema.Draft202012Validator(load_schema(name)) for name in SCHEMAS
    }
    seen, differences = set(), set()

    def expected(doc, name):
        return validators[name].is_valid(doc) and not _non_finite(doc)

    for name, doc in [*_inputs(tmp_path), *_probes()]:
        assert _checker_accepts(doc, name) == expected(doc, name)
        doc = _head(doc)
        key = (name, json.dumps(doc, sort_keys=True))
        if key in seen:
            continue
        seen.add(key)
        for path, value, new in _mutations(doc, load_schema(name)["properties"]):
            if _checker_accepts(new, name) != expected(new, name):
                differences.add((name, path, value))
    assert differences == KNOWN_DIFFERENCES


def test_every_golden_and_benchmark_input_matches_its_schema(tmp_path):
    for name, doc in _inputs(tmp_path):
        check(doc, name, AssertionError)


@pytest.mark.parametrize("doc, message", [
    ({"vertices": [{"id": "a", "mu": 1, "h1": 1, "h2": 1}], "edges": [{"a": "a"}]},
     "'edges[0]' misses the edge fields ['b', 'w']"),
    ({"vertices": []}, "'vertices' has 0 items, against {'minItems': 1}"),
    ({"vertices": [{"id": "a", "mu": 1, "h1": 1, "h2": -2}]},
     "'vertices[0].h2' must be > 0, got -2"),
    ({"vertices": [{"id": "a", "mu": 1, "h1": 1, "h2": 1}], "colour": 1},
     "the graph file has unknown top-level fields: ['colour']"),
])
def test_graph_mismatch_names_its_place(doc, message):
    with pytest.raises(grapde.GraphError) as err:
        grapde.graph.graph_from_dict(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("doc, message", [
    ({"builtin": "mp-example", "p": 3}, "'p' is not allowed with 'builtin'"),
    ({"F": "u^4", "J": [0, 1, 2]}, "'J' has 3 items, against {'minItems': 2, 'maxItems': 2}"),
    ({"F": "u^4", "coeffs": {"a": {"v0": "1"}}}, "'coeffs.a.v0' must be of type number, got '1'"),
    ({"F": "u^4", "hypotheses": {"L": []}},
     "'hypotheses.L' must be of type number or object, got []"),
    ({"F": "u^4", "objective": {"coeffs": {}}}, "'objective' misses the objective fields ['F']"),
    ({"F": "u^4", "p": 1}, "'p' must be >= 2, got 1"),
    ({"F": "u^4", "m1": 2.0}, "'m1' must be of type integer, got 2.0"),
    ({"F": "u^4", "scalar": 1}, "'scalar' must be of type boolean, got 1"),
    ({"F": "u^4", "potential": "h3"}, "'potential' must be one of ['h1', 'h2'], got 'h3'"),
])
def test_problem_mismatch_names_its_place(doc, message):
    with pytest.raises(ValueError) as err:
        check(doc, "problem", ValueError)
    assert str(err.value) == message


def test_load_schema_parses_each_schema_once():
    assert load_schema("graph") is load_schema("graph")
    with pytest.raises(ValueError, match="no schema named"):
        load_schema("nope")


def test_loading_a_problem_does_not_import_jsonschema(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"builtin": "mp-example", "hypotheses": {"theta": 4}}))
    src = os.path.dirname(os.path.dirname(grapde.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import grapde; "
        "from grapde.cli import load_problem; "
        f"load_problem({str(problem)!r}, grapde.path_graph(2)); "
        "print('jsonschema' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_json_constants_fail_where_the_file_is_parsed(tmp_path, token):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [{"id": "a", "mu": %s, "h1": 1, "h2": 1}]}' % token)
    with pytest.raises(grapde.GraphError) as err:
        grapde.load_graph(path)
    assert str(err.value) == f"{path}: invalid JSON ({token} is not a JSON number)"
