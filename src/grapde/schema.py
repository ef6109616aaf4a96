"""The input file formats: the shipped JSON schemas and one checker of them.

``check`` walks a loaded graph or problem file against its schema and raises at
the first mismatch, naming its place (``hypotheses.theta``, ``vertices[0]``).
It applies only ``KEYWORDS``, those the two schemas use; in them, each ``oneOf``
branch has its own ``type``, and the branch whose type fits must match.
"""

import functools
import json
import math
import os

KEYWORDS = frozenset({"type", "enum", "minimum", "exclusiveMinimum", "oneOf", "properties",
                      "additionalProperties", "required", "dependentSchemas", "items",
                      "minItems", "maxItems"})
# a JSON number is an int or a float, a JSON integer an int, and neither is a bool
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}


def _not_json(token):
    raise ValueError(f"{token} is not a JSON number")


def load_json(path, error: type = ValueError):
    """The parsed JSON file at ``path``; ``error``, naming the file, if it cannot be read or parsed.

    ``NaN``, ``Infinity`` and ``-Infinity``, which Python's ``json`` reads as
    floats, are not JSON (RFC 8259) and fail to parse here.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_not_json)
    except OSError as err:
        raise error(f"cannot read {path}: {err}") from err
    except ValueError as err:  # a json.JSONDecodeError, or _not_json's
        raise error(f"{path}: invalid JSON ({err})") from err


@functools.cache
def load_schema(name: str) -> dict:
    """The shipped JSON schema 'graph', 'problem' or 'report', parsed once: do not change it."""
    if name not in ("graph", "problem", "report"):
        raise ValueError(f"no schema named {name!r}")
    return load_json(os.path.join(os.path.dirname(__file__), "schemas", f"{name}.schema.json"))


class _Mismatch(Exception):  # each container it leaves prefixes its key to where
    def __init__(self, text):
        self.text, self.where = text, ""


def check(data, name: str, error: type) -> None:
    """Raise ``error`` at the first place where ``data`` does not match schema ``name``."""
    try:
        _check(data, load_schema(name))
    except _Mismatch as m:
        where = m.where.removeprefix(".")
        raise error(f"'{where}' {m.text}" if where else f"the {name} file {m.text}") from None


def _finite(number) -> bool:
    """Whether a JSON number is finite as a float, as every number of an input file must be."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond the float range
        return False


def _is(value, kind: str) -> bool:
    return isinstance(value, _TYPES[kind]) and (type(value) is not bool or kind == "boolean")


def _check(data, schema):
    if schema is False:
        raise _Mismatch("is not allowed")
    kind = schema.get("type")
    if kind is not None and not _is(data, kind):
        raise _Mismatch(f"must be of type {kind}, got {data!r}")
    if "enum" in schema and data not in schema["enum"]:
        raise _Mismatch(f"must be one of {schema['enum']}, got {data!r}")
    if "oneOf" in schema:
        fits = [sub for sub in schema["oneOf"] if _is(data, sub["type"])]
        if not fits:
            kinds = " or ".join(sub["type"] for sub in schema["oneOf"])
            raise _Mismatch(f"must be of type {kinds}, got {data!r}")
        _check(data, fits[0])
    if _is(data, "number"):
        if not _finite(data):  # unlike jsonschema, which takes them for numbers
            raise _Mismatch("is non-finite as a float")
        if data < schema.get("minimum", data):
            raise _Mismatch(f"must be >= {schema['minimum']}, got {data!r}")
        if "exclusiveMinimum" in schema and data <= schema["exclusiveMinimum"]:
            raise _Mismatch(f"must be > {schema['exclusiveMinimum']}, got {data!r}")
    elif isinstance(data, list):
        limits = {key: schema[key] for key in ("minItems", "maxItems") if key in schema}
        if not limits.get("minItems", 0) <= len(data) <= limits.get("maxItems", len(data)):
            raise _Mismatch(f"has {len(data)} items, against {limits}")
        for k, item in enumerate(data) if "items" in schema else ():
            try:
                _check(item, schema["items"])
            except _Mismatch as m:
                m.where = f"[{k}]{m.where}"
                raise
    elif isinstance(data, dict):
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        if extra is False and not data.keys() <= properties.keys():
            unknown = sorted(data.keys() - properties.keys())
            raise _Mismatch(f"has unknown {schema['title']} fields: {unknown}")
        missing = [key for key in schema.get("required", ()) if key not in data]
        if missing:
            raise _Mismatch(f"misses the {schema['title']} fields {missing}")
        for key, value in data.items():
            sub = properties.get(key, extra)
            try:
                if sub is not True:
                    _check(value, sub)
            except _Mismatch as m:
                m.where = f".{key}{m.where}"
                raise
        for key, sub in schema.get("dependentSchemas", {}).items():
            if key in data:
                try:
                    _check(data, sub)
                except _Mismatch as m:
                    m.text += f" with '{key}'"
                    raise
