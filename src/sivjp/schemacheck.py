"""The part of JSON Schema (draft 2020-12) that the experiment config schema
uses, interpreted in a few lines so that loading a config needs no
validator library.

`schema_error(instance, schema)` returns None when the instance conforms
and otherwise the message `jsonschema.validate` (4.26) raises for it.
Errors are collected in the schema's keyword order and picked as
jsonschema's `best_match` picks them: the least deep; among those, the
one whose path sorts last, then one whose instance fails the `type` of
its schema, then the first. Types are JSON's, not Python's: a bool is
neither an integer nor a number, a float with an integral value is an
integer, only a list is an array, and `enum` tells `True` from `1`.
Comparisons are written as jsonschema writes them, so a NaN passes every
bound and an infinity fails `maximum`.

`KEYWORDS` names what is implemented; a schema keyword outside it is not
checked, so the schema file must stay within it (a test holds it there).
"""

from __future__ import annotations

import numbers


def _is_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Number)


_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool) and (
        isinstance(x, int) or (isinstance(x, float) and x.is_integer())),
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _types(value) -> list:
    return [value] if isinstance(value, str) else value


def _type(value, x, schema):
    names = _types(value)
    if not any(_TYPES[t](x) for t in names):
        yield f"{x!r} is not of type {', '.join(repr(t) for t in names)}"


def _enum(value, x, schema):
    # scalar enum values only; True and False equal only themselves
    if not any(v is x or (not isinstance(v, bool) and not isinstance(x, bool) and v == x)
               for v in value):
        yield f"{x!r} is not one of {value!r}"


def _minimum(value, x, schema):
    if _is_number(x) and x < value:
        yield f"{x!r} is less than the minimum of {value!r}"


def _exclusive_minimum(value, x, schema):
    if _is_number(x) and x <= value:
        yield f"{x!r} is less than or equal to the minimum of {value!r}"


def _maximum(value, x, schema):
    if _is_number(x) and x > value:
        yield f"{x!r} is greater than the maximum of {value!r}"


def _min_items(value, x, schema):
    if isinstance(x, list) and len(x) < value:
        yield f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}"


def _max_items(value, x, schema):
    if isinstance(x, list) and len(x) > value:
        yield f"{x!r} {'is expected to be empty' if value == 0 else 'is too long'}"


def _min_length(value, x, schema):
    if isinstance(x, str) and len(x) < value:
        yield f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}"


def _required(value, x, schema):
    if isinstance(x, dict):
        for name in value:
            if name not in x:
                yield f"{name!r} is a required property"


def _additional_properties(value, x, schema):
    # only the boolean form, false, is implemented
    if isinstance(x, dict) and value is False:
        extras = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield (f"Additional properties are not allowed "
                   f"({', '.join(repr(k) for k in extras)} {verb} unexpected)")


_ASSERTIONS = {
    "type": _type,
    "enum": _enum,
    "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum,
    "maximum": _maximum,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minLength": _min_length,
    "required": _required,
    "additionalProperties": _additional_properties,
}
_APPLICATORS = frozenset({"properties", "items"})
_ANNOTATIONS = frozenset({"$schema", "$id", "title"})
KEYWORDS = frozenset(_ASSERTIONS) | _APPLICATORS | _ANNOTATIONS


def _collect(x, schema: dict, path: tuple, errors: list) -> None:
    """Append (path, message, type matches) for every violation, in order."""
    for keyword, value in schema.items():
        if keyword == "properties":
            if isinstance(x, dict):
                for name, sub in value.items():
                    if name in x:
                        _collect(x[name], sub, path + (name,), errors)
        elif keyword == "items":
            if isinstance(x, list):
                for k, item in enumerate(x):
                    _collect(item, value, path + (k,), errors)
        elif keyword in _ASSERTIONS:
            for message in _ASSERTIONS[keyword](value, x, schema):
                matches = "type" in schema and any(_TYPES[t](x) for t in _types(schema["type"]))
                errors.append((path, message, matches))


def schema_error(instance, schema: dict) -> str | None:
    """jsonschema's best-match message for instance under schema, or None."""
    errors: list = []
    _collect(instance, schema, (), errors)
    if not errors:
        return None
    return max(errors, key=lambda e: (-len(e[0]), e[0], not e[2]))[1]
