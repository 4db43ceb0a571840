"""The JSON boundary: one decoder, one loader, one encoder hook and one file reader.

parse_json is the package's one JSON decoder. read_json, the result
reader of `metrics` (with an object hook), the llm policy's completion
envelope and its reply all go through it, so text that the
parser refuses (not JSON, an integer of more than 4300 digits, nesting
deeper than the recursion limit) raises ArgumentError everywhere.

from_json reads a dataclass from parsed JSON by its fields and their type
hints. An unknown key, a missing key whose field has no default, or a value
that does not match its annotation raises ArgumentError naming the value's
dotted path, for example ``config.schedule.cycle`` or
``result.records[3].agents.A.state.g``. A class that checks its own values
when built (ModelParameters, Schedule, ...) raises with that path in front,
``config.schedule: schedule strict_steps must be ...``. Nothing is coerced:

    float             any JSON number (dynamics._real)
    int               a JSON number without a fractional part (dynamics._integer)
    bool, str         a JSON boolean, a JSON string
    T | None          null, or a T
    tuple[str, ...]   a JSON array of strings
    list[T]           a JSON array
    dict[str, T]      a JSON object
    a dataclass       a JSON object, read by from_json

A field whose default is None but whose annotation has no ``| None`` may be
left out but not set to null.

Field metadata changes how one field is read or written:

    "json"    the field's key in JSON, where it is not the field's name
    "inline"  the object's JSON form is this field's value (a one-field class)
    "load"    a function (value, path) that reads the field in place of its type

json_default is the ``default=`` hook of every json.dumps call that writes
an output: fit.json, metrics.json and ``corpus print`` (indented), and
result.json (compact, through simulation's encoder): a dataclass dumps as a
dict of the fields its constructor takes, with the "json" and "inline"
metadata applied.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing

from .dynamics import _integer, _real
from .errors import ArgumentError

__all__ = ["from_json", "json_default", "parse_json", "read_json", "read_text"]


def parse_json(text, where: str, object_hook=None):
    """The parsed content of JSON text (str, or bytes in a UTF encoding),
    each object passed through object_hook when one is given, as json.loads
    does; ArgumentError naming `where` for anything the parser refuses."""
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:
        raise ArgumentError(f"{where} is not valid JSON: {exc}") from None


def read_text(path) -> str:
    """The text of a file; ArgumentError naming the path when the file
    cannot be read or is not UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{path} is not UTF-8 text: {exc}") from None


def read_json(path):
    """The parsed content of a JSON file; read_text's errors, and
    ArgumentError naming the path when the text is not JSON."""
    return parse_json(read_text(path), path)


@functools.cache
def _fields(cls) -> tuple:
    """(json key, field, type hint) for each field of a dataclass that its
    constructor takes; the hints are resolved on first use, not at import."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.metadata.get("json", f.name), f, hints[f.name]) for f in dataclasses.fields(cls) if f.init
    )


def from_json(cls, data, where: str, defaults: typing.Mapping | None = None):
    """An instance of the dataclass cls from a parsed JSON value. A key that
    data leaves out takes its value from defaults, else from the field's
    default; `where` is the path of data in error messages."""
    table = _fields(cls)
    if table[0][1].metadata.get("inline"):
        return _build(cls, where, _field(table[0], data, where))
    if not isinstance(data, dict):
        raise ArgumentError(f"{where} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {key for key, _, _ in table})
    if unknown:
        raise ArgumentError(f"{where} has unknown keys: {unknown}")
    values = {}
    for row in table:
        key, f, _ = row
        if key in data:
            values[f.name] = _field(row, data[key], f"{where}.{key}")
        elif defaults is not None and f.name in defaults:
            values[f.name] = defaults[f.name]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ArgumentError(f"{where} is missing {key!r}")
    return _build(cls, where, **values)


def _build(cls, where: str, *args, **kwargs):
    """cls(*args, **kwargs), with `where` in front of the message of an
    ArgumentError that the class's own checks raise."""
    try:
        return cls(*args, **kwargs)
    except ArgumentError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _field(row, value, path: str):
    _, f, hint = row
    load = f.metadata.get("load")
    return load(value, path) if load else _load(hint, value, path)


def _load(hint, value, path: str):
    if hint is float:
        return value if type(value) is float else _real(value, path)
    if hint is int:
        return _integer(value, path)
    if hint is bool or hint is str:
        if isinstance(value, hint):
            return value
        kind = "true or false" if hint is bool else "a string"
        raise ArgumentError(f"{path} must be {kind}, got {value!r}")
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType or origin is typing.Union:
        if value is None:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _load(inner, value, path)
    if origin is list or origin is tuple:
        if not isinstance(value, list):
            raise ArgumentError(f"{path} must be a JSON array, got {value!r}")
        items = [_load(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if origin is dict:
        if not isinstance(value, dict):
            raise ArgumentError(f"{path} must be a JSON object, got {value!r}")
        return {k: _load(args[1], v, f"{path}.{k}") for k, v in value.items()}
    raise TypeError(f"no JSON reading for the annotation {hint!r} at {path}")


def json_default(obj):
    """The json.dumps default= hook: a dataclass as a dict of its fields,
    with the "json" and "inline" metadata applied; TypeError for any other
    value JSON cannot hold."""
    if not dataclasses.is_dataclass(type(obj)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    table = _fields(type(obj))
    if table and table[0][1].metadata.get("inline"):
        return dict(getattr(obj, table[0][1].name))
    return {key: getattr(obj, f.name) for key, f, _ in table}

