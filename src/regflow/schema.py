"""The JSON boundary: one loader, one encoder hook and one file reader.

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

json_default is the ``default=`` hook of the json.dumps calls that write
fit.json, metrics.json and ``corpus print``: a dataclass dumps as a dict of
the fields its constructor takes, with the "json" and "inline" metadata
applied. Those outputs are indented and nothing in them repeats.

compact_json writes result.json. Its text is exactly that of
``json.dumps(obj, default=json_default, sort_keys=True, separators=(",", ":"))``,
with less work: each distinct nonzero float is formatted once, each frozen
dataclass instance (a decision a run reuses, its submission and
adjustments, unchanged coefficients) is encoded once, and each dataclass's
sorted keys come once per class from the same field table as json_default.
It streams the text in chunks, so the document is never held as one string.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from json.encoder import encode_basestring_ascii

from .dynamics import _integer, _real
from .errors import ArgumentError

__all__ = ["compact_json", "from_json", "json_default", "read_json"]


def read_json(path):
    """The parsed content of a JSON file; ArgumentError naming the path when
    the file cannot be read, is not UTF-8 text or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{path} is not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ArgumentError(f"{path} is not valid JSON: {exc}") from None


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


@functools.cache
def _keys(cls):
    """(json key, attribute name) for each field of a dataclass, in field
    order, and the name of its "inline" field or None; None when cls is not
    a dataclass."""
    if not dataclasses.is_dataclass(cls):
        return None
    table = _fields(cls)
    if table and table[0][1].metadata.get("inline"):
        return (), table[0][1].name
    return tuple((key, f.name) for key, f, _ in table), None


def json_default(obj):
    """The json.dumps default= hook: a dataclass as a dict of its fields,
    with the "json" and "inline" metadata applied; TypeError for any other
    value JSON cannot hold."""
    keys = _keys(type(obj))
    if keys is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    pairs, inline = keys
    if inline is not None:
        return dict(getattr(obj, inline))
    return {key: getattr(obj, name) for key, name in pairs}


#: Pieces an encoder holds before a list-element boundary writes them out.
_CHUNK = 4096
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@functools.cache
def _plan(cls):
    """How _Compact writes an instance of the dataclass cls: (frozen, inline
    field name or None, ('{"key":' or ',"key":', attribute name) per field in
    key order, closing text); None when cls is not a dataclass, or is one
    that JSON writes as the str, number, list or dict it subclasses."""
    keys = _keys(cls)
    if keys is None or issubclass(cls, (str, int, float, list, tuple, dict)):
        return None
    pairs, inline = keys
    prefixes = tuple(
        (("," if i else "{") + encode_basestring_ascii(key) + ":", name)
        for i, (key, name) in enumerate(sorted(pairs))
    )
    return cls.__dataclass_params__.frozen, inline, prefixes, "}" if pairs else "{}"


def compact_json(obj, write) -> None:
    """Write through write(str), in chunks, the text of
    json.dumps(obj, default=json_default, sort_keys=True, separators=(",", ":")).

    Each distinct nonzero float is formatted once per call, and each frozen
    dataclass instance is encoded once per call, keyed by identity (a run
    reuses its decisions, submissions and coefficients). A chunk is written
    only at a list-element boundary outside a frozen instance. Like the C
    encoder, a float, int or str subclass is written as a float, int or str,
    nan and +-inf as NaN and +-Infinity, and a value JSON cannot hold raises
    TypeError. Unlike it, a dict key that is not a str raises TypeError (no
    result has one), and obj must hold no reference cycle.
    """
    enc = _Compact(write)
    enc.value(obj)
    enc.flush()


class _Compact:
    """The state of one compact_json call. Its methods reach each other
    through self: nested closures that call each other would form a
    reference cycle that keeps the pieces and the memos alive until the
    cyclic collector runs."""

    __slots__ = ("out", "write", "floats", "frozen", "held")

    def __init__(self, write):
        self.out: list[str] = []
        self.write = write
        self.floats: dict[float, str] = {}  # never a zero: 0.0 == -0.0
        self.frozen: dict[int, str] = {}  # id of a frozen instance -> its text
        self.held = 0  # frozen instances being encoded; their pieces stay in out

    def flush(self) -> None:
        self.write("".join(self.out))
        self.out.clear()

    def value(self, o) -> None:
        if isinstance(o, float):
            text = self.floats.get(o)
            if text is None:
                text = float.__repr__(o)
                text = _NON_FINITE.get(text, text)
                if o:
                    self.floats[o] = text
            self.out.append(text)
            return
        t = type(o)
        plan = _plan(t)
        if plan is not None:
            self.dataclass(o, plan)
        elif o is None:
            self.out.append("null")
        elif o is True:
            self.out.append("true")
        elif o is False:
            self.out.append("false")
        elif isinstance(o, str):
            self.out.append(encode_basestring_ascii(o))
        elif isinstance(o, int):
            self.out.append(int.__repr__(o))
        elif isinstance(o, (list, tuple)):
            self.array(o)
        elif isinstance(o, dict):
            self.object(o)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    def array(self, o) -> None:
        out = self.out
        sep = "["
        for v in o:
            out.append(sep)
            sep = ","
            self.value(v)
            if len(out) >= _CHUNK and not self.held:
                self.flush()
        out.append("]" if o else "[]")

    def object(self, o) -> None:
        out = self.out
        sep = "{"
        for key, v in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ":")
            sep = ","
            self.value(v)
        out.append("}" if o else "{}")

    def dataclass(self, o, plan) -> None:
        frozen, inline, prefixes, close = plan
        out = self.out
        if frozen:
            text = self.frozen.get(id(o))
            if text is not None:
                out.append(text)
                return
            start = len(out)
            self.held += 1
        if inline is not None:
            self.object(dict(getattr(o, inline)))
        else:
            for prefix, name in prefixes:
                out.append(prefix)
                self.value(getattr(o, name))
            out.append(close)
        if frozen:
            self.held -= 1
            # the instance outlives the call (obj holds it), so its id stays its own
            text = self.frozen[id(o)] = "".join(out[start:])
            del out[start:]
            out.append(text)
