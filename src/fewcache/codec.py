"""One JSON codec for every config, result and file-format dataclass.

`to_doc` writes a dataclass as a JSON-ready dict of its fields, in field
order; `from_doc` rebuilds it, resolving nested dataclasses, lists of
them and tuples from the type hints and filling absent keys from the
defaults. Any bad document (an unknown or missing key, a value of the
wrong JSON type, a float that is not finite, an int outside int64, or one
the constructor rejects) raises the caller's error class: UsageError for
configs, a file format's own domain error.

Field metadata carries the two irregular cases of the serialized form:
a SKIP field is never written (nor accepted on read), and an OMIT_NONE
field is left out while it is None.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path

from .errors import UsageError

SKIP = {"codec": "skip"}
OMIT_NONE = {"codec": "omit_none"}
# The types json.load gives each scalar hint (an int is a valid float).
_JSON_SCALARS = {bool: {bool}, int: {int}, float: {int, float}, str: {str}}


def _in_range(hint, values) -> bool:
    """Whether numpy holds `values` as `hint`: floats finite, ints in int64."""
    if hint is float:  # compared, as math.isfinite overflows on a huge int
        return all(-sys.float_info.max <= v <= sys.float_info.max for v in values)
    return hint is not int or not values or (-2**63 <= min(values) and max(values) < 2**63)


def _doc_fields(cls) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.metadata.get("codec") != "skip"]


@functools.cache
def _type_hints(cls) -> dict:
    # Resolving string annotations costs more than decoding a small config.
    return typing.get_type_hints(cls)


def to_doc(obj):
    """JSON-ready form of a dataclass, list, tuple, dict or scalar."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_doc(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_doc(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        doc = {}
        for f in _doc_fields(obj):
            value = getattr(obj, f.name)
            if value is None and f.metadata.get("codec") == "omit_none":
                continue
            doc[f.name] = to_doc(value)
        return doc
    return obj


def existing(path: str | None, what: str) -> str:
    """`path`, if it names an existing file or directory; else UsageError."""
    if not path or not Path(path).exists():
        raise UsageError(f"{what} not found: {path}")
    return path


def read_json(path, error: type[Exception] = UsageError):
    """Parse the JSON file at `path`; raise `error` if it cannot be read or parsed."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise error(f"cannot read {path} as JSON: {exc}") from exc


def from_doc(cls, doc, error: type[Exception] = UsageError):
    """Rebuild `cls` (a dataclass, or a hint like list[int]) from its JSON form."""
    if not dataclasses.is_dataclass(cls):
        return _decode(cls, doc, str(cls), error)
    name = cls.__name__
    if not isinstance(doc, dict):
        raise error(f"{name} must be a JSON object, got {type(doc).__name__}")
    fields = {f.name: f for f in _doc_fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise error(f"{name}: unknown key(s) {', '.join(map(repr, unknown))}")
    missing = [
        k for k, f in fields.items()
        if k not in doc
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise error(f"{name}: missing key(s) {', '.join(map(repr, missing))}")
    hints = _type_hints(cls)
    kwargs = {k: _decode(hints[k], v, f"{name}.{k}", error) for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise error(f"{name}: {exc}") from exc


def _decode(hint, value, where: str, error: type[Exception]):
    if dataclasses.is_dataclass(hint):
        return from_doc(hint, value, error)
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        if value is None:
            return None
        (inner,) = [a for a in typing.get_args(hint) if a is not type(None)]
        return _decode(inner, value, where, error)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise error(f"{where} must be a JSON array, got {type(value).__name__}")
        args = typing.get_args(hint)
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise error(f"{where} must hold {len(args)} items, got {len(value)}")
            return tuple(_decode(a, v, where, error) for a, v in zip(args, value))
        if set(map(type, value)) <= _JSON_SCALARS.get(args[0], set()) and _in_range(args[0], value):
            return tuple(value) if origin is tuple else list(value)  # no call per item
        items = [_decode(args[0], v, where, error) for v in value]
        return tuple(items) if origin is tuple else items
    if (hint is dict or origin is dict) and not isinstance(value, dict):
        raise error(f"{where} must be a JSON object, got {type(value).__name__}")
    if hint in (bool, int, float, str):
        # JSON has one number type: an int is a valid float; a bool is no number.
        allowed = (int, float) if hint is float else hint
        if not isinstance(value, allowed) or (hint is not bool and isinstance(value, bool)):
            raise error(f"{where} must be {hint.__name__}, got {type(value).__name__}")
        if not _in_range(hint, (value,)):
            bound = "finite" if hint is float else "within int64"
            raise error(f"{where} must be {bound}, got {value}")
    return value
