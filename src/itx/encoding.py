"""Canonical byte encodings, digests, and the one codec for attested records.

Everything that is measured, signed, or compared across trust boundaries goes
through ``canonical_bytes`` so that two independent implementations of the
same structure serialize identically.

Encoding (``jsonable``, ``canonical_bytes``, ``Record.to_dict``) maps a value
to plain JSON data in one walk:

* a dataclass becomes an object of its fields, keyed by field name;
* ``bytes`` become lowercase hex strings;
* dict keys become strings (``3`` -> ``"3"``); tuples and lists become arrays;
* ``str``, ``int``, ``float``, ``bool`` and ``None`` stay as they are.

``canonical_bytes`` writes that data as ASCII JSON with sorted keys and no
whitespace.

Decoding (``decode``, ``Record.from_dict``) is the inverse, driven by the
type annotations of the target:

* a dataclass is read from an object; a missing field takes the field's
  default, and a missing field without a default or an unknown field is an
  error;
* ``dict[int, V]`` keys must be canonical decimal strings, ``dict[str, V]``
  keys are kept;
* ``tuple[X, ...]`` and fixed-length ``tuple[X, Y]`` are read from arrays;
* ``Optional[X]`` accepts ``null``;
* ``bytes`` are read from lowercase hex strings;
* ``str``, ``int`` and ``bool`` are type-checked, and a ``bool`` is not an
  ``int``;
* ``Any`` passes through unchanged.

Every decoding failure raises ``InvalidEncoding``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from typing import Any, TypeVar

from .errors import InvalidEncoding


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"cannot canonicalize value of type {cls.__name__}")
    return tuple(f.name for f in dataclasses.fields(cls))


def jsonable(value: Any) -> Any:
    """JSON-ready copy of a value (bytes rendered as hex, records as objects)."""
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value).hex()
    return {name: jsonable(getattr(value, name)) for name in _field_names(type(value))}


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic serialization of a value."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")).encode("ascii")


def digest_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type, required) for each field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def _expect(value: Any, kind: type, what: str) -> None:
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InvalidEncoding(f"expected {what}, got {type(value).__name__}")


def _decode_key(kind: Any, key: str) -> Any:
    if kind is str:
        return key
    try:
        number = int(key)
    except (TypeError, ValueError):
        number = None
    if number is None or str(number) != key:
        raise InvalidEncoding(f"key {key!r} is not a decimal integer")
    return number


def _decode_record(cls: type, value: Any) -> Any:
    _expect(value, dict, f"a {cls.__name__} object")
    schema = _schema(cls)
    unknown = value.keys() - {name for name, _, _ in schema}
    if unknown:
        raise InvalidEncoding(f"{cls.__name__}: unknown fields {sorted(unknown)}")
    kwargs = {}
    for name, kind, required in schema:
        if name in value:
            try:
                kwargs[name] = decode(kind, value[name])
            except InvalidEncoding as exc:
                raise InvalidEncoding(f"{cls.__name__}.{name}: {exc}") from None
        elif required:
            raise InvalidEncoding(f"{cls.__name__}: missing field {name!r}")
    return cls(**kwargs)


def decode(cls: Any, value: Any) -> Any:
    """Rebuild a value of type ``cls`` from the plain data ``jsonable`` made."""
    if cls is Any:
        return value
    origin = typing.get_origin(cls)
    if origin is dict:
        key_kind, value_kind = typing.get_args(cls)
        _expect(value, dict, "an object")
        return {_decode_key(key_kind, k): decode(value_kind, v) for k, v in value.items()}
    if origin is tuple:
        kinds = typing.get_args(cls)
        _expect(value, list, "an array")
        if len(kinds) == 2 and kinds[1] is Ellipsis:
            return tuple(decode(kinds[0], v) for v in value)
        if len(value) != len(kinds):
            raise InvalidEncoding(f"expected {len(kinds)} items, got {len(value)}")
        return tuple(decode(k, v) for k, v in zip(kinds, value))
    if origin is typing.Union or origin is types.UnionType:
        if value is None and type(None) in typing.get_args(cls):
            return None
        (kind,) = [k for k in typing.get_args(cls) if k is not type(None)]
        return decode(kind, value)
    if cls is bytes:
        _expect(value, str, "a hex string")
        try:
            data = bytes.fromhex(value)
        except ValueError:
            data = None
        if data is None or data.hex() != value:
            raise InvalidEncoding(f"bad hex string {value[:32]!r}")
        return data
    if cls in (str, int, bool):
        _expect(value, cls, cls.__name__)
        return value
    if dataclasses.is_dataclass(cls):
        return _decode_record(cls, value)
    raise TypeError(f"no decoding rule for {cls!r}")


R = TypeVar("R", bound="Record")


class Record:
    """Base of the dataclasses that cross a trust boundary: ``to_dict`` and
    ``from_dict`` follow the encoding and decoding rules above, so
    ``from_dict(to_dict(x)) == x`` and the dict survives a JSON round trip."""

    def to_dict(self) -> dict[str, Any]:
        return jsonable(self)

    @classmethod
    def from_dict(cls: type[R], d: Any) -> R:
        return decode(cls, d)
