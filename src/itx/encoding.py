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
type annotations of the target, with one cached decoder function per type:

* a dataclass is read from an object; a missing field takes the field's
  default, and a missing field without a default or an unknown field is an
  error;
* ``dict[int, V]`` keys must be canonical decimal strings, ``dict[str, V]``
  keys are kept, and either is a read-only ``types.MappingProxyType`` (which
  encoding reads as a dict) over a dict of its own;
* ``tuple[X, ...]`` and fixed-length ``tuple[X, Y]`` are read from arrays;
* ``Optional[X]`` accepts ``null``;
* ``bytes`` are read from lowercase hex strings;
* ``str``, ``int`` and ``bool`` are type-checked, and a ``bool`` is not an
  ``int``;
* ``Any`` passes through unchanged.

So a record of frozen dataclasses (a manifest, a certificate, a report) is
read-only at every depth its annotations type, and one decoded copy can serve
run after run; ``dataclasses.replace`` still makes an edited copy.

Every decoding failure raises ``InvalidEncoding``.  ``Record.to_bytes`` is a
record's ``canonical_bytes``; ``Record.from_bytes`` decodes untrusted bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from typing import Any, Callable, TypeVar

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
    if isinstance(value, (dict, types.MappingProxyType)):
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


def _expect(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind`` (a ``bool`` is not an ``int``)."""
    if type(value) is kind or isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise InvalidEncoding(f"expected {what}, got {type(value).__name__}")


def _int_key(key: str) -> int:
    try:
        number = int(key)
    except (TypeError, ValueError):
        number = None
    if number is None or str(number) != key:
        raise InvalidEncoding(f"key {key!r} is not a decimal integer")
    return number


def _hex(value: Any) -> bytes:
    try:
        data = bytes.fromhex(_expect(value, str, "a hex string"))
    except ValueError:
        data = None
    if data is None or data.hex() != value:
        raise InvalidEncoding(f"bad hex string {value[:32]!r}")
    return data


@functools.cache
def _decoder(cls: Any) -> Callable[[Any], Any]:
    """The rule for ``cls`` as one function from plain data to a ``cls``."""
    origin, kinds = typing.get_origin(cls), typing.get_args(cls)
    if cls is Any:
        return lambda value: value
    if origin is dict:
        key, item = (lambda k: k) if kinds[0] is str else _int_key, _decoder(kinds[1])
        return lambda value: types.MappingProxyType({
            key(k): item(v) for k, v in _expect(value, dict, "an object").items()
        })
    if origin is tuple and kinds[1:] == (Ellipsis,):
        item = _decoder(kinds[0])
        return lambda value: tuple(map(item, _expect(value, list, "an array")))
    if origin is tuple:
        items = tuple(map(_decoder, kinds))

        def decode_tuple(value: Any) -> tuple:
            if len(_expect(value, list, "an array")) != len(items):
                raise InvalidEncoding(f"expected {len(items)} items, got {len(value)}")
            return tuple([item(v) for item, v in zip(items, value)])
        return decode_tuple
    if origin is typing.Union or origin is types.UnionType:
        (kind,) = [k for k in kinds if k is not type(None)]
        inner, optional = _decoder(kind), type(None) in kinds
        return lambda value: None if value is None and optional else inner(value)
    if cls is bytes:
        return _hex
    if cls in (str, int, bool):
        return lambda value: value if type(value) is cls else _expect(value, cls, cls.__name__)
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"no decoding rule for {cls!r}")
    hints, name = typing.get_type_hints(cls), cls.__name__
    fields = tuple(
        (f.name, _decoder(hints[f.name]),
         f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )
    names = frozenset(field for field, _, _ in fields)

    def decode_record(value: Any) -> Any:
        unknown = _expect(value, dict, f"a {name} object").keys() - names
        if unknown:
            raise InvalidEncoding(f"{name}: unknown fields {sorted(unknown)}")
        kwargs = {}
        for field, decode_field, required in fields:
            if field in value:
                try:
                    kwargs[field] = decode_field(value[field])
                except InvalidEncoding as exc:
                    raise InvalidEncoding(f"{name}.{field}: {exc}") from None
            elif required:
                raise InvalidEncoding(f"{name}: missing field {field!r}")
        return cls(**kwargs)
    return decode_record


def decode(cls: Any, value: Any) -> Any:
    """Rebuild a value of type ``cls`` from the plain data ``jsonable`` made."""
    return _decoder(cls)(value)


def parse_json(blob: bytes) -> Any:
    """JSON data from untrusted bytes: bytes that are not JSON (bad UTF-8,
    bad syntax, nesting too deep to parse) raise ``InvalidEncoding``."""
    try:
        return json.loads(blob)
    except (ValueError, RecursionError) as exc:
        raise InvalidEncoding(f"not JSON: {exc}") from None


R = TypeVar("R", bound="Record")


class Record:
    """Base of the dataclasses that cross a trust boundary: ``to_dict`` and
    ``from_dict`` follow the encoding and decoding rules above, so
    ``from_dict(to_dict(x)) == x`` and the dict survives a JSON round trip;
    ``from_bytes(to_bytes(x)) == x`` over the canonical bytes."""

    def to_dict(self) -> dict[str, Any]:
        return jsonable(self)

    @classmethod
    def from_dict(cls: type[R], d: Any) -> R:
        return decode(cls, d)

    def to_bytes(self) -> bytes:
        return canonical_bytes(self)

    @classmethod
    def from_bytes(cls: type[R], blob: bytes) -> R:
        return decode(cls, parse_json(blob))
