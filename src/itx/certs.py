"""Minimal certificate format for the device and party PKI.

Certificates are canonical-JSON bodies signed with Ed25519.  The fingerprint
covers the full certificate (body plus signature) like a conventional
certificate digest; Ed25519 signing is deterministic so fingerprints are
stable for identical inputs.  A certificate's ``extensions`` are a read-only
mapping over a dict of its own, so nothing can change it and its fingerprint
is computed once; ``dataclasses.replace`` makes an edited copy.  A
``SignedImage`` is a signed firmware image.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, TypeVar

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from . import crypto
from .encoding import Record, canonical_bytes, digest_hex


S = TypeVar("S", bound="Signed")


class Signed(Record):
    """A record whose ``signature`` field signs the canonical encoding of
    every other field (its body)."""

    signature: bytes

    def body(self) -> dict[str, Any]:
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "signature"
        }

    def body_bytes(self) -> bytes:
        return canonical_bytes(self.body())

    def signed(self: S, private: Ed25519PrivateKey) -> S:
        return dataclasses.replace(self, signature=crypto.sign(private, self.body_bytes()))

    def verify(self, public: bytes) -> bool:
        return crypto.verify(public, self.signature, self.body_bytes())


@dataclass(frozen=True)
class Certificate(Signed):
    subject_public_key: bytes
    issuer_id: str
    extensions: dict[str, Any] = field(default_factory=dict)
    signature: bytes = b""

    def __post_init__(self) -> None:
        object.__setattr__(self, "extensions", MappingProxyType(dict(self.extensions)))

    def __reduce__(self):  # copy, deepcopy and pickle rebuild it from its fields
        return Certificate, (self.subject_public_key, self.issuer_id, dict(self.extensions), self.signature)

    @functools.cached_property
    def fingerprint(self) -> str:
        return digest_hex(canonical_bytes(self))


@dataclass(frozen=True)
class SignedImage:
    image: bytes
    signature: bytes  # by the firmware-signing CA, over the raw image

    def measurement(self) -> str:
        return hashlib.sha256(self.image).hexdigest()


def issue(
    subject_public_key: bytes,
    issuer_id: str,
    issuer_private: Ed25519PrivateKey,
    extensions: dict[str, Any] | None = None,
) -> Certificate:
    return Certificate(subject_public_key, issuer_id, dict(extensions or {})).signed(issuer_private)


def self_signed(private: Ed25519PrivateKey, subject_id: str, extensions: dict[str, Any] | None = None) -> Certificate:
    return issue(crypto.public_bytes(private), subject_id, private, extensions)
