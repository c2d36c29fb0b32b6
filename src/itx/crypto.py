"""Thin wrappers over the crypto primitives used across the stack.

Key derivation is HKDF-SHA256 with an explicit ASCII label per purpose, so
the whole identity and run-key hierarchy is reproducible from its inputs.
Signatures are Ed25519 over raw message bytes; ephemeral key agreement is
X25519.  Key packages travel wrapped under AES-256-GCM.
"""

from __future__ import annotations

import os

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from .errors import KeyExchangeFailure

KEY_BYTES = 32
WRAP_NONCE_BYTES = 12


def hkdf(ikm: bytes, label: bytes, salt: bytes | None = None) -> bytes:
    """Derive a key from ``ikm`` bound to ``label`` (and ``salt``)."""
    return HKDF(algorithm=SHA256(), length=KEY_BYTES, salt=salt, info=label).derive(ikm)


# ---------------------------------------------------------------------------
# Ed25519 identity keys
# ---------------------------------------------------------------------------


def ed25519_from_seed(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


def ed25519_generate() -> Ed25519PrivateKey:
    return Ed25519PrivateKey.generate()


def public_bytes(private: Ed25519PrivateKey) -> bytes:
    return private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def private_bytes(private: Ed25519PrivateKey) -> bytes:
    return private.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())


def sign(private: Ed25519PrivateKey, message: bytes) -> bytes:
    return private.sign(message)


def verify(public: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---------------------------------------------------------------------------
# X25519 ephemeral shares
# ---------------------------------------------------------------------------


def x25519_generate() -> X25519PrivateKey:
    return X25519PrivateKey.generate()


def x25519_public_bytes(private: X25519PrivateKey) -> bytes:
    return private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def x25519_shared(private: X25519PrivateKey, peer_public: bytes) -> bytes:
    return private.exchange(X25519PublicKey.from_public_bytes(peer_public))


def x25519_private_bytes(private: X25519PrivateKey) -> bytes:
    return private.private_bytes(
        Encoding.Raw, PrivateFormat.Raw, NoEncryption()
    )


def x25519_from_private_bytes(raw: bytes) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(raw)


# ---------------------------------------------------------------------------
# run-key derivation chain
# ---------------------------------------------------------------------------

LABEL_WRAP = b"wrap"
LABEL_CHECKPOINT = b"ck"
LABEL_MODEL = b"m"


def derive_wrap_key(shared: bytes, party_share: bytes, device_share: bytes, manifest_hash: bytes) -> bytes:
    """Per-party wrapping key, bound to both shares and the agreed manifest."""
    return hkdf(shared, LABEL_WRAP, salt=party_share + device_share + manifest_hash)


def combine_nonces(nonces: dict[str, bytes]) -> bytes:
    """Concatenate per-party nonces in certificate-fingerprint order.

    Sorting by fingerprint makes the combination order-independent for the
    caller, so every participant derives the same shared secret.
    """
    return b"".join(nonces[fp] for fp in sorted(nonces))


def derive_checkpoint_key(combined_nonces: bytes) -> bytes:
    return hkdf(combined_nonces, LABEL_CHECKPOINT)


def derive_model_key(combined_nonces: bytes) -> bytes:
    return hkdf(combined_nonces, LABEL_MODEL)


# ---------------------------------------------------------------------------
# key-package wrapping
# ---------------------------------------------------------------------------


def wrap(key: bytes, payload: bytes) -> bytes:
    """Seal ``payload`` under ``key`` with a fresh nonce (nonce prepended)."""
    nonce = os.urandom(WRAP_NONCE_BYTES)
    return nonce + AESGCM(key).encrypt(nonce, payload, None)


def unwrap(key: bytes, blob: bytes) -> bytes:
    if len(blob) < WRAP_NONCE_BYTES + 16:
        raise KeyExchangeFailure("wrapped package too short")
    nonce, body = blob[:WRAP_NONCE_BYTES], blob[WRAP_NONCE_BYTES:]
    try:
        return AESGCM(key).decrypt(nonce, body, None)
    except Exception as exc:
        raise KeyExchangeFailure("package unwrap failed") from exc
