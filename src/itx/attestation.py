"""Shared attestation/key-exchange protocol types.

These types cross the trust boundary between the device root of trust and
the relying parties, so both sides serialize them with the same canonical
encoding; signatures and digests are always computed over that encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .certs import Signed
from .encoding import Record, canonical_bytes, digest_hex


def run_attributes_digest(
    ccu_keyshare: bytes,
    epoch: int,
    checkpoint_id: int,
    party_fingerprints: tuple[str, ...],
    stream_assignment: dict[str, Any],
) -> str:
    """Digest binding the run-identity attributes in a fixed order."""
    return digest_hex(
        canonical_bytes(
            {
                "ccu_keyshare": ccu_keyshare,
                "epoch": epoch,
                "checkpoint_id": checkpoint_id,
                "party_fingerprints": list(party_fingerprints),
                "stream_assignment": stream_assignment,
            }
        )
    )


@dataclass(frozen=True)
class AttestationReport(Signed):
    """Signed evidence of what the root of trust is about to run.

    The report carries the attribute values themselves (keyshare, counters,
    party fingerprints, stream assignment) next to their binding digest so a
    verifier can recompute and cross-check rather than trust the digest.
    """

    register_measurement: str
    bootloader_measurement: str
    manifest_measurement: str
    ccu_keyshare: bytes
    epoch: int
    checkpoint_id: int
    party_fingerprints: tuple[str, ...]
    stream_assignment: dict[str, Any]
    run_attributes_digest: str
    signature: bytes = b""


@dataclass(frozen=True)
class KeyPackage(Record):
    """One party's keys for a run: per-stream keys plus run nonces.

    ``prior_run_nonce`` is supplied only when resuming from a checkpoint; it
    lets the root of trust re-derive the previous run's checkpoint key.
    """

    stream_keys: dict[int, bytes]
    run_nonce: bytes
    prior_run_nonce: Optional[bytes] = None


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str

    @classmethod
    def ok(cls) -> "Verdict":
        return cls(True, "ok")

    @classmethod
    def reject(cls, reason: str) -> "Verdict":
        return cls(False, reason)

    def __bool__(self) -> bool:
        return self.accepted
