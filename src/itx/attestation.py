"""Shared attestation/key-exchange protocol types.

These types cross the trust boundary between the device root of trust and
the relying parties, so both sides serialize them with the same canonical
encoding; signatures and digests are always computed over that encoding.
The device's factory registers live here too: it measures them, the verifier expects them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .certs import Signed
from .encoding import Record

DEFAULT_REGISTERS = {"trusted_mode": 0, "link_enable": 1, "hsp_period": 1000, "exchange_window": 0}


def _registers_digest(registers: dict[str, int]) -> str:
    blob = b"".join(f"{k}={registers[k]};".encode() for k in sorted(registers))
    return hashlib.sha256(blob).hexdigest()


def trusted_registers_digest() -> str:
    """The register measurement a verifier should expect from a freshly
    quiesced device: factory defaults with trusted mode raised."""
    return _registers_digest({**DEFAULT_REGISTERS, "trusted_mode": 1})


@dataclass(frozen=True)
class AttestationReport(Signed):
    """Signed evidence of what the root of trust is about to run.

    Each fact is stated once.  ``manifest_measurement`` covers the whole
    manifest: the tile bootloader it names (which ``tee_init`` refuses unless
    it is the one the device runs), each stream's owner and the model
    receivers.  The AK signature covers every field, so a verifier compares
    the fields themselves with what it expects.
    """

    register_measurement: str
    manifest_measurement: str
    ccu_keyshare: bytes
    epoch: int
    checkpoint_id: int
    party_fingerprints: tuple[str, ...]
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
