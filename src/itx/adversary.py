"""Malicious-host playbook for the trusted-run harness.

The host owns the ring buffer, the PCIe surface, and the scheduler, so every
action here is something a compromised host could really attempt: flipping
ciphertext bits, replaying or reordering frames, swapping whole streams or
binaries, skipping the key-load call at a barrier, feeding back a stale
checkpoint, or poking device registers.  None of them should ever yield a
wrong-but-accepted result — the run either completes untouched or aborts.

Hooks (called by the runtime):

* ``before_init``     — device still in normal mode, nothing measured yet
* ``after_fill``      — ciphertext just landed in the ring (``stage`` is
  ``"boot"``, a barrier sync id, or ``"restore"``)
* ``skip_key_load``   — return True to suppress the key-load call at a barrier;
  the control unit keys the barrier the device names, so the host can drop a
  key load but not point it at another barrier
* ``before_interval`` — barrier fully processed, tiles about to run
* ``choose_checkpoint`` — pick which saved snapshot a resume presents
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InvalidEncoding


class Adversary:
    """A completely passive (honest) host."""

    name = "passive"

    def before_init(self, host) -> None:
        pass

    def after_fill(self, host, stage) -> None:
        pass

    def skip_key_load(self, host, sync_id: int) -> bool:
        return False

    def before_interval(self, host, sync_id) -> None:
        pass

    def choose_checkpoint(self, host, latest):
        return latest


def _xor_bit(host, address: int, bit: int) -> None:
    blob = bytearray(host.ring.read(address + bit // 8, 1))
    blob[0] ^= 1 << (bit % 8)
    host.ring.write(address + bit // 8, bytes(blob))


@dataclass
class TamperFrame(Adversary):
    """Flip one bit of a frame while it sits in host memory."""

    stream_id: int
    frame_index: int
    bit: int  # absolute bit position within the frame
    name: str = "tamper_frame"
    done: bool = field(default=False, repr=False)

    def after_fill(self, host, stage) -> None:
        if self.done:
            return
        address = host.frame_address(self.stream_id, self.frame_index)
        if address is not None:
            _xor_bit(host, address, self.bit)
            self.done = True


@dataclass
class ReplayFrame(Adversary):
    """Overwrite one windowed frame slot with another (a replay)."""

    stream_id: int
    src_index: int
    dst_index: int
    name: str = "replay_frame"
    done: bool = field(default=False, repr=False)

    def after_fill(self, host, stage) -> None:
        if self.done:
            return
        src = host.frame_address(self.stream_id, self.src_index)
        dst = host.frame_address(self.stream_id, self.dst_index)
        if src is None or dst is None:
            return
        size = host.manifest.stream_table[self.stream_id].frame_total_size
        host.ring.write(dst, host.ring.read(src, size))
        self.done = True


@dataclass
class ReorderFrames(Adversary):
    """Swap two windowed frame slots (covers cross-tile code swaps)."""

    stream_id: int
    index_a: int
    index_b: int
    name: str = "reorder_frames"
    done: bool = field(default=False, repr=False)

    def after_fill(self, host, stage) -> None:
        if self.done:
            return
        a = host.frame_address(self.stream_id, self.index_a)
        b = host.frame_address(self.stream_id, self.index_b)
        if a is None or b is None:
            return
        size = host.manifest.stream_table[self.stream_id].frame_total_size
        blob_a, blob_b = host.ring.read(a, size), host.ring.read(b, size)
        host.ring.write(a, blob_b)
        host.ring.write(b, blob_a)
        self.done = True


@dataclass
class SwapStreams(Adversary):
    """Cross-wire two input streams by swapping their ring regions."""

    stream_a: int
    stream_b: int
    name: str = "swap_streams"
    done: bool = field(default=False, repr=False)

    def after_fill(self, host, stage) -> None:
        if self.done:
            return
        entry_a = host.manifest.stream_table[self.stream_a]
        entry_b = host.manifest.stream_table[self.stream_b]
        if self.stream_a not in host.windows or self.stream_b not in host.windows:
            return
        size = min(host.region_size(self.stream_a), host.region_size(self.stream_b))
        blob_a = host.ring.read(entry_a.region_base, size)
        blob_b = host.ring.read(entry_b.region_base, size)
        host.ring.write(entry_a.region_base, blob_b)
        host.ring.write(entry_b.region_base, blob_a)
        self.done = True


@dataclass
class SwapBinary(Adversary):
    """Replace the boot-time code stream with a different (validly encrypted)
    application; the boot hash chain is the only remaining defense."""

    frames: tuple  # wire frames: alternative ciphertext for the whole region
    name: str = "swap_binary"

    def after_fill(self, host, stage) -> None:
        if stage != "boot":
            return
        entry = host.manifest.stream_of_kind("code")
        for i, frame in enumerate(self.frames):
            host.ring.write(entry.region_base + i * entry.frame_total_size, frame)


@dataclass
class SkipKeyLoad(Adversary):
    """Drop the control-unit key-load call at one barrier."""

    sync_id: int
    name: str = "skip_key_load"

    def skip_key_load(self, host, sync_id: int) -> bool:
        return sync_id == self.sync_id


@dataclass
class SubstituteCheckpoint(Adversary):
    """Present a stale or foreign checkpoint snapshot at resume time."""

    snapshot: object  # CheckpointSnapshot
    name: str = "substitute_checkpoint"

    def choose_checkpoint(self, host, latest):
        return self.snapshot


@dataclass
class TamperRegister(Adversary):
    """Write a device register out from under the run."""

    register: str
    value: int
    at_sync: Optional[int] = None  # None: before tee_init (normal mode)
    name: str = "tamper_register"
    done: bool = field(default=False, repr=False)

    def before_init(self, host) -> None:
        if self.at_sync is None and not self.done:
            host.device.host_write_register(self.register, self.value)
            self.done = True

    def before_interval(self, host, sync_id) -> None:
        if self.at_sync is not None and sync_id == self.at_sync and not self.done:
            self.done = True
            host.device.host_write_register(self.register, self.value)


class Composite(Adversary):
    """Run several attacks within a single hosting of the job."""

    name = "composite"

    def __init__(self, adversaries: list) -> None:
        self.adversaries = list(adversaries)

    def before_init(self, host) -> None:
        for adversary in self.adversaries:
            adversary.before_init(host)

    def after_fill(self, host, stage) -> None:
        for adversary in self.adversaries:
            adversary.after_fill(host, stage)

    def skip_key_load(self, host, sync_id: int) -> bool:
        return any(a.skip_key_load(host, sync_id) for a in self.adversaries)

    def before_interval(self, host, sync_id) -> None:
        for adversary in self.adversaries:
            adversary.before_interval(host, sync_id)

    def choose_checkpoint(self, host, latest):
        for adversary in self.adversaries:
            latest = adversary.choose_checkpoint(host, latest)
        return latest


# Script-spawnable actions.  SwapBinary and SubstituteCheckpoint need runtime
# artifacts (an alternative ciphertext, a captured snapshot) and so can only be
# constructed in code.
ACTIONS = {
    "tamper_frame": TamperFrame,
    "replay_frame": ReplayFrame,
    "reorder_frames": ReorderFrames,
    "swap_streams": SwapStreams,
    "skip_key_load": SkipKeyLoad,
    "tamper_register": TamperRegister,
}


def from_script(script) -> Adversary:
    """Build an adversary from a parsed script: a list of ``{"action": name,
    ...parameters}`` objects, bare or as ``{"actions": [...]}``.  Any other
    shape, an unknown action or a missing or unknown parameter is invalid."""
    entries = script.get("actions") if isinstance(script, dict) else script
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise InvalidEncoding('adversary script: expected a list of actions or {"actions": [...]}')
    adversaries = []
    for entry in entries:
        fields = dict(entry)
        action = fields.pop("action", None)
        kind = ACTIONS.get(action) if isinstance(action, str) else None
        if kind is None:
            known = ", ".join(sorted(ACTIONS))
            raise InvalidEncoding(f"unknown adversary action {action!r} (known: {known})")
        try:
            adversaries.append(kind(**fields))
        except TypeError as exc:
            raise InvalidEncoding(f"adversary action {action!r}: {exc}") from None
    if len(adversaries) == 1:
        return adversaries[0]
    return Composite(adversaries)
