"""End-to-end orchestration of a multi-party trusted job.

The session models four mutually distrustful roles on one box:

* the **host** (this runtime): schedules intervals, ferries ciphertext in
  and out of the ring buffer, and asks the control unit to act at each
  barrier — it is the adversary's seat and never touches a key or a
  plaintext.  It may delay or drop a call, but never name the barrier;
* the **control unit**: attests, receives wrapped keys, loads the keys of the
  barrier the device is parked at into the packet engines, and drives
  checkpoints;
* the **device**: runs tile programs behind the packet-crypto boundary and
  names the barrier its tiles agreed on;
* the **parties**: verify the attestation report and only then release keys.

``TrustedJobSession.run`` executes a job from cold start to an encrypted
model; ``resume`` restarts a halted run from a saved checkpoint.  Every step
lands in the event log, and any failure — a detected violation or any other
exception — ends the run aborted, with the TEE terminated and keys
destroyed: there is no path that both tampers and completes.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass

from . import pki
from .adversary import Adversary
from .attestation import KeyPackage, Verdict
from .ccu import Ccu, INITIALIZED, LAUNCHED, TERMINATED
from .device import (
    DeviceConfig,
    IpuDevice,
    read_host_checkpoint_metadata,
    trusted_registers_digest,
)
from .errors import AccessDenied, InvalidPhase, ItxError
from .eventlog import EventLog
from .frame_codec import StreamIV, StreamType, decrypt_stream, payload_capacity
from .manifest import CHECKPOINT, JobManifest, OUTPUT, SyncPlan
from .packaging import JobInputs
from .pki import PartyIdentity, derive_model_key

# Parties verify in ``PartyIdentity.release_keys``; the verifier stays importable
# here because bench/tests checks that the tracer patches it on this module.
verify_attestation = pki.verify_attestation

STATUS_COMPLETE = "complete"
STATUS_HALTED = "halted"
STATUS_ABORTED = "aborted"


@dataclass(frozen=True)
class CheckpointSnapshot:
    """Everything the host legitimately sees of a checkpoint: ciphertext
    frames plus the cleartext restart metadata."""

    epoch: int
    checkpoint_id: int
    barrier: int
    frames_blob: bytes
    meta_blob: bytes


@dataclass
class RunResult:
    status: str
    reason: str
    log: EventLog
    verdicts: dict[str, Verdict]
    output_frames: tuple[bytes, ...] = ()  # wire frames
    epoch: int = 0
    checkpoint_id: int = 0

    @property
    def completed(self) -> bool:
        return self.status == STATUS_COMPLETE

    @property
    def aborted(self) -> bool:
        return self.status == STATUS_ABORTED


class TrustedJobSession:
    """One job's lifetime across any number of run/halt/resume attempts."""

    def __init__(
        self,
        *,
        device: IpuDevice,
        ccu: Ccu,
        manifest: JobManifest,
        inputs: dict[str, JobInputs],
        parties: dict[str, PartyIdentity],
        ca_public: dict,
        device_chain: dict,
        tcb_certs: list,
        adversary: Adversary | None = None,
        initial_sessions: dict | None = None,
    ) -> None:
        self.device = device
        self.ccu = ccu
        self.manifest = manifest
        self.inputs = inputs
        self.parties = parties
        self.ca_public = ca_public
        self.device_chain = device_chain
        self.tcb_certs = tcb_certs
        self.adversary = adversary or Adversary()
        # Parties agreed on the manifest before anything ran; their
        # expectations pin that version, not whatever the host later holds.
        self.expected_manifest_measurement = manifest.measurement()
        self._pending_sessions = initial_sessions
        self.ring = device.ring_buffer
        self.windows: dict[int, int] = {}
        self.snapshots: list[CheckpointSnapshot] = []
        self._streams: dict[int, tuple[bytes, ...]] = {}  # stream id -> wire frames
        for job_inputs in inputs.values():
            self._streams.update(job_inputs.streams)
        self._extent = self._region_extents()
        self._current_nonces: dict[str, bytes] = {}  # party name -> this run's nonce
        self._saved_nonces: dict[str, bytes] = {}  # nonces of the run that last checkpointed
        self.run_nonces: dict[str, bytes] = {}  # fingerprint -> nonce (for the model key)
        self.last_report = None  # most recent attestation report (for archival)
        self.last_expected: dict = {}  # expectations the parties last verified against
        self._stage = ""  # the control-unit call in progress, named in abort reasons

    # -- host's view of the ring ---------------------------------------------

    def _region_extents(self) -> dict[int, tuple[int, int]]:
        extents: dict[int, tuple[int, int]] = {}
        for plan in (self.manifest.boot_plan, *self.manifest.plans, self.manifest.checkpoint_plan):
            for sid, region in plan.stream_regions.items() if plan else ():
                extents.setdefault(sid, plan.regions[region])
        return extents

    def region_size(self, stream_id: int) -> int:
        lo, hi = self._extent[stream_id]
        return hi - lo

    def frame_address(self, stream_id: int, frame_index: int) -> int | None:
        """Where a frame currently sits in the ring, if it is windowed in."""
        if stream_id not in self.windows:
            return None
        entry = self.manifest.stream_table[stream_id]
        slots = self.region_size(stream_id) // entry.frame_total_size
        position = frame_index - self.windows[stream_id]
        if 0 <= position < slots:
            return entry.region_base + position * entry.frame_total_size
        return None

    # -- ring fills ----------------------------------------------------------

    def _fill_plan(self, plan: SyncPlan, offsets: dict[int, int], log: EventLog) -> None:
        for sid in plan.fills:
            entry = self.manifest.stream_table[sid]
            frames = self._streams[sid]
            offset = offsets.get(sid, 0)
            slots = self.region_size(sid) // entry.frame_total_size
            count = min(slots, len(frames) - offset)
            for i in range(count):
                self.ring.write(entry.region_base + i * entry.frame_total_size, frames[offset + i])
            self.windows[sid] = offset
            log.emit("fill", stream=sid, offset=offset, frames=count)

    def _fill_snapshot(self, snapshot: CheckpointSnapshot, log: EventLog) -> None:
        meta = self.manifest.stream_of_kind(CHECKPOINT)
        self.ring.write(meta.region_base, snapshot.frames_blob)
        self.ring.write(self.manifest.metadata_base, snapshot.meta_blob)
        self.windows[meta.stream_id] = 0
        log.emit(
            "fill_checkpoint",
            epoch=snapshot.epoch,
            checkpoint_id=snapshot.checkpoint_id,
            barrier=snapshot.barrier,
        )

    def _capture_snapshot(self, barrier: int, log: EventLog) -> CheckpointSnapshot:
        meta_entry = self.manifest.stream_of_kind(CHECKPOINT)
        lo, hi = self._extent[meta_entry.stream_id]
        tile_count = len(self.device.tiles)
        meta_blob = self.ring.read(
            self.manifest.metadata_base, tile_count * self.manifest.metadata_slot
        )
        records = read_host_checkpoint_metadata(
            self.ring, self.manifest.metadata_base, self.manifest.metadata_slot, tile_count
        )
        snapshot = CheckpointSnapshot(
            epoch=records[0]["epoch"],
            checkpoint_id=records[0]["checkpoint_id"],
            barrier=barrier,
            frames_blob=self.ring.read(lo, hi - lo),
            meta_blob=meta_blob,
        )
        self.snapshots.append(snapshot)
        self._saved_nonces = dict(self._current_nonces)
        log.emit(
            "checkpoint_saved",
            epoch=snapshot.epoch,
            checkpoint_id=snapshot.checkpoint_id,
            barrier=barrier,
        )
        return snapshot

    # -- party protocol ------------------------------------------------------

    def expected_values(self, epoch: int, checkpoint_id: int) -> dict:
        """What every party demands the signed report show for this run."""
        fingerprints = tuple(
            self.parties[name].certificate.fingerprint for name in sorted(self.parties)
        )
        return {
            "manifest_measurement": self.expected_manifest_measurement,
            "party_fingerprints": fingerprints,
            "stream_assignment": self.manifest.stream_assignment,
            "epoch": epoch,
            "checkpoint_id": checkpoint_id,
            "register_measurement": trusted_registers_digest(),
            "bootloader_measurement": self.manifest.bootloader_measurement,
        }

    def model_key_nonces(self) -> dict[str, bytes]:
        """The completed run's nonces, as the receiving parties would pool
        them to derive the model key."""
        return dict(self.run_nonces)

    # -- run orchestration ---------------------------------------------------

    def run(self, halt_after_checkpoint: int | None = None) -> RunResult:
        """Fresh start: epoch and checkpoint counters seeded at zero."""
        return self._execute(
            seed_epoch=0,
            seed_checkpoint=0,
            resume_from=None,
            halt_after_checkpoint=halt_after_checkpoint,
        )

    def resume(self, halt_after_checkpoint: int | None = None) -> RunResult:
        """Restart from the latest checkpoint.  The adversary may substitute
        what actually lands in the ring."""
        if not self.snapshots:
            raise InvalidPhase("no checkpoint to resume from")
        claim = self.snapshots[-1]
        return self._execute(
            seed_epoch=claim.epoch,
            seed_checkpoint=claim.checkpoint_id,
            resume_from=claim,
            halt_after_checkpoint=halt_after_checkpoint,
        )

    def _abort(self, log: EventLog, verdicts: dict, reason: str) -> RunResult:
        if self.ccu.tee.phase in (INITIALIZED, LAUNCHED):
            self.ccu.tee_terminate(reason)
        log.emit("abort", reason=reason)
        return RunResult(STATUS_ABORTED, reason, log, verdicts)

    def _host_attempt(self, log: EventLog, hook, *args) -> None:
        """Run an adversary hook; a denied host access is an observation, not
        a crash — the control unit has already been notified."""
        try:
            hook(self, *args)
        except AccessDenied as exc:
            log.emit("host_access_denied", detail=str(exc))

    def _staged(self, stage: str, call, *args):
        """Make a control-unit call; if it raises, the abort reason starts
        with ``stage``."""
        self._stage = stage
        result = call(*args)
        self._stage = ""
        return result

    def _execute(self, **attempt) -> RunResult:
        """Fail closed: whatever an attempt raises — a detected violation, a
        malformed input, a fault in the host's own code — ends it aborted,
        with the TEE terminated and its keys destroyed.  The reason names the
        control-unit stage that failed, if any."""
        log = EventLog()
        verdicts: dict[str, Verdict] = {}
        self._stage = ""
        try:
            return self._attempt(log, verdicts, **attempt)
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            at = f"{os.path.basename(where.filename)}:{where.lineno}"
            log.emit("exception", type=type(exc).__name__, at=at)
            detail = str(exc) if isinstance(exc, ItxError) else f"{type(exc).__name__}: {exc}"
            return self._abort(log, verdicts, f"{self._stage}: {detail}" if self._stage else detail)

    def _attempt(
        self,
        log: EventLog,
        verdicts: dict[str, Verdict],
        *,
        seed_epoch: int,
        seed_checkpoint: int,
        resume_from: CheckpointSnapshot | None,
        halt_after_checkpoint: int | None,
    ) -> RunResult:
        mode = "resume" if resume_from is not None else "fresh"
        log.emit("run_start", mode=mode, epoch=seed_epoch, checkpoint_id=seed_checkpoint)

        self.windows = {}
        self._host_attempt(log, self.adversary.before_init)

        if self._pending_sessions is not None:
            sessions = self._pending_sessions
            self._pending_sessions = None
        else:
            sessions = {name: identity.new_session() for name, identity in self.parties.items()}
        certs = {name: identity.certificate for name, identity in self.parties.items()}
        shares = {name: session.public for name, session in sessions.items()}
        signatures = {name: session.signature for name, session in sessions.items()}
        report = self._staged(
            "init", self.ccu.tee_init,
            self.manifest, certs, shares, signatures, seed_epoch, seed_checkpoint,
        )
        self.last_report = report
        log.emit("tee_init", epoch=seed_epoch, checkpoint_id=seed_checkpoint)

        # Each party judges the evidence itself; keys move only on an accept.
        expected = self.expected_values(seed_epoch, seed_checkpoint)
        self.last_expected = expected
        evidence = (self.device_chain, self.ca_public, self.tcb_certs)
        packages: dict[str, bytes] = {}
        nonces: dict[str, bytes] = {}
        for name in sorted(self.parties):
            nonce = os.urandom(32)
            package = KeyPackage(
                stream_keys=self.inputs[name].keys,
                run_nonce=nonce,
                prior_run_nonce=self._saved_nonces.get(name) if resume_from is not None else None,
            )
            verdict, wrapped = self.parties[name].release_keys(
                sessions[name], report, evidence, expected, package
            )
            verdicts[name] = verdict
            log.emit("verdict", party=name, accepted=verdict.accepted, reason=verdict.reason)
            if not verdict.accepted:
                return self._abort(log, verdicts, f"party {name} rejected: {verdict.reason}")
            packages[name] = wrapped
            nonces[name] = nonce
            log.emit("release_keys", party=name)
        self._current_nonces = nonces

        self._fill_plan(self.manifest.boot_plan, {}, log)
        self.adversary.after_fill(self, "boot")
        self._staged("launch", self.ccu.tee_launch, packages)
        log.emit("tee_launch")

        parked = 0
        if resume_from is not None:
            filled = self.adversary.choose_checkpoint(self, resume_from)
            self._fill_snapshot(filled, log)
            self.adversary.after_fill(self, "restore")
            parked = self._staged("restore", self.ccu.tee_restore)
        self._fill_plan(*self.manifest.plan(parked), log)
        self.adversary.after_fill(self, parked)
        self._host_attempt(log, self.adversary.before_interval, parked)
        if resume_from is not None:
            log.emit("resumed", barrier=parked)

        saved_this_run = 0
        while True:
            if self.ccu.tee.phase == TERMINATED:
                return self._abort(log, verdicts, self.ccu.tee.reason)
            sync_id = self.device.run_interval()
            if sync_id is None:
                break
            log.emit("barrier", sync_id=sync_id)
            barrier = self.manifest.plan(sync_id)
            if barrier[0].checkpoint:
                self._staged("checkpoint", self.ccu.tee_checkpoint)
                snapshot = self._capture_snapshot(sync_id, log)
                saved_this_run += 1
                if halt_after_checkpoint is not None and saved_this_run >= halt_after_checkpoint:
                    log.emit("halt", checkpoint_id=snapshot.checkpoint_id)
                    return RunResult(
                        STATUS_HALTED,
                        "halted by host after checkpoint",
                        log,
                        verdicts,
                        epoch=snapshot.epoch,
                        checkpoint_id=snapshot.checkpoint_id,
                    )
            if self.adversary.skip_key_load(self, sync_id):
                log.emit("adversary", action="skip_key_load", sync_id=sync_id)
            else:
                self._staged("key load", self.ccu.tee_load_keys)
            self._fill_plan(*barrier, log)
            self.adversary.after_fill(self, sync_id)
            self._host_attempt(log, self.adversary.before_interval, sync_id)

        self.run_nonces = {
            self.parties[name].certificate.fingerprint: nonce
            for name, nonce in self._current_nonces.items()
        }
        output = self._collect_output()
        log.emit("run_complete", output_frames=len(output))
        last = self.snapshots[-1] if self.snapshots else None
        return RunResult(
            STATUS_COMPLETE,
            "ok",
            log,
            verdicts,
            output_frames=output,
            epoch=last.epoch if last else seed_epoch,
            checkpoint_id=last.checkpoint_id if last else seed_checkpoint,
        )

    def _collect_output(self) -> tuple[bytes, ...]:
        entry = self.manifest.stream_of_kind(OUTPUT)
        payload = payload_capacity(entry.frame_total_size)
        count = max(1, -(-entry.plaintext_length // payload))
        return tuple(
            self.ring.read(entry.region_base + i * entry.frame_total_size, entry.frame_total_size)
            for i in range(count)
        )


# ---------------------------------------------------------------------------
# model recovery (party side)
# ---------------------------------------------------------------------------


def decrypt_model(
    manifest: JobManifest, frames: tuple[bytes, ...], nonces: dict[str, bytes]
) -> bytes:
    """Receiving parties pool their run nonces, derive the model key, and
    decrypt the output stream."""
    entry = manifest.stream_of_kind(OUTPUT)
    key = derive_model_key(nonces)
    template = StreamIV(StreamType.OUTPUT, stream_id=entry.stream_id)
    return decrypt_stream(key, template, frames, entry.plaintext_length)


# ---------------------------------------------------------------------------
# cleartext reference execution
# ---------------------------------------------------------------------------


def run_clear_reference(
    manifest: JobManifest,
    binaries: dict[int, bytes],
    clear_inputs: dict[int, bytes],
) -> bytes:
    """Run the same job on an untrusted device with no crypto anywhere:
    plaintext in, plaintext out.  The trusted path must match this bitwise."""
    # No ring: a clear run never uses it, and a fresh 1 MiB one page-faults in on every run.
    config = DeviceConfig.from_dict({**manifest.device_config, "ring_buffer_size": 0})
    device = IpuDevice(ipu_id=manifest.ipu_id, config=config)
    device.clear_mode = True
    device.install_boot_params(manifest, 0, 0)
    for layout in manifest.tile_layouts:
        device.install_clear_program(layout.tile_id, binaries[layout.tile_id])
    for sid, blob in clear_inputs.items():
        device.clear_sources[sid] = blob
    device.start_application()
    while device.run_interval() is not None:
        pass
    entry = manifest.stream_of_kind(OUTPUT)
    sink = bytes(device.clear_sinks.get(entry.stream_id, b""))
    return sink[: entry.plaintext_length]
