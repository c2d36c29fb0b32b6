"""Trusted jobs end to end: honest runs match the clear reference, a halted
run resumes, and every host attack aborts.  However an attempt ends —
completed, halted or aborted — it leaves the TEE terminated, its keys gone,
the tiles scrubbed and the device back in normal mode."""

import collections
import copy
import dataclasses
import struct

import pytest

from oracle import expected_model
from itx import crypto, runtime
from itx.adversary import (
    Adversary,
    Composite,
    ReorderFrames,
    ReplayFrame,
    SkipKeyLoad,
    SubstituteCheckpoint,
    SwapBinary,
    SwapStreams,
    TamperFrame,
    TamperRegister,
    from_script,
)
from itx.attestation import Verdict
from itx.ccu import NO_TEE, TERMINATED
from itx.compiler import SID_CODE, CompiledJob, JobDescription, compile_job
from itx.device import (
    BINARY_OFFSET,
    MAX_PHASES,
    MODE_NORMAL,
    ComputePhase,
    IpuDevice,
    LoadPhase,
    LoopPhase,
    OP_SGD_STEP,
    RingBuffer,
    SyncPhase,
    TILE_MEMORY,
    TileProgram,
)
from itx.frame_codec import FRAME_OVERHEAD, IV_BYTES, StreamIV, StreamType
from itx.manifest import CHECKPOINT, CODE, DATA, OUTPUT, JobManifest, checkpoint_frames
from itx.packaging import JobInputs, encrypt_code_stream, encrypt_data_stream, package_inputs
from itx.pki import Party, PartyIdentity
from itx.runtime import TrustedJobSession, decrypt_model, run_clear_reference
from itx.sandbox import _make_fixture, _make_session, make_deployment, make_sgd_fixture, make_sum_fixture
from itx.errors import InvalidEncoding, InvalidPhase, InvalidRegisterProgram, ScheduleInfeasible, SecurityException
from itx.sxp import ExchangePacket, SxpEngine


def clear_model(fixture) -> bytes:
    compiled = fixture.compiled
    return run_clear_reference(compiled.manifest, compiled.binaries, fixture.clear_inputs())


def trusted_model(fixture, result) -> bytes:
    return decrypt_model(
        fixture.compiled.manifest, result.output_frames, fixture.session.model_key_nonces()
    )


def assert_torn_down(fixture, phase: str = TERMINATED) -> None:
    """How every attempt ends: the TEE terminated (or, for an attempt refused
    before the TEE was initialised, never started), no key left in the control
    unit or in any context of either packet engine, the device in normal
    mode, every tile's memory zero and no decoded program left, on a tile or
    in the device."""
    device, tee = fixture.deployment.device, fixture.deployment.ccu.tee
    assert tee.phase == phase
    assert not (tee.stream_keys or tee.k_m or tee.k_save or tee.k_load)
    assert device.mode == MODE_NORMAL
    for engine in (device.ingress, device.egress):
        assert all(ctx.aead is None for ctx in engine.contexts)
    assert all(len(tile.memory) == TILE_MEMORY and tile.memory == bytes(TILE_MEMORY) for tile in device.tiles)
    assert all(tile.program is None for tile in device.tiles)
    assert not device._programs


def assert_completed_and_exact(fixture, result) -> None:
    assert result.completed, result.reason
    assert all(v.accepted for v in result.verdicts.values())
    assert_torn_down(fixture)
    model = trusted_model(fixture, result)
    assert model == clear_model(fixture)
    assert model == expected_model(fixture.job, fixture.plaintexts)


def assert_halted(fixture, result) -> None:
    assert result.status == "halted", result.reason
    assert_torn_down(fixture)


def assert_aborted_closed(fixture, result, phase: str = TERMINATED) -> None:
    assert result.aborted, result.reason
    assert_torn_down(fixture, phase)


def session_with(fixture, inputs: dict[str, JobInputs], manifest=None) -> TrustedJobSession:
    """A fresh host session for the fixture's job (or for ``manifest``) whose
    parties hold the keys of ``inputs`` and whose host ships its streams."""
    parties = {name: Party(identity, inputs[name].keys) for name, identity in fixture.parties.items()}
    streams = {sid: frames for job in inputs.values() for sid, frames in job.streams.items()}
    return _make_session(fixture.deployment, manifest or fixture.compiled.manifest, parties, streams)


# ---------------------------------------------------------------------------
# honest runs
# ---------------------------------------------------------------------------


def test_honest_sgd_run_matches_the_clear_reference():
    fixture = make_sgd_fixture(steps=3)
    assert_completed_and_exact(fixture, fixture.session.run())


def test_honest_sum_run_with_key_rotation_matches_the_clear_reference():
    fixture = make_sum_fixture(stream_count=17)
    assert_completed_and_exact(fixture, fixture.session.run())


def test_the_clear_reference_device_has_an_empty_ring(monkeypatch):
    """No frame of the clear run meets the ring, so its device has none: a
    fresh 1 MiB ring would page-fault in every clear run."""
    built, start = [], IpuDevice.start_application

    def record(device):
        built.append(device)
        start(device)

    monkeypatch.setattr(runtime._ClearDevice, "start_application", record)
    fixture = make_sgd_fixture(steps=1)
    assert clear_model(fixture) == expected_model(fixture.job, fixture.plaintexts)
    assert [len(device.ring_buffer.data) for device in built] == [0]


def checkpoint_ivs(manifest, snapshot) -> list[tuple[bytes, bytes]]:
    """(found, expected) IV pairs for every tile's checkpoint frames."""
    size = manifest.frame_size
    per_tile = {
        layout.tile_id: checkpoint_frames(
            len(layout.bindings), layout.ckpt_len, size - FRAME_OVERHEAD
        )
        for layout in manifest.tile_layouts
    }
    slot = max(per_tile.values())
    pairs = []
    for tile_id, frames in per_tile.items():
        for f in range(frames):
            at = (tile_id * slot + f) * size
            expected = StreamIV(
                StreamType.CHECKPOINT,
                ipu_id=manifest.ipu_id,
                tile_id=tile_id,
                epoch=snapshot.epoch,
                checkpoint_id=snapshot.checkpoint_id,
                frame_index=f,
            )
            pairs.append((snapshot.frames_blob[at : at + IV_BYTES], expected.to_bytes()))
    return pairs


def test_halt_reset_and_resume_matches_the_clear_reference():
    fixture = make_sgd_fixture(steps=4, checkpoint_period=1)
    session = fixture.session
    assert_halted(fixture, session.run(halt_after_checkpoint=2))
    assert [(s.epoch, s.checkpoint_id) for s in session.snapshots] == [(1, 0), (1, 1)]
    for snapshot in session.snapshots:
        pairs = checkpoint_ivs(fixture.compiled.manifest, snapshot)
        assert len(pairs) >= len(fixture.compiled.manifest.tile_layouts)
        assert all(found == expected for found, expected in pairs)

    fixture.deployment.device.reset("sbr")
    assert_completed_and_exact(fixture, session.resume())


def test_a_resumed_attempt_verifies_only_the_fresh_report(monkeypatch):
    """A fresh attempt makes 24 Ed25519 verifies: the control unit checks the
    3 keyshare signatures, and each of the 3 parties checks the 4 chain
    certificates, the 2 TCB certificates and the report.  Each party keeps
    the device evidence it accepted, so the resume makes 6: the keyshares
    and the 3 reports."""
    fixture = make_sgd_fixture(steps=4, checkpoint_period=1)
    session, calls, verify = fixture.session, [], crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or verify(*args))
    assert_halted(fixture, session.run(halt_after_checkpoint=2))
    fresh = len(calls)
    fixture.deployment.device.reset("sbr")
    calls.clear()
    assert_completed_and_exact(fixture, session.resume())
    assert (fresh, len(calls)) == (24, 6)


def test_a_certificate_revoked_between_halt_and_resume_is_rejected_by_every_party():
    """The CA revokes the attestation key while the job is halted; the host
    appends it to the very list each party accepted.  The resume's evidence
    is new bytes, so each party judges the device again and refuses it."""
    fixture = make_sgd_fixture(steps=4, checkpoint_period=1)
    session = fixture.session
    assert_halted(fixture, session.run(halt_after_checkpoint=1))
    ak = fixture.deployment.device_chain["ak"].fingerprint
    fixture.deployment.ca.revoked_certs.add(ak)
    session.ca_public["revoked_certs"].append(ak)
    fixture.deployment.device.reset("sbr")
    result = session.resume()
    assert_aborted_closed(fixture, result)
    assert result.reason == "party alpha rejected: revoked"
    assert "release_keys" not in [event.kind for event in result.log.events]
    evidence = (session.device_chain, session.ca_public, session.tcb_certs)
    for party in session.parties.values():
        verdict = party.release(session.last_report, evidence, session.last_expected, resume=True)
        assert verdict == (Verdict.reject("revoked"), None)


def test_a_restored_position_off_a_barrier_aborts_closed(monkeypatch):
    """Every resumed program gains a leading phase, so the authenticated pc
    no longer follows a sync phase: the device refuses to park there and
    tells the control unit."""
    fixture = make_sgd_fixture(steps=4, checkpoint_period=1)
    session = fixture.session
    assert_halted(fixture, session.run(halt_after_checkpoint=2))
    fixture.deployment.device.reset("sbr")
    unpack = TileProgram.unpack

    def shifted(blob):
        return TileProgram((ComputePhase(OP_SGD_STEP, (1, 1, 0x2000, 0x2000, 0)),) + unpack(blob).phases)

    monkeypatch.setattr(TileProgram, "unpack", shifted)
    result = session.resume()
    assert_aborted_closed(fixture, result)
    assert fixture.deployment.ccu.tee.reason == "security exception: restored position is not at a barrier"


def counted_unpacks(monkeypatch) -> list[bytes]:
    """Every blob ``TileProgram.unpack`` decodes from here on, in order."""
    blobs, unpack = [], TileProgram.unpack

    def counted(blob):
        blobs.append(blob)
        return unpack(blob)

    monkeypatch.setattr(TileProgram, "unpack", counted)
    return blobs


class ProgramWitness(Adversary):
    """Records each tile's program and the bytes at its binary offset once
    the launch has parked the tiles at barrier 0."""

    def __init__(self) -> None:
        self.seen = []

    def after_fill(self, host, stage) -> None:
        if stage == 0:
            self.seen = [(tile.program, bytes(tile.memory[BINARY_OFFSET:])) for tile in host.device.tiles]


def test_a_launch_decodes_each_distinct_binary_once(monkeypatch):
    """sgd_train's 16 tiles carry 4 binaries, one per exchange block: a launch
    decodes each once, and tiles with equal binaries hold one program while
    each holds its own bytes.  A halt, a reset and a resume decode again, as
    does the clear reference."""
    witness = ProgramWitness()
    fixture = make_sgd_fixture(steps=4, checkpoint_period=1, adversary=witness)
    binaries = fixture.compiled.binaries
    distinct = len(set(binaries.values()))
    assert distinct == 4
    blobs = counted_unpacks(monkeypatch)
    assert_completed_and_exact(fixture, fixture.session.run())
    assert len(blobs) == 2 * distinct  # the trusted run, then the clear reference
    assert set(blobs) == set(binaries.values())
    programs = {}
    for tile_id, (program, memory) in enumerate(witness.seen):
        assert memory.startswith(binaries[tile_id])
        assert programs.setdefault(binaries[tile_id], program) is program
    assert len({id(program) for program, _ in witness.seen}) == distinct

    blobs.clear()
    fixture.deployment.device.reset("sbr")
    assert_halted(fixture, fixture.session.run(halt_after_checkpoint=2))
    fixture.deployment.device.reset("sbr")
    assert_completed_and_exact(fixture, fixture.session.resume())
    assert len(blobs) == 2 * distinct + distinct  # two launches, then the clear reference

    blobs.clear()
    clear_model(fixture)
    assert len(blobs) == distinct


class FlipCodeByte(Adversary):
    """Flips one ciphertext byte of ``tile``'s first code frame after the boot fill."""

    def __init__(self, tile: int) -> None:
        self.tile = tile

    def after_fill(self, host, stage) -> None:
        if stage == "boot":
            address = host.manifest.code_addresses(host.manifest.tile_layouts[self.tile])[0] + 40
            host.ring.write(address, bytes([host.ring.read(address, 1)[0] ^ 0x01]))


def test_a_tile_whose_image_was_already_decoded_still_authenticates_its_code(monkeypatch):
    """Tile 1 carries tile 0's binary, decoded when tile 0 booted; its own
    code frame, tampered in the ring, still fails its tag."""
    fixture = make_sgd_fixture(steps=2, adversary=FlipCodeByte(1))
    binaries = fixture.compiled.binaries
    assert binaries[1] == binaries[0]
    blobs = counted_unpacks(monkeypatch)
    result = fixture.session.run()
    assert_aborted_closed(fixture, result)
    assert result.reason.startswith("launch: ingress:") and result.reason.endswith("frame tag mismatch")
    assert blobs == [binaries[0]]


def test_the_dma_path_builds_each_packet_once(monkeypatch):
    """The engines rewrite packets in place: the run constructs exactly the
    packets the DMA issues (read requests and write packets to egress,
    completions to ingress), none per hop."""
    fixture = make_sgd_fixture(steps=1)
    counts = {"built": 0, "process_egress": 0, "process_ingress": 0}
    post_init = ExchangePacket.__post_init__

    def counting_post_init(pkt):
        counts["built"] += 1
        post_init(pkt)

    def counted(name):
        method = getattr(SxpEngine, name)

        def wrapper(engine, pkt):
            counts[name] += 1
            return method(engine, pkt)

        return wrapper

    monkeypatch.setattr(ExchangePacket, "__post_init__", counting_post_init)
    for name in ("process_egress", "process_ingress"):
        monkeypatch.setattr(SxpEngine, name, counted(name))
    assert_completed_and_exact(fixture, fixture.session.run())
    pending = fixture.deployment.device.pending
    assert 0 < pending.created == pending.retired < counts["process_ingress"]
    assert counts["built"] == counts["process_egress"] + counts["process_ingress"]


def test_the_simulated_traffic_of_a_two_step_job_is_pinned(monkeypatch):
    """A faster simulator does the same simulated work: the same reads
    tracked and retired, packets through each engine and bytes through the
    ring as before."""
    fixture = make_sgd_fixture(steps=2)
    counts = collections.Counter()

    def counted(cls, name, measure):
        method = getattr(cls, name)

        def wrapper(owner, *args):
            counts[name] += measure(*args)
            return method(owner, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(SxpEngine, "process_egress", lambda pkt: 1)
    counted(SxpEngine, "process_ingress", lambda pkt: 1)
    counted(RingBuffer, "read", lambda address, length: length)
    counted(RingBuffer, "write", lambda address, blob: len(blob))
    assert_completed_and_exact(fixture, fixture.session.run())
    pending = fixture.deployment.device.pending
    assert (pending.created, pending.retired) == (56, 56)
    assert counts == {"process_egress": 136, "process_ingress": 112, "read": 12288, "write": 12288}


def test_the_simulated_traffic_of_a_halted_and_resumed_job_is_pinned(monkeypatch):
    """The checkpoint write and its restore do the same simulated work too:
    per attempt, the reads tracked and retired, packets through each engine
    and bytes through the ring."""
    fixture = make_sgd_fixture(steps=3, checkpoint_period=1)
    session, device = fixture.session, fixture.deployment.device
    counts = collections.Counter()
    measures = {
        (SxpEngine, "process_egress"): lambda pkt: 1,
        (SxpEngine, "process_ingress"): lambda pkt: 1,
        (RingBuffer, "read"): lambda address, length: length,
        (RingBuffer, "write"): lambda address, blob: len(blob),
    }
    for (cls, name), measure in measures.items():
        def wrapper(owner, *args, method=getattr(cls, name), name=name, measure=measure):
            counts[name] += measure(*args)
            return method(owner, *args)

        monkeypatch.setattr(cls, name, wrapper)

    def attempt_traffic() -> dict:
        traffic = {**counts, "pending": (device.pending.created, device.pending.retired)}
        counts.clear()
        return traffic

    assert_halted(fixture, session.run(halt_after_checkpoint=1))
    halted = attempt_traffic()
    device.reset("sbr")
    assert_completed_and_exact(fixture, session.resume())
    resumed = attempt_traffic()
    assert (halted, resumed) == HALT_RESUME_TRAFFIC


# Taken before the DMA path was rewritten to derive its job constants once.
HALT_RESUME_TRAFFIC = (
    {"pending": (40, 40), "process_egress": 72, "process_ingress": 80, "read": 7168, "write": 7168},
    {"pending": (64, 64), "process_egress": 144, "process_ingress": 128, "read": 13312, "write": 13312},
)


def test_an_sgd_chain_that_leaves_int32_moves_the_same_ring_bytes(monkeypatch):
    """The SGD chain kernel writes masked words only when a result leaves
    int32, a branch on the data: on one deployment, a 2-step job whose first
    weight sits at INT32_MAX under negative gradients takes it, the same job
    on the honest data does not, and the host sees the same ring accesses
    in the same order from both."""
    honest = make_sgd_fixture(steps=2)
    wrapping = dict(honest.plaintexts)
    wrapping[2] = struct.pack("<i", 2**31 - 1) + wrapping[2][4:]
    for sid in (3, 4):  # each party's gradient of weight 0 is -160 at both steps: +10 per step
        g = bytearray(wrapping[sid])
        for step in range(2):
            struct.pack_into("<i", g, step * len(wrapping[2]), -160)
        wrapping[sid] = bytes(g)
    wrapped = _make_fixture(honest.deployment, honest.job, lambda _: wrapping, None)

    ring, traces = honest.deployment.device.ring_buffer, []
    for name in ("read", "write"):
        def wrapper(owner, address, arg, method=getattr(RingBuffer, name), name=name):
            if owner is ring:
                traces[-1].append((name, address, arg if name == "read" else len(arg)))
            return method(owner, address, arg)

        monkeypatch.setattr(RingBuffer, name, wrapper)
    for fixture in (honest, wrapped):
        fixture.deployment.device.reset("sbr")  # a terminated TEE starts again only after a reset
        traces.append([])
        result = fixture.session.run()
        assert_completed_and_exact(fixture, result)
    assert struct.unpack_from("<i", trusted_model(wrapped, result)) == (2**31 - 1 + 40 - 2**32,)
    assert traces[0] == traces[1] and traces[0]


# ---------------------------------------------------------------------------
# host attacks
# ---------------------------------------------------------------------------

ATTACKS = [
    pytest.param(ReplayFrame(3, 0, 1), id="replay-gradient"),
    pytest.param(ReplayFrame(2, 0, 1), id="replay-weights"),
    pytest.param(ReorderFrames(1, 0, 1), id="reorder-code"),
    pytest.param(TamperFrame(1, 0, 5), id="tamper-code-iv"),
    pytest.param(TamperFrame(1, 1, 300), id="tamper-code-ciphertext"),
    pytest.param(TamperFrame(2, 0, 70), id="tamper-weights-iv"),
    pytest.param(TamperFrame(2, 1, 500), id="tamper-weights-ciphertext"),
    pytest.param(TamperFrame(3, 1, 90), id="tamper-gradient-iv"),
    pytest.param(TamperFrame(3, 2, 800), id="tamper-gradient-ciphertext"),
    pytest.param(SkipKeyLoad(1), id="skip-key-load"),
    pytest.param(SwapStreams(3, 4), id="swap-gradients"),
]


@pytest.mark.parametrize("adversary", ATTACKS)
def test_host_attack_aborts_closed(adversary):
    fixture = make_sgd_fixture(steps=3, adversary=adversary)
    assert_aborted_closed(fixture, fixture.session.run())


def test_a_dropped_key_load_at_an_already_keyed_barrier_completes_bit_equal():
    """Barrier 2, an exchange, keys nothing: the interval after it only
    computes, under the keys barrier 1 loaded, and the device moves the
    stream windows at every barrier itself, so dropping the call changes
    nothing."""
    fixture = make_sgd_fixture(steps=3, adversary=SkipKeyLoad(2))
    assert_completed_and_exact(fixture, fixture.session.run())


@pytest.mark.parametrize("sync_id", [0, -1, True, "1"])
def test_a_key_load_the_host_never_makes_cannot_be_skipped(sync_id):
    """``tee_launch`` keys barrier 0 itself, so the host's first key-load
    call is at barrier 1: dropping barrier 0's, or one at no barrier, is not
    an action, and would otherwise never fire while the run completed."""
    with pytest.raises(InvalidEncoding, match="names no barrier the host keys"):
        SkipKeyLoad(sync_id)


def test_a_script_skipping_barrier_0_s_key_load_is_refused():
    with pytest.raises(InvalidEncoding, match="skip_key_load: sync_id 0 names no barrier the host keys"):
        from_script([{"action": "skip_key_load", "sync_id": 0}])


def test_other_application_under_the_code_key_aborts_closed():
    """The host swaps in the ciphertext of another program that the model
    owner encrypted under the same code key: every frame authenticates, and
    only the manifest's binary hash chain catches it."""
    fixture = make_sgd_fixture(steps=2)
    manifest = fixture.compiled.manifest
    other = compile_job(
        JobDescription(
            kind="sgd", model_party="modelco", data_parties=("alpha", "beta"), steps=2, lr_num=3
        ),
        bootloader_measurement=manifest.bootloader_measurement,
        ipu_id=manifest.ipu_id,
    )
    assert other.binaries != fixture.compiled.binaries
    key = fixture.inputs["modelco"].keys[SID_CODE]
    fixture.session.adversary = SwapBinary(encrypt_code_stream(key, manifest, other.binaries))
    result = fixture.session.run()
    assert_aborted_closed(fixture, result)
    assert "binary hash" in result.reason


def halted_at_third_checkpoint():
    fixture = make_sgd_fixture(steps=4, checkpoint_period=1)
    assert_halted(fixture, fixture.session.run(halt_after_checkpoint=3))
    fixture.deployment.device.reset("sbr")
    return fixture


def test_256_checkpoints_fill_the_checkpoint_id_field_and_complete_exactly():
    """A checkpoint IV's ``checkpoint_id`` is 8 bits: a save at each of 256
    steps takes ids 0 to 255."""
    fixture = make_sgd_fixture(steps=256, checkpoint_period=1)
    assert_completed_and_exact(fixture, fixture.session.run())
    assert [s.checkpoint_id for s in fixture.session.snapshots] == list(range(256))


def test_a_257th_checkpoint_is_refused_before_any_key_is_released(monkeypatch):
    released = []
    monkeypatch.setattr(PartyIdentity, "release_keys", lambda *args, **kwargs: released.append(args))
    with pytest.raises(ScheduleInfeasible, match="more than 256 checkpoints"):
        make_sgd_fixture(steps=257, checkpoint_period=1)
    assert released == []


def test_a_resume_past_the_epoch_range_is_refused_before_any_key_is_released(monkeypatch):
    """A resume seeded at epoch 255 would have the restore bump the tiles'
    8-bit epoch to 256: the control unit refuses the counters at init,
    before trusted mode, so no party judges a report or releases a key."""
    fixture = halted_at_third_checkpoint()
    session = fixture.session
    session.snapshots[-1] = dataclasses.replace(session.snapshots[-1], epoch=255)
    released = []
    monkeypatch.setattr(PartyIdentity, "release_keys", lambda *args, **kwargs: released.append(args))
    result = session.resume()
    assert_aborted_closed(fixture, result, phase=NO_TEE)
    assert result.reason == "init: seeded counters out of range: epoch=255, checkpoint_id=2"
    assert result.verdicts == {} and released == []


def test_stale_checkpoint_aborts_closed():
    fixture = halted_at_third_checkpoint()
    session = fixture.session
    session.adversary = SubstituteCheckpoint(session.snapshots[0])
    assert_aborted_closed(fixture, session.resume())


def test_tampered_checkpoint_aborts_closed():
    fixture = halted_at_third_checkpoint()
    session = fixture.session
    latest = session.snapshots[-1]
    frames = bytearray(latest.frames_blob)
    frames[40] ^= 0x10  # a ciphertext byte of tile 0's first checkpoint frame
    session.adversary = SubstituteCheckpoint(
        dataclasses.replace(latest, frames_blob=bytes(frames))
    )
    assert_aborted_closed(fixture, session.resume())


# ---------------------------------------------------------------------------
# authentic but wrong inputs
# ---------------------------------------------------------------------------


def test_malformed_tile_program_aborts_closed():
    """The model owner encrypts a binary that is not a valid tile program."""
    fixture = make_sgd_fixture(steps=2)
    manifest = fixture.compiled.manifest
    binaries = dict(fixture.compiled.binaries)
    binaries[0] = b"TP\x01" + b"\xff" * (len(binaries[0]) - 3)
    inputs = dict(fixture.inputs)
    inputs["modelco"] = package_inputs(
        "modelco", manifest, binaries=binaries, data={2: fixture.plaintexts[2]}
    )
    assert_aborted_closed(fixture, session_with(fixture, inputs).run())


def test_key_for_another_partys_stream_aborts_closed():
    """The model owner ships its own key and ciphertext for alpha's stream."""
    fixture = make_sgd_fixture(steps=2)
    manifest = fixture.compiled.manifest
    key = b"\x5a" * 32
    forged = encrypt_data_stream(
        key, 3, manifest.frame_size, bytes(manifest.stream_table[3].plaintext_length)
    )
    modelco, alpha = fixture.inputs["modelco"], fixture.inputs["alpha"]
    inputs = dict(fixture.inputs)
    inputs["modelco"] = JobInputs(
        "modelco", {**modelco.streams, 3: forged}, {**modelco.keys, 3: key}
    )
    inputs["alpha"] = JobInputs("alpha", {}, alpha.keys)
    assert_aborted_closed(fixture, session_with(fixture, inputs).run())


def run_with_tile_5_program(fixture, phases):
    """Run the fixture's job with tile 5's program replaced by ``phases``,
    which the model owner ships under a manifest whose binary hash matches."""
    compiled = fixture.compiled
    programs = {**compiled.programs, 5: TileProgram(phases)}
    binaries = {**compiled.binaries, 5: programs[5].pack()}
    chain = CompiledJob(compiled.manifest, programs, binaries).binary_hash_chain()
    manifest = dataclasses.replace(compiled.manifest, binary_hash=chain)
    inputs = dict(fixture.inputs)
    inputs["modelco"] = package_inputs(
        "modelco", manifest, binaries=binaries, data={2: fixture.plaintexts[2]}
    )
    return session_with(fixture, inputs, manifest).run()


def test_compute_outside_tile_memory_aborts_closed():
    """The model owner ships a program whose SGD step writes past the tile's
    memory, under a manifest whose binary hash matches it."""
    fixture = make_sgd_fixture(steps=2)
    phases = tuple(
        dataclasses.replace(ph, args=ph.args[:2] + (70000,) + ph.args[3:])
        if isinstance(ph, ComputePhase) and ph.op == OP_SGD_STEP
        else ph
        for ph in fixture.compiled.programs[5].phases
    )
    result = run_with_tile_5_program(fixture, phases)
    assert_aborted_closed(fixture, result)
    assert "outside tile memory" in result.reason


def test_a_binding_off_the_tile_aborts_closed_before_a_byte_moves():
    """Tile 5's gradient binding starts 50 bytes short of the end of its
    memory, so its first load would run past it: the clear run and the
    trusted run both refuse the transfer, and no tile changes size."""
    fixture = make_sgd_fixture(steps=2)
    layouts = list(fixture.compiled.manifest.tile_layouts)
    (spec,) = layouts[5].bindings
    layouts[5] = dataclasses.replace(layouts[5], bindings=(dataclasses.replace(spec, buf_off=TILE_MEMORY - 50),))
    manifest = dataclasses.replace(fixture.compiled.manifest, tile_layouts=tuple(layouts)).validate()
    with pytest.raises(SecurityException, match="tile 5: stream 3 transfer leaves the tile's memory"):
        run_clear_reference(manifest, fixture.compiled.binaries, fixture.clear_inputs())
    result = session_with(fixture, fixture.inputs, manifest).run()
    assert_aborted_closed(fixture, result)
    assert result.reason == "tile 5: stream 3 transfer leaves the tile's memory"


@pytest.mark.parametrize(
    "walk",
    [{"start_index": -1}, {"stride": -1}, {"start_index": 10**6}],
    ids=["before-the-stream", "backwards", "past-the-end"],
)
def test_a_binding_off_its_stream_is_refused_by_the_clear_run_and_aborts_the_trusted_one(walk):
    """Tile 5's gradient binding walks to a frame before its stream, behind
    its window or past its end: the clear device refuses the load as the
    packet engines refuse the trusted one, rather than read bytes from the
    stream's end or zeros."""
    fixture = make_sgd_fixture(steps=2)
    layouts = list(fixture.compiled.manifest.tile_layouts)
    (spec,) = layouts[5].bindings
    layouts[5] = dataclasses.replace(layouts[5], bindings=(dataclasses.replace(spec, **walk),))
    manifest = dataclasses.replace(fixture.compiled.manifest, tile_layouts=tuple(layouts))
    with pytest.raises(SecurityException, match="tile 5: stream 3 frame -?[0-9]+ is not in its window"):
        run_clear_reference(manifest, fixture.compiled.binaries, fixture.clear_inputs())
    assert_aborted_closed(fixture, session_with(fixture, fixture.inputs, manifest).run())


def test_an_output_write_off_its_window_is_refused_by_the_clear_run_and_aborts_the_trusted_one():
    """Tile 0's output binding starts a frame before the output stream: the
    clear device refuses the store as the trusted device refuses its address,
    rather than keep a frame no trusted run could write."""
    fixture = make_sgd_fixture(steps=2)
    manifest = fixture.compiled.manifest
    sid = manifest.stream_of_kind(OUTPUT)
    layouts = list(manifest.tile_layouts)
    bindings = tuple(dataclasses.replace(b, start_index=-1) if b.stream_id == sid else b for b in layouts[0].bindings)
    assert bindings != layouts[0].bindings
    layouts[0] = dataclasses.replace(layouts[0], bindings=bindings)
    manifest = dataclasses.replace(manifest, tile_layouts=tuple(layouts))
    with pytest.raises(SecurityException, match=f"tile 0: stream {sid} frame -1 is not in its window"):
        run_clear_reference(manifest, fixture.compiled.binaries, fixture.clear_inputs())
    assert_aborted_closed(fixture, session_with(fixture, fixture.inputs, manifest).run())


def test_a_checkpointed_range_off_the_tile_is_refused_before_trusted_mode():
    """Tile 5 checkpoints 48 bytes from 10 bytes short of the end of its
    memory: the control unit refuses the manifest before trusted mode, so no
    checkpoint is saved or restored past the tile, and the clear run refuses
    it too."""
    fixture = make_sgd_fixture(steps=3)
    layouts = list(fixture.compiled.manifest.tile_layouts)
    layouts[5] = dataclasses.replace(layouts[5], ckpt_buf_off=TILE_MEMORY - 10)
    manifest = dataclasses.replace(fixture.compiled.manifest, tile_layouts=tuple(layouts))
    with pytest.raises(InvalidRegisterProgram, match="tile 5: the checkpointed range leaves the tile's memory"):
        run_clear_reference(manifest, fixture.compiled.binaries, fixture.clear_inputs())
    result = session_with(fixture, fixture.inputs, manifest).run(halt_after_checkpoint=1)
    assert_aborted_closed(fixture, result, NO_TEE)
    assert result.reason == "init: tile 5: the checkpointed range leaves the tile's memory"


def test_a_loop_over_the_phase_limit_aborts_closed():
    """The model owner ships a program whose loop would expand past the
    phase limit, under a manifest whose binary hash matches it: the device
    refuses the binary at boot."""
    fixture = make_sgd_fixture(steps=2)
    phases = tuple(
        dataclasses.replace(ph, times=MAX_PHASES) if isinstance(ph, LoopPhase) else ph
        for ph in fixture.compiled.programs[5].phases
    )
    result = run_with_tile_5_program(fixture, phases)
    assert_aborted_closed(fixture, result)
    assert f"expands past {MAX_PHASES} phases" in result.reason


def test_code_reads_do_not_grow_with_the_step_count(monkeypatch):
    """A 64-step job reads one code frame per tile, and the same 1,032 data
    frames as when the binaries unrolled every step (632 code frames then)."""
    fixture = make_sgd_fixture(steps=64, checkpoint_period=64)
    reads = collections.Counter()
    read_frame = IpuDevice._read_frame

    def counted(device, tile, sid, address, index):
        reads[device.manifest.stream_table[sid].kind] += 1
        return read_frame(device, tile, sid, address, index)

    monkeypatch.setattr(IpuDevice, "_read_frame", counted)
    assert_completed_and_exact(fixture, fixture.session.run())
    assert reads == {CODE: 16, DATA: 1032}


def test_tiles_at_an_unscheduled_barrier_abort_closed():
    """Every tile program names barrier 999 where the schedule has barrier 1,
    under a manifest whose binary hash matches them: the device refuses to
    park there."""
    fixture = make_sgd_fixture(steps=2)
    compiled = fixture.compiled
    programs = {
        tile: TileProgram(tuple(
            SyncPhase(999) if isinstance(ph, SyncPhase) and ph.sync_id == 1 else ph
            for ph in program.phases
        ))
        for tile, program in compiled.programs.items()
    }
    binaries = {tile: program.pack() for tile, program in programs.items()}
    chain = CompiledJob(compiled.manifest, programs, binaries).binary_hash_chain()
    manifest = dataclasses.replace(compiled.manifest, binary_hash=chain)
    assert manifest.plan(999) is None
    inputs = dict(fixture.inputs)
    inputs["modelco"] = package_inputs(
        "modelco", manifest, binaries=binaries, data={2: fixture.plaintexts[2]}
    )
    result = session_with(fixture, inputs, manifest).run()
    assert_aborted_closed(fixture, result)
    assert result.reason == "tiles reached barrier 999, which is not in the schedule"


class SelfKeying(Adversary):
    """Makes the control unit's key-load call itself at every barrier, in
    place of the runtime's call."""

    def skip_key_load(self, host, sync_id):
        host.ccu.tee_load_keys()
        return True


@pytest.mark.parametrize(
    "make_fixture",
    [
        pytest.param(lambda: make_sgd_fixture(steps=3, checkpoint_period=1), id="sgd"),
        pytest.param(lambda: make_sum_fixture(stream_count=17), id="sum"),
    ],
)
def test_a_host_that_keys_barriers_itself_gets_the_attested_plans(make_fixture):
    fixture = make_fixture()
    fixture.session.adversary = SelfKeying()
    assert_completed_and_exact(fixture, fixture.session.run())


class BarrierWitness(Adversary):
    """Notes the device's barrier at every ring fill."""

    def __init__(self) -> None:
        self.seen: list = []

    def after_fill(self, host, stage):
        self.seen.append((stage, host.device.barrier))


def test_a_restore_parks_the_device_at_the_saved_barrier():
    witness = BarrierWitness()
    fixture = make_sgd_fixture(steps=4, checkpoint_period=1, adversary=witness)
    session = fixture.session
    assert_halted(fixture, session.run(halt_after_checkpoint=2))
    saved = session.snapshots[-1]
    fixture.deployment.device.reset("sbr")
    assert fixture.deployment.device.barrier is None
    witness.seen.clear()
    assert_completed_and_exact(fixture, session.resume())
    assert saved.barrier > 0
    assert witness.seen[:3] == [("boot", None), ("restore", 0), (saved.barrier, saved.barrier)]
    assert all(stage == barrier for stage, barrier in witness.seen[2:])


def test_no_keys_load_once_the_programs_have_ended():
    """The completed run tore the TEE down, so the control unit refuses by
    phase (``test_ccu`` covers a launched TEE whose tiles are not parked)."""
    fixture = make_sgd_fixture(steps=2)
    assert fixture.session.run().completed
    assert fixture.deployment.device.barrier is None
    with pytest.raises(InvalidPhase, match="tee_load_keys in phase terminated"):
        fixture.deployment.ccu.tee_load_keys()


def leaves(value):
    """Every value inside ``value``, walking dicts (keys too), lists and tuples."""
    if isinstance(value, dict):
        for item in value.items():
            yield from leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


@pytest.mark.parametrize("halt_after", [None, 2], ids=["completed", "halted"])
def test_the_host_session_holds_no_stream_key_or_run_nonce(halt_after):
    fixture = make_sgd_fixture(steps=4, checkpoint_period=1)
    session = fixture.session
    result = session.run(halt_after_checkpoint=halt_after)
    assert result.status == ("halted" if halt_after else "complete"), result.reason
    assert_torn_down(fixture)
    nonces = set(session.run_nonces.values())
    assert len(nonces) == len(fixture.parties)
    secrets = nonces | {key for job in fixture.inputs.values() for key in job.keys.values()}
    holders = [
        name
        for name, value in vars(session).items()
        if name not in ("parties", "adversary")
        for leaf in leaves(value)
        if isinstance(leaf, (bytes, bytearray)) and any(secret in leaf for secret in secrets)
    ]
    assert holders == []


def test_unexpected_launch_failure_aborts_closed(monkeypatch):
    fixture = make_sgd_fixture(steps=2)

    def broken_bootloader(*args, **kwargs):
        raise RuntimeError("bootloader fault")

    monkeypatch.setattr(fixture.deployment.device, "run_bootloader", broken_bootloader)
    result = fixture.session.run()
    assert_aborted_closed(fixture, result)
    assert result.reason.startswith("launch: ")


def test_adversary_naming_an_unknown_stream_aborts_closed():
    script = [{"action": "swap_streams", "stream_a": 3, "stream_b": 42}]
    fixture = make_sgd_fixture(steps=2, adversary=from_script(script))
    assert_aborted_closed(fixture, fixture.session.run())


def tile_5_disagrees_on_barrier_1(phases):
    assert phases[0] == SyncPhase(1)
    return (SyncPhase(2),) + phases[1:]


def tile_5_loads_stream_4_for_3(phases):
    assert LoadPhase(3, 2) in phases
    return tuple(LoadPhase(4, ph.frames) if isinstance(ph, LoadPhase) else ph for ph in phases)


@pytest.mark.parametrize(
    "change, reason",
    [
        pytest.param(tile_5_disagrees_on_barrier_1, "tiles disagree on the barrier: ['1', '2']", id="disagree"),
        pytest.param(tile_5_loads_stream_4_for_3, "tile 5 has no binding for stream 4", id="unbound-stream"),
    ],
)
def test_a_tile_program_the_device_cannot_run_aborts_closed(change, reason):
    fixture = make_sgd_fixture(steps=2)
    result = run_with_tile_5_program(fixture, change(fixture.compiled.programs[5].phases))
    assert_aborted_closed(fixture, result)
    assert result.reason == reason
    # the device raised it as a security exception, so the control unit recorded it
    assert fixture.deployment.ccu.tee.reason == f"security exception: {reason}"


def test_a_register_written_before_init_is_rejected_by_every_party():
    """The device is still in normal mode, so the write lands, but the
    control unit measures it into the report: the first party to judge it
    rejects, and so would every other, before any key is released."""
    fixture = make_sgd_fixture(steps=2, adversary=TamperRegister("hsp_period", 7))
    session = fixture.session
    result = session.run()
    assert_aborted_closed(fixture, result)
    assert result.reason == "party alpha rejected: registers"
    assert "release_keys" not in [event.kind for event in result.log.events]
    evidence = (session.device_chain, session.ca_public, session.tcb_certs)
    for party in session.parties.values():
        verdict = party.release(session.last_report, evidence, session.last_expected, resume=False)
        assert verdict == (Verdict.reject("registers"), None)


def test_a_register_write_at_a_barrier_aborts_closed():
    """In trusted mode the device denies the write and tells the control
    unit; the denial ends the attempt like any other host fault."""
    fixture = make_sgd_fixture(steps=2, adversary=TamperRegister("hsp_period", 7, at_sync=2))
    result = fixture.session.run()
    assert_aborted_closed(fixture, result)
    assert result.reason == "trusted mode: write register hsp_period"


def test_a_script_writing_an_unknown_register_aborts_with_a_typed_reason():
    """The device has no such register: the write before init raises the
    typed ``IndexOutOfRange``, and the attempt aborts with its message."""
    script = [{"action": "tamper_register", "register": "bogus", "value": 1}]
    fixture = make_sgd_fixture(steps=1, adversary=from_script(script))
    result = fixture.session.run()
    assert_aborted_closed(fixture, result, phase=NO_TEE)
    assert result.reason == "unknown device register bogus"


def test_a_two_action_script_runs_both_actions_in_one_hosting():
    """Dropping barrier 2's key load alone completes bit-equal; the frame
    tampered after it aborts the run."""
    script = [
        {"action": "skip_key_load", "sync_id": 2},
        {"action": "tamper_frame", "stream_id": 3, "frame_index": 8, "bit": 800},
    ]
    adversary = from_script(script)
    assert isinstance(adversary, Composite)
    fixture = make_sgd_fixture(steps=3, adversary=adversary)
    result = fixture.session.run()
    assert_aborted_closed(fixture, result)
    assert "adversary action=skip_key_load sync_id=2" in result.log.dump()
    assert result.reason == "ingress: context 0: frame tag mismatch"  # the first gradient stream's, the first it keys


class TerminateAt(Adversary):
    """Has the control unit terminate the TEE at one barrier's fill."""

    def __init__(self, sync_id: int) -> None:
        self.sync_id = sync_id

    def after_fill(self, host, stage):
        if stage == self.sync_id:
            host.ccu.tee_terminate("host stop")


def test_a_tee_ended_at_the_last_barrier_aborts_the_run():
    """Nothing runs after the last barrier, so the attempt would complete;
    a TEE that ended under it turns that into an abort."""
    fixture = make_sgd_fixture(steps=2)
    fixture.session.adversary = TerminateAt(len(fixture.compiled.manifest.schedule) - 1)
    result = fixture.session.run()
    assert_aborted_closed(fixture, result)
    assert result.reason == "host stop"
    assert result.output_frames == ()


def test_jobs_share_a_deployment_with_a_reset_between_them():
    deployment = make_deployment(seed=7)
    first = make_sgd_fixture(deployment, steps=2)
    assert_completed_and_exact(first, first.session.run())
    second = make_sgd_fixture(deployment, steps=2, data_seed=1)
    refused = second.session.run()
    assert_aborted_closed(second, refused)
    assert refused.reason == "init: tee_init in phase terminated"
    deployment.device.reset("sbr")
    assert_completed_and_exact(second, second.session.run())


# ---------------------------------------------------------------------------
# the control unit owns the manifest it measured
# ---------------------------------------------------------------------------


class ChangeHostManifest(Adversary):
    """Changes the host's own manifest object in place, once, at ``stage``."""

    def __init__(self, change, stage=0) -> None:
        self.change, self.stage = change, stage

    def after_fill(self, host, stage):
        if stage == self.stage:
            self.change(host.manifest)


def output_in_region_zero(manifest):
    """Make the output stream's extent the cleartext region: an image derived from it would key no output."""
    object.__setattr__(manifest, "clear_region", manifest.extent(manifest.stream_of_kind(OUTPUT)))


def gradient_bindings_moved(manifest):
    """Have tile 4, in block 1, walk the second gradient stream: an image
    derived from it would route block 1 to that stream's key."""
    layouts = list(manifest.tile_layouts)
    layouts[4] = dataclasses.replace(layouts[4], bindings=(dataclasses.replace(layouts[4].bindings[0], stream_id=4),))
    object.__setattr__(manifest, "tile_layouts", tuple(layouts))


def grow_output_region(manifest):
    sid = manifest.stream_of_kind(OUTPUT)
    entry = manifest.stream_table[sid]
    manifest.stream_table[sid] = dataclasses.replace(entry, region_frames=entry.region_frames + 32)


def shift_schedule_offsets(manifest):
    for _, offsets in manifest.schedule:
        for sid in offsets:
            offsets[sid] += 1


def alias_gradient_streams(manifest):
    manifest.stream_table[3] = manifest.stream_table[4]


def forge_binary_hash(manifest):
    object.__setattr__(manifest, "binary_hash", "00" * 32)


@pytest.mark.parametrize(
    "change, stage, completes",
    [
        pytest.param(output_in_region_zero, 0, True, id="output-in-region-zero"),
        pytest.param(gradient_bindings_moved, 0, True, id="gradient-bindings-moved"),
        pytest.param(grow_output_region, 0, True, id="grow-output-region"),
        pytest.param(forge_binary_hash, "boot", True, id="binary-hashes-before-launch"),
        pytest.param(shift_schedule_offsets, 0, False, id="schedule-offsets"),
        pytest.param(alias_gradient_streams, 0, False, id="stream-table-alias"),
    ],
)
def test_host_changes_to_its_own_manifest_reach_neither_control_unit_nor_device(change, stage, completes):
    """The control unit and the device run from the control unit's decoded
    copy, so a change to the host's object only changes what the host itself
    writes into the ring: the run completes bit-equal, or the host's own
    misplaced fills abort it closed."""
    fixture = make_sgd_fixture(steps=2)
    pristine = copy.deepcopy(fixture.compiled.manifest)
    reference = run_clear_reference(pristine, fixture.compiled.binaries, fixture.clear_inputs())
    fixture.session.adversary = ChangeHostManifest(change, stage)
    result = fixture.session.run()
    assert fixture.session.manifest != pristine
    if completes:
        assert result.completed, result.reason
        assert all(v.accepted for v in result.verdicts.values())
        assert_torn_down(fixture)
        nonces = fixture.session.model_key_nonces()
        assert decrypt_model(pristine, result.output_frames, nonces) == reference
    else:
        assert_aborted_closed(fixture, result)


class SetDeviceAttributes(Adversary):
    """Sets attributes on the device the host holds: ``writes`` maps a fill
    stage to the attributes and values to set there."""

    def __init__(self, writes) -> None:
        self.writes = writes

    def after_fill(self, host, stage):
        for name, value in self.writes.get(stage, {}).items():
            setattr(host.device, name, value)


def output_barrier(manifest) -> int:
    """The barrier that keys the output stream: the tiles store the model after it."""
    return next(s for s, (_, offsets) in enumerate(manifest.schedule) if manifest.stream_of_kind(OUTPUT) in offsets)


def forge_inputs(fixture) -> dict:
    """Plaintext mode from barrier 1, serving zero gradients, and off again before the model is stored."""
    manifest = fixture.compiled.manifest
    zeros = {
        sid: bytes(len(blob)) for sid, blob in fixture.plaintexts.items()
        if manifest.stream_table[sid].party in fixture.job.data_parties
    }
    return {1: {"clear_mode": True, "clear_sources": zeros}, output_barrier(manifest): {"clear_mode": False}}


def divert_output(fixture) -> dict:
    """Plaintext mode from the barrier before the model is stored."""
    return {output_barrier(fixture.compiled.manifest): {"clear_mode": True}}


@pytest.mark.parametrize(
    "writes",
    [pytest.param(forge_inputs, id="forge-inputs"), pytest.param(divert_output, id="divert-output")],
)
def test_a_host_cannot_switch_the_device_to_plaintext(writes):
    """The trusted device has one stream path, through the packet engines: a
    host that sets plaintext-mode attributes on it, to feed the tiles forged
    gradients or to collect the model in the clear, gets an honest run or an
    abort, and no plaintext model is left on the device."""
    fixture = make_sgd_fixture(steps=2)
    fixture.session.adversary = SetDeviceAttributes(writes(fixture))
    result = fixture.session.run()
    if result.completed:
        assert_completed_and_exact(fixture, result)
    else:
        assert_aborted_closed(fixture, result)
    model, state = clear_model(fixture), vars(fixture.deployment.device)
    values = [*state.values(), *(v for d in state.values() if isinstance(d, dict) for v in d.values())]
    assert not any(isinstance(v, (bytes, bytearray)) and v == model for v in values)


class ManifestWitness(Adversary):
    """Notes, at every fill after launch, whose manifest the device runs."""

    def __init__(self) -> None:
        self.seen: list = []

    def after_fill(self, host, stage):
        if isinstance(stage, int):
            device, tee = host.device.manifest, host.ccu.tee.manifest
            self.seen.append((device is tee, device is host.manifest, device == host.manifest))


def test_the_device_runs_from_the_control_units_copy_and_nothing_re_measures(monkeypatch):
    witness = ManifestWitness()
    fixture = make_sgd_fixture(steps=4, checkpoint_period=1, adversary=witness)
    measured = []
    original = JobManifest.measurement
    monkeypatch.setattr(JobManifest, "measurement", lambda self: measured.append(1) or original(self))
    session = fixture.session
    assert_halted(fixture, session.run(halt_after_checkpoint=2))
    fixture.deployment.device.reset("sbr")
    assert_completed_and_exact(fixture, session.resume())
    assert witness.seen and set(witness.seen) == {(True, False, True)}
    assert measured == []
