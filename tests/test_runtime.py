"""Trusted jobs end to end: honest runs match the clear reference, a halted
run resumes, and every host attack aborts with the TEE terminated, its keys
gone and the device back in normal mode."""

import dataclasses
import hashlib
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itx.adversary import (
    Adversary,
    ReorderFrames,
    ReplayFrame,
    SkipKeyLoad,
    SubstituteCheckpoint,
    SwapBinary,
    SwapStreams,
    TamperFrame,
    from_script,
)
from itx.ccu import TERMINATED
from itx.compiler import SID_CODE, CompiledJob, JobDescription, compile_job
from itx.device import (
    MODE_NORMAL,
    ComputePhase,
    OP_SGD_STEP,
    SyncPhase,
    TileProgram,
    checkpoint_frames,
    pack_checkpoint_metadata,
    parse_checkpoint_metadata,
)
from itx.frame_codec import FRAME_OVERHEAD, IV_BYTES, StreamIV, StreamType
from itx.manifest import CHECKPOINT
from itx.packaging import JobInputs, encrypt_code_stream, encrypt_data_stream, package_inputs
from itx.runtime import TrustedJobSession, decrypt_model, run_clear_reference
from itx.sandbox import _make_session, make_sgd_fixture, make_sum_fixture
from itx.errors import InvalidEncoding, InvalidPhase
from itx.sxp import NUM_CONTEXTS, ExchangePacket, SxpEngine


def clear_model(fixture) -> bytes:
    compiled = fixture.compiled
    return run_clear_reference(compiled.manifest, compiled.binaries, fixture.clear_inputs())


def trusted_model(fixture, result) -> bytes:
    return decrypt_model(
        fixture.compiled.manifest, result.output_frames, fixture.session.model_key_nonces()
    )


def assert_completed_and_exact(fixture, result) -> None:
    assert result.completed, result.reason
    assert all(v.accepted for v in result.verdicts.values())
    assert trusted_model(fixture, result) == clear_model(fixture)


def assert_aborted_closed(fixture, result) -> None:
    assert result.aborted, result.reason
    device = fixture.deployment.device
    assert fixture.deployment.ccu.tee.phase == TERMINATED
    assert device.mode == MODE_NORMAL
    for engine in (device.ingress, device.egress):
        assert not any(engine.key_loaded(ctx) for ctx in range(NUM_CONTEXTS))


def session_with(fixture, inputs: dict[str, JobInputs]) -> TrustedJobSession:
    """A fresh host session for the fixture's job that ships ``inputs``."""
    return _make_session(fixture.deployment, fixture.compiled.manifest, fixture.parties, inputs)


# ---------------------------------------------------------------------------
# honest runs
# ---------------------------------------------------------------------------


def test_honest_sgd_run_matches_the_clear_reference():
    fixture = make_sgd_fixture(steps=3)
    assert_completed_and_exact(fixture, fixture.session.run())


def test_honest_sum_run_with_key_rotation_matches_the_clear_reference():
    fixture = make_sum_fixture(stream_count=17)
    assert_completed_and_exact(fixture, fixture.session.run())


def checkpoint_ivs(manifest, snapshot) -> list[tuple[bytes, bytes]]:
    """(found, expected) IV pairs for every tile's checkpoint frames."""
    entry = next(e for e in manifest.stream_table.values() if e.kind == CHECKPOINT)
    size = entry.frame_total_size
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
    halted = session.run(halt_after_checkpoint=2)
    assert halted.status == "halted", halted.reason
    assert [(s.epoch, s.checkpoint_id) for s in session.snapshots] == [(1, 0), (1, 1)]
    for snapshot in session.snapshots:
        pairs = checkpoint_ivs(fixture.compiled.manifest, snapshot)
        assert len(pairs) >= len(fixture.compiled.manifest.tile_layouts)
        assert all(found == expected for found, expected in pairs)

    fixture.deployment.device.reset("sbr")
    assert_completed_and_exact(fixture, session.resume())


def test_checkpoint_metadata_golden():
    blob = pack_checkpoint_metadata(3, 2, 17, {5: 9, 2: 4})
    assert blob.hex() == "0300000002000000110000000200000002000400000005000900000000000000"
    assert parse_checkpoint_metadata(blob) == {
        "epoch": 3,
        "checkpoint_id": 2,
        "pc": 17,
        "cursors": {2: 4, 5: 9},
    }


@pytest.mark.parametrize(
    "blob",
    [b"", bytes(12), struct.pack("<IIII", 1, 0, 3, 0xFFFFFF).ljust(256, b"\x00")],
    ids=["empty", "no-cursor-count", "cursor-count-past-the-slot"],
)
def test_malformed_checkpoint_metadata_is_invalid_encoding(blob):
    with pytest.raises(InvalidEncoding):
        parse_checkpoint_metadata(blob)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_any_checkpoint_metadata_blob_parses_or_is_invalid_encoding(blob):
    try:
        parse_checkpoint_metadata(blob)
    except InvalidEncoding:
        pass


def test_trace_holds_no_digest_of_plaintext(monkeypatch):
    """No trace record carries a SHA-256 prefix of a packet payload that
    ingress decrypted, or of a tile binary."""
    fixture = make_sgd_fixture(steps=1)
    device = fixture.deployment.device
    records = []
    device.trace = device.ingress.trace = device.egress.trace = records.append
    payloads = []
    process_ingress = SxpEngine.process_ingress

    def recording(engine, pkt):
        out = process_ingress(engine, pkt)
        if out is not None:
            payloads.append(out.payload)
        return out

    monkeypatch.setattr(SxpEngine, "process_ingress", recording)
    assert_completed_and_exact(fixture, fixture.session.run())
    text = json.dumps(records)
    secrets = [*payloads, *fixture.compiled.binaries.values()]
    assert payloads and records
    assert [s for s in secrets if hashlib.sha256(s).hexdigest()[:16] in text] == []


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
    pytest.param(SkipKeyLoad(3), id="skip-key-load"),
    pytest.param(SwapStreams(3, 4), id="swap-gradients"),
]


@pytest.mark.parametrize("adversary", ATTACKS)
def test_host_attack_aborts_closed(adversary):
    fixture = make_sgd_fixture(steps=3, adversary=adversary)
    assert_aborted_closed(fixture, fixture.session.run())


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
        config=fixture.deployment.device.config,
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
    halted = fixture.session.run(halt_after_checkpoint=3)
    assert halted.status == "halted", halted.reason
    fixture.deployment.device.reset("sbr")
    return fixture


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
    entry = fixture.compiled.manifest.stream_table[3]
    key = b"\x5a" * 32
    forged = encrypt_data_stream(
        key, 3, entry.frame_total_size, bytes(entry.plaintext_length)
    )
    modelco, alpha = fixture.inputs["modelco"], fixture.inputs["alpha"]
    inputs = dict(fixture.inputs)
    inputs["modelco"] = JobInputs(
        "modelco", {**modelco.streams, 3: forged}, {**modelco.keys, 3: key}
    )
    inputs["alpha"] = JobInputs("alpha", {}, alpha.keys)
    assert_aborted_closed(fixture, session_with(fixture, inputs).run())


def test_compute_outside_tile_memory_aborts_closed():
    """The model owner ships a program whose SGD step writes past the tile's
    memory, under a manifest whose binary hash matches it."""
    fixture = make_sgd_fixture(steps=2)
    compiled = fixture.compiled
    phases = tuple(
        dataclasses.replace(ph, args=ph.args[:2] + (70000,) + ph.args[3:])
        if isinstance(ph, ComputePhase) and ph.op == OP_SGD_STEP
        else ph
        for ph in compiled.programs[5].phases
    )
    programs = {**compiled.programs, 5: TileProgram(phases)}
    binaries = {**compiled.binaries, 5: programs[5].pack()}
    chain = CompiledJob(compiled.manifest, programs, binaries).binary_hash_chain()
    manifest = dataclasses.replace(
        compiled.manifest, binary_hashes={compiled.manifest.ipu_id: chain}
    )
    inputs = dict(fixture.inputs)
    inputs["modelco"] = package_inputs(
        "modelco", manifest, binaries=binaries, data={2: fixture.plaintexts[2]}
    )
    session = _make_session(fixture.deployment, manifest, fixture.parties, inputs)
    result = session.run()
    assert_aborted_closed(fixture, result)
    assert "outside tile memory" in result.reason


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
    manifest = dataclasses.replace(
        compiled.manifest, binary_hashes={compiled.manifest.ipu_id: chain}
    )
    assert manifest.plan(999) is None
    inputs = dict(fixture.inputs)
    inputs["modelco"] = package_inputs(
        "modelco", manifest, binaries=binaries, data={2: fixture.plaintexts[2]}
    )
    result = _make_session(fixture.deployment, manifest, fixture.parties, inputs).run()
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
    assert session.run(halt_after_checkpoint=2).status == "halted"
    saved = session.snapshots[-1]
    fixture.deployment.device.reset("sbr")
    assert fixture.deployment.device.barrier is None
    witness.seen.clear()
    assert_completed_and_exact(fixture, session.resume())
    assert saved.barrier > 0
    assert witness.seen[:3] == [("boot", None), ("restore", 0), (saved.barrier, saved.barrier)]
    assert all(stage == barrier for stage, barrier in witness.seen[2:])


def test_no_keys_load_once_the_programs_have_ended():
    fixture = make_sgd_fixture(steps=2)
    assert fixture.session.run().completed
    assert fixture.deployment.device.barrier is None
    with pytest.raises(InvalidPhase, match="not parked"):
        fixture.deployment.ccu.tee_load_keys()


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
