"""Job compilation: planner constraints, key rotation, and the binary hash chain."""

import hashlib

import pytest

from itx import compiler
from itx.compiler import CompiledJob, JobDescription, compile_job
from itx.device import TileProgram
from itx.encoding import canonical_bytes, jsonable
from itx.errors import InvalidRegisterProgram, ScheduleInfeasible
from itx.manifest import BOOT, CHECKPOINT, CODE, DATA, DIR_IN, DIR_OUT, OUTPUT, RESTORE, SAVE
from itx.sxp import NUM_CONTEXTS


def sgd_job(**overrides) -> JobDescription:
    base = dict(
        kind="sgd",
        model_party="modelco",
        data_parties=("alpha", "beta"),
        steps=3,
        checkpoint_period=1,
    )
    base.update(overrides)
    return JobDescription(**base)


def sum_job(**overrides) -> JobDescription:
    base = dict(
        kind="sum_streams",
        model_party="modelco",
        data_parties=("alpha", "beta"),
        stream_count=17,
    )
    base.update(overrides)
    return JobDescription(**base)


BOOTLOADER = hashlib.sha256(b"tile bootloader").hexdigest()


def barriers(manifest) -> list:
    """Every barrier's (plan, stream offsets), in sync-id order."""
    return [manifest.plan(sync_id) for sync_id in range(len(manifest.schedule))]


def saves(manifest) -> bool:
    """Whether the job checkpoints: it has a checkpoint stream, which its save and restore phases key."""
    return any(entry.kind == CHECKPOINT for entry in manifest.stream_table.values())


def filled(manifest, offsets) -> tuple:
    """The streams the host fills at a barrier: the input streams among its offsets, in id order."""
    return tuple(sid for sid in sorted(offsets) if manifest.stream_table[sid].direction == DIR_IN)


# ---------------------------------------------------------------------------
# SGD planning
# ---------------------------------------------------------------------------


class TestSgdPlanning:
    def test_compiled_manifest_is_valid_and_complete(self):
        compiled = compile_job(sgd_job(), bootloader_measurement=BOOTLOADER, ipu_id=0)
        manifest = compiled.manifest
        manifest.validate()
        assert manifest.bootloader_measurement == BOOTLOADER
        assert len(compiled.programs) == 16 and len(compiled.binaries) == 16

        kinds = {sid: e.kind for sid, e in manifest.stream_table.items()}
        assert kinds == {1: CODE, 2: DATA, 3: DATA, 4: DATA, 5: CHECKPOINT, 6: OUTPUT}
        directions = {sid: e.direction for sid, e in manifest.stream_table.items()}
        assert directions == {
            1: DIR_IN, 2: DIR_IN, 3: DIR_IN, 4: DIR_IN, 5: DIR_OUT, 6: DIR_OUT,
        }
        assert compiled.key_streams == {
            "modelco": (1, 2),
            "alpha": (3,),
            "beta": (4,),
        }

    def test_compilation_is_deterministic(self):
        first = compile_job(sgd_job(), bootloader_measurement=BOOTLOADER)
        second = compile_job(sgd_job(), bootloader_measurement=BOOTLOADER)
        assert first.manifest.measurement() == second.manifest.measurement()
        assert first.binaries == second.binaries

    def test_binary_hash_chain_folds_in_tile_order(self):
        compiled = compile_job(sgd_job(), bootloader_measurement=BOOTLOADER, ipu_id=2)
        chain = b""
        for tile_id in sorted(compiled.binaries):
            chain = hashlib.sha256(
                chain + hashlib.sha256(compiled.binaries[tile_id]).digest()
            ).digest()
        assert compiled.binary_hash_chain() == chain.hex()
        assert compiled.manifest.binary_hash == chain.hex()

        patched = CompiledJob(
            manifest=compiled.manifest,
            programs=compiled.programs,
            binaries={**compiled.binaries, 7: b"\x90" * 64},
        )
        assert patched.binary_hash_chain() != compiled.binary_hash_chain()

    def test_step_count_drives_the_sync_schedule(self):
        for steps in (1, 2, 5):
            compiled = compile_job(sgd_job(steps=steps), bootloader_measurement=BOOTLOADER)
            manifest = compiled.manifest
            assert len(manifest.schedule) == 2 * steps + 3
            assert None not in barriers(manifest)
            assert manifest.plan(2 * steps + 3) is None and manifest.plan(-1) is None

    def test_checkpoint_period_marks_the_right_barriers(self):
        compiled = compile_job(
            sgd_job(steps=4, checkpoint_period=2), bootloader_measurement=BOOTLOADER
        )
        checkpointed = [i for i, (p, _) in enumerate(barriers(compiled.manifest)) if p.checkpoint]
        assert checkpointed == [5, 9]  # before step 2, and at the gather barrier

        every_step = compile_job(
            sgd_job(steps=3, checkpoint_period=1), bootloader_measurement=BOOTLOADER
        )
        checkpointed = [i for i, (p, _) in enumerate(barriers(every_step.manifest)) if p.checkpoint]
        assert checkpointed == [3, 5, 7]

    def test_the_loop_is_stated_once(self):
        """A long job reuses its loop's plans: the manifest grows by one small
        schedule entry per barrier, not by a plan.  Its four plans are the
        first gradient barrier's weight moves, the exchange's gradient
        moves, the checkpointing gather, and the empty plan of every other
        barrier."""
        manifest = compile_job(
            sgd_job(steps=64, checkpoint_period=64), bootloader_measurement=BOOTLOADER
        ).manifest
        assert len(manifest.plans) == 4
        assert len(manifest.schedule) == 131
        assert len(manifest.to_bytes()) <= 12 * 1024

    def test_code_frames_do_not_depend_on_the_step_count(self):
        """Each tile states its steps as one loop, so a job's code is the
        same size at any step count."""
        code_frames = {
            steps: sum(
                layout.code_frames
                for layout in compile_job(sgd_job(steps=steps)).manifest.tile_layouts
            )
            for steps in (1, 16, 64)
        }
        assert code_frames == {1: 16, 16: 16, 64: 16}

    def test_code_stream_covers_every_binary(self):
        compiled = compile_job(sgd_job(), bootloader_measurement=BOOTLOADER)
        entry = compiled.manifest.stream_table[1]
        assert entry.plaintext_length == sum(len(b) for b in compiled.binaries.values())
        layouts = {l.tile_id: l for l in compiled.manifest.tile_layouts}
        assert sorted(layouts) == list(range(16))
        for tile_id, binary in compiled.binaries.items():
            assert layouts[tile_id].binary_length == len(binary)

    def test_rejects_what_it_cannot_schedule(self):
        with pytest.raises(ScheduleInfeasible, match="two data parties"):
            compile_job(sgd_job(data_parties=("alpha",)))
        with pytest.raises(ScheduleInfeasible, match="at least one step"):
            compile_job(sgd_job(steps=0))
        with pytest.raises(ScheduleInfeasible, match="unknown job kind"):
            compile_job(JobDescription(kind="matmul", model_party="m"))

    @pytest.mark.parametrize(
        "field, value, refusal",
        [
            ("checkpoint_period", 0, "checkpoint_period 0"),
            ("checkpoint_period", -1, "checkpoint_period -1"),
            ("lr_den", 0, "learning rate 1/0"),
            ("lr_den", -4, "learning rate 1/-4"),
            ("lr_den", 2**31, "learning rate 1/2147483648"),
            ("lr_num", 2**31, "learning rate 2147483648/16"),
            ("lr_num", -(2**31) - 1, "learning rate -2147483649/16"),
        ],
    )
    def test_refuses_job_fields_the_tiles_cannot_run(self, field, value, refusal):
        """Each of these used to compile into a program the bootloaders
        refuse, checkpoint at every step, or fail with a bare Python error."""
        with pytest.raises(ScheduleInfeasible, match=refusal):
            compile_job(sgd_job(**{field: value}))

    def test_compiles_the_edges_of_the_job_fields(self):
        compile_job(sgd_job(lr_num=2**31 - 1, lr_den=2**31 - 1))
        compile_job(sgd_job(lr_num=-(2**31), lr_den=1))

    def test_refuses_more_checkpoints_than_checkpoint_ids(self):
        """A checkpoint IV's ``checkpoint_id`` is 8 bits, so a job holds at
        most 256 checkpoint barriers, however its steps are split."""
        compile_job(sgd_job(steps=256, checkpoint_period=1))
        compile_job(sgd_job(steps=770, checkpoint_period=3))
        for steps, period in ((257, 1), (514, 2), (771, 3)):
            with pytest.raises(ScheduleInfeasible, match="more than 256 checkpoints"):
                compile_job(sgd_job(steps=steps, checkpoint_period=period))

    def test_refuses_a_loop_the_device_would_not_expand(self):
        """A gradient tile runs 5 phases a step plus 2, so 13,106 steps is
        the most whose program fits the device's 65,535-phase budget."""
        compiled = compile_job(sgd_job(steps=13106, checkpoint_period=13106))
        assert len(TileProgram.unpack(compiled.binaries[4]).phases) == 65532
        with pytest.raises(ScheduleInfeasible, match="tile 4's program expands past 65535 phases"):
            compile_job(sgd_job(steps=13107, checkpoint_period=13107))


# ---------------------------------------------------------------------------
# stream-reduction planning (key rotation)
# ---------------------------------------------------------------------------


class TestSumPlanning:
    def test_seventeen_streams_compile_with_rotation(self):
        compiled = compile_job(sum_job(stream_count=17), bootloader_measurement=BOOTLOADER)
        manifest = compiled.manifest
        manifest.validate()
        inputs = [e for e in manifest.stream_table.values() if e.direction == DIR_IN]
        assert len(inputs) == 18  # 17 data streams plus the code stream
        waves = 5  # ceil(17 / 4 exchange blocks)
        assert len(manifest.schedule) == waves + 3
        assert None not in barriers(manifest)
        assert not saves(manifest)

    def test_contexts_stay_within_the_hardware_budget(self):
        manifest = compile_job(sum_job(stream_count=29), bootloader_measurement=BOOTLOADER).manifest
        used = set()
        for image, _ in manifest.validated_images().values():
            used.update(image.kphysmap)
        assert used and max(used) < NUM_CONTEXTS

    def test_the_128_stream_manifest_states_each_fact_once(self):
        """A stream's frame size, id and owner are not repeated per entry or
        per plan, a plan states neither the streams the host fills nor any
        key context, region or key load, and no plan is stated twice: the
        128-stream manifest is 31,352 bytes and fits in 31,900 (50,112 while
        the first were repeated, 40,273 while plans stated the streams the
        host fills and their key-context maps, 37,444 while they stated
        their contexts, regions and key loads)."""
        manifest = compile_job(sum_job(stream_count=128), bootloader_measurement=BOOTLOADER).manifest
        assert len(manifest.to_bytes()) <= 31_900

    def test_degenerate_sizes(self):
        single = compile_job(sum_job(stream_count=1), bootloader_measurement=BOOTLOADER)
        single.manifest.validate()
        with pytest.raises(ScheduleInfeasible, match="at least one input"):
            compile_job(sum_job(stream_count=0))

    def test_refuses_stream_ids_past_sixteen_bits(self):
        """Tile programs store stream ids as ``<H``: 65,533 inputs take ids 2
        to 65,534 and the output 65,535, so one more input has no id."""
        with pytest.raises(ScheduleInfeasible, match="stream ids past 0xFFFF"):
            compile_job(sum_job(stream_count=65534))

    def test_refuses_a_program_past_the_phase_budget(self, monkeypatch):
        """Tile 0 of a 17-stream job runs 14 phases: 5 loads, 5 wave
        barriers, the sum, the store and 2 closing barriers."""
        monkeypatch.setattr(compiler, "MAX_PHASES", 14)
        compile_job(sum_job(stream_count=17))
        monkeypatch.setattr(compiler, "MAX_PHASES", 13)
        with pytest.raises(ScheduleInfeasible, match="tile 0's program expands past 13 phases"):
            compile_job(sum_job(stream_count=17))


@pytest.mark.parametrize(
    "job",
    [sgd_job(model_receivers=("mallory",)), sum_job(model_receivers=("beta", "beta"))],
    ids=["sgd-a-receiver-who-owns-no-stream", "sum-a-receiver-named-twice"],
)
def test_refuses_a_receiver_list_that_is_not_distinct_stream_owners(job):
    with pytest.raises(InvalidRegisterProgram, match="bad model receivers"):
        compile_job(job, bootloader_measurement=BOOTLOADER)


# ---------------------------------------------------------------------------
# golden: what the compiler emits over a grid of jobs
# ---------------------------------------------------------------------------

SGD_GRID = [
    sgd_job(steps=steps, checkpoint_period=period)
    for steps in (1, 2, 3, 5, 16, 64)
    for period in (1, 2, 5, 64)
] + [sgd_job(steps=4, checkpoint_period=3, lr_num=3, lr_den=32, model_receivers=("beta", "alpha"))]

SUM_GRID = [
    sum_job(stream_count=count, data_parties=parties)
    for count in (1, 2, 3, 4, 5, 8, 13, 16, 17, 29, 64, 100, 128)
    for parties in ((), ("alpha", "beta"), ("alpha", "beta", "gamma"))
]


def test_compiled_jobs_golden():
    """One digest over the manifest measurement, every binary and the
    party -> key-stream map of 128 compiles; a refactor of the compiler must
    leave all of them byte-identical."""
    fold = hashlib.sha256()
    for job in SGD_GRID + SUM_GRID:
        for ipu_id in (0, 3):
            compiled = compile_job(job, bootloader_measurement=BOOTLOADER, ipu_id=ipu_id)
            fold.update(compiled.manifest.measurement().encode())
            for tile_id in sorted(compiled.binaries):
                fold.update(hashlib.sha256(compiled.binaries[tile_id]).digest())
            fold.update(repr(compiled.key_streams).encode())
    assert len(SGD_GRID) + len(SUM_GRID) == 64
    assert fold.hexdigest() == (
        "5834287c2c0cfe1e5b21e1aba6d065e0395bd36160f1c7ee26b5d78539383885"
    )


def test_schedule_expands_to_the_unrolled_barriers():
    """The schedule is lossless: expanding every barrier of the 128 grid
    compiles through ``plan()`` gives, byte for byte, the per-barrier plans
    (with their stream offsets) of the unrolled format it replaced.  Every
    plan serves some barrier, and no plan is stated twice.  A plan no longer
    states the streams the host fills, whether it is frame-serial, or any
    key context, region, key load or invalidation; the expansion puts back
    the first two: the input streams among the offsets, and false, since no
    barrier plan is frame-serial.  The digest was taken from the manifests
    compiled while plans stated their keys, with ``stream_regions``,
    ``ctxmap``, ``ingress_loads``, ``egress_loads`` and ``invalidate``
    deleted from each plan and the expansion's ``kphysmap`` and ``regions``
    left out, since context and region numbers are no longer the
    compiler's; ``test_every_route_is_the_one_the_plans_stated`` pins
    where those keys lead."""
    fold = hashlib.sha256()
    for job in SGD_GRID + SUM_GRID:
        for ipu_id in (0, 3):
            manifest = compile_job(job, bootloader_measurement=BOOTLOADER, ipu_id=ipu_id).manifest
            fold.update(len(manifest.schedule).to_bytes(4, "big"))
            for plan, offsets in barriers(manifest):
                derived = {"fills": filled(manifest, offsets), "frame_serial": False, "stream_offsets": offsets}
                fold.update(canonical_bytes({**jsonable(plan), **derived}))
            assert sorted({index for index, _ in manifest.schedule}) == list(
                range(len(manifest.plans))
            )
            assert len({canonical_bytes(plan) for plan in manifest.plans}) == len(manifest.plans)
    assert fold.hexdigest() == (
        "2fb07672c3003686fd370f55823db2b4272eda2d2d0acae8d0f08e18e7b89442"
    )


def routes(manifest, images, at) -> list:
    """The sorted (exchange block, stream, bank, region start, region end)
    routes of the image derived for barrier or frame-serial phase ``at``."""
    image, loads = images[manifest.keyed(at)]
    streams = {ctx: (sid, bank) for bank, ctx, sid in loads}
    return sorted((ebc, *streams[ctx], start, end) for ebc, (ctx, _, start, end) in image.routes.items())


def test_every_route_is_the_one_the_plans_stated():
    """A key's security meaning is where it leads: over the 128 grid
    compiles, boot, every barrier, and a checkpointing job's save and
    restore route the same exchange blocks to the same streams, banks and
    region extents as when plans stated their contexts, regions and key
    loads; only context and region numbers moved.  The digest was taken
    from the manifests that stated them, over the routes of each stated
    register image, each to the stream and bank its context was loaded
    with (and ``None`` for the save and restore of a job without
    checkpoints)."""
    fold = hashlib.sha256()
    for job in SGD_GRID + SUM_GRID:
        for ipu_id in (0, 3):
            manifest = compile_job(job, bootloader_measurement=BOOTLOADER, ipu_id=ipu_id).manifest
            images = manifest.validated_images()
            phases = [BOOT, *range(len(manifest.schedule))]
            serial = [routes(manifest, images, phase) if saves(manifest) else None for phase in (SAVE, RESTORE)]
            fold.update(canonical_bytes([*(routes(manifest, images, at) for at in phases), *serial]))
    assert fold.hexdigest() == (
        "29417bd804984e7b8f9a1c19a7503a1fe265e571e7d88f257b4e46c914f02dc1"
    )


def expanded_facts(manifest) -> bytes:
    """What the manifest states, expanded: every stream's id, owner,
    direction, kind, length, frame size and extent; every tile's walks; and
    every barrier's moves, fills, offsets and checkpoint flag.  The fills
    and whether a phase is frame-serial are derived: the host fills the
    code stream at boot and the input streams among a barrier's offsets,
    and only boot and a checkpointing job's save and restore are serial."""
    streams = {
        sid: (e.party, e.direction, e.kind, e.plaintext_length, manifest.frame_size, manifest.extent(sid))
        for sid, e in manifest.stream_table.items()
    }
    walks = [
        (l.tile_id, [(b.stream_id, b.buf_off, b.start_index, b.stride, b.block_len) for b in l.bindings])
        for l in manifest.tile_layouts
    ]
    serial = ((), (), {}, False, True)  # a frame-serial phase moves nothing, and the host fills nothing for it
    boot = ((), (manifest.stream_of_kind(CODE),), {}, False, True)
    scheduled = [(plan.moves, filled(manifest, offsets), offsets, plan.checkpoint, False)
                 for plan, offsets in barriers(manifest)]
    extra = [serial if saves(manifest) else None] * 2
    return canonical_bytes([streams, walks, [boot, *scheduled, *extra]])


def test_manifests_expand_to_the_facts_they_stated_twice():
    """Each fact is stated once (a stream's frame size and extent in its
    entry and the job, a barrier's keys derived from the streams of its
    offsets), and the 128 grid compiles expand to the same streams, walks
    and barriers as when the manifest repeated them; the digest was taken
    from the manifests compiled while plans stated their keys, over the
    same expansion less each barrier's register image, key loads and
    invalidations (``test_every_route_is_the_one_the_plans_stated`` pins
    where the keys lead)."""
    fold = hashlib.sha256()
    for job in SGD_GRID + SUM_GRID:
        for ipu_id in (0, 3):
            fold.update(expanded_facts(compile_job(job, bootloader_measurement=BOOTLOADER, ipu_id=ipu_id).manifest))
    assert fold.hexdigest() == (
        "0786119f1d4bd09dc7aa18e3cae03456ea023a99f6fba7d3b5411c9d7307cd40"
    )


def test_binaries_expand_to_the_unrolled_programs():
    """Every tile binary of the 64 grid jobs decodes to the phase tuple the
    device ran when the SGD planner unrolled its steps; the digest was taken
    from the unrolled planner's binaries."""
    fold = hashlib.sha256()
    for job in SGD_GRID + SUM_GRID:
        compiled = compile_job(job, bootloader_measurement=BOOTLOADER)
        for tile_id in sorted(compiled.binaries):
            fold.update(repr(TileProgram.unpack(compiled.binaries[tile_id]).phases).encode())
    assert fold.hexdigest() == (
        "7e78fa649d03182c3904138c9da05a0cda3eccd98c7681c4d9846ea3eeea1c1b"
    )


def test_the_ring_map_fits_the_compiled_regions():
    """Over the grid, where a job checkpoints, each tile's checkpoint frames
    lie inside the region its save and restore phases key, and no two
    tiles' frames overlap."""
    for job in SGD_GRID + SUM_GRID:
        manifest = compile_job(job, bootloader_measurement=BOOTLOADER).manifest
        layouts = manifest.tile_layouts
        if not saves(manifest):
            continue
        sid, size = manifest.stream_of_kind(CHECKPOINT), manifest.frame_size
        slots = manifest.checkpoint_addresses()
        assert sorted(slots) == [layout.tile_id for layout in layouts] == list(range(16))
        frames = sorted(address for addresses in slots.values() for address in addresses)
        assert len(frames) >= len(layouts)
        assert all(b - a >= size for a, b in zip(frames, frames[1:]))
        images = manifest.validated_images()
        for phase in (SAVE, RESTORE):
            image, loads = images[manifest.keyed(phase)]
            ((_, ctx, keyed),) = loads
            region = image.ksellimit[image.kphysmap[ctx]]
            assert keyed == sid and (region.start, region.end) == manifest.extent(sid)
            assert region.start <= frames[0] and frames[-1] + size <= region.end


def test_manifests_lost_only_the_checkpoint_record_fields():
    """The device writes no cleartext checkpoint record, so the manifest
    places none, and there is one device geometry, so the manifest states
    none: every grid manifest is, field for field, the one compiled when it
    did, less the two fields (the records' base address and slot size) that
    placed the records and the ``device_config`` field, and with the
    one-entry ``binary_hashes`` map, keyed by the manifest's ``ipu_id``, as
    the one ``binary_hash`` string.  Nor does a plan state what is derived
    from its other fields (the streams the host fills, its key-context map,
    whether it is frame-serial), and the one-key ``stream_assignment`` map
    is the ``model_receivers`` list it held.  No field states a key either.
    The digest was taken from the manifests compiled while plans stated
    their keys, with ``boot_plan``, ``checkpoint_plan`` and
    ``restore_plan`` deleted, ``stream_regions``, ``ctxmap``,
    ``ingress_loads``, ``egress_loads`` and ``invalidate`` deleted from
    each plan, and the plans that were then equal merged into one, listed
    in the order the schedule first uses them; it was not computed from
    this compiler."""
    fold = hashlib.sha256()
    for job in SGD_GRID + SUM_GRID:
        for ipu_id in (0, 3):
            fold.update(compile_job(job, bootloader_measurement=BOOTLOADER, ipu_id=ipu_id).manifest.to_bytes())
    assert fold.hexdigest() == (
        "2f9fe53f7f8f5a83719ffb8bfe8d975a798192494d2fa95893814e1f29747c56"
    )
