"""Device model: host access gates, tile programs, resets, ring buffer."""

import hashlib
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itx.attestation import trusted_registers_digest
from itx.compiler import JobDescription, compile_job
from itx.device import (
    BOOT_RESERVED,
    ComputePhase,
    IpuDevice,
    LoadPhase,
    LoopPhase,
    MAX_PHASES,
    MODE_NORMAL,
    MODE_TRUSTED,
    OP_SGD_STEP,
    OP_SUM,
    PHASE_LOOP,
    PHASE_SYNC,
    RingBuffer,
    StorePhase,
    SyncPhase,
    TILE_COUNT,
    TILE_MEMORY,
    TileProgram,
)
from itx.errors import (
    AccessDenied,
    ImageTooLarge,
    IndexOutOfRange,
    InvalidPhase,
    KeyNotLoaded,
    SecurityException,
)
from itx.frame_codec import IV_BYTES, StreamIV, StreamType
from itx.manifest import BOOT, RESTORE, SAVE


def device() -> IpuDevice:
    return IpuDevice(ipu_id=0)


# ---------------------------------------------------------------------------
# host access control
# ---------------------------------------------------------------------------


class TestHostAccess:
    def test_normal_mode_is_open(self):
        dev = device()
        dev.host_write_register("hsp_period", 1234)
        assert dev.host_read_register("hsp_period") == 1234
        dev.host_write_tile(3, 0x2000, b"abc")
        assert dev.host_read_tile(3, 0x2000, 3) == b"abc"
        dev.host_autoload(b"boot image")

    def test_trusted_mode_denies_every_host_surface(self):
        dev = device()
        seen = []
        dev.on_security = seen.append
        dev.enter_trusted_mode()
        with pytest.raises(AccessDenied):
            dev.host_read_register("hsp_period")
        with pytest.raises(AccessDenied):
            dev.host_write_register("hsp_period", 0)
        with pytest.raises(AccessDenied):
            dev.host_read_tile(0, 0, 4)
        with pytest.raises(AccessDenied):
            dev.host_write_tile(0, 0, b"x")
        with pytest.raises(AccessDenied):
            dev.host_autoload(b"evil")
        # every denied attempt was reported upstream, none silently dropped
        assert len(seen) == 5
        assert all("trusted mode" in reason for reason in seen)

    def test_ring_buffer_stays_host_accessible(self):
        # The ring is host memory; trusted mode protects the device, not it.
        dev = device()
        dev.enter_trusted_mode()
        dev.ring_buffer.write(0x100, b"ciphertext")
        assert dev.ring_buffer.read(0x100, 10) == b"ciphertext"

    def test_host_reset_always_works_and_ends_trusted_mode(self):
        dev = device()
        dev.enter_trusted_mode()
        dev.host_reset("sbr")
        assert dev.mode == MODE_NORMAL
        assert dev.registers["trusted_mode"] == 0

    def test_unknown_register_rejected(self):
        with pytest.raises(IndexOutOfRange, match="unknown device register undocumented"):
            device().host_write_register("undocumented", 1)
        with pytest.raises(IndexOutOfRange, match="unknown device register undocumented"):
            device().host_read_register("undocumented")

    @pytest.mark.parametrize(
        "tile_id, offset, length",
        [(3, TILE_MEMORY + 100, 4), (3, TILE_MEMORY - 2, 4), (0, -8, 8), (0, 0, -8), (-1, 0, 4), (TILE_COUNT, 0, 4)],
        ids=["past-the-end", "across-the-end", "negative-offset", "negative-length", "tile-minus-1", "tile-16"],
    )
    def test_tile_accessors_stay_inside_a_tile(self, tile_id, offset, length):
        dev = device()
        with pytest.raises(IndexOutOfRange, match=f"tile {tile_id} "):
            dev.host_read_tile(tile_id, offset, length)
        if length >= 0:  # a write's length is its blob's
            with pytest.raises(IndexOutOfRange, match=f"tile {tile_id} "):
                dev.host_write_tile(tile_id, offset, b"grow"[:length])
        assert all(len(tile.memory) == TILE_MEMORY and not any(tile.memory) for tile in dev.tiles)

    def test_tile_accessors_reach_every_byte_of_a_tile(self):
        dev = device()
        dev.host_write_tile(TILE_COUNT - 1, TILE_MEMORY - 4, b"last")
        assert dev.host_read_tile(TILE_COUNT - 1, TILE_MEMORY - 4, 4) == b"last"
        assert dev.host_read_tile(0, TILE_MEMORY, 0) == b""

    def test_trusted_mode_cannot_be_entered_twice(self):
        dev = device()
        dev.enter_trusted_mode()
        with pytest.raises(InvalidPhase):
            dev.enter_trusted_mode()


class TestRegisterMeasurement:
    def test_trusted_digest_matches_untampered_device(self):
        dev = device()
        dev.enter_trusted_mode()
        assert dev.registers_digest() == trusted_registers_digest()

    def test_pre_init_tamper_changes_the_digest(self):
        dev = device()
        dev.host_write_register("hsp_period", 7)  # normal mode: allowed
        dev.enter_trusted_mode()
        assert dev.registers_digest() != trusted_registers_digest()

    def test_digest_covers_every_register(self):
        dev = device()
        dev.enter_trusted_mode()
        baseline = dev.registers_digest()
        for name in dev.registers:
            saved = dev.registers[name]
            dev.registers[name] = saved + 1
            assert dev.registers_digest() != baseline, name
            dev.registers[name] = saved


# ---------------------------------------------------------------------------
# tile programs
# ---------------------------------------------------------------------------


class TestTileProgram:
    def test_round_trip(self):
        program = TileProgram(
            phases=(
                LoadPhase(stream_id=2, frames=3),
                ComputePhase(OP_SGD_STEP, (0x100, 16, 0x200, 0x300, 48)),
                SyncPhase(5),
                ComputePhase(OP_SUM, (0x100, 0x200, 24)),
                StorePhase(stream_id=6, frames=1),
                ComputePhase(OP_SGD_STEP, (1, 16, 0x100, 0x200, 12)),
            )
        )
        assert TileProgram.unpack(program.pack()) == program

    def test_random_round_trips(self):
        rng = random.Random(11)
        ops = (OP_SUM, OP_SGD_STEP)
        for _ in range(100):
            phases = []
            for _ in range(rng.randrange(1, 12)):
                kind = rng.randrange(4)
                if kind == 0:
                    phases.append(LoadPhase(rng.randrange(1, 100), rng.randrange(1, 50)))
                elif kind == 1:
                    phases.append(StorePhase(rng.randrange(1, 100), rng.randrange(1, 50)))
                elif kind == 2:
                    op = rng.choice(ops)
                    if op == OP_SUM:
                        args = tuple(rng.randrange(0, 1 << 12) for _ in range(3))
                    else:
                        args = (rng.randrange(1, 9), rng.randrange(1, 64),
                                rng.randrange(0, 1 << 12), rng.randrange(0, 1 << 12),
                                rng.randrange(1, 256))
                    phases.append(ComputePhase(op, args))
                else:
                    phases.append(SyncPhase(rng.randrange(0, 20)))
            program = TileProgram(tuple(phases))
            assert TileProgram.unpack(program.pack()) == program

    def test_malformed_blobs_rejected(self):
        good = TileProgram((SyncPhase(1),)).pack()
        with pytest.raises(ValueError):
            TileProgram.unpack(b"XX" + good[2:])  # wrong magic
        with pytest.raises(ValueError):
            TileProgram.unpack(good + b"\x00")  # trailing bytes
        bad_op = bytearray(TileProgram((ComputePhase(OP_SUM, (0, 0, 0)),)).pack())
        bad_op[6] = 99  # the opcode byte: magic(3) + count(2) + kind(1)
        with pytest.raises(ValueError):
            TileProgram.unpack(bytes(bad_op))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=48))
    def test_any_blob_with_the_magic_decodes_or_raises_value_error(self, tail):
        try:
            TileProgram.unpack(b"TP\x01" + tail)
        except ValueError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0, 0, 0, -1, 1]),
        st.lists(
            st.one_of(
                st.builds(
                    lambda times, length, stride: struct.pack("<BHHI", PHASE_LOOP, times, length, stride),
                    st.one_of(st.integers(0, 4), st.just(0xFFFF)),
                    st.integers(0, 6),
                    st.one_of(st.integers(0, 4), st.just(0xFFFFFFFF)),
                ),
                st.builds(lambda sid: struct.pack("<BI", PHASE_SYNC, sid), st.integers(0, 0xFFFFFFFF)),
                st.sampled_from([p[5:] for p in (
                    TileProgram((LoadPhase(2, 1),)).pack(),
                    TileProgram((StorePhase(6, 2),)).pack(),
                    TileProgram((ComputePhase(OP_SGD_STEP, (1, 16, 0x100, 0x200, 12)),)).pack(),
                )]),
            ),
            max_size=12,
        ),
    )
    def test_any_blob_with_loops_decodes_flat_or_raises_value_error(self, miscount, parts):
        count = max(0, len(parts) + miscount)
        blob = b"TP\x01" + struct.pack("<H", count) + b"".join(parts)
        try:
            phases = TileProgram.unpack(blob).phases
        except ValueError:
            return
        assert len(phases) <= MAX_PHASES
        assert not any(isinstance(ph, LoopPhase) for ph in phases)

    def test_a_loop_expands_to_the_unrolled_program(self):
        compute = ComputePhase(OP_SGD_STEP, (1, 16, 0x100, 0x200, 12))
        body = (LoadPhase(3, 2), SyncPhase(2), compute, SyncPhase(3))
        looped = TileProgram((SyncPhase(1), LoopPhase(3, 4, 2), *body, SyncPhase(8))).pack()
        unrolled = (
            SyncPhase(1),
            LoadPhase(3, 2), SyncPhase(2), compute, SyncPhase(3),
            LoadPhase(3, 2), SyncPhase(4), compute, SyncPhase(5),
            LoadPhase(3, 2), SyncPhase(6), compute, SyncPhase(7),
            SyncPhase(8),
        )
        phases = TileProgram.unpack(looped).phases
        assert phases == unrolled
        assert TileProgram.unpack(TileProgram(unrolled).pack()).phases == unrolled
        # Passes share the body's loads and computes.
        assert phases[1] is phases[5] is phases[9] and phases[3] is phases[7] is phases[11]

    @settings(max_examples=200, deadline=None)
    @given(
        times=st.integers(1, 70),
        stride=st.one_of(st.just(0), st.integers(1, 8), st.integers(0xFFFFFFFF - 8, 0xFFFFFFFF)),
        body=st.lists(
            st.one_of(
                st.builds(SyncPhase, st.one_of(st.integers(0, 64), st.integers(0xFFFFFFFF - 64, 0xFFFFFFFF))),
                st.builds(LoadPhase, st.integers(0, 7), st.integers(1, 4)),
                st.builds(StorePhase, st.integers(0, 7), st.integers(1, 4)),
                st.builds(ComputePhase, st.just(OP_SUM), st.tuples(st.just(0x100), st.integers(1, 4), st.just(0))),
                st.builds(  # one weight range, gradients outside it: bodies hold chains too
                    lambda num, den, g: ComputePhase(OP_SGD_STEP, (num, den, 0x100, g, 4)),
                    st.integers(-3, 3), st.integers(1, 4), st.sampled_from([0x200, 0x300]),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @example(times=2, stride=0xFFFFFFFF, body=[LoadPhase(1, 1)])
    @example(times=70, stride=0, body=[SyncPhase(0xFFFFFFFF), SyncPhase(0)])
    def test_a_drawn_loop_expands_as_the_reference_unroller_does(self, times, stride, body):
        before, after = (SyncPhase(1), LoadPhase(2, 1)), (StorePhase(6, 1), SyncPhase(9))
        blob = TileProgram((*before, LoopPhase(times, len(body), stride), *body, *after)).pack()
        passes = [
            SyncPhase(ph.sync_id + p * stride) if isinstance(ph, SyncPhase) else ph
            for p in range(times)
            for ph in body
        ]
        if any(isinstance(ph, SyncPhase) and ph.sync_id > 0xFFFFFFFF for ph in passes):
            with pytest.raises(ValueError, match="past 32 bits"):
                TileProgram.unpack(blob)
            return
        phases = TileProgram.unpack(blob).phases
        assert phases == (*before, *passes, *after)
        start = len(before)
        for i, ph in enumerate(phases[start : start + len(body)]):
            if not isinstance(ph, SyncPhase):  # every pass shares the body's phase object
                assert all(phases[start + p * len(body) + i] is ph for p in range(times))

    @pytest.mark.parametrize(
        "phases, error",
        [
            ((LoopPhase(2, 3, 1), SyncPhase(1), LoopPhase(2, 1, 1), SyncPhase(2)), "nested loop"),
            ((SyncPhase(1), LoopPhase(2, 2, 1), SyncPhase(2)), "past the end"),
            ((LoopPhase(0, 1, 1), SyncPhase(1)), "empty loop"),
            ((LoopPhase(2, 0, 1), SyncPhase(1)), "empty loop"),
            ((LoopPhase(2, 1, 1),), "past the end"),
            ((LoopPhase(3, 1, 1 << 31), SyncPhase(1)), "past 32 bits"),
            ((LoopPhase(3, 1, 1), *[SyncPhase(1)] * (MAX_PHASES - 1)), "past 65535 phases"),
        ],
        ids=["nested", "body-past-end", "zero-times", "zero-length", "header-last",
             "sync-id-overflow", "plain-phases-after-the-loop-over-budget"],
    )
    def test_malformed_loops_rejected(self, phases, error):
        with pytest.raises(ValueError, match=error):
            TileProgram.unpack(TileProgram(phases).pack())

    def test_an_over_budget_loop_is_refused_before_its_body_is_read(self):
        """The refusal comes from the loop header: the two body phases that
        follow it are not even decodable."""
        header = struct.pack("<H", 3) + struct.pack("<BHHI", PHASE_LOOP, 0xFFFF, 2, 1)
        with pytest.raises(ValueError, match=f"past {MAX_PHASES} phases"):
            TileProgram.unpack(b"TP\x01" + header + b"\x99\x99")
        fits = TileProgram((LoopPhase(0xFFFF, 1, 0), SyncPhase(1))).pack()
        assert len(TileProgram.unpack(fits).phases) == MAX_PHASES

    def test_every_truncation_and_wrong_arity_is_rejected(self):
        blob = TileProgram((LoadPhase(2, 1), ComputePhase(OP_SUM, (0, 4, 8)), SyncPhase(1))).pack()
        for n in range(len(blob)):
            with pytest.raises(ValueError):
                TileProgram.unpack(blob[:n])
        short = TileProgram((ComputePhase(OP_SGD_STEP, (1, 2)),)).pack()
        with pytest.raises(ValueError, match="2 arguments"):
            TileProgram.unpack(short)

    def test_op_1_is_no_longer_an_op(self):
        """Op 1 (axpy) is gone; the two ops left keep their numbers."""
        blob = TileProgram((ComputePhase(1, (1, 16, 0x100, 0x200, 12)),)).pack()
        with pytest.raises(ValueError, match="unknown compute op 1"):
            TileProgram.unpack(blob)

    def test_zero_step_denominator_rejected(self):
        blob = TileProgram((ComputePhase(OP_SGD_STEP, (1, 1, 0, 0, 4)),)).pack()
        # args start after magic(3)+count(2)+kind(1)+op(1)+argc(1); the
        # denominator is the second 4-byte argument
        poisoned = blob[:12] + (0).to_bytes(4, "little", signed=True) + blob[16:]
        with pytest.raises(ValueError, match="denominator"):
            TileProgram.unpack(poisoned)


# ---------------------------------------------------------------------------
# compute kernels at their edges
# ---------------------------------------------------------------------------

I32_MIN, I32_MAX = -(1 << 31), (1 << 31) - 1
EXTREMES = (I32_MIN, I32_MAX, -1, 0)
int32s = st.integers(I32_MIN, I32_MAX)


def wrap32(v: int) -> int:
    return (v + (1 << 31)) % (1 << 32) - (1 << 31)


def run_one_op(op: int, args: tuple[int, ...], writes: dict[int, list[int]], read: tuple[int, int]) -> list[int]:
    """Run a one-phase program on tile 0 over ``writes`` (offset -> ints) and
    return the ``read[1]`` ints at offset ``read[0]``."""
    dev = IpuDevice()
    for off, ints in writes.items():
        dev.host_write_tile(0, off, struct.pack(f"<{len(ints)}i", *ints))
    dev.tiles[0].program = TileProgram.unpack(TileProgram((ComputePhase(op, args),)).pack())
    assert dev.run_interval() is None
    off, count = read
    return list(struct.unpack(f"<{count}i", dev.host_read_tile(0, off, 4 * count)))


def sgd_step(num: int, den: int, ws, gs) -> list[int]:
    n = len(ws)
    return run_one_op(OP_SGD_STEP, (num, den, 0x2000, 0x2400, n), {0x2000: ws, 0x2400: gs}, (0x2000, n))


def op_sum(ints) -> int:
    (total,) = run_one_op(OP_SUM, (0x2000, len(ints), 0x2800), {0x2000: ints}, (0x2800, 1))
    return total


class TestComputeKernels:
    """Each kernel against its formula, written out here: an SGD step is
    ``wrap32(w - (num * g) // den)`` with floor division, a sum is
    ``wrap32(sum)``."""

    def test_sgd_step_floors_and_wraps(self):
        assert sgd_step(1, 16, [0, 0, 0, 0], [-1, 1, -16, -17]) == [1, 0, 1, 2]
        assert sgd_step(1, 1, [I32_MIN, I32_MAX], [1, -1]) == [I32_MAX, I32_MIN]
        assert sgd_step(-3, 2, [0], [1]) == [2]  # -3 // 2 == -2

    @pytest.mark.parametrize(
        "num, den", [(1, 16), (1, 1), (I32_MAX, 1), (I32_MIN, 1), (-1, 3), (7, I32_MAX), (I32_MIN, I32_MAX)]
    )
    def test_sgd_step_over_int32_extremes(self, num, den):
        pairs = [(w, g) for w in EXTREMES for g in EXTREMES]
        ws, gs = zip(*pairs)
        assert sgd_step(num, den, ws, gs) == [wrap32(w - (num * g) // den) for w, g in pairs]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(int32s, int32s), max_size=48), int32s, st.integers(1, I32_MAX))
    def test_sgd_step_over_drawn_values(self, pairs, num, den):
        ws, gs = [w for w, _ in pairs], [g for _, g in pairs]
        assert sgd_step(num, den, ws, gs) == [wrap32(w - (num * g) // den) for w, g in pairs]

    def test_sum_over_int32_extremes(self):
        assert op_sum([I32_MAX, 1]) == I32_MIN
        assert op_sum([I32_MIN, -1]) == I32_MAX
        assert op_sum([I32_MAX] * 3) == I32_MAX - 2
        assert op_sum(list(EXTREMES) * 4) == wrap32(4 * sum(EXTREMES))
        assert op_sum([]) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(int32s, max_size=64))
    def test_sum_over_drawn_values(self, ints):
        assert op_sum(ints) == wrap32(sum(ints))


# ---------------------------------------------------------------------------
# the interval interpreter against a per-phase reference
# ---------------------------------------------------------------------------


class UnscheduledDevice(IpuDevice):
    """Parks at every barrier with no manifest, window or move: an interval
    is only its tiles' phases."""

    def _park(self, sync_id):
        self.barrier = sync_id


def reference_interval(memory: bytearray, phases, pc: int):
    """One tile's interval phase by phase, as a plain loop: every SGD result
    masked to an unsigned word.  Returns (sync id or None, pc)."""
    while pc < len(phases):
        ph = phases[pc]
        if isinstance(ph, SyncPhase):
            return ph.sync_id, pc + 1
        if ph.op == OP_SUM:
            src, count, dst = ph.args
            struct.pack_into("<I", memory, dst, sum(struct.unpack_from(f"<{count}i", memory, src)) & 0xFFFFFFFF)
        else:
            num, den, w_off, g_off, count = ph.args
            gs = struct.unpack_from(f"<{count}i", memory, g_off)
            ws = struct.unpack_from(f"<{count}i", memory, w_off)
            out = [(w - num * g // den) & 0xFFFFFFFF for w, g in zip(ws, gs)]
            struct.pack_into(f"<{count}I", memory, w_off, *out)
        pc += 1
    return None, pc


ARENA, ARENA_BYTES = 0x2000, 96  # every operand lands here, so operands alias


@st.composite
def operand(draw, words: int) -> int:
    """A byte offset, aligned or not, of ``words`` words inside the arena."""
    return ARENA + draw(st.integers(0, ARENA_BYTES - 4 * words))


@st.composite
def interval_phase(draw):
    kind = draw(st.sampled_from(("sgd", "sum", "sync")))
    if kind == "sync":
        return SyncPhase(draw(st.integers(0, 7)))
    count = draw(st.integers(0, 8))
    if kind == "sum":
        return ComputePhase(OP_SUM, (draw(operand(count)), count, draw(operand(1))))
    num, den = draw(int32s), draw(st.integers(1, I32_MAX))
    return ComputePhase(OP_SGD_STEP, (num, den, draw(operand(count)), draw(operand(count)), count))


class TestIntervalInterpreter:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(interval_phase(), max_size=12),
        st.lists(int32s, min_size=ARENA_BYTES // 4, max_size=ARENA_BYTES // 4),
    )
    def test_every_interval_matches_the_per_phase_reference(self, phases, ints):
        program = TileProgram.unpack(TileProgram(tuple(phases)).pack())
        memory = bytearray(TILE_MEMORY)
        struct.pack_into(f"<{len(ints)}i", memory, ARENA, *ints)
        dev = UnscheduledDevice()
        for tile in dev.tiles:
            tile.memory[:], tile.program = memory, program
        pc = 0
        while True:
            sync_id, pc = reference_interval(memory, program.phases, pc)
            assert dev.run_interval() == sync_id
            assert all(tile.pc == pc and tile.memory == memory for tile in dev.tiles)
            if sync_id is None:
                break

    def test_a_raising_phase_leaves_the_pc_at_it(self):
        phases = (ComputePhase(OP_SUM, (0, 0, 0)), SyncPhase(1), LoadPhase(9, 1))
        dev = UnscheduledDevice()
        for tile in dev.tiles:
            tile.program = TileProgram(phases)
        assert dev.run_interval() == 1
        assert dev.tiles[0].pc == 2
        with pytest.raises(SecurityException, match="no binding for stream 9"):
            dev.run_interval()
        assert dev.tiles[0].pc == 2


# ---------------------------------------------------------------------------
# SGD chains: consecutive steps on one weight range run as one pass
# ---------------------------------------------------------------------------


@st.composite
def chained_program(draw):
    """Phases with runs of 1-4 SGD steps on one or two shared weight ranges in
    the arena's lower half, each gradient anywhere in the arena or in its
    upper half, outside the weights; mixed with the interval phases above and
    with loops whose bodies hold the same."""
    half = ARENA_BYTES // 2
    counts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    ranges = [(ARENA + draw(st.integers(0, half - 4 * c)), c) for c in counts]

    def sgd_run(draw):
        w_off, count = draw(st.sampled_from(ranges))
        gradient = st.one_of(operand(count), st.integers(ARENA + half, ARENA + ARENA_BYTES - 4 * count))
        return [
            ComputePhase(OP_SGD_STEP, (draw(int32s), draw(st.integers(1, I32_MAX)), w_off, draw(gradient), count))
            for _ in range(draw(st.integers(1, 4)))
        ]

    def plain(draw):
        return sgd_run(draw) if draw(st.integers(0, 2)) else [draw(interval_phase())]

    phases = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 2)):
            phases += plain(draw)
        else:
            body = [ph for _ in range(draw(st.integers(1, 3))) for ph in plain(draw)]
            phases += [LoopPhase(draw(st.integers(1, 3)), len(body), draw(st.integers(0, 3))), *body]
    return phases


class TestSgdChains:
    def test_chains_stop_at_a_gradient_in_the_weights_and_at_loop_boundaries(self):
        def sgd(w_off, g_off):
            return ComputePhase(OP_SGD_STEP, (1, 16, w_off, g_off, 4))

        def heads(phases):
            """pc -> phase of every chain head in the unpacked program."""
            return {pc: ph for pc, ph in enumerate(TileProgram.unpack(TileProgram(phases).pack()).phases)
                    if isinstance(ph, ComputePhase) and ph.steps}

        assert {pc: ph.steps for pc, ph in heads((sgd(0x100, 0x100), sgd(0x100, 0x200))).items()} == {
            0: ((1, 16, 0x100, 0x100, 4), (1, 16, 0x100, 0x200, 4))
        }
        assert heads((sgd(0x100, 0x200), sgd(0x100, 0x10C))) == {}
        assert heads((sgd(0x100, 0x200), sgd(0x104, 0x300))) == {}
        looped = heads((sgd(0x100, 0x200), LoopPhase(3, 2, 0), sgd(0x100, 0x300), sgd(0x100, 0x400), sgd(0x100, 0x500)))
        assert sorted(looped) == [1, 3, 5]
        assert looped[1] is looped[3] is looped[5]  # one chain per body, shared by every pass

    @settings(max_examples=60, deadline=None)
    @given(chained_program(), st.lists(int32s, min_size=ARENA_BYTES // 4, max_size=ARENA_BYTES // 4))
    @example(  # a loop's last step, then a step on the same weights: two passes, two chains of one
        [LoopPhase(2, 1, 0), *(ComputePhase(OP_SGD_STEP, (1, 1, ARENA, g, 4)) for g in (ARENA + 48, ARENA + 64))],
        list(range(ARENA_BYTES // 4)),
    )
    def test_every_entry_pc_matches_the_per_phase_reference(self, phases, ints):
        program = TileProgram.unpack(TileProgram(tuple(phases)).pack())
        start = bytearray(TILE_MEMORY)
        struct.pack_into(f"<{len(ints)}i", start, ARENA, *ints)
        dev = UnscheduledDevice()
        dev.tiles = dev.tiles[:1]  # one tile: the entry pc is the case drawn
        tile = dev.tiles[0]
        for entry in range(len(program.phases)):  # each pc after a sync is an entry too
            memory = bytearray(start)
            tile.memory[:], tile.program, tile.pc = start, program, entry
            sync_id, pc = reference_interval(memory, program.phases, entry)
            assert dev.run_interval() == sync_id
            assert tile.pc == pc and tile.memory == memory


class TestInternalExchange:
    """A barrier's moves read every source as it stood before the barrier."""

    def test_a_two_tile_swap(self):
        dev = device()
        dev.host_write_tile(0, 0x2000, b"tile 0's")
        dev.host_write_tile(1, 0x2000, b"tile 1's")
        dev.apply_moves(((0, 0x2000, 1, 0x2000, 8), (1, 0x2000, 0, 0x2000, 8)))
        assert dev.host_read_tile(0, 0x2000, 8) == b"tile 1's"
        assert dev.host_read_tile(1, 0x2000, 8) == b"tile 0's"

    def test_a_chain_reads_sources_before_earlier_moves_land(self):
        dev = device()
        dev.host_write_tile(0, 0x2000, b"A" * 16)
        dev.host_write_tile(1, 0x3000, b"B" * 16)
        # the first move lands on [0x3008, 0x3018) of tile 1; the second reads [0x3000, 0x3010)
        dev.apply_moves(((0, 0x2000, 1, 0x3008, 16), (1, 0x3000, 2, 0x4000, 16)))
        assert dev.host_read_tile(1, 0x3000, 24) == b"B" * 8 + b"A" * 16
        assert dev.host_read_tile(2, 0x4000, 16) == b"B" * 16


# ---------------------------------------------------------------------------
# memory safety and resets
# ---------------------------------------------------------------------------


class TestMemoryAndReset:
    def test_ring_buffer_bounds(self):
        ring = RingBuffer(0x1000)
        ring.write(0xFF0, b"0123456789abcdef")
        with pytest.raises(IndexOutOfRange):
            ring.write(0xFF8, b"0123456789abcdef")
        with pytest.raises(IndexOutOfRange):
            ring.read(0xFFF, 2)

    def test_autoload_image_size_limit(self):
        dev = device()
        dev.autoload(b"\xaa" * BOOT_RESERVED)
        with pytest.raises(ImageTooLarge):
            dev.autoload(b"\xaa" * (BOOT_RESERVED + 1))

    def test_scrub_zeroizes_every_tile(self):
        dev = device()
        for tile in dev.tiles:
            tile.memory[100:108] = b"secret!!"
        dev.scrub()
        assert all(not any(t.memory) for t in dev.tiles)

    def test_tile_scrub_zeroes_memory_in_place(self):
        tile = device().tiles[0]
        memory = tile.memory
        size = len(memory)
        memory[:] = b"\xff" * size
        tile.scrub()
        assert tile.memory is memory
        assert len(memory) == size
        assert memory == bytes(size)

    def test_reset_scrubs_and_clears_engines(self):
        dev = device()
        dev.host_write_tile(0, 0x3000, b"leftover")
        dev.enter_trusted_mode()
        dev.reset("sbr")
        assert dev.mode == MODE_NORMAL
        assert not any(dev.tiles[0].memory)
        assert dev.egress.registers is None and dev.ingress.registers is None
        with pytest.raises(ValueError):
            dev.reset("warm")  # only the documented reset flavors exist

    def test_reset_notifies_attached_control_unit(self):
        dev = device()
        calls = []
        dev.on_reset = lambda: calls.append(True)
        dev.reset("newmanry")
        assert calls == [True]


# ---------------------------------------------------------------------------
# DMA datapath
# ---------------------------------------------------------------------------


class TestDmaPath:
    def test_read_through_unkeyed_context_reaches_control_unit(self):
        job = JobDescription(kind="sgd", model_party="modelco", data_parties=("alpha", "beta"))
        manifest = compile_job(
            job, bootloader_measurement=hashlib.sha256(b"tile bootloader").hexdigest()
        ).manifest
        dev = device()
        seen = []
        dev.on_security = seen.append
        dev.install_boot_params(manifest, epoch=0, checkpoint_id=0)
        image, _ = manifest.validated_images()[manifest.keyed(BOOT)]
        dev.program_registers(image)  # registers only; no key is loaded
        with pytest.raises(KeyNotLoaded):
            dev.run_bootloader(0)
        assert dev.ingress.latched
        assert len(seen) == 1 and "no key" in seen[0]

    def test_operands_outside_tile_memory_rejected(self):
        fits = ComputePhase(OP_SGD_STEP, (1, 16, 0, 0x10000 - 48, 12))
        assert TileProgram.unpack(TileProgram((fits,)).pack()).phases == (fits,)
        for args in ((1, 16, 70000, 0, 12), (1, 16, 0, 0x10000 - 44, 12), (1, 16, -4, 0, 1)):
            blob = TileProgram((ComputePhase(OP_SGD_STEP, args),)).pack()
            with pytest.raises(ValueError, match="outside tile memory"):
                TileProgram.unpack(blob)
        blob = TileProgram((ComputePhase(OP_SUM, (0, 4, 0x10000 - 2)),)).pack()
        with pytest.raises(ValueError, match="outside tile memory"):
            TileProgram.unpack(blob)

    def test_a_checkpoint_frame_iv_carries_the_tiles_current_counters(self):
        """Every checkpoint frame a tile writes carries its (epoch, checkpoint
        id) as they stand: after a save bumps the id, after the start bumps
        the epoch, and after a restore bumps both."""
        job = JobDescription(kind="sgd", model_party="modelco", data_parties=("alpha", "beta"), steps=2)
        compiled = compile_job(job, bootloader_measurement=hashlib.sha256(b"tile bootloader").hexdigest())
        manifest, key = compiled.manifest, bytes(range(32))
        dev = device()
        dev.install_boot_params(manifest, epoch=0, checkpoint_id=0)
        for tile in dev.tiles:
            tile.program = TileProgram.unpack(compiled.binaries[tile.tile_id])
            tile.pc = next(i for i, ph in enumerate(tile.program.phases) if isinstance(ph, SyncPhase)) + 1

        images = manifest.validated_images()

        def keyed(phase):
            image, loads = images[manifest.keyed(phase)]
            dev.program_registers(image)
            for bank, ctx, _ in loads:
                getattr(dev, bank).load_key(ctx, key)

        def assert_saves_under(epoch, checkpoint_id):
            """Save a checkpoint now: every frame carries ``(epoch, checkpoint_id)``."""
            assert dev.checkpoint_save() == (epoch, checkpoint_id)
            slots = manifest.checkpoint_addresses()
            found = [dev.ring_buffer.read(a, IV_BYTES) for t in sorted(slots) for a in slots[t]]
            assert found == [
                StreamIV(StreamType.CHECKPOINT, tile_id=t, epoch=epoch, checkpoint_id=checkpoint_id, frame_index=f).to_bytes()
                for t in sorted(slots) for f in range(len(slots[t]))
            ]

        keyed(SAVE)
        assert_saves_under(0, 0)
        assert_saves_under(0, 1)  # the first save bumped the id
        dev.start_application()
        assert_saves_under(1, 2)  # the start bumped the epoch
        dev.install_boot_params(manifest, epoch=1, checkpoint_id=2)  # a resume seeds the saved counters
        keyed(RESTORE)
        dev.checkpoint_restore()
        keyed(SAVE)
        assert_saves_under(2, 3)  # the restore bumped both
