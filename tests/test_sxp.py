"""Exchange-pipe engine: contexts, key selection, packet crypto, latching."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcm_oracle
from itx import frame_codec as fc
from itx import sxp
from itx.errors import (
    ContextBusy,
    FrameInterleavingViolation,
    IndexOutOfRange,
    InvalidRegisterProgram,
    KeyNotLoaded,
    SecurityException,
)
from itx.frame_codec import StreamIV, StreamType
from itx.sandbox import make_sgd_fixture
from itx.sxp import (
    NUM_CONTEXTS,
    AddressRegion,
    ExchangePacket,
    PacketKind,
    PendingReadTable,
    SxpEngine,
    SxpRegisters,
)

CLEAR = AddressRegion(0x0000, 0x1000)
REGION_A = AddressRegion(0x1000, 0x2000)
REGION_B = AddressRegion(0x2000, 0x3000)


def engine() -> SxpEngine:
    eng = SxpEngine()
    eng.program_registers(
        SxpRegisters(
            kxbctxmap={0: 3, 1: 7},
            ksellimit={0: CLEAR, 1: REGION_A, 2: REGION_B},
            kphysmap={3: 1, 7: 2},
        )
    )
    return eng


def write_packets(frame_plain: bytes, src_tile: int, base_addr: int, step: int = 64):
    packets = []
    for off in range(0, len(frame_plain), step):
        packets.append(
            ExchangePacket(
                PacketKind.WRITE_REQUEST,
                src_tile=src_tile,
                address=base_addr + off,
                payload=frame_plain[off : off + step],
                aes=True,
                cc=off + step >= len(frame_plain),
            )
        )
    return packets


def iv_block(iv: StreamIV) -> bytes:
    """A frame's leading block: its IV, then the zero counter area."""
    return iv.to_bytes() + bytes(4)


def egress_frame(eng: SxpEngine, key_bytes: bytes, iv: StreamIV, payload: bytes,
                 src_tile: int = 0, base_addr: int = 0x1000) -> bytes:
    plain = iv_block(iv) + payload + b"\x00" * 16
    out = b""
    for pkt in write_packets(plain, src_tile, base_addr):
        out += eng.process_egress(pkt).payload
    return out


# ---------------------------------------------------------------------------
# registers and structural limits
# ---------------------------------------------------------------------------


class TestRegisters:
    def test_sixteen_contexts(self):
        eng = SxpEngine()
        assert len(eng.contexts) == NUM_CONTEXTS == 16
        with pytest.raises(IndexOutOfRange):
            eng.load_key(16, bytes(32))
        with pytest.raises(IndexOutOfRange):
            eng.invalidate_key(-1)

    def test_seventeen_disjoint_regions_accepted(self):
        regions = {i: AddressRegion(i * 0x100, (i + 1) * 0x100) for i in range(17)}
        regs = SxpRegisters(ksellimit=regions)
        SxpEngine().program_registers(regs)

    def test_eighteenth_region_rejected(self):
        regions = {i: AddressRegion(i * 0x100, (i + 1) * 0x100) for i in range(18)}
        with pytest.raises(InvalidRegisterProgram):
            SxpEngine().program_registers(SxpRegisters(ksellimit=regions))

    def test_overlapping_regions_rejected(self):
        with pytest.raises(InvalidRegisterProgram):
            SxpEngine().program_registers(SxpRegisters(
                ksellimit={0: AddressRegion(0, 0x200), 1: AddressRegion(0x100, 0x300)}
            ))

    def test_region_zero_never_keyed(self):
        with pytest.raises(InvalidRegisterProgram):
            SxpEngine().program_registers(SxpRegisters(
                kxbctxmap={0: 1},
                ksellimit={0: CLEAR, 1: REGION_A},
                kphysmap={1: 0},
            ))

    def test_kphysmap_injective(self):
        with pytest.raises(InvalidRegisterProgram):
            SxpEngine().program_registers(SxpRegisters(
                kxbctxmap={0: 1, 1: 2},
                ksellimit={0: CLEAR, 1: REGION_A},
                kphysmap={1: 1, 2: 1},
            ))


class TestPacket:
    def test_read_request_carries_no_payload(self):
        with pytest.raises(ValueError, match="no payload"):
            ExchangePacket(
                PacketKind.READ_REQUEST, src_tile=0,
                address=0x1000, payload=bytes(16), aes=True, read_length=16,
            )

    def test_payload_is_whole_blocks(self):
        with pytest.raises(ValueError, match="multiple of 16"):
            ExchangePacket(
                PacketKind.WRITE_REQUEST, src_tile=0,
                address=0x1000, payload=bytes(15), aes=True,
            )


# ---------------------------------------------------------------------------
# key loading
# ---------------------------------------------------------------------------


class TestKeyLifecycle:
    def test_load_then_encrypt_matches_codec(self):
        eng = engine()
        rng = random.Random(5)
        key = bytes(rng.randrange(256) for _ in range(32))
        eng.load_key(3, key)
        iv = StreamIV(StreamType.DATA, stream_id=1)
        payload = bytes(rng.randrange(256) for _ in range(96))
        assert egress_frame(eng, key, iv, payload) == fc.encrypt_frame(key, iv, payload)

    def test_invalidate_then_encrypt(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        eng.invalidate_key(3)
        iv = StreamIV(StreamType.DATA, stream_id=1)
        with pytest.raises(KeyNotLoaded):
            egress_frame(eng, bytes(32), iv, bytes(96))

    def test_load_into_active_context(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        iv = StreamIV(StreamType.DATA, stream_id=1)
        plain = iv_block(iv) + bytes(96) + bytes(16)
        first = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=0,
            address=0x1000, payload=plain[:64], aes=True, cc=False,
        )
        eng.process_egress(first)  # frame left open
        with pytest.raises(ContextBusy):
            eng.load_key(3, bytes(32))
        with pytest.raises(ContextBusy):
            eng.invalidate_key(3)


# ---------------------------------------------------------------------------
# key selection
# ---------------------------------------------------------------------------


class TestSelectContext:
    def test_cleartext_region(self):
        assert engine().select_context(0, 0x0800) == "cleartext"

    def test_mapped_context(self):
        eng = engine()
        assert eng.select_context(0, 0x1800) == 3  # ebc 0
        assert eng.select_context(5, 0x2800) == 7  # ebc 1

    def test_region_mismatch_raises(self):
        eng = engine()
        with pytest.raises(SecurityException):
            eng.select_context(0, 0x2800)  # ctx 3 is bound to REGION_A
        assert eng.latched

    def test_unmapped_tile(self):
        eng = engine()
        with pytest.raises(SecurityException):
            eng.select_context(9, 0x1800)  # ebc 2 has no mapping


# ---------------------------------------------------------------------------
# egress
# ---------------------------------------------------------------------------


class TestEgress:
    def test_single_packet_frame_matches_codec(self):
        eng = engine()
        key = bytes(range(32))
        eng.load_key(3, key)
        iv = StreamIV(StreamType.DATA, stream_id=2, frame_index=5)
        payload = bytes(i & 0xFF for i in range(96))
        plain = iv_block(iv) + payload + bytes(16)
        pkt = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=1,
            address=0x1000, payload=plain, aes=True, cc=True,
        )
        out = eng.process_egress(pkt)
        assert out.payload == fc.encrypt_frame(key, iv, payload)
        assert out.key_index == 3

    def test_aes_unset_passthrough(self):
        eng = engine()
        pkt = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=0,
            address=0x0100, payload=b"\xab" * 32, aes=False, cc=True,
        )
        assert eng.process_egress(pkt) is pkt

    def test_read_request_stamped_and_passed(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        req = ExchangePacket(
            PacketKind.READ_REQUEST, src_tile=2,
            address=0x1100, aes=True, read_length=128, request_id=1,
        )
        out = eng.process_egress(req)
        assert out.key_index == 3 and out.read_length == 128

    def test_frame_interleaving_violation(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        iv = StreamIV(StreamType.DATA, stream_id=1)
        opening = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=0,
            address=0x1000, payload=iv_block(iv) + bytes(48), aes=True, cc=False,
        )
        eng.process_egress(opening)
        # a different tile in the same exchange-block context intrudes mid-frame
        intruder = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=1,
            address=0x1040, payload=bytes(16), aes=True, cc=False,
        )
        with pytest.raises(FrameInterleavingViolation):
            eng.process_egress(intruder)

    def test_aes_to_cleartext_region_rejected(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        pkt = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=0,
            address=0x0100, payload=bytes(32), aes=True, cc=True,
        )
        with pytest.raises(SecurityException):
            eng.process_egress(pkt)


    def test_frame_closed_on_iv_block_rejected(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        iv = StreamIV(StreamType.DATA, stream_id=1)
        pkt = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=0,
            address=0x1000, payload=iv_block(iv), aes=True, cc=True,
        )
        with pytest.raises(SecurityException):
            eng.process_egress(pkt)
        assert eng.latched and not eng.contexts[3].active


# ---------------------------------------------------------------------------
# ingress
# ---------------------------------------------------------------------------


def completions_for(frame_bytes: bytes, key_index: int, step: int = 64):
    packets = []
    for off in range(0, len(frame_bytes), step):
        packets.append(
            ExchangePacket(
                PacketKind.READ_COMPLETION, src_tile=0,
                address=0x1000 + off, payload=frame_bytes[off : off + step],
                aes=True, cc=off + step >= len(frame_bytes), key_index=key_index,
            )
        )
    return packets


class TestIngress:
    def setup_method(self):
        self.eng = engine()
        self.key = bytes(range(32, 64))
        self.eng.load_key(3, self.key)
        self.iv = StreamIV(StreamType.DATA, stream_id=1, frame_index=4)
        self.payload = bytes(range(96))
        self.frame = fc.encrypt_frame(self.key, self.iv, self.payload)

    def test_valid_frame_decrypts_with_iv_intact(self):
        plain = b""
        for pkt in completions_for(self.frame, 3):
            plain += self.eng.process_ingress(pkt).payload
        assert plain[:16] == iv_block(self.iv)
        assert plain[16:112] == self.payload

    def test_cross_key_substitution(self):
        other = fc.encrypt_frame(bytes(range(64, 96)), self.iv, self.payload)
        with pytest.raises(SecurityException):
            for pkt in completions_for(other, 3):
                self.eng.process_ingress(pkt)
        assert self.eng.latched

    def test_truncation_cc_arrives_early(self):
        raw = self.frame
        early = completions_for(raw[:64], 3)  # only the first packet, cc forced
        with pytest.raises(SecurityException):
            for pkt in early:
                self.eng.process_ingress(pkt)

    def test_tampered_ciphertext(self):
        raw = bytearray(self.frame)
        raw[40] ^= 0x01
        with pytest.raises(SecurityException):
            for pkt in completions_for(bytes(raw), 3):
                self.eng.process_ingress(pkt)

    def test_no_key_loaded(self):
        with pytest.raises(KeyNotLoaded):
            for pkt in completions_for(self.frame, 7):
                self.eng.process_ingress(pkt)

    def test_cleartext_passthrough(self):
        pkt = ExchangePacket(
            PacketKind.READ_COMPLETION, src_tile=0,
            address=0x0040, payload=b"\x11" * 16, aes=False, cc=True,
        )
        assert self.eng.process_ingress(pkt) is pkt


# ---------------------------------------------------------------------------
# latching and reset
# ---------------------------------------------------------------------------


class TestLatching:
    def test_latch_drops_encrypted_traffic_until_reset(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        with pytest.raises(SecurityException):
            eng.select_context(0, 0x2800)
        iv = StreamIV(StreamType.DATA, stream_id=1)
        pkt = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=0,
            address=0x1000, payload=iv_block(iv) + bytes(112), aes=True, cc=True,
        )
        assert eng.process_egress(pkt) is None  # dropped
        clear_pkt = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=0,
            address=0x0010, payload=bytes(16), aes=False, cc=True,
        )
        assert eng.process_egress(clear_pkt) is clear_pkt  # cleartext still flows
        eng.reset()
        assert not eng.latched
        assert eng.registers is None  # reset clears configuration
        assert eng.contexts[3].aead is None


    def test_intrusion_mid_frame_latches(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        iv = StreamIV(StreamType.DATA, stream_id=1)
        opening = write_packets(iv_block(iv) + bytes(64) + bytes(16), 0, 0x1000)[0]
        eng.process_egress(opening)
        intruder = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=1,
            address=0x1040, payload=bytes(16), aes=True, cc=False,
        )
        with pytest.raises(SecurityException):
            eng.process_egress(intruder)
        assert eng.latched
        assert eng.process_egress(opening) is None  # dropped while latched

    def test_missing_key_latches(self):
        eng = engine()
        pkt = completions_for(bytes(128), 7)[0]
        with pytest.raises(SecurityException):
            eng.process_ingress(pkt)
        assert eng.latched


# ---------------------------------------------------------------------------
# pending read table
# ---------------------------------------------------------------------------


class TestPendingReadTable:
    def test_conservation(self):
        table = PendingReadTable()
        req = ExchangePacket(
            PacketKind.READ_REQUEST, src_tile=1,
            address=0x1000, aes=True, read_length=128, key_index=3, request_id=9,
        )
        table.note_request(req)
        assert len(table._entries) == 1
        packets = table.make_completions(9, bytes(128))
        assert [p.cc for p in packets] == [False, True]
        assert all(p.key_index == 3 and p.aes for p in packets)
        assert len(table._entries) == 0
        assert table.created == table.retired == 1

    def test_unmatched_completion_rejected(self):
        table = PendingReadTable()
        with pytest.raises(SecurityException):
            table.make_completions(1234, bytes(64))

    def test_wrong_packet_count_rejected(self):
        table = PendingReadTable()
        req = ExchangePacket(
            PacketKind.READ_REQUEST, src_tile=1,
            address=0x1000, aes=True, read_length=128, key_index=3, request_id=1,
        )
        table.note_request(req)
        with pytest.raises(SecurityException):
            table.make_completions(1, bytes(64))  # host under-delivers


# ---------------------------------------------------------------------------
# engine / codec / oracle equivalence
# ---------------------------------------------------------------------------


class TestEquivalence:
    def test_randomized_frames_across_all_contexts(self):
        """Frame-serial traffic over all 16 contexts matches the codec."""
        rng = random.Random(99)
        eng = SxpEngine()  # tile 4i -> ebc i
        regions = {0: AddressRegion(0, 0x100)}
        kxb, kphys = {}, {}
        for ctx in range(16):
            regions[ctx + 1] = AddressRegion(0x1000 * (ctx + 1), 0x1000 * (ctx + 2))
            kxb[ctx] = ctx
            kphys[ctx] = ctx + 1
        eng.program_registers(SxpRegisters(kxbctxmap=kxb, ksellimit=regions, kphysmap=kphys))
        keys = {}
        for ctx in range(16):
            keys[ctx] = bytes(rng.randrange(256) for _ in range(32))
            eng.load_key(ctx, keys[ctx])

        # queue several frames per context, interleaving *between* frames
        jobs = []
        for ctx in range(16):
            for index in range(4):
                payload_len = rng.choice([96, 224, 480])
                payload = bytes(rng.randrange(256) for _ in range(payload_len))
                iv = StreamIV(StreamType.DATA, stream_id=ctx + 1, frame_index=index)
                jobs.append((ctx, iv, payload))
        rng.shuffle(jobs)
        for ctx, iv, payload in jobs:
            got = egress_frame(eng, keys[ctx], iv, payload, src_tile=4 * ctx,
                               base_addr=0x1000 * (ctx + 1))
            want = fc.encrypt_frame(keys[ctx], iv, payload)
            assert got == want

    def test_engine_against_independent_oracle(self):
        rng = random.Random(123)
        eng = engine()
        key = bytes(rng.randrange(256) for _ in range(32))
        eng.load_key(3, key)
        for index in range(5):
            payload = bytes(rng.randrange(256) for _ in range(96))
            iv = StreamIV(StreamType.DATA, stream_id=6, frame_index=index)
            out = egress_frame(eng, key, iv, payload)
            ct, tag = gcm_oracle.gcm_encrypt(key, iv.to_bytes(), payload)
            assert out == iv_block(iv) + ct + tag

    def test_frames_interleaved_packet_by_packet(self):
        """Two tiles' frames on contexts 3 and 7 alternate packet by packet,
        so each context's buffered bytes and keystream must stay its own."""
        rng = random.Random(7)
        eng = engine()
        frames = []
        for ctx, tile, base in ((3, 0, 0x1000), (7, 4, 0x2000)):
            key = bytes(rng.randrange(256) for _ in range(32))
            eng.load_key(ctx, key)
            iv = StreamIV(StreamType.DATA, stream_id=ctx, frame_index=ctx)
            payload = bytes(rng.randrange(256) for _ in range(480))
            frames.append((ctx, tile, base, key, iv, payload))

        def alternate(streams):
            return [pkt for pair in zip(*streams) for pkt in pair]

        egress = alternate(
            write_packets(iv_block(iv) + payload + bytes(16), tile, base)
            for ctx, tile, base, key, iv, payload in frames
        )
        for pkt in egress:
            eng.process_egress(pkt)
        sealed = []
        for ctx, tile, base, key, iv, payload in frames:
            out = b"".join(p.payload for p in egress if p.key_index == ctx)
            ct, tag = gcm_oracle.gcm_encrypt(key, iv.to_bytes(), payload)
            assert out == iv_block(iv) + ct + tag
            sealed.append((ctx, out))

        ingress = alternate(completions_for(frame, ctx) for ctx, frame in sealed)
        for pkt in ingress:
            eng.process_ingress(pkt)
        for (ctx, tile, base, key, iv, payload), (_, frame) in zip(frames, sealed):
            out = b"".join(p.payload for p in ingress if p.key_index == ctx)
            assert out == iv_block(iv) + payload + frame[-16:]
        assert not eng.latched
        assert not any(c.active for c in eng.contexts)


def test_an_honest_sgd_run_builds_one_aead_per_loaded_key(monkeypatch):
    """Each engine keys its AEAD when a key is loaded and never per frame."""
    fixture = make_sgd_fixture(steps=3)
    built, loaded, frames = [], [], []
    real_aead, real_load, real_ingress = sxp.AESGCM, SxpEngine.load_key, SxpEngine.process_ingress

    def counting_aead(key):
        built.append(len(key))
        return real_aead(key)

    def counting_load(self, ctx_index, key):
        real_load(self, ctx_index, key)
        loaded.append(ctx_index)

    def counting_ingress(self, pkt):
        frames.append(pkt.aes and pkt.cc)
        return real_ingress(self, pkt)

    monkeypatch.setattr(sxp, "AESGCM", counting_aead)
    monkeypatch.setattr(SxpEngine, "load_key", counting_load)
    monkeypatch.setattr(SxpEngine, "process_ingress", counting_ingress)
    result = fixture.session.run()
    assert result.completed, result.reason
    assert len(built) == len(loaded) > 0
    assert sum(frames) > len(loaded)  # so one build per frame would show


class TestAbandonedFrames:
    """A frame ended early leaves no bytes in its context: reloading the same
    key and running the next frame gives exactly the oracle's output."""

    key = bytes(range(100, 132))
    iv = StreamIV(StreamType.DATA, stream_id=9, frame_index=2)

    def sealed(self, payload: bytes) -> bytes:
        ct, tag = gcm_oracle.gcm_encrypt(self.key, self.iv.to_bytes(), payload)
        return iv_block(self.iv) + ct + tag

    def assert_next_frames_match_the_oracle(self, eng: SxpEngine) -> None:
        ctx = eng.contexts[3]
        assert not ctx.active and not ctx.passed
        eng.load_key(3, self.key)
        payload = bytes(range(224))
        assert egress_frame(eng, self.key, self.iv, payload) == self.sealed(payload)
        out = b"".join(
            eng.process_ingress(pkt).payload for pkt in completions_for(self.sealed(payload), 3)
        )
        assert out == iv_block(self.iv) + payload + self.sealed(payload)[-16:]

    def opened(self) -> SxpEngine:
        """An engine whose context 3 has passed three packets of a frame."""
        eng = engine()
        eng.load_key(3, self.key)
        for pkt in write_packets(iv_block(self.iv) + bytes(480), 0, 0x1000)[:3]:
            eng.process_egress(pkt)
        assert eng.contexts[3].active
        return eng

    def test_after_an_egress_intrusion(self):
        eng = self.opened()
        intruder = write_packets(bytes(64), 1, 0x1100)[0]
        with pytest.raises(FrameInterleavingViolation):
            eng.process_egress(intruder)
        eng.latched = False  # clear the latch without a reset, which would zeroize
        self.assert_next_frames_match_the_oracle(eng)

    def test_after_an_ingress_tag_mismatch(self):
        eng = engine()
        eng.load_key(3, self.key)
        frame = bytearray(self.sealed(bytes(480)))
        frame[-1] ^= 0x01
        with pytest.raises(SecurityException, match="frame tag mismatch"):
            for pkt in completions_for(bytes(frame), 3):
                eng.process_ingress(pkt)
        eng.latched = False
        self.assert_next_frames_match_the_oracle(eng)

    def test_after_a_reset_mid_frame(self):
        eng = self.opened()
        eng.reset()
        assert eng.contexts[3].aead is None
        eng.program_registers(engine().registers)
        self.assert_next_frames_match_the_oracle(eng)


# ---------------------------------------------------------------------------
# frames split into packets of every size
# ---------------------------------------------------------------------------


@st.composite
def split_frames(draw):
    key = draw(st.binary(min_size=32, max_size=32))
    iv = StreamIV(
        StreamType.DATA,
        stream_id=draw(st.integers(0, 0xFFFF)),
        frame_index=draw(st.integers(0, 0xFFFFFFFF)),
    )
    blocks = draw(st.integers(0, (fc.MAX_FRAME_BYTES - fc.FRAME_OVERHEAD) // 16))
    payload = draw(st.binary(min_size=16 * blocks, max_size=16 * blocks))
    step = draw(st.sampled_from([16, 32, 48, 64, 128, None]))  # None: whole frame
    return key, iv, payload, step or len(payload) + 32


def rewritten(process, pkt: ExchangePacket) -> ExchangePacket:
    """Run ``pkt`` through ``process``; the engine hands back the same
    packet, its payload rewritten at the same length."""
    length = len(pkt.payload)
    out = process(pkt)
    assert out is pkt and len(out.payload) == length
    return out


class TestPacketSplits:
    @settings(max_examples=60, deadline=None)
    @given(split_frames())
    def test_egress_matches_codec_and_oracle(self, case):
        key, iv, payload, step = case
        eng = engine()
        eng.load_key(3, key)
        plain = iv_block(iv) + payload + bytes(16)
        out = b"".join(
            rewritten(eng.process_egress, pkt).payload
            for pkt in write_packets(plain, 0, 0x1000, step)
        )
        ct, tag = gcm_oracle.gcm_encrypt(key, iv.to_bytes(), payload)
        assert out == iv_block(iv) + ct + tag
        if payload:  # the codec seals non-empty payloads only
            assert out == fc.encrypt_frame(key, iv, payload)
        assert not eng.contexts[3].active

    @settings(max_examples=60, deadline=None)
    @given(split_frames())
    def test_ingress_releases_iv_plaintext_then_tag(self, case):
        key, iv, payload, step = case
        ct, tag = gcm_oracle.gcm_encrypt(key, iv.to_bytes(), payload)
        eng = engine()
        eng.load_key(3, key)
        frame = iv_block(iv) + ct + tag
        out = b"".join(
            rewritten(eng.process_ingress, pkt).payload
            for pkt in completions_for(frame, 3, step)
        )
        plain = gcm_oracle.gcm_decrypt(key, iv.to_bytes(), ct, tag)
        assert out == iv_block(iv) + plain + tag
        assert not eng.contexts[3].active

    @settings(max_examples=60, deadline=None)
    @given(split_frames(), st.data())
    def test_any_flipped_bit_fails_the_closing_packet(self, case, data):
        key, iv, payload, step = case
        ct, tag = gcm_oracle.gcm_encrypt(key, iv.to_bytes(), payload)
        frame = bytearray(iv_block(iv) + ct + tag)
        bit = data.draw(st.integers(16 * 8, len(frame) * 8 - 1))
        frame[bit // 8] ^= 0x80 >> (bit % 8)
        eng = engine()
        eng.load_key(3, key)
        *opening, closing = completions_for(bytes(frame), 3, step)
        for pkt in opening:
            eng.process_ingress(pkt)
        with pytest.raises(SecurityException):
            eng.process_ingress(closing)
        assert eng.latched


# ---------------------------------------------------------------------------
# packets are rewritten in place
# ---------------------------------------------------------------------------


def untouched_by(process, pkt: ExchangePacket, error=SecurityException) -> None:
    """``process(pkt)`` raises and leaves every field of ``pkt`` as it came."""
    before = dataclasses.replace(pkt)
    with pytest.raises(error):
        process(pkt)
    assert pkt == before


class TestInPlace:
    def test_a_closing_packet_with_a_flipped_tag_bit_keeps_its_payload(self):
        eng = engine()
        key = bytes(range(32))
        eng.load_key(3, key)
        iv = StreamIV(StreamType.DATA, stream_id=1)
        frame = bytearray(fc.encrypt_frame(key, iv, bytes(96)))
        frame[-1] ^= 0x01
        *opening, closing = completions_for(bytes(frame), 3)
        for pkt in opening:
            eng.process_ingress(pkt)
        untouched_by(eng.process_ingress, closing)
        assert closing.key_index == 3 and closing.payload == bytes(frame[64:])

    def test_an_intruding_tile_keeps_its_payload(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        iv = StreamIV(StreamType.DATA, stream_id=1)
        eng.process_egress(write_packets(iv_block(iv) + bytes(64) + bytes(16), 0, 0x1000)[0])
        intruder = ExchangePacket(
            PacketKind.WRITE_REQUEST, src_tile=1,
            address=0x1040, payload=b"\x33" * 16, aes=True, cc=False,
        )
        untouched_by(eng.process_egress, intruder, FrameInterleavingViolation)
        assert intruder.key_index is None

    def test_an_aes_packet_aimed_at_cleartext_is_unchanged(self):
        for pkt in (
            ExchangePacket(
                PacketKind.WRITE_REQUEST, src_tile=0,
                address=0x0100, payload=b"\x44" * 32, aes=True, cc=True,
            ),
            ExchangePacket(
                PacketKind.READ_REQUEST, src_tile=0,
                address=0x0100, aes=True, read_length=128, request_id=1,
            ),
        ):
            untouched_by(engine().process_egress, pkt)

    def test_a_context_with_no_key_is_unchanged(self):
        untouched_by(engine().process_ingress, completions_for(bytes(128), 7)[0], KeyNotLoaded)
        untouched_by(engine().process_egress, write_packets(bytes(128), 0, 0x1000)[0], KeyNotLoaded)

    def test_a_packet_dropped_while_latched_is_unchanged(self):
        eng = engine()
        eng.load_key(3, bytes(32))
        with pytest.raises(SecurityException):
            eng.select_context(0, 0x2800)
        iv = StreamIV(StreamType.DATA, stream_id=1)
        for process, pkt in (
            (eng.process_egress, write_packets(iv_block(iv) + bytes(112), 0, 0x1000)[0]),
            (eng.process_ingress, completions_for(bytes(128), 3)[0]),
        ):
            before = dataclasses.replace(pkt)
            assert process(pkt) is None
            assert pkt == before
