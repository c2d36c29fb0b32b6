"""Frame codec: IV structure, framing arithmetic, GCM conformance, stream order."""

import random

import pytest

import gcm_oracle
from itx import frame_codec as fc
from itx.errors import (
    AuthenticationFailure,
    InvalidFrame,
    InvalidFrameSize,
    InvalidIvField,
    InvalidLength,
    InvalidPayload,
    IvSequenceViolation,
)
from itx.frame_codec import StreamIV, StreamType

# Published AES-256-GCM vectors (96-bit IV, no AAD) from the original GCM
# specification test suite.
KAT_ZERO_KEY = bytes(32)
KAT_ZERO_IV = bytes(12)
KAT_EMPTY_TAG = bytes.fromhex("530f8afbc74536b9a963b4f1c4cb738b")
KAT_ZERO_BLOCK_CT = bytes.fromhex("cea7403d4d606b6e074ec5d3baf39d18")
KAT_ZERO_BLOCK_TAG = bytes.fromhex("d0d1c8a799996bf0265b98b5d48ab919")
KAT3_KEY = bytes.fromhex(
    "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"
)
KAT3_IV = bytes.fromhex("cafebabefacedbaddecaf888")
KAT3_PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
KAT3_CT = bytes.fromhex(
    "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
    "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
)
KAT3_TAG = bytes.fromhex("b094dac5d93471bdec1a502270e3cc6c")


def make_key(seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(32))


# ---------------------------------------------------------------------------
# StreamIV
# ---------------------------------------------------------------------------


class TestStreamIV:
    def test_serializes_to_twelve_bytes(self):
        iv = StreamIV(StreamType.DATA, stream_id=1)
        raw = iv.to_bytes()
        assert len(raw) == 12
        assert raw[8:] == b"\x00\x00\x00\x00"  # zero frame index

    def test_code_iv_matches_bootloader_expectation(self):
        # expected_iv = CODE | ipu_id | tile_id | index
        iv = StreamIV(StreamType.CODE, ipu_id=0, tile_id=5, frame_index=3)
        raw = iv.to_bytes()
        assert raw[0] == StreamType.CODE
        assert int.from_bytes(raw[4:6], "big") == 5
        assert int.from_bytes(raw[8:12], "big") == 3
        assert StreamIV.from_bytes(raw) == iv

    def test_zero_field_rules(self):
        with pytest.raises(InvalidIvField):
            StreamIV(StreamType.CODE, stream_id=1, tile_id=2).validate()
        with pytest.raises(InvalidIvField):
            StreamIV(StreamType.DATA, stream_id=1, tile_id=2).validate()
        with pytest.raises(InvalidIvField):
            StreamIV(StreamType.OUTPUT, stream_id=1, epoch=1).validate()
        with pytest.raises(InvalidIvField):
            StreamIV(StreamType.CHECKPOINT, stream_id=1, tile_id=2, epoch=1).validate()
        # the permitted shapes
        StreamIV(StreamType.CODE, ipu_id=1, tile_id=2).validate()
        StreamIV(StreamType.DATA, stream_id=9).validate()
        StreamIV(StreamType.CHECKPOINT, ipu_id=1, tile_id=3, epoch=2, checkpoint_id=4).validate()

    def test_out_of_range_fields(self):
        with pytest.raises(InvalidIvField):
            StreamIV(StreamType.DATA, stream_id=1, frame_index=2**32).to_bytes()
        with pytest.raises(InvalidIvField):
            StreamIV(StreamType.DATA, stream_id=0x10000).validate()
        with pytest.raises(InvalidIvField):
            StreamIV(StreamType.CHECKPOINT, tile_id=1, epoch=256).validate()

    def test_injectivity_over_sample_grid(self):
        """Distinct field tuples serialize to distinct 12-byte values (2^10 grid)."""
        seen = {}
        for stream_id in range(32):
            for index in range(32):
                raw = StreamIV(StreamType.DATA, stream_id=stream_id, frame_index=index).to_bytes()
                assert raw not in seen
                seen[raw] = (stream_id, index)
        assert len(seen) == 1024

    def test_injectivity_across_types_and_coords(self):
        seen = set()
        for tile in range(16):
            for index in range(8):
                seen.add(StreamIV(StreamType.CODE, tile_id=tile, frame_index=index).to_bytes())
                seen.add(
                    StreamIV(
                        StreamType.CHECKPOINT, tile_id=tile, epoch=1, checkpoint_id=2, frame_index=index
                    ).to_bytes()
                )
        for sid in range(16):
            for index in range(8):
                seen.add(StreamIV(StreamType.DATA, stream_id=sid, frame_index=index).to_bytes())
                seen.add(StreamIV(StreamType.OUTPUT, stream_id=sid, frame_index=index).to_bytes())
        assert len(seen) == 16 * 8 * 2 + 16 * 8 * 2


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


class TestPartition:
    def test_exact_fit(self):
        payloads = fc.partition(b"\xaa" * 992, 1024)
        assert payloads == [b"\xaa" * 992]

    def test_final_payload_padded(self):
        payloads = fc.partition(b"\xbb" * 1000, 1024)
        assert len(payloads) == 2
        assert payloads[0] == b"\xbb" * 992
        assert payloads[1] == b"\xbb" * 8 + b"\x00" * 984

    def test_unaligned_frame_size(self):
        with pytest.raises(InvalidFrameSize):
            fc.partition(b"\xcc" * 100, 1000)
        with pytest.raises(InvalidFrameSize):
            fc.partition(b"\xcc" * 100, 1152)  # > 1024
        with pytest.raises(InvalidFrameSize):
            fc.partition(b"\xcc" * 100, 0)

    def test_empty_plaintext_rejected(self):
        with pytest.raises(InvalidPayload):
            fc.partition(b"", 128)

    def test_concatenation_recovers_plaintext(self):
        rng = random.Random(11)
        for _ in range(25):
            size = rng.choice([128, 256, 512, 1024])
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 4000)))
            payloads = fc.partition(data, size)
            capacity = size - 32
            assert all(len(p) == capacity for p in payloads)
            assert b"".join(payloads)[: len(data)] == data


# ---------------------------------------------------------------------------
# frame encryption
# ---------------------------------------------------------------------------


class TestEncryptFrame:
    def test_zero_vector_against_independent_oracle(self):
        # (key=0^256, iv=0^96, payload=0^16)
        iv = StreamIV.from_bytes(KAT_ZERO_IV)
        frame = fc.encrypt_frame(KAT_ZERO_KEY, iv, b"\x00" * 16)
        ct, tag = gcm_oracle.gcm_encrypt(KAT_ZERO_KEY, KAT_ZERO_IV, b"\x00" * 16)
        assert frame[16:-16] == ct == KAT_ZERO_BLOCK_CT
        assert frame[-16:] == tag == KAT_ZERO_BLOCK_TAG

    def test_published_kat_empty_plaintext_tag(self):
        ct, tag = gcm_oracle.gcm_encrypt(KAT_ZERO_KEY, KAT_ZERO_IV, b"")
        assert ct == b"" and tag == KAT_EMPTY_TAG

    def test_published_kat_64_byte_message(self):
        """The 64-byte suite vector, via the oracle (its IV is unstructured)."""
        ct, tag = gcm_oracle.gcm_encrypt(KAT3_KEY, KAT3_IV, KAT3_PT)
        assert ct == KAT3_CT and tag == KAT3_TAG

    def test_round_trip(self):
        iv = StreamIV(StreamType.DATA, stream_id=3, frame_index=7)
        key = make_key(1)
        payload = bytes(range(96))
        frame = fc.encrypt_frame(key, iv, payload)
        got_iv, got_payload = fc.decrypt_frame(key, frame)
        assert (got_iv, got_payload) == (iv, payload)

    def test_payload_constraints(self):
        key = make_key(2)
        iv = StreamIV(StreamType.DATA, stream_id=1)
        with pytest.raises(InvalidPayload):
            fc.encrypt_frame(key, iv, b"")
        with pytest.raises(InvalidPayload):
            fc.encrypt_frame(key, iv, b"\x00" * 17)
        with pytest.raises(InvalidPayload):
            fc.encrypt_frame(key, iv, b"\x00" * 1008)  # would exceed 1024 total

    @pytest.mark.parametrize("bad_key", [bytes(16), b"short"], ids=["aes128", "5-byte"])
    def test_decrypt_side_refuses_keys_of_the_wrong_length(self, bad_key):
        iv = StreamIV(StreamType.DATA, stream_id=1)
        frame = fc.encrypt_frame(make_key(2), iv, b"\x00" * 16)
        with pytest.raises(InvalidPayload, match="key must be 32 bytes"):
            fc.decrypt_frame(bad_key, frame)
        with pytest.raises(InvalidPayload, match="key must be 32 bytes"):
            fc.decrypt_stream(bad_key, iv, [frame], 16)

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(23)
        for trial in range(40):
            key = bytes(rng.randrange(256) for _ in range(32))
            iv = StreamIV(StreamType.DATA, stream_id=5, frame_index=rng.randrange(2**32))
            size = rng.choice([128, 256, 1024])
            payload = bytes(rng.randrange(256) for _ in range(size - 32))
            frame = fc.encrypt_frame(key, iv, payload)
            ct, tag = gcm_oracle.gcm_encrypt(key, iv.to_bytes(), payload)
            assert frame[16:-16] == ct, f"trial {trial}"
            assert frame[-16:] == tag, f"trial {trial}"


class TestDecryptFrame:
    def test_single_bit_tamper_exhaustive(self):
        """Flipping any bit of a 128-byte frame is detected.

        Bits of the 12-byte IV, the ciphertext, and the tag are all
        authenticated by GCM and fail with AuthenticationFailure.  The four
        counter-area bytes of the IV block are structural (the hardware
        regenerates them) and fail frame validation instead.
        """
        key = make_key(3)
        iv = StreamIV(StreamType.DATA, stream_id=2, frame_index=9)
        raw = fc.encrypt_frame(key, iv, bytes(range(96)))
        assert len(raw) == 128
        for bit in range(len(raw) * 8):
            mutated = bytearray(raw)
            mutated[bit // 8] ^= 1 << (bit % 8)
            in_counter_area = 12 <= bit // 8 < 16
            if in_counter_area:
                with pytest.raises(InvalidFrame):
                    fc.decrypt_frame(key, bytes(mutated))
            else:
                with pytest.raises(AuthenticationFailure):
                    fc.decrypt_frame(key, bytes(mutated))

    def test_wrong_key(self):
        frame = fc.encrypt_frame(make_key(4), StreamIV(StreamType.DATA, stream_id=2), b"\x01" * 96)
        with pytest.raises(AuthenticationFailure):
            fc.decrypt_frame(make_key(5), frame)

    def test_malformed_frames(self):
        with pytest.raises(InvalidFrameSize):
            fc.check_frame(b"\x00" * 127)
        with pytest.raises(InvalidFrameSize):
            fc.check_frame(b"\x00" * 1152)
        bad_counter = bytearray(128)
        bad_counter[13] = 1
        with pytest.raises(InvalidFrame):
            fc.check_frame(bytes(bad_counter))

    def test_truncated_frame_in_sequence(self):
        """A frame cut short but with its IV in sequence fails the size check
        on the open path, before GCM sees it."""
        binding = StreamIV(StreamType.DATA, stream_id=2)
        key = make_key(7)
        frames = fc.encrypt_stream(key, binding, bytes(200), 128)
        frames[1] = frames[1][:-1]
        with pytest.raises(InvalidFrameSize):
            fc.decrypt_stream(key, binding, frames, 200)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


class TestStreams:
    def setup_method(self):
        self.binding = StreamIV(StreamType.DATA, stream_id=4)
        self.key = make_key(6)

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(10):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 3000)))
            frames = fc.encrypt_stream(self.key, self.binding, data, 256)
            assert fc.decrypt_stream(self.key, self.binding, frames, len(data)) == data

    def test_reorder_detected_at_position(self):
        frames = fc.encrypt_stream(self.key, self.binding, bytes(500), 128)
        assert len(frames) >= 3
        swapped = [frames[0], frames[2], frames[1]] + frames[3:]
        with pytest.raises(IvSequenceViolation) as exc:
            fc.decrypt_stream(self.key, self.binding, swapped, 500)
        assert exc.value.position == 1

    def test_replay_detected(self):
        frames = fc.encrypt_stream(self.key, self.binding, bytes(500), 128)
        replayed = [frames[0], frames[1], frames[1]] + frames[3:]
        with pytest.raises(IvSequenceViolation) as exc:
            fc.decrypt_stream(self.key, self.binding, replayed, 500)
        assert exc.value.position == 2

    def test_length_consistency(self):
        frames = fc.encrypt_stream(self.key, self.binding, bytes(200), 128)
        with pytest.raises(InvalidLength):
            fc.decrypt_stream(self.key, self.binding, frames, 500)  # longer than data
        with pytest.raises(InvalidLength):
            fc.decrypt_stream(self.key, self.binding, frames, 10)  # padding beyond final frame
        with pytest.raises(InvalidLength):
            fc.decrypt_stream(self.key, self.binding, [], 0)

    def test_no_iv_reuse_across_run(self):
        """Global registry: every (key, IV) pair produced in a run is unique."""
        registry: set[tuple[bytes, bytes]] = set()
        produced = 0
        for sid in (1, 2, 3):
            binding = StreamIV(StreamType.DATA, stream_id=sid)
            key = make_key(100 + sid)
            for frame in fc.encrypt_stream(key, binding, bytes(1000), 128):
                pair = (key, frame[:12])
                assert pair not in registry
                registry.add(pair)
                produced += 1
        ck = make_key(200)
        for tile in range(4):
            binding = StreamIV(StreamType.CHECKPOINT, tile_id=tile, epoch=1, checkpoint_id=2)
            for frame in fc.encrypt_stream(ck, binding, bytes(100), 128):
                pair = (ck, frame[:12])
                assert pair not in registry
                registry.add(pair)
                produced += 1
        assert len(registry) == produced

    def test_each_iv_is_validated_once(self, monkeypatch):
        calls = []
        validate = StreamIV.validate

        def counting(iv):
            calls.append(iv.frame_index)
            return validate(iv)

        monkeypatch.setattr(StreamIV, "validate", counting)
        data = bytes(range(256)) * 3 + bytes(range(192))  # 960 bytes: ten 96-byte payloads
        frames = fc.encrypt_stream(self.key, self.binding, data, 128)
        assert len(frames) == 10 and calls == list(range(10))
        calls.clear()
        assert fc.decrypt_stream(self.key, self.binding, frames, len(data)) == data
        assert len(calls) <= 20  # the expected IV, then the authenticated one

    def test_one_key_schedule_per_stream(self, monkeypatch):
        built = []
        aesgcm = fc.AESGCM

        def counting(key):
            built.append(key)
            return aesgcm(key)

        monkeypatch.setattr(fc, "AESGCM", counting)
        data = bytes(range(256)) * 3 + bytes(range(192))  # ten 96-byte payloads
        frames = fc.encrypt_stream(self.key, self.binding, data, 128)
        assert len(frames) == 10 and built == [self.key]
        built.clear()
        assert fc.decrypt_stream(self.key, self.binding, frames, len(data)) == data
        assert built == [self.key]

    def test_an_invalid_template_is_rejected(self):
        bad = StreamIV(StreamType.DATA, stream_id=4, tile_id=1)
        with pytest.raises(InvalidIvField):
            fc.encrypt_stream(self.key, bad, bytes(96), 128)
        frames = fc.encrypt_stream(self.key, self.binding, bytes(96), 128)
        with pytest.raises(InvalidIvField):
            fc.decrypt_stream(self.key, bad, frames, 96)
