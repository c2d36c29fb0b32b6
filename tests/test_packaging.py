"""Party-side packaging: stream encryption, the package/clean-room split,
and directory serialization."""

import hashlib
import json

import pytest

from itx import crypto
from itx.compiler import SID_CODE, JobDescription, compile_job
from itx.errors import KeyExchangeFailure
from itx.frame_codec import StreamIV, StreamType, decrypt_stream
from itx.packaging import (
    load_clean_room,
    load_package,
    make_package,
    package_inputs,
    save_clean_room,
    save_package,
)
from itx.pki import Party, PartyIdentity

BOOTLOADER = hashlib.sha256(b"tile bootloader").hexdigest()


@pytest.fixture(scope="module")
def compiled():
    job = JobDescription(
        kind="sgd",
        model_party="modelco",
        data_parties=("alpha", "beta"),
        steps=2,
        checkpoint_period=1,
    )
    return compile_job(job, bootloader_measurement=BOOTLOADER)


def model_bytes(compiled) -> bytes:
    length = compiled.manifest.stream_table[2].plaintext_length
    return bytes((i * 7) % 251 for i in range(length))


def gradient_bytes(compiled, sid) -> bytes:
    length = compiled.manifest.stream_table[sid].plaintext_length
    return bytes((i * 11) % 251 for i in range(length))


# ---------------------------------------------------------------------------
# encryption
# ---------------------------------------------------------------------------


class TestPackageInputs:
    def test_data_streams_round_trip_under_the_party_key(self, compiled):
        plaintext = gradient_bytes(compiled, 3)
        inputs = package_inputs("alpha", compiled.manifest, data={3: plaintext})
        assert set(inputs.streams) == {3} and set(inputs.keys) == {3}
        entry = compiled.manifest.stream_table[3]
        recovered = decrypt_stream(
            inputs.keys[3],
            StreamIV(stream_type=StreamType.DATA, stream_id=3),
            inputs.streams[3],
            entry.plaintext_length,
        )
        assert recovered == plaintext

    def test_code_stream_spans_every_tile(self, compiled):
        inputs = package_inputs(
            "modelco",
            compiled.manifest,
            binaries=compiled.binaries,
            data={2: model_bytes(compiled)},
        )
        assert set(inputs.streams) == {1, 2}
        # The frames run tile by tile in layout order, each tile's under its
        # own tile-bound IVs, as the code region holds them.
        frames = inputs.streams[1]
        first = 0
        for layout in compiled.manifest.tile_layouts:
            template = StreamIV(StreamType.CODE, ipu_id=compiled.manifest.ipu_id, tile_id=layout.tile_id)
            tile_frames = frames[first : first + layout.code_frames]
            binary = decrypt_stream(inputs.keys[1], template, tile_frames, layout.binary_length)
            assert binary == compiled.binaries[layout.tile_id]
            first += layout.code_frames
        assert first == len(frames)

    def test_every_stream_gets_its_own_key(self, compiled):
        inputs = package_inputs(
            "modelco",
            compiled.manifest,
            binaries=compiled.binaries,
            data={2: model_bytes(compiled)},
        )
        assert inputs.keys[1] != inputs.keys[2]
        assert all(len(k) == 32 for k in inputs.keys.values())

    def test_code_owner_must_supply_binaries(self, compiled):
        with pytest.raises(KeyExchangeFailure, match="gave no binaries"):
            package_inputs("modelco", compiled.manifest, data={2: model_bytes(compiled)})

    def test_data_owner_must_supply_every_stream(self, compiled):
        with pytest.raises(KeyExchangeFailure, match="supplied no data"):
            package_inputs("alpha", compiled.manifest, data={})

    def test_plaintext_must_match_the_declared_length(self, compiled):
        short = gradient_bytes(compiled, 3)[:-1]
        with pytest.raises(KeyExchangeFailure, match="plaintext bytes"):
            package_inputs("alpha", compiled.manifest, data={3: short})

    def test_inputs_the_party_does_not_own_are_refused(self, compiled):
        own = {3: gradient_bytes(compiled, 3)}
        with pytest.raises(KeyExchangeFailure, match=r"does not own input streams \[99\]"):
            package_inputs("alpha", compiled.manifest, data={**own, 99: own[3]})
        with pytest.raises(KeyExchangeFailure, match=r"does not own input streams \[4\]"):
            package_inputs("alpha", compiled.manifest, data={**own, 4: gradient_bytes(compiled, 4)})
        with pytest.raises(KeyExchangeFailure, match="does not own the code stream"):
            package_inputs("alpha", compiled.manifest, binaries=compiled.binaries, data=own)

    def test_uninvolved_party_packages_nothing(self, compiled):
        inputs = package_inputs("stranger", compiled.manifest, data={})
        assert not inputs.streams and not inputs.keys


# ---------------------------------------------------------------------------
# the package / clean-room split
# ---------------------------------------------------------------------------


class TestSplit:
    def test_package_carries_no_secrets(self, compiled):
        alice = PartyIdentity("alpha")
        package, room = make_package(alice, compiled.manifest, data={3: gradient_bytes(compiled, 3)})
        assert SID_CODE not in package.streams
        assert not hasattr(package, "keys")
        assert room.keys and room.session_private
        assert package.keyshare == room.keyshare
        assert package.manifest_measurement == compiled.manifest.measurement()
        # Anyone can authenticate the keyshare from the package alone.
        assert crypto.verify(
            package.certificate.subject_public_key,
            package.share_signature,
            package.keyshare,
        )

    def test_clean_room_session_matches_the_shipped_share(self, compiled):
        modelco = PartyIdentity("modelco")
        package, room = make_package(
            modelco, compiled.manifest, compiled.binaries, data={2: model_bytes(compiled)}
        )
        assert SID_CODE in package.streams
        session = room.session()
        assert crypto.x25519_public_bytes(session.private) == package.keyshare
        assert session.signature == package.share_signature

    def test_a_party_built_from_a_clean_room_offers_the_packaged_share(self, compiled):
        alice = PartyIdentity("alpha")
        package, room = make_package(alice, compiled.manifest, data={3: gradient_bytes(compiled, 3)})
        party = Party(alice, room.keys, room.session())
        assert party.offer() == (package.keyshare, package.share_signature)
        assert party.offer()[0] != package.keyshare


# ---------------------------------------------------------------------------
# directory serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_model_package_round_trips(self, compiled, tmp_path):
        modelco = PartyIdentity("modelco")
        package, _ = make_package(
            modelco, compiled.manifest, compiled.binaries, data={2: model_bytes(compiled)}
        )
        save_package(package, tmp_path / "pkg")
        assert sorted(p.name for p in (tmp_path / "pkg").iterdir()) == ["package.json"]
        assert json.loads((tmp_path / "pkg" / "package.json").read_text()) == package.to_dict()
        loaded = load_package(tmp_path / "pkg")
        assert SID_CODE in loaded.streams
        assert loaded == package

    def test_data_package_round_trips(self, compiled, tmp_path):
        beta = PartyIdentity("beta")
        package, _ = make_package(beta, compiled.manifest, data={4: gradient_bytes(compiled, 4)})
        save_package(package, tmp_path / "pkg")
        loaded = load_package(tmp_path / "pkg")
        assert SID_CODE not in loaded.streams
        assert loaded == package

    def test_clean_room_round_trips(self, compiled, tmp_path):
        alice = PartyIdentity("alpha")
        _, room = make_package(alice, compiled.manifest, data={3: gradient_bytes(compiled, 3)})
        save_clean_room(room, tmp_path / "room")
        loaded = load_clean_room(tmp_path / "room")
        assert loaded.party == room.party
        assert loaded.keys == room.keys
        assert loaded.keyshare == room.keyshare
        session = loaded.session()
        assert crypto.x25519_public_bytes(session.private) == room.keyshare
