"""Golden canonical encodings.

Manifest measurements, signed report and certificate bodies, fingerprints and
key packages are bytes that the root of trust and every relying party must
compute identically.  These digests pin them, so a change to how records are
serialized cannot silently move a measurement.  Decoding undoes each encoding
byte for byte, into records that cannot be changed in place.
"""

import dataclasses
import hashlib
from types import MappingProxyType

import pytest

from itx.attestation import AttestationReport, KeyPackage
from itx.certs import Certificate
from itx.compiler import compile_job
from itx.manifest import JobManifest
from itx.packaging import CleanRoom, save_clean_room
from itx.pki import COMPONENT_BOOTLOADER, PartyIdentity, TcbUpdateCertificate
from itx.sandbox import make_deployment, make_sgd_fixture, make_sum_fixture
from test_compiler import BOOTLOADER, SGD_GRID, SUM_GRID


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


REPORT = AttestationReport(
    register_measurement="11" * 32,
    manifest_measurement="33" * 32,
    ccu_keyshare=bytes(range(32)),
    epoch=1,
    checkpoint_id=2,
    party_fingerprints=("44" * 32, "55" * 32),
    signature=b"\x77" * 64,
)

CERT = Certificate(
    subject_public_key=bytes(range(32, 64)),
    issuer_id="ca-cik",
    extensions={"role": "party", "name": "alpha", "serial": 7},
    signature=b"\x88" * 64,
)

TCB = TcbUpdateCertificate(COMPONENT_BOOTLOADER, "genesis", "99" * 32, b"\xaa" * 64)


class TestManifestMeasurements:
    def test_sgd_fixture(self):
        manifest = make_sgd_fixture().compiled.manifest
        assert manifest.measurement() == (
            "a6f75ea0ab4eeaf6903e6a81d3f7f47d65e7129b9c92b28d2241913a5a5ba393"
        )

    def test_sum_fixture(self):
        manifest = make_sum_fixture().compiled.manifest
        assert manifest.measurement() == (
            "b8abd239d8c07fcbb61af61e4e4171e4d570fb73bb5f9eee80fb338c00683d17"
        )

    def test_long_sgd_job(self):
        manifest = make_sgd_fixture(steps=64, checkpoint_period=64).compiled.manifest
        assert manifest.measurement() == (
            "581a2c7752b0e258a53a90344b2f97b1bdf546af65ed563b32805f35ecbe2d1a"
        )


class TestSignedBodies:
    def test_attestation_report(self):
        assert sha(REPORT.body_bytes()) == (
            "e1b52ce60bc9a6328ff975a07b2b8ffa6a890dcbf91eed00c0a6bea45d367b7e"
        )

    def test_certificate(self):
        assert sha(CERT.body_bytes()) == (
            "119022df5ed4d2e5851e5e03371e8dcf20012df042979c2dcb0587d945c5aa91"
        )
        assert CERT.fingerprint == (
            "79097d1ef27ba7c224c7a152b6555b5cd28b5d6db9da027d64da3b5554fc6dab"
        )

    def test_tcb_update_certificate(self):
        assert sha(TCB.body_bytes()) == (
            "a978d328d5f60b1c8f7b56e7ba4d22d24d5539a7121d40189c7829e114c3a379"
        )


class TestKeyPackage:
    @pytest.mark.parametrize(
        "package, want",
        [
            (
                KeyPackage({3: b"\x01" * 16, 10: b"\x02" * 16}, b"\x03" * 32),
                "390870b8b572984cc8f12228e86e324f98203febf9d47d634a3472dc73e3c555",
            ),
            (
                KeyPackage({2: b"\x04" * 16}, b"\x05" * 32, prior_run_nonce=b"\x06" * 32),
                "0359e98432c5699e7d5f5c9abaae7e51fd927bf2732a756926c20ccf51e6effd",
            ),
        ],
        ids=["fresh", "resume"],
    )
    def test_to_bytes(self, package, want):
        assert sha(package.to_bytes()) == want

    def test_layout(self):
        package = KeyPackage({3: b"\x01" * 16, 10: b"\x02" * 16}, b"\x03" * 32)
        assert package.to_bytes() == (
            b'{"prior_run_nonce":null,"run_nonce":"' + b"03" * 32 + b'",'
            b'"stream_keys":{"10":"' + b"02" * 16 + b'","3":"' + b"01" * 16 + b'"}}'
        )


def test_clean_room_file(tmp_path):
    room = CleanRoom(
        "alpha", {3: bytes(range(32)), 12: b"\xab" * 32}, b"\x33" * 32, b"\x44" * 32, b"\x55" * 64
    )
    save_clean_room(room, tmp_path)
    assert sha((tmp_path / "cleanroom.json").read_bytes()) == (
        "e83e8df12713e3eef6c9f8b43285c7a1d86530ee210f4cd77d2dd913bdf1ed71"
    )


@pytest.fixture(scope="module")
def encoded() -> list[tuple[type, bytes]]:
    """The canonical bytes of every compile-grid manifest, of certificates
    (a device's chain and a party's), of key packages and of a clean room."""
    manifests = [compile_job(job, bootloader_measurement=BOOTLOADER).manifest for job in SGD_GRID + SUM_GRID]
    certificates = [CERT, *make_deployment(seed=2).device_chain.values(), PartyIdentity("alpha").certificate]
    packages = [KeyPackage({3: b"\x01" * 16, 10: b"\x02" * 16}, b"\x03" * 32),
                KeyPackage({2: b"\x04" * 16}, b"\x05" * 32, prior_run_nonce=b"\x06" * 32)]
    room = CleanRoom("alpha", {3: bytes(range(32))}, b"\x33" * 32, b"\x44" * 32, b"\x55" * 64)
    return [(type(record), record.to_bytes()) for record in (*manifests, *certificates, *packages, room)]


def mappings_in(value) -> list:
    """Every mapping in a decoded value, at every depth; a dict, list or
    bytearray anywhere in it fails."""
    assert not isinstance(value, (dict, list, bytearray)), type(value)
    if isinstance(value, MappingProxyType):
        return [value] + [m for item in (*value.keys(), *value.values()) for m in mappings_in(item)]
    if isinstance(value, tuple):
        return [m for item in value for m in mappings_in(item)]
    if dataclasses.is_dataclass(value):
        return [m for f in dataclasses.fields(value) for m in mappings_in(getattr(value, f.name))]
    return []


class TestDecodedRecords:
    """Decoding undoes encoding byte for byte, and what it makes cannot be
    changed in place, so one decoded copy can serve run after run."""

    def test_decoding_then_encoding_gives_the_same_bytes(self, encoded):
        assert len(encoded) == 64 + 6 + 2 + 1
        for cls, blob in encoded:
            assert cls.from_bytes(blob).to_bytes() == blob

    def test_decoded_dicts_are_read_only_at_every_depth(self, encoded):
        found = set()
        for cls, blob in encoded:
            for mapping in mappings_in(cls.from_bytes(blob)):
                with pytest.raises(TypeError):
                    mapping[next(iter(mapping), 0)] = None
                found.add(cls)
        assert found == {JobManifest, Certificate, KeyPackage, CleanRoom}

    def test_replace_makes_an_edited_copy_of_a_decoded_record(self, encoded):
        manifest = JobManifest.from_bytes(encoded[0][1])
        table = {**manifest.stream_table, 3: dataclasses.replace(manifest.stream_table[3], plaintext_length=4)}
        edited = dataclasses.replace(manifest, stream_table=table)
        assert edited.stream_table[3].plaintext_length == 4 and manifest.to_bytes() == encoded[0][1]
        assert JobManifest.from_bytes(edited.to_bytes()) == edited
        cert = Certificate.from_bytes(CERT.to_bytes())
        renamed = dataclasses.replace(cert, extensions={**cert.extensions, "name": "beta"})
        assert renamed.extensions["name"] == "beta" and cert.fingerprint == CERT.fingerprint != renamed.fingerprint
