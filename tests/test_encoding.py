"""Golden canonical encodings.

Manifest measurements, signed report and certificate bodies, fingerprints and
key packages are bytes that the root of trust and every relying party must
compute identically.  These digests pin them, so a change to how records are
serialized cannot silently move a measurement.
"""

import hashlib

import pytest

from itx.attestation import AttestationReport, KeyPackage
from itx.certs import Certificate
from itx.packaging import CleanRoom, save_clean_room
from itx.pki import COMPONENT_BOOTLOADER, TcbUpdateCertificate
from itx.sandbox import make_sgd_fixture, make_sum_fixture


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
