"""Measured boot, TEE lifecycle, and run-key derivation in the board root of trust."""

import hashlib
import os

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from itx import crypto, pki
from itx.attestation import KeyPackage
from itx.ccu import Ccu, CcuFlash, INITIALIZED, LAUNCHED, NO_TEE, TERMINATED
from itx.compiler import JobDescription, compile_job
from itx.device import DeviceConfig
from itx.errors import (
    AlreadyProvisioned,
    FirmwareAuthFailure,
    InvalidPhase,
    InvalidSyncPoint,
    KeyExchangeFailure,
    PartyAuthFailure,
)
from itx.pki import CaState, PartyIdentity
from itx.sandbox import make_deployment, make_firmware

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def fresh_flash(ca: CaState, entropy: bytes = b"\x42" * 32) -> CcuFlash:
    """A provisioned flash with fixed entropy, so reboots are comparable."""
    batch = ca.batch_secrets.get("batch-t") or ca.new_batch("batch-t")
    flash = CcuFlash(
        firmware_ca_public=ca.public()["firmware_ca"],
        batch_id="batch-t",
        batch_secret=batch,
        provisioning_nonce=b"\x07" * 16,
        device_serial="dev-test",
    )
    flash.first_boot(entropy)
    return flash


def firmware_variant(ca: CaState, bootloader: str, engine: str):
    """A firmware bundle whose two measured images vary independently."""
    from itx.ccu import FirmwareBundle

    return FirmwareBundle(
        secondary_bootloader=ca.sign_firmware(bootloader.encode()),
        cce=ca.sign_firmware(engine.encode()),
        icu_measurement=hashlib.sha256(b"icu").hexdigest(),
        tile_bootloader=b"tile bootloader",
    )


# ---------------------------------------------------------------------------
# measured boot
# ---------------------------------------------------------------------------


class TestMeasuredBoot:
    def test_key_hierarchy_tracks_the_measured_layers(self):
        """Across a 3x3 grid of firmware images: the card identity never
        moves, the platform key follows only the bootloader, and the
        attestation key follows both bootloader and compute engine."""
        ca = CaState()
        flash = fresh_flash(ca)
        bootloaders = ["sb-a", "sb-b", "sb-c"]
        engines = ["cce-x", "cce-y", "cce-z"]

        grid = {}
        for sb in bootloaders:
            for cce in engines:
                ccu = Ccu.boot(flash, firmware_variant(ca, sb, cce))
                grid[(sb, cce)] = {
                    "cik": ccu.cert_chain["cik"].subject_public_key,
                    "pik": ccu.cert_chain["pik"].subject_public_key,
                    "ak": ccu.cert_chain["ak"].subject_public_key,
                }

        ciks = {v["cik"] for v in grid.values()}
        assert len(ciks) == 1  # one card, one identity, regardless of firmware

        for sb in bootloaders:
            row = {grid[(sb, cce)]["pik"] for cce in engines}
            assert len(row) == 1  # engine changes leave the platform key alone
        assert len({grid[(sb, engines[0])]["pik"] for sb in bootloaders}) == 3

        aks = [grid[key]["ak"] for key in grid]
        assert len(set(aks)) == 9  # either image change rolls the attestation key

    def test_boot_is_deterministic(self):
        ca = CaState()
        flash = fresh_flash(ca)
        firmware = firmware_variant(ca, "sb", "cce")
        first = Ccu.boot(flash, firmware)
        second = Ccu.boot(flash, firmware)
        for name in ("cik", "pik", "ak"):
            assert first.cert_chain[name].to_dict() == second.cert_chain[name].to_dict()
        assert first.measurements == second.measurements

    def test_certificate_chain_links_and_measurements(self):
        ca = CaState()
        flash = fresh_flash(ca)
        firmware = firmware_variant(ca, "sb", "cce")
        ccu = Ccu.boot(flash, firmware)
        cik, pik, ak = (ccu.cert_chain[n] for n in ("cik", "pik", "ak"))

        assert cik.verify(cik.subject_public_key)
        assert pik.verify(cik.subject_public_key)
        assert ak.verify(pik.subject_public_key)
        assert not ak.verify(cik.subject_public_key)

        sb_digest = hashlib.sha256(b"sb").hexdigest()
        assert pik.extensions["bootloader_measurement"] == sb_digest
        assert pik.extensions["icu_measurement"] == firmware.icu_measurement
        assert ak.extensions["cce_measurement"] == hashlib.sha256(b"cce").hexdigest()
        assert ccu.measurements["bootloader"] == sb_digest
        assert ccu.measurements["tile_bootloader"] == firmware.tile_bootloader_measurement()

    def test_running_state_keeps_only_the_attestation_key(self):
        """All private material below the AK is scrubbed at the end of boot."""
        ca = CaState()
        ccu = Ccu.boot(fresh_flash(ca), firmware_variant(ca, "sb", "cce"))

        privates = [
            value for value in vars(ccu).values() if isinstance(value, Ed25519PrivateKey)
        ]
        assert len(privates) == 1
        assert crypto.public_bytes(privates[0]) == ccu.cert_chain["ak"].subject_public_key
        # Useful signer, but only as the attestation key.
        report_bytes = b"probe"
        assert crypto.verify(
            ccu.cert_chain["ak"].subject_public_key,
            crypto.sign(privates[0], report_bytes),
            report_bytes,
        )

    def test_unprovisioned_flash_cannot_boot(self):
        ca = CaState()
        flash = CcuFlash(
            firmware_ca_public=ca.public()["firmware_ca"],
            batch_id="b",
            batch_secret=b"s" * 32,
            provisioning_nonce=b"n" * 16,
            device_serial="dev-x",
        )
        with pytest.raises(InvalidPhase, match="never sampled"):
            Ccu.boot(flash, firmware_variant(ca, "sb", "cce"))

    def test_first_boot_is_write_once(self):
        ca = CaState()
        flash = fresh_flash(ca)
        with pytest.raises(AlreadyProvisioned):
            flash.first_boot(os.urandom(32))

    def test_bootloader_signature_is_checked(self):
        from itx.ccu import FirmwareBundle, SignedImage

        ca = CaState()
        flash = fresh_flash(ca)
        good = firmware_variant(ca, "sb", "cce")
        evil = FirmwareBundle(
            secondary_bootloader=SignedImage(
                b"sb patched", good.secondary_bootloader.signature
            ),
            cce=good.cce,
            icu_measurement=good.icu_measurement,
            tile_bootloader=good.tile_bootloader,
        )
        with pytest.raises(FirmwareAuthFailure):
            Ccu.boot(flash, evil)

    def test_wrong_firmware_ca_is_rejected(self):
        ca = CaState()
        rogue = CaState()
        flash = fresh_flash(ca)
        with pytest.raises(FirmwareAuthFailure):
            Ccu.boot(flash, firmware_variant(rogue, "sb", "cce"))

    def test_hardened_boot_endorses_the_platform_key(self):
        ca = CaState()
        flash = fresh_flash(ca)
        firmware = firmware_variant(ca, "sb", "cce")

        plain = Ccu.boot(flash, firmware)
        assert plain.pik_endorsement is None

        ccu = Ccu.boot(flash, firmware, hardened=True)
        endorsement = ccu.pik_endorsement
        assert endorsement is not None
        assert endorsement["pik_public"] == ccu.cert_chain["pik"].subject_public_key
        assert endorsement["bootloader_measurement"] == ccu.measurements["bootloader"]
        message = endorsement["pik_public"] + bytes.fromhex(
            endorsement["bootloader_measurement"]
        )
        assert crypto.verify(
            ccu.cert_chain["cik"].subject_public_key, endorsement["signature"], message
        )
        # The endorsement does not transfer to a different bootloader's PIK.
        other = Ccu.boot(flash, firmware_variant(ca, "sb2", "cce"), hardened=True)
        assert other.pik_endorsement["pik_public"] != endorsement["pik_public"]

    def test_distinct_devices_have_distinct_identities(self):
        ca = CaState()
        firmware = firmware_variant(ca, "sb", "cce")
        one = Ccu.boot(fresh_flash(ca, b"\x01" * 32), firmware)
        two = Ccu.boot(fresh_flash(ca, b"\x02" * 32), firmware)
        assert (
            one.cert_chain["cik"].subject_public_key
            != two.cert_chain["cik"].subject_public_key
        )


# ---------------------------------------------------------------------------
# TEE lifecycle
# ---------------------------------------------------------------------------


def compiled_manifest(deployment, **overrides):
    job = JobDescription(
        kind="sgd",
        model_party="modelco",
        data_parties=("alpha", "beta"),
        steps=2,
        checkpoint_period=1,
    )
    kwargs = {
        "config": deployment.device.config,
        "bootloader_measurement": deployment.firmware.tile_bootloader_measurement(),
        "ipu_id": deployment.device.ipu_id,
    }
    kwargs.update(overrides)
    return compile_job(job, **kwargs)


def party_trio():
    return {name: PartyIdentity(name) for name in ("modelco", "alpha", "beta")}


def init_material(parties):
    """Fresh per-run sessions plus the three dicts tee_init consumes."""
    sessions = {name: identity.new_session() for name, identity in parties.items()}
    certs = {name: identity.certificate for name, identity in parties.items()}
    shares = {name: session.public for name, session in sessions.items()}
    sigs = {name: session.signature for name, session in sessions.items()}
    return sessions, certs, shares, sigs


def wrap_packages(parties, sessions, inputs, report, nonces=None, prior=None):
    """Each party wraps its stream keys to the attested device share."""
    manifest_hash = bytes.fromhex(report.manifest_measurement)
    nonces = nonces or {name: os.urandom(32) for name in parties}
    wrapped = {}
    for name in parties:
        package = KeyPackage(
            stream_keys=dict(inputs[name].keys),
            run_nonce=nonces[name],
            prior_run_nonce=(prior or {}).get(name),
        )
        wrapped[name] = sessions[name].wrap_keys(
            report.ccu_keyshare, manifest_hash, package
        )
    return wrapped, nonces


def fill_boot(deployment, manifest, inputs):
    """Host duty between init and launch: stage the code frames in the ring,
    back to back from the code region's base."""
    from itx.manifest import CODE

    entry = manifest.stream_of_kind(CODE)
    frames = inputs[entry.party].streams[entry.stream_id]
    for i, frame in enumerate(frames):
        deployment.device.ring_buffer.write(entry.region_base + i * entry.frame_total_size, frame)


@pytest.fixture()
def rig():
    """A racked device plus a compiled job and its parties' packaged inputs."""
    from itx.packaging import package_inputs

    deployment = make_deployment(seed=3)
    compiled = compiled_manifest(deployment)
    parties = party_trio()
    manifest = compiled.manifest
    model = (b"\x01\x00\x00\x00" * 192)
    grads = (b"\x02\x00\x00\x00" * 384)
    inputs = {
        "modelco": package_inputs(
            "modelco", manifest, binaries=compiled.binaries, data={2: model}
        ),
        "alpha": package_inputs("alpha", manifest, data={3: grads}),
        "beta": package_inputs("beta", manifest, data={4: grads}),
    }
    return deployment, compiled, parties, inputs


class TestTeeInit:
    def test_init_produces_a_verifiable_report(self, rig):
        deployment, compiled, parties, inputs = rig
        _, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        assert deployment.ccu.tee.phase == INITIALIZED
        assert report.verify(deployment.device_chain["ak"].subject_public_key)
        assert report.manifest_measurement == compiled.manifest.measurement()
        assert report.epoch == 0 and report.checkpoint_id == 0
        fingerprints = tuple(
            parties[name].fingerprint for name in sorted(parties)
        )
        assert report.party_fingerprints == fingerprints
        # Initialization quiesces the device into trusted mode.
        assert deployment.device.registers["trusted_mode"] == 1

    def test_init_twice_is_rejected(self, rig):
        deployment, compiled, parties, _ = rig
        _, certs, shares, sigs = init_material(parties)
        deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        with pytest.raises(InvalidPhase):
            deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)

    def test_manifest_for_another_device_is_rejected(self, rig):
        deployment, _, parties, _ = rig
        foreign = compiled_manifest(deployment, ipu_id=deployment.device.ipu_id + 1)
        _, certs, shares, sigs = init_material(parties)
        with pytest.raises(InvalidPhase, match="targets device"):
            deployment.ccu.tee_init(foreign.manifest, certs, shares, sigs)
        assert deployment.ccu.tee.phase == NO_TEE

    def test_manifest_for_another_device_geometry_is_rejected(self, rig):
        deployment, _, parties, _ = rig
        config = DeviceConfig(ring_buffer_size=2 * deployment.device.config.ring_buffer_size)
        foreign = compiled_manifest(deployment, config=config)
        _, certs, shares, sigs = init_material(parties)
        with pytest.raises(InvalidPhase, match="different device geometry"):
            deployment.ccu.tee_init(foreign.manifest, certs, shares, sigs)
        assert deployment.ccu.tee.phase == NO_TEE

    def test_manifest_with_wrong_tile_bootloader_is_rejected(self, rig):
        deployment, _, parties, _ = rig
        stale = compiled_manifest(
            deployment, bootloader_measurement=hashlib.sha256(b"old").hexdigest()
        )
        _, certs, shares, sigs = init_material(parties)
        with pytest.raises(InvalidPhase, match="tile bootloader"):
            deployment.ccu.tee_init(stale.manifest, certs, shares, sigs)

    def test_missing_share_signature_is_rejected(self, rig):
        deployment, compiled, parties, _ = rig
        _, certs, shares, sigs = init_material(parties)
        del sigs["beta"]
        with pytest.raises(PartyAuthFailure, match="missing"):
            deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)

    def test_forged_share_signature_is_rejected(self, rig):
        deployment, compiled, parties, _ = rig
        _, certs, shares, sigs = init_material(parties)
        imposter = PartyIdentity("beta")  # right name, wrong key
        sigs["beta"] = imposter.sign(shares["beta"])
        with pytest.raises(PartyAuthFailure, match="signature invalid"):
            deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)

    def test_failed_init_leaves_the_device_open(self, rig):
        deployment, compiled, parties, _ = rig
        _, certs, shares, sigs = init_material(parties)
        sigs["alpha"] = b"\x00" * 64
        with pytest.raises(PartyAuthFailure):
            deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        assert deployment.ccu.tee.phase == NO_TEE
        assert deployment.device.registers["trusted_mode"] == 0
        # A correct retry still works.
        _, certs, shares, sigs = init_material(parties)
        deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        assert deployment.ccu.tee.phase == INITIALIZED


class TestTeeLaunchAndKeys:
    def test_launch_derives_run_keys_parties_can_recompute(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        fill_boot(deployment, compiled.manifest, inputs)
        wrapped, nonces = wrap_packages(parties, sessions, inputs, report)
        deployment.ccu.tee_launch(wrapped)

        tee = deployment.ccu.tee
        assert tee.phase == LAUNCHED
        assert tee.k_save and tee.k_m and not tee.k_load
        by_fingerprint = {
            parties[name].fingerprint: nonce for name, nonce in nonces.items()
        }
        assert tee.k_m == pki.derive_model_key(by_fingerprint)
        assert tee.k_save == crypto.derive_checkpoint_key(
            crypto.combine_nonces(by_fingerprint)
        )

    def test_fresh_nonces_give_fresh_run_keys(self, rig):
        deployment, compiled, parties, inputs = rig
        keys = []
        for _ in range(2):
            sessions, certs, shares, sigs = init_material(parties)
            report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
            fill_boot(deployment, compiled.manifest, inputs)
            wrapped, _ = wrap_packages(parties, sessions, inputs, report)
            deployment.ccu.tee_launch(wrapped)
            keys.append((deployment.ccu.tee.k_m, deployment.ccu.tee.k_save))
            deployment.device.reset("sbr")
        assert keys[0][0] != keys[1][0]
        assert keys[0][1] != keys[1][1]

    def test_wrap_key_binds_the_manifest(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)
        # One party wrapped against a different manifest digest: the device
        # cannot unwrap, so no keys flow.
        package = KeyPackage(stream_keys=dict(inputs["alpha"].keys), run_nonce=os.urandom(32))
        wrapped["alpha"] = sessions["alpha"].wrap_keys(
            report.ccu_keyshare, os.urandom(32), package
        )
        with pytest.raises(KeyExchangeFailure, match="unwrap failed"):
            deployment.ccu.tee_launch(wrapped)

    def test_launch_requires_every_party(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)
        del wrapped["beta"]
        with pytest.raises(KeyExchangeFailure, match="per party"):
            deployment.ccu.tee_launch(wrapped)

    def test_launch_requires_a_key_for_every_input_stream(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        manifest_hash = bytes.fromhex(report.manifest_measurement)
        wrapped = {}
        for name in parties:
            keys = dict(inputs[name].keys)
            if name == "alpha":
                keys = {}  # alpha keeps its stream key back
            package = KeyPackage(stream_keys=keys, run_nonce=os.urandom(32))
            wrapped[name] = sessions[name].wrap_keys(
                report.ccu_keyshare, manifest_hash, package
            )
        with pytest.raises(KeyExchangeFailure, match="no party supplied a key"):
            deployment.ccu.tee_launch(wrapped)

    def test_resume_needs_every_prior_nonce(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(
            compiled.manifest, certs, shares, sigs, epoch=1, checkpoint_id=1
        )
        prior = {name: os.urandom(32) for name in parties}
        del prior["beta"]
        wrapped, _ = wrap_packages(parties, sessions, inputs, report, prior=prior)
        with pytest.raises(KeyExchangeFailure, match="prior nonce"):
            deployment.ccu.tee_launch(wrapped)

    @pytest.mark.parametrize("stream_id", [3, 6, 99], ids=["foreign", "output", "unknown"])
    def test_launch_rejects_a_key_for_a_stream_the_party_does_not_own(self, rig, stream_id):
        """modelco sends a key for alpha's input, for the output stream, or
        for a stream the manifest does not have."""
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        manifest_hash = bytes.fromhex(report.manifest_measurement)
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)
        keys = {**inputs["modelco"].keys, stream_id: b"\x5a" * 32}
        package = KeyPackage(stream_keys=keys, run_nonce=os.urandom(32))
        wrapped["modelco"] = sessions["modelco"].wrap_keys(
            report.ccu_keyshare, manifest_hash, package
        )
        with pytest.raises(KeyExchangeFailure, match=f"key for stream {stream_id}, not its input"):
            deployment.ccu.tee_launch(wrapped)
        assert not deployment.ccu.tee.stream_keys

    def test_any_boot_failure_terminates(self, rig, monkeypatch):
        """Once boot keys are loaded, even an unexpected error ends the TEE."""
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        fill_boot(deployment, compiled.manifest, inputs)
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)

        def broken(tile_id):
            raise RuntimeError("bootloader fault")

        monkeypatch.setattr(deployment.device, "run_bootloader", broken)
        with pytest.raises(RuntimeError):
            deployment.ccu.tee_launch(wrapped)
        assert deployment.ccu.tee.phase == TERMINATED
        assert deployment.device.registers["trusted_mode"] == 0
        assert not deployment.device.ingress.key_loaded(0)

    def test_failed_launch_terminates_cleanly(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        fill_boot(deployment, compiled.manifest, inputs)
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)
        del wrapped["beta"]
        with pytest.raises(KeyExchangeFailure):
            deployment.ccu.tee_launch(wrapped)
        # Still initialized (the failure happened before any keys landed);
        # a complete package set can still launch this TEE.
        assert deployment.ccu.tee.phase == INITIALIZED
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)
        deployment.ccu.tee_launch(wrapped)
        assert deployment.ccu.tee.phase == LAUNCHED


class TestTeePhases:
    def launch(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        fill_boot(deployment, compiled.manifest, inputs)
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)
        deployment.ccu.tee_launch(wrapped)
        return deployment

    def test_operations_demand_their_phase(self, rig):
        deployment = rig[0]
        with pytest.raises(InvalidPhase):
            deployment.ccu.tee_launch({})
        with pytest.raises(InvalidPhase):
            deployment.ccu.tee_load_keys()
        with pytest.raises(InvalidPhase):
            deployment.ccu.tee_checkpoint()
        with pytest.raises(InvalidPhase):
            deployment.ccu.tee_restore()
        with pytest.raises(InvalidPhase):
            deployment.ccu.tee_terminate("nothing to stop")

    def test_checkpoints_only_at_barriers_that_schedule_one(self, rig):
        deployment = self.launch(rig)
        assert deployment.device.barrier == 0
        assert not rig[1].manifest.plan(0)[0].checkpoint
        with pytest.raises(InvalidSyncPoint, match="barrier 0 schedules no checkpoint"):
            deployment.ccu.tee_checkpoint()
        assert deployment.ccu.tee.phase == LAUNCHED

    def test_restore_requires_a_resumption_epoch(self, rig):
        deployment = self.launch(rig)
        with pytest.raises(InvalidPhase, match="nonzero epoch"):
            deployment.ccu.tee_restore()

    def test_terminate_scrubs_and_reopens_the_device(self, rig):
        deployment = self.launch(rig)
        deployment.ccu.tee_terminate("operator stop")
        tee = deployment.ccu.tee
        assert tee.phase == TERMINATED
        assert tee.reason == "operator stop"
        assert not tee.stream_keys and not tee.k_m and not tee.k_save
        assert deployment.device.registers["trusted_mode"] == 0
        assert all(b == 0 for tile in deployment.device.tiles for b in tile.memory)
        with pytest.raises(InvalidPhase):
            deployment.ccu.tee_terminate("again")

    def test_device_reset_clears_tee_state(self, rig):
        deployment, compiled, parties, inputs = rig
        self.launch(rig)
        deployment.device.reset("sbr")
        assert deployment.ccu.tee.phase == NO_TEE
        # The same board can host a brand-new TEE afterwards.
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest, certs, shares, sigs)
        fill_boot(deployment, compiled.manifest, inputs)
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)
        deployment.ccu.tee_launch(wrapped)
        assert deployment.ccu.tee.phase == LAUNCHED

    def test_security_exception_latches_termination(self, rig):
        deployment = self.launch(rig)
        deployment.device.on_security("probe detected")
        assert deployment.ccu.tee.phase == TERMINATED
        assert "probe detected" in deployment.ccu.tee.reason
        assert deployment.device.registers["trusted_mode"] == 0
