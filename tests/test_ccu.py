"""Measured boot, TEE lifecycle, and run-key derivation in the board root of trust."""

import dataclasses
import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from itx import crypto, pki
from itx.attestation import KeyPackage
from itx.ccu import Ccu, CcuFlash, INITIALIZED, LAUNCHED, NO_TEE, TERMINATED
from itx.compiler import JobDescription, compile_job
from itx.device import MODE_NORMAL, TILE_COUNT, TILE_MEMORY, IpuDevice
from itx.errors import (
    AlreadyProvisioned,
    FirmwareAuthFailure,
    InvalidEncoding,
    InvalidIvField,
    InvalidPhase,
    InvalidRegisterProgram,
    ItxError,
    InvalidSyncPoint,
    KeyExchangeFailure,
    PartyAuthFailure,
)
from itx.manifest import CODE, JobManifest
from itx.pki import REJECT_MANIFEST, CaState, PartyIdentity
from itx.sandbox import make_deployment, make_firmware, make_sgd_fixture, update_firmware
from itx.sxp import SxpEngine
from test_compiler import SGD_GRID, SUM_GRID

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
    sid = manifest.stream_of_kind(CODE)
    frames = inputs[manifest.stream_table[sid].party].streams[sid]
    for i, frame in enumerate(frames):
        deployment.device.ring_buffer.write(manifest.frame_address(sid, i), frame)


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
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
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
        deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
        with pytest.raises(InvalidPhase):
            deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)

    def test_manifest_for_another_device_is_rejected(self, rig):
        deployment, _, parties, _ = rig
        foreign = compiled_manifest(deployment, ipu_id=deployment.device.ipu_id + 1)
        _, certs, shares, sigs = init_material(parties)
        with pytest.raises(InvalidPhase, match="targets device"):
            deployment.ccu.tee_init(foreign.manifest.to_bytes(), certs, shares, sigs)
        assert deployment.ccu.tee.phase == NO_TEE

    @pytest.mark.parametrize(
        "relayout",
        [lambda layouts: layouts[:15], lambda layouts: (*layouts, layouts[14])],
        ids=["tile-15-dropped", "tile-14-twice"],
    )
    def test_manifest_must_lay_out_each_device_tile_exactly_once(self, rig, relayout):
        deployment, compiled, parties, _ = rig
        manifest = dataclasses.replace(
            compiled.manifest, tile_layouts=relayout(compiled.manifest.tile_layouts)
        )
        _, certs, shares, sigs = init_material(parties)
        with pytest.raises(InvalidRegisterProgram, match="each device tile exactly once"):
            deployment.ccu.tee_init(manifest.to_bytes(), certs, shares, sigs)
        assert deployment.ccu.tee.phase == NO_TEE
        assert deployment.device.registers["trusted_mode"] == 0

    @pytest.mark.parametrize(
        "move",
        [
            (0, TILE_MEMORY - 6, 1, 0x2000, 16),
            (1, 0x2000, 0, TILE_MEMORY - 6, 16),
            (0, -16, 1, 0x2000, 16),
            (0, 0x2000, 1, 0x2000, -16),
            (TILE_COUNT, 0x2000, 1, 0x2000, 16),
            (0, 0x2000, -1, 0x2000, 16),
        ],
        ids=["source-past-the-end", "destination-past-the-end", "negative-offset", "negative-length",
             "tile-16", "tile-minus-1"],
    )
    def test_a_move_off_the_device_tiles_is_refused_before_trusted_mode(self, rig, move):
        deployment, compiled, parties, _ = rig
        first, *rest = compiled.manifest.plans
        plans = (dataclasses.replace(first, moves=(*first.moves, move)), *rest)
        manifest = dataclasses.replace(compiled.manifest, plans=plans)
        _, certs, shares, sigs = init_material(parties)
        with pytest.raises(InvalidRegisterProgram, match="leaves the device's tiles"):
            deployment.ccu.tee_init(manifest.to_bytes(), certs, shares, sigs)
        assert deployment.ccu.tee.phase == NO_TEE
        assert deployment.device.mode == MODE_NORMAL

    def test_every_compile_grid_manifest_is_accepted(self):
        deployment = make_deployment(seed=5)
        bootloader = deployment.firmware.tile_bootloader_measurement()
        for job in SGD_GRID + SUM_GRID:
            manifest = compile_job(job, bootloader_measurement=bootloader).manifest
            deployment.ccu.tee_init(manifest.to_bytes(), {}, {}, {})  # no party: only the manifest is judged
            deployment.device.reset("sbr")

    def test_manifest_with_wrong_tile_bootloader_is_rejected(self, rig):
        deployment, _, parties, _ = rig
        stale = compiled_manifest(
            deployment, bootloader_measurement=hashlib.sha256(b"old").hexdigest()
        )
        _, certs, shares, sigs = init_material(parties)
        with pytest.raises(InvalidPhase, match="tile bootloader"):
            deployment.ccu.tee_init(stale.manifest.to_bytes(), certs, shares, sigs)

    @pytest.mark.parametrize(
        "receivers, error, reason",
        [
            (("mallory",), InvalidRegisterProgram, "bad model receivers"),
            (("beta", "beta"), InvalidRegisterProgram, "bad model receivers"),
            (("modelco", "alpha"), InvalidRegisterProgram, "bad model receivers"),
            ((), InvalidRegisterProgram, "bad model receivers"),
            (("",), InvalidRegisterProgram, "bad model receivers"),
            ("modelco", InvalidEncoding, "JobManifest.model_receivers: expected an array"),
        ],
        ids=["not-an-owner", "repeated", "unsorted", "empty", "the-control-unit", "not-a-list"],
    )
    def test_manifest_with_a_bad_receiver_list_is_rejected(self, rig, receivers, error, reason):
        """The report does not restate the receivers: the control unit checks
        them with the rest of the manifest, before trusted mode is entered.
        A receiver list that is not a list of names does not decode."""
        deployment, compiled, parties, _ = rig
        manifest = dataclasses.replace(compiled.manifest, model_receivers=receivers)
        _, certs, shares, sigs = init_material(parties)
        with pytest.raises(error, match=reason):
            deployment.ccu.tee_init(manifest.to_bytes(), certs, shares, sigs)
        assert deployment.ccu.tee.phase == NO_TEE
        assert deployment.device.mode == MODE_NORMAL

    def test_missing_share_signature_is_rejected(self, rig):
        deployment, compiled, parties, _ = rig
        _, certs, shares, sigs = init_material(parties)
        del sigs["beta"]
        with pytest.raises(PartyAuthFailure, match="missing"):
            deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)

    def test_forged_share_signature_is_rejected(self, rig):
        deployment, compiled, parties, _ = rig
        _, certs, shares, sigs = init_material(parties)
        imposter = PartyIdentity("beta")  # right name, wrong key
        sigs["beta"] = imposter.sign(shares["beta"])
        with pytest.raises(PartyAuthFailure, match="signature invalid"):
            deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)

    def test_failed_init_leaves_the_device_open(self, rig):
        deployment, compiled, parties, _ = rig
        _, certs, shares, sigs = init_material(parties)
        sigs["alpha"] = b"\x00" * 64
        with pytest.raises(PartyAuthFailure):
            deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
        assert deployment.ccu.tee.phase == NO_TEE
        assert deployment.device.registers["trusted_mode"] == 0
        # A correct retry still works.
        _, certs, shares, sigs = init_material(parties)
        deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
        assert deployment.ccu.tee.phase == INITIALIZED

    @pytest.mark.parametrize(
        "epoch, checkpoint_id, accepted",
        [(254, 255, True), (255, 0, False), (-1, 0, False), (1, 256, False), (1, -1, False)],
    )
    def test_seeded_counters_must_fit_the_iv_fields(self, rig, epoch, checkpoint_id, accepted):
        """The start or the restore bumps the 8-bit epoch once, so 254 is the
        last epoch a run may be seeded with; a checkpoint id is 8 bits too."""
        deployment, compiled, parties, _ = rig
        _, certs, shares, sigs = init_material(parties)
        args = (compiled.manifest.to_bytes(), certs, shares, sigs, epoch, checkpoint_id)
        if accepted:
            assert deployment.ccu.tee_init(*args).epoch == epoch
            return
        with pytest.raises(InvalidIvField, match="seeded counters out of range"):
            deployment.ccu.tee_init(*args)
        assert deployment.ccu.tee.phase == NO_TEE
        assert deployment.device.mode == MODE_NORMAL


@pytest.fixture(scope="module")
def init_rig():
    """One device, its job's honest manifest bytes, and what honest parties
    expect the report to show for that job."""
    deployment = make_deployment(seed=11)
    manifest = compiled_manifest(deployment).manifest
    parties = party_trio()
    expected = {
        "manifest_measurement": manifest.measurement(),
        "party_fingerprints": tuple(parties[name].fingerprint for name in sorted(parties)),
        "epoch": 0,
        "checkpoint_id": 0,
    }
    return deployment, manifest.to_bytes(), parties, expected


def init_or_refuse(init_rig, blob: bytes) -> None:
    """``tee_init`` on ``blob`` either refuses it with a typed error before
    the device leaves normal mode, or attests exactly these bytes, which
    honest parties then reject as another manifest."""
    deployment, honest, parties, expected = init_rig
    ccu, device = deployment.ccu, deployment.device
    _, certs, shares, sigs = init_material(parties)
    try:
        report = ccu.tee_init(blob, certs, shares, sigs)
    except ItxError:
        assert ccu.tee.phase == NO_TEE and device.mode == MODE_NORMAL
        return
    try:
        assert report.manifest_measurement == hashlib.sha256(blob).hexdigest()
        evidence = (deployment.device_chain, deployment.ca_public(), deployment.tcb_certs())
        verdict = pki.verify_attestation(report, *evidence, expected)
        assert verdict.accepted == (blob == honest) and verdict.reason in ("ok", REJECT_MANIFEST)
    finally:
        device.reset("sbr")  # the coupled reset pins clear the TEE for the next blob


@st.composite
def damaged(draw, honest: bytes) -> bytes:
    """Random bytes, or the honest bytes cut short, with one byte flipped, or
    with one byte made non-ASCII."""
    kind = draw(st.sampled_from(["random", "cut", "flip", "non-ascii"]))
    if kind == "random":
        return draw(st.binary(max_size=512))
    at = draw(st.integers(0, len(honest) - 1))
    blob = bytearray(honest[:at] if kind == "cut" else honest)
    if kind == "flip":
        blob[at] ^= draw(st.integers(1, 255))
    elif kind == "non-ascii":
        blob[at] = draw(st.integers(0x80, 0xFF))
    return bytes(blob)


class TestTeeInitOnUntrustedBytes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_damaged_manifest_bytes_are_refused_or_attested_as_another_manifest(self, init_rig, data):
        init_or_refuse(init_rig, data.draw(damaged(init_rig[1])))

    def test_nesting_too_deep_to_parse_is_refused(self, init_rig):
        with pytest.raises(InvalidEncoding):
            init_rig[0].ccu.tee_init(b"[" * 100_000, {}, {}, {})
        init_or_refuse(init_rig, b"[" * 100_000)

    def test_the_honest_bytes_are_accepted(self, init_rig):
        init_or_refuse(init_rig, init_rig[1])


def counted_admissions(monkeypatch) -> list[str]:
    """One entry per manifest decode (``decode``) and per image derivation
    (``derive``) from here on, in call order."""
    calls, from_bytes, derive = [], JobManifest.from_bytes, JobManifest.validated_images
    monkeypatch.setattr(JobManifest, "from_bytes", staticmethod(lambda blob: calls.append("decode") or from_bytes(blob)))
    monkeypatch.setattr(JobManifest, "validated_images", lambda self: calls.append("derive") or derive(self))
    return calls


def booted(deployment) -> Ccu:
    """A control unit that has admitted nothing, on a device of its own."""
    ccu = Ccu.boot(deployment.flash, deployment.firmware)
    ccu.attach_device(IpuDevice(ipu_id=deployment.device.ipu_id))
    return ccu


@pytest.fixture(scope="module")
def memo_rig(init_rig):
    """The honest bytes, the three dicts ``tee_init`` consumes, and a control
    unit that remembers what it admitted across the examples of a test."""
    deployment, honest, parties, _ = init_rig
    material = init_material(parties)[1:]
    return deployment, honest, material, booted(deployment)


def outcome(ccu: Ccu, blob: bytes, material) -> tuple:
    """What ``tee_init`` makes of ``blob``: its typed error, or what its
    report attests; a device reset then clears the TEE."""
    try:
        report = ccu.tee_init(blob, *material)
    except ItxError as exc:
        assert ccu.tee.phase == NO_TEE and ccu.device.mode == MODE_NORMAL
        return type(exc), str(exc)
    ccu.device.reset("sbr")
    return report.manifest_measurement, report.register_measurement, report.party_fingerprints


class TestAdmittedManifestMemo:
    """A control unit remembers the manifest it last admitted (its bytes'
    digest, its decoded copy and its images) and reuses them for the same
    bytes, across device resets.  Everything else ``tee_init`` checks is
    checked again, and nothing it remembers can be changed in place."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_after_the_honest_bytes_each_damaged_blob_gets_the_fresh_outcome(self, memo_rig, data):
        deployment, honest, material, remembered = memo_rig
        blob = data.draw(damaged(honest))
        assert outcome(remembered, honest, material)[0] == hashlib.sha256(honest).hexdigest()
        assert outcome(remembered, blob, material) == outcome(booted(deployment), blob, material)

    @pytest.mark.parametrize("refusal", ["another-device", "another-bootloader", "forged-share"])
    def test_refused_bytes_are_not_remembered(self, memo_rig, monkeypatch, refusal):
        """Refused twice, then admitted twice, then refused and admitted
        again: refused bytes decode each time, the honest bytes once, and a
        refusal leaves them remembered.  A forged share is refused on the
        honest bytes: before they are admitted it decodes them, after it
        does not, and it is still refused."""
        deployment, honest, material, _ = memo_rig
        refused, refused_material, want = honest, material, InvalidPhase
        if refusal == "forged-share":
            certs, shares, sigs = material
            refused_material, want = (certs, shares, {**sigs, "alpha": bytes(64)}), PartyAuthFailure
        else:
            overrides = {"ipu_id": 7} if refusal == "another-device" else {"bootloader_measurement": "00" * 32}
            refused = compiled_manifest(deployment, **overrides).manifest.to_bytes()
        ccu, calls, decodes = booted(deployment), counted_admissions(monkeypatch), []
        for admissible in (False, False, True, True, False, True):
            first = len(calls)
            result = outcome(ccu, honest, material) if admissible else outcome(ccu, refused, refused_material)
            assert (result[0] is want) != admissible, result
            decodes.append(calls[first:].count("decode"))
        assert decodes == [1, 1, 1, 0, int(refused != honest), 0]

    def test_the_remembered_copy_cannot_be_changed_in_place(self, rig):
        """Through the control unit's copy or the device's, which is the same."""
        deployment, compiled = TestTeePhases().launch(rig), rig[1]
        manifest, entry = deployment.ccu.tee.manifest, compiled.manifest.stream_table[3]
        assert deployment.device.manifest is manifest
        with pytest.raises(TypeError):
            manifest.stream_table[3] = dataclasses.replace(entry, region_frames=entry.region_frames + 1)
        with pytest.raises(TypeError):
            manifest.schedule[0][1][3] = 1
        with pytest.raises(TypeError):
            deployment.ccu.tee.images[manifest.keyed(0)] = deployment.ccu.tee.images[manifest.keyed(1)]

    def test_a_halted_job_resumed_on_a_reset_device_decodes_and_derives_once(self, monkeypatch):
        fixture = make_sgd_fixture(steps=4, checkpoint_period=1)
        calls = counted_admissions(monkeypatch)
        assert fixture.session.run(halt_after_checkpoint=2).status == "halted"
        fixture.deployment.device.reset("sbr")
        assert fixture.session.resume().completed
        assert calls == ["decode", "derive"]

    def test_a_firmware_update_remembers_nothing(self, memo_rig, monkeypatch):
        """The updated firmware's control unit decodes the bytes its
        predecessor admitted, and refuses them for their tile bootloader."""
        _, honest, material, _ = memo_rig
        deployment = make_deployment(seed=11)
        outcome(deployment.ccu, honest, material)
        calls = counted_admissions(monkeypatch)
        assert outcome(deployment.ccu, honest, material)[0] == hashlib.sha256(honest).hexdigest()
        assert calls == []
        updated = update_firmware(deployment, "2")
        assert outcome(updated.ccu, honest, material) == (InvalidPhase, "manifest names a different tile bootloader")
        assert calls == ["decode", "derive"]


class TestTeeLaunchAndKeys:
    def test_launch_derives_run_keys_parties_can_recompute(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
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
            report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
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
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
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
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)
        del wrapped["beta"]
        with pytest.raises(KeyExchangeFailure, match="per party"):
            deployment.ccu.tee_launch(wrapped)

    def test_launch_requires_a_key_for_every_input_stream(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
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
            compiled.manifest.to_bytes(), certs, shares, sigs, epoch=1, checkpoint_id=1
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
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
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
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
        fill_boot(deployment, compiled.manifest, inputs)
        wrapped, _ = wrap_packages(parties, sessions, inputs, report)

        def broken(tile_id):
            raise RuntimeError("bootloader fault")

        monkeypatch.setattr(deployment.device, "run_bootloader", broken)
        with pytest.raises(RuntimeError):
            deployment.ccu.tee_launch(wrapped)
        assert deployment.ccu.tee.phase == TERMINATED
        assert deployment.ccu.tee.reason == "launch failed: bootloader fault"
        assert deployment.device.registers["trusted_mode"] == 0
        assert deployment.device.ingress.contexts[0].aead is None

    def test_failed_launch_terminates_cleanly(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
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

    @staticmethod
    def halted_once():
        """A 3-step SGD job halted after its first checkpoint, on a reset device."""
        fixture = make_sgd_fixture(steps=3, checkpoint_period=1)
        assert fixture.session.run(halt_after_checkpoint=1).status == "halted"
        fixture.deployment.device.reset("sbr")
        return fixture

    def test_a_resumed_tee_holds_no_key_after_launch(self, monkeypatch):
        """Barrier 0's interval never runs on a resume: the restore keys the
        barrier it re-parks the tiles at instead."""
        fixture = self.halted_once()
        ccu, device = fixture.deployment.ccu, fixture.deployment.device
        held, launch = [], ccu.tee_launch

        def tee_launch(packages):
            launch(packages)
            held.append({(e.name, c.index) for e in (device.ingress, device.egress) for c in e.contexts if c.aead})

        monkeypatch.setattr(ccu, "tee_launch", tee_launch)
        assert fixture.session.resume().completed
        assert held == [set()]

    def test_a_resume_loads_the_code_the_checkpoint_and_the_restored_barrier_s_keys(self, monkeypatch):
        fixture = self.halted_once()
        ccu, manifest = fixture.deployment.ccu, fixture.compiled.manifest
        owned = {key: f"stream {sid}" for inputs in fixture.inputs.values() for sid, key in inputs.keys.items()}
        loads, restored, load_key, restore = [], [], SxpEngine.load_key, ccu.tee_restore
        monkeypatch.setattr(SxpEngine, "load_key",
                            lambda engine, ctx, key: loads.append(owned.get(key, "its own")) or load_key(engine, ctx, key))
        monkeypatch.setattr(ccu, "tee_restore", lambda: restored.append((restore(), len(loads))) or restored[0][0])
        assert fixture.session.resume().completed
        (barrier, until_restored), = restored
        streams = [f"stream {sid}" if f"stream {sid}" in owned.values() else "its own"
                   for sid in sorted(manifest.schedule[barrier][1])]
        assert loads[:until_restored] == [f"stream {manifest.stream_of_kind(CODE)}", "its own", *streams]
        assert "stream 2" not in loads  # the weights stream, keyed at barrier 0 alone


class TestTeePhases:
    def launch(self, rig):
        deployment, compiled, parties, inputs = rig
        sessions, certs, shares, sigs = init_material(parties)
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
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

    def test_no_keys_load_for_tiles_parked_at_no_barrier(self, rig):
        """As once the programs have ended: the control unit keys only the
        barrier the device names, and here it names none."""
        deployment = self.launch(rig)
        deployment.device.barrier = None
        with pytest.raises(InvalidPhase, match="not parked"):
            deployment.ccu.tee_load_keys()
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
        report = deployment.ccu.tee_init(compiled.manifest.to_bytes(), certs, shares, sigs)
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
