"""Relying-party attestation verification, TCB updates, and supply-chain gates.

The heart of this suite is a mutation corpus: one pristine body of evidence
(report, device certificate chain, CA roots, TCB certificates, expectations)
and dozens of single-field corruptions of it, each of which must be rejected
with the reason code naming the check that caught it.
"""

import copy
import dataclasses
import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Any

import pytest

from itx import crypto, pki
from itx.attestation import AttestationReport, KeyPackage, Verdict
from itx.ccu import Ccu, CcuFlash
from itx.certs import Certificate
from itx.compiler import JobDescription, compile_job
from itx.errors import InvalidShare, SupplyChainReject
from itx.pki import (
    COMPONENT_BOOTLOADER,
    COMPONENT_ICU,
    CaState,
    Party,
    PartyIdentity,
    REJECT_CHAIN,
    REJECT_CIK_MISMATCH,
    REJECT_MANIFEST,
    REJECT_REGISTERS,
    REJECT_REPORT_SIGNATURE,
    REJECT_REVOKED,
    REJECT_TCB_BOOTLOADER,
    REJECT_TCB_ICU,
    TcbUpdateCertificate,
    verify_attestation,
)
from itx.sandbox import make_deployment, update_firmware


def flip(blob: bytes, index: int = 0) -> bytes:
    out = bytearray(blob)
    out[index] ^= 0x01
    return bytes(out)


# ---------------------------------------------------------------------------
# pristine evidence
# ---------------------------------------------------------------------------


@dataclass
class Evidence:
    """Everything a relying party examines, in mutable copies."""

    report: AttestationReport
    chain: dict[str, Certificate]
    ca: dict[str, Any]
    tcb: list[TcbUpdateCertificate]
    expected: dict[str, Any]

    def verdict(self) -> Verdict:
        return verify_attestation(self.report, self.chain, self.ca, self.tcb, self.expected)


class EvidenceFactory:
    """Builds one real attested run and hands out fresh copies of it."""

    def __init__(self) -> None:
        self.deployment = make_deployment(seed=7)
        self.job = JobDescription(
            kind="sgd",
            model_party="modelco",
            data_parties=("alpha", "beta"),
            steps=2,
            checkpoint_period=1,
        )
        self.manifest = self.compiled_for()
        # The same job compiled for another tile bootloader, or for other
        # model receivers: the report states neither fact but the
        # measurement of the manifest that holds it.
        self.other_bootloader = self.compiled_for(bootloader_measurement=hashlib.sha256(b"other").hexdigest())
        self.other_receivers = self.compiled_for(model_receivers=("alpha", "modelco"))
        self.parties = {name: PartyIdentity(name) for name in ("modelco", "alpha", "beta")}
        sessions = {name: p.new_session() for name, p in self.parties.items()}
        self.report = self.deployment.ccu.tee_init(
            self.manifest.to_bytes(),
            {name: p.certificate for name, p in self.parties.items()},
            {name: s.public for name, s in sessions.items()},
            {name: s.signature for name, s in sessions.items()},
        )
        self.ak_private = self.deployment.ccu._ak_private  # a compromised device would hold this
        self.expected = {
            "manifest_measurement": self.manifest.measurement(),
            "party_fingerprints": tuple(
                self.parties[name].fingerprint for name in sorted(self.parties)
            ),
            "epoch": 0,
            "checkpoint_id": 0,
        }

    def compiled_for(self, bootloader_measurement: str = "", **job_changes):
        """The factory's job compiled for its device; ``bootloader_measurement``
        defaults to the tile bootloader the device runs."""
        return compile_job(
            replace(self.job, **job_changes),
            bootloader_measurement=bootloader_measurement
            or self.deployment.firmware.tile_bootloader_measurement(),
            ipu_id=self.deployment.device.ipu_id,
        ).manifest

    def evidence(self) -> Evidence:
        return Evidence(
            report=self.report,
            chain=dict(self.deployment.device_chain),
            ca=copy.deepcopy(self.deployment.ca_public()),
            tcb=list(self.deployment.tcb_certs()),
            expected=copy.deepcopy(self.expected),
        )

    def resigned(self, **changes) -> AttestationReport:
        """A report altered and re-signed with the device's own AK."""
        body = replace(self.report, signature=b"", **changes)
        return replace(body, signature=crypto.sign(self.ak_private, body.body_bytes()))


@pytest.fixture(scope="module")
def factory():
    return EvidenceFactory()


# ---------------------------------------------------------------------------
# the mutation corpus
# ---------------------------------------------------------------------------


def build_corpus(factory: EvidenceFactory):
    """(label, expected reason, mutator) rows, each a single-field corruption."""
    rows: list[tuple[str, str, Any]] = []

    def row(label: str, reason: str):
        def register(fn):
            rows.append((label, reason, fn))
            return fn

        return register

    def cert_edit(e: Evidence, name: str, **changes) -> None:
        e.chain[name] = dataclasses.replace(e.chain[name], **changes)

    # -- certificate chain ---------------------------------------------------

    @row("cik signature bit flipped", REJECT_CHAIN)
    def _(e):
        cert_edit(e, "cik", signature=flip(e.chain["cik"].signature))

    @row("pik signature bit flipped", REJECT_CHAIN)
    def _(e):
        cert_edit(e, "pik", signature=flip(e.chain["pik"].signature))

    @row("ak signature bit flipped", REJECT_CHAIN)
    def _(e):
        cert_edit(e, "ak", signature=flip(e.chain["ak"].signature))

    @row("pik subject key replaced", REJECT_CHAIN)
    def _(e):
        cert_edit(e, "pik", subject_public_key=os.urandom(32))

    @row("ak subject key replaced", REJECT_CHAIN)
    def _(e):
        cert_edit(e, "ak", subject_public_key=os.urandom(32))

    @row("pik and ak certificates swapped", REJECT_CHAIN)
    def _(e):
        e.chain["pik"], e.chain["ak"] = e.chain["ak"], e.chain["pik"]

    @row("pik from a different device", REJECT_CHAIN)
    def _(e):
        other = make_deployment(seed=99)
        e.chain["pik"] = other.device_chain["pik"]

    @row("pik bootloader extension edited", REJECT_CHAIN)
    def _(e):
        exts = dict(e.chain["pik"].extensions)
        exts["bootloader_measurement"] = hashlib.sha256(b"evil").hexdigest()
        cert_edit(e, "pik", extensions=exts)

    @row("pik icu extension edited", REJECT_CHAIN)
    def _(e):
        exts = dict(e.chain["pik"].extensions)
        exts["icu_measurement"] = hashlib.sha256(b"evil").hexdigest()
        cert_edit(e, "pik", extensions=exts)

    # -- revocation ----------------------------------------------------------

    for name in ("cik", "pik", "ak"):

        @row(f"{name} certificate revoked", REJECT_REVOKED)
        def _(e, name=name):
            e.ca["revoked_certs"].append(e.chain[name].fingerprint)

    @row("ca card certificate revoked", REJECT_REVOKED)
    def _(e):
        e.ca["revoked_certs"].append(e.chain["ca_cik"].fingerprint)

    # -- card identity vs the CA ---------------------------------------------

    @row("ca card certificate missing", REJECT_CIK_MISMATCH)
    def _(e):
        del e.chain["ca_cik"]

    @row("ca card certificate signature flipped", REJECT_CIK_MISMATCH)
    def _(e):
        cert_edit(e, "ca_cik", signature=flip(e.chain["ca_cik"].signature))

    @row("ca card certificate for a different card", REJECT_CIK_MISMATCH)
    def _(e):
        sibling = make_deployment(seed=98, ca=factory.deployment.ca)
        e.chain["ca_cik"] = sibling.device_chain["ca_cik"]

    @row("verifier holds a different cik root", REJECT_CIK_MISMATCH)
    def _(e):
        e.ca["cik_ca"] = crypto.public_bytes(crypto.ed25519_generate())

    # -- TCB endorsement -----------------------------------------------------

    def drop_component(e: Evidence, component: str) -> None:
        e.tcb = [c for c in e.tcb if c.component != component]

    def break_component(e: Evidence, component: str, **changes) -> None:
        e.tcb = [
            dataclasses.replace(c, **changes) if c.component == component else c
            for c in e.tcb
        ]

    @row("no bootloader TCB certificate", REJECT_TCB_BOOTLOADER)
    def _(e):
        drop_component(e, COMPONENT_BOOTLOADER)

    @row("bootloader TCB certificate forged", REJECT_TCB_BOOTLOADER)
    def _(e):
        break_component(
            e, COMPONENT_BOOTLOADER, signature=os.urandom(64)
        )

    @row("bootloader TCB names another measurement", REJECT_TCB_BOOTLOADER)
    def _(e):
        break_component(
            e, COMPONENT_BOOTLOADER, new_measurement=hashlib.sha256(b"other").hexdigest()
        )

    @row("bootloader measurement revoked", REJECT_TCB_BOOTLOADER)
    def _(e):
        measurement = e.chain["pik"].extensions["bootloader_measurement"]
        e.ca["revoked_tcb"].append((COMPONENT_BOOTLOADER, measurement))

    @row("no icu TCB certificate", REJECT_TCB_ICU)
    def _(e):
        drop_component(e, COMPONENT_ICU)

    @row("icu TCB certificate forged", REJECT_TCB_ICU)
    def _(e):
        break_component(e, COMPONENT_ICU, signature=os.urandom(64))

    @row("icu TCB names another measurement", REJECT_TCB_ICU)
    def _(e):
        break_component(
            e, COMPONENT_ICU, new_measurement=hashlib.sha256(b"other").hexdigest()
        )

    @row("icu measurement revoked", REJECT_TCB_ICU)
    def _(e):
        measurement = e.chain["pik"].extensions["icu_measurement"]
        e.ca["revoked_tcb"].append((COMPONENT_ICU, measurement))

    # -- report authenticity -------------------------------------------------

    @row("report signature bit flipped", REJECT_REPORT_SIGNATURE)
    def _(e):
        e.report = replace(e.report, signature=flip(e.report.signature))

    @row("report signature zeroed", REJECT_REPORT_SIGNATURE)
    def _(e):
        e.report = replace(e.report, signature=b"\x00" * 64)

    @row("report signed by a non-attestation key", REJECT_REPORT_SIGNATURE)
    def _(e):
        rogue = crypto.ed25519_generate()
        e.report = replace(
            e.report, signature=crypto.sign(rogue, e.report.body_bytes())
        )

    field_tampers = {
        "register_measurement": "f" * 64,
        "manifest_measurement": "f" * 64,
        "ccu_keyshare": os.urandom(32),
        "epoch": 3,
        "checkpoint_id": 5,
        "party_fingerprints": ("f" * 64,),
    }
    for field_name, bad_value in field_tampers.items():

        @row(f"report {field_name} edited without re-signing", REJECT_REPORT_SIGNATURE)
        def _(e, field_name=field_name, bad_value=bad_value):
            e.report = replace(e.report, **{field_name: bad_value})

    # -- re-signed lies (a compromised device's own AK) ----------------------

    @row("re-signed report names another manifest", REJECT_MANIFEST)
    def _(e):
        e.report = factory.resigned(manifest_measurement="e" * 64)

    @row("re-signed report with another epoch", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        e.report = factory.resigned(epoch=1)

    @row("re-signed report with another checkpoint", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        e.report = factory.resigned(checkpoint_id=2)

    @row("re-signed report reorders the parties", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        e.report = factory.resigned(
            party_fingerprints=tuple(reversed(factory.report.party_fingerprints))
        )

    @row("re-signed report omits a party", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        e.report = factory.resigned(party_fingerprints=factory.report.party_fingerprints[1:])

    @row("re-signed report names an extra party", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        extra = PartyIdentity("mallory").fingerprint
        e.report = factory.resigned(party_fingerprints=(*factory.report.party_fingerprints, extra))

    @row("re-signed report names the manifest for other receivers", REJECT_MANIFEST)
    def _(e):
        e.report = factory.resigned(manifest_measurement=factory.other_receivers.measurement())

    @row("re-signed report advances both counters", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        e.report = factory.resigned(epoch=1, checkpoint_id=1)

    @row("re-signed report with other register state", REJECT_REGISTERS)
    def _(e):
        e.report = factory.resigned(register_measurement="e" * 64)

    @row("re-signed report names the manifest for another tile bootloader", REJECT_MANIFEST)
    def _(e):
        e.report = factory.resigned(manifest_measurement=factory.other_bootloader.measurement())

    # -- expectation side ----------------------------------------------------

    @row("party expected a different manifest", REJECT_MANIFEST)
    def _(e):
        e.expected["manifest_measurement"] = "d" * 64

    @row("party expected another party set", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        fps = list(e.expected["party_fingerprints"])
        fps[0] = "d" * 64
        e.expected["party_fingerprints"] = tuple(fps)

    @row("party expected a different party order", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        e.expected["party_fingerprints"] = tuple(
            reversed(e.expected["party_fingerprints"])
        )

    @row("party expected the manifest for other receivers", REJECT_MANIFEST)
    def _(e):
        e.expected["manifest_measurement"] = factory.other_receivers.measurement()

    @row("party expected a different epoch", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        e.expected["epoch"] = 1

    @row("party expected a different checkpoint", pki.REJECT_RUN_ATTRIBUTES)
    def _(e):
        e.expected["checkpoint_id"] = 1

    @row("party expected the manifest for another tile bootloader", REJECT_MANIFEST)
    def _(e):
        e.expected["manifest_measurement"] = factory.other_bootloader.measurement()

    return rows


class TestMutationCorpus:
    def test_pristine_evidence_is_accepted(self, factory):
        verdict = factory.evidence().verdict()
        assert verdict.accepted and verdict.reason == "ok"

    def test_every_mutation_is_rejected_for_the_right_reason(self, factory):
        corpus = build_corpus(factory)
        assert len(corpus) >= 50  # breadth requirement for the corpus

        failures = []
        for label, want, mutate in corpus:
            evidence = factory.evidence()
            mutate(evidence)
            verdict = evidence.verdict()
            if verdict.accepted:
                failures.append(f"{label}: accepted, wanted reject({want})")
            elif verdict.reason != want:
                failures.append(f"{label}: rejected({verdict.reason}), wanted {want}")
        assert not failures, "\n".join(failures)

    def test_mutations_do_not_contaminate_each_other(self, factory):
        """The factory hands out independent copies: after the whole corpus
        has run, pristine evidence still verifies."""
        for _, _, mutate in build_corpus(factory):
            mutate(factory.evidence())
        assert factory.evidence().verdict().accepted

    LIES = {
        "manifest_measurement": "e" * 64,
        "party_fingerprints": ("e" * 64,),
        "epoch": 1,
        "checkpoint_id": 1,
    }

    @pytest.mark.parametrize(
        "part, field",
        [*(("expected", key) for key in LIES), ("ca", "revoked_certs"), ("ca", "revoked_tcb")],
    )
    def test_a_missing_expectation_or_revocation_list_never_accepts(self, factory, part, field):
        """Evidence that lacks a field is an error, not a skipped check: not
        even a report that only the missing expectation would reject (one
        re-signed with the device's AK) is accepted."""
        e = factory.evidence()
        if part == "expected":
            e.report = factory.resigned(**{field: self.LIES[field]})
        del getattr(e, part)[field]
        with pytest.raises(KeyError):
            e.verdict()


# ---------------------------------------------------------------------------
# TCB updates
# ---------------------------------------------------------------------------


def attested_evidence(deployment):
    """Boot-fresh evidence for a deployment: init a TEE and collect the lot."""
    compiled = compile_job(
        JobDescription(
            kind="sgd",
            model_party="modelco",
            data_parties=("alpha", "beta"),
            steps=2,
            checkpoint_period=1,
        ),
        bootloader_measurement=deployment.firmware.tile_bootloader_measurement(),
        ipu_id=deployment.device.ipu_id,
    )
    parties = {name: PartyIdentity(name) for name in ("modelco", "alpha", "beta")}
    sessions = {name: p.new_session() for name, p in parties.items()}
    report = deployment.ccu.tee_init(
        compiled.manifest.to_bytes(),
        {name: p.certificate for name, p in parties.items()},
        {name: s.public for name, s in sessions.items()},
        {name: s.signature for name, s in sessions.items()},
    )
    expected = {
        "manifest_measurement": compiled.manifest.measurement(),
        "party_fingerprints": tuple(parties[n].fingerprint for n in sorted(parties)),
        "epoch": 0,
        "checkpoint_id": 0,
    }
    return Evidence(
        report=report,
        chain=dict(deployment.device_chain),
        ca=deployment.ca_public(),
        tcb=deployment.tcb_certs(),
        expected=expected,
    )


class TestTcbUpdate:
    def test_updated_firmware_verifies_with_the_update_certificate(self):
        deployment = make_deployment(seed=21)
        updated = update_firmware(deployment, "2")
        evidence = attested_evidence(updated)
        assert evidence.verdict().accepted

        # Identity is continuous; the platform key is not.
        assert (
            updated.device_chain["cik"].subject_public_key
            == deployment.device_chain["cik"].subject_public_key
        )
        assert (
            updated.device_chain["pik"].subject_public_key
            != deployment.device_chain["pik"].subject_public_key
        )

    def test_updated_firmware_fails_without_the_update_certificate(self):
        deployment = make_deployment(seed=22)
        new_measurement = None
        updated = update_firmware(deployment, "2")
        new_measurement = updated.ccu.measurements["bootloader"]
        evidence = attested_evidence(updated)
        evidence.tcb = [
            c
            for c in evidence.tcb
            if not (
                c.component == COMPONENT_BOOTLOADER
                and c.new_measurement == new_measurement
            )
        ]
        verdict = evidence.verdict()
        assert not verdict.accepted and verdict.reason == REJECT_TCB_BOOTLOADER

    def test_revoking_update_rejects_the_old_firmware(self):
        deployment = make_deployment(seed=23)
        old_evidence = attested_evidence(deployment)
        assert old_evidence.verdict().accepted

        deployment.device.reset("sbr")  # the old TEE is torn down pre-update
        updated = update_firmware(deployment, "2", revoke_old=True)

        # Old evidence re-examined against the CA's current state: the
        # superseded bootloader measurement is now revoked.
        stale = Evidence(
            report=old_evidence.report,
            chain=old_evidence.chain,
            ca=updated.ca_public(),
            tcb=updated.tcb_certs(),
            expected=old_evidence.expected,
        )
        verdict = stale.verdict()
        assert not verdict.accepted and verdict.reason == REJECT_TCB_BOOTLOADER


# ---------------------------------------------------------------------------
# supply-chain provisioning
# ---------------------------------------------------------------------------


def manufacture(ca: CaState, batch_id: str = "batch-p"):
    secret = ca.batch_secrets.get(batch_id) or ca.new_batch(batch_id)
    flash = CcuFlash(
        firmware_ca_public=ca.public()["firmware_ca"],
        batch_id=batch_id,
        batch_secret=secret,
        provisioning_nonce=os.urandom(16),
        device_serial="dev-prov",
    )
    flash.first_boot(os.urandom(32))
    from itx.sandbox import make_firmware

    ccu = Ccu.boot(flash, make_firmware(ca))
    return flash, ccu, ccu.provisioning_bundle(flash)


class TestProvisioning:
    def test_honest_device_is_certified(self):
        ca = CaState()
        flash, ccu, bundle = manufacture(ca)
        issued = ca.ca_provision_and_certify(
            bundle["csr"], bundle["bootloader_manifest"], flash.provisioning_nonce
        )
        assert issued["cik"].subject_public_key == ccu.cert_chain["cik"].subject_public_key
        assert issued["cik"].verify(ca.public()["cik_ca"])
        assert issued["pik"].verify(ca.public()["pik_ca"])
        # Genesis TCB coverage for what the device actually runs.
        covered = {(c.component, c.new_measurement) for c in ca.tcb_certs}
        assert (COMPONENT_BOOTLOADER, ccu.measurements["bootloader"]) in covered
        assert (COMPONENT_ICU, ccu.measurements["icu"]) in covered

    def test_unknown_batch_is_rejected(self):
        ca = CaState()
        flash, _, bundle = manufacture(ca)
        bundle["bootloader_manifest"]["body"]["batch_id"] = "ghost"
        with pytest.raises(SupplyChainReject, match="unknown batch"):
            ca.ca_provision_and_certify(
                bundle["csr"], bundle["bootloader_manifest"], flash.provisioning_nonce
            )

    def test_bad_batch_mac_is_rejected(self):
        ca = CaState()
        flash, _, bundle = manufacture(ca)
        bundle["bootloader_manifest"]["batch_mac"] = "0" * 64
        with pytest.raises(SupplyChainReject, match="not authenticated"):
            ca.ca_provision_and_certify(
                bundle["csr"], bundle["bootloader_manifest"], flash.provisioning_nonce
            )

    def test_replayed_nonce_is_rejected(self):
        ca = CaState()
        flash, _, bundle = manufacture(ca)
        with pytest.raises(SupplyChainReject, match="nonce"):
            ca.ca_provision_and_certify(
                bundle["csr"], bundle["bootloader_manifest"], os.urandom(16)
            )

    def test_substituted_csr_is_rejected(self):
        ca = CaState()
        flash, _, bundle = manufacture(ca)
        rogue = crypto.public_bytes(crypto.ed25519_generate())
        bundle["csr"]["cik_public"] = rogue  # swap in an attacker key
        with pytest.raises(SupplyChainReject, match="CSR"):
            ca.ca_provision_and_certify(
                bundle["csr"], bundle["bootloader_manifest"], flash.provisioning_nonce
            )


# ---------------------------------------------------------------------------
# party identities and key release
# ---------------------------------------------------------------------------


class TestPartyIdentity:
    def test_identity_round_trips_with_its_signing_key(self):
        alice = PartyIdentity("alice")
        clone = PartyIdentity.from_dict(alice.to_dict())
        assert clone.fingerprint == alice.fingerprint
        message = b"nonce exchange"
        assert crypto.verify(
            alice.certificate.subject_public_key, clone.sign(message), message
        )

    def test_release_keys_refuses_on_rejection(self, factory):
        alice = factory.parties["alpha"]
        session = alice.new_session()
        package = KeyPackage(stream_keys={}, run_nonce=os.urandom(32))
        e = factory.evidence()
        e.expected["manifest_measurement"] = "00" * 32
        verdict, blob = alice.release_keys(
            session, e.report, (e.chain, e.ca, e.tcb), e.expected, package
        )
        assert (verdict.accepted, verdict.reason, blob) == (False, REJECT_MANIFEST, None)
        # The party's own accepting verdict releases a wrapped package.
        e = factory.evidence()
        verdict, blob = alice.release_keys(
            session, e.report, (e.chain, e.ca, e.tcb), e.expected, package
        )
        assert verdict.accepted
        assert isinstance(blob, bytes) and len(blob) > 12

    @pytest.mark.parametrize("length", [31, 33])
    def test_wrap_keys_refuses_a_device_share_of_the_wrong_length(self, length):
        session = PartyIdentity("alpha").new_session()
        package = KeyPackage(stream_keys={}, run_nonce=os.urandom(32))
        with pytest.raises(InvalidShare, match=f"got {length}"):
            session.wrap_keys(os.urandom(length), bytes(32), package)

    def test_derive_model_key_ignores_dict_order(self):
        nonces = {f"{i:02d}" * 32: os.urandom(32) for i in range(4)}
        shuffled = dict(reversed(list(nonces.items())))
        assert pki.derive_model_key(nonces) == pki.derive_model_key(shuffled)


def unwrap_package(factory, share: bytes, blob: bytes) -> KeyPackage:
    """Unwrap a released package as the factory's control unit does."""
    tee = factory.deployment.ccu.tee
    w_p = crypto.derive_wrap_key(
        crypto.x25519_shared(tee.y_private, share),
        share,
        tee.y_public,
        bytes.fromhex(factory.expected["manifest_measurement"]),
    )
    return KeyPackage.from_bytes(crypto.unwrap(w_p, blob))


class TestParty:
    def test_offer_gives_the_packaged_share_once_then_fresh_ones(self):
        alice = PartyIdentity("alpha")
        packaged = alice.new_session()
        party = Party(alice, {3: bytes(32)}, packaged)
        offers = [party.offer() for _ in range(3)]
        assert offers[0] == (packaged.public, packaged.signature)
        assert len({share for share, _ in offers}) == 3
        for share, signature in offers:
            assert crypto.verify(alice.certificate.subject_public_key, signature, share)

    def test_a_rejected_report_releases_nothing_and_keeps_the_run_nonce(self, factory):
        party = Party(factory.parties["alpha"], {3: bytes(32)})
        party.offer()
        e = factory.evidence()
        verdict, blob = party.release(e.report, (e.chain, e.ca, e.tcb), e.expected, resume=False)
        assert verdict.accepted and blob
        nonce = party.run_nonce
        e.expected["manifest_measurement"] = "00" * 32
        verdict, blob = party.release(e.report, (e.chain, e.ca, e.tcb), e.expected, resume=False)
        assert (verdict.accepted, verdict.reason, blob) == (False, REJECT_MANIFEST, None)
        assert party.run_nonce == nonce

    def test_a_resumed_release_wraps_the_checkpointed_attempts_nonce(self, factory):
        keys = {3: b"\x07" * 32}
        party = Party(factory.parties["alpha"], keys)
        e = factory.evidence()
        evidence = (e.chain, e.ca, e.tcb)

        def attempt(resume: bool) -> KeyPackage:
            share, _ = party.offer()
            verdict, blob = party.release(e.report, evidence, e.expected, resume=resume)
            assert verdict.accepted
            return unwrap_package(factory, share, blob)

        first = attempt(resume=False)
        assert first.prior_run_nonce is None and first.run_nonce == party.run_nonce
        party.checkpointed()
        attempt(resume=False)  # a later attempt that saves no checkpoint
        resumed = attempt(resume=True)
        assert resumed.stream_keys == keys
        assert resumed.prior_run_nonce == first.run_nonce
        assert resumed.run_nonce == party.run_nonce != first.run_nonce


# ---------------------------------------------------------------------------
# a party's memo of the device evidence it accepted
# ---------------------------------------------------------------------------


def released(identity: PartyIdentity, e: Evidence) -> Verdict:
    """The verdict ``identity`` reaches on ``e`` when asked to release keys."""
    package = KeyPackage(stream_keys={}, run_nonce=bytes(32))
    verdict, _ = identity.release_keys(identity.new_session(), e.report, (e.chain, e.ca, e.tcb), e.expected, package)
    return verdict


def owned_evidence(factory) -> Evidence:
    """The pristine evidence in copies down to each certificate's
    extensions, so that a test may edit any of its objects in place."""
    e = factory.evidence()
    e.chain, e.tcb = copy.deepcopy(e.chain), copy.deepcopy(e.tcb)
    return e


def counted_verifies(monkeypatch) -> list:
    """One entry per Ed25519 verify from here on."""
    calls, verify = [], crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or verify(*args))
    return calls


def bad_measurement(e: Evidence) -> None:
    """A certificate's extensions cannot be edited in place, so the edit
    arrives as a replaced certificate that carries it."""
    pik, evil = e.chain["pik"], hashlib.sha256(b"evil").hexdigest()
    with pytest.raises(TypeError):
        pik.extensions["bootloader_measurement"] = evil
    e.chain["pik"] = replace(pik, extensions={**pik.extensions, "bootloader_measurement": evil})


def revoke_ak(e: Evidence) -> None:
    e.ca["revoked_certs"].append(e.chain["ak"].fingerprint)


def revoke_ca_cik(e: Evidence) -> None:
    e.ca["revoked_certs"].append(e.chain["ca_cik"].fingerprint)


def revoke_icu(e: Evidence) -> None:
    e.ca["revoked_tcb"].append((COMPONENT_ICU, e.chain["pik"].extensions["icu_measurement"]))


def drop_bootloader_tcb(e: Evidence) -> None:
    e.tcb[:] = [c for c in e.tcb if c.component != COMPONENT_BOOTLOADER]


def forge_icu_tcb(e: Evidence) -> None:
    e.tcb[:] = [replace(c, signature=bytes(64)) if c.component == COMPONENT_ICU else c for c in e.tcb]


def other_cik_root(e: Evidence) -> None:
    e.ca["cik_ca"] = crypto.public_bytes(crypto.ed25519_generate())


def other_pik(e: Evidence) -> None:
    e.chain["pik"] = make_deployment(seed=99).device_chain["pik"]


IN_PLACE_EDITS = [
    pytest.param(bad_measurement, REJECT_CHAIN, id="pik-extensions-edited"),
    pytest.param(revoke_ak, REJECT_REVOKED, id="ak-revoked"),
    pytest.param(revoke_ca_cik, REJECT_REVOKED, id="ca-cik-revoked"),
    pytest.param(revoke_icu, REJECT_TCB_ICU, id="icu-measurement-revoked"),
    pytest.param(drop_bootloader_tcb, REJECT_TCB_BOOTLOADER, id="bootloader-tcb-dropped"),
    pytest.param(forge_icu_tcb, REJECT_TCB_ICU, id="icu-tcb-forged"),
    pytest.param(other_cik_root, REJECT_CIK_MISMATCH, id="cik-root-replaced"),
    pytest.param(other_pik, REJECT_CHAIN, id="pik-replaced"),
]


class TestDeviceMemo:
    """A party remembers the device evidence (steps 1-3) it last accepted
    and reviews only the report (step 4) while that evidence is byte for
    byte the same.  Against a party that has accepted the pristine evidence,
    every corruption gets the verdict of a fresh ``verify_attestation``, and
    so does every edit in place of the very objects it accepted.  A memo
    keyed on the identity of those objects, or on the certificates'
    signatures alone, accepts the in-place edits and fails here."""

    def test_every_corruption_gets_the_fresh_verdict(self, factory):
        judge = PartyIdentity("alpha")
        assert released(judge, factory.evidence()).accepted
        failures = []
        for label, want, mutate in build_corpus(factory):
            evidence = factory.evidence()
            mutate(evidence)
            fresh, memoized = evidence.verdict(), released(judge, evidence)
            if memoized != fresh or fresh.reason != want:
                failures.append(f"{label}: memoized {memoized.reason}, fresh {fresh.reason}, wanted {want}")
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("edit, reason", IN_PLACE_EDITS)
    def test_an_accepted_object_edited_in_place_is_judged_again(self, factory, edit, reason):
        judge, evidence = PartyIdentity("alpha"), owned_evidence(factory)
        assert released(judge, evidence).accepted
        edit(evidence)
        assert released(judge, evidence) == evidence.verdict() == Verdict.reject(reason)

    def test_a_party_rejudges_the_device_only_when_its_evidence_changed(self, factory, monkeypatch):
        """A first judgement makes 7 verifies (the 4 chain certificates, the
        2 TCB certificates and the report); the same evidence again makes 1,
        the report's.  A new revocation list, even one that names another
        certificate, makes all 7 again, and so does an identity restored from
        its stored form, which does not hold the memo."""
        judge, evidence = PartyIdentity("alpha"), owned_evidence(factory)
        verifies = counted_verifies(monkeypatch)

        def count() -> int:
            assert released(judge, evidence).accepted
            made = len(verifies)
            verifies.clear()
            return made

        assert [count(), count()] == [7, 1]
        evidence.ca["revoked_certs"].append("f" * 64)
        assert [count(), count()] == [7, 1]
        stored = judge.to_dict()
        assert sorted(stored) == ["certificate", "name", "signing_seed"]
        judge = PartyIdentity.from_dict(stored)
        assert [count(), count()] == [7, 1]

    def test_a_revocation_list_is_read_in_the_form_the_memo_keys(self, factory):
        """A fingerprint listed as raw bytes encodes as its hex string, so it
        revokes as that string does: no list a party accepted can encode as
        one that would have revoked."""
        evidence = owned_evidence(factory)
        evidence.ca["revoked_certs"].append(bytes.fromhex(evidence.chain["ak"].fingerprint))
        assert evidence.verdict() == Verdict.reject(REJECT_REVOKED)

    def test_a_rejected_device_is_not_remembered(self, factory, monkeypatch):
        judge, evidence = PartyIdentity("alpha"), owned_evidence(factory)
        revoke_ak(evidence)
        verifies = counted_verifies(monkeypatch)
        assert [released(judge, evidence).reason for _ in range(2)] == [REJECT_REVOKED] * 2
        assert len(verifies) == 2 * 3  # the chain's three signatures, each time
