"""Manufacturer CA, relying-party verification, and party key release.

Verification follows four steps, each with its own reject reason so tests
can pin down exactly which gate caught a mutation:

1. validate the device certificate chain and check revocation;
2. match the chain's card identity key against the CA-issued card cert;
3. match the platform cert's bootloader and ICU measurements against valid
   TCB certificates (genesis or update);
4. review the signed report: its signature, then the manifest digest, the
   party fingerprints and the counters against the values the relying party
   expects, and the register measurement against the one trusted register
   state, a reference value the verifier holds itself.

Steps 1-3 judge the device from its chain, the CA keys, both revocation
lists and the TCB certificates alone; step 4 reviews one report.  A party
keeps the digest of the last device evidence it accepted, so a resumed run
skips steps 1-3 while none of those bytes changed, and reviews each report.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import os
from dataclasses import dataclass
from typing import Any, Optional

from . import crypto
from .attestation import AttestationReport, KeyPackage, Verdict, trusted_registers_digest
from .certs import Certificate, Signed, SignedImage, issue, self_signed
from .encoding import canonical_bytes, decode, digest_hex, jsonable
from .errors import InvalidEncoding, InvalidShare, SupplyChainReject

COMPONENT_BOOTLOADER = "secondary_bootloader"
COMPONENT_ICU = "icu_firmware"


# ---------------------------------------------------------------------------
# TCB certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TcbUpdateCertificate(Signed):
    component: str
    old_measurement: str  # "genesis" for the initially provisioned version
    new_measurement: str
    signature: bytes = b""


# ---------------------------------------------------------------------------
# the certificate authority
# ---------------------------------------------------------------------------


class CaState:
    """Manufacturer-side roots: card/platform/firmware CAs, the issued-cert
    log, the revocation list, and per-batch provisioning secrets."""

    def __init__(self) -> None:
        self.cik_ca = crypto.ed25519_generate()
        self.pik_ca = crypto.ed25519_generate()
        self.firmware_ca = crypto.ed25519_generate()
        self.issued: list[Certificate] = []
        self.revoked_certs: set[str] = set()
        self.revoked_tcb: set[tuple[str, str]] = set()
        self.batch_secrets: dict[str, bytes] = {}
        self.tcb_certs: list[TcbUpdateCertificate] = []

    # -- public material -----------------------------------------------------

    def public(self) -> dict[str, Any]:
        return {
            "cik_ca": crypto.public_bytes(self.cik_ca),
            "pik_ca": crypto.public_bytes(self.pik_ca),
            "firmware_ca": crypto.public_bytes(self.firmware_ca),
            "revoked_certs": sorted(self.revoked_certs),
            "revoked_tcb": sorted(self.revoked_tcb),
        }

    def new_batch(self, batch_id: str) -> bytes:
        secret = os.urandom(32)
        self.batch_secrets[batch_id] = secret
        return secret

    def sign_firmware(self, image: bytes) -> SignedImage:
        return SignedImage(image, crypto.sign(self.firmware_ca, image))

    # -- provisioning (supply chain) ----------------------------------------

    def ca_provision_and_certify(
        self,
        csr_bundle: dict[str, Any],
        bootloader_manifest: dict[str, Any],
        expected_nonce: bytes,
    ) -> dict[str, Certificate]:
        """Verify a device's CSRs against its batch-authenticated bootloader
        manifest and issue the CA-backed card and platform certificates."""
        manifest = bootloader_manifest["body"]
        csr = csr_bundle
        secret = self.batch_secrets.get(manifest.get("batch_id", ""))
        if secret is None:
            raise SupplyChainReject(f"unknown batch {manifest.get('batch_id')!r}")
        mac = hmac_mod.new(secret, canonical_bytes(manifest), hashlib.sha256).hexdigest()
        if not hmac_mod.compare_digest(mac, bootloader_manifest.get("batch_mac", "")):
            raise SupplyChainReject("bootloader manifest not authenticated by the batch key")
        nonce = manifest["nonce"]
        if isinstance(nonce, str):
            nonce = bytes.fromhex(nonce)
        if nonce != expected_nonce:
            raise SupplyChainReject("bootloader manifest echoes the wrong nonce")
        if manifest["csr_digest"] != digest_hex(canonical_bytes(csr)):
            raise SupplyChainReject("CSR does not match the attested manifest")

        cik_cert = issue(
            csr["cik_public"],
            "cik-ca",
            self.cik_ca,
            {"role": "cik", "device_serial": csr["device_serial"]},
        )
        pik_cert = issue(
            csr["pik_public"],
            "pik-ca",
            self.pik_ca,
            {
                "role": "pik",
                "device_serial": csr["device_serial"],
                "bootloader_measurement": manifest["bootloader_measurement"],
                "icu_measurement": manifest["icu_measurement"],
            },
        )
        self.issued.extend([cik_cert, pik_cert])
        self.ca_issue_tcb_update(COMPONENT_BOOTLOADER, "genesis", manifest["bootloader_measurement"])
        self.ca_issue_tcb_update(COMPONENT_ICU, "genesis", manifest["icu_measurement"])
        return {"cik": cik_cert, "pik": pik_cert}

    # -- firmware updates ----------------------------------------------------

    def ca_issue_tcb_update(
        self,
        component: str,
        old_measurement: str,
        new_measurement: str,
        revoke_old: bool = False,
    ) -> TcbUpdateCertificate:
        cert = TcbUpdateCertificate(component, old_measurement, new_measurement).signed(
            self.firmware_ca
        )
        if revoke_old and old_measurement != "genesis":
            self.revoked_tcb.add((component, old_measurement))
        self.tcb_certs.append(cert)
        return cert


# ---------------------------------------------------------------------------
# attestation verification (relying-party side)
# ---------------------------------------------------------------------------

REJECT_CHAIN = "chain"
REJECT_REVOKED = "revoked"
REJECT_CIK_MISMATCH = "cik_mismatch"
REJECT_TCB_BOOTLOADER = "tcb_bootloader"
REJECT_TCB_ICU = "tcb_icu"
REJECT_REPORT_SIGNATURE = "report_signature"
REJECT_MANIFEST = "manifest"
REJECT_RUN_ATTRIBUTES = "run_attributes"
REJECT_REGISTERS = "registers"


def _tcb_covered(
    measurement: str,
    component: str,
    tcb_certs: list[TcbUpdateCertificate],
    firmware_ca: bytes,
    revoked: set[tuple[str, str]],
) -> bool:
    for cert in tcb_certs:
        if cert.component != component or cert.new_measurement != measurement:
            continue
        if (component, measurement) in revoked:
            continue
        if cert.verify(firmware_ca):
            return True
    return False


def _judge_device(
    chain: dict[str, Any], ca_certs: dict[str, Any], tcb_certs: list[TcbUpdateCertificate], prints: dict[str, str]
) -> str:
    """Steps 1-3: the reject reason for the device evidence, or "" if it passes.
    ``prints`` holds each chain certificate's fingerprint."""
    cik: Certificate = chain["cik"]
    pik: Certificate = chain["pik"]
    ak: Certificate = chain["ak"]

    # Step 1: certificate chain and revocation (lists read as the memo keys them).
    if not cik.verify(cik.subject_public_key):
        return REJECT_CHAIN
    if not pik.verify(cik.subject_public_key):
        return REJECT_CHAIN
    if not ak.verify(pik.subject_public_key):
        return REJECT_CHAIN
    revoked_certs = set(jsonable(ca_certs["revoked_certs"]))
    if any(prints[name] in revoked_certs for name in ("cik", "pik", "ak")):
        return REJECT_REVOKED

    # Step 2: the chain's card identity must match the CA-issued card cert.
    ca_cik: Optional[Certificate] = chain.get("ca_cik")
    if ca_cik is None or not ca_cik.verify(ca_certs["cik_ca"]):
        return REJECT_CIK_MISMATCH
    if prints["ca_cik"] in revoked_certs:
        return REJECT_REVOKED
    if ca_cik.subject_public_key != cik.subject_public_key:
        return REJECT_CIK_MISMATCH

    # Step 3: the platform cert's firmware measurements must be endorsed by
    # valid TCB certificates.
    revoked_tcb = {tuple(x) for x in jsonable(ca_certs["revoked_tcb"])}
    firmware_ca = ca_certs["firmware_ca"]
    for component, extension, reason in (
        (COMPONENT_BOOTLOADER, "bootloader_measurement", REJECT_TCB_BOOTLOADER),
        (COMPONENT_ICU, "icu_measurement", REJECT_TCB_ICU),
    ):
        if not _tcb_covered(pik.extensions.get(extension, ""), component, tcb_certs, firmware_ca, revoked_tcb):
            return reason
    return ""


def verify_attestation(
    report: AttestationReport,
    device_chain: dict[str, Any],
    ca_certs: dict[str, Any],
    tcb_certs: list[TcbUpdateCertificate],
    expected: dict[str, Any],
    memo: Optional[dict[str, bytes]] = None,
) -> Verdict:
    """Decide whether signed evidence authorizes releasing keys to a device.

    ``expected`` holds what the run must show: ``manifest_measurement`` (which
    also fixes the tile bootloader, the stream owners and the model
    receivers), ``party_fingerprints`` in party-name order, and the seeded
    ``epoch`` and ``checkpoint_id``.  A missing key raises ``KeyError``.

    ``memo``, a party's slot that only ``PartyIdentity`` passes, keeps the
    SHA-256 of the last device evidence to pass steps 1-3: the chain's
    fingerprints (which cover the signatures) and the canonical bytes of
    ``ca_certs`` and ``tcb_certs``.  Evidence with that digest skips steps
    1-3; step 4 always runs."""
    prints = {name: cert.fingerprint for name, cert in device_chain.items()}
    key = None if memo is None else hashlib.sha256(canonical_bytes((prints, ca_certs, tcb_certs))).digest()
    if key is None or memo.get("device") != key:
        reason = _judge_device(device_chain, ca_certs, tcb_certs, prints)
        if reason:
            return Verdict.reject(reason)
        if key is not None:
            memo["device"] = key

    # Step 4: review the signed report against expectations.
    if not report.verify(device_chain["ak"].subject_public_key):
        return Verdict.reject(REJECT_REPORT_SIGNATURE)
    if report.manifest_measurement != expected["manifest_measurement"]:
        return Verdict.reject(REJECT_MANIFEST)
    if tuple(report.party_fingerprints) != tuple(expected["party_fingerprints"]):
        return Verdict.reject(REJECT_RUN_ATTRIBUTES)
    if report.epoch != expected["epoch"] or report.checkpoint_id != expected["checkpoint_id"]:
        return Verdict.reject(REJECT_RUN_ATTRIBUTES)
    if report.register_measurement != trusted_registers_digest():
        return Verdict.reject(REJECT_REGISTERS)
    return Verdict.ok()


# ---------------------------------------------------------------------------
# party side
# ---------------------------------------------------------------------------


@dataclass
class PartySession:
    """One run's ephemeral exchange share for a party."""

    private: Any
    public: bytes
    signature: bytes

    def wrap_keys(self, ccu_share: bytes, manifest_hash: bytes, package: KeyPackage) -> bytes:
        if len(ccu_share) != 32:
            raise InvalidShare(f"device keyshare must be 32 bytes, got {len(ccu_share)}")
        w_p = crypto.derive_wrap_key(
            crypto.x25519_shared(self.private, ccu_share),
            self.public,
            ccu_share,
            manifest_hash,
        )
        return crypto.wrap(w_p, package.to_bytes())


@dataclass(frozen=True)
class _IdentityFile:
    """The stored form of a ``PartyIdentity`` (``identity.json``)."""

    name: str
    signing_seed: bytes
    certificate: Certificate


class PartyIdentity:
    """A data or model owner: long-term certificate plus per-run sessions."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._signing = crypto.ed25519_generate()
        self.certificate = self_signed(self._signing, name, {"role": "party", "name": name})
        self._judged: dict[str, bytes] = {}  # ``verify_attestation``'s memo; never stored

    @property
    def fingerprint(self) -> str:
        return self.certificate.fingerprint

    def to_dict(self) -> dict[str, Any]:
        return jsonable(
            _IdentityFile(self.name, crypto.private_bytes(self._signing), self.certificate)
        )

    @classmethod
    def from_dict(cls, d: Any) -> "PartyIdentity":
        """A missing or unknown field, bad hex, a wrong type or a seed that is
        not 32 bytes raises ``InvalidEncoding``."""
        stored = decode(_IdentityFile, d)
        if len(stored.signing_seed) != 32:
            raise InvalidEncoding(f"signing_seed is {len(stored.signing_seed)} bytes, not 32")
        identity = cls.__new__(cls)
        identity.name = stored.name
        identity._signing = crypto.ed25519_from_seed(stored.signing_seed)
        identity.certificate = stored.certificate
        identity._judged = {}
        return identity

    def new_session(self) -> PartySession:
        private = crypto.x25519_generate()
        public = crypto.x25519_public_bytes(private)
        return PartySession(private, public, crypto.sign(self._signing, public))

    def sign(self, message: bytes) -> bytes:
        """Authenticate a message under the party's certificate."""
        return crypto.sign(self._signing, message)

    def release_keys(
        self,
        session: PartySession,
        report: AttestationReport,
        evidence: tuple[dict[str, Any], dict[str, Any], list[TcbUpdateCertificate]],
        expected: dict[str, Any],
        package: KeyPackage,
    ) -> tuple[Verdict, Optional[bytes]]:
        """Verify the report against ``evidence`` (device chain, CA keys, TCB
        certificates) and ``expected``; only on an accept, wrap ``package`` to
        the attested device share under a key bound to the expected manifest."""
        verdict = verify_attestation(report, *evidence, expected, memo=self._judged)
        if not verdict.accepted:
            return verdict, None
        manifest_hash = bytes.fromhex(expected["manifest_measurement"])
        return verdict, session.wrap_keys(report.ccu_keyshare, manifest_hash, package)


class Party:
    """A party as an actor: its identity, its stream keys, the share it offered
    and the run nonces it released.  A host reaches it only through ``offer``,
    ``release`` and ``checkpointed``, and holds none of its secrets."""

    def __init__(self, identity: PartyIdentity, keys: dict[int, bytes], session: PartySession | None = None):
        self.identity = identity
        self._keys = dict(keys)
        self._packaged = session  # the share shipped in the package, offered first
        self._share: PartySession | None = None  # the share offered to the current attempt
        self.run_nonce: bytes | None = None  # released to the current attempt
        self._saved_nonce: bytes | None = None  # released to the attempt that last checkpointed

    def offer(self) -> tuple[bytes, bytes]:
        """The keyshare and its signature for the next attempt: the packaged
        share on the first attempt, a fresh one after that."""
        self._share, self._packaged = self._packaged or self.identity.new_session(), None
        return self._share.public, self._share.signature

    def release(
        self, report: AttestationReport, evidence: tuple, expected: dict[str, Any], resume: bool
    ) -> tuple[Verdict, Optional[bytes]]:
        """Judge ``evidence`` as ``release_keys`` does; only on an accept, wrap
        the stream keys with a fresh run nonce (and, resuming, the nonce of the
        attempt that last checkpointed) to the offered share."""
        nonce = os.urandom(32)
        package = KeyPackage(self._keys, nonce, self._saved_nonce if resume else None)
        verdict, wrapped = self.identity.release_keys(self._share, report, evidence, expected, package)
        if verdict.accepted:
            self.run_nonce = nonce
        return verdict, wrapped

    def checkpointed(self) -> None:
        """The current attempt saved a checkpoint: a resume from it needs this nonce."""
        self._saved_nonce = self.run_nonce


def derive_model_key(nonces: dict[str, bytes]) -> bytes:
    """Party-side recomputation of the model key from all parties' nonces."""
    return crypto.derive_model_key(crypto.combine_nonces(nonces))
