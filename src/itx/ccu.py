"""Board root of trust: measured boot, key hierarchy, and TEE lifecycle.

Boot follows the layered-DICE pattern: a unique device secret (UDS) yields a
hardware identifier (HDI) and, mixed with the secondary-bootloader
measurement, a composite identifier (CDI).  The card identity key (CIK)
derives from HDI, the platform identity key (PIK) from CDI, and the
attestation key (AK) from CDI plus the compute-engine measurement, so each
key pins down exactly the firmware layers below it.  After boot the running
state keeps only the AK private key and public material.

The TEE lifecycle is a strict NoTee -> Initialized -> Launched -> Terminated
state machine; any security exception reported by the device forces
Terminated, scrubbing tiles and invalidating every loaded key.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from dataclasses import dataclass, field
from typing import Any, Optional

from . import crypto
from .attestation import AttestationReport, KeyPackage, run_attributes_digest
from .certs import Certificate, issue, self_signed
from .device import IpuDevice
from .encoding import canonical_bytes, digest_hex
from .errors import (
    AlreadyProvisioned,
    FirmwareAuthFailure,
    InvalidPhase,
    InvalidSyncPoint,
    KeyExchangeFailure,
    PartyAuthFailure,
    SecurityException,
)
from .manifest import CHECKPOINT, DIR_IN, JobManifest, OUTPUT, SyncPlan

# TEE phases
NO_TEE = "no_tee"
INITIALIZED = "initialized"
LAUNCHED = "launched"
TERMINATED = "terminated"


# ---------------------------------------------------------------------------
# firmware
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedImage:
    image: bytes
    signature: bytes  # by the firmware-signing CA, over the raw image

    def measurement(self) -> str:
        return hashlib.sha256(self.image).hexdigest()


@dataclass(frozen=True)
class FirmwareBundle:
    """Everything flashed onto the card for one firmware version."""

    secondary_bootloader: SignedImage
    cce: SignedImage  # confidential compute engine (the TEE-managing firmware)
    icu_measurement: str  # measurement reported for the ICU microcontroller
    tile_bootloader: bytes  # the per-tile secure bootloader deployed at launch

    def tile_bootloader_measurement(self) -> str:
        return hashlib.sha256(self.tile_bootloader).hexdigest()


class CcuFlash:
    """Write-once persistent secrets, readable only by the primary boot stage."""

    def __init__(
        self,
        firmware_ca_public: bytes,
        batch_id: str,
        batch_secret: bytes,
        provisioning_nonce: bytes,
        device_serial: str,
    ) -> None:
        self.firmware_ca_public = firmware_ca_public
        self.batch_id = batch_id
        self.batch_secret = batch_secret
        self.provisioning_nonce = provisioning_nonce
        self.device_serial = device_serial
        self._uds: Optional[bytes] = None

    def first_boot(self, entropy: bytes) -> None:
        if self._uds is not None:
            raise AlreadyProvisioned("device secret already sampled")
        self._uds = hashlib.sha256(b"uds" + entropy).digest()

    @property
    def provisioned(self) -> bool:
        return self._uds is not None


# ---------------------------------------------------------------------------
# TEE state
# ---------------------------------------------------------------------------


@dataclass
class TeeState:
    phase: str = NO_TEE
    reason: str = ""
    manifest: Optional[JobManifest] = None
    party_certs: dict[str, Certificate] = field(default_factory=dict)
    party_shares: dict[str, bytes] = field(default_factory=dict)
    epoch: int = 0
    checkpoint_id: int = 0
    y_private: Any = None
    y_public: bytes = b""
    stream_keys: dict[int, bytes] = field(default_factory=dict)
    k_save: bytes = b""
    k_load: bytes = b""
    k_m: bytes = b""


class Ccu:
    """Post-boot running state of the confidential compute unit."""

    def __init__(
        self,
        ak_private: Any,
        cert_chain: dict[str, Certificate],
        measurements: dict[str, str],
        firmware: FirmwareBundle,
        device_serial: str,
        pik_endorsement: Optional[dict[str, Any]] = None,
    ) -> None:
        self._ak_private = ak_private
        self.cert_chain = cert_chain
        self.measurements = measurements
        self.firmware = firmware
        self.device_serial = device_serial
        self.pik_endorsement = pik_endorsement
        self.device: Optional[IpuDevice] = None
        self.tee = TeeState()
        self._terminating = False

    # -- measured boot -------------------------------------------------------

    @classmethod
    def boot(cls, flash: CcuFlash, firmware: FirmwareBundle, hardened: bool = False) -> "Ccu":
        """Run the measured boot chain and return the post-boot state.

        In the hardened variant the CIK and PIK are generated in the primary
        stage, which also emits a CIK-signed endorsement of (PIK public,
        bootloader measurement) before scrubbing the CIK private key.
        """
        if not flash.provisioned:
            raise InvalidPhase("device has never sampled its secret")
        if not crypto.verify(
            flash.firmware_ca_public,
            firmware.secondary_bootloader.signature,
            firmware.secondary_bootloader.image,
        ):
            raise FirmwareAuthFailure("secondary bootloader signature invalid")

        uds = flash._uds
        assert uds is not None
        sb_measure = hashlib.sha256(firmware.secondary_bootloader.image).digest()
        cce_measure = hashlib.sha256(firmware.cce.image).digest()

        hdi = crypto.hkdf(uds, b"HDI")
        cdi = crypto.hkdf(uds, b"CDI" + sb_measure)
        cik = crypto.ed25519_from_seed(crypto.hkdf(hdi, b"CIK"))
        pik = crypto.ed25519_from_seed(crypto.hkdf(cdi, b"PIK"))
        ak = crypto.ed25519_from_seed(crypto.hkdf(cdi, b"AK" + cce_measure))

        cik_cert = self_signed(
            cik, "device-cik", {"role": "cik", "device_serial": flash.device_serial}
        )
        pik_cert = issue(
            crypto.public_bytes(pik),
            "device-cik",
            cik,
            {
                "role": "pik",
                "device_serial": flash.device_serial,
                "bootloader_measurement": sb_measure.hex(),
                "icu_measurement": firmware.icu_measurement,
            },
        )
        ak_cert = issue(
            crypto.public_bytes(ak),
            "device-pik",
            pik,
            {
                "role": "ak",
                "device_serial": flash.device_serial,
                "cce_measurement": cce_measure.hex(),
            },
        )

        endorsement = None
        if hardened:
            message = crypto.public_bytes(pik) + sb_measure
            endorsement = {
                "pik_public": crypto.public_bytes(pik),
                "bootloader_measurement": sb_measure.hex(),
                "signature": crypto.sign(cik, message),
            }

        # Everything below the AK is scrubbed here: only the AK private key,
        # the certificates, and public measurements survive into the running
        # state.
        measurements = {
            "bootloader": sb_measure.hex(),
            "cce": cce_measure.hex(),
            "icu": firmware.icu_measurement,
            "tile_bootloader": firmware.tile_bootloader_measurement(),
        }
        chain = {"cik": cik_cert, "pik": pik_cert, "ak": ak_cert}
        return cls(ak, chain, measurements, firmware, flash.device_serial, endorsement)

    def provisioning_bundle(self, flash: CcuFlash) -> dict[str, Any]:
        """CSRs plus the batch-authenticated bootloader manifest, produced at
        manufacture time for the certificate authority."""
        csr = {
            "device_serial": flash.device_serial,
            "cik_public": self.cert_chain["cik"].subject_public_key,
            "pik_public": self.cert_chain["pik"].subject_public_key,
        }
        manifest_body = {
            "batch_id": flash.batch_id,
            "nonce": flash.provisioning_nonce,
            "csr_digest": digest_hex(canonical_bytes(csr)),
            "bootloader_measurement": self.measurements["bootloader"],
            "icu_measurement": self.measurements["icu"],
        }
        mac = hmac_mod.new(
            flash.batch_secret, canonical_bytes(manifest_body), hashlib.sha256
        ).hexdigest()
        return {
            "csr": csr,
            "bootloader_manifest": {"body": manifest_body, "batch_mac": mac},
        }

    # -- device attachment ---------------------------------------------------

    def attach_device(self, device: IpuDevice) -> None:
        self.device = device
        device.on_security = self._on_security_exception
        device.on_reset = self._on_device_reset

    def _require_device(self) -> IpuDevice:
        if self.device is None:
            raise InvalidPhase("no device attached")
        return self.device

    def _on_security_exception(self, reason: str) -> None:
        if self._terminating:
            return
        if self.tee.phase in (INITIALIZED, LAUNCHED):
            self.tee_terminate(f"security exception: {reason}")

    def _on_device_reset(self) -> None:
        # The reset pins are coupled: a device reset clears TEE state too.
        if not self._terminating:
            self.tee = TeeState()

    # -- key plumbing --------------------------------------------------------

    def _stream_key(self, stream_id: int, bank: str) -> bytes:
        manifest = self.tee.manifest
        assert manifest is not None
        entry = manifest.stream_table[stream_id]
        if entry.kind == CHECKPOINT:
            key = self.tee.k_load if bank == "ingress" else self.tee.k_save
            if not key:
                raise KeyExchangeFailure(f"no checkpoint key for bank {bank}")
            return key
        if entry.kind == OUTPUT:
            return self.tee.k_m
        key = self.tee.stream_keys.get(stream_id)
        if key is None:
            raise KeyExchangeFailure(f"no key supplied for stream {stream_id}")
        return key

    def _apply_plan(self, plan: SyncPlan, offsets: dict[int, int]) -> None:
        device = self._require_device()
        for ctx in plan.invalidate:
            device.ingress.invalidate_key(ctx)
            device.egress.invalidate_key(ctx)
        device.apply_sync_plan(plan, offsets)
        for ctx, sid in plan.ingress_loads:
            device.ingress.load_key(ctx, self._stream_key(sid, "ingress"))
        for ctx, sid in plan.egress_loads:
            device.egress.load_key(ctx, self._stream_key(sid, "egress"))

    def _parked_plan(self) -> tuple[SyncPlan, dict[int, int]]:
        """The attested plan of the barrier the device's tiles are parked at."""
        device = self._require_device()
        if device.barrier is None:
            raise InvalidPhase("the tiles are not parked at a barrier")
        return self.tee.manifest.plan(device.barrier)

    # -- TEE lifecycle -------------------------------------------------------

    def tee_init(
        self,
        manifest: JobManifest,
        party_certs: dict[str, Certificate],
        party_keyshares: dict[str, bytes],
        share_signatures: dict[str, bytes],
        epoch: int = 0,
        checkpoint_id: int = 0,
    ) -> AttestationReport:
        if self.tee.phase != NO_TEE:
            raise InvalidPhase(f"tee_init in phase {self.tee.phase}")
        device = self._require_device()
        manifest.validate()
        if manifest.ipu_id != device.ipu_id:
            raise InvalidPhase(
                f"manifest targets device {manifest.ipu_id}, attached device is {device.ipu_id}"
            )
        if manifest.device_config != device.config.to_dict():
            raise InvalidPhase("manifest was compiled for a different device geometry")
        if manifest.bootloader_measurement != self.measurements["tile_bootloader"]:
            raise InvalidPhase("manifest names a different tile bootloader")
        for party, cert in sorted(party_certs.items()):
            share = party_keyshares.get(party)
            sig = share_signatures.get(party)
            if share is None or sig is None:
                raise PartyAuthFailure(f"party {party}: missing keyshare or signature")
            if not crypto.verify(cert.subject_public_key, sig, share):
                raise PartyAuthFailure(f"party {party}: keyshare signature invalid")

        # Quiesce: trusted mode on, all tile memory scrubbed, registers frozen
        # and measured.
        device.enter_trusted_mode()
        device.scrub()
        register_measurement = device.registers_digest()

        y_private = crypto.x25519_generate()
        y_public = crypto.x25519_public_bytes(y_private)
        fingerprints = tuple(cert.fingerprint for _, cert in sorted(party_certs.items()))
        attrs = run_attributes_digest(
            y_public, epoch, checkpoint_id, fingerprints, manifest.stream_assignment
        )
        report = AttestationReport(
            register_measurement=register_measurement,
            bootloader_measurement=self.measurements["tile_bootloader"],
            manifest_measurement=manifest.measurement(),
            ccu_keyshare=y_public,
            epoch=epoch,
            checkpoint_id=checkpoint_id,
            party_fingerprints=fingerprints,
            stream_assignment=manifest.stream_assignment,
            run_attributes_digest=attrs,
        ).signed(self._ak_private)

        self.tee = TeeState(
            phase=INITIALIZED,
            manifest=manifest,
            party_certs=dict(party_certs),
            party_shares=dict(party_keyshares),
            epoch=epoch,
            checkpoint_id=checkpoint_id,
            y_private=y_private,
            y_public=y_public,
        )
        return report

    def tee_launch(self, wrapped_packages: dict[str, bytes]) -> None:
        if self.tee.phase != INITIALIZED:
            raise InvalidPhase(f"tee_launch in phase {self.tee.phase}")
        device = self._require_device()
        manifest = self.tee.manifest
        assert manifest is not None
        if set(wrapped_packages) != set(self.tee.party_certs):
            raise KeyExchangeFailure("one wrapped key package required per party")

        manifest_hash = bytes.fromhex(manifest.measurement())
        nonces: dict[str, bytes] = {}
        prior_nonces: dict[str, bytes] = {}
        stream_keys: dict[int, bytes] = {}
        for party, blob in sorted(wrapped_packages.items()):
            cert = self.tee.party_certs[party]
            share = self.tee.party_shares[party]
            w_p = crypto.derive_wrap_key(
                crypto.x25519_shared(self.tee.y_private, share),
                share,
                self.tee.y_public,
                manifest_hash,
            )
            try:
                package = KeyPackage.from_bytes(crypto.unwrap(w_p, blob))
            except KeyExchangeFailure:
                raise
            except Exception as exc:  # noqa: BLE001 - unwrap failures vary
                raise KeyExchangeFailure(f"party {party}: unwrap failed: {exc}") from None
            for sid in package.stream_keys:
                entry = manifest.stream_table.get(sid)
                if entry is None or entry.direction != DIR_IN or entry.party != party:
                    raise KeyExchangeFailure(f"party {party} sent a key for stream {sid}, not its input")
            nonces[cert.fingerprint] = package.run_nonce
            if package.prior_run_nonce is not None:
                prior_nonces[cert.fingerprint] = package.prior_run_nonce
            stream_keys.update(package.stream_keys)

        for sid, entry in manifest.stream_table.items():
            if entry.party and entry.direction == DIR_IN and sid not in stream_keys:
                raise KeyExchangeFailure(f"no party supplied a key for stream {sid}")

        combined = crypto.combine_nonces(nonces)
        self.tee.stream_keys = stream_keys
        self.tee.k_save = crypto.derive_checkpoint_key(combined)
        self.tee.k_m = crypto.derive_model_key(combined)
        if self.tee.epoch > 0:
            if set(prior_nonces) != set(nonces):
                raise KeyExchangeFailure("resumption requires every party's prior nonce")
            self.tee.k_load = crypto.derive_checkpoint_key(crypto.combine_nonces(prior_nonces))

        # Bootstrap: deploy the tile bootloader, install the job, key the
        # code contexts, and pull every binary through the secure path.  Keys
        # land from here on, so any failure must end the TEE before it escapes.
        device.autoload(self.firmware.tile_bootloader)
        device.install_boot_params(manifest, self.tee.epoch, self.tee.checkpoint_id)
        try:
            self._apply_plan(manifest.boot_plan, {})
            chain = b""
            for tile in device.tiles:
                chain = hashlib.sha256(chain + device.run_bootloader(tile.tile_id)).digest()
            if chain.hex() != manifest.binary_hashes[device.ipu_id]:
                raise self._fatal("binary hash does not match the manifest")
            self._apply_plan(*self._parked_plan())
        except Exception:
            if self.tee.phase != TERMINATED:
                self.tee_terminate("launch failed")
            raise
        if self.tee.epoch == 0:
            device.start_application()
        self.tee.phase = LAUNCHED

    def _fatal(self, reason: str) -> SecurityException:
        self.tee_terminate(reason)
        return SecurityException(reason)

    def tee_load_keys(self) -> None:
        """Key the barrier the tiles are parked at."""
        if self.tee.phase != LAUNCHED:
            raise InvalidPhase(f"tee_load_keys in phase {self.tee.phase}")
        self._apply_plan(*self._parked_plan())

    def tee_checkpoint(self) -> None:
        """Save a checkpoint at a barrier that schedules one: swap in the
        checkpoint-phase registers, stream the state out under k_save, then restore."""
        if self.tee.phase != LAUNCHED:
            raise InvalidPhase(f"tee_checkpoint in phase {self.tee.phase}")
        device = self._require_device()
        manifest = self.tee.manifest
        if not self._parked_plan()[0].checkpoint or manifest.checkpoint_plan is None:
            raise InvalidSyncPoint(f"barrier {device.barrier} schedules no checkpoint")
        steady = device.egress.registers
        self._apply_plan(manifest.checkpoint_plan, {})
        device.checkpoint_save()
        if steady is not None:
            device.program_registers(steady)

    def tee_restore(self) -> int:
        """Restore the checkpoint named by the seeded counters.  The device
        re-parks the tiles at the saved barrier and re-runs its internal
        exchange; this applies that barrier's registers and keys.  Returns
        the barrier id so the host can refill the ring windows."""
        if self.tee.phase != LAUNCHED:
            raise InvalidPhase(f"tee_restore in phase {self.tee.phase}")
        if self.tee.epoch == 0:
            raise InvalidPhase("restore requires a nonzero epoch")
        device = self._require_device()
        manifest = self.tee.manifest
        assert manifest is not None
        if manifest.restore_plan is None:
            raise InvalidSyncPoint("job has no restore plan")
        self._apply_plan(manifest.restore_plan, {})
        device.checkpoint_restore()
        self._apply_plan(*self._parked_plan())
        return device.barrier

    def tee_terminate(self, reason: str) -> None:
        if self.tee.phase not in (INITIALIZED, LAUNCHED):
            raise InvalidPhase(f"tee_terminate in phase {self.tee.phase}")
        self._terminating = True
        try:
            device = self._require_device()
            device.scrub()
            device.egress.invalidate_all_keys()
            device.ingress.invalidate_all_keys()
            device.leave_trusted_mode()
        finally:
            self._terminating = False
        self.tee = TeeState(phase=TERMINATED, reason=reason)
