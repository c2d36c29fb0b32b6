"""Board root of trust: measured boot, key hierarchy, and TEE lifecycle.

Boot follows the layered-DICE pattern: a unique device secret (UDS) yields a
hardware identifier (HDI) and, mixed with the secondary-bootloader
measurement, a composite identifier (CDI).  The card identity key (CIK)
derives from HDI, the platform identity key (PIK) from CDI, and the
attestation key (AK) from CDI plus the compute-engine measurement, so each
key pins down exactly the firmware layers below it.  After boot the running
state keeps only the AK private key and public material.

The TEE lifecycle is a strict NoTee -> Initialized -> Launched -> Terminated
state machine.  Every attempt ends Terminated: the host's runtime terminates
the TEE when an attempt completes, halts or aborts, and any security
exception reported by the device forces it sooner.  Terminating scrubs the
tiles and invalidates every loaded key; only a device reset returns the TEE
to NoTee, ready for the next one.

Across TEEs the control unit keeps the manifest it last admitted (its bytes'
SHA-256, decoded copy and register images), so a resume decodes and derives
nothing again.  That is a read-only function of public bytes, with no key,
nonce, share or counter (those die with ``TeeState``): it survives a device
reset, and a firmware update boots a ``Ccu`` without it.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Optional

from . import crypto
from .attestation import AttestationReport, KeyPackage
from .certs import Certificate, SignedImage, issue, self_signed
from .device import IpuDevice
from .encoding import canonical_bytes, digest_hex
from .errors import (
    AlreadyProvisioned,
    FirmwareAuthFailure,
    InvalidIvField,
    InvalidPhase,
    InvalidSyncPoint,
    KeyExchangeFailure,
    PartyAuthFailure,
    SecurityException,
)
from .manifest import BOOT, CHECKPOINT, DIR_IN, INGRESS, RESTORE, SAVE, JobManifest, Keyed, Loads, OUTPUT
from .sxp import SxpRegisters

# TEE phases
NO_TEE = "no_tee"
INITIALIZED = "initialized"
LAUNCHED = "launched"
TERMINATED = "terminated"


# ---------------------------------------------------------------------------
# firmware
# ---------------------------------------------------------------------------


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
    manifest: Optional[JobManifest] = None  # the control unit's own decoded copy
    manifest_hash: bytes = b""  # SHA-256 of the manifest bytes it measured
    # what an image keys (``JobManifest.keyed``) -> its register image and key loads, derived at init
    images: Mapping[Keyed, tuple[SxpRegisters, Loads]] = field(default_factory=dict)
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
    ) -> None:
        self._ak_private = ak_private
        self.cert_chain = cert_chain
        self.measurements = measurements
        self.firmware = firmware
        self.device_serial = device_serial
        self.device: Optional[IpuDevice] = None
        self.tee = TeeState()
        # the manifest last admitted: (SHA-256 of its bytes, decoded copy, images)
        self._admitted: tuple[bytes, Optional[JobManifest], Mapping] = (b"", None, {})

    # -- measured boot -------------------------------------------------------

    @classmethod
    def boot(cls, flash: CcuFlash, firmware: FirmwareBundle) -> "Ccu":
        """Run the measured boot chain and return the post-boot state.  The CIK
        derives from the device secret alone; the PIK and the AK derive from it
        and the secondary bootloader's measurement, the AK also from the CCE's."""
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
        return cls(ak, chain, measurements, firmware, flash.device_serial)

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
        if self.tee.phase in (INITIALIZED, LAUNCHED):
            self.tee_terminate(f"security exception: {reason}")

    def _on_device_reset(self) -> None:
        # The reset pins are coupled: a device reset clears TEE state too.
        self.tee = TeeState()

    # -- key plumbing --------------------------------------------------------

    def _stream_key(self, stream_id: int, bank: str) -> bytes:
        entry = self.tee.manifest.stream_table[stream_id]
        if entry.kind == CHECKPOINT:
            key = self.tee.k_load if bank == INGRESS else self.tee.k_save
            if not key:
                raise KeyExchangeFailure(f"no checkpoint key for bank {bank}")
            return key
        if entry.kind == OUTPUT:
            return self.tee.k_m
        key = self.tee.stream_keys.get(stream_id)
        if key is None:
            raise KeyExchangeFailure(f"no key supplied for stream {stream_id}")
        return key

    def _apply(self, keyed: Keyed) -> Loads:
        """Program the register image derived for ``keyed`` and load its keys;
        the device emptied both banks when its tiles last parked, so the
        interval after a barrier holds these keys and no other."""
        device = self._require_device()
        image, loads = self.tee.images[keyed]
        device.program_registers(image)
        for bank, ctx, sid in loads:
            getattr(device, bank).load_key(ctx, self._stream_key(sid, bank))
        return loads

    def _parked(self) -> int:
        """The barrier the device's tiles are parked at."""
        device = self._require_device()
        if device.barrier is None:
            raise InvalidPhase("the tiles are not parked at a barrier")
        return device.barrier

    @contextmanager
    def _serial(self, phase: tuple[str, str]):
        """Key a frame-serial phase for the ``with`` block, and zeroize its key after it."""
        device = self._require_device()
        loads = self._apply(self.tee.manifest.keyed(phase))
        yield
        for bank, ctx, _ in loads:
            getattr(device, bank).invalidate_key(ctx)

    # -- TEE lifecycle -------------------------------------------------------

    def tee_init(
        self,
        manifest_bytes: bytes,
        party_certs: dict[str, Certificate],
        party_keyshares: dict[str, bytes],
        share_signatures: dict[str, bytes],
        epoch: int = 0,
        checkpoint_id: int = 0,
    ) -> AttestationReport:
        """Attest ``manifest_bytes``: decode a private copy, which the control
        unit and the device then run from, and report the bytes' digest.  The
        manifest's rule (``JobManifest.validated_images``) decides whether the
        job may run; this checks only what needs the device or the firmware:
        the ``ipu_id``, the tile bootloader, counters the tiles' 8-bit IV fields
        hold once the start or the restore bumps the epoch, and party shares.
        Any refusal raises an ``ItxError`` before trusted mode is entered.

        The bytes of the manifest last admitted reuse its read-only copy and
        images, which they would decode and derive again; every other check,
        the quiesce and the report run on each call, and only bytes that pass
        them all are remembered."""
        if self.tee.phase != NO_TEE:
            raise InvalidPhase(f"tee_init in phase {self.tee.phase}")
        if not (0 <= epoch < 0xFF and 0 <= checkpoint_id <= 0xFF):
            raise InvalidIvField(f"seeded counters out of range: epoch={epoch}, checkpoint_id={checkpoint_id}")
        device = self._require_device()
        manifest_hash = hashlib.sha256(manifest_bytes).digest()
        admitted = self._admitted
        if admitted[0] != manifest_hash:
            manifest = JobManifest.from_bytes(manifest_bytes)
            admitted = (manifest_hash, manifest, MappingProxyType(manifest.validated_images()))
        _, manifest, images = admitted
        if manifest.ipu_id != device.ipu_id:
            raise InvalidPhase(
                f"manifest targets device {manifest.ipu_id}, attached device is {device.ipu_id}"
            )
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

        y_private = crypto.x25519_generate()
        y_public = crypto.x25519_public_bytes(y_private)
        report = AttestationReport(
            register_measurement=device.registers_digest(),
            manifest_measurement=manifest_hash.hex(),
            ccu_keyshare=y_public,
            epoch=epoch,
            checkpoint_id=checkpoint_id,
            party_fingerprints=tuple(cert.fingerprint for _, cert in sorted(party_certs.items())),
        ).signed(self._ak_private)

        self.tee = TeeState(
            phase=INITIALIZED,
            manifest=manifest,
            manifest_hash=manifest_hash,
            images=images,
            party_certs=dict(party_certs),
            party_shares=dict(party_keyshares),
            epoch=epoch,
            checkpoint_id=checkpoint_id,
            y_private=y_private,
            y_public=y_public,
        )
        self._admitted = admitted
        return report

    def tee_launch(self, wrapped_packages: dict[str, bytes]) -> None:
        if self.tee.phase != INITIALIZED:
            raise InvalidPhase(f"tee_launch in phase {self.tee.phase}")
        device = self._require_device()
        manifest = self.tee.manifest
        if set(wrapped_packages) != set(self.tee.party_certs):
            raise KeyExchangeFailure("one wrapped key package required per party")

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
                self.tee.manifest_hash,
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
        # boot phase, and pull every binary through the secure path.  Keys
        # land from here on, so any failure must end the TEE before it escapes.
        device.autoload(self.firmware.tile_bootloader)
        device.install_boot_params(manifest, self.tee.epoch, self.tee.checkpoint_id)
        try:
            chain = b""
            with self._serial(BOOT):
                for tile in device.tiles:
                    chain = hashlib.sha256(chain + device.run_bootloader(tile.tile_id)).digest()
            if chain.hex() != manifest.binary_hash:
                raise SecurityException("binary hash does not match the manifest")
            if self.tee.epoch == 0:  # a resume keys the barrier it restores instead
                self._apply(manifest.keyed(self._parked()))
        except Exception as exc:
            if self.tee.phase != TERMINATED:
                self.tee_terminate(f"launch failed: {exc}")
            raise
        if self.tee.epoch == 0:
            device.start_application()
        self.tee.phase = LAUNCHED

    def tee_load_keys(self) -> None:
        """Key the barrier the tiles are parked at."""
        if self.tee.phase != LAUNCHED:
            raise InvalidPhase(f"tee_load_keys in phase {self.tee.phase}")
        self._apply(self.tee.manifest.keyed(self._parked()))

    def tee_checkpoint(self) -> tuple[int, int]:
        """Save a checkpoint at a barrier that schedules one: key the save
        phase, stream the state out under k_save, and zeroize k_save's
        context; the barrier's own keys come with ``tee_load_keys``.  Returns
        the (epoch, checkpoint id) the host resumes it by."""
        if self.tee.phase != LAUNCHED:
            raise InvalidPhase(f"tee_checkpoint in phase {self.tee.phase}")
        device = self._require_device()
        if not self.tee.manifest.plan(self._parked())[0].checkpoint:
            raise InvalidSyncPoint(f"barrier {device.barrier} schedules no checkpoint")
        with self._serial(SAVE):
            return device.checkpoint_save()

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
        if not any(entry.kind == CHECKPOINT for entry in self.tee.manifest.stream_table.values()):
            raise InvalidSyncPoint("job has no checkpoint stream")
        with self._serial(RESTORE):
            device.checkpoint_restore()
        self._apply(self.tee.manifest.keyed(self._parked()))
        return device.barrier

    def tee_terminate(self, reason: str) -> None:
        if self.tee.phase not in (INITIALIZED, LAUNCHED):
            raise InvalidPhase(f"tee_terminate in phase {self.tee.phase}")
        device = self._require_device()
        device.scrub()
        device.egress.invalidate_all_keys()
        device.ingress.invalidate_all_keys()
        device.leave_trusted_mode()
        self.tee = TeeState(phase=TERMINATED, reason=reason)
