"""Turn-key simulated deployments.

Everything a full run needs — a certificate authority, signed firmware, a
provisioned device with its control unit, party identities, and packaged
job inputs — wired together the way a real fleet would be.  The CLI demo
commands and the test suite both start from here.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Callable

from .ccu import Ccu, CcuFlash, FirmwareBundle
from .compiler import CompiledJob, JobDescription, compile_job
from .device import IpuDevice
from .manifest import CODE, DIR_IN, JobManifest
from .packaging import JobInputs, package_inputs
from .pki import COMPONENT_BOOTLOADER, COMPONENT_ICU, CaState, Party, PartyIdentity
from .runtime import TrustedJobSession


@dataclass
class Deployment:
    ca: CaState
    firmware: FirmwareBundle
    flash: CcuFlash
    ccu: Ccu
    device: IpuDevice
    device_chain: dict

    def ca_public(self) -> dict:
        return self.ca.public()

    def tcb_certs(self) -> list:
        return list(self.ca.tcb_certs)


def tile_bootloader_image(revision: str = "1") -> bytes:
    """The tile-level secure bootloader shipped with a firmware revision.
    Compilation pins its measurement without needing a CA in hand."""
    return f"tile secure bootloader r{revision}".encode()


def make_firmware(ca: CaState, revision: str = "1") -> FirmwareBundle:
    return FirmwareBundle(
        secondary_bootloader=ca.sign_firmware(f"secondary bootloader r{revision}".encode()),
        cce=ca.sign_firmware(f"confidential compute engine r{revision}".encode()),
        icu_measurement=hashlib.sha256(f"icu firmware r{revision}".encode()).hexdigest(),
        tile_bootloader=tile_bootloader_image(revision),
    )


def make_deployment(
    seed: int = 0,
    ipu_id: int = 0,
    ca: CaState | None = None,
) -> Deployment:
    """Manufacture, provision, and rack one device end to end."""
    rng = random.Random(seed)
    ca = ca or CaState()
    firmware = make_firmware(ca)
    batch_id = f"batch-{seed // 16}"
    batch_secret = ca.batch_secrets.get(batch_id) or ca.new_batch(batch_id)
    flash = CcuFlash(
        firmware_ca_public=ca.public()["firmware_ca"],
        batch_id=batch_id,
        batch_secret=batch_secret,
        provisioning_nonce=rng.randbytes(16),
        device_serial=f"dev-{seed:04d}",
    )
    flash.first_boot(rng.randbytes(32))
    ccu = Ccu.boot(flash, firmware)
    bundle = ccu.provisioning_bundle(flash)
    issued = ca.ca_provision_and_certify(
        bundle["csr"], bundle["bootloader_manifest"], flash.provisioning_nonce
    )
    device = IpuDevice(ipu_id=ipu_id)
    return _rack(ca, firmware, flash, ccu, device, issued["cik"])


def _rack(
    ca: CaState, firmware: FirmwareBundle, flash: CcuFlash, ccu: Ccu, device: IpuDevice, ca_cik
) -> Deployment:
    """Attach ``device`` to the booted ``ccu``; the chain a party judges the
    device by is the control unit's three certificates and the CA's ``ca_cik``."""
    ccu.attach_device(device)
    chain = {name: ccu.cert_chain[name] for name in ("cik", "pik", "ak")}
    return Deployment(ca, firmware, flash, ccu, device, {**chain, "ca_cik": ca_cik})


def update_firmware(deployment: Deployment, revision: str, revoke_old: bool = False) -> Deployment:
    """Ship a new secondary bootloader: the CA signs it and issues a TCB
    update certificate; the device reboots into it with fresh platform keys
    but the same card identity."""
    ca = deployment.ca
    new_firmware = make_firmware(ca, revision)
    old = deployment.firmware.secondary_bootloader.measurement()
    new = new_firmware.secondary_bootloader.measurement()
    ca.ca_issue_tcb_update(COMPONENT_BOOTLOADER, old, new, revoke_old=revoke_old)
    ca.ca_issue_tcb_update(
        COMPONENT_ICU,
        deployment.firmware.icu_measurement,
        new_firmware.icu_measurement,
        revoke_old=revoke_old,
    )
    ccu = Ccu.boot(deployment.flash, new_firmware)
    deployment.device.reset("sbr")
    ca_cik = deployment.device_chain["ca_cik"]
    return _rack(ca, new_firmware, deployment.flash, ccu, deployment.device, ca_cik)


# ---------------------------------------------------------------------------
# job fixtures
# ---------------------------------------------------------------------------


@dataclass
class JobFixture:
    deployment: Deployment
    compiled: CompiledJob
    session: TrustedJobSession
    parties: dict[str, PartyIdentity]
    inputs: dict[str, JobInputs]
    plaintexts: dict[int, bytes]  # input stream id -> plaintext
    job: JobDescription

    def clear_inputs(self) -> dict[int, bytes]:
        return dict(self.plaintexts)


def _ints(rng: random.Random, count: int, lo: int = -9999, hi: int = 9999) -> bytes:
    return struct.pack(f"<{count}i", *rng.choices(range(lo, hi + 1), k=count))


def _make_session(
    deployment: Deployment,
    manifest: JobManifest,
    parties: dict[str, Party],
    streams: dict[int, tuple[bytes, ...]],
    adversary=None,
) -> TrustedJobSession:
    return TrustedJobSession(
        device=deployment.device,
        ccu=deployment.ccu,
        manifest=manifest,
        parties=parties,
        streams=streams,
        ca_public=deployment.ca_public(),
        device_chain=deployment.device_chain,
        tcb_certs=deployment.tcb_certs(),
        adversary=adversary,
    )


def _make_fixture(
    deployment: Deployment | None,
    job: JobDescription,
    make_plaintexts: Callable[[JobManifest], dict[int, bytes]],
    adversary,
) -> JobFixture:
    """Compile ``job``, create its parties, package each party's streams of
    ``make_plaintexts(manifest)`` (the model party's with the code), make the session."""
    deployment = deployment or make_deployment()
    compiled = compile_job(
        job,
        bootloader_measurement=deployment.firmware.tile_bootloader_measurement(),
        ipu_id=deployment.device.ipu_id,
    )
    manifest = compiled.manifest
    plaintexts = make_plaintexts(manifest)
    parties = {name: PartyIdentity(name) for name in (job.model_party, *job.data_parties)}
    inputs, streams = {}, {}
    for name in parties:
        owned = {sid: blob for sid, blob in plaintexts.items() if manifest.stream_table[sid].party == name}
        code = compiled.binaries if name == job.model_party else None
        inputs[name] = package_inputs(name, manifest, binaries=code, data=owned)
        streams.update(inputs[name].streams)
    actors = {name: Party(identity, inputs[name].keys) for name, identity in parties.items()}
    session = _make_session(deployment, manifest, actors, streams, adversary)
    return JobFixture(deployment, compiled, session, parties, inputs, plaintexts, job)


def make_sgd_fixture(
    deployment: Deployment | None = None,
    *,
    steps: int = 3,
    checkpoint_period: int = 1,
    data_seed: int = 0,
    adversary=None,
) -> JobFixture:
    job = JobDescription(
        kind="sgd",
        model_party="modelco",
        data_parties=("alpha", "beta"),
        steps=steps,
        checkpoint_period=checkpoint_period,
    )

    def plaintexts(manifest: JobManifest) -> dict[int, bytes]:
        rng = random.Random(data_seed)
        model_ints = 192
        model = _ints(rng, model_ints)
        g1 = _ints(rng, steps * model_ints, -500, 500)
        g2 = _ints(rng, steps * model_ints, -500, 500)
        return {2: model, 3: g1, 4: g2}

    return _make_fixture(deployment, job, plaintexts, adversary)


def make_sum_fixture(
    deployment: Deployment | None = None,
    *,
    stream_count: int = 17,
    data_seed: int = 0,
    adversary=None,
) -> JobFixture:
    job = JobDescription(
        kind="sum_streams",
        model_party="modelco",
        data_parties=("alpha", "beta"),
        stream_count=stream_count,
    )

    def plaintexts(manifest: JobManifest) -> dict[int, bytes]:
        rng = random.Random(data_seed)
        return {
            sid: _ints(rng, entry.plaintext_length // 4, -100, 100)
            for sid, entry in manifest.stream_table.items()
            if entry.direction == DIR_IN and entry.kind != CODE
        }

    return _make_fixture(deployment, job, plaintexts, adversary)
