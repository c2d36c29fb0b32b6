"""Exception hierarchy shared by all modules.

Every failure that a caller is expected to distinguish gets its own class.
``SecurityException`` is special: once a hardware model raises it, the
originating engine latches and drops encrypted traffic until reset.
"""

from __future__ import annotations


class ItxError(Exception):
    """Base class for all errors raised by this package."""


class InvalidEncoding(ItxError):
    """Serialized record data does not decode to the expected type."""


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------


class InvalidIvField(ItxError):
    """A stream IV field is out of range or must be zero for its stream type."""


class InvalidFrameSize(ItxError):
    """Requested frame size violates alignment or maximum-size rules."""


class InvalidPayload(ItxError):
    """Frame payload is empty or not block aligned."""


class InvalidFrame(ItxError):
    """Serialized frame is structurally malformed."""


class AuthenticationFailure(ItxError):
    """GCM tag verification failed for a frame."""


class IvSequenceViolation(ItxError):
    """A frame's IV does not match the expected position in its stream."""

    def __init__(self, position: int) -> None:
        self.position = position
        super().__init__(f"unexpected IV at stream position {position}")


class InvalidLength(ItxError):
    """Declared plaintext length is inconsistent with the frame sequence."""


# ---------------------------------------------------------------------------
# exchange pipe (SXP) engine
# ---------------------------------------------------------------------------


class InvalidRegisterProgram(ItxError):
    """Security register values violate a structural constraint."""


class IndexOutOfRange(ItxError):
    """Key context or register index outside the supported range."""


class ContextBusy(ItxError):
    """Key context operation attempted while a frame is in flight."""


class SecurityException(ItxError):
    """Integrity or policy violation detected by a hardware model.

    Raising this terminates the TEE; the detecting engine latches and
    refuses further encrypted traffic until the device is reset.
    """

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class KeyNotLoaded(SecurityException):
    """Encrypted packet routed to a context with no key material."""


class FrameInterleavingViolation(SecurityException):
    """A second tile touched a key context before the current frame finished."""


# ---------------------------------------------------------------------------
# control unit / TEE lifecycle
# ---------------------------------------------------------------------------


class AlreadyProvisioned(ItxError):
    """The one-time device secret has already been generated."""


class FirmwareAuthFailure(ItxError):
    """Firmware image signature did not verify against the embedded anchor."""


class PartyAuthFailure(ItxError):
    """A party's key-share signature did not verify against its certificate."""


class KeyExchangeFailure(ItxError):
    """A wrapped key package could not be unwrapped or is inconsistent."""


class InvalidPhase(ItxError):
    """TEE lifecycle operation invoked outside its precondition phase."""


class InvalidSyncPoint(ItxError):
    """Key-deployment request names a sync point absent from the manifest."""


# ---------------------------------------------------------------------------
# PKI / supply chain
# ---------------------------------------------------------------------------


class SupplyChainReject(ItxError):
    """Device certification input failed a supply-chain integrity check."""


class InvalidShare(ItxError):
    """Key-exchange share or nonce material is malformed."""


# ---------------------------------------------------------------------------
# device
# ---------------------------------------------------------------------------


class AccessDenied(ItxError):
    """Host access blocked by trusted-mode access control."""


class ImageTooLarge(ItxError):
    """Image exceeds the reserved region it must be loaded into."""


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class ScheduleInfeasible(ItxError):
    """No key-context schedule satisfies the hardware limits for this job."""
