"""Shared exception types."""

from contextlib import contextmanager


class LabError(Exception):
    """Base class for all beaconlab errors."""


class MalformedDocument(LabError):
    """A document lacks a required field or has one of the wrong type or form."""


@contextmanager
def parsing(document: str):
    """Raise a missing, wrongly typed or ill-formed field of ``document``
    (say, non-hex bytes) as :class:`MalformedDocument` instead of a bare
    KeyError, TypeError or ValueError."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise MalformedDocument(f"{document}: missing or mistyped field ({exc!r})") from None


# -- pairing / BLS ----------------------------------------------------------


class InvalidPoint(LabError):
    """Byte string or raw value does not decode to a valid group element."""


class TorsionUnavailable(LabError):
    """The suite has no torsion subgroup of the requested order."""


class IkmTooShort(LabError):
    """Key material shorter than the mandated 32 bytes."""


class InvalidEncoding(LabError):
    """Public key bytes do not decode."""


class IdentityPoint(LabError):
    """Public key decodes to the identity element."""


class NotInSubgroup(LabError):
    """Group element fails the order-r subgroup check."""


class EmptyAggregation(LabError):
    """Aggregation called with an empty list."""


class ArityMismatch(LabError):
    """Parallel argument lists have different lengths."""


# -- batch verification -----------------------------------------------------


class EmptyBatch(LabError):
    """Batch verification called with no items."""


class InvalidCoefficient(LabError):
    """Batch coefficient outside [1, r)."""


# -- slashing ---------------------------------------------------------------


class UnsupportedVersion(LabError):
    """Interchange document version not supported."""


class WrongChain(LabError):
    """Interchange document genesis root does not match the database."""


class InterchangeConflict(LabError):
    """Import would introduce a slashable conflict (reject mode)."""


# -- handshakes -------------------------------------------------------------


class NonceExhausted(LabError):
    """Cipher state nonce reached its cap; the state is poisoned."""


class DecryptFailed(LabError):
    """AEAD tag verification failed."""


class HandshakeAborted(LabError):
    """Noise handshake failed; ``reason`` is 'identity' or 'crypto'."""

    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class ProtocolViolation(LabError):
    """Message violates the handshake pattern rules."""


class ConfigError(LabError):
    """Handshake configuration is incomplete for the requested mode."""


class HandshakeRejected(LabError):
    """discv5 handshake failed; ``reason`` names the failed check."""

    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class ParseError(LabError):
    """Wire bytes do not parse as the declared packet structure."""


# -- simnet -----------------------------------------------------------------


class ScriptError(LabError):
    """Adversary script references a packet that does not exist."""


class IncompleteTranscript(LabError):
    """Measurement requested on a transcript without a full handshake."""
