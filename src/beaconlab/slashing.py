"""Slashable-condition predicates, check-before-sign protection with a
JSON interchange document, and validation of slashing evidence objects.

The protection store is an append-only JSON-lines file, and the file is
the truth. Each handle's in-memory index is a cache of its complete lines,
brought up to date under the file's exclusive ``flock`` before every
check, import and export, so two handles (or processes) on one file never
both Allow a slashable pair. A final line without its newline was never
acknowledged, since Allow comes only after the fsync; it is cut off.
Any other line that does not parse raises MalformedDocument with its line
number. A check appends one line, an import all its lines, each with one
fsync. A candidate is recorded *before* the caller signs, so a crash
between the two can at worst orphan a record, never double-sign.

Validators are keyed by their 48-byte public key (EIP-3076). A key of any
other length is refused where it enters: a check raises InvalidEncoding,
and an interchange document or a stored line raises MalformedDocument. So
a file that holds a shorter key, which earlier versions accepted, no
longer opens.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

from . import bls
from .errors import (
    InterchangeConflict,
    InvalidEncoding,
    MalformedDocument,
    UnsupportedVersion,
    WrongChain,
    parsing,
)

INTERCHANGE_VERSION = "5"
_decode = json.JSONDecoder().decode  # json.loads(str) without its per-call checks

# EIP-3076 keys validators by their 48-byte compressed BLS12-381 G1 key. The
# length is the whole rule: a check does not pay for a decompression.
PUBKEY_BYTES = 48

# Block-inclusion limits for slashing objects.
MAX_ATTESTER_SLASHINGS = 2
MAX_PROPOSER_SLASHINGS = 16


@dataclass(frozen=True)
class AttestationRecord:
    kind = "attestation"  # a class attribute, not a field
    source_epoch: int
    target_epoch: int
    signing_root: bytes

    def __post_init__(self):
        if self.source_epoch < 0 or self.target_epoch < 0:
            raise ValueError("epochs must be non-negative")
        if self.source_epoch >= self.target_epoch:
            # source == target is left undefined upstream; we refuse to
            # record such attestations rather than guess.
            raise ValueError("source epoch must be strictly below target epoch")
        if len(self.signing_root) != 32:
            raise ValueError("signing root must be 32 bytes")


@dataclass(frozen=True)
class SignedBlockRecord:
    kind = "block"  # a class attribute, not a field
    slot: int
    signing_root: bytes

    def __post_init__(self):
        if self.slot < 0:
            raise ValueError("slot must be non-negative")
        if len(self.signing_root) != 32:
            raise ValueError("signing root must be 32 bytes")


class SlashableKind(Enum):
    DOUBLE_VOTE = "double-vote"
    SURROUND = "surround"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def is_slashable_attestation(a: AttestationRecord, b: AttestationRecord):
    """Return the violated predicate for a conflicting attestation pair,
    or None. Symmetric up to which record does the surrounding."""
    if a.target_epoch == b.target_epoch and a.signing_root != b.signing_root:
        return SlashableKind.DOUBLE_VOTE
    if a.source_epoch < b.source_epoch and b.target_epoch < a.target_epoch:
        return SlashableKind.SURROUND
    if b.source_epoch < a.source_epoch and a.target_epoch < b.target_epoch:
        return SlashableKind.SURROUND
    return None


def is_slashable_block(a: SignedBlockRecord, b: SignedBlockRecord) -> bool:
    return a.slot == b.slot and a.signing_root != b.signing_root


# ---------------------------------------------------------------------------
# Check-before-sign protection database
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    allowed: bool
    reason: str | None = None
    conflict: AttestationRecord | SignedBlockRecord | None = None  # the prior record

    def __bool__(self):
        return self.allowed

    def __str__(self):
        return "Allow" if self.allowed else f"Deny({self.reason})"


ALLOW = Decision(True)


class ProtectionDB:
    """Append-only slashing-protection store for any number of validators."""

    def __init__(self, path, genesis_validators_root: bytes):
        if len(genesis_validators_root) != 32:
            raise ValueError("genesis validators root must be 32 bytes")
        self.path = os.fspath(path)
        self.genesis_validators_root = genesis_validators_root
        self._records = {}  # (pubkey hex, kind) -> {record: None}, in file order
        self._offset = self._lines = 0  # bytes and complete lines indexed
        with self._locked():
            pass  # the lock indexes the file's complete lines

    @contextmanager
    def _locked(self):
        """Hold the file's exclusive lock with the index caught up to it.
        Yields a list: the (key, record) pairs a caller indexes and stages
        there are appended on exit with one fsync. On any failure they
        leave the index again and the offset stays, so the next lock reads
        back whatever reached the file."""
        with open(self.path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            self._catch_up(fh)
            staged = []
            try:
                yield staged
                if staged:
                    fh.writelines(_line(key, record) for key, record in staged)
                    fh.flush()
                    os.fsync(fh.fileno())
            except BaseException:
                for key, record in staged:
                    del self._records[key][record]
                    if not self._records[key]:
                        del self._records[key]
                raise
            self._offset = fh.tell()
            self._lines += len(staged)

    def _catch_up(self, fh):
        """Index the lines appended since this handle last read the file.
        A final line without its newline was never acknowledged (Allow
        comes only after the fsync), so it is cut off."""
        records, number = self._records, self._lines
        fh.seek(self._offset)
        try:
            for number, line in enumerate(fh, number + 1):
                if line[-1:] != b"\n":
                    fh.truncate(fh.tell() - len(line))
                    fh.seek(0, os.SEEK_END)
                    number -= 1
                    break
                entry = _decode(line.decode())
                key = (entry["pubkey"], entry["kind"])
                root = bytes.fromhex(entry["signing_root"])
                if key[1] == "attestation":
                    record = AttestationRecord(entry["source_epoch"], entry["target_epoch"], root)
                elif key[1] == "block":
                    record = SignedBlockRecord(entry["slot"], root)
                else:
                    raise ValueError(f"unknown record kind {key[1]!r}")
                history = records.get(key)
                if history is None:
                    if _pubkey_hex(bytes.fromhex(key[0])) != key[0]:
                        raise ValueError(f"pubkey {key[0]!r} is not lowercase hex")
                    history = records[key] = {}
                history[record] = None
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDocument(f"{self.path} line {number}: {exc!r}") from None
        self._offset, self._lines = fh.tell(), number

    def _verdict(self, key, record, slashable=True):
        """ALLOW for an exact replay, a Deny naming the prior record for a
        slashable one, None for a new safe record. ``slashable=False``
        runs only the replay test."""
        history = self._records.get(key, ())
        if record in history:
            return ALLOW
        if slashable and key[1] == "attestation":
            for prior in history:
                kind = is_slashable_attestation(record, prior)
                if kind is not None:
                    return Decision(False, kind.value, prior)
        elif slashable:
            for prior in history:
                if is_slashable_block(record, prior):
                    return Decision(False, "double-proposal", prior)
        return None

    def check_and_record(self, pubkey: bytes, candidate) -> Decision:
        """Record the candidate and Allow, unless it conflicts with history.

        On Allow the record has already been durably appended, so the
        caller may sign. Storage failures Deny, never Allow.
        """
        if not isinstance(candidate, (AttestationRecord, SignedBlockRecord)):
            raise TypeError(f"unsupported candidate type {type(candidate)!r}")
        try:
            key = (_pubkey_hex(pubkey), candidate.kind)
        except ValueError as exc:
            raise InvalidEncoding(str(exc)) from None
        try:
            with self._locked() as staged:
                decision = self._verdict(key, candidate)
                if decision is None:
                    self._records.setdefault(key, {})[candidate] = None
                    staged.append((key, candidate))
                    decision = ALLOW
        except OSError as exc:
            return Decision(False, f"storage: {exc}")
        return decision

    # -- interchange -------------------------------------------------------

    def export_interchange(self) -> dict:
        with self._locked():
            records = self._records
            data = [
                {
                    "pubkey": "0x" + key,
                    "signed_blocks": [
                        interchange_record(r)
                        for r in sorted(
                            records.get((key, "block"), ()),
                            key=lambda r: (r.slot, r.signing_root),
                        )
                    ],
                    "signed_attestations": [
                        interchange_record(r)
                        for r in sorted(
                            records.get((key, "attestation"), ()),
                            key=lambda r: (r.source_epoch, r.target_epoch, r.signing_root),
                        )
                    ],
                }
                for key in sorted({key for key, _ in records})
            ]
        return {
            "metadata": {
                "interchange_format_version": INTERCHANGE_VERSION,
                "genesis_validators_root": "0x" + self.genesis_validators_root.hex(),
            },
            "data": data,
        }

    def import_interchange(self, doc: dict, *, reject_conflicts: bool = True) -> dict:
        """Merge an interchange document into this database with one fsync.

        In reject mode, any imported record that is slashable against the
        existing history (or the document's records before it) aborts the
        import before anything is written.
        """
        with parsing("interchange document"):
            meta = doc.get("metadata", {})
            version = meta.get("interchange_format_version")
            if version != INTERCHANGE_VERSION:
                raise UnsupportedVersion(f"unsupported interchange version {version!r}")
            root = _parse_hex(meta.get("genesis_validators_root", ""))
            if root != self.genesis_validators_root:
                raise WrongChain("genesis validators root does not match this database")

            records = []  # (key, record)
            for validator in doc.get("data", []):
                pubkey = _pubkey_hex(_parse_hex(validator["pubkey"]))
                key = (pubkey, "block")
                for blk in validator.get("signed_blocks", []):
                    root = _parse_hex(blk["signing_root"])
                    records.append((key, SignedBlockRecord(int(blk["slot"]), root)))
                key = (pubkey, "attestation")
                for att in validator.get("signed_attestations", []):
                    source, target = int(att["source_epoch"]), int(att["target_epoch"])
                    record = AttestationRecord(source, target, _parse_hex(att["signing_root"]))
                    records.append((key, record))

        skipped = 0
        with self._locked() as staged:
            for item in records:
                key, record = item
                verdict = self._verdict(key, record, slashable=reject_conflicts)
                if verdict is None:
                    self._records.setdefault(key, {})[record] = None
                    staged.append(item)
                elif verdict:
                    skipped += 1
                else:
                    raise InterchangeConflict(
                        f"validator 0x{key[0]}: {verdict.reason} between {record} "
                        f"and {verdict.conflict}"
                    )
        return {"imported": len(staged), "skipped": skipped}


def interchange_record(record) -> dict:
    """A record in interchange form: decimal strings and a 0x root."""
    root = "0x" + record.signing_root.hex()
    if record.kind == "block":
        return {"slot": str(record.slot), "signing_root": root}
    source, target = str(record.source_epoch), str(record.target_epoch)
    return {"source_epoch": source, "target_epoch": target, "signing_root": root}


def _line(key, record):
    entry = dict(vars(record), pubkey=key[0], kind=key[1], signing_root=record.signing_root.hex())
    return (json.dumps(entry, sort_keys=True) + "\n").encode()


def _pubkey_hex(pubkey: bytes) -> str:
    """A validator's index key: its public key in hex, if it is exactly
    PUBKEY_BYTES long."""
    if len(pubkey) != PUBKEY_BYTES:
        raise ValueError(f"validator public key must be {PUBKEY_BYTES} bytes, got {len(pubkey)}")
    return pubkey.hex()


def _parse_hex(value: str) -> bytes:
    if not isinstance(value, str) or not value.startswith("0x"):
        raise ValueError(f"expected 0x-prefixed hex string, got {value!r}")
    return bytes.fromhex(value[2:])


def canonical_interchange_json(doc: dict) -> str:
    """Byte-stable rendering used for fixed-point and on-disk output."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Slashing-evidence validation (signatures are never skippable)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvidenceResult:
    valid: bool
    reason: str | None = None

    def __bool__(self):
        return self.valid

    def __str__(self):
        return "Valid" if self.valid else f"Invalid({self.reason})"


def attestation_signing_bytes(record: AttestationRecord) -> bytes:
    return (
        b"attestation:"
        + record.source_epoch.to_bytes(8, "big")
        + record.target_epoch.to_bytes(8, "big")
        + record.signing_root
    )


def block_signing_bytes(record: SignedBlockRecord) -> bytes:
    return b"block:" + record.slot.to_bytes(8, "big") + record.signing_root


def validate_attester_slashing(
    attestation_1, signature_1, attestation_2, signature_2, pubkey: bls.PublicKey
) -> EvidenceResult:
    """Valid iff the attestations are mutually slashable AND both BLS
    signatures verify. There is deliberately no way to skip the signature
    checks."""
    if is_slashable_attestation(attestation_1, attestation_2) is None:
        return EvidenceResult(False, "not-slashable")
    if not bls.core_verify(pubkey, attestation_signing_bytes(attestation_1), signature_1):
        return EvidenceResult(False, "bad-signature-1")
    if not bls.core_verify(pubkey, attestation_signing_bytes(attestation_2), signature_2):
        return EvidenceResult(False, "bad-signature-2")
    return EvidenceResult(True)


def validate_proposer_slashing(
    header_1, signature_1, header_2, signature_2, pubkey: bls.PublicKey
) -> EvidenceResult:
    if not is_slashable_block(header_1, header_2):
        return EvidenceResult(False, "not-slashable")
    if not bls.core_verify(pubkey, block_signing_bytes(header_1), signature_1):
        return EvidenceResult(False, "bad-signature-1")
    if not bls.core_verify(pubkey, block_signing_bytes(header_2), signature_2):
        return EvidenceResult(False, "bad-signature-2")
    return EvidenceResult(True)
