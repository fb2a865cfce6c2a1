"""Slashable-condition predicates, check-before-sign protection with a
JSON interchange document, and validation of slashing evidence objects.

The protection store is an append-only JSON-lines file with an in-memory
index: deterministic, inspectable, and atomic enough for desk scale. A
candidate is recorded *before* the caller signs, so a crash between the
two can at worst orphan a record, never double-sign.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum

from . import bls
from .errors import InterchangeConflict, UnsupportedVersion, WrongChain, parsing

INTERCHANGE_VERSION = "5"

# Block-inclusion limits for slashing objects.
MAX_ATTESTER_SLASHINGS = 2
MAX_PROPOSER_SLASHINGS = 16


@dataclass(frozen=True)
class AttestationRecord:
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
        self._attestations = {}  # pubkey hex -> list[AttestationRecord]
        self._blocks = {}  # pubkey hex -> list[SignedBlockRecord]
        self._load()

    # -- persistence -------------------------------------------------------

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                self._index(entry["pubkey"], _record_from_entry(entry))

    def _append(self, pubkey_hex, record):
        entry = _record_to_entry(pubkey_hex, record)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _index(self, pubkey_hex, record):
        if isinstance(record, AttestationRecord):
            self._attestations.setdefault(pubkey_hex, []).append(record)
        else:
            self._blocks.setdefault(pubkey_hex, []).append(record)

    # -- the check-then-record flow ---------------------------------------

    def check_and_record(self, pubkey: bytes, candidate) -> Decision:
        """Record the candidate and Allow, unless it conflicts with history.

        On Allow the record has already been durably appended, so the
        caller may sign. Storage failures Deny, never Allow.
        """
        key = pubkey.hex()
        if isinstance(candidate, AttestationRecord):
            history = self._attestations.get(key, [])
            if any(_same_attestation(candidate, r) for r in history):
                return ALLOW  # exact replay, nothing new to record
            for prior in history:
                kind = is_slashable_attestation(candidate, prior)
                if kind is not None:
                    return Decision(False, kind.value)
        elif isinstance(candidate, SignedBlockRecord):
            history = self._blocks.get(key, [])
            if any(r == candidate for r in history):
                return ALLOW
            if any(is_slashable_block(candidate, r) for r in history):
                return Decision(False, "double-proposal")
        else:
            raise TypeError(f"unsupported candidate type {type(candidate)!r}")
        try:
            self._append(key, candidate)
        except OSError as exc:
            return Decision(False, f"storage: {exc}")
        self._index(key, candidate)
        return ALLOW

    # -- interchange -------------------------------------------------------

    def export_interchange(self) -> dict:
        data = []
        for key in sorted(set(self._attestations) | set(self._blocks)):
            data.append(
                {
                    "pubkey": "0x" + key,
                    "signed_blocks": [
                        {"slot": str(r.slot), "signing_root": "0x" + r.signing_root.hex()}
                        for r in sorted(
                            self._blocks.get(key, []),
                            key=lambda r: (r.slot, r.signing_root),
                        )
                    ],
                    "signed_attestations": [
                        {
                            "source_epoch": str(r.source_epoch),
                            "target_epoch": str(r.target_epoch),
                            "signing_root": "0x" + r.signing_root.hex(),
                        }
                        for r in sorted(
                            self._attestations.get(key, []),
                            key=lambda r: (r.source_epoch, r.target_epoch, r.signing_root),
                        )
                    ],
                }
            )
        return {
            "metadata": {
                "interchange_format_version": INTERCHANGE_VERSION,
                "genesis_validators_root": "0x" + self.genesis_validators_root.hex(),
            },
            "data": data,
        }

    def import_interchange(self, doc: dict, *, reject_conflicts: bool = True) -> dict:
        """Merge an interchange document into this database.

        In reject mode, any imported record that is slashable against the
        existing history (or the rest of the document) aborts the import
        before anything is written.
        """
        with parsing("interchange document"):
            meta = doc.get("metadata", {})
            version = meta.get("interchange_format_version")
            if version != INTERCHANGE_VERSION:
                raise UnsupportedVersion(f"unsupported interchange version {version!r}")
            root = _parse_hex(meta.get("genesis_validators_root", ""))
            if root != self.genesis_validators_root:
                raise WrongChain("genesis validators root does not match this database")

            staged = []  # (pubkey hex, record)
            for validator in doc.get("data", []):
                key = _parse_hex(validator["pubkey"]).hex()
                for blk in validator.get("signed_blocks", []):
                    staged.append(
                        (key, SignedBlockRecord(int(blk["slot"]), _parse_hex(blk["signing_root"])))
                    )
                for att in validator.get("signed_attestations", []):
                    staged.append(
                        (
                            key,
                            AttestationRecord(
                                int(att["source_epoch"]),
                                int(att["target_epoch"]),
                                _parse_hex(att["signing_root"]),
                            ),
                        )
                    )

        if reject_conflicts:
            combined = {}
            for key in set(self._attestations) | set(self._blocks):
                combined[key] = list(self._attestations.get(key, [])) + list(
                    self._blocks.get(key, [])
                )
            for key, record in staged:
                for prior in combined.get(key, []):
                    conflict = _conflict(record, prior)
                    if conflict:
                        raise InterchangeConflict(
                            f"validator 0x{key}: {conflict} between {record} and {prior}"
                        )
                combined.setdefault(key, []).append(record)

        imported = skipped = 0
        for key, record in staged:
            history = (
                self._attestations.get(key, [])
                if isinstance(record, AttestationRecord)
                else self._blocks.get(key, [])
            )
            if isinstance(record, AttestationRecord):
                duplicate = any(_same_attestation(record, r) for r in history)
            else:
                duplicate = record in history
            if duplicate:
                skipped += 1
                continue
            self._append(key, record)
            self._index(key, record)
            imported += 1
        return {"imported": imported, "skipped": skipped}


def _conflict(a, b):
    if isinstance(a, AttestationRecord) and isinstance(b, AttestationRecord):
        if _same_attestation(a, b):
            return None
        kind = is_slashable_attestation(a, b)
        return kind.value if kind else None
    if isinstance(a, SignedBlockRecord) and isinstance(b, SignedBlockRecord):
        return "double-proposal" if is_slashable_block(a, b) else None
    return None


def _same_attestation(a, b):
    return (
        a.source_epoch == b.source_epoch
        and a.target_epoch == b.target_epoch
        and a.signing_root == b.signing_root
    )


def _record_to_entry(pubkey_hex, record):
    if isinstance(record, AttestationRecord):
        return {
            "pubkey": pubkey_hex,
            "kind": "attestation",
            "source_epoch": record.source_epoch,
            "target_epoch": record.target_epoch,
            "signing_root": record.signing_root.hex(),
        }
    return {
        "pubkey": pubkey_hex,
        "kind": "block",
        "slot": record.slot,
        "signing_root": record.signing_root.hex(),
    }


def _record_from_entry(entry):
    if entry["kind"] == "attestation":
        return AttestationRecord(
            entry["source_epoch"], entry["target_epoch"], bytes.fromhex(entry["signing_root"])
        )
    return SignedBlockRecord(entry["slot"], bytes.fromhex(entry["signing_root"]))


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
