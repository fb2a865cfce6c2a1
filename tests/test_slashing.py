"""Slashing predicates, the check-before-sign protection store, the
interchange format, and evidence validation."""

import itertools
import json
import os
import random
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from beaconlab import bls, slashing
from beaconlab.errors import (
    InterchangeConflict,
    InvalidEncoding,
    MalformedDocument,
    UnsupportedVersion,
    WrongChain,
)

ROOT_A = b"\xaa" * 32
ROOT_B = b"\xbb" * 32
GENESIS = b"\x11" * 32
KEY8 = b"08" * 48  # a 48-byte key in the hex of a stored line


def att(source, target, root=ROOT_A):
    return slashing.AttestationRecord(source, target, root)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def _oracle(a, b):
    """Independent restatement of the slashing conditions."""
    if a.target_epoch == b.target_epoch and a.signing_root != b.signing_root:
        return "double-vote"
    surrounds = a.source_epoch < b.source_epoch and b.target_epoch < a.target_epoch
    surrounded = b.source_epoch < a.source_epoch and a.target_epoch < b.target_epoch
    if surrounds or surrounded:
        return "surround"
    return None


def test_exhaustive_epoch_tuples_match_oracle():
    """All 65 536 (s1,t1,s2,t2) tuples with epochs below 16."""
    checked = 0
    for s1, t1, s2, t2 in itertools.product(range(16), repeat=4):
        if s1 >= t1 or s2 >= t2:
            continue  # unconstructible records, covered separately
        for r1, r2 in ((ROOT_A, ROOT_A), (ROOT_A, ROOT_B)):
            a, b = att(s1, t1, r1), att(s2, t2, r2)
            kind = slashing.is_slashable_attestation(a, b)
            assert (kind.value if kind else None) == _oracle(a, b)
            # symmetry
            rev = slashing.is_slashable_attestation(b, a)
            assert (rev is None) == (kind is None)
            checked += 1
    assert checked == 2 * (16 * 15 // 2) ** 2


def test_invalid_epoch_ordering_unconstructible():
    with pytest.raises(ValueError):
        att(5, 5)
    with pytest.raises(ValueError):
        att(6, 5)


def test_a_negative_epoch_is_unconstructible_even_below_a_valid_target():
    with pytest.raises(ValueError, match="non-negative"):
        att(-1, 5)


def test_double_vote_needs_differing_roots():
    assert slashing.is_slashable_attestation(att(1, 2), att(1, 2)) is None
    kind = slashing.is_slashable_attestation(att(1, 2), att(1, 2, ROOT_B))
    assert kind is slashing.SlashableKind.DOUBLE_VOTE


def test_surround_both_directions():
    outer, inner = att(1, 10), att(3, 5)
    assert slashing.is_slashable_attestation(outer, inner) is slashing.SlashableKind.SURROUND
    assert slashing.is_slashable_attestation(inner, outer) is slashing.SlashableKind.SURROUND


def test_block_predicate():
    blk = slashing.SignedBlockRecord
    assert slashing.is_slashable_block(blk(7, ROOT_A), blk(7, ROOT_B))
    assert not slashing.is_slashable_block(blk(7, ROOT_A), blk(7, ROOT_A))
    assert not slashing.is_slashable_block(blk(7, ROOT_A), blk(8, ROOT_B))


# ---------------------------------------------------------------------------
# Protection database
# ---------------------------------------------------------------------------


def _db(tmp_path, name="protection.jsonl"):
    return slashing.ProtectionDB(tmp_path / name, GENESIS)


def _attestation_count(db):
    return sum(len(v["signed_attestations"]) for v in db.export_interchange()["data"])


def test_record_then_deny_conflicts(tmp_path):
    db = _db(tmp_path)
    pubkey = b"\x01" * 48
    assert db.check_and_record(pubkey, att(1, 2))
    deny = db.check_and_record(pubkey, att(1, 2, ROOT_B))
    assert not deny and deny.reason == "double-vote"
    deny = db.check_and_record(pubkey, att(0, 3))
    assert not deny and deny.reason == "surround"


def test_exact_replay_is_idempotent(tmp_path):
    db = _db(tmp_path)
    pubkey = b"\x01" * 48
    assert db.check_and_record(pubkey, att(1, 2))
    assert db.check_and_record(pubkey, att(1, 2))  # same vote, same root
    assert _attestation_count(db) == 1


def test_validators_are_isolated(tmp_path):
    db = _db(tmp_path)
    assert db.check_and_record(b"\x01" * 48, att(1, 2))
    # Another validator may cast the conflicting vote.
    assert db.check_and_record(b"\x02" * 48, att(1, 2, ROOT_B))


def test_history_survives_reopen(tmp_path):
    path = tmp_path / "p.jsonl"
    db = slashing.ProtectionDB(path, GENESIS)
    pubkey = b"\x03" * 48
    db.check_and_record(pubkey, att(1, 2))
    db.check_and_record(pubkey, slashing.SignedBlockRecord(9, ROOT_A))
    db2 = slashing.ProtectionDB(path, GENESIS)
    assert not db2.check_and_record(pubkey, att(1, 2, ROOT_B))
    assert not db2.check_and_record(pubkey, slashing.SignedBlockRecord(9, ROOT_B))


def test_record_is_durable_before_allow(tmp_path):
    """The Allow decision must come after the append hits the file."""
    path = tmp_path / "p.jsonl"
    db = slashing.ProtectionDB(path, GENESIS)
    assert db.check_and_record(b"\x04" * 48, att(2, 3))
    on_disk = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(on_disk) == 1 and on_disk[0]["target_epoch"] == 3


def test_storage_failure_denies(tmp_path):
    db = _db(tmp_path)
    db.path = str(tmp_path / "missing-dir" / "p.jsonl")
    decision = db.check_and_record(b"\x05" * 48, att(1, 2))
    assert not decision and decision.reason.startswith("storage:")


def test_two_handles_never_both_allow_a_double_vote(tmp_path):
    first, second = _db(tmp_path), _db(tmp_path)
    pubkey = b"\x06" * 48
    assert first.check_and_record(pubkey, att(1, 5))
    deny = second.check_and_record(pubkey, att(2, 5, ROOT_B))
    assert str(deny) == "Deny(double-vote)" and deny.conflict == att(1, 5)


def test_deny_names_the_prior_record(tmp_path):
    db = _db(tmp_path)
    pubkey = b"\x07" * 48
    blk = slashing.SignedBlockRecord
    for record in (att(1, 2), att(4, 9), blk(3, ROOT_A)):
        assert db.check_and_record(pubkey, record).conflict is None
    deny = db.check_and_record(pubkey, att(5, 6))
    assert str(deny) == "Deny(surround)" and deny.conflict == att(4, 9)
    deny = db.check_and_record(pubkey, blk(3, ROOT_B))
    assert str(deny) == "Deny(double-proposal)" and deny.conflict == blk(3, ROOT_A)
    assert db.check_and_record(pubkey, att(1, 2)).conflict is None  # a replay


def test_allow_appends_one_line_and_deny_or_replay_none(tmp_path):
    path = tmp_path / "p.jsonl"
    db = slashing.ProtectionDB(path, GENESIS)
    pubkey = b"\x09" * 48
    assert db.check_and_record(pubkey, att(1, 2))
    size = path.stat().st_size
    assert path.read_bytes().count(b"\n") == 1 and path.read_bytes().endswith(b"\n")
    assert db.check_and_record(pubkey, att(1, 2))
    assert not db.check_and_record(pubkey, att(1, 2, ROOT_B))
    assert path.stat().st_size == size


def test_every_prefix_of_the_file_opens_with_its_complete_lines(tmp_path, monkeypatch):
    """Cut a file written by a sequence of Allows at every byte offset. The
    cut opens with exactly the records whose line is complete, Denies a
    record slashable against any of them, and takes a later append."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # durability is not under test
    blk = slashing.SignedBlockRecord
    records = [att(1, 2), blk(3, ROOT_A), att(2, 4, ROOT_B), att(4, 5)]
    # Each of these is slashable against the record at its index only.
    slashable = [att(1, 2, ROOT_B), blk(3, ROOT_B), att(3, 4), att(4, 5, ROOT_B)]
    pubkey = b"\x08" * 48
    db = _db(tmp_path, "full.jsonl")
    exports = [db.export_interchange()]
    for record in records:
        assert db.check_and_record(pubkey, record)
        exports.append(db.export_interchange())
    data = (tmp_path / "full.jsonl").read_bytes()
    path = tmp_path / "cut.jsonl"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        complete = data[:cut].count(b"\n")
        db = slashing.ProtectionDB(path, GENESIS)
        assert db.export_interchange() == exports[complete], cut
        assert path.read_bytes() == b"".join(data.splitlines(True)[:complete])
        for record, prior in zip(slashable[:complete], records):
            assert db.check_and_record(pubkey, record).conflict == prior, cut
        if complete < len(records):
            assert db.check_and_record(pubkey, records[complete])
            reopened = slashing.ProtectionDB(path, GENESIS)
            assert reopened.export_interchange() == exports[complete + 1], cut


@pytest.mark.parametrize(
    "line, fault",
    [
        (b"{}", "KeyError"),
        (b"not json", "JSONDecodeError"),
        (b"[]", "TypeError"),
        (b'{"kind": "vote", "pubkey": "' + KEY8 + b'", "signing_root": "' + b"aa" * 32 + b'"}',
         "kind"),
        (b'{"kind": "block", "pubkey": "0X", "signing_root": "' + b"aa" * 32 + b'", "slot": 1}',
         "hex"),
        (b'{"kind": "block", "pubkey": "' + KEY8 + b'", "signing_root": "zz", "slot": 1}', "hex"),
        (b'{"kind": "block", "pubkey": "' + KEY8 + b'", "signing_root": "' + b"aa" * 32
         + b'", "slot": -1}', "non-negative"),
        (b'{"kind": "block", "pubkey": "08", "signing_root": "' + b"aa" * 32 + b'", "slot": 1}',
         "48 bytes, got 1"),
    ],
    ids=["empty-object", "not-json", "list", "unknown-kind", "bad-pubkey", "bad-root", "bad-slot",
         "short-pubkey"],
)
def test_a_malformed_complete_line_is_a_typed_error(tmp_path, line, fault):
    path = tmp_path / "p.jsonl"
    db = slashing.ProtectionDB(path, GENESIS)
    assert db.check_and_record(b"\x08" * 48, att(1, 2))
    with open(path, "ab") as fh:
        fh.write(line + b"\n")
    for fails in (
        lambda: slashing.ProtectionDB(path, GENESIS),
        lambda: db.check_and_record(b"\x08" * 48, att(2, 3)),
    ):
        with pytest.raises(MalformedDocument, match=f"line 2: .*{fault}"):
            fails()


# ---------------------------------------------------------------------------
# Interchange
# ---------------------------------------------------------------------------


def _populated(tmp_path):
    db = _db(tmp_path)
    db.check_and_record(b"\x01" * 48, att(1, 2))
    db.check_and_record(b"\x01" * 48, att(2, 3, ROOT_B))
    db.check_and_record(b"\x01" * 48, slashing.SignedBlockRecord(5, ROOT_A))
    db.check_and_record(b"\x02" * 48, att(0, 9))
    return db


def test_export_shape(tmp_path):
    doc = _populated(tmp_path).export_interchange()
    assert doc["metadata"]["interchange_format_version"] == "5"
    assert doc["metadata"]["genesis_validators_root"] == "0x" + GENESIS.hex()
    assert [v["pubkey"] for v in doc["data"]] == sorted(v["pubkey"] for v in doc["data"])
    first = doc["data"][0]
    assert first["signed_attestations"][0]["source_epoch"] == "1"  # strings
    assert first["signed_blocks"][0]["slot"] == "5"


def test_export_import_export_fixed_point(tmp_path):
    doc = _populated(tmp_path).export_interchange()
    text1 = slashing.canonical_interchange_json(doc)
    fresh = _db(tmp_path, "fresh.jsonl")
    fresh.import_interchange(doc)
    text2 = slashing.canonical_interchange_json(fresh.export_interchange())
    assert text1 == text2


def test_import_skips_duplicates(tmp_path):
    db = _populated(tmp_path)
    summary = db.import_interchange(db.export_interchange())
    assert summary == {"imported": 0, "skipped": 4}


def test_import_version_and_chain_guards(tmp_path):
    db = _db(tmp_path)
    doc = db.export_interchange()
    bad = dict(doc, metadata=dict(doc["metadata"], interchange_format_version="4"))
    with pytest.raises(UnsupportedVersion):
        db.import_interchange(bad)
    bad = dict(
        doc, metadata=dict(doc["metadata"], genesis_validators_root="0x" + "ff" * 32)
    )
    with pytest.raises(WrongChain):
        db.import_interchange(bad)


def test_import_rejects_conflicting_history(tmp_path):
    db = _db(tmp_path)
    db.check_and_record(b"\x01" * 48, att(1, 2))
    doc = {
        "metadata": {
            "interchange_format_version": "5",
            "genesis_validators_root": "0x" + GENESIS.hex(),
        },
        "data": [
            {
                "pubkey": "0x" + "01" * 48,
                "signed_blocks": [],
                "signed_attestations": [
                    {
                        "source_epoch": "1",
                        "target_epoch": "2",
                        "signing_root": "0x" + ROOT_B.hex(),
                    }
                ],
            }
        ],
    }
    with pytest.raises(InterchangeConflict) as exc:
        db.import_interchange(doc)
    assert "01" * 8 in str(exc.value)  # names the offending validator
    # Nothing was written by the aborted import.
    assert _attestation_count(db) == 1


def test_aborted_import_leaves_file_and_export_unchanged(tmp_path):
    path = tmp_path / "p.jsonl"
    db = slashing.ProtectionDB(path, GENESIS)
    db.check_and_record(b"\x01" * 48, att(1, 4))
    before, export = path.read_bytes(), db.export_interchange()
    doc = _doc(
        (b"\x02" * 48, [att(1, 2)]),  # a new validator, staged first
        (b"\x01" * 48, [att(5, 6), att(2, 3)]),  # (2, 3) is surrounded by (1, 4)
    )
    with pytest.raises(InterchangeConflict, match="surround"):
        db.import_interchange(doc)
    assert path.read_bytes() == before and db.export_interchange() == export


def test_import_checks_each_record_against_the_ones_before_it(tmp_path):
    db = _db(tmp_path)
    doc = _doc((b"\x01" * 48, [att(1, 5), att(2, 5, ROOT_B)]))
    with pytest.raises(InterchangeConflict, match="double-vote"):
        db.import_interchange(doc)
    assert db.import_interchange(doc, reject_conflicts=False) == {"imported": 2, "skipped": 0}


def test_import_pays_one_fsync(tmp_path, monkeypatch):
    db = _db(tmp_path)
    fsyncs = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or fsync(fd))
    doc = _doc((b"\x01" * 48, [att(k, k + 1) for k in range(10)]))
    assert db.import_interchange(doc) == {"imported": 10, "skipped": 0}
    assert len(fsyncs) == 1


def _doc(*validators):
    """An interchange document of (pubkey, records) pairs."""
    return {
        "metadata": {
            "interchange_format_version": "5",
            "genesis_validators_root": "0x" + GENESIS.hex(),
        },
        "data": [
            {
                "pubkey": "0x" + pubkey.hex(),
                **{
                    f"signed_{kind}s": [
                        slashing.interchange_record(r) for r in records if r.kind == kind
                    ]
                    for kind in ("block", "attestation")
                },
            }
            for pubkey, records in validators
        ],
    }


@pytest.mark.parametrize("field", ["genesis_validators_root", "pubkey", "signing_root"])
def test_an_interchange_hex_field_needs_its_0x_prefix(tmp_path, field):
    """Without the prefix check, "00" + hex would import as the bytes after
    its first two digits."""
    doc = _doc((b"\x01" * 48, [att(1, 2)]))
    validator = doc["data"][0]
    holder = {
        "genesis_validators_root": doc["metadata"],
        "pubkey": validator,
        "signing_root": validator["signed_attestations"][0],
    }[field]
    holder[field] = "00" + holder[field][2:]
    db = _db(tmp_path)
    with pytest.raises(MalformedDocument, match="0x-prefixed"):
        db.import_interchange(doc)
    assert db.export_interchange()["data"] == []


@settings(max_examples=30, deadline=None)
@given(length=st.integers(0, 96))
@example(length=0)
@example(length=47)
@example(length=48)
@example(length=49)
@example(length=96)
def test_only_a_48_byte_key_enters_a_check_an_import_or_a_load(length):
    """A key of another length would start an empty history that never
    conflicts with the validator's real one."""
    pubkey = b"\x0c" * length
    line = {"kind": "attestation", "pubkey": pubkey.hex(), "signing_root": ROOT_A.hex(),
            "source_epoch": 1, "target_epoch": 2}
    with tempfile.TemporaryDirectory() as tmp:
        check = slashing.ProtectionDB(os.path.join(tmp, "check.jsonl"), GENESIS)
        imported = slashing.ProtectionDB(os.path.join(tmp, "import.jsonl"), GENESIS)
        load = os.path.join(tmp, "load.jsonl")
        with open(load, "w") as fh:
            fh.write(json.dumps(line) + "\n")
        if length == slashing.PUBKEY_BYTES:
            assert check.check_and_record(pubkey, att(1, 2))
            assert imported.import_interchange(_doc((pubkey, [att(1, 2)])))["imported"] == 1
            assert _attestation_count(slashing.ProtectionDB(load, GENESIS)) == 1
            return
        with pytest.raises(InvalidEncoding, match=f"48 bytes, got {length}"):
            check.check_and_record(pubkey, att(1, 2))
        with pytest.raises(MalformedDocument, match=f"48 bytes, got {length}"):
            imported.import_interchange(_doc((pubkey, [att(1, 2)])))
        with pytest.raises(MalformedDocument, match=f"line 1: .*48 bytes, got {length}"):
            slashing.ProtectionDB(load, GENESIS)
        for db in (check, imported):
            assert db.export_interchange()["data"] == []


# ---------------------------------------------------------------------------
# Two handles under checks, imports and reopens, against the oracle
# ---------------------------------------------------------------------------

PUBKEYS = (b"\x0a" * 48, b"\x0b" * 48)
_roots = st.sampled_from((ROOT_A, ROOT_B))
_attestations = st.builds(
    lambda s, d, r: att(s, s + d, r), st.integers(0, 5), st.integers(1, 3), _roots
)
_blocks = st.builds(slashing.SignedBlockRecord, st.integers(0, 3), _roots)
_records = st.one_of(_attestations, _blocks)


def _expected(history, record):
    """(outcome, prior) for ``record`` against ``history`` in file order,
    from the pairwise oracle."""
    if record in history:
        return "Allow", None
    for prior in history:
        if isinstance(record, slashing.AttestationRecord):
            reason = isinstance(prior, slashing.AttestationRecord) and _oracle(record, prior)
        else:
            same_slot = isinstance(prior, slashing.SignedBlockRecord) and prior.slot == record.slot
            reason = same_slot and prior.signing_root != record.signing_root and "double-proposal"
        if reason:
            return f"Deny({reason})", prior
    return "Allow", None


class TwoHandles(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.path = os.path.join(self.dir, "p.jsonl")
        self.handles = [slashing.ProtectionDB(self.path, GENESIS) for _ in range(2)]
        self.model = {pubkey: [] for pubkey in PUBKEYS}  # records in file order

    def teardown(self):
        shutil.rmtree(self.dir)

    @rule(h=st.integers(0, 1), pubkey=st.sampled_from(PUBKEYS), record=_records)
    def check(self, h, pubkey, record):
        history = self.model[pubkey]
        outcome, prior = _expected(history, record)
        decision = self.handles[h].check_and_record(pubkey, record)
        assert (str(decision), decision.conflict) == (outcome, prior)
        if decision and record not in history:
            history.append(record)

    @rule(
        h=st.integers(0, 1),
        entries=st.lists(st.tuples(st.sampled_from(PUBKEYS), _records), max_size=4),
    )
    def import_(self, h, entries):
        data = {}  # pubkey -> records
        for pubkey, record in entries:
            data.setdefault(pubkey, []).append(record)
        doc = _doc(*data.items())
        # The import reads each validator's blocks, then its attestations.
        staged = {pubkey: list(records) for pubkey, records in self.model.items()}
        skipped = 0
        for pubkey, records in data.items():
            for record in sorted(records, key=lambda r: r.kind == "attestation"):
                outcome, prior = _expected(staged[pubkey], record)
                if prior is not None:
                    with pytest.raises(InterchangeConflict, match=outcome[len("Deny(") : -1]):
                        self.handles[h].import_interchange(doc)
                    return
                if record in staged[pubkey]:
                    skipped += 1
                else:
                    staged[pubkey].append(record)
        imported = sum(map(len, staged.values())) - sum(map(len, self.model.values()))
        assert self.handles[h].import_interchange(doc) == {"imported": imported, "skipped": skipped}
        self.model = staged

    @rule(h=st.integers(0, 1))
    def reopen(self, h):
        self.handles[h] = slashing.ProtectionDB(self.path, GENESIS)

    @invariant()
    def handles_export_the_model(self):
        model = {
            ("0x" + pubkey.hex(), json.dumps(slashing.interchange_record(r), sort_keys=True))
            for pubkey, records in self.model.items()
            for r in records
        }
        for db in self.handles:
            exported = {
                (v["pubkey"], json.dumps(r, sort_keys=True))
                for v in db.export_interchange()["data"]
                for r in v["signed_blocks"] + v["signed_attestations"]
            }
            assert exported == model

    @invariant()
    def no_slashable_pair_is_recorded(self):
        for records in self.model.values():
            for k, record in enumerate(records):
                assert _expected(records[:k], record) == ("Allow", None)


def test_two_handles_agree_with_the_pairwise_oracle(monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # durability is not under test
    run_state_machine_as_test(
        TwoHandles, settings=settings(max_examples=40, stateful_step_count=25, deadline=None)
    )


# ---------------------------------------------------------------------------
# Evidence validation
# ---------------------------------------------------------------------------


def _signed_pair(suite, rec1, rec2, tag=b"ev"):
    sk = bls.keygen(tag.ljust(32, b"\x00"), suite=suite)
    pk = bls.sk_to_pk(sk)
    if isinstance(rec1, slashing.AttestationRecord):
        to_bytes = slashing.attestation_signing_bytes
    else:
        to_bytes = slashing.block_signing_bytes
    sig1 = bls.sign(sk, to_bytes(rec1)).to_bytes()
    sig2 = bls.sign(sk, to_bytes(rec2)).to_bytes()
    return pk, sig1, sig2


def test_attester_evidence_valid(toy257):
    a, b = att(1, 2), att(1, 2, ROOT_B)
    pk, sig1, sig2 = _signed_pair(toy257, a, b)
    result = slashing.validate_attester_slashing(a, sig1, b, sig2, pk)
    assert result


def test_attester_evidence_not_slashable(toy257):
    a, b = att(1, 2), att(3, 4)
    pk, sig1, sig2 = _signed_pair(toy257, a, b)
    result = slashing.validate_attester_slashing(a, sig1, b, sig2, pk)
    assert not result and result.reason == "not-slashable"


def test_proposer_evidence(toy257):
    a = slashing.SignedBlockRecord(4, ROOT_A)
    b = slashing.SignedBlockRecord(4, ROOT_B)
    pk, sig1, sig2 = _signed_pair(toy257, a, b)
    assert slashing.validate_proposer_slashing(a, sig1, b, sig2, pk)


def test_evidence_never_valid_with_bad_signature(toy257):
    """Randomized: corrupting either signature must always invalidate."""
    rng = random.Random(1234)
    a, b = att(1, 2), att(1, 2, ROOT_B)
    pk, sig1, sig2 = _signed_pair(toy257, a, b)
    for _ in range(1000):
        bad1, bad2 = sig1, sig2
        which = rng.choice((1, 2))
        forged = str(rng.randrange(toy257.modulus)).encode()
        if which == 1:
            bad1 = forged
        else:
            bad2 = forged
        result = slashing.validate_attester_slashing(a, bad1, b, bad2, pk)
        if result:
            # Only acceptable if the random forgery actually verifies.
            good = slashing.attestation_signing_bytes(a if which == 1 else b)
            assert bls.core_verify(pk, good, forged)


def test_evidence_reports_which_signature_failed(toy257):
    a, b = att(1, 2), att(1, 2, ROOT_B)
    pk, sig1, sig2 = _signed_pair(toy257, a, b)
    r = slashing.validate_attester_slashing(a, b"0", b, sig2, pk)
    assert r.reason == "bad-signature-1"
    r = slashing.validate_attester_slashing(a, sig1, b, b"0", pk)
    assert r.reason == "bad-signature-2"


def test_evidence_caps_are_constants():
    assert slashing.MAX_ATTESTER_SLASHINGS == 2
    assert slashing.MAX_PROPOSER_SLASHINGS == 16
