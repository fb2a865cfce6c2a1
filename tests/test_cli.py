"""End-to-end runs of the command-line front end via in-process main()."""

import argparse
import hashlib
import json

import pytest

from beaconlab import bls, slashing
from beaconlab.cli import _build_parser, main
from beaconlab.suites import ToySuite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", "--no-timestamp", *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# Dispatch and usage errors
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2 and "usage" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_group_without_action_is_usage_error(capsys):
    code, _, _ = run(capsys, "bls")
    assert code == 2


def test_bad_seed_is_usage_error(capsys):
    code, _, err = run(capsys, "--seed", "not-hex", "bls", "keygen")
    assert code == 2 and "seed" in err


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("LAB_SEED", "ab" * 8)
    code, doc = run_json(capsys, "bls", "keygen")
    assert code == 0 and doc["seed"] == "ab" * 8


def test_unknown_compromise_role_is_usage_error(capsys):
    code, out, err = run(
        capsys, "probe", "forward-secrecy", "--compromise", "responder_static,bogus"
    )
    assert code == 2 and out == ""
    assert "unknown role 'bogus'" in err and "Traceback" not in err


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "bls", "batch-verify", "--file", str(tmp_path / "nope.json"))
    assert code == 2 and "error" in err


def test_batch_subgroup_on_the_real_curve_is_usage_error(capsys):
    """The demo runs on the composite-order toy group only, so it takes no
    --suite; a report that said bls12-381 would name a curve on which
    nothing ran. --suite is an option of the commands that read it, so it
    is a usage error before the group too."""
    for argv, error in [
        (
            ("--suite", "bls12-381", "attack", "batch-subgroup"),
            "beaconlab: error: argument group: invalid choice: 'bls12-381' (choose from "
            "'bls', 'attack', 'noise', 'discv5', 'probe', 'measure', 'slash')",
        ),
        (
            ("attack", "batch-subgroup", "--suite", "bls12-381"),
            "beaconlab: error: unrecognized arguments: --suite bls12-381",
        ),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == error and "Traceback" not in err


# A malformed value of each typed option, and the usage error it gives.
_BLOCK = ("--block", "5," + "cc" * 32)
BAD_ARGUMENTS = [
    (("bls", "keygen", "--ikm", "zz"), "--ikm", "hex bytes", "zz"),
    (("bls", "sign", "--sk", "zz", "--message", "00"), "--sk", "a hex integer", "zz"),
    (("bls", "sign", "--sk", "3", "--message", "zz"), "--message", "hex bytes", "zz"),
    (("bls", "verify", "--pk", "zz", "--message", "00", "--signature", "00"),
     "--pk", "hex bytes", "zz"),
    (("bls", "verify", "--pk", "00", "--message", "00", "--signature", "zz"),
     "--signature", "hex bytes", "zz"),
    (("slash", "check", "--db", "{db}", "--pubkey", "zz", *_BLOCK), "--pubkey", "hex bytes", "zz"),
    (("slash", "check", "--db", "{db}", "--genesis-root", "zz", "--pubkey", "11" * 48, *_BLOCK),
     "--genesis-root", "hex bytes", "zz"),
    (("slash", "check", "--db", "{db}", "--pubkey", "11" * 48, "--attestation", "1,2"),
     "--attestation", "source,target,root-hex", "1,2"),
    (("slash", "check", "--db", "{db}", "--pubkey", "11" * 48, "--block", "x"),
     "--block", "slot,root-hex", "x"),
]


@pytest.mark.parametrize(
    "argv, option, form, value", BAD_ARGUMENTS, ids=[case[1][2:] for case in BAD_ARGUMENTS]
)
def test_a_malformed_option_is_a_usage_error(capsys, tmp_path, argv, option, form, value):
    db = tmp_path / "p.jsonl"
    code, out, err = run(capsys, *[a.format(db=db) for a in argv])
    assert code == 2 and out == "" and "Traceback" not in err
    prog = "beaconlab " + " ".join(argv[:2])
    expected = f"{prog}: error: argument {option}: expected {form}, got {value!r}"
    assert err.splitlines()[-1] == expected
    assert not db.exists()


# The commands that run on a pairing suite, and so take --suite.
SUITE_COMMANDS = {
    "bls keygen", "bls sign", "bls verify", "bls aggregate", "bls batch-verify",
    "attack rogue-key", "attack batch-deviation", "slash validate-evidence",
}


def _commands():
    """Every (group, action) pair of the parser, by walking its subparsers."""
    def choices(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices.items()

    return [(g, a) for g, group in choices(_build_parser()) for a, _ in choices(group)]


def test_only_the_suite_commands_report_a_suite(capsys, tmp_path):
    """Each command's report carries the suite in its parameters exactly
    when the command runs on one."""
    doc = tmp_path / "doc.json"
    doc.write_text("{}")
    db = ("--db", str(tmp_path / "p.jsonl"))
    required = {
        "bls sign": ("--sk", "3", "--message", "00"),
        "bls verify": ("--pk", "00", "--message", "00", "--signature", "00"),
        "bls aggregate": ("--signature", "00"),
        "bls batch-verify": ("--file", str(doc)),
        "attack batch-subgroup": ("--trials", "1"),
        "slash check": (*db, "--pubkey", "11" * 48, *_BLOCK),
        "slash export": db,
        "slash import": (*db, "--file", str(doc)),
        "slash validate-evidence": ("--file", str(doc)),
    }
    commands = _commands()
    assert len(commands) == 17 and set(required) <= {" ".join(c) for c in commands}
    for group, action in commands:
        command = f"{group} {action}"
        code, report = run_json(capsys, group, action, *required.get(command, ()))
        assert code in (0, 1) and report["command"] == command
        assert ("suite" in report["parameters"]) == (command in SUITE_COMMANDS), command


# ---------------------------------------------------------------------------
# Report shape and determinism
# ---------------------------------------------------------------------------


def test_report_schema_fields(capsys):
    code, doc = run_json(capsys, "bls", "keygen")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "bls keygen"
    assert set(doc) >= {"seed", "parameters", "outcome", "metrics", "finding"}
    assert "timestamp" not in doc


def test_timestamp_present_by_default(capsys):
    code, out, _ = run(capsys, "--json", "bls", "keygen")
    assert code == 0 and "timestamp" in json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("bls", "keygen"),
        ("attack", "rogue-key"),
        ("attack", "batch-deviation"),
        ("attack", "replay-static-sig"),
        ("noise", "handshake"),
        ("discv5", "handshake", "--variant", "kk"),
        ("probe", "forward-secrecy"),
        ("measure", "amplification"),
    ],
)
def test_reports_are_byte_identical_across_reruns(capsys, argv):
    code1, out1, _ = run(capsys, "--json", "--no-timestamp", "--seed", "0badcafe", *argv)
    code2, out2, _ = run(capsys, "--json", "--no-timestamp", "--seed", "0badcafe", *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_different_seeds_change_the_report(capsys):
    _, doc1 = run_json(capsys, "--seed", "01", "bls", "keygen")
    _, doc2 = run_json(capsys, "--seed", "02", "bls", "keygen")
    assert doc1["metrics"]["pk"] != doc2["metrics"]["pk"]


# ---------------------------------------------------------------------------
# bls round trip through the CLI
# ---------------------------------------------------------------------------


def test_keygen_sign_verify_round_trip(capsys):
    _, doc = run_json(capsys, "bls", "keygen")
    sk, pk = doc["metrics"]["sk"], doc["metrics"]["pk"]
    msg = b"cli round trip".hex()
    _, doc = run_json(capsys, "bls", "sign", "--sk", sk, "--message", msg)
    sig = doc["metrics"]["signature"]
    code, doc = run_json(
        capsys, "bls", "verify", "--pk", pk, "--message", msg, "--signature", sig
    )
    assert code == 0 and doc["outcome"] == "VALID"
    code, doc = run_json(
        capsys, "bls", "verify", "--pk", pk, "--message", b"other".hex(), "--signature", sig
    )
    assert code == 1 and doc["outcome"].startswith("INVALID")


def test_aggregate_command(capsys):
    _, k = run_json(capsys, "bls", "keygen")
    msg = b"m".hex()
    _, s1 = run_json(capsys, "bls", "sign", "--sk", k["metrics"]["sk"], "--message", msg)
    _, s2 = run_json(
        capsys, "--seed", "02", "bls", "sign", "--sk", k["metrics"]["sk"], "--message", msg
    )
    code, doc = run_json(
        capsys,
        "bls", "aggregate",
        "--signature", s1["metrics"]["signature"],
        "--signature", s2["metrics"]["signature"],
    )
    assert code == 0 and doc["metrics"]["signature"]


def test_batch_verify_file(capsys, tmp_path):
    from beaconlab import batch

    suite = ToySuite()  # the CLI parses the file with the default toy suite
    items = []
    for i in range(3):
        sk = bls.keygen(b"cli-batch-%d" % i + b"\x00" * 21, suite=suite)
        msg = b"batch file message %d" % i
        items.append(batch.BatchItem(bls.sign(sk, msg), [(bls.sk_to_pk(sk), msg)]))
    coeffs = batch.BatchCoefficients.generate(b"\x09" * 32, 3, order=suite.order)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch.batch_to_json(items, coeffs, enforce_subgroup=True)))
    code, doc = run_json(capsys, "bls", "batch-verify", "--file", str(path))
    assert code == 0
    assert doc["metrics"]["accepted"] is True
    assert doc["metrics"]["pairings_saved"] == 2  # n - 1 for n = 3


def test_batch_verify_of_a_torsion_signature_is_a_report(capsys, tmp_path, production):
    """A document may waive the subgroup check, so a signature of order 13
    reaches the pairing, whose Miller loop then passes through O: the
    command still ends in a report and exit code 1, not a traceback."""
    from beaconlab import batch

    sk = bls.keygen(b"cli-torsion" + b"\x00" * 21, suite=production)
    msg = b"torsion signature"
    sig = bls.BlsSignature(production.small_order_g2(13))
    coeffs = batch.BatchCoefficients.generate(b"\x0d" * 32, 1, order=production.order)
    assert coeffs.values[0] % 13  # S* = r_1 T is not O, so it is paired
    doc = batch.batch_to_json(
        [batch.BatchItem(sig, [(bls.sk_to_pk(sk), msg)])], coeffs, enforce_subgroup=False
    )
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(
        capsys, "bls", "batch-verify", "--suite", "bls12-381", "--file", str(path)
    )
    assert code == 1 and report["outcome"] == "rejected"
    assert report["metrics"]["accepted"] is False


# ---------------------------------------------------------------------------
# Attack demos: each report shows vulnerable and mitigated modes together
# ---------------------------------------------------------------------------


def test_rogue_key_report(capsys):
    code, doc = run_json(capsys, "attack", "rogue-key")
    assert code == 0
    assert doc["finding"] == "rogue-key-aggregation"
    assert doc["metrics"]["unsafe_fast_verify"] == "VALID"
    assert doc["metrics"]["pop_enforced_verify"].startswith("INVALID")


def test_batch_deviation_report(capsys):
    code, doc = run_json(capsys, "attack", "batch-deviation")
    assert code == 0
    m = doc["metrics"]
    assert m["unit_coefficients_accepted"] and not m["random_coefficients_accepted"]
    assert not m["naive_per_item"]


def test_batch_subgroup_report(capsys):
    code, doc = run_json(capsys, "attack", "batch-subgroup", "--trials", "400")
    assert code == 0
    m = doc["metrics"]
    assert m["passes_with_checks_enabled"] == 0
    assert 0.13 <= m["pass_rate"] <= 0.27


def test_replay_static_sig_report(capsys):
    code, doc = run_json(capsys, "attack", "replay-static-sig")
    assert code == 0
    assert doc["metrics"]["legacy"] == "Impersonated"
    assert doc["metrics"]["hardened"].startswith("Rejected")


def test_replay_static_sig_reports_are_pinned(capsys):
    """SHA-256 over the reports of seeds 0000-012b. The digest equals the
    one taken when the command staged the replay without recording a
    session, recomputed over those reports without the unused "suite"
    parameter, which the command no longer takes."""
    digest = hashlib.sha256()
    for seed in range(0x012B + 1):
        code, out, _ = run(
            capsys, "--json", "--no-timestamp", f"--seed={seed:04x}", "attack", "replay-static-sig"
        )
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "0b8687b28f72351eb8cfa109a94b14b76bbbcf58c2da666550557c3889090b5e"


# ---------------------------------------------------------------------------
# Handshakes, probe, amplification
# ---------------------------------------------------------------------------


def test_noise_handshake_command(capsys):
    code, doc = run_json(capsys, "noise", "handshake", "--mode", "legacy")
    assert code == 0 and doc["outcome"] == "completed"
    assert doc["metrics"]["message_sizes"][0] == 32


def test_discv5_handshake_command(capsys):
    """Completion is the key check: a completed session has opened packets
    under each side's keys, so the report carries no separate key flag."""
    for variant in ("v5", "kk"):
        code, doc = run_json(capsys, "discv5", "handshake", "--variant", variant)
        assert code == 0 and doc["outcome"] == "completed"
        assert sorted(doc["metrics"]) == ["outcome", "transcript"]


def test_probe_contrast_between_variants(capsys):
    _, v5 = run_json(
        capsys, "probe", "forward-secrecy",
        "--protocol", "discv5-v5", "--compromise", "responder_static",
    )
    _, kk = run_json(
        capsys, "probe", "forward-secrecy",
        "--protocol", "discv5-kk", "--compromise", "responder_static",
    )
    assert v5["metrics"]["transport_decrypted"] == v5["metrics"]["transport_messages"] > 0
    assert kk["metrics"]["transport_decrypted"] == 0
    assert v5["metrics"]["initiator_direction_decrypted_fraction"] == 1.0


def test_amplification_command(capsys):
    code, doc = run_json(capsys, "measure", "amplification", "--protocol", "noise-xx")
    assert code == 0
    assert doc["metrics"]["configured"] == {
        "initiator_bytes": 32,
        "responder_bytes": 192,
        "factor": 6.0,
    }
    assert doc["metrics"]["raw_libp2p"]["factor"] == 6.1875


# ---------------------------------------------------------------------------
# Slashing protection through the CLI
# ---------------------------------------------------------------------------


def test_slash_check_allows_then_denies(capsys, tmp_path):
    db = str(tmp_path / "p.jsonl")
    pub = "11" * 48
    code, doc = run_json(
        capsys, "slash", "check", "--db", db, "--pubkey", pub,
        "--attestation", "1,2," + "aa" * 32,
    )
    assert code == 0 and doc["outcome"] == "Allow"
    code, doc = run_json(
        capsys, "slash", "check", "--db", db, "--pubkey", pub,
        "--attestation", "1,2," + "bb" * 32,
    )
    assert code == 1 and doc["outcome"].startswith("Deny")


def test_slash_check_deny_names_the_conflicting_record(capsys, tmp_path):
    db = str(tmp_path / "p.jsonl")
    check = ("slash", "check", "--db", db, "--pubkey", "11" * 48, "--attestation")
    code, doc = run_json(capsys, *check, "1,4," + "aa" * 32)
    assert code == 0 and "conflicts_with" not in doc["metrics"]
    code, doc = run_json(capsys, *check, "2,3," + "bb" * 32)
    assert code == 1 and doc["outcome"] == doc["metrics"]["decision"] == "Deny(surround)"
    assert doc["metrics"]["conflicts_with"] == {
        "source_epoch": "1",
        "target_epoch": "4",
        "signing_root": "0x" + "aa" * 32,
    }


@pytest.mark.parametrize(
    "line, command",
    [("{}", ("check", "--pubkey", "11" * 48, "--block", "5," + "cc" * 32)),
     ("not json", ("export",))],
    ids=["empty-object-check", "not-json-export"],
)
def test_slash_on_a_malformed_db_line_is_a_typed_error(capsys, tmp_path, line, command):
    db = tmp_path / "p.jsonl"
    db.write_text(line + "\n")
    code, out, err = run(capsys, "--json", "--no-timestamp", "slash", command[0], "--db", str(db),
                         *command[1:])
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["outcome"].startswith(f"error: {db} line 1: ")


@pytest.mark.parametrize("pubkey", ["11", "0011", "11" * 47, "11" * 49])
def test_slash_check_refuses_a_key_that_is_not_48_bytes(capsys, tmp_path, pubkey):
    db = tmp_path / "p.jsonl"
    block = ("--block", "5," + "cc" * 32)
    code, doc = run_json(capsys, "slash", "check", "--db", str(db), "--pubkey", pubkey, *block)
    assert code == 1
    assert doc["outcome"] == f"error: validator public key must be 48 bytes, got {len(pubkey) // 2}"
    assert db.read_bytes() == b""


def test_slash_export_import_cycle(capsys, tmp_path):
    db = str(tmp_path / "p.jsonl")
    run_json(
        capsys, "slash", "check", "--db", db, "--pubkey", "22" * 48,
        "--block", "5," + "cc" * 32,
    )
    out = tmp_path / "interchange.json"
    code, doc = run_json(capsys, "slash", "export", "--db", db, "--out", str(out))
    assert code == 0 and out.exists()
    db2 = str(tmp_path / "p2.jsonl")
    code, doc = run_json(capsys, "slash", "import", "--db", db2, "--file", str(out))
    assert code == 0 and doc["metrics"] == {"imported": 1, "skipped": 0}


def test_slash_validate_evidence_file(capsys, tmp_path):
    suite = ToySuite()  # the CLI validates with the default toy suite
    sk = bls.keygen(b"evidence-signer" + b"\x00" * 17, suite=suite)
    a = slashing.AttestationRecord(1, 2, b"\xaa" * 32)
    b = slashing.AttestationRecord(1, 2, b"\xbb" * 32)
    doc = {
        "kind": "attester",
        "pubkey": bls.sk_to_pk(sk).to_bytes().hex(),
        "record_1": {"source_epoch": 1, "target_epoch": 2, "signing_root": "aa" * 32},
        "record_2": {"source_epoch": 1, "target_epoch": 2, "signing_root": "bb" * 32},
        "signature_1": bls.sign(sk, slashing.attestation_signing_bytes(a)).to_bytes().hex(),
        "signature_2": bls.sign(sk, slashing.attestation_signing_bytes(b)).to_bytes().hex(),
    }
    path = tmp_path / "evidence.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "slash", "validate-evidence", "--file", str(path))
    assert code == 0 and out["outcome"] == "Valid"
    # Corrupt one signature: exit 1 with the failing signature named.
    doc["signature_1"] = b"1".hex()  # outside the signature subgroup
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "slash", "validate-evidence", "--file", str(path))
    assert code == 1 and out["metrics"]["reason"] == "bad-signature-1"


# ---------------------------------------------------------------------------
# Malformed documents: a typed error report, never a traceback
# ---------------------------------------------------------------------------

_ROOT = "0x" + "00" * 32


@pytest.mark.parametrize(
    "argv, document",
    [
        (("bls", "batch-verify"), {}),
        (
            ("slash", "validate-evidence"),
            {"kind": "attester", "signature_1": "00", "signature_2": "00"},
        ),
        (
            ("slash", "import", "--db", "{tmp}/p.jsonl"),
            {
                "metadata": {
                    "interchange_format_version": slashing.INTERCHANGE_VERSION,
                    "genesis_validators_root": _ROOT,
                },
                "data": [{"signed_blocks": []}],
            },
        ),
    ],
    ids=["batch-without-items", "evidence-without-pubkey", "interchange-without-pubkey"],
)
def test_malformed_document_is_a_typed_error(capsys, tmp_path, argv, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, "--json", "--no-timestamp", *argv, "--file", str(path))
    assert code == 1
    assert json.loads(out)["outcome"].startswith("error:")
    assert "Traceback" not in err
