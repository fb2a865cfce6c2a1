"""Command-line front end: every demo, attack, and measurement as a
reproducible command.

All randomness flows from one --seed value (LAB_SEED as fallback)
through deterministic derivation; a rerun with the same seed emits a
byte-identical JSON report once the timestamp is suppressed. Exit codes:
0 = the expected outcome (including "the attack succeeded where it is
supposed to"), 1 = unexpected outcome, 2 = usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import batch as _batch
from . import bls as _bls
from . import simnet as _simnet
from . import slashing as _slash
from .errors import LabError, parsing
from .suites import Bls12381Suite, ToySuite

REPORT_SCHEMA_VERSION = 1
DEFAULT_SEED = "01"
SUITES = {"toy": ToySuite, "bls12-381": Bls12381Suite}


def _get_suite(name: str):
    return SUITES[name]()


def _seed_material(seed_hex: str, label: str) -> bytes:
    return hashlib.sha256(bytes.fromhex(seed_hex) + label.encode()).digest()


def _seed_int(seed_hex: str, label: str) -> int:
    return int.from_bytes(_seed_material(seed_hex, label), "big")


class Report:
    """Accumulates one machine-readable run report."""

    def __init__(self, command: str, seed: str, parameters: dict):
        self.doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": command,
            "seed": seed,
            "parameters": parameters,
            "outcome": None,
            "metrics": {},
            "finding": None,
        }

    def finish(self, outcome: str, *, metrics=None, finding=None):
        self.doc["outcome"] = outcome
        if metrics:
            self.doc["metrics"] = metrics
        if finding:
            self.doc["finding"] = finding
        return self


# ---------------------------------------------------------------------------
# bls subcommands
# ---------------------------------------------------------------------------


def _cmd_bls_keygen(args, report):
    suite = _get_suite(args.suite)
    ikm = bytes.fromhex(args.ikm) if args.ikm else _seed_material(args.seed, "bls-ikm")
    sk = _bls.keygen(ikm, suite=suite)
    pk = _bls.sk_to_pk(sk)
    return 0, report.finish(
        "key generated",
        metrics={"sk": hex(sk.scalar), "pk": pk.to_bytes().hex()},
    )


def _cmd_bls_sign(args, report):
    suite = _get_suite(args.suite)
    sk = _bls.SecretKey(int(args.sk, 16), suite)
    sig = _bls.sign(sk, bytes.fromhex(args.message))
    return 0, report.finish("signed", metrics={"signature": sig.to_bytes().hex()})


def _cmd_bls_verify(args, report):
    suite = _get_suite(args.suite)
    pk = _bls.key_validate(bytes.fromhex(args.pk), suite=suite)
    result = _bls.core_verify(pk, bytes.fromhex(args.message), bytes.fromhex(args.signature))
    code = 0 if result else 1
    return code, report.finish(str(result), metrics={"reason": result.reason})


def _cmd_bls_aggregate(args, report):
    suite = _get_suite(args.suite)
    sigs = [
        _bls.BlsSignature(suite.g2_from_bytes(bytes.fromhex(s))) for s in args.signature
    ]
    agg = _bls.aggregate(sigs)
    return 0, report.finish("aggregated", metrics={"signature": agg.to_bytes().hex()})


def _cmd_bls_batch_verify(args, report):
    suite = _get_suite(args.suite)
    with open(args.file) as fh:
        doc = json.load(fh)
    items, coeffs, enforce = _batch.batch_from_json(doc, suite=suite)
    suite.reset_pairing_count()
    accepted = _batch.batch_verify(items, coeffs, enforce_subgroup=enforce)
    used = suite.pairing_count
    naive_cost = len(items) + sum(len(i.pairs) for i in items)
    metrics = {
        "accepted": accepted,
        "items": len(items),
        "pairings_used": used,
        "pairings_naive": naive_cost,
        "pairings_saved": naive_cost - used,
    }
    return (0 if accepted else 1), report.finish(
        "accepted" if accepted else "rejected", metrics=metrics
    )


# ---------------------------------------------------------------------------
# attack subcommands (each reports vulnerable and mitigated modes together)
# ---------------------------------------------------------------------------


def _cmd_attack_rogue_key(args, report):
    suite = _get_suite(args.suite)
    message = b"shared attestation payload"
    victim_sk = _bls.keygen(_seed_material(args.seed, "victim-ikm"), suite=suite)
    victim_pk = _bls.sk_to_pk(victim_sk)
    rho = _seed_int(args.seed, "rho") % (suite.order - 1) + 1
    rogue_pk, forged = _bls.rogue_key_forge(victim_pk, message, rho)
    unsafe = _bls.unsafe_fast_aggregate_verify([victim_pk, rogue_pk], message, forged)
    pops = [_bls.pop_prove(victim_sk), _bls.ProofOfPossession(forged.point)]
    gated = _bls.fast_aggregate_verify([victim_pk, rogue_pk], pops, message, forged)
    metrics = {
        "unsafe_fast_verify": str(unsafe),
        "pop_enforced_verify": str(gated),
        "pop_enforced_reason": gated.reason,
        "rogue_pk": rogue_pk.to_bytes().hex(),
        "forged_signature": forged.to_bytes().hex(),
    }
    expected = bool(unsafe) and not bool(gated)
    return (0 if expected else 1), report.finish(
        "forgery accepted without possession proofs, rejected with them"
        if expected
        else "unexpected verification outcome",
        metrics=metrics,
        finding="rogue-key-aggregation",
    )


def _make_honest_items(suite, seed_hex, n=2):
    items = []
    for i in range(n):
        sk = _bls.keygen(_seed_material(seed_hex, f"batch-signer-{i}"), suite=suite)
        msg = b"batch message %d" % i
        if suite.hash_to_group2(msg).is_identity():
            msg += b"!"  # avoid degenerate toy hashes
        items.append(
            _batch.BatchItem(_bls.sign(sk, msg), [(_bls.sk_to_pk(sk), msg)])
        )
    return items


def _cmd_attack_batch_deviation(args, report):
    # The default toy subgroup (order 7) leaves only six possible
    # coefficients, so the demo uses the larger toy group to make random
    # collisions negligible.
    suite = ToySuite(subgroup_order=257) if args.suite == "toy" else _get_suite(args.suite)
    items = _make_honest_items(suite, args.seed)
    deviation = 1 * suite.generator_g2
    forged = _batch.forge_additive_deviation(items, deviation)
    seed32 = _seed_material(args.seed, "batch-coeffs")
    unit = _batch.BatchCoefficients.generate(seed32, 2, order=suite.order, bit_width=1)
    rand = _batch.BatchCoefficients.generate(seed32, 2, order=suite.order)
    unit_pass = _batch.batch_verify(forged, unit)
    rand_pass = _batch.batch_verify(forged, rand)
    per_item = _batch.naive_verify(forged)
    metrics = {
        "naive_per_item": per_item,
        "unit_coefficients_accepted": unit_pass,
        "random_coefficients_accepted": rand_pass,
        "coefficient_bits": rand.bit_width,
    }
    expected = unit_pass and not rand_pass and not per_item
    return (0 if expected else 1), report.finish(
        "deviation passes unit-coefficient batching, rejected with random coefficients"
        if expected
        else "unexpected batching outcome",
        metrics=metrics,
        finding="batch-unit-coefficients",
    )


def _cmd_attack_batch_subgroup(args, report):
    # The demo needs the composite-order toy group; the larger subgroup
    # keeps the coefficient distribution close to uniform mod p.
    suite = ToySuite(subgroup_order=257)
    torsion_p = 5
    items = _make_honest_items(suite, args.seed)
    forged = _batch.forge_subgroup_deviation(items, torsion_p)
    passes_disabled = passes_enabled = 0
    for t in range(args.trials):
        seed32 = _seed_material(args.seed, f"subgroup-trial-{t}")
        coeffs = _batch.BatchCoefficients.generate(seed32, 2, order=suite.order)
        if _batch.batch_verify(forged, coeffs, enforce_subgroup=False):
            passes_disabled += 1
        if _batch.batch_verify(forged, coeffs, enforce_subgroup=True):
            passes_enabled += 1
    rate = passes_disabled / args.trials
    metrics = {
        "trials": args.trials,
        "torsion_order": torsion_p,
        "passes_with_checks_disabled": passes_disabled,
        "pass_rate": rate,
        "expected_rate": 1 / torsion_p,
        "passes_with_checks_enabled": passes_enabled,
    }
    expected = passes_enabled == 0 and 0.13 <= rate <= 0.27
    return (0 if expected else 1), report.finish(
        "torsion deviation passes at ~1/p without subgroup checks, never with them"
        if expected
        else "unexpected subgroup outcome",
        metrics=metrics,
        finding="small-subgroup-cancellation",
    )


def _cmd_attack_replay_static_sig(args, report):
    # Record one session per binding and replay the initiator's identity
    # packet, xx-msg3, against a fresh responder.
    replays = {
        mode: _simnet.replay_inject(
            _simnet.run_session("noise-xx", args.seed, mode=mode, transport_rounds=0), 2
        )
        for mode in ("legacy", "hardened")
    }
    metrics = {mode: "Impersonated" if out.accepted else str(out) for mode, out in replays.items()}
    expected = replays["legacy"].accepted and not replays["hardened"].accepted
    return (0 if expected else 1), report.finish(
        "stolen static-key signature impersonates under the legacy binding only"
        if expected
        else "unexpected replay outcome",
        metrics=metrics,
        finding="static-key-signature-replay",
    )


# ---------------------------------------------------------------------------
# handshake / probe / measurement subcommands
# ---------------------------------------------------------------------------


def _cmd_noise_handshake(args, report):
    session = _simnet.run_session("noise-xx", args.seed, mode=args.mode)
    metrics = {
        "outcome": session.outcome.status,
        "message_sizes": [len(e.data) for e in session.transcript.entries[:3]],
        "transcript": session.transcript.to_json(),
    }
    code = 0 if session.outcome.status == "completed" else 1
    return code, report.finish(session.outcome.status, metrics=metrics)


def _cmd_discv5_handshake(args, report):
    # A completed session has opened nodes-response under the initiator's
    # r->i key and every transport-i* under the responder's i->r key, so
    # completion already means that both sides derived the same keys.
    protocol = f"discv5-{args.variant}"
    session = _simnet.run_session(protocol, args.seed, transcript_binding=args.transcript_binding)
    metrics = {"outcome": session.outcome.status, "transcript": session.transcript.to_json()}
    code = 0 if session.outcome.status == "completed" else 1
    return code, report.finish(session.outcome.status, metrics=metrics)


def _cmd_probe_forward_secrecy(args, report):
    roles = [r.strip() for r in args.compromise.split(",") if r.strip()]
    session = _simnet.run_session(args.protocol, args.seed)
    compromise = (
        _simnet.CompromiseSet.of(session, *roles) if roles else _simnet.CompromiseSet.empty()
    )
    probe = _simnet.passive_decrypt_probe(session.transcript, compromise)
    transport = [e for e in probe.entries if e.label.startswith("transport")]
    i2r = [e for e in transport if e.direction == "i->r"]
    metrics = {
        "compromised_roles": roles,
        "transport_messages": len(transport),
        "transport_decrypted": sum(e.decrypted for e in transport),
        "initiator_direction_decrypted_fraction": probe.decrypt_fraction(i2r),
        "per_message": probe.to_json(),
    }
    return 0, report.finish(
        "probe complete", metrics=metrics, finding="responder-static-forward-secrecy"
    )


def _cmd_measure_amplification(args, report):
    if args.protocol == "noise-xx":
        configured = _simnet.run_session(
            "noise-xx", args.seed, mode="bare", responder_padding=96, transport_rounds=0
        )
        raw = _simnet.run_session("noise-xx", args.seed, mode="legacy", transport_rounds=0)
        conf = _simnet.measure_amplification(configured.transcript)
        raw_m = _simnet.measure_amplification(raw.transcript)
        metrics = {"configured": conf, "raw_libp2p": raw_m}
        expected = conf["factor"] == 6.0
        return (0 if expected else 1), report.finish(
            f"configured factor {conf['factor']}",
            metrics=metrics,
            finding="handshake-amplification",
        )
    session = _simnet.run_session(args.protocol, args.seed, transport_rounds=0)
    m = _simnet.measure_amplification(session.transcript)
    return 0, report.finish(
        f"factor {m['factor']}", metrics={"raw": m}, finding="handshake-amplification"
    )


# ---------------------------------------------------------------------------
# slash subcommands
# ---------------------------------------------------------------------------


def _open_db(args):
    return _slash.ProtectionDB(args.db, bytes.fromhex(args.genesis_root))


def _cmd_slash_check(args, report):
    db = _open_db(args)
    pubkey = bytes.fromhex(args.pubkey)
    if args.attestation:
        record = _slash.AttestationRecord(*_attestation_fields(args.attestation))
    else:
        record = _slash.SignedBlockRecord(*_block_fields(args.block))
    decision = db.check_and_record(pubkey, record)
    metrics = {"decision": str(decision)}
    if decision.conflict is not None:
        metrics["conflicts_with"] = _slash.interchange_record(decision.conflict)
    return (0 if decision else 1), report.finish(str(decision), metrics=metrics)


def _cmd_slash_export(args, report):
    db = _open_db(args)
    text = _slash.canonical_interchange_json(db.export_interchange())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0, report.finish("exported", metrics={"interchange": json.loads(text)})


def _cmd_slash_import(args, report):
    db = _open_db(args)
    with open(args.file) as fh:
        doc = json.load(fh)
    summary = db.import_interchange(doc)
    return 0, report.finish("imported", metrics=summary)


def _cmd_slash_validate_evidence(args, report):
    suite = _get_suite(args.suite)
    with open(args.file) as fh:
        doc = json.load(fh)
    with parsing("evidence document"):
        pubkey_bytes = bytes.fromhex(doc["pubkey"])
        sig1 = bytes.fromhex(doc["signature_1"])
        sig2 = bytes.fromhex(doc["signature_2"])
        if doc["kind"] == "attester":
            rec = lambda d: _slash.AttestationRecord(
                d["source_epoch"], d["target_epoch"], bytes.fromhex(d["signing_root"])
            )
            validate = _slash.validate_attester_slashing
        elif doc["kind"] == "proposer":
            rec = lambda d: _slash.SignedBlockRecord(d["slot"], bytes.fromhex(d["signing_root"]))
            validate = _slash.validate_proposer_slashing
        else:
            raise ValueError("kind must be attester or proposer")
        rec1, rec2 = rec(doc["record_1"]), rec(doc["record_2"])
    pubkey = _bls.key_validate(pubkey_bytes, suite=suite)
    result = validate(rec1, sig1, rec2, sig2, pubkey)
    metrics = {"result": str(result), "reason": result.reason}
    return (0 if result else 1), report.finish(str(result), metrics=metrics)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _attestation_fields(text: str):
    source, target, root = text.split(",")
    return int(source), int(target), bytes.fromhex(root)


def _block_fields(text: str):
    slot, root = text.split(",")
    return int(slot), bytes.fromhex(root)


def _checked(parse, form: str):
    """An argparse ``type`` under which a value that ``parse`` cannot read
    is a usage error; the text itself is kept for the report."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
        return text

    return check


_hex = _checked(bytes.fromhex, "hex bytes")
_hex_int = _checked(lambda text: int(text, 16), "a hex integer")


def _role_list(text: str) -> str:
    """Check a comma-separated role list at parse time, so that an unknown
    role is a usage error; the text itself is kept for the report."""
    unknown = [r for r in text.split(",") if r.strip() not in ("", *_simnet.ROLES)]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown role {unknown[0].strip()!r}; roles are {', '.join(_simnet.ROLES)}"
        )
    return text


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="beaconlab",
        description="Protocol-security laboratory: signatures, slashing "
        "protection, and handshake analysis.",
    )
    parser.add_argument(
        "--seed",
        type=_hex,
        default=os.environ.get("LAB_SEED") or DEFAULT_SEED,
        help="hex seed for all randomness (env LAB_SEED)",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp for reproducibility"
    )
    sub = parser.add_subparsers(dest="group", required=True)
    # Only the commands that run on a pairing suite take --suite.
    suite = argparse.ArgumentParser(add_help=False)
    suite.add_argument("--suite", choices=list(SUITES), default="toy", help="pairing suite")

    bls_p = sub.add_parser("bls").add_subparsers(dest="action", required=True)
    p = bls_p.add_parser("keygen", parents=[suite])
    p.add_argument("--ikm", type=_hex, help="hex key material (defaults to seed-derived)")
    p.set_defaults(handler=_cmd_bls_keygen)
    p = bls_p.add_parser("sign", parents=[suite])
    p.add_argument("--sk", type=_hex_int, required=True, help="hex secret scalar")
    p.add_argument("--message", type=_hex, required=True, help="hex message")
    p.set_defaults(handler=_cmd_bls_sign)
    p = bls_p.add_parser("verify", parents=[suite])
    p.add_argument("--pk", type=_hex, required=True)
    p.add_argument("--message", type=_hex, required=True)
    p.add_argument("--signature", type=_hex, required=True)
    p.set_defaults(handler=_cmd_bls_verify)
    p = bls_p.add_parser("aggregate", parents=[suite])
    p.add_argument("--signature", type=_hex, action="append", required=True)
    p.set_defaults(handler=_cmd_bls_aggregate)
    p = bls_p.add_parser("batch-verify", parents=[suite])
    p.add_argument("--file", required=True, help="batch JSON document")
    p.set_defaults(handler=_cmd_bls_batch_verify)

    atk = sub.add_parser("attack").add_subparsers(dest="action", required=True)
    atk.add_parser("rogue-key", parents=[suite]).set_defaults(handler=_cmd_attack_rogue_key)
    p = atk.add_parser("batch-deviation", parents=[suite])
    p.set_defaults(handler=_cmd_attack_batch_deviation)
    p = atk.add_parser("batch-subgroup")
    p.add_argument("--trials", type=int, default=400)
    p.set_defaults(handler=_cmd_attack_batch_subgroup)
    atk.add_parser("replay-static-sig").set_defaults(handler=_cmd_attack_replay_static_sig)

    noise_p = sub.add_parser("noise").add_subparsers(dest="action", required=True)
    p = noise_p.add_parser("handshake")
    p.add_argument("--mode", choices=["legacy", "hardened", "bare"], default="legacy")
    p.set_defaults(handler=_cmd_noise_handshake)

    d5_p = sub.add_parser("discv5").add_subparsers(dest="action", required=True)
    p = d5_p.add_parser("handshake")
    p.add_argument("--variant", choices=["v5", "kk"], default="v5")
    p.add_argument("--transcript-binding", action="store_true")
    p.set_defaults(handler=_cmd_discv5_handshake)

    probe_p = sub.add_parser("probe").add_subparsers(dest="action", required=True)
    p = probe_p.add_parser("forward-secrecy")
    p.add_argument(
        "--protocol", choices=["noise-xx", "discv5-v5", "discv5-kk"], default="discv5-v5"
    )
    p.add_argument(
        "--compromise", type=_role_list, default="responder_static", help="comma-separated roles"
    )
    p.set_defaults(handler=_cmd_probe_forward_secrecy)

    meas = sub.add_parser("measure").add_subparsers(dest="action", required=True)
    p = meas.add_parser("amplification")
    p.add_argument(
        "--protocol", choices=["noise-xx", "discv5-v5", "discv5-kk"], default="noise-xx"
    )
    p.set_defaults(handler=_cmd_measure_amplification)

    slash_p = sub.add_parser("slash").add_subparsers(dest="action", required=True)

    def _db_args(p):
        p.add_argument("--db", required=True, help="protection database path")
        p.add_argument(
            "--genesis-root",
            type=_hex,
            default="00" * 32,
            help="hex genesis validators root (chain identifier)",
        )

    p = slash_p.add_parser("check")
    _db_args(p)
    p.add_argument("--pubkey", type=_hex, required=True)
    record = p.add_mutually_exclusive_group(required=True)
    record.add_argument(
        "--attestation",
        type=_checked(_attestation_fields, "source,target,root-hex"),
        help="source,target,root-hex",
    )
    record.add_argument(
        "--block", type=_checked(_block_fields, "slot,root-hex"), help="slot,root-hex"
    )
    p.set_defaults(handler=_cmd_slash_check)
    p = slash_p.add_parser("export")
    _db_args(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_slash_export)
    p = slash_p.add_parser("import")
    _db_args(p)
    p.add_argument("--file", required=True)
    p.set_defaults(handler=_cmd_slash_import)
    p = slash_p.add_parser("validate-evidence", parents=[suite])
    p.add_argument("--file", required=True)
    p.set_defaults(handler=_cmd_slash_validate_evidence)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    parameters = {
        k: v
        for k, v in vars(args).items()
        if k not in ("handler", "group", "action", "json", "no_timestamp", "seed")
        and v is not None
    }
    command = f"{args.group} {args.action}"
    report = Report(command, args.seed, parameters)
    try:
        code, report = args.handler(args, report)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LabError, ValueError) as exc:
        report.finish(f"error: {exc}")
        code = 1
    if not args.no_timestamp:
        report.doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if args.json:
        print(json.dumps(report.doc, indent=2, sort_keys=True))
    else:
        print(f"{report.doc['command']}: {report.doc['outcome']}")
        for key, value in report.doc["metrics"].items():
            if key == "transcript" or isinstance(value, (dict, list)):
                continue
            print(f"  {key}: {value}")
    return code


if __name__ == "__main__":
    sys.exit(main())
