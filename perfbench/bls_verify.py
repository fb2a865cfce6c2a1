"""The BLS part of every workload: signing and three verification paths
on BLS12-381.

Every round signs two fresh messages (one per signer), aggregates the two
signatures and then, with the signatures given as bytes and the keys
cached as validated:

- ``honest``: ``core_verify`` of each valid signature, ``aggregate_verify``
  of the aggregate (distinct messages, distinct signers) and a two-item
  batch document decoded by ``batch_from_json`` and checked by
  ``batch_verify``; all must accept.
- ``attack``: ``core_verify`` of four torsion-shifted copies (valid + T and
  valid + 2T, T of order 13), which must fail the subgroup check; the
  aggregate and the batch document claiming an altered second message,
  which must fail after the pairings; once per run, one signature checked
  against the other message, which must fail the same way.
"""

from __future__ import annotations

import json

from common import check, rng_for

SAMPLES = {  # end-to-end metric -> sample key
    "sign_ms": "sign",
    "verify_ms": "verify",
    "agg_verify_ms": "agg_verify",
    "batch_verify_ms": "batch_verify",
}

SPAN_MS = (
    "bls12381.pairing", "bls12381.final_exp", "bls12381.hash_to_g2",
    "bls12381.hash_to_field_fq2", "bls12381.map_to_curve_g2",
    "bls12381.clear_cofactor_g2", "bls12381.decompress_g1", "bls12381.decompress_g2",
    "suites.subgroup_check.g1", "suites.subgroup_check.g2",
    "bls.sign", "bls.core_verify", "bls.aggregate_verify", "bls.key_validate",
    "batch.batch_from_json", "batch.batch_verify",
)
TORSION_PRIME = 13
SIGNERS = 2
ROUND_CALLS = (
    "bls12381.pairing", "bls12381.hash_to_g2", "bls12381.multiply",
    "suites.subgroup_check.g1", "suites.subgroup_check.g2",
)


class BlsVerify:
    name = "bls"
    share = 0  # one round per run (12 to 25 s); the other parts fill its gaps
    gauge = "field"
    sample_in_op = True
    key_gauges = {}

    def __init__(self, lab, seed, workdir, attack, *, suite=None):
        self.lab = lab
        self.seed = seed
        self.attack = attack
        self.suite = suite if suite is not None else lab.suites.Bls12381Suite()
        bls = lab.bls
        rng = rng_for(seed, "bls-keys")
        self.sks = [bls.keygen(rng.randbytes(32), suite=self.suite) for _ in range(SIGNERS)]
        # Keys arrive as bytes and are validated once, as a client caches them.
        self.pks = [
            bls.key_validate(bls.sk_to_pk(sk).to_bytes(), suite=self.suite) for sk in self.sks
        ]
        self.torsion = self.suite.small_order_g2(TORSION_PRIME)
        # Timed operations per round: the signs, the core_verify calls, the
        # aggregate and the batch.
        self.steps_per_round = SIGNERS * (3 if attack else 2) + 2

    def extra_counts(self):
        return {"suites.pairs": self.suite.pairing_count}

    def round(self, run, r, phase):
        for _ in self.steps(run, r, phase):
            pass

    def steps(self, run, r, phase):
        """One round, yielding after each timed operation."""
        bls = self.lab.bls
        rng = rng_for(self.seed, "bls-round", phase, r)
        msgs = [b"attestation/" + rng.randbytes(32) for _ in self.sks]
        sigs = []
        for sk, m in zip(self.sks, msgs):
            sigs.append(run.timed("sign", bls.sign, sk, m))
            yield
        agg = bls.aggregate(sigs).to_bytes()
        self.last = (msgs, sigs)
        if self.attack:
            yield from self.attack_steps(run, rng, msgs, sigs, agg)
            return
        for pk, m, s in zip(self.pks, msgs, sigs):
            res = run.timed("verify", bls.core_verify, pk, m, s.to_bytes())
            check(str(res) == "VALID", f"honest signature gave {res}")
            yield
        res = run.timed("agg_verify", bls.aggregate_verify, self.pks, msgs, agg)
        check(str(res) == "VALID", f"honest aggregate gave {res}")
        yield
        doc = self.batch_document(sigs, msgs, rng.randbytes(32))
        ok = run.timed("batch_verify", self.decode_and_verify, doc)
        check(ok is True, f"honest batch gave {ok!r}")
        yield

    def attack_steps(self, run, rng, msgs, sigs, agg):
        """The same operations on forged inputs: torsion-shifted signatures,
        and an aggregate and a batch that claim an altered second message."""
        bls = self.lab.bls
        for pk, m, s in zip(self.pks, msgs, sigs):
            for k in (1, 2):  # kT has order TORSION_PRIME too
                shifted = (s.point + k * self.torsion).to_bytes()
                res = run.timed("verify", bls.core_verify, pk, m, shifted)
                check(
                    str(res) == "INVALID(signature-subgroup)",
                    f"torsion-shifted signature gave {res}",
                )
                yield
        claimed = [msgs[0], msgs[1] + b"?"]
        res = run.timed("agg_verify", bls.aggregate_verify, self.pks, claimed, agg)
        check(
            str(res) == "INVALID(pairing-mismatch)",
            f"aggregate claiming an altered message gave {res}",
        )
        yield
        doc = self.batch_document(sigs, claimed, rng.randbytes(32))
        ok = run.timed("batch_verify", self.decode_and_verify, doc)
        check(ok is False, f"batch with an altered message gave {ok!r}")
        yield

    def finish(self, run):
        """In ``attack``, once per run: a signature checked against the
        other signer's message must fail the pairing check."""
        if self.attack:
            msgs, sigs = self.last
            res = run.call(self.lab.bls.core_verify, self.pks[0], msgs[1], sigs[0].to_bytes())
            check(
                str(res) == "INVALID(pairing-mismatch)",
                f"signature on another message gave {res}",
            )

    def batch_document(self, sigs, msgs, coeff_seed):
        batch = self.lab.batch
        items = [batch.BatchItem(s, [(pk, m)]) for s, pk, m in zip(sigs, self.pks, msgs)]
        coeffs = batch.BatchCoefficients.generate(coeff_seed, len(items), order=self.suite.order)
        return json.dumps(batch.batch_to_json(items, coeffs, enforce_subgroup=True))

    def decode_and_verify(self, text):
        batch = self.lab.batch
        items, coeffs, enforce = batch.batch_from_json(json.loads(text), suite=self.suite)
        return batch.batch_verify(items, coeffs, enforce_subgroup=enforce)

    def e2e(self, run):
        return {name: (run.median(key) * 1e3, "ms") for name, key in SAMPLES.items()}

    def layers(self, tracer, traced, untraced, rounds):
        out = {}
        for name in SPAN_MS:
            out[f"{name}.ms"] = (tracer.per_call(name) * 1e3, "ms")
        mul = tracer.counts["bls12381.fq12_mul"]
        out["bls12381.fq12_mul.us"] = (
            tracer.busy["bls12381.fq12_mul"] / mul * tracer.scale * 1e6, "us")
        out["bls12381.multiply.self_ms"] = (
            tracer.per_call("bls12381.multiply", self_time=True) * 1e3, "ms",
        )
        per_round = traced.op_total()
        for name in ROUND_CALLS:
            out[f"{name}.calls"] = (per_round[name] / rounds, "count")
        for metric, key in (("per_agg_verify", "agg_verify"), ("per_batch", "batch_verify")):
            out[f"suites.pairs.{metric}"] = (traced.per_op(key, "suites.pairs"), "count")
        out["batch.subgroup_checks.per_batch"] = (
            traced.per_op("batch_verify", "suites.subgroup_check.g1")
            + traced.per_op("batch_verify", "suites.subgroup_check.g2"),
            "count",
        )
        return out
