"""Which public functions of the lab the traced run wraps, and under what
span or counter names.

Functions called thousands of times per operation (Fq12 multiplication,
the attestation predicate, fsync, the handshake primitives) become
counters so that they leave their caller's timing almost untouched;
everything else becomes a span.
"""

from __future__ import annotations

import os


def instrument(tracer, lab):
    bk, suites = lab.bls12381, lab.suites
    span = lambda name: (lambda fn: tracer.span(name, fn))  # noqa: E731
    counter = lambda name, timed=False: (  # noqa: E731
        lambda fn: tracer.counter(name, fn, timed=timed)
    )
    toy = lambda suite: ".toy" if isinstance(suite, suites.ToySuite) else ""  # noqa: E731

    # -- bls12381: curve arithmetic ------------------------------------------
    for fn_name in ("pairing", "hash_to_g2", "hash_to_field_fq2", "map_to_curve_g2",
                    "clear_cofactor_g2", "multiply", "decompress_g1", "decompress_g2"):
        tracer.patch(bk, fn_name, span(f"bls12381.{fn_name}"))
    # The pairing raises its Miller-loop output to (q^12 - 1)/r; that power,
    # and only that one, is the final exponentiation.
    final_exp = (bk.FIELD_MODULUS**12 - 1) // bk.CURVE_ORDER

    def final_exp_span(power):
        traced = tracer.span("bls12381.final_exp", power)
        return lambda x, e: traced(x, e) if e == final_exp else power(x, e)

    tracer.patch(bk.FQ12, "__pow__", final_exp_span)
    tracer.patch(bk.FQ12, "__mul__", counter("bls12381.fq12_mul", timed=True))

    # -- suites, bls, batch ---------------------------------------------------
    tracer.patch(
        suites.PairingSuite, "subgroup_check",
        lambda fn: tracer.span(lambda suite, elem: f"suites.subgroup_check.{elem.group}", fn),
    )
    for fn_name in ("sign", "aggregate_verify", "key_validate"):
        tracer.patch(lab.bls, fn_name, span(f"bls.{fn_name}"))
    tracer.patch(
        lab.bls, "core_verify",
        lambda fn: tracer.span(lambda pk, *a, **k: "bls.core_verify" + toy(pk.suite), fn),
    )
    tracer.patch(lab.batch, "batch_from_json", span("batch.batch_from_json"))
    tracer.patch(
        lab.batch, "batch_verify",
        lambda fn: tracer.span(lambda items, *a, **k: "batch.batch_verify" + toy(items[0].suite), fn),
    )

    # -- slashing -------------------------------------------------------------
    db = lab.slashing.ProtectionDB
    tracer.patch(db, "__init__", span("slashing.open"))
    tracer.patch(db, "check_and_record", span("slashing.check"))
    tracer.patch(db, "import_interchange", span("slashing.import"))
    tracer.patch(db, "export_interchange", span("slashing.export"))
    tracer.patch(lab.slashing, "is_slashable_attestation", counter("slashing.predicate"))
    tracer.patch(os, "fsync", counter("slashing.fsync", timed=True))

    # -- handshakes, simulator, CLI -------------------------------------------
    noise, discv5, simnet = lab.noise, lab.discv5, lab.simnet
    tracer.patch(noise, "run_xx_handshake", span("noise.run_xx_handshake"))
    tracer.patch(
        discv5, "run_handshake",
        lambda fn: tracer.span(
            lambda *a, variant="v5", **k: f"discv5.run_handshake.{variant}", fn
        ),
    )
    tracer.patch(noise.DHKeypair, "dh", counter("noise.x25519"))
    tracer.patch(noise.DHKeypair, "from_seed", counter("noise.keypair_from_seed"))
    tracer.patch(noise.IdentityKeypair, "from_seed", counter("noise.keypair_from_seed"))
    tracer.patch(noise, "noise_hkdf", counter("noise.noise_hkdf"))
    tracer.patch(noise.IdentityKeypair, "sign", counter("noise.ed25519"))
    tracer.patch(noise, "verify_identity_sig", counter("noise.ed25519"))
    tracer.patch(discv5, "verify_identity_sig", counter("noise.ed25519"))
    tracer.patch(noise, "ChaCha20Poly1305", lambda cls: _counting_aead(tracer, cls))
    tracer.patch(discv5, "AESGCM", lambda cls: _counting_aead(tracer, cls))
    for fn_name in ("passive_decrypt_probe", "replay_inject", "measure_amplification"):
        tracer.patch(simnet, fn_name, span(f"simnet.{fn_name}"))
    tracer.patch(lab.cli, "main", span("cli.main"))


def _counting_aead(tracer, cls):
    class CountingAEAD:
        def __init__(self, key):
            self._inner = cls(key)

        def encrypt(self, nonce, data, associated_data):
            tracer.counts["noise.aead"] += 1
            return self._inner.encrypt(nonce, data, associated_data)

        def decrypt(self, nonce, data, associated_data):
            tracer.counts["noise.aead"] += 1
            return self._inner.decrypt(nonce, data, associated_data)

    return CountingAEAD
