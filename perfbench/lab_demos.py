"""The handshake part of every workload: the simulator, its attacker
toolkit and the CLI.

Each round runs one session of each protocol below from a fresh seed and
follows it with passive decryption probes (no key; the responder's static
key) and the amplification measurement. In ``attack`` the packet that
carries the initiator's identity proof is then replayed, and a legacy-mode
Noise session is replayed too, as the positive control. The round ends with a fixed mix of
in-process ``cli.main`` JSON reports on the toy suite: verifications and
handshakes in ``honest``, the attack demos in ``attack``.

Two attack reports, ``attack rogue-key`` and ``attack batch-deviation``,
exit 1 on some seeds because of known faults of the toy-suite demos (see
``KNOWN_FAULTS``). Such an exit passes the check only when the report shows
exactly that fault; it is counted apart and not as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from collections import Counter

from common import check, cli_words, rng_for

# (protocol, sample key, run_session options, packet to replay)
PROTOCOLS = (
    ("noise-xx", "noise_session", {"mode": "hardened"}, "xx-msg3"),
    ("discv5-v5", "discv5_session", {}, "handshake-message"),
    ("discv5-kk", "discv5_kk_session", {"transcript_binding": True}, "handshake-message"),
)
SUBGROUP_TRIALS = 1000  # keeps the 1/5 pass rate > 5 sigma inside the CLI's [0.13, 0.27]


def _rogue_key_fault(report):
    # In the order-7 toy group the rogue key is the identity for one rho in
    # six, and the forged proof of possession can pass the PoP check.
    m = report["metrics"]
    return report["outcome"] == "error: public key is the identity element" or (
        report["outcome"] == "unexpected verification outcome"
        and m["unsafe_fast_verify"] == m["pop_enforced_verify"] == "VALID"
    )


def _batch_deviation_fault(report):
    # +D and -D cancel under random coefficients only when the two
    # coefficients collide, which the order-257 toy group makes a 1/256 event.
    return report["metrics"] == {
        "naive_per_item": False, "unit_coefficients_accepted": True,
        "random_coefficients_accepted": True, "coefficient_bits": 128,
    }


# command -> does an exit-1 report show the known fault of that command?
KNOWN_FAULTS = {
    "attack rogue-key": _rogue_key_fault,
    "attack batch-deviation": _batch_deviation_fault,
}


def _index(session, label):
    return next(e.index for e in session.transcript.entries if e.label == label)


class LabDemos:
    name = "lab"
    share = 0.5  # of --seconds
    gauge = "cpu"
    sample_in_op = False
    # The sessions and the probe spend their time in the handshake
    # primitives, which a busy machine slows differently from the toy-suite
    # big-int arithmetic of the CLI reports.
    key_gauges = {key: "crypto" for key in ("noise_session", "discv5_session",
                                            "discv5_kk_session", "probe")}

    def __init__(self, lab, seed, workdir, attack):
        self.lab = lab
        self.seed = seed
        self.workdir = workdir
        self.attack = attack
        self.toy = lab.suites.ToySuite()
        self.wire_bytes = {}
        self.report_bytes = []
        self.fault_reports = Counter()  # command -> reports of KNOWN_FAULTS commands
        self.fault_exits = Counter()  # command -> of them, exits 1 with the fault

    def round(self, run, r, phase):
        simnet = self.lab.simnet
        rng = rng_for(self.seed, "lab-round", phase, r)
        for protocol, key, options, replayed in PROTOCOLS:
            run.calibrate()
            session = run.timed(key, simnet.run_session, protocol, rng.randbytes(16), **options)
            check(session.outcome.status == "completed",
                  f"{protocol} session ended {session.outcome}")
            entries = session.transcript.entries
            self.wire_bytes[protocol] = sum(len(e.data) for e in entries)

            probe = run.call(simnet.passive_decrypt_probe, session.transcript,
                             simnet.CompromiseSet.empty())
            check(not any(e.decrypted for e in probe.entries),
                  f"{protocol}: empty compromise set decrypted a message")
            if protocol != "noise-xx":
                self.probe_responder_static(run, protocol, session)

            amp = run.timed("amplification", simnet.measure_amplification, session.transcript)
            first_i = next(e for e in entries if e.direction == "i->r")
            first_r = next(e for e in entries if e.direction == "r->i")
            check(amp["factor"] == len(first_r.data) / len(first_i.data),
                  f"{protocol}: amplification {amp['factor']} disagrees with the transcript")

            if self.attack:
                out = run.call(simnet.replay_inject, session, _index(session, replayed))
                check(not out.accepted, f"{protocol}: replay accepted")

        if self.attack:
            legacy = run.call(simnet.run_session, "noise-xx", rng.randbytes(16), mode="legacy")
            out = run.call(simnet.replay_inject, legacy, _index(legacy, "xx-msg3"))
            check(out.accepted, f"legacy replay rejected: {out}")

        mix = self.cli_mix(rng, r, phase)
        run.calibrate()
        for argv in mix:
            self._report(run, argv)
        self.mix_size = len(mix)
        timed = run.samples["cli"][-len(mix):]
        run.add("cli_mix", timed[0][0], sum(seconds for _, seconds, _ in timed))

    def probe_responder_static(self, run, protocol, session):
        """The forward-secrecy probe holding the responder's static key.
        probe_ms times it on discv5-v5, where it replays the whole key
        schedule and opens every initiator message."""
        simnet = self.lab.simnet
        held = simnet.CompromiseSet.of(session, "responder_static")
        if protocol == "discv5-v5":
            probe = run.timed("probe", simnet.passive_decrypt_probe, session.transcript, held)
        else:
            probe = run.call(simnet.passive_decrypt_probe, session.transcript, held)
        sent = [e for e in probe.entries
                if e.label.startswith("transport") and e.direction == "i->r"]
        opened = sum(e.decrypted for e in sent)
        expected = len(sent) if protocol == "discv5-v5" else 0
        check(sent and opened == expected,
              f"{protocol}: responder-static key opened {opened} of {len(sent)}")

    def cli_mix(self, rng, r, phase):
        bls, batch = self.lab.bls, self.lab.batch
        seed = "--seed=" + rng.randbytes(16).hex()
        common = ["--json", "--no-timestamp", seed]
        if self.attack:
            return [
                common + ["attack", "rogue-key"],
                common + ["attack", "batch-deviation"],
                common + ["attack", "batch-subgroup", f"--trials={SUBGROUP_TRIALS}"],
                common + ["attack", "replay-static-sig"],
                common + ["probe", "forward-secrecy", "--protocol=discv5-v5",
                          "--compromise=responder_static"],
            ]

        def signed():
            sk = bls.keygen(rng.randbytes(32), suite=self.toy)
            message = rng.randbytes(16)
            return bls.sk_to_pk(sk), message, bls.sign(sk, message)

        pk, message, sig = signed()
        items = [batch.BatchItem(s, [(k, m)]) for k, m, s in (signed(), signed())]
        coeffs = batch.BatchCoefficients.generate(rng.randbytes(32), 2, order=self.toy.order)
        doc_path = os.path.join(self.workdir, f"batch-{phase}-{r}.json")
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(batch.batch_to_json(items, coeffs, enforce_subgroup=True), fh)
        return [
            common + ["bls", "verify", f"--pk={pk.to_bytes().hex()}",
                      f"--message={message.hex()}", f"--signature={sig.to_bytes().hex()}"],
            common + ["bls", "batch-verify", f"--file={doc_path}"],
            common + ["noise", "handshake", "--mode=hardened"],
            common + ["discv5", "handshake", "--variant=kk", "--transcript-binding"],
            common + ["measure", "amplification", "--protocol=noise-xx"],
        ]

    def _report(self, run, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.timed("cli", self.lab.cli.main, argv)
        text = out.getvalue()
        command = " ".join(cli_words(argv))
        check(code in (0, 1) and text, f"{command} exited {code}: {text[-300:]}")
        report = json.loads(text)
        check(report["command"] == command, f"report names {report['command']!r}")
        known = KNOWN_FAULTS.get(command)
        check(code == 0 or (known and known(report)),
              f"{command} exited {code}: {report['outcome']}")
        if known:
            self.fault_reports[command] += 1
            self.fault_exits[command] += code
        self.report_bytes.append(len(text.encode()))

    def finish(self, run):
        for command, exits in sorted(self.fault_exits.items()):
            print(f"{command}: {exits} of {self.fault_reports[command]} reports exited 1 "
                  "with its known fault", file=sys.stderr)

    def e2e(self, run):
        out = {f"{key}_ms": (run.median(key) * 1e3, "ms") for _, key, _, _ in PROTOCOLS}
        out["probe_ms"] = (run.median("probe") * 1e3, "ms")
        out["cli_reports_per_s"] = (self.mix_size / run.median("cli_mix"), "1/s")
        return out

    def layers(self, tracer, traced, untraced, rounds):
        ms = lambda name: (tracer.per_call(name) * 1e3, "ms")  # noqa: E731
        out = {
            "noise.run_xx_handshake.ms": ms("noise.run_xx_handshake"),
            "discv5.run_handshake.v5.ms": ms("discv5.run_handshake.v5"),
            "discv5.run_handshake.kk.ms": ms("discv5.run_handshake.kk"),
            "simnet.passive_decrypt_probe.ms": ms("simnet.passive_decrypt_probe"),
            "simnet.measure_amplification.us": (
                tracer.per_call("simnet.measure_amplification") * 1e6, "us"),
            "batch.batch_verify.toy.us": (tracer.per_call("batch.batch_verify.toy") * 1e6, "us"),
            "cli.main.ms": ms("cli.main"),
            "cli.report_bytes": (sum(self.report_bytes) / len(self.report_bytes), "B"),
        }
        for protocol, key, _, _ in PROTOCOLS:
            tag = protocol.replace("-", "_")
            # discv5 derives its keys without noise_hkdf.
            counters = ("x25519", "keypair_from_seed", "aead", "ed25519") + (
                ("noise_hkdf",) if protocol == "noise-xx" else ())
            for counter in counters:
                out[f"noise.{counter}.per_session.{tag}"] = (
                    traced.per_op(key, f"noise.{counter}"), "count")
            out[f"transcript.wire_bytes.per_session.{tag}"] = (self.wire_bytes[protocol], "B")
            # 85 to 165 samples per run: p75 leaves at least ten beyond it.
            out[f"{key}_ms.p75"] = (untraced.percentile(key, 75) * 1e3, "ms")
        out["probe_ms.p75"] = (untraced.percentile("probe", 75) * 1e3, "ms")
        out["cli_mix_ms.p75"] = (untraced.percentile("cli_mix", 75) * 1e3, "ms")
        return out
