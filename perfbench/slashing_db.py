"""The slashing-protection part of every workload: check-before-sign
against a large protection history, and interchange import/export.

Set-up writes a history of ``validators`` x (``attestations`` +
``blocks``) records through ``import_interchange`` into the main
database file. Each round then opens that file, feeds it a labelled stream
of ``check_and_record`` candidates for ``per_round`` validators, imports a
separate interchange document into a fresh second database and exports it
back. The candidates are new and safe in ``honest`` (each Allowed with a
durable append) and slashable or exact replays in ``attack`` (double vote,
surrounding, surrounded, double proposal: Denied; replay: Allowed without
a write). At the end of the round the main file is
cut back to its set-up length, so every round starts from the same
history and does the same work.

Epochs and slots are laid out on a fixed grid from a seeded base, so the
number of records each check scans is the same for every seed.
"""

from __future__ import annotations

import os
import statistics

from common import check, rng_for

ATT_GAP = 3  # target k = base + ATT_GAP * (k + 1), source k = target k - 1
SLOT_GAP = 2


class SlashingDb:
    name = "slashing"
    share = 0.5  # of --seconds
    gauge = "cpu"
    sample_in_op = False

    def __init__(self, lab, seed, workdir, attack, *, validators=64, attestations=256,
                 blocks=64, per_round=16, import_validators=4):
        self.lab = lab
        self.seed = seed
        self.workdir = workdir
        self.attack = attack
        self.per_round = per_round
        # Allows and the import pay fsyncs and follow the disk gauge; Denies,
        # replays, opening and exporting do no I/O and follow the CPU gauge.
        self.key_gauges = {"import": "disk"} if attack else {"check": "disk", "import": "disk"}
        rng = rng_for(seed, "slashing-history")
        self.gvr = rng.randbytes(32)
        self.history = [self._validator(rng, attestations, blocks) for _ in range(validators)]
        self.records = validators * (attestations + blocks)
        self.main_path = os.path.join(workdir, "protection.jsonl")
        self.gauge_path = os.path.join(workdir, "disk-gauge")
        self._fill(self.main_path, self.history)
        self.base_size = os.path.getsize(self.main_path)
        imported = [self._validator(rng, attestations, blocks) for _ in range(import_validators)]
        self.import_doc = self.interchange(imported)
        self.import_records = import_validators * (attestations + blocks)
        self.canonical_import = lab.slashing.canonical_interchange_json(self.import_doc)

    # -- inputs -----------------------------------------------------------------

    @staticmethod
    def _validator(rng, attestations, blocks):
        # Six-digit epochs and slots keep every record line the same length.
        att_base = rng.randrange(100_000, 500_000)
        slot_base = rng.randrange(100_000, 500_000)
        return {
            "pubkey": rng.randbytes(48),
            "attestations": [
                (att_base + ATT_GAP * k, att_base + ATT_GAP * (k + 1), rng.randbytes(32))
                for k in range(attestations)
            ],
            "blocks": [(slot_base + SLOT_GAP * k, rng.randbytes(32)) for k in range(blocks)],
        }

    def interchange(self, validators):
        """Version-5 interchange document, already in export order."""
        data = []
        for v in sorted(validators, key=lambda v: v["pubkey"]):
            data.append({
                "pubkey": "0x" + v["pubkey"].hex(),
                "signed_blocks": [
                    {"slot": str(slot), "signing_root": "0x" + root.hex()}
                    for slot, root in sorted(v["blocks"])
                ],
                "signed_attestations": [
                    {"source_epoch": str(s), "target_epoch": str(t),
                     "signing_root": "0x" + root.hex()}
                    for s, t, root in sorted(v["attestations"])
                ],
            })
        return {
            "metadata": {"interchange_format_version": "5",
                         "genesis_validators_root": "0x" + self.gvr.hex()},
            "data": data,
        }

    def _fill(self, path, validators):
        """Write the history through the program's own import path. The
        per-record fsync is skipped for this fixture only (one fsync at the
        end makes the file durable); the rounds measure the real policy."""
        db = self.lab.slashing.ProtectionDB(path, self.gvr)
        fsync = os.fsync
        os.fsync = lambda fd: None
        try:
            summary = db.import_interchange(self.interchange(validators), reject_conflicts=False)
        finally:
            os.fsync = fsync
        check(summary == {"imported": self.records, "skipped": 0},
              f"history import reported {summary}")
        _fsync_path(path)

    def candidates(self, v, rng):
        """(label, record) stream for one validator, labelled by the
        EIP-3076 outcome against this history."""
        slashing = self.lab.slashing
        att, blk = slashing.AttestationRecord, slashing.SignedBlockRecord
        atts, blocks = v["attestations"], v["blocks"]
        n = len(atts)
        top, top_slot = atts[-1][1], blocks[-1][0]
        s, t, _ = atts[n // 2]
        dv = att(s, t, rng.randbytes(32))
        s, t, _ = atts[n // 4]
        surrounding = att(s - 1, t + 1, rng.randbytes(32))
        s, t, _ = atts[3 * n // 4]
        surrounded = att(s + 1, t - 1, rng.randbytes(32))
        return [
            ("new", att(top, top + ATT_GAP, rng.randbytes(32))),
            ("double-vote", dv),
            ("new", blk(top_slot + SLOT_GAP, rng.randbytes(32))),
            ("surround", surrounding),
            ("replay", att(*atts[n // 3])),
            ("new", att(top + ATT_GAP, top + 2 * ATT_GAP, rng.randbytes(32))),
            ("double-proposal", blk(blocks[len(blocks) // 2][0], rng.randbytes(32))),
            ("surround", surrounded),
            ("replay", blk(*blocks[len(blocks) // 3])),
        ]

    # -- one round ----------------------------------------------------------------

    def round(self, run, r, phase):
        slashing = self.lab.slashing
        rng = rng_for(self.seed, "slashing-round", phase, r)
        # Two opens per round: db_open_ms rests on twice as many samples.
        run.timed("open", slashing.ProtectionDB, self.main_path, self.gvr)
        db = run.timed("open", slashing.ProtectionDB, self.main_path, self.gvr)
        first = r * self.per_round
        checked = len(run.samples["check"])
        for j in range(self.per_round):
            v = self.history[(first + j) % len(self.history)]
            self._gauges(run)
            for label, record in self.candidates(v, rng):
                if (label != "new") == self.attack:
                    self._check_one(run, db, v["pubkey"], label, record)
        self.checks = len(run.samples["check"]) - checked
        # The import takes a quarter second: bracket it with gauge readings.
        self._gauges(run, 5)
        path = os.path.join(self.workdir, f"import-{phase}-{r}.jsonl")
        second = run.call(slashing.ProtectionDB, path, self.gvr)
        summary = run.timed("import", second.import_interchange, self.import_doc)
        self._gauges(run, 5)
        check(summary == {"imported": self.import_records, "skipped": 0},
              f"import reported {summary}")
        exported = run.timed("export", second.export_interchange)
        check(slashing.canonical_interchange_json(exported) == self.canonical_import,
              "export of an import differs from the imported document")
        os.remove(path)
        os.truncate(self.main_path, self.base_size)
        _fsync_path(self.main_path)
        os.truncate(self.gauge_path, 0)

    def _gauges(self, run, readings=1):
        for _ in range(readings):
            run.calibrate()
            run.calibrate_disk(self.gauge_path)

    def _check_one(self, run, db, pubkey, label, record):
        before = os.path.getsize(self.main_path)
        decision = run.timed("check", db.check_and_record, pubkey, record)
        after = os.path.getsize(self.main_path)
        if label == "new":
            check(str(decision) == "Allow", f"new safe record gave {decision}")
            with open(self.main_path, "rb") as fh:
                fh.seek(before)
                appended = fh.read()
            lines = appended.count(b"\n")
            check(lines == 1 and appended.endswith(b"\n"), f"Allow appended {lines} lines")
        elif label == "replay":
            check(str(decision) == "Allow", f"exact replay gave {decision}")
            check(after == before, "exact replay wrote to the database")
        else:
            check(str(decision) == f"Deny({label})", f"{label} candidate gave {decision}")
            check(after == before, "denied candidate wrote to the database")

    def finish(self, run):
        pass

    # -- metrics --------------------------------------------------------------------

    def e2e(self, run):
        if self.attack:
            # The attack stream mixes six candidate kinds of different cost
            # in equal numbers, so the median of single checks falls between
            # kinds; the mean over each round's fixed mix, then the median
            # over rounds, does not.
            check_s = statistics.median(
                sum(chunk) / len(chunk) for chunk in _chunks(run.values("check"), self.checks))
        else:
            check_s = run.median("check")
        return {
            "db_open_ms": (run.median("open") * 1e3, "ms"),
            "check_ms": (check_s * 1e3, "ms"),
        }

    def layers(self, tracer, traced, untraced, rounds):
        durable = ("check", "import")
        fsyncs = sum(traced.op_counts[k]["slashing.fsync"] for k in durable)
        fsync_s = sum(traced.op_counts[k]["slashing.fsync.s"] for k in durable)
        return {
            "slashing.open.records": (self.records, "count"),
            "slashing.bytes_per_record": (self.base_size / self.records, "B"),
            "slashing.predicate_calls.per_check": (
                traced.per_op("check", "slashing.predicate"), "count"),
            "slashing.fsync.ms": (fsync_s / fsyncs * tracer.scale * 1e3, "ms"),
            "slashing.check.p95_ms": (untraced.percentile("check", 95) * 1e3, "ms"),
            "slashing.import.records_per_s": (
                self.import_records / untraced.median("import"), "1/s"),
            "slashing.import.fsync_calls": (traced.per_op("import", "slashing.fsync"), "count"),
            "slashing.import.fsync_ms": (
                traced.per_op("import", "slashing.fsync.s") * tracer.scale * 1e3, "ms"),
            "slashing.import.predicate_calls": (
                traced.per_op("import", "slashing.predicate"), "count"),
            "slashing.export.ms": (tracer.per_call("slashing.export") * 1e3, "ms"),
        }


def _chunks(values, n):
    return [values[i:i + n] for i in range(0, len(values) - n + 1, n)]


def _fsync_path(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
