"""Run one benchmark workload against the lab and print its metrics.

    python3 perfbench/run.py --workload honest --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout; the lab is imported from ``src/``.
A workload runs three parts side by side: one round of BLS signing and
verification, and between its operations whole rounds of slashing
protection and of the handshake demos with the CLI, each for its share of
``--seconds``. ``honest`` feeds every part valid inputs, ``attack`` forged
or slashable ones, so both print the same metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end figures; with ``--trace 1`` they are the per-layer
figures, taken from a traced phase that follows the untraced one. The
same object is written to ``perfbench/out/``, next to the span dumps of a
traced run.
"""

import time

from common import GaugeSampler

# Set-up time runs from here. It is mostly the import of the lab, whose
# import-time asserts are curve arithmetic, so the field gauge read during
# it gives the machine speed it is scaled by.
_SETUP = GaugeSampler("field")
_SETUP.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from bls_verify import BlsVerify  # noqa: E402
from common import NOMINAL, CheckFailed, Run, load_lab  # noqa: E402
from instrument import instrument  # noqa: E402
from lab_demos import LabDemos  # noqa: E402
from slashing_db import SlashingDb  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("honest", "attack")
PARTS = (BlsVerify, SlashingDb, LabDemos)
# Set-ups per run: this process plus fresh processes that only set up.
SETUPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16.0, help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    package = ROOT / "src" / "beaconlab"
    if not (package / "__init__.py").is_file():
        _SETUP.stop()
        print(f"error: no lab package at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start, spent = time.perf_counter(), _SETUP.spent
    lab = load_lab()
    import_s = time.perf_counter() - start - (_SETUP.spent - spent)
    OUT.mkdir(exist_ok=True)
    # Database files live in a fresh directory on the checkout's filesystem.
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        attack = args.workload == "attack"
        parts = [part(lab, args.seed, workdir, attack) for part in PARTS]
        setup_s, speed = _SETUP.stop()
        scale = NOMINAL["field"] / speed
        setup_s, import_s = setup_s * scale, import_s * scale
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
            return 0
        return measure(args, lab, parts, setup_s, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, lab, parts, setup_s, import_s):
    setups, imports = [setup_s], [import_s]
    for _ in range(SETUPS - 1):
        s, i = setup_in_fresh_process(args)
        setups.append(s)
        imports.append(i)

    untraced = {part.name: new_run(part) for part in parts}
    traced, tracers, rounds, failures = {}, {}, {}, []
    try:
        run_interleaved(parts, untraced, args.seconds, failures)
        for part in parts:
            part.finish(untraced[part.name])
        if args.trace:
            # The parts run one after the other here, each under its own
            # tracer, so a span name that two parts share (the toy-suite
            # signing of the CLI mix, say) keeps its own figure.
            for part in parts:
                tracer = tracers[part.name] = Tracer()
                extra = getattr(part, "extra_counts", dict)
                run = traced[part.name] = new_run(
                    part, probe=lambda t=tracer, e=extra: t.snapshot() + Counter(e()))
                instrument(tracer, lab)
                try:
                    rounds[part.name] = run_rounds(
                        part, run, args.seconds * part.share / 2, "traced",
                        failures)
                finally:
                    tracer.uninstall()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        emit(args, False, attempted(untraced, traced), len(failures), {})
        return 1

    if args.trace:
        metrics = {}
        for part in parts:
            tracer = tracers[part.name]
            tracer.scale = traced[part.name].phase_scale()
            metrics.update(part.layers(tracer, traced[part.name], untraced[part.name],
                                       rounds[part.name]))
            tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}-{part.name}.jsonl"))
        metrics["import.beaconlab.ms"] = (statistics.median(imports) * 1e3, "ms")
        metrics["trace.overhead_ratio"] = (overhead(untraced, traced), "ratio")
        # The machine's speed during the untraced phase: scaled time times
        # reading over nominal gives the raw time.
        readings = defaultdict(list)
        for run in untraced.values():
            for gauge, refs in run.refs.items():
                readings[gauge].extend(s for _, s in refs)
        for gauge, values in readings.items():
            metrics[f"gauge.{gauge}.ms"] = (statistics.median(values) * 1e3, "ms")
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
        }
        for part in parts:
            metrics.update(part.e2e(untraced[part.name]))
    emit(args, True, attempted(untraced, traced), len(failures), metrics)
    phases = {"untraced": untraced, "traced": traced}
    detail = {
        phase: {name: {"refs": run.refs, "samples": run.samples} for name, run in runs.items()}
        for phase, runs in phases.items()
    }
    (OUT / f"samples-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"setups": setups, "imports": imports, "phases": detail}))
    return 0


def new_run(part, probe=None):
    return Run(probe=probe, sample_in_op=part.sample_in_op, gauge=part.gauge,
               key_gauges=part.key_gauges)


def attempted(*phases):
    return sum(run.attempted for runs in phases for run in runs.values())


def setup_in_fresh_process(args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["setup_s"], probe["import_s"]


def run_interleaved(parts, runs, seconds, failures):
    """One round of the paced part (the first), one operation at a time;
    after each of its operations, whole rounds of every other part until
    that part has used the same fraction of its share of ``seconds`` as
    the paced part has done of its operations. Then whole rounds of the
    others until their shares are used, at least one each.

    Spreading the millisecond operations over the whole run, rather than
    over one stretch of it, lets them see the machine's fast and slow
    moments alike."""
    paced, *fillers = parts
    spent = {part.name: 0.0 for part in fillers}
    rounds = {part.name: 0 for part in fillers}

    def fill(progress):
        for part in fillers:
            budget = part.share * seconds * progress
            while spent[part.name] < budget or (progress == 1 and not rounds[part.name]):
                start = time.perf_counter()
                attempt(part.round, runs[part.name], rounds[part.name], "main", failures)
                spent[part.name] += time.perf_counter() - start
                rounds[part.name] += 1

    run = runs[paced.name]
    run.calibrate()
    done = 0

    def paced_round(run, r, phase):
        nonlocal done
        for _ in paced.steps(run, r, phase):
            done += 1
            fill(done / paced.steps_per_round)

    attempt(paced_round, run, 0, "main", failures)
    fill(1)


def run_rounds(part, run, seconds, phase, failures):
    """Whole rounds of one part until ``seconds`` have passed (at least
    one)."""
    start = time.perf_counter()
    rounds = 0
    while not rounds or time.perf_counter() - start < seconds:
        attempt(part.round, run, rounds, phase, failures)
        rounds += 1
    return rounds


def attempt(round_fn, run, r, phase, failures):
    """One round. An operation that raises counts as failed and ends its
    round; a failed check ends the run."""
    run.calibrate()
    try:
        round_fn(run, r, phase)
    except CheckFailed:
        raise
    except Exception:
        if not failures:
            traceback.print_exc()
        failures.append(phase)


def overhead(untraced, traced):
    """Median over operation types of traced / untraced median time."""
    ratios = [
        run.median(key) / untraced[name].median(key)
        for name, run in traced.items() for key in run.op_calls
    ]
    return statistics.median(ratios)


def emit(args, correct, attempted, failed, metrics):
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)


if __name__ == "__main__":
    sys.exit(main())
