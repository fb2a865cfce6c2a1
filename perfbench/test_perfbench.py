"""Self-test of the benchmark at tiny sizes: each part's checks pass on the
real program in both workloads and fail when one planted wrong answer
reaches them.

    python3 -m pytest perfbench/test_perfbench.py
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bls_verify import BlsVerify  # noqa: E402
from common import CheckFailed, Run, load_lab  # noqa: E402
from instrument import instrument  # noqa: E402
from lab_demos import LabDemos  # noqa: E402
from slashing_db import SlashingDb  # noqa: E402
from tracer import Tracer  # noqa: E402

LAB = load_lab()
MERSENNE_127 = 2**127 - 1  # prime order for a toy suite without chance collisions


def tiny(name, workdir, attack):
    if name == "bls":
        # The toy suite stands in for BLS12-381 so a round takes milliseconds;
        # its cofactor 13 gives the same order-13 torsion shift.
        suite = LAB.suites.ToySuite(subgroup_order=MERSENNE_127, cofactor=13)
        return BlsVerify(LAB, 7, workdir, attack, suite=suite)
    if name == "slashing":
        return SlashingDb(LAB, 7, workdir, attack, validators=4, attestations=24, blocks=8,
                          per_round=2, import_validators=1)
    return LabDemos(LAB, 7, workdir, attack)


def one_round(part):
    run = Run(gauge=part.gauge, key_gauges=part.key_gauges)
    run.calibrate()
    part.round(run, 0, "test")
    part.finish(run)
    return run


def plant_once(monkeypatch, owner, attr, wrong):
    """Make ``owner.attr`` return ``wrong(result, *args)`` for the first
    call where that differs from the real result."""
    real = getattr(owner, attr)
    planted = []

    def fake(*args, **kwargs):
        result = real(*args, **kwargs)
        if not planted:
            bad = wrong(result, *args)
            if bad is not None:
                planted.append(bad)
                return bad
        return result

    monkeypatch.setattr(owner, attr, fake)
    return planted


PARTS = ("bls", "slashing", "lab")


@pytest.mark.parametrize("attack", (False, True), ids=("honest", "attack"))
@pytest.mark.parametrize("name", PARTS)
def test_checks_pass_on_the_program(name, attack, tmp_path):
    run = one_round(tiny(name, str(tmp_path), attack))
    assert run.attempted > 0


@pytest.mark.parametrize("name", PARTS)
def test_both_workloads_give_the_same_metrics(name, tmp_path):
    for w in ("honest", "attack"):
        (tmp_path / w).mkdir()
    honest, attack = (tiny(name, str(tmp_path / w), w == "attack") for w in ("honest", "attack"))
    assert honest.e2e(one_round(honest)).keys() == attack.e2e(one_round(attack)).keys()


def test_bls_catches_an_accepted_torsion_signature(monkeypatch, tmp_path):
    part = tiny("bls", str(tmp_path), attack=True)
    planted = plant_once(monkeypatch, LAB.bls, "core_verify",
                         lambda res, *a: LAB.bls.VALID if not res else None)
    with pytest.raises(CheckFailed, match="torsion-shifted"):
        one_round(part)
    assert planted


def test_bls_catches_an_accepted_signature_on_another_message(monkeypatch, tmp_path):
    part = tiny("bls", str(tmp_path), attack=True)
    run = Run(gauge=part.gauge)
    run.calibrate()
    part.round(run, 0, "test")
    planted = plant_once(monkeypatch, LAB.bls, "core_verify",
                         lambda res, *a: LAB.bls.VALID if not res else None)
    with pytest.raises(CheckFailed, match="another message"):
        part.finish(run)
    assert planted


def test_bls_catches_a_rejected_honest_batch(monkeypatch, tmp_path):
    part = tiny("bls", str(tmp_path), attack=False)
    planted = plant_once(monkeypatch, LAB.batch, "batch_verify", lambda res, *a: False)
    with pytest.raises(CheckFailed, match="honest batch"):
        one_round(part)
    assert planted


def test_slashing_catches_an_allowed_double_vote(monkeypatch, tmp_path):
    part = tiny("slashing", str(tmp_path), attack=True)
    db = LAB.slashing.ProtectionDB
    planted = plant_once(monkeypatch, db, "check_and_record",
                         lambda res, *a: LAB.slashing.ALLOW if not res else None)
    with pytest.raises(CheckFailed, match="double-vote candidate gave Allow"):
        one_round(part)
    assert planted


def test_slashing_catches_a_denied_safe_record(monkeypatch, tmp_path):
    part = tiny("slashing", str(tmp_path), attack=False)
    db = LAB.slashing.ProtectionDB
    planted = plant_once(monkeypatch, db, "check_and_record", lambda res, *a: "Deny(surround)")
    with pytest.raises(CheckFailed, match="new safe record gave Deny"):
        one_round(part)
    assert planted


def test_lab_catches_a_wrong_amplification_factor(monkeypatch, tmp_path):
    part = tiny("lab", str(tmp_path), attack=False)
    planted = plant_once(monkeypatch, LAB.simnet, "measure_amplification",
                         lambda res, *a: dict(res, factor=res["factor"] + 1))
    with pytest.raises(CheckFailed, match="amplification"):
        one_round(part)
    assert planted


# Seeds on which the toy-suite demos exit 1 with their known faults.
FAULT_SEEDS = (
    ("attack rogue-key", "1"),  # the rogue key is the identity
    ("attack rogue-key", "b"),  # the forged proof of possession passes
    ("attack batch-deviation", "51"),  # the two coefficients collide
)


@pytest.mark.parametrize("command, seed", FAULT_SEEDS)
def test_lab_counts_a_known_cli_fault_apart(command, seed, tmp_path):
    part = tiny("lab", str(tmp_path), attack=True)
    part._report(Run(), ["--json", f"--seed={seed:0>32}", *command.split()])
    assert part.fault_exits[command] == 1


def test_lab_catches_an_unexplained_cli_exit(monkeypatch, tmp_path):
    part = tiny("lab", str(tmp_path), attack=True)
    main = LAB.cli.main
    monkeypatch.setattr(LAB.cli, "main", lambda argv: main(argv) or 1)
    with pytest.raises(CheckFailed, match="attack rogue-key exited 1: forgery accepted"):
        part._report(Run(), ["--json", f"--seed={'2':0>32}", "attack", "rogue-key"])


def test_gauge_readings_during_an_operation_leave_its_time():
    run = Run(sample_in_op=True, gauge="field")
    handler = signal.getsignal(signal.SIGALRM)
    before = time.perf_counter()
    run.timed("sleep", time.sleep, 0.3)
    gross = time.perf_counter() - before
    (start, seconds, during), = run.samples["sleep"]
    readings = run.refs["field"]
    assert len(readings) >= 3 and during is not None
    assert all(start < at < start + gross for at, _ in readings)
    assert 0 < seconds <= gross - sum(s for _, s in readings)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_tracing_restores_every_wrapped_function():
    modules = vars(LAB).values()
    classes = [LAB.bls12381.FQ12, LAB.suites.PairingSuite, LAB.slashing.ProtectionDB,
               LAB.noise.DHKeypair, LAB.noise.IdentityKeypair]
    before = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]
    fsync = os.fsync
    tracer = Tracer()
    instrument(tracer, LAB)
    assert LAB.bls12381.FQ12.__dict__.get("__pow__") is not None
    tracer.uninstall()
    after = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]
    assert before == after and os.fsync is fsync


def test_refuses_to_run_without_the_lab(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "honest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
