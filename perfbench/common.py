"""Shared pieces of the workloads: the sample recorder, output checks and
summary statistics."""

from __future__ import annotations

import bisect
import hashlib
import hmac
import importlib
import os
import random
import signal
import statistics
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

# The ten modules the benchmark drives, imported as a user of the CLI would.
LAB_MODULES = (
    "bls12381", "suites", "bls", "batch", "slashing",
    "noise", "discv5", "simnet", "transcript", "cli",
)


def load_lab():
    """Import the lab's modules; returns them as one namespace."""
    return SimpleNamespace(
        **{name: importlib.import_module(f"beaconlab.{name}") for name in LAB_MODULES}
    )


# -- machine-speed references -------------------------------------------------
#
# On the shared 2-vCPU virtual machine the benchmark was tuned on, CPU
# speed and disk latency drift by tens of percent within
# seconds and between minutes (other tenants share the cores and the disk),
# and they move the lab's times and these fixed gauges alike. Every reported
# time is therefore scaled to nominal speed: a sample is multiplied by
# NOMINAL[g] / r, where r is the median of the readings of gauge g taken
# near it in the same process (see Run.scale) or, for operations of
# seconds, the harmonic mean of those taken while it ran (GaugeSampler).
# No gauge touches the lab, so a faster program still reads faster.

_REF_MODULUS = int(
    "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624"
    "1eabfffeb153ffffb9feffffffffaaab", 16,
)
_IO_LINE = b"x" * 255 + b"\n"
# Gauge times on that machine when no other tenant contends.
NOMINAL = {"cpu": 0.00102, "field": 0.00100, "crypto": 0.00075, "disk": 0.00100}
REF_NEIGHBOURS = 20
# Gauge readings during an operation or set-up (see GaugeSampler): one
# every SAMPLE_INTERVAL seconds, and at least MIN_IN_OP of them to be used.
SAMPLE_INTERVAL = 0.05
MIN_IN_OP = 3


def cpu_gauge(iterations=1000):
    """Seconds for a fixed CPU loop: 381-bit modular squarings with
    small-object churn and a SHA-256 every 16 steps, like the lab's mix."""
    start = time.perf_counter()
    x, keep, h = _REF_MODULUS // 7, [], b"reference"
    for i in range(iterations):
        x = (x * x + i) % _REF_MODULUS
        keep.append((x, i))
        if i % 16 == 0:
            h = hashlib.sha256(h).digest()
            keep.clear()
    return time.perf_counter() - start


def field_gauge(iterations=3):
    """Seconds for Fermat inversions in the BLS12-381 base field: the
    big-int work under the lab's affine point arithmetic and Fq2/Fq12
    division, where BLS12-381 operations spend their time."""
    start = time.perf_counter()
    x = _REF_MODULUS // 7
    for _ in range(iterations):
        x = pow(x + 1, _REF_MODULUS - 2, _REF_MODULUS)
    return time.perf_counter() - start


_X25519 = X25519PrivateKey.from_private_bytes(bytes(range(32)))
_X25519_PEER = X25519PrivateKey.from_private_bytes(bytes(range(1, 33))).public_key()
_ED25519 = Ed25519PrivateKey.from_private_bytes(bytes(range(2, 34)))
_AEAD = ChaCha20Poly1305(bytes(32))


def crypto_gauge(rounds=8):
    """Seconds for rounds of X25519, HMAC-SHA256, Ed25519 signing and
    ChaCha20-Poly1305 sealing in the ``cryptography`` package: the
    primitives of a handshake session, without the lab."""
    start = time.perf_counter()
    for i in range(rounds):
        key = hmac.new(_X25519.exchange(_X25519_PEER), b"gauge", hashlib.sha256).digest()
        _AEAD.encrypt(i.to_bytes(12, "big"), _ED25519.sign(key) + key, b"")
    return time.perf_counter() - start


# Compute gauges by name; a workload names the one its operations follow
# and, per operation, any that tracks that operation better.
GAUGES = {"cpu": cpu_gauge, "field": field_gauge, "crypto": crypto_gauge}


def disk_gauge(path):
    """Seconds for four durable appends of one 256-byte line to ``path``,
    each with a short CPU loop: the make-up of a slashing-protection Allow."""
    start = time.perf_counter()
    for _ in range(4):
        cpu_gauge(100)
        with open(path, "ab") as fh:
            fh.write(_IO_LINE)
            fh.flush()
            os.fsync(fh.fileno())
    return time.perf_counter() - start


class GaugeSampler:
    """Reads a compute gauge every SAMPLE_INTERVAL seconds, from a SIGALRM
    handler, between ``start()`` and ``stop()``.

    ``stop()`` returns the seconds in between less the handler's time, and
    the harmonic mean of the readings (None if there are fewer than
    MIN_IN_OP). As the readings are evenly spaced in time, those seconds
    times NOMINAL over that mean are the stretch's time at nominal speed,
    even when the machine changes speed within it.
    """

    def __init__(self, gauge):
        self.gauge = GAUGES[gauge]
        self.readings = []  # [(start, seconds)]
        self.spent = 0.0

    def _read(self, signum, frame):
        at = time.perf_counter()
        self.readings.append((at, self.gauge()))
        self.spent += time.perf_counter() - at

    def start(self):
        self.previous = signal.signal(signal.SIGALRM, self._read)
        self.began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - self.began - self.spent
        signal.signal(signal.SIGALRM, self.previous)
        if len(self.readings) < MIN_IN_OP:
            return seconds, None
        return seconds, statistics.harmonic_mean(s for _, s in self.readings)


class CheckFailed(Exception):
    """A program output broke one of the properties the benchmark checks."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


class Run:
    """Samples per key, gauge readings and the attempted-operation count of
    one phase of a run.

    Samples of a key are scaled by the gauge ``key_gauges`` names for it
    (``disk`` or one of GAUGES), all others by ``gauge``. When
    ``probe`` is set (traced phases), every timed operation also adds the
    change in the tracer's counters across it to ``op_counts[key]``. With
    ``sample_in_op`` the compute gauge is also read while each timed
    operation runs, for workloads whose operations take seconds.
    """

    def __init__(self, probe=None, sample_in_op=False, gauge="cpu", key_gauges=None):
        # key -> [(start, seconds, in-operation gauge time or None)]
        self.samples = defaultdict(list)
        self.gauge = gauge
        self.key_gauges = key_gauges or {}
        # gauge -> [(start, seconds)]
        self.refs = {g: [] for g in (gauge, *self.key_gauges.values())}
        self.attempted = 0
        self.probe = probe
        self.sample_in_op = sample_in_op
        self.op_counts = defaultdict(Counter)
        self.op_calls = Counter()

    def calibrate(self):
        """One reading of each compute gauge in use."""
        for gauge, refs in self.refs.items():
            if gauge in GAUGES:
                refs.append((time.perf_counter(), GAUGES[gauge]()))

    def calibrate_disk(self, path):
        self.refs["disk"].append((time.perf_counter(), disk_gauge(path)))

    def timed(self, key, fn, *args, **kwargs):
        self.attempted += 1
        before = self.probe() if self.probe else None
        if self.sample_in_op:
            out, start, seconds, during = self._sampled(fn, args, kwargs)
        else:
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds, during = time.perf_counter() - start, None
        self.samples[key].append((start, seconds, during))
        if before is not None:
            self.op_counts[key].update(self.probe() - before)
            self.op_calls[key] += 1
        return out

    def _sampled(self, fn, args, kwargs):
        sampler = GaugeSampler(self.gauge)
        sampler.start()
        try:
            out = fn(*args, **kwargs)
        finally:
            seconds, during = sampler.stop()
        self.refs[self.gauge].extend(sampler.readings)
        return out, sampler.began, seconds, during

    def add(self, key, start, seconds):
        """A sample measured by the workload itself."""
        self.samples[key].append((start, seconds, None))

    def scale(self, start, seconds, gauge):
        """NOMINAL[gauge] over the median of the REF_NEIGHBOURS gauge
        readings nearest to the operation [start, start + seconds]: the
        machine's speed at the moment a short operation ran."""
        refs, end = self.refs[gauge], start + seconds
        lo = max(0, bisect.bisect(refs, (start,)) - REF_NEIGHBOURS)
        hi = bisect.bisect(refs, (end,)) + REF_NEIGHBOURS
        near = sorted(refs[lo:hi], key=lambda r: max(start - r[0], r[0] - end, 0))
        return NOMINAL[gauge] / statistics.median(s for _, s in near[:REF_NEIGHBOURS])

    def phase_scale(self):
        return NOMINAL[self.gauge] / self.gauge_median()

    def gauge_median(self, gauge=None):
        return statistics.median(s for _, s in self.refs[gauge or self.gauge])

    def values(self, key):
        """The samples of ``key`` in seconds at nominal speed."""
        gauge = self.key_gauges.get(key, self.gauge)
        return [
            seconds * (NOMINAL[gauge] / during if during else self.scale(at, seconds, gauge))
            for at, seconds, during in self.samples[key]
        ]

    def per_op(self, key, name):
        """Mean change of counter ``name`` per timed operation ``key``."""
        return self.op_counts[key][name] / self.op_calls[key]

    def op_total(self):
        total = Counter()
        for counts in self.op_counts.values():
            total.update(counts)
        return total

    def call(self, fn, *args, **kwargs):
        """An untimed operation of the program whose output is checked."""
        self.attempted += 1
        return fn(*args, **kwargs)

    def median(self, key):
        return statistics.median(self.values(key))

    def percentile(self, key, level):
        """The ``level``-th percentile (inclusive method) of the samples."""
        return statistics.quantiles(self.values(key), n=100, method="inclusive")[level - 1]


def cli_words(argv):
    """The group and action of a CLI argument list whose options are all
    written as ``--name=value`` or flags."""
    return [a for a in argv if not a.startswith("-")][:2]


def rng_for(seed, *labels):
    """Deterministic generator for one labelled input stream of a seed."""
    return random.Random("/".join([str(seed), *map(str, labels)]))
