"""Small measurement helpers: percentiles with a tail rule, CPU accounting, distinct draws."""

from __future__ import annotations

import math
import resource
import time

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """Fewer than MIN_TAIL samples would lie beyond the requested percentile."""


def percentile(sorted_samples, pct: float):
    """Nearest-rank percentile of an ascending sequence.

    Raises TooFewSamples unless at least MIN_TAIL samples lie strictly beyond
    the returned rank, so a reported p99 rests on at least ten slower samples.
    """
    n = len(sorted_samples)
    rank = max(1, math.ceil(pct / 100 * n))
    if n - rank < MIN_TAIL:
        raise TooFewSamples(f"p{pct:g} of {n} samples leaves {n - rank} beyond it, need {MIN_TAIL}")
    return sorted_samples[rank - 1]


def cpu_seconds(who: int) -> float:
    """User plus system CPU of this process (RUSAGE_SELF) or its waited-for children."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak resident set, in MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024


def core_split(wall: float, workers: int, parent_cpu: float, worker_cpu: float) -> tuple[float, float]:
    """(utilisation, idle core-seconds) of `workers` cores held for `wall` seconds.

    Utilisation is CPU / (wall * workers); idle is the core-seconds left unused,
    never below zero (a parent busy beside its workers can exceed the share).
    """
    capacity = wall * workers
    cpu = parent_cpu + worker_cpu
    return cpu / capacity, max(0.0, capacity - cpu)


class Distinct:
    """Bloom filter of fixed size: `add` is True only for a key never added before.

    A false positive only rejects a fresh key, so every accepted key is
    distinct. The memory is fixed, so the benchmark's footprint does not grow
    with the number of queries a faster program completes.
    """

    def __init__(self, bits: int = 1 << 23, hashes: int = 3):
        self._bits = bits
        self._hashes = hashes
        self._table = bytearray(bits // 8)

    def add(self, key) -> bool:
        fresh = False
        for salt in range(self._hashes):
            bit = hash((salt, key)) % self._bits
            byte, mask = bit >> 3, 1 << (bit & 7)
            if not self._table[byte] & mask:
                self._table[byte] |= mask
                fresh = True
        return fresh


class Speed:
    """How fast the machine runs now, as a factor against a pinned reference.

    On a shared host the speed of every CPU-bound loop shifts by 20-60% for
    tens of seconds at a time, so raw timings of one program differ more
    between runs than any change worth catching. Timing a fixed piece of the
    benchmark's own work next to each measurement gives `factor` = its time
    now over its reference time; a time divided by the factor is the time at
    reference speed. The work never runs crosscap code, so a change to the
    program cannot move the factor.
    """

    def __init__(self, work, reference_s: float):
        self._work = work
        self._reference_s = reference_s

    def factor(self, units: int = 1) -> float:
        start = time.perf_counter()
        for _ in range(units):
            self._work()
        return (time.perf_counter() - start) / (units * self._reference_s)
