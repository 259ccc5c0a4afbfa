"""Exhaustive range verification of the crosscap bounds and expansion identities.

The sweep walks every coprime pair 2 <= q < p <= max_p, checks each enabled
property, and aggregates a deterministic report.  A bound violation is report
data, never an exception: the whole point is to surface one if it exists.
A non-integral crosscap candidate, by contrast, aborts the sweep, because it
means the computation itself is wrong.

A parallel run makes each p one task, a row of knots sorted by q; the process
pool hands rows out as workers free up and returns them in p order, and they
are merged in that order, so the report is identical for every worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from math import gcd
from typing import Iterable, Iterator

from .continued_fractions import bredon_wood_N, continuant, euclid, lemma9_lists
from .torus_knots import (
    InvariantRecord,
    TorusKnot,
    crosscap_from,
    q3_closed_form,
    q3_congruence_selector,
    record_with,
)

#: All check names, in canonical (wire) order.
CHECK_NAMES = ("thm1", "thm2", "clark", "my", "lemma2", "lemma9", "q3", "gap")

_ALL_CHECKS = frozenset(CHECK_NAMES)
_BOUND_CHECKS = ("thm1", "thm2", "clark", "my")
_SHARPENED = frozenset({"thm1", "thm2"})
_LEMMA_CHECKS = ("lemma2", "lemma9")

#: Upper cap on the sweep range.  Exactness never degrades (Python ints are
#: arbitrary precision), so this bounds runtime, not correctness: the pair
#: count grows quadratically and a full sweep at the cap is ~30M knots.
MAX_SWEEP_P = 10_000

#: p rows per pool task: with one row per task, dispatch costs more than balance saves.
_ROWS_PER_TASK = 8


class SweepCapError(ValueError):
    """Requested range exceeds the documented sweep cap."""


@dataclass(frozen=True)
class SweepConfig:
    """Range, parallelism, and check selection for one verification run."""

    max_p: int
    workers: int = 1
    checks: frozenset[str] = frozenset(CHECK_NAMES)

    def __post_init__(self) -> None:
        if self.max_p > MAX_SWEEP_P:
            raise SweepCapError(f"max_p {self.max_p} exceeds the sweep cap {MAX_SWEEP_P}")
        if self.max_p < 3:
            raise ValueError(f"max_p must be at least 3, got {self.max_p}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        object.__setattr__(self, "checks", _enabled(self.checks))


def _enabled(checks: Iterable[str]) -> frozenset[str]:
    """`checks` as a frozenset; raises ValueError on a name not in CHECK_NAMES."""
    enabled = frozenset(checks)
    if not enabled <= _ALL_CHECKS:
        raise ValueError(f"unknown checks: {sorted(enabled - _ALL_CHECKS)}")
    return enabled


@dataclass(frozen=True)
class BoundCheckRecord:
    """One knot's invariants plus which checks it violated or met exactly."""

    record: InvariantRecord
    violated: frozenset[str]
    equality_hits: frozenset[str]


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate result of a sweep; all lists sorted ascending by (p, q)."""

    max_p: int
    checks: tuple[str, ...]
    knots_checked: int
    violations: tuple[BoundCheckRecord, ...]
    sharpness_hits: tuple[TorusKnot, ...]
    max_gap_witness: InvariantRecord
    lemma_failures: tuple[tuple[TorusKnot, tuple[str, ...]], ...]


def _pairs(p_lo: int, p_hi: int) -> Iterator[TorusKnot]:
    """Every torus knot with 2 <= q < p and p_lo <= p <= p_hi, ascending by (p, q)."""
    for p in range(p_lo, p_hi + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:
                yield TorusKnot(p, q)


def enumerate_coprime(max_p: int) -> Iterator[TorusKnot]:
    """Every torus knot with 2 <= q < p <= max_p, ascending by (p, q)."""
    return _pairs(3, SweepConfig(max_p).max_p)


def check_knot(k: TorusKnot, checks: Iterable[str] = _ALL_CHECKS) -> BoundCheckRecord:
    """Evaluate every enabled check against one knot.

    One Euclid pass on q/p feeds the crosscap number and both lemma
    checks.  Bound checks compare the crosscap number against the four
    bounds and record equality hits.  The lemma checks are range-independent
    facts about continued fractions: the coefficient sum of p/q stays at
    most p, and the two constructed expansions of (p*q -/+ 1)/p^2 evaluate
    exactly.  The lemma9 check applies to every p > q > 1 regardless of
    knot parity; for an odd knot it checks the very expansions the crosscap
    number was read from.  An unknown check name raises ValueError.
    The q3 check (only when q = 3 and p is odd, the closed form's domain)
    compares the closed form against the general pipeline and confirms the
    congruence-selected branch attains the minimum.
    """
    enabled = _enabled(checks)
    p, q = k.p, k.q
    coeffs = euclid(q, p)  # [0, a1, ..., an]: q/p, and p/q after the leading 0
    branches = lemma9_lists(coeffs) if "lemma9" in enabled else None
    rec = record_with(k, crosscap_from(k, coeffs, branches))
    violated: set[str] = set()
    hits: set[str] = set()

    b = rec.bounds
    for name, bound in zip(_BOUND_CHECKS, (b.thm1, b.thm2, b.clark, b.murakami_yasuhara)):
        if name not in enabled:
            continue
        if rec.crosscap > bound:
            violated.add(name)
        elif rec.crosscap == bound:
            hits.add(name)

    if "gap" in enabled and rec.gap < 0:
        violated.add("gap")

    if "lemma2" in enabled and sum(coeffs) > p:
        violated.add("lemma2")

    # exact: continuants are coprime, and so are p*q -/+ 1 and p^2
    if "lemma9" in enabled and (
        continuant(branches[0]) != (p * q - 1, p * p)
        or continuant(branches[1]) != (p * q + 1, p * p)
    ):
        violated.add("lemma9")

    if "q3" in enabled and k.q == 3 and k.p % 2 == 1:
        _, closed = q3_closed_form(k.p)
        sign = q3_congruence_selector(k.p)
        branch = bredon_wood_N(k.p * 3 + sign, k.p * k.p)
        if (
            closed != rec.crosscap
            or not branch.is_integral
            or branch.as_integer() != rec.crosscap
        ):
            violated.add("q3")

    return BoundCheckRecord(rec, frozenset(violated), frozenset(hits))


@dataclass
class _Partial:
    """Knot count, listed records and first max-gap knot of a run in (p, q) order."""

    count: int = 0
    listed: list[BoundCheckRecord] = field(default_factory=list)  # violations, sharp hits
    best: InvariantRecord | None = None  # strict > in extend: the earliest knot wins ties

    @classmethod
    def fold(cls, records: Iterable[BoundCheckRecord]) -> _Partial:
        """The aggregate of `records`, given in (p, q) order: one run per record."""
        return cls().extend(
            (1, (c,) if c.violated or _SHARPENED & c.equality_hits else (), c.record)
            for c in records
        )

    def extend(self, runs: Iterable[tuple]) -> _Partial:
        """Append, in order, runs given as (knot count, listed records, first max-gap knot)."""
        for count, listed, best in runs:
            self.count += count
            self.listed += listed
            if self.best is None or best.gap > self.best.gap:
                self.best = best
        return self

    def report(self, config: SweepConfig) -> VerificationReport:
        assert self.best is not None  # max_p >= 3 guarantees at least the (3,2) knot
        return VerificationReport(
            max_p=config.max_p,
            checks=tuple(sorted(config.checks)),
            knots_checked=self.count,
            violations=tuple(c for c in self.listed if c.violated),
            sharpness_hits=tuple(
                c.record.knot for c in self.listed if _SHARPENED & c.equality_hits
            ),
            max_gap_witness=self.best,
            lemma_failures=tuple(
                (c.record.knot, failed)
                for c in self.listed
                if (failed := tuple(n for n in _LEMMA_CHECKS if n in c.violated))
            ),
        )


def _checked(p_lo: int, p_hi: int, checks: frozenset[str]) -> Iterator[BoundCheckRecord]:
    """`check_knot` over every knot with p_lo <= p <= p_hi, in (p, q) order."""
    return (check_knot(knot, checks) for knot in _pairs(p_lo, p_hi))


def _sweep_row(p: int, checks: frozenset[str]) -> _Partial:
    return _Partial.fold(_checked(p, p, checks))


def iter_checked(config: SweepConfig) -> Iterator[BoundCheckRecord]:
    """Every knot of the configured range, checked in-process, in (p, q) order."""
    return _checked(3, config.max_p, config.checks)


def summarize(config: SweepConfig, records: Iterable[BoundCheckRecord]) -> VerificationReport:
    """Fold records given in (p, q) order into the report for `config`; folding
    `iter_checked(config)` gives `run_verification(config)`."""
    return _Partial.fold(records).report(config)


def run_verification(config: SweepConfig) -> VerificationReport:
    """Run the configured sweep and aggregate a deterministic report.

    The merge is order-preserving over the p rows, so the result does not
    depend on worker count or scheduling.  The max-gap tie-break is the
    first (smallest-(p, q)) knot attaining the maximum.
    """
    if config.workers == 1:
        return summarize(config, iter_checked(config))
    p_range = range(3, config.max_p + 1)
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        rows = pool.map(_sweep_row, p_range, repeat(config.checks), chunksize=_ROWS_PER_TASK)
        return _Partial().extend((r.count, r.listed, r.best) for r in rows).report(config)


def report_as_dict(report: VerificationReport) -> dict:
    """JSON-ready mapping; field order is fixed and worker count is excluded.

    Excluding workers keeps serialized reports byte-identical across worker
    counts, which is the determinism contract.
    """
    witness = report.max_gap_witness.as_dict()
    return {
        "max_p": report.max_p,
        "checks": list(report.checks),
        "knots_checked": report.knots_checked,
        "violations": [
            {
                **checked.record.as_dict(),
                "violated": sorted(checked.violated),
                "equality_hits": sorted(checked.equality_hits),
            }
            for checked in report.violations
        ],
        "sharpness_hits": [{"p": k.p, "q": k.q} for k in report.sharpness_hits],
        "max_gap_witness": {
            "p": witness["p"],
            "q": witness["q"],
            "genus": witness["genus"],
            "crosscap": witness["crosscap"],
            "gap": witness["gap"],
        },
        "lemma_failures": [
            {"p": knot.p, "q": knot.q, "failed": list(failed)}
            for knot, failed in report.lemma_failures
        ],
    }


def serialize_report(report: VerificationReport) -> str:
    """Stable byte-for-byte JSON rendering of a report."""
    return json.dumps(report_as_dict(report), indent=2) + "\n"
