"""Exhaustive range verification of the crosscap bounds and expansion identities.

The sweep walks every coprime pair 2 <= q < p <= max_p, checks each enabled
property, and aggregates a deterministic report.  A bound violation is report
data, never an exception: the whole point is to surface one if it exists.
A non-integral crosscap candidate, by contrast, aborts the sweep, because it
means the computation itself is wrong.

Each knot is checked by one plain-int kernel, `_check(p, q, on)`: it takes
the enabled checks as a bit mask and returns the knot's invariants, bounds
and violated and equality-hit bits as a tuple of ints.  `check_knot` is the
typed shell over it: it validates the check names and wraps the tuple in a
`BoundCheckRecord`.  A sweep builds records only for the knots its report
lists (violations and sharpness hits) and for each row's max-gap witness.

Each p is one task: a row of knots sorted by q, folded into a partial
report and, for `verify --csv`, rendered from plain tuples as CSV text.
`run_verification` maps the task over p, in-process or on a process pool
that hands rows out as workers free up, and merges the rows in p order, so
the report and the CSV are the same for every worker count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat
from math import gcd
from typing import Callable, Iterable, Iterator

from .continued_fractions import continuant, euclid, lemma9_lists, skip_total
from .torus_knots import (
    Bounds,
    InvariantRecord,
    Parity,
    TorusKnot,
    bound_ints,
    crosscap_from,
    q3_closed_form,
    q3_congruence_selector,
)

#: All check names, in canonical (wire) order.
CHECK_NAMES = ("thm1", "thm2", "clark", "my", "lemma2", "lemma9", "q3", "gap")

_ALL_CHECKS = frozenset(CHECK_NAMES)
_SHARPENED = frozenset({"thm1", "thm2"})
_LEMMA_CHECKS = ("lemma2", "lemma9")

#: Each check's bit in the kernel's masks: bit i is CHECK_NAMES[i].
_BITS = {name: 1 << i for i, name in enumerate(CHECK_NAMES)}
_THM1, _THM2, _CLARK, _MY, _LEMMA2, _LEMMA9, _Q3, _GAP = _BITS.values()
#: The bound checks' bits in `bound_ints` order: (clark, my, thm1, thm2).
_BOUND_BITS = (_CLARK, _MY, _THM1, _THM2)

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


def _pairs(p_lo: int, p_hi: int) -> Iterator[tuple[int, int]]:
    """Every coprime (p, q) with 2 <= q < p and p_lo <= p <= p_hi, ascending."""
    for p in range(p_lo, p_hi + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:
                yield p, q


def enumerate_coprime(max_p: int) -> Iterator[TorusKnot]:
    """Every torus knot with 2 <= q < p <= max_p, ascending by (p, q)."""
    return (TorusKnot(p, q) for p, q in _pairs(3, SweepConfig(max_p).max_p))


def _mask(checks: Iterable[str]) -> int:
    """The bits of the enabled checks; raises ValueError on an unknown name."""
    return sum(map(_BITS.__getitem__, _enabled(checks)))


def _names(bits: int) -> frozenset[str]:
    """The checks whose bits are set; most knots set none."""
    if not bits:
        return frozenset()
    return frozenset(name for name, bit in _BITS.items() if bits & bit)


def _check(p: int, q: int, on: int) -> tuple[int, ...]:
    """The checks in the bit mask `on`, on the knot (p, q): plain ints only.

    Returns (genus, crossing, crosscap, clark, my, thm1, thm2, gap,
    violated bits, equality-hit bits); see :func:`check_knot` for the checks.
    """
    coeffs = euclid(q, p)  # [0, a1, ..., an]: q/p, and p/q after the leading 0
    odd = p * q % 2
    # an odd knot's crosscap number is read from the lemma-9 lists
    branches = lemma9_lists(coeffs) if odd or on & _LEMMA9 else None
    c = crosscap_from(p, q, coeffs, branches)
    g = (p - 1) * (q - 1) // 2
    n = p * (q - 1)
    gap = g - c
    bounds = bound_ints(g, n)
    violated = hits = 0
    if c >= min(bounds):  # else no bound is met or beaten: nothing to flag
        for bit, bound in zip(_BOUND_BITS, bounds):
            if on & bit:
                if c > bound:
                    violated |= bit
                elif c == bound:
                    hits |= bit

    if on & _GAP and gap < 0:
        violated |= _GAP

    if on & _LEMMA2 and sum(coeffs) > p:
        violated |= _LEMMA2

    # exact: continuants are coprime, and so are p*q -/+ 1 and p^2
    if on & _LEMMA9 and (
        continuant(branches[0]) != (p * q - 1, p * p)
        or continuant(branches[1]) != (p * q + 1, p * p)
    ):
        violated |= _LEMMA9

    if on & _Q3 and q == 3 and odd:
        selected = branches[q3_congruence_selector(p) > 0]
        if q3_closed_form(p)[1] != c or skip_total(selected) != 2 * c:
            violated |= _Q3

    return (g, n, c, *bounds, gap, violated, hits)


def _record(k: TorusKnot, checked: tuple[int, ...]) -> BoundCheckRecord:
    """The record of `k` from its kernel tuple."""
    g, n, c, clark, my, thm1, thm2, gap, violated, hits = checked
    rec = InvariantRecord(k, k.parity, g, n, c, Bounds(clark, my, thm1, thm2), gap)
    return BoundCheckRecord(rec, _names(violated), _names(hits))


def check_knot(k: TorusKnot, checks: Iterable[str] = _ALL_CHECKS) -> BoundCheckRecord:
    """Evaluate every enabled check against one knot.

    A typed shell over the sweep's plain-int kernel: it validates `checks`
    (an unknown name raises ValueError), runs the kernel on (k.p, k.q) and
    wraps its tuple in a record.  One Euclid pass on q/p feeds the crosscap
    number and both lemma checks.  Bound checks compare the crosscap number
    against the four bounds and record equality hits.  The lemma checks are
    range-independent facts about continued fractions: the coefficient sum
    of p/q stays at most p, and the two constructed expansions of
    (p*q -/+ 1)/p^2 evaluate exactly.  The lemma9 check applies to every
    p > q > 1 regardless of knot parity; for an odd knot it checks the very
    expansions the crosscap number was read from.  The q3 check (only when
    q = 3 and p is odd, the closed form's domain) compares the closed form
    against the general pipeline and confirms the congruence-selected
    lemma-9 branch attains the minimum.
    """
    return _record(k, _check(k.p, k.q, _mask(checks)))


@dataclass
class _Partial:
    """Knot count, listed records and first max-gap knot of a run in (p, q) order."""

    count: int = 0
    listed: list[BoundCheckRecord] = field(default_factory=list)  # violations, sharp hits
    best: InvariantRecord | None = None  # strict > in add: the earliest knot wins ties

    @classmethod
    def fold(cls, records: Iterable[BoundCheckRecord]) -> _Partial:
        """The aggregate of `records`, given in (p, q) order: one run per record."""
        part = cls()
        for c in records:
            part.add(1, (c,) if c.violated or _SHARPENED & c.equality_hits else (), c.record)
        return part

    def add(self, count: int, listed: Iterable[BoundCheckRecord], best: InvariantRecord) -> None:
        """Append the run that follows: its knot count, listed records and first max-gap knot."""
        self.count += count
        self.listed += listed
        if self.best is None or best.gap > self.best.gap:
            self.best = best

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


#: A knot's parity field, indexed by p*q % 2.
_PARITY = (Parity.EVEN.value, Parity.ODD.value)


@cache  # at most 2**8 masks, and a sweep sees few: almost every knot violates nothing
def _flags(bits: int) -> tuple[int, ...]:
    """The violated flags of a mask, one 0/1 per check in CHECK_NAMES order."""
    return tuple(bits >> i & 1 for i in range(len(_BITS)))


def _sweep_row(p: int, checks: frozenset[str], row: Callable | None = None) -> tuple:
    """The fold of the knots (p, q), and the text `row` renders from their CSV
    rows in q order when it is given (module-level, so that it pickles).

    A knot's CSV row is a plain tuple: its record fields in `as_dict` order,
    then one 0/1 violated flag per check in CHECK_NAMES order.
    """
    on = _mask(checks)
    count, listed, rows = 0, [], []
    top = top_q = None  # kernel tuple and q of the row's first max-gap knot
    for _, q in _pairs(p, p):
        checked = _check(p, q, on)
        count += 1
        if checked[8] or checked[9] & (_THM1 | _THM2):
            listed.append(_record(TorusKnot(p, q), checked))
        if top is None or checked[7] > top[7]:
            top, top_q = checked, q
        if row is not None:
            rows.append((p, q, _PARITY[p * q % 2], *checked[:8], *_flags(checked[8])))
    best = _record(TorusKnot(p, top_q), top).record
    return _Partial(count, listed, best), None if row is None else row(rows)


def run_verification(
    config: SweepConfig,
    row: Callable[[list[tuple]], str] | None = None,
    write: Callable[[str], object] | None = None,
) -> VerificationReport:
    """Run the configured sweep and aggregate a deterministic report.

    Each p is one task; with `row`, a task also renders its knots' CSV rows
    (see :func:`_sweep_row`), and the texts are passed to `write` in p order
    as they arrive.  The pool has at most one process per p and per CPU, and
    a pool of one runs in-process.  The merge is order-preserving over the p
    rows, so the result does not depend on worker count or scheduling.  The max-gap
    tie-break is the first (smallest-(p, q)) knot attaining the maximum.
    """
    p_range = range(3, config.max_p + 1)
    tasks = (_sweep_row, p_range, repeat(config.checks), repeat(row))
    size = min(config.workers, len(p_range), os.cpu_count() or 1)
    merged = _Partial()
    with ProcessPoolExecutor(size) if size > 1 else nullcontext() as pool:
        for part, text in pool.map(*tasks, chunksize=_ROWS_PER_TASK) if pool else map(*tasks):
            if row is not None:
                write(text)
            merged.add(part.count, part.listed, part.best)
    return merged.report(config)


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
