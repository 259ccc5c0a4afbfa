"""Exhaustive range verification of the crosscap bounds and expansion identities.

The sweep walks every coprime pair 2 <= q < p <= max_p, runs every check in
CHECK_NAMES on it, and aggregates a deterministic report.  A bound violation
is report data, never an exception: the whole point is to surface one if it
exists.  A non-integral crosscap candidate, by contrast, aborts the sweep,
because it means the computation itself is wrong.  The report, the CSV and
the knot an abort names are the same for every worker count.

`_walk` checks the knots of both outputs, `run_verification` drives it, and
the row kernel `_check`, typed by `check_knot`, is the walk's oracle.
"""

from __future__ import annotations

import json
import os
import signal
from array import array
from collections.abc import Callable, Iterable, Iterator
from concurrent import futures
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, groupby, islice, starmap
from math import gcd

from .continued_fractions import (
    NEXT,
    ODD,
    SKIP,
    TAKE,
    HalfInteger,
    continuant,
    euclid,
    lemma9_lists,
    skip_total,
)
from .torus_knots import (
    PARITY,
    RECORD_FIELDS,
    Bounds,
    IntegralityError,
    InvariantRecord,
    TorusKnot,
    _csv_text,
    bound_ints,
    crosscap_from,
    q3_closed_form,
    q3_congruence_selector,
)

#: All check names, in canonical (wire) order.
CHECK_NAMES = ("thm1", "thm2", "clark", "my", "lemma2", "lemma9", "q3", "gap")

_LEMMA_CHECKS = ("lemma2", "lemma9")

#: Each check's bit in the kernel's violated and equality-hit bits.
_BITS = {name: 1 << i for i, name in enumerate(CHECK_NAMES)}
_THM1, _THM2, _CLARK, _MY, _LEMMA2, _LEMMA9, _Q3, _GAP = _BITS.values()
#: The bound checks' bits in `bound_ints` order: (clark, my, thm1, thm2).
_BOUND_BITS = (_CLARK, _MY, _THM1, _THM2)
#: The sharpened bounds' bits: a knot that meets either is a sharpness hit.
_SHARPENED = _THM1 | _THM2

#: The sweep CSV's header: a knot's record fields, then one violated flag per check.
_CSV_HEADER = (*RECORD_FIELDS, *(f"violated_{name}" for name in CHECK_NAMES))
#: A CSV row after its p, as `%` formats it: one field per record field but
#: p, then the violated flags as one text (see `_FLAGS`).
_CSV_TAIL = "%s," * (len(RECORD_FIELDS) - 1) + "%s\n"
#: The violated flags of each 8-bit value as CSV text, one 0/1 per check in
#: CHECK_NAMES order.
_FLAGS = tuple(
    ",".join(str(bits >> i & 1) for i in range(len(_BITS))) for bits in range(1 << len(_BITS))
)

#: Upper cap on the sweep range.  Exactness never degrades (Python ints are
#: arbitrary precision), so this bounds runtime, not correctness: the pair
#: count grows quadratically and a full sweep at the cap is ~30M knots.
MAX_SWEEP_P = 10_000

#: The most slots (p, q), 2 <= q < p, that a CSV band holds, give or take
#: one row: the band count depends on max_p alone, one band to max_p 2,897
#: and 12 at the cap.  Each band walks from the root, so more bands cost
#: more prefixes; fewer cost more memory, 4 bytes a slot.
_BAND_SLOTS = 1 << 22

#: Walk runs per process: one each leaves the cores idle behind the largest
#: subtree, and one per prefix costs more in dispatch than it balances.
_RUNS_PER_WORKER = 16


class SweepCapError(ValueError):
    """Requested range exceeds the documented sweep cap."""


@dataclass(frozen=True)
class SweepConfig:
    """Range and parallelism for one verification run, which runs every check:
    `workers` caps the processes it runs on (see :func:`run_verification`)."""

    max_p: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_p > MAX_SWEEP_P:
            raise SweepCapError(f"max_p {self.max_p} exceeds the sweep cap {MAX_SWEEP_P}")
        if self.max_p < 3:
            raise ValueError(f"max_p must be at least 3, got {self.max_p}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")


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


def enumerate_coprime(max_p: int) -> Iterator[TorusKnot]:
    """Every torus knot with 2 <= q < p <= max_p, ascending by (p, q); an
    invalid max_p raises at the call, since the first range is built there."""
    ps = range(3, SweepConfig(max_p).max_p + 1)
    return (TorusKnot(p, q) for p in ps for q in range(2, p) if gcd(p, q) == 1)


def _mask(checks: Iterable[str]) -> int:
    """The bits of `checks`; raises ValueError on a name not in CHECK_NAMES."""
    enabled = frozenset(checks)
    if not enabled <= _BITS.keys():
        raise ValueError(f"unknown checks: {sorted(enabled - _BITS.keys())}")
    return sum(map(_BITS.__getitem__, enabled))


def _names(bits: int) -> frozenset[str]:
    """The checks whose bits are set; most knots set none."""
    if not bits:
        return frozenset()
    return frozenset(name for name, bit in _BITS.items() if bits & bit)


def _check(p: int, q: int) -> tuple[int, int, int]:
    """Every check on the knot (p, q): its crosscap number and its violated
    and equality-hit bits, plain ints; see :func:`check_knot` for the checks.
    """
    coeffs = euclid(q, p)  # [0, a1, ..., an]: q/p, and p/q after the leading 0
    # an odd knot's crosscap number is read from the lemma-9 lists
    branches = lemma9_lists(coeffs)
    c = crosscap_from(p, q, coeffs, branches)
    g = (p - 1) * (q - 1) // 2
    n = p * (q - 1)
    violated, hits = _bound_flags(c, g, n)

    if sum(coeffs) > p:
        violated |= _LEMMA2

    # exact: continuants are coprime, and so are p*q -/+ 1 and p^2
    if (
        continuant(branches[0]) != (p * q - 1, p * p)
        or continuant(branches[1]) != (p * q + 1, p * p)
    ):
        violated |= _LEMMA9

    if q == 3 and p & 1 and _q3_fails(p, c, *map(skip_total, branches)):
        violated |= _Q3

    return c, violated, hits


def _bound_flags(c: int, g: int, n: int) -> tuple[int, int]:
    """The violated and equality-hit bits of the bound checks, for the
    crosscap number c, genus g and crossing number n: the one place for
    them.  Each of the four bounds of `bound_ints(g, n)` flags a violation
    or an equality hit; gap flags c > g, and records no equality hit."""
    violated = _GAP if c > g else 0
    hits = 0
    for bit, bound in zip(_BOUND_BITS, bound_ints(g, n)):
        if c > bound:
            violated |= bit
        elif c == bound:
            hits |= bit
    return violated, hits


def _q3_fails(p: int, c: int, minus: int, plus: int) -> bool:
    """Whether the (p, 3) knot, p odd, with crosscap number c and lemma-9 skip
    totals minus and plus, fails the q3 check: the closed form is not c, or
    the congruence-selected total is not 2c."""
    selected = plus if q3_congruence_selector(p) > 0 else minus
    return q3_closed_form(p)[1] != c or selected != 2 * c


def _record(p: int, q: int, c: int, violated: int, hits: int) -> BoundCheckRecord:
    """The record of the checked knot (p, q, c, violated, hits): the one place
    that derives its other fields."""
    k = TorusKnot(p, q)
    g = (p - 1) * (q - 1) // 2
    n = p * (q - 1)
    rec = InvariantRecord(k, k.parity, g, n, c, Bounds(*bound_ints(g, n)), g - c)
    return BoundCheckRecord(rec, _names(violated), _names(hits))


def check_knot(k: TorusKnot, checks: Iterable[str] = CHECK_NAMES) -> BoundCheckRecord:
    """Evaluate the checks named in `checks` against one knot.

    A typed shell over the plain-int row kernel, and the one place that
    selects checks: it validates `checks` (an unknown name raises
    ValueError), runs the kernel, which runs every check, on (k.p, k.q),
    keeps the violated and equality-hit bits of `checks` alone, and wraps
    the tuple in a record.  One Euclid pass on q/p feeds the crosscap
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
    on = _mask(checks)
    c, violated, hits = _check(k.p, k.q)
    return _record(k.p, k.q, c, violated & on, hits & on)


def _rank(knot: tuple) -> tuple[int, int, int]:
    """The max-gap witness is the checked knot of highest rank: the largest
    gap, then the smallest (p, q)."""
    p, q, c, _, _ = knot
    return (p - 1) * (q - 1) // 2 - c, -p, -q


@dataclass
class _Partial:
    """Knot count, listed knots and max-gap witness of the knots folded so far,
    each a checked knot (p, q, c, violated, hits): plain ints, until `report`."""

    count: int = 0
    listed: list[tuple] = field(default_factory=list)  # violations, sharp hits
    best: tuple | None = None

    def add(self, count: int, listed: Iterable[tuple], best: tuple) -> None:
        """Fold in a run of knots: its count, listed knots (appended in the
        order given) and max-gap witness."""
        self.count += count
        self.listed += listed
        if self.best is None or _rank(best) > _rank(self.best):
            self.best = best

    def report(self, config: SweepConfig) -> VerificationReport:
        """The report: the listed knots in (p, q) order, as the report's types."""
        assert self.best is not None  # max_p >= 3 guarantees at least the (3,2) knot
        listed = sorted(self.listed)  # by (p, q): no two listed knots share it
        return VerificationReport(
            max_p=config.max_p,
            checks=tuple(sorted(CHECK_NAMES)),
            knots_checked=self.count,
            violations=tuple(
                _record(p, q, c, violated, hits) for p, q, c, violated, hits in listed if violated
            ),
            sharpness_hits=tuple(
                TorusKnot(p, q) for p, q, _, _, hits in listed if hits & _SHARPENED
            ),
            max_gap_witness=_record(*self.best).record,
            lemma_failures=tuple(
                (TorusKnot(p, q), failed)
                for p, q, _, violated, _ in listed
                if (failed := tuple(n for n in _LEMMA_CHECKS if violated & _BITS[n]))
            ),
        )


#: A knot's parity field, indexed by p & q & 1.
_PARITY = tuple(parity.value for parity in PARITY)


def _row(p: int) -> int:
    """The slots (p', q), 2 <= q < p', of the rows 3 <= p' < p: where row p starts."""
    return (p - 2) * (p - 3) // 2


#: The walk's start: the empty prefix [0] (see `_walk` for the fields).
_ROOT = (0, 1, 1, 0, SKIP, 0, TAKE, 0, 0, (0, 0, 0), True)


def _walk(
    max_p: int, stack: list, tasks: list | None = None, lo: int = 3, cells: array | None = None
) -> _Partial:
    """The fold of every knot with lo <= p <= max_p, each with every check,
    from a depth-first walk over the expansions q/p = [0; a1, ..., a(n-1), a].

    The walk empties `stack`: from [_ROOT], the empty prefix [0], it visits
    the prefixes [0; a1, ..., a(n-1)] whose smallest knot (a = 2) has
    p <= max_p, and checks each knot, its prefix extended by a last
    coefficient a >= 2, in O(1) as `_check` does, or settles it by the jump
    below.  An odd total aborts at the first knot that has one in walk order,
    and the listed knots come in walk order.  The walk keeps a trailing
    a1 = 1 unmerged: [..., x, 1] has the value of [..., x + 1], and a skip
    total that differs by 0 or 1, so an even total is the canonical list's
    and an odd one aborts.

    Per knot the walk keeps plain ints.  It runs the bound checks and the
    gap check only on a knot whose crosscap number meets thm1 or thm2, the
    least of the four bounds, as every knot with c > g does, and builds the
    checked knot (p, q, c, violated, hits) only to list it or to offer it as
    the witness: each knot whose gap is at least the largest so far goes to
    `_Partial.add`, whose `_rank` keeps the smallest (p, q) of a tie, so the
    witness does not depend on walk order.

    The lemma-9 lists are the head [0, a1, ..., a(n-1)], a middle pair, and
    the reversed tail a(n-1), ..., a1, whose continuant is (k1, k2), since
    reversal does not change a continuant.  So the up list, middle pair
    (a + 1, a - 1), has the continuant (pq + h1 k2 - h2 k1, p^2) for every a,
    and the down list (pq - h1 k2 + h2 k1, p^2).  The minus list needs
    (pq - 1, p^2) and the plus list (pq + 1, p^2), so with sign = +1 where
    the up list is the minus list, both are right for every a exactly when
    h2 k1 - h1 k2 = sign, and the walk decides that once per prefix.  The row
    kernel `_check` is the independent oracle: it runs `continuant` on the
    explicit `lemma9_lists`.

    The report's walk jumps over each prefix's quiet run.  At a knot a of a
    prefix with a > first, where neither knot a - 1 nor knot a was listed (no
    violated bit and no thm1 or thm2 hit, so lemma 9 holds on the prefix),
    q >= 4, p + q >= 12 at a - 1 and a < last, it leaves the prefix if the
    genus of knot last is below the largest gap so far, and else resumes at
    a = max(a + 1, last - 1); it still counts every knot.  The knots past a
    lie in the two parity classes of a, those of a - 1 and of a, and a step
    a -> a + 2 within a class adds 2 k1 to p and 2 h1 to q.  Each knot it
    jumps over is settled from the walk's own state:
    - integrality: a total is T + S a, with T and S fixed on a class and S in
      {0, 1, 2} (take0 or take1 for an even knot, take0 + take_y for an odd
      one) for any `NEXT` table, so its parity is constant on the class; each
      class has its first knot at or before a, so an odd total would already
      have aborted, in walk order;
    - bounds: a step adds k1 (q - 1) + h1 (p - 1) + 2 k1 h1 >= p + q >= 12 to
      g and at least 2 (p + q) to n, so thm1 = (g + 9) // 6 and thm2 =
      (n + 16) // 12 each rise by at least 2, and c by S <= 2: an unlisted
      knot has c below both, stays below the guard, and flags nothing;
    - lemma 2: coeff_sum + a <= a k1 + k2 keeps holding as a grows, as k1 >= 1;
    - q3: q = a h1 + h2 grows with a, so q >= 4 rules out q = 3;
    - witness: a step raises the gap g - c, so each class's largest gap past a
      is at last - 1 or last, and the walk visits both; and each knot past a
      has gap <= g <= the genus of knot last, as c >= 0 and g grows with a, so
      below the largest gap so far none can be the witness, and a knot that
      ties it is still visited, for `_rank` to break the tie.
    The CSV's walk visits every knot, because every slot needs its cell.

    Given `cells` (see `_band`), the walk stores each knot's c << 8 | violated
    in its slot once it has checked the knot.  Given `tasks`, it visits only
    the top prefixes [0] and [0; 1], whose last convergent has denominator 1,
    and appends each prefix below them to `tasks` in walk order instead.
    """
    part = _Partial()
    listed = part.listed
    best_gap = float("-inf")
    next_ = NEXT
    sharp = _SHARPENED
    base = _row(lo) + 2  # cells[_row(p) + q - base] is the slot of (p, q)
    # a prefix is (h1, h2, k1, k2): the continuant matrix of [0, a1, ..., a(n-1)],
    # whose columns are its last two convergents; (s0, t0) and (s1, t1): the skip
    # states and totals of [0, a1, ...] (the leading 0 makes the rule skip a1) and
    # of [a1, ...]; its coefficient sum; of the reversed tail a(n-1), ..., a1, the
    # tail of both lemma-9 lists, the skip adds from each entry state; minus_up:
    # n is odd, so the minus list has the middle pair (a + 1, a - 1).  A stack,
    # not recursion, so that a walk can start from any run of prefixes.
    while stack:  # depth first, children in increasing order of their coefficient
        prefix = stack.pop()
        h1, h2, k1, k2, s0, t0, s1, t1, coeff_sum, tail, minus_up = prefix
        if tasks is not None and k1 > 1:  # below [0] and [0; 1]: a pool task's
            tasks.append(prefix)
            continue
        take0, take1 = s0 != SKIP, s1 != SKIP
        for b in range((max_p - k1 - 2 * k2) // (2 * k1), 0, -1):
            # [0; a1, ..., a(n-1), b, 2] has p = 2 (b k1 + k2) + k1 <= max_p;
            # the child's tail is b, then this tail
            step = next_[b & 1]
            stack.append((
                b * h1 + h2, h1, b * k1 + k2, k1,
                step[s0], t0 + take0 * b, step[s1], t1 + take1 * b,
                coeff_sum + b,
                (b + tail[step[TAKE]], tail[TAKE], b + tail[step[ODD]]),
                not minus_up,
            ))
        if not h1:  # [0]: q/p = [0; a] = 1/a is no knot
            continue
        # the smallest a >= 2 with lo <= p, and the largest with p <= max_p
        first = 2 if 2 * k1 + k2 >= lo else -((k2 - lo) // k1)
        last = (max_p - k2) // k1
        if first > last:
            continue

        # lemma 9, for every a: h2 k1 - h1 k2 = sign, +1 when the up list is
        # the minus list
        lemma9 = 0 if h2 * k1 - h1 * k2 == (1 if minus_up else -1) else _LEMMA9
        # the report's walk jumps from a < last once knots a - 1 and a are
        # quiet (see above); the CSV's never does: a - 1 < stop = first
        # would need a = first, and loud < a - 1 needs a > first
        stop = last - 1 if cells is None else first
        loud = first - 1  # the last listed a, or first - 1
        a = first
        while True:
            for a in range(a, last + 1):
                p = a * k1 + k2
                q = a * h1 + h2
                if p & q & 1:
                    # the lemma-9 lists: head, middle pair (a +/- 1, a -/+ 1), tail;
                    # a + 1 and a - 1 share a parity, so both pass the same states,
                    # and the totals differ by 2 (take0 - take_y): one parity test covers both
                    step = next_[~a & 1]
                    mid = step[s0]
                    take_y = mid != SKIP
                    head = t0 + tail[step[mid]]
                    up = head + take0 * (a + 1) + take_y * (a - 1)
                    down = head + take0 * (a - 1) + take_y * (a + 1)
                    minus, plus = (up, down) if minus_up else (down, up)
                    total = min(minus, plus)
                else:
                    # N(p, q) reads p/q = [a1, ..., a], N(q, p) reads q/p = [0, a1, ..., a];
                    # an abort names this total, and an odd knot's minus total
                    minus = total = t1 + take1 * a if p & 1 == 0 else t0 + take0 * a
                if total & 1:
                    raise IntegralityError(TorusKnot(p, q), HalfInteger(minus))
                c = total >> 1
                g = (p - 1) * (q - 1) >> 1
                n = p * (q - 1)
                gap = g - c
                violated = hits = 0
                # c >= min(bound_ints(g, n)), below which `_bound_flags` flags
                # nothing: every knot has g >= 1, where clark = 2g + 1 >
                # (g + 9) // 6 = thm1, and n >= 3, where my = n // 2 >=
                # (n + 16) // 12 = thm2, so the least bound is thm1's or thm2's;
                # and g + 1 >= thm1 there, so each knot with c > g (gap) passes
                if c >= (g + 9) // 6 or c >= (n + 16) // 12:
                    violated, hits = _bound_flags(c, g, n)

                if coeff_sum + a > p:
                    violated |= _LEMMA2

                violated |= lemma9

                if q == 3 and p & 1 and _q3_fails(p, c, minus, plus):
                    violated |= _Q3

                if cells is not None:
                    cells[((p - 2) * (p - 3) >> 1) + q - base] = c << 8 | violated

                if violated or hits & sharp:
                    listed.append((p, q, c, violated, hits))
                    loud = a
                if gap >= best_gap:
                    part.add(0, (), (p, q, c, violated, hits))
                    best_gap = gap
                if stop > a - 1 > loud and q > 3 and p + q >= 12 + k1 + h1:
                    break
            else:
                break
            if (last * k1 + k2 - 1) * (last * h1 + h2 - 1) >> 1 < best_gap:
                break  # no knot past a can be the witness: gap <= g <= g(last)
            a = max(a + 1, last - 1)
        part.count += last - first + 1
    return part


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cut(items: Iterable, weights: Iterable, count: int) -> list[list]:
    """`items`, in order, cut into at most `count` groups of contiguous items
    with about equal weights: item i goes to group start_i * count // total,
    where start_i is the sum of the weights of the items before it and total
    that of all of them.  Integer weights make the cut exact; float weights,
    as `_runs` passes, may move an item at a group's edge, which changes
    how the work is split but no output."""
    weights = list(weights)
    total = sum(weights)
    starts = accumulate(weights, initial=0)
    groups = groupby(zip(items, starts), lambda item: item[1] * count // total)
    return [[item for item, _ in group] for _, group in groups]


def _runs(prefixes: list, count: int) -> list[list]:
    """`prefixes`, in walk order, cut into at most `count` runs of contiguous
    prefixes with about equal knot counts below them.  Each run is reversed:
    `_walk` pops its stack from the end, so it walks the run in walk order.

    A prefix whose last two convergents have denominators k1 and k2 covers
    q/p on an interval of length 1/(k1 (k1 + k2)), and the knots below it
    grow with that length.  A prefix is never split, and [0; 1, 1] and
    [0; 2] each hold about a sixth of the knots.  The time a run takes
    follows its knots only roughly, since the report's walk jumps over more
    of them below a small k1: `_shared` evens that out, as each process
    claims the next run once it is free."""
    weights = [1 / (k1 * (k1 + k2)) for _, _, k1, k2, *_ in prefixes]
    return [run[::-1] for run in _cut(prefixes, weights, count)]


def _bands(max_p: int) -> list[tuple[int, int]]:
    """[3, max_p] cut into bands (lo, hi) of rows p, in order, with about
    equal slot counts (see `_cut`), as few as hold at most `_BAND_SLOTS`
    slots each, give or take one row."""
    rows = range(3, max_p + 1)
    count = -(-_row(max_p + 1) // _BAND_SLOTS)
    return [(band[0], band[-1]) for band in _cut(rows, (p - 2 for p in rows), count)]


def _band(lo: int, hi: int) -> tuple[int, _Partial, array]:
    """The band lo <= p <= hi: its first row lo, the fold of its knots, and the
    array of their cells c << 8 | violated, c the crosscap number and
    violated the 8 check bits, one slot per (p, q) with 2 <= q < p, by p
    then q; the slot of a non-coprime (p, q) holds -1 (module-level, so that
    it pickles).  A cell cannot overflow: c is at most the coefficient sum
    of p/q, which is at most p <= MAX_SWEEP_P, so c << 8 | violated < 2^31."""
    cells = array("i", [-1]) * (_row(hi + 1) - _row(lo))
    return lo, _walk(hi, [_ROOT], None, lo, cells), cells


def _write_rows(write: Callable[[str], object], lo: int, cells: array) -> None:
    """Write the `_CSV_HEADER` rows of a band from row lo, one text per p with
    its knots in q order, from its cells (see `_band`): the fields of a row's
    knots go into one flat list, and one `%` renders them all."""
    tail, parity, flag_texts = _CSV_TAIL, _PARITY, _FLAGS
    width = len(RECORD_FIELDS)  # a knot's fields after p: q to gap, then its flags
    start, p = 0, lo
    while start < len(cells):
        fields = []
        for q, cell in enumerate(cells[start : start + p - 2], 2):
            if cell >= 0:
                c = cell >> 8
                g = (p - 1) * (q - 1) >> 1
                n = p * (q - 1)
                fields += (q, parity[p & q & 1], g, n, c)
                fields += bound_ints(g, n)
                fields += (g - c, flag_texts[cell & 255])
        write((f"{p}," + tail) * (len(fields) // width) % tuple(fields))
        start += p - 2
        p += 1


@contextmanager
def _sweep_failed() -> Iterator[None]:
    """Raise an OSError from the block as BrokenExecutor: the sweep did not
    complete.  That covers a task run in-process or on another process,
    and building a pool or a walker's claim counter, submitting to a pool
    or starting a walker (ENOSYS where POSIX semaphores are missing, EAGAIN
    at the process limit, ENOMEM anywhere)."""
    try:
        yield
    except OSError as exc:
        raise futures.BrokenExecutor(f"the sweep failed: {exc}") from exc


def _mapped(size: int, fn: Callable, tasks: Iterator[tuple]) -> Iterator:
    """`fn` over the argument tuples `tasks`, in order: on a pool of `size`
    processes, or in-process when that is at most 1.  The pool holds at most
    `size` + 1 tasks whose results the caller has not taken, one per process
    and one queued: once the oldest result is ready, it submits the next task,
    then yields that result.  So finished results cannot pile up here, and a
    process that finishes before the oldest task starts the queued one in
    place of waiting for the caller.

    An OSError is raised as BrokenExecutor (see `_sweep_failed`).  The
    caller's own writes run while this generator is suspended, so their
    errors never pass here."""
    with _sweep_failed():
        if size <= 1:
            yield from starmap(fn, tasks)
            return
        with futures.ProcessPoolExecutor(size) as pool:
            pending = [pool.submit(fn, *args) for args in islice(tasks, size + 1)]
            try:
                while pending:
                    result = pending.pop(0).result()
                    pending += [pool.submit(fn, *args) for args in islice(tasks, 1)]
                    yield result
            finally:
                for future in pending:
                    future.cancel()


def _claimed(fn: Callable, tasks: list[tuple], claims) -> list[tuple]:
    """`fn` over the `tasks` this process claims, in claim order: each claim
    takes the lowest task index no process has claimed from the shared
    counter `claims`, so each task runs once, on whichever process is free.
    A task gives (index, result, None) and one that raises (index, None,
    exception); that one ends the claims of every process, as every task
    before it has been claimed and no task after it is needed."""
    done = []
    while True:
        with claims.get_lock():
            i = claims.value
            claims.value = i + 1
        if i >= len(tasks):
            return done
        try:
            done.append((i, fn(*tasks[i]), None))
        except Exception as exc:  # raised in task order, by `_shared`
            claims.value = len(tasks)
            done.append((i, None, exc))
            return done


def _walker(fn: Callable, tasks: list[tuple], claims, results) -> None:
    """A walker process: what `_claimed` gives it, sent through the pipe end
    `results` in one message.  Ctrl-C is left to the process that started
    it, which ends its walkers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    results.send(_claimed(fn, tasks, claims))


def _shared(size: int, fn: Callable, tasks: list[tuple]) -> list:
    """`fn` over the argument tuples `tasks`, its results in task order, on
    `size` processes: this one and `size` - 1 walker processes, which claim
    the tasks from one shared counter (see `_claimed`), or this one alone
    when `size` is at most 1.  A walker sends all its results at once, when
    no task is left, so no thread of this process has to feed it.  A task's
    exception is raised once every process has sent its results: the
    earliest task's, since every task before it has run.  On any exit, an
    abort's or Ctrl-C's too, the claims end and the walkers are stopped and
    joined.  A walker that dies before it sends, and an OSError (see
    `_sweep_failed`), are raised as BrokenExecutor.

    Walkers start by the default start method, as the CSV's pool does: a
    spawned walker imports the package anew, which costs more than a whole
    sweep at max_p 300."""
    with _sweep_failed():
        if size <= 1:
            return [fn(*args) for args in tasks]
        import multiprocessing  # here, so that a sweep on one process never loads it

        claims = multiprocessing.Value("i", 0)
        walkers, ends = [], []
        try:
            for _ in range(size - 1):
                end, results = multiprocessing.Pipe(duplex=False)
                walker = multiprocessing.Process(
                    target=_walker, args=(fn, tasks, claims, results), daemon=True
                )
                walker.start()
                walkers.append(walker)
                # this process's copy of the walker's end: without it `end`
                # reads EOF once the walker dies, and no later walker holds it
                results.close()
                ends.append(end)
            done = _claimed(fn, tasks, claims)
            for end in ends:
                done += end.recv()
        except EOFError:
            raise futures.BrokenExecutor("the sweep failed: a walker process died") from None
        finally:
            claims.value = len(tasks)
            for walker in walkers:
                walker.terminate()  # one that has sent its results has no more to do
                walker.join()
        done.sort(key=lambda task: task[0])
        for _, _, exc in done:
            if exc is not None:
                raise exc
        return [result for _, result, _ in done]


def run_verification(
    config: SweepConfig, write: Callable[[str], object] | None = None
) -> VerificationReport:
    """Run the configured sweep and aggregate a deterministic report.

    The sweep runs on `config.workers` processes, this one included, and at
    most one per CPU this process may run on (see `_cpus`).  Without
    `write`, this process walks the top prefixes (see :func:`_walk`), and the
    walks from the `_runs` of the prefixes below them, `_RUNS_PER_WORKER` per
    process, are its tasks: they run through `_shared`, on at most one
    process per task, so this process walks runs beside its walkers.  With
    `write`, each of the `_bands` is one `_band` task, and this process
    writes the CSV through `write`: the header, then each band's rows.  The
    band tasks run through `_mapped`, on a pool of at most one process per
    worker, band and CPU, beside this process, which renders the rows; so
    more workers speed a CSV only from two bands on.  The folds come in task
    order, so the result, and the knot an abort names (the first odd total in
    walk order, of the first task that has one), do not depend on worker
    count or scheduling.  The max-gap witness is the smallest (p, q) among the
    knots of the largest gap.
    """
    size = min(config.workers, _cpus())
    if write is None:
        prefixes = []
        merged = _walk(config.max_p, [_ROOT], prefixes)
        runs = _runs(prefixes, _RUNS_PER_WORKER * size)
        for part in _shared(min(size, len(runs)), _walk, [(config.max_p, run) for run in runs]):
            merged.add(part.count, part.listed, part.best)
        return merged.report(config)
    write(_csv_text([_CSV_HEADER]))
    bands = _bands(config.max_p)
    merged = _Partial()
    for lo, part, cells in _mapped(min(size, len(bands)), _band, iter(bands)):
        merged.add(part.count, part.listed, part.best)
        _write_rows(write, lo, cells)
        del part, cells  # one band's array at a time, unless a pool runs ahead
    return merged.report(config)


def report_as_dict(report: VerificationReport) -> dict:
    """JSON-ready mapping, in a fixed field order."""
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
