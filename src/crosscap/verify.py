"""Exhaustive range verification of the crosscap bounds and expansion identities.

The sweep walks every coprime pair 2 <= q < p <= max_p, runs every check in
CHECK_NAMES on it, and aggregates a deterministic report.  A bound violation
is report data, never an exception: the whole point is to surface one if it
exists.  A non-integral crosscap candidate, by contrast, aborts the sweep,
because it means the computation itself is wrong.  The report, the CSV and
the knot an abort names are the same for every worker count.

`_walk` settles the knots of both outputs, `run_verification` drives it, and
the row kernel `_check`, typed by `check_knot`, is the walk's oracle.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from array import array
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate, groupby, starmap
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
    `workers` caps the processes it runs on, at most one per CPU: a report
    runs on `workers` processes, this one and `workers` - 1 walkers, and a
    CSV of two bands or more on up to `workers` band walkers beside this
    one, which renders the rows (see :func:`run_verification`)."""

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
    # an odd knot's crosscap number is read from the lemma-9 totals in one
    # pass; the lemma9 and q3 checks read the explicit lists
    c = crosscap_from(p, q, coeffs)
    branches = lemma9_lists(coeffs)
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
    p > q > 1 regardless of knot parity and evaluates the explicit
    `lemma9_lists`.  An odd knot's crosscap number does not come from those
    lists: `crosscap_from` reads it from `lemma9_totals`, one run of the
    skip rule over the same Euclid expansion that builds neither list.  The
    q3 check (only when q = 3 and p is odd, the closed form's domain)
    compares the closed form against that crosscap number and confirms
    that the skip total of the congruence-selected explicit lemma-9 list is
    twice it.
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
_ROOT = (0, 1, 1, 0, SKIP, 0, TAKE, 0, 0, (0, 0, 0), 1)


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

    Per knot the walk keeps plain ints.  An odd knot's lemma-9 totals are
    base +/- d, d = take0 - take_y in {-1, 0, 1}, and its total is the least,
    base - d d, which the knot loop and the fill of the cells compute in one
    form, with d d = take0 ^ take_y.  Its minus total, base + sign d, and its
    plus total, base - sign d, are formed only where they are read: in an
    abort, which names the minus total, and in the q3 check.  The walk runs
    the bound and gap checks only where g <= 6c - 4 or n <= 12c - 5: where c
    meets thm1 or thm2, the least of the four bounds, as every c > g does.
    It builds the checked knot (p, q, c, violated, hits) only to list it or
    to offer it as the witness: each knot whose gap is at least the largest
    so far goes to `_Partial.add`, whose `_rank` keeps the smallest (p, q)
    of a tie, so the witness does not depend on walk order.

    The lemma-9 lists are the head [0, a1, ..., a(n-1)], a middle pair, and
    the reversed tail a(n-1), ..., a1, whose continuant is (k1, k2), since
    reversal does not change a continuant.  So the up list, middle pair
    (a + 1, a - 1), has the continuant (pq + h1 k2 - h2 k1, p^2) for every a,
    and the down list (pq - h1 k2 + h2 k1, p^2).  The minus list needs
    (pq - 1, p^2) and the plus list (pq + 1, p^2), so with the prefix's sign
    +1 where the up list is the minus list and -1 where it is the plus list,
    both are right for every a exactly when h2 k1 - h1 k2 = sign, and the
    walk decides that once per prefix.  The row kernel `_check` is the
    independent oracle: it runs `continuant` on the explicit `lemma9_lists`.

    The walk jumps over each prefix's quiet run.  At a knot a of a
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

    Given `cells` (see `_band`), the walk stores each knot's c << 8 | violated
    in its slot once it has checked the knot, and at a jump c << 8, no flag
    being set, in the slot of each knot it jumps over, a + 1 to last - 2, or
    to last if it leaves the prefix: c is half the total T + S a, for an odd
    knot base - d d.  So each slot is written once.  Given `tasks`, it visits only
    the top prefixes [0] and [0; 1], whose last convergent has denominator 1,
    and appends each prefix below them to `tasks` in walk order instead.
    """
    part = _Partial()
    listed = part.listed
    best_gap = float("-inf")
    next_ = NEXT
    sharp = _SHARPENED
    offset = _row(lo) + 2  # cells[_row(p) + q - offset] is the slot of (p, q)
    # a prefix is (h1, h2, k1, k2): the continuant matrix of [0, a1, ..., a(n-1)],
    # whose columns are its last two convergents; (s0, t0) and (s1, t1): the skip
    # states and totals of [0, a1, ...] (the leading 0 makes the rule skip a1) and
    # of [a1, ...]; its coefficient sum; of the reversed tail a(n-1), ..., a1, the
    # tail of both lemma-9 lists, the skip adds from each entry state; sign, the
    # lemma-9 sign: +1 where n is odd, so the minus list is the up list, with
    # the middle pair (a + 1, a - 1), and -1 where n is even; a child has the
    # parent's -sign.  A stack, not recursion, so that a walk can start from
    # any run of prefixes.
    while stack:  # depth first, children in increasing order of their coefficient
        prefix = stack.pop()
        h1, h2, k1, k2, s0, t0, s1, t1, coeff_sum, tail, sign = prefix
        if tasks is not None and k1 > 1:  # below [0] and [0; 1]: a task to claim
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
                -sign,
            ))
        if not h1:  # [0]: q/p = [0; a] = 1/a is no knot
            continue
        # the smallest a >= 2 with lo <= p, and the largest with p <= max_p
        first = 2 if 2 * k1 + k2 >= lo else -((k2 - lo) // k1)
        last = (max_p - k2) // k1
        if first > last:
            continue

        # lemma 9, for every a: h2 k1 - h1 k2 = sign
        lemma9 = 0 if h2 * k1 - h1 * k2 == sign else _LEMMA9
        loud = first - 1  # the last listed a, or first - 1
        a = first
        while True:
            for a in range(a, last + 1):
                p = a * k1 + k2
                q = a * h1 + h2
                if p & q & 1:
                    # the lemma-9 lists: head, middle pair (a +/- 1, a -/+ 1), tail;
                    # a + 1 and a - 1 share a parity, so both pass the same states,
                    # and up = base + d, down = base - d: the least is base - d d,
                    # with base = t0 + tail[step[mid]] + (take0 + take_y) a and
                    # d d = take0 ^ take_y
                    step = next_[~a & 1]
                    take_y = (mid := step[s0]) != SKIP
                    total = t0 + tail[step[mid]] + (take0 + take_y) * a - (take0 ^ take_y)
                else:
                    # N(p, q) reads p/q = [a1, ..., a], N(q, p) reads q/p = [0, a1, ..., a]
                    total = t1 + take1 * a if p & 1 == 0 else t0 + take0 * a
                if total & 1:
                    if p & q & 1:  # an abort names an odd knot's minus total
                        total += (take0 ^ take_y) + sign * (take0 - take_y)
                    raise IntegralityError(TorusKnot(p, q), HalfInteger(total))
                c = total >> 1
                n = p * (q - 1)
                g = (n - q + 1) >> 1  # (p - 1)(q - 1) = n - (q - 1)
                gap = g - c
                violated, hits = lemma9, 0
                # c >= min(bound_ints(g, n)), below which `_bound_flags` flags
                # nothing: g >= 1 and n >= 3 on every knot, so clark = 2g + 1 >
                # thm1 = (g + 9) // 6 and my = n // 2 >= thm2 = (n + 16) // 12;
                # and g + 1 >= thm1, so each knot with c > g (gap) passes.  In
                # ints, thm1 <= c is g + 9 <= 6c + 5, thm2 <= c n + 16 <= 12c + 11
                if g <= 6 * c - 4 or n <= 12 * c - 5:
                    flags, hits = _bound_flags(c, g, n)
                    violated |= flags

                if coeff_sum + a > p:
                    violated |= _LEMMA2

                if q == 3 and p & 1:  # an odd knot: its minus and plus totals
                    base, d = total + (take0 ^ take_y), take0 - take_y
                    if _q3_fails(p, c, base + sign * d, base - sign * d):
                        violated |= _Q3

                if cells is not None:
                    cells[((p - 2) * (p - 3) >> 1) + q - offset] = c << 8 | violated

                if violated or hits & sharp:
                    listed.append((p, q, c, violated, hits))
                    loud = a
                if gap >= best_gap:
                    part.add(0, (), (p, q, c, violated, hits))
                    best_gap = gap
                if last > a > loud + 1 and q > 3 and p + q >= 12 + k1 + h1:
                    break  # knots a - 1 and a are quiet: jump (see above)
            else:
                break
            # no knot past a can be the witness: gap <= g <= g(last)
            leave = (last * k1 + k2 - 1) * (last * h1 + h2 - 1) >> 1 < best_gap
            if cells is not None:  # fill the cells of the knots passed over
                for a in range(a + 1, last + 1 if leave else last - 1):
                    p = a * k1 + k2
                    q = a * h1 + h2
                    if p & q & 1:  # base - d d, and d d = take0 ^ take_y
                        step = next_[~a & 1]
                        take_y = (mid := step[s0]) != SKIP
                        total = t0 + tail[step[mid]] + (take0 + take_y) * a - (take0 ^ take_y)
                    else:
                        total = t1 + take1 * a if p & 1 == 0 else t0 + take0 * a
                    cells[((p - 2) * (p - 3) >> 1) + q - offset] = total << 7  # c << 8, no flag
            if leave:
                break
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


def _band(lo: int, hi: int) -> tuple[int, _Partial, pickle.PickleBuffer]:
    """The band lo <= p <= hi: its first row lo, the fold of its knots, and the
    C ints of their cells c << 8 | violated, c the crosscap number and
    violated the 8 check bits, one slot per (p, q) with 2 <= q < p, by p
    then q, which the walk stores once, for a knot it checks or one it
    jumps over (see `_walk`); the slot of a non-coprime (p, q) holds -1
    (module-level, so that it pickles; a walker sends the cells as raw
    bytes, see `_send`).  A cell cannot overflow: c is at most the
    coefficient sum of p/q, which is at most p <= MAX_SWEEP_P, so c << 8 |
    violated < 2^31."""
    cells = array("i", [-1]) * (_row(hi + 1) - _row(lo))
    return lo, _walk(hi, [_ROOT], None, lo, cells), pickle.PickleBuffer(cells)


def _write_rows(write: Callable[[str], object], lo: int, cells) -> None:
    """Write the `_CSV_HEADER` rows of a band from row lo, one text per p with
    its knots in q order, from its cells (see `_band`), any buffer of their C
    ints: the fields of a row's knots go into one flat list, and one `%`
    renders them all."""
    cells = memoryview(cells).cast("B").cast("i")
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
                # the bounds as `bound_ints` gives them: clark, my, thm1, thm2
                fields += (
                    q, parity[p & q & 1], g, n, c,
                    2 * g + 1, n >> 1, (g + 9) // 6, (n + 16) // 12,
                    g - c, flag_texts[cell & 255],
                )
        write((f"{p}," + tail) * (len(fields) // width) % tuple(fields))
        start += p - 2
        p += 1


def _run_next(fn: Callable, tasks: list, claims, limit: int, owners, me: int) -> tuple | None:
    """Claim the lowest task index i that no process has claimed, if it is
    below `limit`, for process `me`, and run it: (i, (result, None)), or (i,
    (None, exception)) for a task that raises, which ends every process's
    claims, as every task before it has been claimed and no task after it is
    needed; None when nothing is claimed.  The shared counter `claims` is read
    and bumped, and the claim's owner written to `owners`, under the
    counter's lock, so each task runs once."""
    with claims.get_lock():
        if (i := claims.value) >= limit:
            return None
        claims.value, owners[i] = i + 1, me
    try:
        return i, (fn(*tasks[i]), None)
    except Exception as exc:  # raised in its task's turn, by `_shared`
        with claims.get_lock():
            claims.value = len(tasks)
        return i, (None, exc)


def _walker(fn: Callable, tasks: list, claims, owners, me: int, window, eager, results) -> None:
    """Walker process `me`: it takes a place in `window`, then claims and runs
    a task (see `_run_next`), until no task is left, and sends its results
    through the pipe end `results` (see `_send`): each at once if `eager`,
    else all of them at the end.  Ctrl-C is left to the process that started
    it, which ends its walkers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    done = []
    while window.acquire() and (task := _run_next(fn, tasks, claims, len(tasks), owners, me)):
        done.append(task)
        if eager:
            _send(results, done)
            done = []
    _send(results, done)


def _send(results, message) -> None:
    """Send `message` through the pipe end `results`, each of its
    `pickle.PickleBuffer`s after it as raw bytes, so that no copy is made of
    them here, and one on receipt (see `_shared`)."""
    buffers = []
    results.send_bytes(pickle.dumps(message, 5, buffer_callback=buffers.append))
    for buffer in buffers:
        results.send_bytes(buffer)


def _shared(walkers: int, fn: Callable, tasks: list[tuple], ahead: int) -> Iterator:
    """`fn` over the argument tuples `tasks`, its results yielded in task
    order: on `walkers` walker processes and this one, or on this one alone
    when `walkers` is below 1.  The processes claim the tasks from one
    shared counter (see `_run_next`): this one up to `ahead` tasks past the
    last result taken, and the walkers up to `walkers` + 1 more, a place
    each and one queued, so a walker that finishes before the oldest task
    claims the next one in place of waiting.  The walkers start one after
    another, and none starts once those before it have claimed every task.
    The report passes every run, so this process walks runs until none is
    left; the CSV passes 0, so this process renders while at most
    `walkers` + 1 bands wait for it.  A walker sends each result at once
    when this process takes results while tasks are left, else all of them
    when none is left; this process reads a result only in its turn, from
    the walker that claimed it, once one has.

    A task's exception is raised in that task's turn: the earliest task's.
    On any exit, an abort's or Ctrl-C's too, the walkers are terminated and
    joined, which ends their claims.  A walker that dies before it sends a
    result this process waits for, and an OSError (a task's, or building
    the claim counter or starting a walker: ENOSYS where POSIX semaphores
    are missing, EAGAIN at the process limit, ENOMEM anywhere), are raised
    as BrokenExecutor.  This process's own writes run while the generator
    is suspended, so their errors never pass here.

    Walkers start by the default start method: a spawned walker imports the
    package anew, which costs more than a whole sweep at max_p 300."""
    try:
        if walkers < 1:
            yield from starmap(fn, tasks)
            return
        import multiprocessing  # here, so that a sweep on one process never loads it

        claims = multiprocessing.Value("i", 0)
        owners = multiprocessing.RawArray("i", len(tasks))
        window = multiprocessing.Semaphore(ahead + walkers + 1)
        procs, ends = [], [None]  # walkers 1 to `walkers`; an owner of 0 is this process or none
        try:
            for me in range(1, walkers + 1):
                with claims.get_lock():
                    if claims.value >= len(tasks):  # the walkers started have claimed them all
                        break
                end, results = multiprocessing.Pipe(duplex=False)
                args = (fn, tasks, claims, owners, me, window, ahead < len(tasks), results)
                (proc := multiprocessing.Process(target=_walker, args=args, daemon=True)).start()
                procs.append(proc)
                # this process's copy of the walker's end: without it `end`
                # reads EOF once the walker dies, and no later walker holds it
                results.close()
                ends.append(end)
            done = {}
            for taken in range(len(tasks)):
                while taken not in done:
                    limit = min(len(tasks), taken + ahead)
                    if task := _run_next(fn, tasks, claims, limit, owners, 0):
                        done.update([task])
                    elif end := ends[owners[taken]]:
                        done.update(pickle.loads(end.recv_bytes(), buffers=iter(end.recv_bytes, None)))
                    else:  # not claimed yet, as a CSV starts: a walker will claim it
                        time.sleep(0.001)
                result, exc = done.pop(taken)
                window.release()
                if exc is not None:
                    raise exc
                yield result
        except EOFError:
            # here, so that a sweep that does not fail never loads concurrent.futures
            from concurrent.futures import BrokenExecutor

            raise BrokenExecutor("the sweep failed: a walker process died") from None
        finally:
            for proc in procs:
                proc.terminate()  # one that has sent its results has no more to do
                proc.join()
    except OSError as exc:
        from concurrent.futures import BrokenExecutor

        raise BrokenExecutor(f"the sweep failed: {exc}") from exc


def run_verification(
    config: SweepConfig, write: Callable[[str], object] | None = None
) -> VerificationReport:
    """Run the configured sweep and aggregate a deterministic report.

    The sweep runs on `config.workers` processes, this one included, and at
    most one per CPU this process may run on (see `_cpus`); call that the
    size.  Without `write`, this process walks the top prefixes (see
    :func:`_walk`), and the walks from the `_runs` of the prefixes below
    them, `_RUNS_PER_WORKER` per process, are its tasks: they run through
    `_shared` on this process and size - 1 walker processes, at most one
    process per run.  With `write`, each of the `_bands` is one `_band` task,
    and this process writes the CSV through `write`: the header, then each
    band's rows.  The band tasks run through `_shared` on up to size walker
    processes, one per band at most, beside this process, which renders the
    rows in band order; a CSV of one band, or of size 1, runs in this
    process alone, so more workers speed a CSV only from two bands on.  The
    folds come in task order, so the result, and the knot an abort names
    (the first odd total in walk order, of the first task that has one), do
    not depend on worker count or scheduling.  The max-gap witness is the smallest (p, q)
    among the knots of the largest gap.
    """
    size = min(config.workers, _cpus())
    if write is None:
        prefixes = []
        merged = _walk(config.max_p, [_ROOT], prefixes)
        runs = [(config.max_p, run) for run in _runs(prefixes, _RUNS_PER_WORKER * size)]
        for part in _shared(min(size, len(runs)) - 1, _walk, runs, len(runs)):
            merged.add(part.count, part.listed, part.best)
        return merged.report(config)
    write(_csv_text([_CSV_HEADER]))
    bands = _bands(config.max_p)
    walkers = min(size, len(bands))
    merged = _Partial()
    for lo, part, cells in _shared(walkers if walkers > 1 else 0, _band, bands, 0):
        merged.add(part.count, part.listed, part.best)
        _write_rows(write, lo, cells)
        del part, cells  # one band's cells at a time
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
