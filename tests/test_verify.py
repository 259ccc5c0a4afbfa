"""Tests for the sweep harness: enumeration, checks, aggregation, determinism."""

from __future__ import annotations

import csv
import errno
import functools
import io
import json
import multiprocessing
import os
import sys
import time
from array import array
from collections import Counter
from concurrent import futures
from dataclasses import replace
from fractions import Fraction
from hashlib import sha256
from itertools import groupby, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import crosscap.continued_fractions as cf_module
import crosscap.torus_knots as torus_module
import crosscap.verify as verify_module
from crosscap import (
    CHECK_NAMES,
    MAX_SWEEP_P,
    BoundCheckRecord,
    Bounds,
    HalfInteger,
    IntegralityError,
    InvariantRecord,
    SweepCapError,
    SweepConfig,
    TorusKnot,
    VerificationReport,
    bounds_for,
    bredon_wood_N,
    check_knot,
    crosscap,
    crossing_number,
    enumerate_coprime,
    genus,
    invariants,
    q3_closed_form,
    q3_congruence_selector,
    report_as_dict,
    run_verification,
    serialize_report,
)
from crosscap.cli import main
from crosscap.continued_fractions import ODD, SKIP, TAKE, continuant, euclid, lemma9_lists
from crosscap.torus_knots import _csv_text, bound_ints
from crosscap.verify import _Partial
from test_cli import (
    count_checked,
    fail_in_walk_tasks,
    force_bands,
    pool_that_cannot_start,
    raise_oserror,
    several_bands,
    two_pass_csv,
)
from test_continued_fractions import table_total


#: verify's lookup of the CPUs this process may run on, which the
#: `pool_sizes` fixture stands in for.
CPUS = verify_module._cpus

#: A patch made in this process reaches a walker process only if it is forked.
FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patch in this process reaches only forked walkers",
)


def phi_sieve(n: int) -> list[int]:
    """Independent Euler-totient table for the pair-count oracle."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def fraction_expansion(x: Fraction) -> list[int]:
    """Simple continued fraction of a non-negative Fraction, by floor and reciprocal."""
    coeffs = []
    while True:
        a = x.numerator // x.denominator
        coeffs.append(a)
        x -= a
        if x == 0:
            return coeffs
        x = 1 / x


def fraction_value(coeffs: list[int]) -> Fraction:
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a + 1 / value
    return value


def stated_lemma9(p: int, q: int) -> tuple[list[int], list[int]]:
    """Lemma 9 as the paper states it: from q/p = [0, a1, ..., an], replace an
    by (an + 1, an - 1) or (an - 1, an + 1) and append an-1, ..., a1.  The
    minus sign takes (an + 1, an - 1) when n is odd.  Not canonicalized:
    a trailing 1 does not change the value."""
    a = fraction_expansion(Fraction(q, p))
    n = len(a) - 1
    up, down = [a[n] + 1, a[n] - 1], [a[n] - 1, a[n] + 1]
    minus_mid, plus_mid = (up, down) if n % 2 else (down, up)
    tail = a[n - 1 : 0 : -1]
    return a[:n] + minus_mid + tail, a[:n] + plus_mid + tail


def reference_check_knot(
    k: TorusKnot, checks=CHECK_NAMES, closed_form=q3_closed_form, bounds=bounds_for
) -> BoundCheckRecord:
    """check_knot by Teragaito's rule applied directly: N on (p*q -/+ 1)/p^2 for
    an odd knot and N(even, odd) for an even one.  The lemmas are evaluated
    with fractions.Fraction; the program's lemma-9 construction is not used.
    The q3 check compares against `closed_form`, the bound checks against
    `bounds(genus, crossing)`."""
    p, q = k.p, k.q
    if p * q % 2:
        candidates = [bredon_wood_N(p * q - 1, p * p), bredon_wood_N(p * q + 1, p * p)]
    else:
        candidates = [bredon_wood_N(p, q) if p % 2 == 0 else bredon_wood_N(q, p)]
    assert all(n.is_integral for n in candidates)
    c = min(candidates).as_integer()
    g, cr = genus(k), crossing_number(k)
    rec = InvariantRecord(k, k.parity, g, cr, c, bounds(g, cr), g - c)
    b = rec.bounds
    violated, hits = set(), set()
    for name, bound in (("thm1", b.thm1), ("thm2", b.thm2), ("clark", b.clark),
                        ("my", b.murakami_yasuhara)):
        if name in checks and c > bound:
            violated.add(name)
        elif name in checks and c == bound:
            hits.add(name)
    if "gap" in checks and g < c:
        violated.add("gap")
    if "lemma2" in checks and sum(fraction_expansion(Fraction(p, q))) > p:
        violated.add("lemma2")
    if "lemma9" in checks:
        minus, plus = stated_lemma9(p, q)
        if (fraction_value(minus), fraction_value(plus)) != (
            Fraction(p * q - 1, p * p), Fraction(p * q + 1, p * p)
        ):
            violated.add("lemma9")
    if "q3" in checks and q == 3 and p % 2:
        branch = bredon_wood_N(3 * p + q3_congruence_selector(p), p * p)
        if closed_form(p)[1] != c or branch != HalfInteger(2 * c):
            violated.add("q3")
    return BoundCheckRecord(rec, frozenset(violated), frozenset(hits))


def fold(records) -> _Partial:
    """The aggregate of `records`, given in (p, q) order, folded one record at a
    time as the checked knot (p, q, c, violated, hits): a record is listed
    when it violated a check or met thm1 or thm2."""
    part = _Partial()
    for c in records:
        rec, bits = c.record, verify_module._mask
        knot = (rec.knot.p, rec.knot.q, rec.crosscap, bits(c.violated), bits(c.equality_hits))
        part.add(1, (knot,) if c.violated or {"thm1", "thm2"} & c.equality_hits else (), knot)
    return part


@functools.cache
def kernel_knots(max_p: int) -> tuple:
    """The row kernel's checked knots (p, q, c, violated, hits) to max_p, in
    (p, q) order."""
    return tuple((k.p, k.q, *verify_module._check(k.p, k.q)) for k in enumerate_coprime(max_p))


def kernel_report(config: SweepConfig) -> VerificationReport:
    """The report of the row kernel `_check` folded over every pair in (p, q)
    order: the oracle of the walk, which feeds both sweep outputs."""
    part = _Partial()
    for k in enumerate_coprime(config.max_p):
        c, violated, hits = verify_module._check(k.p, k.q)
        knot = (k.p, k.q, c, violated, hits)
        part.add(1, (knot,) if violated or hits & verify_module._SHARPENED else (), knot)
    return part.report(config)


#: The sharpness hits off the family (p, 3), 3 not dividing p.
SPORADIC_HITS = ((3, 2), (5, 2), (7, 2), (5, 4), (6, 5), (7, 5))


def predicted_report(max_p: int) -> VerificationReport:
    """The report of a sweep to max_p in closed form, from four facts and no
    code of the walk's loop: the knot count is the sum of phi(p) - 1 over
    3 <= p <= max_p; no knot violates a check or fails a lemma; the
    sharpness hits are every (p, 3), 3 not dividing p, and those of
    SPORADIC_HITS with p <= max_p; and the max-gap witness is (max_p,
    max_p - 1), its record from the row kernel.  A sweep's report that
    differs names a knot that breaks one of the facts."""
    phi = phi_sieve(max_p)
    family = ((p, 3) for p in range(4, max_p + 1) if p % 3)
    hits = sorted([*family, *((p, q) for p, q in SPORADIC_HITS if p <= max_p)])
    return VerificationReport(
        max_p=max_p,
        checks=tuple(sorted(CHECK_NAMES)),
        knots_checked=sum(phi[p] - 1 for p in range(3, max_p + 1)),
        violations=(),
        sharpness_hits=tuple(TorusKnot(p, q) for p, q in hits),
        max_gap_witness=check_knot(TorusKnot(max_p, max_p - 1)).record,
        lemma_failures=(),
    )


def band_report(config: SweepConfig, sink: list | None = None) -> VerificationReport:
    """The report of the CSV's band tasks, which run only with a CSV sink; the
    CSV texts are appended to `sink` when it is given."""
    if sink is None:
        sink = []
    return run_verification(config, sink.append)


def sweeps(config: SweepConfig, monkeypatch) -> list[VerificationReport]:
    """The reports of the walk at one worker, and at more of the walk's tasks
    and of the CSV's band tasks (three bands), each on a pool, and of the row
    kernel folded over every pair."""
    if config.workers == 1:
        return [run_verification(config)]
    force_bands(monkeypatch, config.max_p, 3)
    return [run_verification(config), band_report(config), kernel_report(config)]


def doctor_skip_rule(monkeypatch):
    """Doctor `verify.NEXT`, the skip rule's table that the walk steps, to stay
    in ODD after an odd coefficient added to an odd total, where the rule
    skips the next one.  Then every knot [0; 1, 1, a], a even, and others
    below [0; 1, 1] and elsewhere, totals odd: to max_p 60 the first in walk
    order is (5, 3), 3/5 = [0; 1, 1, 2], then (9, 5) = [0; 1, 1, 4], both in
    the first walk task at any worker count and in the first band, and later
    tasks and bands have one too.  The top prefixes [0] and [0; 1] total
    even."""
    monkeypatch.setattr(verify_module, "NEXT", ((SKIP, TAKE, ODD), (ODD, TAKE, ODD)))


def patch_kernel(monkeypatch, name, replacement):
    """Replace the kernel function `name` in every crosscap module that binds it."""
    real = getattr(cf_module, name)
    for module in (cf_module, torus_module, verify_module):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, replacement)


class TestEnumerate:
    def test_hand_enumerations(self):
        assert [(k.p, k.q) for k in enumerate_coprime(4)] == [(3, 2), (4, 3)]
        assert [(k.p, k.q) for k in enumerate_coprime(5)] == [
            (3, 2), (4, 3), (5, 2), (5, 3), (5, 4),
        ]

    def test_ascending_and_unique(self):
        pairs = [(k.p, k.q) for k in enumerate_coprime(40)]
        assert pairs == sorted(set(pairs))

    def test_count_matches_totient_oracle(self):
        phi = phi_sieve(300)
        expected = sum(phi[p] - 1 for p in range(3, 301))
        assert sum(1 for _ in enumerate_coprime(300)) == expected == 27098

    def test_range_errors(self):
        # at the call, not at the first knot
        with pytest.raises(ValueError):
            enumerate_coprime(2)
        with pytest.raises(SweepCapError):
            enumerate_coprime(MAX_SWEEP_P + 1)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(max_p=2)
        with pytest.raises(ValueError):
            SweepConfig(max_p=10, workers=0)
        with pytest.raises(SweepCapError):
            SweepConfig(max_p=MAX_SWEEP_P + 1)

    def test_defaults(self):
        config = SweepConfig(max_p=10)
        assert config.workers == 1


class TestCheckKnot:
    def test_sharp_family_knot_hits_both_bounds(self):
        checked = check_knot(TorusKnot(10, 3))
        assert checked.violated == frozenset()
        assert {"thm1", "thm2"} <= checked.equality_hits

    def test_trefoil_clean(self):
        checked = check_knot(TorusKnot(3, 2))
        assert checked.violated == frozenset()

    def test_large_odd_knot_no_equality(self):
        checked = check_knot(TorusKnot(17, 9))
        assert checked.violated == frozenset()
        assert not {"thm1", "thm2"} & checked.equality_hits

    def test_check_subset_only_evaluates_enabled(self):
        checked = check_knot(TorusKnot(7, 5), checks={"thm1"})
        assert checked.violated == frozenset()
        assert checked.equality_hits <= {"thm1"}

    def test_no_violations_up_to_120(self):
        for knot in enumerate_coprime(120):
            assert check_knot(knot).violated == frozenset()

    def test_unknown_check_name_rejected(self):
        with pytest.raises(ValueError, match=r"unknown checks: \['lemma_9'\]"):
            check_knot(TorusKnot(7, 5), {"lemma_9"})

    def test_gap_flags_exactly_where_the_crosscap_number_exceeds_the_genus(self, monkeypatch):
        # the shipped crosscap numbers never pass the genus, so raise each by
        # 200: gap fails where c > g, and c = g is neither a failure nor a hit
        real = verify_module.crosscap_from
        monkeypatch.setattr(verify_module, "crosscap_from", lambda *args: real(*args) + 200)
        above = equal = 0
        for knot in enumerate_coprime(60):
            checked = check_knot(knot)
            rec = checked.record
            assert rec.crosscap == crosscap(knot) + 200, knot
            assert ("gap" in checked.violated) == (rec.crosscap > rec.genus), knot
            assert "gap" not in checked.equality_hits, knot
            above += rec.crosscap > rec.genus
            equal += rec.crosscap == rec.genus
        assert (above, equal) == (367, 1)


@functools.cache
def reference_records(max_p: int, checks: tuple[str, ...]) -> tuple:
    """reference_check_knot of every knot to max_p, in enumerate_coprime order;
    computed once per argument pair, because both the check_knot and the
    sweep comparisons read it."""
    return tuple(reference_check_knot(k, checks) for k in enumerate_coprime(max_p))


def reference_report(max_p: int) -> str:
    """The serialized report of the reference records folded as one run."""
    config = SweepConfig(max_p)
    return serialize_report(fold(reference_records(max_p, CHECK_NAMES)).report(config))


class TestAgainstReference:
    def test_all_checks_to_300(self):
        expected = reference_records(300, CHECK_NAMES)
        for knot, reference in zip(enumerate_coprime(300), expected, strict=True):
            assert check_knot(knot) == reference, knot

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_each_check_alone_to_120(self, name):
        expected = reference_records(120, (name,))
        for knot, reference in zip(enumerate_coprime(120), expected, strict=True):
            assert check_knot(knot, {name}) == reference, knot


def reference_csv(max_p: int) -> str:
    """The sweep CSV of the reference records, all checks, a row per knot."""
    fields = list(invariants(TorusKnot(3, 2)).as_dict())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields + [f"violated_{name}" for name in CHECK_NAMES])
    for checked in reference_records(max_p, CHECK_NAMES):
        flags = [int(name in checked.violated) for name in CHECK_NAMES]
        writer.writerow([*checked.record.as_dict().values(), *flags])
    return buf.getvalue()


class TestSweepAgainstReference:
    """The sweep runs the walk, and the row kernel is its oracle, not
    check_knot, so their outputs are compared with the reference directly:
    at one worker the walk's, at two the walk tasks' and the band tasks' on
    a pool, and the row kernel's."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_checks_to_300(self, monkeypatch, workers):
        for report in sweeps(SweepConfig(300, workers=workers), monkeypatch):
            assert serialize_report(report) == reference_report(300)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_csv_to_60(self, tmp_path, capsys, workers):
        path = tmp_path / "knots.csv"
        assert main(["verify", "--max-p", "60", "--workers", workers, "--csv", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == reference_csv(60)

    def test_doctored_closed_form_is_flagged_on_the_same_knots(self, monkeypatch):
        # the shipped checks find nothing, so hand the sweep and the reference
        # the same wrong closed form: both must flag q3 on the same knots
        def doctored(p):
            form, c = q3_closed_form(p)
            return form, c + (p % 6 == 1)

        config = SweepConfig(120)
        records = (reference_check_knot(k, CHECK_NAMES, doctored) for k in enumerate_coprime(120))
        expected = fold(records).report(config)
        monkeypatch.setattr(verify_module, "q3_closed_form", doctored)
        report = run_verification(config)
        assert [(c.record.knot, c.violated) for c in report.violations] == [
            (TorusKnot(p, 3), {"q3"}) for p in range(7, 121, 6)
        ]
        assert serialize_report(report) == serialize_report(expected)


class TestWalkPerKnot:
    """A report alone walks the expansions depth first, at more than one
    worker as pool tasks; a sweep with a CSV sink walks each p band as one
    task.  With the two lemma-9 lists swapped, each knot fails lemma9, so a
    report lists every knot with its invariants, and the walk, the walk's
    tasks, the band tasks, the row kernel and the reference are compared
    knot by knot."""

    @pytest.mark.parametrize("max_p", [pytest.param(300, id="all-300")])
    def test_walk_equals_rows_and_reference(self, monkeypatch, pool_sizes, max_p):
        config = SweepConfig(max_p)
        # the swap flags lemma9 on every knot, and q3, which reads the
        # congruence-selected list, the other one now, on every odd (p, 3) knot
        records = []
        for k, r in zip(enumerate_coprime(max_p), reference_records(max_p, CHECK_NAMES)):
            swapped = {"lemma9", "q3"} if k.q == 3 and k.p % 2 else {"lemma9"}
            records.append(replace(r, violated=r.violated | swapped))
        expected = fold(records).report(config)
        doctor_flags(monkeypatch, "lemma9")
        walk = run_verification(config)
        assert pool_sizes == []
        tasks = run_verification(replace(config, workers=2))
        force_bands(monkeypatch, max_p, 3)
        bands = band_report(replace(config, workers=2))
        assert pool_sizes == [1, 2]  # the report's pool leaves one walker to this process
        rows = kernel_report(config)
        assert walk == tasks == bands == rows == expected
        assert len(walk.violations) == walk.knots_checked

    def test_walk_flags_the_bounds_on_every_knot_the_guard_admits(self, monkeypatch, pool_sizes):
        # with every bound 0, each bound check the walk runs fails; the walk
        # runs them where the crosscap number meets thm1 or thm2, the least
        # of the four bounds, so exactly those knots are listed, with the four
        # bound checks violated and the bounds 0 in their records
        self.assert_flags_where_the_guard_admits(monkeypatch, pool_sizes, 0)

    def test_walk_flags_no_bound_just_outside_the_guard(self, monkeypatch, pool_sizes):
        # as above, with the root's skip totals t0 and t1 (fields 5 and 7)
        # lowered by 2: every crosscap number is 1 lower, and the q3 check's
        # closed form fails on every odd (p, 3) knot.  Then each (p, 3) knot
        # with p = 4 mod 6 has g = p - 1 = 6c - 3 and n = 2p = 12c - 4, just
        # outside both halves of the guard, g <= 6c - 4 and n <= 12c - 5
        self.assert_flags_where_the_guard_admits(monkeypatch, pool_sizes, 1)

    @staticmethod
    def assert_flags_where_the_guard_admits(monkeypatch, pool_sizes, lowered):
        config = SweepConfig(300)
        records = []
        for r in reference_records(300, CHECK_NAMES):
            b, c, knot = r.record.bounds, r.record.crosscap - lowered, r.record.knot
            admitted = c >= min(b.thm1, b.thm2)
            q3 = {"q3"} if lowered and knot.q == 3 and knot.p % 2 else set()
            records.append(BoundCheckRecord(
                replace(r.record, crosscap=c, bounds=Bounds(0, 0, 0, 0), gap=r.record.gap + lowered),
                r.violated | q3 | ({"thm1", "thm2", "clark", "my"} if admitted else set()),
                frozenset(),
            ))
        root = verify_module._ROOT
        monkeypatch.setattr(verify_module, "_ROOT", (
            *root[:5], root[5] - 2 * lowered, root[6], root[7] - 2 * lowered, *root[8:]
        ))
        # the report builds each record's bounds through verify's bound_ints
        monkeypatch.setattr(verify_module, "bound_ints", lambda g, n: (0, 0, 0, 0))
        expected = fold(records).report(config)
        assert 0 < len(expected.violations) < expected.knots_checked
        assert {c.record.bounds for c in expected.violations} == {Bounds(0, 0, 0, 0)}
        walk = run_verification(config)
        tasks = run_verification(replace(config, workers=2))
        force_bands(monkeypatch, 300, 3)
        bands = band_report(replace(config, workers=2))
        assert pool_sizes == [1, 2]
        assert walk == tasks == bands == expected

    def test_walk_flags_gap_exactly_where_the_crosscap_number_exceeds_the_genus(
        self, monkeypatch, pool_sizes
    ):
        # the root's skip totals t0 and t1 (fields 5 and 7) raised by 400
        # raise every knot's crosscap number by 200, past its genus on some
        # knots: each CSV row flags gap exactly where its crosscap passes its
        # genus, and the walk, its tasks and the bands agree with the row
        # kernel whose crosscap number is raised by 200 too
        root = verify_module._ROOT
        raised = (*root[:5], root[5] + 400, root[6], root[7] + 400, *root[8:])
        monkeypatch.setattr(verify_module, "_ROOT", raised)
        real = verify_module.crosscap_from
        monkeypatch.setattr(verify_module, "crosscap_from", lambda *args: real(*args) + 200)
        config = SweepConfig(60)
        one_band, three_bands = [], []
        walk = run_verification(config)
        in_process = band_report(config, one_band)
        tasks = run_verification(replace(config, workers=2))
        force_bands(monkeypatch, 60, 3)
        bands = band_report(replace(config, workers=2), three_bands)
        assert pool_sizes == [1, 2]
        assert walk == in_process == tasks == bands == kernel_report(config)
        assert "".join(one_band) == "".join(three_bands) == two_pass_csv(60)
        rows = list(csv.DictReader(io.StringIO("".join(three_bands))))
        gap = [row for row in rows if row["violated_gap"] == "1"]
        assert gap == [row for row in rows if int(row["crosscap"]) > int(row["genus"])]
        assert (len(gap), len(rows)) == (367, 1042)
        assert [c.record.knot for c in walk.violations if "gap" in c.violated] == [
            TorusKnot(int(row["p"]), int(row["q"])) for row in gap
        ]


class TestBoundGuard:
    """The walk runs the bound checks only where c >= (g + 9) // 6 or
    c >= (n + 16) // 12, which is c >= min(bound_ints(g, n)), a test it
    makes as g <= 6c - 4 or n <= 12c - 5; the row kernel runs them on every
    knot, and finds the same flags and witness."""

    def test_least_bound_is_thm1_or_thm2_to_1000(self):
        for p in range(3, 1001):
            for q in range(2, p):
                if gcd(p, q) == 1:
                    g, n = (p - 1) * (q - 1) // 2, p * (q - 1)
                    assert min(bound_ints(g, n)) == min((g + 9) // 6, (n + 16) // 12), (p, q)

    @given(st.integers(2, 10**12), st.integers(1, 10**12))
    def test_least_bound_is_thm1_or_thm2(self, q, d):
        p = q + d
        assume(gcd(p, q) == 1)
        g, n = (p - 1) * (q - 1) // 2, p * (q - 1)
        assert min(bound_ints(g, n)) == min((g + 9) // 6, (n + 16) // 12)

    def test_the_walks_guard_in_ints_is_the_floor_form_on_a_box(self):
        # g <= 6c - 4 or n <= 12c - 5, the walk's guard, against c >=
        # (g + 9) // 6 or c >= (n + 16) // 12: each is an or of a test on
        # (c, g) and one on (c, n), so they agree on every (c, g, n) with
        # c <= 300 and g, n <= 4000 exactly when each pair of tests does
        for c in range(301):
            assert [g <= 6 * c - 4 for g in range(4001)] == [
                c >= (g + 9) // 6 for g in range(4001)
            ], c
            assert [n <= 12 * c - 5 for n in range(4001)] == [
                c >= (n + 16) // 12 for n in range(4001)
            ], c

    @given(
        st.integers(0, 10**12 // 12),
        st.one_of(st.integers(-30, 30), st.integers(-(10**12), 10**12)),
        st.one_of(st.integers(-30, 30), st.integers(-(10**12), 10**12)),
    )
    def test_the_walks_guard_in_ints_is_the_floor_form(self, c, dg, dn):
        # g and n to about 10^12, near the edges 6c and 12c or anywhere
        g, n = abs(6 * c + dg), abs(12 * c + dn)
        assert (g <= 6 * c - 4 or n <= 12 * c - 5) == (c >= (g + 9) // 6 or c >= (n + 16) // 12)

    def test_an_odd_knots_totals_from_base_and_d(self):
        # the middle pair (a +/- 1, a -/+ 1) of the lemma-9 lists adds take0
        # times its first entry and take_y times its second to a head total:
        # with base = head + (take0 + take_y) a and d = take0 - take_y, the
        # up and down totals are base +/- d, their least base - d d, which
        # the fill loop writes base - (take0 ^ take_y), and the minus and
        # plus totals base +/- sign d, sign = +1 where up is minus
        for take0, take_y in product((False, True), repeat=2):
            d = take0 - take_y
            for head, a in product(range(-3, 4), range(2, 40)):
                up = head + take0 * (a + 1) + take_y * (a - 1)
                down = head + take0 * (a - 1) + take_y * (a + 1)
                base = head + (take0 + take_y) * a
                assert (base + d, base - d) == (up, down)
                assert base - d * d == base - (take0 ^ take_y) == min(up, down)
                for sign, minus_plus in ((1, (up, down)), (-1, (down, up))):
                    assert (base + sign * d, base - sign * d) == minus_plus

    def test_walk_witness_equals_the_row_kernels_at_every_cap(self, monkeypatch, pool_sizes):
        # the row kernel's witness to each max_p: the first knot, in (p, q)
        # order, of the largest gap (no cap to 100 has two; see the next test)
        best, witnesses = None, {}
        for knot in kernel_knots(100):
            p, q, c, _, _ = knot
            if best is None or genus(TorusKnot(p, q)) - c > best_gap:
                best, best_gap = knot, genus(TorusKnot(p, q)) - c
            witnesses[p] = best
        monkeypatch.setattr(verify_module, "_BAND_SLOTS", 1000)  # 5 bands to max_p 100
        for max_p in range(3, 101):
            expected = verify_module._record(*witnesses[max_p]).record
            assert verify_module._walk(max_p, [verify_module._ROOT]).best == witnesses[max_p]
            for config in (SweepConfig(max_p), SweepConfig(max_p, workers=2)):
                assert run_verification(config).max_gap_witness == expected, config
                assert band_report(config).max_gap_witness == expected, config
        assert len(verify_module._bands(100)) == 5 and 2 in pool_sizes

    @pytest.mark.parametrize(
        "max_p, first, second, witness",
        [
            pytest.param(12, (3, 1, 4, 1), (1, 0, 2, 1), (9, 7), id="first-walked"),
            pytest.param(27, (4, 1, 5, 1), (7, 1, 8, 1), (26, 23), id="second-walked"),
            pytest.param(44, (1, 1, 2, 1), (17, 1, 18, 1), (37, 35), id="second-after-jumps"),
        ],
    )
    def test_walk_witness_breaks_a_tie_by_the_smallest_knot(
        self, monkeypatch, max_p, first, second, witness
    ):
        # two walk tasks, in walk order, whose largest gaps tie: the prefixes
        # [0; 1, 3] and [0; 2], [0; 1, 4] and [0; 1, 7], or [0; 1, 1] and
        # [0; 1, 17], by their matrices (h1, h2, k1, k2).  The witness is the
        # smaller knot, as the row kernel folded in (p, q) order finds it,
        # whichever is walked first and in whichever order the two tasks'
        # folds are merged.  The band walk writes every knot's cell; the
        # report's walk, which in the third case leaves 8 prefixes below
        # [0; 1, 1] after a jump, the genus of their last knot below the
        # largest gap so far, still offers both tied knots
        prefixes = []
        verify_module._walk(max_p, [verify_module._ROOT], prefixes)
        a, b = ({pre[:4]: pre for pre in prefixes}[key] for key in (first, second))
        assert prefixes.index(a) < prefixes.index(b)
        calls = count_checked(monkeypatch)
        cells = array("i", [-1]) * verify_module._row(max_p + 1)
        band = verify_module._walk(max_p, [b, a], None, 3, cells)  # pops a, then b
        knots = sorted({(k.p, k.q) for k in calls})
        kernel = [(p, q, *verify_module._check(p, q)) for p, q in knots]
        assert len(kernel) == len(calls) == band.count
        gaps = [genus(TorusKnot(p, q)) - c for p, q, c, _, _ in kernel]
        tied = [knot for knot, gap in zip(kernel, gaps) if gap == max(gaps)]
        assert len(tied) == 2 and tied[0][:2] == witness
        calls.clear()
        part = verify_module._walk(max_p, [b, a])
        assert {TorusKnot(p, q) for p, q, *_ in tied} <= set(calls)
        assert part.count == band.count and part.best == band.best == tied[0]
        parts = [verify_module._walk(max_p, [prefix]) for prefix in (a, b)]
        for order in (parts, parts[::-1]):
            merged = _Partial()
            for one in order:
                merged.add(one.count, one.listed, one.best)
            assert merged.best == tied[0]


def popped_prefixes(max_p: int) -> list[tuple]:
    """Every prefix a whole walk to max_p pops from its stack, in walk order."""
    visited = []

    class Stack(list):
        def pop(self):
            visited.append(super().pop())
            return visited[-1]

    verify_module._walk(max_p, Stack([verify_module._ROOT]))
    return visited


def kernel_total(p: int, q: int) -> int:
    """The knot's skip total from its own expansion, by `euclid` and
    `skip_total`: an even knot's one total, or an odd knot's minus total,
    whose parity its plus total shares."""
    coeffs = euclid(q, p)
    if p & q & 1:
        return cf_module.skip_total(lemma9_lists(coeffs)[0])
    return cf_module.skip_total(coeffs if p & 1 else coeffs[1:])


def doctor_prefix(monkeypatch, key: tuple, index: int, by: int) -> None:
    """Patch `verify._walk` so that every walk, the report's, its tasks' and
    the bands', raises field `index` of the prefix whose (h1, h2, k1, k2) is
    `key` by `by` as it is pushed on the walk's stack."""
    real = verify_module._walk

    class Stack(list):
        def append(self, prefix):
            if prefix[:4] == key:
                prefix = (*prefix[:index], prefix[index] + by, *prefix[index + 1 :])
            super().append(prefix)

    monkeypatch.setattr(verify_module, "_walk", lambda max_p, stack, *args: real(
        max_p, Stack(stack), *args
    ))


def kernel_sweep(knots) -> tuple[list, dict]:
    """The row kernel's cells and folds from its checked knots (p, q, c,
    violated, hits), given in (p, q) order from (3, 2): the cell c << 8 |
    violated of each slot, -1 where (p, q) is not coprime, as `_band(3,
    max_p)` stores them; and for each p, the fold to max_p = p, as (count,
    listed knots, witness)."""
    cells, folds, part = [], {}, _Partial()
    for p, row in groupby(knots, lambda knot: knot[0]):
        by_q = {knot[1]: knot for knot in row}
        for q in range(2, p):
            knot = by_q.get(q)
            cells.append(-1 if knot is None else knot[2] << 8 | knot[3])
            if knot is not None:
                listed = knot[3] or knot[4] & verify_module._SHARPENED
                part.add(1, (knot,) if listed else (), knot)
        folds[p] = (part.count, list(part.listed), part.best)  # listed in (p, q) order
    return cells, folds


@functools.cache
def kernel_sweep_to(max_p: int) -> tuple[list, dict]:
    """`kernel_sweep` of the row kernel to max_p: a cap's cells are the
    first _row(cap + 1) of them, and its fold is folds[cap]."""
    return kernel_sweep(kernel_knots(max_p))


def cells_of(buffer) -> list[int]:
    """The C ints of a band's cells, as `_band` returns them."""
    return memoryview(buffer).cast("B").cast("i").tolist()


def assert_walks_as_the_kernel(max_p: int, kernel: tuple[list, dict]) -> _Partial:
    """Assert that the CSV's band walk to max_p stores the cells of the row
    kernel's `kernel` (see `kernel_sweep`), a cell per slot, and that it
    and the report's walk each fold the kernel's count, listed knots and
    witness; returns the band walk's fold."""
    cells, folds = kernel
    _, band, banded = verify_module._band(3, max_p)
    walk = verify_module._walk(max_p, [verify_module._ROOT])
    assert cells_of(banded) == cells[: verify_module._row(max_p + 1)], max_p
    for part in (band, walk):
        assert (part.count, sorted(part.listed), part.best) == folds[max_p], max_p
    return band


def loop_counts(monkeypatch) -> Counter:
    """Count the values that each two-argument `range` in `verify` yields, by
    the line that calls it: `_walk`'s knot loop, whose knots it checks, and
    the fill loop after it, whose cells it stores unchecked."""
    counts = Counter()

    def counted_range(*args):
        line = sys._getframe(1).f_lineno

        def values():
            for value in range(*args):
                counts[line] += 1
                yield value

        return values() if len(args) == 2 else range(*args)

    monkeypatch.setattr(verify_module, "range", counted_range, raising=False)
    return counts


class TestJump:
    """Both walks jump from a quiet knot a of a prefix to a = last - 1 (see
    `verify._walk`), and the CSV's band walk fills the cells of the knots
    it jumps over; the row kernel, run on every knot, is the oracle of the
    cells and of both walks' folds."""

    def test_both_walks_fold_as_the_row_kernel_and_the_band_walk_stores_its_cells_at_every_cap(
        self, pool_sizes
    ):
        # every cell of the band walk and the same count, listed knots and
        # witness in both walks, in-process, and the report through the
        # walk's tasks on a pool of two, to every max_p from 3 to 250 and
        # at 1000, from one kernel pass to 1000
        kernel = kernel_sweep_to(1000)
        for max_p in [*range(3, 251), 1000]:
            config = SweepConfig(max_p)
            band = assert_walks_as_the_kernel(max_p, kernel)
            assert run_verification(replace(config, workers=2)) == band.report(config), max_p
        assert pool_sizes == [1] * 247  # no walk task to max_p 3 and 4

    def test_a_listed_knot_stops_the_jump_when_crosscap_numbers_are_raised(
        self, monkeypatch
    ):
        # the root's skip totals t0 and t1 (fields 5 and 7) raised by 2r
        # raise every knot's crosscap number by r, as the row kernel's is
        # raised by r: from r = 2, knots of q >= 4 meet or pass the
        # sharpened bounds, and a walk that jumped from a listed knot would
        # miss the listed knots after it, and fill their cells unflagged
        root, real = verify_module._ROOT, verify_module.crosscap_from
        for raised in range(0, 41, 4):
            monkeypatch.setattr(verify_module, "_ROOT", (
                *root[:5], root[5] + raised, root[6], root[7] + raised, *root[8:]
            ))
            monkeypatch.setattr(
                verify_module, "crosscap_from", lambda *args: real(*args) + raised // 2
            )
            knots = ((k.p, k.q, *verify_module._check(k.p, k.q)) for k in enumerate_coprime(150))
            assert_walks_as_the_kernel(150, kernel_sweep(knots))

    def test_both_walks_jump_over_a_prefix_and_the_band_walk_fills_its_cells(
        self, monkeypatch
    ):
        # at max_p 300 the prefix [0; 1] holds the 298 knots (a + 1, a),
        # 1 < a < 300, each with a larger gap than the one before, so each is
        # a witness offer where a walk checks it.  (3, 2) to (6, 5) are
        # listed, (7, 6) and (8, 7) are not, so both walks jump from a = 7
        # to a = 298, and the band walk fills the cells of a = 8 to 297
        offers, add = [], _Partial.add

        def counted(self, count, listed, best):
            offers.append(best[:2])
            add(self, count, listed, best)

        monkeypatch.setattr(_Partial, "add", counted)
        verify_module._walk(300, [verify_module._ROOT])
        walked = [q for p, q in offers if p == q + 1]
        offers.clear()
        cells = cells_of(verify_module._band(3, 300)[2])
        banded = [q for p, q in offers if p == q + 1]
        assert walked == banded == [2, 3, 4, 5, 6, 7, 298, 299]
        filled = [cells[verify_module._row(a + 1) + a - 2] for a in range(8, 298)]
        kernel = (verify_module._check(a + 1, a) for a in range(8, 298))
        assert filled == [c << 8 | violated for c, violated, _ in kernel]

    @pytest.mark.parametrize(
        "max_p, visited, knots", [(300, 13_898, 27_098), (1000, 152_749, 303_192)]
    )
    def test_the_report_walk_visits_only_the_knots_that_can_change_the_report(
        self, monkeypatch, max_p, visited, knots
    ):
        # the knots a walk checks are the iterations of its knot loop.  The
        # report's walk jumps, and leaves a prefix whose last knot's genus
        # is below the largest gap so far (18,399 and 203,246 checks before
        # it did); the band walk checks the same knots and fills the cells
        # of the others (13,200 and 150,443) in its fill loop, and both fold
        # as the row kernel does
        counts = loop_counts(monkeypatch)
        walk = verify_module._walk(max_p, [verify_module._ROOT])
        checks = dict(counts)
        counts.clear()
        band = verify_module._band(3, max_p)[1]
        (knot_loop,) = checks
        assert checks == {knot_loop: visited} and walk.count == knots
        for part in (walk, band):
            assert (part.count, sorted(part.listed), part.best) == kernel_sweep_to(1000)[1][max_p]
        assert sorted(counts.items()) == [(knot_loop, visited), (max(counts), knots - visited)]

    @pytest.mark.parametrize("bands", [1, 3])
    @pytest.mark.parametrize("max_p", [300, 1000])
    def test_the_band_walk_writes_each_slot_once(self, monkeypatch, max_p, bands):
        # each coprime slot once, checked or filled, and no other slot, also
        # in three bands, which start mid-prefix and jump; the cells are the
        # row kernel's
        row = verify_module._row
        writes, cells = [0] * row(max_p + 1), [-1] * row(max_p + 1)

        class Cells:
            def __init__(self, lo):
                self.start = row(lo)

            def __setitem__(self, slot, cell):
                writes[self.start + slot] += 1
                cells[self.start + slot] = cell

        for lo, hi in force_bands(monkeypatch, max_p, bands):
            verify_module._walk(hi, [verify_module._ROOT], None, lo, Cells(lo))
        assert writes == [int(cell >= 0) for cell in cells]
        assert cells == kernel_sweep_to(1000)[0][: row(max_p + 1)]

    def test_the_row_kernel_meets_the_jumps_premises_to_400(self):
        # at each a where the jump's condition holds, by the row kernel's
        # flags: a > first = 2, knots a - 1 and a unlisted, q >= 4 at a,
        # p + q >= 12 at a - 1 and a < last - 2.  Each knot the jump passes,
        # a + 1 to last - 2, is unlisted, totals the parity of the knot of
        # its class at a - 1 or a, and has a gap below its class's last knot
        jumps = passed = 0
        for h1, h2, k1, k2, *_ in popped_prefixes(400):
            last = (400 - k2) // k1
            if not h1 or last < 2:
                continue
            knot = {}  # a: (p, q, listed, total, gap)
            for a in range(2, last + 1):
                p, q = a * k1 + k2, a * h1 + h2
                c, violated, hits = verify_module._check(p, q)
                listed = bool(violated or hits & verify_module._SHARPENED)
                knot[a] = (p, q, listed, kernel_total(p, q), genus(TorusKnot(p, q)) - c)
            for a in range(3, last - 2):
                p, q, listed, _, _ = knot[a]
                before = knot[a - 1]
                if listed or before[2] or q < 4 or before[0] + before[1] < 12:
                    continue
                jumps += 1
                for b in range(a + 1, last - 1):
                    seen = knot[a if (b - a) % 2 == 0 else a - 1]
                    end = knot[last if (last - b) % 2 == 0 else last - 1]
                    assert not knot[b][2], knot[b]
                    assert knot[b][3] % 2 == seen[3] % 2, knot[b]
                    assert knot[b][4] < end[4], knot[b]
                    passed += 1
        assert jumps > 1000 and passed > jumps

    def test_an_abort_through_a_jumped_prefix_names_one_knot_at_any_worker_count(
        self, monkeypatch, pool_sizes
    ):
        # the prefix [0; 1, 1, 2] (convergents 3/5 and 2/3) holds the 58
        # knots (5a + 3, 3a + 2), 2 <= a <= 59 to max_p 300; the first,
        # (13, 8), is quiet, and the walk would jump from a = 2 if it did not
        # wait for a checked knot of each parity class of a.  Odd a gives an
        # even p, whose total starts from the prefix's t1 (field 7): raised
        # by 1, every knot of that class totals odd, and the first in walk
        # order is (18, 11), a = 3, in-process, in a walk task and in the
        # first of three bands
        key, knot = (3, 2, 5, 3), TorusKnot(18, 11)
        assert kernel_total(13, 8) % 2 == 0 and not any(check_knot(TorusKnot(13, 8)).violated)
        doctor_prefix(monkeypatch, key, 7, 1)
        config = SweepConfig(300)
        force_bands(monkeypatch, 300, 3)
        sweeps = (
            lambda: verify_module._walk(300, [verify_module._ROOT]),
            lambda: run_verification(config),
            lambda: run_verification(replace(config, workers=2)),
            lambda: band_report(replace(config, workers=2)),
        )
        for sweep in sweeps:
            with pytest.raises(IntegralityError) as info:
                sweep()
            assert info.value.knot == knot
            assert info.value.value == HalfInteger(kernel_total(18, 11) + 1)
        assert pool_sizes == [1, 2]


class TestLemma9Lists:
    def test_kernel_lists_are_the_stated_lists_to_300(self):
        # unmerged: a trailing a1 = 1 stays, as Lemma 9 states the lists
        for k in enumerate_coprime(300):
            assert lemma9_lists(euclid(k.q, k.p)) == stated_lemma9(k.p, k.q), k


class TestKernelGuards:
    def test_swapped_lemma9_branches_are_caught_by_lemma9(self, monkeypatch):
        # swapping the middle pair for odd n exchanges the two lists: the
        # crosscap number (their minimum) and integrality are unaffected, so
        # only an independent evaluation of the lists can notice
        real = cf_module.lemma9_lists

        def swapped(coeffs):
            minus, plus = real(coeffs)
            return (plus, minus) if (len(coeffs) - 1) % 2 else (minus, plus)

        # the q3 check reads the congruence-selected list, so it sees the swap too
        knots = (TorusKnot(7, 5), TorusKnot(11, 3))  # [0, 1, 2, 2] and [0, 3, 1, 2]: n = 3
        expected = [reference_check_knot(knot) for knot in knots]
        patch_kernel(monkeypatch, "lemma9_lists", swapped)
        checked = [check_knot(knot) for knot in knots]
        assert [c.record for c in checked] == [e.record for e in expected]
        assert [c.violated for c in checked] == [{"lemma9"}, {"lemma9", "q3"}]
        assert check_knot(TorusKnot(7, 3)).violated == frozenset()  # 3/7 = [0, 2, 3], n = 2

    def test_walk_with_swapped_lists_fails_lemma9_on_every_knot(self, monkeypatch, pool_sizes):
        # the walk's prefixes carry the lemma-9 sign, +1 where the up list, with
        # the middle pair (a + 1, a - 1), is the minus list: negating it at the
        # root swaps the two lists for every knot, in the report's walk and in
        # the CSV's bands, as swapping them in the row kernel's lemma9_lists does
        real = cf_module.lemma9_lists
        patch_kernel(monkeypatch, "lemma9_lists", lambda coeffs: real(coeffs)[::-1])
        root = verify_module._ROOT
        monkeypatch.setattr(verify_module, "_ROOT", (*root[:-1], -root[-1]))
        config = SweepConfig(120)
        walk = run_verification(config)
        tasks = run_verification(replace(config, workers=2))
        force_bands(monkeypatch, 120, 3)
        bands = band_report(replace(config, workers=2))
        assert pool_sizes == [1, 2]
        assert walk == tasks == bands == kernel_report(config)
        knots = list(enumerate_coprime(120))
        assert walk.lemma_failures == tuple((k, ("lemma9",)) for k in knots)
        # the q3 check reads the congruence-selected list: the other one now
        q3 = [c.record.knot for c in walk.violations if "q3" in c.violated]
        assert q3 == [k for k in knots if k.q == 3 and k.p % 2]

    def test_walk_checks_the_difference_of_the_lists(self):
        # a prefix state no walk reaches: [0; 1, 1] with its lists swapped.
        # The half difference of its lists' continuants, down minus up, is
        # (h2 k1 - h1 k2, 0) = (1, 0) for every a, which names the down list
        # the plus list; with the up list named the plus list, every knot
        # below the prefix fails lemma 9.  The q3 check of (5, 3) reads the
        # congruence-selected list, the other one now
        prefixes = []
        verify_module._walk(5, [verify_module._ROOT], prefixes)
        (prefix,) = (pre for pre in prefixes if pre[:4] == (1, 1, 2, 1))
        assert prefix[10:] == (1,)
        doctored = (*prefix[:10], -1)
        part = verify_module._walk(7, [doctored])
        assert part.count == 2  # a = 2 and 3, and no prefix below it to 7
        lemma9, q3 = verify_module._LEMMA9, verify_module._Q3
        assert [(p, q, violated) for p, q, _, violated, _ in part.listed] == [
            (5, 3, lemma9 | q3), (7, 4, lemma9)
        ]

    def test_a_task_with_one_flipped_prefix_fails_lemma9_on_its_subtree(
        self, monkeypatch, pool_sizes
    ):
        # negate the lemma-9 sign, which says which list is up, on the first
        # prefix of the second walk task: its knots, those whose expansion
        # [0; a1, ..., a(n-1), a] has the prefix's convergents (h1/k1, h2/k2)
        # among those of [0; a1, ..., a(n-1)], fail lemma 9, found from their
        # own expansions, and no other knot does, through the pool and the merge
        real, flipped = verify_module._runs, []

        def runs(prefixes, count):
            cut = real(prefixes, count)
            first = cut[1][-1]  # a run is reversed: its first prefix is last
            flipped.append((*first[:-1], -first[-1]))
            cut[1][-1] = flipped[0]
            return cut

        monkeypatch.setattr(verify_module, "_runs", runs)
        report = run_verification(SweepConfig(120, workers=2))
        assert pool_sizes == [1]
        h1, h2, k1, k2, *_ = flipped[0]
        below = []
        for k in enumerate_coprime(120):
            coeffs = euclid(k.q, k.p)
            ends = range(2, len(coeffs))  # [0; a1, ..., a(i-1)], i <= n
            if ((h1, k1), (h2, k2)) in (
                (continuant(coeffs[:i]), continuant(coeffs[: i - 1])) for i in ends
            ):
                below.append(k)
        assert report.lemma_failures == tuple((k, ("lemma9",)) for k in below)
        assert len(below) == verify_module._walk(120, [flipped[0]]).count > 1
        assert report.knots_checked == len(list(enumerate_coprime(120)))

    def test_odd_skip_total_aborts(self, monkeypatch, capsys):
        # an odd knot's totals come from lemma9_totals in one pass, an even
        # knot's from skip_total: an odd total from either aborts
        patch_kernel(monkeypatch, "lemma9_totals", lambda coeffs: (7, 7))
        patch_kernel(monkeypatch, "skip_total", lambda coeffs: 7)
        for knot in (TorusKnot(7, 5), TorusKnot(8, 3)):
            with pytest.raises(IntegralityError) as info:
                crosscap(knot)
            assert info.value.knot == knot
            assert info.value.value == HalfInteger(7)
        # the walk never calls skip_total: it steps the rule's table, so doctor
        # that to skip after an odd coefficient added to an even total.  The
        # walk's second knot, (4, 3), reads 4/3 = [1, 3] and totals 1, not 4
        monkeypatch.setattr(verify_module, "NEXT", ((SKIP, TAKE, ODD), (SKIP, TAKE, SKIP)))
        assert main(["verify", "--max-p", "10"]) == 2
        err = capsys.readouterr().err
        assert "non-integral crosscap candidate N = 1/2 for torus knot (4,3)" in err

    @FORK_ONLY
    def test_odd_skip_total_in_a_pool_worker_aborts(self, monkeypatch, capsys, tmp_path):
        # the CSV's band tasks, two bands on a pool of two: the walk steps
        # the rule's table, doctored as in test_odd_skip_total_aborts, and
        # the first band's second knot, (4, 3), totals 1
        monkeypatch.setattr(verify_module, "NEXT", ((SKIP, TAKE, ODD), (SKIP, TAKE, SKIP)))
        assert force_bands(monkeypatch, 10, 2)[0][0] == 3
        path = tmp_path / "knots.csv"
        assert main(["verify", "--max-p", "10", "--workers", "2", "--csv", str(path)]) == 2
        err = capsys.readouterr().err
        assert "non-integral crosscap candidate N = 1/2 for torus knot (4,3)" in err
        assert "BrokenProcessPool" not in err
        assert list(tmp_path.iterdir()) == []

    @FORK_ONLY
    def test_odd_skip_total_in_a_walk_task_aborts(self, monkeypatch, capsys, tmp_path):
        # doctor the table to skip after an even coefficient added to an odd
        # total.  The top prefixes [0] and [0; 1], which this process walks,
        # never step from an odd total, so the first odd total in walk order
        # is (7, 5), 5/7 = [0; 1, 2, 2], below [0; 1, 2]: in a walk task.  A
        # later task has one too, at (11, 9) = [0; 1, 4, 2]
        monkeypatch.setattr(verify_module, "NEXT", ((SKIP, TAKE, SKIP), (ODD, TAKE, SKIP)))
        assert main(["verify", "--max-p", "12"]) == 2
        expected = capsys.readouterr().err
        assert "non-integral crosscap candidate N = 5/2 for torus knot (7,5)" in expected
        path = tmp_path / "report.json"
        assert main(["verify", "--max-p", "12", "--workers", "2", "--json", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == expected
        assert "BrokenProcessPool" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_abort_names_the_first_knot_in_walk_order(self, monkeypatch, pool_sizes, workers):
        # in walk order the first odd total is (5, 3), 3/5 = [0; 1, 1, 2];
        # the next is (9, 5), 5/9 = [0; 1, 1, 4], in the same walk task, and
        # later tasks have one too
        doctor_skip_rule(monkeypatch)
        with pytest.raises(IntegralityError) as info:
            run_verification(SweepConfig(60, workers=workers))
        assert info.value.knot == TorusKnot(5, 3)
        assert pool_sizes == ([] if workers == 1 else [workers - 1])

    @FORK_ONLY
    def test_abort_in_a_forked_walk_task_names_the_first_knot_in_walk_order(self, monkeypatch):
        doctor_skip_rule(monkeypatch)
        with pytest.raises(IntegralityError) as info:
            run_verification(SweepConfig(60, workers=2))
        assert info.value.knot == TorusKnot(5, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_odd_knots_abort_names_its_minus_total(self, monkeypatch, pool_sizes, workers):
        # doctor the skip rule to skip after an even coefficient added to an
        # odd total: the walk's table, and the row kernel's lemma-9 totals,
        # that table stepped over the explicit lists.  To max_p 60 the first
        # odd total in walk order is the odd knot (31, 19), 19/31 = [0; 1, 1,
        # 1, 1, 2, 2], whose minus total 11 is above its plus total 9.  The
        # walk's abort names the minus total, as the row kernel's does
        table = ((SKIP, TAKE, SKIP), (ODD, TAKE, SKIP))
        monkeypatch.setattr(verify_module, "NEXT", table)

        def doctored(coeffs):
            return tuple(table_total(table, lst) for lst in lemma9_lists(coeffs))

        patch_kernel(monkeypatch, "lemma9_totals", doctored)
        assert doctored(euclid(19, 31)) == (11, 9)
        with pytest.raises(IntegralityError) as row:
            check_knot(TorusKnot(31, 19))
        for sweep in (run_verification, band_report):
            with pytest.raises(IntegralityError) as walk:
                sweep(SweepConfig(60, workers=workers))
            assert walk.value.knot == row.value.knot == TorusKnot(31, 19)
            assert walk.value.value == row.value.value == HalfInteger(11)
        assert pool_sizes == ([] if workers == 1 else [1])

    def test_drivers_fold_plain_ints(self, monkeypatch, pool_sizes):
        # what a pool task returns: the checked knot (p, q, c, violated, hits)
        # for each listed knot and for the max-gap witness, and no record or
        # knot object
        parts, walk = [], verify_module._walk

        def recorded(*args):
            parts.append(walk(*args))
            return parts[-1]

        monkeypatch.setattr(verify_module, "_walk", recorded)
        run_verification(SweepConfig(300, workers=2))
        assert pool_sizes == [1]
        lo, band, cells = verify_module._band(298, 300)
        assert parts[1].listed and band.listed  # sharp: (7, 5) = [0; 1, 2, 2]; (298, 3)
        for part in [*parts[1:], band]:  # the walk's tasks, then a band task
            for knot in [*part.listed, part.best]:
                assert type(knot) is tuple and len(knot) == 5
                assert {type(x) for x in knot} == {int}, knot
        cells = memoryview(cells)
        assert lo == 298 and cells.format == "i" and len(cells) == 296 + 297 + 298


class TestLemma9Shortcut:
    """The reversed tail of a prefix has the continuant (k1, k2), so where
    h2 k1 - h1 k2 = sign the up list's continuant is (pq - sign, p^2) for
    every last coefficient a, and the walk decides lemma 9 once for the
    prefix; elsewhere every knot of the prefix fails it."""

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=29), st.integers(2, 10**6))
    def test_the_shortcut_holds_and_every_a_passes(self, middle, a):
        # q/p = [0; a1, ..., a(n-1), a] with n up to 30; the convergents and
        # the reversed tail's continuant from `continuant`, not the walk's
        # recurrences
        head = [0, *middle]
        n = len(head)
        h1, k1 = continuant(head)
        h2, k2 = continuant(head[:-1])
        sign = 1 if n % 2 else -1  # the up list is the minus list when n is odd
        assert h2 * k1 - h1 * k2 == sign
        assert continuant(middle[::-1]) == (k1, k2)
        q, p = continuant([*head, a])
        minus, plus = lemma9_lists([*head, a])
        up = minus if n % 2 else plus
        assert up[n : n + 2] == [a + 1, a - 1]
        assert continuant(up) == (p * q - sign, p * p)

    def test_an_honest_walk_takes_the_shortcut_at_every_prefix(self):
        # the prefixes a walk to 1000 hands out as tasks, and every prefix a
        # whole walk pops from its stack, the root [0] among them
        tasks, visited = [], []

        class Stack(list):
            def pop(self):
                visited.append(super().pop())
                return visited[-1]

        verify_module._walk(1000, [verify_module._ROOT], tasks)
        verify_module._walk(1000, Stack([verify_module._ROOT]))
        assert len(tasks) == 996 and len(visited) == 101_392
        for h1, h2, k1, k2, *_, sign in [*tasks, *visited]:
            assert type(sign) is int and sign in (1, -1)  # a sign, not a bool
            assert h2 * k1 - h1 * k2 == sign


def doctor_flags(monkeypatch, how: str) -> None:
    """Make the checks fail on some knots, for the walk and the row kernel
    alike: the bound checks as if every bound were one less (a knot that
    meets a bound violates it, and the walk runs the bound checks on each
    knot that meets thm1 or thm2, the least bound), the records and the CSV
    keeping the true bounds; the closed form off by one at p % 6 == 1 (q3
    fails there); or the two lemma-9 lists swapped (lemma9 fails on every
    knot, and q3 on every odd (p, 3) knot)."""
    if how == "bounds":
        real = verify_module._bound_flags

        def lowered(c, g, n):  # c > bound - 1 is c + 1 > bound; gap stays c > g
            violated, hits = real(c + 1, g, n)
            return violated & ~verify_module._GAP | real(c, g, n)[0] & verify_module._GAP, hits

        monkeypatch.setattr(verify_module, "_bound_flags", lowered)
    elif how == "q3":

        def doctored(p):
            form, c = q3_closed_form(p)
            return form, c + (p % 6 == 1)

        monkeypatch.setattr(verify_module, "q3_closed_form", doctored)
    else:
        real = cf_module.lemma9_lists
        patch_kernel(monkeypatch, "lemma9_lists", lambda coeffs: real(coeffs)[::-1])
        root = verify_module._ROOT
        monkeypatch.setattr(verify_module, "_ROOT", (*root[:-1], -root[-1]))


def assert_flags_set(text: str, how: str) -> None:
    """The CSV rows of `text` whose violated flags are set are those the
    doctoring `how` (see `doctor_flags`) makes fail, with those flags."""
    flagged = {}
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        if "1" in fields[-8:]:
            flagged[int(fields[0]), int(fields[1])] = ",".join(fields[-8:])
    knots = [(k.p, k.q) for k in enumerate_coprime(60)]
    if how == "bounds":
        # from the reference pipeline: a flag for each bound the knot meets
        met = {}
        for k in knots:
            rec = invariants(TorusKnot(*k))
            b = rec.bounds
            bounds = (b.thm1, b.thm2, b.clark, b.murakami_yasuhara)  # CHECK_NAMES order
            bits = [rec.crosscap >= bound for bound in bounds]
            if any(bits):
                met[k] = ",".join(str(int(bit)) for bit in bits) + ",0,0,0,0"
        assert len(met) > 10 and flagged == met
    elif how == "q3":
        assert flagged == {(p, 3): "0,0,0,0,0,0,1,0" for p in range(7, 61, 6)}
    else:
        q3 = [(p, q) for p, q in knots if q == 3 and p % 2]
        assert flagged == {k: "0,0,0,0,0,1,1,0" if k in q3 else "0,0,0,0,0,1,0,0" for k in knots}


class TestBands:
    """A CSV sweep walks each band of p rows as one task, and this process
    writes the rows band by band: the edges between bands must not show."""

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_banded_csv_equals_two_pass_and_the_reference(self, monkeypatch, pool_sizes, workers):
        bands = several_bands(monkeypatch)
        sink = []
        report = band_report(SweepConfig(60, workers=workers), sink)
        assert pool_sizes == ([] if workers == 1 else [workers])
        assert len(bands) > workers
        assert "".join(sink) == two_pass_csv(60) == reference_csv(60)
        assert serialize_report(report) == reference_report(60)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize("how", ["bounds", "q3", "lemma9"])
    def test_banded_csv_with_flags_set_equals_two_pass(self, monkeypatch, pool_sizes, how, workers):
        # each row's flags are the walk's violated bits, stored in its cell
        several_bands(monkeypatch)
        doctor_flags(monkeypatch, how)
        sink = []
        band_report(SweepConfig(60, workers=workers), sink)
        assert pool_sizes == ([] if workers == 1 else [workers])
        assert "".join(sink) == two_pass_csv(60)
        assert_flags_set("".join(sink), how)

    @FORK_ONLY
    @pytest.mark.parametrize("how", ["bounds", "q3", "lemma9"])
    def test_banded_csv_with_flags_set_on_a_forked_pool(self, monkeypatch, how):
        several_bands(monkeypatch)
        doctor_flags(monkeypatch, how)
        sink = []
        band_report(SweepConfig(60, workers=2), sink)
        assert "".join(sink) == two_pass_csv(60)
        assert_flags_set("".join(sink), how)

    @FORK_ONLY
    def test_band_pool_holds_one_band_per_process_and_one_more(self, monkeypatch):
        # two band walkers claim a band each, and one more, past the last
        # band taken: while a band renders, at most three bands are claimed
        # and not yet taken, not every band left, and the bytes and the
        # abort's knot stay the same.  Each rendering first sleeps, so that
        # the walkers fill the window
        assert len(several_bands(monkeypatch)) == 18
        monkeypatch.setattr(verify_module, "_cpus", lambda: 64)
        started, outstanding = multiprocessing.Value("i", 0), []
        band, write_rows = verify_module._band, verify_module._write_rows

        def counted_band(lo, hi):
            with started.get_lock():
                started.value += 1
            return band(lo, hi)

        def counted_write_rows(write, lo, cells):
            time.sleep(0.05)
            outstanding.append(started.value - len(outstanding) - 1)
            write_rows(write, lo, cells)

        monkeypatch.setattr(verify_module, "_band", counted_band)
        monkeypatch.setattr(verify_module, "_write_rows", counted_write_rows)
        sink = []
        band_report(SweepConfig(60, workers=2), sink)
        assert max(outstanding) == 3 and outstanding[-3:] == [2, 1, 0], outstanding
        assert "".join(sink) == two_pass_csv(60)
        doctor_skip_rule(monkeypatch)
        with pytest.raises(IntegralityError) as info:
            band_report(SweepConfig(60, workers=2))
        assert info.value.knot == TorusKnot(5, 3)
        assert multiprocessing.active_children() == []

    @FORK_ONLY
    def test_banded_csv_on_a_forked_pool(self, monkeypatch):
        several_bands(monkeypatch)
        sink = []
        report = band_report(SweepConfig(60, workers=2), sink)
        assert "".join(sink) == two_pass_csv(60)
        assert serialize_report(report) == reference_report(60)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_csv_abort_names_the_same_knot_at_any_worker_count(
        self, monkeypatch, pool_sizes, workers
    ):
        # the first band, (3, 16), has the first failing knot: its walk
        # reaches (5, 3) = [0; 1, 1, 2] before (9, 5), and later bands fail
        # too, but their results come after the first band's
        several_bands(monkeypatch)
        doctor_skip_rule(monkeypatch)
        sink = []
        with pytest.raises(IntegralityError) as info:
            band_report(SweepConfig(60, workers=workers), sink)
        assert info.value.knot == TorusKnot(5, 3)
        assert sink == [",".join(verify_module._CSV_HEADER) + "\n"]
        assert pool_sizes == ([] if workers == 1 else [workers])

    def test_one_band_aborts_at_the_reports_knot(self, monkeypatch):
        assert verify_module._bands(60) == [(3, 60)]
        doctor_skip_rule(monkeypatch)
        with pytest.raises(IntegralityError) as report:
            run_verification(SweepConfig(60))
        with pytest.raises(IntegralityError) as csv_sweep:
            band_report(SweepConfig(60))
        assert report.value.knot == csv_sweep.value.knot == TorusKnot(5, 3)
        # the next failing knot in walk order: a band from row 6 walks past
        # (5, 3)'s prefix [0; 1, 1] to (9, 5)
        with pytest.raises(IntegralityError) as later:
            verify_module._band(6, 60)
        assert later.value.knot == TorusKnot(9, 5)

    def test_bands_cover_the_rows_by_slot_count(self):
        # about equal slot counts, each at most the band size give or take
        # one row, and a count that depends on max_p alone
        slots = verify_module._BAND_SLOTS
        assert verify_module._bands(2897) == [(3, 2897)]
        for max_p, count in ((2898, 2), (3000, 2), (MAX_SWEEP_P, 12)):
            bands = verify_module._bands(max_p)
            assert len(bands) == count
            assert [lo for lo, _ in bands] == [3] + [hi + 1 for _, hi in bands[:-1]]
            assert bands[-1][1] == max_p
            sizes = [verify_module._row(hi + 1) - verify_module._row(lo) for lo, hi in bands]
            assert max(sizes) - min(sizes) < 2 * max_p
            assert max(sizes) < slots + max_p

    @pytest.mark.parametrize("slots", [100, verify_module._BAND_SLOTS])
    def test_bands_put_each_row_where_its_first_slot_falls(self, monkeypatch, slots):
        # the band rule written out on integer slot counts: row p goes to
        # band _row(p) * count // total, whatever `_cut` does inside
        monkeypatch.setattr(verify_module, "_BAND_SLOTS", slots)
        row = verify_module._row
        for max_p in range(3, 3001):
            total = row(max_p + 1)
            count = -(-total // slots)
            groups = groupby(range(3, max_p + 1), lambda p: row(p) * count // total)
            expected = [(rows[0], rows[-1]) for rows in (list(group) for _, group in groups)]
            assert verify_module._bands(max_p) == expected, max_p

    @pytest.mark.parametrize("count", [4, 8])
    @pytest.mark.parametrize("max_p", [300, 1000])
    def test_runs_keep_each_prefix_once_in_walk_order(self, max_p, count):
        prefixes = []
        verify_module._walk(max_p, [verify_module._ROOT], prefixes)
        runs = verify_module._runs(prefixes, count)
        assert 0 < len(runs) <= count and all(runs)
        # each run is reversed, so that `_walk` pops it in walk order
        assert [prefix for run in runs for prefix in reversed(run)] == prefixes



class TestWriteRows:
    """`_write_rows` on cells that no walk made, against `_csv_text` of the
    fields `_record` gives each live cell."""

    @settings(max_examples=30, deadline=None)
    @given(
        lo=st.integers(3, 9_990),
        shares=st.tuples(*[st.sampled_from((0.0, 0.01, 0.5, 1.0))] * 3),
        rnd=st.randoms(use_true_random=True),
    )
    def test_each_row_is_one_text_of_its_live_cells(self, lo, shares, rnd):
        # three rows from lo, each coprime slot live with its row's share:
        # a share of 0 empties the row, and only coprime slots can be live,
        # since `_record` builds a TorusKnot; the live slots' flags run
        # through every 8-bit value, and c reaches 2^23 - 1, the most a cell holds
        rows = range(lo, lo + 3)
        cells = array("i")
        expected = []
        for p, share in zip(rows, shares):
            lines = []
            for q in range(2, p):
                if gcd(p, q) > 1 or rnd.random() >= share:
                    cells.append(-1)
                    continue
                c = rnd.choice((1, (1 << 23) - 1, rnd.randrange(1 << 23)))
                flags = (len(cells) + lo) & 255
                cells.append(c << 8 | flags)
                checked = verify_module._record(p, q, c, flags, 0)
                bits = [int(name in checked.violated) for name in CHECK_NAMES]
                lines.append([*checked.record.as_dict().values(), *bits])
            expected.append(_csv_text(lines))
        assert len(cells) == verify_module._row(lo + 3) - verify_module._row(lo)
        texts = []
        verify_module._write_rows(texts.append, lo, cells)
        assert texts == expected  # one write per row, "" for an empty one
        for p, text in zip(rows, texts):
            assert all(line.startswith(f"{p},") for line in text.splitlines())


def hold_the_first_run(monkeypatch, walker=None) -> dict:
    """Let a walker process claim the first run before this process claims
    any: this process waits until the walker starts a run, the walker's
    first.  The walker then runs `walker`, if given, before that run, and
    holds the run until this process has claimed all it can.  The dict
    returned gets the claim counter, what `_run_next` gave this process
    (each (index, (result, exception))) as "own", the event "taken" and, as
    "walked", a count of the runs the walkers started."""
    taken, held = multiprocessing.Event(), multiprocessing.Event()
    seen = {"taken": taken, "walked": multiprocessing.Value("i", 0), "own": []}
    parent, walk, run_next = os.getpid(), verify_module._walk, verify_module._run_next

    def held_walk(max_p, stack, *rest):
        if os.getpid() != parent:
            with seen["walked"].get_lock():
                seen["walked"].value += 1
            taken.set()
            if walker is not None:
                walker()
            held.wait(60)
        return walk(max_p, stack, *rest)

    def after_the_walker(fn, tasks, claims, *rest):
        if os.getpid() != parent:
            return run_next(fn, tasks, claims, *rest)
        assert taken.wait(60)
        seen["claims"] = claims
        task = None
        try:
            task = run_next(fn, tasks, claims, *rest)
        finally:
            if task is None:  # nothing left for this process to claim
                held.set()
        seen["own"].append(task)
        return task

    monkeypatch.setattr(verify_module, "_walk", held_walk)
    monkeypatch.setattr(verify_module, "_run_next", after_the_walker)
    monkeypatch.setattr(verify_module, "_cpus", lambda: 64)
    return seen


class LockedCounter:
    """A claim counter whose value may be read or written only by a process
    that holds its lock: a stand-in for the `multiprocessing.Value` it wraps
    (module-level, so that a forked walker gets it as it is)."""

    def __init__(self, real):
        self.real = real

    def get_lock(self):
        return self.real.get_lock()

    @property
    def value(self):
        assert self.real.get_lock()._semlock._is_mine(), "the claim counter read without its lock"
        return self.real.value

    @value.setter
    def value(self, value):
        assert self.real.get_lock()._semlock._is_mine(), "the claim counter set without its lock"
        self.real.value = value


class TestRunVerification:
    def test_tiny_sweep_counts(self):
        report = run_verification(SweepConfig(max_p=4))
        assert report.knots_checked == 2
        assert report.violations == ()
        assert report.lemma_failures == ()

    def test_max_gap_witness_against_brute_force(self):
        report = run_verification(SweepConfig(max_p=20))
        best = max(
            (invariants(k) for k in enumerate_coprime(20)),
            key=lambda rec: rec.gap,
        )
        assert report.max_gap_witness.gap == best.gap == 161
        assert report.max_gap_witness.knot == TorusKnot(20, 19)

    def test_sharpness_hits_against_direct_recomputation(self):
        report = run_verification(SweepConfig(max_p=30))
        expected = []
        for k in enumerate_coprime(30):
            rec = invariants(k)
            if rec.crosscap in ((rec.genus + 9) // 6, (rec.crossing + 16) // 12):
                expected.append((k.p, k.q))
        assert [(k.p, k.q) for k in report.sharpness_hits] == expected

    def test_monotone_gap_over_caps(self):
        gaps = [
            run_verification(SweepConfig(max_p=cap)).max_gap_witness.gap
            for cap in range(3, 26)
        ]
        assert gaps == sorted(gaps)

    def test_workers_do_not_change_the_report(self, monkeypatch):
        # the band tasks on a real pool: 3 and 4 have fewer p rows than 5
        # workers, and no walk task; at 19 and 60, one band per row, some
        # rows to a band, or one band
        header = [*invariants(TorusKnot(3, 2)).as_dict(), *(f"violated_{n}" for n in CHECK_NAMES)]
        for max_p, slots in ((3, 1), (4, 1), (19, 1), (19, 40), (60, 400), (60, 1 << 22)):
            monkeypatch.setattr(verify_module, "_BAND_SLOTS", slots)
            sinks = [[], [], []]
            reports = [
                band_report(SweepConfig(max_p=max_p, workers=w), sink)
                for w, sink in zip((1, 2, 5), sinks)
            ]
            reports += [run_verification(SweepConfig(max_p=max_p, workers=w)) for w in (1, 2, 5)]
            folded = fold(check_knot(k) for k in enumerate_coprime(max_p))
            assert reports == [folded.report(SweepConfig(max_p=max_p))] * 6, max_p
            texts = {serialize_report(r) for r in reports}
            assert len(texts) == 1
            assert sinks[0] == sinks[1] == sinks[2]
            assert len(sinks[0]) == max_p - 1  # the header, then one text per p
            assert sinks[0][0] == ",".join(header) + "\n"

    @pytest.mark.parametrize(
        "max_p, workers, cpus, size",
        [(4, 5, None, 2), (3, 5, None, None), (100, 1000, None, 64), (100, 8, 1, None),
         (100, 2, None, 2), (100, 1, None, None)],
    )
    def test_pool_size_is_capped_by_rows_and_cpus(
        self, pool_sizes, monkeypatch, max_p, workers, cpus, size
    ):
        # one band per p row: the band tasks' pool is capped by the rows
        monkeypatch.setattr(verify_module, "_BAND_SLOTS", 1)
        assert verify_module._bands(max_p) == [(p, p) for p in range(3, max_p + 1)]
        if cpus is not None:
            monkeypatch.setattr(verify_module, "_cpus", lambda: cpus)
        report = band_report(SweepConfig(max_p=max_p, workers=workers))
        assert pool_sizes == ([] if size is None else [size])
        assert report == run_verification(SweepConfig(max_p=max_p))

    @pytest.mark.parametrize("workers", [2, 5])
    def test_report_builds_one_pool_of_walk_tasks(self, pool_sizes, workers):
        # the walk's tasks are the prefixes below [0] and [0; 1]: none to
        # max_p 4, two to 5 ([0; 2] and [0; 1, 1]), and more than 5 to 100;
        # this process and the pool have one process per task, worker and
        # CPU at most
        for max_p, size in ((3, None), (4, None), (5, 1), (100, workers - 1)):
            pool_sizes.clear()
            report = run_verification(SweepConfig(max_p=max_p, workers=workers))
            assert pool_sizes == ([] if size is None else [size]), max_p
            assert report == run_verification(SweepConfig(max_p=max_p)), max_p

    def test_one_cpu_of_affinity_builds_no_pool(self, pool_sizes, monkeypatch, capsys):
        # the pool is capped by the CPUs this process may run on, its
        # affinity mask, not by those of the host; where the OS has no mask,
        # by the CPU count
        monkeypatch.setattr(verify_module, "_cpus", CPUS)  # past the fixture's 64
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["verify", "--max-p", "300", "--workers", "2", "--json"]) == 0
        assert capsys.readouterr().out == reference_report(300)
        assert pool_sizes == []
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, sizes in ((1, []), (None, []), (2, [1])):
            pool_sizes.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            run_verification(SweepConfig(300, workers=2))
            assert pool_sizes == sizes, cpus

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_walkers_give_the_one_worker_report(self, monkeypatch, workers):
        # workers - 1 walker processes and this one claim the runs from one
        # counter, also with more processes than CPUs: a run walked twice or
        # never would change the count of knots checked
        monkeypatch.setattr(verify_module, "_cpus", lambda: 64)
        report = run_verification(SweepConfig(300, workers=workers))
        assert multiprocessing.active_children() == []
        assert serialize_report(report) == reference_report(300)

    @FORK_ONLY
    def test_this_process_walks_runs_beside_its_walker(self, monkeypatch):
        # the walker holds the first run while this process claims the rest
        seen = hold_the_first_run(monkeypatch)
        report = run_verification(SweepConfig(300, workers=2))
        runs = seen["claims"].value
        assert runs > 2 and [task[0] for task in seen["own"][:-1]] == list(range(1, runs))
        assert seen["own"][-1] is None
        assert seen["walked"].value == 1
        assert multiprocessing.active_children() == []
        assert serialize_report(report) == reference_report(300)

    @FORK_ONLY
    def test_an_abort_in_a_run_this_process_walks_waits_for_the_earlier_runs(self, monkeypatch):
        # doctored as in doctor_skip_rule, every run of max_p 60 aborts.  A
        # walker holds the first run, whose abort is at (5, 3), until this
        # process has walked the second, whose abort ends the claims; the
        # first run's abort is raised, once the walker has sent it
        doctor_skip_rule(monkeypatch)
        prefixes = []
        verify_module._walk(60, [verify_module._ROOT], prefixes)
        runs = verify_module._runs(prefixes, 2 * verify_module._RUNS_PER_WORKER)
        with pytest.raises(IntegralityError) as second:
            verify_module._walk(60, runs[1])
        assert second.value.knot != TorusKnot(5, 3)
        seen = hold_the_first_run(monkeypatch)
        with pytest.raises(IntegralityError) as info:
            run_verification(SweepConfig(60, workers=2))
        assert info.value.knot == TorusKnot(5, 3)
        [(index, (result, exc)), none] = seen["own"]
        assert (index, result, exc.knot, none) == (1, None, second.value.knot, None)
        assert seen["claims"].value == len(runs)
        assert multiprocessing.active_children() == []

    @FORK_ONLY
    def test_an_abort_here_ends_the_walkers_claims(self, monkeypatch):
        # this process's first run raises while the walker holds the first
        # run; the walker then finishes that run and claims no other
        seen = hold_the_first_run(monkeypatch)
        run_next, parent = verify_module._run_next, os.getpid()

        def fail(*args):
            raise RuntimeError("doctored")

        def failing_here(fn, *rest):
            return run_next(fail if os.getpid() == parent else fn, *rest)

        monkeypatch.setattr(verify_module, "_run_next", failing_here)
        with pytest.raises(RuntimeError, match="doctored"):
            run_verification(SweepConfig(300, workers=2))
        assert [task and task[0] for task in seen["own"]] == [1, None]
        assert seen["walked"].value == 1
        assert multiprocessing.active_children() == []

    @FORK_ONLY
    def test_ctrl_c_in_a_run_this_process_walks_exits_2(self, tmp_path, capsys, monkeypatch):
        # the walker, held in the first run, is stopped: it would hold the
        # run for up to 60 s, as this process never finishes its claims
        run_next, parent = verify_module._run_next, os.getpid()

        def interrupt(*args):
            raise KeyboardInterrupt

        def interrupted(fn, *rest):
            if os.getpid() != parent:
                return run_next(fn, *rest)
            assert seen["taken"].wait(60)
            return run_next(interrupt, *rest)

        seen = hold_the_first_run(monkeypatch)
        monkeypatch.setattr(verify_module, "_run_next", interrupted)
        path = tmp_path / "report.json"
        start = time.monotonic()
        assert main(["verify", "--max-p", "300", "--workers", "2", "--json", str(path)]) == 2
        assert time.monotonic() - start < 30  # the walker held its run for up to 60 s
        assert capsys.readouterr().err == "crosscap: verify did not complete: KeyboardInterrupt()\n"
        assert list(tmp_path.iterdir()) == []
        assert seen["walked"].value == 1
        assert multiprocessing.active_children() == []

    @FORK_ONLY
    def test_a_walker_that_claims_nothing_is_not_a_dead_one(self, monkeypatch):
        # two walkers wait until this process has claimed the last run, then
        # find none left and exit, and this process reads none of their pipes
        claimed_all, parent = multiprocessing.Event(), os.getpid()
        run_next, own = verify_module._run_next, []

        def this_process_first(fn, tasks, claims, *rest):
            if os.getpid() != parent:
                assert claimed_all.wait(60)
                return run_next(fn, tasks, claims, *rest)
            task = run_next(fn, tasks, claims, *rest)
            own.append(task[0])
            if task[0] == len(tasks) - 1:
                claimed_all.set()
            return task

        monkeypatch.setattr(verify_module, "_run_next", this_process_first)
        monkeypatch.setattr(verify_module, "_cpus", lambda: 64)
        report = run_verification(SweepConfig(300, workers=3))
        assert len(own) > 2 and own == list(range(len(own)))
        assert multiprocessing.active_children() == []
        assert serialize_report(report) == reference_report(300)

    @pytest.mark.parametrize("workers", ["3", "5"])
    def test_a_csv_on_more_processes_than_bands_completes(self, tmp_path, capsys, monkeypatch, workers):
        # two bands at three workers or more: two band walkers, one of which
        # finishes its band and exits while this process renders the other's
        force_bands(monkeypatch, 60, 2)
        monkeypatch.setattr(verify_module, "_cpus", lambda: 64)
        path = tmp_path / "knots.csv"
        argv = ["verify", "--max-p", "60", "--workers", workers, "--csv", str(path)]
        assert main(argv) == 0
        assert path.read_bytes() == two_pass_csv(60).encode()
        assert multiprocessing.active_children() == []

    @FORK_ONLY
    def test_claims_hold_the_counters_lock(self, monkeypatch):
        # every read and write of the claim counter, in this process and in
        # the walkers, holds its lock: the report on three processes, the
        # CSV on two band walkers, and an abort, which ends the claims
        value = multiprocessing.Value
        monkeypatch.setattr(multiprocessing, "Value", lambda *args: LockedCounter(value(*args)))
        monkeypatch.setattr(verify_module, "_cpus", lambda: 64)
        report = run_verification(SweepConfig(300, workers=3))
        assert serialize_report(report) == reference_report(300)
        several_bands(monkeypatch)
        sink = []
        band_report(SweepConfig(60, workers=2), sink)
        assert "".join(sink) == two_pass_csv(60)
        doctor_skip_rule(monkeypatch)
        for sweep in (run_verification, band_report):
            with pytest.raises(IntegralityError) as info:
                sweep(SweepConfig(60, workers=2))
            assert info.value.knot == TorusKnot(5, 3)
        assert multiprocessing.active_children() == []

    @FORK_ONLY
    def test_a_walker_that_dies_exits_2(self, tmp_path, capsys, monkeypatch):
        # it never sends its results: the sweep did not complete
        hold_the_first_run(monkeypatch, lambda: os._exit(1))
        path = tmp_path / "report.json"
        assert main(["verify", "--max-p", "300", "--workers", "2", "--json", str(path)]) == 2
        err = "BrokenExecutor('the sweep failed: a walker process died')"
        assert capsys.readouterr().err == f"crosscap: verify did not complete: {err}\n"
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "where, code",
        [
            pytest.param("band", errno.ENOMEM, id="csv-in-process"),
            pytest.param("pooled band", errno.ENOMEM, id="csv-pool"),
            pytest.param("walk task", errno.EIO, id="report-walk-task"),
            pytest.param("constructor", errno.ENOSYS, id="pool-constructor"),
            pytest.param("submit", errno.EAGAIN, id="pool-submit"),
            pytest.param(
                "forked band",
                errno.ENOMEM,
                id="csv-forked-pool",
                marks=FORK_ONLY,
            ),
        ],
    )
    def test_an_oserror_in_the_sweep_is_a_broken_executor(self, request, monkeypatch, where, code):
        # one rule, in _shared: whether a task fails in-process or on a
        # walker, or the claim counter cannot be built or a walker cannot
        # start, the sweep did not complete; the OSError is the cause
        # (the fixture's `_shared` runs in this process alone, so the cases
        # of a walker that cannot start go without it)
        faked = where in ("band", "pooled band", "walk task")
        sizes = request.getfixturevalue("pool_sizes") if faked else []
        config = SweepConfig(max_p=60, workers=2)
        if where == "band":
            force_bands(monkeypatch, 60, 1)
            config = SweepConfig(max_p=60)
        else:
            force_bands(monkeypatch, 60, 3)
        if where.endswith("band"):
            monkeypatch.setattr(verify_module, "_band", functools.partial(raise_oserror, code))
            sweeps = [band_report]
        elif where == "walk task":
            fail_in_walk_tasks(monkeypatch, OSError(code, os.strerror(code)))
            sweeps = [run_verification]
        else:
            pool_that_cannot_start(monkeypatch, where)
            sweeps = [run_verification, band_report]
        for sweep in sweeps:
            with pytest.raises(futures.BrokenExecutor) as info:
                sweep(config)
            cause = info.value.__cause__
            assert isinstance(cause, OSError) and cause.errno == code, sweep
            assert os.strerror(code) in str(info.value)
        assert sizes == {"pooled band": [2], "walk task": [1]}.get(where, [])

    def test_checks_echoed_sorted(self):
        report = run_verification(SweepConfig(max_p=5))
        assert report.checks == tuple(sorted(CHECK_NAMES))
        assert report.checks == ("clark", "gap", "lemma2", "lemma9", "my", "q3", "thm1", "thm2")

    def test_sweep_300_clean_with_family_hits(self):
        # the row kernel over every pair: the sweeps run the walk
        report = kernel_report(SweepConfig(max_p=300))
        assert report.knots_checked == 27098
        assert report.violations == ()
        assert report.lemma_failures == ()
        hits = {(k.p, k.q) for k in report.sharpness_hits}
        assert {(6 * n - 2, 3) for n in range(1, 51)} <= hits


class TestPredictedReport:
    """`predicted_report`, the report in closed form, is an oracle of the
    walk that shares no code with its loop."""

    def test_the_walk_gives_the_predicted_report_at_every_cap_to_400(self):
        for max_p in range(3, 401):
            assert run_verification(SweepConfig(max_p)) == predicted_report(max_p), max_p

    @pytest.mark.parametrize("max_p", [1000, 3000])
    def test_the_walkers_give_the_predicted_report(self, max_p):
        assert run_verification(SweepConfig(max_p, workers=2)) == predicted_report(max_p)

    def test_the_predicted_full_cap_report_has_the_pinned_digest(self):
        # the digest CI's full-cap sweep is pinned to
        text = serialize_report(predicted_report(MAX_SWEEP_P))
        assert len(text) == 286_462
        assert sha256(text.encode()).hexdigest() == (
            "d671e01042a61ab8d1c4c481af91da96be09e9049502040e9e75d2e9f604cf57"
        )


class TestSummarize:
    def test_fold_lists_findings_in_order_and_keeps_first_max_gap(self):
        # the shipped checks find nothing, so doctor two records and append a
        # later knot that ties the largest gap
        config = SweepConfig(max_p=12)
        records = [check_knot(k) for k in enumerate_coprime(12)]
        lemma_only = BoundCheckRecord(records[3].record, frozenset({"lemma2"}), frozenset())
        mixed = BoundCheckRecord(
            records[9].record, frozenset({"thm1", "lemma9", "lemma2"}), frozenset({"thm2"})
        )
        records[3], records[9] = lemma_only, mixed
        best = max((c.record for c in records), key=lambda rec: rec.gap)
        # the fold passes the crosscap number alone, and the report derives
        # the gap from it: give (13, 12) the crosscap number of the same gap
        knot = TorusKnot(13, 12)
        tie = replace(best, knot=knot, crosscap=genus(knot) - best.gap)
        records.append(BoundCheckRecord(tie, frozenset(), frozenset()))

        report = fold(records).report(config)
        assert report.knots_checked == len(records)
        assert report.violations == (lemma_only, mixed)
        assert report.lemma_failures == (
            (lemma_only.record.knot, ("lemma2",)),
            (mixed.record.knot, ("lemma2", "lemma9")),
        )
        assert report.sharpness_hits == tuple(
            c.record.knot for c in records if {"thm1", "thm2"} & c.equality_hits
        )
        assert report.max_gap_witness == best
        assert report.max_gap_witness != tie

    @given(st.data())
    def test_witness_does_not_depend_on_the_fold_order(self, data):
        # the row kernel's checked knots to max_p 40, a few with the crosscap
        # number lowered to tie the largest gap, folded one `add` at a time:
        # in any order the witness is the one of (p, q) order, as the walk,
        # which offers every knot of a gap at least the largest so far,
        # relies on for each tie within one walk
        knots = list(kernel_knots(40))
        gaps = [genus(TorusKnot(p, q)) - c for p, q, c, _, _ in knots]
        top = max(gaps)
        lowered = data.draw(st.sets(st.sampled_from(range(len(knots))), min_size=2, max_size=6))
        for i in lowered:
            p, q, c, violated, hits = knots[i]
            knots[i] = (p, q, c - top + gaps[i], violated, hits)
        tied = sorted(knots[i] for i in {*lowered, gaps.index(top)})
        assert len(tied) >= 2
        in_order = _Partial()
        for knot in knots:
            in_order.add(1, (), knot)
        assert in_order.best == tied[0]
        shuffled = _Partial()
        for knot in data.draw(st.permutations(knots)):
            shuffled.add(1, (), knot)
        assert shuffled.best == in_order.best


class TestSerialization:
    def test_report_shape_and_order(self):
        report = run_verification(SweepConfig(max_p=20))
        data = report_as_dict(report)
        assert list(data) == [
            "max_p", "checks", "knots_checked", "violations",
            "sharpness_hits", "max_gap_witness", "lemma_failures",
        ]
        assert "workers" not in data
        assert data["knots_checked"] == 108
        assert data["violations"] == []
        assert data["lemma_failures"] == []
        assert data["max_gap_witness"] == {
            "p": 20, "q": 19, "genus": 171, "crosscap": 10, "gap": 161,
        }
        parsed = json.loads(serialize_report(report))
        assert parsed == data

    def test_violation_records_serialize(self):
        # the shipped checks never produce violations, so build a report
        # with one by hand to pin the serialization shape
        rec = invariants(TorusKnot(7, 5))
        checked = BoundCheckRecord(rec, frozenset({"thm1"}), frozenset({"thm2"}))
        report = VerificationReport(
            max_p=7,
            checks=("thm1", "thm2"),
            knots_checked=1,
            violations=(checked,),
            sharpness_hits=(),
            max_gap_witness=rec,
            lemma_failures=((TorusKnot(7, 5), ("lemma9",)),),
        )
        data = report_as_dict(report)
        entry = data["violations"][0]
        assert entry["p"] == 7 and entry["q"] == 5
        assert entry["violated"] == ["thm1"]
        assert entry["equality_hits"] == ["thm2"]
        assert data["lemma_failures"] == [{"p": 7, "q": 5, "failed": ["lemma9"]}]
