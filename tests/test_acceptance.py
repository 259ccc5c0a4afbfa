"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 2 pins the ten odd-knot reference values with one
correction: the published table gives the (17,9) knot genus 72, which is
corrected here to 64.  For p > q the crossing number is n = p(q-1) and
2g = (p-1)(q-1), so 2g = n - q + 1; the table's own n = 136 for (17,9)
gives g = 64, and every other row satisfies the identity as published.
The test asserts that identity on all ten rows, so the misprint cannot
return unnoticed.  tests/test_torus_knots.py pins the same value 64.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from math import gcd

from crosscap import (
    TorusKnot,
    bredon_wood_N,
    cf_expand,
    cf_value,
    coefficient_sum,
    crosscap,
    invariants,
    lemma9_expansions,
    make_rational,
    mobius_family,
    q3_closed_form,
    q3_congruence_selector,
    sharp_family,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "crosscap", *args],
        capture_output=True,
        text=True,
    )


def test_01_skip_sum_worked_examples():
    cf1 = cf_expand(make_rational(8, 3))
    cf2 = cf_expand(make_rational(34, 49))
    n1 = bredon_wood_N(8, 3)
    n2 = bredon_wood_N(34, 49)
    ok = (
        cf1.coefficients == (2, 1, 2)
        and cf2.coefficients == (0, 1, 2, 3, 1, 3)
        and n1.as_integer() == 2
        and n2.as_integer() == 3
    )
    _report(1, ok, f"N(8,3)={n1}, N(34,49)={n2}, expansions {cf1} and {cf2}")
    assert cf1.coefficients == (2, 1, 2)
    assert cf2.coefficients == (0, 1, 2, 3, 1, 3)
    assert n1.as_integer() == 2
    assert n2.as_integer() == 3


def test_02_ten_odd_knot_reference_values():
    knots = [
        (17, 9), (13, 9), (11, 9), (13, 7), (11, 7),
        (9, 7), (13, 5), (11, 5), (9, 5), (7, 5),
    ]
    expected_crossings = (136, 104, 88, 78, 66, 54, 52, 44, 36, 28)
    expected_crosscaps = (5, 4, 5, 4, 3, 4, 3, 3, 3, 3)
    # The published table gives 72 for (17,9); its own n = 136 implies
    # 2g = n - q + 1 = 128, so g = 64 (checked on every row below).
    expected_genera = (64, 48, 40, 36, 30, 24, 24, 20, 16, 12)
    inconsistent_rows = [
        (p, q)
        for (p, q), n, g in zip(knots, expected_crossings, expected_genera)
        if 2 * g != n - q + 1
    ]

    records = [invariants(TorusKnot(p, q)) for p, q in knots]
    crossings = tuple(rec.crossing for rec in records)
    crosscaps = tuple(rec.crosscap for rec in records)
    genera = tuple(rec.genus for rec in records)

    ok = (
        crossings == expected_crossings
        and crosscaps == expected_crosscaps
        and genera == expected_genera
        and not inconsistent_rows
    )
    _report(
        2,
        ok,
        f"crossings {'ok' if crossings == expected_crossings else 'MISMATCH'}, "
        f"crosscaps {'ok' if crosscaps == expected_crosscaps else 'MISMATCH'}, "
        f"genera computed {genera} vs reference {expected_genera}, "
        f"rows breaking 2g = n - q + 1: {inconsistent_rows or 'none'}",
    )
    assert inconsistent_rows == []
    assert crossings == expected_crossings
    assert crosscaps == expected_crosscaps
    assert genera == expected_genera


def test_03_sweep_to_300_clean_and_fast():
    start = time.perf_counter()
    proc = _cli("verify", "--max-p", "300")
    elapsed = time.perf_counter() - start
    ok = (
        proc.returncode == 0
        and "0 violations" in proc.stdout
        and "checked 27098 torus knots" in proc.stdout
        and elapsed < 10.0
    )
    _report(3, ok, f"exit {proc.returncode}, {elapsed:.2f}s, summary: "
                   f"{proc.stdout.splitlines()[1] if proc.stdout else '<none>'}")
    assert proc.returncode == 0
    assert "0 violations" in proc.stdout
    assert "checked 27098 torus knots" in proc.stdout
    assert elapsed < 10.0


def test_04_sharpness_family_to_100():
    mismatches = []
    for n in range(1, 101):
        knot, expected = sharp_family(n)
        computed = invariants(knot)
        tight = computed.bounds.thm1 == computed.bounds.thm2 == computed.crosscap == n + 1
        if computed != expected or not tight:
            mismatches.append((n, computed))
    _report(4, not mismatches,
            f"(6n-2,3) for n=1..100: crosscap = thm1 = thm2 = n+1; mismatches: {mismatches[:3]}")
    assert not mismatches


def test_05_mobius_family_gap_to_100():
    mismatches = []
    for n in range(1, 101):
        knot, expected = mobius_family(n)
        computed = invariants(knot)
        if (
            computed != expected
            or computed.crosscap != 1
            or computed.genus != n
            or computed.gap != n - 1
        ):
            mismatches.append((n, computed))
    _report(5, not mismatches,
            f"(2n+1,2) for n=1..100: crosscap 1, genus n, gap n-1; mismatches: {mismatches[:3]}")
    assert not mismatches


def test_06_expansion_identity_exhaustive_to_200():
    start = time.perf_counter()
    failures = []
    saw_odd_n = saw_even_n = saw_a1_one = False
    pairs = 0
    for p in range(3, 201):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            pairs += 1
            base = cf_expand(make_rational(q, p))
            saw_a1_one = saw_a1_one or base.coefficients[1] == 1
            if (len(base) - 1) % 2 == 1:
                saw_odd_n = True
            else:
                saw_even_n = True
            cf_minus, cf_plus = lemma9_expansions(base)
            p_sq = p * p
            if cf_value(cf_minus) != make_rational(p * q - 1, p_sq):
                failures.append((p, q, "-"))
            if cf_value(cf_plus) != make_rational(p * q + 1, p_sq):
                failures.append((p, q, "+"))
            # canonical by type, but assert the tail explicitly
            for built in (cf_minus, cf_plus):
                if len(built) > 1 and built.coefficients[-1] == 1:
                    failures.append((p, q, "canonical"))
    ok = not failures and saw_odd_n and saw_even_n and saw_a1_one
    _report(6, ok, f"{pairs} pairs p<=200, both signs exact; "
                   f"covered odd n: {saw_odd_n}, even n: {saw_even_n}, a1=1: {saw_a1_one}")
    assert not failures
    assert saw_odd_n and saw_even_n and saw_a1_one


def test_07_coefficient_sum_bound_exhaustive_to_500():
    failures = []
    pairs = 0
    for p in range(2, 501):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            pairs += 1
            if coefficient_sum(cf_expand(make_rational(p, q))) > p:
                failures.append((p, q))
    _report(7, not failures, f"coefficient sum <= p over {pairs} coprime pairs p <= 500")
    assert not failures


def test_08_roundtrip_random_rationals():
    rng = random.Random(20260810)
    failures = 0
    for _ in range(10_000):
        r = make_rational(rng.randint(0, 10**9), rng.randint(1, 10**9))
        cf = cf_expand(r)
        if cf_value(cf) != r:
            failures += 1
        if len(cf) > 1 and cf.coefficients[-1] == 1:
            failures += 1
    _report(8, failures == 0,
            "10,000 seeded random reduced rationals <= 1e9: expand/evaluate identity, canonical tails")
    assert failures == 0


def test_09_q3_closed_form_coherence_to_1000():
    failures = []
    count = 0
    for p in range(5, 1001, 2):
        if p % 3 == 0:
            continue
        count += 1
        form, closed = q3_closed_form(p)
        general = crosscap(TorusKnot(p, 3))
        sign = q3_congruence_selector(p)
        branch = bredon_wood_N(3 * p + sign, p * p)
        if form.p != p or closed != general or branch.as_integer() != general:
            failures.append(p)
    _report(9, not failures,
            f"{count} values of p <= 1000: closed form = general pipeline, selected branch attains min")
    assert not failures


def test_10_parallel_determinism_byte_identical(tmp_path):
    # one walk feeds both outputs at any worker count; --workers spreads a report's walk
    # tasks, and a CSV's band tasks once it has two bands (not at max_p 100)
    contents, csvs = [], []
    for workers in (1, 2, 8):
        for fmt, outputs in (("json", contents), ("csv", csvs)):
            path = tmp_path / f"out_w{workers}.{fmt}"
            proc = _cli("verify", "--max-p", "100", "--workers", str(workers), f"--{fmt}", str(path))
            assert proc.returncode == 0
            outputs.append(path.read_bytes())
    ok = contents[0] == contents[1] == contents[2] and csvs[0] == csvs[1] == csvs[2]
    report = json.loads(contents[0])
    _report(10, ok, f"verify --max-p 100 with workers 1/2/8: "
                    f"{len(contents[0])}-byte reports and {len(csvs[0])}-byte CSVs identical, "
                    f"{report['knots_checked']} knots")
    assert contents[0] == contents[1] == contents[2]
    assert csvs[0] == csvs[1] == csvs[2]
