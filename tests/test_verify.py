"""Tests for the sweep harness: enumeration, checks, aggregation, determinism."""

from __future__ import annotations

import json
from dataclasses import replace
from math import gcd

import pytest

from crosscap import (
    CHECK_NAMES,
    MAX_SWEEP_P,
    BoundCheckRecord,
    SweepCapError,
    SweepConfig,
    TorusKnot,
    VerificationReport,
    check_knot,
    enumerate_coprime,
    invariants,
    report_as_dict,
    run_verification,
    serialize_report,
)
from crosscap.verify import _blocks, iter_checked, summarize


def phi_sieve(n: int) -> list[int]:
    """Independent Euler-totient table for the pair-count oracle."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


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
        with pytest.raises(ValueError):
            list(enumerate_coprime(2))
        with pytest.raises(SweepCapError):
            list(enumerate_coprime(MAX_SWEEP_P + 1))


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(max_p=2)
        with pytest.raises(ValueError):
            SweepConfig(max_p=10, workers=0)
        with pytest.raises(ValueError):
            SweepConfig(max_p=10, checks=frozenset({"thm1", "nope"}))
        with pytest.raises(SweepCapError):
            SweepConfig(max_p=MAX_SWEEP_P + 1)

    def test_defaults(self):
        config = SweepConfig(max_p=10)
        assert config.workers == 1
        assert config.checks == frozenset(CHECK_NAMES)


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

    def test_workers_do_not_change_the_report(self):
        reports = [
            run_verification(SweepConfig(max_p=60, workers=w)) for w in (1, 2, 5)
        ]
        config = SweepConfig(max_p=60)
        assert reports[0] == reports[1] == reports[2] == summarize(config, iter_checked(config))
        texts = {serialize_report(r) for r in reports}
        assert len(texts) == 1

    def test_checks_echoed_sorted(self):
        report = run_verification(SweepConfig(max_p=5, checks=frozenset({"thm2", "thm1"})))
        assert report.checks == ("thm1", "thm2")

    def test_sweep_300_clean_with_family_hits(self):
        report = run_verification(SweepConfig(max_p=300, workers=4))
        assert report.knots_checked == 27098
        assert report.violations == ()
        assert report.lemma_failures == ()
        hits = {(k.p, k.q) for k in report.sharpness_hits}
        assert {(6 * n - 2, 3) for n in range(1, 51)} <= hits


class TestSummarize:
    def test_fold_lists_findings_in_order_and_keeps_first_max_gap(self):
        # the shipped checks find nothing, so doctor two records and append a
        # later knot that ties the largest gap
        config = SweepConfig(max_p=12)
        records = list(iter_checked(config))
        lemma_only = BoundCheckRecord(records[3].record, frozenset({"lemma2"}), frozenset())
        mixed = BoundCheckRecord(
            records[9].record, frozenset({"thm1", "lemma9", "lemma2"}), frozenset({"thm2"})
        )
        records[3], records[9] = lemma_only, mixed
        best = max((c.record for c in records), key=lambda rec: rec.gap)
        tie = replace(best, knot=TorusKnot(13, 12))
        records.append(BoundCheckRecord(tie, frozenset(), frozenset()))

        report = summarize(config, records)
        assert report.knots_checked == len(records)
        assert report.violations == (lemma_only, mixed)
        assert report.lemma_failures == (
            (lemma_only.record.knot, ("lemma2",)),
            (mixed.record.knot, ("lemma2", "lemma9")),
        )
        assert report.sharpness_hits == tuple(
            c.record.knot for c in records if {"thm1", "thm2"} & c.equality_hits
        )
        assert report.max_gap_witness is best


class TestBlocks:
    def test_partition_covers_range_contiguously(self):
        for max_p, workers in [(20, 3), (5, 100), (300, 8), (3, 1)]:
            blocks = _blocks(max_p, workers)
            flat = [p for lo, hi in blocks for p in range(lo, hi + 1)]
            assert flat == list(range(3, max_p + 1))
            assert len(blocks) <= workers
            spans = [hi - lo + 1 for lo, hi in blocks]
            assert max(spans) - min(spans) <= 1


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
