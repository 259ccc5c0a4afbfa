"""Unit tests for knot normalization, invariants, bounds, and witness families."""

from __future__ import annotations

import pickle
from dataclasses import replace
from math import gcd

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from crosscap import (
    UNKNOT,
    Bounds,
    HalfInteger,
    IntegralityError,
    InvariantRecord,
    Parity,
    Q3Form,
    TorusKnot,
    Unknot,
    bounds_for,
    bredon_wood_N,
    check_knot,
    crosscap,
    crossing_number,
    genus,
    invariants,
    mobius_family,
    normalize,
    q3_closed_form,
    q3_congruence_selector,
    sharp_family,
)
from crosscap.continued_fractions import euclid, lemma9_lists, skip_total
from crosscap.torus_knots import crosscap_from
from test_continued_fractions import check_frozen_value

# The ten smallest odd knots handled individually in the source analysis,
# with crossing number, crosscap number, and genus.  Note (17,9): the
# published table gives genus 72; its own n = 136 implies 2g = n - q + 1 = 128,
# so g = 64, as (p-1)(q-1)/2 also gives.  tests/test_acceptance.py (criterion
# 2) pins the same value and checks 2g = n - q + 1 on every row.
ODD_KNOT_DATA = [
    ((17, 9), 136, 5, 64),
    ((13, 9), 104, 4, 48),
    ((11, 9), 88, 5, 40),
    ((13, 7), 78, 4, 36),
    ((11, 7), 66, 3, 30),
    ((9, 7), 54, 4, 24),
    ((13, 5), 52, 3, 24),
    ((11, 5), 44, 3, 20),
    ((9, 5), 36, 3, 16),
    ((7, 5), 28, 3, 12),
]


def coprime_pairs(max_p):
    for p in range(3, max_p + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:
                yield p, q


class TestNormalize:
    def test_reorders(self):
        assert normalize(3, 5) == TorusKnot(5, 3)
        assert normalize(5, 3) == TorusKnot(5, 3)

    def test_unknot_cases(self):
        assert normalize(7, 1) == UNKNOT
        assert normalize(1, 7) == UNKNOT
        assert normalize(1, 1) == UNKNOT

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="not coprime"):
            normalize(6, 4)
        with pytest.raises(ValueError, match="not coprime"):
            normalize(4, 4)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            normalize(0, 3)
        with pytest.raises(ValueError, match="positive"):
            normalize(5, -2)

    def test_torus_knot_validation(self):
        with pytest.raises(ValueError):
            TorusKnot(3, 3)
        with pytest.raises(ValueError):
            TorusKnot(2, 3)
        with pytest.raises(ValueError):
            TorusKnot(9, 6)

    def test_parity(self):
        assert TorusKnot(5, 2).parity is Parity.EVEN
        assert TorusKnot(4, 3).parity is Parity.EVEN
        assert TorusKnot(7, 5).parity is Parity.ODD


class TestGenusAndCrossing:
    def test_genus_values(self):
        assert genus(TorusKnot(7, 5)) == 12
        assert genus(TorusKnot(17, 9)) == 64  # (17-1)(9-1)/2

    def test_genus_two_strand_family(self):
        for n in range(1, 30):
            assert genus(TorusKnot(2 * n + 1, 2)) == n

    def test_crossing_values(self):
        assert crossing_number(TorusKnot(17, 9)) == 136
        assert crossing_number(TorusKnot(7, 5)) == 28

    def test_crossing_sharp_family(self):
        for n in range(1, 30):
            assert crossing_number(TorusKnot(6 * n - 2, 3)) == 12 * n - 4


class TestCrosscap:
    def test_small_knots(self):
        assert crosscap(TorusKnot(3, 2)) == 1
        assert crosscap(TorusKnot(7, 5)) == 3
        assert crosscap(TorusKnot(11, 9)) == 5
        # even case, expansion 4/3 = [1, 3]: 1 + 3 -> total 4 -> N = 2
        assert crosscap(TorusKnot(4, 3)) == 2

    def test_unknot(self):
        assert crosscap(UNKNOT) == 0

    def test_even_knot_argument_order(self):
        # the even parameter must go first: N(2,3) = 1 is the trefoil's
        # crosscap, while N(3,2) = 3/2 is not even an integer
        assert crosscap(TorusKnot(3, 2)) == bredon_wood_N(2, 3).as_integer()
        assert not bredon_wood_N(3, 2).is_integral

    @given(st.integers(2, 5 * 10**11), st.integers(0, 10**9))
    @example(3, 10**9)  # (7, 5)
    @example(6, 750_000_000)  # (13, 9)
    @example(5, 0)  # (11, 3)
    @example(12, 200_000_000)  # (25, 7)
    @example(10**6, 700_000_000)  # (2000001, 1399999): 1399999/2000001 = [0, 1, 2, 3, ...]
    @example(10**6 + 1, 900_000_000)  # (2000003, 1800001): [0, 1, 8, 1, ...]
    @example(5 * 10**8 + 7, 800_000_000)  # (1000000015, 800000011): [0, 1, 3, 1, ...]
    def test_odd_knot_is_min_of_both_branches(self, half_p, u):
        # q/p is u / 10**9 to within 2/p, so q/p spreads over (0, 1) at any p
        p, q = 2 * half_p + 1, 2 * (1 + (half_p - 2) * u // 10**9) + 1  # odd, 3 <= q < p
        assume(gcd(p, q) == 1)
        k = TorusKnot(p, q)
        n_minus = bredon_wood_N(p * q - 1, p * p)
        n_plus = bredon_wood_N(p * q + 1, p * p)
        assert crosscap(k) == min(n_minus, n_plus).as_integer()
        # the one-pass totals against the rule run over both explicit lists
        coeffs = euclid(q, p)
        assert crosscap_from(p, q, coeffs) == min(map(skip_total, lemma9_lists(coeffs))) // 2

    @given(st.integers(2, 5 * 10**11 - 1), st.integers(0, 5 * 10**11))
    @example(2, 0)  # (5, 3): 3/5 = [0, 1, 1, 2]
    @example(3, 0)  # (7, 5): [0, 1, 2, 2]
    @example(5, 0)  # (11, 7): [0, 1, 1, 1, 3]
    @example(6, 1)  # (13, 9): [0, 1, 2, 4]
    def test_odd_knot_with_a1_one_matches_canonical_branches(self, half_p, j):
        # q > p/2 makes a1 = 1, so both lemma-9 lists crosscap() reads end in
        # an unmerged 1; bredon_wood_N reads Euclid's canonical expansions
        p = 2 * half_p + 1
        lo = (p + 2) // 4  # 2 * lo + 1 is the least odd q above p/2
        q = 2 * (lo + j % (half_p - lo)) + 1
        assume(gcd(p, q) == 1)
        assert p < 2 * q < 2 * p
        n_minus = bredon_wood_N(p * q - 1, p * p)
        n_plus = bredon_wood_N(p * q + 1, p * p)
        assert crosscap(TorusKnot(p, q)) == min(n_minus, n_plus).as_integer()

    def test_odd_crosscap_from_is_the_least_explicit_total_to_400(self):
        # the one-pass totals against the rule run over both explicit lists
        for p, q in coprime_pairs(400):
            if p & q & 1:
                coeffs = euclid(q, p)
                want = min(map(skip_total, lemma9_lists(coeffs))) // 2
                assert crosscap_from(p, q, coeffs) == want, (p, q)

    def test_even_crosscap_from_is_half_the_skip_total_to_400(self):
        # N(q, p) is the total of [0, a1, ..., an] when p is odd, N(p, q) that
        # of the slice [a1, ..., an] when p is even, which crosscap_from reads
        # from the whole list by starting the rule in its skip state
        checked = 0
        for p, q in coprime_pairs(400):
            if not p & q & 1:
                coeffs = euclid(q, p)
                want = skip_total(coeffs if p & 1 else coeffs[1:]) // 2
                assert crosscap_from(p, q, coeffs) == want, (p, q)
                checked += 1
        assert checked == 32_295  # every even knot with p <= 400

    def test_every_consumed_total_is_even_in_range(self):
        # empirical integrality invariant: no knot in range raises
        for p, q in coprime_pairs(60):
            crosscap(TorusKnot(p, q))

    def test_integrality_error_message(self):
        err = IntegralityError(TorusKnot(5, 3), HalfInteger(7))
        assert "(5,3)" in str(err)
        assert "7/2" in str(err)

    def test_integrality_error_survives_pickling(self):
        # a pool worker's error reaches the parent through pickle
        err = IntegralityError(TorusKnot(5, 3), HalfInteger(7))
        copy = pickle.loads(pickle.dumps(err))
        assert type(copy) is IntegralityError
        assert copy.knot == TorusKnot(5, 3)
        assert copy.value == HalfInteger(7)
        assert str(copy) == str(err)


class TestBounds:
    def test_worked_example(self):
        b = bounds_for(12, 28)
        assert b == Bounds(clark=25, murakami_yasuhara=14, thm1=3, thm2=3)

    def test_zero_inputs(self):
        assert bounds_for(0, 0) == Bounds(clark=1, murakami_yasuhara=0, thm1=1, thm2=1)

    def test_sharp_family_closed_form(self):
        for n in range(1, 40):
            b = bounds_for(6 * n - 3, 12 * n - 4)
            assert b.thm1 == n + 1
            assert b.thm2 == n + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bounds_for(-1, 0)

    @given(st.integers(3, 400), st.integers(2, 399))
    def test_new_bounds_improve_general_ones(self, p, q):
        assume(q < p and gcd(p, q) == 1)
        b = bounds_for(genus(TorusKnot(p, q)), crossing_number(TorusKnot(p, q)))
        assert b.thm1 <= b.clark
        assert b.thm2 <= b.murakami_yasuhara


class TestQ3:
    def test_closed_form_examples(self):
        assert q3_closed_form(7) == (Q3Form(1, 1), 2)
        assert q3_closed_form(5) == (Q3Form(1, -1), 2)
        assert q3_closed_form(13) == (Q3Form(2, 1), 3)

    def test_closed_form_matches_general_pipeline(self):
        _, c = q3_closed_form(13)
        assert c == crosscap(TorusKnot(13, 3))

    def test_closed_form_rejects_bad_p(self):
        for bad in (3, 4, 9, 15, 2):
            with pytest.raises(ValueError):
                q3_closed_form(bad)

    def test_q3form_reconstructs_p(self):
        assert Q3Form(1, 1).p == 7
        assert Q3Form(1, -1).p == 5
        with pytest.raises(ValueError):
            Q3Form(1, 2)
        with pytest.raises(ValueError):
            Q3Form(0, 1)

    def test_selector_examples(self):
        assert q3_congruence_selector(7) == -1
        assert q3_congruence_selector(5) == 1
        assert q3_congruence_selector(11) == 1

    def test_selector_against_brute_force(self):
        for p in range(5, 200, 2):
            if p % 3 == 0:
                continue
            solutions = [x for x in range(1, p) if (3 * x) % p == p - 1]
            assert len(solutions) == 1
            expected = -1 if solutions[0] % 2 == 0 else 1
            assert q3_congruence_selector(p) == expected

    def test_selected_branch_attains_min(self):
        for p in range(5, 300, 2):
            if p % 3 == 0:
                continue
            sign = q3_congruence_selector(p)
            branch = bredon_wood_N(3 * p + sign, p * p)
            assert branch.as_integer() == crosscap(TorusKnot(p, 3))


class TestFamilies:
    def test_mobius_small(self):
        knot, expected = mobius_family(1)
        assert knot == TorusKnot(3, 2)
        assert (expected.genus, expected.crosscap, expected.gap) == (1, 1, 0)
        knot, expected = mobius_family(2)
        assert knot == TorusKnot(5, 2)
        assert (expected.genus, expected.crosscap, expected.gap) == (2, 1, 1)

    def test_mobius_matches_pipeline(self):
        for n in (1, 2, 3, 7, 20, 50):
            knot, expected = mobius_family(n)
            assert invariants(knot) == expected

    def test_sharp_small(self):
        knot, expected = sharp_family(1)
        assert knot == TorusKnot(4, 3)
        assert (expected.genus, expected.crossing, expected.crosscap) == (3, 8, 2)
        knot, expected = sharp_family(2)
        assert knot == TorusKnot(10, 3)
        assert (expected.genus, expected.crossing, expected.crosscap) == (9, 20, 3)

    def test_sharp_matches_pipeline_with_tight_bounds(self):
        for n in (1, 2, 3, 10, 25):
            knot, expected = sharp_family(n)
            computed = invariants(knot)
            assert computed == expected
            assert computed.bounds.thm1 == computed.bounds.thm2 == computed.crosscap == n + 1

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            mobius_family(0)
        with pytest.raises(ValueError):
            sharp_family(-3)


class TestInvariants:
    @pytest.mark.parametrize("pq,crossing,cc,g", ODD_KNOT_DATA)
    def test_odd_knot_reference_data(self, pq, crossing, cc, g):
        rec = invariants(TorusKnot(*pq))
        assert rec.crossing == crossing
        assert rec.crosscap == cc
        assert rec.genus == g
        assert rec.gap == g - cc
        assert rec.parity is Parity.ODD

    def test_composed_record(self):
        rec = invariants(TorusKnot(13, 9))
        assert (rec.genus, rec.crossing, rec.crosscap) == (48, 104, 4)
        assert rec.bounds == bounds_for(48, 104)
        assert rec.gap == 44

    def test_unknot_record_all_zero(self):
        rec = invariants(UNKNOT)
        assert isinstance(rec.knot, Unknot)
        assert rec.parity is None
        assert (rec.genus, rec.crossing, rec.crosscap, rec.gap) == (0, 0, 0, 0)
        assert rec.bounds == Bounds(0, 0, 0, 0)

    def test_as_dict_wire_order(self):
        rec = invariants(TorusKnot(7, 5))
        assert list(rec.as_dict()) == [
            "p", "q", "parity", "genus", "crossing", "crosscap",
            "bound_clark", "bound_my", "bound_thm1", "bound_thm2", "gap",
        ]
        assert rec.as_dict() == {
            "p": 7, "q": 5, "parity": "odd", "genus": 12, "crossing": 28,
            "crosscap": 3, "bound_clark": 25, "bound_my": 14,
            "bound_thm1": 3, "bound_thm2": 3, "gap": 9,
        }

    def test_as_dict_unknot(self):
        fields = invariants(UNKNOT).as_dict()
        assert fields["parity"] == "unknot"
        assert fields["p"] == 0 and fields["q"] == 0
        assert all(fields[k] == 0 for k in fields if k != "parity")

    def test_crosscap_below_all_bounds_in_range(self):
        for p, q in coprime_pairs(80):
            rec = invariants(TorusKnot(p, q))
            assert rec.crosscap <= rec.bounds.thm1
            assert rec.crosscap <= rec.bounds.thm2
            assert rec.crosscap <= rec.bounds.clark
            assert rec.crosscap <= rec.bounds.murakami_yasuhara
            assert rec.gap >= 0

    def test_equals_the_sweeps_record_to_150(self):
        # verify._record assembles the same record for the sweep's report
        for p, q in coprime_pairs(150):
            k = TorusKnot(p, q)
            assert invariants(k) == check_knot(k).record

    @given(st.integers(2, 5 * 10**11), st.integers(0, 1), st.integers(0, 10**9))
    @example(3, 1, 750_000_000)  # (7, 5)
    @example(4, 0, 200_000_000)  # (8, 3)
    @example(5 * 10**11, 1, 10**9)  # (10**12 + 1, 10**12)
    def test_equals_the_record_of_the_public_functions(self, half_p, odd, u):
        p = 2 * half_p + odd
        q = 2 + (p - 3) * u // 10**9  # 2 <= q < p
        assume(gcd(p, q) == 1)
        k = TorusKnot(p, q)
        g, n, c = genus(k), crossing_number(k), crosscap(k)
        assert invariants(k) == InvariantRecord(k, k.parity, g, n, c, bounds_for(g, n), g - c)


class TestValueTypes:
    @pytest.mark.parametrize(
        "value,text,names,change,changed",
        [
            pytest.param(
                TorusKnot(5, 3), "TorusKnot(p=5, q=3)", ("p", "q"), {"q": 2}, TorusKnot(5, 2),
                id="TorusKnot",
            ),
            pytest.param(
                Bounds(25, 14, 3, 3),
                "Bounds(clark=25, murakami_yasuhara=14, thm1=3, thm2=3)",
                ("clark", "murakami_yasuhara", "thm1", "thm2"),
                {"thm2": 4},
                Bounds(25, 14, 3, 4),
                id="Bounds",
            ),
            pytest.param(
                invariants(TorusKnot(7, 5)),
                "InvariantRecord(knot=TorusKnot(p=7, q=5), parity=<Parity.ODD: 'odd'>,"
                " genus=12, crossing=28, crosscap=3,"
                " bounds=Bounds(clark=25, murakami_yasuhara=14, thm1=3, thm2=3), gap=9)",
                ("knot", "parity", "genus", "crossing", "crosscap", "bounds", "gap"),
                {"gap": 10},
                InvariantRecord(TorusKnot(7, 5), Parity.ODD, 12, 28, 3, Bounds(25, 14, 3, 3), 10),
                id="InvariantRecord",
            ),
            pytest.param(
                Q3Form(1, 1), "Q3Form(m=1, sign=1)", ("m", "sign"), {"sign": -1}, Q3Form(1, -1),
                id="Q3Form",
            ),
        ],
    )
    def test_frozen_dataclass_contract(self, value, text, names, change, changed):
        check_frozen_value(value, text, names, change, changed)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: TorusKnot(6, 4), "(6, 4) is not coprime: a link, not a knot"),
            (lambda: TorusKnot(2, 3), "need p > q >= 2, got (2, 3)"),
            (lambda: replace(TorusKnot(5, 3), q=5), "(5, 5) is not coprime: a link, not a knot"),
            (lambda: Q3Form(1, 0), "sign must be +1 or -1, got 0"),
            (lambda: Q3Form(0, 1), "m must be positive, got 0"),
            (lambda: replace(Q3Form(1, 1), m=0), "m must be positive, got 0"),
        ],
    )
    def test_constructor_messages(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message
