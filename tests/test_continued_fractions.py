"""Unit and property tests for rationals, expansions, and the skip sum.

The independent oracle throughout is fractions.Fraction: the library itself
never touches it, so evaluating a coefficient sequence with Fraction
arithmetic is a genuinely separate route to the same value.
"""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crosscap import (
    ContinuedFraction,
    HalfInteger,
    Rational,
    bredon_wood_N,
    cf_canonicalize,
    cf_expand,
    cf_value,
    coefficient_sum,
    lemma9_expansions,
    make_rational,
    skipped_sum,
)
from crosscap.continued_fractions import (
    NEXT,
    ODD,
    SKIP,
    TAKE,
    euclid,
    lemma9_lists,
    lemma9_totals,
    skip_run,
    skip_total,
)


def fraction_value(coeffs) -> Fraction:
    """Independent evaluation of a coefficient sequence, from the back."""
    acc = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        acc = a + Fraction(1) / acc
    return acc


def as_fraction(r: Rational) -> Fraction:
    return Fraction(r.numerator, r.denominator)


@st.composite
def canonical_cfs(draw):
    length = draw(st.integers(1, 8))
    a0 = draw(st.integers(0, 20))
    if length == 1:
        return ContinuedFraction((a0,))
    middle = [draw(st.integers(1, 20)) for _ in range(length - 2)]
    last = draw(st.integers(2, 20))
    return ContinuedFraction(tuple([a0] + middle + [last]))


@st.composite
def raw_coeff_lists(draw):
    length = draw(st.integers(1, 8))
    a0 = draw(st.integers(0, 20))
    rest = [draw(st.integers(1, 20)) for _ in range(length - 1)]
    return [a0] + rest


def table_total(table, coeffs) -> int:
    """The skip total of `coeffs` by stepping a table shaped as `NEXT`, as the
    sweep's walk does: every state but SKIP adds the coefficient."""
    total, state = 0, TAKE
    for a in coeffs:
        if state != SKIP:
            total += a
        state = table[a & 1][state]
    return total


def skip_rule_lists():
    """Every list [a0, a1, ..., ak] of length 1 to 7 with a0 in 0..4 and the
    rest in 1..4: the lists [0, a1, ...] the walk steps for q/p, and the lists
    [a1, ...] it steps for p/q."""
    for length in range(1, 8):
        for head in range(5):
            for rest in product(range(1, 5), repeat=length - 1):
                yield [head, *rest]


def check_frozen_value(value, text, names, change, changed):
    """The frozen-dataclass contract of a value type: its fields in order,
    repr, equality and hash of an equal copy, pickling, `replace` with
    `change` giving `changed`, and FrozenInstanceError on assigning or
    deleting any field."""
    assert tuple(f.name for f in fields(value)) == names
    assert repr(value) == text
    copy = type(value)(**{name: getattr(value, name) for name in names})
    assert copy is not value and copy == value and hash(copy) == hash(value)
    assert pickle.loads(pickle.dumps(value)) == value
    assert replace(value, **change) == changed
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert value == copy


class TestRational:
    def test_make_rational_reduces(self):
        assert make_rational(6, 4) == Rational(3, 2)
        assert make_rational(0, 7) == Rational(0, 1)
        assert make_rational(34, 49) == Rational(34, 49)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            make_rational(1, 0)
        with pytest.raises(ValueError, match="zero denominator"):
            make_rational(0, 0)

    def test_negative_input(self):
        with pytest.raises(ValueError, match="negative"):
            make_rational(-1, 2)
        with pytest.raises(ValueError, match="negative"):
            make_rational(1, -2)

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError, match="lowest terms"):
            Rational(3, 6)

    def test_constructor_rejects_negative(self):
        with pytest.raises(ValueError):
            Rational(-1, 2)
        with pytest.raises(ValueError):
            Rational(1, 0)

    def test_str(self):
        assert str(Rational(8, 3)) == "8/3"


class TestExpand:
    def test_worked_examples(self):
        assert cf_expand(make_rational(8, 3)).coefficients == (2, 1, 2)
        assert cf_expand(make_rational(34, 49)).coefficients == (0, 1, 2, 3, 1, 3)

    def test_integer_cases(self):
        assert cf_expand(make_rational(5, 1)).coefficients == (5,)
        assert cf_expand(make_rational(0, 1)).coefficients == (0,)
        assert cf_expand(make_rational(1, 1)).coefficients == (1,)

    def test_reciprocal(self):
        assert cf_expand(make_rational(1, 2)).coefficients == (0, 2)
        assert cf_expand(make_rational(2, 3)).coefficients == (0, 1, 2)

    @given(st.integers(0, 10**12), st.integers(1, 10**12))
    def test_roundtrip(self, num, den):
        r = make_rational(num, den)
        assert cf_value(cf_expand(r)) == r

    @given(st.integers(0, 10**12), st.integers(1, 10**12))
    def test_canonical_no_trailing_one(self, num, den):
        coeffs = cf_expand(make_rational(num, den)).coefficients
        if len(coeffs) > 1:
            assert coeffs[-1] > 1

    @given(canonical_cfs())
    def test_uniqueness_expand_inverts_value(self, cf):
        assert cf_expand(cf_value(cf)) == cf


class TestValue:
    def test_worked_examples(self):
        assert cf_value(ContinuedFraction((2, 1, 2))) == Rational(8, 3)
        assert cf_value(ContinuedFraction((0, 2, 2, 4, 2))) == Rational(20, 49)
        assert cf_value(ContinuedFraction((7,))) == Rational(7, 1)

    def test_accepts_raw_non_canonical(self):
        assert cf_value([0, 1, 2, 3, 1, 2, 1]) == Rational(34, 49)
        assert cf_value([2, 1]) == Rational(3, 1)

    def test_empty_sequence(self):
        with pytest.raises(ValueError, match="empty"):
            cf_value([])

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError):
            cf_value([1, 0])
        with pytest.raises(ValueError):
            cf_value([-1, 2])

    @given(canonical_cfs())
    def test_matches_fraction_oracle(self, cf):
        assert as_fraction(cf_value(cf)) == fraction_value(cf.coefficients)


class TestCanonicalize:
    def test_trailing_one_merge(self):
        assert cf_canonicalize([0, 1, 2, 3, 1, 2, 1]).coefficients == (0, 1, 2, 3, 1, 3)
        assert cf_canonicalize([1, 1]).coefficients == (2,)
        assert cf_canonicalize([0, 1]).coefficients == (1,)

    def test_already_canonical_unchanged(self):
        assert cf_canonicalize([2, 1, 2]).coefficients == (2, 1, 2)
        assert cf_canonicalize([5]).coefficients == (5,)

    def test_agrees_with_expansion(self):
        # independent oracle: the canonical expansion of the same value
        merged = cf_canonicalize([0, 1, 2, 1, 3, 2, 1])
        assert merged == cf_expand(make_rational(36, 49))
        assert cf_value(merged) == Rational(36, 49)
        assert cf_value([0, 1, 2, 1, 3, 2, 1]) == Rational(36, 49)

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError):
            cf_canonicalize([0, 0, 2])
        with pytest.raises(ValueError):
            cf_canonicalize([])
        # validated before the merge, which would give the valid [1] and the
        # merely non-canonical [3, 1]: the error names the zero coefficient
        for raw in ([0, 0, 1], [3, 0, 1]):
            with pytest.raises(ValueError, match="a1 must be positive, got 0"):
                cf_canonicalize(raw)

    @given(raw_coeff_lists())
    def test_preserves_value(self, raw):
        assert as_fraction(cf_value(cf_canonicalize(raw))) == fraction_value(raw)

    def test_type_rejects_non_canonical(self):
        with pytest.raises(ValueError, match="canonical"):
            ContinuedFraction((2, 1, 1))


class TestSums:
    def test_coefficient_sum(self):
        assert coefficient_sum(ContinuedFraction((2, 1, 2))) == 5
        assert coefficient_sum(ContinuedFraction((5,))) == 5
        assert coefficient_sum(ContinuedFraction((0, 1, 2, 3, 1, 3))) == 10

    def test_skipped_sum_worked_examples(self):
        # 2 (even, skip) + 2 -> 4; the halved value 2 is N(8,3)
        assert skipped_sum(ContinuedFraction((2, 1, 2))) == 4
        # 0 (even, skip) + 2 (even, skip) + 1 + 3 -> 6
        assert skipped_sum(ContinuedFraction((0, 1, 2, 3, 1, 3))) == 6
        # 0 (even, skip) + 2 (even, skip) + 3 + 3 -> 8
        assert skipped_sum(ContinuedFraction((0, 1, 2, 1, 3, 3))) == 8
        # 1 + 1 (even, skip) + 2 (even, skip) + 7 -> 11
        assert skipped_sum(ContinuedFraction((1, 1, 5, 2, 9, 7))) == 11

    def test_skipped_sum_single_term(self):
        assert skipped_sum(ContinuedFraction((1,))) == 1
        assert skipped_sum(ContinuedFraction((0,))) == 0

    @given(canonical_cfs())
    def test_skipped_sum_at_most_plain_sum(self, cf):
        assert 0 <= skipped_sum(cf) <= coefficient_sum(cf)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_coefficient_sum_bounded_by_numerator(self, a, b):
        # for p > q >= 1 coprime, the coefficient sum of p/q is at most p
        p, q = max(a, b), min(a, b)
        g = gcd(p, q)
        p, q = p // g, q // g
        assume(p > q)
        assert coefficient_sum(cf_expand(make_rational(p, q))) <= p


@st.composite
def skip_rule_inputs(draw):
    """A list [a0, a1, ...] with a0 >= 0 and every later entry >= 1, as an
    expansion has."""
    return [draw(st.integers(0, 10**6)), *draw(st.lists(st.integers(1, 10**6), max_size=12))]


#: `skip_run`'s state (total parity, skip) of each state of `NEXT`.
RUN_STATES = {TAKE: (0, False), SKIP: (0, True), ODD: (1, False)}


class TestSkipRule:
    """`skip_run` states the rule as its sentence, with one boolean, and
    resumes from any state; `NEXT` is the same rule as the state table the
    sweep's walk steps."""

    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("state", [TAKE, SKIP, ODD])
    def test_next_is_one_step_of_the_rule(self, state, a):
        parity, skip = RUN_STATES[state]
        total, skip = skip_run([a], 10 + parity, skip)
        assert RUN_STATES[NEXT[a & 1][state]] == (total & 1, skip)
        # every state but SKIP adds the coefficient
        assert total == 10 + parity + (0 if state == SKIP else a)

    @given(skip_rule_inputs(), st.integers(0, 13))
    @example([0, 1, 1, 2], 1)  # the split falls after an addition that left the total even
    @example([3, 1, 2], 1)
    def test_a_run_resumes_from_where_another_stopped(self, coeffs, k):
        head, rest = coeffs[:k], coeffs[k:]
        assert skip_run(coeffs) == skip_run(rest, *skip_run(head))
        assert skip_total(coeffs) == skip_run(coeffs)[0]

    @given(skip_rule_inputs(), st.integers(0, 12))
    @example([0, 1, 2], 1)  # a1 skipped after the leading 0
    @example([1, 1, 2], 1)
    def test_raising_an_entry_by_2_adds_0_or_2(self, coeffs, i):
        # the rule sees an entry only through its parity, so the states stay
        # and the total gains 2 exactly where the entry was added
        i %= len(coeffs)
        raised = [a + 2 * (j == i) for j, a in enumerate(coeffs)]
        taken = not skip_run(coeffs[:i])[1]
        assert skip_total(raised) - skip_total(coeffs) == 2 * taken

    def test_next_steps_the_sentence(self):
        lists = list(skip_rule_lists())
        assert len(lists) == 5 * (4**7 - 1) // 3
        for coeffs in lists:
            assert table_total(NEXT, coeffs) == skip_total(coeffs), coeffs

    def test_every_one_entry_change_to_next_breaks_the_sentence(self):
        # the comparison above has teeth: a table with any one entry changed
        # disagrees with the sentence on some list it checks
        for parity, state in product((0, 1), (TAKE, SKIP, ODD)):
            for wrong in {TAKE, SKIP, ODD} - {NEXT[parity][state]}:
                row = list(NEXT[parity])
                row[state] = wrong
                table = tuple(tuple(row) if i == parity else NEXT[i] for i in (0, 1))
                assert any(
                    table_total(table, coeffs) != skip_total(coeffs)
                    for coeffs in skip_rule_lists()
                ), (parity, state, wrong)


class TestLemma9Totals:
    """`lemma9_totals`, the skip totals of both Lemma 9 lists in one pass,
    against the rule run over the explicit `lemma9_lists`."""

    def test_equals_the_explicit_lists_to_400(self):
        checked = 0
        for p in range(3, 401):
            for q in range(2, p):
                if gcd(p, q) == 1:
                    coeffs = euclid(q, p)
                    totals = lemma9_totals(coeffs)
                    assert totals == tuple(map(skip_total, lemma9_lists(coeffs))), (p, q)
                    assert totals[0] % 2 == totals[1] % 2
                    checked += 1
        assert checked == 48_278  # every knot with p <= 400

    @settings(max_examples=300)
    @given(st.integers(3, 10**12), st.integers(0, 10**9))
    @example(7, 800_000_000)  # (7, 5): 5/7 = [0, 1, 2, 2], a1 = 1 unmerged
    @example(5, 500_000_000)  # (5, 3): [0, 1, 1, 2]
    @example(31, 607_142_858)  # (31, 19): [0, 1, 1, 1, 1, 2, 2]
    @example(10**12, 10**9)  # (10**12, 10**12 - 1): [0, 1, 10**12 - 1]
    def test_equals_the_explicit_lists_to_10_to_the_12(self, p, u):
        q = 2 + (p - 3) * u // 10**9  # 2 <= q < p; q > p/2 leaves a trailing a1 = 1
        assume(gcd(p, q) == 1)
        coeffs = euclid(q, p)
        assert lemma9_totals(coeffs) == tuple(map(skip_total, lemma9_lists(coeffs)))

    @given(st.lists(st.integers(1, 10**6), min_size=2, max_size=12))
    @example([1, 2])  # 2/3
    @example([1, 1, 1, 2])
    def test_equals_the_explicit_lists_for_any_coefficients(self, rest):
        # the pair (an + 1, an - 1) has one parity whatever the entries are
        coeffs = [0, *rest]
        assert lemma9_totals(coeffs) == tuple(map(skip_total, lemma9_lists(coeffs)))

    @given(st.lists(st.integers(1, 10**6), min_size=2, max_size=12))
    @example([1, 2])  # a1 is the whole head after the leading 0, and the whole tail
    @example([2, 3])
    @example([1, 1, 1, 2])
    def test_raising_a1_by_2_adds_0_2_or_4(self, rest):
        # a1 is in the head and the tail of both lists: the class step p -> p + 2q
        coeffs = [0, *rest]
        raised = [0, rest[0] + 2, *rest[1:]]
        for before, after in zip(lemma9_totals(coeffs), lemma9_totals(raised)):
            assert after - before in (0, 2, 4)


class TestHalfInteger:
    def test_rendering(self):
        assert str(HalfInteger(4)) == "2"
        assert str(HalfInteger(3)) == "3/2"

    def test_integrality(self):
        assert HalfInteger(6).is_integral
        assert HalfInteger(6).as_integer() == 3
        assert not HalfInteger(7).is_integral
        with pytest.raises(ValueError, match="not an integer"):
            HalfInteger(7).as_integer()

    def test_ordering(self):
        assert HalfInteger(3) < HalfInteger(4)
        assert min(HalfInteger(8), HalfInteger(5)) == HalfInteger(5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HalfInteger(-1)


class TestBredonWoodN:
    def test_worked_examples(self):
        assert bredon_wood_N(8, 3) == HalfInteger(4)
        assert bredon_wood_N(34, 49) == HalfInteger(6)
        assert bredon_wood_N(2, 3) == HalfInteger(2)

    def test_half_integer_case(self):
        n = bredon_wood_N(3, 2)
        assert not n.is_integral
        assert str(n) == "3/2"

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            bredon_wood_N(6, 4)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            bredon_wood_N(0, 3)
        with pytest.raises(ValueError, match="positive"):
            bredon_wood_N(3, 0)


class TestLemma9Expansions:
    def test_worked_example_5_over_7(self):
        cf_minus, cf_plus = lemma9_expansions(cf_expand(make_rational(5, 7)))
        assert cf_minus.coefficients == (0, 1, 2, 3, 1, 3)
        assert cf_plus.coefficients == (0, 1, 2, 1, 3, 3)
        assert cf_value(cf_minus) == Rational(34, 49)
        assert cf_value(cf_plus) == Rational(36, 49)

    def test_worked_example_3_over_7(self):
        cf_minus, cf_plus = lemma9_expansions(cf_expand(make_rational(3, 7)))
        assert cf_minus.coefficients == (0, 2, 2, 4, 2)
        assert cf_value(cf_minus) == Rational(20, 49)
        assert cf_value(cf_plus) == Rational(22, 49)

    def test_values_for_3_over_5(self):
        cf_minus, cf_plus = lemma9_expansions(cf_expand(make_rational(3, 5)))
        assert cf_value(cf_minus) == Rational(14, 25)
        assert cf_value(cf_plus) == Rational(16, 25)

    def test_rejects_wrong_orientation(self):
        with pytest.raises(ValueError, match="leading coefficient 0"):
            lemma9_expansions(cf_expand(make_rational(7, 5)))

    def test_rejects_unit_numerator(self):
        with pytest.raises(ValueError, match="q must exceed 1"):
            lemma9_expansions(cf_expand(make_rational(1, 7)))

    @settings(max_examples=200)
    @given(st.integers(3, 3000), st.integers(2, 2999))
    def test_soundness_random_pairs(self, p, q):
        assume(q < p and gcd(p, q) == 1)
        cf_minus, cf_plus = lemma9_expansions(cf_expand(make_rational(q, p)))
        assert cf_value(cf_minus) == make_rational(p * q - 1, p * p)
        assert cf_value(cf_plus) == make_rational(p * q + 1, p * p)


class TestValueTypes:
    @pytest.mark.parametrize(
        "value,text,names,change,changed",
        [
            pytest.param(
                Rational(1, 2), "Rational(numerator=1, denominator=2)",
                ("numerator", "denominator"), {"denominator": 3}, Rational(1, 3),
                id="Rational",
            ),
            pytest.param(
                ContinuedFraction((0, 1, 2)), "ContinuedFraction(coefficients=(0, 1, 2))",
                ("coefficients",), {"coefficients": [0, 2]}, ContinuedFraction((0, 2)),
                id="ContinuedFraction",
            ),
            pytest.param(
                HalfInteger(5), "HalfInteger(doubled=5)", ("doubled",), {"doubled": 6},
                HalfInteger(6), id="HalfInteger",
            ),
        ],
    )
    def test_frozen_dataclass_contract(self, value, text, names, change, changed):
        check_frozen_value(value, text, names, change, changed)

    def test_half_integers_sort(self):
        values = [HalfInteger(d) for d in (7, 0, 4, 3)]
        assert sorted(values) == [HalfInteger(d) for d in (0, 3, 4, 7)]

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Rational(3, 0), "negative or zero denominator in 3/0"),
            (lambda: Rational(-1, 2), "negative numerator in -1/2"),
            (lambda: Rational(6, 4), "6/4 is not in lowest terms"),
            (lambda: replace(Rational(1, 2), numerator=2), "2/2 is not in lowest terms"),
            (lambda: ContinuedFraction([]), "empty coefficient sequence"),
            (lambda: ContinuedFraction([-1, 2]), "leading coefficient must be non-negative, got -1"),
            (lambda: ContinuedFraction([0, 2, 0, 3]), "coefficient a2 must be positive, got 0"),
            (lambda: ContinuedFraction([0, 2, 1]), "not canonical: trailing coefficient 1 in [0, 2, 1]"),
            (
                lambda: replace(ContinuedFraction((0, 2)), coefficients=(0, 2, 1)),
                "not canonical: trailing coefficient 1 in [0, 2, 1]",
            ),
            (lambda: HalfInteger(-1), "doubled value must be non-negative, got -1"),
        ],
    )
    def test_constructor_messages(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message
