"""Exact rational arithmetic and simple continued fractions.

Everything here is integer-exact: Python's arbitrary-precision ints mean
no intermediate can overflow or wrap, so values like (p*q - 1) / p**2 are
safe for any p the sweep cap admits.

The algorithms run on plain int lists (``euclid``, ``skip_run``,
``skip_total``, ``lemma9_totals``, ``lemma9_lists``, ``continuant``); the
typed functions below them validate their arguments and wrap the results,
so each algorithm exists once.  ``skip_run`` is the Bredon-Wood skip rule in
its own words, resumable from any state, and the module's only loop of it:
``skip_total`` runs it from the start, and ``lemma9_totals`` resumes it
around the middle pair to give both Lemma 9 skip totals of an odd knot in
one run over the expansion of q/p, so the crosscap number
(``torus_knots.crosscap_from``) takes that expansion alone and builds
neither list; for an even knot it runs the rule over the same expansion,
from the skip state when N(p, q) wants the leading 0 passed.  ``NEXT`` is
the same rule as a state table, for the sweep's walk, and the tests check
the table against ``skip_run``.

Each value type checks its arguments in its own ``__init__``, then writes
its fields with one update of the instance dict, the write the generated
frozen ``__init__`` makes one ``object.__setattr__`` per field.  The class
stays a frozen dataclass, which keeps its equality, hash, repr, ordering,
``replace`` and ``FrozenInstanceError`` on assignment.  So the public
constructors check every value they are given.  The module's own results
that are canonical by construction, ``cf_expand``'s Euclid expansion and
``cf_canonicalize``'s validated and merged list, are built by
``ContinuedFraction._from_canonical``, which writes the field with no
second check, as ``fractions.Fraction._from_coprime_ints`` does.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Rational:
    """A non-negative fraction in lowest terms.

    Construct through :func:`make_rational`, which reduces its arguments;
    the constructor is the only range check, and rejects anything not reduced.
    """

    numerator: int
    denominator: int

    def __init__(self, numerator: int, denominator: int) -> None:
        if denominator < 1:
            raise ValueError(f"negative or zero denominator in {numerator}/{denominator}")
        if numerator < 0:
            raise ValueError(f"negative numerator in {numerator}/{denominator}")
        if gcd(numerator, denominator) != 1:
            raise ValueError(f"{numerator}/{denominator} is not in lowest terms")
        self.__dict__.update(numerator=numerator, denominator=denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class ContinuedFraction:
    """Canonical coefficient sequence [a0, a1, ..., an] of a simple continued fraction.

    Canonical means a0 >= 0, every later coefficient is a positive integer,
    and the final coefficient exceeds 1 whenever the sequence has more than
    one term.  Under those rules every non-negative rational has exactly one
    expansion.
    """

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Sequence[int]) -> None:
        coeffs = tuple(coefficients)
        _validate_raw(coeffs)
        if len(coeffs) > 1 and coeffs[-1] == 1:
            raise ValueError(f"not canonical: trailing coefficient 1 in {list(coeffs)}")
        self.__dict__.update(coefficients=coeffs)

    @classmethod
    def _from_canonical(cls, coefficients: Sequence[int]) -> ContinuedFraction:
        """The expansion `coefficients`, which the caller has made canonical,
        with no check: only this module's builders of a canonical list call it."""
        self = object.__new__(cls)
        self.__dict__["coefficients"] = tuple(coefficients)
        return self

    def __iter__(self):
        return iter(self.coefficients)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in self.coefficients) + "]"


@dataclass(frozen=True, order=True)
class HalfInteger:
    """An exact multiple of one half, stored as its doubled value."""

    doubled: int

    def __init__(self, doubled: int) -> None:
        if doubled < 0:
            raise ValueError(f"doubled value must be non-negative, got {doubled}")
        self.__dict__.update(doubled=doubled)

    @property
    def is_integral(self) -> bool:
        return self.doubled % 2 == 0

    def as_integer(self) -> int:
        """The value as an int; raises if it is a strict half-integer."""
        if not self.is_integral:
            raise ValueError(f"{self} is not an integer")
        return self.doubled // 2

    def __str__(self) -> str:
        if self.is_integral:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


# --- plain-int kernel: no validation, no objects ------------------------------


def euclid(n: int, d: int) -> list[int]:
    """Coefficients of n/d (n >= 0, d >= 1) by the Euclidean algorithm."""
    coeffs = []
    while d:
        a, n, d = n // d, d, n % d
        coeffs.append(a)
    return coeffs


#: The skip rule's states, for the sweep's walk, which steps the rule by
#: `NEXT`: the total is even and the next coefficient is added (the start,
#: `skip_run`'s (even, False)); the total is even and the next coefficient
#: is skipped (even, True); the total is odd and the next coefficient is
#: added (odd, False).
TAKE, SKIP, ODD = 0, 1, 2
#: NEXT[a % 2][state]: the state after coefficient a, which every state but
#: SKIP adds to the total.
NEXT = ((SKIP, TAKE, ODD), (ODD, TAKE, SKIP))


def skip_run(coeffs: Sequence[int], total: int = 0, skip: bool = False) -> tuple[int, bool]:
    """The Bredon-Wood skip rule: after an addition that leaves the total
    even, skip the next coefficient.  Runs it over `coeffs` from the state
    (total, skip), the start by default, and returns the state after them,
    so a run resumes where another stopped.  The total is 2N, un-halved."""
    for a in coeffs:
        if skip:
            skip = False
        else:
            total += a
            skip = not total & 1
    return total, skip


def skip_total(coeffs: Sequence[int]) -> int:
    """The skip total of `coeffs`: :func:`skip_run` from the start."""
    return skip_run(coeffs)[0]


def lemma9_totals(coeffs: list[int]) -> tuple[int, int]:
    """The skip totals of both :func:`lemma9_lists` of the expansion
    [0, a1, ..., an] of q/p, n >= 2, (minus, plus), in one run of the rule
    and with neither list built.

    The rule runs over the up list, middle pair (an + 1, an - 1): the head,
    then the pair and the reversed tail resumed from the head's state.  The
    pair's two entries have one parity, so the down list, (an - 1, an + 1),
    passes through the same states, and its total is the up total less
    2 (take_x - take_y), where take_x and take_y say whether the rule added
    the pair's first and second entry.  So both totals have one parity.  The
    up list is the minus list when n is odd."""
    n = len(coeffs) - 1
    last = coeffs[n]
    total, skip = skip_run(coeffs[:n])
    # the pair's first entry is added unless skipped, its second unless the
    # first was added and left the total even
    take_x = not skip
    take_y = skip or (total + last + 1) & 1
    up = skip_run(coeffs[n - 1 : 0 : -1], *skip_run((last + 1, last - 1), total, skip))[0]
    down = up - 2 * (take_x - take_y)
    return (up, down) if n & 1 else (down, up)


def lemma9_lists(coeffs: list[int]) -> tuple[list[int], list[int]]:
    """Teragaito's expansions of (p*q - 1)/p^2 and (p*q + 1)/p^2 from the
    expansion [0, a1, ..., an] of q/p, n >= 2, as Lemma 9 states them: the
    final an becomes the pair (an + 1, an - 1) or (an - 1, an + 1), the first
    for the minus sign when n is odd, then a(n-1), ..., a1 follow.  Only
    :func:`lemma9_expansions` makes them canonical: a trailing a1 = 1 stays,
    which changes a skip total by 0 or 1, so a wrong total is odd and aborts."""
    n = len(coeffs) - 1
    last = coeffs[n]
    head = coeffs[:n]
    tail = coeffs[n - 1 : 0 : -1]
    up = head + [last + 1, last - 1] + tail
    down = head + [last - 1, last + 1] + tail
    return (up, down) if n % 2 else (down, up)


def continuant(coeffs: Sequence[int]) -> tuple[int, int]:
    """(numerator, denominator) of a coefficient sequence, always coprime."""
    num, den = coeffs[-1], 1
    for a in coeffs[-2::-1]:
        num, den = a * num + den, num
    return num, den


# --- typed API -----------------------------------------------------------------


def _validate_raw(coeffs: Sequence[int]) -> None:
    """Reject coefficient sequences that are not a simple continued fraction.
    The scan after the first coefficient keeps no index: the first one
    below 1 is named by its first occurrence from a1 on."""
    if len(coeffs) == 0:
        raise ValueError("empty coefficient sequence")
    if coeffs[0] < 0:
        raise ValueError(f"leading coefficient must be non-negative, got {coeffs[0]}")
    for a in coeffs[1:]:
        if a < 1:
            raise ValueError(f"coefficient a{coeffs.index(a, 1)} must be positive, got {a}")


def make_rational(numerator: int, denominator: int) -> Rational:
    """Reduce numerator/denominator to lowest terms; `Rational` checks the range."""
    g = gcd(numerator, denominator) or 1  # gcd(0, 0) == 0
    return Rational(numerator // g, denominator // g)


def cf_expand(r: Rational) -> ContinuedFraction:
    """Expand a rational by the Euclidean algorithm.

    The result is canonical by construction: the algorithm can only end
    with a coefficient of 1 when the whole expansion is the single term [1].
    """
    return ContinuedFraction._from_canonical(euclid(r.numerator, r.denominator))


def cf_value(cf: ContinuedFraction | Sequence[int]) -> Rational:
    """Evaluate a coefficient sequence to its exact rational value.

    Accepts raw (possibly non-canonical) sequences as well, since value
    preservation is exactly what the canonicalization step must be checked
    against.
    """
    coeffs = cf.coefficients if isinstance(cf, ContinuedFraction) else tuple(cf)
    _validate_raw(coeffs)
    return Rational(*continuant(coeffs))


def cf_canonicalize(coefficients: Sequence[int]) -> ContinuedFraction:
    """Merge a trailing 1 into its predecessor: [..., a, 1] -> [..., a + 1].

    This is the only way a simple continued fraction with positive
    coefficients can fail to be canonical, and the merge preserves the
    value because a + 1/1 = a + 1.  General re-normalization of arbitrary
    sequences is out of scope.  Validation comes first: the merge would
    turn [0, 0, 1] into the valid [1].  The merged list is canonical, so it
    is not checked again.
    """
    coeffs = list(coefficients)
    _validate_raw(coeffs)
    if len(coeffs) > 1 and coeffs[-1] == 1:
        coeffs.pop()
        coeffs[-1] += 1
    return ContinuedFraction._from_canonical(coeffs)


def coefficient_sum(cf: ContinuedFraction) -> int:
    """Plain sum of all coefficients."""
    return sum(cf.coefficients)


def skipped_sum(cf: ContinuedFraction) -> int:
    """The coefficients' sum by the Bredon-Wood skip rule (see :func:`skip_total`),
    un-halved: the caller halves it (see :class:`HalfInteger`)."""
    return skip_total(cf.coefficients)


def bredon_wood_N(x: int, y: int) -> HalfInteger:
    """The Bredon-Wood function N(x, y): half the skipped sum of x/y's expansion.

    Not guaranteed integral for arbitrary coprime arguments; callers that
    need an integer must check (see the crosscap computation).
    """
    if x < 1 or y < 1:
        raise ValueError(f"arguments must be positive, got ({x}, {y})")
    if gcd(x, y) != 1:
        raise ValueError(f"arguments must be coprime, got ({x}, {y})")
    return HalfInteger(skip_total(euclid(x, y)))


def lemma9_expansions(
    cf_q_over_p: ContinuedFraction,
) -> tuple[ContinuedFraction, ContinuedFraction]:
    """Teragaito's expansion identity relating q/p to (p*q - 1)/p^2 and (p*q + 1)/p^2.

    Given the canonical expansion [0, a1, ..., an] of q/p with p > q > 1
    coprime, returns (cf_minus, cf_plus), the canonical expansions of
    (p*q - 1)/p^2 and (p*q + 1)/p^2: :func:`lemma9_lists` with a trailing
    a1 = 1 merged.
    """
    coeffs = cf_q_over_p.coefficients
    if coeffs[0] != 0:
        raise ValueError(
            f"expected the expansion of q/p with p > q (leading coefficient 0), got {list(coeffs)}"
        )
    if len(coeffs) < 3:
        raise ValueError(f"q must exceed 1, but {list(coeffs)} is the expansion of 1/a1")
    cf_minus, cf_plus = lemma9_lists(list(coeffs))
    return cf_canonicalize(cf_minus), cf_canonicalize(cf_plus)
