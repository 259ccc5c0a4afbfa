"""Torus-knot invariants: genus, crossing number, crosscap number, and bounds.

A (a, b) torus curve is a knot exactly when gcd(a, b) = 1; it is trivial
(the unknot) when either parameter is 1.  Knots are normalized to p > q >= 2.
The crosscap number comes from Teragaito's classification: for an even knot
(even p*q) it is N(even parameter, odd parameter); for an odd knot it is
min{N(p*q - 1, p^2), N(p*q + 1, p^2)}.

The value types validate in their own ``__init__`` and write their fields
once, as in :mod:`crosscap.continued_fractions`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .continued_fractions import HalfInteger, euclid, lemma9_totals, skip_run


class Parity(Enum):
    """Knot parity: even iff p*q is even."""

    EVEN = "even"
    ODD = "odd"


#: A knot's parity, indexed by p & q & 1: odd only when both parameters are.
PARITY = (Parity.EVEN, Parity.ODD)


@dataclass(frozen=True)
class TorusKnot:
    """Normalized coprime parameter pair with p > q >= 2."""

    p: int
    q: int

    def __init__(self, p: int, q: int) -> None:
        # coprimality first: normalize leaves it to this check, so (4, 4) is a link
        if gcd(p, q) != 1:
            raise ValueError(f"({p}, {q}) is not coprime: a link, not a knot")
        if q < 2 or p <= q:
            raise ValueError(f"need p > q >= 2, got ({p}, {q})")
        self.__dict__.update(p=p, q=q)

    @property
    def parity(self) -> Parity:
        return PARITY[self.p & self.q & 1]

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


@dataclass(frozen=True)
class Unknot:
    """The trivial knot, kept distinct so TorusKnot invariants stay crisp."""

    def __str__(self) -> str:
        return "unknot"


UNKNOT = Unknot()


@dataclass(frozen=True)
class Bounds:
    """The four upper bounds on the crosscap number.

    clark = 2g + 1 and murakami_yasuhara = floor(n/2) are the general
    bounds; thm1 = floor((g + 9)/6) and thm2 = floor((n + 16)/12) are the
    sharpened torus-knot bounds this artifact verifies.
    """

    clark: int
    murakami_yasuhara: int
    thm1: int
    thm2: int

    def __init__(self, clark: int, murakami_yasuhara: int, thm1: int, thm2: int) -> None:
        self.__dict__.update(clark=clark, murakami_yasuhara=murakami_yasuhara, thm1=thm1, thm2=thm2)


@dataclass(frozen=True)
class InvariantRecord:
    """All computed invariants and bounds for one knot.

    No cross-field constraints are enforced here: whether crosscap really
    stays below every bound is exactly what the verification harness
    checks, so a violation must be representable.
    """

    knot: TorusKnot | Unknot
    parity: Parity | None
    genus: int
    crossing: int
    crosscap: int
    bounds: Bounds
    gap: int

    def __init__(
        self, knot: TorusKnot | Unknot, parity: Parity | None, genus: int, crossing: int,
        crosscap: int, bounds: Bounds, gap: int,
    ) -> None:
        self.__dict__.update(knot=knot, parity=parity, genus=genus, crossing=crossing,
                             crosscap=crosscap, bounds=bounds, gap=gap)

    def as_dict(self) -> dict:
        """Flat field mapping in the wire order used by JSON and CSV output."""
        knot, parity, bounds = self.knot, self.parity, self.bounds
        p, q = (knot.p, knot.q) if isinstance(knot, TorusKnot) else (0, 0)
        return {
            "p": p,
            "q": q,
            "parity": "unknot" if parity is None else parity.value,
            "genus": self.genus,
            "crossing": self.crossing,
            "crosscap": self.crosscap,
            "bound_clark": bounds.clark,
            "bound_my": bounds.murakami_yasuhara,
            "bound_thm1": bounds.thm1,
            "bound_thm2": bounds.thm2,
            "gap": self.gap,
        }


#: The keys of `InvariantRecord.as_dict`, in wire order: the CSV header of a record.
RECORD_FIELDS = tuple(InvariantRecord(UNKNOT, None, 0, 0, 0, Bounds(0, 0, 0, 0), 0).as_dict())


def _csv_text(rows: Iterable[Iterable]) -> str:
    """`rows` as CSV lines by the rule of every crosscap CSV, the sweep's row
    format `verify._CSV_TAIL` too: each field as `str` gives it, joined by
    commas, each line ending in a newline.  Nothing is quoted, so no field
    may hold `,`, `"`, a carriage return or a newline; none does, being an
    int or a plain word (a field name, a parity or `unknot`)."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


@dataclass(frozen=True)
class Q3Form:
    """Decomposition p = 6m + sign for odd p coprime to 3."""

    m: int
    sign: int

    def __init__(self, m: int, sign: int) -> None:
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if m < 1:
            raise ValueError(f"m must be positive, got {m}")
        self.__dict__.update(m=m, sign=sign)

    @property
    def p(self) -> int:
        return 6 * self.m + self.sign


class IntegralityError(Exception):
    """A skipped total consumed by the crosscap computation was odd.

    Teragaito's classification always yields an integer; a half-integer
    here means the computation itself is broken, so it must abort loudly
    rather than round.
    """

    def __init__(self, knot: TorusKnot, value: HalfInteger):
        self.knot = knot
        self.value = value
        super().__init__(
            f"non-integral crosscap candidate N = {value} for torus knot {knot}"
        )

    def __reduce__(self):
        # the default passes __init__ only the message: a walker's error would not unpickle
        return type(self), (self.knot, self.value)


def normalize(a: int, b: int) -> TorusKnot | Unknot:
    """Order a positive pair into a TorusKnot, which checks coprimality, or the
    Unknot if either is 1."""
    if a < 1 or b < 1:
        raise ValueError(f"parameters must be positive, got ({a}, {b})")
    if a < b:
        a, b = b, a
    if b == 1:
        return UNKNOT
    return TorusKnot(a, b)


def genus(k: TorusKnot) -> int:
    """Seifert genus (p - 1)(q - 1)/2."""
    return (k.p - 1) * (k.q - 1) // 2


def crossing_number(k: TorusKnot) -> int:
    """Minimal crossing number p(q - 1), using the p > q normalization."""
    return k.p * (k.q - 1)


def crosscap(k: TorusKnot | Unknot) -> int:
    """Crosscap number via Teragaito's classification (see :func:`crosscap_from`),
    0 for the unknot; an odd skipped total raises :class:`IntegralityError`."""
    if isinstance(k, Unknot):
        return 0
    return crosscap_from(k.p, k.q, euclid(k.q, k.p))


def crosscap_from(p: int, q: int, coeffs: list[int]) -> int:
    """Crosscap number of the (p, q) knot from the expansion [0, a1, ..., an] of q/p.

    An even knot needs no more: N(q, p) is the skip total of that list, and
    N(p, q) that of [a1, ..., an], the expansion of p/q: the rule run over
    the same list from its skip state, which passes the leading 0.  An odd
    knot takes the lesser of its two Lemma 9 totals, those of the expansions
    of (p*q -/+ 1)/p^2, which :func:`lemma9_totals` reads from the list in
    one pass; they have one parity, so an odd minus total is the one that
    raises.  The pair is trusted to be a knot: a `TorusKnot` is built only
    for the error.
    """
    if p & q & 1:
        total, plus = lemma9_totals(coeffs)
        least = min(total, plus)
    else:
        total = least = skip_run(coeffs, 0, not p & 1)[0]
    if total & 1:
        raise IntegralityError(TorusKnot(p, q), HalfInteger(total))
    return least // 2


def bound_ints(genus: int, crossing: int) -> tuple[int, int, int, int]:
    """(clark, my, thm1, thm2): the four bounds from genus g and crossing number n,
    unchecked, in `Bounds` field order."""
    return 2 * genus + 1, crossing // 2, (genus + 9) // 6, (crossing + 16) // 12


def bounds_for(genus: int, crossing: int) -> Bounds:
    """Evaluate all four crosscap bounds from genus g and crossing number n."""
    if genus < 0 or crossing < 0:
        raise ValueError(f"genus and crossing must be non-negative, got ({genus}, {crossing})")
    return Bounds(*bound_ints(genus, crossing))


def _require_q3_p(p: int) -> None:
    if p <= 3 or p % 2 == 0 or p % 3 == 0:
        raise ValueError(f"p must be odd, greater than 3, and coprime to 3, got {p}")


def q3_closed_form(p: int) -> tuple[Q3Form, int]:
    """Closed-form crosscap number m + 1 for the (p, 3) knot, p = 6m +/- 1."""
    _require_q3_p(p)
    if p % 6 == 1:
        form = Q3Form((p - 1) // 6, 1)
    else:
        form = Q3Form((p + 1) // 6, -1)
    return form, form.m + 1


def q3_congruence_selector(p: int) -> int:
    """Which branch attains the (p, 3) crosscap minimum, by congruence parity.

    Solves 3x = -1 (mod p) for x in [1, p - 1]: an even solution means the
    N(p*q - 1, p^2) branch attains the minimum (return -1), an odd one the
    N(p*q + 1, p^2) branch (return +1).
    """
    _require_q3_p(p)
    x = (-pow(3, -1, p)) % p
    return -1 if x % 2 == 0 else 1


def mobius_family(n: int) -> tuple[TorusKnot, InvariantRecord]:
    """The (2n + 1, 2) knot and its expected invariants: genus n, crosscap 1.

    These knots bound a Mobius band, so the genus-minus-crosscap gap n - 1
    grows without bound along the family.
    """
    if n < 1:
        raise ValueError(f"family index must be positive, got {n}")
    knot = TorusKnot(2 * n + 1, 2)
    g, cr = n, 2 * n + 1
    expected = InvariantRecord(knot, Parity.EVEN, g, cr, 1, bounds_for(g, cr), n - 1)
    return knot, expected


def sharp_family(n: int) -> tuple[TorusKnot, InvariantRecord]:
    """The (6n - 2, 3) knot and its expected invariants, with both sharpened bounds tight.

    Genus 6n - 3, crossing number 12n - 4, crosscap n + 1, and the two
    sharpened bounds both equal n + 1 exactly.
    """
    if n < 1:
        raise ValueError(f"family index must be positive, got {n}")
    knot = TorusKnot(6 * n - 2, 3)
    g, cr, c = 6 * n - 3, 12 * n - 4, n + 1
    clark, my, _, _ = bound_ints(g, cr)
    expected_bounds = Bounds(clark, my, thm1=c, thm2=c)
    expected = InvariantRecord(knot, Parity.EVEN, g, cr, c, expected_bounds, g - c)
    return knot, expected


def invariants(k: TorusKnot | Unknot) -> InvariantRecord:
    """Fully populated invariant record for a knot; all zeros for the unknot.

    Built from plain ints by the formulas of :func:`genus`,
    :func:`crossing_number`, :func:`crosscap` and :func:`bound_ints`, less
    :func:`bounds_for`'s non-negativity check: a `TorusKnot` has g >= 1 and
    n >= 3."""
    if isinstance(k, Unknot):
        return InvariantRecord(k, None, 0, 0, 0, Bounds(0, 0, 0, 0), 0)
    p, q = k.p, k.q
    g, n = (p - 1) * (q - 1) // 2, p * (q - 1)
    c = crosscap_from(p, q, euclid(q, p))
    bounds = Bounds(2 * g + 1, n // 2, (g + 9) // 6, (n + 16) // 12)
    return InvariantRecord(k, PARITY[p & q & 1], g, n, c, bounds, g - c)
