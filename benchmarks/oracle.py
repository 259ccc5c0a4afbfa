"""Plain-int reference answers for the `queries` workload.

Written without any crosscap code: Euclid by divmod, the Bredon-Wood skip
rule, and Teragaito's even/odd rule for the crosscap number. Every expansion
is evaluated back with fractions.Fraction before it is used, so the oracle
checks itself as well as the program.
"""

from __future__ import annotations

from fractions import Fraction

RECORD_FIELDS = (
    "p", "q", "parity", "genus", "crossing", "crosscap",
    "bound_clark", "bound_my", "bound_thm1", "bound_thm2", "gap",
)


class OracleError(AssertionError):
    """The oracle's own expansion does not evaluate back to its input."""


def expansion(x: int, y: int) -> list[int]:
    """Simple continued fraction of x/y by the Euclidean algorithm, checked by Fraction."""
    coeffs = []
    n, d = x, y
    while d:
        a, r = divmod(n, d)
        coeffs.append(a)
        n, d = d, r
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a + 1 / value
    if value != Fraction(x, y):
        raise OracleError(f"expansion {coeffs} does not evaluate to {x}/{y}")
    return coeffs


def skip_total(coeffs: list[int]) -> int:
    """Sum with the skip rule: after an addition that leaves the total even, skip one term."""
    total = 0
    i = 0
    while i < len(coeffs):
        total += coeffs[i]
        i += 2 if total % 2 == 0 else 1
    return total


def n_arguments(p: int, q: int) -> list[tuple[int, int]]:
    """The N(x, y) calls Teragaito's rule makes for the (p, q) knot, p > q >= 2."""
    if (p * q) % 2 == 0:
        return [(p, q) if p % 2 == 0 else (q, p)]
    return [(p * q - 1, p * p), (p * q + 1, p * p)]


def crosscap(p: int, q: int) -> int:
    """Crosscap number: the least N over the candidates; each doubled N must be even."""
    doubled = [skip_total(expansion(x, y)) for x, y in n_arguments(p, q)]
    if any(d % 2 for d in doubled):
        raise OracleError(f"non-integral N candidate for ({p}, {q}): {doubled}")
    return min(doubled) // 2


def invariants_record(p: int, q: int) -> dict:
    """The `as_dict()` record of the (p, q) torus knot, p > q >= 2 coprime."""
    genus = (p - 1) * (q - 1) // 2
    crossing = p * (q - 1)
    c = crosscap(p, q)
    values = (
        p, q, "even" if (p * q) % 2 == 0 else "odd", genus, crossing, c,
        2 * genus + 1, crossing // 2, (genus + 9) // 6, (crossing + 16) // 12, genus - c,
    )
    return dict(zip(RECORD_FIELDS, values))


def cf_answer(x: int, y: int) -> tuple[list[int], int, int]:
    """(expansion, skipped total = 2N, coefficient sum) of x/y."""
    coeffs = expansion(x, y)
    return coeffs, skip_total(coeffs), sum(coeffs)
