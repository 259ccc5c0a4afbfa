"""Exact-arithmetic torus-knot invariants and crosscap-bound verification.

Each public name is imported from its submodule on first use (PEP 562), so a
program that needs one layer, like `crosscap cf`, loads only that layer.
"""

from importlib import import_module

#: Each public name and the submodule that defines it, in `__all__` order.
_EXPORTS = {
    name: module
    for module, names in (
        ("continued_fractions", (
            "ContinuedFraction", "HalfInteger", "Rational", "bredon_wood_N",
            "cf_canonicalize", "cf_expand", "cf_value", "coefficient_sum",
            "lemma9_expansions", "make_rational", "skipped_sum",
        )),
        ("torus_knots", (
            "UNKNOT", "Bounds", "IntegralityError", "InvariantRecord", "Parity", "Q3Form",
            "TorusKnot", "Unknot", "bounds_for", "crosscap", "crossing_number", "genus",
            "invariants", "mobius_family", "normalize", "q3_closed_form",
            "q3_congruence_selector", "sharp_family",
        )),
        ("verify", (
            "CHECK_NAMES", "MAX_SWEEP_P", "BoundCheckRecord", "SweepCapError",
            "SweepConfig", "VerificationReport", "check_knot", "enumerate_coprime",
            "report_as_dict", "run_verification", "serialize_report",
        )),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
