"""The package's exports, and the modules each CLI command loads."""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import import_module

import pytest

import crosscap

#: The public names by defining submodule, in `__all__` order.
PUBLIC = {
    "continued_fractions": (
        "ContinuedFraction", "HalfInteger", "Rational", "bredon_wood_N", "cf_canonicalize",
        "cf_expand", "cf_value", "coefficient_sum", "lemma9_expansions", "make_rational",
        "skipped_sum",
    ),
    "torus_knots": (
        "UNKNOT", "Bounds", "IntegralityError", "InvariantRecord", "Parity", "Q3Form",
        "TorusKnot", "Unknot", "bounds_for", "crosscap", "crossing_number", "genus",
        "invariants", "mobius_family", "normalize", "q3_closed_form", "q3_congruence_selector",
        "sharp_family",
    ),
    "verify": (
        "CHECK_NAMES", "MAX_SWEEP_P", "BoundCheckRecord", "SweepCapError", "SweepConfig",
        "VerificationReport", "check_knot", "enumerate_coprime", "report_as_dict",
        "run_verification", "serialize_report",
    ),
}

#: Run in a fresh interpreter: import what argv[1] names, call `cli.main` on
#: the rest of argv unless it is empty, and print the exit code and the
#: crosscap and concurrent modules loaded, as JSON.
PROBE = """
import contextlib, io, json, sys
statement, argv = sys.argv[1], sys.argv[2:]
exec(statement)
code = None
if argv:
    from crosscap.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
loaded = [m for m in sys.modules if m.split(".")[0] in ("crosscap", "concurrent")]
print(json.dumps([code, sorted(loaded)]))
"""

PACKAGE = ["crosscap"]
CLI = ["crosscap", "crosscap.cli"]


def loaded_by(statement: str, *argv: str) -> tuple[int | None, list[str]]:
    """The exit code and the modules loaded when a fresh interpreter runs
    `statement`, then `cli.main(argv)` when argv is given."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, statement, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, modules


class TestExports:
    def test_all_keeps_its_names_and_order(self):
        assert crosscap.__all__ == [name for names in PUBLIC.values() for name in names]

    @pytest.mark.parametrize("module", PUBLIC)
    def test_each_name_is_its_submodules_object(self, module):
        submodule = import_module(f"crosscap.{module}")
        for name in PUBLIC[module]:
            assert getattr(crosscap, name) is getattr(submodule, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from crosscap import *", namespace)
        for name in crosscap.__all__:
            assert namespace[name] is getattr(crosscap, name), name

    def test_dir_lists_every_name(self):
        assert set(crosscap.__all__) <= set(dir(crosscap))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            crosscap.no_such_name
        assert not hasattr(crosscap, "no_such_name")
        with pytest.raises(ImportError):
            exec("from crosscap import no_such_name", {})


class TestModuleLoading:
    def test_package_import_loads_no_submodule(self):
        assert loaded_by("import crosscap") == (None, PACKAGE)

    def test_a_name_loads_only_its_layers(self):
        statement = "from crosscap import cf_expand, invariants"
        assert loaded_by(statement) == (
            None, [*PACKAGE, "crosscap.continued_fractions", "crosscap.torus_knots"]
        )

    def test_cf_loads_only_continued_fractions(self):
        code, modules = loaded_by("pass", "cf", "8", "3", "--json")
        assert code == 0
        assert modules == [*CLI, "crosscap.continued_fractions"]

    @pytest.mark.parametrize(
        "argv", [["invariants", "7", "5", "--json"], ["family", "sharp", "3", "--csv"]]
    )
    def test_invariants_and_family_load_no_sweep(self, argv):
        code, modules = loaded_by("pass", *argv)
        assert code == 0
        assert modules == [*CLI, "crosscap.continued_fractions", "crosscap.torus_knots"]

    def test_verify_loads_the_sweep_and_no_concurrent_module(self):
        # concurrent.futures is imported only to raise a failed sweep's BrokenExecutor
        code, modules = loaded_by("pass", "verify", "--max-p", "20")
        assert code == 0
        assert modules == [
            *CLI, "crosscap.continued_fractions", "crosscap.torus_knots", "crosscap.verify"
        ]

    @pytest.mark.parametrize(
        "argv, code",
        [(["invariants", "6", "4"], 1), (["cf", "8", "4"], 1), (["verify", "--max-p", "10001"], 2)],
    )
    def test_exit_codes_hold_in_a_fresh_interpreter(self, argv, code):
        # the exit-code table names classes of modules that a command may not load
        assert loaded_by("pass", *argv)[0] == code
