"""The kernel's mutants as a gate: each hand-made edit of the sweep's walk,
of the skip rule, of the crosscap number's even branch or of the checks on
continued fractions must fail the tests named with it.

A mutant is (file, old text, new text, test ids).  For each, the script
copies src/, tests/ and pyproject.toml into a temporary directory, replaces
the old text there by the new, and runs pytest on the named tests in that
copy: the mutant is killed when every named test fails.  The tree the script
lives in is never edited.  First the named tests, all of them, must pass on
an unedited copy, so that a kill is the edit's.  The script exits 1 if an old
text does not occur exactly once in its file, if a named test does not pass
on the unedited copy, or if a mutant survives (some named test passes), and
0 otherwise.

Run it with pytest and hypothesis installed, from any directory:

    python tests/mutants.py

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY = "src/crosscap/verify.py"
CF = "src/crosscap/continued_fractions.py"
TK = "src/crosscap/torus_knots.py"


def tests_of(module: str, *names: str) -> tuple[str, ...]:
    """The ids of the tests `names` in tests/test_<module>.py."""
    return tuple(f"tests/test_{module}.py::{name}" for name in names)


#: `lemma9_totals` against the explicit lists.
LEMMA9_TOTALS = tests_of("continued_fractions", *(
    f"TestLemma9Totals::test_equals_the_explicit_lists_{end}"
    for end in ("to_400", "to_10_to_the_12", "for_any_coefficients")
))
#: The walk, its walker processes and its bands against the row kernel.
WALK_AS_KERNEL = (
    *tests_of(
        "verify",
        "TestSweepAgainstReference::test_all_checks_to_300[1]",
        "TestSweepAgainstReference::test_all_checks_to_300[2]",
        "TestPredictedReport::test_the_walk_gives_the_predicted_report_at_every_cap_to_400",
    ),
    *tests_of("acceptance", "test_03_sweep_to_300_clean_and_fast"),
)
#: An odd knot's total, as the walk's knot loop (20 spaces in) and the fill of
#: the cells a jump passes over (24 spaces in) both write it.
ODD_TOTAL = "total = t0 + tail[step[mid]] + (take0 + take_y) * a - (take0 ^ take_y)"

MUTANTS = [
    # the walk's bound guard admits too few knots, at thm1's edge and at thm2's
    (VERIFY, "g <= 6 * c - 4", "g <= 6 * c - 3", tests_of(
        "verify",
        "TestWalkPerKnot::test_walk_flags_the_bounds_on_every_knot_the_guard_admits",
        "TestWalkPerKnot::test_walk_flags_no_bound_just_outside_the_guard",
    )),
    (VERIFY, "n <= 12 * c - 5", "n <= 12 * c - 4", tests_of(
        "verify", "TestWalkPerKnot::test_walk_flags_no_bound_just_outside_the_guard"
    )),
    # an abort names the plus total: the sign of take0 - take_y flipped there
    (
        VERIFY,
        "total += (take0 ^ take_y) + sign * (take0 - take_y)",
        "total += (take0 ^ take_y) + sign * (take_y - take0)",
        tests_of(
            "verify",
            "TestKernelGuards::test_an_odd_knots_abort_names_its_minus_total[1]",
            "TestKernelGuards::test_an_odd_knots_abort_names_its_minus_total[2]",
        ),
    ),
    # the q3 check reads the other total: d's sign flipped, or minus and plus swapped
    (VERIFY, ", take0 - take_y", ", take_y - take0", WALK_AS_KERNEL),
    (
        VERIFY,
        "_q3_fails(p, c, base + sign * d, base - sign * d)",
        "_q3_fails(p, c, base - sign * d, base + sign * d)",
        WALK_AS_KERNEL,
    ),
    # a child keeps its parent's lemma-9 sign
    (VERIFY, "                -sign,\n", "                sign,\n", (
        *tests_of(
            "verify",
            "TestLemma9Shortcut::test_an_honest_walk_takes_the_shortcut_at_every_prefix",
        ),
        *WALK_AS_KERNEL,
    )),
    # an odd knot's total is base + d d, in the knot loop or in the fill
    (
        VERIFY,
        "\n" + " " * 20 + ODD_TOTAL,
        "\n" + " " * 20 + ODD_TOTAL.replace("- (take0", "+ (take0"),
        WALK_AS_KERNEL,
    ),
    (
        VERIFY,
        "\n" + " " * 24 + ODD_TOTAL,
        "\n" + " " * 24 + ODD_TOTAL.replace("- (take0", "+ (take0"),
        tests_of(
            "verify",
            "TestJump::test_the_band_walk_writes_each_slot_once[300-1]",
            "TestJump::test_the_band_walk_writes_each_slot_once[300-3]",
            "TestSweepAgainstReference::test_csv_to_60[1]",
        ),
    ),
    # the skip rule: the tail resumed from False in place of the pair's skip
    (
        CF,
        "*skip_run((last + 1, last - 1), total, skip))[0]",
        "skip_run((last + 1, last - 1), total, skip)[0], False)[0]",
        (*LEMMA9_TOTALS, *tests_of(
            "torus_knots",
            "TestCrosscap::test_odd_knot_is_min_of_both_branches",
            "TestCrosscap::test_odd_knot_with_a1_one_matches_canonical_branches",
            "TestCrosscap::test_odd_crosscap_from_is_the_least_explicit_total_to_400",
        )),
    ),
    # take_y without `skip or`
    (CF, "take_y = skip or (total + last + 1) & 1", "take_y = (total + last + 1) & 1",
     LEMMA9_TOTALS),
    # down's sign
    (CF, "down = up - 2 * (take_x - take_y)", "down = up + 2 * (take_x - take_y)", (
        *LEMMA9_TOTALS,
        *tests_of(
            "torus_knots",
            "TestCrosscap::test_small_knots",
            "TestQ3::test_closed_form_matches_general_pipeline",
        ),
    )),
    # skip_run ignores its skip argument
    (CF, "    for a in coeffs:\n", "    skip = False\n    for a in coeffs:\n", (
        *tests_of(
            "continued_fractions",
            "TestSkipRule::test_next_is_one_step_of_the_rule[1-1]",
            "TestSkipRule::test_next_is_one_step_of_the_rule[1-2]",
            "TestSkipRule::test_a_run_resumes_from_where_another_stopped",
        ),
        *LEMMA9_TOTALS,
        *tests_of("torus_knots", "TestCrosscap::test_small_knots"),
    )),
    # the rule skips after a total divisible by 4, not after any even total
    (CF, "skip = not total & 1", "skip = total & 3 == 0", tests_of(
        "continued_fractions", "TestSkipRule::test_next_steps_the_sentence"
    )),
    # an even knot's rule starts in the wrong state: it adds the leading 0 of
    # q/p for N(p, q) and skips it for N(q, p)
    (TK, "skip_run(coeffs, 0, not p & 1)", "skip_run(coeffs, 0, p & 1)", (
        *tests_of(
            "torus_knots",
            "TestCrosscap::test_small_knots",
            "TestCrosscap::test_even_crosscap_from_is_half_the_skip_total_to_400",
        ),
        *tests_of("acceptance", "test_04_sharpness_family_to_100"),
    )),
    # the unchecked builder gets cf_canonicalize's input, not its merged list
    (CF, "_from_canonical(coeffs)", "_from_canonical(coefficients)", tests_of(
        "continued_fractions",
        "TestCanonicalize::test_trailing_one_merge",
        "TestCanonicalBuilder::test_every_canonicalized_list_passes_the_constructor",
        "TestCanonicalBuilder::test_lemma9_expansions_to_10_to_the_12",
    )),
    # the validation's scan lets a zero coefficient through
    (CF, "        if a < 1:\n", "        if a < 0:\n", tests_of(
        "continued_fractions",
        "TestCanonicalize::test_invalid_coefficients",
        "TestValueTypes::test_the_first_coefficient_below_1_is_named_in_any_list",
    )),
]


def copy_tree(into: Path) -> None:
    """Copy what the tests run on, src/, tests/ and pyproject.toml, into `into`."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into)


def run_tests(tree: Path, ids: tuple[str, ...]) -> tuple[int, set[str]]:
    """pytest's exit status on the tests `ids` in `tree`, and the ids that failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return proc.returncode, failed


def main() -> int:
    problems = []
    for path, old, new, _ in MUTANTS:
        if (found := (ROOT / path).read_text().count(old)) != 1:
            problems.append(f"{path}: {old!r} occurs {found} times, not once")
    if problems:
        print(*problems, sep="\n")
        return 1
    named = tuple(dict.fromkeys(i for *_, ids in MUTANTS for i in ids))
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        status, failed = run_tests(Path(tmp), named)
    if status != 0:
        print(f"the unedited tree: pytest exits {status}, failing", *sorted(failed) or ["(none)"])
        return 1
    print(f"the unedited tree passes the {len(named)} named tests")
    for path, old, new, ids in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp))
            mutated = Path(tmp, path)
            text = mutated.read_text()
            line = text.count("\n", 0, text.index(old) + len(old) - len(old.lstrip())) + 1
            mutated.write_text(text.replace(old, new))
            status, failed = run_tests(Path(tmp), ids)
        survived = [i for i in ids if i not in failed]
        verdict = f"survived (pytest exits {status})" if survived else "killed"
        print(f"{verdict}: {path}:{line}: {old.strip()!r} -> {new.strip()!r}")
        for i in survived:
            print(f"  does not fail {i}")
            problems.append(i)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
