"""Command-line surface: invariant queries, expansion inspection, families, sweeps.

Every subcommand renders JSON, CSV or text and writes it through `_output`.
Each imports the layers it runs when it is dispatched: `cf` loads only
`continued_fractions`, `invariants` and `family` add `torus_knots`, and only
`verify` loads the sweep, and `multiprocessing` once it starts walker processes.

Exit codes: 0 = success / all checks hold, 1 = usage or input error,
2 = verification finding, internal failure, or a run that did not complete;
`main` maps each failure to its code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from io import TextIOBase
from stat import S_IMODE, S_ISREG

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FINDING = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here reserves 2 for findings."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_format_flags(sub: argparse.ArgumentParser, with_csv: bool = True) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--json",
        nargs="?",
        const="-",
        metavar="PATH",
        help="emit JSON (to PATH, or stdout when no path is given)",
    )
    if with_csv:
        group.add_argument(
            "--csv",
            nargs="?",
            const="-",
            metavar="PATH",
            help="emit CSV rows (to PATH, or stdout when no path is given)",
        )


@contextmanager
def _output(target: str) -> Iterator[TextIOBase]:
    """Stdout for "-", else `target`. A new file, or a regular file of ours with one
    link, is written beside its real path and renamed over it, keeping its mode, when
    the block completes, so an abort leaves it as it was. Others are written in place."""
    if target == "-":
        yield sys.stdout
        return
    try:
        path = os.path.realpath(target)  # write through a symlink, not over it
        st = os.stat(path) if os.path.exists(path) else None
    except ValueError as exc:  # a path no OS call takes, one with a NUL byte
        raise OSError(str(exc)) from exc
    if st is None:
        # a new file, unless `target` is a /proc fd link, like /dev/stdout to a pipe
        replaceable = not os.path.exists(target)
    else:
        replaceable = S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
    if not replaceable or not os.access(os.path.dirname(path), os.W_OK):
        with open(target, "w") as out:
            yield out
        return
    partial = f"{path}.{os.getpid()}.partial"
    out = open(partial, "x")
    try:
        with out:
            if st is not None:
                os.chmod(partial, S_IMODE(st.st_mode))
            yield out
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise


def _emit(args: argparse.Namespace, payload, rows: Iterable[Iterable], lines: list[str]) -> None:
    """Write `payload` as JSON, `rows` as CSV or `lines` as text, as `args` ask."""
    if args.json is not None:
        target, text = args.json, json.dumps(payload, indent=2) + "\n"
    elif args.csv is not None:
        from .torus_knots import _csv_text

        target, text = args.csv, _csv_text(rows)
    else:
        target, text = "-", "".join(f"{line}\n" for line in lines)
    with _output(target) as out:
        out.write(text)


def _record_lines(fields: dict, a: int, b: int) -> list[str]:
    """The human-readable lines of a record's `as_dict` fields."""
    if fields["parity"] == "unknot":
        return [f"({max(a, b)},{min(a, b)}) is the unknot: every invariant is zero"]
    return [
        f"torus knot ({fields['p']},{fields['q']}), parity {fields['parity']}",
        f"  genus:     {fields['genus']}",
        f"  crossing:  {fields['crossing']}",
        f"  crosscap:  {fields['crosscap']}",
        f"  gap (genus - crosscap): {fields['gap']}",
        "  bounds:    "
        f"clark={fields['bound_clark']} "
        f"murakami-yasuhara={fields['bound_my']} "
        f"genus-based={fields['bound_thm1']} "
        f"crossing-based={fields['bound_thm2']}",
    ]


def cmd_invariants(args: argparse.Namespace) -> int:
    from .torus_knots import RECORD_FIELDS, invariants, normalize

    fields = invariants(normalize(args.p, args.q)).as_dict()
    _emit(args, fields, [RECORD_FIELDS, fields.values()], _record_lines(fields, args.p, args.q))
    return EXIT_OK


def cmd_cf(args: argparse.Namespace) -> int:
    from .continued_fractions import (
        HalfInteger, Rational, cf_expand, coefficient_sum, skipped_sum,
    )

    a, b = args.numerator, args.denominator
    cf = cf_expand(Rational(a, b))
    coeff_sum = coefficient_sum(cf)
    total = skipped_sum(cf)
    n_value = HalfInteger(total)
    payload = {
        "numerator": a,
        "denominator": b,
        "coefficients": list(cf.coefficients),
        "coefficient_sum": coeff_sum,
        "skipped_total": total,
        "n": str(n_value),
    }
    lines = [
        f"{a}/{b} = {cf}",
        f"coefficient sum: {coeff_sum}",
        f"skipped total:   {total}",
        f"N:               {n_value}",
    ]
    _emit(args, payload, (), lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SweepConfig, run_verification, serialize_report

    config = SweepConfig(max_p=args.max_p, workers=args.workers)
    if args.csv is not None:
        with _output(args.csv) as out:
            report = run_verification(config, out.write)
    elif args.json is not None:
        with _output(args.json) as out:
            report = run_verification(config)
            out.write(serialize_report(report))
    else:
        report = run_verification(config)
    if args.json != "-" and args.csv != "-":
        witness = report.max_gap_witness
        print(
            f"checked {report.knots_checked} torus knots with 2 <= q < p <= {report.max_p}"
        )
        print(
            f"{len(report.violations)} violations, "
            f"{len(report.lemma_failures)} lemma failures, "
            f"{len(report.sharpness_hits)} sharpness hits"
        )
        print(
            f"max gap: {witness.gap} at {witness.knot} "
            f"(genus {witness.genus}, crosscap {witness.crosscap})"
        )
    if report.violations or report.lemma_failures:
        return EXIT_FINDING
    return EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    from .torus_knots import RECORD_FIELDS, invariants, mobius_family, sharp_family

    if args.count < 1:
        raise ValueError(f"count must be at least 1, got {args.count}")
    generator = mobius_family if args.name == "mobius" else sharp_family
    expected_fields = ("genus", "crossing", "crosscap", "gap")
    payload = []
    rows = [["n", *RECORD_FIELDS, *(f"expected_{f}" for f in expected_fields), "match"]]
    lines = [
        f"{args.name} family, n = 1..{args.count}",
        f"{'n':>4}  {'knot':>10}  {'genus':>6}  {'crossing':>8}  {'crosscap':>8}  {'gap':>6}  match",
    ]
    for n in range(1, args.count + 1):
        knot, expected = generator(n)
        computed = invariants(knot)
        match = computed == expected
        fields = computed.as_dict()
        payload.append(
            {"n": n, "match": match, "computed": fields, "expected": expected.as_dict()}
        )
        trail = [*(getattr(expected, f) for f in expected_fields), int(match)]
        rows.append([n, *fields.values(), *trail])
        lines.append(
            f"{n:>4}  {str(computed.knot):>10}  {computed.genus:>6}  {computed.crossing:>8}  "
            f"{computed.crosscap:>8}  {computed.gap:>6}  {'ok' if match else 'MISMATCH'}"
        )
    _emit(args, payload, rows, lines)
    if not all(entry["match"] for entry in payload):
        return EXIT_FINDING
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="crosscap",
        description=(
            "Exact torus-knot invariants (genus, crossing number, crosscap number) "
            "and exhaustive verification of the crosscap bounds."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_inv = subparsers.add_parser(
        "invariants", help="compute every invariant of one (p, q) torus knot"
    )
    p_inv.add_argument("p", type=int)
    p_inv.add_argument("q", type=int)
    _add_format_flags(p_inv)
    p_inv.set_defaults(handler=cmd_invariants)

    p_cf = subparsers.add_parser(
        "cf", help="continued-fraction expansion and skip-sum of a/b"
    )
    p_cf.add_argument("numerator", type=int)
    p_cf.add_argument("denominator", type=int)
    _add_format_flags(p_cf, with_csv=False)
    p_cf.set_defaults(handler=cmd_cf, csv=None)

    p_verify = subparsers.add_parser(
        "verify", help="sweep all coprime pairs up to --max-p and check every bound"
    )
    p_verify.add_argument("--max-p", type=int, required=True, dest="max_p")
    p_verify.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the sweep, capped by the CPUs this one may run on: the report's "
        "walkers, this process included, or the walkers of the CSV's p bands once there are "
        "two or more (above --max-p 2897), beside this process, which renders the rows",
    )
    _add_format_flags(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_family = subparsers.add_parser(
        "family", help="expected-vs-computed table for a witness family"
    )
    p_family.add_argument("name", choices=("mobius", "sharp"))
    p_family.add_argument("count", type=int)
    _add_format_flags(p_family)
    p_family.set_defaults(handler=cmd_family)

    return parser


def _loaded(module: str, name: str) -> tuple[type, ...]:
    """The class `name` of `module` if that module is loaded, else no class: a
    command loads only the modules it runs, and a class not loaded was not raised."""
    return (getattr(sys.modules[module], name),) if module in sys.modules else ()


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7 on; earlier releases have no limit
        sys.set_int_max_str_digits(0)  # a knot's invariants print at any length
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:  # the output's: verify._shared raises the sweep's as BrokenExecutor
        code, message = EXIT_USAGE, f"error: cannot write output: {exc}"
    except (  # before ValueError, SweepCapError's base
        *_loaded(f"{__package__}.torus_knots", "IntegralityError"),
        *_loaded(f"{__package__}.verify", "SweepCapError"),
    ) as exc:
        code, message = EXIT_FINDING, str(exc)
    except ValueError as exc:  # input validation
        code, message = EXIT_USAGE, f"error: {exc}"
    except (  # MemoryError: an allocation failed, in a sweep task or in rendering
        *_loaded("concurrent.futures", "BrokenExecutor"), KeyboardInterrupt, MemoryError
    ) as exc:
        code, message = EXIT_FINDING, f"{args.command} did not complete: {exc!r}"
    print(f"crosscap: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
