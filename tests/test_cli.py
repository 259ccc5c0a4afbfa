"""End-to-end CLI tests: exit codes, output formats, determinism."""

from __future__ import annotations

import csv
import errno
import io
import json
import multiprocessing
import os
import stat
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

import crosscap.verify as verify_module
from crosscap import (
    CHECK_NAMES,
    HalfInteger,
    IntegralityError,
    Parity,
    SweepConfig,
    TorusKnot,
    check_knot,
    enumerate_coprime,
    invariants,
    mobius_family,
    normalize,
    run_verification,
    serialize_report,
    sharp_family,
)
from crosscap.cli import main
from crosscap.torus_knots import RECORD_FIELDS

EXPECTED_HEADER = "p,q,parity,genus,crossing,crosscap,bound_clark,bound_my,bound_thm1,bound_thm2,gap"


def csv_module_text(rows):
    """`rows`, any iterable of rows, as the csv module writes them, each line
    ending in a newline: the oracle of the program's own CSV encoding.  Each
    row is encoded as it is taken, so a generator's rows are never held."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def two_pass_csv(max_p):
    """verify --csv as first defined: check_knot over enumerate_coprime, a row
    per knot, each encoded as it is made."""
    fields = EXPECTED_HEADER.split(",")

    def rows():
        yield fields + [f"violated_{name}" for name in CHECK_NAMES]
        for knot in enumerate_coprime(max_p):
            checked = check_knot(knot)
            record = checked.record.as_dict()
            flags = [1 if name in checked.violated else 0 for name in CHECK_NAMES]
            yield [record[name] for name in fields] + flags

    return csv_module_text(rows())


def count_checked(monkeypatch, fail_at=None, exc=None):
    """Record the knots verify's walks reach in this process, as TorusKnots
    in walk order; raise `exc` at knot number `fail_at`.  A walk given cells,
    a CSV band's, writes each knot's cell once, at slot _row(p) - _row(lo) +
    q - 2 (see `verify._band`), whether it checked the knot or filled its
    cell past a jump: the patched `_walk` hands it a stand-in for its cells
    that stores to them and records the knot of each slot.  A walk without
    cells, the report's, jumps over knots that it settles unchecked, so it
    records each knot that walk offers as the max-gap witness through
    `_Partial.add`, which a walk calls for nothing else."""
    calls = []
    row, walk, add = verify_module._row, verify_module._walk, verify_module._Partial.add

    def record(p, q):
        calls.append(TorusKnot(p, q))
        if len(calls) == fail_at:
            raise exc

    class Cells:
        def __init__(self, lo, cells):
            self.lo, self.cells = lo, cells

        def __setitem__(self, slot, cell):
            self.cells[slot] = cell
            slot += row(self.lo)  # among all (p, q), 2 <= q < p, from p = 3
            p = 3
            while row(p + 1) <= slot:
                p += 1
            record(p, slot - row(p) + 2)

    def offered(self, count, listed, best):
        record(*best[:2])
        add(self, count, listed, best)

    def counted(max_p, stack, tasks=None, lo=3, cells=None):
        if cells is not None:
            return walk(max_p, stack, tasks, lo, Cells(lo, cells))
        verify_module._Partial.add = offered
        try:
            return walk(max_p, stack, tasks, lo)
        finally:
            verify_module._Partial.add = add

    monkeypatch.setattr(verify_module, "_walk", counted)
    return calls


FAMILY_TRAIL = ("genus", "crossing", "crosscap", "gap")


def cli_csv_rows(argv):
    """The rows `invariants P Q --csv` or `family NAME COUNT --csv` should
    write, from the library: a header, then one row per record."""
    if argv[0] == "invariants":
        fields = invariants(normalize(int(argv[1]), int(argv[2]))).as_dict()
        return [list(fields), list(fields.values())]
    generator = {"sharp": sharp_family, "mobius": mobius_family}[argv[1]]
    rows = [["n", *RECORD_FIELDS, *(f"expected_{f}" for f in FAMILY_TRAIL), "match"]]
    for n in range(1, int(argv[2]) + 1):
        knot, expected = generator(n)
        computed = invariants(knot)
        trail = [getattr(expected, f) for f in FAMILY_TRAIL]
        rows.append([n, *computed.as_dict().values(), *trail, int(computed == expected)])
    return rows


def force_bands(monkeypatch, max_p: int, count: int) -> list[tuple[int, int]]:
    """Patch `_BAND_SLOTS` so that a CSV sweep to max_p cuts `count` bands;
    returns them."""
    monkeypatch.setattr(verify_module, "_BAND_SLOTS", -(-verify_module._row(max_p + 1) // count))
    bands = verify_module._bands(max_p)
    assert len(bands) == count
    return bands


def several_bands(monkeypatch) -> list[tuple[int, int]]:
    """Patch `_BAND_SLOTS` so that max_p 60 cuts several bands, some of them a
    single p row; returns them."""
    monkeypatch.setattr(verify_module, "_BAND_SLOTS", 100)
    bands = verify_module._bands(60)
    assert len(bands) > 5 and (55, 55) in bands and bands[-1] == (60, 60)
    assert [lo for lo, _ in bands] == [3] + [hi + 1 for _, hi in bands[:-1]]
    return bands


def raise_oserror(code: int, *args) -> None:
    """Fail as the OS does with `code`, whatever the arguments: a stand-in for
    any call (module-level, so that a partial of it pickles)."""
    raise OSError(code, os.strerror(code))


def raise_memoryerror(*args) -> None:
    """Fail as an allocation does in Python, whatever the arguments: with
    MemoryError, not OSError(ENOMEM)."""
    raise MemoryError


def fail_in_walk_tasks(monkeypatch, exc: BaseException) -> None:
    """Patch `verify._walk` to raise `exc` in each of the report's walk tasks,
    but not in this process's walk of the top prefixes, which collects those
    tasks."""
    walk = verify_module._walk

    def failing(max_p, stack, tasks=None, *rest):
        if tasks is None:
            raise exc
        return walk(max_p, stack, tasks, *rest)

    monkeypatch.setattr(verify_module, "_walk", failing)


def pool_that_cannot_start(monkeypatch, where: str) -> None:
    """Make verify's walkers fail to start, for either output: at
    "constructor" their claim counter cannot be built (`multiprocessing.Value`
    fails with ENOSYS, as where POSIX semaphores are missing), at "submit" a
    walker process cannot start (`Process.start` fails with EAGAIN, as at the
    process limit).  This process may run on 64 CPUs, so that a sweep at two
    workers starts a walker on any machine."""
    if where == "constructor":
        target, name, code = multiprocessing, "Value", errno.ENOSYS
    else:
        target, name, code = multiprocessing.Process, "start", errno.EAGAIN
    monkeypatch.setattr(target, name, lambda *args: raise_oserror(code))
    monkeypatch.setattr(verify_module, "_cpus", lambda: 64)


def run_cli(argv, capsys):
    """Invoke main() in-process; argparse usage errors arrive as SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


class TestInvariantsCommand:
    def test_human_output(self, capsys):
        code, out, _ = run_cli(["invariants", "7", "5"], capsys)
        assert code == 0
        assert "torus knot (7,5), parity odd" in out
        assert "crosscap:  3" in out

    def test_json_fields_exact(self, capsys):
        code, out, _ = run_cli(["invariants", "7", "5", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert list(data) == EXPECTED_HEADER.split(",")
        assert data == {
            "p": 7, "q": 5, "parity": "odd", "genus": 12, "crossing": 28,
            "crosscap": 3, "bound_clark": 25, "bound_my": 14,
            "bound_thm1": 3, "bound_thm2": 3, "gap": 9,
        }

    def test_normalizes_argument_order(self, capsys):
        code, out, _ = run_cli(["invariants", "5", "7", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["p"] == 7

    def test_unknot_all_zeros(self, capsys):
        code, out, _ = run_cli(["invariants", "5", "1", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["parity"] == "unknot"
        assert all(v == 0 for k, v in data.items() if k != "parity")

    def test_unknot_human(self, capsys):
        code, out, _ = run_cli(["invariants", "5", "1"], capsys)
        assert code == 0
        assert "unknot" in out

    def test_not_coprime_exits_1(self, capsys):
        code, _, err = run_cli(["invariants", "6", "4"], capsys)
        assert code == 1
        assert "not coprime" in err

    def test_non_positive_exits_1(self, capsys):
        code, _, err = run_cli(["invariants", "7", "0"], capsys)
        assert code == 1

    def test_csv_header_exact(self, capsys):
        code, out, _ = run_cli(["invariants", "7", "5", "--csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert lines[1] == "7,5,odd,12,28,3,25,14,3,3,9"

    @pytest.mark.parametrize(
        "argv",
        [["invariants", "7", "5"], ["invariants", "1", "5"], ["family", "sharp", "3"],
         ["family", "mobius", "2"]],
        ids=" ".join,
    )
    def test_csv_outside_a_sweep_equals_the_csv_module(self, capsys, argv):
        code, out, _ = run_cli([*argv, "--csv"], capsys)
        assert code == 0
        assert out == csv_module_text(cli_csv_rows(argv))
        if argv == ["invariants", "1", "5"]:
            assert out.splitlines()[1] == "0,0,unknot,0,0,0,0,0,0,0,0"

    def test_no_csv_word_needs_quoting(self, capsys):
        # the program writes each field as `str` gives it, unquoted: every
        # word it can put in a CSV field must be free of what the csv module
        # would quote
        code, out, _ = run_cli(["family", "sharp", "1", "--csv"], capsys)
        assert code == 0
        family_header = next(csv.reader(io.StringIO(out)))
        words = [*RECORD_FIELDS, *verify_module._CSV_HEADER, *family_header,
                 *(parity.value for parity in Parity), "unknot"]
        assert "match" in family_header and "violated_q3" in words
        assert all(not set(word) & set(',"\r\n') for word in words)
        assert {word: csv_module_text([[word]]) for word in words} == {
            word: word + "\n" for word in words
        }

    def test_json_and_csv_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(["invariants", "7", "5", "--json", "--csv"], capsys)
        assert code == 1


class TestCfCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(["cf", "8", "3"], capsys)
        assert code == 0
        assert "8/3 = [2, 1, 2]" in out
        assert "coefficient sum: 5" in out
        assert "skipped total:   4" in out
        assert "N:               2" in out

    def test_second_worked_example(self, capsys):
        code, out, _ = run_cli(["cf", "34", "49"], capsys)
        assert code == 0
        assert "[0, 1, 2, 3, 1, 3]" in out
        assert "skipped total:   6" in out
        assert "N:               3" in out

    def test_half_integer_rendering(self, capsys):
        code, out, _ = run_cli(["cf", "3", "2"], capsys)
        assert code == 0
        assert "[1, 2]" in out
        assert "skipped total:   3" in out
        assert "N:               3/2" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["cf", "3", "2", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data == {
            "numerator": 3, "denominator": 2, "coefficients": [1, 2],
            "coefficient_sum": 3, "skipped_total": 3, "n": "3/2",
        }

    def test_zero_numerator_ok(self, capsys):
        code, out, _ = run_cli(["cf", "0", "1", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["coefficients"] == [0]

    def test_not_coprime_exits_1(self, capsys):
        code, _, err = run_cli(["cf", "6", "4"], capsys)
        assert code == 1
        assert "lowest terms" in err

    def test_bad_denominator_exits_1(self, capsys):
        code, _, _ = run_cli(["cf", "3", "0"], capsys)
        assert code == 1


class TestVerifyCommand:
    def test_summary_and_exit_zero(self, capsys):
        code, out, _ = run_cli(["verify", "--max-p", "30"], capsys)
        assert code == 0
        assert "0 violations" in out
        assert "checked 248 torus knots" in out

    def test_json_stdout(self, capsys):
        code, out, _ = run_cli(["verify", "--max-p", "20", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["knots_checked"] == 108
        assert data["violations"] == []
        assert data["max_gap_witness"] == {
            "p": 20, "q": 19, "genus": 171, "crosscap": 10, "gap": 161,
        }

    def test_too_small_range_exits_1(self, capsys):
        code, _, err = run_cli(["verify", "--max-p", "2"], capsys)
        assert code == 1

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--max-p", "20000"], capsys)
        assert code == 2
        assert "cap" in err

    def test_json_files_identical_across_workers(self, tmp_path, capsys, monkeypatch):
        # the walk in-process, the walk's tasks on a pool of two, and the
        # CSV's band tasks, one band per p row, on a pool of four
        paths = [tmp_path / "report-1.json", tmp_path / "report-2.json"]
        for workers, path in zip(("1", "2"), paths):
            argv = ["verify", "--max-p", "50", "--workers", workers, "--json", str(path)]
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
        monkeypatch.setattr(verify_module, "_BAND_SLOTS", 1)
        rows = run_verification(SweepConfig(max_p=50, workers=4), [].append)
        assert paths[0].read_bytes() == paths[1].read_bytes() == serialize_report(rows).encode()

    def test_violation_finding_exits_2(self, tmp_path, capsys, monkeypatch):
        # the shipped checks never find a violation, so substitute a report
        # that contains one and pin the exit-code contract
        from crosscap import BoundCheckRecord, SweepConfig, VerificationReport, invariants
        from crosscap.torus_knots import TorusKnot

        rec = invariants(TorusKnot(7, 5))
        doctored = VerificationReport(
            max_p=10,
            checks=("thm1",),
            knots_checked=1,
            violations=(BoundCheckRecord(rec, frozenset({"thm1"}), frozenset()),),
            sharpness_hits=(),
            max_gap_witness=rec,
            lemma_failures=(),
        )
        monkeypatch.setattr(verify_module, "run_verification", lambda config: doctored)
        code, out, _ = run_cli(["verify", "--max-p", "10"], capsys)
        assert code == 2
        assert "1 violations" in out

    def test_csv_rows_one_per_knot(self, tmp_path, capsys):
        path = tmp_path / "knots.csv"
        code, _, _ = run_cli(["verify", "--max-p", "20", "--csv", str(path)], capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER + "," + ",".join(
            f"violated_{name}"
            for name in ("thm1", "thm2", "clark", "my", "lemma2", "lemma9", "q3", "gap")
        )
        assert len(lines) == 1 + 108
        assert lines[1].startswith("3,2,even,1,3,1,")
        # no violated flags set anywhere
        assert all(row.endswith(",0,0,0,0,0,0,0,0") for row in lines[1:])

    def test_csv_checks_each_knot_once(self, tmp_path, capsys, monkeypatch):
        # each band's walk checks each knot of its rows once, and counts it
        # once; the renderer then writes each knot's row once, in (p, q) order
        bands = force_bands(monkeypatch, 60, 3)
        calls = count_checked(monkeypatch)
        counts, band = [], verify_module._band

        def counted_band(lo, hi):
            result = band(lo, hi)
            counts.append((lo, hi, result[1].count))
            return result

        monkeypatch.setattr(verify_module, "_band", counted_band)
        path = tmp_path / "knots.csv"
        code, _, _ = run_cli(["verify", "--max-p", "60", "--csv", str(path)], capsys)
        assert code == 0
        knots = list(enumerate_coprime(60))
        assert Counter(calls) == Counter(knots)
        assert counts == [(lo, hi, sum(lo <= k.p <= hi for k in knots)) for lo, hi in bands]
        rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
        assert rows == [[str(k.p), str(k.q)] for k in knots]

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_csv_bytes_and_summary_match_two_pass(self, tmp_path, capsys, workers):
        code, summary, _ = run_cli(["verify", "--max-p", "60"], capsys)
        assert code == 0
        path = tmp_path / "knots.csv"
        code, out, _ = run_cli(
            ["verify", "--max-p", "60", "--workers", workers, "--csv", str(path)], capsys
        )
        assert code == 0
        assert path.read_bytes() == two_pass_csv(60).encode()
        assert out == summary

    def test_csv_with_workers_uses_the_pool(self, tmp_path, capsys, pool_sizes, monkeypatch):
        # a pool needs two bands or more: at the shipped size, max_p 60 has one
        assert len(verify_module._bands(60)) == 1
        monkeypatch.setattr(verify_module, "_BAND_SLOTS", 800)
        assert len(verify_module._bands(60)) == 3
        path = tmp_path / "knots.csv"
        code, _, _ = run_cli(
            ["verify", "--max-p", "60", "--workers", "2", "--csv", str(path)], capsys
        )
        assert code == 0
        assert pool_sizes == [2]
        assert path.read_bytes() == two_pass_csv(60).encode()

    @pytest.mark.parametrize(
        "exc", [IntegralityError(TorusKnot(7, 5), HalfInteger(7)), KeyboardInterrupt()]
    )
    def test_aborted_csv_sweep_leaves_no_file(self, tmp_path, capsys, monkeypatch, exc):
        count_checked(monkeypatch, fail_at=50, exc=exc)
        path = tmp_path / "knots.csv"
        code, _, _ = run_cli(["verify", "--max-p", "60", "--csv", str(path)], capsys)
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_csv_to_missing_dir_fails_before_sweeping(self, tmp_path, capsys, monkeypatch):
        calls = count_checked(monkeypatch)
        path = tmp_path / "no" / "such" / "knots.csv"
        code, _, err = run_cli(["verify", "--max-p", "20", "--csv", str(path)], capsys)
        assert code == 1
        assert "cannot write output" in err
        assert calls == []

    def test_json_to_missing_dir_fails_before_sweeping(self, tmp_path, capsys, monkeypatch):
        calls = count_checked(monkeypatch)
        path = tmp_path / "no" / "such" / "r.json"
        code, _, err = run_cli(["verify", "--max-p", "20", "--json", str(path)], capsys)
        assert code == 1
        assert "cannot write output" in err
        assert calls == []

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_aborted_csv_sweep_keeps_old_file(self, tmp_path, capsys, monkeypatch, flag):
        path = tmp_path / "knots.csv"
        path.write_text("old rows\n")
        stray = tmp_path / "knots.csv.partial"
        stray.write_text("not ours\n")
        count_checked(monkeypatch, fail_at=50, exc=KeyboardInterrupt())
        code, _, _ = run_cli(["verify", "--max-p", "60", flag, str(path)], capsys)
        assert code == 2
        assert sorted(tmp_path.iterdir()) == [path, stray]
        assert path.read_text() == "old rows\n"
        assert stray.read_text() == "not ours\n"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify", "--max-p", "20", "--json"], id="--json"),
            pytest.param(["verify", "--max-p", "20", "--csv"], id="--csv"),
            pytest.param(["invariants", "7", "5", "--json"], id="invariants-json"),
            pytest.param(["family", "sharp", "3", "--csv"], id="family-csv"),
        ],
    )
    def test_output_through_symlink_keeps_link_and_mode(self, tmp_path, capsys, argv):
        code, _, _ = run_cli([*argv, str(tmp_path / "plain")], capsys)
        assert code == 0
        real = tmp_path / "real"
        real.write_text("old\n")
        real.chmod(0o640)
        link = tmp_path / "link"
        link.symlink_to(real)
        code, _, _ = run_cli([*argv, str(link)], capsys)
        assert code == 0
        assert link.is_symlink() and link.resolve() == real
        assert real.read_bytes() == (tmp_path / "plain").read_bytes()
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "plain", "real"]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param(["verify", "--max-p", "20", "--csv"], two_pass_csv(20), id="verify-csv"),
            pytest.param(
                ["invariants", "7", "5", "--json"],
                json.dumps(invariants(TorusKnot(7, 5)).as_dict(), indent=2) + "\n",
                id="invariants-json",
            ),
        ],
    )
    def test_output_to_fifo_writes_in_place(self, tmp_path, capsys, argv, expected):
        fifo = tmp_path / "rows"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        code, _, _ = run_cli([*argv, str(fifo)], capsys)
        reader.join(timeout=30)
        assert code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received == [expected.encode()]

    @pytest.mark.parametrize(
        "exc", [BrokenProcessPool("a worker was terminated abruptly"), KeyboardInterrupt()]
    )
    def test_incomplete_sweep_exits_2(self, tmp_path, capsys, monkeypatch, exc):
        # at two workers both the report's walk tasks and, from two bands on,
        # the CSV's band tasks run on a pool, whose worker can crash
        def fail(config, write=None):
            raise exc

        monkeypatch.setattr(verify_module, "run_verification", fail)
        for flag in ("--csv", "--json"):
            path = tmp_path / "out"
            argv = ["verify", "--max-p", "20", "--workers", "2", flag, str(path)]
            code, _, err = run_cli(argv, capsys)
            assert code == 2
            assert err.startswith("crosscap: verify did not complete: ")
            assert len(err.splitlines()) == 1
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "where, code", [("constructor", errno.ENOSYS), ("submit", errno.EAGAIN)]
    )
    def test_pool_that_cannot_start_exits_2(self, tmp_path, capsys, monkeypatch, where, code):
        # no output path is involved: not "cannot write output", exit 1
        pool_that_cannot_start(monkeypatch, where)
        monkeypatch.setattr(verify_module, "_BAND_SLOTS", 800)
        assert len(verify_module._bands(60)) == 3
        path = tmp_path / "knots.csv"
        for argv in (["--max-p", "50"], ["--max-p", "60", "--csv", str(path)]):
            exit_code, _, err = run_cli(["verify", *argv, "--workers", "2"], capsys)
            assert exit_code == 2
            assert err.startswith("crosscap: verify did not complete: BrokenExecutor(")
            assert os.strerror(code) in err
            assert len(err.splitlines()) == 1
            assert list(tmp_path.iterdir()) == []
        # one worker builds no pool
        argv = ["verify", "--max-p", "60", "--workers", "1", "--csv", str(path)]
        exit_code, _, _ = run_cli(argv, capsys)
        assert exit_code == 0
        assert path.read_bytes() == two_pass_csv(60).encode()


class TestFamilyCommand:
    def test_sharp_table(self, capsys):
        code, out, _ = run_cli(["family", "sharp", "3"], capsys)
        assert code == 0
        assert "(4,3)" in out and "(10,3)" in out and "(16,3)" in out
        assert "MISMATCH" not in out

    def test_sharp_json(self, capsys):
        code, out, _ = run_cli(["family", "sharp", "3", "--json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert [r["computed"]["crosscap"] for r in rows] == [2, 3, 4]
        assert all(r["match"] for r in rows)
        assert all(
            r["computed"]["bound_thm1"] == r["computed"]["bound_thm2"] == r["computed"]["crosscap"]
            for r in rows
        )

    def test_mobius_json(self, capsys):
        code, out, _ = run_cli(["family", "mobius", "3", "--json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert [r["computed"]["p"] for r in rows] == [3, 5, 7]
        assert [r["computed"]["genus"] for r in rows] == [1, 2, 3]
        assert all(r["computed"]["crosscap"] == 1 for r in rows)

    def test_mobius_csv(self, tmp_path, capsys):
        path = tmp_path / "family.csv"
        code, _, _ = run_cli(["family", "mobius", "2", "--csv", str(path)], capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("n," + EXPECTED_HEADER)
        assert lines[0].endswith("expected_genus,expected_crossing,expected_crosscap,expected_gap,match")
        assert len(lines) == 3
        assert all(line.endswith(",1") for line in lines[1:])

    def test_zero_count_exits_1(self, capsys):
        code, _, _ = run_cli(["family", "sharp", "0"], capsys)
        assert code == 1

    def test_unknown_family_exits_1(self, capsys):
        code, _, _ = run_cli(["family", "figure8", "3"], capsys)
        assert code == 1


class TestParserContract:
    def test_no_subcommand_exits_1(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run_cli(["invariants", "7", "5", "--nope"], capsys)
        assert code == 1

    def test_non_integer_argument_exits_1(self, capsys):
        code, _, _ = run_cli(["invariants", "seven", "5"], capsys)
        assert code == 1

    def test_unwritable_output_path_exits_1(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
        code, _, err = run_cli(
            ["invariants", "7", "5", "--json", str(missing_dir)], capsys
        )
        assert code == 1
        assert "cannot write output" in err


_NO_DEV_FULL = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full, whose writes fail with ENOSPC"
)


class TestExitCodeTable:
    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_oserror_in_a_sweep_task_exits_2(
        self, tmp_path, capsys, monkeypatch, pool_sizes, workers, flag
    ):
        # the sweep stopped, not the output: its band task (one band in
        # process, three on the pool) or its walk task runs out of memory
        if flag == "--csv":
            force_bands(monkeypatch, 50, 1 if workers == "1" else 3)
            monkeypatch.setattr(verify_module, "_band", lambda lo, hi: raise_oserror(errno.ENOMEM))
        else:
            fail_in_walk_tasks(monkeypatch, OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)))
        path = tmp_path / "out"
        argv = ["verify", "--max-p", "50", "--workers", workers, flag, str(path)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("crosscap: verify did not complete: BrokenExecutor(")
        assert os.strerror(errno.ENOMEM) in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []
        # the report's pool leaves one walker to this process
        assert pool_sizes == ([] if workers == "1" else [2 if flag == "--csv" else 1])

    @pytest.mark.parametrize("where", ["walk-task", "band-task", "csv-rendering"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_memoryerror_in_a_sweep_exits_2(
        self, tmp_path, capsys, monkeypatch, pool_sizes, workers, where
    ):
        # a failed allocation is a MemoryError, in a task run in this process
        # or on the pool (whose result raises it here), or in this process's
        # rendering of the CSV: the sweep did not complete
        if where == "walk-task":
            fail_in_walk_tasks(monkeypatch, MemoryError())
        else:
            force_bands(monkeypatch, 50, 1 if workers == "1" else 3)
            target = "_band" if where == "band-task" else "_write_rows"
            monkeypatch.setattr(verify_module, target, raise_memoryerror)
        path = tmp_path / "out"
        flag = "--json" if where == "walk-task" else "--csv"
        argv = ["verify", "--max-p", "50", "--workers", workers, flag, str(path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err == "crosscap: verify did not complete: MemoryError()\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []
        assert pool_sizes == ([] if workers == "1" else [1 if where == "walk-task" else 2])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_memoryerror_in_a_rows_format_exits_2(
        self, tmp_path, capsys, monkeypatch, pool_sizes, workers
    ):
        # the allocation fails inside the `%` that renders a row: each knot's
        # violated flags are a text that cannot become text
        class Unprintable(str):
            def __str__(self):
                raise MemoryError

        monkeypatch.setattr(verify_module, "_FLAGS", tuple(map(Unprintable, verify_module._FLAGS)))
        force_bands(monkeypatch, 50, 1 if workers == "1" else 3)
        path = tmp_path / "out"
        argv = ["verify", "--max-p", "50", "--workers", workers, "--csv", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err == "crosscap: verify did not complete: MemoryError()\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []
        assert pool_sizes == ([] if workers == "1" else [2])

    @_NO_DEV_FULL
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["invariants", "7", "5", "--json"], id="invariants-json"),
            pytest.param(["verify", "--max-p", "20", "--csv"], id="verify-csv"),
            pytest.param(["verify", "--max-p", "20", "--json"], id="verify-json"),
            pytest.param(["verify", "--max-p", "60", "--workers", "2", "--csv"], id="pooled-csv"),
        ],
    )
    def test_write_that_fails_exits_1(self, capsys, monkeypatch, pool_sizes, argv):
        # a write error is the output's, also while the CSV's band pool runs
        if "--workers" in argv:
            several_bands(monkeypatch)
        code, out, err = run_cli([*argv, "/dev/full"], capsys)
        assert code == 1
        enospc = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert err == f"crosscap: error: cannot write output: {enospc}\n"
        assert out == ""
        assert pool_sizes == ([2] if "--workers" in argv else [])

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["invariants", "7", "5", "--json"], id="invariants-json"),
            pytest.param(["verify", "--max-p", "20", "--csv"], id="verify-csv"),
        ],
    )
    def test_path_the_os_rejects_exits_1(self, tmp_path, capsys, monkeypatch, argv):
        calls = count_checked(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([*argv, "a\0b"], capsys)
        assert code == 1
        assert err == "crosscap: error: cannot write output: embedded null byte\n"
        assert out == ""
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crosscap", "invariants", "7", "5", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["crosscap"] == 3

    def test_invariants_of_any_length(self):
        # the genus has 4,399 digits: past the 4,300 to which the interpreter
        # limits int-to-text conversion by default, from Python 3.10.7 on
        p, q = 10**2200 + 1, 10**2199 + 3
        proc = subprocess.run(
            [sys.executable, "-m", "crosscap", "invariants", str(p), str(q), "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            fields = json.loads(proc.stdout)
            assert len(str(fields["genus"])) == 4399
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert fields["genus"] == (p - 1) * (q - 1) // 2
        assert fields["crosscap"] == invariants(TorusKnot(p, q)).crosscap

    def test_module_invocation_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crosscap", "invariants", "6", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1

    def test_verify_csv_to_stdout_fd_link(self, tmp_path):
        # like /dev/stdout, but a broken version can only replace this link
        link = tmp_path / "stdout"
        link.symlink_to("/proc/self/fd/1")
        proc = subprocess.run(
            [sys.executable, "-m", "crosscap", "verify", "--max-p", "20", "--csv", str(link)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(two_pass_csv(20))
        assert "checked 108 torus knots" in proc.stdout
        assert link.is_symlink()
