"""Command-line surface: dispatch, formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monoseq import cli
from monoseq.chain_solver import MAX_EXACT_N, CappedChainSolver, ChainSolver, stabilization_bound
from monoseq.cli import emit_table, parse_table_json, run
from monoseq.golden import dump_csv_rows, golden_cases, load_csv_rows
from monoseq.order_core import GameParams, Mode, Outcome

SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommands:
    def test_solve_chain_prints_outcome(self, capsys):
        code, out, _ = invoke(
            capsys, "solve", "chain", "--a", "5", "--d", "4", "--n", "11", "--mode", "normal"
        )
        assert code == 0
        assert out.strip() == "N"

    def test_solve_chain_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "solve", "chain", "--a", "3", "--d", "3", "--n", "5", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "N"
        assert payload["smallest_winning_move"] == 2
        assert payload["mode"] == "normal"
        assert payload["memo_entries"] > 0

    def test_solve_chain_capped_agrees(self, capsys):
        # B(3, 3) = 11: the exact search runs below it, the clamped one from
        # it on, and the JSON counts are those of the search that ran.
        params = GameParams(3, 3)
        base = ("solve", "chain", "--a", "3", "--d", "3", "--n")
        for n, solver_class in [(9, ChainSolver), (11, CappedChainSolver), (40, CappedChainSolver)]:
            solver = solver_class(params)
            report = solver.solve(n)
            code, out, _ = invoke(capsys, *base, str(n))
            assert code == 0
            assert out.strip() == report.outcome.value == "N"
            code, out, _ = invoke(capsys, *base, str(n), "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["smallest_winning_move"] == report.smallest_winning_move
            assert payload["nodes_expanded"] == report.nodes_expanded
            assert payload["memo_entries"] == solver.memo_size, n

    def test_solve_chain_deck_size_limit(self, capsys):
        # Past the exact search's deck limit the clamped search runs, also
        # below the bound: B(2, 2) = 3, B(4, 4) = 39.
        base = ("solve", "chain", "--a", "2", "--d", "2", "--n")
        for n in (MAX_EXACT_N, MAX_EXACT_N + 1):
            code, out, _ = invoke(capsys, *base, str(n))
            assert code == 0
            assert out.strip() == "P"
        n = MAX_EXACT_N + 1
        solver = CappedChainSolver(GameParams(4, 4))
        report = solver.solve(n)
        code, out, _ = invoke(capsys, "solve", "chain", "--a", "4", "--d", "4", "--n", str(n), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == report.outcome.value
        assert payload["memo_entries"] == solver.memo_size

    @pytest.mark.parametrize("mode", ["normal", "misere"])
    @pytest.mark.parametrize("a,d", [(3, 4), (4, 3), (5, 3), (3, 5)])
    def test_solve_chain_from_bound_matches_exact(self, capsys, solvers, a, d, mode):
        exact = solvers.exact(a, d, Mode(mode))
        for n in range(stabilization_bound(a, d), MAX_EXACT_N + 1):
            report = exact.solve(n)
            code, out, _ = invoke(
                capsys, "solve", "chain", "--a", str(a), "--d", str(d), "--n", str(n),
                "--mode", mode, "--json",
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["outcome"] == report.outcome.value, n
            assert payload["smallest_winning_move"] == report.smallest_winning_move, n

    def test_solve_q(self, capsys):
        code, out, _ = invoke(capsys, "solve", "q", "--a", "6", "--d", "3")
        assert code == 0
        assert out.strip() == "P"

    def test_solve_q_dump_graph(self, capsys):
        code, out, _ = invoke(
            capsys, "solve", "q", "--a", "3", "--d", "3", "--dump-graph"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == payload["positions"][""] == "N"
        assert payload["positions"]["P"] == "P"
        code, out, _ = invoke(
            capsys, "solve", "q", "--a", "4", "--d", "4", "--mode", "misere",
            "--dump-graph",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == payload["positions"][""]

    def test_solve_extended(self, capsys):
        code, out, _ = invoke(capsys, "solve", "extended", "--a", "3", "--d", "3")
        assert code == 0
        assert out.strip() == "N"

    def test_solve_poset_from_json(self, capsys, tmp_path):
        doc = {
            "elements": ["a", "b", "c"],
            "less_than": [["a", "b"], ["b", "c"]],
        }
        path = tmp_path / "chain3.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(
            capsys,
            "solve", "poset", "--file", str(path), "--a", "3", "--d", "2",
        )
        assert code == 0
        assert out.strip() == "N"

    @pytest.mark.parametrize(
        "doc",
        [
            {"elements": [[1], [2]]},
            {"elements": 5},
            {"elements": [1, 2], "less_than": [[1, [2]]]},
        ],
        ids=["unhashable-elements", "non-list-elements", "unhashable-pair-member"],
    )
    def test_solve_poset_malformed_file(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(
            capsys,
            "solve", "poset", "--file", str(path), "--a", "3", "--d", "3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad poset document")

    @pytest.mark.parametrize("target", ["chain", "q", "extended", "poset"])
    def test_memory_guard_exit_code(self, capsys, tmp_path, zero_budget, target):
        path = tmp_path / "chain3.json"
        path.write_text(json.dumps({"elements": [1, 2, 3], "less_than": [[1, 2], [2, 3]]}))
        extra = {"chain": ["--n", "12"], "poset": ["--file", str(path)]}.get(target, [])
        code, out, err = invoke(capsys, "solve", target, "--a", "4", "--d", "4", *extra)
        assert code == 3
        assert out == ""
        assert err.startswith("error: memory budget exceeded")
        assert err.count("\n") == 1  # one error line, no traceback

    def test_address_space_limit_bounds_budget(self):
        # Under `ulimit -v` the guard fires before an allocation fails, so
        # the command ends on one error line instead of a traceback.
        resource = pytest.importorskip("resource")
        limit = 128 << 20
        argv = ["solve", "chain", "--a", "7", "--d", "7", "--n", "30"]
        proc = subprocess.run(
            [sys.executable, "-m", "monoseq", *argv],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: memory budget exceeded")
        assert proc.stderr.count("\n") == 1

    def test_memory_error_exit_code(self, capsys, monkeypatch):
        def exhausted(a, d):
            raise MemoryError

        monkeypatch.setattr(cli, "solve_extended", exhausted)
        code, out, err = invoke(capsys, "solve", "extended", "--a", "3", "--d", "3")
        assert code == 3
        assert out == ""
        assert err == "error: out of memory\n"


class TestBumpTrace:
    def test_trace_matches_worked_example(self, capsys):
        code, out, _ = invoke(capsys, "bump", "--trace", "514263")
        assert code == 0
        colours = [line.split("colour ")[1] for line in out.strip().splitlines()]
        assert colours == ["P", "PB", "RPB", "RPBB", "RPBP", "RRPBB"]

    def test_comma_separated_values(self, capsys):
        code, out, _ = invoke(capsys, "bump", "--trace", "10,20,5")
        assert code == 0
        assert out.strip().splitlines()[-1].endswith("PP")


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "admissible", "--length", "3", "--count-only"
        )
        assert code == 0
        assert out.strip() == "8"

    def test_listing(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "admissible", "--length", "2")
        assert out.split() == ["PB", "PP", "RP"]


class TestCertify:
    def test_p4_pass(self, capsys):
        code, out, err = invoke(capsys, "certify", "--pset", "p4", "--a", "6")
        assert code == 0
        assert "VERIFIED" in out
        assert "FAIL" not in out
        assert err == ""

    def test_p5_pass(self, capsys):
        code, out, err = invoke(capsys, "certify", "--pset", "p5", "--a", "6")
        assert code == 0
        assert "VERIFIED" in out
        assert "FAIL" not in out
        assert err == ""


class TestVerify:
    def test_admissible_counts_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "admissible-counts")
        assert code == 0
        assert "SUITE admissible-counts: 6 passed, 0 failed" in out

    def test_extended_parity_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "extended-parity")
        assert code == 0
        assert "0 failed" in out

    def test_misere_suite_quick_slice(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--suite", "misere-table", "--max-n", "6"
        )
        assert code == 0
        assert "misere a=3 d=3 n=4: expected N actual N PASS" in out

    def test_normal_suite_quick_slice(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--suite", "normal-results", "--max-n", "6"
        )
        assert code == 0

    def test_verify_is_deterministic(self, capsys):
        _, first, _ = invoke(capsys, "verify", "--suite", "admissible-counts")
        _, second, _ = invoke(capsys, "verify", "--suite", "admissible-counts")
        assert first == second

    def test_verify_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--suite", "admissible-counts", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert len(payload["cases"]) == 6

    @pytest.mark.parametrize(
        "suite,flag,value",
        [
            ("misere-table", "--max-n", "0"),
            ("misere-table", "--max-n", "-1"),
            ("normal-results", "--max-n", "0"),
            ("q-theorems", "--max-a", "1"),
            ("q-theorems", "--max-a", "0"),
        ],
    )
    def test_degenerate_range_rejected(self, capsys, suite, flag, value):
        code, out, err = invoke(capsys, "verify", "--suite", suite, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err

    def test_golden_mismatch_exit_code(self, capsys, tmp_path):
        bogus = tmp_path / "golden.csv"
        bogus.write_text("a,d,n,mode,outcome\n3,3,4,misere,P\n")
        code, out, _ = invoke(
            capsys, "verify", "--suite", "misere-table", "--golden", str(bogus)
        )
        assert code == 1
        assert "FAIL" in out


class TestScan:
    def test_outcome_and_smallest_move_sweep(self, capsys):
        code, out, _ = invoke(
            capsys,
            "scan", "--a", "3", "--d", "3", "--mode", "misere",
            "--n-from", "1", "--n-to", "8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n outcome")
        assert lines[4].split() == ["4", "N", "2"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_range_rejected(self, capsys, fmt):
        code, out, err = invoke(
            capsys,
            "scan", "--a", "3", "--d", "3", "--n-from", "5", "--n-to", "3", "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--n-from" in err and "--n-to" in err


class TestLemmaSlot:
    def test_worked_example(self, capsys):
        code, out, _ = invoke(
            capsys, "lemma-slot", "--perm", "2,1,3", "--r", "2", "--s", "2"
        )
        assert code == 0
        assert "index=2 value_rank=4" in out
        assert "2,4,1,3" in out

    def test_no_slot(self, capsys):
        code, out, _ = invoke(
            capsys, "lemma-slot", "--perm", "2,1,4,3", "--r", "2", "--s", "2"
        )
        assert code == 0
        assert "no safe slot" in out

    @pytest.mark.parametrize("perm", ["3,3", "5,9", "0,1"])
    def test_non_permutation_rejected(self, capsys, perm):
        code, out, err = invoke(capsys, "lemma-slot", "--perm", perm, "--r", "2", "--s", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and perm in err


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["monoseq", "monoseq.cli"])
    def test_python_dash_m(self, capsys, module):
        argv = ["solve", "chain", "--a", "3", "--d", "3", "--n", "6"]
        code, expected, _ = invoke(capsys, *argv)
        assert code == 0
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run([]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["solve", "chain", "--a", "3"]) == 2


class TestEmitTable:
    def test_text_layout_matches_published_rows(self, solvers):
        rows = [
            (3, 3, n, Mode.MISERE, solvers.outcome(3, 3, n, Mode.MISERE))
            for n in range(1, 21)
        ]
        rendered = emit_table(rows, "text")
        assert "DDDNN NNNNN NNNNN NNNNN" in rendered

    def test_csv_line(self):
        rows = [(8, 4, 15, Mode.MISERE, Outcome.D)]
        assert "8,4,15,misere,D" in emit_table(rows, "csv")

    def test_json_round_trip(self):
        rows = [
            (3, 3, 1, Mode.MISERE, Outcome.D),
            (5, 4, 11, Mode.NORMAL, Outcome.N),
        ]
        assert parse_table_json(emit_table(rows, "json")) == rows

    def test_incomplete_grid_warns(self):
        rows = [
            (3, 3, 1, Mode.NORMAL, Outcome.D),
            (3, 3, 3, Mode.NORMAL, Outcome.D),
        ]
        rendered = emit_table(rows, "text")
        assert "warning" in rendered and "n=2" in rendered


class TestGoldenData:
    def test_csv_round_trip(self):
        for mode in Mode:
            rows = [(a, d, n, mode, o) for a, d, n, o in golden_cases(mode)]
            assert load_csv_rows(dump_csv_rows(rows)) == rows, mode

    def test_verify_with_dumped_golden_file(self, capsys, tmp_path):
        path = tmp_path / "golden.csv"
        path.write_text(
            dump_csv_rows(
                (a, d, n, Mode.MISERE, o) for a, d, n, o in golden_cases(Mode.MISERE)
            )
        )
        code, out, _ = invoke(
            capsys, "verify", "--suite", "misere-table", "--max-n", "6",
            "--golden", str(path),
        )
        assert code == 0
        assert "0 failed" in out

    def test_corrupt_csv_raises(self, capsys, tmp_path):
        text = "a,d,n,mode,outcome\n3,3,1,misere,D\n3,3,2,misere,X\n"
        with pytest.raises(ValueError, match=r"x\.csv, line 3"):
            load_csv_rows(text, "x.csv")
        corrupt = tmp_path / "misere_table.csv"
        corrupt.write_text(text)
        code, _, err = invoke(
            capsys, "verify", "--suite", "misere-table", "--golden", str(corrupt)
        )
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize(
        "text",
        ["", "a,d,n,mode,outcome\n3,3,1,normal,N\n3,3,2,normal,P\n"],
        ids=["empty", "normal-only"],
    )
    def test_golden_without_mode_rows_raises(self, capsys, tmp_path, text):
        path = tmp_path / "golden.csv"
        path.write_text(text)
        code, out, err = invoke(
            capsys, "verify", "--suite", "misere-table", "--golden", str(path)
        )
        assert code == 2
        assert "passed" not in out
        assert str(path) in err and "misere" in err

    def test_q_theorems_suite(self, capsys):
        code = run(["verify", "--suite", "q-theorems", "--max-a", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q a=8 d=4 normal: expected N actual N PASS" in out
        assert "q duality a=7 d=7: expected True actual True PASS" in out
