"""Command-line surface: dispatch, formats, exit codes, determinism."""

from __future__ import annotations

import functools
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from monoseq import bumping, cli, enumerate_admissible, errors
from monoseq.chain_solver import ChainSolver, closed_form_d2, closed_form_d3, stabilization_bound
from monoseq.cli import run
from monoseq.golden import dump_csv_rows, emit_table, golden_cases, load_csv_rows
from monoseq.order_core import GameParams, Mode, Outcome

from conftest import RefereeChainSearch

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

    def test_solve_chain_reports_solver_counts(self, capsys):
        # B(3, 3) = 11: below, at and past the bound the JSON counts are
        # those of a fresh ChainSolver.
        params = GameParams(3, 3)
        base = ("solve", "chain", "--a", "3", "--d", "3", "--n")
        for n in (9, 11, 40):
            solver = ChainSolver(params)
            report = solver.solve(n)
            code, out, _ = invoke(capsys, *base, str(n))
            assert code == 0
            assert out.strip() == report.outcome.value == "N"
            code, out, _ = invoke(capsys, *base, str(n), "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["smallest_winning_move"] == report.smallest_winning_move
            assert payload["nodes_expanded"] == report.nodes_expanded
            assert payload["memo_entries"] == solver.nodes_expanded, n

    def test_solve_chain_deck_size_limit(self, capsys, solvers):
        # No deck size is refused, below the bound either: B(4, 4) = 39.
        for a in (2, 3):
            for n in (32, 100, 10**6):
                code, out, _ = invoke(
                    capsys, "solve", "chain", "--a", str(a), "--d", "2", "--n", str(n)
                )
                assert code == 0
                assert out.strip() == closed_form_d2(a, n).value
        expected = solvers.referee(3, 3).solve(32)
        code, out, _ = invoke(
            capsys, "solve", "chain", "--a", "3", "--d", "3", "--n", "32", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == expected.outcome.value
        assert payload["smallest_winning_move"] == expected.smallest_winning_move
        solver = ChainSolver(GameParams(4, 4))
        report = solver.solve(32)
        code, out, _ = invoke(
            capsys, "solve", "chain", "--a", "4", "--d", "4", "--n", "32", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == report.outcome.value
        assert payload["memo_entries"] == solver.nodes_expanded

    @pytest.mark.parametrize("mode", ["normal", "misere"])
    @pytest.mark.parametrize("a,d", [(3, 4), (4, 3), (5, 3), (3, 5)])
    def test_solve_chain_from_bound_matches_exact(self, capsys, a, d, mode):
        # A fresh referee: its memo is dropped with the row.
        referee = RefereeChainSearch(GameParams(a, d, Mode(mode)))
        for n in range(stabilization_bound(a, d), 32):
            expected = referee.solve(n)
            code, out, _ = invoke(
                capsys, "solve", "chain", "--a", str(a), "--d", str(d), "--n", str(n),
                "--mode", mode, "--json",
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["outcome"] == expected.outcome.value, n
            assert payload["smallest_winning_move"] == expected.smallest_winning_move, n

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

    def test_certify_memory_guard_exit_code(self, capsys, zero_budget):
        code, out, err = invoke(capsys, "certify", "--pset", "p4", "--a", "6")
        assert code == 3
        assert "VERIFIED" not in out and "REFUTED" not in out
        assert err.startswith("error: memory budget exceeded")
        assert err.count("\n") == 1

    def test_enumerate_memory_guard_exit_code(self, capsys, zero_budget):
        with pytest.raises(errors.ResourceLimitError, match="memory budget exceeded"):
            enumerate_admissible(8)
        code, out, err = invoke(capsys, "enumerate", "admissible", "--length", "8")
        assert code == 3
        assert out == ""
        assert err.startswith("error: memory budget exceeded")
        assert err.count("\n") == 1

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

    def test_cgroup_limit_bounds_budget(self, capsys, tmp_path, monkeypatch):
        # The budget is at most half the room left under the cgroup v2
        # memory.max of the process's cgroup.
        (tmp_path / "cgroup").write_text("4:memory:/elsewhere\n0::/outer/inner\n")
        group = tmp_path / "fs" / "outer" / "inner"
        group.mkdir(parents=True)
        (group / "memory.max").write_text("max\n")
        (group / "memory.current").write_text("100000000\n")
        budget = functools.lru_cache(errors.memory_budget.__wrapped__)
        monkeypatch.setattr(errors, "memory_budget", budget)
        monkeypatch.setattr(errors, "PROC_CGROUP", str(tmp_path / "missing"))
        assert errors.cgroup_headroom() == math.inf
        unlimited = budget()
        monkeypatch.setattr(errors, "PROC_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(errors, "CGROUP_ROOT", str(tmp_path / "fs"))
        assert errors.cgroup_headroom() == math.inf
        (group / "memory.max").write_text("300000000\n")
        assert errors.cgroup_headroom() == 200_000_000
        budget.cache_clear()
        assert budget() == min(unlimited, errors.MEMORY_FRACTION * 200_000_000)
        (group / "memory.max").write_text("101000000\n")
        budget.cache_clear()
        code, out, err = invoke(capsys, "solve", "chain", "--a", "4", "--d", "4", "--n", "12")
        assert code == 3
        assert out == ""
        assert err.startswith("error: memory budget exceeded")

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

    @pytest.mark.parametrize("trace", ["5,5", "1,2,3,2", "1,2,0,1", "5,x"])
    def test_bad_value_prints_no_partial_trace(self, capsys, trace):
        # A repeat late in the trace, also of a value that playing 0 has
        # dropped from the recording sequence (1,2,0,1), or a value that
        # does not parse, prints none of the lines before it.
        code, out, err = invoke(capsys, "bump", "--trace", trace)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_empty_trace_prints_nothing(self, capsys):
        assert invoke(capsys, "bump", "--trace", "") == (0, "", "")

    def test_memory_guard_checks_word_table(self, capsys, monkeypatch, zero_budget):
        # Lines stream as they are built; the guard on the colour-word table
        # ends a long trace with exit 3 and one error line, after whatever
        # lines were already printed.
        monkeypatch.setattr(bumping, "CHECK_EVERY", 2)
        trace = ",".join(map(str, random.Random(30).sample(range(1000), 300)))
        code, out, err = invoke(capsys, "bump", "--trace", trace)
        assert code == 3
        assert out.count("\n") < 300
        assert err.startswith("error: memory budget exceeded")
        assert err.count("\n") == 1


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

    def test_extended_parity_full_suite(self, capsys):
        # --full adds (4,4), (5,5), (6,4) and (4,6) to the quick pairs.
        code, out, _ = invoke(capsys, "verify", "--suite", "extended-parity", "--full")
        assert code == 0
        assert out.splitlines()[-1] == "SUITE extended-parity: 11 passed, 0 failed"

    def test_misere_suite_quick_slice(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "misere-table")
        assert code == 0
        assert "misere a=3 d=3 n=4: expected N actual N PASS" in out

    def test_normal_suite_quick_slice(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--suite", "normal-results")
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

    @pytest.mark.parametrize("suite", sorted(cli._SUITES))
    def test_verify_csv_format(self, capsys, tmp_path, suite):
        # One CSV line and one text line per case, holding the same fields
        # as the JSON report.  The chain suites read a short golden file.
        limit = ()
        mode = {"misere-table": Mode.MISERE, "normal-results": Mode.NORMAL}.get(suite)
        if mode is not None:
            path = tmp_path / "golden.csv"
            path.write_text(
                dump_csv_rows((a, d, n, mode, o) for a, d, n, o in golden_cases(mode, 6))
            )
            limit = ("--golden", str(path))
        outputs = {}
        for fmt in ("text", "csv", "json"):
            code, outputs[fmt], _ = invoke(
                capsys, "verify", "--suite", suite, *limit, "--format", fmt
            )
            assert code == 0
        report = json.loads(outputs["json"])
        cases = report["cases"]
        assert cases and report["passed"] == len(cases) and report["failed"] == 0
        lines = outputs["csv"].splitlines()
        assert lines[0] == "id,expected,actual,pass"
        assert lines[1:] == [
            f"{c['id']},{c['expected']},{c['actual']},{int(c['pass'])}" for c in cases
        ]
        assert outputs["text"].splitlines() == [
            f"{c['id']}: expected {c['expected']} actual {c['actual']} "
            + ("PASS" if c["pass"] else "FAIL")
            for c in cases
        ] + [f"SUITE {suite}: {len(cases)} passed, 0 failed"]

    def test_help_lists_only_four_settings(self, capsys):
        code, out, _ = invoke(capsys, "verify", "-h")
        assert code == 0
        flags = set(re.findall(r"--[a-z-]+", out))
        assert flags == {"--help", "--suite", "--full", "--format", "--golden"}

    @pytest.mark.parametrize(
        "suite,flag,value",
        [("misere-table", "--max-n", "6"), ("q-theorems", "--max-a", "5")],
    )
    def test_range_flags_are_gone(self, capsys, suite, flag, value):
        # --full or a golden file sets the range; there is no other knob.
        code, out, _ = invoke(capsys, "verify", "--suite", suite, flag, value)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "suite,flag,value",
        [
            ("admissible-counts", "--golden", "/nonexistent"),
            ("admissible-counts", "--full", None),
            ("q-theorems", "--golden", "golden.csv"),
        ],
    )
    def test_flag_of_another_suite_rejected(self, capsys, suite, flag, value):
        given = (flag,) if value is None else (flag, value)
        code, out, err = invoke(capsys, "verify", "--suite", suite, *given)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} does not apply to suite {suite}\n"

    @pytest.mark.parametrize("suite", ["misere-table", "normal-results"])
    def test_empty_golden_path_rejected(self, capsys, suite):
        # An empty path is unreadable like any other, not "no file given".
        code, out, err = invoke(capsys, "verify", "--suite", suite, "--golden", "")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("suite", ["misere-table", "normal-results"])
    def test_full_with_golden_rejected(self, capsys, tmp_path, suite):
        # A golden file sets its own range, so --full does not apply to it.
        path = tmp_path / "golden.csv"
        path.write_text("a,d,n,mode,outcome\n3,3,4,misere,N\n3,3,4,normal,P\n")
        code, out, err = invoke(
            capsys, "verify", "--suite", suite, "--golden", str(path), "--full"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --full") and err.count("\n") == 1

    def test_golden_mismatch_exit_code(self, capsys, tmp_path):
        bogus = tmp_path / "golden.csv"
        bogus.write_text("a,d,n,mode,outcome\n3,3,4,misere,P\n")
        out = {}
        for fmt in ("text", "csv", "json"):
            code, out[fmt], _ = invoke(
                capsys, "verify", "--suite", "misere-table", "--golden", str(bogus),
                "--format", fmt,
            )
            assert code == 1
        assert "misere a=3 d=3 n=4: expected P actual N FAIL" in out["text"]
        assert out["csv"].splitlines()[1:] == ["misere a=3 d=3 n=4,P,N,0"]
        report = json.loads(out["json"])
        assert (report["passed"], report["failed"]) == (0, 1)
        assert [c["pass"] for c in report["cases"]] == [False]


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

    def test_json_rows_match_text_and_solve(self, capsys):
        sweep = ("--a", "3", "--d", "3", "--mode", "misere", "--n-from", "1", "--n-to", "8")
        code, out, _ = invoke(capsys, "scan", *sweep, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        _, text, _ = invoke(capsys, "scan", *sweep)
        assert text.splitlines()[1:] == [
            f"{r['n']} {r['outcome']} {r['smallest_winning_move'] or '-'}" for r in rows
        ]
        assert [r["n"] for r in rows] == list(range(1, 9))
        for row in rows:
            _, solved, _ = invoke(
                capsys, "solve", "chain", "--a", "3", "--d", "3", "--mode", "misere",
                "--n", str(row["n"]), "--json",
            )
            solved = json.loads(solved)
            assert row == {key: solved[key] for key in row}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_range_rejected(self, capsys, fmt):
        code, out, err = invoke(
            capsys,
            "scan", "--a", "3", "--d", "3", "--n-from", "5", "--n-to", "3", "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--n-from" in err and "--n-to" in err

    def test_memory_guard_checks_rows(self, capsys, zero_budget):
        # Every n is below min(a, d), so no memo grows: only the row list
        # meets the guard.
        code, out, err = invoke(
            capsys, "scan", "--a", "5", "--d", "5", "--n-from", "0", "--n-to", "3"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: memory budget exceeded")
        assert err.count("\n") == 1


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


class TestClosedPipe:
    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
    def test_closed_stdout_ends_silently(self):
        # Length 11 prints about 210 kB, more than a pipe buffers, so the
        # command is still writing when the reader closes its end.
        proc = subprocess.Popen(
            [sys.executable, "-m", "monoseq", "enumerate", "admissible", "--length", "11"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        try:
            assert proc.stdout.readline().strip()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""
        assert code == -signal.SIGPIPE


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
        rendered = emit_table(rows)
        assert "DDDNN NNNNN NNNNN NNNNN" in rendered

    def test_incomplete_grid_warns(self):
        rows = [
            (3, 3, 1, Mode.NORMAL, Outcome.D),
            (3, 3, 3, Mode.NORMAL, Outcome.D),
        ]
        rendered = emit_table(rows)
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
                (a, d, n, Mode.MISERE, o) for a, d, n, o in golden_cases(Mode.MISERE, 6)
            )
        )
        code, out, _ = invoke(
            capsys, "verify", "--suite", "misere-table", "--golden", str(path)
        )
        assert code == 0
        assert "0 failed" in out

    @pytest.mark.parametrize(
        "mode,suite", [(Mode.MISERE, "misere-table"), (Mode.NORMAL, "normal-results")]
    )
    def test_verify_checks_every_golden_row(self, capsys, tmp_path, mode, suite):
        # No quick deck size filters a golden file: rows past n = 12 run too.
        rows = [(a, d, n, o) for a, d, n, o in golden_cases(mode) if (a, d) == (3, 3)]
        assert [n for _, _, n, _ in rows] == list(range(1, 21))
        path = tmp_path / "golden.csv"
        path.write_text(dump_csv_rows((a, d, n, mode, o) for a, d, n, o in rows))
        code, out, _ = invoke(capsys, "verify", "--suite", suite, "--golden", str(path))
        assert code == 0
        last = rows[-1][3].value
        assert f"{mode.value} a=3 d=3 n=20: expected {last} actual {last} PASS" in out
        assert out.endswith(f"SUITE {suite}: 20 passed, 0 failed\n")

    def test_verify_fails_a_wrong_golden_row_past_quick_range(self, capsys, tmp_path):
        # A wrong row past n = 12 is checked and fails, not dropped.
        (a, d, n, o), = [
            row for row in golden_cases(Mode.MISERE) if row[:3] == (3, 3, 20)
        ]
        flipped = Outcome.P if o is Outcome.N else Outcome.N
        path = tmp_path / "golden.csv"
        path.write_text(dump_csv_rows([(a, d, n, Mode.MISERE, flipped)]))
        code, out, _ = invoke(
            capsys, "verify", "--suite", "misere-table", "--golden", str(path)
        )
        assert code == 1
        assert (
            f"misere a=3 d=3 n=20: expected {flipped.value} actual {o.value} FAIL" in out
        )
        assert out.endswith("SUITE misere-table: 0 passed, 1 failed\n")

    def test_verify_golden_rows_past_31(self, capsys, tmp_path):
        # Any deck size solves: closed-form rows at n = 32 and 40.
        rows = [(a, 2, n, Mode.NORMAL, closed_form_d2(a, n)) for a in (3, 4) for n in (32, 40)]
        rows += [(a, 3, n, Mode.NORMAL, closed_form_d3(a, n)) for a in (3, 4) for n in (32, 40)]
        path = tmp_path / "golden.csv"
        path.write_text(dump_csv_rows(rows))
        code, out, _ = invoke(
            capsys, "verify", "--suite", "normal-results", "--golden", str(path)
        )
        assert code == 0
        assert "SUITE normal-results: 8 passed, 0 failed" in out

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
        code = run(["verify", "--suite", "q-theorems"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q a=8 d=4 normal: expected N actual N PASS" in out
        assert "q duality a=7 d=7: expected True actual True PASS" in out
