"""Command-line surface: dispatch, formats, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from monoseq.cli import emit_table, parse_table_json, run
from monoseq.order_core import Mode, Outcome


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

    def test_solve_chain_capped_agrees(self, capsys):
        code, out, _ = invoke(
            capsys, "solve", "chain", "--a", "3", "--d", "3", "--n", "9", "--capped"
        )
        assert code == 0
        assert out.strip() == "N"

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
        assert payload["outcome"] == "N"
        assert payload["positions"][""] == "N"
        assert payload["positions"]["P"] == "P"

    def test_solve_extended(self, capsys):
        code, out, _ = invoke(capsys, "solve", "extended", "--a", "3", "--d", "3")
        assert code == 0
        assert out.strip() == "N"

    def test_solve_extended_cap_exit_code(self, capsys):
        code, _, err = invoke(capsys, "solve", "extended", "--a", "6", "--d", "6")
        assert code == 3
        assert "size_cap" in err

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

    def test_resource_error_exit_code(self, capsys):
        code, _, err = invoke(
            capsys,
            "solve", "chain", "--a", "4", "--d", "4", "--n", "12", "--node-limit", "10",
        )
        assert code == 3
        assert "node_limit" in err


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
        code, out, _ = invoke(capsys, "certify", "--pset", "p4", "--a", "6")
        assert code == 0
        assert "VERIFIED" in out

    def test_p5_pass(self, capsys):
        code, out, _ = invoke(capsys, "certify", "--pset", "p5", "--a", "6")
        assert code == 0
        assert "VERIFIED" in out


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
    def test_shipped_csv_matches_embedded_tables(self):
        from importlib import resources

        from monoseq.golden import dump_csv_rows, embedded_cases

        for mode, name in [(Mode.MISERE, "misere_table.csv"), (Mode.NORMAL, "normal_results.csv")]:
            shipped = resources.files("monoseq").joinpath("data", name).read_text()
            embedded = dump_csv_rows(
                (a, d, n, mode, o) for a, d, n, o in embedded_cases(mode)
            )
            assert shipped == embedded, name

    def test_corrupt_csv_raises(self, capsys, tmp_path, monkeypatch):
        from monoseq import golden

        corrupt = tmp_path / "misere_table.csv"
        corrupt.write_text("a,d,n,mode,outcome\n3,3,1,misere,D\n3,3,2,misere,X\n")
        monkeypatch.setattr(golden, "_data_file", lambda mode: corrupt)
        with pytest.raises(ValueError, match=r"misere_table\.csv, line 3"):
            golden.golden_cases(Mode.MISERE)
        code, _, err = invoke(
            capsys, "verify", "--suite", "misere-table", "--golden", str(corrupt)
        )
        assert code == 2
        assert "line 3" in err

    def test_q_theorems_suite(self, capsys):
        code = run(["verify", "--suite", "q-theorems", "--max-a", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q a=8 d=4 normal: expected N actual N PASS" in out
        assert "q duality a=7 d=7: expected True actual True PASS" in out
