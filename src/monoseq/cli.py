"""Command-line entry point: solvers, verifiers, enumeration and traces.

Exit codes: 0 success / all checks passed, 1 any golden mismatch or failed
certificate, 2 usage error, 3 out of memory (the memory guard fired, or an
allocation failed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional, Sequence

from . import golden
from .bumping import RecordingSequence, double_bump_step, enumerate_admissible
from .chain_solver import MAX_EXACT_N, CappedChainSolver, ChainSolver, stabilization_bound
from .errors import ResourceLimitError
from .extended_solver import insert_at, lds, lis, parity_outcome, safe_slot, solve_extended
from .order_core import FinitePoset, GameParams, Mode, Outcome, solve_poset
from .q_solver import (
    duality_check,
    exact_pset_transcript,
    p4_set,
    p5_set,
    solve_q,
    sufficient_pset_transcript,
    typed_reachable_graph,
)

QUICK_CHAIN_N = 12
FULL_CHAIN_N = 20
QUICK_Q_A = 10
FULL_Q_A = 16


@dataclass
class CaseResult:
    case_id: str
    expected: str
    actual: str
    passed: bool
    elapsed: float


@dataclass
class SuiteResult:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)

    def check(self, case_id: str, expected, solve, *args) -> None:
        """Time solve(*args) and record its result against expected."""
        t0 = time.perf_counter()
        expected, actual = str(expected), str(solve(*args))
        elapsed = time.perf_counter() - t0
        self.cases.append(CaseResult(case_id, expected, actual, expected == actual, elapsed))

    @property
    def passed(self) -> int:
        return sum(c.passed for c in self.cases)

    @property
    def failed(self) -> int:
        return sum(not c.passed for c in self.cases)

    def report_lines(self) -> list[str]:
        lines = []
        for c in self.cases:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{c.case_id}: expected {c.expected} actual {c.actual} {status}")
        lines.append(f"SUITE {self.suite}: {self.passed} passed, {self.failed} failed")
        return lines

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "cases": [
                {
                    "id": c.case_id,
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                }
                for c in self.cases
            ],
        }


# ---------------------------------------------------------------------------
# Table rendering

TableRow = tuple[int, int, int, Mode, Outcome]


def emit_table(rows: Iterable[TableRow], fmt: str = "text") -> str:
    """Render outcome rows as text (published row layout), CSV or JSON.

    The text layout groups deck sizes in fives per (a, d) row; holes in a
    row render as '?' and are called out in a trailing warning line.
    """
    rows = list(rows)
    if fmt == "csv":
        return golden.dump_csv_rows(rows)
    if fmt == "json":
        return json.dumps(
            [
                {"a": a, "d": d, "n": n, "mode": m.value, "outcome": o.value}
                for a, d, n, m, o in rows
            ],
            indent=0,
        )
    if fmt != "text":
        raise ValueError(f"unknown table format: {fmt}")
    by_row: dict[tuple[int, int, Mode], dict[int, Outcome]] = {}
    for a, d, n, m, o in rows:
        by_row.setdefault((a, d, m), {})[n] = o
    lines = []
    gaps = []
    for (a, d, m) in sorted(by_row, key=lambda k: (k[2].value, k[0], k[1])):
        outcomes = by_row[(a, d, m)]
        n_max = max(outcomes)
        letters = []
        for n in range(1, n_max + 1):
            if n in outcomes:
                letters.append(outcomes[n].value)
            else:
                letters.append("?")
                gaps.append(f"a={a} d={d} mode={m.value} n={n}")
        grouped = " ".join(
            "".join(letters[i : i + 5]) for i in range(0, len(letters), 5)
        )
        lines.append(f"{a} {d} {m.value:7s} {grouped}")
    if gaps:
        lines.append("warning: table incomplete, missing " + ", ".join(gaps))
    return "\n".join(lines)


def parse_table_json(text: str) -> list[TableRow]:
    """Inverse of emit_table(..., "json")."""
    return [
        (rec["a"], rec["d"], rec["n"], Mode(rec["mode"]), Outcome(rec["outcome"]))
        for rec in json.loads(text)
    ]


# ---------------------------------------------------------------------------
# Subcommand implementations

def _chain_solver_class(params: GameParams, n: int) -> type[ChainSolver]:
    """Clamped search from the stabilization bound on, where every deck
    shares one root, and past the exact search's deck limit; exact search
    below the bound, where it is often the faster.  Both give the same
    outcome and smallest winning move."""
    if n >= stabilization_bound(params.a, params.d) or n > MAX_EXACT_N:
        return CappedChainSolver
    return ChainSolver


def _print_result(payload: dict, as_json: bool) -> int:
    """Print a solve command's payload as JSON, or else its outcome alone."""
    print(json.dumps(payload) if as_json else payload["outcome"])
    return 0


def _cmd_solve_chain(args) -> int:
    params = GameParams(args.a, args.d, Mode(args.mode))
    solver = _chain_solver_class(params, args.n)(params)
    report = solver.solve(args.n)
    payload = {
        "a": args.a,
        "d": args.d,
        "n": args.n,
        "mode": params.mode.value,
        "outcome": report.outcome.value,
        "smallest_winning_move": report.smallest_winning_move,
        "nodes_expanded": report.nodes_expanded,
        "memo_entries": solver.memo_size,
        "elapsed_s": round(report.elapsed, 6),
    }
    return _print_result(payload, args.json)


def _cmd_solve_q(args) -> int:
    params = GameParams(args.a, args.d, Mode(args.mode))
    t0 = time.perf_counter()
    if args.dump_graph:
        graph = typed_reachable_graph(params)
        outcome = graph[""]
    else:
        outcome = solve_q(params)
    payload = {
        "a": args.a,
        "d": args.d,
        "mode": params.mode.value,
        "outcome": outcome.value,
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }
    if args.dump_graph:
        payload["positions"] = {w: o.value for w, o in sorted(graph.items())}
    return _print_result(payload, args.json or args.dump_graph)


def _cmd_solve_extended(args) -> int:
    outcome = solve_extended(args.a, args.d)
    return _print_result({"a": args.a, "d": args.d, "outcome": outcome.value}, args.json)


def _cmd_solve_poset(args) -> int:
    with open(args.file) as fh:
        deck = FinitePoset.from_json(json.load(fh))
    params = GameParams(args.a, args.d, Mode(args.mode))
    outcome = solve_poset(deck, params)
    payload = {
        "a": args.a,
        "d": args.d,
        "mode": params.mode.value,
        "elements": deck.size,
        "outcome": outcome.value,
    }
    return _print_result(payload, args.json)


def _parse_values(text: str) -> list[int]:
    if "," in text:
        return [int(part) for part in text.split(",")]
    return [int(ch) for ch in text]


def _cmd_bump(args) -> int:
    values = _parse_values(args.trace)
    rec = RecordingSequence()
    for v in values:
        rec = double_bump_step(rec, v)
        entries = " ".join(f"{e.value}:{e.letter}" for e in rec.entries)
        print(f"play {v} -> recording {entries} | colour {rec.colour_word()}")
    return 0


def _cmd_enumerate(args) -> int:
    words = enumerate_admissible(args.length)
    if args.count_only:
        print(len(words))
    else:
        for w in words:
            print(w if w else "(empty)")
    return 0


def _cmd_certify(args) -> int:
    if args.pset == "p4":
        pset, d, transcript = p4_set(args.a), 4, exact_pset_transcript
    else:
        pset, d, transcript = p5_set(args.a), 5, sufficient_pset_transcript
    print(f"certifying {args.pset} for (a, d) = ({args.a}, {d}) on the dense order")
    print(f"members: {' '.join(sorted(pset))}")
    verdict = True
    for ok, line in transcript(pset, GameParams(args.a, d)):
        verdict = verdict and ok
        print(line)
    print(f"certificate {'VERIFIED' if verdict else 'REFUTED'}")
    return 0 if verdict else 1


def _verify_chain_table(suite: str, mode: Mode, args) -> SuiteResult:
    """Exact chain outcomes against the golden table of one play mode."""
    max_n = args.max_n
    if max_n is None:
        max_n = FULL_CHAIN_N if args.full else QUICK_CHAIN_N
    elif max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {max_n}")
    result = SuiteResult(suite)
    if args.golden:
        with open(args.golden) as fh:
            cases = [
                (a, d, n, o)
                for a, d, n, m, o in golden.load_csv_rows(fh.read(), args.golden)
                if m is mode and n <= max_n
            ]
        if not cases:
            raise ValueError(
                f"{args.golden}: no {mode.value} rows with n <= {max_n}"
            )
    else:
        cases = golden.golden_cases(mode, max_n)
    # Golden rows come grouped by (a, d), so one solver at a time is live;
    # an interleaved --golden file only costs rebuilt tables.
    solver = None
    for a, d, n, expected in cases:
        if solver is None or (solver.params.a, solver.params.d) != (a, d):
            solver = ChainSolver(GameParams(a, d, mode))
        case_id = f"{mode.value} a={a} d={d} n={n}"
        result.check(case_id, expected, lambda: solver.solve(n).outcome)
    return result


def _verify_q_theorems(args) -> SuiteResult:
    max_a = args.max_a
    if max_a is None:
        max_a = FULL_Q_A if args.full else QUICK_Q_A
    elif max_a < 2:
        raise ValueError(f"--max-a must be at least 2, got {max_a}")
    result = SuiteResult("q-theorems")
    cases = [(a, 2, Outcome.P) for a in range(2, max_a + 1)]
    cases += [(a, 3, Outcome.N if a % 2 else Outcome.P) for a in range(3, max_a + 1)]
    top_d = 8 if args.full else 6
    cases += [(a, d, Outcome.N) for d in range(4, top_d + 1) for a in range(d, max_a + 1)]
    for a, d, expected in cases:
        result.check(f"q a={a} d={d} normal", expected, solve_q, GameParams(a, d))
    for a in range(3, 8):
        for d in range(3, 8):
            result.check(f"q duality a={a} d={d}", True, duality_check, a, d)
    return result


def _verify_extended_parity(args) -> SuiteResult:
    result = SuiteResult("extended-parity")
    pairs = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (5, 3)]
    if args.full:
        pairs += [(4, 4), (5, 5), (6, 4), (4, 6)]
    for a, d in pairs:
        result.check(f"extended a={a} d={d}", parity_outcome(a, d), solve_extended, a, d)
    return result


def _verify_admissible_counts(args) -> SuiteResult:
    result = SuiteResult("admissible-counts")
    expected = {1: 1, 2: 3, 3: 8, 4: 21, 5: 55, 6: 144}
    for k, count in expected.items():
        result.check(f"admissible k={k}", count, lambda: len(enumerate_admissible(k)))
    return result


_SUITES = {
    "misere-table": partial(_verify_chain_table, "misere-table", Mode.MISERE),
    "normal-results": partial(_verify_chain_table, "normal-results", Mode.NORMAL),
    "q-theorems": _verify_q_theorems,
    "extended-parity": _verify_extended_parity,
    "admissible-counts": _verify_admissible_counts,
}


def _cmd_verify(args) -> int:
    result = _SUITES[args.suite](args)
    if args.format == "json":
        print(json.dumps(result.to_json()))
    elif args.format == "csv":
        print("id,expected,actual,pass")
        for c in result.cases:
            print(f"{c.case_id},{c.expected},{c.actual},{int(c.passed)}")
    else:
        for line in result.report_lines():
            print(line)
    total_elapsed = sum(c.elapsed for c in result.cases)
    print(f"elapsed: {total_elapsed:.2f}s", file=sys.stderr)
    return 0 if result.failed == 0 else 1


def _cmd_scan(args) -> int:
    if args.n_to < args.n_from:
        raise ValueError(f"--n-to {args.n_to} is below --n-from {args.n_from}")
    params = GameParams(args.a, args.d, Mode(args.mode))
    solvers = {cls: cls(params) for cls in (ChainSolver, CappedChainSolver)}
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        report = solvers[_chain_solver_class(params, n)].solve(n)
        rows.append((n, report.outcome, report.smallest_winning_move))
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "a": args.a,
                        "d": args.d,
                        "n": n,
                        "mode": params.mode.value,
                        "outcome": o.value,
                        "smallest_winning_move": swm,
                    }
                    for n, o, swm in rows
                ]
            )
        )
    else:
        print("n outcome smallest_winning_move")
        for n, o, swm in rows:
            print(f"{n} {o.value} {'-' if swm is None else swm}")
    return 0


def _cmd_lemma_slot(args) -> int:
    perm = tuple(_parse_values(args.perm))
    slot = safe_slot(perm, args.r, args.s)
    if slot is None:
        print("no safe slot")
        return 0
    i, v = slot
    child = insert_at(perm, i, v)
    print(f"slot index={i} value_rank={v}")
    print(f"pattern {','.join(map(str, child))} (lis={lis(child)}, lds={lds(child)})")
    return 0


# ---------------------------------------------------------------------------
# Parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoseq",
        description="Exact solvers for monotonic sequence games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one game instance")
    solve_sub = solve.add_subparsers(dest="target", required=True)

    chain = solve_sub.add_parser("chain", help="play on the chain [n]")
    chain.add_argument("--a", type=int, required=True)
    chain.add_argument("--d", type=int, required=True)
    chain.add_argument("--n", type=int, required=True)
    chain.add_argument("--mode", choices=["normal", "misere"], default="normal")
    chain.add_argument("--json", action="store_true")
    chain.set_defaults(func=_cmd_solve_chain)

    q = solve_sub.add_parser("q", help="play on a dense linear order")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--mode", choices=["normal", "misere"], default="normal")
    q.add_argument("--json", action="store_true")
    q.add_argument("--dump-graph", action="store_true")
    q.set_defaults(func=_cmd_solve_q)

    ext = solve_sub.add_parser("extended", help="insert-anywhere play on a dense order")
    ext.add_argument("--a", type=int, required=True)
    ext.add_argument("--d", type=int, required=True)
    ext.add_argument("--json", action="store_true")
    ext.set_defaults(func=_cmd_solve_extended)

    poset = solve_sub.add_parser("poset", help="play on a finite poset from JSON")
    poset.add_argument("--file", required=True)
    poset.add_argument("--a", type=int, required=True)
    poset.add_argument("--d", type=int, required=True)
    poset.add_argument("--mode", choices=["normal", "misere"], default="normal")
    poset.add_argument("--json", action="store_true")
    poset.set_defaults(func=_cmd_solve_poset)

    bump = sub.add_parser("bump", help="trace the double bumping of a sequence")
    bump.add_argument("--trace", required=True, metavar="SEQ")
    bump.set_defaults(func=_cmd_bump)

    enum = sub.add_parser("enumerate", help="enumerate combinatorial objects")
    enum_sub = enum.add_subparsers(dest="what", required=True)
    adm = enum_sub.add_parser("admissible", help="admissible colour words")
    adm.add_argument("--length", type=int, required=True)
    adm.add_argument("--count-only", action="store_true")
    adm.set_defaults(func=_cmd_enumerate)

    certify = sub.add_parser("certify", help="check a P-position certificate")
    certify.add_argument("--pset", choices=["p4", "p5"], required=True)
    certify.add_argument("--a", type=int, required=True)
    certify.set_defaults(func=_cmd_certify)

    verify = sub.add_parser("verify", help="run a golden regression suite")
    verify.add_argument("--suite", choices=sorted(_SUITES), required=True)
    verify.add_argument("--max-n", type=int, default=None)
    verify.add_argument("--max-a", type=int, default=None)
    verify.add_argument("--full", action="store_true", help="run the full published ranges")
    verify.add_argument("--format", choices=["text", "csv", "json"], default="text")
    verify.add_argument("--golden", metavar="FILE", help="golden CSV used instead of the embedded tables")
    verify.set_defaults(func=_cmd_verify)

    scan = sub.add_parser("scan", help="sweep deck sizes for one parameter pair")
    scan.add_argument("--a", type=int, required=True)
    scan.add_argument("--d", type=int, required=True)
    scan.add_argument("--mode", choices=["normal", "misere"], default="normal")
    scan.add_argument("--n-from", type=int, required=True)
    scan.add_argument("--n-to", type=int, required=True)
    scan.add_argument("--format", choices=["text", "json"], default="text")
    scan.set_defaults(func=_cmd_scan)

    slot = sub.add_parser("lemma-slot", help="find a safe insertion slot for a pattern")
    slot.add_argument("--perm", required=True)
    slot.add_argument("--r", type=int, required=True)
    slot.add_argument("--s", type=int, required=True)
    slot.set_defaults(func=_cmd_lemma_slot)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
