"""Command-line entry point: solvers, verifiers, enumeration and traces.

Exit codes: 0 success / all checks passed, 1 any golden mismatch or failed
certificate, 2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import golden
from .bumping import (
    RecordingSequence,
    bluish,
    double_bump_step,
    enumerate_admissible,
    reddish,
)
from .chain_solver import ChainSolver, SolveReport, solve_chain, solve_chain_capped
from .errors import ResourceLimitError
from .extended_solver import insert_at, lds, lis, parity_outcome, safe_slot, solve_extended
from .order_core import FinitePoset, GameParams, Mode, Outcome, solve_poset
from .q_solver import (
    colour_children,
    duality_check,
    p4_set,
    p5_set,
    reachable_words,
    solve_q,
    typed_reachable_graph,
    verify_exact_pset,
    verify_sufficient_pset,
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

    def record(self, case_id: str, expected, actual, elapsed: float = 0.0) -> None:
        self.cases.append(
            CaseResult(case_id, str(expected), str(actual), str(expected) == str(actual), elapsed)
        )

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

def _report_payload(a, d, n, mode, report: SolveReport) -> dict:
    return {
        "a": a,
        "d": d,
        "n": n,
        "mode": mode.value,
        "outcome": report.outcome.value,
        "smallest_winning_move": report.smallest_winning_move,
        "nodes_expanded": report.nodes_expanded,
        "elapsed_s": round(report.elapsed, 6),
    }


def _cmd_solve_chain(args) -> int:
    params = GameParams(args.a, args.d, Mode(args.mode))
    solve = solve_chain_capped if args.capped else solve_chain
    report = solve(params, args.n, node_limit=args.node_limit, memo_limit=args.memo_limit)
    if args.json:
        print(json.dumps(_report_payload(args.a, args.d, args.n, params.mode, report)))
    else:
        print(report.outcome.value)
    return 0


def _cmd_solve_q(args) -> int:
    params = GameParams(args.a, args.d, Mode(args.mode))
    t0 = time.perf_counter()
    outcome = solve_q(params)
    elapsed = time.perf_counter() - t0
    if args.json or args.dump_graph:
        payload = {
            "a": args.a,
            "d": args.d,
            "mode": params.mode.value,
            "outcome": outcome.value,
            "elapsed_s": round(elapsed, 6),
        }
        if args.dump_graph:
            graph = typed_reachable_graph(params)
            payload["positions"] = {w: o.value for w, o in sorted(graph.items())}
        print(json.dumps(payload))
    else:
        print(outcome.value)
    return 0


def _cmd_solve_extended(args) -> int:
    outcome = solve_extended(args.a, args.d, size_cap=args.max_size)
    if args.json:
        print(json.dumps({"a": args.a, "d": args.d, "outcome": outcome.value}))
    else:
        print(outcome.value)
    return 0


def _cmd_solve_poset(args) -> int:
    with open(args.file) as fh:
        deck = FinitePoset.from_json(json.load(fh))
    params = GameParams(args.a, args.d, Mode(args.mode))
    outcome = solve_poset(deck, params, element_cap=args.element_cap)
    if args.json:
        print(
            json.dumps(
                {
                    "a": args.a,
                    "d": args.d,
                    "mode": params.mode.value,
                    "elements": deck.size,
                    "outcome": outcome.value,
                }
            )
        )
    else:
        print(outcome.value)
    return 0


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
        pset, d = p4_set(args.a), 4
    else:
        pset, d = p5_set(args.a), 5
    params = GameParams(args.a, d)
    print(f"certifying {args.pset} for (a, d) = ({args.a}, {d}) on the dense order")
    print(f"members: {' '.join(sorted(pset))}")
    ok = True
    if args.pset == "p4":
        for word in reachable_words(params):
            if reddish(word) >= params.a or bluish(word) >= params.d:
                continue
            kids = colour_children(word)
            witnesses = [
                c
                for c in kids
                if c in pset or reddish(c) >= params.a or bluish(c) >= params.d
            ]
            label = word if word else "(empty)"
            if word in pset:
                if witnesses:
                    ok = False
                    print(f"  member {label}: unexpected witness {witnesses[0]} FAIL")
                else:
                    print(f"  member {label}: no member or terminal child ok")
            else:
                if witnesses:
                    print(f"  {label}: witness {witnesses[0]} ok")
                else:
                    ok = False
                    print(f"  {label}: no witness FAIL")
        verdict = verify_exact_pset(pset, params)
    else:
        def terminal(w: str) -> bool:
            return reddish(w) >= params.a or bluish(w) >= params.d

        if "P" not in pset:
            ok = False
            print("  P missing from the set FAIL")
        for w in sorted(pset):
            if any(terminal(v) for v in colour_children(w)):
                ok = False
                print(f"  member {w}: has a terminal child FAIL")
                continue
            for v in colour_children(w):
                replies = [u for u in colour_children(v) if terminal(u) or u in pset]
                if replies:
                    print(f"  member {w}: opponent {v} answered by {replies[0]} ok")
                else:
                    ok = False
                    print(f"  member {w}: opponent {v} has no answer FAIL")
        verdict = verify_sufficient_pset(pset, params)
    print(f"certificate {'VERIFIED' if verdict else 'REFUTED'}")
    if verdict != ok:
        print("warning: transcript and checker disagree", file=sys.stderr)
    return 0 if verdict else 1


def _verify_misere_table(args) -> SuiteResult:
    max_n = args.max_n or (FULL_CHAIN_N if args.full else QUICK_CHAIN_N)
    result = SuiteResult("misere-table")
    if args.golden:
        with open(args.golden) as fh:
            cases = [
                (a, d, n, o)
                for a, d, n, m, o in golden.load_csv_rows(fh.read(), args.golden)
                if m is Mode.MISERE and n <= max_n
            ]
    else:
        cases = golden.golden_cases(Mode.MISERE, max_n)
    solvers: dict[tuple[int, int], ChainSolver] = {}
    for a, d, n, expected in cases:
        solver = solvers.get((a, d))
        if solver is None:
            solver = ChainSolver(GameParams(a, d, Mode.MISERE))
            solvers[(a, d)] = solver
        report = solver.solve(n)
        result.record(
            f"misere a={a} d={d} n={n}", expected.value, report.outcome.value, report.elapsed
        )
    return result


def _verify_normal_results(args) -> SuiteResult:
    max_n = args.max_n or (FULL_CHAIN_N if args.full else QUICK_CHAIN_N)
    result = SuiteResult("normal-results")
    if args.golden:
        with open(args.golden) as fh:
            cases = [
                (a, d, n, o)
                for a, d, n, m, o in golden.load_csv_rows(fh.read(), args.golden)
                if m is Mode.NORMAL and n <= max_n
            ]
    else:
        cases = golden.golden_cases(Mode.NORMAL, max_n)
    solvers: dict[tuple[int, int], ChainSolver] = {}
    for a, d, n, expected in cases:
        solver = solvers.get((a, d))
        if solver is None:
            solver = ChainSolver(GameParams(a, d))
            solvers[(a, d)] = solver
        report = solver.solve(n)
        result.record(
            f"normal a={a} d={d} n={n}", expected.value, report.outcome.value, report.elapsed
        )
    return result


def _verify_q_theorems(args) -> SuiteResult:
    max_a = args.max_a or (FULL_Q_A if args.full else QUICK_Q_A)
    result = SuiteResult("q-theorems")

    def run(a: int, d: int, expected: Outcome) -> None:
        t0 = time.perf_counter()
        actual = solve_q(GameParams(a, d))
        result.record(
            f"q a={a} d={d} normal", expected.value, actual.value, time.perf_counter() - t0
        )

    for a in range(2, max_a + 1):
        run(a, 2, Outcome.P)
    for a in range(3, max_a + 1):
        run(a, 3, Outcome.N if a % 2 else Outcome.P)
    top_d = 8 if args.full else 6
    for d in range(4, top_d + 1):
        for a in range(d, max_a + 1):
            run(a, d, Outcome.N)
    for a in range(3, 8):
        for d in range(3, 8):
            t0 = time.perf_counter()
            ok = duality_check(a, d)
            result.record(
                f"q duality a={a} d={d}", "True", str(ok), time.perf_counter() - t0
            )
    return result


def _verify_extended_parity(args) -> SuiteResult:
    result = SuiteResult("extended-parity")
    pairs = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (5, 3)]
    if args.full:
        pairs.append((4, 4))
    for a, d in pairs:
        t0 = time.perf_counter()
        actual = solve_extended(a, d)
        result.record(
            f"extended a={a} d={d}",
            parity_outcome(a, d).value,
            actual.value,
            time.perf_counter() - t0,
        )
    return result


def _verify_admissible_counts(args) -> SuiteResult:
    result = SuiteResult("admissible-counts")
    expected = {1: 1, 2: 3, 3: 8, 4: 21, 5: 55, 6: 144}
    for k, count in expected.items():
        t0 = time.perf_counter()
        actual = len(enumerate_admissible(k))
        result.record(f"admissible k={k}", count, actual, time.perf_counter() - t0)
    return result


_SUITES = {
    "misere-table": _verify_misere_table,
    "normal-results": _verify_normal_results,
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
    params = GameParams(args.a, args.d, Mode(args.mode))
    solver = ChainSolver(params)
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        report = solver.solve(n)
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
    chain.add_argument("--capped", action="store_true", help="use large-gap normalization")
    chain.add_argument("--node-limit", type=int, default=10**9)
    chain.add_argument("--memo-limit", type=int, default=10**8)
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
    ext.add_argument("--max-size", type=int, default=12)
    ext.add_argument("--json", action="store_true")
    ext.set_defaults(func=_cmd_solve_extended)

    poset = solve_sub.add_parser("poset", help="play on a finite poset from JSON")
    poset.add_argument("--file", required=True)
    poset.add_argument("--a", type=int, required=True)
    poset.add_argument("--d", type=int, required=True)
    poset.add_argument("--mode", choices=["normal", "misere"], default="normal")
    poset.add_argument("--element-cap", type=int, default=10)
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
    verify.add_argument("--golden", help="external golden CSV overriding shipped data")
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
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
