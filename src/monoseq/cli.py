"""Command-line entry point: solvers, verifiers, enumeration and traces.

Exit codes: 0 success / all checks passed, 1 any golden mismatch or failed
certificate, 2 usage error, 3 out of memory (the memory guard fired, or an
allocation failed).  When the reader of stdout closes the pipe (as ``head``
does), the command ends silently on SIGPIPE, like ``yes | head``; the shell
reports 141.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from functools import partial
from typing import Iterator, Optional, Sequence

from . import golden
from .bumping import RecordingSequence, _distinct, double_bump_step, enumerate_admissible
from .chain_solver import ChainSolver
from .errors import CHECK_EVERY, ResourceLimitError, check_memory
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
QUICK_Q_A = 10
FULL_Q_A = 16


# ---------------------------------------------------------------------------
# Subcommand implementations

def _print_result(payload: dict, as_json: bool) -> int:
    """Print a solve command's payload as JSON, or else its outcome alone."""
    print(json.dumps(payload) if as_json else payload["outcome"])
    return 0


def _cmd_solve_chain(args) -> int:
    params = GameParams(args.a, args.d, Mode(args.mode))
    t0 = time.perf_counter()
    report = ChainSolver(params).solve(args.n)
    payload = {
        "a": args.a,
        "d": args.d,
        "n": args.n,
        "mode": params.mode.value,
        "outcome": report.outcome.value,
        "smallest_winning_move": report.smallest_winning_move,
        "nodes_expanded": report.nodes_expanded,
        # A fresh solver's memo holds exactly the states this solve expanded.
        "memo_entries": report.nodes_expanded,
        "elapsed_s": round(time.perf_counter() - t0, 6),
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
    rec = RecordingSequence()
    for v in _distinct(_parse_values(args.trace)):
        rec = double_bump_step(rec, v)
        entries = " ".join(f"{x}:{c}" for x, c in zip(rec.values(), rec.colour_word()))
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


def _verify_chain_table(mode: Mode, args) -> Iterator[tuple]:
    """Exact chain outcomes against the golden table of one play mode: every
    row of that mode in a --golden file, or else the embedded rows up to the
    quick or the full deck size."""
    if args.golden is not None:
        with open(args.golden) as fh:
            cases = [
                (a, d, n, o)
                for a, d, n, m, o in golden.load_csv_rows(fh.read(), args.golden)
                if m is mode
            ]
        if not cases:
            raise ValueError(f"{args.golden}: no {mode.value} rows")
    else:
        cases = golden.golden_cases(mode, golden.MAX_N if args.full else QUICK_CHAIN_N)
    # Golden rows come grouped by (a, d), and verify runs each case before
    # it draws the next, so one solver at a time is live; an interleaved
    # --golden file only costs rebuilt tables.
    solver = None
    for a, d, n, expected in cases:
        if solver is None or (solver.params.a, solver.params.d) != (a, d):
            solver = ChainSolver(GameParams(a, d, mode))
        yield (
            f"{mode.value} a={a} d={d} n={n}",
            expected,
            lambda solver=solver, n=n: solver.solve(n).outcome,
        )


def _verify_q_theorems(args) -> Iterator[tuple]:
    max_a = FULL_Q_A if args.full else QUICK_Q_A
    cases = [(a, 2, Outcome.P) for a in range(2, max_a + 1)]
    cases += [(a, 3, Outcome.N if a % 2 else Outcome.P) for a in range(3, max_a + 1)]
    top_d = 8 if args.full else 6
    cases += [(a, d, Outcome.N) for d in range(4, top_d + 1) for a in range(d, max_a + 1)]
    for a, d, expected in cases:
        yield f"q a={a} d={d} normal", expected, partial(solve_q, GameParams(a, d))
    for a in range(3, 8):
        for d in range(3, 8):
            yield f"q duality a={a} d={d}", True, partial(duality_check, a, d)


def _verify_extended_parity(args) -> Iterator[tuple]:
    pairs = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (5, 3)]
    if args.full:
        pairs += [(4, 4), (5, 5), (6, 4), (4, 6)]
    for a, d in pairs:
        yield f"extended a={a} d={d}", parity_outcome(a, d), partial(solve_extended, a, d)


def _verify_admissible_counts(args) -> Iterator[tuple]:
    expected = {1: 1, 2: 3, 3: 8, 4: 21, 5: 55, 6: 144}
    for k, count in expected.items():
        yield f"admissible k={k}", count, lambda k=k: len(enumerate_admissible(k))


# Each suite yields (case id, expected, solve) triples, and verify compares
# str(solve()) with str(expected).
_SUITES = {
    "misere-table": partial(_verify_chain_table, Mode.MISERE),
    "normal-results": partial(_verify_chain_table, Mode.NORMAL),
    "q-theorems": _verify_q_theorems,
    "extended-parity": _verify_extended_parity,
    "admissible-counts": _verify_admissible_counts,
}

# The verify flags that some suites read; no other suite accepts them.
_SUITE_FLAGS = {
    "golden": ("misere-table", "normal-results"),
    "full": ("misere-table", "normal-results", "q-theorems", "extended-parity"),
}


def _cmd_verify(args) -> int:
    for dest, suites in _SUITE_FLAGS.items():
        # --full stores False when absent, --golden None.
        given = getattr(args, dest)
        if given is not None and given is not False and args.suite not in suites:
            raise ValueError(f"--{dest} does not apply to suite {args.suite}")
    if args.full and args.golden is not None:
        raise ValueError("--full does not apply with --golden, whose rows set the range")
    rows = []
    elapsed = 0.0
    for case_id, expected, solve in _SUITES[args.suite](args):
        t0 = time.perf_counter()
        actual = str(solve())
        elapsed += time.perf_counter() - t0
        expected = str(expected)
        rows.append((case_id, expected, actual, expected == actual))
    failed = sum(not passed for *_, passed in rows)
    if args.format == "json":
        cases = [
            {"id": case_id, "expected": expected, "actual": actual, "pass": passed}
            for case_id, expected, actual, passed in rows
        ]
        print(json.dumps(
            {"suite": args.suite, "passed": len(rows) - failed, "failed": failed, "cases": cases}
        ))
    elif args.format == "csv":
        print("id,expected,actual,pass")
        for case_id, expected, actual, passed in rows:
            print(f"{case_id},{expected},{actual},{int(passed)}")
    else:
        for case_id, expected, actual, passed in rows:
            print(f"{case_id}: expected {expected} actual {actual} {'PASS' if passed else 'FAIL'}")
        print(f"SUITE {args.suite}: {len(rows) - failed} passed, {failed} failed")
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return 1 if failed else 0


def _cmd_scan(args) -> int:
    if args.n_to < args.n_from:
        raise ValueError(f"--n-to {args.n_to} is below --n-from {args.n_from}")
    params = GameParams(args.a, args.d, Mode(args.mode))
    solver = ChainSolver(params)
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        report = solver.solve(n)
        rows.append((n, report.outcome, report.smallest_winning_move))
        if len(rows) % CHECK_EVERY == 1:
            check_memory(rows)
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

def _game_parser(
    sub, name: str, summary: str, func, *, mode: bool = True, as_json: bool = True
):
    """A subcommand taking the game arguments --a and --d, and, where the
    command reads them, --mode and --json."""
    cmd = sub.add_parser(name, help=summary)
    cmd.add_argument("--a", type=int, required=True)
    cmd.add_argument("--d", type=int, required=True)
    if mode:
        cmd.add_argument("--mode", choices=[m.value for m in Mode], default="normal")
    if as_json:
        cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=func)
    return cmd


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoseq",
        description="Exact solvers for monotonic sequence games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one game instance")
    solve_sub = solve.add_subparsers(dest="target", required=True)

    chain = _game_parser(solve_sub, "chain", "play on the chain [n]", _cmd_solve_chain)
    chain.add_argument("--n", type=int, required=True)
    q = _game_parser(solve_sub, "q", "play on a dense linear order", _cmd_solve_q)
    q.add_argument("--dump-graph", action="store_true")
    _game_parser(
        solve_sub, "extended", "insert-anywhere play on a dense order",
        _cmd_solve_extended, mode=False,
    )
    poset = _game_parser(solve_sub, "poset", "play on a finite poset from JSON", _cmd_solve_poset)
    poset.add_argument("--file", required=True)

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
    verify.add_argument("--full", action="store_true", help="run the full published ranges")
    verify.add_argument("--format", choices=["text", "csv", "json"], default="text")
    verify.add_argument("--golden", metavar="FILE", help="golden CSV used instead of the embedded tables")
    verify.set_defaults(func=_cmd_verify)

    scan = _game_parser(
        sub, "scan", "sweep deck sizes for one parameter pair", _cmd_scan, as_json=False
    )
    scan.add_argument("--n-from", type=int, required=True)
    scan.add_argument("--n-to", type=int, required=True)
    scan.add_argument("--format", choices=["text", "json"], default="text")

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
    if hasattr(signal, "SIGPIPE"):
        # A closed stdout pipe ends the command silently, not as an error.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
