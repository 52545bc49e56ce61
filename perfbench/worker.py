"""Execute one benchmark job list in a fresh interpreter.

run.py starts this file as ``python -I worker.py SRC_DIR``, writes the job
list as JSON on stdin and reads one JSON result from stdout.  A new process
per job list matters: monoseq keeps module-level caches (the Q child cache,
the chain word table) that a CLI user starts cold on every invocation.

The worker only calls the public library functions that ``monoseq verify``
calls.  It never checks results; run.py does that against its referees.

With ``"trace": true`` the worker records spans (workload, job, solver call)
in memory and returns them with its result, and it wraps a few library
names in count-only wrappers.  Per-call timing of the fine-grained names
would cost more than the calls themselves, so they are only counted.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class Tracer:
    """Coarse spans kept in memory: (id, parent, kind, layer, name, t0, t1)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, kind: str, layer: str, name: str):
        return _Span(self, kind, layer, name)

    def layer_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, _, kind, layer, _, t0, t1 in self.spans:
            if kind == "call":
                out[layer] = out.get(layer, 0.0) + (t1 - t0)
        return out


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, kind: str, layer: str, name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [len(tracer.spans), stack[-1] if stack else None, kind, layer, name, 0.0, 0.0]

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record[0])
        self.record[5] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[6] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    _NO_SPAN = _NoSpan()

    def span(self, kind: str, layer: str, name: str):
        return self._NO_SPAN


def _count_calls(owner, name: str, cell: list) -> None:
    """Replace owner.name by a wrapper that counts calls into cell[0]."""
    fn = getattr(owner, name, None)
    if fn is None:
        return

    def counted(*args):
        cell[0] += 1
        return fn(*args)

    setattr(owner, name, counted)


class Runner:
    """Runs jobs; exact counts are kept per rep for the determinism gate."""

    def __init__(self, m, tracer):
        self.m = m
        self.tracer = tracer
        self.keep: list = []  # verify holds every row's solver until the suite ends
        self.counts = {"chain.nodes": 0, "chain.memo_entries": 0, "capped.nodes": 0}
        self.q_params: list = []

    def run(self, job: dict) -> dict:
        kind = job["kind"]
        out: list = []
        rec = {"out": out, "error": None}
        try:
            with self.tracer.span("job", kind, job["id"]):
                getattr(self, "_" + kind)(job, out)
        except Exception as exc:  # a failed op is counted, never fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec

    def _params(self, job: dict):
        m = self.m
        return m.GameParams(job["a"], job["d"], m.Mode(job["mode"]))

    def _chain_row(self, job: dict, out: list) -> None:
        solver = self.m.ChainSolver(self._params(job))
        self.keep.append(solver)
        span = self.tracer.span
        for n in job["ns"]:
            with span("call", "chain", f"n={n}"):
                report = solver.solve(n)
            out.append(report.outcome.value)
            self.counts["chain.nodes"] += report.nodes_expanded
        self.counts["chain.memo_entries"] += solver.memo_size

    def _capped_row(self, job: dict, out: list) -> None:
        solver = self.m.CappedChainSolver(self._params(job))
        self.keep.append(solver)
        span = self.tracer.span
        for n in job["ns"]:
            with span("call", "capped", f"n={n}"):
                report = solver.solve(n)
            out.append(report.outcome.value)
            self.counts["capped.nodes"] += report.nodes_expanded

    def _q(self, job: dict, out: list) -> None:
        params = self._params(job)
        self.q_params.append(params)
        with self.tracer.span("call", "q", "solve_q"):
            out.append(self.m.solve_q(params).value)

    def _duality(self, job: dict, out: list) -> None:
        m = self.m
        a, d = job["a"], job["d"]
        self.q_params.append(m.GameParams(a, d, m.Mode.NORMAL))
        self.q_params.append(m.GameParams(a - 1, d - 1, m.Mode.MISERE))
        with self.tracer.span("call", "q", "duality_check"):
            out.append(m.duality_check(a, d))

    def _extended(self, job: dict, out: list) -> None:
        with self.tracer.span("call", "extended", "solve_extended"):
            out.append(self.m.solve_extended(job["a"], job["d"]).value)

    def _poset(self, job: dict, out: list) -> None:
        m = self.m
        deck = m.boolean_lattice(3) if job["deck"] == "cube" else m.FiniteChain(job["deck"])
        for a, d in job["ad"]:
            params = m.GameParams(a, d, m.Mode(job["mode"]))
            with self.tracer.span("call", "poset", f"a={a} d={d}"):
                out.append(m.solve_poset(deck, params).value)


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import monoseq as m
    from monoseq import extended_solver, golden, order_core, q_solver

    t0 = time.perf_counter()
    golden.golden_cases(m.Mode.MISERE)
    golden.golden_cases(m.Mode.NORMAL)
    golden_load_s = time.perf_counter() - t0

    spec = json.load(sys.stdin)
    traced = spec["trace"]
    cells = {
        "bumping.insert_calls": [0],
        "bumping.pack_calls": [0],
        "extended.expansions": [0],
        "poset.less_calls": [0],
    }
    if traced:
        # The names q_solver imported from bumping, so only Q's use is counted.
        _count_calls(q_solver, "insert_purple", cells["bumping.insert_calls"])
        _count_calls(q_solver, "pack_word", cells["bumping.pack_calls"])
        _count_calls(q_solver, "unpack_word", cells["bumping.pack_calls"])
        _count_calls(extended_solver, "extensions", cells["extended.expansions"])
        _count_calls(order_core.FinitePoset, "less", cells["poset.less_calls"])
        _count_calls(order_core.FiniteChain, "less", cells["poset.less_calls"])
    tracer = Tracer() if traced else NullTracer()
    runner = Runner(m, tracer)

    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_end = time.monotonic()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with tracer.span("workload", "", spec["workload"]):
        jobs = [runner.run(job) for job in spec["jobs"]]
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_end": setup_end,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "maxrss_kb": maxrss_kb,
        "jobs": jobs,
        "counts": dict(runner.counts),
    }
    if traced:
        counts = result["counts"]
        for key, cell in cells.items():
            counts[key] = cell[0]
        layer = tracer.layer_seconds()
        layer["golden.load"] = golden_load_s
        growth_b = (maxrss_kb - rss_before_kb) * 1024
        entries = counts["chain.memo_entries"]
        layer["chain.rss_per_entry"] = growth_b / entries if entries else 0.0
        # Warm pass over the same Q jobs: the child cache is now full, so
        # this time is typing alone and cold minus warm is child generation.
        warm = Tracer()
        warm_runner = Runner(m, warm)
        for job in spec["jobs"]:
            if job["kind"] in ("q", "duality"):
                warm_runner.run(job)
        layer["q.warm"] = warm.layer_seconds().get("q", 0.0)
        distinct = {(p.a, p.d, p.mode.value): p for p in runner.q_params}
        counts["q.words"] = sum(len(m.typed_reachable_graph(p)) for p in distinct.values())
        result["layer"] = layer
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
