"""monoseq benchmark: run one workload from outside the library and report.

    python3 perfbench/run.py --workload chain-table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the library is imported from ``src``.
A run starts one fresh interpreter per repetition of the workload's job list
(see worker.py), keeps repeating until ``--seconds`` are used, checks every
op against its referee and prints the median of each metric.  The last
stdout line is one JSON object: ``correct``, ``attempted`` (ops),
``failed`` (ops that raised or disagreed with their referee) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full record of the run, with the
environment stamp and the trace spans, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"

# Importing the library here also byte-compiles it, before any worker starts.
sys.path.insert(0, str(SRC))
try:
    import workloads
except ImportError as exc:
    sys.exit(f"perfbench: cannot import monoseq from {SRC}: {exc}")

MIN_REPS = 3
MAX_REPS = 40
SETUP_PROBES = 8
RUN_LIMIT_S = 160.0

# name: (unit, what it is).  Per-layer entries also name the end-to-end
# metric and workload they should move; elsewhere the prediction is no change.
END_TO_END = {
    "wall_s": ("s", "job list wall time, set-up excluded"),
    "cpu_s": ("s", "worker process CPU time over the job list"),
    "peak_rss_mb": ("MB", "worker peak resident set size"),
    "setup_s": ("s", "interpreter start, import monoseq, golden load, until the first job"),
}
PER_LAYER = {
    "chain.solve_s": ("s", "wall_s on chain-table"),
    "chain.nodes": ("count", "wall_s on chain-table"),
    "chain.nodes_per_s": ("1/s", "wall_s on chain-table"),
    "chain.memo_entries": ("count", "wall_s, peak_rss_mb on chain-table"),
    "chain.rss_per_entry_b": ("B", "peak_rss_mb on chain-table"),
    "capped.solve_s": ("s", "wall_s on capped-ext-poset"),
    "capped.nodes": ("count", "wall_s on capped-ext-poset"),
    "capped.nodes_per_s": ("1/s", "wall_s on capped-ext-poset"),
    "bumping.insert_calls": ("count", "wall_s on q-cold"),
    "bumping.pack_calls": ("count", "wall_s on q-cold"),
    "q.solve_s": ("s", "wall_s on q-cold"),
    "q.children_s": ("s", "wall_s on q-cold"),
    "q.typing_s": ("s", "wall_s on q-cold"),
    "q.words": ("count", "wall_s, peak_rss_mb on q-cold"),
    "extended.solve_s": ("s", "wall_s on capped-ext-poset"),
    "extended.expansions": ("count", "wall_s on capped-ext-poset"),
    "poset.solve_s": ("s", "wall_s on capped-ext-poset"),
    "poset.less_calls": ("count", "wall_s on capped-ext-poset"),
    "golden.load_s": ("s", "setup_s on every workload"),
    "trace.overhead_s": ("s", "nothing: traced minus untraced wall_s"),
}
# Counts that must repeat exactly for one commit and seed.  The first three
# come free with every solve, so every rep reports them.
FREE_COUNTS = ("chain.nodes", "chain.memo_entries", "capped.nodes")
EXACT_COUNTS = FREE_COUNTS + ("bumping.insert_calls", "q.words", "extended.expansions")


def spawn(workload: str, jobs: list, traced: bool, deadline: float) -> dict:
    """Run the job list once in a fresh interpreter and check every op."""
    spec = json.dumps({"workload": workload, "trace": traced, "jobs": jobs})
    ops = sum(len(job["expect"]) for job in jobs)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(WORKER), str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(spec, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"traced": traced, "ops": ops, "failed": ops, "error": "worker timed out"}
    duration = time.monotonic() - start
    if proc.returncode != 0:
        return {"traced": traced, "ops": ops, "failed": ops,
                "error": f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    res = json.loads(stdout)
    failures = []
    for job, rec in zip(jobs, res["jobs"]):
        bad = workloads.check(job, rec["out"], rec["error"])
        if bad:
            failures.append({"job": job, "out": rec["out"], "error": rec["error"], "failed": bad})
    return {
        "traced": traced,
        "ops": ops,
        "failed": sum(f["failed"] for f in failures),
        "failures": failures,
        "duration": duration,
        "setup_s": res["setup_end"] - start,
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "peak_rss_mb": res["maxrss_kb"] / 1024,
        "counts": res["counts"],
        "layer": res.get("layer"),
        "spans": res.get("spans"),
    }


def measure(workload: str, jobs: list, seconds: float, trace: bool) -> dict:
    """Repeat the job list for the given time; return the run record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = [spawn(workload, [], False, deadline) for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    start = time.monotonic()
    while len(reps) < MAX_REPS:
        # With tracing, reps alternate traced / untraced for the overhead.
        rep = spawn(workload, jobs, trace and len(reps) % 2 == 0, deadline)
        reps.append(rep)
        if "error" in rep:
            break
        elapsed = time.monotonic() - start
        typical = statistics.median(r["duration"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
    return {"probes": probes, "reps": reps}


def exact_counts(reps: list):
    """The run's exact counts, or None if any differs between reps."""
    counts: dict = {}
    for rep in reps:
        for k in EXACT_COUNTS if rep["traced"] else FREE_COUNTS:
            if counts.setdefault(k, rep["counts"][k]) != rep["counts"][k]:
                return None
    return counts


def matches_earlier_runs(record: dict) -> bool:
    """Exact counts agree with the runs saved before for the same sources and jobs."""
    jobs = json.loads(json.dumps(record["jobs"]))
    for path in OUT_DIR.glob(f"{record['workload']}-seed{record['env']['seed']}-trace*.json"):
        old = json.loads(path.read_text())
        if old["env"]["src_sha256"] != record["env"]["src_sha256"] or old["jobs"] != jobs:
            continue
        if any(old["counts"].get(k, v) != v for k, v in record["counts"].items()):
            return False
    return True


def end_to_end(run: dict) -> dict:
    reps = run["reps"]
    out = {
        name: statistics.median(r[name] for r in reps)
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    out["setup_s"] = statistics.median(r["setup_s"] for r in run["probes"] + reps)
    return out


def per_layer(rep: dict) -> dict:
    layer, counts = rep["layer"], rep["counts"]

    def rate(nodes: int, secs: float) -> float:
        return nodes / secs if secs > 0 else 0.0

    chain_s, capped_s, q_s = layer.get("chain", 0.0), layer.get("capped", 0.0), layer.get("q", 0.0)
    return {
        "chain.solve_s": chain_s,
        "chain.nodes": counts["chain.nodes"],
        "chain.nodes_per_s": rate(counts["chain.nodes"], chain_s),
        "chain.memo_entries": counts["chain.memo_entries"],
        "chain.rss_per_entry_b": layer["chain.rss_per_entry"],
        "capped.solve_s": capped_s,
        "capped.nodes": counts["capped.nodes"],
        "capped.nodes_per_s": rate(counts["capped.nodes"], capped_s),
        "bumping.insert_calls": counts["bumping.insert_calls"],
        "bumping.pack_calls": counts["bumping.pack_calls"],
        "q.solve_s": q_s,
        "q.children_s": q_s - layer["q.warm"],
        "q.typing_s": layer["q.warm"],
        "q.words": counts["q.words"],
        "extended.solve_s": layer.get("extended", 0.0),
        "extended.expansions": counts["extended.expansions"],
        "poset.solve_s": layer.get("poset", 0.0),
        "poset.less_calls": counts["poset.less_calls"],
        "golden.load_s": layer["golden.load"],
    }


def layer_metrics(run: dict) -> dict:
    reps = run["reps"]
    traced = [per_layer(r) for r in reps if r["traced"]]
    # Counts repeat exactly (the determinism gate checks it); times take the median.
    out = {
        name: traced[0][name] if PER_LAYER[name][0] == "count" else statistics.median(t[name] for t in traced)
        for name in traced[0]
    }
    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in reps if r["traced"])
        - statistics.median(untraced)
    )
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "monoseq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, jobs=None) -> dict:
    """One benchmark run; jobs defaults to the workload's seeded job list."""
    if jobs is None:
        jobs = workloads.make_jobs(workload, seed)
    run = measure(workload, jobs, seconds, trace)
    reps = run["reps"]
    complete = all("error" not in r for r in run["probes"] + reps)
    record = {
        "workload": workload,
        "env": environment(seed),
        "jobs": jobs,
        "counts": exact_counts(reps) if complete else None,
        "probes": run["probes"],
        "reps": reps,
    }
    steady = record["counts"] is not None and matches_earlier_runs(record)
    failed = sum(r["failed"] for r in reps)
    metrics = {}
    if steady:  # a run whose exact counts differ is flagged, not averaged
        metrics = layer_metrics(run) if trace else end_to_end(run)
    catalog = PER_LAYER if trace else END_TO_END
    record["deterministic"] = steady
    record["result"] = {
        "correct": steady and failed == 0,
        "attempted": sum(r["ops"] for r in reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": catalog[k][0]} for k, v in metrics.items()},
    }
    return record


def report(record: dict, trace: bool) -> None:
    result = record["result"]
    catalog = PER_LAYER if trace else END_TO_END
    print(f"workload {record['workload']}  reps {len(record['reps'])}  "
          f"ops {result['attempted']}  failed {result['failed']}  "
          f"exact counts repeat: {record['deterministic']}")
    for name, m in result["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:24s} {value:>16} {m['unit']:6s} {catalog[name][1]}")
    for rep in record["reps"]:
        for f in rep.get("failures", []) + ([rep] if "error" in rep else []):
            print(f"  FAILED {json.dumps(f, default=str)[:500]}")
    print("env " + json.dumps(record["env"]))
    print(json.dumps(result))


def save(record: dict, seed: int, trace: bool) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(record, default=str))


def self_test() -> int:
    """Seconds-long smoke runs of every workload, plus one corrupted golden row."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        jobs = workloads.make_jobs(workload, 0, smoke=True)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run_workload(workload, 0, 1, trace, jobs)
            result = record["result"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={int(trace)}: metrics {got} != {want}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: smoke run not correct")
    jobs = workloads.make_jobs("chain-table", 0, smoke=True)
    row = jobs[0]["expect"]
    row[-1] = "P" if row[-1] != "P" else "N"
    result = run_workload("chain-table", 0, 1, False, jobs)["result"]
    reps = result["attempted"] // sum(len(j["expect"]) for j in jobs)
    if result["correct"] or result["failed"] != reps:
        problems.append(f"corrupted golden row not caught: {result}")
    for p in problems:
        print("self-test FAILED: " + p)
    if not problems:
        print("self-test ok")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    save(record, args.seed, bool(args.trace))
    report(record, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
