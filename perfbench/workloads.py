"""Workloads: input pools, seeded job generation and the referee checks.

The seed picks rows or pairs from each pool; the solvers see only the
generated parameters.  Where the pool entries differ in cost, the seed
picks among subsets whose summed reference cost (CPU seconds and memo
entries, each the median of five fresh-process runs on a 2-core x86-64 box
with CPython 3.11) lies within BALANCE of the workload's target.  So the
inputs vary with the seed while the work per run, and with it wall time
and peak RSS, stays comparable across seeds.  The reference costs only choose inputs; they are
never compared with measurements.

Every job carries ``expect``, one entry per op: the referee's value, or
None where the referee is agreement between the job's own outputs
(``agree``).  A corrupted ``expect`` therefore shows up as a failed op.
"""

from __future__ import annotations

import random

from monoseq import GameParams, Mode, golden, parity_outcome, solve_chain, stabilization_bound

WORKLOADS = ("chain-table", "q-cold", "capped-ext-poset")

BALANCE = 0.03
MAX_N = 20

# (a, d, mode): (reference CPU seconds, memo entries) for n = 1..20 on one
# memo.  Misere (6, 4), (7, 4), (5, 5), (6, 5) and normal (7, 4), (5, 5) take
# 3.2-11 s each at a slower node rate and fit no subset near the target; the
# small golden rows at the end make room for more subsets.
CHAIN_POOL = {
    (6, 3, "misere"): (0.40, 132_141),
    (7, 3, "misere"): (1.15, 331_799),
    (8, 3, "misere"): (2.16, 581_118),
    (9, 3, "misere"): (3.05, 848_528),
    (5, 4, "misere"): (0.515, 155_008),
    (6, 4, "normal"): (1.88, 477_056),
    (5, 3, "misere"): (0.085, 32_050),
    (4, 4, "misere"): (0.047, 20_476),
    (5, 3, "normal"): (0.092, 50_903),
    (6, 3, "normal"): (0.363, 146_397),
    (7, 3, "normal"): (1.32, 438_211),
    (5, 4, "normal"): (0.23, 97_583),
}
CHAIN_TARGET = (3.5, 1_035_000)

# (a, d, mode): (reference CPU seconds, memo entries) for n = B, B+1, 3B on
# one memo.  Normal (4, 6) expands nodes a third slower than (6, 4) and
# (4, 5) and is left out, so that memo entries and time stay in proportion.
CAPPED_POOL = {
    (6, 4, "normal"): (3.255, 150_223),
    (4, 5, "normal"): (4.31, 208_747),
    (6, 3, "normal"): (0.678, 29_362),
    (5, 4, "misere"): (0.261, 14_369),
    (4, 5, "misere"): (0.291, 17_013),
    (7, 3, "misere"): (0.161, 11_231),
    (5, 4, "normal"): (0.09, 7_022),
    (5, 3, "normal"): (0.031, 1_984),
    (6, 3, "misere"): (0.043, 3_289),
}
CAPPED_TARGET = (4.6, 222_000)
# Rows whose stabilization bound B is at most 20, so B has a golden value.
CAPPED_GOLDEN_POOL = [
    (3, 3, "normal"),
    (3, 3, "misere"),
    (4, 3, "normal"),
    (4, 3, "misere"),
    (5, 2, "normal"),
    (6, 2, "normal"),
    (7, 2, "normal"),
]
CAPPED_GOLDEN_PICK = 2

# Dense-order grid: d = 2 and 3 for a <= Q_TOP_A, 4 <= d <= Q_TOP_D with
# d <= a <= Q_TOP_A.  (Q_TOP_A, Q_TOP_D) reaches every word any other grid
# point reaches, so including it fixes the cold child-generation work.
Q_TOP_A = 14
Q_TOP_D = 7
Q_GRID_SHARE = 0.5
Q_DUALITY_PICK = 8

EXTENDED_PAIRS = [(5, 4), (4, 5), (7, 3)]
# (a, d) with a != d: the cube is self-dual, so (a, d) and (d, a) must agree.
CUBE_SWAP_PAIRS = [(2, 3), (2, 4), (3, 4)]
CHAIN10_POOL = [(a, d, mode) for a, d in [(3, 3), (4, 3), (3, 4), (4, 4), (5, 3), (3, 5)]
                for mode in ("normal", "misere")]
CHAIN10_PICK = 4


def balanced_subset(rng: random.Random, pool: dict, target: tuple) -> list:
    """A seeded subset of the pool keys whose summed costs are all within BALANCE of target."""
    keys = sorted(pool)
    feasible = []
    for mask in range(1, 1 << len(keys)):
        chosen = [k for i, k in enumerate(keys) if mask >> i & 1]
        if all(
            abs(sum(pool[k][c] for k in chosen) / target[c] - 1) <= BALANCE
            for c in range(len(target))
        ):
            feasible.append(chosen)
    if not feasible:
        raise ValueError(f"no subset of the pool is within {BALANCE:.0%} of {target}")
    chosen = list(rng.choice(feasible))
    rng.shuffle(chosen)
    return chosen


def _golden() -> dict:
    table = {}
    for mode in Mode:
        for a, d, n, outcome in golden.golden_cases(mode):
            table[(a, d, mode.value, n)] = outcome.value
    return table


def _chain_table(rng: random.Random, smoke: bool) -> list[dict]:
    table = _golden()
    if smoke:
        rows, top = [(3, 3, "misere"), (4, 3, "normal")], 10
    else:
        rows, top = balanced_subset(rng, CHAIN_POOL, CHAIN_TARGET), MAX_N
    jobs = []
    for a, d, mode in rows:
        ns = list(range(1, top + 1))
        jobs.append({
            "kind": "chain_row", "a": a, "d": d, "mode": mode, "ns": ns,
            "expect": [table[(a, d, mode, n)] for n in ns],
        })
    return jobs


def _q_expect(a: int, d: int) -> str:
    """The dense-order theorems: d = 2 is P, d = 3 is N iff a is odd, else N."""
    if d == 2:
        return "P"
    if d == 3:
        return "N" if a % 2 else "P"
    return "N"


def _q_cold(rng: random.Random, smoke: bool) -> list[dict]:
    top_a, top_d = (6, 4) if smoke else (Q_TOP_A, Q_TOP_D)
    grid = [(a, 2) for a in range(2, top_a + 1)] + [(a, 3) for a in range(3, top_a + 1)]
    grid += [(a, d) for d in range(4, top_d + 1) for a in range(d, top_a + 1)]
    grid.remove((top_a, top_d))
    picked = [(top_a, top_d)] + rng.sample(grid, round(len(grid) * Q_GRID_SHARE))
    pairs = [(a, d) for a in range(3, 8) for d in range(3, 8)]
    duality = rng.sample(pairs, 2 if smoke else Q_DUALITY_PICK)
    jobs = [
        {"kind": "q", "a": a, "d": d, "mode": "normal", "expect": [_q_expect(a, d)]}
        for a, d in picked
    ]
    jobs += [{"kind": "duality", "a": a, "d": d, "expect": [True]} for a, d in duality]
    rng.shuffle(jobs)
    return jobs


def _capped_ext_poset(rng: random.Random, smoke: bool) -> list[dict]:
    table = _golden()
    if smoke:
        capped, extended = [(5, 3, "misere")], [(3, 3), (4, 3)]
    else:
        capped, extended = balanced_subset(rng, CAPPED_POOL, CAPPED_TARGET), EXTENDED_PAIRS[:]
    capped += rng.sample(CAPPED_GOLDEN_POOL, CAPPED_GOLDEN_PICK)
    rng.shuffle(capped)
    rng.shuffle(extended)
    jobs = []
    # Capped solvers stay alive to the end of the list and the transient
    # extended and poset memos come after them, so peak RSS does not
    # depend on the seeded order.
    for a, d, mode in capped:
        b = stabilization_bound(a, d)
        ns = [b, b + 1, 3 * b]
        jobs.append({
            "kind": "capped_row", "a": a, "d": d, "mode": mode, "ns": ns, "agree": True,
            "expect": [table.get((a, d, mode, n)) for n in ns],
        })
    for a, d in extended:
        jobs.append({"kind": "extended", "a": a, "d": d,
                     "expect": [parity_outcome(a, d).value]})
    posets = [{"kind": "poset", "deck": "cube", "ad": [(3, 3)], "mode": "normal", "expect": ["P"]}]
    for a, d in CUBE_SWAP_PAIRS[:1] if smoke else CUBE_SWAP_PAIRS:
        posets.append({"kind": "poset", "deck": "cube", "ad": [(a, d), (d, a)],
                       "mode": rng.choice(("normal", "misere")), "agree": True,
                       "expect": [None, None]})
    for a, d, mode in rng.sample(CHAIN10_POOL, 1 if smoke else CHAIN10_PICK):
        referee = solve_chain(GameParams(a, d, Mode(mode)), 10).outcome.value
        posets.append({"kind": "poset", "deck": 10, "ad": [(a, d)], "mode": mode,
                       "expect": [referee]})
    rng.shuffle(posets)
    return jobs + posets


_GENERATORS = {
    "chain-table": _chain_table,
    "q-cold": _q_cold,
    "capped-ext-poset": _capped_ext_poset,
}


def make_jobs(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The seeded job list of one workload; smoke gives a seconds-long one."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = _GENERATORS[workload](rng, smoke)
    for i, job in enumerate(jobs):
        job["id"] = f"{i}:{job['kind']}"
    return jobs


def check(job: dict, out: list, error) -> int:
    """Number of the job's ops that failed their referee."""
    expect = job["expect"]
    if job.get("agree") and len(set(map(str, out))) > 1:
        return len(expect)
    failed = sum(
        1 for i, e in enumerate(expect)
        if i >= len(out) or (e is not None and out[i] != e)
    )
    return max(failed, 1) if error else failed
