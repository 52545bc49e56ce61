"""Reproduce the published chain-deck outcome tables at desk scale.

Run:  python demos/chain_tables.py
"""

from monoseq import ChainSolver, GameParams, Mode, stabilization_bound
from monoseq.golden import MISERE_ROWS, emit_table

MAX_N = 12

print(f"Misere winner for n = 1..{MAX_N} (computed, matches the golden table):")
rows = []
for (a, d) in sorted(MISERE_ROWS):
    solver = ChainSolver(GameParams(a, d, Mode.MISERE))
    rows.extend((a, d, n, Mode.MISERE, solver.solve(n).outcome) for n in range(1, MAX_N + 1))
print(emit_table(rows))

print("\nSmallest winning first move is constant across trailing N blocks")
print("(the evidence that they are genuine long-run behaviour):")
solver = ChainSolver(GameParams(4, 4, Mode.MISERE))
for n in range(6, 13):
    report = solver.solve(n)
    move = "-" if report.smallest_winning_move is None else report.smallest_winning_move
    print(f"  n={n:2d}  {report.outcome.value}  first winning card {move}")

print("\nLarge-gap normalization makes eventual constancy concrete:")
for a, d in [(2, 2), (3, 2), (3, 3)]:
    bound = stabilization_bound(a, d)
    outcome = ChainSolver(GameParams(a, d)).solve(bound).outcome
    print(f"  (a={a}, d={d}): all decks of size >= {bound} have outcome {outcome.value}")
