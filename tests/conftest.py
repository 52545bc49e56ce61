"""Shared oracles and solver caches for the test suite.

The oracles here deliberately avoid the production code paths they check:
monotone subsequence lengths come from exhaustive subsequence search, and
game outcomes from a plain board-level recursion with no transposition
table and no colour machinery.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from monoseq import CappedChainSolver, ChainSolver, GameParams, Mode, Outcome, errors


def brute_lis(values) -> int:
    """Longest ascending subsequence by trying every subsequence."""
    values = list(values)
    for k in range(len(values), 0, -1):
        for combo in combinations(values, k):
            if all(x < y for x, y in zip(combo, combo[1:])):
                return k
    return 0


def brute_lds(values) -> int:
    values = list(values)
    for k in range(len(values), 0, -1):
        for combo in combinations(values, k):
            if all(x > y for x, y in zip(combo, combo[1:])):
                return k
    return 0


def brute_board_outcome(board: tuple, n: int, params: GameParams) -> Outcome:
    """Game value of a mid-game board on [n]: full expansion, no memo.

    The board must be legal and non-terminal.  Uses exhaustive subsequence
    search for critical detection, so it shares nothing with the solver
    under test.
    """
    a, d, misere = params.a, params.d, params.mode is Mode.MISERE
    terminal = Outcome.N if misere else Outcome.P

    def value(board: tuple) -> Outcome:
        saw_draw = False
        all_n = True
        for card in range(1, n + 1):
            if card in board:
                continue
            child = board + (card,)
            if brute_lis(child) >= a or brute_lds(child) >= d:
                cv = terminal
            elif len(child) == n:
                cv = Outcome.D
            else:
                cv = value(child)
            if cv is Outcome.P:
                return Outcome.N
            if cv is Outcome.D:
                saw_draw = True
                all_n = False
        return Outcome.P if all_n else Outcome.D

    return value(tuple(board))


def random_legal_board(rng, n: int, params: GameParams, max_depth: int) -> tuple:
    """Random playout stopped while the game is live.

    Returns a legal non-terminal board of length at most ``max_depth``
    (capping the depth keeps the brute-force oracle cheap).
    """
    a, d = params.a, params.d
    board: tuple = ()
    depth = rng.randrange(0, max_depth + 1)
    cards = list(range(1, n + 1))
    rng.shuffle(cards)
    for card in cards:
        if len(board) >= depth:
            break
        child = board + (card,)
        if brute_lis(child) >= a or brute_lds(child) >= d:
            continue
        board = child
    return board


class SolverCache:
    """Session-wide ChainSolver reuse: one memo per (a, d, mode)."""

    def __init__(self):
        self._exact: dict = {}
        self._capped: dict = {}

    def exact(self, a: int, d: int, mode: Mode = Mode.NORMAL) -> ChainSolver:
        key = (a, d, mode)
        if key not in self._exact:
            self._exact[key] = ChainSolver(GameParams(a, d, mode))
        return self._exact[key]

    def capped(self, a: int, d: int, mode: Mode = Mode.NORMAL) -> CappedChainSolver:
        key = (a, d, mode)
        if key not in self._capped:
            self._capped[key] = CappedChainSolver(GameParams(a, d, mode))
        return self._capped[key]

    def outcome(self, a: int, d: int, n: int, mode: Mode = Mode.NORMAL) -> Outcome:
        return self.exact(a, d, mode).solve(n).outcome


@pytest.fixture(scope="session")
def solvers() -> SolverCache:
    return SolverCache()


@pytest.fixture
def zero_budget(monkeypatch):
    """Substitute a memory budget of zero bytes: the guard fires at the
    first memo insertion it checks."""
    monkeypatch.setattr(errors, "memory_budget", lambda: 0)
