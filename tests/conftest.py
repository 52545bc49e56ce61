"""Shared oracles and solver caches for the test suite.

The oracles here deliberately avoid the production code paths they check:
monotone subsequence lengths come from exhaustive subsequence search, and
game outcomes from a plain board-level recursion with no transposition
table and no colour machinery.  The chain referee steps the colour-word
transitions but shares no packing, clamping or search code with the
product's chain solver.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

import pytest

from monoseq import ChainSolver, GameParams, Mode, Outcome, errors
from monoseq.bumping import _play, _wid, _word_counts, _word_text


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


class RefereeReport(NamedTuple):
    outcome: Outcome
    smallest_winning_move: Optional[int]


class RefereeChainSearch:
    """Unclamped chain search: the reference the product's clamped search
    is checked against.

    States are (word id, gaps tuple) pairs stepped gap by gap through
    ``bumping._play`` with plain lists: no packing, no clamp and no
    large-gap argument, so every gap holds its true card count and the
    memo key needs no deck size.  Every gap is played, critical ones too,
    and each word's moves are kept for the life of the search.
    """

    def __init__(self, params: GameParams):
        self.params = params
        self._memo: dict = {}
        self._moves: dict = {}

    def _scan(self, wid: int, gaps: tuple) -> tuple:
        """Outcome of a live position with cards left, and the index of its
        first winning move in ascending card order."""
        a, d = self.params.a, self.params.d
        completes = Outcome.N if self.params.mode is Mode.MISERE else Outcome.P
        memo = self._memo
        saw_draw = False
        index = 0
        moves = self._moves.get(wid)
        if moves is None:
            moves = self._moves[wid] = [_play(wid, j) for j in range(len(_word_text[wid]) + 1)]
        for j, (cid, rt, ls) in enumerate(moves):
            cr, cb = _word_counts[cid]
            if cr >= a or cb >= d:
                # Every card of gap j completes a critical sequence.
                if gaps[j] and completes is Outcome.P:
                    return Outcome.N, index
                index += gaps[j]
                continue
            for l in range(gaps[j]):
                child = [*gaps[:j], l, gaps[j] - 1 - l, *gaps[j + 1 :]]
                if rt >= 0:
                    child[rt] += child.pop(rt + 1)
                if ls >= 0:
                    child[ls] += child.pop(ls + 1)
                key = (cid, tuple(child))
                if not any(child):
                    cv = Outcome.D
                elif key in memo:
                    cv = memo[key]
                else:
                    cv = memo[key] = self._scan(*key)[0]
                if cv is Outcome.P:
                    return Outcome.N, index
                saw_draw = saw_draw or cv is Outcome.D
                index += 1
        return (Outcome.D if saw_draw else Outcome.P), None

    def solve(self, n: int) -> RefereeReport:
        """Outcome and smallest winning first move on [n]."""
        if n == 0:
            return RefereeReport(Outcome.D, None)
        outcome, index = self._scan(_wid(""), (n,))
        return RefereeReport(outcome, None if index is None else index + 1)


class SolverCache:
    """Session-wide solver reuse: one memo per (a, d, mode) and search."""

    def __init__(self):
        self._product: dict = {}
        self._referee: dict = {}

    def product(self, a: int, d: int, mode: Mode = Mode.NORMAL) -> ChainSolver:
        key = (a, d, mode)
        if key not in self._product:
            self._product[key] = ChainSolver(GameParams(a, d, mode))
        return self._product[key]

    def referee(self, a: int, d: int, mode: Mode = Mode.NORMAL) -> RefereeChainSearch:
        key = (a, d, mode)
        if key not in self._referee:
            self._referee[key] = RefereeChainSearch(GameParams(a, d, mode))
        return self._referee[key]

    #: The search that the acceptance suite's capped-equals-exact criterion
    #: sets against ``outcome``: with clamping in the product, the referee.
    capped = referee

    def outcome(self, a: int, d: int, n: int, mode: Mode = Mode.NORMAL) -> Outcome:
        return self.product(a, d, mode).solve(n).outcome


@pytest.fixture(scope="session")
def solvers() -> SolverCache:
    return SolverCache()


@pytest.fixture
def zero_budget(monkeypatch):
    """Substitute a memory budget of zero bytes: the guard fires at the
    first memo insertion it checks."""
    monkeypatch.setattr(errors, "memory_budget", lambda: 0)
