"""Exact outcome solver for play on the chain [n] = {1 < 2 < ... < n}.

The full board is never part of the search state.  A position is reduced
to its GapState: the colour word of the board together with the counts of
unplayed cards in each interval between consecutive recording-sequence
values.  Equal GapStates have identical sub-game trees, so the GapState is
a sound transposition key, and a move is just "split gap j into (l, r)"
followed by the colour-level bump (which may retint letters or delete one
on each side, merging adjacent gaps).

Moves are enumerated in increasing card order and the only pruning is the
usual cutoff once a P child proves the position N; the smallest winning
first move therefore falls out of the root scan for free.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .bumping import _transitions, _wid, _word_text, double_bump
from .errors import ResourceLimitError
from .order_core import FiniteChain, GameParams, Mode, Outcome

_N, _P, _D = 0, 1, 2
_OUT = (Outcome.N, Outcome.P, Outcome.D)

#: Sentinel gap value used by the capped solver for interchangeable large gaps.
LARGE = -1


class GapState(NamedTuple):
    """Canonical chain-play position: colour word plus gap sizes.

    ``gaps[i]`` counts the unplayed cards strictly between the deck values
    of recording entries i-1 and i (ends: below the first entry / above the
    last), which is not in general the value difference minus one.
    """

    colour: str
    gaps: tuple[int, ...]


@dataclass(frozen=True)
class SolveReport:
    """Result of one root solve."""

    outcome: Outcome
    nodes_expanded: int
    smallest_winning_move: Optional[int]
    elapsed: float

    def __post_init__(self):
        if (self.smallest_winning_move is not None) != (self.outcome is Outcome.N):
            raise ValueError("smallest_winning_move present iff outcome is N")


def large_gap_bound(x: int, y: int) -> int:
    """B(x, y) = 2*C(x+y-2, x-1) - 1.

    Gaps of at least B(x, y) cards, where x and y are the residual critical
    lengths local to the gap, are interchangeable without changing the
    outcome; B satisfies B(x,1) = B(1,y) = 1 and
    B(x,y) = B(x-1,y) + B(x,y-1) + 1 with equality.
    """
    if x < 1 or y < 1:
        raise ValueError("large_gap_bound needs x, y >= 1")
    return 2 * math.comb(x + y - 2, x - 1) - 1


def stabilization_bound(a: int, d: int) -> int:
    """Deck size from which the outcome of (a, d, [n]) is constant in n.

    Equals large_gap_bound(a, d): the whole deck is a single root gap with
    residual parameters (a, d), so every deck size at or beyond the bound
    normalizes to the same position.
    """
    if a < 2 or d < 2:
        raise ValueError("critical lengths must be at least 2")
    return large_gap_bound(a, d)


def canonical_state(deck: FiniteChain, board) -> GapState:
    """GapState of a board on a finite chain."""
    board = tuple(board)
    seen = set()
    for x in board:
        if x not in deck:
            raise ValueError(f"element {x!r} is not in the deck")
        if x in seen:
            raise ValueError(f"element {x!r} played twice")
        seen.add(x)
    rec = double_bump(board)
    values = rec.values()
    unplayed = sorted(set(deck.elements) - set(board))
    bounds = (0,) + values + (deck.n + 1,)
    gaps = []
    for lo, hi in zip(bounds, bounds[1:]):
        gaps.append(sum(1 for u in unplayed if lo < u < hi))
    return GapState(rec.colour_word(), tuple(gaps))


_EMPTY_WID = _wid("")


class ChainSolver:
    """Shared-memo solver for fixed (a, d, mode) across deck sizes.

    The transposition table is keyed on exact GapStates, which do not
    mention the deck size, so solving several n for the same parameters
    reuses the table.  Deterministic and single-threaded: outcomes, smallest
    winning moves and node counts repeat exactly run to run.
    """

    def __init__(
        self,
        params: GameParams,
        *,
        node_limit: int = 10**9,
        memo_limit: int = 10**8,
    ):
        self.params = params
        self.node_limit = node_limit
        self.memo_limit = memo_limit
        self._memo: dict = {}
        self._counter = [0]
        self._value = self._make_value()

    @property
    def nodes_expanded(self) -> int:
        return self._counter[0]

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def _make_value(self):
        memo = self._memo
        a, d = self.params.a, self.params.d
        normal = self.params.mode is Mode.NORMAL
        node_limit = self.node_limit
        memo_limit = self.memo_limit
        transitions = _transitions
        counter = self._counter

        def value(wid: int, gaps: tuple, m: int) -> int:
            key = (wid, gaps)
            v = memo.get(key)
            if v is not None:
                return v
            counter[0] += 1
            if counter[0] > node_limit:
                raise ResourceLimitError("node_limit", node_limit)
            if len(memo) > memo_limit:
                raise ResourceLimitError("memo_limit", memo_limit)
            result = -1
            saw_draw = False
            for j, cid, cr, cb, rt, ls in transitions(wid):
                g = gaps[j]
                if g == 0:
                    continue
                if cr >= a or cb >= d:
                    # Any card in this gap completes a critical sequence.
                    if normal:
                        result = _N
                        break
                    continue
                if m == 1:
                    saw_draw = True
                    continue
                pre = gaps[:j]
                post = gaps[j + 1 :]
                for l in range(g):
                    child = list(pre)
                    child.append(l)
                    child.append(g - 1 - l)
                    child.extend(post)
                    if rt >= 0:
                        child[rt] += child[rt + 1]
                        del child[rt + 1]
                    if ls >= 0:
                        child[ls] += child[ls + 1]
                        del child[ls + 1]
                    cv = value(cid, tuple(child), m - 1)
                    if cv == _P:
                        result = _N
                        break
                    if cv == _D:
                        saw_draw = True
                if result >= 0:
                    break
            out = result if result >= 0 else (_D if saw_draw else _P)
            memo[key] = out
            return out

        return value

    def solve(self, n: int) -> SolveReport:
        """Outcome of the empty board of (a, d, [n])."""
        if n < 0:
            raise ValueError("deck size must be nonnegative")
        t0 = time.perf_counter()
        a, d = self.params.a, self.params.d
        if n == 0 or n < min(a, d):
            # The deck is too small for any critical sequence to ever form.
            return SolveReport(Outcome.D, 0, None, time.perf_counter() - t0)
        start_nodes = self._counter[0]
        outcome, swm = self._solve_root(n)
        return SolveReport(
            _OUT[outcome],
            self._counter[0] - start_nodes,
            swm if outcome == _N else None,
            time.perf_counter() - t0,
        )

    def _solve_root(self, n: int) -> tuple[int, Optional[int]]:
        value = self._value
        ((_, pid, _, _, _, _),) = _transitions(_EMPTY_WID)
        if n == 1:
            return _D, None
        saw_draw = False
        for l in range(n):
            cv = value(pid, (l, n - 1 - l), n - 1)
            if cv == _P:
                return _N, l + 1
            if cv == _D:
                saw_draw = True
        return (_D if saw_draw else _P), None

    def outcome(self, n: int) -> Outcome:
        return self.solve(n).outcome


def solve_chain(
    params: GameParams,
    n: int,
    *,
    node_limit: int = 10**9,
    memo_limit: int = 10**8,
) -> SolveReport:
    """Solve (a, d, [n]) with a fresh transposition table."""
    return ChainSolver(params, node_limit=node_limit, memo_limit=memo_limit).solve(n)


# ---------------------------------------------------------------------------
# Closed forms (normal play)

def closed_form_d2(a: int, n: int, mode: Mode = Mode.NORMAL) -> Outcome:
    """Outcome of (a, 2, [n]) in normal play.

    With d = 2 every move other than the smallest remaining card loses at
    once, so play is forced and only the parity of a matters once n >= a.
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if mode is not Mode.NORMAL:
        raise ValueError("closed form applies to normal play only")
    if n < a:
        return Outcome.D
    return Outcome.N if a % 2 == 1 else Outcome.P


def closed_form_d3(a: int, n: int, mode: Mode = Mode.NORMAL) -> Outcome:
    """Outcome of (a, 3, [n]) in normal play.

    First player wins when n > a and a is even, or n > a + 1 and a is odd;
    every remaining case is drawn.
    """
    if a < 3:
        raise ValueError("a must be at least 3 for the d=3 closed form")
    if mode is not Mode.NORMAL:
        raise ValueError("closed form applies to normal play only")
    if (a % 2 == 0 and n > a) or (a % 2 == 1 and n > a + 1):
        return Outcome.N
    return Outcome.D


def verify_shift_implication(params: GameParams, n: int) -> bool:
    """Check W(a,d,n) = P implies W(a+1,d,n+1) = N and W(a,d+1,n+1) = N.

    Playing the smallest (resp. largest) card first reduces the enlarged
    game to the original one; vacuously true when the premise fails.
    """
    base = solve_chain(params, n).outcome
    if base is not Outcome.P:
        return True
    up_a = solve_chain(GameParams(params.a + 1, params.d, params.mode), n + 1).outcome
    up_d = solve_chain(GameParams(params.a, params.d + 1, params.mode), n + 1).outcome
    return up_a is Outcome.N and up_d is Outcome.N


# ---------------------------------------------------------------------------
# Optional large-gap normalization ("capped" solver)
#
# A gap is large when it has at least B(a - r, d - b) cards, where r counts
# the reddish letters before the gap and b the bluish letters after it;
# large gaps are interchangeable, so they are replaced by a LARGE sentinel.
# Moves from a LARGE gap produce the splits (s, LARGE) for s < B(x, y-1),
# (LARGE, s) for s < B(x-1, y), and (LARGE, LARGE); merged gaps are LARGE
# if either side was, otherwise the exact sum, re-thresholded.  The
# normalization is validated against the exact solver, not trusted.

class CappedChainSolver:
    """Chain solver over large-gap-normalized GapStates."""

    def __init__(
        self,
        params: GameParams,
        *,
        node_limit: int = 10**9,
        memo_limit: int = 10**8,
    ):
        self.params = params
        self.node_limit = node_limit
        self.memo_limit = memo_limit
        self._memo: dict = {}
        self._bounds_cache: dict[int, tuple] = {}
        self._counter = [0]

    @property
    def nodes_expanded(self) -> int:
        return self._counter[0]

    def _gap_bounds(self, wid: int) -> tuple:
        """Per-gap (large threshold, lower-split bound, upper-split bound)."""
        cached = self._bounds_cache.get(wid)
        if cached is not None:
            return cached
        word = _word_text[wid]
        a, d = self.params.a, self.params.d
        k = len(word)
        red_before = [0] * (k + 1)
        for i, ch in enumerate(word):
            red_before[i + 1] = red_before[i] + (ch != "B")
        blue_after = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            blue_after[i] = blue_after[i + 1] + (word[i] != "R")
        bounds = []
        for i in range(k + 1):
            x = a - red_before[i]
            y = d - blue_after[i]
            if x >= 1 and y >= 1:
                thr = large_gap_bound(x, y)
                lo = large_gap_bound(x, y - 1) if y >= 2 else 0
                hi = large_gap_bound(x - 1, y) if x >= 2 else 0
            else:
                # A live position never shows x or y below 1; playing such
                # a gap would be critical and is handled before splitting.
                thr, lo, hi = 1, 0, 0
            bounds.append((thr, lo, hi))
        out = tuple(bounds)
        self._bounds_cache[wid] = out
        return out

    def _normalize(self, wid: int, gaps) -> tuple:
        bounds = self._gap_bounds(wid)
        return tuple(
            LARGE if (g == LARGE or g >= bounds[i][0]) else g
            for i, g in enumerate(gaps)
        )

    @staticmethod
    def _merge(u: int, v: int) -> int:
        if u == LARGE or v == LARGE:
            return LARGE
        return u + v

    def _splits(self, wid: int, j: int, g: int):
        """(l, r) splits of gap j, ordered by ascending card value."""
        if g != LARGE:
            for l in range(g):
                yield l, g - 1 - l
            return
        _, lo, hi = self._gap_bounds(wid)[j]
        for s in range(lo):
            yield s, LARGE
        yield LARGE, LARGE
        for s in range(hi - 1, -1, -1):
            yield LARGE, s

    def _child(self, gaps: tuple, j: int, l: int, r: int, rt: int, ls: int, cid: int):
        child = list(gaps[:j])
        child.append(l)
        child.append(r)
        child.extend(gaps[j + 1 :])
        if rt >= 0:
            child[rt] = self._merge(child[rt], child[rt + 1])
            del child[rt + 1]
        if ls >= 0:
            child[ls] = self._merge(child[ls], child[ls + 1])
            del child[ls + 1]
        return self._normalize(cid, child)

    def _value(self, wid: int, gaps: tuple) -> int:
        key = (wid, gaps)
        v = self._memo.get(key)
        if v is not None:
            return v
        self._counter[0] += 1
        if self._counter[0] > self.node_limit:
            raise ResourceLimitError("node_limit", self.node_limit)
        if len(self._memo) > self.memo_limit:
            raise ResourceLimitError("memo_limit", self.memo_limit)
        a, d = self.params.a, self.params.d
        normal = self.params.mode is Mode.NORMAL
        has_large = LARGE in gaps
        remaining = 0 if has_large else sum(gaps)
        last_card = not has_large and remaining == 1
        result = -1
        saw_draw = False
        for j, cid, cr, cb, rt, ls in _transitions(wid):
            g = gaps[j]
            if g == 0:
                continue
            if cr >= a or cb >= d:
                if normal:
                    result = _N
                    break
                continue
            if last_card:
                saw_draw = True
                continue
            for l, r in self._splits(wid, j, g):
                cv = self._value(cid, self._child(gaps, j, l, r, rt, ls, cid))
                if cv == _P:
                    result = _N
                    break
                if cv == _D:
                    saw_draw = True
            if result >= 0:
                break
        out = result if result >= 0 else (_D if saw_draw else _P)
        self._memo[key] = out
        return out

    def solve(self, n: int) -> SolveReport:
        if n < 0:
            raise ValueError("deck size must be nonnegative")
        t0 = time.perf_counter()
        a, d = self.params.a, self.params.d
        if n == 0 or n < min(a, d):
            return SolveReport(Outcome.D, 0, None, time.perf_counter() - t0)
        start = self._counter[0]
        ((_, pid, _, _, _, _),) = _transitions(_EMPTY_WID)
        saw_draw = False
        outcome = -1
        swm = None
        if n < large_gap_bound(a, d):
            for card in range(1, n + 1):
                child = self._child((n,), 0, card - 1, n - card, -1, -1, pid)
                cv = self._value(pid, child)
                if cv == _P:
                    outcome, swm = _N, card
                    break
                if cv == _D:
                    saw_draw = True
        else:
            # Root classes in ascending-card order: a small lower part s is
            # the card s+1, both-large starts at card B(a, d-1)+1, a small
            # upper part s is the card n-s (scanned with s descending).
            lo = large_gap_bound(a, d - 1)
            hi = large_gap_bound(a - 1, d)
            classes = [(s + 1, (s, LARGE)) for s in range(lo)]
            classes.append((lo + 1, (LARGE, LARGE)))
            classes.extend((n - s, (LARGE, s)) for s in range(hi - 1, -1, -1))
            for card, (l, r) in classes:
                cv = self._value(pid, self._child((LARGE,), 0, l, r, -1, -1, pid))
                if cv == _P:
                    outcome, swm = _N, card
                    break
                if cv == _D:
                    saw_draw = True
        if outcome < 0:
            outcome = _D if saw_draw else _P
            swm = None
        return SolveReport(
            _OUT[outcome],
            self._counter[0] - start,
            swm,
            time.perf_counter() - t0,
        )


def solve_chain_capped(
    params: GameParams,
    n: int,
    *,
    node_limit: int = 10**9,
    memo_limit: int = 10**8,
) -> SolveReport:
    """Solve (a, d, [n]) over large-gap-normalized states.

    Outcomes are identical to solve_chain (cross-checked in the test
    suite); beyond the stabilization bound all deck sizes share one root
    state, which is what makes the eventual constancy concrete.
    """
    return CappedChainSolver(
        params, node_limit=node_limit, memo_limit=memo_limit
    ).solve(n)
