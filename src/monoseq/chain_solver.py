"""Exact outcome solver for play on the chain [n] = {1 < 2 < ... < n}.

The full board is never part of the search state.  A position is reduced
to its GapState: the colour word of the board together with the counts of
unplayed cards in each interval between consecutive recording-sequence
values.  Equal GapStates have identical sub-game trees, so the GapState is
a sound transposition key, and a move is just "split gap j into (l, r)"
followed by the colour-level bump (which may retint letters or delete one
on each side, merging adjacent gaps).

Inside the search a GapState is one int: gap i fills bits [W*i, W*(i+1))
and the interned word id sits above the a+d-1 gap fields a live word can
have.  Merges only add adjacent fields, so the children of one gap are an
arithmetic progression in l and each further child costs one integer add.
Capped solving runs the same loop and only clamps each child gap to its
large-gap threshold.

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
from .errors import CHECK_EVERY, check_memory
from .order_core import (
    _D,
    _N,
    _OUT,
    _P,
    FiniteChain,
    GameParams,
    Mode,
    Outcome,
    _check_board_elements,
)

#: Width in bits of one packed gap field in exact solving.
GAP_BITS = 5
#: Largest deck size exact solving accepts: every gap must fit its field.
MAX_EXACT_N = (1 << GAP_BITS) - 1


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
    _check_board_elements(board, deck)
    rec = double_bump(board)
    values = rec.values()
    unplayed = sorted(set(deck.elements) - set(board))
    bounds = (0,) + values + (deck.n + 1,)
    gaps = []
    for lo, hi in zip(bounds, bounds[1:]):
        gaps.append(sum(1 for u in unplayed if lo < u < hi))
    return GapState(rec.colour_word(), tuple(gaps))


_EMPTY_WID = _wid("")


def _merge_op(bits: int, i: int):
    """(low mask, high shift, low shift) that adds gap field i+1 into field
    i and moves the fields above it down by one; None for i = -1."""
    if i < 0:
        return None
    return (1 << bits * (i + 1)) - 1, bits * (i + 1), bits * i


class ChainSolver:
    """Shared-memo solver for fixed (a, d, mode) across deck sizes.

    The transposition table is keyed on exact GapStates, which do not
    mention the deck size, so solving several n for the same parameters
    reuses the table.  Deterministic and single-threaded: outcomes, smallest
    winning moves and node counts repeat exactly run to run.  Each expanded
    state is memoized once and nothing else is, so after every solve
    ``memo_size == nodes_expanded``; memory is checked as the memo grows.
    """

    #: Gap normalizer applied to every child state; None is the identity.
    _clamp = None

    def __init__(self, params: GameParams):
        self.params = params
        self._bits = self._gap_bits()
        self._fmask = (1 << self._bits) - 1
        # A live word has at most a+d-2 letters, hence at most a+d-1 gaps.
        self._shift = self._bits * (params.a + params.d - 1)
        self._memo: dict = {}
        self._rows: dict[int, tuple] = {}
        self._counter = [0]
        self._value, self._split = self._make_value()

    @property
    def nodes_expanded(self) -> int:
        return self._counter[0]

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def _gap_bits(self) -> int:
        return GAP_BITS

    def _root_gap(self, n: int) -> int:
        """Size of the one gap the root scan splits."""
        if n > MAX_EXACT_N:
            raise ValueError(
                f"deck size {n} exceeds {MAX_EXACT_N}, the largest exact solving "
                f"packs into {GAP_BITS}-bit gap fields; CappedChainSolver takes any n"
            )
        return n

    def _clamp_data(self, cid: int, pl: int):
        return None

    def _word_rows(self, wid: int) -> tuple:
        """(gap shift, critical, split data) for each gap of the word.

        Split data turns the parent's gap fields into the l = 0 child and
        steps l: the child of split l + 1 is that of l plus ``step``.
        Critical gaps are left out in misere play, where they are never
        played.
        """
        bits, shift = self._bits, self._shift
        a, d = self.params.a, self.params.d
        normal = self.params.mode is Mode.NORMAL
        rows = []
        for j, cid, cr, cb, rt, ls in _transitions(wid):
            sj = bits * j
            if cr >= a or cb >= d:
                if normal:
                    rows.append((sj, True, None))
                continue
            pl = j - (ls >= 0)  # the field holding l once merges are done
            split = (
                (1 << sj) - 1,
                sj + bits,
                sj + 2 * bits,
                _merge_op(bits, rt),
                _merge_op(bits, ls),
                cid << shift,
                -(self._fmask << bits * pl),
                self._clamp_data(cid, pl),
            )
            rows.append((sj, False, split))
        out = self._rows[wid] = tuple(rows)
        return out

    def _make_value(self):
        memo = self._memo
        word_rows = self._rows
        build = self._word_rows
        clamp = self._clamp
        shift = self._shift
        gmask = (1 << shift) - 1
        fmask = self._fmask
        counter = self._counter
        next_check = 1

        def split(g: int, gj: int, data: tuple):
            """Child states of splitting gap field j of g (holding gj cards),
            in ascending card order."""
            low, s1, s2, rmerge, lmerge, cid_hi, step, cdata = data
            child = g & low | (gj - 1) << s1 | g >> s1 << s2
            if rmerge is not None:
                mask, hi, lo = rmerge
                child = (child & mask) + (child >> hi << lo)
            if lmerge is not None:
                mask, hi, lo = lmerge
                child = (child & mask) + (child >> hi << lo)
            child += cid_hi
            if clamp is None:
                return range(child, child + gj * step, step)
            return clamp(child, gj, cdata)

        def value(state: int, m: int) -> int:
            nonlocal next_check
            v = memo.get(state)
            if v is not None:
                return v
            counter[0] += 1
            if counter[0] >= next_check:
                check_memory(memo)
                next_check += CHECK_EVERY
            wid = state >> shift
            rows = word_rows.get(wid)
            if rows is None:
                rows = build(wid)
            g = state & gmask
            m1 = m - 1
            result = -1
            saw_draw = False
            for sj, critical, data in rows:
                gj = g >> sj & fmask
                if not gj:
                    continue
                if critical:
                    # Any card in this gap completes a critical sequence.
                    result = _N
                    break
                if m == 1:
                    saw_draw = True
                    continue
                for child in split(g, gj, data):
                    cv = value(child, m1)
                    if cv == _P:
                        result = _N
                        break
                    if cv == _D:
                        saw_draw = True
                if result >= 0:
                    break
            out = result if result >= 0 else (_D if saw_draw else _P)
            memo[state] = out
            return out

        return value, split

    def solve(self, n: int) -> SolveReport:
        """Outcome of the empty board of (a, d, [n])."""
        if n < 0:
            raise ValueError("deck size must be nonnegative")
        gap = self._root_gap(n)
        t0 = time.perf_counter()
        a, d = self.params.a, self.params.d
        if n < min(a, d):
            # The deck is too small for any critical sequence to ever form.
            return SolveReport(Outcome.D, 0, None, time.perf_counter() - t0)
        start_nodes = self._counter[0]
        outcome, swm = self._solve_root(n, gap)
        return SolveReport(
            _OUT[outcome],
            self._counter[0] - start_nodes,
            swm,
            time.perf_counter() - t0,
        )

    def _solve_root(self, n: int, gap: int) -> tuple[int, Optional[int]]:
        """Scan the root's splits in ascending card order.

        The root gap holds all n cards, or B(a, d) of them once capped
        solving clamps it.  Split l is the card l+1 up to l = B(a, d-1)
        and keeps gap-1-l cards above it beyond that, so it is the card
        n-(gap-1-l); both agree when gap = n.
        """
        value = self._value
        rows = self._rows.get(_EMPTY_WID) or self._word_rows(_EMPTY_WID)
        ((_, _, data),) = rows
        lo = large_gap_bound(self.params.a, self.params.d - 1)
        saw_draw = False
        for l, child in enumerate(self._split(gap, gap, data)):
            cv = value(child, n - 1)
            if cv == _P:
                return _N, (l + 1 if l <= lo else n - (gap - 1 - l))
            if cv == _D:
                saw_draw = True
        return (_D if saw_draw else _P), None


def solve_chain(params: GameParams, n: int) -> SolveReport:
    """Solve (a, d, [n]) with a fresh transposition table."""
    return ChainSolver(params).solve(n)


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
# Capped solving: clamp every gap to its large-gap threshold
#
# A gap is large when it has at least B(x, y) cards, where x = a - r and
# y = d - b for the r reddish letters before the gap and the b bluish
# letters after it; large gaps are interchangeable.  The capped solver
# clamps each child gap to its threshold, so a clamped state is a real
# GapState whose large gaps hold exactly B(x, y) cards, and it runs the
# exact solver's value loop and memo format.  Clamping the root gap to
# B(a, d) makes every deck of at least B(a, d) cards the same root.  The
# normalization is validated against the exact solver, not trusted.

class CappedChainSolver(ChainSolver):
    """Chain solver over threshold-clamped GapStates; takes any deck size."""

    def __init__(self, params: GameParams):
        self._bound = stabilization_bound(params.a, params.d)
        self._bounds_cache: dict[int, tuple[int, ...]] = {}
        super().__init__(params)

    def _gap_bits(self) -> int:
        # A clamped gap holds at most B(a, d) cards, and so does any merge
        # of two adjacent ones.
        return self._bound.bit_length()

    def _root_gap(self, n: int) -> int:
        return min(n, self._bound)

    def _gap_bounds(self, wid: int) -> tuple[int, ...]:
        """Large-gap threshold B(x, y) of each gap of a live word."""
        cached = self._bounds_cache.get(wid)
        if cached is not None:
            return cached
        word = _word_text[wid]
        x = self.params.a
        y = self.params.d - (len(word) - word.count("R"))
        bounds = [large_gap_bound(x, y)]
        for ch in word:
            # Left to right, a reddish letter joins those before the gap
            # and a bluish one leaves those after it.
            x -= ch != "B"
            y += ch != "R"
            bounds.append(large_gap_bound(x, y))
        out = self._bounds_cache[wid] = tuple(bounds)
        return out

    def _clamp_data(self, cid: int, pl: int) -> tuple:
        bits = self._bits
        bounds = self._gap_bounds(cid)
        pr = pl + 1
        others = tuple(
            (bits * i, b) for i, b in enumerate(bounds) if i != pl and i != pr
        )
        return others, bits * pl, bounds[pl], bits * pr, bounds[pr]

    def _clamp(self, child: int, gj: int, data: tuple) -> list[int]:
        """Clamp the l = 0 child's fields; only fields l and r vary with l."""
        others, sl, bl, sr, br = data
        fmask = self._fmask
        for si, b in others:
            v = child >> si & fmask
            if v > b:
                child -= (v - b) << si
        left = child >> sl & fmask
        right = child >> sr & fmask
        rest = child - (left << sl) - (right << sr)
        return [
            rest | min(left + l, bl) << sl | min(right - l, br) << sr
            for l in range(gj)
        ]

