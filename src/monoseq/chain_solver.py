"""Exact outcome solver for play on the chain [n] = {1 < 2 < ... < n}.

The full board is never part of the search state.  A position is reduced
to its GapState: the colour word of the board together with the counts of
unplayed cards in each interval between consecutive recording-sequence
values.  Equal GapStates have identical sub-game trees, so the GapState is
a sound transposition key, and a move is just "split gap j into (l, r)"
followed by the colour-level bump (which may retint letters or delete one
on each side, merging adjacent gaps).

A gap of at least B(x, y) cards is interchangeable with any larger one,
so the search clamps every gap to that threshold and the root gap to
B(a, d): any deck size solves.  The tests check the clamped search
against an unclamped referee.

Inside the search a GapState is one int: gap i fills bits [W*i, W*(i+1))
and the interned word id sits above the a+d-1 gap fields a live word can
have.  Merges only add adjacent fields, so the clamped children of one
gap form at most three arithmetic runs in l.

Moves are enumerated in increasing card order, with the usual cutoff once
a P child proves the position N; the smallest winning first move
therefore falls out of the root scan for free.  In normal play a child
with a card in a critical gap is N (the opponent completes a critical
sequence), so it is skipped without being searched or memoized.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .bumping import _play, _wid, _word_counts, _word_text, double_bump
from .errors import CHECK_EVERY, check_memory
from .order_core import (
    _D,
    _N,
    _P,
    FiniteChain,
    GameParams,
    Mode,
    Outcome,
    _check_board_elements,
)


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


def _merge_op(bits: int, i: int):
    """(low mask, high shift, low shift) that adds gap field i+1 into field
    i and moves the fields above it down by one; None for i = -1."""
    if i < 0:
        return None
    return (1 << bits * (i + 1)) - 1, bits * (i + 1), bits * i


def _gap_bounds(wid: int, a: int, d: int) -> tuple[int, ...]:
    """Large-gap threshold B(x, y) of each gap of a live word."""
    x = a
    y = d - _word_counts[wid][1]
    bounds = [large_gap_bound(x, y)]
    for ch in _word_text[wid]:
        # Left to right, a reddish letter joins those before the gap and a
        # bluish one leaves those after it.
        x -= ch != "B"
        y += ch != "R"
        bounds.append(large_gap_bound(x, y))
    return tuple(bounds)


def _make_search(params: GameParams, memo: dict):
    """The (value, split, word rows, close) functions of one solver.  They
    hold nothing that refers back to the solver, but ``value`` holds itself
    through its closure cell, and with it the memo, until ``close`` runs."""
    a, d = params.a, params.d
    normal = params.mode is Mode.NORMAL
    # A clamped gap holds at most B(a, d) cards, and so does any merge of
    # two adjacent ones.
    bits = stabilization_bound(a, d).bit_length()
    fmask = (1 << bits) - 1
    # A live word has at most a+d-2 letters, hence at most a+d-1 gaps.
    shift = bits * (a + d - 1)
    gmask = (1 << shift) - 1
    word_rows: dict[int, tuple] = {}
    memo_get = memo.get

    def build(wid: int) -> tuple:
        """(gap shift, skip mask, split data) for each playable gap of the
        word.

        Split data turns the parent's gap fields into the l = 0 child and
        clamps it; only the fields pl and pl + 1 that the split fills vary
        with l.  A gap is critical, its move completing a critical
        sequence, exactly when its large-gap bound is 1, for B(x, y) = 1
        iff x = 1 or y = 1.  Critical gaps are left out before they are
        played, so no terminal word is interned: in misere play they are
        never played, and in normal play a state with a card in one is N,
        so no parent searches it.  The skip mask marks the parent fields
        that fill a child's critical gap for every l; the ends bits mark a
        critical pl (bit 0) and pl + 1 (bit 1), which leave only l = 0 and
        l = gj - 1.
        """
        held = _gap_bounds(wid, a, d)
        rows = []
        for j, hj in enumerate(held):
            if hj == 1:
                continue
            cid, rt, ls = _play(wid, j)
            sj = bits * j
            pl = j - (ls >= 0)  # the field holding l once merges are done
            pr = pl + 1
            bounds = _gap_bounds(cid, a, d)
            # The parent fields each child field sums.  Only a field whose
            # threshold is below what they can hold, clamped, needs clamping.
            source = [[i] for i in range(len(held))]
            source[j : j + 1] = [[], []]
            for i in (rt, ls):
                if i >= 0:
                    source[i] += source.pop(i + 1)
            skip = ends = 0
            if normal:
                for i, b in enumerate(bounds):
                    if b == 1:
                        skip |= sum(fmask << bits * f for f in source[i])
                        ends |= (i == pl) | (i == pr) << 1
            others = tuple(
                (bits * i, b)
                for i, b in enumerate(bounds)
                if sum(held[f] for f in source[i]) > b and i != pl and i != pr
            )
            data = (
                (1 << sj) - 1,
                sj + bits,
                sj + 2 * bits,
                _merge_op(bits, rt),
                _merge_op(bits, ls),
                cid << shift,
                others,
                bits * pl,
                bounds[pl],
                1 << bits * pl,
                bits * pr,
                bounds[pr],
                1 << bits * pr,
                ends,
            )
            rows.append((sj, skip, data))
        out = word_rows[wid] = tuple(rows)
        return out

    def split(g: int, gj: int, data: tuple) -> Sequence[int]:
        """Clamped child states of splitting gap field j of g (holding gj
        cards), in ascending card order, each distinct child once; for a
        critical pl or pl + 1, only the child that leaves it empty."""
        low, s1, s2, rmerge, lmerge, cid_hi, others, sl, bl, fl, sr, br, fr, ends = data
        child = g & low | (gj - 1) << s1 | g >> s1 << s2
        if rmerge is not None:
            mask, hi, lo = rmerge
            child = (child & mask) + (child >> hi << lo)
        if lmerge is not None:
            mask, hi, lo = lmerge
            child = (child & mask) + (child >> hi << lo)
        for si, b in others:
            v = child >> si & fmask
            if v > b:
                child -= (v - b) << si
        left = child >> sl & fmask
        right = child >> sr & fmask
        rest = child - (left << sl) - (right << sr) + cid_hi
        if ends:
            # Only the children whose critical fields stay empty; the skip
            # mask has made left (right) 0 for a critical pl (pl + 1).
            if ends == 1:
                return (rest + (min(right, br) << sr),)
            if ends == 2:
                return (rest + (min(left + gj - 1, bl) << sl),)
            return (rest,) if gj == 1 else ()
        if gj == 1:
            # One card, one child.
            return (rest + (min(left, bl) << sl) + (min(right, br) << sr),)
        # Split l leaves min(left + l, bl) cards in field pl and
        # min(right - l, br) in field pr.  The left field is clamped from
        # l = tl on and the right one free from l = ur on, so the children
        # form three arithmetic runs.
        tl = min(max(bl - left, 0), gj)
        ur = min(max(right - br + 1, 0), gj)
        if tl >= ur:
            both = rest + (left + ur << sl) + (right - ur << sr)
            if tl == gj and not ur:
                # Both fields free for every l.
                return range(both, both + gj * (fl - fr), fl - fr)
            lo, hi = ur, tl
        else:
            lo, hi = tl, ur
        # The left field grows while the right one stays clamped.
        head = rest + (br << sr)
        out = list(range(head + (left << sl), head + (left + lo << sl), fl))
        if lo < tl:
            # Both fields free.
            out += range(both, both + (hi - lo) * (fl - fr), fl - fr)
        elif lo < hi:
            # Both fields clamped for every l in [tl, ur): one child.
            out.append(head + (bl << sl))
        # The left field stays clamped while the right one shrinks.
        tail = rest + (bl << sl)
        out += range(tail + (right - hi << sr), tail + (right - gj << sr), -fr)
        return out

    def value(state: int) -> Outcome:
        v = memo_get(state)
        if v is not None:
            return v
        g = state & gmask
        if not g:
            # Every card is played and no critical sequence formed.
            return _D
        wid = state >> shift
        rows = word_rows.get(wid)
        if rows is None:
            rows = build(wid)
        out = _P
        for sj, skip, data in rows:
            gj = g >> sj & fmask
            if not gj or g & skip:
                continue
            for child in split(g, gj, data):
                cv = memo_get(child)
                if cv is None:
                    cv = value(child)
                if cv is _P:
                    out = _N
                    break
                if cv is _D:
                    out = _D
            if out is _N:
                break
        memo[state] = out
        if len(memo) % CHECK_EVERY == 1:
            check_memory(memo)
        return out

    def close() -> None:
        """Empty value's cell: the closures and the memo are then freed."""
        nonlocal value
        del value

    return value, split, build, close


class ChainSolver:
    """Shared-memo solver for fixed (a, d, mode) across deck sizes.

    A gap is large when it holds at least B(x, y) cards, where x = a - r
    and y = d - b for the r reddish letters before it and the b bluish
    letters after it.  Large gaps are interchangeable, so every child gap
    is clamped to its threshold and the root gap to B(a, d): every deck
    of at least B(a, d) cards is the same root.  The clamped GapStates do
    not mention the deck size, so solving several n for the same
    parameters reuses the memo.  Deterministic and single-threaded:
    outcomes, smallest winning moves and node counts repeat exactly run to
    run.  Each expanded state is memoized once and nothing else is, so
    the memo size is the node count; memory is checked as the memo grows.
    The memo is freed with the solver.
    """

    def __init__(self, params: GameParams):
        self.params = params
        self._bound = stabilization_bound(params.a, params.d)
        self._memo: dict = {}
        self._value, self._split, self._word_rows, close = _make_search(params, self._memo)
        weakref.finalize(self, close)

    @property
    def nodes_expanded(self) -> int:
        return len(self._memo)

    memo_size = nodes_expanded

    def solve(self, n: int) -> SolveReport:
        """Outcome of the empty board of (a, d, [n])."""
        if n < 0:
            raise ValueError("deck size must be nonnegative")
        a, d = self.params.a, self.params.d
        if n < min(a, d):
            # The deck is too small for any critical sequence to ever form.
            return SolveReport(Outcome.D, 0, None)
        # Scan the root's splits in ascending card order.  The root gap
        # holds min(n, B(a, d)) cards.  Split l is the card l+1 up to
        # l = B(a, d-1) and keeps gap-1-l cards above it beyond that, so it
        # is the card n-(gap-1-l); both agree when gap = n.  No two splits
        # of the root give the same clamped child, so split gives one child
        # per l, from l = gap - 1 when only the top card is left (ends = 2).
        start_nodes = len(self._memo)
        gap = min(n, self._bound)
        ((_, _, data),) = self._word_rows(_wid(""))
        first = gap - 1 if data[-1] == 2 else 0
        lo = large_gap_bound(a, d - 1)
        outcome, swm = _P, None
        for l, child in enumerate(self._split(gap, gap, data), first):
            cv = self._value(child)
            if cv is _P:
                outcome, swm = _N, (l + 1 if l <= lo else n - (gap - 1 - l))
                break
            if cv is _D:
                outcome = _D
        return SolveReport(outcome, len(self._memo) - start_nodes, swm)


#: Former name of the clamped search, kept for callers that construct it.
CappedChainSolver = ChainSolver


def solve_chain(params: GameParams, n: int) -> SolveReport:
    """Solve (a, d, [n]) with a fresh transposition table."""
    return ChainSolver(params).solve(n)


# ---------------------------------------------------------------------------
# Closed forms (normal play)

def closed_form_d2(a: int, n: int) -> Outcome:
    """Outcome of (a, 2, [n]) in normal play.

    With d = 2 every move other than the smallest remaining card loses at
    once, so play is forced and only the parity of a matters once n >= a.
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if n < a:
        return Outcome.D
    return Outcome.N if a % 2 == 1 else Outcome.P


def closed_form_d3(a: int, n: int) -> Outcome:
    """Outcome of (a, 3, [n]) in normal play.

    First player wins when n > a and a is even, or n > a + 1 and a is odd;
    every remaining case is drawn.
    """
    if a < 3:
        raise ValueError("a must be at least 3 for the d=3 closed form")
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
