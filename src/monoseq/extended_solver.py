"""The insert-anywhere game on a dense order, played on permutation patterns.

When the mover may choose the position as well as the value of the new
element, boards are point sets in general position in the plane, and by
density only the pattern (a permutation) matters.  Moves extend a
permutation of length m by one point in any of the (m+1)^2 slots; the game
ends once there are ``a`` increasing or ``d`` decreasing points, completing
mover wins (normal play).  The safe-slot search and the greedy monotone
decompositions make the no-forced-suicide argument concrete, and the
parity rule gives the game's closed-form outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import CHECK_EVERY, check_memory
from .order_core import _N, _P, Outcome

Perm = tuple[int, ...]


def lis(perm: Perm) -> int:
    """Longest increasing subsequence length."""
    best: list[int] = []
    for v in perm:
        lo, hi = 0, len(best)
        while lo < hi:
            mid = (lo + hi) // 2
            if best[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(best):
            best.append(v)
        else:
            best[lo] = v
    return len(best)


def lds(perm: Perm) -> int:
    """Longest decreasing subsequence length."""
    return lis(tuple(-v for v in perm))


def insert_at(perm: Perm, index: int, value: int) -> Perm:
    """Insert a point at 1-based position ``index`` with 1-based value rank
    ``value``; existing ranks at or above the value shift up."""
    m = len(perm)
    if not 1 <= index <= m + 1:
        raise ValueError(f"index {index} out of range for length {m}")
    if not 1 <= value <= m + 1:
        raise ValueError(f"value rank {value} out of range for length {m}")
    shifted = [v + 1 if v >= value else v for v in perm]
    shifted.insert(index - 1, value)
    return tuple(shifted)


def extensions(perm: Perm) -> tuple[Perm, ...]:
    """All distinct one-point extensions, sorted.

    The (m+1)^2 slot choices can repeat patterns; results are deduplicated.
    """
    m = len(perm)
    out = {
        insert_at(perm, i, v)
        for i in range(1, m + 2)
        for v in range(1, m + 2)
    }
    return tuple(sorted(out))


@dataclass(frozen=True)
class Decomposition:
    """Disjoint monotone index subsequences covering a permutation."""

    parts: tuple[tuple[int, ...], ...]

    def part_values(self, perm: Perm) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(perm[i] for i in part) for part in self.parts)


def greedy_increasing_decomposition(perm: Perm) -> Decomposition:
    """Partition into increasing subsequences by the first-fit greedy scan.

    Each element goes to the first part whose last value is smaller, else to
    a new part; there are as many parts as the longest decreasing subsequence.
    """
    parts: list[list[int]] = []
    lasts: list[int] = []
    for idx, v in enumerate(perm):
        for p, last in enumerate(lasts):
            if last < v:
                parts[p].append(idx)
                lasts[p] = v
                break
        else:
            parts.append([idx])
            lasts.append(v)
    return Decomposition(tuple(tuple(p) for p in parts))


def greedy_decreasing_decomposition(perm: Perm) -> Decomposition:
    """Mirror of greedy_increasing_decomposition (negated values keep its index
    parts): as many decreasing parts as the longest increasing subsequence."""
    return greedy_increasing_decomposition(tuple(-v for v in perm))


def safe_slot(perm: Perm, r: int, s: int) -> Optional[tuple[int, int]]:
    """First slot whose insertion keeps LIS <= r and LDS <= s, scanning
    index-major with value ranks ascending; None when no slot is safe.

    Whenever the permutation has fewer than r*s points with LIS <= r and
    LDS <= s, a safe slot is guaranteed to exist.  Raises ValueError unless
    ``perm`` is a permutation of 1..m.
    """
    m = len(perm)
    if sorted(perm) != list(range(1, m + 1)):
        raise ValueError(f"not a permutation of 1..{m}: {','.join(map(str, perm))}")
    for i in range(1, m + 2):
        for v in range(1, m + 2):
            child = insert_at(perm, i, v)
            if lis(child) <= r and lds(child) <= s:
                return i, v
    return None


def parity_outcome(a: int, d: int) -> Outcome:
    """Closed form for the insert-anywhere game: N iff a*d is odd."""
    if a < 2 or d < 2:
        raise ValueError("critical lengths must be at least 2")
    return Outcome.N if (a * d) % 2 == 1 else Outcome.P


def _symmetry_variants(perm: Perm, symmetric: bool) -> Iterator[Perm]:
    m = len(perm)
    yield perm
    rc = tuple(m + 1 - v for v in reversed(perm))
    yield rc
    if symmetric:
        # Reversal and complementation swap LIS and LDS, so they are
        # symmetries only when a = d.
        yield perm[::-1]
        yield tuple(m + 1 - v for v in perm)


def _near_terminal(perm: Perm, a: int, d: int) -> bool:
    return lis(perm) >= a - 1 or lds(perm) >= d - 1


def _solve_extended_types(a: int, d: int) -> dict[Perm, Outcome]:
    """Type every expanded pattern reachable from the empty one.

    A pattern with LIS >= a-1 or LDS >= d-1 is near-terminal: unless it is
    already terminal, the mover adds a point at the far right above (or
    below) every other point and completes a critical sequence, so it is N.
    Near-terminal children are skipped as N without expansion and never
    memoized.  Every expanded pattern has LIS <= a-2 and LDS <= d-2, so no
    child of one is terminal.  Children are tried in sorted order and the
    search stops at the first P child.  Returns the memo, keyed on the
    least symmetry variant of each expanded pattern.
    """
    if a < 2 or d < 2:
        raise ValueError("critical lengths must be at least 2")
    symmetric = a == d
    memo: dict[Perm, Outcome] = {}

    def value(perm: Perm) -> Outcome:
        canon = min(_symmetry_variants(perm, symmetric))
        v = memo.get(canon)
        if v is not None:
            return v
        t = _P
        for child in extensions(perm):
            if _near_terminal(child, a, d):
                continue  # N, so never a winning move
            if value(child) is _P:
                t = _N
                break
        memo[canon] = t
        if len(memo) % CHECK_EVERY == 1:
            check_memory(memo)
        return t

    try:
        value(())
    finally:
        del value
    return memo


def solve_extended(a: int, d: int) -> Outcome:
    """Exact outcome of the empty insert-anywhere position.

    Near-terminal patterns (LIS >= a-1 or LDS >= d-1) are typed N without
    expansion, so only patterns with LIS <= a-2 and LDS <= d-2 are searched
    and memoized.
    """
    return _solve_extended_types(a, d)[()]


def principal_variation(a: int, d: int) -> list[Perm]:
    """One optimal line from the empty position to a terminal pattern.

    The winner plays the first winning move in sorted order; the loser
    plays the first move that is not suicidal when one exists (a suicidal
    move reaches a near-terminal pattern, with a-1 increasing or d-1
    decreasing points), otherwise the first move.
    """
    types = _solve_extended_types(a, d)
    symmetric = a == d

    def typed(perm: Perm) -> Outcome:
        if _near_terminal(perm, a, d):
            return _N  # never expanded, so never in the memo
        return types[min(_symmetry_variants(perm, symmetric))]

    def terminal(perm: Perm) -> bool:
        return lis(perm) >= a or lds(perm) >= d

    line = [()]
    current: Perm = ()
    while not terminal(current):
        children = extensions(current)
        if typed(current) is _N:
            nxt = next(c for c in children if terminal(c) or typed(c) is _P)
        else:
            safe = [c for c in children if not _near_terminal(c, a, d)]
            nxt = safe[0] if safe else children[0]
        line.append(nxt)
        current = nxt
    return line
