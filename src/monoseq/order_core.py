"""Decks, boards, outcome typing and the generic finite-poset solver.

A deck is a partially ordered set; two players alternately move unplayed
deck elements onto the board (a sequence).  The game ends as soon as the
board carries an ascending subsequence of length ``a`` or a descending one
of length ``d`` (a critical sequence); in normal play the player who
completed it wins, in misere play that player loses.  Exhausting the deck
without a critical sequence is a draw.

Positions are typed N (next player wins), P (previous player wins) or
D (both sides can force at least a draw) by exact backward induction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import CHECK_EVERY, StrategyInapplicableError, check_memory


class Mode(enum.Enum):
    NORMAL = "normal"
    MISERE = "misere"


class Outcome(enum.Enum):
    N = "N"
    P = "P"
    D = "D"

    def __str__(self) -> str:
        return self.value


# Short names for the searches' hot loops, which memoize Outcome members
# and compare them with ``is``.
_N, _P, _D = Outcome.N, Outcome.P, Outcome.D


class BoardStatus(enum.Enum):
    ONGOING = "ongoing"
    CRITICAL_ASCENDING = "critical_ascending"
    CRITICAL_DESCENDING = "critical_descending"
    DECK_EXHAUSTED = "deck_exhausted"


class InvolutionFlavour(enum.Enum):
    ORDER_PRESERVING = "order_preserving"
    ORDER_REVERSING = "order_reversing"


@dataclass(frozen=True)
class GameParams:
    """Critical lengths and play mode.  Requires a >= 2 and d >= 2."""

    a: int
    d: int
    mode: Mode = Mode.NORMAL

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.d, int)):
            raise ValueError("critical lengths must be integers")
        if self.a < 2 or self.d < 2:
            raise ValueError("critical lengths must be at least 2")
        if isinstance(self.mode, str):
            object.__setattr__(self, "mode", Mode(self.mode))
        elif not isinstance(self.mode, Mode):
            raise ValueError(f"bad mode: {self.mode!r}")


class FiniteChain:
    """The chain 1 < 2 < ... < n."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("chain size must be nonnegative")
        self.n = n

    @property
    def size(self) -> int:
        return self.n

    @property
    def elements(self) -> range:
        return range(1, self.n + 1)

    def __contains__(self, x) -> bool:
        return isinstance(x, int) and 1 <= x <= self.n

    def less(self, x, y) -> bool:
        return x < y

    def __repr__(self) -> str:
        return f"FiniteChain({self.n})"


class DenseOrder:
    """Marker deck for a dense linear order without endpoints.

    Play on it is never materialized as boards of values; the dense-order
    solver works purely on colour words.
    """

    size = None

    def __repr__(self) -> str:
        return "DenseOrder()"


class FinitePoset:
    """A finite strict partial order.

    Construction accepts any generating set of ``x < y`` pairs (covers or
    the full relation); the transitive closure is computed and the result
    is checked to be irreflexive.
    """

    def __init__(self, elements: Sequence, less_than: Iterable[tuple] = ()):
        self._elements = tuple(elements)
        if len(set(self._elements)) != len(self._elements):
            raise ValueError("poset elements must be distinct")
        index = {e: i for i, e in enumerate(self._elements)}
        n = len(self._elements)
        lt = [[False] * n for _ in range(n)]
        for x, y in less_than:
            if x not in index or y not in index:
                raise ValueError(f"relation pair ({x!r}, {y!r}) uses unknown elements")
            lt[index[x]][index[y]] = True
        for k in range(n):
            row_k = lt[k]
            for i in range(n):
                if lt[i][k]:
                    row_i = lt[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(n):
            if lt[i][i]:
                raise ValueError(
                    f"relation is not a strict order: {self._elements[i]!r} < itself"
                )
        self._index = index
        self._lt = lt

    @classmethod
    def from_json(cls, obj: Mapping) -> "FinitePoset":
        """Build from ``{"elements": [...], "less_than": [[x, y], ...]}``."""
        try:
            elements = obj["elements"]
            pairs = [tuple(p) for p in obj.get("less_than", [])]
            if not isinstance(elements, list):
                raise TypeError(f"elements must be a list, not {elements!r}")
            hash((tuple(elements), tuple(pairs)))  # elements must be hashable
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad poset document: {exc}") from exc
        return cls(elements, pairs)

    @property
    def size(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple:
        return self._elements

    def __contains__(self, x) -> bool:
        return x in self._index

    def less(self, x, y) -> bool:
        return self._lt[self._index[x]][self._index[y]]

    def comparable(self, x, y) -> bool:
        return self.less(x, y) or self.less(y, x)

    def minimal_elements(self) -> tuple:
        return tuple(
            e
            for j, e in enumerate(self._elements)
            if not any(self._lt[i][j] for i in range(len(self._elements)))
        )

    def maximal_elements(self) -> tuple:
        return tuple(
            e
            for i, e in enumerate(self._elements)
            if not any(self._lt[i][j] for j in range(len(self._elements)))
        )

    def longest_chain(self) -> int:
        """Length (number of elements) of a longest chain: the longest
        ascending run of a linear extension (elements by count below)."""
        below = [sum(column) for column in zip(*self._lt)]
        extension = sorted(self._elements, key=lambda e: below[self._index[e]])
        return _monotone_len(tuple(extension), self, True)

    def __repr__(self) -> str:
        return f"FinitePoset({len(self._elements)} elements)"


def boolean_lattice(k: int) -> FinitePoset:
    """The lattice of subsets of {1..k}, ordered by strict inclusion.

    Elements are sorted tuples of atoms, e.g. (), (1,), (1, 3).
    """
    subsets = []
    for mask in range(1 << k):
        subsets.append(tuple(i + 1 for i in range(k) if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), s))
    pairs = [
        (s, t)
        for s in subsets
        for t in subsets
        if len(s) < len(t) and set(s) < set(t)
    ]
    return FinitePoset(subsets, pairs)


def complement_involution(k: int) -> dict:
    """Subset complementation on the boolean lattice of rank k."""
    atoms = set(range(1, k + 1))
    lattice = boolean_lattice(k)
    return {s: tuple(sorted(atoms - set(s))) for s in lattice.elements}


# ---------------------------------------------------------------------------
# Boards, read through chain labels: per played element, the lengths of the
# longest ascending and descending board chains that end at it.

def _check_board_elements(board: Sequence, deck) -> None:
    seen = set()
    for x in board:
        if x not in deck:
            raise ValueError(f"element {x!r} is not in the deck")
        if x in seen:
            raise ValueError(f"element {x!r} played twice")
        seen.add(x)


def _chain_labels(board: Sequence, asc, desc, e, less) -> tuple[int, int]:
    """The (up, down) labels of e played after board, where asc[i] and
    desc[i] label board[i].  A 0 label (an unplayed element) extends no
    chain, and labels of a prefix of board label just that prefix."""
    up = down = 0
    for x, u, w in zip(board, asc, desc):
        if u > up and less(x, e):
            up = u
        if w > down and less(e, x):
            down = w
    return up + 1, down + 1


def _board_labels(board: tuple, deck) -> tuple[list, list]:
    asc, desc = [], []
    for e in board:
        up, down = _chain_labels(board, asc, desc, e, deck.less)
        asc.append(up)
        desc.append(down)
    return asc, desc


def _witness(board: tuple, labels: list, less) -> tuple[int, tuple]:
    # Read back from the earliest top label, each step taking the earliest
    # smaller predecessor one label lower.
    if not board:
        return 0, ()
    length = max(labels)
    i = labels.index(length)
    witness = [board[i]]
    for label in range(length - 1, 0, -1):
        i = next(j for j in range(i) if labels[j] == label and less(board[j], board[i]))
        witness.append(board[i])
    return length, tuple(reversed(witness))


def longest_ascending(board: Sequence, deck) -> tuple[int, tuple]:
    """Longest ascending subsequence of the board, with one witness.

    Ascending means a chain of board values increasing in deck order, taken
    along increasing board positions.
    """
    board = tuple(board)
    _check_board_elements(board, deck)
    return _witness(board, _board_labels(board, deck)[0], deck.less)


def longest_descending(board: Sequence, deck) -> tuple[int, tuple]:
    """Dual of longest_ascending."""
    board = tuple(board)
    _check_board_elements(board, deck)
    return _witness(board, _board_labels(board, deck)[1], lambda x, y: deck.less(y, x))


def _monotone_len(board: tuple, deck, ascending: bool) -> int:
    return max(_board_labels(board, deck)[0 if ascending else 1], default=0)


def _status(board: tuple, asc: list, desc: list, deck, params: GameParams) -> BoardStatus:
    if max(asc, default=0) >= params.a:
        return BoardStatus.CRITICAL_ASCENDING
    if max(desc, default=0) >= params.d:
        return BoardStatus.CRITICAL_DESCENDING
    if deck.size is not None and len(board) == deck.size:
        return BoardStatus.DECK_EXHAUSTED
    return BoardStatus.ONGOING


def _validated_labels(board: tuple, deck, params: GameParams) -> tuple[list, list]:
    _check_board_elements(board, deck)
    asc, desc = _board_labels(board, deck)
    for t, (up, down) in enumerate(zip(asc[:-1], desc[:-1]), 1):
        if up >= params.a or down >= params.d:
            raise ValueError(f"illegal board: proper prefix of length {t} is already critical")
    return asc, desc


def validate_board(board: Sequence, deck, params: GameParams) -> None:
    """Raise ValueError unless the board could have arisen in play.

    Legal boards have distinct in-deck elements and no proper prefix that
    already contains a critical sequence.
    """
    _validated_labels(tuple(board), deck, params)


def board_status(board: Sequence, deck, params: GameParams) -> BoardStatus:
    """Status of a legal board.

    No legal board completes an ascent of length a and a descent of
    length d at once, on any poset, so the order of the two checks never
    shows.  Were the last move e to complete both, let x precede e in the
    ascent and y precede it in the descent: x < e < y, so x < y.  If y
    was played after x it extends the ascent through x to length a, and
    otherwise x extends the descent through y to length d, either way in
    a proper prefix.
    """
    board = tuple(board)
    return _status(board, *_validated_labels(board, deck, params), deck, params)


def no_draw_possible(deck, params: GameParams) -> bool:
    """Sufficient criterion for the game to admit no drawn play.

    True when a finite deck contains a chain longer than (a-1)(d-1)
    (Erdos-Szekeres) or the deck is a dense linear order (no infinite
    antichain).  False only means the criterion is not met.
    """
    bound = (params.a - 1) * (params.d - 1)
    if isinstance(deck, DenseOrder):
        return True
    if isinstance(deck, FiniteChain):
        return deck.size > bound
    if isinstance(deck, FinitePoset):
        return deck.longest_chain() > bound
    raise ValueError(f"unsupported deck: {deck!r}")


# ---------------------------------------------------------------------------
# Exact solver for finite decks.  Both searches label the deck in
# place: asc[i] and desc[i] stay 0 until element i is played.


def solve_poset(deck, params: GameParams) -> Outcome:
    """Exact outcome of the empty board on a finite deck.

    Three-valued backward induction: a terminal critical board is P in
    normal play and N in misere play, an exhausted deck is D, and an inner
    board is N if some child is P, P if all children are N, otherwise D.
    Memoized on the label key: per deck element, 0 while unplayed, else its
    packed chain labels.  A move's legality and the labels it creates read
    nothing else, so transposed boards share one entry.  Works for
    FinitePoset and FiniteChain decks.
    """
    n = deck.size
    if n is None:
        raise ValueError("solve_poset needs a finite deck")
    if n == 0:
        return Outcome.D
    terminal = _N if params.mode is Mode.MISERE else _P
    a, d = params.a, params.d
    elements = tuple(deck.elements)
    less = deck.less
    asc, desc, key = [0] * n, [0] * n, [0] * n  # key[i] = asc[i] * d + desc[i]
    memo: dict[tuple, Outcome] = {}

    def value(played: int) -> Outcome:
        state = tuple(key)
        cached = memo.get(state)
        if cached is not None:
            return cached
        out = _P
        for i, e in enumerate(elements):
            if asc[i]:
                continue
            up, down = _chain_labels(elements, asc, desc, e, less)
            if up >= a or down >= d:
                cv = terminal
            elif played + 1 == n:
                cv = _D
            else:
                asc[i], desc[i], key[i] = up, down, up * d + down
                cv = value(played + 1)
                asc[i] = desc[i] = key[i] = 0
            if cv is _P:
                out = _N
                break
            if cv is _D:
                out = _D
        memo[state] = out
        if len(memo) % CHECK_EVERY == 1:
            check_memory(memo)
        return out

    try:
        return value(0)
    finally:
        del value


def draw_reachable(deck, params: GameParams) -> bool:
    """True iff some complete play exhausts the deck without ever forming
    a critical sequence (i.e. the two players can cooperate to a draw).

    Positions from which no such play exists are remembered by the label
    key that solve_poset memoizes on, which is sound for the same reason.
    """
    n = deck.size
    if n is None:
        raise ValueError("draw_reachable needs a finite deck")
    a, d = params.a, params.d
    elements = tuple(deck.elements)
    less = deck.less
    asc, desc, key = [0] * n, [0] * n, [0] * n  # key[i] = asc[i] * d + desc[i]
    dead: set[tuple] = set()

    def rec(played: int) -> bool:
        if played == n:
            return True
        state = tuple(key)
        if state in dead:
            return False
        for i, e in enumerate(elements):
            if asc[i]:
                continue
            up, down = _chain_labels(elements, asc, desc, e, less)
            if up >= a or down >= d:
                continue
            asc[i], desc[i], key[i] = up, down, up * d + down
            found = rec(played + 1)
            asc[i] = desc[i] = key[i] = 0
            if found:
                return True
        dead.add(state)
        if len(dead) % CHECK_EVERY == 1:
            check_memory(dead)
        return False

    try:
        return rec(0)
    finally:
        del rec


# ---------------------------------------------------------------------------
# Involution mirror strategies

def validate_involution(deck: FinitePoset, involution: Mapping, flavour) -> bool:
    """Check that a map is a fixed-point-free involution of the stated
    flavour; for the order-reversing flavour additionally check that any
    comparable pair {x, x^i} consists of a minimal and a maximal element.
    """
    flavour = InvolutionFlavour(flavour)
    elements = tuple(deck.elements)
    try:
        images = {x: involution[x] for x in elements}
    except (KeyError, TypeError):
        return False
    for x, xi in images.items():
        if xi not in deck or xi == x or images.get(xi) != x:
            return False
    for x in elements:
        for y in elements:
            if deck.less(x, y):
                xi, yi = images[x], images[y]
                if flavour is InvolutionFlavour.ORDER_PRESERVING:
                    if not deck.less(xi, yi):
                        return False
                else:
                    if not deck.less(yi, xi):
                        return False
    if flavour is InvolutionFlavour.ORDER_REVERSING:
        minimal = set(deck.minimal_elements())
        maximal = set(deck.maximal_elements())
        for x, xi in images.items():
            if deck.comparable(x, xi):
                lo, hi = (x, xi) if deck.less(x, xi) else (xi, x)
                if lo not in minimal or hi not in maximal:
                    return False
    return True


def mirror_strategy(
    deck: FinitePoset,
    involution: Mapping,
    flavour,
    board: Sequence,
    params: GameParams,
):
    """Second-player move under the involution mirror strategy.

    Plays an immediate winning move when one exists, otherwise the
    involution image of the opponent's last move.  This is a normal-play
    guarantee; misere parameters are rejected.
    """
    if params.mode is not Mode.NORMAL:
        raise StrategyInapplicableError("mirror strategies are normal-play strategies")
    if not validate_involution(deck, involution, flavour):
        raise ValueError("invalid involution for this deck and flavour")
    board = tuple(board)
    if not board:
        raise StrategyInapplicableError(
            "the mirror strategy is a second-player strategy; it cannot open the game"
        )
    asc, desc = _validated_labels(board, deck, params)
    if len(board) % 2 == 0:
        raise ValueError("not the second player's turn on this board")
    if _status(board, asc, desc, deck, params) is not BoardStatus.ONGOING:
        raise ValueError("the game is already over on this board")
    played = set(board)
    for e in deck.elements:
        if e in played:
            continue
        up, down = _chain_labels(board, asc, desc, e, deck.less)
        if up >= params.a or down >= params.d:
            return e
    image = involution[board[-1]]
    if image in played:
        raise ValueError("board is inconsistent with the mirror strategy")
    return image
