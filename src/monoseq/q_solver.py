"""Solver for play on a dense linear order, working purely on colour words.

On a dense deck the outcome of a board is determined by its colour word:
the moves available from a word are exactly the insert-a-purple operations,
every one of which is realizable by density.  A word is terminal once it
carries ``a`` reddish or ``d`` bluish letters; in normal play the mover who
produced it wins.

``solve_q`` (and through it ``duality_check``) stops at the first winning
move.  ``typed_reachable_graph`` types the full reachable graph, and so do
``position_symmetry_holds`` and ``verify_strategy_stealing_case``, which
read it.

Besides the exact solver this module carries the P-position certificates
for d = 4 and d = 5 and their checkers, a duality check between normal and
misere play, and the computational side of the strategy-stealing argument
for the symmetric game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bumping import (
    _child_ids,
    _wid,
    _word_counts,
    _word_text,
    bluish,
    is_admissible,
    reddish,
    reverse_complement,
)
from .errors import CHECK_EVERY, InvariantError, check_memory
from .order_core import _N, _OUT, _P, GameParams, Mode, Outcome


@dataclass(frozen=True)
class QPosition:
    """A dense-order position: an admissible word plus its letter counts."""

    word: str
    reddish: int
    bluish: int

    @classmethod
    def from_word(cls, word: str) -> "QPosition":
        if not is_admissible(word):
            raise ValueError(f"word not admissible: {word!r}")
        return cls(word, reddish(word), bluish(word))


def colour_children(word: str) -> tuple[str, ...]:
    """All words reachable from this one in a single move, deduplicated.

    Children appear in insertion-position order; distinct positions can
    yield the same child.
    """
    if not is_admissible(word):
        raise ValueError(f"word not admissible: {word!r}")
    return tuple(_word_text[c] for c in _child_ids(_wid(word)))


def is_terminal_q(word: str, params: GameParams) -> bool:
    """True iff the word carries a reddish or d bluish letters."""
    if not is_admissible(word):
        raise ValueError(f"word not admissible: {word!r}")
    return reddish(word) >= params.a or bluish(word) >= params.d


_EMPTY = _wid("")


def _typed_ints(params: GameParams, *, cutoff: bool = False) -> dict[int, int]:
    """Type the words reachable in play of (a, d, Q), keyed by word id.

    Without ``cutoff`` every reachable word is typed; this is the graph
    behind ``typed_reachable_graph``.  With it (``solve_q`` only) a word
    stops expanding at its first P child, and in normal play a word with
    a-1 reddish or d-1 bluish letters is N unexpanded: inserting at the
    right (left) end completes a critical sequence.  Every typed word is
    exact either way, but the cutoff map holds only the words it visited.

    The reachable non-terminal graph must be acyclic and every play is
    bounded by (a-1)(d-1)+1 moves; both are asserted on every expanded
    word and violations raise rather than loop.
    """
    a, d = params.a, params.d
    normal = params.mode is Mode.NORMAL
    terminal = _P if normal else _N
    near_a, near_d = (a - 1, d - 1) if cutoff and normal else (a, d)
    depth_limit = (a - 1) * (d - 1) + 1
    types: dict[int, int] = {}
    on_stack: set[int] = set()

    def visit(wid: int, depth: int) -> int:
        t = types.get(wid)
        if t is not None:
            return t
        r, b = _word_counts[wid]
        if r >= a or b >= d:
            t = terminal
        elif wid in on_stack:
            raise InvariantError(
                "cycle among non-terminal colour words; this contradicts the "
                "Erdos-Szekeres bound on play length"
            )
        elif depth > depth_limit:
            raise InvariantError(
                f"search depth exceeded the play-length bound {depth_limit}"
            )
        elif r >= near_a or b >= near_d:
            t = _N
        else:
            on_stack.add(wid)
            t = _P
            for child in _child_ids(wid):
                if visit(child, depth + 1) == _P:
                    t = _N
                    if cutoff:
                        break
            on_stack.discard(wid)
        types[wid] = t
        if len(types) % CHECK_EVERY == 1:
            check_memory(types)
        return t

    visit(_EMPTY, 0)
    return types


def solve_q(params: GameParams) -> Outcome:
    """Exact outcome of the empty board of (a, d, Q).

    Stops at the first winning move (see ``_typed_ints``).  Never D: a
    dense order has no infinite antichain, so no draws exist.
    """
    return _OUT[_typed_ints(params, cutoff=True)[_EMPTY]]


def typed_reachable_graph(params: GameParams) -> dict[str, Outcome]:
    """Every word reachable in play, mapped to its outcome type."""
    return {_word_text[w]: _OUT[t] for w, t in _typed_ints(params).items()}


def reachable_words(params: GameParams) -> tuple[str, ...]:
    """All words reachable in play of (a, d, Q), in BFS discovery order.

    Non-terminal words are expanded; terminal words appear as leaves.
    """
    a, d = params.a, params.d
    seen = {_EMPTY}
    order = [_EMPTY]
    queue = [_EMPTY]
    while queue:
        nxt: list[int] = []
        for wid in queue:
            r, b = _word_counts[wid]
            if r >= a or b >= d:
                continue
            for child in _child_ids(wid):
                if child not in seen:
                    seen.add(child)
                    order.append(child)
                    nxt.append(child)
        queue = nxt
    return tuple(_word_text[w] for w in order)


def duality_check(a: int, d: int) -> bool:
    """Check W_normal(a, d, Q) = W_misere(a-1, d-1, Q).

    Winning the normal game forbids ever reaching a-1 ascending or d-1
    descending yourself while punishing an opponent who does, which is
    exactly the misere game one size down.
    """
    if a < 3 or d < 3:
        raise ValueError("duality_check needs a, d >= 3")
    normal = solve_q(GameParams(a, d, Mode.NORMAL))
    misere = solve_q(GameParams(a - 1, d - 1, Mode.MISERE))
    return normal is misere


def p4_set(a: int) -> set[str]:
    """The non-terminal P-positions of (a, 4, Q):
    {P, R^(a-3) P B} together with R^i P P for 0 <= i <= a-5.
    """
    if a < 4:
        raise ValueError("p4_set needs a >= 4")
    out = {"P", "R" * (a - 3) + "PB"}
    for i in range(a - 4):
        out.add("R" * i + "PP")
    return out


def p5_set(a: int) -> set[str]:
    """A sufficient set of P-positions for (a, 5, Q):
    {P, RPB} together with R^i PRPB and R^i RPBP for 0 <= i <= a-6,
    plus R^(a-5) P^3 and R^(a-3) P B^2.
    """
    if a < 5:
        raise ValueError("p5_set needs a >= 5")
    out = {"P", "RPB"}
    for i in range(a - 5):
        out.add("R" * i + "PRPB")
        out.add("R" * i + "RPBP")
    out.add("R" * (a - 5) + "PPP")
    out.add("R" * (a - 3) + "PBB")
    return out


def exact_pset_transcript(
    pset: set[str], params: GameParams
) -> Iterator[tuple[bool, str]]:
    """Check a set as exactly the non-terminal P-positions, one
    ``(ok, line)`` per non-terminal position reachable in play.

    A position outside the set must have a child in the set or a terminal
    child (its witness), and a member must have no such child.
    """
    a, d = params.a, params.d
    for word in reachable_words(params):
        if reddish(word) >= a or bluish(word) >= d:
            continue
        witness = next(
            (c for c in colour_children(word) if c in pset or reddish(c) >= a or bluish(c) >= d),
            None,
        )
        label = word if word else "(empty)"
        if word in pset:
            if witness is None:
                yield True, f"  member {label}: no member or terminal child ok"
            else:
                yield False, f"  member {label}: unexpected witness {witness} FAIL"
        elif witness is None:
            yield False, f"  {label}: no witness FAIL"
        else:
            yield True, f"  {label}: witness {witness} ok"


def verify_exact_pset(pset: set[str], params: GameParams) -> bool:
    """True iff every line of exact_pset_transcript is ok."""
    return all(ok for ok, _ in exact_pset_transcript(pset, params))


def sufficient_pset_transcript(
    pset: set[str], params: GameParams
) -> Iterator[tuple[bool, str]]:
    """Check a set as sufficient P-positions, one ``(ok, line)`` per
    condition checked, members in sorted order.

    Three conditions: the word P is in the set; no member has a terminal
    child; and for every member w and every child v of w, v has a child
    that is terminal (an immediate win for the mover) or in the set.
    """
    a, d = params.a, params.d

    def terminal(word: str) -> bool:
        return reddish(word) >= a or bluish(word) >= d

    if "P" not in pset:
        yield False, "  P missing from the set FAIL"
    for w in sorted(pset):
        children = colour_children(w)
        if any(terminal(v) for v in children):
            yield False, f"  member {w}: has a terminal child FAIL"
            continue
        for v in children:
            reply = next(
                (u for u in colour_children(v) if terminal(u) or u in pset), None
            )
            if reply is None:
                yield False, f"  member {w}: opponent {v} has no answer FAIL"
            else:
                yield True, f"  member {w}: opponent {v} answered by {reply} ok"


def verify_sufficient_pset(pset: set[str], params: GameParams) -> bool:
    """True iff every line of sufficient_pset_transcript is ok."""
    return all(ok for ok, _ in sufficient_pset_transcript(pset, params))


def verify_strategy_stealing_case(a: int) -> bool:
    """Computational counterpart of the strategy-stealing argument for
    (a, a, Q): the empty word must be N, the word RPB must be P, RPB's
    children must be exactly {RPP, RRPB, RPBB, PPB}, and the two
    order-reversal partners PBP and PRP must share a type.
    """
    if a < 4:
        raise ValueError("verify_strategy_stealing_case needs a >= 4")
    graph = typed_reachable_graph(GameParams(a, a, Mode.NORMAL))
    if set(colour_children("RPB")) != {"RPP", "RRPB", "RPBB", "PPB"}:
        return False
    return (
        graph[""] is Outcome.N
        and graph["RPB"] is Outcome.P
        and graph["PBP"] is graph["PRP"]
    )


def position_symmetry_holds(params: GameParams) -> bool:
    """Every reachable word has the same type as its reverse-complement.

    Meaningful for a = d, where order reversal is a game symmetry.
    """
    graph = typed_reachable_graph(params)
    return all(graph.get(reverse_complement(w)) is graph[w] for w in graph)


def solve_q_forbidden(params: GameParams) -> Outcome:
    """Outcome of the suicide-forbidden variant of (a, d, Q), normal play.

    A move to a non-terminal word with a-1 reddish or d-1 bluish letters is
    forbidden unless every move is such; a player forced to make one loses
    to the opponent's immediate win.  The variant has the same outcome as
    the ordinary game; it exists for cross-validation.
    """
    if params.mode is not Mode.NORMAL:
        raise ValueError("the suicide-forbidden variant is a normal-play device")
    a, d = params.a, params.d
    memo: dict[int, int] = {}

    def value(wid: int) -> int:
        v = memo.get(wid)
        if v is not None:
            return v
        r, b = _word_counts[wid]
        if r >= a - 1 or b >= d - 1:
            # The mover completes a critical sequence at once (insert at the
            # far end past everything reddish, or below everything bluish).
            memo[wid] = _N
            return _N
        allowed = []
        for child in _child_ids(wid):
            cr, cb = _word_counts[child]
            if cr < a - 1 and cb < d - 1:
                allowed.append(child)
        if not allowed:
            # Forced to move suicidally; the opponent wins immediately.
            memo[wid] = _P
            return _P
        t = _N if any(value(c) == _P for c in allowed) else _P
        memo[wid] = t
        return t

    return _OUT[value(_EMPTY)]
