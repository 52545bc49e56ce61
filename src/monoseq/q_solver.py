"""Solver for play on a dense linear order, working purely on colour words.

On a dense deck the outcome of a board is determined by its colour word:
the moves available from a word are exactly the insert-a-purple operations,
every one of which is realizable by density.  A word is terminal once it
carries ``a`` reddish or ``d`` bluish letters; in normal play the mover who
produced it wins.

``solve_q`` (and through it ``duality_check``) stops at the first winning
move and builds only the child words that can be P positions (see
``_typed_ints``).  ``typed_reachable_graph`` types the
full reachable graph, and so do ``position_symmetry_holds`` and
``verify_strategy_stealing_case``, which read it.  Both, and the exact
P-set checker, read a word's children through one view,
``bumping._capped_child_ids``; full typing and the checker pass infinite
caps.

Besides the exact solver this module carries the P-position certificates
for d = 4 and d = 5 and their checkers, a duality check between normal and
misere play, and the computational side of the strategy-stealing argument
for the symmetric game.
"""

from __future__ import annotations

import math
from typing import Iterator

from .bumping import (
    _capped_child_ids,
    _wid,
    _word_counts,
    _word_ids,
    _word_text,
    bluish,
    is_admissible,
    reddish,
    reverse_complement,
)
from .errors import CHECK_EVERY, InvariantError, check_memory
from .order_core import _N, _P, GameParams, Mode, Outcome


def colour_children(word: str) -> tuple[str, ...]:
    """All words reachable from this one in a single move, in
    insertion-position order.

    Distinct positions give distinct children.  Tag each P of a word with
    (reddish letters before it, bluish letters after it).  A move keeps
    the tag of every P it does not retint, and tags the P it plays into
    gap j with (reddish letters before j, bluish letters from j on), which
    no P of the parent has: a P before j has fewer reddish letters before
    it, and one from j on fewer bluish letters after it.  So the child's
    one new tag fixes j, as moving j right past any letter raises the
    first count or lowers the second.
    """
    if not is_admissible(word):
        raise ValueError(f"word not admissible: {word!r}")
    return tuple(_word_text[c] for c in _capped_child_ids(_wid(word), math.inf, math.inf))


def is_terminal_q(word: str, params: GameParams) -> bool:
    """True iff the word carries a reddish or d bluish letters."""
    if not is_admissible(word):
        raise ValueError(f"word not admissible: {word!r}")
    return reddish(word) >= params.a or bluish(word) >= params.d


_EMPTY = _wid("")


def _typed_ints(params: GameParams, *, cutoff: bool = False) -> dict[int, Outcome]:
    """Type the words reachable in play of (a, d, Q), keyed by word id.

    Without ``cutoff`` every reachable word is typed; this is the graph
    behind ``typed_reachable_graph``, and it reads the child view with
    infinite caps.  With it (``solve_q`` only) a word stops expanding at
    its first P child.  In normal play a word with a-1 reddish or d-1
    bluish letters is N, as inserting at the right (left) end completes a
    critical sequence.  Such a word is never P, nor is a terminal word in
    misere play, so the cutoff search caps the view to leave those
    children out and never visits one; each of the others is built only
    when the loop reaches it.  Every typed word is exact either way, but
    the cutoff map holds only the words it visited, and the word table
    gains only the children it built.

    The reachable non-terminal graph must be acyclic and every play, whose
    length is the stack size, is bounded by (a-1)(d-1)+1 moves; both are
    asserted on every expanded word and violations raise rather than loop.
    """
    a, d = params.a, params.d
    normal = params.mode is Mode.NORMAL
    terminal = _P if normal else _N
    caps = (math.inf, math.inf)
    if cutoff:
        caps = (a - 1, d - 1) if normal else (a, d)
    depth_limit = (a - 1) * (d - 1) + 1
    types: dict[int, Outcome] = {}
    on_stack: set[int] = set()

    def visit(wid: int) -> Outcome:
        r, b = _word_counts[wid]
        if r >= a or b >= d:
            t = terminal
        elif wid in on_stack:
            raise InvariantError(
                "cycle among non-terminal colour words; this contradicts the "
                "Erdos-Szekeres bound on play length"
            )
        elif len(on_stack) > depth_limit:
            raise InvariantError(
                f"search depth exceeded the play-length bound {depth_limit}"
            )
        else:
            on_stack.add(wid)
            t = _P
            for child in _capped_child_ids(wid, *caps):
                ct = types.get(child)
                if (visit(child) if ct is None else ct) is _P:
                    t = _N
                    if cutoff:
                        break
            on_stack.discard(wid)
        types[wid] = t
        if len(types) % CHECK_EVERY == 1:
            check_memory(types)
        return t

    try:
        visit(_EMPTY)
    finally:
        del visit
    return types


def solve_q(params: GameParams) -> Outcome:
    """Exact outcome of the empty board of (a, d, Q).

    Stops at the first winning move (see ``_typed_ints``).  Never D: a
    dense order has no infinite antichain, so no draws exist.
    """
    return _typed_ints(params, cutoff=True)[_EMPTY]


def typed_reachable_graph(params: GameParams) -> dict[str, Outcome]:
    """Every word reachable in play, mapped to its outcome type."""
    return {_word_text[w]: t for w, t in _typed_ints(params).items()}


def duality_check(a: int, d: int) -> bool:
    """Check W_normal(a, d, Q) = W_misere(a-1, d-1, Q).

    Winning the normal game forbids ever reaching a-1 ascending or d-1
    descending yourself while punishing an opponent who does, which is
    exactly the misere game one size down.

    The normal cutoff search caps at (a-1, d-1), which makes it the misere
    (a-1, d-1) search itself: this checks only that solve_q gives the same
    answer twice.  The tests check the theorem by full typing on both sides.
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
    ``(ok, line)`` per non-terminal position reachable in play, in
    breadth-first order from the empty word, then one failing line per
    member that the walk did not reach, in sorted order.

    A position outside the set must have a child in the set or a terminal
    child (its witness: the first such child in gap order), and a member
    must have no such child.
    """
    a, d = params.a, params.d
    seen = {_EMPTY}
    check_memory(seen)
    order = [_EMPTY]
    for wid in order:  # order grows behind the loop: it is the BFS queue
        witness = None
        for child in _capped_child_ids(wid, math.inf, math.inf):
            r, b = _word_counts[child]
            terminal = r >= a or b >= d
            # By text: a member need not be interned yet.
            if witness is None and (terminal or _word_text[child] in pset):
                witness = _word_text[child]
            if not terminal and child not in seen:
                seen.add(child)
                order.append(child)
                if len(seen) % CHECK_EVERY == 1:
                    check_memory(seen)
        word = _word_text[wid]
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
    # Look members up by text, so that no junk word is interned.
    for word in sorted(w for w in pset if _word_ids.get(w) not in seen):
        yield False, f"  member {word}: not a non-terminal position reachable in play FAIL"


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

