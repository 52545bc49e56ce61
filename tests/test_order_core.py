"""Decks, boards, typing semantics, the poset solver and mirror strategies."""

from __future__ import annotations

import json

import pytest

from monoseq import (
    BoardStatus,
    FiniteChain,
    FinitePoset,
    GameParams,
    InvolutionFlavour,
    Mode,
    Outcome,
    ResourceLimitError,
    StrategyInapplicableError,
    board_status,
    boolean_lattice,
    complement_involution,
    draw_reachable,
    involution_from_json,
    longest_ascending,
    longest_descending,
    mirror_strategy,
    no_draw_possible,
    solve_poset,
    validate_board,
    validate_involution,
)

from conftest import brute_lds, brute_lis


def board_keyed_outcome(deck, params: GameParams) -> Outcome:
    """Referee for solve_poset: backward induction memoized on the full board.

    Keying on the board sequence itself assumes nothing about which
    smaller state determines a position's value.
    """
    n = deck.size
    if n == 0:
        return Outcome.D
    terminal = Outcome.N if params.mode is Mode.MISERE else Outcome.P
    memo: dict[tuple, Outcome] = {}

    def value(board: tuple, asc: tuple, desc: tuple) -> Outcome:
        if board in memo:
            return memo[board]
        has_p = saw_d = False
        for e in deck.elements:
            if e in board:
                continue
            up = 1 + max((u for x, u in zip(board, asc) if deck.less(x, e)), default=0)
            down = 1 + max((w for x, w in zip(board, desc) if deck.less(e, x)), default=0)
            if up >= params.a or down >= params.d:
                cv = terminal
            elif len(board) + 1 == n:
                cv = Outcome.D
            else:
                cv = value(board + (e,), asc + (up,), desc + (down,))
            if cv is Outcome.P:
                has_p = True
                break
            saw_d = saw_d or cv is Outcome.D
        memo[board] = Outcome.N if has_p else (Outcome.D if saw_d else Outcome.P)
        return memo[board]

    return value((), (), ())


def memo_free_draw_reachable(deck, params: GameParams) -> bool:
    """Referee for draw_reachable: the same depth-first search over boards,
    remembering nothing between branches."""

    def rec(board: tuple, asc: tuple, desc: tuple) -> bool:
        if len(board) == deck.size:
            return True
        for e in deck.elements:
            if e in board:
                continue
            up = 1 + max((u for x, u in zip(board, asc) if deck.less(x, e)), default=0)
            down = 1 + max((w for x, w in zip(board, desc) if deck.less(e, x)), default=0)
            if up < params.a and down < params.d and rec(
                board + (e,), asc + (up,), desc + (down,)
            ):
                return True
        return False

    return rec((), (), ())


def random_poset(rng, n: int) -> FinitePoset:
    """A poset on n shuffled integers, each forward pair related with one
    density drawn per poset."""
    density = 0.5 + rng.random() * 0.5
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    elements = list(range(n))
    rng.shuffle(elements)
    return FinitePoset(elements, pairs)


def two_chains(k: int) -> tuple[FinitePoset, dict]:
    """Two disjoint k-chains a1<...<ak, b1<...<bk with the swap involution."""
    elements = [f"a{i}" for i in range(1, k + 1)] + [f"b{i}" for i in range(1, k + 1)]
    pairs = [(f"{c}{i}", f"{c}{i + 1}") for c in "ab" for i in range(1, k)]
    swap = {f"a{i}": f"b{i}" for i in range(1, k + 1)}
    swap.update({f"b{i}": f"a{i}" for i in range(1, k + 1)})
    return FinitePoset(elements, pairs), swap


class TestGameParams:
    def test_accepts_mode_string(self):
        assert GameParams(3, 3, "misere").mode is Mode.MISERE

    @pytest.mark.parametrize("a,d", [(1, 3), (3, 1), (0, 2), (2, 0)])
    def test_rejects_trivial_critical_lengths(self, a, d):
        with pytest.raises(ValueError):
            GameParams(a, d)


class TestDecks:
    def test_poset_transitive_closure(self):
        poset = FinitePoset("abc", [("a", "b"), ("b", "c")])
        assert poset.less("a", "c")
        assert not poset.less("c", "a")

    def test_poset_rejects_cycles(self):
        with pytest.raises(ValueError):
            FinitePoset("ab", [("a", "b"), ("b", "a")])

    def test_poset_rejects_unknown_elements(self):
        with pytest.raises(ValueError):
            FinitePoset("ab", [("a", "z")])

    def test_poset_from_json(self):
        doc = json.loads('{"elements": ["x", "y"], "less_than": [["x", "y"]]}')
        poset = FinitePoset.from_json(doc)
        assert poset.less("x", "y")

    def test_involution_from_json(self):
        assert involution_from_json({"x": "y", "y": "x"}) == {"x": "y", "y": "x"}

    def test_boolean_lattice(self):
        cube = boolean_lattice(3)
        assert cube.size == 8
        assert cube.less((1,), (1, 2))
        assert not cube.comparable((1,), (2, 3))
        assert cube.longest_chain() == 4


class TestMonotoneSubsequences:
    def test_worked_example(self):
        deck = FiniteChain(6)
        board = [5, 1, 4, 2, 6, 3]
        assert longest_ascending(board, deck)[0] == 3
        assert longest_descending(board, deck)[0] == 3

    def test_empty_and_singleton(self):
        deck = FiniteChain(4)
        assert longest_ascending([], deck) == (0, ())
        assert longest_descending([2], deck) == (1, (2,))

    def test_reversed_board(self):
        assert longest_descending([3, 2, 1], FiniteChain(3))[0] == 3

    def test_antichain_board(self):
        cube = boolean_lattice(3)
        assert longest_ascending([(1,), (2, 3)], cube)[0] == 1

    def test_witness_is_a_chain_in_board_order(self):
        deck = FiniteChain(8)
        board = [4, 7, 1, 5, 8, 2, 6, 3]
        length, witness = longest_ascending(board, deck)
        positions = [board.index(v) for v in witness]
        assert positions == sorted(positions)
        assert list(witness) == sorted(witness)
        assert length == len(witness) == brute_lis(board)

    def test_matches_subsequence_search_on_random_boards(self):
        import random

        rng = random.Random(7)
        deck = FiniteChain(10)
        for _ in range(200):
            m = rng.randrange(0, 9)
            board = rng.sample(range(1, 11), m)
            assert longest_ascending(board, deck)[0] == brute_lis(board)
            assert longest_descending(board, deck)[0] == brute_lds(board)

    def test_witness_ties_pick_earliest_end_and_predecessors(self):
        # Three ascents (5 6 7, 3 6 7, 3 4 7) and six descents (5 3 1,
        # 6 4 2, ...) of length 3 tie here.  The witness ends at the earliest
        # element with the top length and steps back to the earliest
        # possible predecessor each time.
        board = [5, 3, 6, 4, 1, 7, 2]
        assert longest_ascending(board, FiniteChain(7)) == (3, (5, 6, 7))
        assert longest_descending(board, FiniteChain(7)) == (3, (5, 3, 1))

    def test_witness_on_cube_board(self):
        cube = boolean_lattice(3)
        board = [(1,), (2,), (), (1, 2), (3,), (1, 3), (2, 3), (1, 2, 3)]
        assert longest_ascending(board, cube) == (4, ((), (3,), (1, 3), (1, 2, 3)))
        assert longest_descending(board, cube) == (2, ((1,), ()))

    def test_element_outside_deck_rejected(self):
        with pytest.raises(ValueError):
            longest_ascending([1, 9], FiniteChain(5))


class TestBoardStatus:
    def test_examples(self):
        assert (
            board_status([1, 2, 3], FiniteChain(5), GameParams(3, 3))
            is BoardStatus.CRITICAL_ASCENDING
        )
        assert (
            board_status([1, 2], FiniteChain(2), GameParams(3, 3))
            is BoardStatus.DECK_EXHAUSTED
        )
        assert (
            board_status([2, 1], FiniteChain(4), GameParams(3, 2))
            is BoardStatus.CRITICAL_DESCENDING
        )

    def test_simultaneous_critical_reports_ascending(self):
        # The ascending report wins ties by convention.  On legal boards a
        # tie cannot actually arise (the last elements of the completing
        # ascent and descent are comparable, so one ordering of their
        # positions puts a critical sequence in the prefix); the tie-break
        # is observable on raw boards and checked exhaustively below.
        from monoseq.order_core import _status_unchecked

        deck = FiniteChain(9)
        params = GameParams(3, 3)
        both = (2, 3, 1, 9, 8, 7)
        assert brute_lis(both) >= 3 and brute_lds(both) >= 3
        assert _status_unchecked(both, deck, params) is BoardStatus.CRITICAL_ASCENDING

        from itertools import permutations

        for perm in permutations(range(1, 7)):
            for t in range(1, 7):
                board = perm[:t]
                if brute_lis(board) >= 3 and brute_lds(board) >= 3:
                    prefix = board[:-1]
                    assert brute_lis(prefix) >= 3 or brute_lds(prefix) >= 3

    def test_ongoing(self):
        assert board_status([2], FiniteChain(4), GameParams(3, 3)) is BoardStatus.ONGOING

    def test_illegal_prefix_rejected(self):
        with pytest.raises(ValueError):
            board_status([1, 2, 3, 4], FiniteChain(5), GameParams(3, 5))

    def test_validate_board_accepts_terminal_final_move(self):
        validate_board([1, 2, 3], FiniteChain(5), GameParams(3, 3))

    def test_never_critical_on_proper_prefix_of_legal_board(self):
        import random

        rng = random.Random(3)
        deck = FiniteChain(8)
        params = GameParams(3, 3)
        for _ in range(100):
            cards = rng.sample(range(1, 9), 8)
            board: tuple = ()
            for card in cards:
                child = board + (card,)
                if brute_lis(child) >= 3 or brute_lds(child) >= 3:
                    break
                board = child
            for t in range(1, len(board) + 1):
                status = board_status(board[:t], deck, params)
                if t < len(board):
                    assert status is BoardStatus.ONGOING


class TestNoDrawPossible:
    def test_chain_examples(self):
        assert no_draw_possible(FiniteChain(5), GameParams(3, 3)) is True
        assert no_draw_possible(FiniteChain(4), GameParams(3, 3)) is False

    def test_dense_order(self):
        from monoseq import DenseOrder

        assert no_draw_possible(DenseOrder(), GameParams(9, 9)) is True

    def test_poset_uses_longest_chain(self):
        cube = boolean_lattice(3)  # longest chain 4
        assert no_draw_possible(cube, GameParams(2, 2)) is True
        assert no_draw_possible(cube, GameParams(3, 3)) is False


class TestSolvePoset:
    def test_cube_is_second_player_win(self):
        assert solve_poset(boolean_lattice(3), GameParams(3, 3)) is Outcome.P

    def test_chain_matches_d2_closed_form(self):
        assert solve_poset(FiniteChain(3), GameParams(3, 2)) is Outcome.N

    def test_antichain_draws(self):
        poset = FinitePoset("wxyz", [])
        assert solve_poset(poset, GameParams(2, 2)) is Outcome.D

    def test_empty_deck_draws(self):
        assert solve_poset(FinitePoset([], []), GameParams(2, 2)) is Outcome.D

    @pytest.mark.parametrize("solve", [solve_poset, draw_reachable])
    def test_memory_guard(self, zero_budget, solve):
        with pytest.raises(ResourceLimitError, match="memory budget exceeded"):
            solve(FiniteChain(4), GameParams(2, 2))

    @pytest.mark.parametrize("solve", [solve_poset, draw_reachable])
    def test_infinite_deck_rejected(self, solve):
        from monoseq import DenseOrder

        with pytest.raises(ValueError, match="needs a finite deck"):
            solve(DenseOrder(), GameParams(3, 3))

    def test_sixteen_element_cube(self):
        # More elements than the old default cap of 10 admitted.
        assert solve_poset(boolean_lattice(4), GameParams(3, 3)) is Outcome.P

    def test_matches_chain_solver(self, solvers):
        for a in range(2, 5):
            for d in range(2, 5):
                for mode in (Mode.NORMAL, Mode.MISERE):
                    for n in range(0, 17):
                        expected = solvers.outcome(a, d, n, mode)
                        got = solve_poset(FiniteChain(n), GameParams(a, d, mode))
                        assert got is expected, (a, d, mode, n)

    def test_matches_board_keyed_referee(self):
        import random

        rng = random.Random(11)
        for _ in range(24):
            poset = random_poset(rng, rng.randrange(5, 8))
            for a in range(2, 5):
                for d in range(2, 5):
                    for mode in (Mode.NORMAL, Mode.MISERE):
                        params = GameParams(a, d, mode)
                        expected = board_keyed_outcome(poset, params)
                        assert solve_poset(poset, params) is expected, (poset.elements, params)


class TestDrawReachable:
    def test_examples(self):
        assert draw_reachable(boolean_lattice(3), GameParams(3, 3)) is True
        assert draw_reachable(FiniteChain(5), GameParams(3, 3)) is False
        assert draw_reachable(FiniteChain(2), GameParams(3, 3)) is True

    def test_consistent_with_no_draw_criterion(self):
        for n in range(0, 8):
            for a in range(2, 5):
                for d in range(2, 5):
                    if no_draw_possible(FiniteChain(n), GameParams(a, d)):
                        assert not draw_reachable(FiniteChain(n), GameParams(a, d))

    def test_chain_draws_exactly_up_to_erdos_szekeres(self):
        for n in range(0, 11):
            for a in range(2, 6):
                for d in range(2, 6):
                    expected = n <= (a - 1) * (d - 1)
                    assert draw_reachable(FiniteChain(n), GameParams(a, d)) is expected, (n, a, d)

    def test_matches_memo_free_referee(self):
        import random

        rng = random.Random(7)
        seen = set()
        for _ in range(20):
            poset = random_poset(rng, rng.randrange(4, 8))
            for a in range(2, 5):
                for d in range(2, 5):
                    params = GameParams(a, d)
                    expected = memo_free_draw_reachable(poset, params)
                    assert draw_reachable(poset, params) is expected, (poset.elements, params)
                    seen.add(expected)
        assert seen == {True, False}


class TestValidateInvolution:
    def test_cube_complement(self):
        cube = boolean_lattice(3)
        inv = complement_involution(3)
        assert validate_involution(cube, inv, InvolutionFlavour.ORDER_REVERSING)
        assert not validate_involution(cube, inv, InvolutionFlavour.ORDER_PRESERVING)

    def test_chain_reflection_fails_side_condition(self):
        # On the 4-chain x -> 5-x: 2 and 3 are comparable but neither is
        # extremal, so the order-reversing requirements fail.
        chain = FinitePoset([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
        inv = {1: 4, 4: 1, 2: 3, 3: 2}
        assert not validate_involution(chain, inv, "order_reversing")

    def test_identity_has_fixed_points(self):
        cube = boolean_lattice(3)
        identity = {s: s for s in cube.elements}
        assert not validate_involution(cube, identity, "order_reversing")

    def test_swap_of_disjoint_chains_preserves_order(self):
        poset, swap = two_chains(3)
        assert validate_involution(poset, swap, "order_preserving")
        assert not validate_involution(poset, swap, "order_reversing")

    def test_incomplete_map_rejected(self):
        poset, swap = two_chains(2)
        del swap["a1"]
        assert not validate_involution(poset, swap, "order_preserving")


class TestMirrorStrategy:
    def test_cube_mirrors_complement(self):
        cube = boolean_lattice(3)
        inv = complement_involution(3)
        move = mirror_strategy(cube, inv, "order_reversing", [(1,)], GameParams(3, 3))
        assert move == (2, 3)

    def test_disjoint_chains_mirror(self):
        poset, swap = two_chains(3)
        move = mirror_strategy(poset, swap, "order_preserving", ["a2"], GameParams(3, 3))
        assert move == "b2"

    def test_win_in_one_preferred_over_mirror(self):
        # a1, b1, a2 played; a3 completes the ascent a1 a2 a3, and the
        # position really is won (solver agrees), so the strategy must
        # grab it instead of mirroring to b2.
        poset, swap = two_chains(3)
        params = GameParams(3, 3)
        board = ["a1", "b1", "a2"]
        move = mirror_strategy(poset, swap, "order_preserving", board, params)
        assert move == "a3"
        from monoseq.order_core import _monotone_len

        assert _monotone_len(tuple(board) + (move,), poset, True) == 3

    def test_first_player_use_rejected(self):
        poset, swap = two_chains(3)
        with pytest.raises(StrategyInapplicableError):
            mirror_strategy(poset, swap, "order_preserving", [], GameParams(3, 3))

    def test_misere_rejected(self):
        poset, swap = two_chains(3)
        with pytest.raises(StrategyInapplicableError):
            mirror_strategy(
                poset, swap, "order_preserving", ["a1"], GameParams(3, 3, Mode.MISERE)
            )

    def test_invalid_involution_rejected(self):
        poset, swap = two_chains(3)
        swap["a1"] = "a1"
        swap["b1"] = "b1"
        with pytest.raises(ValueError):
            mirror_strategy(poset, swap, "order_preserving", ["a2"], GameParams(3, 3))

    def test_inconsistent_board_rejected(self):
        # Last move a1 mirrors to b1, which is already on the board.
        poset, swap = two_chains(3)
        with pytest.raises(ValueError):
            mirror_strategy(
                poset, swap, "order_preserving", ["b2", "b1", "a1"], GameParams(4, 4)
            )

    def test_involution_guarantee_no_first_player_win(self):
        # Wherever a validated mirror involution exists, the empty board is
        # at worst a draw for the second player.
        cube = boolean_lattice(3)
        for a, d in [(2, 2), (3, 3)]:
            assert solve_poset(cube, GameParams(a, d)) in (Outcome.P, Outcome.D)
        chains, _ = two_chains(3)
        for a, d in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)]:
            assert solve_poset(chains, GameParams(a, d)) in (Outcome.P, Outcome.D)

    def test_never_returns_played_element(self):
        poset, swap = two_chains(4)
        params = GameParams(3, 3)
        for board in [("a1",), ("a1", "b1", "a3"), ("b2", "a2", "b4")]:
            move = mirror_strategy(poset, swap, "order_preserving", board, params)
            assert move not in board
