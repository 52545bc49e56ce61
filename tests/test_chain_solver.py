"""Chain solver: GapStates, bounds, closed forms and the capped variant."""

from __future__ import annotations

import random

import pytest

from monoseq import (
    FiniteChain,
    GameParams,
    GapState,
    Mode,
    Outcome,
    ResourceLimitError,
    SolveReport,
    canonical_state,
    closed_form_d2,
    closed_form_d3,
    large_gap_bound,
    solve_chain,
    stabilization_bound,
    verify_shift_implication,
)
from monoseq import chain_solver
from monoseq.chain_solver import MAX_EXACT_N, CappedChainSolver, ChainSolver
from monoseq.errors import CHECK_EVERY

from conftest import brute_board_outcome, brute_lds, brute_lis, random_legal_board


class TestCanonicalState:
    def test_exhausted_deck(self):
        state = canonical_state(FiniteChain(6), [5, 1, 4, 2, 6, 3])
        assert state == GapState("RRPBB", (0, 0, 0, 0, 0, 0))

    def test_empty_board(self):
        assert canonical_state(FiniteChain(7), []) == GapState("", (7,))

    def test_transpositions_coincide(self):
        # Opening 10,5,20 and 10,20,5 reach the same position.
        first = canonical_state(FiniteChain(20), [10, 5, 20])
        second = canonical_state(FiniteChain(20), [10, 20, 5])
        assert first == second == GapState("PP", (4, 13, 0))

    def test_gaps_count_unplayed_not_value_difference(self):
        # After 5,1,4,2,6 on [6] the recording values are 1,2,4,6 and the
        # only unplayed card 3 sits between 2 and 4.
        state = canonical_state(FiniteChain(6), [5, 1, 4, 2, 6])
        assert state == GapState("RPBP", (0, 0, 1, 0, 0))

    def test_rejects_foreign_cards(self):
        with pytest.raises(ValueError, match="not in the deck"):
            canonical_state(FiniteChain(4), [1, 7])
        with pytest.raises(ValueError, match="played twice"):
            canonical_state(FiniteChain(4), [1, 1])

    def test_matches_gap_transition_machinery(self):
        # Evolving the solver's (word, gaps) transitions card by card must
        # agree with recomputing the state from scratch via double bumping.
        from monoseq import double_bump
        from monoseq.chain_solver import _transitions, _wid, _word_text

        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(1, 10)
            deck = FiniteChain(n)
            cards = rng.sample(range(1, n + 1), rng.randrange(1, n + 1))
            wid = _wid("")
            gaps = (n,)
            for t, card in enumerate(cards):
                rec_values = double_bump(cards[:t]).values()
                j = sum(1 for v in rec_values if v < card)
                lower = rec_values[j - 1] if j > 0 else 0
                upper = rec_values[j] if j < len(rec_values) else n + 1
                in_gap = sorted(
                    u
                    for u in set(range(1, n + 1)) - set(cards[:t])
                    if lower < u < upper
                )
                l = in_gap.index(card)
                by_gap = {
                    jj: (cid, rt, ls)
                    for jj, cid, cr, cb, rt, ls in _transitions(wid)
                }
                cid, rt, ls = by_gap[j]
                child = list(gaps[:j])
                child.append(l)
                child.append(gaps[j] - 1 - l)
                child.extend(gaps[j + 1 :])
                if rt >= 0:
                    child[rt] += child[rt + 1]
                    del child[rt + 1]
                if ls >= 0:
                    child[ls] += child[ls + 1]
                    del child[ls + 1]
                wid, gaps = cid, tuple(child)
                expected = canonical_state(deck, cards[: t + 1])
                assert _word_text[wid] == expected.colour
                assert gaps == expected.gaps


class TestBounds:
    def test_boundary_values(self):
        assert large_gap_bound(1, 1) == 1
        assert all(large_gap_bound(x, 1) == 1 for x in range(1, 8))
        assert all(large_gap_bound(1, y) == 1 for y in range(1, 8))
        assert large_gap_bound(2, 2) == 3
        assert large_gap_bound(3, 3) == 11

    def test_recurrence_with_equality(self):
        for x in range(2, 8):
            for y in range(2, 8):
                assert large_gap_bound(x, y) == (
                    large_gap_bound(x - 1, y) + large_gap_bound(x, y - 1) + 1
                )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            large_gap_bound(0, 3)

    def test_stabilization_is_root_gap_bound(self):
        assert stabilization_bound(2, 2) == 3
        assert stabilization_bound(3, 2) == 5
        assert stabilization_bound(4, 4) == large_gap_bound(4, 4) == 39
        for a in range(2, 7):
            for d in range(2, 7):
                assert stabilization_bound(a, d) == large_gap_bound(a, d)

    def test_outcomes_constant_beyond_bound(self, solvers):
        for a, d in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            bound = stabilization_bound(a, d)
            for mode in (Mode.NORMAL, Mode.MISERE):
                outcomes = {
                    solvers.outcome(a, d, n, mode) for n in range(bound, bound + 5)
                }
                assert len(outcomes) == 1, (a, d, mode)


class TestSolveChain:
    def test_report_shape(self):
        report = solve_chain(GameParams(3, 3), 5)
        assert isinstance(report, SolveReport)
        assert report.outcome is Outcome.N
        assert report.smallest_winning_move in range(1, 6)
        assert report.nodes_expanded > 0

    def test_small_deck_draws_immediately(self):
        report = solve_chain(GameParams(4, 3), 2)
        assert report.outcome is Outcome.D
        assert report.nodes_expanded == 0
        assert report.smallest_winning_move is None

    @pytest.mark.parametrize(
        "a,d,n,mode,expected",
        [
            (5, 4, 11, Mode.NORMAL, "N"),
            (5, 4, 10, Mode.NORMAL, "D"),
            (6, 4, 14, Mode.NORMAL, "P"),
            (6, 4, 15, Mode.NORMAL, "P"),
            (6, 4, 16, Mode.NORMAL, "N"),
            (3, 3, 4, Mode.MISERE, "N"),
            (4, 4, 7, Mode.MISERE, "P"),
        ],
    )
    def test_published_values(self, solvers, a, d, n, mode, expected):
        assert solvers.outcome(a, d, n, mode).value == expected

    @pytest.mark.full
    @pytest.mark.parametrize(
        "a,d,n,mode,expected",
        [(7, 4, 17, Mode.NORMAL, "P"), (8, 4, 15, Mode.MISERE, "D"), (9, 4, 20, Mode.MISERE, "D")],
    )
    def test_published_values_full(self, solvers, a, d, n, mode, expected):
        assert solvers.outcome(a, d, n, mode).value == expected

    def test_matches_brute_force_exhaustively(self):
        for a, d in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3)]:
            for mode in (Mode.NORMAL, Mode.MISERE):
                solver = ChainSolver(GameParams(a, d, mode))
                for n in range(0, 7):
                    got = solver.solve(n).outcome
                    if n == 0:
                        assert got is Outcome.D
                        continue
                    expected = brute_board_outcome((), n, GameParams(a, d, mode))
                    assert got is expected, (a, d, mode, n)

    @pytest.mark.parametrize("solver_class", [ChainSolver, CappedChainSolver])
    def test_memory_guard(self, zero_budget, solver_class):
        with pytest.raises(ResourceLimitError, match="memory budget exceeded"):
            solver_class(GameParams(4, 4)).solve(12)

    def test_memory_check_cadence(self, monkeypatch):
        solver = ChainSolver(GameParams(4, 4))
        seen = []
        monkeypatch.setattr(
            chain_solver, "check_memory", lambda memo: seen.append(solver.nodes_expanded)
        )
        solver.solve(20)
        solver.solve(24)  # the cadence runs on across solves of one memo
        assert solver.nodes_expanded > CHECK_EVERY
        assert seen == list(range(1, solver.nodes_expanded + 1, CHECK_EVERY))

    @pytest.mark.parametrize("solver_class", [ChainSolver, CappedChainSolver])
    def test_memo_holds_each_expanded_state_once(self, solver_class):
        # The memo never outgrows the node count, across solves sharing one
        # memo, so the guard's check every CHECK_EVERY nodes tracks its growth.
        for a, d in [(3, 3), (4, 3), (3, 5)]:
            for mode in (Mode.NORMAL, Mode.MISERE):
                solver = solver_class(GameParams(a, d, mode))
                for n in range(1, 21):
                    solver.solve(n)
                    assert solver.nodes_expanded == solver.memo_size, (a, d, mode, n)

    def test_deck_size_limit(self):
        # The largest deck whose gaps fit a packed field still solves; one
        # more card is refused before any search instead of aliasing states.
        for a, d, mode in [(2, 2, Mode.NORMAL), (3, 3, Mode.NORMAL), (3, 3, Mode.MISERE)]:
            params = GameParams(a, d, mode)
            fits = ChainSolver(params).solve(MAX_EXACT_N)
            assert fits.outcome is CappedChainSolver(params).solve(MAX_EXACT_N).outcome
            solver = ChainSolver(params)
            with pytest.raises(ValueError, match=str(MAX_EXACT_N)):
                solver.solve(MAX_EXACT_N + 1)
            assert solver.nodes_expanded == solver.memo_size == 0
        assert solve_chain(GameParams(2, 2), MAX_EXACT_N).outcome is closed_form_d2(2, MAX_EXACT_N)
        beyond = CappedChainSolver(GameParams(2, 2)).solve(10 * MAX_EXACT_N)
        assert beyond.outcome is closed_form_d2(2, 10 * MAX_EXACT_N)

    def test_smallest_winning_move_is_smallest(self, solvers):
        # Check against direct child evaluation for a few N positions.
        for a, d, n, mode in [
            (3, 3, 5, Mode.NORMAL),
            (3, 3, 4, Mode.MISERE),
            (4, 4, 9, Mode.NORMAL),
        ]:
            solver = solvers.exact(a, d, mode)
            report = solver.solve(n)
            assert report.outcome is Outcome.N
            winners = []
            params = GameParams(a, d, mode)
            for card in range(1, n + 1):
                sub = brute_board_outcome((card,), n, params)
                if sub is Outcome.P:
                    winners.append(card)
            assert report.smallest_winning_move == min(winners)


class TestMemoSoundness:
    def test_equal_gapstates_share_brute_outcome(self):
        # Random legal boards bucketed by GapState: every bucket must be
        # constant under the memo-free board-level oracle.
        rng = random.Random(2024)
        pairs_checked = 0
        for a in (2, 3, 4):
            for d in (2, 3, 4):
                for mode in (Mode.NORMAL, Mode.MISERE):
                    params = GameParams(a, d, mode)
                    buckets: dict = {}
                    for n in (8, 9, 10):
                        deck = FiniteChain(n)
                        for _ in range(60):
                            board = random_legal_board(rng, n, params, n - 5)
                            state = canonical_state(deck, board)
                            buckets.setdefault(state, []).append((board, n))
                    for state, members in buckets.items():
                        if len(members) < 2:
                            continue
                        outcomes = set()
                        for board, n in members[:3]:
                            if len(board) == n:
                                continue
                            outcomes.add(brute_board_outcome(board, n, params))
                        assert len(outcomes) <= 1, (state, members[:3])
                        pairs_checked += max(0, len(members[:3]) - 1)
        assert pairs_checked >= 100


class TestClosedForms:
    @pytest.mark.parametrize(
        "a,n,expected", [(3, 2, "D"), (3, 5, "N"), (4, 6, "P"), (2, 1, "D"), (2, 2, "P")]
    )
    def test_d2_examples(self, a, n, expected):
        assert closed_form_d2(a, n).value == expected

    @pytest.mark.parametrize(
        "a,n,expected", [(4, 5, "N"), (5, 6, "D"), (5, 7, "N"), (3, 3, "D"), (3, 4, "D")]
    )
    def test_d3_examples(self, a, n, expected):
        assert closed_form_d3(a, n).value == expected

    def test_misere_mode_rejected(self):
        with pytest.raises(ValueError):
            closed_form_d2(3, 5, Mode.MISERE)
        with pytest.raises(ValueError):
            closed_form_d3(4, 5, Mode.MISERE)

    def test_d2_matches_solver(self, solvers):
        for a in range(2, 8):
            for n in range(0, 15):
                assert solvers.outcome(a, 2, n) is closed_form_d2(a, n), (a, n)

    def test_d3_matches_solver(self, solvers):
        for a in range(3, 8):
            for n in range(0, 15):
                assert solvers.outcome(a, 3, n) is closed_form_d3(a, n), (a, n)


class TestShiftImplication:
    def test_published_instances(self):
        assert verify_shift_implication(GameParams(6, 4), 14)
        assert verify_shift_implication(GameParams(5, 4), 11)  # premise false
        assert verify_shift_implication(GameParams(4, 3, Mode.MISERE), 5)

    def test_holds_across_small_grid(self, solvers):
        for a in range(2, 5):
            for d in range(2, 5):
                for mode in (Mode.NORMAL, Mode.MISERE):
                    for n in range(1, 11):
                        if solvers.outcome(a, d, n, mode) is Outcome.P:
                            assert (
                                solvers.outcome(a + 1, d, n + 1, mode) is Outcome.N
                            ), (a, d, n, mode)
                            assert (
                                solvers.outcome(a, d + 1, n + 1, mode) is Outcome.N
                            ), (a, d, n, mode)


class TestCappedSolver:
    def test_agrees_with_exact(self, solvers):
        for a in range(2, 5):
            for d in range(2, 5):
                for mode in (Mode.NORMAL, Mode.MISERE):
                    capped = solvers.capped(a, d, mode)
                    for n in range(0, 15):
                        assert (
                            capped.solve(n).outcome is solvers.outcome(a, d, n, mode)
                        ), (a, d, mode, n)

    def test_d2_stabilizes_at_bound(self):
        for a in (3, 4):
            bound = stabilization_bound(a, 2)
            solver = CappedChainSolver(GameParams(a, 2))
            outcomes = {solver.solve(n).outcome for n in range(bound, bound + 8)}
            assert outcomes == {closed_form_d2(a, bound)}

    def test_large_root_key_single_state(self):
        # At and beyond the bound the root clamps to the single B-card
        # gap, so one more solve adds no new root work.
        a, d = 3, 3
        bound = stabilization_bound(a, d)
        solver = CappedChainSolver(GameParams(a, d))
        first = solver.solve(bound)
        again = solver.solve(bound + 7)
        assert first.outcome is again.outcome
        assert again.nodes_expanded == 0

    def test_smallest_winning_move_in_stable_regime(self, solvers):
        # Below the bound the capped solver must report the same smallest
        # winning move as the exact one.
        for a, d, mode in [(3, 3, Mode.NORMAL), (3, 3, Mode.MISERE), (4, 3, Mode.MISERE)]:
            capped = solvers.capped(a, d, mode)
            exact = solvers.exact(a, d, mode)
            for n in range(0, min(stabilization_bound(a, d), 13)):
                c, e = capped.solve(n), exact.solve(n)
                assert c.outcome is e.outcome
                assert c.smallest_winning_move == e.smallest_winning_move, (a, d, mode, n)

    def test_smallest_winning_move_beyond_bound(self):
        # From the bound on the capped root is one clamped gap of B cards,
        # and splits past B(a, d-1) stand for cards near the top of the deck.
        cases = 0
        for a in range(2, 11):
            for d in range(2, 11):
                bound = stabilization_bound(a, d)
                if bound > 20:
                    continue
                for mode in (Mode.NORMAL, Mode.MISERE):
                    capped = CappedChainSolver(GameParams(a, d, mode))
                    exact = ChainSolver(GameParams(a, d, mode))
                    for n in range(bound, 21):
                        c, e = capped.solve(n), exact.solve(n)
                        assert c.outcome is e.outcome, (a, d, mode, n)
                        assert c.smallest_winning_move == e.smallest_winning_move, (
                            a, d, mode, n,
                        )
                        cases += 1
        assert cases == 352
