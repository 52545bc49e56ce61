"""Chain solver: GapStates, bounds, closed forms and the clamped search
against the unclamped referee."""

from __future__ import annotations

import functools
import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from monoseq import (
    FiniteChain,
    GameParams,
    GapState,
    Mode,
    Outcome,
    ResourceLimitError,
    SolveReport,
    boolean_lattice,
    canonical_state,
    closed_form_d2,
    closed_form_d3,
    draw_reachable,
    large_gap_bound,
    principal_variation,
    solve_chain,
    solve_extended,
    solve_poset,
    solve_q,
    stabilization_bound,
    typed_reachable_graph,
    verify_shift_implication,
)
from monoseq import chain_solver
from monoseq.bumping import _play, _word_text
from monoseq.chain_solver import ChainSolver, _gap_bounds
from monoseq.errors import CHECK_EVERY
from monoseq.order_core import _D, _N, _P

from conftest import (
    RefereeChainSearch,
    brute_board_outcome,
    brute_lds,
    brute_lis,
    random_legal_board,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def audit_chain_memo(solver: ChainSolver) -> int:
    """Check every entry of a solver's memo against its children, in any
    order and with no search; returns the number of entries checked.

    A state is the word id above a+d-1 gap fields of B(a, d).bit_length()
    bits.  Each child is typed D when no card is left, N when it completes
    a critical sequence (misere: a card played into the parent's critical
    gap) or holds a card in a critical gap of its word (normal play, read
    from the gap bounds, not from the search's masks), and otherwise by
    its memo entry.  An entry must be N iff some child is P, P iff every
    child is N, and D otherwise; a P or D entry must have every child
    typed.  In normal play no entry holds a card in a critical gap.
    """
    a, d = solver.params.a, solver.params.d
    normal = solver.params.mode is Mode.NORMAL
    bits = stabilization_bound(a, d).bit_length()
    fmask = (1 << bits) - 1
    shift = bits * (a + d - 1)
    memo = solver._memo

    @functools.cache
    def critical(wid: int) -> int:
        bounds = _gap_bounds(wid, a, d)
        return sum(fmask << bits * i for i, b in enumerate(bounds) if b == 1)

    rows = functools.cache(solver._word_rows)

    def child_type(child: int):
        g = child & (1 << shift) - 1
        if not g:
            return _D
        if normal and g & critical(child >> shift):
            return _N
        return memo.get(child)

    for state, stored in memo.items():
        wid, g = state >> shift, state & (1 << shift) - 1
        types = []
        if g & critical(wid):
            assert not normal, f"normal-play entry {state:#x} holds a card in a critical gap"
            types.append(_N)
        for sj, _, _, data in rows(wid):
            gj = g >> sj & fmask
            if gj:
                types += map(child_type, solver._split(g, gj, data[:-1] + (0,)))
        if stored == _N:
            assert _P in types, f"N entry {state:#x} has no P child"
            continue
        assert None not in types, f"entry {state:#x} stored {stored} misses a child"
        expected = _P if all(t == _N for t in types) else _D
        assert stored == expected, f"entry {state:#x} stored {stored}, children give {expected}"
    return len(memo)


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
        from monoseq.bumping import _wid

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
                cid, rt, ls = _play(wid, j)
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
        with pytest.raises(ValueError, match="at least 2"):
            stabilization_bound(1, 3)

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

    def test_negative_deck_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ChainSolver(GameParams(3, 3)).solve(-1)

    def test_report_move_iff_n(self):
        # A smallest winning move belongs to an N outcome only.
        with pytest.raises(ValueError, match="iff outcome is N"):
            SolveReport(Outcome.P, 0, 1)

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

    @pytest.mark.parametrize(
        "a,d,mode,nodes",
        [
            (6, 4, Mode.NORMAL, 79_979),
            (7, 3, Mode.NORMAL, 67_464),
            (5, 4, Mode.MISERE, 21_841),
            (6, 3, Mode.MISERE, 5_573),
            pytest.param(7, 4, Mode.MISERE, 346_087, marks=pytest.mark.full),
        ],
    )
    def test_node_counts_pinned(self, a, d, mode, nodes):
        # Node counts are deterministic: a change to the search shows here.
        solver = ChainSolver(GameParams(a, d, mode))
        total = sum(solver.solve(n).nodes_expanded for n in range(1, 21))
        assert total == solver.nodes_expanded == nodes

    @pytest.mark.parametrize("a,d,mode", [(5, 4, Mode.MISERE), (4, 5, Mode.NORMAL)])
    def test_interns_no_terminal_word(self, a, d, mode):
        # build skips a critical gap before playing it, so in a fresh
        # interpreter the word table holds only words with fewer than a
        # reddish and fewer than d bluish letters.
        script = (
            "from monoseq import ChainSolver, GameParams, Mode\n"
            "from monoseq.bumping import _word_counts\n"
            f"solver = ChainSolver(GameParams({a}, {d}, Mode.{mode.name}))\n"
            "for n in range(1, 13):\n"
            "    solver.solve(n)\n"
            "print(max(r for r, _ in _word_counts), max(b for _, b in _word_counts))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        r, b = map(int, proc.stdout.split())
        assert r < a and b < d, (r, b)

    def test_memory_guard(self, zero_budget):
        with pytest.raises(ResourceLimitError, match="memory budget exceeded"):
            ChainSolver(GameParams(4, 4)).solve(12)

    def test_memory_check_cadence(self, monkeypatch):
        solver = ChainSolver(GameParams(6, 4))
        seen = []
        monkeypatch.setattr(
            chain_solver, "check_memory", lambda memo: seen.append(solver.nodes_expanded)
        )
        solver.solve(16)
        solver.solve(20)  # the cadence runs on across solves of one memo
        assert solver.nodes_expanded > CHECK_EVERY
        assert seen == list(range(1, solver.nodes_expanded + 1, CHECK_EVERY))

    @pytest.mark.parametrize(
        "search, guarded",
        [
            (lambda: ChainSolver(GameParams(4, 4)).solve(10), False),
            (lambda: solve_poset(boolean_lattice(3), GameParams(3, 3)), False),
            (lambda: draw_reachable(FiniteChain(8), GameParams(4, 4)), False),
            (lambda: solve_extended(4, 4), False),
            (lambda: principal_variation(4, 3), False),
            (lambda: solve_q(GameParams(4, 4)), False),
            (lambda: typed_reachable_graph(GameParams(4, 4)), False),
            (lambda: solve_poset(boolean_lattice(3), GameParams(3, 3)), True),
        ],
        ids=[
            "ChainSolver", "solve_poset", "draw_reachable", "solve_extended",
            "principal_variation", "solve_q", "typed_reachable_graph",
            "solve_poset-guard-fires",
        ],
    )
    def test_search_frees_memo_without_collector(self, request, search, guarded):
        # Reference counting alone frees every memo once its search ends,
        # also when the memory guard stops it: no search leaves a cycle.
        if guarded:
            request.getfixturevalue("zero_budget")
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            try:
                search()
                raised = False
            except ResourceLimitError:
                raised = True
            assert raised is guarded
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_deck_size_limit(self, solvers):
        # No deck size is refused: clamping keeps every gap inside its field.
        for a in (2, 3, 4):
            for n in (32, 100, 10**6):
                assert solve_chain(GameParams(a, 2), n).outcome is closed_form_d2(a, n)
        for mode in (Mode.NORMAL, Mode.MISERE):
            got = solve_chain(GameParams(3, 3, mode), 32)
            expected = solvers.referee(3, 3, mode).solve(32)
            assert (got.outcome, got.smallest_winning_move) == expected, mode

    def test_smallest_winning_move_is_smallest(self, solvers):
        # Check against direct child evaluation for a few N positions.
        for a, d, n, mode in [
            (3, 3, 5, Mode.NORMAL),
            (3, 3, 4, Mode.MISERE),
            (4, 4, 9, Mode.NORMAL),
        ]:
            solver = solvers.product(a, d, mode)
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


class TestMemoAudit:
    @pytest.mark.parametrize(
        "a,d,mode",
        [
            (5, 4, Mode.MISERE),
            (6, 4, Mode.NORMAL),
            pytest.param(7, 4, Mode.MISERE, marks=pytest.mark.full),
            pytest.param(6, 5, Mode.NORMAL, marks=pytest.mark.full),
        ],
    )
    def test_memo_is_a_proof(self, a, d, mode):
        # The memo of a search over n = 1..20 proves each of its entries.
        solver = ChainSolver(GameParams(a, d, mode))
        for n in range(1, 21):
            solver.solve(n)
        assert audit_chain_memo(solver) == solver.nodes_expanded > 0


def referee_split(state: int, j: int, a: int, d: int, bits: int, normal: bool) -> list[int]:
    """The clamped children of playing gap j of a packed state, one card
    at a time on plain lists: split, merge, clamp each field to its bound,
    drop repeats and, in normal play, every child with a card in a
    critical (bound 1) field."""
    fmask = (1 << bits) - 1
    shift = bits * (a + d - 1)
    wid, g = state >> shift, state & (1 << shift) - 1
    gaps = [g >> bits * i & fmask for i in range(len(_word_text[wid]) + 1)]
    cid, rmerge, lmerge = _play(wid, j)
    bounds = _gap_bounds(cid, a, d)
    out = []
    for l in range(gaps[j]):
        fields = gaps[:j] + [l, gaps[j] - 1 - l] + gaps[j + 1 :]
        for i in (rmerge, lmerge):
            if i >= 0:
                fields[i] += fields.pop(i + 1)
        assert len(fields) == len(bounds)
        fields = [min(v, b) for v, b in zip(fields, bounds)]
        if normal and any(v and b == 1 for v, b in zip(fields, bounds)):
            continue
        child = sum(v << bits * i for i, v in enumerate(fields)) + (cid << shift)
        if child not in out:
            out.append(child)
    return out


class TestSplit:
    @pytest.mark.parametrize(
        "a,d,mode,top",
        [
            (3, 3, Mode.MISERE, 33),
            (3, 3, Mode.NORMAL, 33),
            (4, 3, Mode.MISERE, 57),
            (4, 3, Mode.NORMAL, 57),
            (5, 4, Mode.MISERE, 12),
            (4, 5, Mode.NORMAL, 12),
        ],
    )
    def test_matches_per_child_clamp(self, a, d, mode, top):
        # build's packed child data (merge ops, the clamp list, skip masks
        # and critical ends) against the referee, on every memo state.
        # With the ends dropped, as the root scan and the audit read it,
        # split must give every clamped child.
        normal = mode is Mode.NORMAL
        solver = ChainSolver(GameParams(a, d, mode))
        for n in range(1, top + 1):
            solver.solve(n)
        bits = stabilization_bound(a, d).bit_length()
        fmask = (1 << bits) - 1
        shift = bits * (a + d - 1)
        rows = functools.cache(solver._word_rows)
        checked = 0
        for state in solver._memo:
            wid, g = state >> shift, state & (1 << shift) - 1
            playable = [j for j, b in enumerate(_gap_bounds(wid, a, d)) if b > 1]
            assert [sj // bits for sj, _, _, _ in rows(wid)] == playable
            for sj, skip, _, data in rows(wid):
                gj = g >> sj & fmask
                if not gj:
                    continue
                j = sj // bits
                want = referee_split(state, j, a, d, bits, normal)
                if g & skip:
                    assert want == [], (state, j)
                else:
                    assert list(solver._split(g, gj, data)) == want, (state, j)
                every = referee_split(state, j, a, d, bits, False)
                assert list(solver._split(g, gj, data[:-1] + (0,))) == every, (state, j)
                checked += 1
        assert checked > 0


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

    def test_rejects_small_a(self):
        with pytest.raises(ValueError, match="at least 2"):
            closed_form_d2(1, 5)
        with pytest.raises(ValueError, match="at least 3"):
            closed_form_d3(2, 5)

    def test_misere_mode_rejected(self):
        # The closed forms are normal-play facts and take no mode.
        with pytest.raises(TypeError):
            closed_form_d2(3, 5, Mode.MISERE)
        with pytest.raises(TypeError):
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


class TestReferee:
    def test_matches_brute_force(self):
        # The unclamped referee against the board-level oracle: outcome,
        # and the smallest card whose board the oracle types P.
        for a, d in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3)]:
            for mode in (Mode.NORMAL, Mode.MISERE):
                params = GameParams(a, d, mode)
                referee = RefereeChainSearch(params)
                for n in range(0, 7):
                    got = referee.solve(n)
                    if n == 0:
                        assert got == (Outcome.D, None)
                        continue
                    assert got.outcome is brute_board_outcome((), n, params), (a, d, mode, n)
                    if got.outcome is Outcome.N:
                        smallest = min(
                            card
                            for card in range(1, n + 1)
                            if brute_board_outcome((card,), n, params) is Outcome.P
                        )
                        assert got.smallest_winning_move == smallest, (a, d, mode, n)


class TestCappedSolver:
    def test_agrees_with_exact(self, solvers):
        for a in range(2, 5):
            for d in range(2, 5):
                for mode in (Mode.NORMAL, Mode.MISERE):
                    referee = solvers.referee(a, d, mode)
                    for n in range(0, 15):
                        assert (
                            referee.solve(n).outcome is solvers.outcome(a, d, n, mode)
                        ), (a, d, mode, n)

    def test_d2_stabilizes_at_bound(self):
        for a in (3, 4):
            bound = stabilization_bound(a, 2)
            solver = ChainSolver(GameParams(a, 2))
            outcomes = {solver.solve(n).outcome for n in range(bound, bound + 8)}
            assert outcomes == {closed_form_d2(a, bound)}

    def test_large_root_key_single_state(self):
        # At and beyond the bound the root clamps to the single B-card
        # gap, so one more solve adds no new root work.
        a, d = 3, 3
        bound = stabilization_bound(a, d)
        solver = ChainSolver(GameParams(a, d))
        first = solver.solve(bound)
        again = solver.solve(bound + 7)
        assert first.outcome is again.outcome
        assert again.nodes_expanded == 0

    def test_smallest_winning_move_in_stable_regime(self, solvers):
        # Below the bound the clamped search must report the same smallest
        # winning move as the unclamped referee.
        for a, d, mode in [(3, 3, Mode.NORMAL), (3, 3, Mode.MISERE), (4, 3, Mode.MISERE)]:
            product = solvers.product(a, d, mode)
            referee = solvers.referee(a, d, mode)
            for n in range(0, min(stabilization_bound(a, d), 13)):
                c, e = product.solve(n), referee.solve(n)
                assert c.outcome is e.outcome
                assert c.smallest_winning_move == e.smallest_winning_move, (a, d, mode, n)

    def test_smallest_winning_move_beyond_bound(self):
        # From the bound on the clamped root is one gap of B cards, and
        # splits past B(a, d-1) stand for cards near the top of the deck.
        # Each row's referee memo is dropped with the row, not kept for the
        # session.
        cases = 0
        for a in range(2, 11):
            for d in range(2, 11):
                bound = stabilization_bound(a, d)
                if bound > 20:
                    continue
                for mode in (Mode.NORMAL, Mode.MISERE):
                    product = ChainSolver(GameParams(a, d, mode))
                    referee = RefereeChainSearch(GameParams(a, d, mode))
                    for n in range(bound, 21):
                        c, e = product.solve(n), referee.solve(n)
                        assert c.outcome is e.outcome, (a, d, mode, n)
                        assert c.smallest_winning_move == e.smallest_winning_move, (
                            a, d, mode, n,
                        )
                        cases += 1
        assert cases == 352
