"""Dense-order solver: children, theorems, duality and certificates."""

from __future__ import annotations

import pytest

from monoseq import (
    GameParams,
    Mode,
    Outcome,
    colour_children,
    duality_check,
    exact_pset_transcript,
    is_admissible,
    is_terminal_q,
    p4_set,
    p5_set,
    position_symmetry_holds,
    reachable_words,
    reverse_complement,
    solve_q,
    solve_q_forbidden,
    sufficient_pset_transcript,
    typed_reachable_graph,
    verify_exact_pset,
    verify_strategy_stealing_case,
    verify_sufficient_pset,
)
from monoseq import q_solver
from monoseq.errors import InvariantError, ResourceLimitError
from monoseq.q_solver import QPosition


class TestColourChildren:
    def test_children_of_p(self):
        assert set(colour_children("P")) == {"PB", "RP"}

    def test_children_of_pp(self):
        assert set(colour_children("PP")) == {"PBP", "RPB", "PRP"}

    def test_children_of_rpb(self):
        assert set(colour_children("RPB")) == {"RPP", "RRPB", "RPBB", "PPB"}

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            colour_children("RB")

    def test_children_admissible(self):
        frontier = [""]
        for _ in range(4):
            nxt = []
            for word in frontier:
                for child in colour_children(word):
                    assert is_admissible(child)
                    nxt.append(child)
            frontier = nxt[:40]


class TestTerminal:
    def test_examples(self):
        assert is_terminal_q("RRPBB", GameParams(3, 9)) is True
        assert is_terminal_q("P", GameParams(2, 2)) is False
        assert is_terminal_q("R" * 3 + "P", GameParams(4, 2)) is True

    def test_qposition_counts(self):
        pos = QPosition.from_word("RRPBB")
        assert (pos.reddish, pos.bluish) == (3, 3)
        with pytest.raises(ValueError):
            QPosition.from_word("BR")


class TestSolveQ:
    def test_d2_always_previous_player(self):
        for a in range(2, 13):
            assert solve_q(GameParams(a, 2)) is Outcome.P

    def test_d3_parity(self):
        for a in range(3, 13):
            expected = Outcome.N if a % 2 == 1 else Outcome.P
            assert solve_q(GameParams(a, 3)) is expected

    def test_d4_d5_first_player(self):
        for d in (4, 5):
            for a in range(d, 13):
                assert solve_q(GameParams(a, d)) is Outcome.N

    def test_symmetric_case_first_player(self):
        for a in range(4, 9):
            assert solve_q(GameParams(a, a)) is Outcome.N

    def test_swap_symmetry(self):
        for a in range(2, 7):
            for d in range(2, 7):
                assert solve_q(GameParams(a, d)) is solve_q(GameParams(d, a))

    def test_never_draws(self):
        for a in range(2, 9):
            for d in range(2, 9):
                assert solve_q(GameParams(a, d)) is not Outcome.D

    def test_reachable_words_admissible_and_bounded(self):
        params = GameParams(4, 4)
        words = reachable_words(params)
        assert "" in words
        for w in words:
            assert is_admissible(w)

    def test_depth_and_acyclicity_assertions_silent(self):
        # The solver raises on any cycle or depth overflow; a clean pass
        # over the whole small-parameter block is the invariant.
        for a in range(2, 7):
            for d in range(2, 7):
                solve_q(GameParams(a, d))
                solve_q(GameParams(a, d, Mode.MISERE))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_cutoff_equals_full_typing(self, mode):
        # solve_q stops at the first winning move and, in normal play, at
        # near-terminal words; the full typed graph is its referee.
        for a in range(2, 9):
            for d in range(2, 9):
                params = GameParams(a, d, mode)
                assert solve_q(params) is typed_reachable_graph(params)[""], params

    @pytest.mark.parametrize("solve", [solve_q, typed_reachable_graph])
    def test_memory_guard(self, zero_budget, solve):
        with pytest.raises(ResourceLimitError, match="memory budget exceeded"):
            solve(GameParams(4, 4))

    @pytest.mark.parametrize("solve", [solve_q, typed_reachable_graph])
    def test_cycle_raises(self, monkeypatch, solve):
        monkeypatch.setattr(q_solver, "_child_ids", lambda wid: (wid,))
        with pytest.raises(InvariantError, match="cycle"):
            solve(GameParams(4, 4))

    @pytest.mark.parametrize("solve", [solve_q, typed_reachable_graph])
    def test_depth_overflow_raises(self, monkeypatch, solve):
        # An endless path of fresh words that never gain a letter.
        class NoLetters:
            def __getitem__(self, wid):
                return (0, 0)

        monkeypatch.setattr(q_solver, "_word_counts", NoLetters())
        monkeypatch.setattr(q_solver, "_child_ids", lambda wid: (wid + 1,))
        with pytest.raises(InvariantError, match="play-length bound 10"):
            solve(GameParams(4, 4))

    def test_misere_terminal_flip(self):
        # With a = d = 2 the first move hands over an immediate win in
        # normal play but wins outright in misere play.
        assert solve_q(GameParams(2, 2)) is Outcome.P
        assert solve_q(GameParams(2, 2, Mode.MISERE)) is Outcome.N

    def test_forbidden_variant_matches(self):
        for a in range(2, 7):
            for d in range(2, 7):
                assert solve_q_forbidden(GameParams(a, d)) is solve_q(GameParams(a, d))

    def test_order_reversal_symmetry_of_types(self):
        assert position_symmetry_holds(GameParams(4, 4))
        assert position_symmetry_holds(GameParams(5, 5))


class TestDuality:
    def test_small_block(self):
        for a in range(3, 8):
            for d in range(3, 8):
                assert duality_check(a, d), (a, d)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            duality_check(2, 3)

    def test_example_44(self):
        assert solve_q(GameParams(4, 4)) is Outcome.N
        assert solve_q(GameParams(3, 3, Mode.MISERE)) is Outcome.N


class TestPSets:
    def test_p4_materializations(self):
        # The R^i PP family starts contributing at a = 5 (i = 0); the typed
        # graph of (5, 4) confirms PP really is a P-position there.
        assert p4_set(4) == {"P", "RPB"}
        assert p4_set(5) == {"P", "RRPB", "PP"}
        assert p4_set(6) == {"P", "RRRPB", "PP", "RPP"}

    def test_p5_materializations(self):
        assert p5_set(5) == {"P", "RPB", "PPP", "RRPBB"}
        assert p5_set(6) == {"P", "RPB", "PRPB", "RPBP", "RPPP", "RRRPBB"}
        assert {"RPRPB", "RRPBP"} <= p5_set(7)

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            p4_set(3)
        with pytest.raises(ValueError):
            p5_set(4)

    def test_exact_certificates(self):
        for a in range(4, 11):
            assert verify_exact_pset(p4_set(a), GameParams(a, 4)), a
            lines = list(exact_pset_transcript(p4_set(a), GameParams(a, 4)))
            assert lines and all(ok for ok, _ in lines), a

    def test_sufficient_certificates(self):
        for a in range(5, 11):
            assert verify_sufficient_pset(p5_set(a), GameParams(a, 5)), a
            lines = list(sufficient_pset_transcript(p5_set(a), GameParams(a, 5)))
            assert lines and all(ok for ok, _ in lines), a

    def test_p4_is_also_sufficient(self):
        for a in (4, 5, 6):
            assert verify_sufficient_pset(p4_set(a), GameParams(a, 4))

    def test_p_alone_not_sufficient_for_44(self):
        assert not verify_sufficient_pset({"P"}, GameParams(4, 4))

    def test_exact_p4_mutations_fail(self):
        base = p4_set(6)
        for member in base:
            assert not verify_exact_pset(base - {member}, GameParams(6, 4)), member
            lines = exact_pset_transcript(base - {member}, GameParams(6, 4))
            assert any(not ok and "FAIL" in line for ok, line in lines), member

    def test_sufficient_p5_mutations_fail(self):
        base = p5_set(6)
        for member in base:
            assert not verify_sufficient_pset(base - {member}, GameParams(6, 5)), member
            lines = sufficient_pset_transcript(base - {member}, GameParams(6, 5))
            assert any(not ok and "FAIL" in line for ok, line in lines), member

    def test_exact_checker_on_empty_set(self):
        # With d = 2 the non-terminal positions "" and P both have terminal
        # or in-set resolutions evaluated honestly; the empty set fails
        # because "" has no witness (its only child P is neither terminal
        # nor a member).
        assert not verify_exact_pset(set(), GameParams(3, 2))

    def test_members_agree_with_solver_types(self):
        graph = typed_reachable_graph(GameParams(6, 4))
        for w in p4_set(6):
            assert graph[w] is Outcome.P


class TestStrategyStealing:
    @pytest.mark.parametrize("a", [4, 5, 6])
    def test_cases(self, a):
        assert verify_strategy_stealing_case(a)

    def test_rejects_small_a(self):
        with pytest.raises(ValueError):
            verify_strategy_stealing_case(3)

    def test_reverse_complement_partners_share_types(self):
        graph = typed_reachable_graph(GameParams(4, 4))
        for w, t in graph.items():
            assert graph[reverse_complement(w)] is t
