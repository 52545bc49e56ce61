"""Dense-order solver: children, theorems, duality and certificates."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from monoseq import (
    GameParams,
    Mode,
    Outcome,
    bluish,
    colour_children,
    duality_check,
    exact_pset_transcript,
    is_admissible,
    is_terminal_q,
    p4_set,
    p5_set,
    position_symmetry_holds,
    reddish,
    reverse_complement,
    solve_q,
    sufficient_pset_transcript,
    typed_reachable_graph,
    verify_exact_pset,
    verify_strategy_stealing_case,
    verify_sufficient_pset,
)
from monoseq import bumping, q_solver
from monoseq.errors import InvariantError, ResourceLimitError

SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_rejects_inadmissible_word(self):
        with pytest.raises(ValueError, match="not admissible"):
            is_terminal_q("RB", GameParams(3, 3))


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

    def test_transcript_walk_admissible_from_empty(self):
        lines = [line for _, line in exact_pset_transcript(p4_set(4), GameParams(4, 4))]
        labels = [line.split(":")[0].split()[-1] for line in lines]
        assert labels[0] == "(empty)"
        for w in labels[1:]:
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

    def test_certificate_memory_guard(self, zero_budget):
        with pytest.raises(ResourceLimitError, match="memory budget exceeded"):
            list(exact_pset_transcript(p4_set(6), GameParams(6, 4)))

    @pytest.mark.parametrize("mode, cap", [(Mode.NORMAL, 1), (Mode.MISERE, 0)])
    def test_cutoff_builds_no_child_that_cannot_be_p(self, mode, cap):
        # In a fresh interpreter the word table holds only what the search
        # built: no near-terminal word in normal play, no terminal one in
        # misere play.
        script = (
            "from monoseq import GameParams, Mode, solve_q\n"
            "from monoseq.bumping import _word_counts\n"
            f"solve_q(GameParams(8, 5, Mode.{mode.name}))\n"
            "print(max(r for r, _ in _word_counts), max(b for _, b in _word_counts))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(8 - 1 - cap), str(5 - 1 - cap)]

    @pytest.mark.parametrize("solve", [solve_q, typed_reachable_graph])
    def test_cycle_raises(self, monkeypatch, solve):
        monkeypatch.setattr(q_solver, "_capped_child_ids", lambda wid, *caps: (wid,))
        with pytest.raises(InvariantError, match="cycle"):
            solve(GameParams(4, 4))

    @pytest.mark.parametrize("solve", [solve_q, typed_reachable_graph])
    def test_depth_overflow_raises(self, monkeypatch, solve):
        # An endless path of fresh words that never gain a letter.
        class NoLetters:
            def __getitem__(self, wid):
                return (0, 0)

        monkeypatch.setattr(q_solver, "_word_counts", NoLetters())
        monkeypatch.setattr(q_solver, "_capped_child_ids", lambda wid, *caps: (wid + 1,))
        with pytest.raises(InvariantError, match="play-length bound 10"):
            solve(GameParams(4, 4))

    def test_misere_terminal_flip(self):
        # With a = d = 2 the first move hands over an immediate win in
        # normal play but wins outright in misere play.
        assert solve_q(GameParams(2, 2)) is Outcome.P
        assert solve_q(GameParams(2, 2, Mode.MISERE)) is Outcome.N

    def test_order_reversal_symmetry_of_types(self):
        assert position_symmetry_holds(GameParams(4, 4))
        assert position_symmetry_holds(GameParams(5, 5))


class TestDuality:
    def test_small_block(self):
        for a in range(3, 8):
            for d in range(3, 8):
                assert duality_check(a, d), (a, d)

    def test_full_typing_on_both_sides(self):
        # duality_check's cutoff searches cap normal (a, d) at (a-1, d-1),
        # which is the misere (a-1, d-1) search itself; full typing reads
        # each side's own terminal rule.
        for a in range(3, 9):
            for d in range(3, 9):
                normal = typed_reachable_graph(GameParams(a, d))[""]
                misere = typed_reachable_graph(GameParams(a - 1, d - 1, Mode.MISERE))[""]
                assert normal is misere, (a, d)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            duality_check(2, 3)

    def test_example_44(self):
        assert solve_q(GameParams(4, 4)) is Outcome.N
        assert solve_q(GameParams(3, 3, Mode.MISERE)) is Outcome.N


def referee_exact_transcript(pset: set, params: GameParams):
    """The exact checker's transcript from a string-level walk: every word
    reachable in play in breadth-first order from the empty word, each
    non-terminal one read through colour_children."""
    a, d = params.a, params.d

    def terminal(word: str) -> bool:
        return reddish(word) >= a or bluish(word) >= d

    order, seen = [""], {""}
    for word in order:
        if not terminal(word):
            for child in colour_children(word):
                if child not in seen:
                    seen.add(child)
                    order.append(child)
    for word in order:
        if terminal(word):
            continue
        witness = next((c for c in colour_children(word) if c in pset or terminal(c)), None)
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
    for word in sorted(w for w in pset if w not in seen or terminal(w)):
        yield False, f"  member {word}: not a non-terminal position reachable in play FAIL"


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

    @pytest.mark.parametrize("a", range(4, 9))
    def test_exact_transcript_matches_string_walk(self, a):
        # Line for line, order included, on p4 and each one-member removal.
        params = GameParams(a, 4)
        base = p4_set(a)
        for pset in [base] + [base - {m} for m in sorted(base)]:
            expected = list(referee_exact_transcript(pset, params))
            assert list(exact_pset_transcript(pset, params)) == expected, sorted(pset)

    def test_exact_p4_mutations_fail(self):
        base = p4_set(6)
        for member in base:
            assert not verify_exact_pset(base - {member}, GameParams(6, 4)), member
            lines = exact_pset_transcript(base - {member}, GameParams(6, 4))
            assert any(not ok and "FAIL" in line for ok, line in lines), member

    @pytest.mark.parametrize("extra", ["PPPP", "RRRRRP", "BBB", "XYZ"])
    def test_exact_checker_fails_unreached_member(self, extra):
        # Terminal, inadmissible or not a colour word: the walk never
        # reaches such a member, so no line of the walk itself names it.
        pset, params = p4_set(6) | {extra}, GameParams(6, 4)
        assert not verify_exact_pset(pset, params)
        lines = list(exact_pset_transcript(pset, params))
        assert lines[-1] == (
            False, f"  member {extra}: not a non-terminal position reachable in play FAIL"
        )
        assert lines == list(referee_exact_transcript(pset, params))
        assert extra in ("PPPP", "RRRRRP") or extra not in bumping._word_ids

    @pytest.mark.parametrize(
        "check, transcript, pset, params, line",
        [
            (
                verify_exact_pset, exact_pset_transcript, p4_set(6) | {""}, GameParams(6, 4),
                "  member (empty): unexpected witness P FAIL",
            ),
            (
                verify_sufficient_pset, sufficient_pset_transcript, p5_set(6) | {"RRRRP"},
                GameParams(6, 5), "  member RRRRP: has a terminal child FAIL",
            ),
        ],
        ids=["exact-member-with-witness", "sufficient-member-with-terminal-child"],
    )
    def test_checker_fails_member_that_is_not_p(self, check, transcript, pset, params, line):
        # The empty word has the member P as a reply, and RRRRP, one reddish
        # letter short of a = 6, has a terminal child: each fails on its
        # own line, and nothing else fails.
        assert not check(pset, params)
        assert [text for ok, text in transcript(pset, params) if not ok] == [line]

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
