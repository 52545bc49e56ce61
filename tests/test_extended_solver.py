"""Insert-anywhere game: extensions, decompositions, safe slots, parity."""

from __future__ import annotations

from itertools import permutations

import pytest

from monoseq import (
    Outcome,
    ResourceLimitError,
    extensions,
    greedy_decreasing_decomposition,
    greedy_increasing_decomposition,
    insert_at,
    lds,
    lis,
    parity_outcome,
    principal_variation,
    safe_slot,
    solve_extended,
)

from monoseq.extended_solver import _solve_extended_types, _symmetry_variants

from conftest import brute_lds, brute_lis


def all_perms(max_len: int):
    for m in range(max_len + 1):
        yield from (tuple(p) for p in permutations(range(1, m + 1)))


class TestLisLds:
    def test_matches_subsequence_search(self):
        for perm in all_perms(6):
            assert lis(perm) == brute_lis(perm)
            assert lds(perm) == brute_lds(perm)


class TestExtensions:
    def test_empty(self):
        assert extensions(()) == ((1,),)

    def test_singleton(self):
        # Four slot choices collapse onto two patterns.
        assert extensions((1,)) == ((1, 2), (2, 1))

    def test_pair_has_five_children(self):
        # Nine slots, five distinct patterns: of the six length-3 patterns
        # only the full reversal does not contain 12, and dually for 21.
        children = extensions((1, 2))
        assert len(children) == 5
        assert (3, 2, 1) not in children
        assert len(extensions((2, 1))) == 5

    def test_children_are_one_point_supersets(self):
        for perm in [(1,), (2, 1), (2, 1, 3)]:
            for child in extensions(perm):
                assert len(child) == len(perm) + 1
                assert sorted(child) == list(range(1, len(perm) + 2))

    def test_insert_at_bounds(self):
        with pytest.raises(ValueError):
            insert_at((1,), 3, 1)
        with pytest.raises(ValueError):
            insert_at((1,), 1, 0)


class TestGreedyDecompositions:
    def test_worked_example_increasing(self):
        dec = greedy_increasing_decomposition((5, 1, 4, 2, 6, 3))
        assert dec.part_values((5, 1, 4, 2, 6, 3)) == ((5, 6), (1, 4), (2, 3))

    def test_worked_example_decreasing(self):
        dec = greedy_decreasing_decomposition((5, 1, 4, 2, 6, 3))
        assert len(dec.parts) == 3  # LIS is 3

    def test_monotone_extremes(self):
        inc = tuple(range(1, 7))
        assert len(greedy_increasing_decomposition(inc).parts) == 1
        assert len(greedy_decreasing_decomposition(inc).parts) == 6
        dec = tuple(range(6, 0, -1))
        assert len(greedy_increasing_decomposition(dec).parts) == 6
        assert len(greedy_decreasing_decomposition(dec).parts) == 1

    def test_part_count_equals_opposite_subsequence(self):
        for perm in all_perms(6):
            assert len(greedy_increasing_decomposition(perm).parts) == brute_lds(perm)
            assert len(greedy_decreasing_decomposition(perm).parts) == brute_lis(perm)

    def test_parts_partition_indices_and_are_monotone(self):
        for perm in all_perms(5):
            for dec, rising in (
                (greedy_increasing_decomposition(perm), True),
                (greedy_decreasing_decomposition(perm), False),
            ):
                seen = sorted(i for part in dec.parts for i in part)
                assert seen == list(range(len(perm)))
                for values in dec.part_values(perm):
                    pairs = zip(values, values[1:])
                    assert all(x < y if rising else x > y for x, y in pairs)

    def test_cross_intersections_at_most_one(self):
        for perm in all_perms(5):
            inc = greedy_increasing_decomposition(perm).parts
            dec = greedy_decreasing_decomposition(perm).parts
            for ip in inc:
                for dp in dec:
                    assert len(set(ip) & set(dp)) <= 1


class TestSafeSlot:
    def test_empty_perm(self):
        assert safe_slot((), 2, 2) == (1, 1)

    def test_published_style_example(self):
        # (2,1,3) with r = s = 2: the scan finds slot (2, 4), producing the
        # pattern 2413 with both statistics still equal to 2.
        slot = safe_slot((2, 1, 3), 2, 2)
        assert slot == (2, 4)
        child = insert_at((2, 1, 3), *slot)
        assert child == (2, 4, 1, 3)
        assert lis(child) == 2 and lds(child) == 2

    def test_full_grid_has_no_safe_slot(self):
        # 2143 realizes LIS = LDS = 2 on four points; any fifth point makes
        # a monotone triple.
        assert safe_slot((2, 1, 4, 3), 2, 2) is None

    def test_guaranteed_under_lemma_preconditions(self):
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                for perm in all_perms(6):
                    if len(perm) >= r * s:
                        continue
                    if lis(perm) > r or lds(perm) > s:
                        continue
                    slot = safe_slot(perm, r, s)
                    assert slot is not None, (perm, r, s)
                    child = insert_at(perm, *slot)
                    assert lis(child) <= r and lds(child) <= s
                    # The augmented set still decomposes both ways.
                    assert len(greedy_increasing_decomposition(child).parts) <= s
                    assert len(greedy_decreasing_decomposition(child).parts) <= r


class TestSolveExtended:
    @pytest.mark.parametrize(
        "a,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (5, 3)]
    )
    def test_matches_parity(self, a, d):
        assert solve_extended(a, d) is parity_outcome(a, d)

    def test_trivial_second_player_win(self):
        assert solve_extended(2, 2) is Outcome.P

    @pytest.mark.parametrize("solve", [solve_extended, parity_outcome])
    def test_rejects_small_critical_lengths(self, solve):
        with pytest.raises(ValueError, match="at least 2"):
            solve(1, 3)

    @pytest.mark.parametrize("solve", [solve_extended, principal_variation])
    def test_memory_guard(self, zero_budget, solve):
        with pytest.raises(ResourceLimitError, match="memory budget exceeded"):
            solve(3, 3)

    def test_four_four_is_previous_player(self):
        assert solve_extended(4, 4) is Outcome.P

    @pytest.mark.parametrize(
        "a,d", [(5, 5), (6, 4), (4, 6), (7, 3), (7, 4), (4, 7), (8, 3)]
    )
    def test_beyond_old_size_cap(self, a, d):
        # (a-1)(d-1) > 12: refused by default before the memory guard.
        assert solve_extended(a, d) is parity_outcome(a, d)

    def test_parity_outcome_values(self):
        assert parity_outcome(3, 3) is Outcome.N
        assert parity_outcome(4, 4) is Outcome.P
        assert parity_outcome(5, 3) is Outcome.N
        assert parity_outcome(4, 3) is Outcome.P

    def test_principal_variation_avoids_forced_suicide(self):
        for a, d in [(2, 2), (2, 3), (3, 3), (4, 3), (3, 4), (5, 3)]:
            line = principal_variation(a, d)
            quota = (a - 2) * (d - 2)
            assert len(line) - 1 > quota
            for ply in range(1, quota + 1):
                perm = line[ply]
                assert lis(perm) <= a - 2 and lds(perm) <= d - 2, (a, d, ply)
            final = line[-1]
            assert lis(final) >= a or lds(final) >= d


def full_expansion_types(a: int, d: int) -> dict:
    """Referee for the near-terminal cutoff: every reachable pattern is
    expanded, and a terminal child counts as a winning move."""
    symmetric = a == d
    memo: dict = {}

    def value(perm) -> int:
        canon = min(_symmetry_variants(perm, symmetric))
        if canon in memo:
            return memo[canon]
        has_p = False
        for child in extensions(perm):
            if lis(child) >= a or lds(child) >= d or value(child) == Outcome.P:
                has_p = True
                break
        memo[canon] = Outcome.N if has_p else Outcome.P
        return memo[canon]

    value(())
    return memo


def full_expansion_line(a: int, d: int) -> list:
    """principal_variation read off the full-expansion memo."""
    types = full_expansion_types(a, d)
    symmetric = a == d

    def typed(perm) -> int:
        return types[min(_symmetry_variants(perm, symmetric))]

    def terminal(perm) -> bool:
        return lis(perm) >= a or lds(perm) >= d

    def suicidal(child) -> bool:
        return not terminal(child) and (lis(child) >= a - 1 or lds(child) >= d - 1)

    line = [()]
    current = ()
    while not terminal(current):
        children = extensions(current)
        if typed(current) == Outcome.N:
            nxt = next(c for c in children if terminal(c) or typed(c) == Outcome.P)
        else:
            safe = [c for c in children if not terminal(c) and not suicidal(c)]
            nxt = safe[0] if safe else children[0]
        line.append(nxt)
        current = nxt
    return line


REFEREE_PAIRS = [
    (a, d) for a in range(2, 10) for d in range(2, 10) if (a - 1) * (d - 1) <= 8
] + [(4, 5)]


class TestNearTerminalCutoff:
    @pytest.mark.parametrize("a,d", REFEREE_PAIRS)
    def test_memo_is_full_expansion_without_near_terminal(self, a, d):
        full = full_expansion_types(a, d)
        expected = {
            p: t for p, t in full.items() if lis(p) < a - 1 and lds(p) < d - 1
        }
        assert _solve_extended_types(a, d) == expected

    @pytest.mark.parametrize("a,d", REFEREE_PAIRS)
    def test_principal_variation_matches_full_expansion(self, a, d):
        assert principal_variation(a, d) == full_expansion_line(a, d)


class TestGreedyAtLengthEight:
    def test_part_counts_follow_opposite_statistic(self):
        # Exhaustive at length 7, seeded sample at 8, using the patience
        # lis/lds (themselves cross-checked against subsequence search).
        import random

        for perm in permutations(range(1, 8)):
            assert len(greedy_increasing_decomposition(perm).parts) == lds(perm)
        rng = random.Random(12)
        base = list(range(1, 9))
        for _ in range(500):
            rng.shuffle(base)
            perm = tuple(base)
            assert len(greedy_increasing_decomposition(perm).parts) == lds(perm)
            assert len(greedy_decreasing_decomposition(perm).parts) == lis(perm)
