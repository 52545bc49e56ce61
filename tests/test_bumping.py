"""Double bumping, colour words, admissibility and the insertion operator."""

from __future__ import annotations

from itertools import permutations, product

import pytest

from monoseq import (
    GameParams,
    RecordingSequence,
    binary_encode,
    bluish,
    colour_of,
    double_bump,
    double_bump_step,
    enumerate_admissible,
    insert_purple,
    is_admissible,
    reddish,
    reverse_complement,
    solve_q,
)
from monoseq.bumping import _transitions, _wid, _word_counts, _word_text

from conftest import brute_lds, brute_lis


class TestDoubleBumpStep:
    def test_first_insert_is_purple(self):
        rec = double_bump_step(RecordingSequence(), 5)
        assert rec.colour_word() == "P"
        assert rec.values() == (5,)

    def test_second_insert_below(self):
        # After 5 then 1: 1 keeps both marks, 5 keeps only the underline.
        rec = double_bump([5, 1])
        assert rec.colour_word() == "PB"
        assert rec.values() == (1, 5)

    def test_worked_example_final_step(self):
        rec = double_bump([5, 1, 4, 2, 6])
        assert rec.colour_word() == "RPBP"
        assert rec.values() == (1, 2, 4, 6)
        rec = double_bump_step(rec, 3)
        assert rec.colour_word() == "RRPBB"
        assert rec.values() == (1, 2, 3, 4, 6)

    def test_duplicate_value_rejected(self):
        rec = double_bump([2, 7])
        with pytest.raises(ValueError):
            double_bump_step(rec, 7)


class TestDoubleBump:
    def test_worked_example_trace(self):
        expected = ["P", "PB", "RPB", "RPBB", "RPBP", "RRPBB"]
        values = [5, 1, 4, 2, 6, 3]
        rec = RecordingSequence()
        for v, want in zip(values, expected):
            rec = rec.insert(v)
            assert rec.colour_word() == want

    @pytest.mark.parametrize(
        "seq,word",
        [
            ([2, 3, 1], "PP"),
            ([2, 1, 3], "PP"),
            ([3, 1, 2], "RPB"),
            ([2, 1, 4, 3], "RPB"),
        ],
    )
    def test_distinct_boards_same_colour(self, seq, word):
        assert colour_of(seq) == word

    def test_increasing_run_is_red_prefix(self):
        for k in range(1, 9):
            assert colour_of(range(1, k + 1)) == "R" * (k - 1) + "P"

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            double_bump([1, 2, 1])

    def test_counts_match_subsequence_search(self):
        # Reddish = longest ascending, bluish = longest descending, and the
        # result is always admissible; exhaustive up to length 6, sampled
        # at length 8 alongside the exhaustive run in the acceptance suite.
        for m in range(0, 7):
            for perm in permutations(range(1, m + 1)):
                word = colour_of(perm)
                assert reddish(word) == brute_lis(perm)
                assert bluish(word) == brute_lds(perm)
                assert is_admissible(word)

    def test_schensted_frontier_characterisation(self):
        # The j-th overlined value is the least maximum over ascending
        # subsequences of length j; dually the j-th underlined value from
        # the top is the greatest minimum over descending ones.
        from itertools import combinations

        for perm in permutations(range(1, 7)):
            rec = double_bump(perm)
            over = [e.value for e in rec.entries if e.overlined]
            under = [e.value for e in rec.entries if e.underlined]
            for j, value in enumerate(over, start=1):
                least_max = min(
                    max(c)
                    for c in combinations(perm, j)
                    if all(x < y for x, y in zip(c, c[1:]))
                )
                assert value == least_max
            for j, value in enumerate(reversed(under), start=1):
                greatest_min = max(
                    min(c)
                    for c in combinations(perm, j)
                    if all(x > y for x, y in zip(c, c[1:]))
                )
                assert value == greatest_min


class TestAdmissibility:
    @pytest.mark.parametrize(
        "word,ok",
        [
            ("RPB", True),
            ("RB", False),
            ("", True),
            ("P", True),
            ("BP", False),
            ("PR", False),
            ("RR", False),
        ],
    )
    def test_examples(self, word, ok):
        assert is_admissible(word) is ok

    def test_rejects_unknown_letters(self):
        with pytest.raises(ValueError):
            is_admissible("RXB")

    def test_counts_are_alternate_fibonacci(self):
        assert [len(enumerate_admissible(k)) for k in range(1, 7)] == [1, 3, 8, 21, 55, 144]

    def test_enumeration_matches_filtering(self):
        for k in range(0, 7):
            brute = sorted(
                "".join(w)
                for w in product("BPR", repeat=k)
                if is_admissible("".join(w))
            )
            assert enumerate_admissible(k) == brute

    @pytest.mark.parametrize("k,words", [(0, [""]), (1, ["P"]), (2, ["PB", "PP", "RP"])])
    def test_small_enumerations(self, k, words):
        assert enumerate_admissible(k) == words

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            enumerate_admissible(-1)


class TestBinaryEncode:
    @pytest.mark.parametrize("word,bits", [("RPB", "010010"), ("", ""), ("PP", "0000")])
    def test_examples(self, word, bits):
        assert binary_encode(word) == bits

    def test_injective_without_adjacent_ones(self):
        seen = {}
        for k in range(0, 7):
            for word in enumerate_admissible(k):
                bits = binary_encode(word)
                assert "11" not in bits
                assert bits not in seen, f"{word} and {seen[bits]} collide"
                seen[bits] = word


class TestInsertPurple:
    def test_children_of_p(self):
        assert insert_purple("P", 0) == "PB"
        assert insert_purple("P", 1) == "RP"

    def test_empty_word(self):
        assert insert_purple("", 0) == "P"

    def test_children_of_pp(self):
        children = {insert_purple("PP", i) for i in range(3)}
        assert children == {"PBP", "RPB", "PRP"}

    def test_inadmissible_input_rejected(self):
        with pytest.raises(ValueError):
            insert_purple("RB", 0)
        with pytest.raises(ValueError):
            insert_purple("P", 5)

    def test_length_changes_by_at_most_one(self):
        for k in range(0, 5):
            for word in enumerate_admissible(k):
                for i in range(len(word) + 1):
                    child = insert_purple(word, i)
                    assert len(child) - len(word) in (-1, 0, 1)
                    assert is_admissible(child)

    def test_every_short_admissible_word_reachable(self):
        # BFS from the empty word realizes every admissible word of
        # length <= 4 (the sufficiency half of the characterisation).
        reached = {""}
        frontier = [""]
        for _ in range(8):
            nxt = []
            for word in frontier:
                for i in range(len(word) + 1):
                    child = insert_purple(word, i)
                    if len(child) <= 4 and child not in reached:
                        reached.add(child)
                        nxt.append(child)
            frontier = nxt
        admissible = {w for k in range(0, 5) for w in enumerate_admissible(k)}
        assert admissible <= reached


def reference_move(word, j):
    """Letter-by-letter move operator: (child, rmerge, lmerge).

    rmerge/lmerge are the list indices of the letters deleted on the right
    and on the left (-1 when the letter is retinted instead or absent).
    """
    letters = list(word)
    letters.insert(j, "P")
    rmerge = -1
    for t in range(j + 1, len(letters)):
        ch = letters[t]
        if ch != "B":
            if ch == "R":
                del letters[t]
                rmerge = t
            else:
                letters[t] = "B"
            break
    lmerge = -1
    for s in range(j - 1, -1, -1):
        ch = letters[s]
        if ch != "R":
            if ch == "B":
                del letters[s]
                lmerge = s
            else:
                letters[s] = "R"
            break
    return "".join(letters), rmerge, lmerge


class TestWordTable:
    def test_matches_letter_loop_reference(self):
        for k in range(0, 9):
            for word in enumerate_admissible(k):
                moves = _transitions(_wid(word))
                assert [m[0] for m in moves] == list(range(k + 1))
                for j, cid, cr, cb, rmerge, lmerge in moves:
                    child, want_r, want_l = reference_move(word, j)
                    assert _word_text[cid] == child
                    assert _word_counts[cid] == (cr, cb) == (reddish(child), bluish(child))
                    assert (rmerge, lmerge) == (want_r, want_l)
                    assert insert_purple(word, j) == child

    def test_interned_words_stay_admissible(self):
        # The move operator is closed on admissible words, which is why
        # interned children are never re-checked.
        solve_q(GameParams(8, 5))
        assert all(is_admissible(w) for w in _word_text)
        for wid, word in enumerate(_word_text):
            assert _word_counts[wid] == (reddish(word), bluish(word))


class TestWordPacking:
    def test_reverse_complement(self):
        assert reverse_complement("RPB") == "RPB"
        assert reverse_complement("RRPBB") == "RRPBB"
        assert reverse_complement("RP") == "PB"
        assert reverse_complement("") == ""


class TestLongerPermutations:
    def test_counts_sampled_at_length_seven_and_eight(self):
        # Exhaustive length 7, seeded sample at length 8 (the exhaustive
        # length-8 sweep with the subsequence-search oracle is slow).
        import random

        for perm in permutations(range(1, 8)):
            word = colour_of(perm)
            assert is_admissible(word)
        rng = random.Random(41)
        base = list(range(1, 9))
        for _ in range(400):
            perm = base[:]
            rng.shuffle(perm)
            word = colour_of(perm)
            assert reddish(word) == brute_lis(perm)
            assert bluish(word) == brute_lds(perm)
            assert is_admissible(word)
