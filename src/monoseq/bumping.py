"""Schensted double bumping: recording sequences and colour words.

Running Schensted's bumping algorithm for ascending subsequences and its
dual for descending subsequences simultaneously yields a single increasing
"recording sequence".  Each of its values lies on the ascending frontier
(overlined), the descending one (underlined) or both, and its colour word
says which, letter by letter: R = overline only, B = underline only,
P = both.  A recording sequence is just its values and its colour word,
and a bump steps the word by _play, the move operator the solvers share.
"Reddish" means R or P, "bluish" means B or P; the reddish count of a
board's colour word equals its longest ascending subsequence, the bluish
count its longest descending one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import CHECK_EVERY, check_memory

ColourWord = str

RED = "R"
BLUE = "B"
PURPLE = "P"

# Lexicographic letter order used when enumerating words.
_ALPHABET = (BLUE, PURPLE, RED)

_BIT_CODES = {RED: "01", BLUE: "10", PURPLE: "00"}

_RC_TABLE = str.maketrans("RB", "BR")


@dataclass(frozen=True)
class RecordingSequence:
    """Increasing sequence of values maintained by double bumping, tinted
    letter by letter by its colour word."""

    _values: tuple = ()
    _word: ColourWord = ""

    def values(self) -> tuple:
        return self._values

    def colour_word(self) -> ColourWord:
        return self._word


def double_bump_step(rec: RecordingSequence, value) -> RecordingSequence:
    """Insert one value into a recording sequence.

    The value enters at its ordered position j, the colour word steps by
    _play at gap j, and the values of the letters that step deletes go
    with them.
    """
    values = list(rec._values)
    j = bisect_left(values, value)
    if j < len(values) and values[j] == value:
        raise ValueError(f"value {value!r} already recorded")
    cid, rmerge, lmerge = _play(_wid(rec._word), j)
    values.insert(j, value)
    for i in (rmerge, lmerge):
        if i >= 0:
            del values[i]
    return RecordingSequence(tuple(values), _word_text[cid])


def _distinct(values: Iterable) -> list:
    """The values as a list, once none of them repeats."""
    values = list(values)
    # double_bump_step sees only the recorded values, not the dropped ones.
    if len(set(values)) != len(values):
        raise ValueError("values must be distinct")
    return values


def double_bump(values: Iterable) -> RecordingSequence:
    """Left fold of double_bump_step over a sequence of distinct values."""
    rec = RecordingSequence()
    for v in _distinct(values):
        rec = double_bump_step(rec, v)
    return rec


def colour_of(values: Iterable) -> ColourWord:
    """Colour word of a sequence of distinct values."""
    return double_bump(values).colour_word()


def reddish(word: ColourWord) -> int:
    """Number of R or P letters (= longest ascending subsequence realized)."""
    return len(word) - word.count(BLUE)


def bluish(word: ColourWord) -> int:
    """Number of B or P letters (= longest descending subsequence realized)."""
    return len(word) - word.count(RED)


def _check_letters(word: ColourWord) -> None:
    for ch in word:
        if ch not in "RBP":
            raise ValueError(f"not a colour word: {word!r}")


def is_admissible(word: ColourWord) -> bool:
    """True iff the word can be produced by double bumping.

    Admissible words are the empty word together with the words that
    contain at least one P, do not begin with B, do not end with R and
    contain no RB factor.
    """
    _check_letters(word)
    if not word:
        return True
    return (
        PURPLE in word
        and not word.startswith(BLUE)
        and not word.endswith(RED)
        and "RB" not in word
    )


def enumerate_admissible(length: int) -> list[ColourWord]:
    """All admissible words of exactly the given length, in lexicographic
    order with B < P < R.  Counts follow the alternate Fibonacci numbers
    1, 3, 8, 21, 55, 144, ... for length 1, 2, 3, ...

    Words grow one letter at a time, keeping only prefixes that some
    admissible word extends: no B first or after an R, and no R last.  Such
    a word has a P, as its letters cannot all be R.  The growing list is
    checked against the memory guard like a memo.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    words = [""]
    for i in range(length):
        letters = (BLUE, PURPLE) if i == length - 1 else _ALPHABET
        grown: list[ColourWord] = []
        for w in words:
            for ch in letters:
                if ch == BLUE and (not w or w[-1] == RED):
                    continue
                grown.append(w + ch)
                if len(grown) % CHECK_EVERY == 1:
                    check_memory(grown)
        words = grown
    return words


def binary_encode(word: ColourWord) -> str:
    """Letterwise binary code R -> 01, B -> 10, P -> 00.

    On admissible words the image never contains two consecutive 1s
    (that would need an RB factor), and decoding is exact.
    """
    _check_letters(word)
    return "".join(_BIT_CODES[ch] for ch in word)


def insert_purple(word: ColourWord, position: int) -> ColourWord:
    """Colour-level move operator: the effect of playing one more card.

    A P is inserted at the given letter gap (0..len); the first reddish
    letter strictly to its right loses its red tinge (an R is deleted, a P
    becomes B) and the first bluish letter strictly to its left loses its
    blue tinge (a B is deleted, a P becomes R).
    """
    if not is_admissible(word):
        raise ValueError(f"word not admissible: {word!r}")
    if not 0 <= position <= len(word):
        raise ValueError(f"position {position} out of range for {word!r}")
    return _word_text[_play(_wid(word), position)[0]]


def reverse_complement(word: ColourWord) -> ColourWord:
    """Order-reversal image of a word: swap R with B, then reverse."""
    return word.translate(_RC_TABLE)[::-1]


# ---------------------------------------------------------------------------
# Interned colour words: the one implementation of the move operator.
#
# Every solver that plays on colour words shares this table, and so does
# double_bump_step, which interns the words a recording sequence passes
# through.  A word is interned once as a small int id with its (reddish,
# bluish) counts.  Every gap is played by _play, the one place where the
# bumping rule is written, and only the dense-order view caches its result:
# a list of child ids per word in which None marks a gap not yet built, so
# that view builds only the gaps it reaches and never one whose child
# passes its caps.  The chain solvers keep their own per-word rows and never
# play a critical gap, so they intern no terminal word.  The operator maps
# admissible words to admissible words, so only words entering from outside
# are validated (by callers).  Count pairs take few distinct values and are
# shared between words.
#
# The table is process-global and only grows, so interning checks memory
# every CHECK_EVERY words, once all four lists hold the new word; interning
# is check-then-act without a lock, so it must not be shared across threads.

_word_ids: dict[str, int] = {}
_word_text: list[str] = []
_word_counts: list[tuple[int, int]] = []
_word_kids: list[Optional[list[Optional[int]]]] = []
_count_pairs: dict[tuple[int, int], tuple[int, int]] = {}


def _intern(word: str, counts: tuple[int, int]) -> int:
    wid = len(_word_text)
    _word_ids[word] = wid
    _word_text.append(word)
    _word_counts.append(_count_pairs.setdefault(counts, counts))
    _word_kids.append(None)
    if len(_word_text) % CHECK_EVERY == 0:
        check_memory(_word_ids)
    return wid


def _wid(word: str) -> int:
    """Id of a word, interning it on first sight."""
    wid = _word_ids.get(word)
    if wid is None:
        wid = _intern(word, (reddish(word), bluish(word)))
    return wid


def _play(wid: int, j: int) -> tuple[int, int, int]:
    """Play a card into gap j of the word: (child id, rmerge, lmerge).  The
    child's counts are _word_counts[child id].

    The P enters at j; the first reddish letter at or after j (index nr, or
    the word's length if none) loses its red tinge and the last bluish
    letter before j (index lb, or -1) its blue tinge.  rmerge/lmerge index
    the left gap of a pair of adjacent gaps that a deleted letter merges in
    the vector (gaps[:j], l, r, gaps[j+1:]), or are -1; rmerge is applied
    first.  They are also the indices of the deleted letters in the word
    with the P inserted.
    """
    word = _word_text[wid]
    r, b = _word_counts[wid]
    k = len(word)
    nr = j
    while nr < k and word[nr] == BLUE:
        nr += 1
    lb = j - 1
    while lb >= 0 and word[lb] == RED:
        lb -= 1
    if nr == k:
        tail, cr, rmerge = word[j:], r + 1, -1
    elif word[nr] == RED:
        tail, cr, rmerge = word[j:nr] + word[nr + 1 :], r, nr + 1
    else:
        tail, cr, rmerge = word[j:nr] + BLUE + word[nr + 1 :], r, -1
    if lb < 0:
        head, cb, lmerge = word[:j], b + 1, -1
    elif word[lb] == BLUE:
        head, cb, lmerge = word[:lb] + word[lb + 1 : j], b, lb
    else:
        head, cb, lmerge = word[:lb] + RED + word[lb + 1 : j], b, -1
    child = head + PURPLE + tail
    cid = _word_ids.get(child)
    if cid is None:
        cid = _intern(child, (cr, cb))
    return cid, rmerge, lmerge


def _capped_child_ids(wid: int, rcap: float, bcap: float) -> Iterator[int]:
    """Dense-order view: in gap order, the child ids with fewer than rcap
    reddish and bcap bluish letters, each built when it is reached and
    cached.  Infinite caps give every child.

    The word itself must lie below both caps, so a child reaches a cap only
    by gaining a letter.  A gap adds a bluish letter exactly when every
    letter before it is R, a prefix of the gaps, and a reddish one exactly
    when every letter from it on is B, a suffix; the caps cut those off.
    """
    kids = _word_kids[wid]
    word = _word_text[wid]
    r, b = _word_counts[wid]
    k = len(word)
    if kids is None:
        kids = _word_kids[wid] = [None] * (k + 1)
    lo = k - len(word.lstrip(RED)) + 1 if b + 1 >= bcap else 0
    hi = len(word.rstrip(BLUE)) if r + 1 >= rcap else k + 1
    for j in range(lo, hi):
        cid = kids[j]
        if cid is None:
            cid = kids[j] = _play(wid, j)[0]
        yield cid
