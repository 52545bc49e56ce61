"""Schensted double bumping: recording sequences and colour words.

Running Schensted's bumping algorithm for ascending subsequences and its
dual for descending subsequences simultaneously yields a single increasing
"recording sequence" whose entries carry an overline (ascending frontier),
an underline (descending frontier), or both.  Colour words abstract the
marks letterwise: R = overline only, B = underline only, P = both.
"Reddish" means R or P, "bluish" means B or P; the reddish count of a
board's colour word equals its longest ascending subsequence, the bluish
count its longest descending one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

ColourWord = str

RED = "R"
BLUE = "B"
PURPLE = "P"

# Lexicographic letter order used when enumerating words.
_ALPHABET = (BLUE, PURPLE, RED)

_BIT_CODES = {RED: "01", BLUE: "10", PURPLE: "00"}

_RC_TABLE = str.maketrans("RB", "BR")


@dataclass(frozen=True)
class RecEntry:
    """One recording-sequence entry: a value plus its marks."""

    value: object
    overlined: bool
    underlined: bool

    @property
    def letter(self) -> str:
        if self.overlined and self.underlined:
            return PURPLE
        return RED if self.overlined else BLUE


@dataclass(frozen=True)
class RecordingSequence:
    """Increasing sequence of marked values maintained by double bumping."""

    entries: tuple[RecEntry, ...] = ()

    def values(self) -> tuple:
        return tuple(e.value for e in self.entries)

    def colour_word(self) -> ColourWord:
        return "".join(e.letter for e in self.entries)

    def insert(self, value) -> "RecordingSequence":
        return double_bump_step(self, value)

    def __len__(self) -> int:
        return len(self.entries)


def double_bump_step(rec: RecordingSequence, value) -> RecordingSequence:
    """Insert one value into a recording sequence.

    The value enters with both marks at its ordered position; the first
    overline strictly to its right and the first underline strictly to its
    left are removed, and entries left without any mark are dropped.
    """
    entries = list(rec.entries)
    for e in entries:
        if e.value == value:
            raise ValueError(f"value {value!r} already recorded")
    pos = 0
    while pos < len(entries) and entries[pos].value < value:
        pos += 1
    entries.insert(pos, RecEntry(value, True, True))
    for i in range(pos + 1, len(entries)):
        e = entries[i]
        if e.overlined:
            entries[i] = RecEntry(e.value, False, e.underlined)
            break
    for i in range(pos - 1, -1, -1):
        e = entries[i]
        if e.underlined:
            entries[i] = RecEntry(e.value, e.overlined, False)
            break
    return RecordingSequence(tuple(e for e in entries if e.overlined or e.underlined))


def double_bump(values: Iterable) -> RecordingSequence:
    """Left fold of double_bump_step over a sequence of distinct values."""
    values = list(values)
    if len(set(values)) != len(values):
        raise ValueError("values must be distinct")
    rec = RecordingSequence()
    for v in values:
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
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return [""]
    return [
        w
        for letters in product(_ALPHABET, repeat=length)
        if is_admissible(w := "".join(letters))
    ]


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
    return _word_text[_transitions(_wid(word))[position][1]]


def reverse_complement(word: ColourWord) -> ColourWord:
    """Order-reversal image of a word: swap R with B, then reverse."""
    return word.translate(_RC_TABLE)[::-1]


# ---------------------------------------------------------------------------
# Interned colour words: the one implementation of the move operator.
#
# Every solver that plays on colour words shares this table.  A word is
# interned once as a small int id with its (reddish, bluish) counts; the
# move operator runs once per word and caches two views of its result:
# per-gap transitions for the chain solvers and deduplicated child ids for
# the dense-order solver.  The operator maps admissible words to admissible
# words, so only words entering from outside are validated (by callers).
# Count pairs take few distinct values and are shared between words.
#
# The table is process-global and grows without bound; interning is
# check-then-act without a lock, so it must not be shared across threads.

_word_ids: dict[str, int] = {}
_word_text: list[str] = []
_word_counts: list[tuple[int, int]] = []
_word_trans: list[Optional[tuple]] = []
_word_kids: list[Optional[tuple]] = []
_count_pairs: dict[tuple[int, int], tuple[int, int]] = {}


def _intern(word: str, counts: tuple[int, int]) -> int:
    wid = len(_word_text)
    _word_ids[word] = wid
    _word_text.append(word)
    _word_counts.append(_count_pairs.setdefault(counts, counts))
    _word_trans.append(None)
    _word_kids.append(None)
    return wid


def _wid(word: str) -> int:
    """Id of a word, interning it on first sight."""
    wid = _word_ids.get(word)
    if wid is None:
        wid = _intern(word, (reddish(word), bluish(word)))
    return wid


def _moves(wid: int) -> list[tuple[int, int, int, int, int, int]]:
    """Play a card into every gap j of the word: (j, child id, child
    reddish, child bluish, rmerge, lmerge) for j = 0..len.

    The P enters at j; the first reddish letter at or after j (index nr)
    loses its red tinge and the last bluish letter before j (index lb) its
    blue tinge.  rmerge/lmerge index the left gap of a pair of adjacent gaps
    that a deleted letter merges in the vector (gaps[:j], l, r, gaps[j+1:]),
    or are -1; rmerge is applied first.
    """
    word = _word_text[wid]
    r, b = _word_counts[wid]
    ids = _word_ids
    k = len(word)
    next_red = [k] * (k + 1)
    for i in range(k - 1, -1, -1):
        next_red[i] = i if word[i] != BLUE else next_red[i + 1]
    out = []
    lb = -1
    for j in range(k + 1):
        if j and word[j - 1] != RED:
            lb = j - 1
        nr = next_red[j]
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
        cid = ids.get(child)
        if cid is None:
            cid = _intern(child, (cr, cb))
        out.append((j, cid, cr, cb, rmerge, lmerge))
    return out


def _transitions(wid: int) -> tuple:
    """Chain view: the per-gap move tuples of _moves, cached."""
    trans = _word_trans[wid]
    if trans is None:
        trans = _word_trans[wid] = tuple(_moves(wid))
    return trans


def _child_ids(wid: int) -> tuple[int, ...]:
    """Dense-order view: distinct child ids in gap order, cached."""
    kids = _word_kids[wid]
    if kids is None:
        kids = _word_kids[wid] = tuple(dict.fromkeys(m[1] for m in _moves(wid)))
    return kids
