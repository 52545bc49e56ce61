"""Walk through double bumping, colour words and their combinatorics.

Run:  python demos/bumping_walkthrough.py
"""

from monoseq import (
    RecordingSequence,
    binary_encode,
    bluish,
    colour_of,
    double_bump_step,
    enumerate_admissible,
    insert_purple,
    reddish,
)

print("Double bumping the sequence 5 1 4 2 6 3:")
rec = RecordingSequence()
for value in [5, 1, 4, 2, 6, 3]:
    rec = double_bump_step(rec, value)
    marks = " ".join(f"{v}:{c}" for v, c in zip(rec.values(), rec.colour_word()))
    print(f"  play {value} -> {marks:24s} colour {rec.colour_word()}")

word = rec.colour_word()
print(f"\nFinal colour word {word}: {reddish(word)} reddish letters = longest")
print(f"ascending run, {bluish(word)} bluish letters = longest descending run.")

print("\nDifferent boards can share a colour word:")
for seq in ([2, 3, 1], [2, 1, 3], [3, 1, 2], [2, 1, 4, 3]):
    print(f"  {seq} -> {colour_of(seq)}")

print("\nAdmissible words are counted by alternate Fibonacci numbers:")
for k in range(1, 7):
    words = enumerate_admissible(k)
    sample = " ".join(words[:5]) + (" ..." if len(words) > 5 else "")
    print(f"  length {k}: {len(words):4d}   {sample}")

print("\nOne move = insert a purple and retint the neighbours:")
for pos in range(3):
    print(f"  PP at gap {pos} -> {insert_purple('PP', pos)}")

print("\nThe binary encoding R->01 B->10 P->00 never produces '11':")
for w in ["RPB", "RRPBB", "PPP"]:
    print(f"  {w} -> {binary_encode(w)}")
