"""Golden outcome tables used as regression targets.

The misere grid covers the sixteen published (a, d) parameter rows for
deck sizes 1..20; the normal-play rows combine the d = 2 and d = 3 closed
forms with the individually published values (4,4), (5,4), (6,4), (7,4)
and (5,5).  A '?' marks deck sizes with no published value.

These embedded rows and closed forms are the only shipped golden table.
An outside table in the CSV layout (``a,d,n,mode,outcome``) can stand in
for them (``verify --golden FILE``); a row of it that does not parse is an
error naming the file and line.  ``emit_table`` renders rows in the
published layout.
"""

from __future__ import annotations

import csv
from typing import Iterable

from .chain_solver import closed_form_d2, closed_form_d3
from .order_core import Mode, Outcome

MAX_N = 20

TableRow = tuple[int, int, int, Mode, Outcome]

# Misere winner, n = 1..20.
MISERE_ROWS: dict[tuple[int, int], str] = {
    (3, 3): "DDDNNNNNNNNNNNNNNNNN",
    (4, 3): "DDDDPNNNNNNNNNNNNNNN",
    (5, 3): "DDDDDNPPPNNNNNNNNNNN",
    (6, 3): "DDDDDDDNNNNNNNNNNNNN",
    (7, 3): "DDDDDDDDPNNNNNNNNNNN",
    (8, 3): "DDDDDDDDDNPPNNNNNNNN",
    (9, 3): "DDDDDDDDDDDNNNNNNNNN",
    (4, 4): "DDDDDNPNNNNNNNNNNNNN",
    (5, 4): "DDDDDDDNNNPNNNNNNNNN",
    (6, 4): "DDDDDDDDDNPNPPNNNNNN",
    (7, 4): "DDDDDDDDDNPNNNNNNNNN",
    (8, 4): "DDDDDDDDDDDNNNDNNNNP",
    (9, 4): "DDDDDDDDDDDDDNPNPNND",
    (5, 5): "DDDDDDDDDDDNPNPNNNNN",
    (6, 5): "DDDDDDDDDDDNPNNNPNNN",
    (7, 5): "DDDDDDDDDDDNDNPNPNNP",
}

# Normal play, n = 1..20; '?' where no value was published.
NORMAL_ROWS: dict[tuple[int, int], str] = {
    (4, 4): "????????NNNNNNNNNNNN",
    (5, 4): "DDDDDDDDDDNNNNNNNNNN",
    (6, 4): "DDDDDDDDDDDDDPPNNNNN",
    (7, 4): "DDDDDDDDDDDDDDNNPNNN",
    (5, 5): "DDDDDDDDDDDDDDNNNNNN",
}

NORMAL_CLOSED_FORM_A_MAX = 7


def golden_cases(mode: Mode, max_n: int = MAX_N) -> list[tuple[int, int, int, Outcome]]:
    """All golden cases of a mode with n <= min(max_n, MAX_N), as
    (a, d, n, expected)."""
    deck_sizes = range(1, min(max_n, MAX_N) + 1)
    if mode is Mode.MISERE:
        return [
            (a, d, n, Outcome(row[n - 1]))
            for (a, d), row in sorted(MISERE_ROWS.items())
            for n in deck_sizes
        ]
    cases = [
        (a, 2, n, closed_form_d2(a, n))
        for a in range(2, NORMAL_CLOSED_FORM_A_MAX + 1)
        for n in deck_sizes
    ]
    cases += [
        (a, 3, n, closed_form_d3(a, n))
        for a in range(3, NORMAL_CLOSED_FORM_A_MAX + 1)
        for n in deck_sizes
    ]
    cases += [
        (a, d, n, Outcome(row[n - 1]))
        for (a, d), row in sorted(NORMAL_ROWS.items())
        for n in deck_sizes
        if row[n - 1] != "?"
    ]
    return cases


def load_csv_rows(text: str, source: str = "<golden csv>") -> list[TableRow]:
    """Parse golden CSV with columns a,d,n,mode,outcome.

    A malformed row raises ValueError naming the source and line.
    """
    rows = []
    reader = csv.DictReader(text.splitlines())
    for rec in reader:
        try:
            rows.append(
                (
                    int(rec["a"]),
                    int(rec["d"]),
                    int(rec["n"]),
                    Mode(rec["mode"]),
                    Outcome(rec["outcome"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{source}, line {reader.line_num}: bad golden row {rec!r}"
            ) from exc
    return rows


def dump_csv_rows(rows: Iterable[TableRow]) -> str:
    lines = ["a,d,n,mode,outcome"]
    for a, d, n, mode, outcome in rows:
        lines.append(f"{a},{d},{n},{mode.value},{outcome.value}")
    return "\n".join(lines) + "\n"


def emit_table(rows: Iterable[TableRow]) -> str:
    """Render outcome rows in the published row layout.

    Deck sizes are grouped in fives per (a, d) row; holes in a row render
    as '?' and are called out in a trailing warning line.
    """
    by_row: dict[tuple[int, int, Mode], dict[int, Outcome]] = {}
    for a, d, n, m, o in rows:
        by_row.setdefault((a, d, m), {})[n] = o
    lines = []
    gaps = []
    for (a, d, m) in sorted(by_row, key=lambda k: (k[2].value, k[0], k[1])):
        outcomes = by_row[(a, d, m)]
        n_max = max(outcomes)
        letters = []
        for n in range(1, n_max + 1):
            if n in outcomes:
                letters.append(outcomes[n].value)
            else:
                letters.append("?")
                gaps.append(f"a={a} d={d} mode={m.value} n={n}")
        grouped = " ".join(
            "".join(letters[i : i + 5]) for i in range(0, len(letters), 5)
        )
        lines.append(f"{a} {d} {m.value:7s} {grouped}")
    if gaps:
        lines.append("warning: table incomplete, missing " + ", ".join(gaps))
    return "\n".join(lines)
