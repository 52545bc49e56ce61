"""Golden outcome tables used as regression targets.

The misere grid covers the sixteen published (a, d) parameter rows for
deck sizes 1..20; the normal-play rows combine the d = 2 and d = 3 closed
forms with the individually published values (4,4), (5,4), (6,4), (7,4)
and (5,5).  A '?' marks deck sizes with no published value.

The same data ships as CSV files (``monoseq/data``); verification prefers
the files so tables can be extended without code changes, and falls back
to these embedded copies only when a file is missing.  A file that is
present but does not parse is an error, never silently replaced.
"""

from __future__ import annotations

import csv
from importlib import resources
from typing import Iterable, Optional

from .chain_solver import closed_form_d2, closed_form_d3
from .order_core import Mode, Outcome

MAX_N = 20

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


def misere_expected(a: int, d: int, n: int) -> Outcome:
    return Outcome(MISERE_ROWS[(a, d)][n - 1])


def normal_expected(a: int, d: int, n: int) -> Optional[Outcome]:
    """Published normal-play value, or None where none exists."""
    if d == 2 and 2 <= a <= NORMAL_CLOSED_FORM_A_MAX:
        return closed_form_d2(a, n)
    if d == 3 and 3 <= a <= NORMAL_CLOSED_FORM_A_MAX:
        return closed_form_d3(a, n)
    row = NORMAL_ROWS.get((a, d))
    if row is None:
        return None
    ch = row[n - 1]
    return None if ch == "?" else Outcome(ch)


def embedded_cases(mode: Mode, max_n: int = MAX_N) -> list[tuple[int, int, int, Outcome]]:
    """All embedded golden cases as (a, d, n, expected)."""
    cases = []
    if mode is Mode.MISERE:
        for (a, d), row in sorted(MISERE_ROWS.items()):
            for n in range(1, min(max_n, len(row)) + 1):
                cases.append((a, d, n, Outcome(row[n - 1])))
        return cases
    for a in range(2, NORMAL_CLOSED_FORM_A_MAX + 1):
        for n in range(1, max_n + 1):
            cases.append((a, 2, n, closed_form_d2(a, n)))
    for a in range(3, NORMAL_CLOSED_FORM_A_MAX + 1):
        for n in range(1, max_n + 1):
            cases.append((a, 3, n, closed_form_d3(a, n)))
    for (a, d), row in sorted(NORMAL_ROWS.items()):
        for n in range(1, min(max_n, len(row)) + 1):
            if row[n - 1] != "?":
                cases.append((a, d, n, Outcome(row[n - 1])))
    return cases


_DATA_FILES = {Mode.MISERE: "misere_table.csv", Mode.NORMAL: "normal_results.csv"}


def load_csv_rows(
    text: str, source: str = "<golden csv>"
) -> list[tuple[int, int, int, Mode, Outcome]]:
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


def dump_csv_rows(rows: Iterable[tuple[int, int, int, Mode, Outcome]]) -> str:
    lines = ["a,d,n,mode,outcome"]
    for a, d, n, mode, outcome in rows:
        lines.append(f"{a},{d},{n},{mode.value},{outcome.value}")
    return "\n".join(lines) + "\n"


def _data_file(mode: Mode):
    return resources.files("monoseq").joinpath("data", _DATA_FILES[mode])


def golden_cases(mode: Mode, max_n: int = MAX_N) -> list[tuple[int, int, int, Outcome]]:
    """Golden cases for a mode, preferring the shipped CSV files.

    Falls back to the embedded rows only when the file is missing; a
    corrupt file raises ValueError naming the file and line.
    """
    path = _data_file(mode)
    try:
        text = path.read_text()
    except OSError:
        return embedded_cases(mode, max_n)
    return [
        (a, d, n, outcome)
        for a, d, n, m, outcome in load_csv_rows(text, str(path))
        if m is mode and n <= max_n
    ]
