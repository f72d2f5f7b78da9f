"""Plain-text table output for experiment results (paper-figure rows), and
the named verdicts an experiment's ``claims`` returns."""

from __future__ import annotations

import operator
from typing import Iterable, List, Sequence, Tuple

#: A verdict: the claim's name, whether it held, and the compared values.
Verdict = Tuple[str, bool, str]

_COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
            ">=": operator.ge, ">": operator.gt}


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Align columns; floats get 3 significant decimals."""

    def cell(v) -> str:
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    str_rows: List[List[str]] = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(t.ljust(w) for t, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    print(f"\n== {title} ==")
    print(format_table(headers, rows))


def claim(name: str, lhs, op: str, rhs) -> Verdict:
    """The verdict ``lhs op rhs``, both sides written out for the report."""

    def value(v) -> str:
        return f"{v:.6g}" if isinstance(v, float) else str(v)

    return name, _COMPARE[op](lhs, rhs), f"{value(lhs)} {op} {value(rhs)}"
