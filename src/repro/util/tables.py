"""Plain-text table rendering used by every benchmark harness.

The paper reports results as tables and figure series; our benchmark
scripts print the same rows through :class:`Table` so the regenerated
output is directly comparable line-by-line with the paper's tables in
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_seconds(seconds: float) -> str:
    """Human-readable duration (``0.00231 -> '2.31 ms'``)."""
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    if seconds == 0:
        return "0 s"
    if seconds < 1e-6:
        return f"{seconds * 1e9:.3g} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3g} ms"
    if seconds < 120:
        return f"{seconds:.3g} s"
    if seconds < 7200:
        return f"{seconds / 60:.3g} min"
    return f"{seconds / 3600:.3g} h"


class Table:
    """Minimal monospace table: add rows, then ``str(table)``.

    Column widths auto-size; numeric cells are right-aligned.  This is
    deliberately dependency-free so benchmark output works in any
    terminal or log file.
    """

    def __init__(self, columns: Sequence[str], title: Optional[str] = None):
        if not columns:
            raise ValueError("table needs at least one column")
        self.title = title
        self.columns = [str(c) for c in columns]
        self.rows: List[List[str]] = []
        self._numeric = [True] * len(self.columns)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        rendered = []
        for i, cell in enumerate(cells):
            if isinstance(cell, float):
                rendered.append(f"{cell:.4g}")
            else:
                rendered.append(str(cell))
                if not _looks_numeric(rendered[-1]):
                    self._numeric[i] = False
        self.rows.append(rendered)

    def __str__(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            cells = []
            for i, (cell, w) in enumerate(zip(row, widths)):
                cells.append(cell.rjust(w) if self._numeric[i] else cell.ljust(w))
            lines.append(" | ".join(cells))
        return "\n".join(lines)


def _looks_numeric(text: str) -> bool:
    try:
        float(text.replace("X", "").replace("%", ""))
        return True
    except ValueError:
        return False
