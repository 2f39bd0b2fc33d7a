"""Text tables: what the CLI prints and each experiment saves.

Every experiment prints a table with the paper's figure next to the
measured one so the shape comparison is inspectable in its saved
``benchmarks/out/<name>.txt``; EXPERIMENTS.md records the same rows.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float, None]


def _fmt(cell: Cell) -> str:
    if cell is None:
        s = "—"
    elif isinstance(cell, float):
        if cell != cell:  # NaN
            s = "—"
        elif abs(cell) >= 1000 or (cell and abs(cell) < 0.01):
            s = f"{cell:.3g}"
        else:
            s = f"{cell:.2f}".rstrip("0").rstrip(".")
    else:
        s = str(cell)
    return s


class Table:
    """A fixed-column text table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells for {len(self.columns)} columns"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "  "
        lines = [self.title, "=" * len(self.title)]
        lines.append(sep.join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep.join("-" * w for w in widths))
        for row in self.rows:
            lines.append(sep.join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())
        print()


def paper_vs_measured(title: str, rows: Iterable[Sequence[Cell]]) -> Table:
    """A table of (quantity, paper, measured) rows."""
    t = Table(title, ["quantity", "paper", "measured"])
    for row in rows:
        t.add(*row)
    return t
