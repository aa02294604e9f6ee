"""Tables held by column, written row by row into a text stream as aligned text or CSV.

The renderers write each row as they format it; aligned text keeps the
formatted cells only to find each column's width first.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence, TextIO

__all__ = ["Table", "format_cell", "render_text", "render_csv", "render"]


@dataclass(frozen=True)
class Table:
    """A titled table of at least one column: ``cells[j]`` holds the values of column ``columns[j]``.

    Every column holds the same number of cells. Values already in columns
    are handed over as they are; rows go through :meth:`from_rows`.
    """

    title: str
    columns: tuple[str, ...]
    cells: tuple[Sequence[object], ...]

    def __post_init__(self) -> None:
        lengths = sorted(set(map(len, self.cells)))
        if not self.columns or len(self.cells) != len(self.columns) or len(lengths) > 1:
            raise ValueError(
                f"table {self.title!r}: {len(self.cells)} columns of {lengths} cells "
                f"for {len(self.columns)} column names"
            )

    @classmethod
    def from_rows(cls, title: str, columns: tuple[str, ...], rows: Sequence[Sequence[object]]) -> "Table":
        """The table of these rows; a row without one cell per column raises ValueError."""
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"table {title!r}: row has {len(row)} cells for {len(columns)} columns")
        return cls(title, columns, tuple(zip(*rows)) if rows else ((),) * len(columns))


def format_cell(value: object) -> str:
    """Stable cell formatting: floats at 6 significant digits (nan of either sign as "nan"), bools lowercase."""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_text(table: Table, out: TextIO) -> None:
    """Write the table as a title line, left-aligned names, a rule and right-aligned cells."""
    columns = [list(map(format_cell, cells)) for cells in table.cells]
    widths = [max(len(name), max(map(len, cells), default=0)) for name, cells in zip(table.columns, columns)]
    out.write(f"# {table.title}\n")
    out.write("  ".join(map(str.ljust, table.columns, widths)).rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    out.writelines("  ".join(map(str.rjust, row, widths)).rstrip() + "\n" for row in zip(*columns))


def render_csv(table: Table, out: TextIO) -> None:
    """Write the table as CSV; a leading ``table`` column holds its title on every row."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["table", *table.columns])
    writer.writerows(zip(repeat(table.title), *(map(format_cell, cells) for cells in table.cells)))


def render(table: Table, fmt: str, out: TextIO) -> None:
    """Write the table to ``out`` in ``fmt``, "text" or "csv"."""
    if fmt == "csv":
        render_csv(table, out)
    elif fmt == "text":
        render_text(table, out)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
