"""Plain table container with aligned-text and CSV rendering."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

__all__ = ["Table", "format_cell", "render_text", "render_csv", "render"]


@dataclass(frozen=True)
class Table:
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.title!r}: row has {len(row)} cells for {len(self.columns)} columns"
                )


def format_cell(value: object) -> str:
    """Stable cell formatting: floats at 6 significant digits, bools lowercase."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)


def render_text(table: Table) -> str:
    cells = [list(table.columns)] + [[format_cell(v) for v in row] for row in table.rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(table.columns))]
    lines = [f"# {table.title}"]
    lines.append("  ".join(name.ljust(w) for name, w in zip(cells[0], widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(table: Table) -> str:
    """The table as CSV; a leading ``table`` column holds its title on every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table"] + list(table.columns))
    for row in table.rows:
        writer.writerow([table.title] + [format_cell(v) for v in row])
    return buf.getvalue()


def render(table: Table, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(table)
    if fmt == "text":
        return render_text(table)
    raise ValueError(f"unknown output format {fmt!r}")
