"""Plain table container with aligned-text and CSV rendering."""

from __future__ import annotations

import csv
import io
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
    """Stable cell formatting: floats at 6 significant digits (nan of either sign as "nan"), bools lowercase."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _formatted_columns(table: Table) -> list[list[str]]:
    """Each column's cells, formatted."""
    columns = zip(*table.rows) if table.rows else [()] * len(table.columns)
    return [list(map(format_cell, values)) for values in columns]


def render_text(table: Table) -> str:
    columns = _formatted_columns(table)
    widths = [max(map(len, (name, *cells))) for name, cells in zip(table.columns, columns)]
    lines = [f"# {table.title}"]
    lines.append("  ".join(name.ljust(w) for name, w in zip(table.columns, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    padded = [[v.rjust(w) for v in cells] for cells, w in zip(columns, widths)]
    lines.extend("  ".join(row).rstrip() for row in zip(*padded))
    return "\n".join(lines) + "\n"


def render_csv(table: Table) -> str:
    """The table as CSV; a leading ``table`` column holds its title on every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table"] + list(table.columns))
    writer.writerows(zip([table.title] * len(table.rows), *_formatted_columns(table)))
    return buf.getvalue()


def render(table: Table, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(table)
    if fmt == "text":
        return render_text(table)
    raise ValueError(f"unknown output format {fmt!r}")
