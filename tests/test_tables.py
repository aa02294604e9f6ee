"""Text and CSV rendering of tables: cell formats, alignment, empty tables and malformed rows."""

import io
import math

import pytest

from griddetect.tables import Table, format_cell, render, render_csv, render_text

MIXED = Table(
    title="mixed",
    columns=("x", "label", "flag", "n"),
    cells=(
        [0.123456789, -math.nan, math.inf],
        ["center", "edge ", "c"],
        [True, False, True],
        [3, 12, -1],
    ),
)


def rendered(renderer, table):
    out = io.StringIO()
    renderer(table, out)
    return out.getvalue()


def test_cell_formats():
    assert [format_cell(v) for v in (1234567.0, 1e-7, -0.0, math.nan, -math.nan, -math.inf, True, 7, "a")] == [
        "1.23457e+06", "1e-07", "-0", "nan", "nan", "-inf", "true", "7", "a",
    ]


def test_text_columns_right_aligned_under_left_aligned_names():
    assert rendered(render_text, MIXED) == (
        "# mixed\n"
        "x         label   flag   n\n"
        "--------  ------  -----  --\n"
        "0.123457  center   true   3\n"
        "     nan   edge   false  12\n"
        "     inf       c   true  -1\n"
    )


def test_csv_rows_carry_the_title():
    assert rendered(render_csv, MIXED) == (
        "table,x,label,flag,n\n"
        "mixed,0.123457,center,true,3\n"
        "mixed,nan,edge ,false,12\n"
        "mixed,inf,c,true,-1\n"
    )


def test_empty_table():
    table = Table.from_rows("none", ("value", "p"), [])
    assert rendered(render_text, table) == "# none\nvalue  p\n-----  -\n"
    assert rendered(render_csv, table) == "table,value,p\n"


def test_rows_and_columns_build_the_same_table():
    rows = [(0.123456789, "center", True, 3), (-math.nan, "edge ", False, 12), (math.inf, "c", True, -1)]
    table = Table.from_rows("mixed", MIXED.columns, rows)
    for renderer in (render_text, render_csv):
        assert rendered(renderer, table) == rendered(renderer, MIXED)


def test_render_dispatches_on_format():
    for fmt, renderer in (("text", render_text), ("csv", render_csv)):
        out = io.StringIO()
        render(MIXED, fmt, out)
        assert out.getvalue() == rendered(renderer, MIXED)
    with pytest.raises(ValueError, match="format"):
        render(MIXED, "html", io.StringIO())


@pytest.mark.parametrize("rows", [
    [(1, 2), (3,)],  # ragged
    [(1, 2), (3, 4, 5)],  # ragged, the long row last
    [(1, 2, 3)],  # one cell too many in every row
    [(1,)],  # one cell too few in every row
], ids=["short-row", "long-row", "too-wide", "too-narrow"])
def test_rows_of_the_wrong_width_are_refused(rows):
    with pytest.raises(ValueError, match="cells for 2 columns"):
        Table.from_rows("bad", ("a", "b"), rows)


@pytest.mark.parametrize("columns,cells", [
    (("a", "b"), ([1, 2], [3])),  # columns of unequal length
    (("a", "b"), ([1, 2],)),  # a name without cells
    (("a",), ([1], [2])),  # cells without a name
    ((), ()),  # no column at all
], ids=["unequal", "missing-column", "extra-column", "empty"])
def test_malformed_columns_are_refused(columns, cells):
    with pytest.raises(ValueError, match="column names"):
        Table("bad", columns, cells)
