"""Text and CSV rendering of tables: cell formats, alignment and empty tables."""

import math

from griddetect.tables import Table, format_cell, render_csv, render_text

MIXED = Table(
    title="mixed",
    columns=("x", "label", "flag", "n"),
    rows=(
        (0.123456789, "center", True, 3),
        (-math.nan, "edge ", False, 12),
        (math.inf, "c", True, -1),
    ),
)


def test_cell_formats():
    assert [format_cell(v) for v in (1234567.0, 1e-7, -0.0, math.nan, -math.nan, -math.inf, True, 7, "a")] == [
        "1.23457e+06", "1e-07", "-0", "nan", "nan", "-inf", "true", "7", "a",
    ]


def test_text_columns_right_aligned_under_left_aligned_names():
    assert render_text(MIXED) == (
        "# mixed\n"
        "x         label   flag   n\n"
        "--------  ------  -----  --\n"
        "0.123457  center   true   3\n"
        "     nan   edge   false  12\n"
        "     inf       c   true  -1\n"
    )


def test_csv_rows_carry_the_title():
    assert render_csv(MIXED) == (
        "table,x,label,flag,n\n"
        "mixed,0.123457,center,true,3\n"
        "mixed,nan,edge ,false,12\n"
        "mixed,inf,c,true,-1\n"
    )


def test_empty_table():
    table = Table(title="none", columns=("value", "p"), rows=())
    assert render_text(table) == "# none\nvalue  p\n-----  -\n"
    assert render_csv(table) == "table,value,p\n"
