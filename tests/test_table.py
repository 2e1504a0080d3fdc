import pytest

from bipolarsoft import (BipolarSoftSet, CellValue, ParameterSpace, TabularForm, from_table,
                         standard_space, to_table)
from bipolarsoft.errors import DimensionMismatch, InvalidArgument, LabelMismatch
from bipolarsoft.table import render_table_csv, render_table_text, table_document

import corpus


def _pairs(row):
    return tuple(cell.pair for cell in row)


def test_cell_values():
    assert CellValue.POSITIVE.pair == (1, 0)
    assert CellValue.NEGATIVE.pair == (0, 1)
    assert CellValue.NEUTRAL.pair == (0, 0)
    assert CellValue.from_pair(0, 1) is CellValue.NEGATIVE


def test_approving_and_rejecting_pair_is_unrepresentable():
    with pytest.raises(ValueError):
        CellValue.from_pair(1, 1)


def test_to_table_reference_rows():
    table = to_table(corpus.houses_a())
    assert table.row_labels == corpus.UNIVERSE
    assert table.col_labels == corpus.space4().pairs
    assert _pairs(table.cells[0]) == corpus.TABLE_A_ROW_U1

    house = to_table(corpus.house_ratings())
    assert _pairs(house.cells[4]) == corpus.TABLE_HOUSE_ROW_U5


def test_to_table_bounds():
    space = corpus.space4()
    null_cells = to_table(BipolarSoftSet.null(space)).cells
    assert all(cell is CellValue.NEGATIVE for row in null_cells for cell in row)
    abs_cells = to_table(BipolarSoftSet.absolute(space)).cells
    assert all(cell is CellValue.POSITIVE for row in abs_cells for cell in row)


def test_all_neutral_round_trip():
    space = corpus.space3()
    blank = BipolarSoftSet.from_assignment(space, {})
    table = to_table(blank)
    assert all(cell is CellValue.NEUTRAL for row in table.cells for cell in row)
    assert from_table(table, space) == blank


@pytest.mark.parametrize(
    "build",
    [corpus.houses_a, corpus.houses_b, corpus.houses_c, corpus.house_ratings],
)
def test_round_trip_is_identity(build):
    value = build()
    assert from_table(to_table(value), value.space) == value


def test_from_table_rejects_wrong_dimensions():
    table = to_table(corpus.houses3_a())
    with pytest.raises(DimensionMismatch):
        from_table(table, corpus.space4())


def test_from_table_rejects_wrong_labels():
    table = to_table(corpus.houses_a())
    relabeled = TabularForm(
        ("x1",) + table.row_labels[1:], table.col_labels, table.cells
    )
    with pytest.raises(LabelMismatch):
        from_table(relabeled, corpus.space4())
    swapped_cols = TabularForm(
        table.row_labels, tuple(reversed(table.col_labels)), table.cells
    )
    with pytest.raises(LabelMismatch):
        from_table(swapped_cols, corpus.space4())


def test_tabular_form_rejects_ragged_cells():
    with pytest.raises(DimensionMismatch):
        TabularForm(("a", "b"), (("p", "q"),), ((CellValue.NEUTRAL,),))
    with pytest.raises(DimensionMismatch):
        TabularForm(("a",), (("p", "q"),), ((CellValue.NEUTRAL, CellValue.NEUTRAL),))


def test_tabular_form_names_the_first_bad_cell_in_row_major_order():
    neutral = CellValue.NEUTRAL
    with pytest.raises(InvalidArgument) as err:
        TabularForm(("a", "b"), (("p", "q"), ("r", "s")), ((neutral, neutral), ((0, 1), "x")))
    assert str(err.value) == "row 'b', column ('p', 'q'): (0, 1) is not a CellValue"


def test_tabular_form_stores_its_fields_as_tuples():
    positive = CellValue.POSITIVE
    rows, cols, cells = ["u1"], [["e1", "not-e1"]], [[positive]]
    table = TabularForm(rows, cols, cells)
    assert table == TabularForm(("u1",), (("e1", "not-e1"),), ((positive,),))
    rows.append("u2"), cols.append(["e2", "not-e2"]), cells[0].append(positive)
    assert table == TabularForm(("u1",), (("e1", "not-e1"),), ((positive,),))
    space = standard_space(1, 1)
    assert from_table(table, space) == BipolarSoftSet.absolute(space)
    # cells given once, as an iterator, are read once
    once = TabularForm(("u1",), (("e1", "not-e1"),), iter([iter([positive])]))
    assert from_table(once, space) == BipolarSoftSet.absolute(space)


def test_render_text():
    space = ParameterSpace(("u1", "u2"), ("e1", "e3"), ("e2", "e4"))
    small = BipolarSoftSet.from_assignment(space, {"e1": (("u1",), ("u2",))})
    text = render_table_text(to_table(small))
    lines = text.splitlines()
    assert lines[0].split() == ["(e1,e2)", "(e3,e4)"]
    assert lines[1].split() == ["u1", "(1,0)", "(0,0)"]
    assert lines[2].split() == ["u2", "(0,1)", "(0,0)"]
    assert text.endswith("\n")
    # Columns as wide as their widest cell, two spaces apart, no trailing
    # spaces although the last column's cells are narrower than its header.
    assert text == (
        "    (e1,e2)  (e3,e4)\n"
        "u1  (1,0)    (0,0)\n"
        "u2  (0,1)    (0,0)\n"
    )
    assert render_table_text(to_table(corpus.house_ratings())) == (
        "    (e1,e6)  (e2,e7)  (e3,e8)  (e4,e9)  (e5,e10)\n"
        "u1  (1,0)    (0,1)    (1,0)    (0,0)    (1,0)\n"
        "u2  (1,0)    (1,0)    (0,1)    (0,1)    (0,0)\n"
        "u3  (0,1)    (0,1)    (1,0)    (0,1)    (1,0)\n"
        "u4  (1,0)    (0,1)    (1,0)    (0,1)    (0,0)\n"
        "u5  (0,1)    (0,0)    (0,1)    (1,0)    (0,1)\n"
        "u6  (0,1)    (0,0)    (0,0)    (0,0)    (0,1)\n"
        "u7  (0,1)    (0,0)    (0,1)    (0,0)    (0,0)\n"
        "u8  (0,0)    (0,1)    (0,1)    (0,0)    (1,0)\n"
    )


def test_render_csv_quotes_cell_pairs():
    table = to_table(corpus.houses_a())
    text = render_table_csv(table)
    lines = text.splitlines()
    assert lines[0].startswith('object,"(e1,e2)"')
    assert lines[1] == 'u1,"1,0","0,1","0,1","0,0"'
    # LF row endings, not the csv module's CRLF default.
    assert render_table_csv(to_table(corpus.house_ratings())) == (
        'object,"(e1,e6)","(e2,e7)","(e3,e8)","(e4,e9)","(e5,e10)"\n'
        'u1,"1,0","0,1","1,0","0,0","1,0"\n'
        'u2,"1,0","1,0","0,1","0,1","0,0"\n'
        'u3,"0,1","0,1","1,0","0,1","1,0"\n'
        'u4,"1,0","0,1","1,0","0,1","0,0"\n'
        'u5,"0,1","0,0","0,1","1,0","0,1"\n'
        'u6,"0,1","0,0","0,0","0,0","0,1"\n'
        'u7,"0,1","0,0","0,1","0,0","0,0"\n'
        'u8,"0,0","0,1","0,1","0,0","1,0"\n'
    )


def test_table_document_shape():
    doc = table_document(to_table(corpus.houses3_a()))
    assert doc["rows"] == list(corpus.UNIVERSE)
    assert doc["columns"][0] == {"pos": "e1", "neg": "e2"}
    assert doc["cells"][0][0] == [1, 0]
