"""Tabular indicator-pair encoding: one (a, b) cell per object and parameter pair."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat

from .core import BipolarSoftSet, _cell_states, _expected, _instance, _packed, _space_of
from .errors import DimensionMismatch, InvalidArgument, LabelMismatch
from .space import ParameterSpace


class CellValue(Enum):
    """One table cell: approve (1,0), reject (0,1), or abstain (0,0).

    The pair (1,1) has no member, so an approving-and-rejecting cell is
    unrepresentable by construction.
    """

    POSITIVE = (1, 0)
    NEGATIVE = (0, 1)
    NEUTRAL = (0, 0)

    @property
    def pair(self) -> tuple[int, int]:
        return self.value

    @classmethod
    def _missing_(cls, value: object) -> "CellValue":
        raise InvalidArgument(f"no cell value for pair {value!r}")

    @classmethod
    def from_pair(cls, a: int, b: int) -> "CellValue":
        return cls((a, b))


_STATES = tuple(CellValue)  # by cell state as ``_packed`` reads it: 0 approve, 1 reject, 2 neutral


@dataclass(frozen=True)
class TabularForm:
    """An m-by-n matrix of cells with object row labels and parameter-pair column labels."""

    row_labels: tuple[str, ...]
    col_labels: tuple[tuple[str, str], ...]
    cells: tuple[tuple[CellValue, ...], ...]

    def __post_init__(self) -> None:
        """The one check of a table's labels and cells.  Fields are stored as tuples, as a
        frozen table must not change after its check."""
        if isinstance(self.row_labels, str):  # a str: one label per character
            raise InvalidArgument(f"expected a collection of row labels, got {self.row_labels!r}")
        try:
            rows, cols = tuple(self.row_labels), tuple(self.col_labels)
            cells = tuple(map(tuple, self.cells))
        except TypeError:  # an int, say, where a sequence belongs
            raise InvalidArgument("labels, cells and each row of cells must be sequences") from None
        for label in rows:
            if not isinstance(label, str):
                raise InvalidArgument(f"row label {label!r} is not a string")
        for pair in cols:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(e, str) for e in pair)):
                raise InvalidArgument(f"column label {pair!r} is not a pair of parameter ids")
        cols = tuple(map(tuple, cols))
        if len(cells) != len(rows):
            raise DimensionMismatch(f"{len(rows)} row labels but {len(cells)} cell rows")
        for label, row in zip(rows, cells):
            if len(row) != len(cols):
                raise DimensionMismatch(f"row {label!r} has {len(row)} cells, expected {len(cols)}")
        # isinstance, not a set: a CellValue hashes through Enum.__hash__, a Python function
        if not all(map(isinstance, chain.from_iterable(cells), repeat(CellValue))):
            label, pair, cell = next((label, pair, cell) for label, row in zip(rows, cells)
                                     for pair, cell in zip(cols, row)
                                     if not isinstance(cell, CellValue))
            raise InvalidArgument(f"row {label!r}, column {pair!r}: {cell!r} is not a CellValue")
        for name, value in zip(("row_labels", "col_labels", "cells"), (rows, cols, cells)):
            object.__setattr__(self, name, value)


def to_table(bss: BipolarSoftSet) -> TabularForm:
    """Encode a bipolar soft set as its indicator matrix; orders follow the space."""
    space = _space_of(bss)
    m = space.m
    states = _cell_states(bss.pos_bits, bss.neg_bits, m * space.n)
    cells = tuple(map(_STATES.__getitem__, states))  # parameter-major: object i's row is [i::m]
    return TabularForm(space.universe, space.pairs, tuple(cells[i::m] for i in range(m)))


def from_table(table: TabularForm, space: ParameterSpace) -> BipolarSoftSet:
    """Decode an indicator matrix back into a bipolar soft set over ``space``.

    Exact inverse of :func:`to_table`; the cells were checked where the table was built.
    """
    if not (isinstance(table, TabularForm) and isinstance(space, ParameterSpace)):
        raise _expected("a table and a parameter space", table, space)
    if len(table.row_labels) != space.m or len(table.col_labels) != space.n:
        raise DimensionMismatch(
            f"table is {len(table.row_labels)}x{len(table.col_labels)}, "
            f"space is {space.m}x{space.n}"
        )
    if table.row_labels != space.universe:
        raise LabelMismatch("row labels do not match the universe")
    if table.col_labels != space.pairs:
        raise LabelMismatch("column labels do not match the space's parameter pairs")
    states = bytes(map(_STATES.index, chain.from_iterable(zip(*table.cells))))  # parameter-major
    return BipolarSoftSet._closed(space, *_packed(states))


def _text_rows(rows, right=()) -> str:
    """Rows of string cells as text: each column as wide as its widest cell, columns
    two spaces apart, those numbered in ``right`` right-aligned, no trailing spaces."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    pads = [str.rjust if k in right else str.ljust for k in range(len(widths))]
    return "".join(
        "  ".join(pad(c, w) for pad, c, w in zip(pads, row, widths)).rstrip() + "\n"
        for row in rows
    )


def _csv_rows(rows) -> str:
    """Rows as CSV text with LF line endings."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _rows(table: TabularForm, corner: str, cell: str) -> list:
    """Header and body rows; ``cell`` is a format string for a cell's (a, b) pair."""
    table = _instance(table, TabularForm, "a table")
    texts = [cell.format(*c.pair) for c in _STATES]  # by cell state, as ``from_table`` reads it
    return [[corner] + [f"({p},{q})" for p, q in table.col_labels]] + [
        [label, *map(texts.__getitem__, map(_STATES.index, row))]
        for label, row in zip(table.row_labels, table.cells)
    ]


def render_table_text(table: TabularForm) -> str:
    """Plain-text rendering with ``(1,0)``-style cells."""
    return _text_rows(_rows(table, "", "({},{})"))


def render_table_csv(table: TabularForm) -> str:
    """CSV rendering; cells serialize as quoted ``1,0`` pairs."""
    return _csv_rows(_rows(table, "object", "{},{}"))


def table_document(table: TabularForm) -> dict:
    """JSON-ready dict form of a table."""
    table = _instance(table, TabularForm, "a table")
    pairs = [c.pair for c in _STATES]
    return {
        "rows": list(table.row_labels),
        "columns": [{"pos": p, "neg": q} for p, q in table.col_labels],
        "cells": [[[*pairs[s]] for s in map(_STATES.index, row)] for row in table.cells],
    }
