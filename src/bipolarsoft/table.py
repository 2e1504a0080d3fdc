"""Tabular indicator-pair encoding: one (a, b) cell per object and parameter pair."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum

from .core import BipolarSoftSet
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
    def from_pair(cls, a: int, b: int) -> "CellValue":
        try:
            return cls((a, b))
        except ValueError:
            raise InvalidArgument(f"no cell value for pair ({a!r}, {b!r})") from None


@dataclass(frozen=True)
class TabularForm:
    """An m-by-n matrix of cells with object row labels and parameter-pair column labels."""

    row_labels: tuple[str, ...]
    col_labels: tuple[tuple[str, str], ...]
    cells: tuple[tuple[CellValue, ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.row_labels):
            raise DimensionMismatch(
                f"{len(self.row_labels)} row labels but {len(self.cells)} cell rows"
            )
        width = len(self.col_labels)
        for label, row in zip(self.row_labels, self.cells):
            if len(row) != width:
                raise DimensionMismatch(
                    f"row {label!r} has {len(row)} cells, expected {width}"
                )


def to_table(bss: BipolarSoftSet) -> TabularForm:
    """Encode a bipolar soft set as its indicator matrix; orders follow the space."""
    space = bss.space
    columns = tuple(zip(bss.pos_masks, bss.neg_masks))
    cells = []
    for i in range(space.m):
        bit = 1 << i
        cells.append(tuple(
            CellValue.POSITIVE if p & bit else CellValue.NEGATIVE if q & bit else CellValue.NEUTRAL
            for p, q in columns
        ))
    return TabularForm(space.universe, space.pairs, tuple(cells))


def from_table(table: TabularForm, space: ParameterSpace) -> BipolarSoftSet:
    """Decode an indicator matrix back into a bipolar soft set over ``space``.

    Exact inverse of :func:`to_table` for tables it produced.
    """
    if len(table.row_labels) != space.m or len(table.col_labels) != space.n:
        raise DimensionMismatch(
            f"table is {len(table.row_labels)}x{len(table.col_labels)}, "
            f"space is {space.m}x{space.n}"
        )
    if table.row_labels != space.universe:
        raise LabelMismatch("row labels do not match the universe")
    if table.col_labels != space.pairs:
        raise LabelMismatch("column labels do not match the space's parameter pairs")
    pos = [0] * space.n
    neg = [0] * space.n
    for i, row in enumerate(table.cells):
        bit = 1 << i
        for j, cell in enumerate(row):
            if cell is CellValue.POSITIVE:
                pos[j] |= bit
            elif cell is CellValue.NEGATIVE:
                neg[j] |= bit
            elif cell is not CellValue.NEUTRAL:
                raise InvalidArgument(f"row {space.universe[i]!r}, column {space.pairs[j]!r}: "
                                      f"{cell!r} is not a CellValue")
    return BipolarSoftSet(space, tuple(pos), tuple(neg))


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
    text = {c: cell.format(*c.pair) for c in CellValue}
    return [[corner] + [f"({p},{q})" for p, q in table.col_labels]] + [
        [label] + [text[c] for c in row]
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
    return {
        "rows": list(table.row_labels),
        "columns": [{"pos": p, "neg": q} for p, q in table.col_labels],
        "cells": [[list(c.pair) for c in row] for row in table.cells],
    }
