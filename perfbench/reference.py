"""Independent reference used to check every output of the benchmark.

Per cell a bipolar soft set takes one of three values ordered
reject < neutral < approve, the three-element Kleene algebra K3: union is
max, intersection is min, complement swaps approve and reject, and the
and/or-products are min/max over each ordered pair of parameters.  This
module evaluates documents cell by cell with that algebra and renders the
canonical text with stdlib ``json``.  It never imports the package under
test, so a fault in the package cannot hide in its own checker.
"""

from __future__ import annotations

import csv
import io
import json
from typing import NamedTuple

REJECT, NEUTRAL, APPROVE = 0, 1, 2


class Table(NamedTuple):
    """A document as plain data: ``cells[k][i]`` is parameter ``k`` at object ``i``."""

    universe: tuple
    pairs: tuple  # ((pos, neg), ...)
    cells: tuple  # one tuple of K3 values per parameter


def from_json(doc: dict) -> Table:
    universe = tuple(doc["universe"])
    pairs = tuple((p["pos"], p["neg"]) for p in doc["pairs"])
    where = {u: i for i, u in enumerate(universe)}
    param = {p: k for k, (p, _) in enumerate(pairs)}
    cells = [[NEUTRAL] * len(universe) for _ in pairs]
    for row in doc["assignments"]:
        column = cells[param[row["param"]]]
        for u in row["positive"]:
            column[where[u]] = APPROVE
        for u in row["negative"]:
            column[where[u]] = REJECT
    return Table(universe, pairs, tuple(tuple(c) for c in cells))


def from_text(text: str) -> Table:
    return from_json(json.loads(text))


def to_json(t: Table) -> dict:
    assignments = []
    for (p, _), column in zip(t.pairs, t.cells):
        positive = [u for u, v in zip(t.universe, column) if v == APPROVE]
        negative = [u for u, v in zip(t.universe, column) if v == REJECT]
        if positive or negative:
            assignments.append({"param": p, "positive": positive, "negative": negative})
    return {
        "universe": list(t.universe),
        "pairs": [{"pos": p, "neg": q} for p, q in t.pairs],
        "assignments": assignments,
    }


def to_text(t: Table) -> str:
    """Canonical document bytes: members in universe order, neutral rows omitted."""
    return json.dumps(to_json(t), indent=2) + "\n"


# -- the algebra, cell by cell ------------------------------------------------


def union(a: Table, b: Table) -> Table:
    return a._replace(cells=tuple(tuple(map(max, x, y)) for x, y in zip(a.cells, b.cells)))


def intersection(a: Table, b: Table) -> Table:
    return a._replace(cells=tuple(tuple(map(min, x, y)) for x, y in zip(a.cells, b.cells)))


def complement(a: Table) -> Table:
    return a._replace(cells=tuple(tuple(APPROVE - v for v in x) for x in a.cells))


def _product(a: Table, b: Table, cell) -> Table:
    pairs = tuple(
        (f"({e},{ep})", f"({ne},{nep})") for e, ne in a.pairs for ep, nep in b.pairs
    )
    cells = tuple(tuple(map(cell, x, y)) for x in a.cells for y in b.cells)
    return Table(a.universe, pairs, cells)


def and_product(a: Table, b: Table) -> Table:
    return _product(a, b, min)


def or_product(a: Table, b: Table) -> Table:
    return _product(a, b, max)


def is_subset(a: Table, b: Table) -> bool:
    return all(x <= y for ca, cb in zip(a.cells, b.cells) for x, y in zip(ca, cb))


def is_complete(a: Table) -> bool:
    return all(v != NEUTRAL for column in a.cells for v in column)


def score_rows(a: Table) -> list:
    """``(object, approvals, rejections, score)`` per object, in universe order."""
    rows = []
    for i, u in enumerate(a.universe):
        plus = sum(1 for column in a.cells if column[i] == APPROVE)
        minus = sum(1 for column in a.cells if column[i] == REJECT)
        rows.append((u, plus, minus, plus - minus))
    return rows


# -- expected answers for the CLI's command paths -----------------------------

_MARK = {APPROVE: (1, 0), REJECT: (0, 1), NEUTRAL: (0, 0)}


def validate_line(a: Table) -> str:
    complete = "true" if is_complete(a) else "false"
    return f"valid: m={len(a.universe)} n={len(a.pairs)} complete={complete}\n"


def table_ok(text: str, a: Table, fmt: str) -> bool:
    """Does ``text`` render ``a`` as the CLI's table in format ``fmt``?"""
    labels = [f"({p},{q})" for p, q in a.pairs]
    rows = [
        (u, [_MARK[column[i]] for column in a.cells]) for i, u in enumerate(a.universe)
    ]
    if fmt == "json":
        return json.loads(text) == {
            "rows": list(a.universe),
            "columns": [{"pos": p, "neg": q} for p, q in a.pairs],
            "cells": [[list(m) for m in marks] for _, marks in rows],
        }
    if fmt == "csv":
        expected = [["object"] + labels] + [
            [u] + [f"{x},{y}" for x, y in marks] for u, marks in rows
        ]
        return list(csv.reader(io.StringIO(text))) == expected
    expected = [labels] + [[u] + [f"({x},{y})" for x, y in marks] for u, marks in rows]
    return [line.split() for line in text.splitlines()] == expected


def decide_ok(text: str, a: Table, fmt: str) -> bool:
    """Does ``text`` report ``a``'s score rows, best score and every optimum?"""
    rows = score_rows(a)
    best = max(r[3] for r in rows)
    optimal = [r[0] for r in rows if r[3] == best]
    if fmt == "json":
        return json.loads(text) == {
            "rows": [
                {"object": u, "c_plus": p, "c_minus": m, "score": s} for u, p, m, s in rows
            ],
            "max_score": best,
            "optimal": optimal,
        }
    if fmt == "csv":
        expected = [["object", "c_plus", "c_minus", "score"]] + [
            [str(x) for x in r] for r in rows
        ]
        return list(csv.reader(io.StringIO(text))) == expected
    expected = (
        [["object", "c+", "c-", "score"]]
        + [[str(x) for x in r] for r in rows]
        + [["max", "score:", str(best)]]
        + [["optimal:"] + [u + "," for u in optimal[:-1]] + optimal[-1:]]
    )
    return [line.split() for line in text.splitlines()] == expected


# -- the law catalogue's known verdict ----------------------------------------

# Default pool: every set of the 2x2 space (81) and all ordered tuples of them,
# plus 1000 random instances per law.
_POOL = {1: 81 + 1000, 2: 81**2 + 1000, 3: 81**3 + 1000}

LAW_ARITY = {
    "subset-reflexive": 1,
    "subset-transitive": 3,
    "subset-bounded-below": 1,
    "subset-bounded-above": 1,
    "union-idempotent": 1,
    "union-null-identity": 1,
    "union-absolute-absorbing": 1,
    "union-commutative": 2,
    "union-associative": 3,
    "union-absorption": 2,
    "intersection-idempotent": 1,
    "intersection-null-absorbing": 1,
    "intersection-absolute-identity": 1,
    "intersection-commutative": 2,
    "intersection-associative": 3,
    "intersection-absorption": 2,
    "distributive-intersection-over-union": 3,
    "distributive-union-over-intersection": 3,
    "complement-involution": 1,
    "complement-null": 1,
    "complement-absolute": 1,
    "demorgan-union": 2,
    "demorgan-intersection": 2,
    "demorgan-and-product": 2,
    "demorgan-or-product": 2,
    "excluded-middle-union": 1,
    "excluded-middle-intersection": 1,
}
# Unconditional excluded middle fails on the first instance with a neutral
# cell; in enumeration order that is the third 2x2 set.
EXPECTED_TO_FAIL = ("excluded-middle-unconditional", "excluded-middle-intersection-unconditional")
FAILS_AT = 3


def law_report_ok(report: dict) -> bool:
    """Is one ``LawReport.to_json()`` the known verdict of the default pool?"""
    law = report["law"]
    if law in EXPECTED_TO_FAIL:
        witness = report["counterexample"]
        return (
            report["must_hold"] is False
            and report["holds"] is False
            and report["instances_checked"] == FAILS_AT
            and isinstance(witness, dict)
            and len(witness.get("operands", ())) == 1
        )
    return (
        law in LAW_ARITY
        and report["must_hold"] is True
        and report["holds"] is True
        and report["instances_checked"] == _POOL[LAW_ARITY[law]]
        and report["counterexample"] is None
    )


LAW_COUNT = len(LAW_ARITY) + len(EXPECTED_TO_FAIL)
