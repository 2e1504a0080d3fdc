"""Score-based selection: count approving and rejecting cells per object, pick the argmax."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .core import BipolarSoftSet, _instance, _space_of
from .errors import InvalidArgument
from .table import _csv_rows, _text_rows


@dataclass(frozen=True)
class ScoreRow:
    """Counts for one object: approving cells, rejecting cells, and their difference."""

    object_id: str
    c_plus: int
    c_minus: int
    score: int


@dataclass(frozen=True)
class DecisionResult:
    rows: tuple[ScoreRow, ...]
    max_score: int
    optimal: tuple[str, ...]

    def __post_init__(self) -> None:
        """The one check of what the renderers read: counts of type ``int`` (the text of a bool or
        another int subclass need not be its digits), never negative, each score ``c_plus -
        c_minus``, and ``max_score``/``optimal`` as ``decide`` derives them from the rows.
        ``rows`` and ``optimal`` are stored as tuples, as a frozen result must not change after
        its check."""
        try:
            rows, optimal = tuple(self.rows), tuple(self.optimal)
        except TypeError:  # an int, say, where a sequence belongs
            raise InvalidArgument("rows and optimal must be sequences") from None
        for row in rows:
            if not (isinstance(row, ScoreRow) and isinstance(row.object_id, str)
                    and type(row.c_plus) is type(row.c_minus) is type(row.score) is int):
                raise InvalidArgument(f"expected a score row of an id and int counts, got {row!r}")
            if row.c_plus < 0 or row.c_minus < 0:
                raise InvalidArgument(f"expected counts of at least 0, got {row!r}")
            if row.score != row.c_plus - row.c_minus:
                raise InvalidArgument(f"expected score = c_plus - c_minus, got {row!r}")
        if isinstance(self.optimal, str) or not all(map(isinstance, optimal, repeat(str))):
            raise InvalidArgument(f"expected a collection of object ids, got {self.optimal!r}")
        if type(self.max_score) is not int:
            raise InvalidArgument(f"max score must be an int, got {self.max_score!r}")
        best, winners = _optimal(rows)
        if rows and self.max_score != best:
            raise InvalidArgument(f"max score {self.max_score} is not the largest score, {best}")
        if optimal != winners:
            raise InvalidArgument(f"optimal {optimal} is not the ids with the max score, {winners}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "optimal", optimal)


def _optimal(rows) -> tuple[int | None, tuple[str, ...]]:
    """The largest score of ``rows`` and the ids of the rows that have it, in row order, or
    ``(None, ())`` for no rows: the one argmax rule, which ``decide`` applies and
    ``DecisionResult`` checks."""
    best = max((row.score for row in rows), default=None)
    return best, tuple(row.object_id for row in rows if row.score == best)


def scores(bss: BipolarSoftSet) -> tuple[ScoreRow, ...]:
    """One row per object in universe order; score = approvals - rejections."""
    space = _space_of(bss)
    column = space.cells_mask // space.full_mask  # object 0 at every parameter
    rows = []
    for i, u in enumerate(space.universe):
        c_plus = (bss.pos_bits & column << i).bit_count()
        c_minus = (bss.neg_bits & column << i).bit_count()
        rows.append(ScoreRow(u, c_plus, c_minus, c_plus - c_minus))
    return tuple(rows)


def decide(bss: BipolarSoftSet) -> DecisionResult:
    """Score every object and report *all* maximizers, in universe order.

    Ties are never broken silently; the caller chooses among ``optimal``.
    """
    rows = scores(bss)
    return DecisionResult(rows, *_optimal(rows))


def render_scores_text(result: DecisionResult) -> str:
    result = _instance(result, DecisionResult, "a decision result")
    rows = [("object", "c+", "c-", "score")] + [
        (row.object_id, str(row.c_plus), str(row.c_minus), str(row.score)) for row in result.rows
    ]
    optimal = ", ".join(result.optimal)
    return _text_rows(rows, right=(1, 2, 3)) + f"max score: {result.max_score}\noptimal: {optimal}\n"


def render_scores_csv(result: DecisionResult) -> str:
    result = _instance(result, DecisionResult, "a decision result")
    return _csv_rows([("object", "c_plus", "c_minus", "score")] + [
        (row.object_id, row.c_plus, row.c_minus, row.score) for row in result.rows
    ])


def scores_document(result: DecisionResult) -> dict:
    """JSON-ready dict form of a decision."""
    result = _instance(result, DecisionResult, "a decision result")
    return {
        "rows": [
            {
                "object": row.object_id,
                "c_plus": row.c_plus,
                "c_minus": row.c_minus,
                "score": row.score,
            }
            for row in result.rows
        ],
        "max_score": result.max_score,
        "optimal": list(result.optimal),
    }
