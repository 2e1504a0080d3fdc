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
        """The one check of what the renderers read; ``rows`` and ``optimal`` are stored as
        tuples, as a frozen result must not change after its check."""
        try:
            rows, optimal = tuple(self.rows), tuple(self.optimal)
        except TypeError:  # an int, say, where a sequence belongs
            raise InvalidArgument("rows and optimal must be sequences") from None
        for row in rows:
            if not (isinstance(row, ScoreRow) and isinstance(row.object_id, str)
                    and isinstance(row.c_plus, int) and isinstance(row.c_minus, int)
                    and isinstance(row.score, int)):
                raise InvalidArgument(f"expected a score row of an id and int counts, got {row!r}")
        if isinstance(self.optimal, str) or not all(map(isinstance, optimal, repeat(str))):
            raise InvalidArgument(f"expected a collection of object ids, got {self.optimal!r}")
        if not isinstance(self.max_score, int):
            raise InvalidArgument(f"max score must be an int, got {self.max_score!r}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "optimal", optimal)


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
    best = max(row.score for row in rows)
    winners = tuple(row.object_id for row in rows if row.score == best)
    return DecisionResult(rows, best, winners)


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
