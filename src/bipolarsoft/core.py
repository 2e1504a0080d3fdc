"""Bipolar soft sets over a fixed parameter space, with their order and lattice operations."""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_
from typing import Iterable, Mapping

from .errors import DisjointnessViolation, InvalidArgument, SpaceMismatch, UnknownParameter
from .space import ParameterSpace

Assignment = Mapping[str, tuple[Iterable[str], Iterable[str]]]


def ensure_same_space(a: "BipolarSoftSet", b: "BipolarSoftSet") -> None:
    """Binary operations require operands over one space; widening is never implicit."""
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatch("operands are defined over different parameter spaces")


@dataclass(frozen=True)
class BipolarSoftSet:
    """Pairs every positive parameter with disjoint approving and rejecting object sets.

    Membership is stored as bit masks over the universe (bit ``i`` is
    ``space.universe[i]``), one ``(pos, neg)`` mask pair per positive
    parameter in declaration order.  ``pos & neg == 0`` holds at every
    parameter; objects in neither mask are neutral for it.  Parameters
    whose pair is ``(0, 0)`` are kept internally and suppressed only by
    display and serialization layers.

    Instances are immutable and hashable; every operation returns a new
    value, so sharing across threads needs no synchronization.
    """

    space: ParameterSpace
    pos_masks: tuple[int, ...]
    neg_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("pos_masks", "neg_masks"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        space = self.space
        if len(self.pos_masks) != space.n or len(self.neg_masks) != space.n:
            raise InvalidArgument("expected one (pos, neg) mask pair per positive parameter")
        full = space.full_mask
        for e, p, q in zip(space.positive_params, self.pos_masks, self.neg_masks):
            if (p | q) & ~full or p < 0 or q < 0:
                raise InvalidArgument(f"parameter {e!r}: mask selects bits outside the universe")
            if p & q:
                raise DisjointnessViolation(e, space.members(p & q))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_assignment(cls, space: ParameterSpace, assignment: Assignment) -> "BipolarSoftSet":
        """Build from ``{param: (approving_members, rejecting_members)}``.

        Parameters absent from the mapping default to the neutral pair
        ``((), ())``.  Unknown parameters or objects and overlapping pairs
        raise the corresponding error.
        """
        pos = [0] * space.n
        neg = [0] * space.n
        index = space.param_index
        for e, pair in assignment.items():
            if e not in index:
                raise UnknownParameter(e)
            approving, rejecting = pair
            k = index[e]
            pos[k] = space.mask_of(approving)
            neg[k] = space.mask_of(rejecting)
        return cls(space, tuple(pos), tuple(neg))

    @classmethod
    def _closed(cls, space: ParameterSpace, pos: tuple, neg: tuple) -> "BipolarSoftSet":
        """Store mask tuples without ``__post_init__``: callers pass results of closed
        operations on valid operands, or masks disjoint and in range by construction."""
        self = object.__new__(cls)
        self.__dict__.update(space=space, pos_masks=pos, neg_masks=neg)  # frozen: skip __setattr__
        return self

    @classmethod
    def null(cls, space: ParameterSpace) -> "BipolarSoftSet":
        """Bottom of the order: every object rejected at every parameter."""
        return cls._closed(space, (0,) * space.n, (space.full_mask,) * space.n)

    @classmethod
    def absolute(cls, space: ParameterSpace) -> "BipolarSoftSet":
        """Top of the order: every object approved at every parameter."""
        return cls._closed(space, (space.full_mask,) * space.n, (0,) * space.n)

    # -- per-parameter access ----------------------------------------------

    def _index(self, param: str) -> int:
        try:
            return self.space.param_index[param]
        except KeyError:
            raise UnknownParameter(param) from None

    def pos(self, param: str) -> tuple[str, ...]:
        """Objects approving ``param``, in universe order."""
        return self.space.members(self.pos_masks[self._index(param)])

    def neg(self, param: str) -> tuple[str, ...]:
        """Objects rejecting ``param`` (i.e. satisfying its negation), in universe order."""
        return self.space.members(self.neg_masks[self._index(param)])

    # -- order --------------------------------------------------------------

    def is_subset_of(self, other: "BipolarSoftSet") -> bool:
        """True iff every approving set is contained in the other's and every
        rejecting set contains the other's."""
        ensure_same_space(self, other)
        for p, q, op, oq in zip(self.pos_masks, self.neg_masks, other.pos_masks, other.neg_masks):
            if p & ~op or oq & ~q:
                return False
        return True

    def equals(self, other: "BipolarSoftSet") -> bool:
        """Pointwise equality; unlike ``==`` this rejects mismatched spaces."""
        ensure_same_space(self, other)
        return self.pos_masks == other.pos_masks and self.neg_masks == other.neg_masks

    # -- lattice operations --------------------------------------------------

    def union(self, other: "BipolarSoftSet") -> "BipolarSoftSet":
        """Join: approving sets unite, rejecting sets intersect."""
        ensure_same_space(self, other)
        return BipolarSoftSet._closed(
            self.space,
            tuple(map(or_, self.pos_masks, other.pos_masks)),
            tuple(map(and_, self.neg_masks, other.neg_masks)),
        )

    def intersection(self, other: "BipolarSoftSet") -> "BipolarSoftSet":
        """Meet: approving sets intersect, rejecting sets unite."""
        ensure_same_space(self, other)
        return BipolarSoftSet._closed(
            self.space,
            tuple(map(and_, self.pos_masks, other.pos_masks)),
            tuple(map(or_, self.neg_masks, other.neg_masks)),
        )

    def complement(self) -> "BipolarSoftSet":
        """Swap approving and rejecting sets at every parameter."""
        return BipolarSoftSet._closed(self.space, self.neg_masks, self.pos_masks)

    def is_complete(self) -> bool:
        """True iff no cell is neutral: every object takes a side at every parameter."""
        full = self.space.full_mask
        return all(p | q == full for p, q in zip(self.pos_masks, self.neg_masks))

    __or__ = union
    __and__ = intersection
    __invert__ = complement
    __le__ = is_subset_of

    def __repr__(self) -> str:
        space = self.space
        parts = []
        for e, p, q in zip(space.positive_params, self.pos_masks, self.neg_masks):
            if p or q:
                pos = ",".join(space.members(p))
                neg = ",".join(space.members(q))
                parts.append(f"{e}: +{{{pos}}} -{{{neg}}}")
        body = "; ".join(parts) if parts else "all neutral"
        return f"<BipolarSoftSet {body}>"
