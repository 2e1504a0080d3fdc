"""Bipolar soft sets over a fixed parameter space, with their order and lattice operations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DisjointnessViolation, InvalidArgument, SpaceMismatch, UnknownParameter
from .space import ParameterSpace

Assignment = Mapping[str, tuple[Iterable[str], Iterable[str]]]


def ensure_same_space(a: "BipolarSoftSet", b: "BipolarSoftSet") -> None:
    """Binary operations require operands over one space; widening is never implicit."""
    try:  # free on valid operands, unlike an isinstance check on every lattice call
        same = a.space is b.space or a.space == b.space
    except AttributeError:
        raise InvalidArgument(f"expected two bipolar soft sets, got "
                              f"{type(a).__name__} and {type(b).__name__}") from None
    if not same:
        raise SpaceMismatch("operands are defined over different parameter spaces")


def _not_a_space(value: object) -> InvalidArgument:
    """The error for a value read as a parameter space, raised where its AttributeError is caught."""
    return InvalidArgument(f"expected a parameter space, got {type(value).__name__}")


def _instance(value, cls: type, what: str):
    """``value`` if it is a ``cls``; else InvalidArgument saying that ``what`` was expected."""
    if not isinstance(value, cls):
        raise InvalidArgument(f"expected {what}, got {type(value).__name__}")
    return value


def _space_of(value: "BipolarSoftSet") -> ParameterSpace:
    """The space of a bipolar soft set; InvalidArgument for any other value."""
    return _instance(value, BipolarSoftSet, "a bipolar soft set").space


def _pack(masks: tuple[int, ...], m: int) -> int:
    """Masks as one int, mask ``k`` at bit ``k*m``; in halves, as one at a time is quadratic."""
    if len(masks) == 1:
        return masks[0]
    half = len(masks) // 2
    return _pack(masks[:half], m) | _pack(masks[half:], m) << half * m


_BITS = bytes.maketrans(b"01", b"\0\1")
_POS, _NEG = bytes.maketrans(b"\0\1\2", b"100"), bytes.maketrans(b"\0\1\2", b"010")
_STATE = bytes.maketrans(b"\0\1\2", b"\2\1\0")  # by 2·pos + neg


def _cells(bits: int) -> bytes:
    """Byte ``j`` is bit ``j`` of a non-negative ``bits`` as 0 or 1, up to its highest set bit."""
    return bin(bits)[:1:-1].encode().translate(_BITS)


def _packed(states: bytes) -> tuple[int, int]:
    """Packed ``(pos, neg)`` ints from cell states in bit order: 0 approve, 1 reject, 2 neutral.
    With its inverse ``_cell_states``, the one cell codec."""
    states = states[::-1]  # int() reads the highest bit first
    return int(states.translate(_POS), 2), int(states.translate(_NEG), 2)


def _cell_states(pos: int, neg: int, cells: int) -> bytes:
    """Inverse of :func:`_packed` over ``cells`` cells: one byte per cell, 2·pos + neg with both
    ints decoded at once, as their bits are disjoint, then read as a state."""
    codes = 2 * int.from_bytes(_cells(pos), "little") + int.from_bytes(_cells(neg), "little")
    return codes.to_bytes(cells, "little").translate(_STATE)


def _unpack(bits: int, m: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`_pack`; stray high or sign bits stay in the last mask."""
    if n == 1:
        return (bits,)
    half = n // 2
    return _unpack(bits & (1 << half * m) - 1, m, half) + _unpack(bits >> half * m, m, n - half)


@dataclass(frozen=True)
class BipolarSoftSet:
    """Pairs every positive parameter with disjoint approving and rejecting object sets.

    Membership is two disjoint ints over the m·n cells: bit ``k*m + i`` of ``pos_bits``
    (``neg_bits``) is set iff ``space.universe[i]`` approves (rejects) positive parameter
    ``k``.  The constructor also takes per-parameter masks (bit ``i`` per object), as
    ``pos_masks``/``neg_masks`` return them.  Parameters with no decided cell are
    kept internally and suppressed only by display and serialization layers.

    Instances are immutable and hashable; every operation returns a new
    value, so sharing across threads needs no synchronization.
    """

    __slots__ = ("space", "pos_bits", "neg_bits")
    space: ParameterSpace
    pos_bits: int
    neg_bits: int

    def __post_init__(self) -> None:
        space, pos, neg = self.space, self.pos_bits, self.neg_bits
        try:
            m, n = space.m, space.n
        except AttributeError:
            raise _not_a_space(space) from None
        if isinstance(pos, int) and isinstance(neg, int):  # packed: check the masks it holds
            pos, neg = _unpack(pos, m, n), _unpack(neg, m, n)
        elif not (isinstance(pos, Iterable) and isinstance(neg, Iterable)):
            raise InvalidArgument("expected two packed ints or two sequences of masks")
        pos, neg = tuple(pos), tuple(neg)
        if len(pos) != n or len(neg) != n:
            raise InvalidArgument("expected one (pos, neg) mask pair per positive parameter")
        for e, p, q in zip(space.positive_params, pos, neg):
            if not (isinstance(p, int) and isinstance(q, int)):
                raise InvalidArgument(f"parameter {e!r}: masks must be integers, got {p!r}, {q!r}")
            if (p | q) & ~space.full_mask or p < 0 or q < 0:
                raise InvalidArgument(f"parameter {e!r}: mask selects bits outside the universe")
            if p & q:
                raise DisjointnessViolation(e, space.members(p & q))
        _set_pos(self, _pack(pos, m))
        _set_neg(self, _pack(neg, m))

    def __reduce__(self):  # pickle would restore the slots through the frozen __setattr__
        return BipolarSoftSet, (self.space, self.pos_bits, self.neg_bits)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_assignment(cls, space: ParameterSpace, assignment: Assignment) -> "BipolarSoftSet":
        """Build from ``{param: (approving_members, rejecting_members)}``.

        Parameters absent from the mapping default to the neutral pair
        ``((), ())``.  Unknown parameters or objects and overlapping pairs
        raise the corresponding error.
        """
        if not isinstance(assignment, Mapping):
            raise InvalidArgument(f"an assignment must map parameters to pairs, got {assignment!r}")
        try:
            pos, neg, index = [0] * space.n, [0] * space.n, space.param_index
        except AttributeError:
            raise _not_a_space(space) from None
        for e, pair in assignment.items():
            if e not in index:
                raise UnknownParameter(e)
            try:
                approving, rejecting = pair
            except (TypeError, ValueError):  # not iterable, or not two items
                raise InvalidArgument(f"parameter {e!r}: not an (approving, rejecting) pair") from None
            k = index[e]
            pos[k] = space.mask_of(approving)
            neg[k] = space.mask_of(rejecting)
        return cls(space, tuple(pos), tuple(neg))

    @classmethod
    def _closed(cls, space: ParameterSpace, pos: int, neg: int) -> "BipolarSoftSet":
        """No ``__post_init__``: closed operations on valid operands and generators call this."""
        self = object.__new__(cls)
        _set_space(self, space)  # slot descriptors: the frozen __setattr__ would refuse
        _set_pos(self, pos)
        _set_neg(self, neg)
        return self

    @classmethod
    def null(cls, space: ParameterSpace) -> "BipolarSoftSet":
        """Bottom of the order: every object rejected at every parameter."""
        try:  # free on a valid space, which may also be the law checker's lane space
            return cls._closed(space, 0, space.cells_mask)
        except AttributeError:
            raise _not_a_space(space) from None

    @classmethod
    def absolute(cls, space: ParameterSpace) -> "BipolarSoftSet":
        """Top of the order: every object approved at every parameter."""
        try:
            return cls._closed(space, space.cells_mask, 0)
        except AttributeError:
            raise _not_a_space(space) from None

    # -- per-parameter access ----------------------------------------------

    pos_masks = property(lambda self: _unpack(self.pos_bits, self.space.m, self.space.n))
    neg_masks = property(lambda self: _unpack(self.neg_bits, self.space.m, self.space.n))

    def _offset(self, param: str) -> int:
        try:
            return self.space.param_index[param] * self.space.m
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownParameter(param) from None

    def pos(self, param: str) -> tuple[str, ...]:
        """Objects approving ``param``, in universe order."""
        return self.space.members(self.pos_bits >> self._offset(param) & self.space.full_mask)

    def neg(self, param: str) -> tuple[str, ...]:
        """Objects rejecting ``param`` (i.e. satisfying its negation), in universe order."""
        return self.space.members(self.neg_bits >> self._offset(param) & self.space.full_mask)

    def _assignment(self, labels: Sequence[str] | None = None
                    ) -> Iterator[tuple[str, tuple[str, ...], tuple[str, ...]]]:
        """``(param, approving, rejecting)`` per positive parameter in space order, neutral ones
        included; members are ``labels[i]`` for object ``i`` (the universe by default), in
        universe order.  The one row decoder.  Ids are read first: a space without them raises
        before any mask is unpacked."""
        space = self.space
        params = space.positive_params
        labels = space.universe if labels is None else labels
        m = space.m
        pos, neg = _cells(self.pos_bits), _cells(self.neg_bits)
        return ((e, tuple(compress(labels, pos[k:k + m])), tuple(compress(labels, neg[k:k + m])))
                for e, k in zip(params, range(0, m * len(params), m)))

    # -- order --------------------------------------------------------------

    def is_subset_of(self, other: "BipolarSoftSet") -> bool:
        """True iff every approving set is contained in the other's and every
        rejecting set contains the other's."""
        ensure_same_space(self, other)
        return not (self.pos_bits & ~other.pos_bits or other.neg_bits & ~self.neg_bits)

    def equals(self, other: "BipolarSoftSet") -> bool:
        """Pointwise equality; unlike ``==`` this rejects mismatched spaces."""
        ensure_same_space(self, other)
        return self.pos_bits == other.pos_bits and self.neg_bits == other.neg_bits

    # -- lattice operations --------------------------------------------------

    def union(self, other: "BipolarSoftSet") -> "BipolarSoftSet":
        """Join: approving sets unite, rejecting sets intersect."""
        ensure_same_space(self, other)
        return BipolarSoftSet._closed(
            self.space, self.pos_bits | other.pos_bits, self.neg_bits & other.neg_bits
        )

    def intersection(self, other: "BipolarSoftSet") -> "BipolarSoftSet":
        """Meet: approving sets intersect, rejecting sets unite."""
        ensure_same_space(self, other)
        return BipolarSoftSet._closed(
            self.space, self.pos_bits & other.pos_bits, self.neg_bits | other.neg_bits
        )

    def complement(self) -> "BipolarSoftSet":
        """Swap approving and rejecting sets at every parameter."""
        return BipolarSoftSet._closed(self.space, self.neg_bits, self.pos_bits)

    def is_complete(self) -> bool:
        """True iff no cell is neutral: every object takes a side at every parameter."""
        return self.pos_bits | self.neg_bits == self.space.cells_mask

    __or__ = union
    __and__ = intersection
    __invert__ = complement
    __le__ = is_subset_of

    def __repr__(self) -> str:
        rows = "; ".join(f"{e}: +{{{','.join(pos)}}} -{{{','.join(neg)}}}"
                         for e, pos, neg in self._assignment() if pos or neg)
        return f"<BipolarSoftSet {rows or 'all neutral'}>"


_set_space, _set_pos, _set_neg = (BipolarSoftSet.__dict__[name].__set__
                                  for name in BipolarSoftSet.__slots__)
