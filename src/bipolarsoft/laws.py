"""Brute-force law checking over enumerated and seeded-random instances.

Every algebraic law the library relies on is a row of one catalogue table
and can be checked against any instance source: most rows are equations
or order laws between two terms over the operands, and three conditional
laws are written out.  A law either holds on every supplied instance or
the check stops at the first counterexample, which is stored in serialized
form so the violation can be replayed later.

``run_catalogue`` checks its laws in one sweep over one stream of chunks: each arity's
exhaustive pool, one chunk per leading operand (if any) in ``exhaustive_tuples`` order, then
the random draw, where every arity reads one seeded stream from its start, the arity
furthest back first, ``_CHUNK`` instances at a time, so memory does not grow with the count;
a chunk's sets are built only if a law walks it.  A law leaves the run at its first failure
on either source, and an arity with no law left is drawn no further.  Each law's one
``_Outcome`` becomes its report in ``check_law``, kept the only builder of a ``LawReport``
because the benchmark's tracer counts instances there.  Both sources pack lanes from cell
states with ``_packed``: the pool's last two operands from ``_states``, a drawn chunk from
its stream values mod 3.  The stream is splitmix64, whose value i is mix(seed + (i + 1)·γ
mod 2^64), so ``_splitmix_block`` computes a block at once, one value per 128-bit lane of an
int: a lane times a 64-bit constant stays in its lane, and a mask drops what a right shift
brings in from the next lane.  A chunk's instances of one size lie side by side in packed
lane sets, lane ``t`` holding one instance in ``m·n`` contiguous bits.  Union, intersection,
complement, null and absolute act cell by cell, so one bigint operation evaluates a term on
all lanes.  A product reads cell ``(i, k)`` of one operand and ``(i, l)`` of the other for
its cell ``(i, (k, l))``, so row ``k`` of the and/or-product of two lane sets is a few
bigint operations on all lanes; its n rows are stacked, each as wide as all the lanes.

A chunk passes a row when the row holds on every one-cell instance (the 3^arity
tuples of sets over ``standard_space(1, 1)``, evaluated once per run) and its own
evaluator, run on each lane group, returns None.  Run on lane sets, ``_differs`` finds
no differing cell (or raises AttributeError, as naming a parameter needs ids) and
``is_subset_of`` is the AND of the lanes, so an equation or order row fails a chunk
with a failing lane.  An implication (subset transitivity) or a biconditional between
whole-set predicates (the conditional excluded-middle rows' "absolute iff complete")
run on lane sets is not the AND of its lanes, so the one-cell instances stand in for
it: an m×n set is a direct product of m·n one-cell sets, and for operations that act
on each cell alone such a row holds on every set once it holds on every one-cell
instance (Birkhoff 1935).  When a chunk does not pass, or the check raises
AttributeError, the scalar evaluator walks it from its first instance to the first
failure, so counts and witnesses are the scalar check's.

Two catalogued laws are expected to fail: the unconditional excluded-middle
forms, which break on any instance with a neutral cell.  Their corrected
conditional forms are catalogued separately and must hold.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import codec
from .core import BipolarSoftSet
from .errors import BoundsTooLarge, InvalidArgument, UnknownLaw
from .products import and_product, or_product
from .space import ParameterSpace

MAX_EXHAUSTIVE_CELLS = 12  # 3^12 instances per law from each source; anything larger is declined
DEFAULT_RANDOM_BOUNDS = (6, 4)  # (max_m, max_n) of randomly sized instances
# Random cells per law (count * max_m * max_n * arity): the 3^12 count at the default bounds.
MAX_RANDOM_CELLS = 3 ** MAX_EXHAUSTIVE_CELLS * math.prod(DEFAULT_RANDOM_BOUNDS) * 3


# -- deterministic instance generation ---------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's counter step


def _require_ints(**values: object) -> None:
    """Raise InvalidArgument naming the first value that is not an int."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise InvalidArgument(f"{name} must be an integer, got {value!r}")


@lru_cache(maxsize=16)
def _lanes(size: int) -> tuple[int, int, int, int]:
    """``size`` 128-bit lanes: bit 0 of each, (t + 1)·γ mod 2^64 in lane t, low 64 and 63 bits."""
    ones = int.from_bytes((b"\1" + bytes(15)) * size, "little")
    ramp = b"".join((t * _GAMMA & _MASK64).to_bytes(16, "little") for t in range(1, size + 1))
    return ones, int.from_bytes(ramp, "little"), ones * _MASK64, ones * (_MASK64 >> 1)


def _splitmix_block(seed: int, first: int, size: int) -> tuple[array, bytes]:
    """Values ``first`` to ``first + size`` of the seed's splitmix64 stream, and each mod 3."""
    ones, ramp, low, low63 = _lanes(size)
    z = (ramp + (seed + first * _GAMMA & _MASK64) * ones) & low
    z = ((z ^ z >> 30) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ z >> 27) & low) * 0x94D049BB133111EB & low
    z = (z ^ z >> 31) & low
    thirds = z * 0xAAAAAAAAAAAAAAAB >> 65 & low63  # ⌊z/3⌋ = ⌊z·⌈2^65/3⌉ / 2^65⌋ for z < 2^64
    values = array("Q", z.to_bytes(16 * size, "little"))
    if sys.byteorder == "big":
        values.byteswap()
    return values[::2], (z - 3 * thirds).to_bytes(16 * size, "little")[::16]


def standard_space(m: int, n: int) -> ParameterSpace:
    """The generated m-object, n-pair space shared by all instances of one size."""
    _require_ints(m=m, n=n)  # before the cache, which cannot hash a list
    return _standard_space(m, n)


# Enough for every size the default random bounds draw; a space keeps its product space,
# so an unbounded cache would hold one per size ever drawn.
@lru_cache(maxsize=64)
def _standard_space(m: int, n: int) -> ParameterSpace:
    return ParameterSpace(
        tuple(f"u{i}" for i in range(1, m + 1)),
        tuple(f"e{j}" for j in range(1, n + 1)),
        tuple(f"not-e{j}" for j in range(1, n + 1)),
    )


_CHUNK = 1024  # random instances drawn and checked together: one chunk at the default count
_BLOCK = 512  # stream values pulled at a time
_POS, _NEG = bytes.maketrans(b"\0\1\2", b"100"), bytes.maketrans(b"\0\1\2", b"010")


def _packed(states: bytes) -> tuple[int, int]:
    """Packed ``(pos, neg)`` ints from cell states in bit order: 0 approve, 1 reject, 2 neutral."""
    states = states[::-1]  # int() reads the highest bit first
    return int(states.translate(_POS), 2), int(states.translate(_NEG), 2)


def _operands(space, cells: bytes, starts: list[int], arity: int) -> tuple[BipolarSoftSet, ...]:
    """One set per operand position over ``space``: its lane ``t`` holds that operand of the
    instance whose cells begin at ``starts[t]`` (with one lane, a real set)."""
    width = space.m * space.n
    columns = (b"".join([cells[at + i:at + i + width] for at in starts])
               for i in range(0, arity * width, width))
    return tuple(BipolarSoftSet._closed(space, *_packed(column)) for column in columns)


def _instances(arity: int, cells: bytes, layout: list) -> Iterator[tuple[BipolarSoftSet, ...]]:
    """The operand tuples of one drawn chunk, each over its size's standard space."""
    return (_operands(_standard_space(m, n), cells, [at], arity) for m, n, at in layout)


def gen_bss(
    seed: int, max_m: int = DEFAULT_RANDOM_BOUNDS[0], max_n: int = DEFAULT_RANDOM_BOUNDS[1]
) -> BipolarSoftSet:
    """One random instance; sizes and cells are drawn from the seeded stream."""
    return next(random_tuples(seed, 1, 1, max_m, max_n))[0]


def random_tuples(
    seed: int, count: int, arity: int,
    max_m: int = DEFAULT_RANDOM_BOUNDS[0], max_n: int = DEFAULT_RANDOM_BOUNDS[1],
) -> Iterator[tuple[BipolarSoftSet, ...]]:
    """``count`` operand tuples; each tuple shares one randomly sized space."""
    _require_ints(seed=seed, count=count, arity=arity, max_m=max_m, max_n=max_n)
    if max_m < 1 or max_n < 1:
        raise InvalidArgument("size bounds must be positive")
    if count < 0:
        raise InvalidArgument(f"random count must be >= 0, got {count}")
    if arity < 1:
        raise InvalidArgument(f"arity must be >= 1, got {arity}")
    if max_m * max_n * arity > MAX_RANDOM_CELLS:
        raise BoundsTooLarge(f"{max_m}x{max_n}x{arity} cells exceed {MAX_RANDOM_CELLS} cells")
    for _, (_, instances, _) in _drawn(seed, count, max_m, max_n, (arity,)):
        yield from instances()


def _check_exhaustive(m: int, n: int, arity: int) -> None:
    """Decline an exhaustive pool whose ``arity``-tuples span more than 3^12 cases."""
    _require_ints(m=m, n=n, arity=arity)
    if m < 1 or n < 1:
        raise InvalidArgument("dimensions must be positive")
    if arity < 1:
        raise InvalidArgument(f"arity must be >= 1, got {arity}")
    if m * n * arity > MAX_EXHAUSTIVE_CELLS:
        raise BoundsTooLarge(
            f"3^{m * n * arity} exhaustive instances exceed the limit of 3^{MAX_EXHAUSTIVE_CELLS}"
        )


def _states(cells: int) -> Iterator[bytes]:
    """The 3^cells cell-state strings of ``cells`` cells, in enumeration order.  Bit order
    is parameter-major, so the last object of the last parameter varies fastest."""
    return map(bytes, itertools.product(b"\0\1\2", repeat=cells))


def enumerate_bss(m: int, n: int) -> Iterator[BipolarSoftSet]:
    """Every one of the 3^(m*n) sets over the standard m-by-n space, exactly once."""
    _check_exhaustive(m, n, 1)
    space = standard_space(m, n)
    for states in _states(m * n):
        yield BipolarSoftSet._closed(space, *_packed(states))


def exhaustive_tuples(m: int, n: int, arity: int) -> Iterator[tuple[BipolarSoftSet, ...]]:
    """All ordered ``arity``-tuples of the exhaustively enumerated sets."""
    _check_exhaustive(m, n, arity)
    return itertools.product(list(enumerate_bss(m, n)), repeat=arity)


# -- the law catalogue --------------------------------------------------------

Violation = Optional[dict]


@dataclass(frozen=True)
class Law:
    law_id: str
    arity: int
    must_hold: bool
    description: str
    evaluate: Callable[..., Violation]


@dataclass(frozen=True)
class LawReport:
    """Outcome of checking one law; a failed check carries a replayable witness."""

    law_id: str
    must_hold: bool
    instances_checked: int
    holds: bool
    counterexample: Optional[dict]

    def to_json(self) -> dict:
        return {
            "law": self.law_id,
            "must_hold": self.must_hold,
            "instances_checked": self.instances_checked,
            "holds": self.holds,
            "counterexample": self.counterexample,
        }


def _refute(reason: str) -> dict:
    return {"parameter": None, "reason": reason}


def _differs(left: BipolarSoftSet, right: BipolarSoftSet) -> Violation:
    """None if structurally equal, else the first divergent parameter's cells."""
    if left.pos_bits == right.pos_bits and left.neg_bits == right.neg_bits:
        return None
    space = left.space
    for e, lp, ln, rp, rn in zip(
        space.positive_params, left.pos_masks, left.neg_masks,
        right.pos_masks, right.neg_masks,
    ):
        if lp != rp or ln != rn:
            return {
                "parameter": e,
                "reason": "sides disagree",
                "left": {"positive": list(space.members(lp)), "negative": list(space.members(ln))},
                "right": {"positive": list(space.members(rp)), "negative": list(space.members(rn))},
            }
    return None


# Each side of a law calls the operations on its operands as it runs, never a
# method bound at import, so a patched or traced ``BipolarSoftSet`` is seen.

Sides = Callable[..., tuple[BipolarSoftSet, BipolarSoftSet]]


def _equation(law_id: str, arity: int, description: str, sides: Sides,
              must_hold: bool = True) -> Law:
    """``lhs = rhs``, where ``sides(*operands)`` returns ``(lhs, rhs)``."""

    def evaluate(*operands: BipolarSoftSet) -> Violation:
        return _differs(*sides(*operands))

    return Law(law_id, arity, must_hold, description, evaluate)


def _order(law_id: str, description: str, sides: Sides, reason: str) -> Law:
    """Unary ``lower ≤ upper``, where ``sides(a)`` returns ``(lower, upper)``."""

    def evaluate(a: BipolarSoftSet) -> Violation:
        lower, upper = sides(a)
        return None if lower.is_subset_of(upper) else _refute(reason)

    return Law(law_id, 1, True, description, evaluate)


def _null(a: BipolarSoftSet) -> BipolarSoftSet:
    return BipolarSoftSet.null(a.space)


def _absolute(a: BipolarSoftSet) -> BipolarSoftSet:
    return BipolarSoftSet.absolute(a.space)


def _subset_transitive(a, b, c) -> Violation:
    if a.is_subset_of(b) and b.is_subset_of(c) and not a.is_subset_of(c):
        return _refute("chain premises hold but the conclusion fails")
    return None


def _excluded_middle(a: BipolarSoftSet, join: bool) -> Violation:
    """A ∪ Aᶜ (``join``) approves exactly A's decided cells, rejects nothing, and is
    absolute iff A is complete; A ∩ Aᶜ is the mirror image with the sides swapped."""
    decided = a.pos_bits | a.neg_bits
    if join:
        term, combined, bound = "A ∪ Aᶜ = absolute", a.union(a.complement()), _absolute(a)
        expected = BipolarSoftSet._closed(a.space, decided, 0)
    else:
        term, combined, bound = "A ∩ Aᶜ = null", a.intersection(a.complement()), _null(a)
        expected = BipolarSoftSet._closed(a.space, 0, decided)
    violation = _differs(combined, expected)
    if violation is None and (combined == bound) != a.is_complete():
        return _refute(f"{term} does not coincide with A being complete")
    return violation


# The catalogue, in report order.  Ids, descriptions and the operand order of
# every call are part of the report format: witnesses depend on them.
_LAWS = (
    _order("subset-reflexive", "A is a subset of itself",
           lambda a: (a, a), "A not a subset of itself"),
    Law("subset-transitive", 3, True,
        "A subset of B and B subset of C implies A subset of C", _subset_transitive),
    _order("subset-bounded-below", "the null set is a subset of everything",
           lambda a: (_null(a), a), "null not below A"),
    _order("subset-bounded-above", "everything is a subset of the absolute set",
           lambda a: (a, _absolute(a)), "A not below absolute"),
    _equation("union-idempotent", 1, "A ∪ A = A",
              lambda a: (a.union(a), a)),
    _equation("union-null-identity", 1, "A ∪ null = A",
              lambda a: (a.union(_null(a)), a)),
    _equation("union-absolute-absorbing", 1, "A ∪ absolute = absolute",
              lambda a: (a.union(top := _absolute(a)), top)),
    _equation("union-commutative", 2, "A ∪ B = B ∪ A",
              lambda a, b: (a.union(b), b.union(a))),
    _equation("union-associative", 3, "A ∪ (B ∪ C) = (A ∪ B) ∪ C",
              lambda a, b, c: (a.union(b.union(c)), a.union(b).union(c))),
    _equation("union-absorption", 2, "A ∪ (A ∩ B) = A",
              lambda a, b: (a.union(a.intersection(b)), a)),
    _equation("intersection-idempotent", 1, "A ∩ A = A",
              lambda a: (a.intersection(a), a)),
    _equation("intersection-null-absorbing", 1, "A ∩ null = null",
              lambda a: (a.intersection(bottom := _null(a)), bottom)),
    _equation("intersection-absolute-identity", 1, "A ∩ absolute = A",
              lambda a: (a.intersection(_absolute(a)), a)),
    _equation("intersection-commutative", 2, "A ∩ B = B ∩ A",
              lambda a, b: (a.intersection(b), b.intersection(a))),
    _equation("intersection-associative", 3, "A ∩ (B ∩ C) = (A ∩ B) ∩ C",
              lambda a, b, c: (a.intersection(b.intersection(c)),
                               a.intersection(b).intersection(c))),
    _equation("intersection-absorption", 2, "A ∩ (A ∪ B) = A",
              lambda a, b: (a.intersection(a.union(b)), a)),
    _equation("distributive-intersection-over-union", 3, "A ∩ (B ∪ C) = (A ∩ B) ∪ (A ∩ C)",
              lambda a, b, c: (a.intersection(b.union(c)),
                               a.intersection(b).union(a.intersection(c)))),
    _equation("distributive-union-over-intersection", 3, "A ∪ (B ∩ C) = (A ∪ B) ∩ (A ∪ C)",
              lambda a, b, c: (a.union(b.intersection(c)),
                               a.union(b).intersection(a.union(c)))),
    _equation("complement-involution", 1, "complement of the complement restores A",
              lambda a: (a.complement().complement(), a)),
    _equation("complement-null", 1, "complement of null is absolute",
              lambda a: (_null(a).complement(), _absolute(a))),
    _equation("complement-absolute", 1, "complement of absolute is null",
              lambda a: (_absolute(a).complement(), _null(a))),
    _equation("demorgan-union", 2, "complement of A ∪ B equals Aᶜ ∩ Bᶜ",
              lambda a, b: (a.union(b).complement(),
                            a.complement().intersection(b.complement()))),
    _equation("demorgan-intersection", 2, "complement of A ∩ B equals Aᶜ ∪ Bᶜ",
              lambda a, b: (a.intersection(b).complement(),
                            a.complement().union(b.complement()))),
    _equation("demorgan-and-product", 2, "complement of A ∧ B equals Aᶜ ∨ Bᶜ",
              lambda a, b: (and_product(a, b).complement(),
                            or_product(a.complement(), b.complement()))),
    _equation("demorgan-or-product", 2, "complement of A ∨ B equals Aᶜ ∧ Bᶜ",
              lambda a, b: (or_product(a, b).complement(),
                            and_product(a.complement(), b.complement()))),
    Law("excluded-middle-union", 1, True,
        "A ∪ Aᶜ approves exactly the non-neutral cells, rejects nothing, "
        "and is absolute precisely when A is complete",
        lambda a: _excluded_middle(a, join=True)),
    Law("excluded-middle-intersection", 1, True,
        "A ∩ Aᶜ rejects exactly the non-neutral cells, approves nothing, "
        "and is null precisely when A is complete",
        lambda a: _excluded_middle(a, join=False)),
    _equation("excluded-middle-unconditional", 1,
              "A ∪ Aᶜ = absolute (fails whenever A has a neutral cell)",
              lambda a: (a.union(a.complement()), _absolute(a)), must_hold=False),
    _equation("excluded-middle-intersection-unconditional", 1,
              "A ∩ Aᶜ = null (fails whenever A has a neutral cell)",
              lambda a: (a.intersection(a.complement()), _null(a)), must_hold=False),
)
_CATALOGUE = {law.law_id: law for law in _LAWS}


# -- lane-parallel sources ------------------------------------------------------


class _LaneSpace:
    """Sizes of a lane set of ``lanes`` m-by-n instances, without ids, which a real space
    would build and check for every lane.  Only operations called inside this module ever
    see it.  ``full_mask`` is block 0 of every lane, and ``_squared`` holds the n stacked
    rows of a product; it has no ``full_mask``, so a product of a product raises
    AttributeError.  ``cells_mask`` is built when read: a product's, n times as wide, seldom is."""

    __slots__ = ("m", "n", "lanes", "full_mask", "_squared")
    cells_mask = property(lambda self: (1 << self.m * self.n * self.lanes) - 1)

    def __init__(self, m: int, n: int, lanes: int) -> None:
        self.m, self.n, self.lanes = m, n, lanes
        self.full_mask = self.cells_mask // ((1 << m * n) - 1) * ((1 << m) - 1)
        self._squared = squared = object.__new__(_LaneSpace)
        squared.m, squared.n, squared.lanes = m, n * n, lanes


class _Outcome(NamedTuple):
    """One law once ``_sweep`` has checked it on every source: the count of instances before
    the first failing one, and that instance's operands (one tuple) if one failed."""

    passed: int
    failing: tuple = ()


def _drawn(seed: int, count: int, max_m: int, max_n: int, arities) -> Iterator[tuple]:
    """``count`` instances of each arity while it is in ``arities``, as ``_sweep`` items of up
    to ``_CHUNK`` instances: two stream values give an instance's size, then one per cell its
    state (the value mod 3).  Lane groups are packed from the states; only ``instances()``
    builds sets.  Values below the arity furthest back, which is served first, are dropped."""
    block = min(_BLOCK, count * (2 + max(arities) * max_m * max_n))
    sizing, states, base = array("Q"), bytearray(), 0
    cursors, left = dict.fromkeys(arities, 0), dict.fromkeys(arities, count)

    def fill(end: int) -> None:  # hold stream values ``base`` to ``base + end``, and each mod 3
        while len(sizing) < end:
            values, residues = _splitmix_block(seed, base + len(sizing), block)
            sizing.extend(values)
            states.extend(residues)

    while live := [a for a in cursors if a in arities and left[a]]:
        arity = min(live, key=cursors.__getitem__)
        del sizing[:cursors[arity] - base], states[:cursors[arity] - base]  # read by no arity
        base, at, layout, sizes = cursors[arity], 0, [], {}
        for _ in range(min(_CHUNK, left[arity])):
            fill(at + 2)
            m, n = 1 + sizing[at] % max_m, 1 + sizing[at + 1] % max_n
            layout.append((m, n, at + 2))
            sizes.setdefault((m, n), []).append(at + 2)
            at += 2 + arity * m * n
        fill(at)
        cursors[arity], left[arity] = base + at, left[arity] - len(layout)
        cells = bytes(states[:at])
        groups = [_operands(_LaneSpace(m, n, len(starts)), cells, starts, arity)
                  for (m, n), starts in sizes.items()]  # lane t: the size's t-th instance
        yield arity, (len(layout), partial(_instances, arity, cells, layout), groups)


def _pooled(pool: list[BipolarSoftSet], arity: int) -> Iterator[tuple]:
    """The ``arity``-tuples of the ``enumerate_bss`` pool in ``exhaustive_tuples`` order, as
    one ``_sweep`` item per leading operand (if any): the last two operands packed from their
    cell states, lane t holding their t-th tuple, and the leading one multiplied into every
    lane of its chunk, which costs far less than packing a chunk-wide operand from bytes."""
    k, size, (m, n) = min(arity, 2), len(pool), (pool[0].space.m, pool[0].space.n)
    space, states = _LaneSpace(m, n, size ** k), list(_states(m * n))
    ones = space.cells_mask // ((1 << m * n) - 1)  # bit 0 of every lane
    tail = tuple(BipolarSoftSet._closed(space, *_packed(
        b"".join(s * size ** (k - 1 - j) for s in states) * size ** j)) for j in range(k))

    def instances(head: tuple) -> Iterator[tuple]:
        return (head + rest for rest in itertools.product(pool, repeat=k))

    for head in itertools.product(pool, repeat=arity - k):
        lanes = tuple(BipolarSoftSet._closed(space, h.pos_bits * ones, h.neg_bits * ones)
                      for h in head)
        yield arity, (space.lanes, partial(instances, head), [lanes + tail])


def _first_failing(law: Law, one_cell: bool, groups: list,
                   instances: Callable[[], Iterable[tuple]]) -> Optional[tuple[int, tuple]]:
    """The index and operands of the first of a chunk's instances that fails ``law``, or
    None.  The chunk passes if ``law`` holds on every one-cell instance (``one_cell``) and
    on every lane group; else the scalar evaluator walks it from its first instance."""
    try:
        if one_cell and all(law.evaluate(*lane_sets) is None for lane_sets in groups):
            return None
    except AttributeError:  # a witness or an operation read ids, or a product was nested
        pass
    for i, operands in enumerate(instances()):
        if law.evaluate(*operands) is not None:
            return i, operands
    return None


def _sweep(pending: dict[int, list[Law]], items: Iterator[tuple]) -> dict[str, _Outcome]:
    """Each law in ``pending`` (laws by arity, left by each law that fails and each arity with
    none left, whose chunks are then skipped) on one stream of chunks from every source.  An
    item is ``(arity, (count, instances, groups))``: ``instances()`` iterates the chunk's
    ``count`` instances, and ``groups`` holds them packed, one lane set per operand position
    in each group.  ``_first_failing`` says whether a whole chunk passes, or finds the failure."""
    space = standard_space(1, 1)
    cells = [BipolarSoftSet._closed(space, *_packed(state)) for state in _states(1)]
    one_cell = {law.law_id: all(law.evaluate(*operands) is None  # on all 3^arity tuples
                                for operands in itertools.product(cells, repeat=law.arity))
                for laws in pending.values() for law in laws}
    outcomes: dict = {}
    offsets = dict.fromkeys(pending, 0)  # per arity, the instances before its next chunk
    while pending and (item := next(items, None)) is not None:
        arity, (count, instances, groups) = item
        for law in pending.get(arity, ()):  # a dead arity's chunk costs only its head lanes
            failure = _first_failing(law, one_cell[law.law_id], groups, instances)
            if failure is not None:
                outcomes[law.law_id] = _Outcome(offsets[arity] + failure[0], (failure[1],))
        offsets[arity] += count
        pending[arity] = [law for law in pending.get(arity, ()) if law.law_id not in outcomes]
        if not pending[arity]:
            del pending[arity]
    outcomes.update((law.law_id, _Outcome(offsets[arity]))
                    for arity, laws in pending.items() for law in laws)
    return outcomes


# -- checking -----------------------------------------------------------------


def catalogue() -> tuple[Law, ...]:
    """All catalogued laws, in report order."""
    return _LAWS


def get_law(law_id: str) -> Law:
    try:
        return _CATALOGUE[law_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise UnknownLaw(law_id) from None


def check_law(law_id: str, instances: Iterable) -> LawReport:
    """Evaluate one law on every instance, stopping at the first counterexample.

    ``instances`` yields either bare sets (unary laws) or operand tuples of
    the law's arity; all operands of a tuple must share a space.
    """
    law = get_law(law_id)
    if not isinstance(instances, Iterable):
        kind = type(instances).__name__
        raise InvalidArgument(f"law {law_id!r} takes an iterable of instances, got a {kind}")
    checked = 0
    for item in instances:
        if isinstance(item, _Outcome):  # only from run_catalogue
            checked += item.passed
            items = item.failing
        else:
            items = (item,)
        for operands in items:
            operands = operands if isinstance(operands, tuple) else (operands,)
            if len(operands) != law.arity or not all(isinstance(o, BipolarSoftSet) for o in operands):
                kinds = ", ".join(type(o).__name__ for o in operands)
                raise InvalidArgument(
                    f"law {law_id!r} takes {law.arity} bipolar soft set(s), got ({kinds})")
            checked += 1
            violation = law.evaluate(*operands)
            if violation is not None:
                witness = {"operands": [codec.to_document(o) for o in operands]}
                witness.update(violation)
                return LawReport(law_id, law.must_hold, checked, False, witness)
    return LawReport(law_id, law.must_hold, checked, True, None)


def recheck(report: LawReport) -> bool:
    """True iff the report's stored counterexample still violates its law."""
    if report.holds or not report.counterexample:
        return False
    law = get_law(report.law_id)
    witness = report.counterexample
    documents = witness.get("operands") if isinstance(witness, dict) else None
    if not isinstance(documents, (list, tuple)) or len(documents) != law.arity:
        raise InvalidArgument(f"a {report.law_id!r} witness needs {law.arity} operand document(s)")
    return law.evaluate(*(codec.from_document(doc) for doc in documents)) is not None


def run_catalogue(
    law_ids: Optional[Iterable[str]] = None,
    exhaustive: Optional[tuple[int, int]] = (2, 2),
    random_count: int = 1000,
    seed: int = 1,
    random_bounds: tuple[int, int] = DEFAULT_RANDOM_BOUNDS,
) -> list[LawReport]:
    """Check selected laws (default: all) over exhaustive plus random instances.

    Raises before any check: BoundsTooLarge if over budget, InvalidArgument if no source or a bad one."""
    if law_ids is None:
        selected = catalogue()
    elif isinstance(law_ids, str) or not isinstance(law_ids, Iterable):  # a str: one id per char
        raise InvalidArgument(f"law ids must be a collection of ids, got {law_ids!r}")
    else:
        selected = tuple(get_law(law_id) for law_id in law_ids)
    pairs = (random_bounds,) if exhaustive is None else (exhaustive, random_bounds)
    if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in pairs):
        raise InvalidArgument("pools and bounds must be (m, n) pairs")
    _require_ints(random_count=random_count, seed=seed,
                  max_m=random_bounds[0], max_n=random_bounds[1])
    if random_count < 0:
        raise InvalidArgument(f"random count must be >= 0, got {random_count}")
    if random_count and min(random_bounds) < 1:
        raise InvalidArgument("size bounds must be positive")
    if exhaustive is None and random_count == 0:
        raise InvalidArgument("no instances to check: give an exhaustive pool or a random count")
    if exhaustive is not None:
        _check_exhaustive(*exhaustive, 1)  # also when no law is selected
        for law in selected:
            _check_exhaustive(exhaustive[0], exhaustive[1], law.arity)
    if random_count > 3 ** MAX_EXHAUSTIVE_CELLS:
        raise BoundsTooLarge(f"{random_count} random instances per law exceed 3^{MAX_EXHAUSTIVE_CELLS}")
    for law in selected:
        if random_count * random_bounds[0] * random_bounds[1] * law.arity > MAX_RANDOM_CELLS:
            raise BoundsTooLarge(
                f"{random_count} random instances of up to {random_bounds[0]}x{random_bounds[1]}"
                f"x{law.arity} cells exceed {MAX_RANDOM_CELLS} cells per law"
            )
    distinct = {law.law_id: law for law in selected}.values()  # a repeated id is swept once
    pool = list(enumerate_bss(*exhaustive)) if exhaustive is not None and selected else None
    by_arity = {arity: [law for law in distinct if law.arity == arity]
                for arity in dict.fromkeys(law.arity for law in distinct)}
    sources = [] if pool is None else [_pooled(pool, arity) for arity in by_arity]
    if random_count:  # after the pool; it draws only the arities with a law left
        sources.append(_drawn(seed, random_count, *random_bounds, by_arity))
    found = _sweep(by_arity, itertools.chain(*sources))
    reports = {law.law_id: check_law(law.law_id, [found[law.law_id]]) for law in distinct}
    return [reports[law.law_id] for law in selected]
