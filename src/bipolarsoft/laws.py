"""Brute-force law checking over enumerated and seeded-random instances.

Every algebraic law the library relies on is a row of one catalogue table and can be checked
against any instance source.  A row is its formula in the paper's notation, compiled once into
one function of the operands; only subset transitivity, an implication, is written out.  A law
either holds on every supplied instance or the check stops at the first counterexample,
which is stored in serialized form so the violation can be replayed later.

``run_catalogue`` checks its laws in one sweep (``_sweep``) over each arity's exhaustive pool
(``_pool_lanes``, whose cache holds each batch's sweep item), then the seeded random draw
(``_chunks``, from the splitmix64 blocks of ``_splitmix_blocks``), a chunk at a time, so memory
does not grow with the count.  Each law's one ``_Outcome`` becomes its report in ``check_law``,
kept the only builder of a ``LawReport`` because the benchmark's tracer counts instances there.

Each operand position of a chunk is one lane set, its instances side by side: the pool's from
the digits of the tuples' indices (``_pool_lanes``), a drawn chunk's from its cell states
(``_columns``).  Union, intersection, complement, null and absolute act cell by cell, so one
bigint operation evaluates a term on all lanes.  A product's cell ``(i, (k, l))`` reads cell
``(i, k)`` of one operand and ``(i, l)`` of the other, so its rows on lane sets of one size are
a few bigint operations each.  On a drawn chunk's mixed sizes it raises AttributeError, as any
operation that reads ``m`` or ``n`` does, and the row takes the chunk's size groups.

On lane sets, ``_differs`` is None only if no lane differs and ``is_subset_of`` is the AND of the
lanes, so an equation or order row fails a chunk with a failing lane.  An implication (subset
transitivity) or a biconditional between whole-set predicates (the conditional excluded-middle
rows' "absolute iff complete") is not the AND of its lanes, so for these ``_STAND_IN`` rows the
one-cell instances stand in: an m×n set is a direct product of m·n one-cell sets, so such a row
holds on every set once it holds on every one-cell instance (Birkhoff 1935).  Counts and witnesses
are the scalar check's only if every operation is lane-local over instances of mixed sizes side by
side (lane t of a result reads only lane t of the operands) and cell-local.  Nothing checks
either: the tests' ``NONLOCAL_FAULTS`` pass ``run_catalogue``.

Two catalogued laws are expected to fail: the unconditional excluded-middle forms, which
break on any instance with a neutral cell.  Their corrected conditional forms must hold.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import codec
from .core import BipolarSoftSet, _cell_states, _instance, _packed
from .errors import BoundsTooLarge, InvalidArgument, UnknownLaw
from .products import and_product, or_product
from .space import ParameterSpace

MAX_EXHAUSTIVE_CELLS = 12  # 3^12 instances per law from each source; anything larger is declined
DEFAULT_RANDOM_BOUNDS = (6, 4)  # (max_m, max_n) of randomly sized instances
DEFAULT_SEED = 1  # of the random draw
# Random cells per law (count * max_m * max_n * arity): the 3^12 count at the default bounds.
MAX_RANDOM_CELLS = 3 ** MAX_EXHAUSTIVE_CELLS * math.prod(DEFAULT_RANDOM_BOUNDS) * 3


# -- deterministic instance generation ---------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's counter step
_FOLD = bytes.maketrans(b"\3", b"\2")  # a residue's codes 2 and 3 both mean 2


def _require_ints(**values: object) -> None:
    """Raise InvalidArgument naming the first value that is not an int."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise InvalidArgument(f"{name} must be an integer, got {value!r}")


@lru_cache(maxsize=16)
def _lanes(size: int) -> tuple[int, int, int, int]:
    """``size`` 128-bit lanes: bit 0 of each, (t + 1)·γ mod 2^64 in lane t, bits 0–63, 64–65."""
    ones = int.from_bytes((b"\1" + bytes(15)) * size, "little")
    ramp = b"".join((t * _GAMMA & _MASK64).to_bytes(16, "little") for t in range(1, size + 1))
    return ones, int.from_bytes(ramp, "little"), ones * _MASK64, ones * 3 << 64


def _splitmix_blocks(seed: int, first: int, size: int) -> Iterator[tuple[array, bytes]]:
    """Consecutive ``size``-value blocks of the seed's splitmix64 stream from value ``first``
    on, each as its values and each value mod 3.  Value i is mix(seed + (i + 1)·γ mod 2^64), so
    a block is computed at once, one value per 128-bit lane of an int: a lane times a 64-bit
    constant stays in its lane, and a mask drops what a right shift brings in from the next
    lane.  The counters are multiplied into the lanes once and then step a block at a time.
    Bits 63 and 64 of z·⌈2^65/3⌉, for z < 2^64, are the top two bits of the fraction of z/3 plus
    less than 1/6: code r for a residue r of 0 or 1, and 2 or 3 for 2, which one ``translate``
    folds.  A code is written into the free upper half of its lane, so one ``to_bytes`` gives
    both."""
    ones, ramp, low, codes = _lanes(size)
    step = (size * _GAMMA & _MASK64) * ones
    counters = (ramp + (seed + first * _GAMMA & _MASK64) * ones) & low
    while True:
        z = ((counters ^ counters >> 30) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ z >> 27) & low) * 0x94D049BB133111EB & low
        z = (z ^ z >> 31) & low
        raw = (z | z * 0xAAAAAAAAAAAAAAAB << 1 & codes).to_bytes(16 * size, "little")
        values = array("Q", raw)
        if sys.byteorder == "big":
            values.byteswap()
        yield values[::2], raw[8::16].translate(_FOLD)
        counters = (counters + step) & low


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


def _sets(space, columns: Iterable[bytes]) -> tuple:
    """One set over ``space`` per operand position, packed from its column of cell states."""
    return tuple(BipolarSoftSet._closed(space, *_packed(column)) for column in columns)


def _instances(columns: list[bytes], sizes: Iterable) -> Iterator[tuple]:
    """The operand tuples of a chunk whose operand j is ``columns[j]``, its instances' cell
    states one after another, m·n cells each; each tuple over its size's standard space."""
    at = 0
    for m, n in sizes:
        yield _sets(_standard_space(m, n), [column[at:at + m * n] for column in columns])
        at += m * n


def _size_groups(columns: list[bytes], sizes: list) -> list[tuple]:
    """One lane group per size of a drawn chunk, lane t holding that size's t-th instance."""
    by_size: dict = {}
    at = 0
    for m, n in sizes:
        by_size.setdefault((m, n), []).append(slice(at, at + m * n))
        at += m * n
    return [_sets(_LaneSpace(m, n, len(cuts)), [b"".join(map(column.__getitem__, cuts))
                                                for column in columns])
            for (m, n), cuts in by_size.items()]


def gen_bss(
    seed: int, max_m: int = DEFAULT_RANDOM_BOUNDS[0], max_n: int = DEFAULT_RANDOM_BOUNDS[1]
) -> BipolarSoftSet:
    """One random instance; sizes and cells are drawn from the seeded stream."""
    return next(random_tuples(seed, 1, 1, max_m, max_n))[0]


def random_tuples(
    seed: int, count: int, arity: int,
    max_m: int = DEFAULT_RANDOM_BOUNDS[0], max_n: int = DEFAULT_RANDOM_BOUNDS[1],
) -> Iterator[tuple[BipolarSoftSet, ...]]:
    """``count`` operand tuples; each tuple shares one randomly sized space.  The arguments
    are checked by ``_check_random`` when called, before any value is drawn."""
    _check_random(seed, count, arity, max_m, max_n)
    chunks = _chunks(seed, count, max_m, max_n, (arity,))
    return itertools.chain.from_iterable(_instances(columns, sizes) for _, columns, sizes in chunks)


def _check_random(seed: int, count: int, arity: int, max_m: int, max_n: int) -> None:
    """Decline a random source of ``count`` ``arity``-tuples over more than 3^12 instances or
    ``MAX_RANDOM_CELLS`` cells."""
    _require_ints(seed=seed, count=count, arity=arity, max_m=max_m, max_n=max_n)
    if count < 0:
        raise InvalidArgument(f"random count must be >= 0, got {count}")
    if max_m < 1 or max_n < 1:
        raise InvalidArgument("size bounds must be positive")
    if arity < 1:
        raise InvalidArgument(f"arity must be >= 1, got {arity}")
    if count > 3 ** MAX_EXHAUSTIVE_CELLS:
        raise BoundsTooLarge(f"{count} random instances per law exceed 3^{MAX_EXHAUSTIVE_CELLS}")
    if count * max_m * max_n * arity > MAX_RANDOM_CELLS:
        raise BoundsTooLarge(f"{count} random instances of up to {max_m}x{max_n}x{arity} cells "
                             f"exceed {MAX_RANDOM_CELLS} cells per law")


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


def enumerate_bss(m: int, n: int) -> Iterator[BipolarSoftSet]:
    """Every one of the 3^(m*n) sets over the standard m-by-n space, exactly once: set d's
    cell states are the base-3 digits of d, cell 0 the highest (bit order is parameter-major,
    so the last object of the last parameter varies fastest).  The size is checked by
    ``_check_exhaustive`` when called, before any set is built."""
    _check_exhaustive(m, n, 1)
    space = standard_space(m, n)
    return (BipolarSoftSet._closed(space, *_packed(bytes(states)))
            for states in itertools.product(b"\0\1\2", repeat=m * n))


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
    """None if structurally equal, else the first divergent parameter's cells, or a bare
    refutation if no parameter can be named: on a lane set, which has no ids, or past them all."""
    if left.pos_bits == right.pos_bits and left.neg_bits == right.neg_bits:
        return None
    if not isinstance(left.space, ParameterSpace):
        return _refute("sides disagree")
    for (e, *lhs), (_, *rhs) in zip(left._assignment(), right._assignment()):
        if lhs != rhs:
            sides = [{"positive": list(pos), "negative": list(neg)} for pos, neg in (lhs, rhs)]
            return {"parameter": e, "reason": "sides disagree", "left": sides[0], "right": sides[1]}
    return _refute("sides disagree")


# A row is read from its formula in the paper's notation: operands A, B and C, the constants
# null and absolute, postfix ᶜ and one of ∪ ∩ ∧ ∨ per parenthesis level.  Each row is compiled
# once into one function that names its operations and looks them up when it runs, not bound
# at import, so patched or traced operations are seen.  Only ``_LAWS``'s text reaches eval.
_TOKENS = re.compile(r"[A-Za-z]+|\S")  # a name, or any other symbol but a space
_LEAVES = {"A": "v[0]", "B": "v[1]", "C": "v[2]", "null": "BipolarSoftSet.null(v[0].space)",
           "absolute": "BipolarSoftSet.absolute(v[0].space)"}
_NODES = {"∪": "{}.union({})", "∩": "{}.intersection({})", "∧": "and_product({}, {})",
          "∨": "or_product({}, {})", "ᶜ": "{}.complement()"}


def _term(tokens: list[str]) -> str:
    """The term at the front of ``tokens``, which it consumes, as an expression over ``v``."""

    def operand():
        token = tokens.pop(0)
        f = _LEAVES[token] if token != "(" else _term(tokens)
        if token == "(" and tokens.pop(0) != ")":
            raise ValueError("expected ')' after one operation")
        while tokens[:1] == ["ᶜ"]:
            f = _NODES[tokens.pop(0)].format(f)
        return f

    f = operand()
    return _NODES[tokens.pop(0)].format(f, operand()) if tokens and tokens[0] in _NODES else f


def _sides(formula: str, relation: str) -> tuple[int, str, str]:
    """The arity (to the last operand named, and at least A, whose space the constants take)
    and both terms of ``lhs relation rhs``."""
    tokens = _TOKENS.findall(formula)
    arity = max([1, *map(" ABC".find, tokens)])  # A, B, C count 1, 2, 3; other tokens -1
    try:  # KeyError: an unknown symbol; IndexError: an early end; ValueError: no ')'
        lhs, sign, rhs = _term(tokens), tokens.pop(0), _term(tokens)
    except (KeyError, IndexError, ValueError):
        sign = None
    if sign != relation or tokens:
        raise ValueError(f"{formula!r} is not one {relation} between two terms")
    return arity, lhs, rhs


def _compiled(body: str) -> Callable:
    """``lambda *v: body`` in this module's own globals: a copy would hide a patched name."""
    return eval(f"lambda *v: {body}", globals())


def _equation(law_id: str, formula: str, description: str = "", must_hold: bool = True) -> Law:
    """``lhs = rhs``; the description is the formula unless given."""
    arity, lhs, rhs = _sides(formula, "=")
    return Law(law_id, arity, must_hold, description or formula,
               _compiled(f"_differs({lhs}, {rhs})"))


def _order(law_id: str, formula: str, description: str, reason: str) -> Law:
    """``lower ⊆ upper``, refuted with ``reason``."""
    arity, lower, upper = _sides(formula, "⊆")
    return Law(law_id, arity, True, description,
               _compiled(f"None if {lower}.is_subset_of({upper}) else _refute({reason!r})"))


def _excluded_middle(law_id: str, formula: str, description: str) -> Law:
    """``A ∪ Aᶜ = absolute`` corrected: A ∪ Aᶜ is the bound on A's decided cells, neutral
    elsewhere, and is the bound iff A is complete.  Likewise ``A ∩ Aᶜ = null``."""
    arity, lhs, rhs = _sides(formula, "=")
    sides = _compiled(f"({lhs}, {rhs})")

    def evaluate(a: BipolarSoftSet) -> Violation:
        combined, bound = sides(a)
        decided = a.pos_bits | a.neg_bits
        violation = _differs(combined, BipolarSoftSet._closed(
            a.space, decided & bound.pos_bits, decided & bound.neg_bits))
        if violation is None and (combined == bound) != a.is_complete():
            return _refute(f"{formula} does not coincide with A being complete")
        return violation

    return Law(law_id, arity, True, description, evaluate)


# The catalogue, in report order.  Ids, descriptions and the operand order of
# every call are part of the report format: witnesses depend on them.
_LAWS = (
    _order("subset-reflexive", "A ⊆ A", "A is a subset of itself", "A not a subset of itself"),
    Law("subset-transitive", 3, True, "A subset of B and B subset of C implies A subset of C",
        lambda a, b, c: _refute("chain premises hold but the conclusion fails")
        if a.is_subset_of(b) and b.is_subset_of(c) and not a.is_subset_of(c) else None),
    _order("subset-bounded-below", "null ⊆ A", "the null set is a subset of everything",
           "null not below A"),
    _order("subset-bounded-above", "A ⊆ absolute", "everything is a subset of the absolute set",
           "A not below absolute"),
    _equation("union-idempotent", "A ∪ A = A"),
    _equation("union-null-identity", "A ∪ null = A"),
    _equation("union-absolute-absorbing", "A ∪ absolute = absolute"),
    _equation("union-commutative", "A ∪ B = B ∪ A"),
    _equation("union-associative", "A ∪ (B ∪ C) = (A ∪ B) ∪ C"),
    _equation("union-absorption", "A ∪ (A ∩ B) = A"),
    _equation("intersection-idempotent", "A ∩ A = A"),
    _equation("intersection-null-absorbing", "A ∩ null = null"),
    _equation("intersection-absolute-identity", "A ∩ absolute = A"),
    _equation("intersection-commutative", "A ∩ B = B ∩ A"),
    _equation("intersection-associative", "A ∩ (B ∩ C) = (A ∩ B) ∩ C"),
    _equation("intersection-absorption", "A ∩ (A ∪ B) = A"),
    _equation("distributive-intersection-over-union", "A ∩ (B ∪ C) = (A ∩ B) ∪ (A ∩ C)"),
    _equation("distributive-union-over-intersection", "A ∪ (B ∩ C) = (A ∪ B) ∩ (A ∪ C)"),
    _equation("complement-involution", "Aᶜᶜ = A", "complement of the complement restores A"),
    _equation("complement-null", "nullᶜ = absolute", "complement of null is absolute"),
    _equation("complement-absolute", "absoluteᶜ = null", "complement of absolute is null"),
    _equation("demorgan-union", "(A ∪ B)ᶜ = Aᶜ ∩ Bᶜ", "complement of A ∪ B equals Aᶜ ∩ Bᶜ"),
    _equation("demorgan-intersection", "(A ∩ B)ᶜ = Aᶜ ∪ Bᶜ", "complement of A ∩ B equals Aᶜ ∪ Bᶜ"),
    _equation("demorgan-and-product", "(A ∧ B)ᶜ = Aᶜ ∨ Bᶜ", "complement of A ∧ B equals Aᶜ ∨ Bᶜ"),
    _equation("demorgan-or-product", "(A ∨ B)ᶜ = Aᶜ ∧ Bᶜ", "complement of A ∨ B equals Aᶜ ∧ Bᶜ"),
    _excluded_middle("excluded-middle-union", "A ∪ Aᶜ = absolute",
                     "A ∪ Aᶜ approves exactly the non-neutral cells, rejects nothing, "
                     "and is absolute precisely when A is complete"),
    _excluded_middle("excluded-middle-intersection", "A ∩ Aᶜ = null",
                     "A ∩ Aᶜ rejects exactly the non-neutral cells, approves nothing, "
                     "and is null precisely when A is complete"),
    _equation("excluded-middle-unconditional", "A ∪ Aᶜ = absolute",
              "A ∪ Aᶜ = absolute (fails whenever A has a neutral cell)", must_hold=False),
    _equation("excluded-middle-intersection-unconditional", "A ∩ Aᶜ = null",
              "A ∩ Aᶜ = null (fails whenever A has a neutral cell)", must_hold=False),
)
_CATALOGUE = {law.law_id: law for law in _LAWS}
# The rows that are not the AND of their lanes: an implication and the two biconditionals
# between whole-set predicates, for which the one-cell instances stand in.
_STAND_IN = frozenset({"subset-transitive", "excluded-middle-union",
                       "excluded-middle-intersection"})


# -- lane-parallel sources ------------------------------------------------------


class _LaneSpace:
    """Sizes of a lane set of ``lanes`` m-by-n instances, without the ids a real space would
    build and check per lane; only this module's checks see it.  ``full_mask`` is block 0 of
    every lane; ``_squared``, the n stacked rows of a product, has none, so a product of a
    product raises AttributeError.  ``cells_mask`` is built when read, as a product's seldom is."""

    __slots__ = ("m", "n", "lanes", "full_mask", "_squared")
    cells_mask = property(lambda self: (1 << self.m * self.n * self.lanes) - 1)

    def __init__(self, m: int, n: int, lanes: int) -> None:
        self.m, self.n, self.lanes = m, n, lanes
        self.full_mask = self.cells_mask // ((1 << m * n) - 1) * ((1 << m) - 1)
        self._squared = squared = object.__new__(_LaneSpace)
        squared.m, squared.n, squared.lanes = m, n * n, lanes


class _MixedLanes:
    """A drawn chunk's lane set of mixed sizes: ``cells_mask`` alone, without sizes or ids."""

    __slots__ = ("cells_mask",)

    def __init__(self, cells: int) -> None:
        self.cells_mask = (1 << cells) - 1


class _Outcome(NamedTuple):
    """One law once ``_sweep`` has checked it on every source: the count of instances before
    the first failing one, and that instance's operands (one tuple) if one failed."""

    passed: int
    failing: tuple = ()


def _chunks(seed: int, count: int, max_m: int, max_n: int, arities) -> Iterator[tuple]:
    """``count`` instances of each arity while it is in ``arities``, up to ``_CHUNK`` at a time,
    as ``(arity, columns, sizes)``: two stream values give an instance's size, then one per cell
    its state (the value mod 3), operand after operand; ``_columns`` gathers each operand's.
    Values below the arity furthest back, served first, are dropped."""
    block = min(_BLOCK, count * (2 + max(arities) * max_m * max_n))
    sizing, states, base = array("Q"), bytearray(), 0
    cursors, left = dict.fromkeys(arities, 0), dict.fromkeys(arities, count)
    blocks = _splitmix_blocks(seed, 0, block)  # the next block starts at ``base + len(sizing)``

    def fill(end: int) -> None:  # hold stream values ``base`` to ``base + end``, and each mod 3
        while len(sizing) < end:
            values, residues = next(blocks)
            sizing.extend(values)
            states.extend(residues)

    while live := [a for a in cursors if a in arities and left[a]]:
        arity = min(live, key=cursors.__getitem__)
        del sizing[:cursors[arity] - base], states[:cursors[arity] - base]  # read by no arity
        base, at, sizes, want = cursors[arity], 0, [], min(_CHUNK, left[arity])
        while len(sizes) < want:
            try:  # a walk that reads past the values held stops at IndexError, and goes on
                for _ in range(want - len(sizes)):
                    m, n = 1 + sizing[at] % max_m, 1 + sizing[at + 1] % max_n
                    sizes.append((m, n))
                    at += 2 + arity * m * n
            except IndexError:
                fill(at + 2)
        fill(at)
        cursors[arity], left[arity] = base + at, left[arity] - len(sizes)
        yield arity, _columns(states[:at], [m * n for m, n in sizes], arity), sizes


# One ``translate`` per operand j of a tag group: keep its tagged states 3j + s as s, drop the rest.
_BYTES = bytes(range(256))
_TABLES = [(bytes(3 * j) + _BYTES[:256 - 3 * j], _BYTES[:3 * j] + _BYTES[3 * j + 3:])
           for j in range(84)]


def _columns(cells: bytearray, widths: list, arity: int) -> list[bytes]:
    """Each operand position's cells of a chunk, instance after instance.  Operands are tagged
    in groups of 84: a tag stream joined from one piece per instance (its two size values, then
    its operands) adds 3j to each cell of the group's operand j and 252 to every other byte, so
    no byte carries (3·83 + 2 < 252, 252 + 2 < 256), and one ``translate`` keeps an operand's."""
    states, columns = int.from_bytes(cells, "little"), []
    for lo in range(0, arity, 84):
        tags = b"\xfc" * lo + _BYTES[:3 * min(84, arity - lo):3] + b"\xfc" * (arity - lo - 84)
        pieces = {w: b"\xfc\xfc" + b"".join(bytes((t,)) * w for t in tags) for w in set(widths)}
        stream = int.from_bytes(b"".join(map(pieces.__getitem__, widths)), "little")
        tagged = (states + stream).to_bytes(len(cells), "little")
        columns += [tagged.translate(*_TABLES[j - lo]) for j in range(lo, min(arity, lo + 84))]
    return columns


def _drawn(seed: int, count: int, max_m: int, max_n: int, arities) -> Iterator[tuple]:
    """``_chunks`` as ``_sweep`` items: each operand position packed into one lane set of all
    sizes, instance t in its m_t·n_t cells in stream order, size groups only if asked."""
    for arity, columns, sizes in _chunks(seed, count, max_m, max_n, arities):
        lanes = _sets(_MixedLanes(len(columns[0])), columns)
        yield arity, (len(sizes), partial(_instances, columns, sizes), lanes,
                      lru_cache(maxsize=1)(partial(_size_groups, columns, sizes)))


# Lanes per pool batch: 9 leading operands of the 2×2 pool's ternary laws, about 30 KB an int.
# Fewer lanes pay more calls per row, more lanes miss the cache: the ternary laws on the pool
# took 2.38, 1.53, 1.25, 1.19 and 2.19 ms with 1, 3, 9, 27 and 81 leading operands a batch,
# and 27 would hold 1.04 MB of lanes against 0.71 MB.  A power of 3, as every pool's size
# is, so every batch is full.
_POOL_LANES = 3 ** 10


def _tiled(bits: int, width: int, times: int) -> int:
    """``times`` copies of ``width``-bit ``bits``, copy i at bit i·width, doubling as it goes."""
    tiled = 0
    while times:
        if times & 1:
            tiled = tiled << width | bits
        bits |= bits << width
        width *= 2
        times >>= 1
    return tiled


def _digit_lanes(first: int, lanes: int, cells: int, top: int) -> tuple[int, int]:
    """``(pos, neg)`` of ``lanes`` lanes of ``cells`` cells, lane t holding in cell c the state
    of base-3 digit p = top − c of first + t.  ``lanes`` is a power of 3 that divides ``first``:
    below it, digit p's states take turns in runs of 3^p lanes; above it, p holds in every
    lane its state in ``first``."""
    pos = neg = 0
    for c in range(cells):
        run = 3 ** (top - c)
        if run < lanes:
            bits = _tiled(_tiled(1 << c, cells, run), 3 * run * cells, lanes // (3 * run))
            pos, neg = pos | bits, neg | bits << run * cells
        elif first // run % 3 == 0:
            pos |= _tiled(1 << c, cells, lanes)
        elif first // run % 3 == 1:
            neg |= _tiled(1 << c, cells, lanes)
    return pos, neg


@lru_cache(maxsize=3)  # a default pass's three arities, 0.67 MB; 1.70 MB at most each
def _pool_lanes(m: int, n: int, arity: int) -> tuple[tuple, ...]:
    """The pool's ``arity``-tuples in ``exhaustive_tuples`` order as ``_sweep`` items, values
    only, never verdicts: up to ``_POOL_LANES`` consecutive tuples a batch, as one lane set per
    operand, lane t its batch's t-th tuple; ``_walked`` builds a batch's sets if a law walks it.
    Tuple g is the base-3 digits of g: cell c of operand j holds digit (arity − j)·cells − 1 − c.
    All batches share one space, and an operand's lane set is built once for every batch whose
    digits in it agree: those whose first tuples have that operand in common."""
    cells = m * n
    size = 3 ** cells
    space = _LaneSpace(m, n, min(_POOL_LANES, size ** arity))
    built: dict = {}
    items = []
    for first in range(0, size ** arity, space.lanes):
        keys = [(j, first // size ** (arity - 1 - j) % size) for j in range(arity)]
        for j, operand in keys:
            if (j, operand) not in built:
                built[j, operand] = BipolarSoftSet._closed(
                    space, *_digit_lanes(first, space.lanes, cells, (arity - j) * cells - 1))
        lanes = tuple(map(built.__getitem__, keys))
        items.append((arity, (space.lanes, partial(_walked, lanes), lanes, None)))
    return tuple(items)


def _walked(lanes: tuple) -> Iterator[tuple]:
    """A pool batch's tuples, cut from the cell states of its lane sets."""
    space = lanes[0].space
    width = space.m * space.n * space.lanes
    columns = [_cell_states(lane_set.pos_bits, lane_set.neg_bits, width) for lane_set in lanes]
    return _instances(columns, itertools.repeat((space.m, space.n), space.lanes))


def _sweep(pending: dict[int, list[Law]], items: Iterator[tuple]) -> dict[str, _Outcome]:
    """Each law in ``pending`` (laws by arity, left by each law that fails and each arity with
    none left, whose chunks are then skipped) on one stream of chunks from every source.  An
    item is ``(arity, (count, instances, lanes, groups))``: ``instances()`` iterates the chunk's
    ``count`` instances, and ``lanes`` (``groups()`` by size, if not None) holds them packed, one
    lane set per operand position.  A law passes a chunk if it holds on the lanes (the groups, if
    those raise), and a ``_STAND_IN`` row also on every one-cell instance; else the scalar
    evaluator walks it."""
    cells = list(enumerate_bss(1, 1))
    one_cell = {law.law_id: all(law.evaluate(*operands) is None  # on all 3^arity tuples
                                for operands in itertools.product(cells, repeat=law.arity))
                for laws in pending.values() for law in laws if law.law_id in _STAND_IN}
    outcomes: dict = {}
    offsets = dict.fromkeys(pending, 0)  # per arity, the instances before its next chunk
    while pending and (item := next(items, None)) is not None:
        arity, (count, instances, lanes, groups) = item
        for law in pending.get(arity, ()):  # none for a dead arity: its chunk is skipped
            try:
                if one_cell.get(law.law_id, True) and law.evaluate(*lanes) is None:
                    continue
            except AttributeError:  # an operation read the sizes a mixed-size set lacks, or ids
                try:
                    if groups and all(law.evaluate(*group) is None for group in groups()):
                        continue
                except AttributeError:  # an operation read ids, or a product was nested
                    pass
            for i, operands in enumerate(instances()):
                if law.evaluate(*operands) is not None:
                    outcomes[law.law_id] = _Outcome(offsets[arity] + i, (operands,))
                    break
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
    if _instance(report, LawReport, "a law report").holds or not report.counterexample:
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
    seed: int = DEFAULT_SEED,
    random_bounds: tuple[int, int] = DEFAULT_RANDOM_BOUNDS,
) -> list[LawReport]:
    """Check selected laws (default: all) over exhaustive plus random instances.  Raises before
    any check, BoundsTooLarge if over budget, InvalidArgument if no source or a bad one: the pool
    by ``_check_exhaustive`` for arity 1 and each selected arity, then the random source by
    ``_check_random`` for each selected arity (1 if none), even if it is unused."""
    if law_ids is None:
        selected = catalogue()
    elif isinstance(law_ids, str) or not isinstance(law_ids, Iterable):  # a str: one id per char
        raise InvalidArgument(f"law ids must be a collection of ids, got {law_ids!r}")
    else:
        selected = tuple(get_law(law_id) for law_id in law_ids)
    pairs = (random_bounds,) if exhaustive is None else (exhaustive, random_bounds)
    if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in pairs):
        raise InvalidArgument("pools and bounds must be (m, n) pairs")
    if exhaustive is None and random_count == 0:
        raise InvalidArgument("no instances to check: give an exhaustive pool or a random count")
    arities = dict.fromkeys(law.arity for law in selected)
    for arity in dict.fromkeys((1, *arities)) if exhaustive is not None else ():
        _check_exhaustive(*exhaustive, arity)
    for arity in arities or (1,):
        _check_random(seed, random_count, arity, *random_bounds)
    distinct = {law.law_id: law for law in selected}.values()  # a repeated id is swept once
    by_arity = {arity: [law for law in distinct if law.arity == arity] for arity in arities}
    sources = [] if exhaustive is None else [_pool_lanes(*exhaustive, arity) for arity in by_arity]
    if random_count:  # after the pool; it draws only the arities with a law left
        sources.append(_drawn(seed, random_count, *random_bounds, by_arity))
    found = _sweep(by_arity, itertools.chain(*sources))
    reports = {law.law_id: check_law(law.law_id, [found[law.law_id]]) for law in distinct}
    return [reports[law.law_id] for law in selected]
