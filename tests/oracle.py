"""Independent cell-by-cell evaluators used to cross-check the library.

Everything here works on plain member-set maps of the shape
``{param: (approving_frozenset, rejecting_frozenset)}`` and never calls the
operation it is used to check.  ``splitmix64`` is the random stream the law
checker draws from, computed one value at a time; ``splitmix64_state`` inverts
its finalizer, so a test can choose the seed that draws a given value.
"""

from __future__ import annotations

from typing import Iterator

_MASK64 = (1 << 64) - 1


_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def splitmix64(seed: int) -> Iterator[int]:
    """The reference 64-bit stream, one value at a time, fully determined by the seed."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def _unshift(y: int, k: int) -> int:
    """The z < 2^64 with ``z ^ (z >> k) == y``: y ^ y >> k ^ y >> 2k ^ ..."""
    z = y
    for _ in range(64 // k):
        z = y ^ (z >> k)
    return z


def splitmix64_state(value: int) -> int:
    """The counter state that splitmix64's finalizer mixes into ``value``: each xor-shift undone,
    and each multiply by the constant's inverse mod 2^64 (the constants are odd)."""
    z = _unshift(value, 31)
    z = _unshift((z * pow(_MIX2, -1, 1 << 64)) & _MASK64, 27)
    return _unshift((z * pow(_MIX1, -1, 1 << 64)) & _MASK64, 30)


def member_view(bss) -> dict:
    """Adapter: a library value's member sets, for comparison against oracles."""
    return {
        e: (frozenset(bss.pos(e)), frozenset(bss.neg(e)))
        for e in bss.space.positive_params
    }


def union_sets(a: dict, b: dict) -> dict:
    return {e: (a[e][0] | b[e][0], a[e][1] & b[e][1]) for e in a}


def intersection_sets(a: dict, b: dict) -> dict:
    return {e: (a[e][0] & b[e][0], a[e][1] | b[e][1]) for e in a}


def complement_sets(a: dict) -> dict:
    return {e: (neg, pos) for e, (pos, neg) in a.items()}


def and_product_sets(a: dict, b: dict, params: tuple) -> dict:
    return {
        (e, ep): (a[e][0] & b[ep][0], a[e][1] | b[ep][1])
        for e in params
        for ep in params
    }


def or_product_sets(a: dict, b: dict, params: tuple) -> dict:
    return {
        (e, ep): (a[e][0] | b[ep][0], a[e][1] & b[ep][1])
        for e in params
        for ep in params
    }


def table_counts(table) -> list:
    """Literal indicator sums over a rendered table: (label, sum a, sum b, diff)."""
    out = []
    for label, row in zip(table.row_labels, table.cells):
        c_plus = sum(cell.pair[0] for cell in row)
        c_minus = sum(cell.pair[1] for cell in row)
        out.append((label, c_plus, c_minus, c_plus - c_minus))
    return out
