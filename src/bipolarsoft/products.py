"""And/or-products: combine two sets over one space into one over the squared space."""

from __future__ import annotations

from operator import and_, or_

from .core import BipolarSoftSet, _expected, ensure_same_space
from .space import ParameterSpace


def product_space(base: ParameterSpace) -> ParameterSpace:
    """Square a space: one parameter per ordered pair of base parameters.

    Positive ids are ``(e,e')`` composites in lexicographic base order, each
    paired with the composite of the two negations.  The result is an
    ordinary space, so products nest.  It is built once per base space and
    kept on it, so it lives exactly as long as the base.
    """
    try:  # not an isinstance check: the law checker's lane spaces are squared here too
        return base._squared
    except AttributeError:
        raise _expected("a parameter space", base) from None


def _product(a: BipolarSoftSet, b: BipolarSoftSet, approve, reject) -> BipolarSoftSet:
    """Every ordered parameter pair: ``approve`` merges approving masks, ``reject`` rejecting ones.

    The operands' cells may also hold several m×n sets side by side, ``full_mask`` then
    selecting block 0 of each: row k of the result holds row k of every set's product, and
    the n rows are stacked, each as wide as all the operands' cells."""
    ensure_same_space(a, b)
    m, full = a.space.m, a.space.full_mask
    width = m * a.space.n  # one set's cells
    copies = ((1 << width) - 1) // ((1 << m) - 1)  # bit 0 of every block of one set
    stride = a.space.cells_mask.bit_length()  # all sets' cells: one row of the result
    pos = neg = 0
    # pair (k, l) is block k*n + l: row k is a's mask k copied into all n blocks, merged with b
    for shift in range(width - m, -1, -m):  # a's mask k sits at bit k*m; last row first
        pos = pos << stride | approve((a.pos_bits >> shift & full) * copies, b.pos_bits)
        neg = neg << stride | reject((a.neg_bits >> shift & full) * copies, b.neg_bits)
    return BipolarSoftSet._closed(product_space(a.space), pos, neg)


def and_product(a: BipolarSoftSet, b: BipolarSoftSet) -> BipolarSoftSet:
    """Approve where both operands approve; reject where either rejects."""
    return _product(a, b, and_, or_)


def or_product(a: BipolarSoftSet, b: BipolarSoftSet) -> BipolarSoftSet:
    """Approve where either operand approves; reject where both reject."""
    return _product(a, b, or_, and_)
