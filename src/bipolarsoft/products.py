"""And/or-products: combine two sets over one space into one over the squared space."""

from __future__ import annotations

from operator import and_, or_

from .core import BipolarSoftSet, ensure_same_space
from .space import ParameterSpace


def product_space(base: ParameterSpace) -> ParameterSpace:
    """Square a space: one parameter per ordered pair of base parameters.

    Positive ids are ``(e,e')`` composites in lexicographic base order, each
    paired with the composite of the two negations.  The result is an
    ordinary space, so products nest.
    """
    pos = []
    neg = []
    for e, ne in base.pairs:
        for ep, nep in base.pairs:
            pos.append(f"({e},{ep})")
            neg.append(f"({ne},{nep})")
    return ParameterSpace(base.universe, tuple(pos), tuple(neg))


def _product(a: BipolarSoftSet, b: BipolarSoftSet, approve, reject) -> BipolarSoftSet:
    """Every ordered parameter pair: ``approve`` merges approving masks, ``reject`` rejecting ones."""
    ensure_same_space(a, b)
    pos = tuple(approve(pa, pb) for pa in a.pos_masks for pb in b.pos_masks)
    neg = tuple(reject(na, nb) for na in a.neg_masks for nb in b.neg_masks)
    return BipolarSoftSet._closed(product_space(a.space), pos, neg)


def and_product(a: BipolarSoftSet, b: BipolarSoftSet) -> BipolarSoftSet:
    """Approve where both operands approve; reject where either rejects."""
    return _product(a, b, and_, or_)


def or_product(a: BipolarSoftSet, b: BipolarSoftSet) -> BipolarSoftSet:
    """Approve where either operand approves; reject where both reject."""
    return _product(a, b, or_, and_)
