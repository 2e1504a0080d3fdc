import pytest

from bipolarsoft import BipolarSoftSet, and_product, or_product, product_space
from bipolarsoft.errors import SpaceMismatch

import corpus
import oracle


def test_product_space_structure():
    base = corpus.space3()
    squared = product_space(base)
    assert squared.universe == base.universe
    assert squared.n == 9
    assert squared.positive_params[:4] == ("(e1,e1)", "(e1,e3)", "(e1,e5)", "(e3,e1)")
    assert squared.negation("(e1,e3)") == "(e2,e4)"
    assert squared.negation("(e3,e1)") == "(e4,e2)"
    assert product_space(corpus.space4()).n == 16


def test_product_space_is_built_once_per_base():
    a, b = corpus.houses3_a(), corpus.houses3_b()
    squared = product_space(a.space)
    assert product_space(a.space) is squared
    assert and_product(a, b).space is squared and or_product(a, b).space is squared
    rebuilt = product_space(corpus.space3())  # an equal base has its own, equal, product space
    assert rebuilt == squared and rebuilt is not squared


def test_and_product_cells():
    got = oracle.member_view(and_product(corpus.houses3_a(), corpus.houses3_b()))
    assert got == corpus.AND_PRODUCT_CELLS


def test_or_product_cells():
    got = oracle.member_view(or_product(corpus.houses3_a(), corpus.houses3_b()))
    assert got == corpus.OR_PRODUCT_CELLS


@pytest.mark.parametrize(
    "combine,oracle_fn",
    [(and_product, oracle.and_product_sets), (or_product, oracle.or_product_sets)],
)
def test_products_agree_with_oracle(combine, oracle_fn):
    got = oracle.member_view(combine(corpus.houses3_a(), corpus.houses3_b()))
    want = oracle_fn(corpus.HOUSES3_A, corpus.HOUSES3_B, ("e1", "e3", "e5"))
    assert got == {f"({e},{ep})": cell for (e, ep), cell in want.items()}


def test_and_product_with_absolute_keeps_cells():
    a = corpus.houses3_a()
    top = BipolarSoftSet.absolute(a.space)
    result = and_product(a, top)
    for e in a.space.positive_params:
        for ep in a.space.positive_params:
            assert result.pos(f"({e},{ep})") == a.pos(e)
            assert result.neg(f"({e},{ep})") == a.neg(e)


def test_or_product_with_null_keeps_cells():
    a = corpus.houses3_a()
    bottom = BipolarSoftSet.null(a.space)
    result = or_product(a, bottom)
    for e in a.space.positive_params:
        for ep in a.space.positive_params:
            assert result.pos(f"({e},{ep})") == a.pos(e)
            assert result.neg(f"({e},{ep})") == a.neg(e)


def test_diagonal_consistency():
    a = corpus.houses3_a()
    squared_and = and_product(a, a)
    squared_or = or_product(a, a)
    for e in a.space.positive_params:
        assert squared_and.pos(f"({e},{e})") == a.pos(e)
        assert squared_and.neg(f"({e},{e})") == a.neg(e)
        assert squared_or.pos(f"({e},{e})") == a.pos(e)
        assert squared_or.neg(f"({e},{e})") == a.neg(e)


def test_products_nest():
    a = corpus.houses3_a()
    once = and_product(a, a)
    twice = or_product(once, once)
    assert twice.space.n == 81
    assert twice.space.positive_params[0] == "((e1,e1),(e1,e1))"


def test_products_reject_space_mismatch():
    with pytest.raises(SpaceMismatch):
        and_product(corpus.houses3_a(), corpus.houses_a())
    with pytest.raises(SpaceMismatch):
        or_product(corpus.houses3_a(), corpus.houses_a())


def test_product_de_morgan_on_reference_sets():
    a, b = corpus.houses3_a(), corpus.houses3_b()
    assert or_product(a, b).complement() == and_product(a.complement(), b.complement())
    assert and_product(a, b).complement() == or_product(a.complement(), b.complement())
