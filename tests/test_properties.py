"""Property-based checks of the algebra's invariants on arbitrary small instances."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bipolarsoft import (
    BipolarSoftSet,
    CellValue,
    ParameterSpace,
    and_product,
    decide,
    from_table,
    or_product,
    parse,
    scores,
    serialize,
    to_table,
)

import oracle


def _space(m: int, n: int) -> ParameterSpace:
    return ParameterSpace(
        tuple(f"o{i}" for i in range(m)),
        tuple(f"p{j}" for j in range(n)),
        tuple(f"q{j}" for j in range(n)),
    )


@st.composite
def bss_tuples(draw, arity=1, max_m=4, max_n=3):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    space = _space(m, n)
    values = []
    for _ in range(arity):
        cells = draw(st.lists(st.integers(0, 2), min_size=m * n, max_size=m * n))
        pos = [0] * n
        neg = [0] * n
        for k, state in enumerate(cells):
            j, i = divmod(k, m)
            if state == 0:
                pos[j] |= 1 << i
            elif state == 1:
                neg[j] |= 1 << i
        values.append(BipolarSoftSet(space, tuple(pos), tuple(neg)))
    return tuple(values)


def _revalidates(value: BipolarSoftSet) -> bool:
    rebuilt = BipolarSoftSet.from_assignment(value.space, oracle.member_view(value))
    return rebuilt == value


@given(bss_tuples(arity=2))
def test_closure_under_all_operations(pair):
    a, b = pair
    for result in (a.union(b), a.intersection(b), a.complement(),
                   and_product(a, b), or_product(a, b)):
        assert _revalidates(result)


@given(bss_tuples(arity=2))
def test_union_and_intersection_match_set_oracle(pair):
    a, b = pair
    va, vb = oracle.member_view(a), oracle.member_view(b)
    assert oracle.member_view(a.union(b)) == oracle.union_sets(va, vb)
    assert oracle.member_view(a.intersection(b)) == oracle.intersection_sets(va, vb)


@given(bss_tuples())
def test_order_is_reflexive_and_bounded(single):
    (a,) = single
    assert a.is_subset_of(a)
    assert BipolarSoftSet.null(a.space).is_subset_of(a)
    assert a.is_subset_of(BipolarSoftSet.absolute(a.space))


@given(bss_tuples(arity=2))
def test_order_antisymmetry(pair):
    a, b = pair
    if a.is_subset_of(b) and b.is_subset_of(a):
        assert a == b


@given(bss_tuples(arity=3))
def test_order_transitivity_on_constructed_chain(triple):
    a, b, c = triple
    low = a.intersection(b)
    high = a.union(c)
    assert low.is_subset_of(a) and a.is_subset_of(high)
    assert low.is_subset_of(high)


@given(bss_tuples(arity=2))
def test_lattice_basics(pair):
    a, b = pair
    assert a.union(a) == a
    assert a.intersection(a) == a
    assert a.union(b) == b.union(a)
    assert a.intersection(b) == b.intersection(a)
    assert a.union(a.intersection(b)) == a
    assert a.intersection(a.union(b)) == a


@given(bss_tuples(arity=3))
def test_associativity_and_distributivity(triple):
    a, b, c = triple
    assert a.union(b.union(c)) == a.union(b).union(c)
    assert a.intersection(b.intersection(c)) == a.intersection(b).intersection(c)
    assert a.intersection(b.union(c)) == a.intersection(b).union(a.intersection(c))
    assert a.union(b.intersection(c)) == a.union(b).intersection(a.union(c))


@given(bss_tuples())
def test_complement_involution(single):
    (a,) = single
    assert a.complement().complement() == a


@given(bss_tuples(arity=2))
def test_de_morgan(pair):
    a, b = pair
    assert a.union(b).complement() == a.complement().intersection(b.complement())
    assert a.intersection(b).complement() == a.complement().union(b.complement())


@given(bss_tuples(arity=2, max_m=3, max_n=2))
def test_product_de_morgan(pair):
    a, b = pair
    assert or_product(a, b).complement() == and_product(a.complement(), b.complement())
    assert and_product(a, b).complement() == or_product(a.complement(), b.complement())


@given(bss_tuples())
def test_corrected_excluded_middle(single):
    (a,) = single
    joined = a.union(a.complement())
    met = a.intersection(a.complement())
    for e in a.space.positive_params:
        assert joined.neg(e) == ()
        assert set(joined.pos(e)) == set(a.pos(e)) | set(a.neg(e))
        assert met.pos(e) == ()
        assert set(met.neg(e)) == set(a.pos(e)) | set(a.neg(e))
    assert (joined == BipolarSoftSet.absolute(a.space)) == a.is_complete()
    assert (met == BipolarSoftSet.null(a.space)) == a.is_complete()


@given(bss_tuples(arity=4))
def test_monotonicity_on_constructed_pairs(quad):
    a, b, c, d = quad
    wider_a = a.union(b)      # a ⊑ wider_a
    wider_c = c.union(d)      # c ⊑ wider_c
    assert a.union(c).is_subset_of(wider_a.union(wider_c))
    assert a.intersection(c).is_subset_of(wider_a.intersection(wider_c))


@given(bss_tuples(arity=2))
def test_score_monotonicity(pair):
    a, b = pair
    bigger = a.union(b)
    for low, high in zip(scores(a), scores(bigger)):
        assert low.c_plus <= high.c_plus
        assert low.c_minus >= high.c_minus
        assert low.score <= high.score


@given(bss_tuples())
def test_scores_match_table_sums(single):
    (a,) = single
    got = [(r.object_id, r.c_plus, r.c_minus, r.score) for r in scores(a)]
    assert got == oracle.table_counts(to_table(a))
    for row in scores(a):
        assert 0 <= row.c_plus + row.c_minus <= a.space.n
        assert row.score == row.c_plus - row.c_minus


@given(bss_tuples())
def test_score_complement_antisymmetry(single):
    (a,) = single
    for s, f in zip(scores(a), scores(a.complement())):
        assert (f.c_plus, f.c_minus, f.score) == (s.c_minus, s.c_plus, -s.score)


@given(bss_tuples(), st.randoms(use_true_random=False))
def test_decision_invariant_under_reordering(single, rng):
    (a,) = single
    space = a.space
    view = oracle.member_view(a)

    objects = list(space.universe)
    rng.shuffle(objects)
    shuffled_objects = ParameterSpace(
        tuple(objects), space.positive_params, space.negative_params
    )
    re_universe = BipolarSoftSet.from_assignment(shuffled_objects, view)
    assert set(decide(re_universe).optimal) == set(decide(a).optimal)

    order = list(range(space.n))
    rng.shuffle(order)
    shuffled_params = ParameterSpace(
        space.universe,
        tuple(space.positive_params[k] for k in order),
        tuple(space.negative_params[k] for k in order),
    )
    re_params = BipolarSoftSet.from_assignment(shuffled_params, view)
    assert decide(re_params).optimal == decide(a).optimal


@given(bss_tuples())
def test_table_round_trip(single):
    (a,) = single
    assert from_table(to_table(a), a.space) == a


# every state, then all neutral, approve only and reject only (states as in ``bss_tuples``)
PALETTES = ((0, 1, 2), (2,), (0,), (1,))


@st.composite
def palette_sets(draw):
    m = draw(st.integers(1, 17))
    n = draw(st.integers(1, 5))
    states = draw(st.lists(st.sampled_from(draw(st.sampled_from(PALETTES))),
                           min_size=m * n, max_size=m * n))
    pos = sum(1 << k for k, state in enumerate(states) if state == 0)
    neg = sum(1 << k for k, state in enumerate(states) if state == 1)
    return BipolarSoftSet(_space(m, n), pos, neg)


@given(palette_sets())
def test_table_cells_match_the_members_of_each_parameter(a):
    table = to_table(a)
    space = a.space
    assert (table.row_labels, table.col_labels) == (space.universe, space.pairs)
    for k, e in enumerate(space.positive_params):
        approving, rejecting = set(a.pos(e)), set(a.neg(e))  # decoded by space.members
        for i, u in enumerate(space.universe):
            want = (CellValue.POSITIVE if u in approving else
                    CellValue.NEGATIVE if u in rejecting else CellValue.NEUTRAL)
            assert table.cells[i][k] is want
    back = from_table(table, space)
    assert back == a
    assert type(back.pos_bits) is int and type(back.neg_bits) is int


@given(bss_tuples())
def test_codec_round_trip_and_stability(single):
    (a,) = single
    text = serialize(a)
    assert parse(text) == a
    assert serialize(parse(text)) == text


@settings(max_examples=25)
@given(bss_tuples(arity=2, max_m=3, max_n=2))
def test_nested_products_stay_valid(pair):
    a, b = pair
    nested = and_product(or_product(a, b), and_product(a, b))
    assert _revalidates(nested)
