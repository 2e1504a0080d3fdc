import copy
import dataclasses
import enum
import inspect
import itertools
import pickle
import random
from collections.abc import Iterator

import pytest

import bipolarsoft
from bipolarsoft import (
    BipolarSoftSet,
    CellValue,
    DecisionResult,
    LawReport,
    ParameterSpace,
    ScoreRow,
    TabularForm,
    and_product,
    check_law,
    enumerate_bss,
    exhaustive_tuples,
    from_table,
    gen_bss,
    load,
    or_product,
    parse,
    product_space,
    random_tuples,
    recheck,
    render_scores_csv,
    render_scores_text,
    render_table_csv,
    render_table_text,
    run_catalogue,
    scores,
    scores_document,
    serialize,
    standard_space,
    table_document,
    to_document,
    to_table,
)
from bipolarsoft.errors import (
    BipolarSoftError,
    BoundsTooLarge,
    DisjointnessViolation,
    InvalidArgument,
    InvalidSpace,
    SpaceMismatch,
    UnknownObject,
    UnknownParameter,
)

import corpus
import oracle


def test_from_assignment_reproduces_member_sets():
    a = corpus.houses_a()
    assert oracle.member_view(a) == corpus.HOUSES_A


def test_missing_parameters_default_to_neutral():
    space = corpus.space4()
    a = BipolarSoftSet.from_assignment(space, {"e1": (("u1",), ("u2",))})
    assert a.pos("e3") == ()
    assert a.neg("e3") == ()
    assert a.pos("e1") == ("u1",)


def test_empty_assignment_is_all_neutral_not_null():
    space = corpus.space4()
    empty = BipolarSoftSet.from_assignment(space, {})
    assert empty != BipolarSoftSet.null(space)
    assert all(empty.pos(e) == () and empty.neg(e) == () for e in space.positive_params)


def test_overlap_raises_disjointness_violation():
    space = corpus.space4()
    with pytest.raises(DisjointnessViolation) as err:
        BipolarSoftSet.from_assignment(space, {"e1": (("u1", "u2"), ("u2", "u3"))})
    assert err.value.param == "e1"
    assert err.value.witnesses == ("u2",)


def test_unknown_object_and_parameter():
    space = corpus.space4()
    with pytest.raises(UnknownObject):
        BipolarSoftSet.from_assignment(space, {"e1": (("nope",), ())})
    with pytest.raises(UnknownParameter):
        BipolarSoftSet.from_assignment(space, {"e2": ((), ())})


@pytest.mark.parametrize("space", [ParameterSpace(("a", "b"), ("e",), ("ne",)), corpus.space4()],
                         ids=["one-letter-ids", "numbered-ids"])
def test_a_string_of_members_is_not_read_one_id_per_character(space):
    param = space.positive_params[0]
    for pair in (space.universe[0] + space.universe[1], ()), ((), "ab"):
        with pytest.raises(InvalidArgument):
            BipolarSoftSet.from_assignment(space, {param: pair})


@pytest.mark.parametrize("call", [lambda a: a.pos(["e1"]), lambda a: a.neg(["e1"]),
                                  lambda a: a.space.negation(["e1"])],
                         ids=["pos", "neg", "negation"])
def test_an_unhashable_parameter_id_is_an_unknown_parameter(call):
    with pytest.raises(UnknownParameter):
        call(corpus.houses_a())


def test_an_assignment_pair_may_be_any_two_item_iterable():
    space = corpus.space4()
    want = BipolarSoftSet.from_assignment(space, {"e1": (("u1",), ("u2",))})
    for pair in (["u1"], ["u2"]), iter([("u1",), ("u2",)]), [{"u1"}, frozenset({"u2"})]:
        assert BipolarSoftSet.from_assignment(space, {"e1": pair}) == want


def test_direct_mask_construction_is_validated():
    space = corpus.space4()
    with pytest.raises(DisjointnessViolation):
        BipolarSoftSet(space, (0b11, 0, 0, 0), (0b01, 0, 0, 0))
    with pytest.raises(ValueError):
        BipolarSoftSet(space, (1 << 20, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        BipolarSoftSet(space, (0, 0), (0, 0))


def test_null_and_absolute_structure():
    space = corpus.space4()
    null = BipolarSoftSet.null(space)
    absolute = BipolarSoftSet.absolute(space)
    for e in space.positive_params:
        assert null.pos(e) == () and null.neg(e) == corpus.UNIVERSE
        assert absolute.pos(e) == corpus.UNIVERSE and absolute.neg(e) == ()
    assert null.is_subset_of(absolute)


def test_subset_on_reference_sets():
    a, c = corpus.houses_a(), corpus.houses_c()
    assert c.is_subset_of(a) is True
    assert a.is_subset_of(c) is False


def test_subset_order_properties():
    space = corpus.space4()
    a = corpus.houses_a()
    assert a.is_subset_of(a)
    assert BipolarSoftSet.null(space).is_subset_of(a)
    assert a.is_subset_of(BipolarSoftSet.absolute(space))


def test_equals():
    a, b = corpus.houses_a(), corpus.houses_b()
    assert a.equals(corpus.houses_a())
    assert not a.equals(b)
    assert a == corpus.houses_a()
    assert a != b


def test_equals_requires_matching_space():
    with pytest.raises(SpaceMismatch):
        corpus.houses_a().equals(corpus.houses3_a())
    # but == degrades to plain inequality
    assert corpus.houses_a() != corpus.houses3_a()


def test_union_matches_frozen_and_oracle():
    a, b = corpus.houses_a(), corpus.houses_b()
    got = oracle.member_view(a.union(b))
    assert got == corpus.UNION_AB
    assert got == oracle.union_sets(corpus.HOUSES_A, corpus.HOUSES_B)


def test_intersection_matches_frozen_and_oracle():
    a, b = corpus.houses_a(), corpus.houses_b()
    got = oracle.member_view(a.intersection(b))
    assert got == corpus.INTERSECTION_AB
    assert got == oracle.intersection_sets(corpus.HOUSES_A, corpus.HOUSES_B)


def test_union_identities():
    space = corpus.space4()
    a = corpus.houses_a()
    assert a.union(BipolarSoftSet.null(space)) == a
    assert a.union(BipolarSoftSet.absolute(space)) == BipolarSoftSet.absolute(space)


def test_intersection_identities():
    space = corpus.space4()
    a = corpus.houses_a()
    assert a.intersection(BipolarSoftSet.absolute(space)) == a
    assert a.intersection(BipolarSoftSet.null(space)) == BipolarSoftSet.null(space)


def test_complement_swaps_sides():
    a = corpus.houses_a()
    c = a.complement()
    assert set(c.pos("e1")) == {"u2", "u6"}
    assert set(c.neg("e1")) == {"u1", "u3", "u4"}
    assert c.complement() == a
    assert oracle.member_view(c) == oracle.complement_sets(corpus.HOUSES_A)


def test_complement_of_bounds():
    space = corpus.space4()
    assert BipolarSoftSet.null(space).complement() == BipolarSoftSet.absolute(space)
    assert BipolarSoftSet.absolute(space).complement() == BipolarSoftSet.null(space)


def test_is_complete():
    space = corpus.space4()
    assert corpus.house_ratings().is_complete() is False  # u1 is neutral at e4
    assert BipolarSoftSet.null(space).is_complete() is True
    assert BipolarSoftSet.absolute(space).is_complete() is True


def test_operations_reject_space_mismatch():
    a, other = corpus.houses_a(), corpus.houses3_a()
    for op in (a.union, a.intersection, a.is_subset_of):
        with pytest.raises(SpaceMismatch):
            op(other)


def test_operator_aliases():
    a, b = corpus.houses_a(), corpus.houses_b()
    assert (a | b) == a.union(b)
    assert (a & b) == a.intersection(b)
    assert ~a == a.complement()
    assert (corpus.houses_c() <= a) is True


def test_values_are_hashable():
    assert len({corpus.houses_a(), corpus.houses_a(), corpus.houses_b()}) == 2


def test_repr_suppresses_neutral_pairs():
    space = corpus.space4()
    a = BipolarSoftSet.from_assignment(space, {"e3": (("u2",), ("u1",))})
    text = repr(a)
    assert "e3" in text and "e1" not in text
    assert repr(BipolarSoftSet.from_assignment(space, {})) == "<BipolarSoftSet all neutral>"


@pytest.mark.parametrize("build, text", [
    (corpus.houses_a, "<BipolarSoftSet e1: +{u1,u3,u4} -{u2,u6}; e3: +{u2,u5,u7} -{u1,u3,u8}; "
                      "e5: +{u3,u4} -{u1,u2,u5,u8}; e7: +{u5,u6,u7,u8} -{u2,u3}>"),
    (lambda: BipolarSoftSet.from_assignment(corpus.space4(), {"e3": (("u2",), ("u1",)),
                                                              "e7": ((), ("u8",))}),
     "<BipolarSoftSet e3: +{u2} -{u1}; e7: +{} -{u8}>"),
], ids=["houses-a", "empty-approving-side"])
def test_repr_is_pinned(build, text):
    assert repr(build()) == text


def test_closed_results_are_indistinguishable_from_validated_ones():
    import dataclasses
    import pickle

    a, b = corpus.houses_a(), corpus.houses_b()
    for result in (a | b, a & b, ~a, BipolarSoftSet.null(a.space), BipolarSoftSet.absolute(a.space)):
        checked = BipolarSoftSet(result.space, result.pos_masks, result.neg_masks)
        assert result == checked and hash(result) == hash(checked)
        assert repr(result) == repr(checked)
        assert pickle.dumps(result) == pickle.dumps(checked)
        assert pickle.loads(pickle.dumps(result)) == checked
        assert dataclasses.replace(result) == checked
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.pos_masks = ()


def test_only_public_constructions_validate(monkeypatch):
    from bipolarsoft import and_product, or_product

    validated = []
    check = BipolarSoftSet.__post_init__

    def counted(self):
        validated.append(self)
        check(self)

    monkeypatch.setattr(BipolarSoftSet, "__post_init__", counted)
    a, b = corpus.houses_a(), corpus.houses_b()
    assert len(validated) == 2  # from_assignment validates untrusted input
    validated.clear()
    a | b, a & b, ~a, and_product(a, b), or_product(a, b)
    BipolarSoftSet.null(a.space), BipolarSoftSet.absolute(a.space)
    list(enumerate_bss(1, 2)), list(random_tuples(1, 5, 2))
    from_table(to_table(a), a.space)  # the table's cells were checked where it was built
    assert validated == []


@pytest.mark.parametrize("call, error", [(call, InvalidArgument) for call in [
    lambda: BipolarSoftSet(corpus.space4(), (0, 0), (0, 0)),
    lambda: BipolarSoftSet(corpus.space4(), (1 << 20, 0, 0, 0), (0, 0, 0, 0)),
    lambda: BipolarSoftSet(corpus.space4(), (-1, 0, 0, 0), (0, 0, 0, 0)),
    lambda: list(enumerate_bss(0, 1)),
    lambda: exhaustive_tuples(1, 0, 2),
    lambda: list(random_tuples(1, 1, 1, max_m=0)),
    lambda: check_law("union-commutative", [corpus.houses_a()]),
    lambda: CellValue.from_pair(1, 1),
    lambda: BipolarSoftSet(corpus.space4(), 1 << 32, 0),
    lambda: BipolarSoftSet(corpus.space4(), 0, -1),
    lambda: list(random_tuples(1, -2, 1)),
    lambda: run_catalogue(exhaustive=None, random_count=-1),
    lambda: run_catalogue(exhaustive=(2,)),
    lambda: run_catalogue(random_bounds=(6,)),
    lambda: run_catalogue(law_ids=["union-idempotent"], exhaustive=(2, 2), random_count=5,
                          random_bounds=(0, 4)),
    lambda: run_catalogue(exhaustive=(2.0, 2), random_count=0),
    lambda: run_catalogue(exhaustive=None, random_count=1.5),
    lambda: run_catalogue(exhaustive=None, random_count=3, seed="x"),
    lambda: run_catalogue(exhaustive=None, random_count=3, random_bounds=(2.5, 2)),
    lambda: run_catalogue(law_ids="union-idempotent", exhaustive=(1, 1), random_count=0),
    lambda: run_catalogue(law_ids=5, exhaustive=(1, 1), random_count=0),
    lambda: list(random_tuples(1, 3, 0)),
    lambda: exhaustive_tuples(1, 1, 0),
    lambda: exhaustive_tuples(1, 1, -1),
    lambda: exhaustive_tuples(1, 1, "2"),
    lambda: exhaustive_tuples(1, 1, 2.0),
    lambda: recheck(LawReport("union-commutative", True, 1, False, {"foo": 1})),
    lambda: recheck(LawReport("union-commutative", True, 1, False, {"operands": []})),
    lambda: recheck(LawReport("union-commutative", True, 1, False,
                              {"operands": [to_document(corpus.houses_a())]})),
    lambda: run_catalogue(exhaustive=5),
    lambda: run_catalogue(random_bounds=None),
    lambda: run_catalogue(law_ids=[], exhaustive=(0, 1)),
    lambda: run_catalogue(law_ids=[], exhaustive=("a", 1)),
    lambda: standard_space("a", 1),
    lambda: standard_space([1], 1),
    lambda: check_law("union-idempotent", iter([1])),
    lambda: check_law("union-commutative", [(corpus.houses_a(), None)]),
    lambda: BipolarSoftSet.from_assignment(corpus.space4(), {"e1": 5}),
    lambda: BipolarSoftSet.from_assignment(corpus.space4(), {"e1": ("u1",)}),
    lambda: from_table(TabularForm(("u1",), (("e1", "not-e1"),), (((1, 0),),)), standard_space(1, 1)),
    lambda: from_table(TabularForm(("u1",), (("e1", "not-e1"),), (("x",),)), standard_space(1, 1)),
    lambda: check_law("union-idempotent", corpus.houses_a()),
    lambda: check_law("union-idempotent", 5),
    lambda: corpus.space4().mask_of(5),
    lambda: TabularForm(("u1",), (("e1", "not-e1"),), 5),
    lambda: TabularForm(("u1",), (("e1", "not-e1"),), (5,)),
    lambda: BipolarSoftSet.from_assignment(corpus.space4(), 5),
    lambda: BipolarSoftSet(corpus.space4(), 5, None),
    lambda: random_tuples(1, -2, 1),  # the sources check when called, not when iterated
    lambda: enumerate_bss(0, 1),
    lambda: run_catalogue(exhaustive=(1, 1), random_count=0, random_bounds=(0, 4)),
    lambda: BipolarSoftSet(standard_space(1, 1), ("a",), (0,)),
    lambda: corpus.houses_a().union(5),
    lambda: corpus.houses_a().is_subset_of(5),
    lambda: corpus.houses_a().equals(5),
    lambda: and_product(corpus.houses_a(), 5),
    lambda: scores(5),
    lambda: to_table(5),
    lambda: serialize(5),
    lambda: from_table(to_table(corpus.houses_a()), 5),
    lambda: from_table(5, corpus.houses_a().space),
    lambda: BipolarSoftSet(5, 0, 0),
    lambda: BipolarSoftSet.from_assignment(5, {}),
    lambda: BipolarSoftSet.null(5),
    lambda: BipolarSoftSet.absolute(5),
    lambda: product_space(5),
    lambda: render_table_text(5),
    lambda: render_table_csv(5),
    lambda: table_document(5),
    lambda: render_scores_text(5),
    lambda: render_scores_csv(5),
    lambda: scores_document(5),
    lambda: recheck(5),
    lambda: parse(5),
    lambda: load(5),
    lambda: CellValue(5),
    lambda: CellValue((1, 1)),
    lambda: CellValue("x"),
    lambda: CellValue([1, 0]),
    lambda: render_table_text(TabularForm(("a",), (("p", "q"),), (("x",),))),
    lambda: render_table_csv(TabularForm(("a",), (("p", "q"),), (("x",),))),
    lambda: table_document(TabularForm(("a",), (("p", "q"),), (("x",),))),
    lambda: render_table_text(TabularForm((1,), (("p", "q"),), ((CellValue.NEUTRAL,),))),
    lambda: render_table_csv(TabularForm(("a",), (5,), ((CellValue.NEUTRAL,),))),
    lambda: table_document(TabularForm(("a",), (("p", "q", "r"),), ((CellValue.NEUTRAL,),))),
    lambda: render_table_text(TabularForm("ab", (("p", "q"),), ((CellValue.NEUTRAL,),) * 2)),
    lambda: TabularForm({"a": 1}, {"a": 1}, {"a": 1}),
    lambda: from_table(TabularForm(("u1",), (5,), ((CellValue.NEUTRAL,),)), standard_space(1, 1)),
    lambda: render_scores_text(DecisionResult((5,), 0, ())),
    lambda: render_scores_csv(DecisionResult((5,), 0, ())),
    lambda: scores_document(DecisionResult((5,), 0, ())),
    lambda: render_scores_text(DecisionResult((ScoreRow(5, 0, 0, 0),), 0, ())),
    lambda: render_scores_text(DecisionResult((), 0, (5,))),
    lambda: render_scores_text(DecisionResult(5, 0, ())),
    lambda: DecisionResult((ScoreRow("u", True, False, 1),), 1, ("u",)),
    lambda: DecisionResult((ScoreRow("u", 1, 0, True),), 1, ("u",)),
    lambda: DecisionResult((ScoreRow("u", 1, 0, 1),), True, ("u",)),
    lambda: DecisionResult((ScoreRow("u", -1, 0, -1),), -1, ("u",)),
    lambda: DecisionResult((ScoreRow("u", 0, -1, 1),), 1, ("u",)),
    lambda: DecisionResult((ScoreRow("u", 2, 1, 2),), 2, ("u",)),
    lambda: DecisionResult((ScoreRow("u", 1, 0, 1), ScoreRow("v", 0, 0, 0)), 0, ("v",)),
    lambda: DecisionResult((ScoreRow("u", 1, 0, 1), ScoreRow("v", 1, 0, 1)), 1, ("u",)),
    lambda: DecisionResult((ScoreRow("u", 1, 0, 1), ScoreRow("v", 0, 0, 0)), 1, ("u", "v")),
    lambda: DecisionResult((ScoreRow("u", 1, 0, 1), ScoreRow("v", 1, 0, 1)), 1, ("v", "u")),
    lambda: DecisionResult((), 0, ("u",)),
]] + [(call, BoundsTooLarge) for call in [
    lambda: list(random_tuples(1, 1, 1, 10 ** 6, 10 ** 6)),
    lambda: gen_bss(1, 10 ** 6, 10 ** 6),
    lambda: list(random_tuples(1, 1, 3, 3 ** 12 * 6, 5)),  # one cell per law over the budget
    lambda: random_tuples(1, 3 ** 12 + 1, 1),
    lambda: next(random_tuples(1, 10 ** 6, 1)),
]], ids=["shape", "range", "negative", "enumerate", "exhaustive", "random", "arity", "cell",
        "packed-range", "packed-negative", "random-count", "catalogue-count",
        "catalogue-pool", "catalogue-bounds", "catalogue-bound-size", "catalogue-float-pool",
        "catalogue-float-count", "catalogue-text-seed", "catalogue-float-bounds",
        "catalogue-id-string", "catalogue-id-int", "random-arity", "exhaustive-arity-zero",
        "exhaustive-arity-negative", "exhaustive-arity-text", "exhaustive-arity-float",
        "recheck-no-operands", "recheck-empty-operands", "recheck-one-operand",
        "catalogue-scalar-pool", "catalogue-no-bounds", "catalogue-empty-zero-pool",
        "catalogue-empty-text-pool", "space-text-size", "space-list-size", "law-operand-int",
        "law-operand-none", "assignment-int-pair", "assignment-short-pair",
        "table-pair-cell", "table-text-cell", "law-bare-set", "law-int-instances",
        "space-int-members", "table-int-cells", "table-int-row", "assignment-int",
        "masks-int-none", "random-count-when-called", "enumerate-when-called",
        "catalogue-unused-bounds", "masks-text", "union-int", "subset-int", "equals-int",
        "and-product-int", "scores-int", "table-int-set", "serialize-int", "from-table-int-space",
        "from-table-int-table", "set-int-space", "assignment-int-space", "null-int-space",
        "absolute-int-space", "product-space-int", "render-table-text-int",
        "render-table-csv-int", "table-document-int", "render-scores-text-int",
        "render-scores-csv-int", "scores-document-int", "recheck-int", "parse-int", "load-int",
        "cell-value-int", "cell-value-both", "cell-value-text", "cell-value-list",
        "render-table-text-text-cell", "render-table-csv-text-cell", "table-document-text-cell",
        "render-table-text-int-row-label", "render-table-csv-int-column-label",
        "table-document-triple-column-label", "render-table-text-text-row-labels",
        "table-dict-fields", "from-table-int-column-label", "render-scores-text-int-row",
        "render-scores-csv-int-row", "scores-document-int-row", "render-scores-text-int-id",
        "render-scores-text-int-optimal", "render-scores-text-int-rows",
        "decision-bool-counts", "decision-bool-score", "decision-bool-max-score",
        "decision-negative-c-plus", "decision-negative-c-minus", "decision-score-not-difference",
        "decision-max-score-not-largest", "decision-optimal-missing-id",
        "decision-optimal-extra-id", "decision-optimal-out-of-order", "decision-optimal-no-rows",
        "random-bounds-budget", "gen-bounds-budget",
        "random-arity-budget", "random-count-cap-when-called", "random-count-cap"])
def test_bad_arguments_raise_package_errors(call, error, monkeypatch):
    from bipolarsoft import laws

    def reached(*args, **kwargs):
        raise AssertionError("a law was checked although the arguments are bad")

    monkeypatch.setattr(laws, "check_law", reached)
    monkeypatch.setattr(laws, "_sweep", reached)
    monkeypatch.setattr(laws, "_splitmix_block", reached)  # nor is a value drawn
    with pytest.raises(error) as err:
        call()
    assert isinstance(err.value, BipolarSoftError)
    assert error is BoundsTooLarge or isinstance(err.value, ValueError)


JUNK = (5, "x", None, [1], {"a": 1}, object(), b"x", -1, (), 1.5, True)


def _junk_arguments(function) -> list[tuple]:
    """Junk for ``function``'s required positional parameters: every combination for up to
    two of them, one value repeated beyond that."""
    if isinstance(function, enum.EnumMeta):
        count = 1  # its signature reads (*values) on Python 3.12+
    else:
        count = sum(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                    for p in inspect.signature(function).parameters.values())
    if count <= 2:
        return list(itertools.product(JUNK, repeat=count))
    return [(value,) * count for value in JUNK]


@pytest.mark.parametrize("name", [name for name in bipolarsoft.__all__
                                  if callable(getattr(bipolarsoft, name))])
def test_every_public_callable_raises_only_package_errors(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a junk path names a file in here
    function = getattr(bipolarsoft, name)
    allowed = (BipolarSoftError, OSError) if name in ("load", "dump") else BipolarSoftError
    for arguments in _junk_arguments(function):
        try:
            result = function(*arguments)
            if isinstance(result, Iterator):
                list(itertools.islice(result, 3))
        except allowed:
            pass
        except Exception as exc:
            pytest.fail(f"{name}{arguments!r} raised {type(exc).__name__}: {exc}")


def test_standard_space_of_no_objects_is_an_invalid_space():
    with pytest.raises(InvalidSpace):
        standard_space(0, 1)


def _seeded_set(space: ParameterSpace, seed: int) -> BipolarSoftSet:
    """Every cell drawn from a seeded generator, built through the mask-sequence form."""
    rng = random.Random(seed)
    pos, neg = [0] * space.n, [0] * space.n
    for k in range(space.n):
        for i in range(space.m):
            state = rng.randrange(3)
            if state == 0:
                pos[k] |= 1 << i
            elif state == 1:
                neg[k] |= 1 << i
    return BipolarSoftSet(space, pos, neg)


@pytest.mark.parametrize("m, n", [(64, 32), (65, 3), (1, 1)])
def test_packed_representation_agrees_with_oracle_at_multiword_sizes(m, n):
    space = ParameterSpace(
        tuple(f"o{i}" for i in range(m)),
        tuple(f"p{k}" for k in range(n)),
        tuple(f"q{k}" for k in range(n)),
    )
    a, b = _seeded_set(space, 1), _seeded_set(space, 2)
    va, vb = oracle.member_view(a), oracle.member_view(b)
    assert oracle.member_view(a | b) == oracle.union_sets(va, vb)
    assert oracle.member_view(a & b) == oracle.intersection_sets(va, vb)
    assert oracle.member_view(~a) == oracle.complement_sets(va)
    assert (a & b).is_subset_of(a) and a.is_subset_of(a | b)
    for combine, oracle_fn in ((and_product, oracle.and_product_sets),
                               (or_product, oracle.or_product_sets)):
        want = oracle_fn(va, vb, space.positive_params)
        got = oracle.member_view(combine(a, b))
        assert got == {f"({e},{ep})": cell for (e, ep), cell in want.items()}
    counts = [(row.object_id, row.c_plus, row.c_minus, row.score) for row in scores(a)]
    assert counts == oracle.table_counts(to_table(a))

    for value in (a, ~b, and_product(a, b)):
        assert BipolarSoftSet(value.space, value.pos_masks, value.neg_masks) == value
        assert BipolarSoftSet(value.space, value.pos_bits, value.neg_bits) == value
        assert dataclasses.replace(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value

    # the packed form is checked like the mask sequences, with the same error types
    with pytest.raises(InvalidArgument):
        BipolarSoftSet(space, 1 << m * n, 0)
    with pytest.raises(InvalidArgument):
        BipolarSoftSet(space, 0, -1)
    last = n - 1  # object o0 approves and rejects the last parameter
    with pytest.raises(DisjointnessViolation) as packed:
        BipolarSoftSet(space, a.pos_bits | 1 << last * m, a.neg_bits | 1 << last * m)
    pos, neg = list(a.pos_masks), list(a.neg_masks)
    pos[last] |= 1
    neg[last] |= 1
    with pytest.raises(DisjointnessViolation) as masks:
        BipolarSoftSet(space, pos, neg)
    assert str(packed.value) == str(masks.value)
    assert (packed.value.param, packed.value.witnesses) == (f"p{last}", ("o0",))
