import itertools
import json
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipolarsoft import (
    BipolarSoftSet,
    and_product,
    catalogue,
    check_law,
    enumerate_bss,
    exhaustive_tuples,
    gen_bss,
    get_law,
    or_product,
    random_tuples,
    recheck,
    run_catalogue,
    standard_space,
)
from bipolarsoft.errors import BoundsTooLarge, InvalidArgument, UnknownLaw
from bipolarsoft import laws as laws_module
from bipolarsoft.core import _pack
from bipolarsoft.laws import MAX_EXHAUSTIVE_CELLS

import oracle


def test_gen_bss_is_deterministic():
    assert gen_bss(42) == gen_bss(42)
    assert gen_bss(1) != gen_bss(2)


def test_gen_bss_respects_bounds():
    for seed in range(200):
        value = gen_bss(seed, max_m=6, max_n=4)
        assert 1 <= value.space.m <= 6
        assert 1 <= value.space.n <= 4


def test_gen_bss_single_cell_hits_only_the_three_states():
    possible = set(enumerate_bss(1, 1))
    seen = {gen_bss(seed, max_m=1, max_n=1) for seed in range(60)}
    assert seen <= possible
    assert seen == possible  # all three states show up quickly


def test_generated_instances_all_revalidate():
    # constructing from the member sets re-runs the full validation path
    for seed in range(10_000):
        value = gen_bss(seed)
        rebuilt = BipolarSoftSet.from_assignment(value.space, oracle.member_view(value))
        assert rebuilt == value


def test_random_tuples_share_a_space():
    for operands in random_tuples(seed=9, count=50, arity=3):
        assert len(operands) == 3
        a, b, c = operands
        assert a.space is b.space is c.space


def test_enumeration_counts():
    assert len(set(enumerate_bss(1, 1))) == 3
    assert len(set(enumerate_bss(2, 1))) == 9
    everything = list(enumerate_bss(2, 2))
    assert len(everything) == 81
    assert len(set(everything)) == 81


def test_enumeration_bounds():
    with pytest.raises(BoundsTooLarge):
        list(enumerate_bss(4, 4))
    with pytest.raises(ValueError):
        list(enumerate_bss(0, 1))


def test_exhaustive_tuples_pair_count():
    assert sum(1 for _ in exhaustive_tuples(1, 1, 2)) == 9


def test_unknown_law():
    with pytest.raises(UnknownLaw):
        check_law("no-such-law", [])
    with pytest.raises(UnknownLaw):
        get_law("nope")


def test_arity_mismatch():
    with pytest.raises(ValueError):
        check_law("union-commutative", [gen_bss(1)])


def test_union_idempotent_exhaustive():
    report = check_law("union-idempotent", enumerate_bss(2, 2))
    assert report.holds is True
    assert report.instances_checked == 81
    assert report.counterexample is None
    assert report.must_hold is True


def test_unconditional_excluded_middle_fails_with_witness():
    report = check_law("excluded-middle-unconditional", enumerate_bss(2, 2))
    assert report.holds is False
    assert report.must_hold is False
    witness = report.counterexample
    assert witness is not None
    # the witnessing instance necessarily has a neutral cell
    operand = witness["operands"][0]
    decided = {
        row["param"]: set(row["positive"]) | set(row["negative"])
        for row in operand["assignments"]
    }
    universe = set(operand["universe"])
    params = [pair["pos"] for pair in operand["pairs"]]
    assert any(decided.get(e, set()) != universe for e in params)
    assert recheck(report) is True


def test_intersection_unconditional_excluded_middle_fails():
    report = check_law("excluded-middle-intersection-unconditional", enumerate_bss(2, 2))
    assert report.holds is False
    assert recheck(report) is True


def test_corrected_excluded_middle_holds():
    for law_id in ("excluded-middle-union", "excluded-middle-intersection"):
        report = check_law(law_id, enumerate_bss(2, 2))
        assert report.holds is True, report


def test_counterexample_names_divergent_parameter():
    # a deliberately broken "law" is not needed: the unconditional form
    # diverges at a concrete parameter, which the witness must name
    report = check_law("excluded-middle-unconditional", enumerate_bss(2, 2))
    assert report.counterexample["parameter"] in ("e1", "e2")
    assert "left" in report.counterexample and "right" in report.counterexample


def test_recheck_is_false_for_passing_reports():
    report = check_law("union-idempotent", enumerate_bss(1, 1))
    assert recheck(report) is False


def test_report_json_shape():
    report = check_law("demorgan-union", exhaustive_tuples(1, 1, 2))
    doc = report.to_json()
    assert doc["law"] == "demorgan-union"
    assert doc["holds"] is True
    assert doc["instances_checked"] == 9
    json.dumps(doc)  # serializable


# The catalogue's contract: report order, ids and verdict expectations are part of the
# check-laws output; arities and descriptions are part of catalogue().
CATALOGUE = [
    ("subset-reflexive", 1, True, "A is a subset of itself"),
    ("subset-transitive", 3, True, "A subset of B and B subset of C implies A subset of C"),
    ("subset-bounded-below", 1, True, "the null set is a subset of everything"),
    ("subset-bounded-above", 1, True, "everything is a subset of the absolute set"),
    ("union-idempotent", 1, True, "A ∪ A = A"),
    ("union-null-identity", 1, True, "A ∪ null = A"),
    ("union-absolute-absorbing", 1, True, "A ∪ absolute = absolute"),
    ("union-commutative", 2, True, "A ∪ B = B ∪ A"),
    ("union-associative", 3, True, "A ∪ (B ∪ C) = (A ∪ B) ∪ C"),
    ("union-absorption", 2, True, "A ∪ (A ∩ B) = A"),
    ("intersection-idempotent", 1, True, "A ∩ A = A"),
    ("intersection-null-absorbing", 1, True, "A ∩ null = null"),
    ("intersection-absolute-identity", 1, True, "A ∩ absolute = A"),
    ("intersection-commutative", 2, True, "A ∩ B = B ∩ A"),
    ("intersection-associative", 3, True, "A ∩ (B ∩ C) = (A ∩ B) ∩ C"),
    ("intersection-absorption", 2, True, "A ∩ (A ∪ B) = A"),
    ("distributive-intersection-over-union", 3, True, "A ∩ (B ∪ C) = (A ∩ B) ∪ (A ∩ C)"),
    ("distributive-union-over-intersection", 3, True, "A ∪ (B ∩ C) = (A ∪ B) ∩ (A ∪ C)"),
    ("complement-involution", 1, True, "complement of the complement restores A"),
    ("complement-null", 1, True, "complement of null is absolute"),
    ("complement-absolute", 1, True, "complement of absolute is null"),
    ("demorgan-union", 2, True, "complement of A ∪ B equals Aᶜ ∩ Bᶜ"),
    ("demorgan-intersection", 2, True, "complement of A ∩ B equals Aᶜ ∪ Bᶜ"),
    ("demorgan-and-product", 2, True, "complement of A ∧ B equals Aᶜ ∨ Bᶜ"),
    ("demorgan-or-product", 2, True, "complement of A ∨ B equals Aᶜ ∧ Bᶜ"),
    (
        "excluded-middle-union", 1, True,
        "A ∪ Aᶜ approves exactly the non-neutral cells, rejects nothing, "
        "and is absolute precisely when A is complete",
    ),
    (
        "excluded-middle-intersection", 1, True,
        "A ∩ Aᶜ rejects exactly the non-neutral cells, approves nothing, "
        "and is null precisely when A is complete",
    ),
    (
        "excluded-middle-unconditional", 1, False,
        "A ∪ Aᶜ = absolute (fails whenever A has a neutral cell)",
    ),
    (
        "excluded-middle-intersection-unconditional", 1, False,
        "A ∩ Aᶜ = null (fails whenever A has a neutral cell)",
    ),
]


def test_catalogue_contents():
    assert [
        (law.law_id, law.arity, law.must_hold, law.description) for law in catalogue()
    ] == CATALOGUE


def test_each_equation_and_order_row_is_one_compiled_function():
    compiled = [law for law in catalogue() if law.evaluate.__code__.co_filename == "<string>"]
    # all but subset-transitive and the corrected excluded-middle rows, which are written out
    assert len(compiled) == len(catalogue()) - 3
    assert all(law.evaluate.__globals__ is laws_module.__dict__ for law in catalogue())
    law = get_law("distributive-intersection-over-union")
    assert {"_differs", "intersection", "union"} <= set(law.evaluate.__code__.co_names)
    cell = BipolarSoftSet.absolute(standard_space(1, 1))
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code.co_name))
    try:
        law.evaluate(cell, cell, cell)
    finally:
        sys.setprofile(None)
    assert calls.count("<lambda>") == 1  # the row itself: no frame per formula node


@pytest.mark.parametrize("formula", [
    "A ∪ (B ∪ C = A",  # no ')'
    "A ∪ B ∪ C = A",  # two operations at one level
    "A = B = C",  # tokens left over
    "A ⊆ B",  # the wrong relation
    "A ∪ = A",  # a relation where an operand belongs
    "A ∪ D = A",  # an unknown operand
    "A ∪",  # no second operand
    "(A ∪ B",  # no ')' and no relation
    "",  # no term at all
], ids=["unclosed", "two-operations", "leftover", "relation", "missing-operand", "unknown-operand",
        "ends-after-operation", "ends-unclosed", "empty"])
def test_the_formula_reader_refuses_a_malformed_row(formula):
    with pytest.raises(ValueError) as err:
        laws_module._equation("malformed", formula)
    assert repr(formula) in str(err.value)  # the message names the row


# the third set of the 2x2 enumeration: e1 approved by both objects, e2 by u1 only
NEUTRAL_CELL_OPERAND = {
    "universe": ["u1", "u2"],
    "pairs": [{"pos": "e1", "neg": "not-e1"}, {"pos": "e2", "neg": "not-e2"}],
    "assignments": [
        {"param": "e1", "positive": ["u1", "u2"], "negative": []},
        {"param": "e2", "positive": ["u1"], "negative": []},
    ],
}


@pytest.mark.parametrize("law_id, left, right", [
    (
        "excluded-middle-unconditional",
        {"positive": ["u1"], "negative": []},
        {"positive": ["u1", "u2"], "negative": []},
    ),
    (
        "excluded-middle-intersection-unconditional",
        {"positive": [], "negative": ["u1"]},
        {"positive": [], "negative": ["u1", "u2"]},
    ),
])
def test_unconditional_excluded_middle_witness_is_pinned(law_id, left, right):
    assert check_law(law_id, enumerate_bss(2, 2)).to_json() == {
        "law": law_id,
        "must_hold": False,
        "instances_checked": 3,
        "holds": False,
        "counterexample": {
            "operands": [NEUTRAL_CELL_OPERAND],
            "parameter": "e2",
            "reason": "sides disagree",
            "left": left,
            "right": right,
        },
    }


def test_excluded_middle_witness_names_the_parameter(monkeypatch):
    union = BipolarSoftSet.union

    def lossy(a, b):  # drops the lowest approved cell
        joined = union(a, b)
        return BipolarSoftSet._closed(joined.space, joined.pos_bits & joined.pos_bits - 1,
                                      joined.neg_bits)

    monkeypatch.setattr(BipolarSoftSet, "union", lossy)
    report = check_law("excluded-middle-union", enumerate_bss(1, 2))
    witness = report.counterexample
    assert (report.holds, report.instances_checked) == (False, 1)
    assert witness["parameter"] == "e1"
    assert witness["reason"] == "sides disagree"
    assert witness["left"] == {"positive": [], "negative": []}
    assert witness["right"] == {"positive": ["u1"], "negative": []}


def test_run_catalogue_filter_and_order():
    wanted = ["demorgan-union", "subset-reflexive"]
    reports = run_catalogue(law_ids=wanted, exhaustive=(1, 1), random_count=20, seed=3)
    assert [r.law_id for r in reports] == wanted
    assert all(r.holds for r in reports)
    # unary law: 3 exhaustive + 20 random; binary: 9 + 20
    assert reports[0].instances_checked == 29
    assert reports[1].instances_checked == 23


def test_run_catalogue_random_only():
    reports = run_catalogue(
        law_ids=["union-commutative"], exhaustive=None, random_count=40, seed=5
    )
    assert reports[0].instances_checked == 40
    assert reports[0].holds


def test_run_catalogue_rejects_unknown_law():
    with pytest.raises(UnknownLaw):
        run_catalogue(law_ids=["does-not-exist"], exhaustive=(1, 1), random_count=0)
    with pytest.raises(UnknownLaw):
        run_catalogue(law_ids=[["x"]], exhaustive=(1, 1), random_count=0)
    with pytest.raises(UnknownLaw):
        get_law(["x"])


def test_run_catalogue_refuses_a_run_without_instances(monkeypatch):
    from bipolarsoft import laws

    def reached(*args, **kwargs):
        raise AssertionError("a law was checked although no instance source was given")

    monkeypatch.setattr(laws, "check_law", reached)
    monkeypatch.setattr(laws, "_sweep", reached)
    with pytest.raises(InvalidArgument):
        run_catalogue(exhaustive=None, random_count=0)


# Exhaustive pools within the 3^12 budget for at least the unary laws; run_catalogue
# checks every row on them lane-parallel, a chunk passing when the row holds on each
# one-cell instance and on each lane group (the one-cell instances stand in for the
# implication and biconditional rows, which lanes cannot judge); check_law checks one
# instance at a time.
POOLS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (4, 1)]


def _lane_and_scalar_reports(pool, laws):
    m, n = pool
    for law in laws:
        if m * n * law.arity <= MAX_EXHAUSTIVE_CELLS:
            fast = run_catalogue(law_ids=[law.law_id], exhaustive=pool, random_count=0)[0]
            yield fast, check_law(law.law_id, exhaustive_tuples(m, n, law.arity))


@pytest.mark.parametrize("pool", POOLS, ids=[f"{m}x{n}" for m, n in POOLS])
def test_run_catalogue_matches_the_scalar_check(pool):
    for fast, scalar in _lane_and_scalar_reports(pool, catalogue()):
        assert fast == scalar, fast.law_id


def _union_rejecting_over_neutral(a, b):  # neutral ∪ reject should stay neutral
    return BipolarSoftSet._closed(a.space, a.pos_bits | b.pos_bits, b.neg_bits & ~a.pos_bits)


def _intersection_approving_under_neutral(a, b):  # neutral ∩ approve should stay neutral
    return BipolarSoftSet._closed(a.space, b.pos_bits & ~a.neg_bits, a.neg_bits | b.neg_bits)


def _and_product_neutral_on_two_rejects(a, b):  # reject ∧ reject should reject
    both = and_product(a, b)
    return BipolarSoftSet._closed(both.space, both.pos_bits,
                                  both.neg_bits & ~or_product(a, b).neg_bits)


def _or_product_rejecting_on_two_neutrals(a, b):  # neutral ∨ neutral should stay neutral
    either = or_product(a, b)
    decided = either.pos_bits | and_product(a, b).neg_bits  # where a or b takes a side
    return BipolarSoftSet._closed(either.space, either.pos_bits,
                                  either.neg_bits | either.space.cells_mask & ~decided)


def _subset_reading_approval_for_rejection(a, b):  # b's rejections must avoid a's approvals
    return not (a.pos_bits & ~b.pos_bits or b.neg_bits & ~a.pos_bits)


def _subset_not_transitive(a, b):  # only forbids a cell that a approves and b rejects
    return not (a.pos_bits & b.neg_bits)


# Each fault acts on each result cell alone: a product cell reads one cell of each operand,
# and the faulty order is the AND of a test on each cell.
CELLWISE_FAULTS = [
    (BipolarSoftSet, "union", _union_rejecting_over_neutral),
    (BipolarSoftSet, "intersection", _intersection_approving_under_neutral),
    (laws_module, "and_product", _and_product_neutral_on_two_rejects),
    (laws_module, "or_product", _or_product_rejecting_on_two_neutrals),
    (BipolarSoftSet, "is_subset_of", _subset_reading_approval_for_rejection),
    (BipolarSoftSet, "is_subset_of", _subset_not_transitive),
]
FAULT_IDS = ["union", "intersection", "and-product", "or-product", "subset", "not-transitive"]


@pytest.mark.parametrize("fault, law_id, first_failure, past", [
    (CELLWISE_FAULTS[0], "distributive-intersection-over-union", 13124, 81 ** 2),
    (CELLWISE_FAULTS[1], "distributive-union-over-intersection", 13204, 81 ** 2),
    (CELLWISE_FAULTS[2], "demorgan-and-product", 83, 81),
    (CELLWISE_FAULTS[3], "demorgan-or-product", 165, 81),
    (CELLWISE_FAULTS[4], "subset-reflexive", 2, 1),
    (CELLWISE_FAULTS[5], "subset-transitive", 164, 81),
], ids=FAULT_IDS)
def test_lane_checks_find_the_scalar_witness_under_a_cellwise_fault(
        fault, law_id, first_failure, past, monkeypatch):
    # a fault that acts on each cell alone is seen in every lane, so the lanes fail the
    # batch that holds the first failing instance and the scalar check finds it there.  Each
    # first failure lies past the first operand's 81² triples (ternary) or 81 pairs (binary),
    # or past the first instance (unary); all fall in the first batch of 3^10 tuples, so the
    # 2x2 check runs again on batches of 3^4, where all but the unary one fall in a later batch.
    # Lanes cannot judge an implication, but the non-transitive order fails its one-cell
    # instances, so every batch is walked and the failure lies past 81 triples.
    monkeypatch.setattr(*fault)
    failed = 0
    for pool in POOLS:
        # the ternary laws that still hold cost seconds each on 4-cell pools
        laws = [law for law in catalogue()
                if pool[0] * pool[1] < 4 or law.arity < 3 or law.law_id == law_id]
        for fast, scalar in _lane_and_scalar_reports(pool, laws):
            assert fast == scalar, (pool, fast.law_id)
            failed += not fast.holds
    assert failed > len(POOLS)
    report = run_catalogue(law_ids=[law_id], exhaustive=(2, 2), random_count=0)[0]
    assert report.instances_checked == first_failure > past
    assert recheck(report)
    monkeypatch.setattr(laws_module, "_POOL_LANES", 3 ** 4)
    laws_module._pool_lanes.cache_clear()
    try:
        report = run_catalogue(law_ids=[law_id], exhaustive=(2, 2), random_count=0)[0]
    finally:
        laws_module._pool_lanes.cache_clear()  # drop the entries of the lowered budget
    assert report.instances_checked == first_failure
    assert recheck(report)


def _one_cell_operand(positive, negative):
    return {"universe": ["u1"], "pairs": [{"pos": "e1", "neg": "not-e1"}],
            "assignments": [{"param": "e1", "positive": positive, "negative": negative}]}


APPROVING_CELL = _one_cell_operand(["u1"], [])  # the first one-cell set of the enumeration
NEUTRAL_CELL = {"universe": ["u1"], "pairs": [{"pos": "e1", "neg": "not-e1"}], "assignments": []}
REJECTING_CELL = _one_cell_operand([], ["u1"])


def _never(*operands):
    return False


@pytest.mark.parametrize("fault, law_id, checked, operands, reason", [
    ((BipolarSoftSet, "is_subset_of", _never), "subset-reflexive", 1, [APPROVING_CELL],
     "A not a subset of itself"),
    ((BipolarSoftSet, "is_subset_of", _never), "subset-bounded-below", 1, [APPROVING_CELL],
     "null not below A"),
    ((BipolarSoftSet, "is_subset_of", _never), "subset-bounded-above", 1, [APPROVING_CELL],
     "A not below absolute"),
    # approve ≤ neutral ≤ reject under the faulty order, which forbids only approve ≤ reject
    (CELLWISE_FAULTS[5], "subset-transitive", 8, [APPROVING_CELL, NEUTRAL_CELL, REJECTING_CELL],
     "chain premises hold but the conclusion fails"),
    ((BipolarSoftSet, "is_complete", _never), "excluded-middle-union", 1, [APPROVING_CELL],
     "A ∪ Aᶜ = absolute does not coincide with A being complete"),
    ((BipolarSoftSet, "is_complete", _never), "excluded-middle-intersection", 1,
     [APPROVING_CELL], "A ∩ Aᶜ = null does not coincide with A being complete"),
], ids=["reflexive", "below", "above", "transitive", "excluded-middle-union",
        "excluded-middle-intersection"])
def test_refutation_witnesses_are_pinned(fault, law_id, checked, operands, reason, monkeypatch):
    monkeypatch.setattr(*fault)
    report = check_law(law_id, exhaustive_tuples(1, 1, get_law(law_id).arity))
    assert (report.holds, report.instances_checked) == (False, checked)
    assert report.counterexample == {"operands": operands, "parameter": None, "reason": reason}
    assert recheck(report)


def _one_each(bits_a, bits_b):  # exactly one cell set in each
    return bits_a.bit_count() == 1 == bits_b.bit_count()


_UNION, _IS_SUBSET_OF, _IS_COMPLETE = (BipolarSoftSet.union, BipolarSoftSet.is_subset_of,
                                       BipolarSoftSet.is_complete)


def _union_dropping_approvals_of_one_each(a, b):  # when a approves one cell and rejects one
    joined = _UNION(a, b)
    if _one_each(a.pos_bits, a.neg_bits):
        return BipolarSoftSet._closed(joined.space, 0, joined.neg_bits)
    return joined


def _subset_also_of_one_approval_each(a, b):
    return _IS_SUBSET_OF(a, b) or _one_each(a.pos_bits, b.pos_bits)


def _complete_also_with_one_each(a):
    return _IS_COMPLETE(a) or _one_each(a.pos_bits, a.neg_bits)


# Each fault reads a count over the whole set, so it is neither cell-local nor lane-local: no
# one-cell set shows it, and a lane set holding many instances almost never does.  With each
# fault, its rows' first failures on the 2x2 pool, one instance at a time.
NONLOCAL_FAULTS = [
    ((BipolarSoftSet, "union", _union_dropping_approvals_of_one_each),
     {"union-idempotent": 18, "union-commutative": 18, "union-absorption": 1378,
      "union-associative": 7939}),
    ((BipolarSoftSet, "is_subset_of", _subset_also_of_one_approval_each),
     {"subset-transitive": 87832}),
    ((BipolarSoftSet, "is_complete", _complete_also_with_one_each),
     {"excluded-middle-union": 18, "excluded-middle-intersection": 18}),
]
NONLOCAL_IDS = ["union", "subset", "complete"]


def _scalar_reports_on_the_pool(law_ids):
    return [check_law(law_id, exhaustive_tuples(2, 2, get_law(law_id).arity))
            for law_id in law_ids]


@pytest.mark.parametrize("fault, first_failures", NONLOCAL_FAULTS, ids=NONLOCAL_IDS)
def test_nonlocal_faults_fail_the_scalar_check(fault, first_failures, monkeypatch):
    monkeypatch.setattr(*fault)
    assert [(report.holds, report.instances_checked)
            for report in _scalar_reports_on_the_pool(first_failures)] \
        == [(False, count) for count in first_failures.values()]


NONLOCAL_XFAIL = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a lane verdict assumes "
                                   "lane-local operations, and nothing checks that they are")


@NONLOCAL_XFAIL
@pytest.mark.parametrize("fault, first_failures", NONLOCAL_FAULTS, ids=NONLOCAL_IDS)
def test_lane_checks_find_the_scalar_witness_under_a_nonlocal_fault(
        fault, first_failures, monkeypatch):
    monkeypatch.setattr(*fault)
    assert run_catalogue(law_ids=list(first_failures), exhaustive=(2, 2), random_count=0) \
        == _scalar_reports_on_the_pool(first_failures)


# With each fault, its rows' first failures on the default draw (seed 1, 6x4 bounds), one
# instance at a time; every one lies within the first NONLOCAL_DRAWN instances.
NONLOCAL_DRAW_FAULTS = [
    (NONLOCAL_FAULTS[0][0], {"union-idempotent": 4, "union-commutative": 2,
                             "union-absorption": 2, "union-associative": 3}),
    (NONLOCAL_FAULTS[1][0], {"subset-transitive": 141}),
    (NONLOCAL_FAULTS[2][0], {"excluded-middle-union": 23, "excluded-middle-intersection": 23}),
]
NONLOCAL_DRAWN = 300


def _scalar_reports_on_the_draw(law_ids):
    return [check_law(law_id, random_tuples(1, NONLOCAL_DRAWN, get_law(law_id).arity))
            for law_id in law_ids]


@pytest.mark.parametrize("fault, first_failures", NONLOCAL_DRAW_FAULTS, ids=NONLOCAL_IDS)
def test_nonlocal_faults_fail_the_scalar_check_on_the_draw(fault, first_failures, monkeypatch):
    monkeypatch.setattr(*fault)
    assert [(report.holds, report.instances_checked)
            for report in _scalar_reports_on_the_draw(first_failures)] \
        == [(False, count) for count in first_failures.values()]


@NONLOCAL_XFAIL
@pytest.mark.parametrize("fault, first_failures", NONLOCAL_DRAW_FAULTS, ids=NONLOCAL_IDS)
def test_random_lanes_find_the_scalar_witness_under_a_nonlocal_fault(
        fault, first_failures, monkeypatch):
    monkeypatch.setattr(*fault)
    assert run_catalogue(law_ids=list(first_failures), exhaustive=None, seed=1,
                         random_count=NONLOCAL_DRAWN) == _scalar_reports_on_the_draw(first_failures)


def test_lane_checks_evaluate_a_whole_batch_per_operation(monkeypatch):
    calls = []
    union = BipolarSoftSet.union
    monkeypatch.setattr(BipolarSoftSet, "union", lambda a, b: calls.append(1) or union(a, b))
    report = run_catalogue(law_ids=["union-associative"], exhaustive=(2, 2), random_count=0)[0]
    assert (report.holds, report.instances_checked) == (True, 81 ** 3)
    # four per batch of 9 × 81² triples; an equation has no one-cell stand-in
    assert len(calls) == 9 * 4


def test_product_rows_evaluate_a_whole_chunk_per_product(monkeypatch):
    calls = []
    product = laws_module.and_product
    monkeypatch.setattr(laws_module, "and_product",
                        lambda a, b: calls.append(1) or product(a, b))
    report = run_catalogue(law_ids=["demorgan-and-product"], exhaustive=(2, 2),
                           random_count=0)[0]
    assert (report.holds, report.instances_checked) == (True, 81 ** 2)
    assert len(calls) == 1  # one on all 81² pairs


def test_order_rows_evaluate_a_whole_chunk_per_comparison(monkeypatch):
    calls = []
    is_subset_of = BipolarSoftSet.is_subset_of
    monkeypatch.setattr(BipolarSoftSet, "is_subset_of",
                        lambda a, b: calls.append(1) or is_subset_of(a, b))
    report = run_catalogue(law_ids=["subset-reflexive"], exhaustive=(2, 2), random_count=0)[0]
    assert (report.holds, report.instances_checked) == (True, 81)
    assert len(calls) == 1  # one comparison of all 81 lanes


def test_both_sources_share_one_sweep(monkeypatch):
    calls = []
    is_subset_of = BipolarSoftSet.is_subset_of
    monkeypatch.setattr(BipolarSoftSet, "is_subset_of",
                        lambda a, b: calls.append(1) or is_subset_of(a, b))
    report = run_catalogue(law_ids=["subset-reflexive"], exhaustive=(2, 2), random_count=1,
                           random_bounds=(1, 1))[0]
    assert (report.holds, report.instances_checked) == (True, 81 + 1)
    assert len(calls) == 1 + 1  # the pool chunk, the random chunk


# Each of the three rows the one-cell sets stand in for, with the predicate it calls, its calls
# on the one-cell tuples and on the 2x2 pool's lanes.  subset-transitive: each of the 27 triples
# asks A ⊆ B, each of the 6 pairs with A ⊆ B asks B ⊆ C for all 3 C, and each of the 10 chains
# A ⊆ B ⊆ C asks A ⊆ C; A ⊆ B then fails on some lane of each of the 9 batches, which ends the
# row there.  An excluded-middle row asks once per one-cell set and once on the pool's lanes.
STAND_IN_CALLS = [("subset-transitive", "is_subset_of", 27 + 6 * 3 + 10, 9),
                  ("excluded-middle-union", "is_complete", 3, 1),
                  ("excluded-middle-intersection", "is_complete", 3, 1)]


@pytest.mark.parametrize("law_id, predicate, one_cell, lanes", STAND_IN_CALLS,
                         ids=[law_id for law_id, *_ in STAND_IN_CALLS])
def test_the_stand_in_rows_still_run_on_every_one_cell_tuple(
        law_id, predicate, one_cell, lanes, monkeypatch):
    calls = []
    unpatched = getattr(BipolarSoftSet, predicate)
    monkeypatch.setattr(BipolarSoftSet, predicate,
                        lambda *operands: calls.append(1) or unpatched(*operands))
    arity = get_law(law_id).arity
    report = run_catalogue(law_ids=[law_id], exhaustive=(2, 2), random_count=0)[0]
    assert (report.holds, report.instances_checked) == (True, 81 ** arity)
    assert len(calls) == one_cell + lanes
    calls.clear()
    check_law(law_id, exhaustive_tuples(1, 1, arity))  # the one-cell tuples alone
    assert len(calls) == one_cell


def _rows(bits, stride, width, rows):
    return [bits >> k * stride & (1 << width) - 1 for k in range(rows)]


@pytest.mark.parametrize("m, n, count", [(1, 1, 1), (1, 1, 9), (2, 1, 5), (1, 3, 7),
                                         (3, 2, 33), (2, 4, 12), (6, 4, 40)])
def test_lane_products_are_the_products_of_their_lanes(m, n, count):
    width = m * n
    pairs = [operands for operands in random_tuples(m * 100 + n, 40 * count, 2, m, n)
             if (operands[0].space.m, operands[0].space.n) == (m, n)][:count]
    assert len(pairs) == count
    space = laws_module._LaneSpace(m, n, count)
    a, b = (BipolarSoftSet._closed(space, _pack(tuple(x.pos_bits for x in column), width),
                                   _pack(tuple(x.neg_bits for x in column), width))
            for column in zip(*pairs))
    for product in (and_product, or_product):
        lanes = product(a, b)
        # row k holds row k of every lane's product, one row after another
        for t, (x, y) in enumerate(pairs):
            scalar = product(x, y)
            for lane_bits, scalar_bits in ((lanes.pos_bits, scalar.pos_bits),
                                           (lanes.neg_bits, scalar.neg_bits)):
                assert _rows(lane_bits >> t * width, count * width, width, n) \
                    == _rows(scalar_bits, width, width, n), (product.__name__, t)
        assert lanes.pos_bits | lanes.neg_bits <= lanes.space.cells_mask
        with pytest.raises(AttributeError):  # stacked rows have no product space
            product(lanes, lanes)


def test_an_operation_that_reads_ids_is_checked_one_instance_at_a_time(monkeypatch):
    union = BipolarSoftSet.union

    def lossy(a, b):  # drops the lowest approved cell and rebuilds through the checking constructor
        joined = union(a, b)
        return BipolarSoftSet(joined.space, joined.pos_bits & joined.pos_bits - 1, joined.neg_bits)

    monkeypatch.setattr(BipolarSoftSet, "union", lossy)
    for pool in [(1, 2), (2, 1), (1, 3)]:
        for fast, scalar in _lane_and_scalar_reports(pool, catalogue()):
            assert fast == scalar, (pool, fast.law_id)


# -- the shared random source ---------------------------------------------------


def _random_and_scalar_reports(laws, count, seed, bounds):
    """Per law: run_catalogue's random-only report (the shared, chunked, lane-parallel
    draw) and check_law's one-instance-at-a-time report on the same stream."""
    for law in laws:
        fast = run_catalogue(law_ids=[law.law_id], exhaustive=None, random_count=count,
                             seed=seed, random_bounds=bounds)[0]
        yield fast, check_law(law.law_id, random_tuples(seed, count, law.arity, *bounds))


RANDOM_RUNS = [((1, 1), 1, 300), ((2, 1), 2, 300), ((3, 2), 3, 300), ((6, 4), 4, 300),
               ((6, 4), 5, laws_module._CHUNK + 77), ((3, 2), 6, 2 * laws_module._CHUNK + 1)]


@pytest.mark.parametrize("bounds, seed, count", RANDOM_RUNS,
                         ids=[f"{m}x{n}-seed{s}-{c}" for (m, n), s, c in RANDOM_RUNS])
def test_random_source_matches_the_scalar_check(bounds, seed, count):
    scalar = []
    for fast, expected in _random_and_scalar_reports(catalogue(), count, seed, bounds):
        assert fast == expected, fast.law_id
        scalar.append(expected)
    # one run of every law shares one draw per arity and gives the same reports
    assert run_catalogue(exhaustive=None, random_count=count, seed=seed,
                         random_bounds=bounds) == scalar


# The faulty order that reads approval for rejection fails the first drawn instance with a
# rejecting cell, so in the first chunk; a chain that breaks the non-transitive one is rarer.
@pytest.mark.parametrize("fault, past", zip(CELLWISE_FAULTS, (8, 8, 8, 8, 0, 32)), ids=FAULT_IDS)
def test_random_lanes_find_the_scalar_witness_under_a_cellwise_fault(fault, past, monkeypatch):
    monkeypatch.setattr(*fault)
    monkeypatch.setattr(laws_module, "_CHUNK", 8)  # so that first failures lie in late chunks
    failing = []
    for bounds in [(1, 1), (2, 1), (3, 2), (6, 4)]:
        for seed in (1, 2, 3):
            for fast, scalar in _random_and_scalar_reports(catalogue(), 200, seed, bounds):
                assert fast == scalar, (bounds, seed, fast.law_id)
                if not fast.holds:
                    assert recheck(fast)
                    failing.append(fast)
    assert any(report.instances_checked > past for report in failing if report.must_hold)
    sizes = {(len(doc["universe"]), len(doc["pairs"]))
             for report in failing for doc in report.counterexample["operands"]}
    assert len(sizes) > 2  # first failures come from several size groups


def test_lanes_that_flag_a_passing_instance_fall_back_to_one_at_a_time(monkeypatch):
    union, fired = BipolarSoftSet.union, []

    def wrong_on_lanes(a, b):  # wrong on lane sets only, so every flag is a false alarm
        joined = union(a, b)
        if not isinstance(a.space, laws_module.ParameterSpace):  # any kind of lane set
            fired.append(type(a.space).__name__)
            return BipolarSoftSet._closed(joined.space, joined.pos_bits ^ 1, joined.neg_bits & ~1)
        return joined

    monkeypatch.setattr(BipolarSoftSet, "union", wrong_on_lanes)
    for fast, scalar in _random_and_scalar_reports(catalogue(), 150, 7, (3, 2)):
        assert fast == scalar, fast.law_id
    assert "_MixedLanes" in fired  # a drawn chunk's lanes, not only its size groups
    fired.clear()
    for fast, scalar in _lane_and_scalar_reports((2, 1), catalogue()):
        assert fast == scalar, fast.law_id
    assert set(fired) == {"_LaneSpace"}  # the pool's lanes


def _counting_stream(monkeypatch):
    """Patch the block draw so that every block yielded is appended to the list returned,
    as ``(seed, first, size)``."""
    blocks = []
    draw = laws_module._splitmix_blocks

    def counted(seed, first, size):
        for k, block in enumerate(draw(seed, first, size)):
            blocks.append((seed, first + k * size, size))
            yield block

    monkeypatch.setattr(laws_module, "_splitmix_blocks", counted)
    return blocks


def _streams(blocks):
    """The seed of each read of a stream from its start, and how many values ``blocks`` pulled.
    Every other block must go on where the block before it ended."""
    calls, end = [], 0
    for seed, first, size in blocks:
        if first == 0:
            calls.append(seed)
        else:
            assert calls and (seed, first) == (calls[-1], end), "a block skips or repeats values"
        end = first + size
    return calls, sum(size for _, _, size in blocks)


def _values_read(seed, count, arity, max_m, max_n):
    """How many stream values ``count`` draws of ``arity`` operands read."""
    values, read = oracle.splitmix64(seed), 0
    for _ in range(count):
        m, n = 1 + next(values) % max_m, 1 + next(values) % max_n
        read += 2 + arity * m * n
        for _ in range(arity * m * n):
            next(values)
    return read


def test_a_default_pass_draws_one_stream(monkeypatch):
    needed = _values_read(1, 1000, 3, 6, 4)  # the ternary draw reads the most
    blocks = _counting_stream(monkeypatch)
    run_catalogue()
    calls, pulled = _streams(blocks)
    assert calls == [1]
    assert needed <= pulled <= needed + laws_module._BLOCK


def test_an_arity_whose_laws_all_failed_is_drawn_no_further(monkeypatch):
    count = 4 * laws_module._CHUNK
    needed = _values_read(3, count, 2, 6, 4)  # the unary draw stops after its first chunk
    blocks = _counting_stream(monkeypatch)
    reports = run_catalogue(law_ids=["excluded-middle-unconditional", "union-commutative"],
                            exhaustive=None, random_count=count, seed=3)
    assert [report.holds for report in reports] == [False, True]
    _, pulled = _streams(blocks)
    assert needed <= pulled <= needed + laws_module._BLOCK


def test_a_law_that_fails_on_the_pool_is_not_drawn(monkeypatch):
    blocks = _counting_stream(monkeypatch)
    report, = run_catalogue(law_ids=["excluded-middle-unconditional"], exhaustive=(1, 1),
                            random_count=1000)
    assert (report.holds, report.instances_checked) == (False, 3)  # the neutral cell is third
    assert blocks == []


def _reference_tuples(seed, count, arity, max_m, max_n):
    """The draw one cell at a time: two stream values for the size, then one per cell."""
    stream = oracle.splitmix64(seed)
    for _ in range(count):
        m, n = 1 + next(stream) % max_m, 1 + next(stream) % max_n
        operands = []
        for _ in range(arity):
            pos = neg = 0
            for bit in range(m * n):
                state = next(stream) % 3
                if state == 0:
                    pos |= 1 << bit
                elif state == 1:
                    neg |= 1 << bit
            operands.append(BipolarSoftSet(standard_space(m, n), pos, neg))
        yield tuple(operands)


@pytest.mark.parametrize("seed", [0, 1, -1, 2 ** 64 + 5])
@pytest.mark.parametrize("arity", [1, 2, 3])
# 30x20: sizes up to 600 cells, each drawn from a value mod 30 and a value mod 20
@pytest.mark.parametrize("bounds", [(1, 1), (6, 4), (20, 12), (30, 20)],
                         ids=["1x1", "6x4", "20x12", "30x20"])
def test_random_tuples_match_the_cell_by_cell_draw(seed, arity, bounds, monkeypatch):
    monkeypatch.setattr(laws_module, "_CHUNK", 64)  # so that 150 instances span three chunks
    drawn = list(random_tuples(seed, 150, arity, *bounds))
    assert drawn == list(_reference_tuples(seed, 150, arity, *bounds))


# Operands are gathered in tag groups of 84: one group whole, one and a bit, two, and three.
@pytest.mark.parametrize("arity", [84, 85, 168, 170])
@pytest.mark.parametrize("bounds", [(1, 1), (3, 2)], ids=["1x1", "3x2"])
def test_random_tuples_of_many_tag_groups_match_the_cell_by_cell_draw(arity, bounds, monkeypatch):
    monkeypatch.setattr(laws_module, "_CHUNK", 8)  # so that 20 instances span three chunks
    drawn = list(random_tuples(1, 20, arity, *bounds))
    assert drawn == list(_reference_tuples(1, 20, arity, *bounds))


GAMMA = 0x9E3779B97F4A7C15  # the stream's counter step: value i is mix(seed + (i + 1)·GAMMA)
# 1, 3 and 26 values: gen_bss and small counts ask for these; 74 = 2 + 3·24: a count of 1
BLOCK_SIZES = [1, 3, 26, 74, laws_module._BLOCK]


def _assert_block_is_the_reference(seed, first, size):
    """Three consecutive blocks from ``first`` on, from one generator, so that the counters
    carried from one block to the next are checked too."""
    blocks = laws_module._splitmix_blocks(seed, first, size)
    stream = itertools.islice(oracle.splitmix64(seed), first, None)
    for k in range(3):
        values, residues = next(blocks)
        expected = list(itertools.islice(stream, size))
        assert list(values) == expected, k  # the size draws read these mod max_m and max_n
        assert list(residues) == [value % 3 for value in expected], k


@pytest.mark.parametrize("seed", [0, 1, -1, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5])
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_a_block_of_the_stream_is_the_reference_stream(seed, size):
    # a block whose first counter, seed + (first + 1)·GAMMA, wraps past 2^64
    wraps = next(first for first in itertools.count(1)
                 if (seed + first * GAMMA) % 2 ** 64 + GAMMA >= 2 ** 64)
    for first in (0, size, wraps):
        _assert_block_is_the_reference(seed, first, size)


@given(st.integers(), st.integers(0, 3000), st.sampled_from(BLOCK_SIZES))
def test_blocks_of_any_seed_are_the_reference_stream(seed, first, size):
    _assert_block_is_the_reference(seed, first, size)


# The residue kernel reads v mod 3 from bits 63 and 64 of v·⌈2^65/3⌉, with an error that grows
# with v.  2^64 − 1 is the largest multiple of 3 below 2^64, so the top three values are also
# that multiple and it minus 1 and 2.
RESIDUE_EDGES = [0, 1, 2, 3, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 3, 2 ** 64 - 2, 2 ** 64 - 1]


@pytest.mark.parametrize("value", RESIDUE_EDGES)
@pytest.mark.parametrize("size, lane", [(1, 0), (512, 0), (512, 511)])
def test_the_residue_kernel_is_exact_at_its_edges(value, size, lane):
    # the seed whose value ``lane``, mix(seed + (lane + 1)·GAMMA), is ``value``
    seed = (oracle.splitmix64_state(value) - (lane + 1) * GAMMA) % 2 ** 64
    assert next(itertools.islice(oracle.splitmix64(seed), lane, None)) == value
    values, residues = next(laws_module._splitmix_blocks(seed, 0, size))
    assert (values[lane], residues[lane]) == (value, value % 3)


def test_seeds_equal_mod_2_to_the_64_give_the_same_run():
    assert (run_catalogue(exhaustive=None, seed=-1)
            == run_catalogue(exhaustive=None, seed=2 ** 64 - 1))


def _lane(lane_set, t):
    """The ``(pos, neg)`` bits of lane ``t`` of a lane set."""
    width = lane_set.space.m * lane_set.space.n
    return tuple(bits >> t * width & (1 << width) - 1
                 for bits in (lane_set.pos_bits, lane_set.neg_bits))


def _assert_lanes_hold(group, tuples):
    """Lane t of operand j's lane set holds operand j of the t-th tuple, and no lane is spare."""
    assert [lane_set.space.lanes for lane_set in group] == [len(tuples)] * len(group)
    for t, operands in enumerate(tuples):
        assert [_lane(lane_set, t) for lane_set in group] \
            == [(o.pos_bits, o.neg_bits) for o in operands], t


# A law that holds cannot see a mis-packed lane (counts come from a chunk's count, not its
# lanes), so the packing of both sources is checked against the instances a chunk walks.
def _walk_pool(pool, arity):
    """Every batch's tuples of the pool, each batch checked against its lanes; and the count
    of batches."""
    walked, batches = [], 0
    for item_arity, (count, instances, group, groups) in laws_module._pool_lanes(*pool, arity):
        tuples = list(instances())
        assert item_arity == arity and len(tuples) == count and len(group) == arity
        assert groups is None  # the pool's lanes have sizes: nothing to fall back to
        _assert_lanes_hold(group, tuples)
        walked += tuples
        batches += 1
    return walked, batches


@pytest.mark.parametrize("pool", [(1, 1), (1, 2), (2, 1), (1, 3)])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_pool_lanes_hold_the_instances_their_chunk_walks(pool, arity):
    walked, batches = _walk_pool(pool, arity)
    assert walked == list(exhaustive_tuples(*pool, arity))
    assert batches == 1  # at most 3^9 tuples: one batch


@pytest.mark.parametrize("pool, arity, lanes, batches", [
    ((1, 2), 3, 3 ** 5, 3),  # 3 of the 9 first operands a batch, each with every pair
    ((1, 1), 3, 3 ** 2, 3),  # one first operand a batch, with every pair
    ((2, 1), 2, 3 ** 3, 3),  # 3 of the 9 first operands, each with every set
    ((1, 3), 1, 3 ** 2, 3),  # 9 of the 27 sets
    ((1, 2), 3, 3, 243),  # one first and one second operand, with 3 of the 9 last ones
])
def test_pool_batches_of_a_lowered_lane_budget_hold_their_tuples(
        pool, arity, lanes, batches, monkeypatch):
    monkeypatch.setattr(laws_module, "_POOL_LANES", lanes)
    laws_module._pool_lanes.cache_clear()
    try:
        walked, built = _walk_pool(pool, arity)
    finally:
        laws_module._pool_lanes.cache_clear()  # drop the entries of the lowered budget
    assert walked == list(exhaustive_tuples(*pool, arity))
    assert built == batches


def test_drawn_lanes_hold_the_instances_their_chunk_walks(monkeypatch):
    monkeypatch.setattr(laws_module, "_CHUNK", 16)  # so that 50 instances span four chunks
    walked = {arity: [] for arity in (1, 2, 3)}
    for arity, (count, instances, _, size_groups) in laws_module._drawn(
            5, 50, 3, 2, tuple(walked)):
        groups = size_groups()
        tuples, by_size = list(instances()), {}  # by_size: each size's instances in order
        for operands in tuples:
            by_size.setdefault((operands[0].space.m, operands[0].space.n), []).append(operands)
        assert len(tuples) == count
        assert [(group[0].space.m, group[0].space.n) for group in groups] == list(by_size)
        for group, same_size in zip(groups, by_size.values()):
            assert len(group) == arity
            _assert_lanes_hold(group, same_size)
        walked[arity] += tuples
    for arity, tuples in walked.items():
        assert tuples == list(random_tuples(5, 50, arity, 3, 2))


def _assert_drawn_side_by_side(total, bounds, arities):
    walked = {arity: [] for arity in arities}
    for arity, (count, instances, lanes, _) in laws_module._drawn(5, total, *bounds, arities):
        tuples = list(instances())
        assert len(tuples) == count and len(lanes) == arity
        # operand j of instance t sits at the running offset of the instances before it
        offset = 0
        for operands in tuples:
            width = operands[0].space.m * operands[0].space.n
            assert [tuple(bits >> offset & (1 << width) - 1
                          for bits in (lane_set.pos_bits, lane_set.neg_bits))
                    for lane_set in lanes] == [(o.pos_bits, o.neg_bits) for o in operands]
            offset += width
        assert {lane_set.space.cells_mask for lane_set in lanes} == {(1 << offset) - 1}
        walked[arity] += tuples
    for arity, tuples in walked.items():
        assert tuples == list(_reference_tuples(5, total, arity, *bounds)), arity


def test_a_drawn_chunk_packs_every_size_side_by_side(monkeypatch):
    monkeypatch.setattr(laws_module, "_CHUNK", 16)  # so that 50 instances span four chunks
    _assert_drawn_side_by_side(50, (3, 2), (1, 2, 3))


def test_a_drawn_chunk_of_any_arity_packs_every_operand_side_by_side(monkeypatch):
    monkeypatch.setattr(laws_module, "_CHUNK", 16)  # so that 50 instances span four chunks
    _assert_drawn_side_by_side(50, (4, 3), (1, 2, 3, 4, 5, 6))


def test_random_tuples_pack_no_lanes(monkeypatch):
    expected = list(random_tuples(5, 50, 3, 4, 3))

    def refused(cells):
        raise AssertionError("random_tuples packed a lane set")

    monkeypatch.setattr(laws_module, "_MixedLanes", refused)
    assert list(random_tuples(5, 50, 3, 4, 3)) == expected
    assert gen_bss(5, 4, 3) == expected[0][0]  # one stream: its first instance's first set


def test_a_mixed_size_lane_set_has_no_sizes():
    (_, (_, _, lanes, _)), = laws_module._drawn(5, 50, 3, 2, (2,))
    assert lanes[0].space is lanes[1].space  # so the lattice operations accept them
    for name in ("m", "n", "full_mask"):
        with pytest.raises(AttributeError):
            getattr(lanes[0].space, name)
    with pytest.raises(AttributeError):  # a product reads the sizes
        and_product(*lanes)


def test_a_fault_that_reads_sizes_falls_back_to_size_groups_then_one_at_a_time(monkeypatch):
    union, seen = BipolarSoftSet.union, set()

    def losing_the_first_parameter_on_three_objects(a, b):  # lane- and cell-local
        joined = union(a, b)
        seen.add(type(a.space).__name__)
        if a.space.m == 3:  # a mixed-size set has no m: AttributeError
            return BipolarSoftSet._closed(joined.space, joined.pos_bits & ~a.space.full_mask,
                                          joined.neg_bits)
        return joined

    monkeypatch.setattr(BipolarSoftSet, "union", losing_the_first_parameter_on_three_objects)
    law_ids = ["union-idempotent", "union-null-identity", "union-absolute-absorbing",
               "union-commutative", "union-absorption", "demorgan-intersection"]
    fast = run_catalogue(law_ids=law_ids, exhaustive=(1, 1), random_count=300, seed=4)
    scalar = [check_law(law_id, itertools.chain(
        exhaustive_tuples(1, 1, get_law(law_id).arity),
        random_tuples(4, 300, get_law(law_id).arity))) for law_id in law_ids]
    assert fast == scalar
    assert {report.holds for report in fast} == {True, False}
    assert all(len(report.counterexample["operands"][0]["universe"]) == 3
               for report in fast if not report.holds)
    # the mixed-size set raised, the size groups flagged, the scalar walk found the witness
    assert seen == {"_MixedLanes", "_LaneSpace", "ParameterSpace"}


def test_only_the_product_rows_ask_for_size_groups(monkeypatch):
    built = []
    size_groups = laws_module._size_groups

    def counted(columns, sizes):
        built.append(len(columns))  # the chunk's arity: one column per operand
        return size_groups(columns, sizes)

    monkeypatch.setattr(laws_module, "_size_groups", counted)
    run_catalogue()
    assert built == [2]  # once, for the binary chunk, which the two product rows share
    built.clear()
    run_catalogue(law_ids=[law.law_id for law in catalogue() if "product" not in law.law_id])
    assert built == []


def test_the_pool_lanes_are_built_once_and_hold_no_verdicts(monkeypatch):
    laws_module._pool_lanes.cache_clear()
    assert run_catalogue() == run_catalogue()
    info = laws_module._pool_lanes.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)  # one entry per arity
    # a fault patched in after a clean run is found on the cached lanes
    law_ids = ["union-idempotent", "union-commutative", "union-absorption",
               "distributive-intersection-over-union"]
    monkeypatch.setattr(*CELLWISE_FAULTS[0])
    fast = run_catalogue(law_ids=law_ids, exhaustive=(2, 2), random_count=0)
    assert laws_module._pool_lanes.cache_info().misses == 3
    assert fast == _scalar_reports_on_the_pool(law_ids)
    assert not all(report.holds for report in fast)


def test_a_default_pass_enumerates_only_the_one_cell_sets(monkeypatch):
    calls = []
    enumerate_pool = laws_module.enumerate_bss

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_pool(*args, **kwargs)

    monkeypatch.setattr(laws_module, "enumerate_bss", counted)
    run_catalogue()
    assert calls == [(1, 1)]  # the pool's lanes and sets come from the digits of their indices


def test_the_largest_unary_pool_is_checked_in_bounded_memory():
    unary = [law.law_id for law in catalogue() if law.arity == 1]
    assert len(unary) == 16
    laws_module._pool_lanes.cache_clear()  # so that its nine lane sets are built under the trace
    tracemalloc.start()
    try:
        reports = run_catalogue(unary, exhaustive=(3, 4), random_count=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        laws_module._pool_lanes.cache_clear()
    assert [report.instances_checked for report in reports if report.holds] == [3 ** 12] * 14
    assert peak < 20_000_000, peak


def test_a_repeated_law_id_is_swept_once(monkeypatch):
    calls = []
    union = BipolarSoftSet.union
    monkeypatch.setattr(BipolarSoftSet, "union", lambda a, b: calls.append(1) or union(a, b))

    def run(law_ids):
        calls.clear()
        return run_catalogue(law_ids=law_ids, exhaustive=(1, 2), random_count=50), len(calls)

    single, once = run(["union-idempotent"])
    double, twice = run(["union-idempotent"] * 2)
    assert once == twice == 1 + 1  # the pool chunk, the drawn chunk
    assert double == single * 2
    mixed, _ = run(["union-idempotent", "union-commutative", "union-idempotent"])
    assert mixed == [single[0], run(["union-commutative"])[0][0], single[0]]


def test_an_empty_selection_still_takes_a_valid_pool():
    assert run_catalogue(law_ids=[], exhaustive=(2, 2)) == []
    assert run_catalogue(law_ids=[], exhaustive=None, random_count=5) == []


def test_random_source_memory_does_not_grow_with_the_count():
    def peak(laws, chunks):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_catalogue(law_ids=laws, exhaustive=None, random_count=chunks * laws_module._CHUNK)
        return tracemalloc.get_traced_memory()[1] - base

    # an equation and a biconditional; then one law of each arity, which share one stream
    for laws in (["union-idempotent", "excluded-middle-union"],
                 ["union-idempotent", "union-commutative", "union-associative"]):
        run_catalogue(law_ids=laws, exhaustive=None, random_count=100)  # build the spaces
        tracemalloc.start()
        try:
            small, large = peak(laws, 2), peak(laws, 16)
        finally:
            tracemalloc.stop()
        assert large < 1.5 * small, (laws, small, large)
