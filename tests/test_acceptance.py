"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The law-suite criterion drives the full catalogue over the
exhaustive 2x2 instance pool (81 sets, all ordered tuples per arity) plus
1000 seeded random instances per law, and must finish within its budget.
"""

import hashlib
import itertools
import json
import time

import pytest

from bipolarsoft import (
    BipolarSoftSet,
    and_product,
    enumerate_bss,
    from_table,
    gen_bss,
    or_product,
    parse,
    random_tuples,
    recheck,
    run_catalogue,
    serialize,
    to_table,
)
from bipolarsoft.cli import main

import corpus
import oracle

EXPECTED_SCORE_ROWS = (
    ("u1", 3, 1, 2),
    ("u2", 2, 2, 0),
    ("u3", 2, 3, -1),
    ("u4", 2, 2, 0),
    ("u5", 1, 3, -2),
    ("u6", 0, 2, -2),
    ("u7", 0, 2, -2),
    ("u8", 1, 2, -1),
)

MUST_HOLD_LAWS = (
    "subset-reflexive",
    "subset-transitive",
    "subset-bounded-below",
    "subset-bounded-above",
    "union-idempotent",
    "union-null-identity",
    "union-absolute-absorbing",
    "union-absorption",
    "union-commutative",
    "union-associative",
    "intersection-idempotent",
    "intersection-null-absorbing",
    "intersection-absolute-identity",
    "intersection-absorption",
    "intersection-commutative",
    "intersection-associative",
    "distributive-intersection-over-union",
    "distributive-union-over-intersection",
    "complement-involution",
    "complement-null",
    "complement-absolute",
    "demorgan-union",
    "demorgan-intersection",
    "demorgan-and-product",
    "demorgan-or-product",
    "excluded-middle-union",
    "excluded-middle-intersection",
)

EXPECTED_TO_FAIL_LAWS = (
    "excluded-middle-unconditional",
    "excluded-middle-intersection-unconditional",
)


def _passed(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


@pytest.fixture(scope="module")
def catalogue_run():
    started = time.perf_counter()
    reports = run_catalogue(
        exhaustive=(2, 2), random_count=1000, seed=1, random_bounds=(6, 4)
    )
    elapsed = time.perf_counter() - started
    return {r.law_id: r for r in reports}, elapsed


def test_score_table_reproduction(fixtures_dir, capsys):
    started = time.perf_counter()
    code = main(
        ["decide", str(fixtures_dir / "house_example.bss.json"), "--format", "json"]
    )
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    rows = tuple(
        (r["object"], r["c_plus"], r["c_minus"], r["score"]) for r in doc["rows"]
    )
    assert rows == EXPECTED_SCORE_ROWS
    assert doc["max_score"] == 2
    assert doc["optimal"] == ["u1"]
    assert elapsed < 1.0, f"decide took {elapsed:.3f}s"
    with capsys.disabled():
        _passed("score-table reproduction")


def test_product_reproduction(fixtures_dir):
    from bipolarsoft import load

    a = load(fixtures_dir / "houses3_a.bss.json")
    b = load(fixtures_dir / "houses3_b.bss.json")

    got_and = oracle.member_view(and_product(a, b))
    got_or = oracle.member_view(or_product(a, b))

    assert got_and == corpus.AND_PRODUCT_CELLS
    assert got_or == corpus.OR_PRODUCT_CELLS

    # the frozen cells themselves re-derive from the independent evaluators
    params = ("e1", "e3", "e5")
    derived_and = {
        f"({e},{ep})": cell
        for (e, ep), cell in oracle.and_product_sets(
            corpus.HOUSES3_A, corpus.HOUSES3_B, params
        ).items()
    }
    derived_or = {
        f"({e},{ep})": cell
        for (e, ep), cell in oracle.or_product_sets(
            corpus.HOUSES3_A, corpus.HOUSES3_B, params
        ).items()
    }
    assert derived_and == corpus.AND_PRODUCT_CELLS
    assert derived_or == corpus.OR_PRODUCT_CELLS
    _passed("product reproduction")


def test_subset_reproduction(fixtures_dir, capsys):
    from bipolarsoft import load

    c = load(fixtures_dir / "houses_c.bss.json")
    a = load(fixtures_dir / "houses_a.bss.json")
    assert c.is_subset_of(a) is True

    code = main(
        [
            "op",
            "subset",
            str(fixtures_dir / "houses_c.bss.json"),
            str(fixtures_dir / "houses_a.bss.json"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "true"
    with capsys.disabled():
        _passed("subset reproduction")


def test_union_intersection_oracle_equivalence(fixtures_dir):
    from bipolarsoft import load

    a = load(fixtures_dir / "houses_a.bss.json")
    b = load(fixtures_dir / "houses_b.bss.json")
    view_a, view_b = oracle.member_view(a), oracle.member_view(b)

    assert oracle.member_view(a.union(b)) == oracle.union_sets(view_a, view_b)
    assert oracle.member_view(a.intersection(b)) == oracle.intersection_sets(
        view_a, view_b
    )
    assert oracle.member_view(a.union(b)) == corpus.UNION_AB
    assert oracle.member_view(a.intersection(b)) == corpus.INTERSECTION_AB
    _passed("union/intersection oracle equivalence")


def test_law_suite(catalogue_run):
    reports, elapsed = catalogue_run
    failures = [
        law_id
        for law_id in MUST_HOLD_LAWS
        if not reports[law_id].holds
    ]
    assert failures == [], f"must-hold laws failed: {failures}"

    arity_floor = {1: 81 + 1000, 2: 81**2 + 1000, 3: 81**3 + 1000}
    from bipolarsoft import get_law

    for law_id in MUST_HOLD_LAWS:
        law = get_law(law_id)
        assert reports[law_id].instances_checked == arity_floor[law.arity], law_id

    assert elapsed < 60.0, f"law suite took {elapsed:.1f}s"
    _passed(f"law suite ({elapsed:.1f}s for full catalogue)")


def test_corrected_excluded_middle(catalogue_run):
    reports, _ = catalogue_run

    # corrected conditional forms hold everywhere
    assert reports["excluded-middle-union"].holds is True
    assert reports["excluded-middle-intersection"].holds is True

    # the unconditional forms are reported false with a replayable witness
    for law_id in EXPECTED_TO_FAIL_LAWS:
        report = reports[law_id]
        assert report.holds is False
        assert report.counterexample is not None
        assert recheck(report) is True

    # direct property on every exhaustive instance plus a random sample
    sample = itertools.chain(enumerate_bss(2, 2), (gen_bss(s) for s in range(200)))
    for a in sample:
        joined = a.union(a.complement())
        assert all(q == 0 for q in joined.neg_masks)
        assert joined.pos_masks == tuple(
            p | q for p, q in zip(a.pos_masks, a.neg_masks)
        )
        assert (joined == BipolarSoftSet.absolute(a.space)) == a.is_complete()
    _passed("corrected excluded-middle")


def test_catalogue_reports_are_pinned(catalogue_run):
    # every report, counts and witnesses included, as the scalar checker wrote them
    reports, _ = catalogue_run
    text = json.dumps([r.to_json() for r in reports.values()], ensure_ascii=False)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "03c30f0ee845064b79cd49a7f0cd2c9372fbbf01758bf25fabd80153118207b7"
    _passed("pinned catalogue reports")


def test_closure_and_round_trips(fixtures_dir):
    def revalidates(value):
        rebuilt = BipolarSoftSet.from_assignment(
            value.space, oracle.member_view(value)
        )
        return rebuilt == value

    # closure on all exhaustive pairs and a random sample of larger instances
    pool = list(enumerate_bss(2, 2))
    for a, b in itertools.product(pool, repeat=2):
        assert revalidates(a.union(b))
        assert revalidates(a.intersection(b))
    for a in pool:
        assert revalidates(a.complement())
    for a, b in random_tuples(seed=2, count=200, arity=2):
        for result in (
            a.union(b),
            a.intersection(b),
            a.complement(),
            and_product(a, b),
            or_product(a, b),
        ):
            assert revalidates(result)

    # round trips: table and codec identities on instances and fixtures
    fixture_values = [
        parse(path.read_text(encoding="utf-8"))
        for path in sorted(fixtures_dir.glob("*.bss.json"))
    ]
    for value in itertools.chain(pool, fixture_values, (gen_bss(s) for s in range(100))):
        assert from_table(to_table(value), value.space) == value
        assert parse(serialize(value)) == value

    # byte stability: repeated serialization and the stored golden bytes agree
    for path in sorted(fixtures_dir.glob("*.bss.json")):
        text = path.read_text(encoding="utf-8")
        value = parse(text)
        assert serialize(value) == text
        assert serialize(value) == serialize(parse(serialize(value)))
    _passed("closure and round-trips")
