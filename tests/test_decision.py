from bipolarsoft import BipolarSoftSet, DecisionResult, decide, gen_bss, scores, to_table
from bipolarsoft.decision import render_scores_csv, render_scores_text, scores_document

import corpus
import oracle


def test_house_scores_match_frozen_rows():
    rows = scores(corpus.house_ratings())
    got = tuple((r.object_id, r.c_plus, r.c_minus, r.score) for r in rows)
    assert got == corpus.HOUSE_SCORE_ROWS


def test_house_decision():
    result = decide(corpus.house_ratings())
    assert result.max_score == 2
    assert result.optimal == ("u1",)


def test_scores_agree_with_table_sum_oracle():
    for build in (corpus.houses_a, corpus.houses_b, corpus.house_ratings):
        value = build()
        got = [(r.object_id, r.c_plus, r.c_minus, r.score) for r in scores(value)]
        assert got == oracle.table_counts(to_table(value))
    for seed in range(25):
        value = gen_bss(seed)
        got = [(r.object_id, r.c_plus, r.c_minus, r.score) for r in scores(value)]
        assert got == oracle.table_counts(to_table(value))


def test_null_and_absolute_scores():
    space = corpus.space4()
    for row in scores(BipolarSoftSet.null(space)):
        assert (row.c_plus, row.c_minus, row.score) == (0, 4, -4)
    result = decide(BipolarSoftSet.absolute(space))
    assert result.max_score == 4
    assert result.optimal == corpus.UNIVERSE


def test_identical_rows_tie():
    space = corpus.space3()
    twin = BipolarSoftSet.from_assignment(
        space,
        {
            "e1": (("u1", "u2"), ("u3",)),
            "e3": ((), ("u1", "u2")),
        },
    )
    result = decide(twin)
    assert set(result.optimal) >= {"u1", "u2"}
    rows = {r.object_id: r.score for r in result.rows}
    assert rows["u1"] == rows["u2"]


def test_complement_negates_scores():
    value = corpus.house_ratings()
    straight = scores(value)
    flipped = scores(value.complement())
    for s, f in zip(straight, flipped):
        assert (f.c_plus, f.c_minus, f.score) == (s.c_minus, s.c_plus, -s.score)
    worst = min(r.score for r in straight)
    argmin = tuple(r.object_id for r in straight if r.score == worst)
    assert decide(value.complement()).optimal == argmin


def test_render_text_contains_rows_and_optimal():
    text = render_scores_text(decide(corpus.house_ratings()))
    lines = text.splitlines()
    assert lines[0].split() == ["object", "c+", "c-", "score"]
    assert lines[1].split() == ["u1", "3", "1", "2"]
    assert lines[5].split() == ["u5", "1", "3", "-2"]
    assert lines[-2] == "max score: 2"
    assert lines[-1] == "optimal: u1"
    # The object column is left-aligned, the counts right-aligned, and every
    # column is as wide as its widest cell.
    assert text == (
        "object  c+  c-  score\n"
        "u1       3   1      2\n"
        "u2       2   2      0\n"
        "u3       2   3     -1\n"
        "u4       2   2      0\n"
        "u5       1   3     -2\n"
        "u6       0   2     -2\n"
        "u7       0   2     -2\n"
        "u8       1   2     -1\n"
        "max score: 2\n"
        "optimal: u1\n"
    )


def test_render_csv():
    text = render_scores_csv(decide(corpus.house_ratings()))
    lines = text.splitlines()
    assert lines[0] == "object,c_plus,c_minus,score"
    assert lines[1] == "u1,3,1,2"
    assert lines[3] == "u3,2,3,-1"
    assert text == (
        "object,c_plus,c_minus,score\n"
        "u1,3,1,2\n"
        "u2,2,2,0\n"
        "u3,2,3,-1\n"
        "u4,2,2,0\n"
        "u5,1,3,-2\n"
        "u6,0,2,-2\n"
        "u7,0,2,-2\n"
        "u8,1,2,-1\n"
    )


def test_scores_document():
    doc = scores_document(decide(corpus.house_ratings()))
    assert doc["max_score"] == 2
    assert doc["optimal"] == ["u1"]
    assert doc["rows"][0] == {"object": "u1", "c_plus": 3, "c_minus": 1, "score": 2}


def test_decision_result_stores_its_fields_as_tuples():
    result = decide(corpus.house_ratings())
    rows, optimal = list(result.rows), list(result.optimal)
    rebuilt = DecisionResult(rows, result.max_score, optimal)
    rows.clear(), optimal.clear()
    assert rebuilt == result
    assert render_scores_text(rebuilt) == render_scores_text(result)
