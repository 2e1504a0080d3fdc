import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipolarsoft import (
    BipolarSoftSet,
    ParameterSpace,
    and_product,
    from_document,
    load,
    or_product,
    parse,
    serialize,
    to_document,
)
from bipolarsoft.codec import dump
from bipolarsoft.errors import (
    BipolarSoftError,
    DisjointnessViolation,
    InvalidArgument,
    ParseError,
    UnknownObject,
    UnknownParameter,
)

import corpus


@pytest.mark.parametrize(
    "build",
    [corpus.houses_a, corpus.houses_b, corpus.houses_c, corpus.houses3_a, corpus.house_ratings],
)
def test_parse_serialize_round_trip(build):
    value = build()
    assert parse(serialize(value)) == value


def test_serialize_is_deterministic():
    a = corpus.houses_a()
    assert serialize(a) == serialize(corpus.houses_a())


def test_serialize_omits_neutral_rows_and_orders_members():
    space = corpus.space4()
    value = BipolarSoftSet.from_assignment(space, {"e3": (("u7", "u2"), ("u8", "u1"))})
    doc = to_document(value)
    assert [row["param"] for row in doc["assignments"]] == ["e3"]
    assert doc["assignments"][0]["positive"] == ["u2", "u7"]
    assert doc["assignments"][0]["negative"] == ["u1", "u8"]


def test_parse_canonicalizes_messy_documents():
    messy = json.dumps(
        {
            "universe": ["u1", "u2"],
            "pairs": [{"neg": "q", "pos": "p"}],
            "assignments": [{"param": "p", "positive": ["u2", "u1"], "negative": []}],
        }
    )
    value = parse(messy)
    canonical = serialize(value)
    assert serialize(parse(canonical)) == canonical
    assert to_document(value)["assignments"][0]["positive"] == ["u1", "u2"]


def test_parse_accepts_explicit_neutral_rows():
    doc = {
        "universe": ["u1"],
        "pairs": [{"pos": "p", "neg": "q"}],
        "assignments": [{"param": "p", "positive": [], "negative": []}],
    }
    value = from_document(doc)
    assert to_document(value)["assignments"] == []


def test_golden_fixture_bytes_are_canonical(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.bss.json")):
        text = path.read_text(encoding="utf-8")
        assert serialize(parse(text)) == text, path.name


def test_fixture_contents_match_corpus(fixtures_dir):
    assert load(fixtures_dir / "houses_a.bss.json") == corpus.houses_a()
    assert load(fixtures_dir / "houses_b.bss.json") == corpus.houses_b()
    assert load(fixtures_dir / "houses_c.bss.json") == corpus.houses_c()
    assert load(fixtures_dir / "houses3_a.bss.json") == corpus.houses3_a()
    assert load(fixtures_dir / "houses3_b.bss.json") == corpus.houses3_b()
    assert load(fixtures_dir / "house_example.bss.json") == corpus.house_ratings()


def test_dump_writes_lf_only(tmp_path):
    target = tmp_path / "out.bss.json"
    dump(corpus.houses_a(), target)
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert load(target) == corpus.houses_a()


def test_a_dump_that_fails_leaves_its_target_as_it_was(tmp_path):
    target = tmp_path / "kept.txt"
    target.write_bytes(b"keep me\n")
    with pytest.raises(InvalidArgument):
        dump(5, target)
    assert target.read_bytes() == b"keep me\n"


def test_dump_refuses_a_file_descriptor():
    read_end, write_end = os.pipe()
    try:
        with pytest.raises(InvalidArgument):
            dump(corpus.houses_a(), write_end)  # open() would write there, then close it
        os.write(write_end, b"still open")
    finally:
        os.close(write_end)
    try:
        assert os.read(read_end, 1 << 16) == b"still open"
    finally:
        os.close(read_end)


def test_load_takes_the_bytes_path_that_dump_takes(tmp_path):
    path = os.fsencode(tmp_path / "p.json")
    dump(corpus.houses_a(), path)
    assert load(path) == corpus.houses_a()


def test_parse_reports_json_location():
    with pytest.raises(ParseError) as err:
        parse('{"universe": [,]}')
    assert "line 1" in str(err.value)


@pytest.mark.parametrize(
    "mutate,location",
    [
        (lambda d: d.pop("pairs"), "document"),
        (lambda d: d.update(extra=1), "document"),
        (lambda d: d.update(universe="u1"), "universe"),
        (lambda d: d["universe"].append(7), "universe[2]"),
        (lambda d: d["pairs"][0].pop("neg"), "pairs[0]"),
        (lambda d: d["pairs"][0].update(neg=3), "pairs[0].neg"),
        (lambda d: d["assignments"][0].pop("negative"), "assignments[0]"),
        (lambda d: d["assignments"][0].update(positive="u1"), "assignments[0].positive"),
    ],
)
def test_parse_reports_schema_locations(mutate, location):
    doc = {
        "universe": ["u1", "u2"],
        "pairs": [{"pos": "p", "neg": "q"}],
        "assignments": [{"param": "p", "positive": ["u1"], "negative": ["u2"]}],
    }
    mutate(doc)
    with pytest.raises(ParseError) as err:
        from_document(doc)
    assert err.value.location == location


def test_parse_rejects_duplicate_members_and_rows():
    base = {
        "universe": ["u1", "u2"],
        "pairs": [{"pos": "p", "neg": "q"}],
        "assignments": [{"param": "p", "positive": ["u1", "u1"], "negative": []}],
    }
    with pytest.raises(ParseError) as err:
        from_document(base)
    assert err.value.location == "assignments[0].positive[1]"

    twice = {
        "universe": ["u1"],
        "pairs": [{"pos": "p", "neg": "q"}],
        "assignments": [
            {"param": "p", "positive": [], "negative": []},
            {"param": "p", "positive": ["u1"], "negative": []},
        ],
    }
    with pytest.raises(ParseError):
        from_document(twice)


def test_parse_wraps_space_definition_problems():
    bad_space = {
        "universe": ["u1", "u1"],
        "pairs": [{"pos": "p", "neg": "q"}],
        "assignments": [],
    }
    with pytest.raises(ParseError):
        from_document(bad_space)
    shared_param = {
        "universe": ["u1"],
        "pairs": [{"pos": "p", "neg": "p"}],
        "assignments": [],
    }
    with pytest.raises(ParseError):
        from_document(shared_param)


def test_parse_keeps_domain_errors():
    overlap = {
        "universe": ["u1", "u2"],
        "pairs": [{"pos": "p", "neg": "q"}],
        "assignments": [{"param": "p", "positive": ["u1"], "negative": ["u1"]}],
    }
    with pytest.raises(DisjointnessViolation):
        from_document(overlap)

    stranger = {
        "universe": ["u1"],
        "pairs": [{"pos": "p", "neg": "q"}],
        "assignments": [{"param": "p", "positive": ["ghost"], "negative": []}],
    }
    with pytest.raises(UnknownObject):
        from_document(stranger)

    unknown_param = {
        "universe": ["u1"],
        "pairs": [{"pos": "p", "neg": "q"}],
        "assignments": [{"param": "r", "positive": [], "negative": []}],
    }
    with pytest.raises(UnknownParameter):
        from_document(unknown_param)


# -- the trust boundary: any JSON value or byte string in, only package errors out

_OBJECTS = st.sampled_from(["u1", "u2", "u3"])
_PARAMS = st.sampled_from(["e1", "not-e1", "e2", "not-e2"])
_KEYS = st.sampled_from(["universe", "pairs", "assignments", "pos", "neg",
                         "param", "positive", "negative"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | _OBJECTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _mostly(draw, strategy):
    """Usually ``strategy``; one time in eight an arbitrary JSON value or a bad id."""
    if draw(st.integers(0, 7)) == 3:
        return draw(_JSON | _PARAMS | st.just(""))
    return draw(strategy)


_MEMBERS = _mostly(st.lists(_OBJECTS, max_size=3, unique=True))
_PAIR = st.fixed_dictionaries({"pos": _PARAMS, "neg": _PARAMS})
_ROW = st.fixed_dictionaries({"param": _PARAMS, "positive": _MEMBERS, "negative": _MEMBERS})
_DOCUMENTS = _JSON | st.fixed_dictionaries({
    "universe": _mostly(st.lists(_OBJECTS, min_size=1, max_size=3, unique=True)),
    "pairs": _mostly(st.lists(_mostly(_PAIR), min_size=1, max_size=2)),
    "assignments": _mostly(st.lists(_mostly(_ROW), max_size=3)),
})


@given(_DOCUMENTS)
def test_from_document_raises_only_package_errors(doc):
    try:
        value = from_document(doc)
    except BipolarSoftError:
        return
    assert from_document(to_document(value)) == value


_TEXTS = _DOCUMENTS.map(json.dumps)


@given(st.text() | st.binary() | _TEXTS | _TEXTS.map(str.encode))
def test_parse_raises_only_package_errors(text):
    try:
        value = parse(text)
    except BipolarSoftError:
        return
    assert parse(serialize(value)) == value


_HOUSES_A = serialize(corpus.houses_a())
_NO_COMMA = _HOUSES_A.replace('],\n  "pairs"', ']\n  "pairs"')  # a JSON error on line 12


@pytest.mark.parametrize("data, expected", [
    (_HOUSES_A.encode("utf-16"), "byte 0: not UTF-8 text ("),
    (_HOUSES_A.encode("utf-32"), "byte 0: not UTF-8 text ("),
    (_HOUSES_A.encode("utf-8-sig"), "line 1 column 1: Unexpected UTF-8 BOM"),
    (_HOUSES_A.replace("\n", "\r").encode(), corpus.houses_a()),
    (_HOUSES_A.replace("\n", "\r\n").encode(), corpus.houses_a()),
    # JSON error lines count LF only, so a file with CR line endings is one line
    (_NO_COMMA.replace("\n", "\r").encode(), "line 1 column 104: Expecting ',' delimiter"),
    (_NO_COMMA.replace("\n", "\r\n").encode(), "line 12 column 3: Expecting ',' delimiter"),
], ids=["utf-16", "utf-32", "utf-8-sig", "cr-only", "crlf", "cr-only-json-error",
        "crlf-json-error"])
def test_parse_and_load_agree_on_non_utf8_bytes(data, expected, tmp_path):
    path = tmp_path / "doc.bss.json"
    path.write_bytes(data)
    outcomes = []
    for read, source in ((load, path), (parse, data)):
        try:
            outcomes.append(read(source))
        except ParseError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if isinstance(expected, str):
        assert outcomes[0].startswith(expected)
    else:
        assert outcomes[0] == expected


# -- the canonical writer against json.dumps of the document

# quotes, backslashes, C0 controls and DEL, the JSON-legal line separators, non-BMP text
_ODD = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\u2029",
                       "\U0001f600", "é"])
_ID_CHARS = st.characters(exclude_categories=("Cs",)) | _ODD  # a lone surrogate is no text
# no ',' '(' or ')' in a parameter id, so the composite ids of a product never collide
_PARAM_CHARS = st.characters(exclude_categories=("Cs",), exclude_characters=",()") | _ODD


@st.composite
def _sets(draw):
    """A set of 1 to 17 objects over 1 to 3 parameters, each cell drawn from one palette (so
    a set may be all neutral, or only approve, or only reject), then up to two products deep."""
    m, n = draw(st.integers(1, 17)), draw(st.integers(1, 3))
    universe = draw(st.lists(st.text(_ID_CHARS, min_size=1, max_size=3),
                             min_size=m, max_size=m, unique=True))
    params = draw(st.lists(st.text(_PARAM_CHARS, min_size=1, max_size=3),
                           min_size=2 * n, max_size=2 * n, unique=True))
    space = ParameterSpace(universe, params[:n], params[n:])
    palette = draw(st.sampled_from([(-1, 0, 1), (0, 1), (-1, 0), (0,)]))
    cells = draw(st.lists(st.lists(st.sampled_from(palette), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    value = BipolarSoftSet(space, *([sum(1 << i for i, c in enumerate(row) if c == side)
                                     for row in cells] for side in (1, -1)))
    for _ in range(draw(st.integers(0, 2))):
        product = draw(st.sampled_from([and_product, or_product]))
        value = product(value, draw(st.sampled_from([value, value.complement()])))
    return value


@settings(max_examples=150)
@given(_sets())
def test_serialize_writes_the_bytes_of_json_dumps(value):
    assert serialize(value) == json.dumps(to_document(value), indent=2, ensure_ascii=False) + "\n"


@given(_sets())
def test_document_rows_match_the_member_accessors(value):
    rows = {row["param"]: row for row in to_document(value)["assignments"]}
    for e in value.space.positive_params:  # pos and neg decode through space.members
        row = rows.pop(e, {"positive": [], "negative": []})
        assert (row["positive"], row["negative"]) == (list(value.pos(e)), list(value.neg(e)))
    assert rows == {}


def test_serialize_writes_an_all_neutral_set_with_empty_assignments():
    text = serialize(BipolarSoftSet.from_assignment(corpus.space3(), {}))
    assert text.endswith('\n  "assignments": []\n}\n')


def test_serialize_of_a_product_of_products_names_composite_parameters():
    once = and_product(corpus.houses3_a(), corpus.houses3_b())
    twice = and_product(once, once)
    text = serialize(twice)
    assert text == json.dumps(to_document(twice), indent=2, ensure_ascii=False) + "\n"
    assert '"pos": "((e1,e1),(e1,e3))",\n      "neg": "((e2,e2),(e2,e4))"' in text
