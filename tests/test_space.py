import pytest

from bipolarsoft import ParameterSpace
from bipolarsoft.errors import InvalidArgument, InvalidSpace, UnknownObject, UnknownParameter

import corpus


def test_basic_properties():
    space = corpus.space4()
    assert space.m == 8
    assert space.n == 4
    assert space.pairs == (("e1", "e2"), ("e3", "e4"), ("e5", "e6"), ("e7", "e8"))
    assert space.negation("e5") == "e6"
    assert space.full_mask == 0xFF


def test_accepts_lists_and_normalizes_to_tuples():
    space = ParameterSpace(["a", "b"], ["p"], ["q"])
    assert space.universe == ("a", "b")
    assert space.positive_params == ("p",)


def test_rejects_empty_universe():
    with pytest.raises(InvalidSpace):
        ParameterSpace((), ("p",), ("q",))


def test_rejects_empty_parameters():
    with pytest.raises(InvalidSpace):
        ParameterSpace(("a",), (), ())


def test_rejects_unpaired_parameters():
    with pytest.raises(InvalidSpace):
        ParameterSpace(("a",), ("p", "r"), ("q",))


@pytest.mark.parametrize(
    "universe,pos,neg",
    [
        (("a", "a"), ("p",), ("q",)),
        (("a",), ("p", "p"), ("q", "r")),
        (("a",), ("p", "r"), ("q", "q")),
    ],
)
def test_rejects_duplicates(universe, pos, neg):
    with pytest.raises(InvalidSpace):
        ParameterSpace(universe, pos, neg)


def test_rejects_positive_negative_overlap():
    with pytest.raises(InvalidSpace):
        ParameterSpace(("a",), ("p", "q"), ("q", "r"))


def test_rejects_non_string_identifiers():
    for universe in (("a", 3), ("\ud800",)):  # a lone surrogate is a str but not Unicode text
        with pytest.raises(InvalidSpace):
            ParameterSpace(universe, ("p",), ("q",))


def test_mask_round_trip():
    space = corpus.space4()
    mask = space.mask_of(["u3", "u1", "u8"])
    assert space.members(mask) == ("u1", "u3", "u8")
    assert space.mask_of(()) == 0
    assert space.members(space.full_mask) == corpus.UNIVERSE


def test_mask_of_unknown_object():
    space = corpus.space4()
    with pytest.raises(UnknownObject) as err:
        space.mask_of(["u1", "house9"])
    assert err.value.object_id == "house9"


def test_negation_unknown_parameter():
    with pytest.raises(UnknownParameter):
        corpus.space4().negation("e2")  # negative ids are not positive parameters


def test_equality_is_structural():
    assert corpus.space4() == corpus.space4()
    assert corpus.space4() != corpus.space3()


def test_from_pairs():
    space = ParameterSpace.from_pairs(
        ("u1", "u2"), [("e1", "e2"), ("e3", "e4")]
    )
    assert space == ParameterSpace(("u1", "u2"), ("e1", "e3"), ("e2", "e4"))


@pytest.mark.parametrize("build", [
    lambda: ParameterSpace("ab", ("e",), ("ne",)),
    lambda: ParameterSpace(("a",), "e", ("ne",)),
    lambda: ParameterSpace(("a",), ("e",), "n"),
    lambda: ParameterSpace.from_pairs("ab", [("e", "ne")]),
    lambda: ParameterSpace.from_pairs(("u",), [("e",)]),
    lambda: ParameterSpace.from_pairs(("u",), [("e", "ne", "x")]),
    lambda: ParameterSpace.from_pairs(("u",), ["en"]),
    lambda: ParameterSpace.from_pairs(("u",), [5]),
    lambda: ParameterSpace(5, ("e",), ("ne",)),
    lambda: ParameterSpace.from_pairs(("u",), 5),
], ids=["universe-text", "positive-text", "negative-text", "pairs-universe-text",
        "pairs-short", "pairs-long", "pairs-text-pair", "pairs-int-pair", "universe-int",
        "pairs-int"])
def test_a_bad_id_list_is_an_invalid_space(build):
    with pytest.raises(InvalidSpace):
        build()


def test_mask_of_a_string_is_an_invalid_argument():
    space = ParameterSpace(("a", "b"), ("e",), ("ne",))
    for members in "ab", "a":
        with pytest.raises(InvalidArgument):
            space.mask_of(members)
