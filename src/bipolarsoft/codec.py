"""Canonical ``.bss.json`` document format.

A document has three top-level keys:

* ``universe`` — array of object ids, order significant;
* ``pairs`` — array of ``{"pos": ..., "neg": ...}`` parameter objects whose
  order defines the negation pairing;
* ``assignments`` — array of ``{"param", "positive", "negative"}`` rows.
  Parameters without a row carry the neutral pair.

Canonical output sorts members in universe order, lists assignments in
parameter order, omits all-neutral rows, indents by two spaces and ends
lines with LF, so equal values serialize to identical bytes.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring
from pathlib import Path
from typing import Sequence

from .core import BipolarSoftSet, _expected, _space_of
from .errors import InvalidSpace, ParseError
from .space import ParameterSpace

_TOP_KEYS = ("universe", "pairs", "assignments")


def to_document(bss: BipolarSoftSet) -> dict:
    """Canonical dict form of a bipolar soft set."""
    space = _space_of(bss)
    return {
        "universe": list(space.universe),
        "pairs": [{"pos": p, "neg": q} for p, q in space.pairs],
        "assignments": [{"param": e, "positive": list(pos), "negative": list(neg)}
                        for e, pos, neg in bss._assignment() if pos or neg],
    }


def _json_text(doc) -> str:
    """The package's one JSON text form: two-space indent, non-ASCII kept, final LF."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _array(items: Sequence[str], indent: str) -> str:
    """A JSON array of encoded items at ``indent``, as ``json.dumps(indent=2)`` lays it out."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def serialize(bss: BipolarSoftSet) -> str:
    """Canonical text form; equal values yield byte-identical output.

    The same bytes as ``_json_text(to_document(bss))``, written for the fixed schema with each
    object id encoded once, as ``json.dumps(ensure_ascii=False)`` encodes a string."""
    space = _space_of(bss)
    ids = [encode_basestring(u) for u in space.universe]
    pairs = [f'{{\n      "pos": {encode_basestring(p)},'
             f'\n      "neg": {encode_basestring(q)}\n    }}'
             for p, q in space.pairs]
    rows = [f'{{\n      "param": {encode_basestring(e)},'
            f'\n      "positive": {_array(pos, "      ")},'
            f'\n      "negative": {_array(neg, "      ")}\n    }}'
            for e, pos, neg in bss._assignment(ids) if pos or neg]
    return (f'{{\n  "universe": {_array(ids, "  ")},\n  "pairs": {_array(pairs, "  ")},'
            f'\n  "assignments": {_array(rows, "  ")}\n}}\n')


def _expect_list(value, location: str) -> list:
    if not isinstance(value, list):
        raise ParseError("expected an array", location)
    return value


def _expect_str(value, location: str) -> str:
    if not isinstance(value, str):
        raise ParseError("expected a string", location)
    return value


def _expect_object(value, location: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise ParseError("expected an object", location)
    missing = [k for k in keys if k not in value]
    if missing:
        raise ParseError(f"missing key {missing[0]!r}", location)
    extra = [k for k in value if k not in keys]
    if extra:
        raise ParseError(f"unexpected key {extra[0]!r}", location)
    return value


def _member_list(value, location: str) -> list[str]:
    members = _expect_list(value, location)
    seen = set()
    for j, u in enumerate(members):
        _expect_str(u, f"{location}[{j}]")
        if u in seen:
            raise ParseError(f"duplicate member {u!r}", f"{location}[{j}]")
        seen.add(u)
    return members


def from_document(doc) -> BipolarSoftSet:
    """Decode a document dict; schema violations raise :class:`ParseError`.

    Content-level problems keep their domain errors: overlapping
    positive/negative members raise :class:`DisjointnessViolation`,
    undeclared ids raise :class:`UnknownObject` / :class:`UnknownParameter`.
    """
    _expect_object(doc, "document", _TOP_KEYS)

    universe = _expect_list(doc["universe"], "universe")
    for i, u in enumerate(universe):
        _expect_str(u, f"universe[{i}]")

    positive = []
    negative = []
    for i, pair in enumerate(_expect_list(doc["pairs"], "pairs")):
        _expect_object(pair, f"pairs[{i}]", ("pos", "neg"))
        positive.append(_expect_str(pair["pos"], f"pairs[{i}].pos"))
        negative.append(_expect_str(pair["neg"], f"pairs[{i}].neg"))

    try:
        space = ParameterSpace(universe, positive, negative)
    except InvalidSpace as exc:
        raise ParseError(str(exc), "document") from exc

    assignment = {}
    for i, row in enumerate(_expect_list(doc["assignments"], "assignments")):
        loc = f"assignments[{i}]"
        _expect_object(row, loc, ("param", "positive", "negative"))
        param = _expect_str(row["param"], f"{loc}.param")
        if param in assignment:
            raise ParseError(f"duplicate parameter {param!r}", f"{loc}.param")
        assignment[param] = (
            _member_list(row["positive"], f"{loc}.positive"),
            _member_list(row["negative"], f"{loc}.negative"),
        )
    return BipolarSoftSet.from_assignment(space, assignment)


def _json_value(text: str | bytes):
    """The JSON value of document text, ``bytes`` as strict UTF-8: parse's and load's one reader."""
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8")  # json.loads would sniff UTF-16/32
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", f"byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno} column {exc.colno}") from exc
    except ValueError as exc:  # an integer literal over Python's digit limit
        raise ParseError(str(exc), "document") from exc
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply", "document") from None
    except TypeError:  # json.loads takes only str, bytes and bytearray
        raise _expected("document text", text) from None


def parse(text: str | bytes) -> BipolarSoftSet:
    """Decode document text produced by :func:`serialize` (or any valid variant)."""
    return from_document(_json_value(text))


def load(path: str | bytes | Path) -> BipolarSoftSet:
    try:
        data = Path(os.fsdecode(path)).read_bytes()
    except TypeError:  # os.fsdecode takes only str, bytes and os.PathLike
        raise _expected("a file path", path) from None
    return from_document(_json_value(data))  # what parse(data) returns or raises


def dump(bss: BipolarSoftSet, path: str | bytes | Path) -> None:
    try:  # refuses an int, which open() would take as a file descriptor to write to and close
        os.fspath(path)
    except TypeError:
        raise _expected("a file path", path) from None
    text = serialize(bss)  # before the file is opened, which empties it
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
