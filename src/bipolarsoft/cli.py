"""Command-line interface over ``.bss.json`` documents.

Exit codes: 0 success (or boolean true), 1 domain failure (boolean false,
constraint violation, failed must-hold law), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import bipolarsoft
from . import codec
from .errors import BipolarSoftError, BoundsTooLarge, InvalidArgument, ParseError, UnknownLaw

# Each entry looks its operation up when it runs, so a patched or traced one is seen.  A
# ``bipolarsoft.<name>`` imports the name's home module then, so a command loads only what it uses.
_OPS = {
    "union": lambda a, b: a.union(b),
    "intersect": lambda a, b: a.intersection(b),
    "and": lambda a, b: bipolarsoft.and_product(a, b),
    "or": lambda a, b: bipolarsoft.or_product(a, b),
    "subset": lambda a, b: a.is_subset_of(b),
    "equals": lambda a, b: a.equals(b),
    "complement": lambda a: a.complement(),
}


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(output: str) -> None:
    """Raise the ``OSError`` that writing ``output`` would, before any work; change nothing."""
    existed = os.path.lexists(output)
    open(output, "a", encoding="utf-8").close()
    if not existed:
        os.remove(output)


def cmd_validate(args) -> tuple[str, int]:
    bss = codec.load(args.path)
    complete = "true" if bss.is_complete() else "false"
    return f"valid: m={bss.space.m} n={bss.space.n} complete={complete}\n", 0


def cmd_render(args) -> tuple[str, int]:
    """``table`` and ``decide``: compute a result from one document, rendered in ``--format``."""
    compute, text, csv, document = (getattr(bipolarsoft, name) for name in args.renderers)
    result = compute(codec.load(args.path))
    render = {"text": text, "csv": csv, "json": lambda r: codec._json_text(document(r))}[args.format]
    return render(result), 0


def cmd_op(args) -> tuple[str | None, int]:
    op = _OPS[args.name]
    expected = op.__code__.co_argcount
    if len(args.paths) != expected:
        print(f"error: op {args.name} takes {expected} operand file(s), got {len(args.paths)}",
              file=sys.stderr)
        return None, 2
    result = op(*[codec.load(path) for path in args.paths])
    if isinstance(result, bool):
        return ("true\n", 0) if result else ("false\n", 1)
    return codec.serialize(result), 0


def cmd_check_laws(args) -> tuple[str, int]:
    from . import laws

    # Only the flags given reach run_catalogue, which keeps its own defaults for the rest.
    given = {"law_ids": args.law, "seed": args.seed, "random_bounds": args.bounds}
    given = {name: value for name, value in given.items() if value is not None}
    if args.exhaustive or args.random is not None:  # either source flag drops the other source
        given.update(exhaustive=args.exhaustive, random_count=args.random or 0)
    reports = laws.run_catalogue(**given)
    failures = [r.law_id for r in reports if r.must_hold and not r.holds]
    doc = {"laws": [r.to_json() for r in reports], "must_hold_failures": failures}
    return codec._json_text(doc), 1 if failures else 0


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipolarsoft",
        description="Validate, render, combine, and score bipolar soft set documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_render(name, help, *renderers):
        # ``renderers`` name the package's functions, which are looked up when the command runs.
        p = sub.add_parser(name, help=help)
        p.add_argument("path", type=Path)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("-o", "--output")
        p.set_defaults(func=cmd_render, renderers=renderers)

    p = sub.add_parser("validate", help="check a document and print a summary")
    p.add_argument("path", type=Path)
    p.set_defaults(func=cmd_validate)

    add_render("table", "render the indicator-pair table",
               "to_table", "render_table_text", "render_table_csv", "table_document")

    p = sub.add_parser("op", help="apply an algebra operation to documents")
    p.add_argument("name", choices=_OPS)
    p.add_argument("paths", nargs="+", type=Path)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_op)

    add_render("decide", "score all objects and report the best",
               "decide", "render_scores_text", "render_scores_csv", "scores_document")

    p = sub.add_parser("check-laws", help="brute-force the law catalogue")
    p.add_argument("--law", action="append", help="check only this law id (repeatable)")
    p.add_argument("--seed", type=int)
    p.add_argument("--exhaustive", nargs=2, type=_int_at_least(1), metavar=("M", "N"))
    p.add_argument("--random", type=_int_at_least(0), metavar="COUNT")
    p.add_argument("--bounds", nargs=2, type=_int_at_least(1), metavar=("M", "N"))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_check_laws)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    output = getattr(args, "output", None)
    try:
        if output:
            _check_writable(output)
        text, code = args.func(args)  # each command returns its text; None after a usage error
        if text is not None:
            _emit(text, output)
        return code
    except (OSError, UnicodeEncodeError) as exc:  # or a stdout that cannot encode the text
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BipolarSoftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, BoundsTooLarge, InvalidArgument, UnknownLaw)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
