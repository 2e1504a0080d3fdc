"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions and methods of each module with
wrappers that count calls and sum *self* time: a span's duration minus the
time of the traced spans it caused.  Names bound by ``from ... import`` are
patched in every module that looks them up, so a call is traced whichever
name it goes through.  Counters are aggregated per (group, function) in
memory; raw spans are kept only for the first ``SPAN_LIMIT`` calls.

Groups are named ``<layer>.<part>`` after the modules of ``src/bipolarsoft``.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns as clock

# Constructions made while one of these groups is the innermost open span are
# results of closed operations: values the library built from valid operands.
CLOSED_PARENTS = ("core.lattice", "products")
SPAN_LIMIT = 2000  # raw spans kept per traced run; counters cover every call


def _new_extra() -> dict:
    return {"closed_constructs": 0, "parse_bytes": 0, "serialize_bytes": 0,
            "product_cells": 0, "instances": 0, "arity_ns": {}}


class Tracer:
    def __init__(self):
        # (group, function) -> [entries, calls, self_ns]; an entry is a call
        # whose caller is outside the group.
        self.stats: dict = {}
        self.extra = _new_extra()
        self.spans: list = []
        self._stack = [[None, 0, -1]]  # frames: [group, child_ns, span id]
        self._origin = clock()
        self._patched: list = []

    # -- wrappers -------------------------------------------------------------
    #
    # A frame is [group, child_ns, span id]; the stack starts with a root frame
    # so every span has a parent.  The code is inlined because laws-default
    # makes about 2 * 10**7 traced calls.

    def wrap(self, group: str, fn, after=None):
        """A traced stand-in for ``fn``; ``after(tracer, args, result, parent)`` adds counts."""
        key = (group, fn.__name__)
        counters = self.stats.setdefault(key, [0, 0, 0])
        stack, spans, origin = self._stack, self.spans, self._origin

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [group, 0, -1]
            if len(spans) < SPAN_LIMIT:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                counters[1] += 1
                counters[2] += dt - frame[1]
                if parent[0] != group:
                    counters[0] += 1
                if frame[2] >= 0:
                    spans[frame[2]] = (group, key[1], t0 - origin, dt, parent[2])
            if after is not None:
                after(self, args, result, parent)
            return result

        return traced

    def wrap_iter(self, group: str, name: str, iterator):
        """Trace each step of an iterator, where a generator does its work."""

        def step():
            return next(iterator)

        step.__name__ = name
        step = self.wrap(group, step)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def wrap_lazy(self, group: str, fn):
        """Trace both the call and the iteration of the iterator it returns."""
        traced = self.wrap(group, fn)

        @functools.wraps(fn)
        def lazy(*args, **kwargs):
            return self.wrap_iter(group, fn.__name__, traced(*args, **kwargs))

        return lazy

    # -- patching -------------------------------------------------------------

    def patch(self, owners, name: str, make):
        """Replace ``name`` on every owner that binds the same object as the first."""
        original = getattr(owners[0], name)
        replacement = make(original)
        for owner in owners:
            if owner.__dict__.get(name) is original:
                setattr(owner, name, replacement)
                self._patched.append((owner, name, original))

    def install(self) -> "Tracer":
        import bipolarsoft as bs
        from bipolarsoft import cli, codec, decision, laws, products, table

        sets, space = bs.BipolarSoftSet, bs.ParameterSpace

        def plain(group, after=None):
            return lambda fn: self.wrap(group, fn, after)

        self.patch([sets], "__init__", plain("core.construct", _count_closed))
        for name in ("union", "intersection", "complement", "__or__", "__and__", "__invert__"):
            self.patch([sets], name, plain("core.lattice"))
        for name in ("is_subset_of", "equals", "is_complete", "__le__"):
            self.patch([sets], name, plain("core.order"))
        self.patch([space], "mask_of", plain("space.encode"))
        self.patch([space], "members", plain("space.decode"))
        self.patch([sets], "pos", plain("space.decode"))
        self.patch([sets], "neg", plain("space.decode"))

        self.patch([codec, bs], "parse", plain("codec.parse", _count_parsed))
        for name in ("from_document", "load"):
            self.patch([codec, bs], name, plain("codec.parse"))
        self.patch([codec, bs], "serialize", plain("codec.serialize", _count_serialized))
        for name in ("to_document", "dump"):
            self.patch([codec, bs], name, plain("codec.serialize"))

        for name in ("and_product", "or_product"):
            self.patch([products, laws, cli, bs], name, plain("products", _count_cells))
        self.patch([products, bs], "product_space", plain("products"))

        for name in ("scores", "decide", "render_scores_text", "render_scores_csv",
                     "scores_document"):
            self.patch([decision, bs], name, plain("decision"))
        for name in ("to_table", "from_table", "render_table_text", "render_table_csv",
                     "table_document"):
            self.patch([table, cli, bs], name, plain("table"))

        for name in ("exhaustive_tuples", "enumerate_bss"):
            self.patch([laws, bs], name, lambda fn: self.wrap_lazy("laws.enumerate", fn))
        self.patch([laws, bs], "random_tuples", lambda fn: self.wrap_lazy("laws.random", fn))
        self.patch([laws, bs], "gen_bss", plain("laws.random"))
        self.patch([laws, bs], "check_law", self._wrap_check_law)
        for name in ("run_catalogue", "recheck"):
            self.patch([laws, bs], name, plain("laws.check"))

        self.patch([cli], "main", plain("cli.main"))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap_check_law(self, fn):
        import bipolarsoft as bs

        traced = self.wrap("laws.check", fn)
        arity_ns = self.extra["arity_ns"]

        @functools.wraps(fn)
        def check_law(law_id, instances):
            arity = str(bs.get_law(law_id).arity)
            t0 = clock()
            report = traced(law_id, instances)
            arity_ns[arity] = arity_ns.get(arity, 0) + clock() - t0
            self.extra["instances"] += report.instances_checked
            return report

        return check_law

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data counters, to be merged across processes with :func:`merge`."""
        return {
            "stats": [[g, f, *c] for (g, f), c in self.stats.items()],
            "extra": self.extra,
            "spans": [s for s in self.spans if s is not None],
        }


def _count_closed(tracer, args, result, parent):
    if parent[0] in CLOSED_PARENTS:
        tracer.extra["closed_constructs"] += 1


def _count_parsed(tracer, args, result, parent):
    tracer.extra["parse_bytes"] += len(args[0].encode("utf-8"))


def _count_serialized(tracer, args, result, parent):
    tracer.extra["serialize_bytes"] += len(result.encode("utf-8"))


def _count_cells(tracer, args, result, parent):
    tracer.extra["product_cells"] += result.space.m * result.space.n


def merge(snapshots: list) -> dict:
    """Sum counters of several snapshots (one per traced process)."""
    stats: dict = {}
    extra = _new_extra()
    spans: list = []
    for snap in snapshots:
        for group, fn, entries, calls, self_ns in snap["stats"]:
            c = stats.setdefault((group, fn), [0, 0, 0])
            c[0] += entries
            c[1] += calls
            c[2] += self_ns
        for k, v in snap["extra"].items():
            if k == "arity_ns":
                for a, ns in v.items():
                    extra["arity_ns"][a] = extra["arity_ns"].get(a, 0) + ns
            else:
                extra[k] += v
        spans.extend(snap["spans"][: SPAN_LIMIT - len(spans)])
    return {"stats": stats, "extra": extra, "spans": spans}
