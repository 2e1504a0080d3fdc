"""Child process of the benchmark: the only place that calls the package under test.

Usage:
    worker.py serve WORKLOAD [--fault NAME]
        Import the package, make one warm-up call for WORKLOAD, print a
        ``{"ready": ...}`` line, then answer one JSON request per stdin line
        with one JSON response line on stdout, until stdin closes.  A
        ``{"ref_ns": ...}`` line follows the ready line: the speed kernel's
        time right after set-up (see ``speed.py``).  Timed responses carry
        ``ns``, the request's own time, and ``ref_ns``, the kernel's time
        alongside it.
    worker.py cli [--trace] [--fault NAME] -- ARGS...
        Run ``bipolarsoft.cli.main(ARGS)`` as ``python -m bipolarsoft`` would;
        with ``--trace``, write the tracer's counters as the last stderr line.

Every call goes through public names (``bipolarsoft.__all__`` and
``bipolarsoft.cli.main``), so the package's internals can change freely.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

import bipolarsoft as bs

from speed import Ticker
from tracer import Tracer


def _parsed(texts):
    return [bs.parse(t) for t in texts]


def _validate(texts):
    (a,) = _parsed(texts)
    complete = "true" if a.is_complete() else "false"
    return f"valid: m={a.space.m} n={a.space.n} complete={complete}\n"


def _verdict(value: bool) -> str:
    return "true\n" if value else "false\n"


# The CLI's ten command paths, as library calls on document texts.
UNARY = ("validate", "table", "decide", "complement")
COMMANDS = {
    "validate": _validate,
    "table": lambda texts: bs.render_table_text(bs.to_table(*_parsed(texts))),
    "decide": lambda texts: bs.render_scores_text(bs.decide(*_parsed(texts))),
    "subset": lambda texts: _verdict(bs.BipolarSoftSet.is_subset_of(*_parsed(texts))),
    "equals": lambda texts: _verdict(bs.BipolarSoftSet.equals(*_parsed(texts))),
    "union": lambda texts: bs.serialize(bs.BipolarSoftSet.union(*_parsed(texts))),
    "intersect": lambda texts: bs.serialize(bs.BipolarSoftSet.intersection(*_parsed(texts))),
    "complement": lambda texts: bs.serialize(bs.BipolarSoftSet.complement(*_parsed(texts))),
    "and": lambda texts: bs.serialize(bs.and_product(*_parsed(texts))),
    "or": lambda texts: bs.serialize(bs.or_product(*_parsed(texts))),
}

_WARMUP_DOC = (
    '{"universe": ["u1", "u2"], "pairs": [{"pos": "e1", "neg": "e2"}],'
    ' "assignments": [{"param": "e1", "positive": ["u1"], "negative": ["u2"]}]}'
)


def warm_up(workload: str) -> None:
    if workload == "laws-default":
        bs.run_catalogue(exhaustive=(1, 1), random_count=1)
    else:
        for name, command in COMMANDS.items():
            command([_WARMUP_DOC] if name in UNARY else [_WARMUP_DOC, _WARMUP_DOC])


def install_fault(name: str) -> None:
    """Make the package wrong on purpose, so the self-test can see the checks fire."""
    if name != "union-drops-approval":
        raise SystemExit(f"unknown fault {name!r}")
    union = bs.BipolarSoftSet.union

    def faulty_union(a, b):
        result = union(a, b)
        params = result.space.positive_params
        for e in params:
            if result.pos(e):
                rows = {f: (result.pos(f), result.neg(f)) for f in params}
                rows[e] = (rows[e][0][1:], rows[e][1])
                return bs.BipolarSoftSet.from_assignment(result.space, rows)
        return result

    bs.BipolarSoftSet.union = faulty_union
    bs.BipolarSoftSet.__or__ = faulty_union


def serve(workload: str) -> None:
    warm_up(workload)
    _send({"ready": True})
    ticker = Ticker().start()
    _send({"ref_ns": ticker.ref_ns(len(ticker.samples))})  # median of the first samples
    tracer = None
    for line in sys.stdin:
        request = json.loads(line)
        kind = request["cmd"]
        if kind == "run":
            _send(_timed(ticker, COMMANDS[request["op"]], request["texts"]))
        elif kind == "catalogue":
            response = _timed(ticker, bs.run_catalogue, seed=request["seed"])
            if "out" in response:
                response["out"] = [r.to_json() for r in response["out"]]
            _send(response)
        elif kind == "recheck":
            r = request["report"]
            report = bs.LawReport(r["law"], r["must_hold"], r["instances_checked"],
                                  r["holds"], r["counterexample"])
            _send(_timed(ticker, bs.recheck, report))
        elif kind == "trace":
            # no ticks while tracing: their time would land in layers' self time
            ticker.arm(not request["on"])
            if request["on"]:
                tracer = Tracer().install()
                _send({"ok": True})
            else:
                tracer.uninstall()
                _send(tracer.snapshot())
                tracer = None
        else:
            raise SystemExit(f"unknown request {kind!r}")


def _timed(ticker: Ticker, call, *args, **kwargs) -> dict:
    """One request; an exception from the package is a wrong answer, not a crash."""
    since, stolen = len(ticker.samples), ticker.stolen_ns
    t0 = perf_counter_ns()
    try:
        with ticker:
            response = {"out": call(*args, **kwargs)}
    except Exception as exc:
        response = {"error": f"{type(exc).__name__}: {exc}"}
    response["ns"] = perf_counter_ns() - t0 - (ticker.stolen_ns - stolen)
    response["ref_ns"] = ticker.ref_ns(since)
    return response


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_cli(args: list) -> int:
    from bipolarsoft import cli

    split = args.index("--")
    tracer = Tracer().install() if "--trace" in args[:split] else None
    try:
        return cli.main(args[split + 1:])
    finally:
        if tracer is not None:
            tracer.uninstall()
            sys.stdout.flush()
            sys.stderr.write("\n" + json.dumps(tracer.snapshot()) + "\n")


def main(argv: list) -> int:
    options = argv[: argv.index("--")] if "--" in argv else argv
    if "--fault" in options:
        install_fault(options[options.index("--fault") + 1])
    if argv[0] == "serve":
        serve(argv[1])
        return 0
    if argv[0] == "cli":
        return run_cli(argv[1:])
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
