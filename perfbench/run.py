"""Benchmark of the bipolarsoft package, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

* ``laws-default`` - full ``run_catalogue()`` passes with the default pool;
  one request is one pass (time to verdict).
* ``docs-large`` - the CLI's ten command paths as library calls on fresh
  64x32 documents, one client in a closed loop.
* ``cli-small`` - ``python -m bipolarsoft`` processes on the committed
  fixtures, one at a time.

Every output is checked against the independent reference in
``reference.py``, outside the timed span.  The gated times are scaled to a
fixed machine speed with the kernel of ``speed.py``, timed alongside the
work; the measured times are printed as ``wall_*`` metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` repeats the work with the tracer of
``tracer.py`` installed and reports per-layer metrics.  The last stdout line
is one JSON object; the lines before it list every metric with its unit.
``--workload all`` runs every workload untraced and traced, printing each
run's lines in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference as ref
from speed import REF_NS, probe_ns
from tracer import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = str(HERE / "worker.py")
FIXTURES = "fixtures"
WORKLOADS = ("laws-default", "docs-large", "cli-small")

SETUP_SAMPLES = 15  # fresh processes per run; setup_s is their median
# fresh processes per traced run for cli.interp_ms and cli.import_ms: few, because a
# traced laws-default run already makes two full passes
PROBE_RUNS = 7
RUN_LIMIT_S = 170  # every child is killed once the run has taken this long
DOC_OBJECTS, DOC_PAIRS = 64, 32

READS = ("validate", "table", "decide", "subset", "equals")
WRITES = ("union", "intersect", "complement", "and", "or")
UNARY = ("validate", "table", "decide", "complement")


class BenchError(Exception):
    """The run could not complete; no result is printed."""


class Run:
    """State of one benchmark run: deadline, child environment and tallies."""

    def __init__(self, seed: int, seconds: float, fault: str | None):
        self.seed = seed
        self.seconds = seconds
        self.fault = fault
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # fixed string hashing, so one seed replays one run exactly
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.spans: list = []
        self.refs: list = []  # kernel ns behind every scaled time, for machine_speed
        self.last_probe = 0.0  # the latest speed probe; see scaled_by_probe

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        return left

    def tally(self, ok: bool, what: str, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"{error or 'wrong output'}: {what}")

    def fault_args(self) -> list[str]:
        return ["--fault", self.fault] if self.fault else []

    def scaled(self, ns: float, ref_ns: float) -> float:
        """``ns`` at reference machine speed, given the kernel time measured alongside it."""
        self.refs.append(ref_ns)
        return ns * REF_NS / ref_ns

    def scaled_by_probe(self, ns: float) -> float:
        """``ns`` of a child process just ended, scaled by the speed probes around it."""
        before = self.last_probe
        self.probe()
        return self.scaled(ns, (before + self.last_probe) / 2)

    def probe(self) -> None:
        try:
            self.last_probe = probe_ns()
        except (OSError, ValueError) as exc:
            raise BenchError(f"speed probe failed: {exc}") from exc


class Worker:
    """A ``worker.py serve`` child answering one JSON request per line."""

    def __init__(self, run: Run, workload: str):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "serve", workload, *run.fault_args()],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=run.env, cwd=ROOT,
            text=True, bufsize=1,
        )
        self.watchdog = threading.Timer(run.remaining(), self.proc.kill)
        self.watchdog.start()
        self._read()
        self.setup_s = time.perf_counter() - started
        self.ref_ns = self._read()["ref_ns"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def ask(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.watchdog.cancel()
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_workers(run: Run, workload: str) -> tuple[Worker, dict]:
    """Start ``SETUP_SAMPLES`` fresh workers; keep the last, report the median set-up."""
    wall, scaled = [], []
    worker = None
    for _ in range(SETUP_SAMPLES):
        if worker is not None:
            worker.close()
        worker = Worker(run, workload)
        wall.append(worker.setup_s)
        scaled.append(run.scaled(worker.setup_s, worker.ref_ns))
    return worker, setup_metrics(wall, scaled)


def setup_metrics(wall: list, scaled: list) -> dict:
    return {"setup_s": statistics.median(scaled), "wall_setup_s": statistics.median(wall)}


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks; ``q`` in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def flat(cycles: list) -> list:
    return [ns for cycle in cycles for _, ns in cycle]


def latency_metrics(cycles: list, wall: list) -> dict:
    """Latency metrics of scaled ``cycles``, plus the main ones of the measured ``wall``.

    Both are lists of cycles, lists of ``(command, ns)`` for the same requests.
    """
    measured = latency(wall)
    return {**latency(cycles),
            **{f"wall_{k}": measured[k] for k in ("req_per_s", "p50_ms", "p90_ms")}}


def latency(cycles: list) -> dict:
    """Latency percentiles over every request of ``cycles``, lists of ``(command, ns)``.

    Throughput is the median over cycles of requests per second of service time.
    """
    ms = [ns / 1e6 for ns in flat(cycles)]
    metrics = {
        "req_per_s": statistics.median(len(c) / (sum(ns for _, ns in c) / 1e9) for c in cycles),
        "p50_ms": percentile(ms, 0.5),
        "p90_ms": percentile(ms, 0.9),
        "samples": len(ms),
    }
    if len(cycles[0]) > 1:  # a laws-default cycle is one pass: no commands to split
        by_command: dict = {}
        for cycle in cycles:
            for command, ns in cycle:
                by_command.setdefault(command, []).append(ns / 1e6)
        writes = [x for c, xs in by_command.items() if c in WRITES for x in xs]
        reads = [x for c, xs in by_command.items() if c not in WRITES for x in xs]
        metrics["read_p50_ms"] = percentile(reads, 0.5)
        metrics["write_p50_ms"] = percentile(writes, 0.5)
        for command, xs in by_command.items():
            metrics[f"{command}.p50_ms"] = percentile(xs, 0.5)
    return metrics


# -- laws-default -------------------------------------------------------------


def laws_pass(run: Run, worker: Worker, seed: int, traced: bool = False) -> tuple:
    """One timed ``run_catalogue()`` pass; every verdict checked after the clock stops.

    Returns the response (``ns``, ``ref_ns``) and the tracer's snapshot.
    """
    if traced:
        worker.ask(cmd="trace", on=True)
    response = worker.ask(cmd="catalogue", seed=seed)
    snapshot = worker.ask(cmd="trace", on=False) if traced else None
    reports = response.get("out", [])
    for report in reports:
        ok = ref.law_report_ok(report)
        if ok and not report["holds"]:
            ok = worker.ask(cmd="recheck", report=report).get("out") is True
        run.tally(ok, f"law {report['law']}")
    for _ in range(ref.LAW_COUNT - len({r["law"] for r in reports})):
        run.tally(False, "law missing from the catalogue", response.get("error"))
    return response, snapshot


def workload_laws(run: Run, trace: bool) -> dict:
    worker, setup = start_workers(run, "laws-default") if not trace else (
        Worker(run, "laws-default"), None)
    try:
        if trace:
            # one pass each way, so laws.instances counts one pass
            untraced, _ = laws_pass(run, worker, run.seed)
            traced, snapshot = laws_pass(run, worker, run.seed, traced=True)
            return traced_metrics(run, [snapshot], [untraced["ns"]], [traced["ns"]])
        wall, scaled = [], []
        while not wall or sum(wall) / 1e9 < run.seconds:
            response, _ = laws_pass(run, worker, run.seed + len(wall))
            wall.append(response["ns"])
            scaled.append(run.scaled(response["ns"], response["ref_ns"]))
            run.remaining()
    finally:
        worker.close()
    return {**setup, "verdict_s": statistics.median(scaled) / 1e9,
            **latency_metrics([[("catalogue", ns)] for ns in scaled],
                              [[("catalogue", ns)] for ns in wall])}


# -- docs-large ---------------------------------------------------------------


def doc_space(rng: random.Random) -> tuple:
    tag = rng.randrange(16**4)
    universe = tuple(f"h{tag:04x}-{i}" for i in range(1, DOC_OBJECTS + 1))
    pairs = tuple((f"p{tag:04x}-{k}", f"n{tag:04x}-{k}") for k in range(1, DOC_PAIRS + 1))
    return universe, pairs


def random_table(rng: random.Random, space: tuple) -> ref.Table:
    universe, pairs = space
    cells = tuple(tuple(rng.randrange(3) for _ in universe) for _ in pairs)
    return ref.Table(universe, pairs, cells)


def nudge(rng: random.Random, t: ref.Table, delta: int) -> ref.Table:
    """``t`` with one random cell moved ``delta`` steps (clamped) in the order."""
    k = rng.randrange(len(t.cells))
    i = rng.randrange(len(t.universe))
    column = list(t.cells[k])
    column[i] = min(ref.APPROVE, max(ref.REJECT, column[i] + delta))
    return t._replace(cells=t.cells[:k] + (tuple(column),) + t.cells[k + 1:])


def shuffled_text(rng: random.Random, t: ref.Table) -> str:
    """A valid but non-canonical text of ``t``: member lists and rows reordered."""
    doc = ref.to_json(t)
    for row in doc["assignments"]:
        rng.shuffle(row["positive"])
        rng.shuffle(row["negative"])
    rng.shuffle(doc["assignments"])
    return json.dumps(doc, indent=2) + "\n"


def doc_operands(rng: random.Random, space: tuple, op: str) -> tuple:
    """Fresh operand tables and their texts for one request."""
    a = random_table(rng, space)
    if op in UNARY:
        return (a,), [ref.to_text(a)]
    if op == "subset":
        # half the pairs are ordered (a below b), the rest miss by one cell
        b = ref.Table(a.universe, a.pairs, tuple(
            tuple(rng.randrange(v, ref.APPROVE + 1) for v in column) for column in a.cells))
        if rng.random() < 0.5:
            a = nudge(rng, b, +1)
        return (a, b), [ref.to_text(a), ref.to_text(b)]
    if op == "equals":
        b = a if rng.random() < 0.5 else nudge(rng, a, rng.choice((-1, 1)))
        return (a, b), [ref.to_text(a), shuffled_text(rng, b)]
    b = random_table(rng, space)
    return (a, b), [ref.to_text(a), ref.to_text(b)]


def doc_expected_ok(op: str, tables: tuple, out: str) -> bool:
    a = tables[0]
    if op == "validate":
        return out == ref.validate_line(a)
    if op == "table":
        return ref.table_ok(out, a, "text")
    if op == "decide":
        return ref.decide_ok(out, a, "text")
    if op == "subset":
        return out == ("true\n" if ref.is_subset(a, tables[1]) else "false\n")
    if op == "equals":
        return out == ("true\n" if a == tables[1] else "false\n")
    if op == "complement":
        return out == ref.to_text(ref.complement(a))
    compute = {"union": ref.union, "intersect": ref.intersection,
               "and": ref.and_product, "or": ref.or_product}[op]
    return out == ref.to_text(compute(a, tables[1]))


def doc_cycles(run: Run, worker: Worker, cycles: int | None) -> tuple[list, list]:
    """Closed loop over whole cycles of the ten commands, each on fresh documents.

    With ``cycles`` None, loop until ``run.seconds`` of service time is spent.
    The stream depends only on the seed, so a traced replay sees the same requests.
    Returns the cycles as lists of ``(command, ns)``, scaled and as measured.
    """
    rng = random.Random(run.seed)
    space = doc_space(rng)
    done: list = []
    wall: list = []
    spent = 0
    while (len(done) < cycles) if cycles is not None else (spent / 1e9 < run.seconds):
        order = list(READS + WRITES)
        rng.shuffle(order)
        cycle, measured = [], []
        for op in order:
            tables, texts = doc_operands(rng, space, op)
            response = worker.ask(cmd="run", op=op, texts=texts)
            cycle.append((op, run.scaled(response["ns"], response["ref_ns"])))
            measured.append((op, response["ns"]))
            spent += response["ns"]
            ok = "out" in response and doc_expected_ok(op, tables, response["out"])
            run.tally(ok, f"docs {op}", response.get("error"))
        done.append(cycle)
        wall.append(measured)
        run.remaining()
    return done, wall


def workload_docs(run: Run, trace: bool) -> dict:
    worker, setup = start_workers(run, "docs-large") if not trace else (
        Worker(run, "docs-large"), None)
    try:
        untraced, untraced_wall = doc_cycles(run, worker, None)
        if not trace:
            return {**setup, **latency_metrics(untraced, untraced_wall)}
        worker.ask(cmd="trace", on=True)
        _, traced_wall = doc_cycles(run, worker, len(untraced))
        snapshot = worker.ask(cmd="trace", on=False)
    finally:
        worker.close()
    return traced_metrics(run, [snapshot], flat(untraced_wall), flat(traced_wall))


# -- cli-small ----------------------------------------------------------------


# The score table of the house example, as the source paper gives it.
HOUSE_EXAMPLE_ROWS = [
    ("u1", 3, 1, 2), ("u2", 2, 2, 0), ("u3", 2, 3, -1), ("u4", 2, 2, 0),
    ("u5", 1, 3, -2), ("u6", 0, 2, -2), ("u7", 0, 2, -2), ("u8", 1, 2, -1),
]


def fixture(name: str) -> ref.Table:
    return ref.from_text((ROOT / FIXTURES / f"{name}.bss.json").read_text(encoding="utf-8"))


def cli_sequence(seed: int) -> list:
    """``(argv, expected exit code, output check)`` for each command of one cycle."""
    path = {n: f"{FIXTURES}/{n}.bss.json" for n in
            ("house_example", "houses_a", "houses_b", "houses_c", "houses3_a", "houses3_b")}
    house, a, b, c = (fixture(n) for n in ("house_example", "houses_a", "houses_b", "houses_c"))
    a3, b3 = fixture("houses3_a"), fixture("houses3_b")

    def same(text):
        return lambda out: out == text

    seq = [(["validate", path["house_example"]], 0, same(ref.validate_line(house)))]
    for fmt in ("text", "csv", "json"):
        seq.append((["table", path["houses_a"], "--format", fmt], 0,
                    lambda out, fmt=fmt: ref.table_ok(out, a, fmt)))
        seq.append((["decide", path["house_example"], "--format", fmt], 0,
                    lambda out, fmt=fmt: ref.decide_ok(out, house, fmt)))
    seq += [
        (["op", "union", path["houses_a"], path["houses_b"]], 0,
         same(ref.to_text(ref.union(a, b)))),
        (["op", "intersect", path["houses_a"], path["houses_b"]], 0,
         same(ref.to_text(ref.intersection(a, b)))),
        (["op", "complement", path["houses_a"]], 0, same(ref.to_text(ref.complement(a)))),
        (["op", "and", path["houses3_a"], path["houses3_b"]], 0,
         same(ref.to_text(ref.and_product(a3, b3)))),
        (["op", "or", path["houses3_a"], path["houses3_b"]], 0,
         same(ref.to_text(ref.or_product(a3, b3)))),
        (["op", "subset", path["houses_c"], path["houses_a"]], 0, same("true\n")),
        (["op", "equals", path["houses_a"], path["houses_b"]], 1, same("false\n")),
    ]
    law = "demorgan-union"
    seq.append((["check-laws", "--law", law, "--seed", str(seed)], 0,
                lambda out: [ref.law_report_ok(r) for r in json.loads(out)["laws"]] == [True]
                and json.loads(out)["must_hold_failures"] == []))
    if ref.score_rows(house) != HOUSE_EXAMPLE_ROWS or not ref.is_subset(c, a) or a == b:
        raise BenchError("the committed fixtures no longer hold their known answers")
    return seq


def cli_call(run: Run, prefix: list, argv: list) -> tuple:
    started = time.perf_counter_ns()
    try:
        proc = subprocess.run(prefix + argv, capture_output=True, text=True, env=run.env,
                              cwd=ROOT, timeout=run.remaining())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s in {argv}") from exc
    return time.perf_counter_ns() - started, proc


def cli_cycles(run: Run, prefix: list, cycles: int | None) -> tuple[list, list, list]:
    """Whole cycles of the sequence, in a seeded order, one process at a time.

    Returns the cycles as lists of ``(command, ns)``, scaled and as measured,
    and the last stderr line of every process.
    """
    rng = random.Random(run.seed)
    seq = cli_sequence(run.seed)
    done: list = []
    wall: list = []
    tails: list = []
    spent = 0
    while (len(done) < cycles) if cycles is not None else (spent / 1e9 < run.seconds):
        cycle, measured = [], []
        for argv, code, check in rng.sample(seq, len(seq)):
            ns, proc = cli_call(run, prefix, argv)
            command = argv[1] if argv[0] == "op" else argv[0]
            cycle.append((command, run.scaled_by_probe(ns)))
            measured.append((command, ns))
            spent += ns
            run.tally(proc.returncode == code and check(proc.stdout), f"cli {' '.join(argv)}")
            tails.append(proc.stderr.rstrip("\n").rpartition("\n")[2])
        done.append(cycle)
        wall.append(measured)
    return done, wall, tails


def cli_setup(run: Run, prefix: list) -> dict:
    """Median time of a fresh process to its first completed call (``validate``)."""
    argv, code, check = cli_sequence(run.seed)[0]
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        ns, proc = cli_call(run, prefix, argv)
        wall.append(ns / 1e9)
        scaled.append(run.scaled_by_probe(ns / 1e9))
        run.tally(proc.returncode == code and check(proc.stdout), "cli setup validate")
    return setup_metrics(wall, scaled)


def workload_cli(run: Run, trace: bool) -> dict:
    if run.fault:
        prefix = [sys.executable, WORKER, "cli", *run.fault_args(), "--"]
    else:
        prefix = [sys.executable, "-m", "bipolarsoft"]
    run.probe()
    if not trace:
        setup = cli_setup(run, prefix)
        untraced, wall, _ = cli_cycles(run, prefix, None)
        return {**setup, **latency_metrics(untraced, wall)}
    untraced, untraced_wall, _ = cli_cycles(run, prefix, None)
    traced_prefix = [sys.executable, WORKER, "cli", "--trace", *run.fault_args(), "--"]
    _, traced_wall, tails = cli_cycles(run, traced_prefix, len(untraced))
    snapshots = [json.loads(tail) for tail in tails]
    return traced_metrics(run, snapshots, flat(untraced_wall), flat(traced_wall))


# -- per-layer metrics from the traced run ------------------------------------

LAYERS = ("core", "space", "codec", "products", "decision", "table", "laws", "cli")


def process_probe(run: Run, code: str) -> tuple[float, str]:
    ns, proc = cli_call(run, [sys.executable, "-c", code], [])
    if proc.returncode != 0:
        raise BenchError(f"probe failed: {proc.stderr.strip()}")
    return ns / 1e6, proc.stdout


def traced_metrics(run: Run, snapshots: list, untraced_ns: list, traced_ns: list) -> dict:
    merged = merge(snapshots)
    groups: dict = {}
    for (group, _fn), (entries, calls, self_ns) in merged["stats"].items():
        g = groups.setdefault(group, [0, 0, 0])
        g[0] += entries
        g[1] += calls
        g[2] += self_ns
    extra = merged["extra"]

    def calls(group):
        return groups.get(group, [0, 0, 0])[0]

    def self_ms(*names):
        return sum(v[2] for g, v in groups.items() if g in names) / 1e6

    traced_s = sum(traced_ns) / 1e9
    m = {}
    for group in ("core.construct", "core.lattice", "core.order", "space.encode",
                  "space.decode", "codec.parse", "codec.serialize", "products",
                  "decision", "table", "cli.main"):
        m[f"{group}.calls"] = calls(group)
        m[f"{group}.self_ms"] = self_ms(group)
    constructs = calls("core.construct")
    m["core.construct.closed_share"] = (
        extra["closed_constructs"] / constructs if constructs else 0.0)
    m["codec.parse.bytes"] = extra["parse_bytes"]
    m["codec.serialize.bytes"] = extra["serialize_bytes"]
    m["products.cells"] = extra["product_cells"]
    m["laws.instances"] = extra["instances"]
    for part in ("enumerate", "random", "check"):
        m[f"laws.{part}.self_ms"] = self_ms(f"laws.{part}")
    for arity in (1, 2, 3):
        m[f"laws.arity{arity}.ms"] = extra["arity_ns"].get(str(arity), 0) / 1e6
    for layer in LAYERS:
        share = sum(v[2] for g, v in groups.items() if g.split(".")[0] == layer)
        m[f"{layer}.self_share"] = 100 * share / sum(traced_ns)
    interp = [process_probe(run, "pass")[0] for _ in range(PROBE_RUNS)]
    imports = [float(process_probe(run, _IMPORT_PROBE)[1]) / 1e6 for _ in range(PROBE_RUNS)]
    m["cli.interp_ms"] = statistics.median(interp)
    m["cli.import_ms"] = statistics.median(imports)
    untraced_rate = len(untraced_ns) / (sum(untraced_ns) / 1e9)
    m["trace.traced_s"] = traced_s
    m["trace.overhead_s"] = traced_s - sum(untraced_ns) / 1e9
    m["trace.overhead_req_per_s"] = untraced_rate - len(traced_ns) / traced_s
    m["trace.spans_kept"] = len(merged["spans"])
    run.spans = merged["spans"]
    return m


_IMPORT_PROBE = (
    "import time; t = time.perf_counter_ns(); import bipolarsoft.cli; "
    "print(time.perf_counter_ns() - t)"
)

UNITS = {
    "setup_s": "s", "wall_setup_s": "s", "verdict_s": "s", "wall_req_per_s": "1/s",
    "machine_speed": "ratio", "req_per_s": "1/s", "peak_rss_mb": "MB",
    "error_rate": "ratio", "samples": "count", "core.construct.closed_share": "ratio",
    "codec.parse.bytes": "bytes", "codec.serialize.bytes": "bytes", "products.cells": "count",
    "laws.instances": "count", "trace.traced_s": "s", "trace.overhead_s": "s",
    "trace.overhead_req_per_s": "1/s", "trace.spans_kept": "count",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_share"):
        return "%"
    return "count"


RUNNERS = {"laws-default": workload_laws, "docs-large": workload_docs, "cli-small": workload_cli}


def run_workload(name: str, seed: int, seconds: float, trace: bool, fault=None) -> dict:
    run = Run(seed, seconds, fault)
    metrics = RUNNERS[name](run, trace)
    if not trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics["machine_speed"] = REF_NS / statistics.median(run.refs)
    metrics["error_rate"] = run.failed / run.attempted
    return {"workload": name, "trace": trace, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics, "notes": run.notes, "spans": run.spans}


def environment() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "src_lines": src_lines}


def report(result: dict) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    mode = "traced" if result["trace"] else "untraced"
    print(f"# {result['workload']} ({mode}): attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, value in result["metrics"].items():
        print(f"{result['workload']}  {name} = {value:.6g} {unit_of(name)}")
    for note in result["notes"]:
        print(f"# {note}")


def write_spans(result: dict) -> None:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{result['workload']}.json"
    fields = ("group", "function", "start_ns", "duration_ns", "parent")
    path.write_text(json.dumps([dict(zip(fields, s)) for s in result["spans"]]) + "\n")


def contract_line(result: dict, wanted: list) -> str:
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in result["metrics"]:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": result["metrics"][name], "unit": entry["unit"]}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", help="make the package wrong on purpose (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "bipolarsoft" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print("# environment: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.fault)
        line = contract_line(result, wanted)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result)
    if result["trace"]:
        write_spans(result)
    print(line)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process of its own."""
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", trace]
            if args.fault:
                argv += ["--fault", args.fault]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
