#!/usr/bin/env python3
"""Benchmark of the fishburn command line and library.

Run from the repository root:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, never more than one child at a time):

    verify_all    ``fishburn verify --identity all --max-size 5``, one cold
                  child process per pass
    count_walk    ``fishburn count`` for rm at 7 (csv), b at 7 (json) and
                  fishburn at 9 (csv), one child each, three per pass
    map_requests  a seeded stream of single-matrix requests served by one
                  child process per pass (perfbench/map_child.py)

With ``--trace 0`` the end-to-end numbers come from child processes, read
through ``os.wait4``.  The benchmark and its children run on one CPU, one
child at a time.  Every measured child runs between two runs of the
fixed program ``perfbench/host_ref.py``, and its times are scaled by
``HOST_REF_S`` over their mean wall time: a shared host runs the same pass
up to twice as slowly for minutes at a time, and programs run next to
each other slow down alike.  Each metric is the median over the passes of
a run.  With ``--trace 1`` the same inputs run in this
process, alternating an untraced pass with a traced one, and the per-layer
numbers come from spans (perfbench/tracer.py).  Every output is checked.
The last line of standard output is the result as JSON; the line before it
holds the run's context (machine, load, samples, failures).
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import mapgen
import tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# Size 6 (about 6 s a pass) gives a 40 s run only five passes to take a
# median over; size 5 (about 0.7 s) gives some 25.
VERIFY_ARGS = ("verify", "--identity", "all", "--max-size", "5")
# (family, size, format); totals and stdout digests in reference/count_walk.json
COUNT_COMMANDS = (("rm", 7, "csv"), ("b", 7, "json"), ("fishburn", 9, "csv"))
REQUESTS_PER_PASS = 2000
IMPORT_ARGS = ("-c", "import fishburn.cli")
HOST_REF = BENCH / "host_ref.py"
# The usual wall seconds of host_ref.py on the machine README.md describes.
# Every end-to-end time is reported at the host speed this stands for.
HOST_REF_S = 0.40
SETUP_SAMPLES = 7
PROBE_LOOPS = 1_000_000
WORKLOADS = ("verify_all", "count_walk", "map_requests")
END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "req_p50_ms": "ms", "req_p99_ms": "ms", "req_per_s": "1/s", "setup_s": "s",
}


# --- outcome bookkeeping -------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(problem)


@dataclass
class Pass:
    """One pass of a workload: wall and CPU seconds, peak RSS in MB, the
    latency in milliseconds of each request it served, all times scaled by
    the host speed, and the raw wall seconds and the scale of each child."""

    wall: float
    cpu: float
    rss_mb: float
    latencies_ms: list
    raw_wall: float
    scales: list


@dataclass
class Child:
    status: int
    stdout: bytes
    wall: float
    cpu: float
    rss_mb: float
    # HOST_REF_S over the mean wall of the host reference runs around it
    scale: float = 1.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, stdin=None):
    """Run one child to completion and read its usage from ``os.wait4``.

    Children used here read all their input before writing output, so
    writing the input and then reading the output cannot block.  Standard
    error (the CLI's timings) is discarded.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=_child_env(),
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        stdout = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return Child(proc.returncode, stdout, wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class HostScale:
    """Runs the host reference after every measured child.  A child's scale
    is HOST_REF_S over the mean wall of the reference runs just before and
    just after it, so the two windows around the child stand for the host
    speed during it."""

    def __init__(self, tally):
        self.tally = tally
        self.before = self._reference()

    def _reference(self):
        ref = run_child((str(HOST_REF),))
        if ref.status != 0:
            self.tally.reasons.append(f"host reference exited {ref.status}")
        return ref.wall

    def run(self, args, stdin=None):
        """Run one child, then the host reference, and set the child's scale."""
        child = run_child(args, stdin)
        after = self._reference()
        child.scale = 2 * HOST_REF_S / (self.before + after)
        self.before = after
        return child

    def latest(self):
        """The scale of the last reference run alone."""
        return HOST_REF_S / self.before

    def sample(self):
        """Run the host reference once more and return its scale alone."""
        self.before = self._reference()
        return self.latest()


def make_pass(children, latencies_ms):
    """A pass from its scaled children and its scaled request latencies."""
    return Pass(sum(c.wall * c.scale for c in children),
                sum(c.cpu * c.scale for c in children),
                max(c.rss_mb for c in children), latencies_ms,
                sum(c.wall for c in children), [c.scale for c in children])


# --- output checks -------------------------------------------------------------


def _count_key(command):
    return " ".join(map(str, command))


def count_args(command):
    family, size, fmt = command
    return ("count", "--family", family, "--size", str(size), "--format", fmt)


def check_verify(status, stdout):
    if status != 0:
        return f"verify exited {status}"
    if stdout != (BENCH / "reference" / "verify_all.txt").read_bytes():
        return "verify output differs from the reference"
    return None


def check_count(command, status, stdout, references):
    key = _count_key(command)
    if status != 0:
        return f"count {key} exited {status}"
    want = references[key]
    try:
        text = stdout.decode("utf-8")
        if command[2] == "csv":
            total = sum(int(row[-1]) for row in list(csv.reader(io.StringIO(text)))[1:])
        else:
            doc = json.loads(text)
            total = doc["total"]
            if sum(cell["count"] for cell in doc["cells"]) != total:
                return f"count {key}: cells do not add up to the total"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"count {key}: unreadable table ({exc})"
    if total != want["total"]:
        return f"count {key}: total {total}, want {want['total']}"
    if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
        return f"count {key}: output differs from the reference digest"
    return None


def check_answers(requests, answers, tally):
    if len(answers) != len(requests):
        tally.reasons.append(f"{len(answers)} answers for {len(requests)} requests")
    for i, (mix, text) in enumerate(requests):
        if i >= len(answers):
            tally.record("request not answered")
            continue
        tally.record(mapgen.check_answer(mix, text, answers[i]))


# --- workloads -----------------------------------------------------------------


def _count_order(seed):
    """The three count commands in an order drawn from the seed."""
    return random.Random(seed).sample(COUNT_COMMANDS, len(COUNT_COMMANDS))


def _map_requests(seed):
    return mapgen.generate(seed, REQUESTS_PER_PASS)


def end_to_end_pass(workload, seed, tally, host):
    """Returns a function that runs one measured pass in child processes."""
    if workload == "verify_all":
        def one():
            child = host.run(("-m", "fishburn", *VERIFY_ARGS))
            tally.record(check_verify(child.status, child.stdout))
            return make_pass([child], [child.wall * child.scale * 1e3])
        return one
    if workload == "count_walk":
        references = json.loads((BENCH / "reference" / "count_walk.json").read_text())
        order = _count_order(seed)

        def one():
            children = []
            for command in order:
                child = host.run(("-m", "fishburn", *count_args(command)))
                tally.record(check_count(command, child.status, child.stdout, references))
                children.append(child)
            return make_pass(children, [c.wall * c.scale * 1e3 for c in children])
        return one

    requests = _map_requests(seed)
    batch = mapgen.encode_batch(requests).encode("utf-8")

    def one():
        child = host.run((str(BENCH / "map_child.py"),), stdin=batch)
        pairs = [json.loads(line) for line in child.stdout.splitlines()]
        if child.status != 0:
            tally.reasons.append(f"map child exited {child.status}")
        check_answers(requests, [answer for _, answer in pairs], tally)
        return make_pass([child], [ns / 1e6 * child.scale for ns, _ in pairs])
    return one


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def import_time(tally, scale):
    """Wall seconds of a fresh interpreter importing the command line, at
    the host speed ``scale`` stands for."""
    child = run_child(IMPORT_ARGS)
    tally.record(None if child.status == 0 else f"import exited {child.status}")
    return child.wall * scale


def pass_metrics(p):
    """The end-to-end metrics of one pass, except set-up time."""
    return {
        "wall_s": p.wall,
        "cpu_s": p.cpu,
        "peak_rss_mb": p.rss_mb,
        "req_p50_ms": percentile(p.latencies_ms, 0.50),
        "req_p99_ms": percentile(p.latencies_ms, 0.99),
        "req_per_s": len(p.latencies_ms) / p.wall,
    }


def run_end_to_end(workload, seed, seconds, tally, context):
    """Run passes back to back until the next one would end past
    ``seconds`` and report the median of each metric over them.  A set-up
    sample follows each pass and takes the scale of the host reference run
    just before it."""
    run_child(IMPORT_ARGS)  # writes the bytecode cache, which users pay once
    host = HostScale(tally)
    run_pass = end_to_end_pass(workload, seed, tally, host)
    setup = []
    passes = []
    started = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        passes.append(run_pass())
        setup.append(import_time(tally, host.latest()))
        last = time.perf_counter() - begun
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_time(tally, host.sample()))
    per_pass = [pass_metrics(p) for p in passes]
    requests = len(passes[0].latencies_ms)
    context.update(
        passes=len(passes),
        pass_wall_s=[round(p.raw_wall, 4) for p in passes],
        host_scale=[round(x, 4) for p in passes for x in p.scales],
        requests_per_pass=requests,
        requests_beyond_p99_per_pass=requests - math.ceil(0.99 * requests),
        setup_samples_s=[round(x, 4) for x in setup],
    )
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    return {**metrics, "setup_s": statistics.median(setup)}


# --- traced run ----------------------------------------------------------------


def in_process_pass(workload, seed, tally):
    """Returns (execute, check) for one pass in this process.  ``execute``
    does the work a pass of child processes does and returns the raw
    outputs plus the enumeration cache counters; ``check`` checks them."""
    from fishburn import cli, enumeration

    cached = enumeration.enumerate_family

    def run_cli(args):
        cached.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(list(args))
        info = cached.cache_info()
        return status, out.getvalue().encode("utf-8"), info.hits, info.misses

    if workload == "verify_all":
        commands = [VERIFY_ARGS]
    elif workload == "count_walk":
        order = _count_order(seed)
        commands = [count_args(command) for command in order]
        references = json.loads((BENCH / "reference" / "count_walk.json").read_text())
    else:
        import map_child

        requests = _map_requests(seed)

        def execute():
            return map_child.serve(requests), 0, 0

        def check(raw):
            check_answers(requests, [answer for _, answer in raw], tally)
        return execute, check

    def execute():
        results = [run_cli(args) for args in commands]
        return ([r[:2] for r in results], sum(r[2] for r in results),
                sum(r[3] for r in results))

    def check(raw):
        for i, (status, stdout) in enumerate(raw):
            if workload == "verify_all":
                tally.record(check_verify(status, stdout))
            else:
                tally.record(check_count(order[i], status, stdout, references))
    return execute, check


def run_traced(workload, seed, seconds, tally, context):
    """Alternate untraced and traced in-process passes; report per-layer
    numbers as medians over the traced passes, exact counts from the first
    one, and count a failure if any traced pass disagrees on them."""
    sys.path.insert(0, str(SRC))
    import map_child

    execute, check = in_process_pass(workload, seed, tally)
    raw, _, _ = execute()  # warm-up: first-touch memory and lazy imports
    check(raw)
    rows = []
    spans = None
    started = time.perf_counter()
    while not rows or (time.perf_counter() - started
                       + rows[-1]["trace.untraced_s"] + rows[-1]["trace.traced_s"]) <= seconds:
        t0 = time.perf_counter()
        raw, _, _ = execute()
        untraced = time.perf_counter() - t0
        check(raw)
        spans = tracer.Tracer()
        with spans.patched(extra_modules=(map_child,)):
            t0 = time.perf_counter()
            raw, hits, misses = spans.run(tracer.ROOT_SPAN, execute)
            traced = time.perf_counter() - t0
        check(raw)
        row = tracer.summarize(spans)
        row.update({
            "enumeration.cache_hits": hits, "enumeration.cache_misses": misses,
            "trace.untraced_s": untraced, "trace.traced_s": traced,
            "trace.overhead_s": traced - untraced,
        })
        rows.append(row)
    for row in rows[1:]:
        changed = [name for name in tracer.EXACT_COUNTS if row[name] != rows[0][name]]
        tally.record(f"exact counts changed between traced passes: {changed}"
                     if changed else None)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write_spans(spans, spans_path)
    exact = set(tracer.EXACT_COUNTS)
    metrics = {name: rows[0][name] if name in exact
               else statistics.median(row[name] for row in rows)
               for name in tracer.metric_names()}
    context.update(
        traced_passes=len(rows),
        trace_overhead_s=[round(row["trace.overhead_s"], 4) for row in rows],
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return {name: (value, tracer.metric_unit(name)) for name, value in metrics.items()}


# --- entry point ---------------------------------------------------------------


def machine_probe():
    """Median wall seconds of a fixed pure-Python loop in this process.

    On a shared host other tenants can slow every process by half or more
    for minutes at a time, and the load average inside a virtual machine
    does not show it.  Comparing this number between runs does.
    """
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        samples.append(time.perf_counter() - started)
    return round(statistics.median(samples), 4)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fishburn" / "cli.py").is_file():
        print(f"error: no fishburn package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    # One CPU for this process and every child it starts, so a measured
    # child and the host reference runs around it see the same CPU's speed;
    # each CPU of a shared host slows down on its own.
    os.sched_setaffinity(0, {max(cpus)})
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(cpus), "cpu": max(cpus),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "loadavg_before": os.getloadavg(),
        "probe_s_before": machine_probe(),
    }
    tally = Tally()
    if args.trace:
        metrics = run_traced(args.workload, args.seed, args.seconds, tally, context)
    else:
        values = run_end_to_end(args.workload, args.seed, args.seconds, tally, context)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    context.update(
        loadavg_after=os.getloadavg(),
        probe_s_after=machine_probe(),
        failed_frac=tally.failed / tally.attempted if tally.attempted else 1.0,
        failures=tally.reasons,
    )
    correct = tally.failed == 0 and not tally.reasons and tally.attempted > 0
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
