"""decograph benchmark: one workload, one process, one thread.

Run from the root of a decograph checkout:

    python3 bench/run.py --workload normalize --seed 1 --seconds 20 --trace 0

The workloads (normalize, plan, decide, orbit) are defined in
``workloads.py``.  Inputs are decograph text generated from ``--seed`` in
rounds; the run measures whole rounds until the timed item time reaches
``--seconds`` and at least ten items lie beyond the workload's tail
percentile.  Every item's output is checked; an item that raises or fails
its check counts as failed.

``--trace 0`` reports the end-to-end metrics: throughput (items over the
summed item time), the median and tail item latency, set-up time (the
median of several fresh processes, spread over the timed run, that start
the interpreter, import decograph and run one warm-up item), peak resident
memory and the share of items that passed.  ``--trace 1`` reports the
per-layer metrics: call counts and self times of decograph's public
functions, counts read from their arguments and results, CLI wall times,
and the tracing overhead.  The last line of standard output is one JSON
object; the lines before it repeat the metrics for reading.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import gen
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9
CLI_REPEATS = 3
MAX_WALL_S = 140.0  # stop measuring early rather than overrun a 180 s run


def load_decograph(root: str):
    """Import decograph from ``root``/src, the checkout being measured."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "decograph", "__init__.py")):
        sys.exit(f"error: {root} holds no src/decograph; run from the root of a decograph checkout")
    sys.path.insert(0, src)
    import decograph

    if not os.path.abspath(decograph.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported decograph from {decograph.__file__}, not from {src}")
    return decograph


def warmup_item(w):
    return w.round(random.Random("warmup"), 0)[0]


# -- set-up time --------------------------------------------------------


def setup_probe(name: str) -> None:
    """Child side: import decograph, run the warm-up item, report the
    seconds spent generating its input so the parent can leave them out."""
    w = workloads.make(load_decograph(os.getcwd()), load_pinned())[name]
    t0 = time.perf_counter()
    item = warmup_item(w)
    gen_s = time.perf_counter() - t0
    w.run(item)
    print(json.dumps({"gen_s": gen_s}))


class SetupProbes:
    """Set-up time: fresh processes that start the interpreter, import
    decograph and run the warm-up item, less its input generation.  The
    probes are spread evenly over the timed run, so that one slow stretch
    of the machine shifts only some of them; the median is reported."""

    def __init__(self, name: str, seconds: float, count: int = SETUP_PROBES):
        self.cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", "--workload", name]
        self.step = seconds / count
        self.count = count
        self.samples: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        self.samples.append(wall - json.loads(proc.stdout.splitlines()[-1])["gen_s"])

    def due(self, timed: float) -> None:
        """Called between items with the item time so far."""
        if len(self.samples) < self.count and timed >= len(self.samples) * self.step:
            self.probe()

    def median(self) -> float:
        while len(self.samples) < self.count:
            self.probe()
        return statistics.median(self.samples)


# -- measuring ----------------------------------------------------------


class Tally:
    """Items attempted and failed; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def record(self, ok: bool, what: str, exc: BaseException | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.reported < 5:
                self.reported += 1
                print(f"FAILED: {what}", file=sys.stderr)
                if exc is not None:
                    traceback.print_exception(exc, file=sys.stderr)


def time_item(w, item, tracer=None):
    """Run one item (traced when a tracer is given): (seconds, result, error)."""
    result = exc = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = w.run(item)
        else:
            with tracer:
                result = w.run(item)
    except Exception as e:  # the benchmark keeps running and counts the failure
        exc = e
    return time.perf_counter() - t0, result, exc


def run_item(w, item, done: list, tally: Tally, tracer=None) -> float:
    """Time one item, then check it; returns the item time."""
    elapsed, result, exc = time_item(w, item, tracer)
    ok = exc is None
    if ok:
        try:
            ok = w.check(item, result, done)
        except Exception as e:
            ok, exc = False, e
    tally.record(ok, f"{w.name} item {len(done)}", exc)
    done.append(result if ok else None)
    return elapsed


def measure(w, seed: int, seconds: float, tally: Tally, tracer=None, deadline=None, probes=None):
    """Whole rounds until the item time reaches ``seconds`` and at least ten
    items lie beyond the workload's tail percentile; set-up probes, if
    given, run between items.  Returns the per-round lists of item times."""
    min_items = math.ceil(10 / (1 - w.tail_percentile / 100))
    rounds = []
    timed = 0.0
    n = 0
    r = 0
    while ((timed < seconds or n < min_items)
           and (deadline is None or time.monotonic() < deadline)):
        items = w.round(random.Random(f"{w.name}:{seed}:{r}"), r)
        done: list = []
        times = []
        for item in items:
            if probes is not None:
                probes.due(timed + sum(times))
            times.append(run_item(w, item, done, tally, tracer))
        rounds.append(times)
        timed += sum(times)
        n += len(times)
        r += 1
    return rounds


def pinned_checks(w, tally: Tally) -> None:
    """Normal forms of fixed inputs must match the digests in pinned.json."""
    if w.name != "normalize":
        return
    for k, text in enumerate(w.pinned_inputs()):
        _, result, exc = time_item(w, {"text": text, "partner": None})
        ok = exc is None and w.digest(result) == w.pinned["normalize_digests"][k]
        tally.record(ok, f"pinned normal form {k}", exc)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- the traced run -----------------------------------------------------


class Counts:
    """Counts read from the arguments and results of traced calls."""

    def __init__(self):
        self.matrix_cells = 0
        self.witness_max_abs = 0
        self.orbit_states = 0
        self.script_steps = 0
        self.ih_steps = 0

    def observers(self, dg) -> dict:
        def lattice(args, kwargs, result):
            columns, target = args[0], args[1]
            self.matrix_cells += len(columns) * len(target)
            if result:
                self.witness_max_abs = max(self.witness_max_abs, max(abs(x) for x in result))

        def orbit(args, kwargs, result):
            self.orbit_states += len(result)

        def script(s):
            if s is not None:
                self.script_steps += len(s.steps)
                self.ih_steps += sum(isinstance(step, dg.IhMove) for step in s.steps)

        return {
            "lattice.solve_lattice": lattice,
            "oracle.move_orbit": orbit,
            "invariants.normal_form": lambda a, k, nf: script(nf.script),
            "moves.ih_plan": lambda a, k, s: script(s),
            "decoration.trivial_mod_equivalent": lambda a, k, s: script(s),
        }


def cli_commands(tmp: str) -> dict[str, list[str]]:
    """Write fixed inputs to ``tmp``; the arguments of each CLI command."""
    rng = random.Random("cli")
    g, alpha, beta = workloads._decorated(rng, 40, 2)
    g1, alpha1, beta1 = workloads._decorated(rng, 16, 2)
    g2 = gen.connected_graph(rng, 16, 2)
    files = {"in.txt": gen.to_text(g, alpha, beta),
             "a.txt": gen.to_text(g1, alpha1, beta1),
             "b.txt": gen.to_text(g2)}
    for name, text in files.items():
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(text)
    path = lambda name: os.path.join(tmp, name)
    bmap = ",".join(f"{a}={b}" for a, b in zip(g1.boundary, g2.boundary))
    return {
        "normalize": ["normalize", path("in.txt"), "-o", path("out.txt")],
        "plan": ["plan", path("a.txt"), path("b.txt"), "--map", bmap, "-o", path("script.txt")],
        "equiv": ["equiv", path("in.txt"), path("in.txt")],
    }


def measure_cli(root: str, tally: Tally) -> dict[str, float]:
    """Median wall time of ``decograph <command>`` subprocesses on fixed inputs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=root) as tmp:
        for command, argv in cli_commands(tmp).items():
            samples = []
            for _ in range(CLI_REPEATS):
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "decograph.cli"] + argv,
                                      capture_output=True, text=True, env=env, timeout=60)
                samples.append(time.perf_counter() - t0)
                tally.record(proc.returncode == 0, f"decograph {command}: {proc.stderr.strip()}")
            out[command] = statistics.median(samples)
    return out


def tracing_overhead(dg, w, seed: int, budget: float, deadline) -> float:
    """Traced throughput over untraced throughput on the same items, each
    item run untraced and then traced back to back so that both see the
    same machine speed."""
    untraced_s = traced_s = 0.0
    r = 0
    while untraced_s < budget and time.monotonic() < deadline:
        for item in w.round(random.Random(f"{w.name}:{seed}:{r}"), r):
            untraced_s += time_item(w, item)[0]
            tr = tracing.Tracer("decograph", tracing.TRACED, Counts().observers(dg))
            tr.install()
            try:
                traced_s += time_item(w, item, tr)[0]
            finally:
                tr.restore()
            if untraced_s >= budget:
                break
        r += 1
    return untraced_s / traced_s if traced_s else 0.0


def traced_metrics(dg, w, seed: int, seconds: float, tally: Tally, root: str, deadline) -> dict:
    """Per-layer metrics; counts and times are per item of the traced run."""
    counts = Counts()
    tr = tracing.Tracer("decograph", tracing.TRACED, counts.observers(dg))
    tr.install()
    try:
        rounds = measure(w, seed, seconds, tally, tr, deadline)
    finally:
        tr.restore()
    n = sum(len(r) for r in rounds)
    print(f"# {w.name}: {n} traced items in {len(rounds)} rounds")
    summary = tr.summary()
    metrics = {}
    for qual, (calls, self_s) in summary.items():
        metrics[f"{qual}.calls"] = (calls / n, "calls/item")
        metrics[f"{qual}.self_s"] = (self_s / n, "s/item")
    ih_calls = summary["moves.ih_apply"][0]
    metrics["moves.ih_apply_per_step"] = (ih_calls / counts.ih_steps if counts.ih_steps else 0.0, "calls/step")
    metrics["moves.script_steps"] = (counts.script_steps / n, "steps/item")
    metrics["lattice.matrix_cells"] = (counts.matrix_cells / n, "cells/item")
    metrics["lattice.witness_max_abs"] = (counts.witness_max_abs, "int")
    metrics["oracle.orbit_states"] = (counts.orbit_states / n, "states/item")
    for command, wall in measure_cli(root, tally).items():
        metrics[f"cli.{command}.wall_s"] = (wall, "s")
    metrics["trace.throughput_ratio"] = (
        tracing_overhead(dg, w, seed, seconds / 10, deadline), "ratio")
    return metrics


# -- entry point --------------------------------------------------------


def load_pinned() -> dict:
    with open(os.path.join(HERE, "pinned.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[c.name for c in workloads.CLASSES])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    started = time.monotonic()
    deadline = started + MAX_WALL_S
    root = os.getcwd()
    dg = load_decograph(root)
    w = workloads.make(dg, load_pinned())[args.workload]
    tally = Tally()

    time_item(w, warmup_item(w))
    pinned_checks(w, tally)

    if args.trace:
        metrics = traced_metrics(dg, w, args.seed, args.seconds, tally, root, deadline)
    else:
        probes = SetupProbes(w.name, args.seconds)
        rounds = measure(w, args.seed, args.seconds, tally, deadline=deadline, probes=probes)
        times = [t for r in rounds for t in r]
        p = w.tail_percentile
        tail = percentile(times, p)
        beyond = sum(t > tail for t in times)
        print(f"# {w.name}: {len(times)} items in {len(rounds)} rounds; "
              f"latency_tail_ms is p{p} with {beyond} samples beyond it; "
              f"fail_ratio {tally.failed / tally.attempted:.4f}")
        metrics = {
            "throughput_items_per_s": (len(times) / sum(times), "1/s"),
            "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "latency_tail_ms": (tail * 1e3, "ms"),
            "setup_s": (probes.median(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
