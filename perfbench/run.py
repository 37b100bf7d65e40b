#!/usr/bin/env python3
"""Time-to-verdict benchmark for ballobs.

    python3 perfbench/run.py --workload {obstructed,witness,cli-cold}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing, ``src`` is
put on the path here.  One process, one problem at a time (a closed loop with
a single client).  A pass runs every problem of the workload once, in an
order shuffled from the seed; passes repeat until ``--seconds`` are spent,
the last one skipping the problems that would overrun.  Every output is
checked, and verdicts and counts must repeat exactly from pass to pass; a
wrong answer prints ``"correct": false`` and exits 1.

Every time is scaled to a reference machine speed.  The machine is shared,
and its speed moves by 1.4x and more within tens of milliseconds and between
regimes lasting minutes, the CPU time of this process included; best-of-N
call times still spread by over 30% between runs of the same code.  So a
fixed pure-Python loop (``reference_loop``) is timed right before and right
after each timed call, and a call's time is its summed wall time over the
loop's summed time, times ``REFERENCE_S``: a call that ran while the machine
was 1.4x slow is counted at the time it takes on the quiet machine.  The
loop shares no code with ballobs, so a change to the program moves only the
call's time.  With ``--trace 0`` the end-to-end metrics are reported:

* ``setup_s``: imports plus problem construction in a fresh interpreter
  (see setup_probe.py), scaled over 15 samples spread evenly over the run;
* ``solve_s``: sum over the workload's calls of each call's scaled time over
  the run's passes, the first pass (cold caches) left out;
* ``call_p50_ms``: median over the workload's calls of those per-call times
  (a call is one problem, or one CLI process), as the Harrell-Davis
  estimate: with 6 to 19 calls the middle call alone carries its own noise,
  the weighted estimate averages it with its neighbours;
* ``decided_frac``: share of calls with a definite verdict or a complete
  class count; an INCONCLUSIVE verdict or an exhausted budget is undecided;
* ``peak_rss_mb``: peak resident memory of this process, or for
  ``cli-cold`` of its children.

With ``--trace 1`` the per-layer metrics are reported instead (see
tracer.py), from traced passes alternating with untraced ones, plus the
CLI start-up layers.  Spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from tracer import Tracer, layer_metrics, per_problem_counts

SETUP_SAMPLES = 15
# Wall seconds of reference_loop() on a quiet 2-core KVM guest (Intel Xeon
# host) with Python 3.11: the speed that every reported time is scaled to.
REFERENCE_S = 0.0027
CLI_LAYER_SAMPLES = 5
SCRUBBED_ENV = ("BALLOBS_KERNELS", "BALLOBS_NODE_BUDGET", "BALLOBS_TIME_BUDGET")


def reference_loop() -> int:
    """A fixed pure-Python load (integer arithmetic, a dict, a sort) whose
    wall time gauges how fast the machine runs this process right now."""
    total, buckets = 0, {}
    for i in range(20000):
        total += i * i % 7
        buckets[i % 97] = buckets.get(i % 97, 0) + total
    return total + len(sorted(buckets.values()))


def _reference_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def timed_call(fn):
    """Call ``fn()``; return its result, its wall seconds, and the mean wall
    seconds of the reference loop run just before and just after it."""
    before = _reference_seconds()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = _reference_seconds()
    return result, wall, (before + after) / 2


def scaled_seconds(samples) -> float:
    """Seconds at the reference speed from (wall, reference) pairs: the summed
    wall time over the summed reference time, times ``REFERENCE_S``.  A ratio
    of sums, not a median of ratios: one short timing of the reference loop
    often misses a slow spell that the call ran through, so a median of
    ratios drifts up with the machine's load."""
    return REFERENCE_S * sum(w for w, _ in samples) / sum(r for _, r in samples)


class Run:
    """Calls, failures, wrong answers and per-pass call timings of one run."""

    def __init__(self, ops, seed):
        self.ops = ops
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.decided: dict[str, bool] = {}
        self.last_wall: dict[str, float] = {}
        self.errors: list[str] = []
        self.signatures: dict[str, tuple] = {}
        self.passes: list[dict[str, tuple[float, float]]] = []

    def one_pass(self, tracer: Tracer | None = None, pass_id=None, deadline=None) -> float:
        """Run every op once in shuffled order, keep each op's (wall,
        reference) seconds in ``passes`` and return the pass's wall seconds.  With a ``deadline``
        (a ``perf_counter`` reading), skip the ops whose last call would not
        end before it."""
        order = list(self.ops)
        self.rng.shuffle(order)
        times, pass_wall = {}, 0.0
        for op in order:
            if deadline is not None and time.perf_counter() + self.last_wall.get(op.id, 0.0) > deadline:
                continue
            if tracer is not None:
                tracer.problem = (pass_id, op.id)
            self.attempted += 1
            try:
                outcome, wall, ref = timed_call(lambda: op.run(tracer is not None))
            except Exception:
                self.failed += 1
                print(f"{op.id}: failed\n{traceback.format_exc()}", file=sys.stderr)
                continue
            times[op.id] = (wall, ref)
            pass_wall += wall
            self.last_wall[op.id] = wall
            self.decided[op.id] = outcome.decided
            if outcome.error:
                self.errors.append(outcome.error)
            if self.signatures.setdefault(op.id, outcome.signature) != outcome.signature:
                self.errors.append(f"{op.id}: result changed between passes")
            if tracer is not None:
                tracer.adopt(outcome.spans)
        if times:
            self.passes.append(times)
        return pass_wall

    def decided_frac(self) -> float:
        """Share of the workload's calls with a definite answer (it repeats
        exactly from pass to pass, so one pass decides it)."""
        return sum(self.decided.get(op.id, False) for op in self.ops) / len(self.ops)

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def call_samples(passes) -> dict[str, list[tuple[float, float]]]:
    """Each call's (wall, reference) pairs over the given passes."""
    by_op: dict[str, list[tuple[float, float]]] = {}
    for times in passes:
        for op_id, sample in times.items():
            by_op.setdefault(op_id, []).append(sample)
    return by_op


def per_call_seconds(passes) -> list[float]:
    """Each call's time at the reference speed over the given passes."""
    return [scaled_seconds(samples) for samples in call_samples(passes).values()]


def harrell_davis_median(values) -> float:
    """The Harrell-Davis estimate of the median: the mean of the order
    statistics weighted by a Beta((n+1)/2, (n+1)/2) density.  Every value
    contributes, the middle ones most, so it moves less with the noise of one
    value than the middle value does."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)
    steps = 200 * n
    weights = [0.0] * n
    for j in range(steps):
        t = (j + 0.5) / steps
        weights[int(t * n)] += math.exp((a - 1) * math.log(t * (1 - t)) - log_beta)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _child(cmd) -> str:
    out = subprocess.run(cmd, env=workloads.child_env(), capture_output=True, text=True,
                         timeout=120, check=True)
    return out.stdout


def _median_child_seconds(cmd, samples) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        _child(cmd)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SetupProbe:
    """Set-up times from fresh interpreters, sampled at even intervals over the
    run so that their median does not hang on one moment of machine load."""

    def __init__(self, workload: str, seconds: float):
        self.cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "setup_probe.py"),
                    workload]
        self.interval = seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        self.due = 0.0
        _child(self.cmd)  # writes the .pyc files; not a sample

    def catch_up(self, elapsed: float) -> None:
        while elapsed >= self.due and len(self.samples) < SETUP_SAMPLES:
            out, _, ref = timed_call(lambda: _child(self.cmd))
            self.samples.append((float(out), ref))
            self.due += self.interval


def end_to_end(wl, args) -> tuple[dict, Run]:
    probe = SetupProbe(wl.name, args.seconds)
    run = Run(wl.build(), args.seed)
    began = time.perf_counter()
    run.one_pass()  # warm-up: fills the program's caches and times each call
    while True:
        probe.catch_up(time.perf_counter() - began)
        # The first timed pass is whole; later ones stop at the deadline.
        if not run.one_pass(deadline=began + args.seconds if len(run.passes) > 1 else None):
            break
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    per_call = per_call_seconds(run.passes[1:])
    print(f"passes: {len(run.passes)} (the first is warm-up), set-up samples: "
          f"{len(probe.samples)}, calls / wall seconds per pass: "
          + " ".join(f"{len(p)}/{sum(w for w, _ in p.values()):.3f}" for p in run.passes),
          file=sys.stderr)
    return run.result({
        "setup_s": _metric(scaled_seconds(probe.samples), "s"),
        "solve_s": _metric(sum(per_call), "s"),
        "call_p50_ms": _metric(harrell_davis_median(per_call) * 1e3, "ms"),
        "decided_frac": _metric(run.decided_frac(), "ratio"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MiB"),
    }), run


def cli_layer() -> dict:
    """Interpreter start, CLI import, and warm in-process ``main`` per subcommand."""
    interp_s = _median_child_seconds([sys.executable, "-c", "pass"], CLI_LAYER_SAMPLES)
    import_s = _median_child_seconds([sys.executable, "-c", "import ballobs.cli"],
                                     CLI_LAYER_SAMPLES) - interp_s
    out = {"cli.interp_s": _metric(interp_s, "s"), "cli.import_s": _metric(import_s, "s")}
    import ballobs.cli
    for name, argv in workloads.CLI_COMMANDS:
        times = []
        for _ in range(CLI_LAYER_SAMPLES + 1):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                ballobs.cli.main(["--format", "json", *argv])
            times.append(time.perf_counter() - start)
        out[f"cli.main_ms.{name}"] = _metric(statistics.median(times[1:]) * 1e3, "ms")
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if "_frac" in name or "_per_" in name or "share" in name:
        return "ratio"
    return "count"


def per_layer(wl, args) -> tuple[dict, Run]:
    """Alternate untraced and traced passes; report per-layer metrics."""
    tracer = Tracer()
    tracer.install()
    tracer.problem = ("setup", None)
    run = Run(wl.build(), args.seed)
    tracer.uninstall()
    setup_spans = list(tracer.spans)
    tracer.spans.clear()

    traced_spans = []
    began = time.perf_counter()
    run.one_pass()  # warm-up
    pair_wall = 0.0
    while len(traced_spans) < 2 or time.perf_counter() - began + pair_wall <= args.seconds:
        pair_wall = run.one_pass()
        tracer.install()
        pair_wall += run.one_pass(tracer, pass_id=len(traced_spans))
        tracer.uninstall()
        traced_spans.append(tracer.spans[:])
        tracer.spans.clear()
    plain, traced = run.passes[1::2], run.passes[2::2]

    per_pass = [layer_metrics(setup_spans + spans) for spans in traced_spans]
    metrics = {name: _metric(statistics.median(p[name] for p in per_pass), layer_unit(name))
               for name in per_pass[0]}
    counts = [{op: row for (_, op), row in per_problem_counts(spans).items()}
              for spans in traced_spans]
    if any(c != counts[0] for c in counts[1:]):
        run.errors.append("kernel calls or search counts differ between traced passes")
    metrics["trace.overhead_frac"] = _metric(
        sum(per_call_seconds(traced)) / sum(per_call_seconds(plain)) - 1, "ratio")
    metrics.update(cli_layer())

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    with open(workloads.OUT_DIR / f"spans-{wl.name}.jsonl", "w") as fh:
        fh.write(json.dumps({"workload": wl.name, "seed": args.seed}) + "\n")
        for span in setup_spans + [s for spans in traced_spans for s in spans]:
            fh.write(json.dumps(span) + "\n")
    return run.result(metrics), run


def environment() -> str:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    numba = importlib.util.find_spec("numba") is not None
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy_version} numba_importable={numba}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "ballobs" / "__init__.py").is_file():
        print(f"error: no ballobs sources under {workloads.SRC}", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(workloads.SRC))

    wl = workloads.WORKLOADS[args.workload]
    print(f"workload={wl.name} seed={args.seed} node_budget={wl.budget} "
          f"trace={args.trace} {environment()}", file=sys.stderr)
    result, run = (per_layer if args.trace else end_to_end)(wl, args)
    for op_id, samples in sorted(call_samples(run.passes[1:]).items()):
        print(f"  {op_id:<18} scaled {scaled_seconds(samples) * 1e3:8.1f} ms  wall median "
              f"{statistics.median(w for w, _ in samples) * 1e3:8.1f} ms  "
              f"{str(run.signatures[op_id])[:80]!r}", file=sys.stderr)
    for error in run.errors:
        print(f"WRONG: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
