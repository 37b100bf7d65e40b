"""Guards for the scripts outside the package that reach into it by name.

``perfbench/tracer.py`` wraps ballobs functions by module attribute and
silently skips a name that no longer exists, so a rename would zero that
layer's metrics without failing anything.  ``perfbench/workloads.py`` and
``benchmarks/bench_search.py`` build their problems from the public entry
points.  All three files are loaded by path and left unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load(relpath, name):
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    # Registered first: a dataclass looks its module up while it is defined.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    tracer = load("perfbench/tracer.py", "perfbench_tracer")
    assert tracer.WRAPPED
    for _layer, module_name, attr in tracer.WRAPPED:
        assert module_name.startswith("ballobs.")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("name, decided, total", [
    ("obstructed", 11, 11), ("witness", 17, 19), ("cli-cold", 6, 6)])
def test_perfbench_workload_pass(name, decided, total):
    # One untraced pass of every operation, checked as the benchmark checks
    # it: two of the witness workload's ball sets run out of their budget.
    workloads = load("perfbench/workloads.py", "perfbench_workloads")
    outcomes = [op.run(False) for op in workloads.WORKLOADS[name].build()]
    assert [outcome.error for outcome in outcomes] == [None] * total
    assert sum(outcome.decided for outcome in outcomes) == decided


def test_chain_ops_complete_under_their_budget():
    # A chain classification cut by its budget returns a report that
    # perfbench's chain op counts as decided, so every chain op must finish
    # under the obstructed workload's budget with its recorded class count.
    from ballobs import lattice, obstruction
    workloads = load("perfbench/workloads.py", "perfbench_workloads")
    limits = lattice.SearchLimits(node_budget=workloads.OBSTRUCTED_BUDGET)
    for n, count in workloads.CHAIN_CLASS_COUNTS.items():
        report = obstruction.lemma_cemb_report(n, 4 * n, limits=limits)
        assert (report.statistics.limit_hit, report.class_count) == (False, count), n


SMOKE_RUNGS = ("Fibonacci pair (1,2)", "Fibonacci pair (2,2)", "Fibonacci pair (2,3)",
               "Fibonacci pair (3,3)", "chain n=2 in Z^8", "chain n=3 in Z^12",
               "cold CLI markov list --max 1000", "cold CLI obstruct 3,1")


@pytest.fixture(scope="module")
def ladder():
    rungs = {label: (run, expected)
             for label, run, expected in load("benchmarks/bench_search.py",
                                              "bench_search").ladder()}
    assert set(SMOKE_RUNGS) <= set(rungs)
    return rungs


@pytest.mark.parametrize("label", SMOKE_RUNGS)
def test_ladder_rung(ladder, label):
    run, expected = ladder[label]
    verdict, stats = run()
    assert (verdict, stats.classes) == expected
    assert not stats.limit_hit


def test_baseline_worker():
    # A --baseline run drives one such worker per tree; this tree's worker
    # lists the same ladder and answers a rung.
    bench = load("benchmarks/bench_search.py", "bench_search")
    labels = [label for label, _, _ in bench.ladder()]
    worker = bench.Worker(str(ROOT))
    try:
        assert worker.labels == labels
        out = worker.run(labels.index("Fibonacci pair (1,2)"))
    finally:
        worker.close()
    assert (out["verdict"], out["classes"]) == ("OBSTRUCTED", 3)
    assert out["wall"] > 0 and out["nodes"] >= out["leaves"] == 3
