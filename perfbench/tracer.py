"""In-memory span tracing of ballobs layers, installed from outside the package.

The tracer replaces module attributes of the loaded ``ballobs`` modules with
wrappers that record one span per call: name, start, end, parent span and the
problem being solved, plus a few counts read off the return value.  Nothing in
``ballobs`` is edited.  An attribute that does not exist is skipped, so a
later version of the program that deletes, say, ``resolve_backend`` just
loses that layer's metrics.

Layer metrics are computed from the spans afterwards; a layer's self time is
its spans' durations minus the durations of their direct children (the
program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time

# (layer span name, module, attribute).  Every loaded ballobs module that
# holds the same function object under that name is patched as well, so a
# function imported with ``from .lattice import ...`` is traced wherever the
# program calls it.
WRAPPED = (
    ("obstruction", "ballobs.obstruction", "check_obstruction"),
    ("obstruction", "ballobs.obstruction", "lemma_cemb_report"),
    ("obstruction.complement", "ballobs.obstruction", "orthogonal_complement"),
    ("obstruction.verify", "ballobs.obstruction", "verify_witness"),
    ("lattice.search", "ballobs.lattice", "search_embedding_classes"),
    ("lattice.canonical", "ballobs.lattice", "canonical_form"),
    ("markov", "ballobs.markov", "enumerate_triples"),
    ("markov", "ballobs.markov", "ball_params"),
    ("markov", "ballobs.markov", "fibonacci_ball"),
    ("contfrac", "ballobs.obstruction", "lens_plumbing"),
)
HOLDERS = ("ballobs", "ballobs.lattice", "ballobs.obstruction", "ballobs.cli")


# Counts are read with getattr so that a later shape of the result drops
# them instead of failing the call.
def _stats_attrs(stats) -> dict:
    attrs = {key: getattr(stats, key, 0) for key in ("nodes", "leaves", "classes")}
    attrs["limit_hit"] = bool(getattr(stats, "limit_hit", False))
    return attrs


def _search_attrs(result) -> dict:
    return _stats_attrs(getattr(result, "stats", None))


def _report_attrs(report) -> dict:
    return {"witnesses": len(getattr(report, "witnesses", ()))}


RESULT_ATTRS = {"lattice.search": _search_attrs, "obstruction": _report_attrs}


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Records spans while installed; ``problem`` tags every new span."""

    def __init__(self):
        self.spans: list[list] = []   # [id, name, parent, start, end, problem, attrs]
        self.problem = None
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs, attrs_of=None):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        span = [sid, name, parent, time.perf_counter(), None, self.problem, {}]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            # A search that runs out of budget raises with its partial stats.
            if name == "lattice.search":
                span[6] = _stats_attrs(getattr(exc, "stats", None))
            raise
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        if attrs_of is not None:
            span[6] = attrs_of(result)
        return result

    def _wrap(self, name, fn):
        attrs_of = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, attrs_of)
        return traced

    def _wrap_resolve_backend(self, fn):
        @functools.wraps(fn)
        def traced_resolve(*args, **kwargs):
            kernel = fn(*args, **kwargs)

            def traced_kernel(*a, **kw):
                return self._call("kernels", kernel, a, kw,
                                  lambda out: {"candidates": len(out)})
            return traced_kernel
        return traced_resolve

    def adopt(self, spans) -> None:
        """Append spans recorded by another process, renumbered and tagged
        with the current problem."""
        base = next(self._ids)
        for span in spans:
            span[0] += base
            span[2] = None if span[2] is None else span[2] + base
            span[5] = self.problem
        self._ids = itertools.count(base + len(spans) + 1)
        self.spans.extend(spans)

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, module_name, attr, replacement_of):
        original = getattr(_module(module_name), attr, None)
        if original is None:
            return
        replacement = replacement_of(original)
        for holder in map(_module, {module_name, *HOLDERS}):
            if getattr(holder, attr, None) is original:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, replacement)

    def install(self) -> None:
        for name, module_name, attr in WRAPPED:
            self._patch_everywhere(module_name, attr,
                                   lambda fn, name=name: self._wrap(name, fn))
        self._patch_everywhere("ballobs.lattice", "resolve_backend",
                               self._wrap_resolve_backend)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Layer metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from one batch of spans (e.g. one pass)."""
    dur = {s[0]: s[4] - s[3] for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] = child_time.get(s[2], 0.0) + dur[s[0]]

    def select(name):
        return [s for s in spans if s[1] == name]

    def busy(name):
        return sum(dur[s[0]] for s in select(name))

    def self_time(name):
        return sum(dur[s[0]] - child_time.get(s[0], 0.0) for s in select(name))

    def total(name, key):
        return sum(s[6].get(key, 0) for s in select(name))

    out: dict[str, float] = {}
    kernel = select("kernels")
    calls = len(kernel)
    kernel_s = busy("kernels")
    search_s = busy("lattice.search")
    out["kernels.calls"] = calls
    out["kernels.busy_s"] = kernel_s
    out["kernels.candidates"] = total("kernels", "candidates")
    out["kernels.us_per_call"] = _ratio(kernel_s * 1e6, calls)
    out["kernels.empty_frac"] = _ratio(sum(1 for s in kernel if not s[6].get("candidates")),
                                       calls)
    out["kernels.share_of_search"] = _ratio(kernel_s, search_s)

    nodes = total("lattice.search", "nodes")
    leaves = total("lattice.search", "leaves")
    classes = total("lattice.search", "classes")
    out["lattice.nodes"] = nodes
    out["lattice.leaves"] = leaves
    out["lattice.classes"] = classes
    out["lattice.leaves_per_node"] = _ratio(leaves, nodes)
    out["lattice.classes_per_leaf"] = _ratio(classes, leaves)
    out["lattice.budget_hits"] = total("lattice.search", "limit_hit")
    out["lattice.search_s"] = search_s
    out["lattice.self_s"] = self_time("lattice.search")
    out["lattice.canonical_calls"] = len(select("lattice.canonical"))
    out["lattice.canonical_s"] = busy("lattice.canonical")

    out["obstruction.busy_s"] = busy("obstruction")
    out["obstruction.self_s"] = self_time("obstruction")
    out["obstruction.complement_calls"] = len(select("obstruction.complement"))
    out["obstruction.complement_s"] = busy("obstruction.complement")
    out["obstruction.verify_calls"] = len(select("obstruction.verify"))
    out["obstruction.verify_s"] = busy("obstruction.verify")
    out["obstruction.witnesses"] = total("obstruction", "witnesses")

    out["markov.busy_s"] = busy("markov")
    out["contfrac.busy_s"] = busy("contfrac")
    return out


def per_problem_counts(spans) -> dict:
    """Search counts and kernel calls per problem, for the determinism check."""
    out: dict = {}
    for s in spans:
        row = out.setdefault(s[5], {"kernel_calls": 0, "searches": []})
        if s[1] == "kernels":
            row["kernel_calls"] += 1
        elif s[1] == "lattice.search":
            a = s[6]
            row["searches"].append((a.get("nodes"), a.get("leaves"), a.get("classes")))
    return out
