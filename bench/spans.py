"""Per-layer tracing of domrec, installed from outside the package.

The tracer replaces every module binding of a few public functions with a
wrapper that records a span around each call: its name, its start, its end
and the span that was open when it began (its parent).  A span is folded into
per-name totals when it closes, so memory stays flat however many calls a
run makes.  A layer's self time is its spans' durations minus the part their
child spans cover.

Bindings are found by identity: `from .domination import dominating_table`
binds the same function object in `theorems` and `reconfig`, and every such
binding is wrapped.  A name a later version of domrec removes or renames is
reported as absent, not as an error.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
from collections import Counter

#: The domrec modules whose public functions are layers.
MODULES = ("graphs", "domination", "theorems", "reconfig", "cli")

#: (span name, module defining the function, public function name).
WRAPPED = (
    ("graphs.enumerate", "graphs", "enumerate_labeled_graphs"),
    ("domination.table", "domination", "dominating_table"),
    ("domination.profile", "domination", "domination_profile"),
    ("theorems.computed_eulerian", "theorems", "computed_eulerian"),
    ("theorems.witness", "theorems", "odd_degree_witness"),
    ("theorems.claim", "theorems", "verify_claim"),
    ("reconfig.build", "reconfig", "build_reconfig"),
    ("reconfig.report", "reconfig", "eulerian_report"),
    ("reconfig.circuit", "reconfig", "euler_circuit"),
    ("reconfig.product", "reconfig", "cartesian_product"),
    ("cli", "cli", "run_cli"),
)

#: Spans across which the rise of the process's peak RSS is recorded.
RSS_SPANS = frozenset({"reconfig.build", "reconfig.circuit", "cli"})


def _max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _count(counts: Counter, span: str, args, kwargs, result):
    """Add the work counts of one call, taken from its arguments or result.
    For a claim, return the key under which its inclusive time is summed."""
    if span == "domination.table":
        counts["domination.table.subsets"] += 1 << args[0].n
    elif span == "theorems.witness":
        counts["theorems.witness.hits"] += result is not None
    elif span == "theorems.claim":
        claim = args[0] if args else kwargs["claim"]
        return f"theorems.claim.{getattr(claim, 'value', claim)}"
    elif span == "reconfig.build":
        counts["reconfig.build.nodes"] += result.node_count
        counts["reconfig.build.edges"] += result.edge_count
    elif span == "reconfig.circuit":
        counts["reconfig.circuit.edges"] += len(result) - 1
    return None


#: Spans whose calls feed `_count`.
COUNTED = frozenset({"domination.table", "theorems.witness", "theorems.claim",
                     "reconfig.build", "reconfig.circuit"})

_FAILED = object()

#: The per-pass totals a Tracer keeps.
TOTALS = ("calls", "self_ns", "inclusive_ns", "counts", "rss_growth_kib")


class Tracer:
    """Span recorder: `install`, run a pass, `uninstall`, `take` its totals.

    Spans are timed with `clock`, a function returning ns (the worker's
    reference-speed clock).

    An open span is a frame [child_ns, built] on `stack`, innermost last;
    its name and start live in the wrapper that opened it.  `built` marks a
    span under which a reconfiguration graph was built.  The tracer's own
    work between a wrapper's entry and exit is charged to no span: the
    parent's child time grows by the whole wrapper, the span's by its call.
    """

    def __init__(self, clock):
        self.clock = clock
        self.stack: list[list] = []
        self.present: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        for name in TOTALS:
            setattr(self, name, Counter())

    def take(self) -> dict:
        """The totals recorded since the last `take`, which are then reset."""
        totals = {name: getattr(self, name) for name in TOTALS}
        self._reset()
        return totals

    def _close(self, span: str, entered: int, duration: int, frame: list,
               rss_kib: int, args, kwargs, result):
        child_ns, built = frame
        self.calls[span] += 1
        self.self_ns[span] += duration - child_ns
        if result is not _FAILED and span in COUNTED:
            key = _count(self.counts, span, args, kwargs, result)
            if key is not None:
                self.inclusive_ns[key] += duration
        if span in RSS_SPANS:
            self.rss_growth_kib[span] += _max_rss_kib() - rss_kib
        built = built or span == "reconfig.build"
        if span == "theorems.computed_eulerian" and not built:
            self.counts["theorems.settled_unbuilt"] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[0] += self.clock() - entered
            parent[1] = parent[1] or built

    # -- wrappers -------------------------------------------------------

    def _wrap_function(self, span: str, fn):
        stack, close, clock = self.stack, self._close, self.clock
        rss = span in RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            rss_kib = _max_rss_kib() if rss else 0
            frame = [0, False]
            stack.append(frame)
            result = _FAILED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                close(span, entered, duration, frame, rss_kib, args, kwargs, result)

        return traced

    def _wrap_generator(self, span: str, fn):
        """Each next() of the generator is one span; yielded items are counted."""
        stack, close, clock, tracer = self.stack, self._close, self.clock, self
        items = f"{span}.items"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    entered = clock()
                    frame = [0, False]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        duration = clock() - start
                        stack.pop()
                        close(span, entered, duration, frame, 0, args, kwargs, _FAILED)
                    tracer.counts[items] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the functions of WRAPPED in every domrec module that binds them."""
        importlib.import_module("domrec")
        for module_name in MODULES:
            try:
                importlib.import_module(f"domrec.{module_name}")
            except ImportError:
                pass
        for span, module_name, attr in WRAPPED:
            original = getattr(sys.modules.get(f"domrec.{module_name}"), attr, None)
            if not callable(original):
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(span, original)
            else:
                wrapper = self._wrap_function(span, original)
            for module in [m for name, m in sys.modules.items()
                           if name == "domrec" or name.startswith("domrec.")]:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
            self.present.add(span)

    def absent(self) -> list[str]:
        """Spans whose function this domrec does not define."""
        return sorted({span for span, _, _ in WRAPPED} - self.present)

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()


def _mib(kib: int) -> float:
    return kib / 1024


def layer_metrics(totals: dict, claims) -> dict:
    """The per-layer metrics of one traced pass, from `Tracer.take()`.

    RSS growth is the rise of the process's high-water mark across the
    layer's spans in that pass.
    """
    calls, self_ns, counts = totals["calls"], totals["self_ns"], totals["counts"]

    def seconds(span):
        return self_ns[span] / 1e9

    table_subsets = counts["domination.table.subsets"]
    verdicts = calls["theorems.computed_eulerian"]
    metrics = {
        "graphs.enumerate.graphs": (counts["graphs.enumerate.items"], "count"),
        "graphs.enumerate.self_s": (seconds("graphs.enumerate"), "s"),
        "domination.table.calls": (calls["domination.table"], "count"),
        "domination.table.subsets": (table_subsets, "count"),
        "domination.table.self_s": (seconds("domination.table"), "s"),
        "domination.table.ns_per_subset": (
            self_ns["domination.table"] / table_subsets if table_subsets else 0.0, "ns"),
        "domination.profile.calls": (calls["domination.profile"], "count"),
        "domination.profile.self_s": (seconds("domination.profile"), "s"),
        "theorems.computed_eulerian.calls": (verdicts, "count"),
        "theorems.computed_eulerian.self_s": (seconds("theorems.computed_eulerian"), "s"),
        "theorems.witness.calls": (calls["theorems.witness"], "count"),
        "theorems.witness.hits": (counts["theorems.witness.hits"], "count"),
        "theorems.witness.self_s": (seconds("theorems.witness"), "s"),
        "theorems.witness.hit_ratio": (
            counts["theorems.settled_unbuilt"] / verdicts if verdicts else 0.0, "ratio"),
    }
    for claim in claims:
        key = f"theorems.claim.{claim}"
        metrics[f"{key}.s"] = (totals["inclusive_ns"][key] / 1e9, "s")
    rss_growth_kib = totals["rss_growth_kib"]
    metrics.update({
        "theorems.runner.self_s": (seconds("theorems.claim"), "s"),
        "reconfig.build.calls": (calls["reconfig.build"], "count"),
        "reconfig.build.nodes": (counts["reconfig.build.nodes"], "count"),
        "reconfig.build.edges": (counts["reconfig.build.edges"], "count"),
        "reconfig.build.self_s": (seconds("reconfig.build"), "s"),
        "reconfig.build.maxrss_growth_mib": (_mib(rss_growth_kib["reconfig.build"]), "MiB"),
        "reconfig.report.calls": (calls["reconfig.report"], "count"),
        "reconfig.report.self_s": (seconds("reconfig.report"), "s"),
        "reconfig.circuit.edges": (counts["reconfig.circuit.edges"], "count"),
        "reconfig.circuit.self_s": (seconds("reconfig.circuit"), "s"),
        "reconfig.circuit.maxrss_growth_mib": (
            _mib(rss_growth_kib["reconfig.circuit"]), "MiB"),
        "reconfig.product.calls": (calls["reconfig.product"], "count"),
        "reconfig.product.self_s": (seconds("reconfig.product"), "s"),
        "cli.self_s": (seconds("cli"), "s"),
        "cli.maxrss_growth_mib": (_mib(rss_growth_kib["cli"]), "MiB"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
