"""Spans at the program's module boundaries, installed from outside it.

For the length of a traced pass, ``patched`` rebinds the names a calling
module imported from another layer (``modaltab.tableau.print_formula``,
``modaltab.enumeration._backend.find_first``, ...) to wrappers that
record spans, and restores them afterwards.  A layer's recursion into
itself keeps calling the original function, so it stays inside one span.
Nothing in the program changes.

Each span records its name, start, end, parent span and query id; spans
stay in memory and are written out once the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# Per-layer metrics of a traced run, with units.  Names ending in ``_s``
# are self times unless listed in INCLUSIVE; README.md maps each one to
# the end-to-end metric and workload it should move.
LAYER_METRICS = {
    "syntax.parse_s": "s",
    "syntax.parse_calls": "count",
    "syntax.print_s": "s",
    "syntax.print_calls": "count",
    "syntax.transform_s": "s",
    "tableau.decide_self_s": "s",
    "tableau.decide_calls": "count",
    "tableau.replay_self_s": "s",
    "tableau.serialize_s": "s",
    "tableau.extract_s": "s",
    "tableau.proof_nodes": "count",
    "tableau.proof_beta_nodes": "count",
    "tableau.witness_worlds": "count",
    "tableau.resource_limits": "count",
    "semantics.reverify_s": "s",
    "semantics.reverify_calls": "count",
    "enumeration.kernel_s": "s",
    "enumeration.kernel_calls": "count",
    "enumeration.full_sweeps": "count",
    "enumeration.find_self_s": "s",
    "enumeration.compile_s": "s",
    "enumeration.relations_scanned": "count",
    "enumeration.models_evaluated": "count",
    "enumeration.frame_accept_ratio": "ratio",
    "enumeration.models_per_s": "1/s",
    "enumeration.minimize_s": "s",
    "enumeration.minimize_calls": "count",
    "arguments.analyze_s": "s",
    "arguments.frame_search_s": "s",
    "arguments.frame_search_decides": "count",
    "arguments.suite_s": "s",
    "cli.main_self_s": "s",
    "cli.output_bytes": "B",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.harness_self_s": "s",
    "trace.self_sum_share": "ratio",
    "trace.overhead_share": "ratio",
}

# Span names whose metric is the inclusive duration, children included.
INCLUSIVE = {"enumeration.minimize", "arguments.analyze", "arguments.frame_search", "arguments.suite"}

# metric name -> span name, for the metrics read straight off the spans
_SPAN_TIMES = {
    "syntax.parse_s": "syntax.parse",
    "syntax.print_s": "syntax.print",
    "syntax.transform_s": "syntax.transform",
    "tableau.decide_self_s": "tableau.decide",
    "tableau.replay_self_s": "tableau.replay",
    "tableau.serialize_s": "tableau.serialize",
    "tableau.extract_s": "tableau.extract",
    "semantics.reverify_s": "semantics.reverify",
    "enumeration.kernel_s": "enumeration.kernel",
    "enumeration.find_self_s": "enumeration.find",
    "enumeration.compile_s": "enumeration.compile",
    "enumeration.minimize_s": "enumeration.minimize",
    "arguments.analyze_s": "arguments.analyze",
    "arguments.frame_search_s": "arguments.frame_search",
    "arguments.suite_s": "arguments.suite",
    "cli.main_self_s": "cli.main",
    "trace.harness_self_s": "bench.query",
}
_SPAN_CALLS = {
    "syntax.parse_calls": "syntax.parse",
    "syntax.print_calls": "syntax.print",
    "tableau.decide_calls": "tableau.decide",
    "semantics.reverify_calls": "semantics.reverify",
    "enumeration.kernel_calls": "enumeration.kernel",
    "enumeration.minimize_calls": "enumeration.minimize",
}


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.query_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.under: Counter = Counter()  # (span name, parent span name) -> calls
        self.counts: Counter = Counter()  # counters taken at the boundaries
        self.kernel_calls: list[tuple] = []  # find_first arguments and result
        self.query = -1
        self._stack: list[list] = []  # [span index, child seconds] per open span
        self._gc_start = 0.0

    def wrap(self, name: str, fn, after=None, on_error=None):
        """``fn`` recorded as a span; ``after(result, args)`` and
        ``on_error(exc)`` run once the span has closed."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.name_col)
            self.name_col.append(nid)
            self.parent_col.append(stack[-1][0] if stack else -1)
            self.query_col.append(self.query)
            self.start_col.append(0.0)
            self.end_col.append(0.0)
            open_span = [index, 0.0]
            stack.append(open_span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(open_span, name, start, clock())
                if on_error is not None:
                    on_error(exc)
                raise
            self._close(open_span, name, start, clock())
            if after is not None:
                after(result, args)
            return result

        return traced

    def _close(self, open_span: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        index, child = open_span
        self.start_col[index] = start
        self.end_col[index] = end
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = self.parent_col[index]
        if parent >= 0:
            self._stack[-1][1] += duration
            self.under[name, self.names[self.name_col[parent]]] += 1

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["runtime.gc_s"] += time.perf_counter() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON columns, indexed by span id."""
        doc = {
            "names": self.names,
            "name": list(self.name_col),
            "parent": list(self.parent_col),
            "query": list(self.query_col),
            "start": list(self.start_col),
            "end": list(self.end_col),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class _KernelProxy:
    """Stands in for the kernel module inside ``modaltab.enumeration``;
    only ``find_first`` is traced."""

    def __init__(self, module, find_first):
        self._module = module
        self.find_first = find_first

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def patched(tracer: Tracer, modaltab, api):
    """Rebind the boundary names of every calling module, and the entry
    points on the harness's ``api``, for the body."""
    arguments, cli, enumeration, tableau = (
        modaltab.arguments, modaltab.cli, modaltab.enumeration, modaltab.tableau)
    counts = tracer.counts

    def on_decide_error(exc):
        if isinstance(exc, tableau.ResourceLimit):
            counts["tableau.resource_limits"] += 1

    def after_extract(witness, args):
        counts["tableau.witness_worlds"] += witness.model.world_count

    def after_roundtrip(result, args):
        nodes = result[1]["nodes"]
        counts["tableau.proof_nodes"] += len(nodes)
        counts["tableau.proof_beta_nodes"] += sum(n["rule"] == "beta" for n in nodes)

    def after_kernel(hit, args):
        tracer.kernel_calls.append((args[0], args[1], args[2], hit))
        counts["enumeration.full_sweeps"] += hit is None

    spans = {
        "syntax.parse": [(tableau, "parse"), (cli, "parse"), (arguments, "parse")],
        "syntax.print": [(tableau, "print_formula"), (cli, "print_formula"),
                         (arguments, "print_formula")],
        "syntax.transform": [(tableau, "desugar"), (tableau, "nnf"), (enumeration, "desugar"),
                             (cli, "desugar")],
        "tableau.decide": [(arguments, "decide"), (arguments, "prove_valid"),
                           (cli, "prove_valid"), (api, "decide")],
        "tableau.serialize": [(api, "roundtrip")],
        "tableau.replay": [(api, "check_proof")],
        "tableau.extract": [(tableau, "extract_countermodel")],
        "semantics.reverify": [(tableau, "evaluate"), (tableau, "holds_globally"),
                               (tableau, "frame_satisfies"), (enumeration, "_reverify")],
        "enumeration.compile": [(enumeration, "compile_formula")],
        "enumeration.find": [(cli, "find_countermodel"), (enumeration, "find_countermodel"),
                             (api, "find_countermodel")],
        "enumeration.minimize": [(arguments, "minimize_countermodel"), (cli, "_minimized")],
        "arguments.analyze": [(cli, "analyze")],
        "arguments.frame_search": [(arguments, "frame_requirement_search")],
        "cli.main": [(api, "cli_main")],
    }
    hooks = {
        "tableau.decide": (None, on_decide_error),
        "tableau.extract": (after_extract, None),
        "tableau.serialize": (after_roundtrip, None),
    }
    saved: list[tuple] = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for name, sites in spans.items():
            after, on_error = hooks.get(name, (None, None))
            for owner, attr in sites:
                rebind(owner, attr, tracer.wrap(name, getattr(owner, attr), after, on_error))
        backend = enumeration._backend
        rebind(enumeration, "_backend", _KernelProxy(
            backend, tracer.wrap("enumeration.kernel", backend.find_first, after_kernel)))
        proof_class = tableau.ProofObject
        rebind(proof_class, "to_json", tracer.wrap("tableau.serialize", proof_class.to_json))
        rebind(cli, "_SUITES", {key: tracer.wrap("arguments.suite", runner)
                                for key, runner in cli._SUITES.items()})
        gc.callbacks.append(tracer._gc_callback)
        yield
    finally:
        if tracer._gc_callback in gc.callbacks:
            gc.callbacks.remove(tracer._gc_callback)
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class FrameAcceptance:
    """How many relations of each size pass a frame mask, counted with the
    reference ``semantics.frame_satisfies`` in the kernel's relation
    order; prefix counts are cached per (worlds, frame mask)."""

    def __init__(self, modaltab) -> None:
        self._m = modaltab
        conditions = list(modaltab.semantics.FrameCondition)
        mask_of = modaltab.enumeration.frame_mask
        self._bits = [(c, mask_of(frozenset({c}))) for c in conditions]
        self._prefix: dict[tuple[int, int], list[int]] = {}

    def accepted_before(self, n: int, mask: int, rel: int) -> int:
        """Accepted relations among relation bits 0 .. rel-1."""
        prefix = self._prefix.setdefault((n, mask), [0])
        conditions = [c for c, bit in self._bits if mask & bit]
        enum, sem = self._m.enumeration, self._m.semantics
        while len(prefix) <= rel:
            r = len(prefix) - 1
            model = sem.KripkeModel(n, enum.relation_from_bits(n, r))
            ok = all(sem.frame_satisfies(model, c) for c in conditions)
            prefix.append(prefix[-1] + ok)
        return prefix[rel]


def kernel_work(tracer: Tracer, acceptance: FrameAcceptance) -> dict[str, float]:
    """Relations scanned, frame-accepted relations and models evaluated,
    computed from each ``find_first`` call's arguments and result under
    the pinned order: world count, then relation bits, then valuation
    bits; the kernel stops at the first hit."""
    scanned = accepted = models = 0
    for max_worlds, atom_count, mask, hit in tracer.kernel_calls:
        last = hit[0] if hit is not None else max_worlds
        for n in range(1, last + 1):
            valuations = 1 << (atom_count * n)
            if hit is not None and n == last:
                _, rel, val, _ = hit
                before = acceptance.accepted_before(n, mask, rel)
                scanned += rel + 1
                accepted += before + 1
                models += before * valuations + val + 1
            else:
                every = acceptance.accepted_before(n, mask, 1 << (n * n))
                scanned += 1 << (n * n)
                accepted += every
                models += every * valuations
    return {"scanned": scanned, "accepted": accepted, "models": models}


def layer_metrics(tracer: Tracer, work: dict, traced_wall: float, traced_reference: float,
                  untraced_reference: float, output_bytes: int) -> dict[str, float]:
    """Per-layer values; times are converted to reference seconds with the
    traced pass's mean speed factor, as the end-to-end times are."""
    scale = traced_reference / traced_wall
    values: dict[str, float] = {}
    for metric, span in _SPAN_TIMES.items():
        table = tracer.total_s if span in INCLUSIVE else tracer.self_s
        values[metric] = table.get(span, 0.0) * scale
    for metric, span in _SPAN_CALLS.items():
        values[metric] = tracer.calls.get(span, 0)
    counts = tracer.counts
    for metric in ("tableau.proof_nodes", "tableau.proof_beta_nodes", "tableau.witness_worlds",
                   "tableau.resource_limits", "enumeration.full_sweeps", "runtime.gc_collections"):
        values[metric] = counts.get(metric, 0)
    values["runtime.gc_s"] = counts.get("runtime.gc_s", 0.0) * scale
    values["arguments.frame_search_decides"] = tracer.under["tableau.decide", "arguments.frame_search"]
    values["enumeration.relations_scanned"] = work["scanned"]
    values["enumeration.models_evaluated"] = work["models"]
    values["enumeration.frame_accept_ratio"] = work["accepted"] / work["scanned"] if work["scanned"] else 0.0
    kernel_s = values["enumeration.kernel_s"]
    values["enumeration.models_per_s"] = work["models"] / kernel_s if kernel_s else 0.0
    values["cli.output_bytes"] = output_bytes
    values["trace.self_sum_share"] = sum(tracer.self_s.values()) / traced_wall
    values["trace.overhead_share"] = (traced_reference - untraced_reference) / untraced_reference
    return values
