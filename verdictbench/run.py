#!/usr/bin/env python3
"""Certified-verdict benchmark for modaltab.

Run from the root of a source checkout:

    python3 verdictbench/run.py --workload {oracle,decide-mix,cli-corpus} \\
        --seed N --seconds S --trace {0,1} [--out FILE]

One client in one process sends each query only after the previous one
returned (a closed loop).  Inputs come from ``--seed`` alone and no input
repeats within a run.  Every output passes a correctness gate; a wrong
output makes the run exit 1.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, prefixed ``env``, records the kernel,
interpreter, core count, seed, generator parameters, input hash, machine
speed and the raw times.

Times are reported in reference seconds.  A fixed calibration slice runs
between timed chunks of queries; each chunk's times are scaled by how
much slower or faster than REFERENCE_SLICE_S the slices around it ran.
On a shared machine whose speed drifts by half within a minute, this
keeps a slow window apart from a slow commit.

With ``--trace 0`` the metrics are the end-to-end ones.  ``--trace 1``
first runs the loop untraced for half of ``--seconds``, then the same
queries again with spans at every module boundary, and reports per-layer
metrics plus the tracing overhead; the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

E2E_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "completed_share": "ratio",
    "rss_p50_mb": "MB",
}
SETUP_REPEATS = 15
CHUNK = 32  # queries prepared (parsed, written) per untimed step
CHUNK_S = 0.05  # measured seconds after which a chunk ends early, so slices stay close in time
HELD_OUT_SEED = 20261017  # reserved for confirming a claimed gain
TAIL_PERCENTILE = 95.0  # see README.md for why not p99
REFERENCE_SLICE_S = 0.002  # calibration slice time at the reference speed
REFERENCE_IMPORT_CAL_S = 0.00135  # set-up calibration time at the same reference speed


def load_program(root: Path):
    """Import modaltab from the checkout's ``src``, and nowhere else."""
    package = root / "src" / "modaltab"
    if not (package / "__init__.py").is_file():
        print(f"error: no modaltab sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(root / "src"))
    import modaltab
    import modaltab.cli  # noqa: F401  (loads every layer)

    if Path(modaltab.__file__).resolve().parent != package.resolve():
        print(f"error: imported modaltab from {modaltab.__file__}, not {package}", file=sys.stderr)
        raise SystemExit(2)
    return modaltab


# Run in a fresh interpreter: import modaltab.cli and time it, between
# two calibrations in the same process.  A calibration unmarshals and runs
# a fixed synthetic module, the work an import does, with the collector
# off; over ten sets of imports, scaling by it halved the spread that
# scaling by the loop's calibration slice left.
SETUP_SNIPPET = r"""
import gc, marshal, sys, time
SOURCE = "".join(
    [f"def f{i}(a, b=1, *c, **d):\n    return (a, b, c, d, {i})\n" for i in range(150)]
    + [f"class C{i}:\n    x = {i}\n    def m(self):\n        return self.x\n" for i in range(40)])
BLOB = marshal.dumps(compile(SOURCE, "<calibration>", "exec"))
def calibrate():
    gc.disable()
    start = time.perf_counter()
    for _ in range(3):
        exec(marshal.loads(BLOB), {"__name__": "calibration"})
    took = time.perf_counter() - start
    gc.enable()
    return took
def middle():
    return sorted(calibrate() for _ in range(5))[2]
before = middle()
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import modaltab.cli
took = time.perf_counter() - start
print(took, (before + middle()) / 2)
"""


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """Seconds to ``import modaltab.cli`` in fresh interpreters, raw and
    in reference seconds; a first, unrecorded import writes the bytecode
    cache as a user's first call would."""
    raw, reference = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(root / "src")], cwd=root,
                              capture_output=True, text=True, timeout=60, check=True)
        took, calibration = (float(x) for x in done.stdout.split())
        if i:
            raw.append(took)
            reference.append(took * REFERENCE_IMPORT_CAL_S / calibration)
    return raw, reference


def calibration_slice() -> float:
    """Seconds a fixed pure-Python slice takes now.  It hashes tuples,
    updates a dict and builds frozensets, the kind of work the program
    does, so its speed follows the program's as the machine drifts.  The
    cyclic collector is off meanwhile: a collection would scan whatever
    the workload left on the heap and tie the slice to the workload."""
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(4000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + 1
            frozenset((i & 7, i & 3))
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Pass:
    """What one pass of the timed loop measured."""

    latencies: array = field(default_factory=lambda: array("d"))  # reference seconds
    wall: float = 0.0  # measured seconds
    reference_wall: float = 0.0  # the same, in reference seconds
    factors: list = field(default_factory=list)  # speed factor per chunk
    rss_mb: array = field(default_factory=lambda: array("d"))  # after each chunk
    failed: int = 0
    faults: list = field(default_factory=list)


def timed_loop(workload, api, items, seconds: float, limit: float = math.inf, tracer=None,
               scope=contextlib.nullcontext) -> Pass:
    """Closed loop over ``items`` until ``seconds`` of measured time pass
    or ``limit`` queries ran.  Preparing a chunk of queries, calibrating
    and gating its outputs happen between timed chunks, outside ``scope``,
    which a traced pass uses to install its spans.  A query that raises
    ``ResourceLimit`` counts as failed."""
    from modaltab.tableau import ResourceLimit

    run = workload.run
    if tracer is not None:
        run = tracer.wrap("bench.query", run)
    clock = time.perf_counter
    done = Pass()
    slices = [calibration_slice()]
    chunks: list[array] = []  # raw latencies per chunk
    walls: list[float] = []
    attempted = 0
    pending: list = []  # prepared queries not yet run
    while attempted < limit and done.wall < seconds:
        if not pending:
            take = int(min(CHUNK, limit - attempted))
            pending = [workload.prepare(item) for item in itertools.islice(items, take)]
            if not pending:
                break
        outcomes, latencies = [], array("d")
        with scope():
            chunk_start = clock()
            for query in pending:
                if tracer is not None:
                    tracer.query = attempted
                start = clock()
                try:
                    record = run(api, query)
                except ResourceLimit:
                    record, done.failed = None, done.failed + 1
                except Exception as exc:  # a crash is a wrong output
                    record = exc
                end = clock()
                latencies.append(end - start)
                outcomes.append((query, record))
                attempted += 1
                if done.wall + end - chunk_start >= seconds or end - chunk_start >= CHUNK_S:
                    break
            walls.append(clock() - chunk_start)
        pending = pending[len(outcomes):]
        done.wall += walls[-1]
        chunks.append(latencies)
        slices.append(calibration_slice())
        done.rss_mb.append(resident_mb())
        done.faults += gate(workload, outcomes)
    # A chunk's speed factor comes from the two slices just before and
    # after it.  The machine's speed drifts within a second, so wider
    # smoothing tracked it worse: over 30 s windows of a fixed oracle
    # block, the adjacent slice left a spread of 0.03, a median of the 21
    # nearest 0.09, and no scaling 0.24.
    for k, (wall, latencies) in enumerate(zip(walls, chunks)):
        factor = 2 * REFERENCE_SLICE_S / (slices[k] + slices[k + 1])
        done.factors.append(factor)
        done.reference_wall += wall * factor
        done.latencies.extend(t * factor for t in latencies)
    return done


def resident_mb() -> float:
    """Current resident memory of this process."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:  # no procfs: fall back to the peak so far
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def gate(workload, outcomes) -> list[str]:
    faults = []
    for query, record in outcomes:
        if record is None:
            continue  # ResourceLimit, counted as failed
        if isinstance(record, Exception):
            faults.append(f"{type(record).__name__}: {record}")
            continue
        fault = workload.check(query, record)
        if fault is not None:
            faults.append(fault)
    return faults


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["oracle", "decide-mix", "cli-corpus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the env record and result to this JSON file")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    modaltab = load_program(root)
    import gen
    import spans
    import workloads

    setup_raw, setup_times = measure_setup(root)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": modaltab.KERNEL,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "params": gen.PARAMS[args.workload],
        "excluded_inputs": len(gen.excluded(args.workload)),
        "input_sha256": gen.input_sha256(args.workload, args.seed),
        "held_out_seed": HELD_OUT_SEED,
    }
    with workloads.argument_dir(root) as workdir:
        workload = workloads.make(args.workload, workdir)
        api = workloads.Api()
        seconds = args.seconds / 2 if args.trace else args.seconds
        inputs = workload.stream(gen.stream(args.workload, args.seed))
        measured = timed_loop(workload, api, inputs, seconds)
        attempted = len(measured.latencies)
        faults = measured.faults
        if args.trace:
            tracer = spans.Tracer()
            workload.output_bytes = 0
            inputs = workload.stream(gen.stream(args.workload, args.seed))
            traced = timed_loop(workload, api, inputs, math.inf, attempted, tracer,
                                lambda: spans.patched(tracer, modaltab, api))
            faults += traced.faults
            work = spans.kernel_work(tracer, spans.FrameAcceptance(modaltab))
            values = spans.layer_metrics(tracer, work, traced.wall, traced.reference_wall,
                                         measured.reference_wall, workload.output_bytes)
            units = spans.LAYER_METRICS
            tracer.write(root / ".bench_out" / f"spans-{args.workload}-{args.seed}.json.gz")

    completed = attempted - measured.failed
    latencies = sorted(measured.latencies)
    env.update({
        "queries": attempted,
        "measured_s": measured.wall,
        "raw_queries_per_s": completed / measured.wall,
        "speed_factor": {"median": statistics.median(measured.factors),
                         "min": min(measured.factors), "max": max(measured.factors)},
        "tail_percentile": TAIL_PERCENTILE,
        "samples_beyond_tail": attempted - math.ceil(TAIL_PERCENTILE / 100 * attempted),
        "setup_raw_s": setup_raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "faults": faults[:20],
    })
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "queries_per_s": completed / measured.reference_wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": percentile(latencies, TAIL_PERCENTILE) * 1e3,
            "completed_share": completed / attempted,
            "rss_p50_mb": statistics.median(measured.rss_mb),
        }
        units = E2E_UNITS
    result = {
        "correct": not faults,
        "attempted": attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "result": result}, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if not faults else 1


if __name__ == "__main__":
    sys.exit(main())
