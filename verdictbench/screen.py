#!/usr/bin/env python3
"""Screen the input pools: list in ``screened.json`` the items the
tableau cannot settle within ``gen.SCREEN_MAX_LABELS`` labels (excluded)
and those that need more than ``gen.HEAVY_MAX_LABELS`` (heavy).

    python3 verdictbench/screen.py [--workload W]   # rewrite the list
    python3 verdictbench/screen.py --check          # re-test listed items

Run from the root of a source checkout.  An item is excluded when one of
the ``decide`` calls its query makes raises ``ResourceLimit`` under the
screening ceiling: the oracle and decide-mix ``decide`` itself, and for
an argument file every ``decide`` that ``modaltab.arguments`` makes for
``check``.  The ceilings count labels, so the lists do not depend on the
machine's speed.  ``--check`` reports how many listed items the current
code settles; once it settles them all, the list can be rewritten.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import gen
import run


def settles(workload, name: str, index: int, ceiling: int) -> bool:
    """Does the query of pool item ``index`` finish under the label ceiling?"""
    import modaltab.arguments
    from modaltab.tableau import ResourceLimit, decide

    item = gen.ITEMS[name](index)
    if name == "cli-corpus":
        argv, _ = workload.prepare(("file", index, item))
        capped = functools.partial(decide, max_labels=ceiling)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            modaltab.arguments.decide = capped
            try:
                code = modaltab.cli.main(argv)
            finally:
                modaltab.arguments.decide = decide
        return not (code == 2 and "ceiling" in err.getvalue())
    premises, conclusion, frame = workload.prepare(item)
    try:
        decide(premises, conclusion, frame, max_labels=ceiling)
    except ResourceLimit:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(gen.ITEMS), help="screen this pool only")
    parser.add_argument("--check", action="store_true", help="re-test the listed items")
    args = parser.parse_args(argv)
    root = Path.cwd()
    run.load_program(root)
    import workloads

    doc = json.loads(gen.SCREENED_PATH.read_text()) if gen.SCREENED_PATH.exists() else {}
    entries = doc.get("workloads", {})
    names = [args.workload] if args.workload else list(gen.ITEMS)
    with workloads.argument_dir(root) as workdir:
        for name in names:
            workload = workloads.make(name, workdir)
            if args.check:
                listed = entries[name]["excluded"]
                settled = [i for i in listed if settles(workload, name, i, gen.SCREEN_MAX_LABELS)]
                print(f"{name}: {len(settled)} of {len(listed)} excluded items now settle: {settled[:20]}")
                continue
            size = gen.PARAMS[name]["pool"]
            bad, heavy = [], []
            for i in range(size):
                if not settles(workload, name, i, gen.HEAVY_MAX_LABELS):
                    (heavy if settles(workload, name, i, gen.SCREEN_MAX_LABELS) else bad).append(i)
            entries[name] = {"pool": size, "params": gen.PARAMS[name], "excluded": bad, "heavy": heavy}
            print(f"{name}: {len(bad)} of {size} pool items excluded, {len(heavy)} heavy", flush=True)
    if not args.check:
        doc = {"screen_max_labels": gen.SCREEN_MAX_LABELS, "heavy_max_labels": gen.HEAVY_MAX_LABELS,
               "workloads": entries}
        gen.SCREENED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
