"""Seeded input generators for the three workloads.

Generators emit formula text in a fully parenthesised ASCII grammar that
``modaltab.parse`` accepts, so the inputs and their hash do not depend
on any printer of the code under test.

Each workload draws from a fixed pool: pool item ``i`` is a function of
the workload and ``i`` alone.  A run's seed picks where in the pool it
starts; the run then walks the pool in order, wrapping once, and never
yields the same query twice.  Pool items that ``screen.py`` found the
tableau cannot settle within SCREEN_MAX_LABELS labels are skipped, and
heavy ones are spread evenly; both lists are in ``screened.json`` (see
README.md, "Excluded inputs").
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Iterator

# Frame condition names in sorted order; bit i of a frame subset mask
# selects CONDITIONS[i].
CONDITIONS = ("euclidean", "reflexive", "serial", "symmetric", "transitive")

# Textbook frame conditions of the named logics, written out by hand so
# that gates never trust the table inside the code under test.
LOGIC_CONDITIONS = {
    "K": (),
    "T": ("reflexive",),
    "D": ("serial",),
    "B": ("reflexive", "symmetric"),
    "S4": ("reflexive", "transitive"),
    "S5": ("euclidean", "reflexive"),
}

# Labels the tableau may create on any one pool item before screen.py
# excludes the item.  The run ceilings below are at least twice this, so
# on the code the pool was screened against no kept item can hit one.
SCREEN_MAX_LABELS = 500
# Items that need more labels than this, but settle, are heavy.
HEAVY_MAX_LABELS = 50

ORACLE_PARAMS = {
    "atoms": ["p", "q"],
    "premises": [0, 2],
    "depth": [1, 3],
    "frames": "all 32 condition subsets, pool item i over subset i mod 32",
    "max_worlds": 3,
    "max_labels": 1000,
    "pool": 100_000,
}

DECIDE_MIX_PARAMS = {
    "atoms": ["p", "q", "r"],
    "conclusion_depth": 5,
    "premises": [0, 1],
    "premise_depth": 4,
    "logics": list(LOGIC_CONDITIONS),
    "max_labels": 10000,
    "pool": 50_000,
}

CLI_PARAMS = {
    "atoms": ["a", "b"],
    "premise1_depth": [1, 3],
    "conclusion_depth": [1, 2],
    "frames": "one or two condition names, or one logic alias",
    "minimal_frames": "every second argument file",
    "fixed_every": 3,
    "pool": 10_000,
}

_UNARY = ("~", "[]", "<>")
_BINARY = ("&", "|", "->")


def formula(rng: random.Random, depth: int, atoms: list[str], full: bool) -> str:
    """Random formula text of depth at most ``depth``.  With ``full`` every
    branch reaches ``depth``; otherwise a branch stops early at an atom
    with probability 1/7 per level."""
    if depth == 0 or (not full and rng.randrange(7) == 0):
        return rng.choice(atoms)
    op = rng.randrange(6)
    if op < 3:
        return _UNARY[op] + formula(rng, depth - 1, atoms, full)
    left = formula(rng, depth - 1, atoms, full)
    right = formula(rng, depth - 1, atoms, full)
    return f"({left} {_BINARY[op - 3]} {right})"


def subset_conditions(mask: int) -> tuple[str, ...]:
    return tuple(c for i, c in enumerate(CONDITIONS) if (mask >> i) & 1)


HASH_PREFIX = 2000  # inputs covered by the input hash
_SEEN_BITS = 1 << 24  # fixed-size duplicate filter, so memory never grows with a run
SCREENED_PATH = Path(__file__).with_name("screened.json")


def oracle_item(index: int) -> tuple:
    """(premise texts, conclusion text, condition names)."""
    rng = random.Random(f"oracle/{index}")
    lo, hi = ORACLE_PARAMS["depth"]
    atoms = ORACLE_PARAMS["atoms"]
    premises = tuple(
        formula(rng, rng.randint(lo, hi), atoms, False)
        for _ in range(rng.randint(*ORACLE_PARAMS["premises"]))
    )
    return premises, formula(rng, rng.randint(lo, hi), atoms, False), subset_conditions(index % 32)


def decide_mix_item(index: int) -> tuple:
    """(premise texts, conclusion text, logic name)."""
    rng = random.Random(f"decide-mix/{index}")
    p = DECIDE_MIX_PARAMS
    premises = tuple(
        formula(rng, p["premise_depth"], p["atoms"], True)
        for _ in range(rng.randint(*p["premises"]))
    )
    return premises, formula(rng, p["conclusion_depth"], p["atoms"], True), p["logics"][index % len(p["logics"])]


def argument_item(index: int) -> tuple:
    """A corpus-shaped argument: (premise 1 text, conclusion text, frame
    list).  Premise 2 is always the bare possibility claim ``<>a``."""
    rng = random.Random(f"cli-corpus/{index}")
    p = CLI_PARAMS
    premise = formula(rng, rng.randint(*p["premise1_depth"]), p["atoms"], False)
    conclusion = formula(rng, rng.randint(*p["conclusion_depth"]), p["atoms"], False)
    return premise, conclusion, rng.choice(_FRAME_CHOICES)


_FRAME_CHOICES = [(c,) for c in CONDITIONS]
_FRAME_CHOICES += [(a, b) for i, a in enumerate(CONDITIONS) for b in CONDITIONS[i + 1:]]
_FRAME_CHOICES += [(name,) for name in LOGIC_CONDITIONS if name != "K"]

ITEMS = {"oracle": oracle_item, "decide-mix": decide_mix_item, "cli-corpus": argument_item}
PARAMS = {"oracle": ORACLE_PARAMS, "decide-mix": DECIDE_MIX_PARAMS, "cli-corpus": CLI_PARAMS}


def screened(workload: str) -> dict:
    """screen.py's lists for the workload's pool: ``excluded`` and
    ``heavy`` pool indices, each in increasing order."""
    return json.loads(SCREENED_PATH.read_text())["workloads"][workload]


def excluded(workload: str) -> list[int]:
    return screened(workload)["excluded"]


def stream(workload: str, seed: int) -> Iterator[tuple]:
    """The run's inputs: light pool items from a seeded start, once round,
    with heavy items (from their own seeded start) spread among them at
    their share of the pool, no excluded items and no repeats.  Spreading
    the heavy items evenly keeps their count in a run from varying with
    the seed: they are one decide-mix item in a hundred but a quarter of
    its time.  The duplicate filter is a fixed bit set keyed by a stable
    hash, so a rare false match skips a fresh item, the same one for
    every run of the seed."""
    make, size = ITEMS[workload], PARAMS[workload]["pool"]
    lists = screened(workload)
    heavy = lists["heavy"]
    skip = set(lists["excluded"]) | set(heavy)
    per_light = len(heavy) / (size - len(skip))  # heavy items due per light item
    rng = random.Random(seed)
    start, heavy_start = rng.randrange(size), rng.randrange(max(1, len(heavy)))
    seen = bytearray(_SEEN_BITS // 8)

    def fresh(item) -> bool:
        digest = hashlib.blake2b(json.dumps(item).encode(), digest_size=8).digest()
        keys = (int.from_bytes(digest[:4], "little") % _SEEN_BITS,
                int.from_bytes(digest[4:], "little") % _SEEN_BITS)
        if all(seen[bit >> 3] >> (bit & 7) & 1 for bit in keys):
            return False
        for bit in keys:
            seen[bit >> 3] |= 1 << (bit & 7)
        return True

    lights = heavies = 0
    for k in range(size):
        index = (start + k) % size
        if index in skip:
            continue
        item = make(index)
        if fresh(item):
            yield item
        lights += 1
        while heavies < min(len(heavy), int(lights * per_light)):
            item = make(heavy[(heavy_start + heavies) % len(heavy)])
            heavies += 1
            if fresh(item):
                yield item


def input_sha256(workload: str, seed: int) -> str:
    """Hash of the generator parameters, screen.py's lists, the seed and
    the first HASH_PREFIX inputs; the rest of the stream follows from
    these."""
    head = list(itertools.islice(stream(workload, seed), HASH_PREFIX))
    doc = {"workload": workload, "seed": seed, "params": PARAMS[workload],
           "screened": screened(workload), "inputs": head}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
