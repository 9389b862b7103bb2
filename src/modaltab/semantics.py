"""Finite Kripke models, truth evaluation, and frame conditions.

A model is a nonempty finite set of worlds ``0 .. world_count-1``, an
accessibility relation over them, and a valuation mapping atom names to
the sets of worlds where they hold.  Atoms absent from the valuation are
false everywhere.  Box quantifies over all accessible worlds, diamond
over some accessible world, and global truth is truth at every world.

The semantics is the textbook one, computed over world bitmasks: bit
``w`` of an int stands for world ``w``.  When a model is built it
derives each world's successors and each atom's worlds as such masks.
A formula's extension, the mask of the worlds where it holds, comes out
of one walk over the formula: ``~`` complements its operand's mask, the
binary connectives combine their operands' masks bitwise, ``[]x`` holds
at ``w`` when ``succ[w] & ~ext(x) == 0`` and ``<>x`` when
``succ[w] & ext(x) != 0``.  ``evaluate`` reads one bit of the
extension and ``holds_globally`` compares it with the mask of all
worlds.  The frame conditions are tested on the successor masks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping

from .syntax import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    StrictImplies,
)

__all__ = [
    "FrameCondition",
    "FrameClass",
    "LOGICS",
    "frame_class",
    "KripkeModel",
    "InvalidWorld",
    "SerialNotClosable",
    "evaluate",
    "holds_globally",
    "frame_satisfies",
    "frame_closure",
    "model_to_dict",
    "model_to_json",
]


class FrameCondition(Enum):
    REFLEXIVE = "reflexive"
    SYMMETRIC = "symmetric"
    TRANSITIVE = "transitive"
    EUCLIDEAN = "euclidean"
    SERIAL = "serial"


FrameClass = frozenset  # of FrameCondition

# Named logics as frame-class aliases.
LOGICS: dict[str, FrameClass] = {
    "K": frozenset(),
    "T": frozenset({FrameCondition.REFLEXIVE}),
    "D": frozenset({FrameCondition.SERIAL}),
    "B": frozenset({FrameCondition.REFLEXIVE, FrameCondition.SYMMETRIC}),
    "S4": frozenset({FrameCondition.REFLEXIVE, FrameCondition.TRANSITIVE}),
    "S5": frozenset({FrameCondition.REFLEXIVE, FrameCondition.EUCLIDEAN}),
}


def frame_class(names: Iterable[str]) -> FrameClass:
    """Build a frame class from condition names or a single logic alias."""
    conditions: set[FrameCondition] = set()
    for name in names:
        if name in LOGICS:
            conditions |= LOGICS[name]
            continue
        try:
            conditions.add(FrameCondition(name.lower()))
        except ValueError:
            raise ValueError(f"unknown frame condition or logic: {name!r}") from None
    return frozenset(conditions)


class InvalidWorld(ValueError):
    """World index outside the model."""


class SerialNotClosable(ValueError):
    """Seriality is not a closure condition; it must be handled by filtering."""


@dataclass(frozen=True)
class KripkeModel:
    """Immutable finite model; all operations on it are pure.

    The valuation is stored read-only.  Besides its fields a model holds
    the masks derived from them: ``_succ[w]``, the successors of world
    ``w``; ``_true[name]``, the worlds where an atom of the valuation
    holds; and ``_full``, all worlds.
    """

    world_count: int
    access: frozenset[tuple[int, int]]
    valuation: Mapping[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        n = self.world_count
        if n < 1:
            raise ValueError("a model needs at least one world")
        # own frozen copies so later mutation of the caller's objects cannot
        # reach into this model
        access = frozenset(tuple(pair) for pair in self.access)
        succ = [0] * n
        for i, j in access:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidWorld(f"access pair ({i}, {j}) outside 0..{n - 1}")
            succ[i] |= 1 << j
        valuation = {}
        true = {}
        for name, worlds in self.valuation.items():
            worlds = valuation[name] = frozenset(worlds)
            mask = 0
            for w in worlds:
                if not 0 <= w < n:
                    raise InvalidWorld(f"valuation of {name!r} mentions world {w}")
                mask |= 1 << w
            true[name] = mask
        object.__setattr__(self, "access", access)
        object.__setattr__(self, "valuation", MappingProxyType(valuation))
        object.__setattr__(self, "_succ", tuple(succ))
        object.__setattr__(self, "_true", true)
        object.__setattr__(self, "_full", (1 << n) - 1)

    def __hash__(self) -> int:
        return hash((self.world_count, self.access, frozenset(self.valuation.items())))

    def __reduce__(self):
        # a mapping proxy does not pickle: rebuild through the constructor
        return KripkeModel, (self.world_count, self.access, dict(self.valuation))


def _extension(model: KripkeModel, f: Formula) -> int:
    """Mask of the worlds where the sugar-free ``f`` holds."""
    kind = type(f)
    if kind is Atom:
        return model._true.get(f.name, 0)
    if kind is Not:
        return model._full ^ _extension(model, f.operand)
    if kind is And:
        return _extension(model, f.left) & _extension(model, f.right)
    if kind is Or:
        return _extension(model, f.left) | _extension(model, f.right)
    if kind is Implies:
        return (model._full ^ _extension(model, f.left)) | _extension(model, f.right)
    if kind is Iff:
        return model._full ^ _extension(model, f.left) ^ _extension(model, f.right)
    if kind is Box:
        missing = model._full ^ _extension(model, f.operand)
        out = 0
        bit = 1
        for s in model._succ:
            if not s & missing:
                out |= bit
            bit <<= 1
        return out
    if kind is Diamond:
        x = _extension(model, f.operand)
        out = 0
        bit = 1
        for s in model._succ:
            if s & x:
                out |= bit
            bit <<= 1
        return out
    if kind is StrictImplies:
        raise TypeError("strict implication must be desugared before evaluation")
    raise TypeError(f"not a formula: {f!r}")


def evaluate(model: KripkeModel, world: int, f: Formula) -> bool:
    """Truth of ``f`` at ``world``; ``f`` must be sugar-free."""
    if not 0 <= world < model.world_count:
        raise InvalidWorld(f"world {world} outside 0..{model.world_count - 1}")
    return (_extension(model, f) >> world) & 1 == 1


def holds_globally(model: KripkeModel, f: Formula) -> bool:
    """True iff ``f`` is true at every world of the model."""
    return _extension(model, f) == model._full


def frame_satisfies(model: KripkeModel, condition: FrameCondition) -> bool:
    """Exhaustive check of one first-order frame property."""
    succ = model._succ
    if condition is FrameCondition.REFLEXIVE:
        return all((s >> u) & 1 for u, s in enumerate(succ))
    if condition is FrameCondition.SERIAL:
        return all(succ)
    if condition is FrameCondition.SYMMETRIC:
        return all((succ[v] >> u) & 1 for u, v in model.access)
    if condition is FrameCondition.TRANSITIVE:
        # whatever v sees, u sees
        return all(not succ[v] & ~succ[u] for u, v in model.access)
    if condition is FrameCondition.EUCLIDEAN:
        # v sees whatever u sees
        return all(not succ[u] & ~succ[v] for u, v in model.access)
    raise TypeError(f"not a frame condition: {condition!r}")


def frame_closure(
    pairs: Iterable[tuple[int, int]],
    conditions: Iterable[FrameCondition],
    world_count: int,
) -> frozenset[tuple[int, int]]:
    """Smallest superset of ``pairs`` satisfying the given Horn conditions.

    Seriality is rejected: adding an arbitrary successor is not a
    least-fixed-point operation.
    """
    conds = frozenset(conditions)
    if FrameCondition.SERIAL in conds:
        raise SerialNotClosable("serial frames are obtained by filtering, not closure")
    relation = set(pairs)
    if FrameCondition.REFLEXIVE in conds:
        relation |= {(u, u) for u in range(world_count)}
    changed = True
    while changed:
        changed = False
        additions: set[tuple[int, int]] = set()
        if FrameCondition.SYMMETRIC in conds:
            additions |= {(v, u) for u, v in relation if (v, u) not in relation}
        if FrameCondition.TRANSITIVE in conds:
            additions |= {
                (u, w)
                for u, v in relation
                for v2, w in relation
                if v2 == v and (u, w) not in relation
            }
        if FrameCondition.EUCLIDEAN in conds:
            additions |= {
                (v, w)
                for u, v in relation
                for u2, w in relation
                if u2 == u and (v, w) not in relation
            }
        if additions:
            relation |= additions
            changed = True
    return frozenset(relation)


def model_to_dict(model: KripkeModel) -> dict:
    """Countermodel wire format: sorted pairs and sorted world lists."""
    return {
        "worlds": model.world_count,
        "access": [list(p) for p in sorted(model.access)],
        "valuation": {name: sorted(ws) for name, ws in sorted(model.valuation.items()) if ws},
    }


def model_to_json(model: KripkeModel) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
