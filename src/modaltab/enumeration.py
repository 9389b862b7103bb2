"""Bounded exhaustive search over Kripke models.

This is the brute-force oracle of the toolkit: it enumerates every model
within a world budget (every relation, every valuation of the budget
atoms, filtered by the requested frame conditions) in a pinned
deterministic order and reports the first model in which all premises
hold globally while the conclusion fails somewhere.  Exhausting the
budget without a hit does NOT certify validity; the tableau module owns
that direction.

The search itself runs in ``_kernel_py``, which evaluates each formula
over a block of relations and every valuation at once: one int per
world, whose bit ``k * V + v`` is the truth in the block's ``k``-th
relation under valuation bits ``v``, for ``V = 2^(atoms x worlds)``
valuations.  A block holds ``max(1, _kernel_py.BLOCK_BITS // V)``
relations, so no int exceeds ``max(BLOCK_BITS, V)`` bits.

Each premise and the conclusion is compiled for the kernel in one walk
over the formula as parsed: ``|>`` compiles in place, nothing is
desugared first, and the walk indexes the atoms it meets.  A hit is
re-verified against the reference semantics before it is returned, by
``_reverify``: the one re-verification of every countermodel, the
tableau's and the triviality schema's too.  It takes the query as
stated and desugars it itself; a formula without ``|>`` is left as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .semantics import FrameClass, FrameCondition, KripkeModel, evaluate, frame_satisfies, holds_globally
from .syntax import And, Atom, Box, Diamond, Formula, Iff, Implies, Not, Or, StrictImplies, atoms_of, desugar

from . import _kernel_py
from ._kernel_py import MAX_VALUATION_BITS, MAX_WORLDS, OP_AND, OP_ATOM, OP_BOX, OP_DIA, OP_IFF, OP_NOT, OP_OR

KERNEL = "pure-python"
# find_countermodel calls the kernel through this name, so tracing can rebind it
_backend = _kernel_py

__all__ = [
    "KERNEL",
    "MAX_WORLDS",
    "MAX_VALUATION_BITS",
    "EnumerationBudget",
    "CountermodelWitness",
    "compile_formula",
    "enumerate_models",
    "find_countermodel",
    "minimize_countermodel",
]

_FRAME_BITS = {
    FrameCondition.REFLEXIVE: _kernel_py.FRAME_REFLEXIVE,
    FrameCondition.SYMMETRIC: _kernel_py.FRAME_SYMMETRIC,
    FrameCondition.TRANSITIVE: _kernel_py.FRAME_TRANSITIVE,
    FrameCondition.EUCLIDEAN: _kernel_py.FRAME_EUCLIDEAN,
    FrameCondition.SERIAL: _kernel_py.FRAME_SERIAL,
}


@dataclass(frozen=True)
class EnumerationBudget:
    """Search bounds: world counts 1..max_worlds over the listed atoms,
    each listed once; any sequence of names is stored as a tuple."""

    max_worlds: int = 3
    atoms: tuple[str, ...] = ()

    def __post_init__(self):
        if self.max_worlds < 1:
            raise ValueError("budget needs at least one world")
        if isinstance(self.atoms, str):
            raise ValueError("budget atoms must be a sequence of names, not one string")
        atoms = tuple(self.atoms)
        if len(set(atoms)) != len(atoms):
            raise ValueError(f"budget lists an atom more than once: {atoms!r}")
        object.__setattr__(self, "atoms", atoms)


@dataclass(frozen=True)
class CountermodelWitness:
    """A model plus the world at which the queried conclusion fails."""

    model: KripkeModel
    world: int


def frame_mask(frame: FrameClass) -> int:
    mask = 0
    for cond in frame:
        mask |= _FRAME_BITS[cond]
    return mask


# the kernel op of each connective that compiles to one op
_UNARY_OPS = {Not: OP_NOT, Box: OP_BOX, Diamond: OP_DIA}
_BINARY_OPS = {And: OP_AND, Or: OP_OR, Iff: OP_IFF}


def compile_formula(f: Formula, atom_index: dict[str, int]) -> tuple[int, ...]:
    """Postfix bytecode of ``f`` over the kernel ops, in one walk over the
    formula as parsed: ``a -> b`` compiles as ``~a | b``, ``a |> b`` as
    ``[](~a | b)``, and ``<->`` is one op.

    ``atom_index`` maps names to the indices ``0 .. len(atom_index) - 1``.
    The atoms of ``f`` that it lacks are added to it, in sorted order, at
    the next indices; each gets a placeholder op in the walk, patched once
    they are known and sorted."""
    code: list[int] = []
    emit = code.append
    new: dict[str, list[int]] = {}  # a new atom's name -> its positions in code
    stack: list = [f]  # formulas still to walk, and the ops that follow them
    pop = stack.pop
    while stack:
        g = pop()
        t = type(g)
        if t is int:
            emit(g)
        elif t is Atom:
            i = atom_index.get(g.name)
            if i is None:
                new.setdefault(g.name, []).append(len(code))
                emit(OP_ATOM)
            else:
                emit(OP_ATOM | (i << 3))
        else:
            op = _UNARY_OPS.get(t)
            if op is not None:
                stack += (op, g.operand)
            elif (op := _BINARY_OPS.get(t)) is not None:
                stack += (op, g.right, g.left)
            elif t is Implies:
                stack += (OP_OR, g.right, OP_NOT, g.left)
            elif t is StrictImplies:
                stack += (OP_BOX, OP_OR, g.right, OP_NOT, g.left)
            else:
                raise TypeError(f"cannot compile {g!r}")
    for i, name in enumerate(sorted(new), len(atom_index)):
        atom_index[name] = i
        for at in new[name]:
            code[at] = OP_ATOM | (i << 3)
    return tuple(code)


def relation_from_bits(n: int, bits: int) -> frozenset[tuple[int, int]]:
    """Row-major decode; the (0,0) pair is the most significant bit."""
    nn = n * n
    return frozenset(
        (i, j) for i in range(n) for j in range(n) if (bits >> (nn - 1 - (i * n + j))) & 1
    )


def valuation_from_bits(n: int, atoms: Sequence[str], bits: int) -> dict[str, frozenset[int]]:
    """Atom-major, then world, most significant first."""
    total = len(atoms) * n
    return {
        a: frozenset(w for w in range(n) if (bits >> (total - 1 - (ai * n + w))) & 1)
        for ai, a in enumerate(atoms)
    }


def enumerate_models(budget: EnumerationBudget, frame: FrameClass) -> Iterator[KripkeModel]:
    """Every model within the budget whose frame satisfies ``frame``,
    ordered by world count, then relation bits, then valuation bits."""
    atoms = budget.atoms
    for n in range(1, budget.max_worlds + 1):
        for rel_bits in range(1 << (n * n)):
            access = relation_from_bits(n, rel_bits)
            probe = KripkeModel(n, access)
            if not all(frame_satisfies(probe, c) for c in frame):
                continue
            for val_bits in range(1 << (len(atoms) * n)):
                yield KripkeModel(n, access, valuation_from_bits(n, atoms, val_bits))


def _reverify(
    witness: CountermodelWitness,
    premises: Sequence[Formula],
    conclusion: Formula,
    frame: FrameClass,
) -> CountermodelWitness:
    """``witness`` itself, once checked against the reference semantics:
    the frame's conditions hold, every premise holds globally and the
    conclusion fails at the witness's world; AssertionError otherwise.
    The query is taken as stated and desugared here, since the reference
    semantics gives ``|>`` no meaning."""
    model = witness.model
    for cond in frame:
        if not frame_satisfies(model, cond):
            raise AssertionError(f"witness violates frame condition {cond.value}")
    for p in premises:
        if not holds_globally(model, desugar(p)):
            raise AssertionError("witness violates a premise")
    if evaluate(model, witness.world, desugar(conclusion)):
        raise AssertionError("witness does not refute the conclusion")
    return witness


def find_countermodel(
    premises: Sequence[Formula],
    conclusion: Formula,
    frame: FrameClass,
    budget: EnumerationBudget,
) -> CountermodelWitness | None:
    """First enumerated model where all premises hold globally and the
    conclusion fails, or None within the budget (which proves nothing)."""
    # the budget's atoms, then each formula's new atoms sorted, formula by formula
    atom_index = {a: i for i, a in enumerate(budget.atoms)}
    premise_code = tuple([compile_formula(p, atom_index) for p in premises])
    conclusion_code = compile_formula(conclusion, atom_index)
    hit = _backend.find_first(
        budget.max_worlds, len(atom_index), frame_mask(frame), premise_code, conclusion_code
    )
    if hit is None:
        return None
    n, rel_bits, val_bits, world = hit
    model = KripkeModel(
        n, relation_from_bits(n, rel_bits), valuation_from_bits(n, list(atom_index), val_bits)
    )
    return _reverify(CountermodelWitness(model, world), premises, conclusion, frame)


def minimize_countermodel(
    witness: CountermodelWitness,
    premises: Sequence[Formula],
    conclusion: Formula,
    frame: FrameClass,
    max_worlds: int = MAX_WORLDS,
) -> CountermodelWitness:
    """Witness with the fewest worlds, then the lexicographically least
    relation and valuation: simply the first hit when re-searching up to
    the given witness's size.  The search stops at ``max_worlds`` worlds
    and at the kernel's ``MAX_VALUATION_BITS`` bound on atoms x worlds; a
    witness beyond either is returned unchanged when nothing smaller is
    found under them."""
    # desugar adds and drops no atom, so the query's own atoms are its atoms
    atoms = tuple(sorted(set().union(*(atoms_of(f) for f in [*premises, conclusion]))))
    cap = min(witness.model.world_count, max_worlds, MAX_VALUATION_BITS // max(len(atoms), 1))
    found = None
    if cap:
        found = find_countermodel(premises, conclusion, frame, EnumerationBudget(cap, atoms))
    if found is None:
        if cap == witness.model.world_count:
            raise AssertionError("a verified witness must be re-findable within its own size")
        return witness
    return found
