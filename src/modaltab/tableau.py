"""Labelled tableau decision procedure for global modal consequence.

``decide(premises, conclusion, frame)`` settles whether the conclusion
holds at every world of every model of the frame class in which all
premises hold at every world.  The procedure refutes: the root label is
seeded with the negated conclusion (in NNF) plus the premises, every new
label receives the premises again, box formulas propagate along edges,
diamonds spawn successors, and the edge set is kept closed under the
frame class's Horn conditions (reflexive, symmetric, transitive,
Euclidean) at all times; seriality adds successors to successor-less
labels.  A branch closes on a complementary literal pair at one label:
the literal that completes the pair triggers a closure step, which has
the highest priority of all queued steps and ends the branch.

Anywhere-blocking bounds the search: a label subsumed by an earlier
unblocked label spawns no successors.  Subsumption is by subset of
formula sets, strengthened to set equality whenever the frame class
contains a symmetric or Euclidean condition; with plain subset blocking
the loop-back model extracted from an open branch can violate a box
formula across a converse edge that re-closure introduces.  For the same
reason the expansion propagates boxes across edges under transitivity,
and equalizes box/diamond formulas across edges between non-root labels
under Euclideanness; each extra propagation is truth-preserving in every
model of its frame condition.

Blocking does not yet guarantee termination on symmetric frames: sets
grow by back-propagation, so a label can spawn children before equality
blocking catches it, and ``blocking()`` never looks at a label's
ancestors, so those children keep spawning.  Such a search runs until
the label ceiling stops it with ``ResourceLimit`` (direction 1 of
ROADMAP.md: indirect blocking).

Each rule's triggers (the steps a new label, formula or edge may
license) and its licence are written once, in ``_Branch``: the search
fires the licensed steps its triggers queue and leaves a branch open
only when none is left; replay fires only licensed steps.

Every rule adds only a component, an operand or a premise, so every
formula a branch holds is a subformula of the NNF of the negated
conclusion or of a premise.  Each query compiles those into one
``_Table`` of int ids, as the frame is compiled into ``_Branch.mask``: one
walk over the formulas as parsed, which carries the polarity and expands
``->``, ``<->`` and ``|>`` in place, so no desugared or NNF formula is
built first.  Branches, queued steps and licences hold ids.  A proof's
formulas are built from their ids (``_Table.formula``), replay maps them
back (``_Table.find``), and only the re-verification of a countermodel
desugars the query, when it holds a ``|>``.

The search backjumps (Horrocks & Patel-Schneider, "Optimizing
description logic subsumption", JLC 1999): every label, formula and edge
carries the set of open beta splits it depends on, and a split that the
closures below it do not depend on is not explored twice (see ``_run``).
Global premises add their disjunctions again at every new label, so
without this a search splits each one again at each label, although the
clash does not depend on the split.  No open branch is ever skipped.  The
licence that admits a step also gives its set, the union of the sets of
the facts it read (``_Branch.licensed``), so a step depends on exactly
the facts that replay checks for it.

Valid verdicts carry a replayable proof object, invalid verdicts a
countermodel extracted from the first open branch and re-verified
against the reference semantics; both are re-checkable without trusting
the search.  A proof's JSON holds each distinct subformula of its steps
once, in a table of connectives and child ids that steps name by id, so
writing and reading it print and parse no formula text, and its size
grows with the number of distinct subformulas, not with their trees.
"""

from __future__ import annotations

import heapq
import json
import operator
from dataclasses import dataclass
from typing import ClassVar, Sequence

from . import enumeration
from ._kernel_py import FRAME_EUCLIDEAN, FRAME_REFLEXIVE, FRAME_SERIAL, FRAME_SYMMETRIC, FRAME_TRANSITIVE
from .enumeration import CountermodelWitness, frame_mask
from .semantics import FrameClass, FrameCondition, KripkeModel, frame_closure
from .syntax import (
    MAX_DEPTH,
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
    _Binary,
    _CONNECTIVES,
    _DOUBLE_DEPTH,
    _IDENT_RE,
    desugar,
)
# not called here; verdictbench/spans.py rebinds these names on this module
from .semantics import evaluate, frame_satisfies, holds_globally  # noqa: F401
from .syntax import nnf, parse, print_formula  # noqa: F401

__all__ = [
    "Valid",
    "Invalid",
    "Verdict",
    "ProofObject",
    "ResourceLimit",
    "decide",
    "prove_valid",
    "check_proof",
]

DEFAULT_MAX_LABELS = 10_000


class ResourceLimit(RuntimeError):
    """Label or step ceiling exceeded; at the intended problem scale this
    signals a bug rather than a hard query."""


_PROOF_KEYS = frozenset({"formulas", "nodes"})  # of a proof's JSON object
_STEP_KEYS = frozenset({"rule", "labels", "formula"})  # of one step's JSON object

# the C escaper when the ``json`` accelerator is built, as it is in CPython
_escape = json.encoder.encode_basestring_ascii
# Each connective's formula-table entry in proof JSON: the text that opens
# it, ``["<ASCII spelling>",``, and per spelling its class, its number of
# child ids and the depth it adds as ``parse`` counts it (one more for a
# ``<->`` or ``|>``; a negated atom adds none).
_ENTRY_OPEN = {c: f'["{a}",' for c, (a, _, _) in _CONNECTIVES.items()}
_ENTRY_KINDS = {
    a: (c, 1 + issubclass(c, _Binary), 1 + (c in _DOUBLE_DEPTH)) for c, (a, _, _) in _CONNECTIVES.items()
}


@dataclass(frozen=True)
class ProofObject:
    """Rule applications witnessing a closed tableau: the steps the search
    fired, in firing order, less those that backjumping found no closure
    needs (see ``_run``).

    Each step is ``(rule, labels, formula)``; ``formula`` is a
    :class:`Formula` (a closure's clashing ``Atom``; None for
    ``frame-closure`` and ``serial``).  A spawning step (``diamond``,
    ``serial``) names only its parent label: its child is the next new
    label.  The order gives the tree: a ``beta`` step's left branch follows
    it, and each ``closure`` ends a branch, after which the most recent
    open beta's right branch starts.  Replaying the steps from the seeded
    root (see :func:`check_proof`) reconstructs the closed tableau without
    rerunning any search.  The list is also the wire format: proofs can be
    thousands of steps long, and a nested encoding would overflow
    recursive encoders.

    The JSON is ``{"formulas": [...], "nodes": [{"formula", "labels",
    "rule"}, ...]}``, one node per step.  ``formulas`` is a table of the
    distinct subformulas of the steps' formulas: an atom is its name, any
    other formula ``[spelling, child id]`` or ``[spelling, left id, right
    id]``, the spelling being the connective's ASCII one in
    ``syntax._CONNECTIVES``.  Ids run in post-order, in order of first use
    by the steps, so every child id is below its entry's own.  Equal
    formulas share an entry, so equal proofs give equal bytes and a
    formula that reads its operands twice (the NNF of a ``<->``) costs one
    entry per distinct subformula.  A node's ``formula`` is an id, or null.
    No formula is printed or parsed on the way.
    """

    nodes: tuple[tuple[str, tuple[int, ...], Formula | None], ...]

    def to_json(self) -> str:
        """The proof's JSON, byte-equal to ``json.dumps(doc, sort_keys=True,
        separators=(",", ":"))`` of its document; written here, each string
        through ``json``'s C escaper.  Labels are ints."""
        ids: dict[str, int] = {}  # entry text -> id: equal formulas share one entry
        seen: dict[int, int] = {}  # id(node) -> its entry's id; ``self.nodes`` keeps every node alive
        entries: list[str] = []

        def number(f: Formula) -> int:
            """The id of ``f``'s entry, its children's entries added first."""
            t = type(f)
            if t is Atom:
                text = _escape(f.name)
            elif isinstance(f, _Binary):
                a = seen.get(id(f.left))
                if a is None:
                    a = number(f.left)
                b = seen.get(id(f.right))
                if b is None:
                    b = number(f.right)
                text = f"{_ENTRY_OPEN[t]}{a},{b}]"
            else:
                a = seen.get(id(f.operand))
                if a is None:
                    a = number(f.operand)
                text = f"{_ENTRY_OPEN[t]}{a}]"
            i = ids.get(text)
            if i is None:
                i = ids[text] = len(entries)
                entries.append(text)
            seen[id(f)] = i
            return i

        label_texts: dict[tuple[int, ...], str] = {}
        nodes = []
        for rule, labels, f in self.nodes:
            if f is None:
                i = "null"
            else:
                i = seen.get(id(f))
                if i is None:
                    i = number(f)
            text = label_texts.get(labels)
            if text is None:
                text = label_texts[labels] = ",".join(map(str, labels))
            nodes.append(f'{{"formula":{i},"labels":[{text}],"rule":{_escape(rule)}}}')
        return f'{{"formulas":[{",".join(entries)}],"nodes":[{",".join(nodes)}]}}'

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProofObject":
        """The steps of ``data``, checked in one pass that builds each
        formula entry once, from the entries before it.  Raises ValueError
        on a missing or extra key; an atom name that is not an identifier;
        an unknown spelling or a wrong number of child ids; a child id that
        is not an int (a bool is refused) below its entry's own id; an
        entry nested deeper than ``MAX_DEPTH``, as ``parse`` counts depth;
        and a node whose ``formula`` is neither null nor an entry's id."""
        if type(data) is not dict or data.keys() != _PROOF_KEYS:
            raise ValueError("proof is malformed: not an object with exactly the keys formulas and nodes")
        table, entries = data["formulas"], data["nodes"]
        if type(table) is not list or type(entries) is not list:
            raise ValueError("proof is malformed: its formulas or its nodes are not a list")
        formulas: list[Formula] = []
        depths: list[int] = []
        for i, e in enumerate(table):
            if type(e) is str:
                if _IDENT_RE.fullmatch(e) is None:
                    raise ValueError(f"proof formula {i} is malformed: {e!r} is no atom name")
                formulas.append(Atom(e))
                depths.append(0)
                continue
            kind = _ENTRY_KINDS.get(e[0]) if type(e) is list and e and type(e[0]) is str else None
            if kind is None or len(e) != kind[1] + 1:
                raise ValueError(f"proof formula {i} is malformed: no connective with its children")
            constructor, arity, step = kind
            a, b = e[1], e[-1]  # one id twice for a unary entry
            if type(a) is not int or type(b) is not int or not (0 <= a < i and 0 <= b < i):
                raise ValueError(f"proof formula {i} is malformed: a child id is not an earlier entry's")
            if arity == 1:
                operand = formulas[a]
                depth = depths[a] + (constructor is not Not or type(operand) is not Atom)
                f = constructor(operand)
            else:
                depth = (depths[a] if depths[a] > depths[b] else depths[b]) + step
                f = constructor(formulas[a], formulas[b])
            if depth > MAX_DEPTH:
                raise ValueError(f"proof formula {i} is nested deeper than {MAX_DEPTH} levels")
            formulas.append(f)
            depths.append(depth)
        count = len(formulas)
        steps = []
        for i, e in enumerate(entries):
            if type(e) is not dict or e.keys() != _STEP_KEYS:
                raise ValueError(f"proof node {i} is malformed")
            rule, labels, f = e["rule"], e["labels"], e["formula"]
            if type(rule) is not str or type(labels) is not list:
                raise ValueError(f"proof node {i} is malformed")
            for label in labels:
                if type(label) is not int:
                    raise ValueError(f"proof node {i} is malformed: a label is not an int")
            if f is not None:
                if type(f) is not int or not 0 <= f < count:
                    raise ValueError(f"proof node {i} is malformed: its formula is no entry's id")
                f = formulas[f]
            steps.append((rule, tuple(labels), f))
        return cls(tuple(steps))


@dataclass(frozen=True)
class Valid:
    proof: ProofObject
    answer: ClassVar[str] = "valid"


@dataclass(frozen=True)
class Invalid:
    witness: CountermodelWitness
    answer: ClassVar[str] = "invalid"


Verdict = Valid | Invalid


# Rule priority per queued step; lower fires first, ties broken by the
# step's target label (a box step's destination, any other step's first
# label), then by arrival.  A closure fires before anything else; all the
# literals one step adds go to one label, so the first clash to arrive wins.
_PRIORITY = {"closure": -1, "alpha": 0, "box": 1, "frame-closure": 2, "beta": 3, "diamond": 4, "serial": 5}
# Rules that spawn a successor; a step names only the parent label.
_SPAWNING = frozenset({"diamond", "serial"})

# The kind of each formula of a _Table: an atom, a negated atom, and the
# four connectives that NNF keeps; ``_CONSTRUCTORS`` builds a formula of
# each kind from its children.
_ATOM, _LITERAL, _AND, _OR, _BOX, _DIAMOND = range(6)
_CONSTRUCTORS = (Atom, Not, And, Or, Box, Diamond)
_KINDS = {c: kind for kind, c in enumerate(_CONSTRUCTORS)}
# Formulas that box steps move along edges.
_MODAL = (_BOX, _DIAMOND)


class _Table:
    """The distinct subformulas of one query's NNF seeds (the negated
    conclusion and the premises), each under an int id.

    ``seeds`` are ``(formula, negated)`` pairs of formulas as parsed, sugar
    included; the table holds the NNF of each, or of its negation, without
    building it.  One recursive walk carries the polarity and expands
    ``~``, ``->``, ``<->`` and ``|>`` in place (``a |> b`` is
    ``[](~a | b)``, its negation ``<>(a & ~b)``).  Each entry is
    hash-consed on its kind and its children's ids (an atom on its name),
    and the walk is memoised on node identity and polarity, so a shared or
    twice-read operand is compiled once.  Ids run 0..n-1 in post-order
    over the NNF of the seeds, as a walk over the NNF trees would number
    them, so they depend on the seeds alone.

    Per id: ``kind`` holds its ``_ATOM`` .. ``_DIAMOND`` kind, ``left`` and
    ``right`` its children's ids (a unary node's operand in ``left``),
    ``boxed`` the id of its box, ``negated`` (for an atom) the id of its
    negation and ``name`` (for an atom) its name; -1 (None for ``name``)
    where there is none.  -1 is never in a label set, so ``boxed[f] in s``
    asks whether []f is in s.  ``roots`` holds the seeds' ids in order, and
    ``strict`` whether the walk met a ``|>``.
    :meth:`formula` builds the NNF formula of an id when a proof needs it,
    and :meth:`find` maps a formula back to its id."""

    __slots__ = ("kind", "left", "right", "boxed", "negated", "name", "roots", "strict", "_ids", "_formulas")

    def __init__(self, seeds: Sequence[tuple[Formula, bool]]):
        self.kind: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.boxed: list[int] = []
        self.negated: list[int] = []
        self.name: list[str | None] = []
        self._ids: dict = {}  # hash-cons key -> id: an atom's name, else (kind, left, right)
        self._formulas: list[Formula | None] = []
        self.strict = False
        memo: dict[tuple[int, bool], int] = {}
        self.roots = tuple([self._compile(f, negated, memo) for f, negated in seeds])

    def _entry(self, kind: int, left: int = -1, right: int = -1, name: str | None = None) -> int:
        """The id of the entry, appended if it is new."""
        key = name if kind == _ATOM else (kind, left, right)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.kind)
            self.kind.append(kind)
            self.left.append(left)
            self.right.append(right)
            self.boxed.append(-1)
            self.negated.append(-1)
            self.name.append(name)
            self._formulas.append(None)
            if kind == _BOX:
                self.boxed[left] = i
            elif kind == _LITERAL:
                self.negated[left] = i
        return i

    def _compile(self, f: Formula, negated: bool, memo: dict[tuple[int, bool], int]) -> int:
        """The id of the NNF of ``~f`` if ``negated``, else of ``f``; one
        frame per connective, a run of negations peeled in it."""
        key = (id(f), negated)
        i = memo.get(key)
        if i is not None:
            return i
        entry, compile_ = self._entry, self._compile
        g = f
        while type(g) is Not:
            g, negated = g.operand, not negated
        t = type(g)
        if t is Atom:
            i = entry(_ATOM, name=g.name)
            if negated:
                i = entry(_LITERAL, i)
        elif t is And or t is Or:
            a, b = compile_(g.left, negated, memo), compile_(g.right, negated, memo)
            i = entry(_OR if (t is And) == negated else _AND, a, b)
        elif t is Box or t is Diamond:
            i = entry(_DIAMOND if (t is Box) == negated else _BOX, compile_(g.operand, negated, memo))
        elif t is Implies:
            # ~a | b, or its negation a & ~b
            a, b = compile_(g.left, not negated, memo), compile_(g.right, negated, memo)
            i = entry(_AND if negated else _OR, a, b)
        elif t is Iff:
            # (~a | b) & (~b | a), or its negation (a & ~b) | (b & ~a)
            a, b = g.left, g.right
            inner = _AND if negated else _OR
            x = entry(inner, compile_(a, not negated, memo), compile_(b, negated, memo))
            y = entry(inner, compile_(b, not negated, memo), compile_(a, negated, memo))
            i = entry(_OR if negated else _AND, x, y)
        elif t is StrictImplies:
            # [](~a | b), or its negation <>(a & ~b)
            self.strict = True
            a, b = compile_(g.left, not negated, memo), compile_(g.right, negated, memo)
            i = entry(_DIAMOND if negated else _BOX, entry(_AND if negated else _OR, a, b))
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = i
        return i

    def formula(self, i: int) -> Formula:
        """The NNF formula of id ``i``, built once per table."""
        f = self._formulas[i]
        if f is None:
            kind = self.kind[i]
            if kind == _ATOM:
                f = Atom(self.name[i])
            elif kind == _AND or kind == _OR:
                f = _CONSTRUCTORS[kind](self.formula(self.left[i]), self.formula(self.right[i]))
            else:
                f = _CONSTRUCTORS[kind](self.formula(self.left[i]))
            self._formulas[i] = f
        return f

    def find(self, f: Formula, seen: dict[int, int | None]) -> int | None:
        """The id of formula ``f``, or None if the table does not hold it;
        ``seen`` memoises the answers by node identity, for as long as
        the caller keeps the nodes alive."""
        i = seen.get(id(f), -1)
        if i != -1:
            return i
        kind, i = _KINDS.get(type(f)), None
        if kind == _ATOM:
            i = self._ids.get(f.name)
        elif kind == _AND or kind == _OR:
            a, b = self.find(f.left, seen), self.find(f.right, seen)
            i = None if a is None or b is None else self._ids.get((kind, a, b))
        elif kind is not None:
            a = self.find(f.operand, seen)
            i = None if a is None else self._ids.get((kind, a, -1))
        seen[id(f)] = i
        return i


class _Budget:
    """Work limits shared across all branches of one decide call.

    The step ceiling counts every step popped from a queue, closure steps
    included, fired or not; it catches exponential branching storms that
    create few labels.  Both limits are far above anything a search that
    blocking ends needs at the intended problem scale, so tripping one
    signals a malformed or out-of-scope query, or a search that blocking
    does not end: on symmetric frames even a small query can keep
    spawning labels (see the module docstring).
    """

    __slots__ = ("labels_created", "steps_taken", "max_labels", "max_steps")

    def __init__(self, max_labels: int):
        self.labels_created = 0
        self.steps_taken = 0
        self.max_labels = max_labels
        self.max_steps = 50 * max_labels

    def count_label(self) -> None:
        self.labels_created += 1
        if self.labels_created > self.max_labels:
            raise ResourceLimit(f"label ceiling {self.max_labels} exceeded")

    def count_step(self) -> None:
        self.steps_taken += 1
        if self.steps_taken > self.max_steps:
            raise ResourceLimit(f"rule-application ceiling {self.max_steps} exceeded")


class _Branch:
    """Labels, formula sets and edges of one tableau branch, plus each
    rule's triggers (``*_steps``: each step a new label, formula or edge
    may license, handed to ``emit``), licence (:meth:`licensed`, which also
    gives a licensed step's dependency mask) and effect (:meth:`fire`).
    Shared by the search and proof replay, so it enqueues no work.

    The branch holds formula ids of one per-query ``table``: each label
    set maps ids to masks, a step's formula is an id, and ``premises``
    holds the premises' ids.  Each edge (a, b) is stored once per end, as
    ``out_edges[a][b]`` and ``in_edges[b][a]``: per-label dicts in arrival
    order, so triggers emit steps in edge order.  Rules test ``mask``, the
    frame compiled once into the enumeration kernel's ``FRAME_*`` bits.
    Every label, formula and edge holds its dependency mask, the set of
    beta splits it depends on as bits (``label_deps``, and the values of
    ``label_sets``, ``out_edges`` and ``in_edges``); replay leaves every
    mask 0."""

    __slots__ = ("frame", "mask", "table", "premises", "label_sets", "out_edges", "in_edges", "label_deps")

    def __init__(self, frame: FrameClass, table: _Table, premises: tuple[int, ...]):
        self.frame = frame
        self.mask = frame_mask(frame)
        self.table = table
        self.premises = premises
        self.label_sets: list[dict[int, int]] = []
        self.out_edges: list[dict[int, int]] = []
        self.in_edges: list[dict[int, int]] = []
        self.label_deps: list[int] = []

    def clone(self):
        other = object.__new__(type(self))
        other.frame = self.frame
        other.mask = self.mask
        other.table = self.table
        other.premises = self.premises
        other.label_sets = [dict(d) for d in self.label_sets]
        other.out_edges = [dict(d) for d in self.out_edges]
        other.in_edges = [dict(d) for d in self.in_edges]
        other.label_deps = list(self.label_deps)
        return other

    def new_label(self, deps: int = 0) -> int:
        self.label_sets.append({})
        self.out_edges.append({})
        self.in_edges.append({})
        self.label_deps.append(deps)
        return len(self.label_sets) - 1

    def add_formula(self, label: int, f: int, deps: int = 0) -> bool:
        s = self.label_sets[label]
        if f in s:
            return False
        s[f] = deps
        return True

    def add_edge(self, a: int, b: int, deps: int = 0) -> bool:
        if b in self.out_edges[a]:
            return False
        self.out_edges[a][b] = deps
        self.in_edges[b][a] = deps
        return True

    def label_steps(self, label: int, emit) -> None:
        if self.mask & FRAME_REFLEXIVE:
            emit(("frame-closure", (label, label), None))

    def formula_steps(self, label: int, f: int, emit) -> None:
        t = self.table
        kind = t.kind[f]
        if kind == _ATOM:
            if t.negated[f] in self.label_sets[label]:
                emit(("closure", (label,), f))
        elif kind == _LITERAL:
            if t.left[f] in self.label_sets[label]:
                emit(("closure", (label,), t.left[f]))
        elif kind == _AND:
            emit(("alpha", (label,), f))
        elif kind == _OR:
            emit(("beta", (label,), f))
        elif kind in _MODAL:
            if kind == _DIAMOND:
                emit(("diamond", (label,), f))
            for m in self.out_edges[label]:
                # K-arrival of the operand plus possible transfer of f itself
                if kind == _BOX:
                    emit(("box", (label, m), t.left[f]))
                emit(("box", (label, m), f))
            if self.mask & FRAME_EUCLIDEAN:
                # backward transfer is only ever licensed on Euclidean frames
                for k in self.in_edges[label]:
                    emit(("box", (label, k), f))

    def edge_steps(self, a: int, b: int, emit) -> None:
        """The Horn closure products of edge (a, b) with the edges present,
        then the box steps across it: forward, and backward on Euclidean
        frames."""
        if self.mask & FRAME_SYMMETRIC:
            emit(("frame-closure", (b, a), None))
        if self.mask & FRAME_TRANSITIVE:
            for c in self.out_edges[b]:
                emit(("frame-closure", (a, c), None))
            for c in self.in_edges[a]:
                emit(("frame-closure", (c, b), None))
        if self.mask & FRAME_EUCLIDEAN:
            for c in self.out_edges[a]:
                emit(("frame-closure", (b, c), None))
                emit(("frame-closure", (c, b), None))
        kind, operand = self.table.kind, self.table.left
        for f in self.label_sets[a]:
            if kind[f] == _BOX:
                emit(("box", (a, b), operand[f]))
            if kind[f] in _MODAL:
                emit(("box", (a, b), f))
        if self.mask & FRAME_EUCLIDEAN:
            for f in self.label_sets[b]:
                if kind[f] in _MODAL:
                    emit(("box", (b, a), f))

    def licensed(self, rule: str, labels: Sequence[int], f: int | None) -> int | None:
        """None unless the step applies to this branch and would change it;
        else the step's dependency mask, the union of the masks of the facts
        its licence reads (where it asks for any edge, the first that
        qualifies, in insertion order).  Its tests for absent facts read
        nothing.  A spawning step names only its parent label, and a
        ``frame-closure`` or ``serial`` step carries no formula."""
        if rule == "box":
            src, dst = labels
            if f is None or f in self.label_sets[dst]:
                return None
            s, out, kind = self.label_sets[src], self.out_edges[src], self.table.kind[f]
            if dst in out:
                if (box := self.table.boxed[f]) in s:
                    return out[dst] | s[box]  # K: operand across an edge
                if f in s:
                    if kind == _BOX and self.mask & FRAME_TRANSITIVE:
                        return out[dst] | s[f]  # 4: boxes persist forward
                    if self.mask & FRAME_EUCLIDEAN:
                        if kind == _DIAMOND:
                            return out[dst] | s[f]  # co-successors of src see f's witness too
                        if kind == _BOX and self.in_edges[src]:
                            # successors of a non-root world see no more
                            return out[dst] | s[f] | next(iter(self.in_edges[src].values()))
            if src in self.out_edges[dst] and self.mask & FRAME_EUCLIDEAN:
                # backward within range: dst's successors include src's
                if kind in _MODAL and f in s and self.in_edges[dst]:
                    return self.out_edges[dst][src] | s[f] | next(iter(self.in_edges[dst].values()))
            return None
        if rule == "frame-closure":
            a, b = labels
            if f is not None or b in self.out_edges[a]:
                return None
            # one Horn closure step derives (a, b): from b->a, a->c->b, or c->a and c->b
            mask, into_b = self.mask, self.in_edges[b]
            if a == b and mask & FRAME_REFLEXIVE:
                return self.label_deps[a]
            if mask & FRAME_SYMMETRIC and a in self.out_edges[b]:
                return self.out_edges[b][a]
            if mask & FRAME_TRANSITIVE:
                for c, deps in self.out_edges[a].items():
                    if c in into_b:
                        return deps | into_b[c]
            if mask & FRAME_EUCLIDEAN:
                for c, deps in self.in_edges[a].items():
                    if c in into_b:
                        return deps | into_b[c]
            return None
        (label,) = labels
        if rule == "serial":
            applies = f is None and self.mask & FRAME_SERIAL and not self.out_edges[label]
            return self.label_deps[label] if applies else None
        s = self.label_sets[label]
        deps = s.get(f)  # None for f None too: each rule left expands a formula the label holds
        if deps is None:
            return None
        t = self.table
        kind = t.kind[f]
        if rule == "alpha":
            return deps if kind == _AND and not (t.left[f] in s and t.right[f] in s) else None
        if rule == "beta":
            return deps if kind == _OR and t.left[f] not in s and t.right[f] not in s else None
        if rule == "diamond":
            if kind != _DIAMOND or any(t.left[f] in self.label_sets[m] for m in self.out_edges[label]):
                return None
            return deps
        if rule == "closure" and kind == _ATOM and (neg := t.negated[f]) in s:
            return deps | s[neg]
        return None

    def fire(self, rule: str, labels: Sequence[int], f: int | None, deps: int = 0) -> "_Branch | None":
        """The effect of a licensed step; every fact it adds gets the
        dependency mask ``deps``.  A spawning step adds a new label, then the
        diamond's operand there, then the edge from its parent, then the
        premises.  A beta step adds the left disjunct here and returns a
        copy of the branch with the right one instead."""
        if rule == "box":
            self.add_formula(labels[1], f, deps)
        elif rule == "alpha":
            self.add_formula(labels[0], self.table.left[f], deps)
            self.add_formula(labels[0], self.table.right[f], deps)
        elif rule == "frame-closure":
            self.add_edge(*labels, deps)
        elif rule == "beta":
            right = self.clone()
            right.add_formula(labels[0], self.table.right[f], deps)
            self.add_formula(labels[0], self.table.left[f], deps)
            return right
        else:
            child = self.new_label(deps)
            if rule == "diamond":
                self.add_formula(child, self.table.left[f], deps)
            self.add_edge(labels[0], child, deps)
            for p in self.premises:
                self.add_formula(child, p, deps)
        return None


class _State(_Branch):
    """One tableau branch under search: the step queue, whether a closure
    step has fired (``closed``), blocking, the number of beta splits open
    above it (``depth``), and the budget and proof record shared by every
    branch."""

    __slots__ = (
        "heap",
        "seq",
        "queued",
        "closed",
        "proof",
        "budget",
        "depth",
        "_blocked",
    )

    def __init__(self, frame: FrameClass, table: _Table, premises: tuple[int, ...], budget: _Budget):
        super().__init__(frame, table, premises)
        self.heap: list[tuple[int, int, int, tuple]] = []
        self.seq = 0
        self.queued: set[tuple] = set()
        self.closed = False
        # (step, dependency mask, search id of a spawn's new label or None)
        # per fired step, in firing order; see _run
        self.proof: list[tuple] = []
        self.budget = budget
        self.depth = 0
        self._blocked: list[int | None] | None = None  # blocking(), until a formula set changes

    def clone(self) -> "_State":
        other = super().clone()
        other.heap = list(self.heap)
        other.seq = self.seq
        other.queued = set(self.queued)
        other.closed = self.closed
        other.proof = self.proof  # shared: branches run, and record, one at a time
        other.budget = self.budget  # shared: the ceiling spans all branches
        other.depth = self.depth
        other._blocked = None
        return other

    # -- queue ---------------------------------------------------------

    def enqueue(self, step: tuple) -> None:
        """Queue a proof step ``(rule, labels, formula)`` unless it is queued
        or would add a formula or edge already present: it could never fire."""
        rule, labels, f = step
        if rule == "box":
            if f in self.label_sets[labels[1]]:
                return
        elif rule == "frame-closure" and labels[1] in self.out_edges[labels[0]]:
            return
        before = len(self.queued)
        self.queued.add(step)  # one hash of the nested tuple, not two
        if len(self.queued) == before:
            return
        target = labels[1] if rule == "box" else labels[0]
        heapq.heappush(self.heap, (_PRIORITY[rule], target, self.seq, step))
        self.seq += 1

    # -- structure growth ----------------------------------------------

    def new_label(self, deps: int = 0) -> int:
        self.budget.count_label()
        self._blocked = None
        return super().new_label(deps)

    def add_formula(self, label: int, f: int, deps: int = 0) -> bool:
        if not super().add_formula(label, f, deps):
            return False
        self._blocked = None
        self.formula_steps(label, f, self.enqueue)
        return True

    def add_edge(self, a: int, b: int, deps: int = 0) -> bool:
        if not super().add_edge(a, b, deps):
            return False
        self.edge_steps(a, b, self.enqueue)
        return True

    # -- blocking --------------------------------------------------------

    def blocking(self) -> list[int | None]:
        """blocked_by per label: the earliest unblocked earlier label whose
        formula set subsumes this one (subset, or equality when the frame
        has a symmetric or Euclidean condition)."""
        if self._blocked is not None:
            return self._blocked
        subsumed = operator.eq if self.mask & (FRAME_SYMMETRIC | FRAME_EUCLIDEAN) else operator.le
        sets = self.label_sets
        result: list[int | None] = []
        for lid, s in enumerate(sets):
            blockers = (m for m in range(lid) if result[m] is None and subsumed(s.keys(), sets[m].keys()))
            result.append(next(blockers, None))
        self._blocked = result
        return result


def _dispatch(state: _State, step: tuple) -> _State | None:
    """Fire one queued step if the branch licenses it and, for a spawn, its
    label is unblocked, and record it with the dependency mask its licence
    gives; a closure ends the branch, and a beta step returns the right
    branch of its split.  A beta step's disjuncts depend on its split too,
    bit ``1 << depth``."""
    state.budget.count_step()
    rule, labels, f = step
    deps = state.licensed(rule, labels, f)
    if deps is None:
        return None
    spawns = rule in _SPAWNING
    if spawns and state.blocking()[labels[0]] is not None:
        return None
    if rule == "beta":
        deps |= 1 << state.depth
        state.depth += 1
    child = len(state.label_sets) if spawns else None
    state.proof.append((step, deps, child))
    if rule == "closure":
        state.closed = True
        return None
    right = state.fire(rule, labels, f, deps)
    if spawns:
        state.label_steps(child, state.enqueue)
    return right


def _audit(state: _State) -> bool:
    """Enqueue the diamond and serial steps owed by unblocked labels, per
    label in formula insertion order, serial last; True if any were owed."""
    blocked, kind, owed = state.blocking(), state.table.kind, False
    for lid, s in enumerate(state.label_sets):
        if blocked[lid] is not None:
            continue
        for f in s:
            if kind[f] == _DIAMOND and state.licensed("diamond", (lid,), f) is not None:
                state.enqueue(("diamond", (lid,), f))
                owed = True
        if state.licensed("serial", (lid,), None) is not None:
            state.enqueue(("serial", (lid,), None))
            owed = True
    return owed


def _expand_segment(state: _State) -> _State | None:
    """Run queued steps until the branch closes, splits, or saturates.
    Returns a split's right branch; None once the branch is closed or open."""
    while True:
        while state.heap and not state.closed:
            _, _, _, step = heapq.heappop(state.heap)
            state.queued.discard(step)
            split = _dispatch(state, step)
            if split is not None:
                return split
        if state.closed or not _audit(state):
            return None


def _run(state: _State) -> _State | None:
    """Expand a tableau to closure of all branches, recording the proof in
    ``state.proof``; returns None then, or else the first open branch.

    Beta rules split; the left disjunct is explored first, depth first,
    and the first open branch wins, so verdicts, witnesses, and proofs
    are deterministic.  Iterative so that proof depth is unbounded by the
    interpreter's recursion limit.

    Backjumping: the split at depth d (the number of splits open above
    it) has bit ``1 << d``, and a closed subtree's mask is the union of
    its closures' masks.  When the left subtree of a split closes without
    the split's bit, its closures do not need the left disjunct, so the
    right branch is skipped: it would close too.  When the right subtree
    closes without the bit, the left one is not needed.  Either way the
    subtree kept, less the split's beta step and every step that depends
    on the split, is a closed derivation from the branch before the split:
    a licence's tests for absent facts (no such formula, edge or successor
    yet) only get easier with fewer facts.  Otherwise the mask is the
    union of both subtrees', less the split's bit.  No open branch is
    skipped, so the first open branch is the one a search without
    backjumping finds.
    """
    proof = state.proof
    # per open split, outermost first (the split with bit 1 << i at index
    # i): its right branch, the proof index of its beta step, and once the
    # left subtree has closed, that subtree's mask and where the right
    # subtree's steps start
    splits: list[tuple] = []
    while True:
        right = _expand_segment(state)
        if right is not None:
            splits.append((right, len(proof) - 1, None, None))
            continue
        if not state.closed:
            return state
        deps = proof[-1][1]
        while splits:
            right, start, left, right_start = splits[-1]
            bit = 1 << (len(splits) - 1)
            if left is None and deps & bit:
                splits[-1] = (right, start, deps, len(proof))
                state = right
                break
            splits.pop()
            if left is None:
                proof[start:] = [e for e in proof[start:] if not e[1] & bit]
            elif not deps & bit:
                proof[start:] = [e for e in proof[right_start:] if not e[1] & bit]
            else:
                deps = (deps | left) & ~bit
        else:
            return None


def _renumber(entries: list[tuple], table: _Table) -> tuple[tuple, ...]:
    """The proof steps of the search's ``(step, deps, child)`` entries, each
    formula id replaced by its formula in ``table``.  Backjumping drops
    spawns, so each label is renamed to its place among the labels that
    the kept spawns of its branch create, as replay numbers them."""
    new = {0: 0}  # search id -> replay id, on the current branch
    count, pending, steps = 1, [], []
    for step, _, child in entries:
        rule, labels, f = step
        steps.append((rule, tuple([new[lab] for lab in labels]), None if f is None else table.formula(f)))
        if child is not None:
            new[child] = count
            count += 1
        elif rule == "beta":
            pending.append(count)
        elif rule == "closure" and pending:
            count = pending.pop()
    return tuple(steps)


def extract_countermodel(
    branch: _Branch,
    blocked: list[int | None],
    premises: tuple[Formula, ...],
    conclusion: Formula,
) -> CountermodelWitness:
    """Loop-back model from an open branch on which no rule applies.

    The search leaves a branch open only then; this is not checked again
    here, since a wrong countermodel fails the re-verification.
    ``blocked`` is the branch's blocked_by per label; ``premises`` and
    ``conclusion`` are the query's, desugared, for re-verification.  Atom
    names come from the branch's table.
    Worlds are the unblocked labels; edges into blocked labels are
    redirected to their blockers, the result is re-closed under the frame
    class's Horn conditions, and an atom holds at a world exactly when the
    positive literal is in its label.  The witness is re-verified against
    the reference semantics before being returned.
    """
    unblocked = [lid for lid, b in enumerate(blocked) if b is None]
    index = {lid: i for i, lid in enumerate(unblocked)}
    base_edges = {
        (index[a], index[b if blocked[b] is None else blocked[b]])
        for a, out in enumerate(branch.out_edges)
        if blocked[a] is None
        for b in out
    }
    horn = branch.frame - {FrameCondition.SERIAL}
    access = frame_closure(base_edges, horn, len(unblocked))
    table = branch.table
    valuation: dict[str, set[int]] = {}
    for i, lid in enumerate(unblocked):
        for f in branch.label_sets[lid]:
            if table.kind[f] == _ATOM:
                valuation.setdefault(table.name[f], set()).add(i)
    model = KripkeModel(len(unblocked), access, valuation)
    # a module attribute lookup, so that a tracer rebinding
    # enumeration._reverify sees this call
    return enumeration._reverify(CountermodelWitness(model, 0), premises, conclusion, branch.frame)


def _seeded(branch_type: type, frame: FrameClass, premises: Sequence[Formula], conclusion: Formula, *args):
    """A ``branch_type(frame, table, premise ids, *args)`` whose root label
    0 holds the negated conclusion, then the premises: the state that both
    the search and proof replay start from.  ``table`` compiles the NNF of
    the formulas as given, sugar included."""
    table = _Table([(conclusion, True), *[(p, False) for p in premises]])
    branch = branch_type(frozenset(frame), table, table.roots[1:], *args)
    root = branch.new_label()
    for f in table.roots:
        branch.add_formula(root, f)
    return branch


def decide(
    premises: Sequence[Formula],
    conclusion: Formula,
    frame: FrameClass,
    max_labels: int = DEFAULT_MAX_LABELS,
) -> Verdict:
    """Valid with a proof, or Invalid with a re-verified countermodel."""
    state = _seeded(_State, frame, premises, conclusion, _Budget(max_labels))
    state.label_steps(0, state.enqueue)  # serial steps, the root's too, come from _audit
    open_branch = _run(state)
    if open_branch is None:
        return Valid(ProofObject(_renumber(state.proof, state.table)))
    # only re-verification needs the desugared query, and only a query with
    # a |> differs from it; a module-global lookup, so that a tracer
    # rebinding tableau.extract_countermodel sees this call
    premises = tuple(premises)
    if state.table.strict:
        premises, conclusion = tuple([desugar(p) for p in premises]), desugar(conclusion)
    return Invalid(extract_countermodel(open_branch, open_branch.blocking(), premises, conclusion))


def prove_valid(f: Formula, frame: FrameClass, max_labels: int = DEFAULT_MAX_LABELS) -> Verdict:
    """decide with no premises: frame-class validity of a single formula."""
    return decide([], f, frame, max_labels=max_labels)


# ---------------------------------------------------------------------------
# proof replay


def _replay(branch: _Branch, steps: Sequence[tuple]) -> bool:
    """Replay proof steps in order from the seeded root: a beta step's right
    branch waits on a stack until a closure ends the branch before it, and
    the last step must close the last branch.  A step's formula is looked
    up in the branch's table; no licensed step names one outside it."""
    table, seen = branch.table, {}  # ``steps`` keeps the nodes ``seen`` is keyed by alive
    pending: list[_Branch] = []
    current: _Branch | None = branch
    for rule, labels, formula in steps:
        if current is None or not all(0 <= lab < len(current.label_sets) for lab in labels):
            return False  # a step after every branch closed, or a label that does not exist
        f = None if formula is None else table.find(formula, seen)
        if f is None and formula is not None:
            return False
        if current.licensed(rule, labels, f) is None:
            return False
        if rule == "closure":
            current = pending.pop() if pending else None
        elif (right := current.fire(rule, labels, f)) is not None:
            pending.append(right)
    return current is None


def check_proof(
    proof: ProofObject,
    premises: Sequence[Formula],
    conclusion: Formula,
    frame: FrameClass,
) -> bool:
    """Replay a proof against a query: every recorded rule application
    must be licensed and every branch must end in a present closure pair.
    Returns False on any mismatch; never raises."""
    try:
        branch = _seeded(_Branch, frame, premises, conclusion)
        return _replay(branch, proof.nodes)
    except Exception:
        return False
