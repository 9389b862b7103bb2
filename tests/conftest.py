import functools

import hypothesis.strategies as st
import pytest

from modaltab import tableau
from modaltab.enumeration import EnumerationBudget, enumerate_models
from modaltab.semantics import FrameCondition
from modaltab.syntax import (
    And,
    Atom,
    Box,
    Diamond,
    Iff,
    Implies,
    Not,
    Or,
    StrictImplies,
)


def formula_strategy(atoms=("p", "q"), max_leaves=16, sugar=True):
    base = st.sampled_from([Atom(a) for a in atoms])

    def extend(children):
        options = (
            st.builds(Not, children)
            | st.builds(Box, children)
            | st.builds(Diamond, children)
            | st.builds(And, children, children)
            | st.builds(Or, children, children)
            | st.builds(Implies, children, children)
            | st.builds(Iff, children, children)
        )
        if sugar:
            options |= st.builds(StrictImplies, children, children)
        return options

    return st.recursive(base, extend, max_leaves=max_leaves)


@pytest.fixture(scope="session")
def small_models():
    """All models with at most 2 worlds over atoms p, q (264 of them)."""
    return list(enumerate_models(EnumerationBudget(2, ("p", "q")), frozenset()))


@pytest.fixture(scope="session")
def one_atom_models():
    """All models with at most 3 worlds over the single atom p."""
    return list(enumerate_models(EnumerationBudget(3, ("p",)), frozenset()))


class NotSaturated(AssertionError):
    """A branch handed to countermodel extraction is closed or still has an
    applicable rule."""


def check_saturated(branch, blocked):
    """Raise NotSaturated if a rule still applies to ``branch``: a licensed
    non-spawning step (a closure too), or a diamond or serial step owed by
    an unblocked label (``blocked``: blocked_by per label).

    The licences are the branch's own, which proof replay shares; the
    candidate steps are listed here, not read from the search's triggers,
    so a trigger that emits too little cannot hide a licensed step:
    ``frame-closure`` for every pair of labels; ``closure``, ``alpha`` and
    ``beta`` for every formula a label holds; and ``box`` for every formula
    a label holds, and a box's operand, across every edge in both
    directions.  The owed steps are stated here too: a diamond at an
    unblocked label whose operand no successor holds, and an unblocked
    label with no successor on a serial frame."""

    def check(rule, labels, f):
        if branch.licensed(rule, labels, f) is not None:
            raise NotSaturated(f"{rule} rule applicable at label {labels[0]}")

    # a step onto a present edge or formula is never licensed, so those
    # are skipped here without asking
    table, sets = branch.table, branch.label_sets
    for a, out in enumerate(branch.out_edges):
        for b in range(len(sets)):
            if b not in out:
                check("frame-closure", (a, b), None)
    for lid, s in enumerate(sets):
        for f in s:
            for rule in ("closure", "alpha", "beta"):
                check(rule, (lid,), f)
    for a, out in enumerate(branch.out_edges):
        for b in out:
            for src, dst in ((a, b), (b, a)):
                for f in sets[src]:
                    for g in (f, table.left[f]) if table.kind[f] == tableau._BOX else (f,):
                        if g not in sets[dst]:
                            check("box", (src, dst), g)
    serial = FrameCondition.SERIAL in branch.frame
    for lid, s in enumerate(sets):
        if blocked[lid] is not None:
            continue
        successors = [sets[m] for m in branch.out_edges[lid]]
        for f in s:
            if table.kind[f] == tableau._DIAMOND and not any(table.left[f] in t for t in successors):
                raise NotSaturated(f"diamond rule applicable at label {lid}")
        if serial and not successors:
            raise NotSaturated(f"serial rule applicable at label {lid}")


@pytest.fixture(autouse=True)
def saturation_oracle(monkeypatch):
    """Check every branch that ``decide`` extracts a countermodel from with
    :func:`check_saturated`; ``__wrapped__`` is the unchecked extraction."""
    extract = tableau.extract_countermodel

    @functools.wraps(extract)
    def checked(branch, blocked, premises, conclusion):
        check_saturated(branch, blocked)
        return extract(branch, blocked, premises, conclusion)

    monkeypatch.setattr(tableau, "extract_countermodel", checked)
