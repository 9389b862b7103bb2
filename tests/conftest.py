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
    non-spawning step (a closure too) that a label, formula or edge
    triggers, or a diamond or serial step owed by an unblocked label
    (``blocked``: blocked_by per label).

    The triggers and licences are the branch's own, which proof replay
    shares; the owed steps are stated here, not read from the search: a
    diamond at an unblocked label whose operand no successor holds, and an
    unblocked label with no successor on a serial frame."""

    def emit(step):
        rule, labels, f = step
        if rule not in ("diamond", "serial") and branch.licensed(rule, labels, f) is not None:
            raise NotSaturated(f"{rule} rule applicable at label {labels[0]}")

    for lid, s in enumerate(branch.label_sets):
        branch.label_steps(lid, emit)
        for f in s:
            branch.formula_steps(lid, f, emit)
        for b in branch.out_edges[lid]:
            branch.edge_steps(lid, b, emit)
    table, serial = branch.table, FrameCondition.SERIAL in branch.frame
    for lid, s in enumerate(branch.label_sets):
        if blocked[lid] is not None:
            continue
        successors = [branch.label_sets[m] for m in branch.out_edges[lid]]
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
