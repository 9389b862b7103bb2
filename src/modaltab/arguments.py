"""The built-in argument corpus and its analysis suites.

Eight variants of the same two-premise modal argument (necessity premise,
possibility premise, existential or necessity conclusion) under symmetric
or Euclidean frame assumptions, plus the machinery that examines them:
validity under the stated frame class, invalidity without it, the
triviality schema showing the first premise already collapses the
argument to "possibility implies (necessary) existence", minimal frame
requirement search, the standard-axiom correspondence suite, a step-wise
derivation replay, and the modal modus-tollens checks.

The triviality schema of premises ``P1, <>a`` and conclusion ``C`` is the
query ``[P1] => <>a -> C`` on the argument's own atoms.  A countermodel of
the argument whose frame meets the stated conditions refutes it as it
stands, so an analysis that holds one returns it without a ``decide``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import groupby
from operator import itemgetter

from . import enumeration
from .enumeration import CountermodelWitness, frame_mask, minimize_countermodel
from .semantics import LOGICS, FrameClass, FrameCondition, KripkeModel, frame_satisfies
from .syntax import Atom, Diamond, Formula, Implies, parse, print_formula
from .tableau import Invalid, Valid, Verdict, decide
# not called here; verdictbench/spans.py rebinds these names on this module
from .tableau import prove_valid  # noqa: F401

__all__ = [
    "Argument",
    "AnalysisReport",
    "DerivationScript",
    "CheckResult",
    "SuiteEntryResult",
    "SuiteReport",
    "ShapeError",
    "builtin_corpus",
    "corpus_entry",
    "analyze",
    "triviality_check",
    "frame_requirement_search",
    "axiom_correspondence_suite",
    "corpus_suite",
    "derivation_suite",
    "eder_ramharter_manual",
    "jacquette_suite",
]


class ShapeError(ValueError):
    """Argument does not have the two-premise possibility form."""


@dataclass(frozen=True)
class Argument:
    name: str
    premises: tuple[tuple[str, Formula], ...]
    frame: FrameClass
    conclusion: Formula

    def __post_init__(self):
        names = [n for n, _ in self.premises]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate premise names in {self.name!r}")

    def premise_formulas(self) -> list[Formula]:
        return [f for _, f in self.premises]


class AnalysisReport:
    """Report on one argument; each field is computed on first read.

    ``verdict`` and ``verdict_without_frame`` decide their frame class at
    most once between them, so an argument whose stated frame is empty is
    decided once.  ``triviality`` and ``minimal_frames`` start from the
    countermodels the report holds: those given to ``add_countermodel``,
    then the witnesses of the Invalid verdicts already read.

    ``triviality`` decides the schema ``[premise 1] => <>a -> conclusion``
    only when no held countermodel's frame satisfies every stated
    condition.  When one does, the schema is Invalid, and that countermodel
    is returned as it is, re-verified against the schema: premise 1 and
    ``<>a`` hold at every one of its worlds and the conclusion fails at the
    witness's world, so ``<>a -> conclusion`` fails there.  This witness
    need not be the one ``decide`` would extract, and no label ceiling
    applies to it.
    """

    def __init__(self, argument: Argument):
        self.argument = argument
        self.name = argument.name
        self._verdicts: dict[FrameClass, Verdict] = {}
        self._countermodels: list[CountermodelWitness] = []

    def _decide(self, frame: FrameClass) -> Verdict:
        verdict = self._verdicts.get(frame)
        if verdict is None:
            a = self.argument
            verdict = self._verdicts[frame] = decide(a.premise_formulas(), a.conclusion, frame)
        return verdict

    @property
    def verdict(self) -> Verdict:
        return self._decide(self.argument.frame)

    @property
    def verdict_without_frame(self) -> Verdict:
        return self._decide(frozenset())

    def add_countermodel(self, witness: CountermodelWitness) -> None:
        """Hand the frame search a verified countermodel of this argument
        found elsewhere, such as a minimised one; a small model satisfies
        more frame conditions, so it refutes more classes."""
        self._countermodels.append(witness)

    @cached_property
    def triviality(self) -> Verdict | None:
        """None when the argument shape does not fit the schema."""
        a = self.argument
        try:
            premises, conclusion = _triviality_query(a)
        except ShapeError:
            return None
        for witness in _held_countermodels(self._verdicts, self._countermodels):
            if all(frame_satisfies(witness.model, c) for c in a.frame):
                # a module attribute lookup, so that a tracer rebinding
                # enumeration._reverify sees this call
                return Invalid(enumeration._reverify(witness, premises, conclusion, a.frame))
        return triviality_check(a)

    @cached_property
    def minimal_frames(self) -> tuple[FrameClass, ...]:
        return tuple(frame_requirement_search(
            self.argument, self._verdicts.items(), self._countermodels))


@dataclass(frozen=True)
class DerivationScript:
    name: str
    premises: tuple[tuple[str, Formula], ...]
    frame: FrameClass
    steps: tuple[tuple[str, Formula], ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    description: str
    frame: FrameClass
    expected: str | None  # "valid", "invalid", or None for report-only
    verdict: Verdict
    witness: CountermodelWitness | None  # minimized countermodel if invalid
    ok: bool


@dataclass(frozen=True)
class SuiteEntryResult:
    name: str
    checks: tuple[CheckResult, ...]
    ok: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    entries: tuple[SuiteEntryResult, ...]
    ok: bool

    def entry(self, name: str) -> SuiteEntryResult:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _arg(name: str, premises: list[tuple[str, str]], frame: list[str], conclusion: str) -> Argument:
    return Argument(
        name=name,
        premises=tuple((n, parse(f)) for n, f in premises),
        frame=frozenset(FrameCondition(c) for c in frame),
        conclusion=parse(conclusion),
    )


def builtin_corpus() -> list[Argument]:
    """The eight argument variants, keyed by their usual attributions.

    A fresh list on each call; the entries are parsed once and shared."""
    return list(_corpus())


@cache
def _corpus() -> tuple[Argument, ...]:
    return (
        _arg("eder_ramharter", [("ER1", "g -> []g"), ("ER2", "<>g")], ["symmetric"], "g"),
        _arg("kane", [("K1", "[](g -> []g)"), ("K2", "<>g")], ["symmetric"], "g"),
        _arg("malcolm", [("M1", "g -> []g"), ("M2", "<>g")], ["euclidean"], "[]g"),
        _arg("malcolm_alt", [("M1", "g -> []g"), ("M2", "<>g")], ["symmetric"], "[]g"),
        _arg("adams", [("A1", "[](g -> []g)"), ("A2", "<>g")], ["euclidean"], "[]g"),
        _arg("adams_alt", [("A1", "[](g -> []g)"), ("A2", "<>g")], ["symmetric"], "[]g"),
        _arg("hartshorne", [("H1", "g |> []g"), ("H2", "<>g")], ["symmetric"], "g"),
        _arg("hartshorne_alt", [("H1", "g |> []g"), ("H2", "<>g")], ["euclidean"], "[]g"),
    )


def corpus_entry(name: str) -> Argument:
    for a in builtin_corpus():
        if a.name == name:
            return a
    raise KeyError(f"no corpus argument named {name!r}")


def triviality_check(a: Argument) -> Verdict:
    """Does the frame class make premise 1 entail "premise 2 directly
    implies the conclusion"?

    The argument must consist of exactly two premises with the second a
    bare possibility claim ``<>a``.  The check is the global consequence
    premise1 => (<>a -> conclusion) over the argument's frame class, on
    the argument's own atoms: renaming ``a`` everywhere in the query could
    not change its answer (uniform substitution).
    """
    premises, conclusion = _triviality_query(a)
    return decide(premises, conclusion, a.frame)


def _triviality_query(a: Argument) -> tuple[list[Formula], Formula]:
    """The triviality schema as a query: ([premise1], premise2 -> conclusion)."""
    if len(a.premises) != 2:
        raise ShapeError(f"{a.name!r} must have exactly two premises")
    (_, first), (_, second) = a.premises
    if not (isinstance(second, Diamond) and isinstance(second.operand, Atom)):
        raise ShapeError(f"{a.name!r}: second premise must be a bare possibility claim")
    return [first], Implies(second, a.conclusion)


# condition masks are the enumeration kernel's frame masks (frame_mask)
_MASKS = range(1 << len(FrameCondition))

# the condition set of each mask
_CLASSES = tuple(frozenset(c for c in FrameCondition if frame_mask({c}) & m) for m in _MASKS)

# all 32 condition masks in output order: by size, then by condition names
_SUBSETS = tuple(sorted(_MASKS, key=lambda m: (len(_CLASSES[m]), sorted(c.value for c in _CLASSES[m]))))

# bit s of _ABOVE[m] is set when mask s includes mask m, and bit s of
# _BELOW[m] when mask m includes mask s
_ABOVE = tuple(sum(1 << s for s in _MASKS if s & m == m) for m in _MASKS)
_BELOW = tuple(sum(1 << s for s in _MASKS if s & m == s) for m in _MASKS)


def frame_requirement_search(
    a: Argument,
    known: Iterable[tuple[FrameClass, Verdict]] = (),
    countermodels: Iterable[CountermodelWitness] = (),
) -> list[FrameClass]:
    """Minimal frame-condition subsets (under inclusion) that make the
    argument valid; sorted by size, then by condition names.

    Subsets are visited in that order, and ``decide`` runs only on those
    whose answer is not yet implied.  Validity is upward-closed in the
    conditions, so a superset of a minimal valid set is valid and not
    minimal.  A countermodel refutes every class whose conditions its
    frame satisfies, so a subset of those conditions is invalid.  Every
    proper subset of a visited set comes earlier, so a set found valid is
    minimal.

    The search runs on 5-bit condition masks.  The masks whose answer is
    implied are the bits of one int: each minimal valid set adds the
    masks above it (``_ABOVE``) and each countermodel the masks below the
    conditions its frame satisfies (``_BELOW``), so a subset is skipped
    on one bit test.

    ``known`` holds verdicts of this argument over some frame classes,
    and ``countermodels`` further verified countermodels of it.  They
    count as if the search had found them: a known Valid class is not
    decided again, and a known countermodel, an Invalid verdict's
    included, refutes the classes its frame satisfies from the start.
    They spare ``decide`` calls but cannot change the result, since the
    minimal valid sets are unique.
    """
    premises = a.premise_formulas()
    verdicts = dict(known)
    minimal: list[FrameClass] = []
    # a known Invalid class is among its own witness's satisfied
    # conditions, so the lookup below finds only Valid ones
    implied = 0
    for witness in _held_countermodels(verdicts, countermodels):
        implied |= _BELOW[_conditions_satisfied(witness.model)]
    for mask in _SUBSETS:
        if implied >> mask & 1:
            continue
        subset = _CLASSES[mask]
        verdict = verdicts.get(subset)
        if verdict is None:
            verdict = decide(premises, a.conclusion, subset)
        if isinstance(verdict, Valid):
            minimal.append(subset)
            implied |= _ABOVE[mask]
        else:
            implied |= _BELOW[_conditions_satisfied(verdict.witness.model)]
    return minimal


def _held_countermodels(
    verdicts: dict[FrameClass, Verdict], countermodels: Iterable[CountermodelWitness],
) -> list[CountermodelWitness]:
    """The given countermodels, then the witnesses of the Invalid verdicts."""
    return [*countermodels, *(v.witness for v in verdicts.values() if isinstance(v, Invalid))]


def _conditions_satisfied(model: KripkeModel) -> int:
    """The mask of the conditions the model's frame satisfies."""
    return frame_mask({c for c in FrameCondition if frame_satisfies(model, c)})


def analyze(a: Argument) -> AnalysisReport:
    """Full report: verdict under the stated frame, verdict without frame
    assumptions, the triviality schema, and minimal frame requirements.
    Each part is computed when it is first read."""
    return AnalysisReport(a)


# ---------------------------------------------------------------------------
# suites

# One suite check: (entry, check name, premises, conclusion, frame,
# expected, description).  ``expected`` is "valid", "invalid", or None for a
# check that is reported but never fails.
SuiteRow = tuple[str, str, list[Formula], Formula, FrameClass, str | None, str]

# the empty frame class: plain K
_K: FrameClass = frozenset()


def _suite(suite: str, rows: list[SuiteRow]) -> SuiteReport:
    """Decide every row, minimise the countermodel of each Invalid one,
    grade the verdict against the row's expectation, and group adjacent
    rows with the same entry name into one entry.  The report's ``ok``
    says whether every check met its expectation."""
    entries = []
    for entry, group in groupby(rows, key=itemgetter(0)):
        checks = []
        for _, name, premises, conclusion, frame, expected, description in group:
            verdict = decide(premises, conclusion, frame)
            witness = None
            if isinstance(verdict, Invalid):
                witness = minimize_countermodel(verdict.witness, premises, conclusion, frame)
            checks.append(CheckResult(
                name=name,
                description=description,
                frame=frame,
                expected=expected,
                verdict=verdict,
                witness=witness,
                ok=expected is None or expected == verdict.answer,
            ))
        entries.append(SuiteEntryResult(name=entry, checks=tuple(checks), ok=all(c.ok for c in checks)))
    return SuiteReport(suite=suite, entries=tuple(entries), ok=all(e.ok for e in entries))


def _frame_text(frame: FrameClass) -> str:
    return "{" + ", ".join(sorted(c.value for c in frame)) + "}"


def corpus_suite() -> SuiteReport:
    """Every corpus entry: valid under its stated frame class, invalid
    over the empty one, and trivial per the schema."""
    rows: list[SuiteRow] = []
    for a in builtin_corpus():
        premises = a.premise_formulas()
        claim = " , ".join(f"{n}: {print_formula(f)}" for n, f in a.premises)
        claim += f"  =>  {print_formula(a.conclusion)}"
        trivial_premises, trivial_conclusion = _triviality_query(a)
        rows += [
            (a.name, a.name, premises, a.conclusion, a.frame, "valid",
             f"{claim} over {_frame_text(a.frame)}"),
            (a.name, f"{a.name}_no_frame", premises, a.conclusion, _K, "invalid",
             f"{claim} over {{}}"),
            (a.name, f"{a.name}_triviality", trivial_premises, trivial_conclusion,
             a.frame, "valid",
             f"premise 1 reduces to possibility-implies-conclusion over {_frame_text(a.frame)}"),
        ]
    return _suite("corpus", rows)


_AXIOMS = {
    "K": "[](p -> q) -> ([]p -> []q)",
    "T": "[]p -> p",
    "D": "[]p -> <>p",
    "B": "p -> []<>p",
    "4": "[]p -> [][]p",
    "5": "<>p -> []<>p",
}

_AXIOM_FRAMES = {
    "T": "reflexive",
    "D": "serial",
    "B": "symmetric",
    "4": "transitive",
    "5": "euclidean",
}


def axiom_correspondence_suite() -> SuiteReport:
    """Standard axioms against their frame conditions, plus the facts that
    make the corpus's frame assumptions interchangeable: B and 4 both hold
    over reflexive Euclidean frames, diamond is the dual of box, and
    strict implication is necessary material implication."""
    k = _AXIOMS["K"]
    rows: list[SuiteRow] = [("K", "K", [], parse(k), _K, "valid", f"{k} over {{}}")]
    for ax, condition in _AXIOM_FRAMES.items():
        text, frame = _AXIOMS[ax], frozenset({FrameCondition(condition)})
        f = parse(text)
        rows += [
            (ax, ax, [], f, frame, "valid", f"{text} over {_frame_text(frame)}"),
            (ax, f"{ax}_over_K", [], f, _K, "invalid", f"{text} over {{}}"),
        ]
    s5 = LOGICS["S5"]
    for name, text, frame in (
        ("B_in_S5", _AXIOMS["B"], s5),
        ("four_from_T5", _AXIOMS["4"], s5),
        ("dexpand", "<>p <-> ~[]~p", _K),
        ("strict_implication", "(p |> q) <-> [](p -> q)", _K),
    ):
        rows.append((name, name, [], parse(text), frame, "valid", f"{text} over {_frame_text(frame)}"))
    return _suite("axioms", rows)


def eder_ramharter_manual() -> DerivationScript:
    """Step-wise reconstruction of the two-premise argument: necessity
    excluded-middle, necessitated contraposition, their combination, the
    necessity conclusion, and finally the existential conclusion."""
    return DerivationScript(
        name="eder_ramharter_manual",
        premises=(("ER1", parse("g -> []g")), ("ER2", parse("<>g"))),
        frame=frozenset({FrameCondition.REFLEXIVE, FrameCondition.EUCLIDEAN}),
        steps=(
            ("step1", parse("[]g | []~[]g")),
            ("step2", parse("[]~[]g -> []~g")),
            ("step3", parse("[]g | []~g")),
            ("step4", parse("[]g")),
            ("step5", parse("g")),
        ),
    )


def derivation_suite(script: DerivationScript | None = None) -> SuiteReport:
    """One check per step: the step follows from the base premises plus
    all prior steps over the script's frame class."""
    if script is None:
        script = eder_ramharter_manual()
    base = [f for _, f in script.premises]
    steps = [f for _, f in script.steps]
    given = ", ".join(n for n, _ in script.premises)
    return _suite(script.name, [
        (name, name, base + steps[:i], step, script.frame, "valid",
         f"{print_formula(step)} from {given} and prior steps over {_frame_text(script.frame)}")
        for i, (name, step) in enumerate(script.steps)
    ])


def jacquette_suite() -> SuiteReport:
    """Modal modus tollens done right and wrong, and the disputed
    deduction of necessity-of-denial from the necessity premise.

    The fourth check reads the ambiguous arrow as strict implication
    throughout; its verdict is reported but not asserted.
    """
    equiv = frozenset(
        {FrameCondition.REFLEXIVE, FrameCondition.SYMMETRIC, FrameCondition.TRANSITIVE}
    )
    return _suite("jacquette", [
        ("tollens", "tollens", [parse("p -> q")], parse("[]~q -> []~p"), _K, "valid",
         "p -> q (global) entails []~q -> []~p over {}"),
        ("tollens_bad", "tollens_bad", [], parse("(p -> q) -> ([]~q -> []~p)"), equiv, "invalid",
         f"(p -> q) -> ([]~q -> []~p) as one formula over {_frame_text(equiv)}"),
        ("prop5", "prop5", [parse("g -> []g")], parse("[]~[]g -> []~g"), _K, "valid",
         "g -> []g (global) entails []~[]g -> []~g over {}"),
        ("tollens_bad_strict", "tollens_bad_strict", [], parse("(p |> q) |> ([]~q |> []~p)"),
         equiv, None, f"(p |> q) |> ([]~q |> []~p) over {_frame_text(equiv)}"),
    ])
