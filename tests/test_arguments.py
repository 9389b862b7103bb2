import random

import pytest

from modaltab import arguments, enumeration
from modaltab.arguments import (
    AnalysisReport,
    Argument,
    DerivationScript,
    ShapeError,
    analyze,
    axiom_correspondence_suite,
    builtin_corpus,
    corpus_entry,
    corpus_suite,
    derivation_suite,
    eder_ramharter_manual,
    frame_requirement_search,
    jacquette_suite,
    triviality_check,
)
from modaltab.enumeration import EnumerationBudget, find_countermodel, minimize_countermodel
from modaltab.enumeration import CountermodelWitness
from modaltab.semantics import (
    LOGICS,
    FrameCondition,
    KripkeModel,
    evaluate,
    frame_class,
    frame_satisfies,
    holds_globally,
    model_to_json,
)
from modaltab.syntax import (
    And,
    Atom,
    Box,
    Diamond,
    Iff,
    Implies,
    Not,
    Or,
    atoms_of,
    desugar,
    fresh_atom,
    parse,
    print_formula,
    substitute,
)
from modaltab.tableau import Invalid, ResourceLimit, Valid, decide, prove_valid

K = frozenset()
SYM = frozenset({FrameCondition.SYMMETRIC})
EUCL = frozenset({FrameCondition.EUCLIDEAN})
REFL = frozenset({FrameCondition.REFLEXIVE})


@pytest.fixture
def decided(monkeypatch):
    """The frame class of each ``arguments.decide`` call the test makes."""
    frames = []
    real = arguments.decide

    def counting(*args, **kwargs):
        frames.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(arguments, "decide", counting)
    return frames


class TestCorpus:
    def test_eight_entries(self):
        corpus = builtin_corpus()
        assert len(corpus) == 8
        assert [a.name for a in corpus] == [
            "eder_ramharter", "kane", "malcolm", "malcolm_alt",
            "adams", "adams_alt", "hartshorne", "hartshorne_alt",
        ]

    def test_first_entry_premises(self):
        a = corpus_entry("eder_ramharter")
        assert a.premise_formulas() == [parse("g -> []g"), parse("<>g")]
        assert a.frame == SYM
        assert a.conclusion == Atom("g")

    def test_hartshorne_desugars_to_impossibility_form(self):
        a = corpus_entry("hartshorne")
        h1 = a.premises[0][1]
        assert desugar(h1) == Not(Diamond(And(Atom("g"), Not(Box(Atom("g"))))))
        assert print_formula(desugar(h1)) == "~<>(g & ~[]g)"

    def test_frames_and_conclusions(self):
        by_name = {a.name: a for a in builtin_corpus()}
        assert by_name["malcolm"].frame == EUCL
        assert by_name["malcolm"].conclusion == Box(Atom("g"))
        assert by_name["adams_alt"].frame == SYM
        assert by_name["hartshorne_alt"].frame == EUCL
        assert by_name["hartshorne_alt"].conclusion == Box(Atom("g"))

    def test_duplicate_premise_names_rejected(self):
        with pytest.raises(ValueError):
            Argument(
                name="broken",
                premises=(("P", parse("g")), ("P", parse("<>g"))),
                frame=K,
                conclusion=parse("g"),
            )

    def test_suite_all_green(self):
        report = corpus_suite()
        assert report.ok
        assert len(report.entries) == 8


class TestAnalyze:
    def test_eder_ramharter_report(self):
        report = analyze(corpus_entry("eder_ramharter"))
        assert isinstance(report, AnalysisReport)
        assert isinstance(report.verdict, Valid)
        assert isinstance(report.verdict_without_frame, Invalid)
        assert report.verdict_without_frame.witness.model.world_count == 2
        assert isinstance(report.triviality, Valid)
        assert SYM in report.minimal_frames
        assert K not in report.minimal_frames
        assert frozenset({FrameCondition.TRANSITIVE}) not in report.minimal_frames

    def test_malcolm_report(self):
        report = analyze(corpus_entry("malcolm"))
        assert isinstance(report.verdict, Valid)
        assert isinstance(report.triviality, Valid)
        assert list(report.minimal_frames) == [EUCL, SYM]

    def test_premise_as_conclusion_is_valid_anywhere(self):
        a = Argument(
            name="repeat",
            premises=(("P1", parse("g -> []g")), ("P2", parse("<>g"))),
            frame=K,
            conclusion=parse("<>g"),
        )
        report = analyze(a)
        assert isinstance(report.verdict, Valid)
        assert report.minimal_frames == (K,)

    @pytest.mark.parametrize("first", ["verdict", "verdict_without_frame"])
    def test_decides_an_empty_stated_frame_once(self, decided, first):
        a = Argument(
            name="t", premises=(("P1", parse("<>a")),), frame=K, conclusion=parse("[]p -> p"),
        )
        report = analyze(a)
        second = "verdict" if first == "verdict_without_frame" else "verdict_without_frame"
        assert getattr(report, first) is getattr(report, second)
        assert isinstance(report.verdict, Invalid)
        assert decided == [K]

    def test_minimal_frames_start_from_the_verdicts_read(self, decided):
        a = corpus_entry("malcolm")
        report = analyze(a)
        assert isinstance(report.verdict, Valid)
        assert isinstance(report.verdict_without_frame, Invalid)
        assert list(report.minimal_frames) == [EUCL, SYM]
        # {} and {euclidean} were read; the search decides neither again
        assert len(decided) == len(set(decided))
        assert decided[:2] == [EUCL, K]


class TestTriviality:
    NAMED = {
        "eder_ramharter": "ER",
        "kane": "K",
        "malcolm": "M",
        "adams": "A",
        "hartshorne": "H",
        "hartshorne_alt": "H_alt",
    }

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_lemmas_valid(self, name):
        assert isinstance(triviality_check(corpus_entry(name)), Valid)

    @pytest.mark.parametrize("name", ["malcolm_alt", "adams_alt"])
    def test_alt_symmetric_variants_also_trivial(self, name):
        assert isinstance(triviality_check(corpus_entry(name)), Valid)

    OCCUPIED = Argument(
        name="occupied",
        premises=(("P1", parse("p0 -> []p0")), ("P2", parse("<>p0"))),
        frame=SYM,
        conclusion=parse("p0"),
    )

    @pytest.mark.parametrize("a", [*builtin_corpus(), OCCUPIED], ids=lambda a: a.name)
    def test_schema_is_the_arguments_own_query(self, a):
        # no atom is renamed, not even where the old fresh atom p0 is taken
        (_, p1), (_, p2) = a.premises
        assert arguments._triviality_query(a) == ([p1], Implies(p2, a.conclusion))
        assert isinstance(triviality_check(a), Valid)

    def test_renaming_the_possible_atom_changes_no_verdict(self):
        """The schema on the argument's own atoms and the reference's renamed
        copy give one answer, one proof up to the renamed atom, and one
        countermodel frame: the corpus, and seeded (P1, <>a) arguments
        over one or two conditions or a logic alias."""
        rng = random.Random(20261021)
        cases = builtin_corpus() + [
            Argument(
                name="random",
                premises=(("P1", _random_formula(rng, rng.randrange(1, 4))), ("P2", parse("<>a"))),
                frame=frame_class(rng.choice(TestDerivedTriviality.FRAMES)),
                conclusion=_random_conclusion(rng),
            )
            for _ in range(330)
        ]
        compared = 0
        for a in cases:
            own = _search_shape(*arguments._triviality_query(a), a.frame)
            assert own == _search_shape(*renamed_schema(a), a.frame), a
            compared += own != "limit"
        assert compared >= 308

    def test_shape_error_premise_count(self):
        a = Argument(
            name="short", premises=(("P1", parse("g -> []g")),), frame=SYM, conclusion=parse("g")
        )
        with pytest.raises(ShapeError):
            triviality_check(a)

    def test_shape_error_second_premise(self):
        a = Argument(
            name="odd",
            premises=(("P1", parse("g -> []g")), ("P2", parse("<>(g & g)"))),
            frame=SYM,
            conclusion=parse("g"),
        )
        with pytest.raises(ShapeError):
            triviality_check(a)

    def test_lifted_reading_differs_for_eder_ramharter(self):
        # as a single lifted formula, the schema fails over symmetric frames
        lifted = parse("(p0 -> []p0) -> (<>p0 -> p0)")
        assert isinstance(prove_valid(lifted, SYM), Invalid)
        # confirmed by brute force
        assert find_countermodel([], lifted, SYM, EnumerationBudget(3, ("p0",))) is not None


class TestDerivedTriviality:
    """``AnalysisReport.triviality`` reads an Invalid schema off a held
    countermodel in the stated class instead of deciding it."""

    # Invalid over reflexive frames, and so is its schema
    GAP = Argument(
        name="reflexive_gap",
        premises=(("P1", parse("a -> []b")), ("P2", parse("<>a"))),
        frame=REFL,
        conclusion=parse("[]b"),
    )

    # one or two conditions, or a logic alias other than K
    FRAMES = [
        *([c.value] for c in FrameCondition),
        *([a.value, b.value] for i, a in enumerate(FrameCondition) for b in list(FrameCondition)[i + 1:]),
        *([name] for name in LOGICS if name != "K"),
    ]

    @staticmethod
    def assert_refutes_the_schema(a, witness):
        """Check the witness against the reference semantics."""
        (premise,), conclusion = arguments._triviality_query(a)
        model = witness.model
        assert all(frame_satisfies(model, c) for c in a.frame)
        assert holds_globally(model, desugar(premise))
        assert not evaluate(model, witness.world, desugar(conclusion))

    @staticmethod
    def in_stated_class(a, verdict):
        return isinstance(verdict, Invalid) and all(
            frame_satisfies(verdict.witness.model, c) for c in a.frame)

    @pytest.mark.parametrize("first", ["verdict", "verdict_without_frame"])
    @pytest.mark.parametrize("name", [a.name for a in builtin_corpus()])
    def test_corpus_agrees_with_the_decided_schema(self, name, first):
        a = corpus_entry(name)
        report = analyze(a)
        getattr(report, first)
        assert report.triviality.answer == triviality_check(a).answer

    def test_random_arguments_agree_with_the_decided_schema(self):
        """Seeded (P1, <>a) arguments over one or two conditions or a
        logic alias, read in ``check``'s order and in ``--no-frame``'s."""
        rng = random.Random(20261020)
        compared = derived = 0
        for _ in range(330):
            a = Argument(
                name="random",
                premises=(("P1", _random_formula(rng, rng.randrange(1, 4))), ("P2", parse("<>a"))),
                frame=frame_class(rng.choice(self.FRAMES)),
                conclusion=_random_conclusion(rng),
            )
            try:
                expected = triviality_check(a)
                for first in ("verdict", "verdict_without_frame"):
                    report = analyze(a)
                    held = getattr(report, first)
                    triviality = report.triviality
                    assert triviality.answer == expected.answer, (a, first)
                    if self.in_stated_class(a, held):
                        self.assert_refutes_the_schema(a, triviality.witness)
                        derived += 1
            except ResourceLimit:
                continue
            compared += 1
        assert compared >= 300
        assert derived >= 100

    def test_an_invalid_verdict_settles_the_schema(self, decided):
        report = analyze(self.GAP)
        assert isinstance(report.verdict, Invalid)
        assert isinstance(report.triviality, Invalid)
        assert decided == [REFL]
        self.assert_refutes_the_schema(self.GAP, report.triviality.witness)

    def test_a_valid_verdict_leaves_the_schema_to_decide(self, decided):
        report = analyze(corpus_entry("eder_ramharter"))
        assert isinstance(report.verdict, Valid)
        assert isinstance(report.triviality, Valid)
        assert decided == [SYM, SYM]

    @pytest.mark.parametrize("name", [a.name for a in builtin_corpus()])
    def test_a_countermodel_outside_the_stated_class_settles_nothing(self, decided, name):
        a = corpus_entry(name)
        report = analyze(a)
        assert not self.in_stated_class(a, report.verdict_without_frame)
        assert isinstance(report.triviality, Valid)
        assert decided == [K, a.frame]

    def test_a_given_countermodel_settles_the_schema(self, decided):
        a = self.GAP
        given = find_countermodel(a.premise_formulas(), a.conclusion, a.frame, EnumerationBudget(3, ("a", "b")))
        report = analyze(a)
        report.add_countermodel(given)
        witness = report.triviality.witness
        assert decided == []
        # the given model itself
        assert witness.world == given.world
        assert witness.model.access == given.model.access
        assert report.triviality.witness is given

    def test_the_derived_witness_is_reverified_once(self, monkeypatch):
        a = self.GAP
        report = analyze(a)
        assert isinstance(report.verdict, Invalid)
        calls = []
        real = enumeration._reverify

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(enumeration, "_reverify", counting)
        witness = report.triviality.witness
        (premise,), conclusion = arguments._triviality_query(a)
        assert len(calls) == 1
        # the schema as stated: _reverify desugars it itself
        assert calls[0] == (witness, [premise], conclusion, a.frame)

    def test_a_false_countermodel_fails_reverification(self, decided):
        # its frame is reflexive, but P1 fails at w0
        bogus = CountermodelWitness(KripkeModel(1, {(0, 0)}, {"a": {0}}), 0)
        report = analyze(self.GAP)
        report.add_countermodel(bogus)
        with pytest.raises(AssertionError, match="premise"):
            report.triviality
        assert decided == []


class TestFrameRequirementSearch:
    def test_eder_ramharter_minimal_sets(self):
        result = frame_requirement_search(corpus_entry("eder_ramharter"))
        assert SYM in result
        assert frozenset({FrameCondition.REFLEXIVE, FrameCondition.EUCLIDEAN}) in result
        assert K not in result

    def test_antichain(self):
        for name in ("eder_ramharter", "kane", "malcolm", "adams"):
            result = frame_requirement_search(corpus_entry(name))
            for a in result:
                for b in result:
                    assert not (a < b)

    def test_results_sorted(self):
        result = frame_requirement_search(corpus_entry("malcolm"))
        keys = [(len(s), sorted(c.value for c in s)) for s in result]
        assert keys == sorted(keys)

    def test_tautological_conclusion(self):
        a = Argument(
            name="taut", premises=(), frame=K, conclusion=parse("g | ~g")
        )
        assert frame_requirement_search(a) == [K]

    def test_every_minimal_set_checks_out(self):
        for a in builtin_corpus():
            for frame in frame_requirement_search(a):
                assert isinstance(decide(a.premise_formulas(), a.conclusion, frame), Valid)
                for cond in frame:
                    weaker = frame - {cond}
                    assert isinstance(decide(a.premise_formulas(), a.conclusion, weaker), Invalid)

    @pytest.mark.parametrize("name", [a.name for a in builtin_corpus()])
    def test_agrees_with_the_exhaustive_sweep_on_the_corpus(self, name):
        a = corpus_entry(name)
        assert frame_requirement_search(a) == exhaustive_frame_search(a)

    def test_agrees_with_the_exhaustive_sweep_on_random_arguments(self):
        rng = random.Random(20261018)
        compared = 0
        for _ in range(220):
            a = Argument(
                name="random",
                premises=(("P1", _random_formula(rng, rng.randrange(1, 4))), ("P2", parse("<>a"))),
                frame=K,
                conclusion=_random_conclusion(rng),
            )
            try:
                expected = exhaustive_frame_search(a)
            except ResourceLimit:
                continue
            assert frame_requirement_search(a) == expected, a
            compared += 1
        assert compared >= 200

    def test_seeded_search_agrees_with_the_exhaustive_sweep(self):
        """Random stated frames: seeded with the stated-frame verdict, with
        it and its minimised witness, or with the verdict over {}, the
        search finds the sets the exhaustive sweep finds."""
        rng = random.Random(20261019)
        compared = 0
        for _ in range(220):
            a = Argument(
                name="random",
                premises=(("P1", _random_formula(rng, rng.randrange(1, 4))), ("P2", parse("<>a"))),
                frame=frozenset(c for c in FrameCondition if rng.randrange(3) == 0),
                conclusion=_random_conclusion(rng),
            )
            premises = a.premise_formulas()
            try:
                expected = exhaustive_frame_search(a)
                stated = decide(premises, a.conclusion, a.frame)
                empty = decide(premises, a.conclusion, K)
            except ResourceLimit:
                continue
            witnesses = ()
            if isinstance(stated, Invalid):
                witnesses = (minimize_countermodel(stated.witness, premises, a.conclusion, a.frame),)
            assert frame_requirement_search(a, [(a.frame, stated)]) == expected, a
            assert frame_requirement_search(a, [(a.frame, stated)], witnesses) == expected, a
            assert frame_requirement_search(a, [(K, empty)]) == expected, a
            compared += 1
        assert compared >= 200

    def test_seeded_search_skips_what_its_seeds_settle(self, decided):
        a = corpus_entry("malcolm")
        stated = decide(a.premise_formulas(), a.conclusion, a.frame)
        assert frame_requirement_search(a, [(a.frame, stated)]) == [EUCL, SYM]
        assert a.frame == EUCL and EUCL not in decided
        assert len(decided) == self.DECIDES["malcolm"] - 1

    def test_sweep_with_a_biconditional_premise_settles(self):
        # a global premise whose disjunctions split again at every new
        # label: without backjumping, 12 of the 32 subsets raised
        # ResourceLimit
        a = Argument(
            name="iff",
            premises=(("P1", parse("<>(q -> a) <-> <>(q <-> p)")), ("P2", parse("<>a"))),
            frame=K,
            conclusion=parse("[]~<>q"),
        )
        assert exhaustive_frame_search(a) == frame_requirement_search(a) == []

    def test_minimal_sets_of_three_conditions(self):
        # without reflexivity, T needs a serial equivalence-like frame
        a = Argument(name="t", premises=(), frame=K, conclusion=parse("[]p -> p"))
        expected = [frozenset({FrameCondition.REFLEXIVE}),
                    frozenset({FrameCondition.EUCLIDEAN, FrameCondition.SERIAL, FrameCondition.SYMMETRIC}),
                    frozenset({FrameCondition.SERIAL, FrameCondition.SYMMETRIC, FrameCondition.TRANSITIVE})]
        assert exhaustive_frame_search(a) == expected
        assert frame_requirement_search(a) == expected

    def test_mask_tables_agree_with_set_inclusion(self):
        classes = arguments._CLASSES
        assert len(classes) == len(set(classes)) == 32
        assert sorted(arguments._SUBSETS) == list(range(32))
        for m in range(32):
            for s in range(32):
                assert (arguments._ABOVE[m] >> s & 1) == (classes[m] <= classes[s]), (m, s)
                assert (arguments._BELOW[m] >> s & 1) == (classes[s] <= classes[m]), (m, s)

    # decide calls per search, against 32 for the exhaustive sweep
    DECIDES = {
        "eder_ramharter": 4, "kane": 4, "malcolm": 3, "malcolm_alt": 3,
        "adams": 4, "adams_alt": 4, "hartshorne": 4, "hartshorne_alt": 4,
    }

    @pytest.mark.parametrize("name", sorted(DECIDES))
    def test_decides_only_the_frontier(self, decided, name):
        frame_requirement_search(corpus_entry(name))
        assert len(decided) == self.DECIDES[name]
        assert len(set(decided)) == len(decided)


def exhaustive_frame_search(a):
    """The reference: decide all 32 condition subsets, keep the minimal
    valid ones, sort by size and then by condition names."""
    conditions = sorted(FrameCondition, key=lambda c: c.value)
    valid = []
    for mask in range(1 << len(conditions)):
        subset = frozenset(c for i, c in enumerate(conditions) if (mask >> i) & 1)
        if isinstance(decide(a.premise_formulas(), a.conclusion, subset), Valid):
            valid.append(subset)
    minimal = [s for s in valid if not any(t < s for t in valid)]
    return sorted(minimal, key=lambda s: (len(s), sorted(c.value for c in s)))


def renamed_schema(a):
    """The reference: the triviality query with premise 2's atom renamed to
    a fresh one in premise 1 and the conclusion, ([P1'], <>fresh -> C')."""
    avoid = set().union(*(atoms_of(f) for _, f in a.premises)) | atoms_of(a.conclusion)
    fresh = Atom(fresh_atom(avoid))
    subject = a.premises[1][1].operand.name
    return (
        [substitute(a.premises[0][1], subject, fresh)],
        Implies(Diamond(fresh), substitute(a.conclusion, subject, fresh)),
    )


def _search_shape(premises, conclusion, frame):
    """What ``decide`` found, with no atom named: a proof's (rule, labels)
    steps, a countermodel's worlds, access and world, or "limit"."""
    try:
        verdict = decide(premises, conclusion, frame)
    except ResourceLimit:
        return "limit"
    if isinstance(verdict, Valid):
        return "valid", [(rule, labels) for rule, labels, _ in verdict.proof.nodes]
    model = verdict.witness.model
    return "invalid", model.world_count, model.access, verdict.witness.world


# T, D, B, 4 and 5, so that about half the random conclusions need a
# frame condition
_SCHEMAS = (
    lambda x: Implies(Box(x), x),
    lambda x: Implies(Box(x), Diamond(x)),
    lambda x: Implies(x, Box(Diamond(x))),
    lambda x: Implies(Box(x), Box(Box(x))),
    lambda x: Implies(Diamond(x), Box(Diamond(x))),
)


def _random_conclusion(rng):
    if rng.randrange(2):
        return _random_formula(rng, rng.randrange(1, 4))
    return rng.choice(_SCHEMAS)(_random_formula(rng, 0))


def _random_formula(rng, depth):
    """A formula over atoms a, p, q, nested at most ``depth`` levels."""
    if depth == 0:
        return Atom(rng.choice("apq"))
    pick = rng.randrange(8)
    if pick == 0:
        return Atom(rng.choice("apq"))
    if pick == 1:
        return Not(_random_formula(rng, depth - 1))
    if pick == 2:
        return Box(_random_formula(rng, depth - 1))
    if pick == 3:
        return Diamond(_random_formula(rng, depth - 1))
    return (And, Or, Implies, Iff)[pick - 4](_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


class TestAxiomSuite:
    def test_ten_entries_all_green(self):
        report = axiom_correspondence_suite()
        assert report.ok
        assert len(report.entries) == 10
        assert [e.name for e in report.entries] == [
            "K", "T", "D", "B", "4", "5",
            "B_in_S5", "four_from_T5", "dexpand", "strict_implication",
        ]

    def test_b_in_s5_and_four_from_t5(self):
        report = axiom_correspondence_suite()
        assert report.entry("B_in_S5").ok
        assert report.entry("four_from_T5").ok

    def test_t_over_k_witness(self):
        report = axiom_correspondence_suite()
        check = report.entry("T").checks[1]
        assert check.name == "T_over_K"
        assert model_to_json(check.witness.model) == '{"access":[],"valuation":{},"worlds":1}'

    def test_invalid_witnesses_reverify(self):
        report = axiom_correspondence_suite()
        for entry in report.entries:
            for check in entry.checks:
                if check.witness is not None:
                    for cond in check.frame:
                        assert frame_satisfies(check.witness.model, cond)


class TestSuiteRunner:
    # one decide per check: the runner never decides a query twice
    SUITES = [(corpus_suite, 24), (axiom_correspondence_suite, 15),
              (derivation_suite, 5), (jacquette_suite, 4)]

    @pytest.mark.parametrize("runner, decides", SUITES, ids=lambda x: getattr(x, "__name__", None))
    def test_decide_calls_per_suite(self, monkeypatch, runner, decides):
        seen = []
        real = arguments.decide

        def counting(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(arguments, "decide", counting)
        report = runner()
        assert len(seen) == decides == sum(len(e.checks) for e in report.entries)


def step_verdicts(script):
    report = derivation_suite(script)
    return [c.verdict for e in report.entries for c in e.checks]


class TestDerivation:
    def test_builtin_script_all_steps_valid(self):
        verdicts = step_verdicts(eder_ramharter_manual())
        assert len(verdicts) == 5
        assert all(isinstance(v, Valid) for v in verdicts)

    def test_non_sequitur_flagged(self):
        script = DerivationScript(
            name="broken",
            premises=(("ER1", parse("g -> []g")), ("ER2", parse("<>g"))),
            frame=eder_ramharter_manual().frame,
            steps=(("step1", parse("[]g | []~[]g")), ("oops", parse("~g"))),
        )
        verdicts = step_verdicts(script)
        assert isinstance(verdicts[0], Valid)
        assert isinstance(verdicts[1], Invalid)
        witness = verdicts[1].witness
        assert holds_globally(witness.model, parse("g -> []g"))
        assert evaluate(witness.model, witness.world, parse("g"))

    def test_non_sequitur_fails_the_suite_with_its_countermodel(self):
        script = DerivationScript(
            name="broken",
            premises=(("ER1", parse("g -> []g")), ("ER2", parse("<>g"))),
            frame=eder_ramharter_manual().frame,
            steps=(("step1", parse("[]g | []~[]g")), ("oops", parse("~g"))),
        )
        report = derivation_suite(script)
        assert not report.ok
        assert [e.name for e in report.entries if not e.ok] == ["oops"]
        check = report.entry("oops").checks[0]
        assert not check.ok and isinstance(check.verdict, Invalid)
        # the witness refutes ER1, ER2, step1 => ~g over the script frame
        model, world = check.witness.model, check.witness.world
        for premise in ("g -> []g", "<>g", "[]g | []~[]g"):
            assert holds_globally(model, parse(premise))
        assert not evaluate(model, world, parse("~g"))
        assert all(frame_satisfies(model, c) for c in script.frame)

    def test_empty_script(self):
        script = DerivationScript(name="empty", premises=(), frame=K, steps=())
        assert step_verdicts(script) == []

    def test_steps_depend_on_priors(self):
        # step5 (the bare conclusion) is not a consequence of the premises
        # over the script frame minus reflexivity, but the suite frame has it
        script = eder_ramharter_manual()
        assert script.frame == frozenset({FrameCondition.REFLEXIVE, FrameCondition.EUCLIDEAN})
        suite = derivation_suite()
        assert suite.ok
        assert [e.name for e in suite.entries] == ["step1", "step2", "step3", "step4", "step5"]


class TestJacquette:
    def test_asserted_checks(self):
        report = jacquette_suite()
        assert report.ok
        tollens = report.entry("tollens").checks[0]
        bad = report.entry("tollens_bad").checks[0]
        prop5 = report.entry("prop5").checks[0]
        assert isinstance(tollens.verdict, Valid)
        assert isinstance(bad.verdict, Invalid)
        assert isinstance(prop5.verdict, Valid)

    def test_tollens_bad_minimized_witness(self):
        report = jacquette_suite()
        bad = report.entry("tollens_bad").checks[0]
        assert (
            model_to_json(bad.witness.model)
            == '{"access":[[0,0],[0,1],[1,0],[1,1]],"valuation":{"p":[1]},"worlds":2}'
        )
        assert bad.witness.world == 0

    def test_strict_reading_reported_not_asserted(self):
        report = jacquette_suite()
        strict = report.entry("tollens_bad_strict").checks[0]
        assert strict.expected is None
        assert strict.ok  # report-only checks never fail the suite


class TestPremiseFormEquivalences:
    def test_necessity_premise_entails_kane_form(self):
        assert isinstance(decide([parse("g -> []g")], parse("[](g -> []g)"), K), Valid)

    def test_strict_and_kane_forms_coincide(self):
        assert isinstance(decide([parse("g |> []g")], parse("[](g -> []g)"), K), Valid)
        assert isinstance(decide([parse("[](g -> []g)")], desugar(parse("g |> []g")), K), Valid)


class TestSubstitutionStability:
    SCHEMAS = [
        ("(p0 -> []p0) -> (<>p0 -> p0)", SYM, False),  # lifted form: not valid
        ("[]p -> p", frozenset({FrameCondition.REFLEXIVE}), True),
        ("p -> []<>p", SYM, True),
        ("<>p -> []<>p", EUCL, True),
        ("[]p -> [][]p", frozenset({FrameCondition.TRANSITIVE}), True),
        ("[]p -> <>p", frozenset({FrameCondition.SERIAL}), True),
        ("[](p -> q) -> ([]p -> []q)", K, True),
        ("<>p <-> ~[]~p", K, True),
        ("(p |> q) <-> [](p -> q)", K, True),
    ]

    REPLACEMENTS = ["~g", "[]g", "g & <>g", "q -> g"]

    def test_valid_schemas_closed_under_substitution(self):
        for text, frame, expect_valid in self.SCHEMAS:
            f = parse(text)
            base = prove_valid(f, frame)
            assert isinstance(base, Valid) == expect_valid
            if not expect_valid:
                continue
            for replacement in self.REPLACEMENTS:
                inst = substitute(f, "p", parse(replacement))
                assert isinstance(prove_valid(inst, frame), Valid), (text, replacement)

    TRIVIALITY_SCHEMAS = [
        # (premise, consequence) pairs checked as global consequences
        ("p -> []p", "<>p -> p", SYM),          # eder_ramharter
        ("[](p -> []p)", "<>p -> p", SYM),      # kane
        ("p -> []p", "<>p -> []p", EUCL),       # malcolm
        ("[](p -> []p)", "<>p -> []p", EUCL),   # adams
        ("p |> []p", "<>p -> p", SYM),          # hartshorne
        ("p |> []p", "<>p -> []p", EUCL),       # hartshorne_alt
    ]

    def test_triviality_schemas_closed_under_substitution(self):
        for premise_text, conclusion_text, frame in self.TRIVIALITY_SCHEMAS:
            premise, conclusion = parse(premise_text), parse(conclusion_text)
            assert isinstance(decide([premise], conclusion, frame), Valid)
            for replacement in self.REPLACEMENTS:
                h = parse(replacement)
                inst = decide(
                    [substitute(premise, "p", h)], substitute(conclusion, "p", h), frame
                )
                assert isinstance(inst, Valid), (premise_text, replacement)
