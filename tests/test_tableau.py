import functools
import hashlib
import json
import operator
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from modaltab import cli, enumeration, syntax, tableau
from modaltab.arguments import builtin_corpus, eder_ramharter_manual
from modaltab.enumeration import EnumerationBudget, find_countermodel
from modaltab.semantics import (
    LOGICS,
    FrameCondition,
    evaluate,
    frame_class,
    frame_satisfies,
    holds_globally,
    model_to_json,
)
from modaltab.syntax import (
    MAX_DEPTH,
    And,
    Atom,
    Box,
    Diamond,
    FormulaSyntaxError,
    Implies,
    Not,
    Or,
    desugar,
    nnf,
    parse,
    print_formula,
    subformulas,
)
from modaltab.tableau import (
    Invalid,
    ProofObject,
    ResourceLimit,
    Valid,
    _Branch,
    _Budget,
    _State,
    _Table,
    _expand_segment,
    _replay,
    _seeded,
    check_proof,
    decide,
    prove_valid,
)

from conftest import NotSaturated, check_saturated, formula_strategy

K = frozenset()
REFL = frozenset({FrameCondition.REFLEXIVE})
SYM = frozenset({FrameCondition.SYMMETRIC})
TRANS = frozenset({FrameCondition.TRANSITIVE})
EUCL = frozenset({FrameCondition.EUCLIDEAN})
SERIAL = frozenset({FrameCondition.SERIAL})
S5 = frozenset({FrameCondition.REFLEXIVE, FrameCondition.EUCLIDEAN})

ER_PREMISES = [parse("g -> []g"), parse("<>g")]


def verify_witness(witness, premises, conclusion, frame):
    for cond in frame:
        assert frame_satisfies(witness.model, cond)
    for premise in premises:
        assert holds_globally(witness.model, desugar(premise))
    assert not evaluate(witness.model, witness.world, desugar(conclusion))


class TestDecide:
    def test_necessity_argument_needs_symmetry(self):
        verdict = decide(ER_PREMISES, parse("g"), SYM)
        assert isinstance(verdict, Valid)

    def test_necessity_argument_fails_over_k(self):
        verdict = decide(ER_PREMISES, parse("g"), K)
        assert isinstance(verdict, Invalid)
        assert (
            model_to_json(verdict.witness.model)
            == '{"access":[[0,1],[1,1]],"valuation":{"g":[1]},"worlds":2}'
        )
        assert verdict.witness.world == 0
        # the enumerator confirms the same first witness
        enum = find_countermodel(ER_PREMISES, parse("g"), K, EnumerationBudget(3, ("g",)))
        assert model_to_json(enum.model) == model_to_json(verdict.witness.model)

    def test_axiom_k_valid_everywhere(self):
        assert isinstance(decide([], parse("[](p -> q) -> ([]p -> []q)"), K), Valid)

    def test_global_premise_entailment(self):
        # a premise holds at all worlds, so its necessitation follows
        assert isinstance(decide([parse("g -> []g")], parse("[](g -> []g)"), K), Valid)

    def test_conclusion_is_premise(self):
        assert isinstance(decide([parse("g")], parse("g"), K), Valid)

    def test_sugar_accepted(self):
        assert isinstance(decide([parse("g |> []g"), parse("<>g")], parse("g"), SYM), Valid)

    def test_a_query_without_strict_implication_is_not_desugared(self, monkeypatch):
        # desugar returns such a formula as it is, so its countermodel is
        # re-verified against the query itself
        calls = []
        monkeypatch.setattr(tableau, "desugar", lambda f: calls.append(f) or desugar(f))
        assert isinstance(decide(ER_PREMISES, parse("g"), K), Invalid)
        assert isinstance(decide([parse("(p <-> q) -> r")], parse("~[](p -> <>q)"), S5), Invalid)
        assert calls == []

    @pytest.mark.parametrize("premises,conclusion", [
        (["g |> []g", "<>g"], "g"),
        (["<>g"], "g |> []g"),
        (["p -> (q |> ~~p)"], "~q"),
    ])
    def test_a_strict_implication_query_is_reverified_desugared(self, monkeypatch, premises, conclusion):
        reverified = []
        real = enumeration._reverify

        def recording(witness, premises, conclusion, frame):
            reverified.append((premises, conclusion))
            return real(witness, premises, conclusion, frame)

        monkeypatch.setattr(enumeration, "_reverify", recording)
        premises, conclusion = [parse(p) for p in premises], parse(conclusion)
        assert isinstance(decide(premises, conclusion, K), Invalid)
        assert reverified == [(tuple(desugar(p) for p in premises), desugar(conclusion))]


class TestProveValid:
    def test_t_over_reflexive(self):
        assert isinstance(prove_valid(parse("[]p -> p"), REFL), Valid)

    def test_five_over_euclidean(self):
        assert isinstance(prove_valid(parse("<>p -> []<>p"), EUCL), Valid)

    def test_t_over_k_minimal_witness(self):
        verdict = prove_valid(parse("[]p -> p"), K)
        assert isinstance(verdict, Invalid)
        assert model_to_json(verdict.witness.model) == '{"access":[],"valuation":{},"worlds":1}'

    def test_d_over_serial(self):
        assert isinstance(prove_valid(parse("[]p -> <>p"), SERIAL), Valid)
        assert isinstance(prove_valid(parse("[]p -> <>p"), K), Invalid)

    def test_b_over_symmetric(self):
        assert isinstance(prove_valid(parse("p -> []<>p"), SYM), Valid)

    def test_four_over_transitive(self):
        trans = frozenset({FrameCondition.TRANSITIVE})
        assert isinstance(prove_valid(parse("[]p -> [][]p"), trans), Valid)
        assert isinstance(prove_valid(parse("[]p -> [][]p"), K), Invalid)

    def test_s5_collapses_iterated_modalities(self):
        assert isinstance(prove_valid(parse("<>[]p -> []p"), S5), Valid)
        assert isinstance(prove_valid(parse("<>[]p -> []p"), K), Invalid)


def hand_branch(frame, label_sets, edges):
    """A branch with the given formula set per label and the given edges;
    its formulas are compiled into one table, and the branch holds their ids."""
    table = _Table([(f, False) for formulas in label_sets for f in formulas])
    branch = _Branch(frame, table, ())
    for formulas in label_sets:
        lid = branch.new_label()
        for f in formulas:
            branch.add_formula(lid, table.find(f, {}))
    for a, b in edges:
        branch.add_edge(a, b)
    return branch


class TestExtractCountermodel:
    def test_single_label_extraction(self):
        branch = hand_branch(K, [{Box(Atom("p")), Not(Atom("p"))}], [])
        witness = tableau.extract_countermodel(branch, [None], (), parse("[]p -> p"))
        assert witness.model.world_count == 1
        assert witness.model.access == frozenset()
        assert not evaluate(witness.model, 0, Atom("p"))

    def test_blocked_label_redirects(self):
        # w1's successor is subsumed by w1 itself, giving the loop-back edge
        p1 = Or(Not(Atom("g")), Box(Atom("g")))
        content = {Atom("g"), Box(Atom("g")), p1, Diamond(Atom("g"))}
        root = {Not(Atom("g")), p1, Diamond(Atom("g"))}
        branch = hand_branch(K, [root, content, content], [(0, 1), (1, 2)])
        witness = tableau.extract_countermodel(branch, [None, None, 1], tuple(ER_PREMISES), parse("g"))
        assert (
            model_to_json(witness.model)
            == '{"access":[[0,1],[1,1]],"valuation":{"g":[1]},"worlds":2}'
        )

    def test_reverified_through_the_enumerator_module(self, monkeypatch):
        # a module attribute call, which a tracer rebinding
        # enumeration._reverify sees
        calls = []
        real = enumeration._reverify

        def counting(witness, premises, conclusion, frame):
            calls.append((tuple(premises), conclusion))
            return real(witness, premises, conclusion, frame)

        monkeypatch.setattr(enumeration, "_reverify", counting)
        branch = hand_branch(K, [{Box(Atom("p")), Not(Atom("p"))}], [])
        tableau.extract_countermodel(branch, [None], (), parse("[]p -> p"))
        assert calls == [((), parse("[]p -> p"))]

    @pytest.mark.parametrize("premises,conclusion,message", [
        ((Atom("p"),), parse("[]p -> p"), "witness violates a premise"),
        ((), Not(Atom("p")), "witness does not refute the conclusion"),
    ])
    def test_failed_reverification_raises(self, premises, conclusion, message):
        branch = hand_branch(K, [{Box(Atom("p")), Not(Atom("p"))}], [])
        with pytest.raises(AssertionError, match=message):
            tableau.extract_countermodel(branch, [None], premises, conclusion)

    def test_not_saturated_when_closed(self):
        branch = hand_branch(K, [{Atom("p"), Not(Atom("p"))}], [])
        with pytest.raises(NotSaturated):
            check_saturated(branch, [None])

    def test_not_saturated_with_unexpanded_rule(self):
        branch = hand_branch(K, [{And(Atom("p"), Atom("q")), Not(Atom("r"))}], [])
        with pytest.raises(NotSaturated):
            check_saturated(branch, [None])

    @pytest.mark.parametrize("rule,frame,label_sets,edges,label", [
        ("beta", K, [{Or(Atom("p"), Atom("q"))}], [], 0),
        ("box", K, [{Box(Atom("p"))}, set()], [(0, 1)], 0),
        ("diamond", K, [{Diamond(Atom("p"))}], [], 0),
        ("closure", K, [{Atom("p"), Not(Atom("p"))}], [], 0),
        ("serial", SERIAL, [{Atom("p")}], [], 0),
        # one Horn closure step short: (0, 0); (1, 0); (0, 2); and (1, 2),
        # the only pair missing from the Euclidean closure of these edges
        ("frame-closure", REFL, [{Atom("p")}], [], 0),
        ("frame-closure", SYM, [set(), set()], [(0, 1)], 1),
        ("frame-closure", TRANS, [set(), set(), set()], [(0, 1), (1, 2)], 0),
        ("frame-closure", EUCL, [set(), set(), set()], [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2)], 1),
        # []p has not moved to the successor, where transitivity carries it
        ("box", TRANS, [{Box(Atom("p"))}, {Atom("p")}], [(0, 1)], 0),
    ])
    def test_not_saturated_names_the_applicable_rule(self, rule, frame, label_sets, edges, label):
        branch = hand_branch(frame, label_sets, edges)
        blocked = [None] * len(label_sets)
        with pytest.raises(NotSaturated, match=f"^{rule} rule applicable at label {label}$"):
            check_saturated(branch, blocked)

    def test_the_oracle_refuses_an_open_branch_the_search_left_unsaturated(self, monkeypatch):
        # a search that drops its frame-closure steps leaves the open branch
        # of <><>p over a transitive frame without the edge (0, 2).
        # Extraction re-closes the edges, so the countermodel still
        # re-verifies: only the saturation oracle sees the fault
        enqueue = _State.enqueue

        def dropping(state, step):
            if step[0] != "frame-closure":
                enqueue(state, step)

        monkeypatch.setattr(_State, "enqueue", dropping)
        conclusion = Not(Diamond(Diamond(Atom("p"))))
        with pytest.raises(NotSaturated, match="^frame-closure rule applicable at label 0$"):
            decide([], conclusion, TRANS)
        monkeypatch.setattr(tableau, "extract_countermodel", tableau.extract_countermodel.__wrapped__)
        verdict = decide([], conclusion, TRANS)
        verify_witness(verdict.witness, [], conclusion, TRANS)


class TestEuclideanTransfers:
    def test_an_in_edge_of_the_root_queues_the_box_transfers_it_licenses(self):
        # on a Euclidean frame a box moves along an edge only from a label
        # with an in-edge.  A spawned label has its parent edge before any
        # out-edge, so only the root can gain its first in-edge after an
        # out-edge, and only as the converse of one (or through the
        # reflexive (0, 0), whose closure adds every converse); the converse
        # edge (c, 0) queues the transfer of the root's boxes along (0, c)
        table = _Table([(Box(Atom("p")), False)])
        box, p = table.find(Box(Atom("p")), {}), table.find(Atom("p"), {})
        state = _State(EUCL, table, (), _Budget(10))
        for _ in range(3):
            state.new_label()
        state.add_formula(0, box)
        state.add_edge(0, 1)
        state.add_edge(0, 2)
        assert _expand_segment(state) is None and box not in state.label_sets[1]
        state.add_edge(1, 0)
        assert ("box", (0, 1), box) in state.queued
        assert _expand_segment(state) is None and not state.closed
        check_saturated(state, state.blocking())
        assert all(box in s and p in s for s in state.label_sets)


class TestClosureStep:
    """Closure is a queued step: the literal that completes a complementary
    pair triggers it, and it fires before any other step."""

    def test_a_clash_in_the_seeds_is_the_only_step(self):
        verdict, popped = _counting_popped(lambda: decide([Atom("p")], Atom("p"), K))
        assert popped == 1
        assert verdict.proof.nodes == (("closure", (0,), Atom("p")),)

    @pytest.mark.parametrize("first,second", [("p", "q"), ("q", "p")])
    def test_an_alpha_step_closes_on_the_literal_it_adds_first(self, first, second):
        # ~(first & second) negated is first & second; both components clash
        # with a premise, and the first one added closes the branch
        conjunction = And(Atom(first), Atom(second))
        premises = [Not(Atom("p")), Not(Atom("q"))]
        verdict = decide(premises, Not(conjunction), K)
        assert verdict.proof.nodes == (("alpha", (0,), conjunction), ("closure", (0,), Atom(first)))
        assert check_proof(verdict.proof, premises, Not(conjunction), K)

    def test_a_premise_at_a_spawned_child_closes_at_the_child(self):
        # the negated conclusion <>p spawns a child holding p, then the
        # premise ~p arrives there
        premises, conclusion = [Not(Atom("p"))], Box(Not(Atom("p")))
        verdict = decide(premises, conclusion, K)
        assert verdict.proof.nodes == (
            ("diamond", (0,), Diamond(Atom("p"))),
            ("closure", (1,), Atom("p")),
        )
        assert check_proof(verdict.proof, premises, conclusion, K)


class ReferenceTable:
    """The table as compiled from NNF seeds built first by ``nnf`` and
    ``desugar``: each formula added after its children, in post-order over
    the seeds, unless an equal one is present."""

    def __init__(self, seeds):
        self.formulas, self.kind, self.left, self.right, self.boxed, self.negated = [], [], [], [], [], []
        self.index = {}
        self.roots = tuple([self.add(f) for f in seeds])

    def add(self, f):
        if f in self.index:
            return self.index[f]
        kind = TestTable.KINDS[type(f)]
        left = right = -1
        if isinstance(f, (And, Or)):
            left, right = self.add(f.left), self.add(f.right)
        elif not isinstance(f, Atom):
            left = self.add(f.operand)
        i = self.index[f] = len(self.formulas)
        for column, value in ((self.formulas, f), (self.kind, kind), (self.left, left), (self.right, right),
                              (self.boxed, -1), (self.negated, -1)):
            column.append(value)
        if isinstance(f, Box):
            self.boxed[left] = i
        elif isinstance(f, Not):
            self.negated[left] = i
        return i


def nnf_seeds(seeds):
    """The NNF of each ``(formula, negated)`` seed, as ``nnf`` and
    ``desugar`` build it."""
    return [nnf(Not(desugar(f)) if negated else desugar(f)) for f, negated in seeds]


def table_find(table, f):
    """The id of ``f`` in ``table``, -1 if absent."""
    i = table.find(f, {})
    return -1 if i is None else i


@pytest.mark.golden
class TestTable:
    """The formula table of one query: every subformula of its NNF seeds
    under one id, children before parents, and nothing else."""

    # sha256 of the formulas of every golden query's table, in id order
    IDS_DIGEST = "15f0687c07086edeadfbf245d4e6379083bfe80abe507d6389fb6585d557cc51"

    KINDS = {Atom: tableau._ATOM, Not: tableau._LITERAL, And: tableau._AND, Or: tableau._OR,
             Box: tableau._BOX, Diamond: tableau._DIAMOND}

    def check(self, seeds):
        """``seeds`` are ``(formula, negated)`` pairs."""
        table = _Table(seeds)
        formulas = [table.formula(i) for i in range(len(table.kind))]
        expected = nnf_seeds(seeds)
        assert [formulas[i] for i in table.roots] == expected
        assert set(formulas) == set().union(*map(subformulas, expected))
        for i, f in enumerate(formulas):
            assert table_find(table, f) == i and table.kind[i] == self.KINDS[type(f)]
            children = [f.left, f.right] if isinstance(f, (And, Or)) else [getattr(f, "operand", None), None]
            ids = [table.left[i], table.right[i]]
            assert [formulas[c] if c >= 0 else None for c in ids] == children
            assert all(c < i for c in ids)  # post-order
            assert table.boxed[i] == table_find(table, Box(f))
            assert table.negated[i] == (table_find(table, Not(f)) if isinstance(f, Atom) else -1)
            assert table.name[i] == (f.name if isinstance(f, Atom) else None)

    @given(formula_strategy(atoms=("p", "q", "r"), max_leaves=24), formula_strategy(max_leaves=12))
    @settings(max_examples=150)
    def test_invariants(self, conclusion, premise):
        self.check([(conclusion, True), (premise, False)])

    @given(formula_strategy(atoms=("p", "q", "r"), max_leaves=24), formula_strategy(max_leaves=12))
    @settings(max_examples=300)
    def test_one_walk_matches_the_reference(self, conclusion, premise):
        # formula_strategy draws <->, |>, -> and runs of ~: the one walk
        # expands them as desugar and nnf do, and numbers the result alike
        seeds = [(conclusion, True), (premise, False)]
        table, reference = _Table(seeds), ReferenceTable(nnf_seeds(seeds))
        assert table.roots == reference.roots
        for column in ("kind", "left", "right", "boxed", "negated"):
            assert getattr(table, column) == getattr(reference, column), column
        assert [table.formula(i) for i in range(len(table.kind))] == reference.formulas

    def test_seeds_share_subformulas(self):
        self.check([(parse("[]p & ~p"), False), (parse("~p"), False), (parse("[]p | <>[]p"), False)])

    def test_seeds_outside_nnf_and_with_sugar(self):
        self.check([(parse("~[]p"), False), (parse("p |> ~~q"), True), (parse("(p <-> q) -> r"), False)])

    @pytest.mark.parametrize("seeds,strict", [
        ([("p -> q", False), ("[](p <-> q)", True)], False),
        ([("p -> q", False), ("~(q |> p)", True)], True),
        ([("<>(p & (q |> r))", False)], True),
    ])
    def test_strict_says_whether_a_seed_holds_strict_implication(self, seeds, strict):
        assert _Table([(parse(text), negated) for text, negated in seeds]).strict is strict

    def test_refuses_a_non_formula(self):
        with pytest.raises(TypeError, match="not a formula"):
            _Table([("[]p", False)])  # text, not a formula

    def test_find_answers_only_for_formulas_the_table_holds(self):
        table = _Table([(parse("[]p -> q"), False)])  # compiles <>~p | q
        assert [table_find(table, parse(t)) for t in ("p", "~p", "<>~p", "q", "<>~p | q")] == list(range(5))
        for text in ("[]p -> q", "~[]p | q", "q | <>~p", "[]p", "~~p", "~q", "r"):
            assert table_find(table, parse(text)) == -1, text

    def test_ids_pinned(self):
        # ids follow the seeds alone, never the string hash seed, so the
        # formulas of every golden query's table, in id order, hash alike
        # under every PYTHONHASHSEED
        lines = []
        for name in sorted(GOLDEN_QUERIES):
            premises, conclusion, frame = GOLDEN_QUERIES[name]
            table = _seeded(_Branch, frame, premises, conclusion).table
            lines.append(" ".join(
                f"{i}:{print_formula(table.formula(i))}:{table.boxed[i]}:{table.negated[i]}"
                for i in range(len(table.kind))
            ))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.IDS_DIGEST


K_AXIOM = "[](p -> q) -> ([]p -> []q)"


def _edit_node(doc, index, **fields):
    """``doc`` with the fields of its node at ``index`` replaced; a field
    set to ``...`` is dropped."""
    edited = [
        {k: v for k, v in {**e, **fields}.items() if v is not ...} if i == index else e
        for i, e in enumerate(doc["nodes"])
    ]
    return {**doc, "nodes": edited}


def encode(steps):
    """The proof document of ``(rule, labels, formula text or None)`` steps,
    as ``to_json`` writes it."""
    return json.loads(ProofObject(tuple(
        (rule, tuple(labels), None if text is None else parse(text)) for rule, labels, text in steps
    )).to_json())


def _edit_formula(doc, index, text):
    """``doc`` with the formula of its node at ``index`` replaced by the
    formula ``text`` spells, written again as ``to_json`` writes it."""
    steps = list(ProofObject.from_json_dict(doc).nodes)
    rule, labels, _ = steps[index]
    steps[index] = (rule, labels, parse(text))
    return json.loads(ProofObject(tuple(steps)).to_json())


def _edit_entry(doc, index, entry):
    """``doc`` with its formula entry at ``index`` replaced by ``entry``."""
    formulas = list(doc["formulas"])
    formulas[index] = entry
    return {**doc, "formulas": formulas}


def text_encoding(proof):
    """The proof's JSON in the earlier text format: ``{"nodes": [...]}``
    with each step's formula as its printed ASCII text.  Kept as a test
    reference: the golden proof ids and proof digests are hashes of it,
    so they show that no step moved when only the encoding changed."""
    doc = {"nodes": [{"rule": r, "labels": l, "formula": f} for r, l, f in proof.nodes]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=print_formula)


# each table is refused where it is read, before any replay: without the
# type checks the ``true`` label would alias label 1, and a ``true``
# formula would name entry 1.  A node holds exactly rule, labels and
# formula, so an ``id`` or ``children`` field, which the order of the
# nodes makes redundant, is refused whatever its value
MALFORMED_TABLES = {
    "empty object": lambda doc: {},
    "top-level list": lambda doc: doc["nodes"],
    "without formulas": lambda doc: {"nodes": doc["nodes"]},
    "without nodes": lambda doc: {"formulas": doc["formulas"]},
    "extra key": lambda doc: {**doc, "version": 2},
    "formulas not a list": lambda doc: {**doc, "formulas": {}},
    "nodes not a list": lambda doc: {**doc, "nodes": 5},
    "node not an object": lambda doc: {**doc, "nodes": [5]},
    "node without rule": lambda doc: _edit_node(doc, 1, rule=...),
    "node without formula": lambda doc: _edit_node(doc, 1, formula=...),
    "rule not a string": lambda doc: _edit_node(doc, 1, rule=["alpha"]),
    "labels not a list": lambda doc: _edit_node(doc, 1, labels=5),
    "list label": lambda doc: _edit_node(doc, 1, labels=[[0]]),
    "true as label": lambda doc: _edit_node(doc, 1, labels=[True]),
    "list id": lambda doc: _edit_node(doc, 1, id=[1]),
    "list child": lambda doc: _edit_node(doc, 0, children=[[1]]),
    "true as id": lambda doc: _edit_node(doc, 1, id=True),
    # a node's formula names an entry by its id
    "text formula": lambda doc: _edit_node(doc, 1, formula="p"),
    "formula past the table": lambda doc: _edit_node(doc, 1, formula=len(doc["formulas"])),
    "negative formula": lambda doc: _edit_node(doc, 1, formula=-1),
    "true as formula": lambda doc: _edit_node(doc, 1, formula=True),
    "float formula": lambda doc: _edit_node(doc, 1, formula=1.0),
    # an atom entry is an identifier
    "atom name with a space": lambda doc: _edit_entry(doc, 0, "p q"),
    "atom name with a digit first": lambda doc: _edit_entry(doc, 0, "1p"),
    "empty atom name": lambda doc: _edit_entry(doc, 0, ""),
    "atom name with a newline": lambda doc: _edit_entry(doc, 0, "p\n"),
    "formula text as an atom": lambda doc: _edit_entry(doc, 0, "p & q"),
    # any other entry is an ASCII spelling and its child ids
    "unknown spelling": lambda doc: _edit_entry(doc, 1, ["^", 0]),
    "Unicode spelling": lambda doc: _edit_entry(doc, 1, ["¬", 0]),
    "unary spelling with two children": lambda doc: _edit_entry(doc, 1, ["~", 0, 0]),
    "binary spelling with one child": lambda doc: _edit_entry(doc, 1, ["&", 0]),
    "spelling alone": lambda doc: _edit_entry(doc, 1, ["~"]),
    "empty entry": lambda doc: _edit_entry(doc, 1, []),
    "number entry": lambda doc: _edit_entry(doc, 1, 5),
    "null entry": lambda doc: _edit_entry(doc, 1, None),
    "number spelling": lambda doc: _edit_entry(doc, 1, [0, 0]),
    "text child": lambda doc: _edit_entry(doc, 1, ["~", "0"]),
    "float child": lambda doc: _edit_entry(doc, 1, ["~", 0.0]),
    "false as child": lambda doc: _edit_entry(doc, 1, ["~", False]),
    "true as right child": lambda doc: _edit_entry(doc, 1, ["&", 0, True]),
    "its own id as child": lambda doc: _edit_entry(doc, 1, ["~", 1]),
    "later id as child": lambda doc: _edit_entry(doc, 1, ["&", 0, 2]),
    "negative child": lambda doc: _edit_entry(doc, 1, ["~", -1]),
}

# decide([g -> []g], [](g -> []g), K) as the id-keyed table of the previous
# proof format: preorder ids with child lists, each spawn naming its child
# label, and a global-premise node per premise copied to a new label
OLD_FORMAT_TABLE = {"nodes": [
    {"children": [1, 10], "formula": "~g | []g", "id": 0, "labels": [0], "rule": "beta"},
    {"children": [2], "formula": "<>(g & <>~g)", "id": 1, "labels": [0, 1], "rule": "diamond"},
    {"children": [3], "formula": "~g | []g", "id": 2, "labels": [1], "rule": "global-premise"},
    {"children": [4], "formula": "g & <>~g", "id": 3, "labels": [1], "rule": "alpha"},
    {"children": [5, 6], "formula": "~g | []g", "id": 4, "labels": [1], "rule": "beta"},
    {"children": [], "formula": "g", "id": 5, "labels": [1], "rule": "closure"},
    {"children": [7], "formula": "<>~g", "id": 6, "labels": [1, 2], "rule": "diamond"},
    {"children": [8], "formula": "~g | []g", "id": 7, "labels": [2], "rule": "global-premise"},
    {"children": [9], "formula": "g", "id": 8, "labels": [1, 2], "rule": "box"},
    {"children": [], "formula": "g", "id": 9, "labels": [2], "rule": "closure"},
    {"children": [11], "formula": "<>(g & <>~g)", "id": 10, "labels": [0, 1], "rule": "diamond"},
    {"children": [12], "formula": "~g | []g", "id": 11, "labels": [1], "rule": "global-premise"},
    {"children": [13], "formula": "g & <>~g", "id": 12, "labels": [1], "rule": "alpha"},
    {"children": [14, 15], "formula": "~g | []g", "id": 13, "labels": [1], "rule": "beta"},
    {"children": [], "formula": "g", "id": 14, "labels": [1], "rule": "closure"},
    {"children": [16], "formula": "<>~g", "id": 15, "labels": [1, 2], "rule": "diamond"},
    {"children": [17], "formula": "~g | []g", "id": 16, "labels": [2], "rule": "global-premise"},
    {"children": [18], "formula": "g", "id": 17, "labels": [1, 2], "rule": "box"},
    {"children": [], "formula": "g", "id": 18, "labels": [2], "rule": "closure"},
]}


class TestProofObjects:
    def test_replay_accepts_own_proof(self):
        verdict = decide(ER_PREMISES, parse("g"), SYM)
        assert isinstance(verdict, Valid)
        assert check_proof(verdict.proof, ER_PREMISES, parse("g"), SYM)

    def test_replay_rejects_wrong_frame(self):
        verdict = decide(ER_PREMISES, parse("g"), SYM)
        assert not check_proof(verdict.proof, ER_PREMISES, parse("g"), K)

    def test_replay_rejects_wrong_query(self):
        verdict = decide(ER_PREMISES, parse("g"), SYM)
        assert not check_proof(verdict.proof, [parse("<>g")], parse("g"), SYM)

    def test_mutated_proof_rejected(self):
        # the first closure dropped: its branch runs on into the steps of
        # the next one, and no branch ends where it should
        verdict = decide(ER_PREMISES, parse("g"), SYM)
        doc = json.loads(verdict.proof.to_json())
        nodes = doc["nodes"]
        victim = next(i for i, e in enumerate(nodes) if e["rule"] == "closure")
        mutated = ProofObject.from_json_dict({**doc, "nodes": nodes[:victim] + nodes[victim + 1:]})
        assert not check_proof(mutated, ER_PREMISES, parse("g"), SYM)

    def test_step_after_the_last_closure_rejected(self):
        doc = json.loads(prove_valid(parse(K_AXIOM), K).proof.to_json())
        nodes = doc["nodes"]
        for extra in (nodes[-1], nodes[0]):
            padded = ProofObject.from_json_dict({**doc, "nodes": [*nodes, extra]})
            assert not check_proof(padded, [], parse(K_AXIOM), K)

    def test_unclosed_right_branch_rejected(self):
        # the final closure ends the right branch of the last beta
        doc = _proof_doc("corpus/malcolm")
        rules = [e["rule"] for e in doc["nodes"]]
        assert "beta" in rules and rules[-1] == "closure"
        truncated = ProofObject.from_json_dict({**doc, "nodes": doc["nodes"][:-1]})
        assert not check_proof(truncated, *GOLDEN_QUERIES["corpus/malcolm"])

    def test_old_format_table_refused(self):
        query = ([parse("g -> []g")], parse("[](g -> []g)"), K)
        with pytest.raises(ValueError, match="malformed"):
            ProofObject.from_json_dict(OLD_FORMAT_TABLE)
        # without ids and child lists, its two-label spawns and its
        # global-premise steps are each refused on replay; with both
        # rewritten, the same proof replays and is the search's own
        bare = [(e["rule"], e["labels"], e["formula"]) for e in OLD_FORMAT_TABLE["nodes"]]
        for one_label, no_premise_steps in [(False, False), (True, False), (False, True), (True, True)]:
            steps = [
                (rule, labels[:1] if one_label and rule == "diamond" else labels, text)
                for rule, labels, text in bare if not (no_premise_steps and rule == "global-premise")
            ]
            proof = ProofObject.from_json_dict(encode(steps))
            assert check_proof(proof, *query) == (one_label and no_premise_steps)
        # the search's own proof is the left branch of the root's split, on
        # which no closure depends, without that split
        assert proof.nodes[0][0] == "beta" and decide(*query).proof.nodes == proof.nodes[1:8]

    def test_json_round_trip(self):
        verdict = decide([], parse("[](p -> q) -> ([]p -> []q)"), K)
        doc = json.loads(verdict.proof.to_json())
        again = ProofObject.from_json_dict(doc)
        assert again.to_json() == verdict.proof.to_json()
        assert check_proof(again, [], parse("[](p -> q) -> ([]p -> []q)"), K)

    def test_text_format_refused(self):
        # the earlier format wrote each formula as its text; a text is
        # neither an entry's id nor, without a formula table, read at all
        proof = prove_valid(parse(K_AXIOM), K).proof
        text_doc = json.loads(text_encoding(proof))
        for doc in (text_doc, {"formulas": [], **text_doc}, {**json.loads(proof.to_json()), **text_doc}):
            with pytest.raises(ValueError, match="malformed"):
                ProofObject.from_json_dict(doc)

    def test_rule_names_lowercase(self):
        verdict = decide(ER_PREMISES, parse("g"), SYM)
        rules = {e["rule"] for e in json.loads(verdict.proof.to_json())["nodes"]}
        allowed = {
            "alpha", "beta", "box", "diamond", "closure", "frame-closure", "serial",
        }
        assert rules <= allowed
        assert "closure" in rules
        assert "frame-closure" in rules  # the symmetric edge is recorded

    def test_serial_rule_in_proofs(self):
        verdict = decide([], parse("[]p -> <>p"), SERIAL)
        assert isinstance(verdict, Valid)
        rules = {e["rule"] for e in json.loads(verdict.proof.to_json())["nodes"]}
        assert "serial" in rules
        assert check_proof(verdict.proof, [], parse("[]p -> <>p"), SERIAL)

    def test_garbage_rejected_without_raising(self):
        for steps, conclusion in [
            ((("closure", (5,), parse("p")),), "p"),  # no label 5
            ((("alpha", (0, 0), parse("p & q")),), "~(p & q)"),  # two labels for alpha
            ((), "p -> p"),  # no closure
        ]:
            assert check_proof(ProofObject(steps), [], parse(conclusion), K) is False, steps

    @pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
    def test_malformed_table_raises_value_error(self, name):
        doc = json.loads(prove_valid(parse(K_AXIOM), K).proof.to_json())
        assert check_proof(ProofObject.from_json_dict(doc), [], parse(K_AXIOM), K)
        with pytest.raises(ValueError, match="malformed"):
            ProofObject.from_json_dict(MALFORMED_TABLES[name](doc))

    def test_proof_at_the_depth_bound_replays(self):
        f = parse("p" + " -> p" * MAX_DEPTH)
        verdict = decide([], f, K)
        assert isinstance(verdict, Valid)
        assert check_proof(ProofObject.from_json_dict(json.loads(verdict.proof.to_json())), [], f, K)


def _golden_queries():
    """Valid queries whose proofs together use every rule name."""
    queries = {f"corpus/{a.name}": (a.premise_formulas(), a.conclusion, a.frame) for a in builtin_corpus()}
    for name, text, frame in [
        ("K", "[](p -> q) -> ([]p -> []q)", K),
        ("T", "[]p -> p", REFL),
        ("D", "[]p -> <>p", SERIAL),
        ("B", "p -> []<>p", SYM),
        ("4", "[]p -> [][]p", frozenset({FrameCondition.TRANSITIVE})),
        ("5", "<>p -> []<>p", EUCL),
    ]:
        queries[f"axiom/{name}"] = ([], parse(text), frame)
    script = eder_ramharter_manual()
    premises = [f for _, f in script.premises]
    for name, step in script.steps:
        queries[f"step/{name}"] = (list(premises), step, script.frame)
        premises.append(step)
    # a deep query with a global premise, item 453 of the seed-1 decide-mix
    # stream: its proof order changed under a reorder of the box and
    # diamond moves that left every other pin here as it was
    queries["decide-mix/453"] = (
        [parse("~(((r & r) -> (q & q)) & ((r -> q) | (p | q)))")],
        parse("(~([]~r -> ([]r -> []r)) -> ((~(q | r) | <><>r) | []((r & q) | (q | q))))"),
        SERIAL,
    )
    return queries


GOLDEN_QUERIES = _golden_queries()

# sha256 of each proof's text_encoding, so a refactor of the search, of
# replay or of the proof's JSON must leave these unchanged
GOLDEN_PROOF_IDS = {
    "corpus/eder_ramharter": "4c60179d5d3bdc53cd55def3fa9d69fd85503291a3cc17390cc654f4d6331b2b",
    "corpus/kane": "adb3643bfaac51337e20bbcf322c163b653cc2a4a26c4a36660aeaea22a20b6f",
    "corpus/malcolm": "011bfe3f9aacb4979d5a16ed5769c5e48b22a47e100dd6a41b108aa4c7993669",
    "corpus/malcolm_alt": "858ae488bf7054dc7b6a54dd15a4bd4f267022436ad8e065f8ece3fee1f95ee3",
    "corpus/adams": "53be8090cccfc1612dd5120656d81da7501f4e73db4411af7c4cdca7488531f3",
    "corpus/adams_alt": "01b37127ad5481d82ed8bfa8285013df51932451496ea9382e819c8863d63c7d",
    "corpus/hartshorne": "adb3643bfaac51337e20bbcf322c163b653cc2a4a26c4a36660aeaea22a20b6f",
    "corpus/hartshorne_alt": "53be8090cccfc1612dd5120656d81da7501f4e73db4411af7c4cdca7488531f3",
    "axiom/K": "b9c0b65b5e017cfc28ef1ff2e55c84c2a7db49ed0a9dbd285219422ce4242c94",
    "axiom/T": "62bacf5057351cbd0af2a105af69fc55d958894d4e80f878a9bc3bf0f0c1fa12",
    "axiom/D": "9080504348bfdfc27ea992baf7a16de31b0aacb1b768e823fe9049bb23dc51c9",
    "axiom/B": "e8397f8f2ed2c7a1a82116282fda8cf6c84ee6716c9914fe22b3ed169df8d0e9",
    "axiom/4": "abdd713c26bdb40b2cdc2e89c71dfcd612cd155ac56cf881b45da50bac42b846",
    "axiom/5": "f814407edb8a7ebd4434dc677d80ec146debec238303390f99d6385ca310111e",
    "step/step1": "4a804678512fc7e05a76fb2a54d41774aee706e8d97d39d8b517bb03346923e5",
    "step/step2": "1f8bd285d7f59718b956371098c47f24fad1e207d9eee7330766ed68d0895497",
    "step/step3": "c75cd4e1f896f42148fbcb34808ce20d8bded235b1cc37ece9ccd0c2c6749cd4",
    "step/step4": "54ca69e477d2be52d8b02a0e7f268296aa8a52bb4db9958c746e10230b62a3ca",
    "step/step5": "e511044e003f8a9a7a4cf77409575423632351664541577b70dfc5c8d1610120",
    "decide-mix/453": "2357f6e973725894f1fc7b22983a664428ba1645e52b39f9373a3e8967cbc8a0",
}

# sha256 of ProofObject.to_json(); the CLI's proof_id is a prefix of it
GOLDEN_TABLE_PROOF_IDS = {
    "corpus/eder_ramharter": "bb272166dc2d1779dbaf31f5ccfc3c5ac335ac7cbd3eb24961851e3d3783eb00",
    "corpus/kane": "71988a4d459fae73d11b8f0c94938123fde8546ae85e25912fbdd53af0e3f93d",
    "corpus/malcolm": "bedd49702c16129c63871a262f408e33e62c1f3ba49df8d8e92ab1ad50e5164e",
    "corpus/malcolm_alt": "63f86cf2cfe89362921e422fa567102c82a761dd93f69b78566170204e305108",
    "corpus/adams": "5fd2b8571adecaad045e521cea0e4b4ff279e5f7d2eabf061f5a6247d92fbcaa",
    "corpus/adams_alt": "a48bff648465bc4c1eaaf47054eef8c67c01737067f20ae776b544b208e3cdc6",
    "corpus/hartshorne": "71988a4d459fae73d11b8f0c94938123fde8546ae85e25912fbdd53af0e3f93d",
    "corpus/hartshorne_alt": "5fd2b8571adecaad045e521cea0e4b4ff279e5f7d2eabf061f5a6247d92fbcaa",
    "axiom/K": "b005667bd284990846d221169869748ba205d3510cd87eaff005b2506f2b397e",
    "axiom/T": "b7211942510a1fdae1983661f1ce1f8a894edcba006b240c92e67391838c5043",
    "axiom/D": "270deaf58ce0fbed885130d32a65cf945f3c4d18056b107c51e72d40699799fe",
    "axiom/B": "0f552d8ec4ac6b3d09123b44268cf1e1c50c884263f23236748be67466cf5721",
    "axiom/4": "87f05f8ef82a01306c6e8facf0257c624c33d6cb0a42ce0abc26a1fb5dea0a26",
    "axiom/5": "9179dcb918e59af64700bce59aa998f9b73c620bbeacd510aab60cbe00b1dbd1",
    "step/step1": "539cda461937df42890a43ce542d632ae45d112fc8d5b5ce33fbf0ce8aa039aa",
    "step/step2": "d3698f751e647a59cc6a99730bdc1335ce0d19a8e177bac50e7f80b3e47a84b4",
    "step/step3": "e9cb9d4f9b6f70c5e1820c246a5ef8c669904489bd21613653218f4a7898fba3",
    "step/step4": "59557be63b5ec461c5ddfa4228d647e7e753dec2ba5688dac40517242a19a7a6",
    "step/step5": "ec2208d28698c763bc71868cd0bdcf11fd4aa9b635b67acc7158afdc843c1693",
    "decide-mix/453": "6722f26703412b07e51148594a58ab86847d39c7f6769f83655278b74591f4a1",
}

UNARY_RULES = ("alpha", "box", "frame-closure", "diamond", "serial")


def linear_proof(steps, label, atom):
    """(rule, labels, formula text) steps ending in one closure of ``atom``
    at ``label``, read through the JSON reader."""
    return ProofObject.from_json_dict(encode([*steps, ("closure", [label], atom)]))


def roundtrip(proof):
    """``proof`` through its JSON text and the reader."""
    return ProofObject.from_json_dict(json.loads(proof.to_json()))


def _proof_doc(name):
    verdict = decide(*GOLDEN_QUERIES[name])
    assert isinstance(verdict, Valid)
    return json.loads(verdict.proof.to_json())


class TestTextAtTheBoundary:
    """Proof nodes hold formulas, and the JSON holds a table of them:
    neither deciding nor the certified round trip prints or parses one."""

    def test_decide_and_the_round_trip_print_and_parse_nothing(self, monkeypatch):
        calls = []

        def counting(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for module in (tableau, syntax):
            for name in ("parse", "print_formula"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        conclusion = Atom("g")
        valid = decide(ER_PREMISES, conclusion, SYM)
        invalid = decide(ER_PREMISES, conclusion, K)
        assert isinstance(valid, Valid) and isinstance(invalid, Invalid)
        proof = ProofObject.from_json_dict(json.loads(valid.proof.to_json()))
        assert check_proof(proof, ER_PREMISES, conclusion, SYM)
        assert calls == []
        # print_formula keeps each text it makes on the node: none was made
        assert all(f is None or f._text is None for _, _, f in valid.proof.nodes)

    @pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
    def test_json_round_trip_is_lossless(self, name):
        proof = decide(*GOLDEN_QUERIES[name]).proof
        assert ProofObject.from_json_dict(json.loads(proof.to_json())) == proof


@pytest.mark.golden
class TestGoldenProofs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_PROOF_IDS))
    def test_proof_id_unchanged(self, name):
        verdict = decide(*GOLDEN_QUERIES[name])
        assert isinstance(verdict, Valid)
        assert hashlib.sha256(text_encoding(verdict.proof).encode()).hexdigest() == GOLDEN_PROOF_IDS[name]
        assert check_proof(verdict.proof, *GOLDEN_QUERIES[name])

    @pytest.mark.parametrize("name", sorted(GOLDEN_TABLE_PROOF_IDS))
    def test_table_proof_id_unchanged(self, name):
        text = decide(*GOLDEN_QUERIES[name]).proof.to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TABLE_PROOF_IDS[name]
        assert check_proof(ProofObject.from_json_dict(json.loads(text)), *GOLDEN_QUERIES[name])

    def test_every_golden_query_has_both_ids(self):
        assert GOLDEN_TABLE_PROOF_IDS.keys() == GOLDEN_PROOF_IDS.keys()

    def test_every_rule_is_covered(self):
        rules = {e["rule"] for name in GOLDEN_QUERIES for e in _proof_doc(name)["nodes"]}
        assert rules == set(UNARY_RULES) | {"beta", "closure"}

    def test_diamond_witness_must_be_a_new_label(self):
        # <>q -> ([]p -> p) is invalid over K; taking the root as its own
        # <>q witness would add the edge (0, 0) and close the branch.  A
        # diamond step names only its parent, so its witness is a new label
        # and (0, 0) is no edge; nor may the step name a witness label
        conclusion = parse("<>q -> ([]p -> p)")
        steps = [
            ("alpha", [0], "<>q & ([]p & ~p)"),
            ("alpha", [0], "[]p & ~p"),
            ("diamond", [0], "<>q"),
            ("box", [0, 0], "p"),
        ]
        assert isinstance(decide([], conclusion, K), Invalid)
        assert not check_proof(linear_proof(steps, 0, "p"), [], conclusion, K)
        steps[2] = ("diamond", [0, 0], "<>q")
        assert not check_proof(linear_proof(steps, 0, "p"), [], conclusion, K)

    def test_text_seen_before_is_still_licensed_per_step(self):
        # (p & q) -> []q is invalid over K.  "p & q" is licensed at the
        # root, which holds it; the proof holds that formula once, but
        # naming it at label 1, which does not hold it, must still be refused
        conclusion = parse("p & q -> []q")
        steps = [
            ("alpha", [0], "p & q & <>~q"),
            ("alpha", [0], "p & q"),
            ("diamond", [0], "<>~q"),
            ("alpha", [1], "p & q"),
        ]
        assert isinstance(decide([], conclusion, K), Invalid)
        assert not check_proof(linear_proof(steps, 1, "q"), [], conclusion, K)
        # reusing a text where it is licensed both times replays
        steps = [
            ("alpha", [0], "[](p & q) & <>~q"),
            ("diamond", [0], "<>~q"),
            ("box", [0, 1], "p & q"),
            ("alpha", [1], "p & q"),
        ]
        assert check_proof(linear_proof(steps, 1, "q"), [], parse("[](p & q) -> []q"), K)

    @pytest.mark.parametrize("rule", UNARY_RULES)
    def test_out_of_range_label_rejected(self, rule):
        name, doc = next(
            (name, doc)
            for name in sorted(GOLDEN_QUERIES)
            for doc in [_proof_doc(name)]
            if any(e["rule"] == rule for e in doc["nodes"])
        )
        node = next(e for e in doc["nodes"] if e["rule"] == rule)
        past_end = 1 + max(lab for e in doc["nodes"] for lab in e["labels"])
        bad = [(i, v) for i in range(len(node["labels"])) for v in (-1, past_end)]
        assert check_proof(ProofObject.from_json_dict(doc), *GOLDEN_QUERIES[name])
        for position, value in bad:
            labels = list(node["labels"])
            labels[position] = value
            mutated = _edit_node(doc, doc["nodes"].index(node), labels=labels)
            assert not check_proof(ProofObject.from_json_dict(mutated), *GOLDEN_QUERIES[name]), (
                position, value)


def _parsed_one_by_one(doc):
    """The steps of a text-format proof document, each formula text parsed
    alone."""
    return tuple(
        (e["rule"], tuple(e["labels"]), None if e["formula"] is None else parse(e["formula"]))
        for e in doc["nodes"]
    )


def reference_table(proof):
    """The formula table and node ids that the JSON of ``proof`` should
    hold, found by a second route: formulas compared by equality, not by
    their children's ids, and numbered in post-order as the steps first
    use them."""
    ids, table = {}, []

    def add(f):
        if f not in ids:
            if isinstance(f, Atom):
                entry = f.name
            elif isinstance(f, syntax._Binary):
                entry = [syntax._CONNECTIVES[type(f)][0], add(f.left), add(f.right)]
            else:
                entry = [syntax._CONNECTIVES[type(f)][0], add(f.operand)]
            ids[f] = len(table)
            table.append(entry)
        return ids[f]

    return table, [None if f is None else add(f) for _, _, f in proof.nodes]


def steps_strategy():
    """Proof steps of random rules, labels and formulas, or no formula."""
    return st.lists(st.tuples(
        st.sampled_from(["alpha", "beta", "box", "closure", "diamond", "frame-closure", "serial", "x\"y"]),
        st.lists(st.integers(0, 2**40)).map(tuple),
        st.none() | formula_strategy(atoms=("p", "q", "r_1", "Q"), max_leaves=12),
    ), max_size=8).map(tuple)


def _unshared(f):
    """A copy of ``f`` that shares no node with it or with itself."""
    if isinstance(f, Atom):
        return Atom(f.name)
    if isinstance(f, syntax._Binary):
        return type(f)(_unshared(f.left), _unshared(f.right))
    return type(f)(_unshared(f.operand))


_SPELLED = {a: c for c, (a, _, _) in syntax._CONNECTIVES.items()}


def _nested(spellings):
    """The atom p under each connective of ``spellings`` in turn, as a proof
    document of one node and as a formula; a binary connective's right
    operand is p."""
    table, f = ["p"], Atom("p")
    for spelling in spellings:
        cls = _SPELLED[spelling]
        binary = issubclass(cls, syntax._Binary)
        table.append([spelling, len(table) - 1, *[0] * binary])
        f = cls(f, Atom("p")) if binary else cls(f)
    return {"formulas": table, "nodes": [{"formula": len(table) - 1, "labels": [0], "rule": "alpha"}]}, f


# formulas exactly MAX_DEPTH deep as parse counts depth: one level per
# connective, two per <-> and |>, none for the negation of an atom
AT_THE_DEPTH_BOUND = {
    "boxes": ["[]"] * MAX_DEPTH,
    "boxes on a literal": ["~", *["[]"] * MAX_DEPTH],
    "boxes on a double negation": ["~", "~", *["[]"] * (MAX_DEPTH - 1)],
    "biconditionals": ["<->"] * (MAX_DEPTH // 2),
    "strict implications and disjunctions": ["|>", "|", "->"] * (MAX_DEPTH // 4),
}


class TestProofReader:
    """The JSON of a proof is a shared formula table, and its reader
    refuses every malformed table before any replay."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
    def test_golden_table_is_the_reference_table(self, name):
        proof = decide(*GOLDEN_QUERIES[name]).proof
        text = proof.to_json()
        doc = json.loads(text)
        table, ids = reference_table(proof)
        assert doc["formulas"] == table and [e["formula"] for e in doc["nodes"]] == ids
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        # the same steps as the text encoding holds
        assert _parsed_one_by_one(json.loads(text_encoding(proof))) == ProofObject.from_json_dict(doc).nodes

    @given(steps_strategy())
    @settings(max_examples=300)
    def test_round_trip(self, steps):
        proof = ProofObject(steps)
        text = proof.to_json()
        doc = json.loads(text)
        assert ProofObject.from_json_dict(doc) == proof
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        table, ids = reference_table(proof)
        assert doc["formulas"] == table and [e["formula"] for e in doc["nodes"]] == ids

    @given(steps_strategy())
    @settings(max_examples=100)
    def test_shared_and_unshared_nodes_give_equal_bytes(self, steps):
        copy = ProofObject(tuple((r, l, None if f is None else _unshared(f)) for r, l, f in steps))
        assert copy.to_json() == ProofObject(steps).to_json()

    @pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
    def test_golden_proof_read_from_unshared_nodes(self, name):
        proof = decide(*GOLDEN_QUERIES[name]).proof
        copy = ProofObject(tuple((r, l, None if f is None else _unshared(f)) for r, l, f in proof.nodes))
        assert copy.to_json() == proof.to_json()

    def test_each_entry_is_built_once(self):
        proof = ProofObject.from_json_dict(_proof_doc("corpus/malcolm"))
        by_value = {}
        for _, _, f in proof.nodes:
            if f is not None:
                assert by_value.setdefault(f, f) is f

    @pytest.mark.parametrize("name", sorted(AT_THE_DEPTH_BOUND))
    def test_depth_bound_is_the_parsers(self, name):
        spellings = AT_THE_DEPTH_BOUND[name]
        doc, f = _nested(spellings)
        assert ProofObject.from_json_dict(doc).nodes[0][2] == f == parse(print_formula(f))
        for more in ("[]", "<->", "~"):
            doc, f = _nested([*spellings, more])
            with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH} levels"):
                ProofObject.from_json_dict(doc)
            with pytest.raises(FormulaSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
                parse(print_formula(f))


@pytest.mark.golden
class TestBiconditionalChain:
    """An n-link ``p <-> ... <-> p`` chain.  Its NNF reads both operands
    of every link at both polarities, so as a tree it doubles with each
    link; compiling, deciding, the proof's JSON and replaying it must stay
    linear.  There is no wall-clock assertion: tree walks over 40 links
    never finish, and a proof that printed each formula as text ran out of
    memory there."""

    LINKS = 40

    @staticmethod
    def chain(n):
        return parse("p" + " <-> p" * n)

    def test_decides_and_the_proof_replays(self):
        n = self.LINKS
        # an even number of links is equivalent to p, an odd number valid
        assert isinstance(decide([], self.chain(n), K), Invalid)
        verdict = decide([], self.chain(n + 1), K)
        assert isinstance(verdict, Valid)
        assert check_proof(verdict.proof, [], self.chain(n + 1), K)

    @pytest.mark.parametrize("n", [LINKS, LINKS + 1])
    def test_proof_json_is_linear_and_replays(self, n):
        # the chain itself when it is valid, else the chain -> p
        conclusion = self.chain(n) if n % 2 else Implies(self.chain(n), Atom("p"))
        verdict = decide([], conclusion, K)
        assert isinstance(verdict, Valid)
        text = verdict.proof.to_json()
        assert len(text) <= 500 * n  # 9,034 bytes at 40 links, 16,174 at 41
        doc = json.loads(text)
        assert len(doc["formulas"]) <= 6 * n + 3
        proof = ProofObject.from_json_dict(doc)
        # as trees the two proofs' formulas are too large to compare
        assert proof.to_json() == text
        assert check_proof(proof, [], conclusion, K)

    def test_prove_reports_a_proof_id(self, capsys):
        code = cli.main(["prove", print_formula(self.chain(self.LINKS + 1)), "--json", "--stable"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["result"]["verdict"] == "valid"
        text = decide([], self.chain(self.LINKS + 1), K).proof.to_json()
        assert doc["result"]["proof_id"] == hashlib.sha256(text.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("n", [LINKS, LINKS + 1])
    def test_table_is_linear(self, n):
        # 6 entries per link below the top (both polarities of its left
        # operand), 3 for the negated top link, and p and ~p
        table = _seeded(_Branch, K, [], self.chain(n)).table
        assert len(table.kind) == 6 * n - 3

    @pytest.mark.parametrize("negated", [False, True])
    def test_nnf_shares_its_subtrees(self, negated):
        n = self.LINKS
        f = self.chain(n)
        seen, stack = set(), [nnf(Not(f) if negated else f)]
        while stack:
            g = stack.pop()
            if id(g) not in seen:
                seen.add(id(g))
                stack += [getattr(g, a) for a in ("operand", "left", "right") if hasattr(g, a)]
        # per link 6 connectives, an atom and a negated atom
        assert len(seen) <= 8 * n + 8


# steps for []p -> [][]p that move []p itself from the root to its successor
FOUR_TRANSFER = [
    ("alpha", [0], "[]p & <><>~p"),
    ("diamond", [0], "<><>~p"),
    ("box", [0, 1], "[]p"),
    ("diamond", [1], "<>~p"),
    ("box", [1, 2], "p"),
]


class TestForgedProofs:
    """Each proof has one step that the frame it is checked over does not
    license, and the query is invalid there, so replay must refuse it.
    Replay over a frame that does license the step shows that the proof
    is otherwise well formed.  Every proof here is read from its JSON."""

    FORGERIES = {
        # the reflexive edge (0, 0), which a symmetric frame does not give
        "symmetric edge": ("[]p -> p", roundtrip(prove_valid(parse("[]p -> p"), REFL).proof), SYM, REFL),
        # (0, 0) from the single edge (0, 1): transitivity needs (1, 0) too
        "transitive edge": ("(<>q & []p) -> p", linear_proof([
            ("alpha", [0], "<>q & []p & ~p"),
            ("alpha", [0], "<>q & []p"),
            ("diamond", [0], "<>q"),
            ("frame-closure", [0, 0], None),
            ("box", [0, 0], "p"),
        ], 0, "p"), TRANS, REFL),
        # (1, 0) from the single edge (0, 1): Euclideanness needs (0, 0) too
        "Euclidean edge": ("p -> []<>p", linear_proof([
            ("alpha", [0], "p & <>[]~p"),
            ("diamond", [0], "<>[]~p"),
            ("frame-closure", [1, 0], None),
            ("box", [1, 0], "~p"),
        ], 0, "p"), EUCL, SYM),
        "4-transfer without transitivity": ("[]p -> [][]p", linear_proof(FOUR_TRANSFER, 2, "p"), K, TRANS),
        # Euclidean frames carry a box forward only from a label with a predecessor
        "Euclidean box transfer from the root": (
            "[]p -> [][]p", linear_proof(FOUR_TRANSFER, 2, "p"), EUCL, TRANS),
        "serial successor": (
            "[]p -> <>p", roundtrip(prove_valid(parse("[]p -> <>p"), SERIAL).proof), K, SERIAL),
    }

    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_unlicensed_step_rejected(self, name):
        text, proof, refusing, licensing = self.FORGERIES[name]
        conclusion = parse(text)
        assert isinstance(prove_valid(conclusion, refusing), Invalid)
        assert not check_proof(proof, [], conclusion, refusing)
        assert check_proof(proof, [], conclusion, licensing)

    @pytest.mark.parametrize("rule,text,frame", [
        ("frame-closure", "[]p -> p", REFL),
        ("serial", "[]p -> <>p", SERIAL),
    ])
    def test_formula_on_a_formula_free_step_rejected(self, rule, text, frame):
        # these steps carry no formula, so a proof has one text: the same
        # steps with a formula written on one of them do not replay
        conclusion = parse(text)
        doc = json.loads(prove_valid(conclusion, frame).proof.to_json())
        index = next(i for i, e in enumerate(doc["nodes"]) if e["rule"] == rule)
        forged = _edit_formula(doc, index, "q & ~q")
        assert check_proof(ProofObject.from_json_dict(doc), [], conclusion, frame)
        assert not check_proof(ProofObject.from_json_dict(forged), [], conclusion, frame)

    @pytest.mark.parametrize("rule,text,frame,forged_formula", [
        # r is no atom of []p -> p, so no label holds r or ~r
        ("closure", "[]p -> p", REFL, "r"),
        # nor is p & p a subformula of the K axiom
        ("alpha", K_AXIOM, K, "p & p"),
    ])
    def test_formula_outside_the_query_rejected(self, rule, text, frame, forged_formula):
        # the query's table holds every formula a licensed step can name;
        # a step naming another one is refused before any licence is read
        conclusion = parse(text)
        doc = json.loads(prove_valid(conclusion, frame).proof.to_json())
        index = next(i for i, e in enumerate(doc["nodes"]) if e["rule"] == rule)
        forged = ProofObject.from_json_dict(_edit_formula(doc, index, forged_formula))
        branch = _seeded(_Branch, frame, [], conclusion)
        assert branch.table.find(parse(forged_formula), {}) is None
        assert _replay(branch, forged.nodes) is False
        assert check_proof(ProofObject.from_json_dict(doc), [], conclusion, frame)
        assert not check_proof(forged, [], conclusion, frame)


class TestNoOpSteps:
    """Replay refuses a step that changes nothing, which the search never
    records.  Each proof closes without its one no-op step and is refused
    with it."""

    # name: (premises, conclusion, frame, steps, index of the no-op step,
    # closure label, clashing atom)
    FORGERIES = {
        "repeated alpha": ([], "p -> p", K, [
            ("alpha", [0], "p & ~p"),
            ("alpha", [0], "p & ~p"),
        ], 1, 0, "p"),
        "box onto a present formula": ([], "[]p -> []p", K, [
            ("alpha", [0], "[]p & <>~p"),
            ("diamond", [0], "<>~p"),
            ("box", [0, 1], "p"),
            ("box", [0, 1], "p"),
        ], 3, 1, "p"),
        "repeated frame-closure edge": ([], "[]p -> p", REFL, [
            ("alpha", [0], "[]p & ~p"),
            ("frame-closure", [0, 0], None),
            ("frame-closure", [0, 0], None),
            ("box", [0, 0], "p"),
        ], 2, 0, "p"),
        "second diamond for a satisfied diamond": ([], "[]p -> []p", K, [
            ("alpha", [0], "[]p & <>~p"),
            ("diamond", [0], "<>~p"),
            ("diamond", [0], "<>~p"),
            ("box", [0, 1], "p"),
        ], 2, 1, "p"),
        # the serial licence itself asks for a label without successors
        "serial on a label with a successor": ([], "[]p -> <>p", SERIAL, [
            ("alpha", [0], "[]p & []~p"),
            ("serial", [0], None),
            ("serial", [0], None),
            ("box", [0, 1], "p"),
            ("box", [0, 1], "~p"),
        ], 2, 1, "p"),
    }

    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_unary_no_op_rejected(self, name):
        premises, text, frame, steps, noop, label, atom = self.FORGERIES[name]
        query = ([parse(p) for p in premises], parse(text), frame)
        without = [step for i, step in enumerate(steps) if i != noop]
        assert check_proof(linear_proof(without, label, atom), *query)
        assert not check_proof(linear_proof(steps, label, atom), *query)

    def test_beta_with_a_present_disjunct_rejected(self):
        # p | q splits although p is already at the root; both branches
        # close on the root's p and ~p
        steps = [("alpha", [0], "(p | q) & p & ~p"), ("alpha", [0], "(p | q) & p")]
        conclusion = parse("(p | q) & p -> p")
        assert check_proof(linear_proof(steps, 0, "p"), [], conclusion, K)
        split = [*steps, ("beta", [0], "p | q"), ("closure", [0], "p")]
        assert not check_proof(linear_proof(split, 0, "p"), [], conclusion, K)


class TestResourceLimit:
    def test_tiny_ceiling_trips(self):
        with pytest.raises(ResourceLimit):
            decide([parse("<>p")], parse("q"), K, max_labels=1)

    def test_default_ceiling_is_ample(self):
        assert isinstance(decide([parse("<>p")], parse("q"), K), Invalid)

    # oracle pool item 33928 of verdictbench: on a symmetric frame, labels
    # keep spawning before equality blocking catches them (see the tableau
    # module docstring).  Blocking that ends this search makes the test
    # pass, and strict=True then fails it until the mark is removed
    @pytest.mark.xfail(raises=ResourceLimit, strict=True,
                       reason="blocking does not end every search on symmetric frames")
    def test_symmetric_query_settles_within_500_labels(self):
        premises = [parse("(<>(p -> p) -> <>[]p)"), parse("(<><>p & <>(q -> p))")]
        conclusion = parse("~[]q")
        verdict = decide(premises, conclusion, SYM, max_labels=500)
        if isinstance(verdict, Valid):
            assert check_proof(verdict.proof, premises, conclusion, SYM)
        else:
            verify_witness(verdict.witness, premises, conclusion, SYM)


@pytest.mark.golden
class TestBackjumping:
    """Queries whose global premises add a disjunction at every new label,
    which each new label splits again.  The search skips the splits that
    no closure below them depends on; without that, each of these needed
    more than 500 labels."""

    # (premises, conclusion, frame conditions, verdict)
    FORMERLY_EXCLUDED = [
        # the serial+symmetric, S4 and symmetric examples of excluded
        # inputs in verdictbench/README.md
        (["<>p", "([]p & q) -> q"], "[][]<>p", ["serial", "symmetric"], "valid"),
        (["<>q"], "([](<>~r & ((r & r) | <>p)) -> <>[](<>p & ~q))", ["reflexive", "transitive"], "invalid"),
        (["([]<>q -> ([]p -> ~p))", "<>((p & q) & (p & p))"], "[]~p", ["symmetric"], "invalid"),
        # decide-mix pool items 22 (S4), 157 (T), 164 (D) and 258 (K)
        (["((<>(r & r) & ((p | q) & []q)) | ((~q & []r) -> <>(q & p)))"],
         "<>((((q -> p) -> []q) -> <>(r | q)) -> []<>(p -> r))", ["reflexive", "transitive"], "invalid"),
        (["(<>([]p & []p) -> (((p | q) & <>q) & <>(q -> p)))"],
         "(~[][](p | p) | []((~r | (r -> q)) & ((q & p) & ~r)))", ["reflexive"], "invalid"),
        (["~((~r -> (p -> r)) -> [](q | q))"],
         "([]<>((q -> p) | (r | q)) | (~<><>q | ~(<>q | <>p)))", ["serial"], "valid"),
        (["(<>[](p & r) | (((q | q) | (r | p)) & (<>q | ~q)))"],
         "([]<>([]r | <>r) | []~((p | q) & ~p))", [], "invalid"),
        # oracle pool items 33516 and 93446
        (["<><>q", "(q | ((q & q) | (q | q)))"], "(((p & q) -> []p) -> [][]q)", ["serial", "symmetric"], "valid"),
        (["<>(q & q)", "((p -> p) | (q -> p))"], "[][]<>q", ["reflexive", "serial"], "valid"),
    ]

    @staticmethod
    def settles(premises, conclusion, conditions, answer):
        premises, conclusion, frame = [parse(p) for p in premises], parse(conclusion), frame_class(conditions)
        verdict = decide(premises, conclusion, frame, max_labels=500)
        assert verdict.answer == answer
        if isinstance(verdict, Valid):
            assert check_proof(verdict.proof, premises, conclusion, frame)
        else:
            verify_witness(verdict.witness, premises, conclusion, frame)

    @pytest.mark.parametrize("premises,conclusion,conditions,answer", FORMERLY_EXCLUDED)
    def test_formerly_excluded_queries_decide(self, premises, conclusion, conditions, answer):
        self.settles(premises, conclusion, conditions, answer)

    # arguments of the frame search's random differential, each of which
    # took the search up to seconds over these frame classes
    @pytest.mark.parametrize("conditions", [[], ["serial"], ["serial", "transitive"]])
    @pytest.mark.parametrize("premise,conclusion", [
        ("<><>a -> q & q -> q -> p", "[][]a"),
        ("a <-> a <-> q -> a <-> ([]a <-> a -> p)", "[]p"),
    ])
    def test_random_arguments_decide(self, premise, conclusion, conditions):
        self.settles([premise, "<>a"], conclusion, conditions, "invalid")


class TestDeterminism:
    def test_verdicts_and_proofs_stable(self):
        for _ in range(2):
            a = decide(ER_PREMISES, parse("g"), SYM)
            b = decide(ER_PREMISES, parse("g"), SYM)
            assert a.proof.to_json() == b.proof.to_json()
        x = decide(ER_PREMISES, parse("g"), K)
        y = decide(ER_PREMISES, parse("g"), K)
        assert model_to_json(x.witness.model) == model_to_json(y.witness.model)
        assert x.witness.world == y.witness.world


def random_formula(rng, depth):
    if depth == 0:
        return Atom(rng.choice(["p", "q"]))
    pick = rng.randrange(7)
    if pick == 0:
        return Atom(rng.choice(["p", "q"]))
    if pick == 1:
        return Not(random_formula(rng, depth - 1))
    if pick == 2:
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if pick == 3:
        return Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if pick == 4:
        return Implies(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if pick == 5:
        return Box(random_formula(rng, depth - 1))
    return Diamond(random_formula(rng, depth - 1))


class TestOracleAgreement:
    """The full 500-query run lives in the acceptance suite; this is a
    quicker spread over the same query distribution."""

    FRAMES = [K, REFL, SYM, S5]

    def test_never_contradicts_enumerator(self):
        rng = random.Random(4207)
        budget = EnumerationBudget(3, ("p", "q"))
        for _ in range(120):
            frame = rng.choice(self.FRAMES)
            premises = [random_formula(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
            conclusion = random_formula(rng, rng.randrange(1, 4))
            verdict = decide(premises, conclusion, frame)
            witness = find_countermodel(premises, conclusion, frame, budget)
            if isinstance(verdict, Valid):
                assert witness is None, (
                    [print_formula(f) for f in premises],
                    print_formula(conclusion),
                    sorted(c.value for c in frame),
                )
                assert check_proof(verdict.proof, premises, conclusion, frame)
            else:
                verify_witness(verdict.witness, premises, conclusion, frame)
                if verdict.witness.model.world_count <= 3:
                    assert witness is not None


# the frame correspondence schemas T, D, B, 4 and 5, plus converses and
# variants of them; the tableau settles each over every frame subset
LICENCE_FORMULAS = [
    "[]p -> p", "[]p -> <>p", "p -> []<>p", "[]p -> [][]p", "<>p -> []<>p", "p -> []p",
    "<>p -> []p", "[]<>p -> p", "[][]p -> []p", "[]<>p -> <>p", "<>[]p -> p", "<>[]p -> []p",
]
ALL_FRAMES = [
    frozenset(c for i, c in enumerate(FrameCondition) if mask >> i & 1) for mask in range(32)
]


class TestRuleLicences:
    """A Valid verdict that a small model refutes means some rule was
    applied where its frame condition does not license it."""

    def test_no_valid_verdict_has_a_countermodel(self):
        budget = EnumerationBudget(3, ("p",))
        unsound = []
        for text in LICENCE_FORMULAS:
            f = parse(text)
            for frame in ALL_FRAMES:
                verdict = prove_valid(f, frame)
                if isinstance(verdict, Valid) and find_countermodel([], f, frame, budget) is not None:
                    unsound.append((text, sorted(c.value for c in frame)))
        assert unsound == []


class TestDependencyMasks:
    """Each label, edge and formula of a hand-built branch carries its own
    bit, so the mask that ``licensed`` returns for a step names exactly the
    facts its licence read.  Where a licence asks for any edge, a second
    qualifying edge, added later, must not show in the mask."""

    TEXTS = ("[]p", "<>p", "p & q", "p | q", "~p")

    # name: (frame conditions, edges in insertion order, formulas as
    # (label, text), the step, the facts in its mask: a label, an edge
    # (a, b) or a formula (label, text))
    CASES = {
        "K box": ([], [(0, 1)], [(0, "[]p")], ("box", (0, 1), "p"), [(0, 1), (0, "[]p")]),
        "transitive box": (["transitive"], [(0, 1)], [(0, "[]p")], ("box", (0, 1), "[]p"), [(0, 1), (0, "[]p")]),
        "Euclidean forward diamond": (
            ["euclidean"], [(0, 1)], [(0, "<>p")], ("box", (0, 1), "<>p"), [(0, 1), (0, "<>p")],
        ),
        "Euclidean forward box": (
            ["euclidean"], [(0, 1), (2, 0), (3, 0)], [(0, "[]p")], ("box", (0, 1), "[]p"),
            [(0, 1), (0, "[]p"), (2, 0)],
        ),
        "Euclidean backward box": (
            ["euclidean"], [(0, 1), (2, 0), (3, 0)], [(1, "[]p")], ("box", (1, 0), "[]p"),
            [(0, 1), (1, "[]p"), (2, 0)],
        ),
        "reflexive frame-closure": (["reflexive"], [], [], ("frame-closure", (1, 1), None), [1]),
        "symmetric frame-closure": (["symmetric"], [(0, 1)], [], ("frame-closure", (1, 0), None), [(0, 1)]),
        "transitive frame-closure": (
            ["transitive"], [(0, 1), (1, 2), (0, 3), (3, 2)], [], ("frame-closure", (0, 2), None),
            [(0, 1), (1, 2)],
        ),
        "Euclidean frame-closure": (
            ["euclidean"], [(0, 1), (0, 2), (3, 1), (3, 2)], [], ("frame-closure", (1, 2), None),
            [(0, 1), (0, 2)],
        ),
        "serial": (["serial"], [(0, 1)], [], ("serial", (1,), None), [1]),
        "alpha": ([], [], [(0, "p & q")], ("alpha", (0,), "p & q"), [(0, "p & q")]),
        "beta": ([], [], [(0, "p | q")], ("beta", (0,), "p | q"), [(0, "p | q")]),
        "diamond": ([], [], [(0, "<>p")], ("diamond", (0,), "<>p"), [(0, "<>p")]),
        "closure": ([], [], [(0, "p"), (0, "~p")], ("closure", (0,), "p"), [(0, "p"), (0, "~p")]),
    }

    def mask(self, conditions, edges, formulas, step):
        """The mask ``licensed`` returns for ``step`` on a branch of four
        labels, and each fact's bit."""
        table = _Table([(parse(text), False) for text in self.TEXTS])
        branch = _Branch(frame_class(conditions), table, ())
        bit = {}

        def fresh(key):
            bit[key] = 1 << len(bit)
            return bit[key]

        for label in range(4):
            branch.new_label(fresh(label))
        for a, b in edges:
            branch.add_edge(a, b, fresh((a, b)))
        for label, text in formulas:
            branch.add_formula(label, table.find(parse(text), {}), fresh((label, text)))
        rule, labels, text = step
        return branch.licensed(rule, labels, None if text is None else table.find(parse(text), {})), bit

    @pytest.mark.parametrize("name", CASES)
    def test_mask_is_the_licence_facts(self, name):
        conditions, edges, formulas, step, facts = self.CASES[name]
        mask, bit = self.mask(conditions, edges, formulas, step)
        assert mask == functools.reduce(operator.or_, [bit[fact] for fact in facts])

    @pytest.mark.parametrize("conditions,edges,formulas,step", [
        ([], [], [(0, "[]p")], ("box", (0, 1), "p")),  # no edge
        (["reflexive"], [(0, 1)], [(0, "[]p")], ("box", (0, 1), "[]p")),  # no transfer
        (["euclidean"], [(0, 1)], [(0, "[]p")], ("box", (0, 1), "[]p")),  # 0 has no in-edge
        (["transitive"], [(0, 1), (2, 3)], [], ("frame-closure", (0, 3), None)),
        ([], [], [(0, "p & q"), (0, "p"), (0, "q")], ("alpha", (0,), "p & q")),
        ([], [], [(0, "p | q"), (0, "q")], ("beta", (0,), "p | q")),
        ([], [], [(0, "p"), (0, "~p")], ("closure", (0,), "~p")),
        (["serial"], [(1, 0)], [], ("serial", (1,), None)),
    ])
    def test_unlicensed_step_is_none(self, conditions, edges, formulas, step):
        assert self.mask(conditions, edges, formulas, step)[0] is None

    def test_replay_mask_is_zero_not_none(self):
        # a replay branch leaves every mask 0, so a licensed step's mask is
        # 0, which is falsy: callers must test it against None
        branch = _seeded(_Branch, K, [], parse("p & q -> p"))
        (conj,) = [f for f in branch.label_sets[0] if branch.table.kind[f] == tableau._AND]
        assert branch.licensed("alpha", (0,), conj) == 0


def _outcome(decide_fn, *args, **kwargs):
    """One outcome per query: the line of the raw countermodel and its
    world when Invalid, the proof when Valid, the line of the exception's
    name if one is raised; and whether the outcome is a proof."""
    try:
        verdict = decide_fn(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__, False
    if isinstance(verdict, Invalid):
        return f"{model_to_json(verdict.witness.model)}@{verdict.witness.world}", False
    return verdict.proof, True


def _counting_popped(run):
    """``run()``'s result and the number of steps the search popped while
    it ran, counted through ``_Budget.count_step``."""
    popped = 0
    count_step = tableau._Budget.count_step

    def counting(budget):
        nonlocal popped
        popped += 1
        count_step(budget)

    tableau._Budget.count_step = counting
    try:
        return run(), popped
    finally:
        tableau._Budget.count_step = count_step


@functools.cache
def _golden_outcomes():
    """The lines of 2,384 queries: every licence formula over every frame
    subset, then 2,000 seeded random queries; and the number of steps the
    search popped for them."""

    def run():
        outcomes = [
            _outcome(prove_valid, parse(text), frame)
            for text in LICENCE_FORMULAS
            for frame in ALL_FRAMES
        ]
        rng = random.Random(4207)
        for _ in range(2000):
            frame = rng.choice(ALL_FRAMES)
            premises = [random_formula(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
            conclusion = random_formula(rng, rng.randrange(1, 4))
            outcomes.append(_outcome(decide, premises, conclusion, frame, max_labels=500))
        return outcomes

    return _counting_popped(run)


def full_formula(rng, depth, atoms):
    """A random formula over ``atoms`` in which every branch reaches ``depth``."""
    if depth == 0:
        return Atom(rng.choice(atoms))
    pick = rng.randrange(6)
    if pick < 3:
        return (Not, Box, Diamond)[pick](full_formula(rng, depth - 1, atoms))
    left = full_formula(rng, depth - 1, atoms)
    return (And, Or, Implies)[pick - 3](left, full_formula(rng, depth - 1, atoms))


@functools.cache
def _deep_outcomes():
    """The lines of 1,000 seeded deep queries: a depth-5 conclusion and
    zero or one depth-4 premise over p, q and r, every branch built to full
    depth, over K, T, D, B, S4 and S5 in turn; and the number of steps the
    search popped for them.  Deep premises make long proofs with many beta
    splits, where a reordering of the steps that fire shows up more often
    than in the shallow golden queries, and where backjumping skips the
    most search."""

    def run():
        rng = random.Random(1609)
        logics = list(LOGICS.values())
        outcomes = []
        for i in range(1000):
            premises = [full_formula(rng, 4, ["p", "q", "r"]) for _ in range(rng.randrange(2))]
            conclusion = full_formula(rng, 5, ["p", "q", "r"])
            outcomes.append(_outcome(decide, premises, conclusion, logics[i % len(logics)], max_labels=500))
        return outcomes

    return _counting_popped(run)


def _digest(is_proof, outcomes=None, encode=text_encoding):
    """The digest of the lines of the outcomes that are proofs, or of
    those that are not; ``encode`` makes a proof's line."""
    if outcomes is None:
        outcomes = _golden_outcomes()[0]
    lines = [encode(line) if proof else line for line, proof in outcomes if proof == is_proof]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.golden
class TestGoldenOutcomes:
    """The tableau's own outcomes, countermodels included: the golden
    proofs and CLI digests see only Valid proofs and minimised witnesses,
    so a refactor of extraction must leave these digests unchanged too.
    The countermodels and exceptions are kept apart from the proofs, so a
    change of proof encoding leaves their digest where it was; the proof
    digests are taken over the text encoding, and over the JSON too."""

    # the 1,574 Invalid lines (no query raises)
    DIGEST = "00ee463e332ed45716ebefe9ba319f29c717f469217b57753d564e7614ad7df0"
    # the 810 Valid lines, in the text encoding and as JSON
    PROOFS_DIGEST = "9f73e1511f55c4c56fcb6a868e19ea0821014e21f1d70f83bc0a48f38cd1c7a0"
    TABLE_PROOFS_DIGEST = "cec0ea4069dfe939113bbb5fa715ff49d8f247f1dccdba87f5b784b226572a07"
    # steps popped over all 2,384 queries
    POPPED_STEPS = 16_998
    # the 792 deep queries' Invalid lines (none raises)
    DEEP_DIGEST = "82bc0f158d5b03ef33b0dcff06734ee2793cbcab44d750d1c9a34685be917721"
    # the 208 deep queries' Valid lines, in the text encoding and as JSON
    DEEP_PROOFS_DIGEST = "a4ca50b4c7d8027ac233e7f8f25ae38be8f97d67dfc106ec4c0af8b75ff6a440"
    DEEP_TABLE_PROOFS_DIGEST = "25b29405a42a237b0f81fa179d4b36be156bb639140724a71c917904c45db305"
    # steps popped over all 1,000 deep queries
    DEEP_POPPED_STEPS = 32_180

    def test_outcomes_unchanged(self):
        assert _digest(False) == self.DIGEST

    def test_proofs_unchanged(self):
        assert _digest(True) == self.PROOFS_DIGEST
        assert _digest(True, encode=ProofObject.to_json) == self.TABLE_PROOFS_DIGEST

    def test_search_work_unchanged(self):
        # every step popped from a queue, fired or not: the work the
        # search did, and what its max_steps ceiling counts
        assert _golden_outcomes()[1] == self.POPPED_STEPS

    def test_deep_outcomes_unchanged(self):
        assert _digest(False, _deep_outcomes()[0]) == self.DEEP_DIGEST

    def test_deep_proofs_unchanged(self):
        assert _digest(True, _deep_outcomes()[0]) == self.DEEP_PROOFS_DIGEST
        assert _digest(True, _deep_outcomes()[0], ProofObject.to_json) == self.DEEP_TABLE_PROOFS_DIGEST

    def test_deep_search_work_unchanged(self):
        # the deep queries split most, so this pins the work backjumping
        # leaves the search
        assert _deep_outcomes()[1] == self.DEEP_POPPED_STEPS
