import hashlib
import json
import random

import pytest

from modaltab import tableau
from modaltab.arguments import builtin_corpus, eder_ramharter_manual
from modaltab.enumeration import EnumerationBudget, find_countermodel
from modaltab.semantics import (
    FrameCondition,
    evaluate,
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
    Implies,
    Not,
    Or,
    desugar,
    parse,
    print_formula,
)
from modaltab.tableau import (
    Invalid,
    NotSaturated,
    ProofObject,
    ResourceLimit,
    Valid,
    _Branch,
    check_proof,
    decide,
    extract_countermodel,
    prove_valid,
)

K = frozenset()
REFL = frozenset({FrameCondition.REFLEXIVE})
SYM = frozenset({FrameCondition.SYMMETRIC})
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
    """A branch with the given formula set per label and the given edges."""
    branch = _Branch(frame, ())
    for formulas in label_sets:
        lid = branch.new_label()
        for f in formulas:
            branch.add_formula(lid, f)
    for a, b in edges:
        branch.add_edge(a, b)
    return branch


class TestExtractCountermodel:
    def test_single_label_extraction(self):
        branch = hand_branch(K, [{Box(Atom("p")), Not(Atom("p"))}], [])
        witness = extract_countermodel(branch, [None], (), parse("[]p -> p"))
        assert witness.model.world_count == 1
        assert witness.model.access == frozenset()
        assert not evaluate(witness.model, 0, Atom("p"))

    def test_blocked_label_redirects(self):
        # w1's successor is subsumed by w1 itself, giving the loop-back edge
        p1 = Or(Not(Atom("g")), Box(Atom("g")))
        content = {Atom("g"), Box(Atom("g")), p1, Diamond(Atom("g"))}
        root = {Not(Atom("g")), p1, Diamond(Atom("g"))}
        branch = hand_branch(K, [root, content, content], [(0, 1), (1, 2)])
        witness = extract_countermodel(branch, [None, None, 1], tuple(ER_PREMISES), parse("g"))
        assert (
            model_to_json(witness.model)
            == '{"access":[[0,1],[1,1]],"valuation":{"g":[1]},"worlds":2}'
        )

    def test_not_saturated_when_closed(self):
        branch = hand_branch(K, [{Atom("p"), Not(Atom("p"))}], [])
        with pytest.raises(NotSaturated):
            extract_countermodel(branch, [None], (), Atom("p"))

    def test_not_saturated_with_unexpanded_rule(self):
        branch = hand_branch(K, [{And(Atom("p"), Atom("q")), Not(Atom("r"))}], [])
        with pytest.raises(NotSaturated):
            extract_countermodel(branch, [None], (), Atom("r"))

    @pytest.mark.parametrize("rule,frame,label_sets,edges", [
        ("beta", K, [{Or(Atom("p"), Atom("q"))}], []),
        ("box", K, [{Box(Atom("p"))}, set()], [(0, 1)]),
        ("diamond", K, [{Diamond(Atom("p"))}], []),
        ("serial", SERIAL, [{Atom("p")}], []),
    ])
    def test_not_saturated_names_the_applicable_rule(self, rule, frame, label_sets, edges):
        branch = hand_branch(frame, label_sets, edges)
        blocked = [None] * len(label_sets)
        with pytest.raises(NotSaturated, match=f"^{rule} rule applicable at label 0$"):
            extract_countermodel(branch, blocked, (), Atom("r"))


K_AXIOM = "[](p -> q) -> ([]p -> []q)"


def _edit_node(doc, nid, **fields):
    """``doc`` with node ``nid``'s fields replaced; a field set to
    ``...`` is dropped."""
    edited = [
        {k: v for k, v in {**e, **fields}.items() if v is not ...} if e["id"] == nid else e
        for e in doc["nodes"]
    ]
    return {"nodes": edited}


# each table is refused where it is read, before any replay: without the
# type checks the ``true`` id would alias node 1 and load a proof that
# replays, and the number formula would load a proof that replays False
MALFORMED_TABLES = {
    "empty object": lambda doc: {},
    "top-level list": lambda doc: doc["nodes"],
    "nodes not a list": lambda doc: {"nodes": 5},
    "node not an object": lambda doc: {"nodes": [5]},
    "node without rule": lambda doc: _edit_node(doc, 1, rule=...),
    "labels not a list": lambda doc: _edit_node(doc, 1, labels=5),
    "list id": lambda doc: _edit_node(doc, 1, id=[1]),
    "list child": lambda doc: _edit_node(doc, 0, children=[[1]]),
    "true as id": lambda doc: _edit_node(doc, 1, id=True),
    "number formula": lambda doc: _edit_node(doc, 1, formula=7),
    "unparsable formula": lambda doc: _edit_node(doc, 1, formula="p &"),
}


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
        verdict = decide(ER_PREMISES, parse("g"), SYM)
        doc = json.loads(verdict.proof.to_json())
        closure_ids = {e["id"] for e in doc["nodes"] if e["rule"] == "closure"}
        assert closure_ids
        victim = min(closure_ids)
        pruned = {
            "nodes": [
                {**e, "children": [c for c in e["children"] if c != victim]}
                for e in doc["nodes"]
                if e["id"] != victim
            ]
        }
        mutated = ProofObject.from_json_dict(pruned)
        assert not check_proof(mutated, ER_PREMISES, parse("g"), SYM)

    def test_json_round_trip(self):
        verdict = decide([], parse("[](p -> q) -> ([]p -> []q)"), K)
        doc = json.loads(verdict.proof.to_json())
        again = ProofObject.from_json_dict(doc)
        assert again.to_json() == verdict.proof.to_json()
        assert check_proof(again, [], parse("[](p -> q) -> ([]p -> []q)"), K)

    def test_rule_names_lowercase(self):
        verdict = decide(ER_PREMISES, parse("g"), SYM)
        rules = {e["rule"] for e in json.loads(verdict.proof.to_json())["nodes"]}
        allowed = {
            "alpha", "beta", "box", "diamond", "closure",
            "global-premise", "frame-closure", "serial",
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
        junk = ProofObject({0: {"id": 0, "rule": "closure", "labels": [5], "formula": parse("p"),
                                "children": []}})
        assert check_proof(junk, [], parse("p"), K) is False

    def test_cyclic_table_rejected(self):
        # a licensed alpha step that names itself as its child would
        # replay forever
        loop = ProofObject({0: {"id": 0, "rule": "alpha", "labels": [0], "formula": parse("p & q"),
                                "children": [0]}})
        assert check_proof(loop, [], parse("~(p & q)"), K) is False

    def test_dangling_child_rejected(self):
        verdict = decide(ER_PREMISES, parse("g"), SYM)
        doc = json.loads(verdict.proof.to_json())
        doc["nodes"][-1]["children"] = [len(doc["nodes"])]
        with pytest.raises(ValueError, match="missing node"):
            ProofObject.from_json_dict(doc)

    @pytest.mark.parametrize("copy_first", [False, True])
    def test_repeated_id_rejected(self, copy_first):
        # with the last copy of an id kept, the table below replays False
        # with the copy after the real node 1 and True with it before
        f = parse("[](p -> q) -> ([]p -> []q)")
        nodes = json.loads(prove_valid(f, K).proof.to_json())["nodes"]
        copy = {**next(e for e in nodes if e["id"] == 1), "rule": "serial"}
        doc = {"nodes": [copy, *nodes] if copy_first else [*nodes, copy]}
        with pytest.raises(ValueError, match="repeats a node id"):
            ProofObject.from_json_dict(doc)

    @pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
    def test_malformed_table_raises_value_error(self, name):
        doc = json.loads(prove_valid(parse(K_AXIOM), K).proof.to_json())
        assert check_proof(ProofObject.from_json_dict(doc), [], parse(K_AXIOM), K)
        with pytest.raises(ValueError):
            ProofObject.from_json_dict(MALFORMED_TABLES[name](doc))

    @pytest.mark.parametrize("name", ["corpus/eder_ramharter", "axiom/5", "step/step3"])
    def test_reordered_and_padded_tables_replay(self, name):
        doc = _proof_doc(name)
        query = GOLDEN_QUERIES[name]
        # renumber every id except the root's, and list the nodes backwards
        renumber = {e["id"]: -e["id"] if e["id"] else 0 for e in doc["nodes"]}
        reordered = {
            "nodes": [
                {**e, "id": renumber[e["id"]], "children": [renumber[c] for c in e["children"]]}
                for e in reversed(doc["nodes"])
            ]
        }
        assert check_proof(ProofObject.from_json_dict(reordered), *query)
        # an extra node that nothing references is never replayed
        extra = {"id": 10**6, "rule": "closure", "labels": [999], "formula": "x", "children": []}
        padded = {"nodes": [*doc["nodes"], extra]}
        assert check_proof(ProofObject.from_json_dict(padded), *query)
        # ...and a reordered table still fails once one step is dropped
        victim = next(e for e in reordered["nodes"] if e["rule"] == "box")
        pruned = {"nodes": [
            {**e, "children": victim["children"] if victim["id"] in e["children"] else e["children"]}
            for e in reordered["nodes"] if e is not victim
        ]}
        assert not check_proof(ProofObject.from_json_dict(pruned), *query)


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
    return queries


GOLDEN_QUERIES = _golden_queries()

# sha256 of ProofObject.to_json(); the CLI's proof_id is a prefix of it,
# so a refactor of the search or of replay must leave these unchanged
GOLDEN_PROOF_IDS = {
    "corpus/eder_ramharter": "8bd4280d9a408ae5aa02b0abbdca97a73dcfb3f9ad92e4a51a262dfa6a8b7836",
    "corpus/kane": "385aa29315181c5030b517869a2dccb9ad8763b4da8d02ed3d2045b17a0bab71",
    "corpus/malcolm": "cba6e2afbd3e8bd0123ccf357b485305643ef34cc092c0ad3b211d83a505f0a3",
    "corpus/malcolm_alt": "26bdd46f28f84879d7b89ee69b8c69c24bb2ea0ab37a5992de600d0256667ad1",
    "corpus/adams": "eb7bd2986055864478cef1131f0f0d7411ac8af6e7b564f823a1ac2450543b8c",
    "corpus/adams_alt": "9fd0a8aff2466f471af7e37aa87024df3c14784e19b0e5a0ecd9d4af602731e8",
    "corpus/hartshorne": "385aa29315181c5030b517869a2dccb9ad8763b4da8d02ed3d2045b17a0bab71",
    "corpus/hartshorne_alt": "eb7bd2986055864478cef1131f0f0d7411ac8af6e7b564f823a1ac2450543b8c",
    "axiom/K": "179d6a1736c72a618ebc9ae8406b158ba579772cf0c496628db43dc4a2b40bf2",
    "axiom/T": "dec7f243c34dead1b26331386c1a1d66083f797fd074f6c6f9416639c6422105",
    "axiom/D": "ba697853e45cc0f56d4ca8c625cda55f3b7c889de6e5c222ed5c49ac78671d0f",
    "axiom/B": "3f80b976ad50d017c39fa339073e9638dad5b4722f590de0e5a3743e6ba49c9d",
    "axiom/4": "62fd1f08e561f05b4042cbe39bff7177985f15122b2725d25ddc212761a4713f",
    "axiom/5": "e797c45c3fc742129ff25070c00bef89e7a59497dd864b9bfa5385adbd012e7d",
    "step/step1": "4b40361512a7440ea3c6adbce20036f17b1165d9ce6987aa7ca83cf4bfd2edbc",
    "step/step2": "2f6e3e129b93087a2bdda8a5171314af0b63a8e5dfb6174de8d948d5418cf893",
    "step/step3": "6839a9d08367ed9ba6771083a14920c7476c990222ca11452e2d312689abefa2",
    "step/step4": "6d2331c95e80ab9c8dee260cfe88ec74c6dbe535034d7af06e41ab5d67fcc47c",
    "step/step5": "7db50ec0079763cd043201d6ea35ead45480963bd3ee193bf57e4647f5830eea",
}

UNARY_RULES = ("alpha", "box", "frame-closure", "global-premise", "diamond", "serial")


def linear_proof(steps, label, atom):
    """Unary (rule, labels, formula text) steps ending in one closure of
    ``atom`` at ``label``, read as a table with ids in preorder."""
    rows = [*steps, ("closure", [label], atom)]
    return ProofObject.from_json_dict({"nodes": [
        {"id": nid, "rule": rule, "labels": labels, "formula": formula,
         "children": [nid + 1] if nid + 1 < len(rows) else []}
        for nid, (rule, labels, formula) in enumerate(rows)
    ]})


def _proof_doc(name):
    verdict = decide(*GOLDEN_QUERIES[name])
    assert isinstance(verdict, Valid)
    return json.loads(verdict.proof.to_json())


class TestTextAtTheBoundary:
    """Proof nodes hold formulas; only the JSON encoding prints them."""

    def test_decide_prints_nothing(self, monkeypatch):
        printed = []
        real = tableau.print_formula

        def counting(f, *args, **kwargs):
            printed.append(f)
            return real(f, *args, **kwargs)

        monkeypatch.setattr(tableau, "print_formula", counting)
        valid = decide(ER_PREMISES, parse("g"), SYM)
        invalid = decide(ER_PREMISES, parse("g"), K)
        assert isinstance(valid, Valid) and isinstance(invalid, Invalid)
        assert printed == []
        valid.proof.to_json()
        assert printed

    @pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
    def test_json_round_trip_is_lossless(self, name):
        proof = decide(*GOLDEN_QUERIES[name]).proof
        assert ProofObject.from_json_dict(json.loads(proof.to_json())) == proof


class TestGoldenProofs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_PROOF_IDS))
    def test_proof_id_unchanged(self, name):
        verdict = decide(*GOLDEN_QUERIES[name])
        assert isinstance(verdict, Valid)
        assert hashlib.sha256(verdict.proof.to_json().encode()).hexdigest() == GOLDEN_PROOF_IDS[name]
        assert check_proof(verdict.proof, *GOLDEN_QUERIES[name])

    def test_every_rule_is_covered(self):
        rules = {e["rule"] for name in GOLDEN_QUERIES for e in _proof_doc(name)["nodes"]}
        assert rules == set(UNARY_RULES) | {"beta", "closure"}

    def test_diamond_witness_must_be_a_new_label(self):
        # <>q -> ([]p -> p) is invalid over K; taking the root as its own
        # <>q witness would add the edge (0, 0) and close the branch
        conclusion = parse("<>q -> ([]p -> p)")
        steps = [
            ("alpha", [0], "<>q & ([]p & ~p)"),
            ("alpha", [0], "[]p & ~p"),
            ("diamond", [0, 0], "<>q"),
            ("box", [0, 0], "p"),
        ]
        assert isinstance(decide([], conclusion, K), Invalid)
        assert not check_proof(linear_proof(steps, 0, "p"), [], conclusion, K)

    def test_text_seen_before_is_still_licensed_per_step(self):
        # (p & q) -> []q is invalid over K.  "p & q" is licensed at the
        # root, which holds it; replay parses that text once, but reusing
        # it at label 1, which does not hold it, must still be refused
        conclusion = parse("p & q -> []q")
        steps = [
            ("alpha", [0], "p & q & <>~q"),
            ("alpha", [0], "p & q"),
            ("diamond", [0, 1], "<>~q"),
            ("alpha", [1], "p & q"),
        ]
        assert isinstance(decide([], conclusion, K), Invalid)
        assert not check_proof(linear_proof(steps, 1, "q"), [], conclusion, K)
        # reusing a text where it is licensed both times replays
        steps = [
            ("alpha", [0], "[](p & q) & <>~q"),
            ("diamond", [0, 1], "<>~q"),
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
        if rule in ("diamond", "serial"):
            bad.append((1, node["labels"][0]))  # a spawned child must be a new label
        assert check_proof(ProofObject.from_json_dict(doc), *GOLDEN_QUERIES[name])
        for position, value in bad:
            labels = list(node["labels"])
            labels[position] = value
            mutated = {"nodes": [{**e, "labels": labels} if e is node else e for e in doc["nodes"]]}
            assert not check_proof(ProofObject.from_json_dict(mutated), *GOLDEN_QUERIES[name]), (
                position, value)


TRANS = frozenset({FrameCondition.TRANSITIVE})
# steps for []p -> [][]p that move []p itself from the root to its successor
FOUR_TRANSFER = [
    ("alpha", [0], "[]p & <><>~p"),
    ("diamond", [0, 1], "<><>~p"),
    ("box", [0, 1], "[]p"),
    ("diamond", [1, 2], "<>~p"),
    ("box", [1, 2], "p"),
]


class TestForgedProofs:
    """Each proof has one step that the frame it is checked over does not
    license, and the query is invalid there, so replay must refuse it.
    Replay over a frame that does license the step shows that the proof
    is otherwise well formed."""

    FORGERIES = {
        # the reflexive edge (0, 0), which a symmetric frame does not give
        "symmetric edge": ("[]p -> p", prove_valid(parse("[]p -> p"), REFL).proof, SYM, REFL),
        # (0, 0) from the single edge (0, 1): transitivity needs (1, 0) too
        "transitive edge": ("(<>q & []p) -> p", linear_proof([
            ("alpha", [0], "<>q & []p & ~p"),
            ("alpha", [0], "<>q & []p"),
            ("diamond", [0, 1], "<>q"),
            ("frame-closure", [0, 0], None),
            ("box", [0, 0], "p"),
        ], 0, "p"), TRANS, REFL),
        # (1, 0) from the single edge (0, 1): Euclideanness needs (0, 0) too
        "Euclidean edge": ("p -> []<>p", linear_proof([
            ("alpha", [0], "p & <>[]~p"),
            ("diamond", [0, 1], "<>[]~p"),
            ("frame-closure", [1, 0], None),
            ("box", [1, 0], "~p"),
        ], 0, "p"), EUCL, SYM),
        "4-transfer without transitivity": ("[]p -> [][]p", linear_proof(FOUR_TRANSFER, 2, "p"), K, TRANS),
        # Euclidean frames carry a box forward only from a label with a predecessor
        "Euclidean box transfer from the root": (
            "[]p -> [][]p", linear_proof(FOUR_TRANSFER, 2, "p"), EUCL, TRANS),
        "serial successor": ("[]p -> <>p", prove_valid(parse("[]p -> <>p"), SERIAL).proof, K, SERIAL),
    }

    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_unlicensed_step_rejected(self, name):
        text, proof, refusing, licensing = self.FORGERIES[name]
        conclusion = parse(text)
        assert isinstance(prove_valid(conclusion, refusing), Invalid)
        assert not check_proof(proof, [], conclusion, refusing)
        assert check_proof(proof, [], conclusion, licensing)


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
            ("diamond", [0, 1], "<>~p"),
            ("box", [0, 1], "p"),
            ("box", [0, 1], "p"),
        ], 3, 1, "p"),
        "repeated frame-closure edge": ([], "[]p -> p", REFL, [
            ("alpha", [0], "[]p & ~p"),
            ("frame-closure", [0, 0], None),
            ("frame-closure", [0, 0], None),
            ("box", [0, 0], "p"),
        ], 2, 0, "p"),
        "premise already present": (["p"], "p", K, [
            ("global-premise", [0], "p"),
        ], 0, 0, "p"),
        "second diamond for a satisfied diamond": ([], "[]p -> []p", K, [
            ("alpha", [0], "[]p & <>~p"),
            ("diamond", [0, 1], "<>~p"),
            ("diamond", [0, 2], "<>~p"),
            ("box", [0, 1], "p"),
        ], 2, 1, "p"),
        # the serial licence itself asks for a label without successors
        "serial on a label with a successor": ([], "[]p -> <>p", SERIAL, [
            ("alpha", [0], "[]p & []~p"),
            ("serial", [0, 1], None),
            ("serial", [0, 2], None),
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
        nodes = json.loads(linear_proof(steps, 0, "p").to_json())["nodes"][:-1]
        nodes += [
            {"id": 2, "rule": "beta", "labels": [0], "formula": "p | q", "children": [3, 4]},
            {"id": 3, "rule": "closure", "labels": [0], "formula": "p", "children": []},
            {"id": 4, "rule": "closure", "labels": [0], "formula": "p", "children": []},
        ]
        assert not check_proof(ProofObject.from_json_dict({"nodes": nodes}), [], conclusion, K)


class TestResourceLimit:
    def test_tiny_ceiling_trips(self):
        with pytest.raises(ResourceLimit):
            decide([parse("<>p")], parse("q"), K, max_labels=1)

    def test_default_ceiling_is_ample(self):
        assert isinstance(decide([parse("<>p")], parse("q"), K), Invalid)


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


def _outcome(decide_fn, *args, **kwargs):
    """One line per query: the raw countermodel and its world when
    Invalid, the proof when Valid, the exception's name if one is raised."""
    try:
        verdict = decide_fn(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__
    if isinstance(verdict, Invalid):
        return f"{model_to_json(verdict.witness.model)}@{verdict.witness.world}"
    return verdict.proof.to_json()


class TestGoldenOutcomes:
    """The tableau's own outcomes, countermodels included: the golden
    proofs and CLI digests see only Valid proofs and minimised witnesses,
    so a refactor of extraction must leave this digest unchanged too."""

    DIGEST = "a4924c6a5f11318688cd904a4fcc6e3029275f1e257e223b46a9d551cfdac56b"

    def test_outcomes_unchanged(self):
        lines = [
            _outcome(prove_valid, parse(text), frame)
            for text in LICENCE_FORMULAS
            for frame in ALL_FRAMES
        ]
        rng = random.Random(4207)
        for _ in range(2000):
            frame = rng.choice(ALL_FRAMES)
            premises = [random_formula(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
            conclusion = random_formula(rng, rng.randrange(1, 4))
            lines.append(_outcome(decide, premises, conclusion, frame, max_labels=500))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST
