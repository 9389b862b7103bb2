"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Shared computations live in a module-scoped fixture so
each criterion reports its own timing honestly.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modaltab

from modaltab.arguments import (
    axiom_correspondence_suite,
    builtin_corpus,
    corpus_entry,
    derivation_suite,
    eder_ramharter_manual,
    jacquette_suite,
    triviality_check,
)
from modaltab.enumeration import EnumerationBudget, find_countermodel, minimize_countermodel
from modaltab.semantics import (
    FrameCondition,
    evaluate,
    frame_satisfies,
    holds_globally,
)
from modaltab.syntax import (
    And,
    Atom,
    Box,
    Diamond,
    Implies,
    Not,
    Or,
    desugar,
    parse,
)
from modaltab.tableau import Invalid, ProofObject, Valid, check_proof, decide

K = frozenset()


def report(number: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def verify(witness, premises, conclusion, frame):
    for cond in frame:
        assert frame_satisfies(witness.model, cond)
    for premise in premises:
        assert holds_globally(witness.model, desugar(premise))
    assert not evaluate(witness.model, witness.world, desugar(conclusion))


@pytest.fixture(scope="module")
def computed():
    """All verdicts the criteria share, with per-block timings."""
    data = {"valid_pool": []}  # (proof, premises, conclusion, frame)

    corpus = builtin_corpus()
    t0 = time.perf_counter()
    framed = {}
    for a in corpus:
        framed[a.name] = decide(a.premise_formulas(), a.conclusion, a.frame)
    data["corpus_framed"] = framed
    data["corpus_framed_seconds"] = time.perf_counter() - t0
    for a in corpus:
        v = framed[a.name]
        if isinstance(v, Valid):
            data["valid_pool"].append((v.proof, a.premise_formulas(), a.conclusion, a.frame))

    t0 = time.perf_counter()
    unframed = {}
    minimized = {}
    cross = {}
    for a in corpus:
        verdict = decide(a.premise_formulas(), a.conclusion, K)
        unframed[a.name] = verdict
        if isinstance(verdict, Invalid):
            minimized[a.name] = minimize_countermodel(
                verdict.witness, a.premise_formulas(), a.conclusion, K
            )
        cross[a.name] = find_countermodel(
            a.premise_formulas(), a.conclusion, K, EnumerationBudget(3, ("g",))
        )
    data["corpus_unframed"] = unframed
    data["corpus_minimized"] = minimized
    data["corpus_cross"] = cross
    data["corpus_unframed_seconds"] = time.perf_counter() - t0

    data["trivialities"] = {
        name: triviality_check(corpus_entry(name))
        for name in (
            "eder_ramharter", "kane", "malcolm", "adams", "hartshorne", "hartshorne_alt",
        )
    }
    for name, v in data["trivialities"].items():
        if isinstance(v, Valid):
            a = corpus_entry(name)
            # the schema query, for replay bookkeeping
            from modaltab.arguments import _triviality_query

            premises, conclusion = _triviality_query(a)
            data["valid_pool"].append((v.proof, premises, conclusion, a.frame))

    data["axioms"] = axiom_correspondence_suite()
    for entry in data["axioms"].entries:
        for c in entry.checks:
            if isinstance(c.verdict, Valid):
                data["valid_pool"].append((c.verdict.proof, [], parse_check(c), c.frame))

    script = eder_ramharter_manual()
    data["steps"] = [c.verdict for e in derivation_suite(script).entries for c in e.checks]
    premises = [f for _, f in script.premises]
    for (name, step), v in zip(script.steps, data["steps"]):
        if isinstance(v, Valid):
            data["valid_pool"].append((v.proof, list(premises), step, script.frame))
        premises.append(step)

    data["jacquette"] = jacquette_suite()

    equivalences = [
        ([parse("g -> []g")], parse("[](g -> []g)")),
        ([parse("g |> []g")], parse("[](g -> []g)")),
        ([parse("[](g -> []g)")], parse("g |> []g")),
    ]
    data["equivalences"] = []
    for prem, concl in equivalences:
        v = decide(prem, concl, K)
        data["equivalences"].append(v)
        if isinstance(v, Valid):
            data["valid_pool"].append((v.proof, prem, concl, K))
    return data


_CHECK_FORMULAS = {}


def parse_check(check):
    # the axiom suite's checks are all premise-free single formulas; the
    # formula text is the description before " over "
    text = check.description.rsplit(" over ", 1)[0]
    if text not in _CHECK_FORMULAS:
        _CHECK_FORMULAS[text] = parse(text)
    return _CHECK_FORMULAS[text]


def test_criterion_01_corpus_validity(computed):
    verdicts = computed["corpus_framed"]
    ok = all(isinstance(v, Valid) for v in verdicts.values())
    seconds = computed["corpus_framed_seconds"]
    report(1, ok and seconds < 1.0, f"{sum(isinstance(v, Valid) for v in verdicts.values())}/8 valid "
                                    f"under stated frames in {seconds:.2f}s")
    assert ok
    assert len(verdicts) == 8
    assert seconds < 1.0


def test_criterion_02_corpus_invalidity_without_frames(computed):
    corpus = {a.name: a for a in builtin_corpus()}
    count = 0
    for name, verdict in computed["corpus_unframed"].items():
        a = corpus[name]
        assert isinstance(verdict, Invalid), name
        # the tableau's own witness re-verifies at whatever size it found
        verify(verdict.witness, a.premise_formulas(), a.conclusion, K)
        # the reported countermodel is the enumerator-minimized one
        small = computed["corpus_minimized"][name]
        assert small.model.world_count <= 2, name
        verify(small, a.premise_formulas(), a.conclusion, K)
        # independent enumerator cross-check finds a witness as well
        cross = computed["corpus_cross"][name]
        assert cross is not None, name
        verify(cross, a.premise_formulas(), a.conclusion, K)
        count += 1
    seconds = computed["corpus_unframed_seconds"]
    report(2, count == 8 and seconds < 5.0,
           f"{count}/8 invalid over {{}} with re-verified <=2-world witnesses in {seconds:.2f}s")
    assert count == 8
    assert seconds < 5.0


def test_criterion_03_triviality_lemmas(computed):
    verdicts = computed["trivialities"]
    valid = [name for name, v in verdicts.items() if isinstance(v, Valid)]
    report(3, len(valid) == 6, f"{len(valid)}/6 triviality schemas valid")
    assert len(valid) == 6


def test_criterion_04_axiom_correspondence(computed):
    suite = computed["axioms"]
    assert suite.ok
    assert len(suite.entries) == 10
    for entry in suite.entries:
        for check in entry.checks:
            if isinstance(check.verdict, Invalid):
                assert check.witness is not None
                verify(check.witness, [], parse_check(check), check.frame)
    report(4, True, f"{len(suite.entries)}/10 axiom entries match, invalid witnesses re-verified")


def test_criterion_05_manual_derivation(computed):
    verdicts = computed["steps"]
    ok = len(verdicts) == 5 and all(isinstance(v, Valid) for v in verdicts)
    report(5, ok, f"{sum(isinstance(v, Valid) for v in verdicts)}/5 derivation steps valid "
                  f"over {{euclidean, reflexive}}")
    assert ok


def test_criterion_06_jacquette(computed):
    suite = computed["jacquette"]
    tollens = suite.entry("tollens").checks[0]
    bad = suite.entry("tollens_bad").checks[0]
    prop5 = suite.entry("prop5").checks[0]
    assert isinstance(tollens.verdict, Valid)
    assert isinstance(bad.verdict, Invalid)
    assert bad.witness.model.world_count <= 2
    assert isinstance(prop5.verdict, Valid)
    report(6, True, "tollens valid, tollens_bad invalid with <=2-world witness, prop5 valid")


def test_criterion_07_premise_form_equivalences(computed):
    verdicts = computed["equivalences"]
    ok = all(isinstance(v, Valid) for v in verdicts)
    report(7, ok, f"{sum(isinstance(v, Valid) for v in verdicts)}/3 premise-form entailments valid")
    assert ok


def _random_formula(rng, depth):
    if depth == 0:
        return Atom(rng.choice(["p", "q"]))
    pick = rng.randrange(7)
    if pick == 0:
        return Atom(rng.choice(["p", "q"]))
    if pick == 1:
        return Not(_random_formula(rng, depth - 1))
    if pick == 2:
        return And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if pick == 3:
        return Or(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if pick == 4:
        return Implies(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if pick == 5:
        return Box(_random_formula(rng, depth - 1))
    return Diamond(_random_formula(rng, depth - 1))


def test_criterion_08_oracle_agreement():
    rng = random.Random(271828)
    conditions = list(FrameCondition)
    frames = [
        frozenset(c for bit, c in enumerate(conditions) if mask >> bit & 1)
        for mask in range(1 << len(conditions))
    ]
    budget = EnumerationBudget(3, ("p", "q"))
    t0 = time.perf_counter()
    contradictions = 0
    queries = 100 * len(frames)
    for i in range(queries):
        frame = frames[i % len(frames)]
        premises = [_random_formula(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
        conclusion = _random_formula(rng, rng.randrange(1, 4))
        verdict = decide(premises, conclusion, frame)
        witness = find_countermodel(premises, conclusion, frame, budget)
        if isinstance(verdict, Valid):
            if witness is not None:
                contradictions += 1
        else:
            verify(verdict.witness, premises, conclusion, frame)
            if verdict.witness.model.world_count <= 3 and witness is None:
                contradictions += 1
    seconds = time.perf_counter() - t0
    ok = contradictions == 0 and seconds < 60.0
    report(8, ok, f"{queries} seeded queries over {len(frames)} frame classes, "
                  f"{contradictions} contradictions, {seconds:.1f}s")
    assert contradictions == 0
    assert seconds < 60.0


def test_criterion_09_proof_replay(computed):
    pool = computed["valid_pool"]
    assert len(pool) >= 20  # corpus + trivialities + axioms + steps + equivalences
    for proof, premises, conclusion, frame in pool:
        assert check_proof(proof, premises, conclusion, frame)
    proof, premises, conclusion, frame = pool[0]
    doc = json.loads(proof.to_json())
    nodes = doc["nodes"]
    victim = next(i for i, e in enumerate(nodes) if e["rule"] == "closure")  # the first closure
    pruned = {**doc, "nodes": nodes[:victim] + nodes[victim + 1:]}
    assert not check_proof(ProofObject.from_json_dict(pruned), premises, conclusion, frame)
    report(9, True, f"{len(pool)} proofs replayed, mutated proof rejected")


def test_criterion_10_determinism():
    commands = [
        ["corpus", "--json", "--stable"],
        ["axioms", "--json", "--stable"],
        ["steps", "--json", "--stable"],
        ["jacquette", "--json", "--stable"],
        ["check", "eder_ramharter", "--json", "--stable", "--minimal-frames"],
    ]
    # the child processes import the same package as this one, installed or not
    src = str(Path(modaltab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in commands:
        first = subprocess.run(
            [sys.executable, "-m", "modaltab.cli", *argv], capture_output=True, env=env
        )
        second = subprocess.run(
            [sys.executable, "-m", "modaltab.cli", *argv], capture_output=True, env=env
        )
        assert first.stdout == second.stdout, argv
        assert first.stdout
        json.loads(first.stdout)  # well-formed
    report(10, True, f"{len(commands)} stable commands byte-identical across runs")
