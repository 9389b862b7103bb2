"""The three workloads: how each pooled input becomes a query, what one
query runs, and the gate every output must pass.

A query's ``run`` is what the timed loop measures; it returns a small
record that ``check`` inspects after the loop, so that gates cost no
measured time.  ``check`` returns None for a correct output and a
description of the fault otherwise.  Gates never compare the program's
output with other output of the program: valid verdicts must carry a
proof that replays, invalid ones a countermodel that the reference
semantics confirms, and CLI exit codes must match answers known by hand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import modaltab.cli
from modaltab.enumeration import EnumerationBudget
from modaltab.semantics import (
    FrameCondition,
    KripkeModel,
    evaluate,
    frame_satisfies,
    holds_globally,
)
from modaltab.syntax import desugar, parse
from modaltab.tableau import ProofObject, ResourceLimit, Valid, check_proof, decide

import gen

ORACLE_BUDGET = EnumerationBudget(max_worlds=gen.ORACLE_PARAMS["max_worlds"], atoms=("p", "q"))


def roundtrip(proof: ProofObject) -> tuple[ProofObject, dict]:
    """What an independent checker receives: the proof through JSON text."""
    data = json.loads(proof.to_json())
    return ProofObject.from_json_dict(data), data


class Api:
    """The program entry points a query calls; a traced pass swaps in
    recording wrappers."""

    def __init__(self) -> None:
        self.decide = decide
        self.find_countermodel = modaltab.enumeration.find_countermodel
        self.roundtrip = roundtrip
        self.check_proof = check_proof
        self.cli_main = modaltab.cli.main


def _frame(names) -> frozenset:
    return frozenset(FrameCondition(c) for c in names)


def refutes(model: KripkeModel, world: int, premises, conclusion, frame) -> bool:
    """Reference-semantics check of a countermodel."""
    return (
        all(frame_satisfies(model, c) for c in frame)
        and all(holds_globally(model, desugar(p)) for p in premises)
        and not evaluate(model, world, desugar(conclusion))
    )


def _model(doc: dict) -> KripkeModel:
    return KripkeModel(
        doc["worlds"],
        frozenset(tuple(pair) for pair in doc["access"]),
        {atom: frozenset(ws) for atom, ws in doc["valuation"].items()},
    )


class Oracle:
    """Tableau verdict against the enumerator's answer on 3 worlds."""

    output_bytes = 0

    def stream(self, inputs):
        return inputs

    def prepare(self, item):
        premises, conclusion, conditions = item
        return [parse(t) for t in premises], parse(conclusion), _frame(conditions)

    def run(self, api: Api, query):
        premises, conclusion, frame = query
        verdict = api.decide(premises, conclusion, frame, max_labels=gen.ORACLE_PARAMS["max_labels"])
        hit = api.find_countermodel(premises, conclusion, frame, ORACLE_BUDGET)
        if isinstance(verdict, Valid):
            return verdict, hit, hit is None
        small = verdict.witness.model.world_count <= ORACLE_BUDGET.max_worlds
        return verdict, hit, hit is not None or not small

    def check(self, query, record):
        premises, conclusion, frame = query
        verdict, hit, agree = record
        if not agree:
            return "tableau and enumerator disagree"
        if isinstance(verdict, Valid):
            proof, _ = roundtrip(verdict.proof)
            return None if check_proof(proof, premises, conclusion, frame) else "proof does not replay"
        for witness in (verdict.witness, hit):
            if witness is not None and not refutes(witness.model, witness.world, premises, conclusion, frame):
                return "countermodel does not refute the query"
        return None


class DecideMix:
    """``decide`` plus, for Valid verdicts, the certified round trip
    to_json -> from_json_dict -> check_proof."""

    max_labels = gen.DECIDE_MIX_PARAMS["max_labels"]
    output_bytes = 0

    def stream(self, inputs):
        return inputs

    def prepare(self, item):
        premises, conclusion, logic = item
        return [parse(t) for t in premises], parse(conclusion), _frame(gen.LOGIC_CONDITIONS[logic])

    def run(self, api: Api, query):
        premises, conclusion, frame = query
        verdict = api.decide(premises, conclusion, frame, max_labels=self.max_labels)
        if isinstance(verdict, Valid):
            proof, _ = api.roundtrip(verdict.proof)
            return api.check_proof(proof, premises, conclusion, frame), None
        return True, verdict.witness

    def check(self, query, record):
        premises, conclusion, frame = query
        replayed, witness = record
        if not replayed:
            return "proof does not replay"
        if witness is not None and not refutes(witness.model, witness.world, premises, conclusion, frame):
            return "countermodel does not refute the query"
        return None


# Hand-known answers for the fixed commands.
_CORPUS = {
    # name: (premise texts, conclusion text, stated frame)
    "eder_ramharter": (["g -> []g", "<>g"], "g", ["symmetric"]),
    "kane": (["[](g -> []g)", "<>g"], "g", ["symmetric"]),
    "malcolm": (["g -> []g", "<>g"], "[]g", ["euclidean"]),
    "malcolm_alt": (["g -> []g", "<>g"], "[]g", ["symmetric"]),
    "adams": (["[](g -> []g)", "<>g"], "[]g", ["euclidean"]),
    "adams_alt": (["[](g -> []g)", "<>g"], "[]g", ["symmetric"]),
    "hartshorne": (["g |> []g", "<>g"], "g", ["symmetric"]),
    "hartshorne_alt": (["g |> []g", "<>g"], "[]g", ["euclidean"]),
}
_AXIOMS = {
    "K": "[](p -> q) -> ([]p -> []q)",
    "T": "[]p -> p",
    "D": "[]p -> <>p",
    "B": "p -> []<>p",
    "4": "[]p -> [][]p",
    "5": "<>p -> []<>p",
}
# logics in which each axiom is valid, from the textbook correspondences
_AXIOM_VALID_IN = {
    "K": {"K", "T", "D", "B", "S4", "S5"},
    "T": {"T", "B", "S4", "S5"},
    "D": {"T", "D", "B", "S4", "S5"},
    "B": {"B", "S5"},
    "4": {"S4", "S5"},
    "5": {"S5"},
}


class CliCorpus:
    """In-process ``modaltab.cli.main`` calls with captured output: the
    four suites, check and countermodel for every corpus entry, the
    axiom-by-logic ``prove`` table, then seeded argument files."""


    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.output_bytes = 0  # captured stdout, all queries
        self.slots = 256

    def fixed(self) -> list[tuple]:
        """(argv, expectation) pairs with answers known by hand."""
        commands = [([suite, "--json"], ("suite",)) for suite in ("corpus", "axioms", "steps", "jacquette")]
        for name, (premises, conclusion, frame) in _CORPUS.items():
            commands.append((["check", name, "--json"], ("valid", premises, conclusion, frame)))
            commands.append((["countermodel", name, "--json"], ("invalid", premises, conclusion, [])))
        for axiom, text in _AXIOMS.items():
            for logic, conditions in gen.LOGIC_CONDITIONS.items():
                expected = "valid" if logic in _AXIOM_VALID_IN[axiom] else "invalid"
                commands.append((["prove", text, "--logic", logic, "--json"],
                                 (expected, [], text, list(conditions))))
        return commands

    def stream(self, inputs):
        """Fixed commands spread among the argument files: one after every
        ``fixed_every`` files until none is left."""
        fixed = self.fixed()
        every = gen.CLI_PARAMS["fixed_every"]
        for i, argument in enumerate(inputs):
            yield ("file", i, argument)
            if (i + 1) % every == 0 and fixed:
                yield ("fixed",) + fixed.pop(0)

    def prepare(self, item):
        if item[0] == "fixed":
            return item[1], item[2]
        _, i, (premise, conclusion, frame) = item
        path = self.workdir / f"arg{i % self.slots}.json"  # a slot is rewritten after its gate ran
        path.write_text(json.dumps({
            "name": f"arg{i}",
            "premises": [{"name": "P1", "formula": premise}, {"name": "P2", "formula": "<>a"}],
            "frame": list(frame),
            "conclusion": conclusion,
        }))
        argv = ["check", str(path), "--json"] + (["--minimal-frames"] if i % 2 else [])
        conditions = sorted({c for name in frame for c in gen.LOGIC_CONDITIONS.get(name, (name,))})
        return argv, ("certify", [premise, "<>a"], conclusion, conditions)

    def run(self, api: Api, query):
        argv, _ = query
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli_main(argv)
        self.output_bytes += len(out.getvalue())
        if code == 2 and "ceiling" in err.getvalue():
            raise ResourceLimit(err.getvalue().strip())  # the CLI reports it as a usage error
        return code, out.getvalue(), err.getvalue()

    def check(self, query, record):
        argv, expectation = query
        code, out, err = record
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return f"{argv}: exit {code}, no JSON report ({err.strip()[:200]})"
        kind = expectation[0]
        if kind == "suite":
            checks_ok = all(c["ok"] for e in doc["entries"] for c in e["checks"])
            return None if code == 0 and doc["ok"] and checks_ok else f"{argv}: suite failed"
        _, premise_texts, conclusion_text, conditions = expectation
        premises = [parse(t) for t in premise_texts]
        conclusion = parse(conclusion_text)
        frame = _frame(conditions)
        result = doc["result"]
        verdict = {0: "valid", 1: "invalid"}.get(code)
        if verdict is None or result["verdict"] != verdict:
            return f"{argv}: exit {code} with verdict {result['verdict']}"
        if kind in ("valid", "invalid") and verdict != kind:
            return f"{argv}: expected {kind}, got {verdict}"
        if kind == "valid" and doc.get("triviality", "valid") != "valid":
            return f"{argv}: corpus triviality schema is not valid"
        if verdict == "invalid":
            model = _model(result["countermodel"])
            if not refutes(model, result["witness_world"], premises, conclusion, frame):
                return f"{argv}: countermodel does not refute the query"
            return None
        if kind == "certify":
            return self._certify_valid(argv, doc, premises, conclusion, frame)
        return None

    def _certify_valid(self, argv, doc, premises, conclusion, frame):
        """A Valid argument file: the reported proof id names a proof of
        this query that replays, and minimal frames are consistent."""
        verdict = decide(premises, conclusion, frame)
        if not isinstance(verdict, Valid):
            return f"{argv}: reported valid, but its proof cannot be rebuilt"
        text = verdict.proof.to_json()
        if hashlib.sha256(text.encode()).hexdigest()[:16] != doc["result"]["proof_id"]:
            return f"{argv}: proof id does not match the proof"
        if not check_proof(ProofObject.from_json_dict(json.loads(text)), premises, conclusion, frame):
            return f"{argv}: proof does not replay"
        names = {c.value for c in frame}
        minimal = doc.get("minimal_frames")
        if minimal is not None and not any(set(m) <= names for m in minimal):
            return f"{argv}: valid, yet no minimal frame class is contained in the stated one"
        return None


def make(name: str, workdir: Path):
    if name == "oracle":
        return Oracle()
    if name == "decide-mix":
        return DecideMix()
    return CliCorpus(workdir)


@contextlib.contextmanager
def argument_dir(root: Path):
    """Temporary directory for argument files, inside the checkout."""
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as path:
        yield Path(path)
