import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modaltab

from modaltab import arguments, cli, tableau
from modaltab.arguments import DerivationScript, eder_ramharter_manual
from modaltab.cli import export_dot, load_argument_file, main
from modaltab.enumeration import CountermodelWitness, EnumerationBudget, find_countermodel
from modaltab.semantics import LOGICS, FrameCondition, KripkeModel
from modaltab.syntax import MAX_DEPTH, parse, print_formula
from modaltab.tableau import ProofObject

from conftest import formula_strategy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv, timeout=60, **kwargs):
    """The CLI in a fresh interpreter that imports this modaltab."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(modaltab.__file__))}
    return subprocess.run([sys.executable, "-m", "modaltab.cli", *argv], env=env, text=True,
                          timeout=timeout, **kwargs)


class TestCheck:
    def test_valid_corpus_entry(self, capsys):
        code, out, _ = run(capsys, "check", "eder_ramharter")
        assert code == 0
        assert "Valid under {symmetric}" in out

    def test_no_frame_reports_countermodel(self, capsys):
        code, out, _ = run(capsys, "check", "eder_ramharter", "--no-frame")
        assert code == 1
        assert "Invalid under {}" in out
        assert "countermodel" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "missing.json")
        assert code == 2
        assert "error" in err

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "check", "no_such_argument")
        assert code == 2
        assert "corpus" in err

    def test_countermodel_alias(self, capsys):
        code_a, out_a, _ = run(capsys, "countermodel", "kane", "--json", "--stable")
        code_b, out_b, _ = run(capsys, "check", "kane", "--no-frame", "--json", "--stable")
        assert code_a == code_b == 1
        assert out_a == out_b

    def test_minimal_frames_flag(self, capsys):
        code, out, _ = run(capsys, "check", "malcolm", "--minimal-frames")
        assert code == 0
        assert "minimal frames" in out
        assert "{euclidean}" in out and "{symmetric}" in out

    @pytest.mark.parametrize(
        "argv,calls",
        [
            (["check", "eder_ramharter"], 2),  # the verdict and the triviality schema
            (["countermodel", "kane"], 2),
            # plus the 2 subsets that neither the verdict nor a countermodel settles
            (["check", "malcolm", "--minimal-frames"], 4),
        ],
    )
    def test_decides_only_what_it_prints(self, capsys, monkeypatch, argv, calls):
        assert len(self._decides(capsys, monkeypatch, argv)) == calls

    # decide calls of `check` and `countermodel` with --minimal-frames, in
    # corpus order: the main verdict, the triviality schema, and the subsets
    # that neither the main verdict nor its minimised countermodel settles
    CHECK_DECIDES = (5, 5, 4, 4, 5, 5, 5, 5)
    COUNTERMODEL_DECIDES = (5, 5, 4, 4, 4, 4, 5, 4)

    @pytest.mark.parametrize("command,name,calls", [
        *(("check", a.name, n) for a, n in zip(arguments.builtin_corpus(), CHECK_DECIDES)),
        *(("countermodel", a.name, n) for a, n in zip(arguments.builtin_corpus(), COUNTERMODEL_DECIDES)),
    ])
    def test_minimal_frames_start_from_the_main_verdict(self, capsys, monkeypatch, command, name, calls):
        seen = self._decides(capsys, monkeypatch, [command, name, "--minimal-frames"])
        assert len(seen) == calls
        assert len({(tuple(p), c, f) for p, c, f in seen}) == len(seen)  # none decided twice

    def test_an_invalid_argument_file_decides_once(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "gap.json"
        path.write_text(json.dumps({
            "name": "reflexive_gap",
            "premises": [{"name": "P1", "formula": "a -> []b"}, {"name": "P2", "formula": "<>a"}],
            "frame": ["reflexive"],
            "conclusion": "[]b",
        }))
        # the main verdict; its countermodel settles the triviality schema
        assert len(self._decides(capsys, monkeypatch, ["check", str(path)])) == 1
        code, out, _ = run(capsys, "check", str(path), "--json", "--stable")
        assert code == 1
        assert json.loads(out)["triviality"] == "invalid"

    @staticmethod
    def _decides(capsys, monkeypatch, argv):
        """The arguments of each ``arguments.decide`` call one command makes."""
        seen = []
        real = arguments.decide

        def counting(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(arguments, "decide", counting)
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1)
        return seen

    @pytest.mark.parametrize(
        "argv,calls",
        [
            (["check", "kane", "--json"], 1),  # the verdict's proof id; triviality is one word
            (["countermodel", "kane", "--json"], 0),  # the verdict is Invalid
            (["check", "kane"], 0),  # text reports print no proof id
            (["prove", "[]p -> p", "--logic", "T"], 0),
        ],
    )
    def test_serialises_only_the_proof_it_reports(self, capsys, monkeypatch, argv, calls):
        seen = []
        real = ProofObject.to_json

        def counting(self):
            seen.append(self)
            return real(self)

        monkeypatch.setattr(ProofObject, "to_json", counting)
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1)
        assert len(seen) == calls

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "check", "adams", "--json", "--stable")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["verdict"] == "valid"
        assert doc["result"]["proof_id"]
        assert doc["frame"] == ["euclidean"]
        assert doc["triviality"] == "valid"
        assert doc["elapsed_ms"] == 0.0

    def test_argument_file(self, capsys, tmp_path):
        path = tmp_path / "arg.json"
        path.write_text(
            json.dumps(
                {
                    "name": "b_axiom",
                    "premises": [],
                    "frame": ["B"],
                    "conclusion": "p -> []<>p",
                }
            )
        )
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "b_axiom" in out
        # logic alias expands to its frame conditions in the report
        assert "Valid under {reflexive, symmetric}" in out

    def test_malformed_argument_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", "premises": [{"name": "P", "formula": "p &"}]}')
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "doc,message",
        [
            (
                {
                    "name": "dup",
                    "premises": [{"name": "P", "formula": "p"}, {"name": "P", "formula": "q"}],
                    "frame": [],
                    "conclusion": "p",
                },
                "duplicate premise names in 'dup'",
            ),
            ({"name": "x", "premises": [], "frame": [3], "conclusion": "p"}, "frame must be a list"),
            ({"name": "x", "premises": [], "frame": "symmetric", "conclusion": "p"}, "frame must be a list"),
            ({"name": {"k": 1}, "premises": [], "frame": [], "conclusion": "p"},
             "argument name must be a string"),
            ({"name": "x", "premises": [{"name": 5, "formula": "p"}], "frame": [], "conclusion": "p"},
             "every premise name must be a string"),
            ({"name": "x", "premises": [{"name": None, "formula": "p"}], "frame": [], "conclusion": "p"},
             "every premise name must be a string"),
            ({"name": "x", "premises": [{"name": ["a"], "formula": "p"}], "frame": [], "conclusion": "p"},
             "every premise name must be a string"),
            ({"name": "x", "premises": [], "frame": [], "conclusion": ["p"]},
             "every formula must be a string"),
            ({"name": "x", "premises": [{"name": "P", "formula": []}], "frame": [], "conclusion": "p"},
             "every formula must be a string"),
            (b"\xff\xfe\x00bad", "cannot read "),
            (b"[" * 100_000 + b"]" * 100_000, "not valid JSON"),
            # JSON's \ud800 escape gives a lone surrogate, which no UTF-8 output can print
            ({"name": "\ud800", "premises": [], "frame": [], "conclusion": "p"},
             "name '\\ud800' is not valid UTF-8 text"),
            ({"name": "x", "premises": [{"name": "\udc80", "formula": "p"}], "frame": [], "conclusion": "p"},
             "name '\\udc80' is not valid UTF-8 text"),
            ({"name": "x", "premises": [], "frame": [], "conclusion": "# \ud800\np &"},
             "syntax error at byte 9: expected one of"),
        ],
        ids=["duplicate-premise-names", "frame-not-a-name", "frame-not-a-list", "name-not-a-string",
             "premise-name-number", "premise-name-null", "premise-name-list",
             "conclusion-list", "premise-formula-list", "not-utf8", "nested-too-deep",
             "name-surrogate", "premise-name-surrogate", "surrogate-before-syntax-error"],
    )
    def test_rejected_argument_file(self, capsys, tmp_path, doc, message):
        path = tmp_path / "rejected.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_bad_frame_name_in_file(self, capsys, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text(
            json.dumps(
                {"name": "x", "premises": [], "frame": ["zigzag"], "conclusion": "p"}
            )
        )
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "zigzag" in err


VALID_ARGUMENT = {
    "name": "fuzz",
    "premises": [{"name": "P1", "formula": "g -> []g"}, {"name": "P2", "formula": "<>g"}],
    "frame": ["symmetric"],
    "conclusion": "g",
}

# Hypothesis text has no lone surrogates, which JSON's \ud800 escapes can make
texts = st.lists(st.text(max_size=6) | st.sampled_from(["\ud800", "\udc80"]), max_size=4).map("".join)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4),
    max_leaves=10,
)


def _replace_field(doc, field, value):
    doc = json.loads(json.dumps(doc))  # deep copy
    if field in ("premise name", "premise formula"):
        doc["premises"][0][field.split()[1]] = value
    else:
        doc[field] = value
    return json.dumps(doc).encode()


argument_files = st.builds(
    _replace_field,
    st.just(VALID_ARGUMENT),
    st.sampled_from(["name", "premises", "premise name", "premise formula", "frame", "conclusion"]),
    texts | json_values,  # a bare string first: every field but two wants one
) | st.binary(max_size=64)


class TestArgumentFileFuzz:
    """Any argument file gives exit 0, 1 or 2, never an exception, and
    exit 2 always comes with an ``error:`` line, in text and JSON mode."""

    @given(data=argument_files)
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_check_never_raises(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_bytes(data)
        for mode in ([], ["--json"]):
            # strict UTF-8, as on a terminal: printing a lone surrogate raises
            out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", str(path), *mode])
            out.flush()
            assert code in (0, 1, 2)
            if code == 2:
                assert out.buffer.getvalue() == b""
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            elif mode:
                json.loads(out.buffer.getvalue())


def _parser_words():
    """The CLI parser's top-level option strings, and by subcommand name
    its own option strings, each with whether it takes a value."""
    top, commands = [], {}
    for action in cli.build_parser()._actions:
        top += action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                commands[name] = [(o, a.nargs != 0) for a in sub._actions for o in a.option_strings]
    return top, commands


TOP_OPTIONS, COMMAND_OPTIONS = _parser_words()
argv_values = (
    st.sampled_from([a.name for a in arguments.builtin_corpus()] + sorted(LOGICS)
                    + [c.value for c in FrameCondition] + ["1", "2", "3"])
    # few leaves: a nest of <-> doubles its NNF per level, so this bound
    # keeps the test fast, not the CLI safe
    | formula_strategy(max_leaves=6).map(print_formula)
    # no NUL, which argv cannot hold, and no "/", so that --dot writes
    # only inside the temporary working directory
    | st.text(st.characters(exclude_characters="\x00/"), max_size=8)
)


def _command_line(name):
    """Subcommand ``name``, at most one positional value, then up to four
    of its options, each with a value if it takes one; for None, top-level
    options and stray words."""
    if name is None:
        return st.lists(st.sampled_from(TOP_OPTIONS) | argv_values, max_size=3)
    option = st.sampled_from(COMMAND_OPTIONS[name]).flatmap(
        lambda o: st.tuples(st.just(o[0]), argv_values) if o[1] else st.tuples(st.just(o[0])))
    return st.tuples(st.lists(argv_values, max_size=1), st.lists(option, max_size=4)).map(
        lambda t: [name, *t[0], *(word for o in t[1] for word in o)])


class TestArgvFuzz:
    """Any command line gives exit 0, 1 or 2 and never an exception, and
    exit 2 comes with exactly one ``error:`` line."""

    @given(argv=st.sampled_from([*sorted(COMMAND_OPTIONS), None]).flatmap(_command_line))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_main_never_raises(self, tmp_path_factory, argv):
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp_path_factory.getbasetemp())
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as e:  # argparse: usage errors, --help, --version
                    code = e.code
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2)
        if code == 2:
            assert sum("error: " in line for line in err.getvalue().splitlines()) == 1


class TestProve:
    def test_valid_with_logic(self, capsys):
        code, out, _ = run(capsys, "prove", "[]p -> p", "--logic", "T")
        assert code == 0
        assert "Valid under {reflexive}" in out

    def test_invalid_over_k(self, capsys):
        code, out, _ = run(capsys, "prove", "[]p -> p", "--logic", "K")
        assert code == 1
        assert "countermodel (1 worlds" in out

    def test_dexpand_equivalence(self, capsys):
        code, _, _ = run(capsys, "prove", "<>p <-> ~[]~p", "--logic", "K")
        assert code == 0

    def test_frame_list(self, capsys):
        code, out, _ = run(capsys, "prove", "<>p -> []<>p", "--frame", "euclidean")
        assert code == 0

    def test_unknown_logic(self, capsys):
        code, _, err = run(capsys, "prove", "p", "--logic", "S17")
        assert code == 2
        assert "S17" in err

    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "prove", "p & ")
        assert code == 2
        assert "byte 4" in err

    def test_syntax_error_after_undecodable_argv_bytes(self, capsys):
        # argv bytes that are not UTF-8 arrive as lone surrogates
        code, out, err = run(capsys, "prove", os.fsdecode(b"# \xff\np &"))
        assert (code, out) == (2, "")
        # b"# \xff\np &" is 7 bytes: the escape of \xff counts as one
        assert err == "error: syntax error at byte 7: expected one of " \
                      "(, <>, [], identifier, ~; found 'end of input'\n"

    def test_nesting_at_the_bound(self, capsys):
        n = MAX_DEPTH
        code, out, _ = run(capsys, "prove", "p" + " & (p" * n + ")" * n, "--logic", "K")
        assert code == 1
        assert "countermodel (1 worlds" in out
        code, out, _ = run(capsys, "prove", "p" + " -> p" * n, "--logic", "K")
        assert code == 0

    @pytest.mark.parametrize(
        "formula",
        [
            "p" + " & (p" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1),
            "p" + " & p" * 1500,
            "(" * 170 + "p" + ")" * 170,
        ],
        ids=["one-past-the-bound", "1500-conjuncts", "170-parentheses"],
    )
    def test_nesting_past_the_bound(self, capsys, formula):
        code, out, err = run(capsys, "prove", formula, "--logic", "K")
        assert code == 2
        assert out == ""
        assert f"nested deeper than {MAX_DEPTH} levels" in err

    def test_logic_and_frame_conflict(self, capsys):
        code, _, err = run(capsys, "prove", "p", "--logic", "T", "--frame", "serial")
        assert code == 2

    def test_unicode_output(self, capsys):
        code, out, _ = run(capsys, "prove", "[]p -> p", "--logic", "T", "--unicode")
        assert "□p ⊃ p" in out

    @pytest.mark.parametrize("budget", ["7", "0", "-3", "two"])
    def test_world_budget_out_of_range(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main(["prove", "~<><><><><><>p", "--max-worlds", budget])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--max-worlds: expected a whole number from 1 to 5" in err
        assert "Traceback" not in err

    def test_world_budget_at_cap(self, capsys):
        code, out, err = run(capsys, "prove", "~<><><><><><>p", "--max-worlds", "5")
        assert code == 1
        assert "countermodel (1 worlds" in out
        assert err == ""

    def test_many_atoms_keep_the_tableau_witness(self, capsys):
        # 20 atoms x 2 worlds would need ints of 2^40 bits; minimisation
        # stops at the kernel's bound and keeps the 3-world tableau witness
        conjunction = " & ".join(f"p{i}" for i in range(1, 21))
        code, out, err = run(capsys, "prove", f"~(<>({conjunction}) & <>~p1)", "--logic", "K")
        assert code == 1
        assert "countermodel (3 worlds, fails at w0)" in out
        assert err == ""


class TestSuites:
    @pytest.mark.parametrize(
        "name,expected",
        [("corpus", "8/8"), ("axioms", "10/10"), ("steps", "5/5"), ("jacquette", "4/4")],
    )
    def test_suites_green(self, capsys, name, expected):
        code, out, _ = run(capsys, name)
        assert code == 0
        assert f"{expected} entries match" in out

    def test_corpus_json_lists_checks(self, capsys):
        code, out, _ = run(capsys, "corpus", "--json", "--stable")
        doc = json.loads(out)
        assert code == 0
        assert doc["ok"] is True
        assert len(doc["entries"]) == 8
        names = {c["name"] for e in doc["entries"] for c in e["checks"]}
        assert "eder_ramharter_no_frame" in names
        assert "hartshorne_triviality" in names


class TestInternalErrors:
    """An exception that is not an input error is a fault of the program:
    it exits 2 with one line, never 1, which would read as "invalid"."""

    @pytest.mark.parametrize("error", [
        AssertionError("extracted model violates a global premise"),
        ValueError("beta rule applicable at label 0\nand more"),
    ])
    def test_reported_as_one_line_with_exit_2(self, capsys, monkeypatch, error):
        def failing(*args):
            raise error

        monkeypatch.setattr(tableau, "extract_countermodel", failing)
        code, out, err = run(capsys, "prove", "[]p -> p", "--logic", "K")
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: internal error: {type(error).__name__}: "
                                    + " ".join(str(error).split())]


class TestFailingSuite:
    # a derivation whose last step does not follow
    BROKEN = DerivationScript(
        name="broken",
        premises=(("ER1", parse("g -> []g")), ("ER2", parse("<>g"))),
        frame=eder_ramharter_manual().frame,
        steps=(("step1", parse("[]g | []~[]g")), ("oops", parse("~g"))),
    )
    # sha256 of the `--json --stable` and `--stable` outputs
    DIGESTS = {
        "--json": "c24dca661638d1552b05f571125b86830420c58aefb83f8c40334cdd0cb86af8",
        "text": "e7d7f308e713c22e275f90465fbafaa874cf3c83c144aea60958eed12c6dc075",
    }

    def test_exit_1_names_the_failing_entry(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "steps", lambda: arguments.derivation_suite(self.BROKEN))
        code, out, _ = run(capsys, "steps", "--json", "--stable")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and doc["failed_entry"] == "oops"
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS["--json"]
        code, out, _ = run(capsys, "steps", "--stable")
        assert code == 1
        assert "  [FAIL] oops: expected valid, got invalid" in out.splitlines()
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS["text"]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("corpus", "--json", "--stable"),
        ("axioms", "--json", "--stable"),
        ("steps", "--json", "--stable"),
        ("jacquette", "--json", "--stable"),
        ("check", "eder_ramharter", "--json", "--stable", "--minimal-frames"),
        ("prove", "[]p -> p", "--logic", "K", "--json", "--stable"),
    ])
    def test_byte_identical_runs(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


# JSON documents for ``_json_text``: strings with quotes, backslashes,
# control, non-ASCII and astral characters and lone surrogates; ints past
# 64 bits; json's special floats; tuples; empty and nested containers
JSON_STRINGS = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\U0001f600\ud800\udc80\udfff') | st.characters(),
    max_size=10,
)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-2**200, max_value=2**200)
    | st.floats() | st.sampled_from([-0.0, 5e-324, 1e300, float("nan"), float("inf"), -float("inf")])
    | JSON_STRINGS
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda docs: st.lists(docs, max_size=4) | st.lists(docs, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, docs, max_size=4),
    max_leaves=30,
)


def stdlib_json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestJsonText:
    """Reports are printed by ``cli._json_text``, which must give the
    bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``."""

    @given(JSON_DOCS)
    @settings(max_examples=600)
    def test_equals_the_stdlib_encoding(self, doc):
        assert cli._json_text(doc) == stdlib_json_text(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), "", None, True, False, 0, 2**64, -2**100, -0.0, 5e-324, 1e300,
        float("nan"), float("inf"), -float("inf"), "\ud800", "\U0001f600", '"\\\x00\x1f\x7f é',
        {"b": [(), {}, [[]]], "a": {"c": (1, "x")}},
        {2: "two", 10: "ten", -1: "minus one"}, {2.5: 0, -0.0: 1, float("inf"): 2},
        {None: 0}, {True: 0, False: 1},
    ])
    def test_edge_values(self, doc):
        assert cli._json_text(doc) == stdlib_json_text(doc)

    @pytest.mark.parametrize("doc", [object(), {"a": {1, 2}}, [b"bytes"], {"k": [1, 2j]}])
    def test_an_unsupported_value_raises_type_error(self, doc):
        with pytest.raises(TypeError) as expected:
            stdlib_json_text(doc)
        with pytest.raises(TypeError) as raised:
            cli._json_text(doc)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("doc", [{(1, 2): 3}, {"a": 1, 2: 3}])
    def test_an_unsupported_key_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            stdlib_json_text(doc)
        with pytest.raises(TypeError):
            cli._json_text(doc)


# sha256 of the `--json --stable` output of each command.  Formula hashes
# differ from one process to the next, so a digest that changes between
# runs exposes output that depends on hash or set order.  The check
# reports carry a proof id, so a change of the proof's JSON moves them.
GOLDEN_OUTPUT_DIGESTS = {
    "axioms": "731d31fa401d87fd7e0de21fa5e6c953859b21f69441e9d81be7d50bcbc775a8",
    "corpus": "27395b1b2727e910d83190aac05047d6c68151d94c46550f4dcc209e01933767",
    "jacquette": "dd6020e922997335f3197b8be0b5b001105e10bad0f8e55e44777e2a69aa56fb",
    "steps": "ee1a905c157f606a4f2f6de4a782d3c2a9d6f631171f0cefc905f981de996563",
    "check adams": "037274889ba8c90d913290a85f22c5b17825033e79ebead78ee388789c77eb38",
    "check adams_alt": "b9b765fc00283c6b654da24513f0cbb00748b266f25d50e8b8a1c56d7054761d",
    "check eder_ramharter": "6bbc4054e310a47e6d54de55f2c4cd5f4661e52977c537960520dcf824528ee8",
    "check hartshorne": "5b208cd2f966ced10a173955a614b40070c63308bc4d9fdbf60f713ccbb1dbc2",
    "check hartshorne_alt": "e8d829c6c9b2e1bd63e45e0fa203bc6287fa530f76a85d7f62db41325cb4a3af",
    "check kane": "88660959e4b02aa94d12572b1aab14a2c70a6ddd379ddef7652de08784839f60",
    "check malcolm": "94e72e5575a06213aa0b5ce112529e64e6eee1a10a4b0febbf9d0eed07a02930",
    "check malcolm_alt": "c32a1e0b1fe93fb38d871ce06aa18fbaf7a9c4885c1bc05eba43a2d483eac19a",
    "countermodel adams": "b8f3e138bce33201db3d6516cc75991c50c092b96cf86555f63f48122130f6a7",
    "countermodel adams_alt": "261315cc246a561e0325d0a8bdc029e4f00f21209e7c3d2284f8ce12b8fef252",
    "countermodel eder_ramharter": "c1c57ec17106efbc0d9b840268008d5c998d818db4aca975f261d4792c29dad9",
    "countermodel hartshorne": "1ed42aa8bdade7f5a839cebea8a1492d7c595132eedc3a96615b2ff111b74bed",
    "countermodel hartshorne_alt": "a5c328d45b6b697ce2691939bfd5158b343d52b867a177e33bece701fbf00527",
    "countermodel kane": "441af34ac6ab1bb479ba7e7a290a137f0542e4d2a759f942f9dbc0f135cf8640",
    "countermodel malcolm": "6d773cbcbc4b050f6a2e9baaacfc5cedf87f7c9f49df88e31d4df3d02305617c",
    "countermodel malcolm_alt": "a3d057e1b0d465114a25e258a8b928c93ecad040e32b6fca762cf26cb6f6ed22",
    "check adams --minimal-frames": "b8b55332b30ea6353c52ea2409ce87ea0f2681da2027eafd0783dd3b53683915",
    "check adams_alt --minimal-frames": "f027579c9cb7565ebd11f06fe5ccdc048d6d70e3ad9c0acb97c5c8d72d1c1945",
    "check eder_ramharter --minimal-frames": "095d0869581c19a86eeddf82ec6a246a56db3994ad103f7ad4d66a559e46f824",
    "check hartshorne --minimal-frames": "9396890149e9472517cc6de3d1def8140f9d668eaeadd569349e7e319f6ee2f8",
    "check hartshorne_alt --minimal-frames": "f9760fa53c855bdf9fe691c1314d23fc854ede989cc8d6db4b04a521c0fe1ca8",
    "check kane --minimal-frames": "3712582d970ee0c114639ea74fa3d7ddf3ad0bffbade0ef8a74e3994da1406d9",
    "check malcolm --minimal-frames": "b32940915870ab5cea40ad27905974a1346d7b82f27e074f2997a40fc17a8f2f",
    "check malcolm_alt --minimal-frames": "d96d41e08cdcf04a8e7d7e0a057218e4c35babaab26b4342be5d03d06cdb2576",
}


@pytest.mark.golden
class TestGoldenOutput:
    @pytest.mark.parametrize("argv", sorted(GOLDEN_OUTPUT_DIGESTS))
    def test_output_digest_unchanged(self, capsys, argv):
        _, out, _ = run(capsys, *argv.split(), "--json", "--stable")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OUTPUT_DIGESTS[argv]


class TestParserReuse:
    # one process reuses the parser that its first call built; flags of
    # one call must not carry over to the next
    SEQUENCE = [
        ("check", "kane", "--json", "--stable"),
        ("check", "kane"),
        ("check", "kane", "--no-such-flag"),
        ("prove", "p", "--logic", "K"),
    ]

    @staticmethod
    def in_process(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def fresh(argv):
        done = run_fresh(argv, capture_output=True)
        return done.returncode, done.stdout, done.stderr

    def test_repeated_calls_match_fresh_interpreters(self, capsys):
        def untimed(text):
            return re.sub(r"\(\d+\.\d ms\)", "(ms)", text)

        results = []
        for argv in self.SEQUENCE:
            code, out, err = self.in_process(capsys, argv)
            fresh_code, fresh_out, fresh_err = self.fresh(argv)
            assert (code, untimed(out), err) == (fresh_code, untimed(fresh_out), fresh_err)
            results.append((code, out))
        assert [code for code, _ in results] == [0, 0, 2, 1]
        assert json.loads(results[0][1])["argument"] == "kane"
        text = results[1][1]
        assert text.startswith("kane:\n") and untimed(text) != text  # neither --json nor --stable


class TestArgvReachesArgparse:
    """``main`` gives the words after a subcommand's name to that
    subcommand's parser and falls back to the full parser; each command
    line below gives the exit (a ``SystemExit`` code included), output
    and namespace that ``build_parser().parse_args`` gives."""

    ARGV = [
        ("check", "kane", "--no-such-flag"),
        ("check", "kane", "--min"),
        ("check", "kane", "--m"),
        ("check", "kane", "--max-worlds=2", "--json", "--stable"),
        ("check", "kane", "--max-worlds", "9"),
        ("check", "--", "kane"),
        ("check", "-h"),
        ("prove", "-h"),
        ("check", "kane", "--version"),
        ("check", "--version"),
        ("--version",),
        ("-h",),
        (),
        ("nosuch", "kane"),
        ("check", "kane", "stray"),
        ("check",),
        ("prove", "p", "--logic", "K", "--frame", "reflexive"),
        ("prove", "p", "--logic", "S5", "--stable"),
        ("countermodel", "kane", "--json", "--stable"),
        ("corpus", "--json", "x"),
        ("corpus", "--stable"),
        ("--json", "check", "kane"),
    ]

    @staticmethod
    def outcome(capsys, monkeypatch, argv, parse):
        parsed = []

        def recording(words):
            parsed.append(vars(parse(words)))
            return argparse.Namespace(**parsed[-1])

        monkeypatch.setattr(cli, "_parse_args", recording)
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        untimed = re.sub(r"\(\d+\.\d ms\)", "(ms)", captured.out)
        return code, untimed, captured.err, parsed

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: " ".join(argv) or "empty")
    def test_same_as_the_full_parser(self, capsys, monkeypatch, argv):
        fast = self.outcome(capsys, monkeypatch, argv, cli._parse_args)
        full = self.outcome(capsys, monkeypatch, argv, lambda words: cli.build_parser().parse_args(words))
        assert fast == full
        code, _, err, parsed = fast
        assert code in (0, 1, 2)
        if parsed:
            assert parsed[0]["command"] == argv[0]
        elif code == 2:
            assert err.startswith("usage: modaltab")


class TestUnwritableOutput:
    """A report that cannot be written is an error (exit 2), never a
    traceback with exit 1, which means "invalid"."""

    COMMANDS = [("corpus", "--json"), ("prove", "p", "--logic", "K")]

    @staticmethod
    def run_into(stdout, argv):
        done = run_fresh(argv, stdout=stdout, stderr=subprocess.PIPE)
        return done.returncode, done.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_full_device(self, argv):
        with open("/dev/full", "w") as full:
            code, err = self.run_into(full, argv)
        assert (code, err) == (2, "error: cannot write output: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_closed_pipe(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = self.run_into(write_end, argv)
        finally:
            os.close(write_end)
        assert (code, err) == (2, "error: cannot write output: [Errno 32] Broken pipe\n")


class TestDot:
    def test_single_world(self):
        witness = CountermodelWitness(KripkeModel(1, frozenset()), 0)
        dot = export_dot(witness)
        assert dot == 'digraph countermodel {\n  w0 [label="w0" shape=doublecircle];\n}\n'

    def test_two_world_witness(self):
        witness = find_countermodel(
            [parse("g -> []g"), parse("<>g")], parse("g"), frozenset(), EnumerationBudget(2, ("g",))
        )
        dot = export_dot(witness)
        assert '  w0 [label="w0" shape=doublecircle];' in dot
        assert '  w1 [label="w1: g" shape=circle];' in dot
        assert "  w0 -> w1;" in dot
        assert "  w1 -> w1;" in dot
        assert dot.count("->") == 2

    def test_full_relation_witness_has_four_edges(self):
        from modaltab.semantics import FrameCondition

        frame = frozenset(
            {FrameCondition.REFLEXIVE, FrameCondition.SYMMETRIC, FrameCondition.TRANSITIVE}
        )
        witness = find_countermodel(
            [], parse("(p -> q) -> ([]~q -> []~p)"), frame, EnumerationBudget(2, ("p", "q"))
        )
        dot = export_dot(witness)
        assert dot.count("->") == 4

    def test_dot_flag_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "model.dot"
        code, _, _ = run(capsys, "prove", "[]p -> p", "--logic", "K", "--dot", str(out_file))
        assert code == 1
        assert out_file.read_text().startswith("digraph countermodel {")

    def test_dot_flag_on_valid_notes_absence(self, capsys, tmp_path):
        out_file = tmp_path / "model.dot"
        code, _, err = run(capsys, "prove", "[]p -> p", "--logic", "T", "--dot", str(out_file))
        assert code == 0
        assert not out_file.exists()
        assert "no countermodel" in err

    @pytest.mark.parametrize("target", ["missing/model.dot", "."])
    def test_dot_flag_unwritable_path(self, capsys, tmp_path, target):
        code, _, err = run(capsys, "prove", "<>p", "--dot", str(tmp_path / target))
        assert code == 2
        assert err.startswith("error: cannot write ")

    def test_dot_path_with_a_nul_byte_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "prove", "[]p -> p", "--logic", "K", "--dot", "a\x00.dot")
        assert code == 2
        assert out.startswith("[]p -> p\n  Invalid under {}\n")
        assert err == "error: cannot write a\x00.dot: embedded null byte\n"


class TestArgumentFileLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "arg.json"
        path.write_text(
            json.dumps(
                {
                    "name": "custom",
                    "premises": [{"name": "P1", "formula": "g -> []g"}],
                    "frame": ["symmetric", "serial"],
                    "conclusion": "<>g -> g",
                }
            )
        )
        a = load_argument_file(path)
        assert a.name == "custom"
        assert a.premises[0][1] == parse("g -> []g")
        assert len(a.frame) == 2

    @staticmethod
    def padded(tmp_path, size):
        """A file of ``size`` bytes: a valid argument and trailing spaces."""
        text = json.dumps(VALID_ARGUMENT).encode()
        path = tmp_path / "padded.json"
        path.write_bytes(text + b" " * (size - len(text)))
        assert path.stat().st_size == size
        return path

    def test_file_at_the_size_cap_loads(self, tmp_path):
        path = self.padded(tmp_path, cli._MAX_ARGUMENT_FILE_BYTES)
        assert load_argument_file(path).name == "fuzz"

    def test_file_past_the_size_cap_is_an_input_error(self, capsys, tmp_path):
        path = self.padded(tmp_path, cli._MAX_ARGUMENT_FILE_BYTES + 1)
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: larger than {cli._MAX_ARGUMENT_FILE_BYTES} bytes\n"

    @pytest.mark.parametrize("reported", [0, 1])
    def test_file_longer_than_fstat_reports_is_read_to_its_end(self, monkeypatch, tmp_path, reported):
        # as a file that grew after its fstat, or a /proc file, which reports 0 bytes
        fstat = os.fstat

        def shrunk(fd):
            info = list(fstat(fd))
            info[stat.ST_SIZE] = reported
            return os.stat_result(info)

        small = tmp_path / "arg.json"
        small.write_text(json.dumps(VALID_ARGUMENT))
        large = self.padded(tmp_path, cli._MAX_ARGUMENT_FILE_BYTES + 1)
        monkeypatch.setattr(os, "fstat", shrunk)
        assert load_argument_file(small).name == "fuzz"
        with pytest.raises(cli.CliError, match=f"larger than {cli._MAX_ARGUMENT_FILE_BYTES} bytes"):
            load_argument_file(large)

    def test_input_errors(self, capsys, tmp_path):
        directory, empty, missing = tmp_path / "x.json", tmp_path / "empty.json", tmp_path / "missing.json"
        directory.mkdir()
        empty.write_bytes(b"")
        for path, err in [
            (directory, f"error: cannot read {directory}: [Errno 21] Is a directory: '{directory}'\n"),
            (empty, f"error: {empty}: not valid JSON: Expecting value: line 1 column 1 (char 0)\n"),
            (missing, f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"),
            ("a\x00.json", "error: cannot read a\x00.json: embedded null byte\n"),
        ]:
            assert run(capsys, "check", str(path)) == (2, "", err)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_without_a_writer_is_an_input_error(self, tmp_path):
        # in a fresh interpreter with a timeout, so that a loader which
        # waits in open() for a writer fails this test instead of hanging
        path = tmp_path / "fifo.json"
        os.mkfifo(path)
        done = run_fresh(["check", str(path)], timeout=20, capture_output=True)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {path}: not a regular file\n"
