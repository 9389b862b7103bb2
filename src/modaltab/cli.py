"""Command-line interface.

Subcommands: ``check`` (analyze a corpus argument or an argument file),
``countermodel`` (same, over the empty frame class), ``prove`` (validity
of one formula over a logic or frame list), and the four suite runners
``corpus``, ``axioms``, ``steps``, ``jacquette``.

Exit codes: 0 for valid / all expectations met, 1 for invalid / a failed
expectation, 2 for usage or input errors and for internal errors.  An
internal error (any other exception, such as a countermodel that fails
its re-verification) is reported as one ``error: internal error: ...``
line, not as a traceback with exit 1, which would read as "invalid".
``--json`` reports are byte-deterministic for fixed inputs once
``--stable`` zeroes the timing fields.  Their bytes are those of
``json.dumps(report, indent=2, sort_keys=True)`` plus a newline;
``_json_text`` prints them itself, with the C string escaper of the
``json`` module, since an indent sends ``json.dumps`` down its
pure-Python encoder.

Every command line goes through argparse.  When ``argv[0]`` names a
subcommand, ``argv[1:]`` goes straight to that subcommand's parser: the
full parser would hand it exactly those words, after a generic pass of
its own over all of them.  The full parser runs when ``argv[0]`` names
no subcommand or the subcommand's parser leaves words over, so help,
``--version``, usage lines and error texts are argparse's own.

The timing field ``elapsed_ms`` covers the deciding a command prints.
For ``check`` and ``countermodel`` that is the main verdict, the
triviality schema, the minimisation of the main countermodel (which the
frame search starts from) and the minimal frames; for ``prove`` the
verdict alone, not the minimisation; for a suite the whole suite run.
Loading the argument and formatting the report are outside it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import stat
import sys
import time
from pathlib import Path

from .arguments import (
    AnalysisReport,
    Argument,
    SuiteReport,
    _frame_text,
    analyze,
    axiom_correspondence_suite,
    builtin_corpus,
    corpus_entry,
    corpus_suite,
    derivation_suite,
    jacquette_suite,
)
from . import __version__
from .enumeration import MAX_WORLDS, CountermodelWitness, minimize_countermodel
from .semantics import FrameClass, frame_class, model_to_dict
from .syntax import Formula, FormulaSyntaxError, parse, print_formula
# not called here; verdictbench/spans.py rebinds these names on this module
from .enumeration import find_countermodel  # noqa: F401
from .syntax import desugar  # noqa: F401
from .tableau import Invalid, ResourceLimit, Valid, Verdict, prove_valid

__all__ = ["main", "export_dot", "load_argument_file"]


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


# Largest argument file read, in bytes.  A corpus argument written as a
# file is a few hundred bytes; an endless file must be refused, not read
# until memory runs out.  Only regular files are read at all: a device
# such as /dev/zero never ends, and a FIFO without a writer would block.
_MAX_ARGUMENT_FILE_BYTES = 1 << 20
_NONBLOCK = getattr(os, "O_NONBLOCK", 0)  # POSIX only; no FIFO to open elsewhere


def load_argument_file(path: str | Path) -> Argument:
    """Parse an argument file: a regular file of at most
    _MAX_ARGUMENT_FILE_BYTES of UTF-8 JSON with name, named premise
    formulas, a frame list (condition names or logic aliases), and a
    conclusion."""
    try:
        # non-blocking, so that opening a FIFO returns before its refusal;
        # unbuffered, so that one read of the size fstat gives reads it all
        with open(path, "rb", buffering=0,
                  opener=lambda p, flags: os.open(p, flags | _NONBLOCK)) as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise CliError(f"{path}: not a regular file")
            size = min(info.st_size, _MAX_ARGUMENT_FILE_BYTES)
            blob = fh.read(size + 1)
            # longer than fstat said (it grew, or it is a /proc file, which
            # reports 0 bytes): read on until its end or one byte past the cap
            while size < len(blob) <= _MAX_ARGUMENT_FILE_BYTES:
                more = fh.read(_MAX_ARGUMENT_FILE_BYTES + 1 - len(blob))
                if not more:
                    break
                blob += more
        if len(blob) > _MAX_ARGUMENT_FILE_BYTES:
            raise CliError(f"{path}: larger than {_MAX_ARGUMENT_FILE_BYTES} bytes")
        raw = blob.decode("utf-8")
    # ValueError: a NUL byte in the path (UnicodeDecodeError is one too)
    except (OSError, ValueError) as e:
        raise CliError(f"cannot read {path}: {e}") from None
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
        raise CliError(f"{path}: not valid JSON: {e}") from None

    def formula(text) -> Formula:
        if not isinstance(text, str):
            raise CliError(f"{path}: every formula must be a string")
        return parse(text)

    try:
        name = data["name"]
        if not isinstance(name, str):
            raise CliError(f"{path}: argument name must be a string")
        premises = tuple(
            (entry["name"], formula(entry["formula"])) for entry in data["premises"]
        )
        if not all(isinstance(n, str) for n, _ in premises):
            raise CliError(f"{path}: every premise name must be a string")
        for n in (name, *(n for n, _ in premises)):
            try:
                n.encode("utf-8")  # a JSON escape such as \ud800 gives a lone surrogate
            except UnicodeEncodeError:
                raise CliError(f"{path}: name {n!r} is not valid UTF-8 text") from None
        frame_names = data["frame"]
        if not isinstance(frame_names, list) or not all(isinstance(n, str) for n in frame_names):
            raise CliError(f"{path}: frame must be a list of condition names or logic aliases")
        frame = frame_class(frame_names)
        conclusion = formula(data["conclusion"])
        return Argument(name=name, premises=premises, frame=frame, conclusion=conclusion)
    except (KeyError, TypeError) as e:
        raise CliError(f"{path}: malformed argument file: {e!r}") from None
    except (FormulaSyntaxError, ValueError) as e:
        raise CliError(f"{path}: {e}") from None


def resolve_argument(name_or_path: str) -> Argument:
    try:
        return corpus_entry(name_or_path)
    except KeyError:
        pass
    if name_or_path.endswith(".json") or Path(name_or_path).exists():
        return load_argument_file(name_or_path)
    known = ", ".join(a.name for a in builtin_corpus())
    raise CliError(f"{name_or_path!r} is neither a corpus argument ({known}) nor a file")


def export_dot(witness: CountermodelWitness) -> str:
    """Graphviz digraph: one node per world labeled with its true atoms,
    one edge per access pair, the witness world double-circled."""
    model = witness.model
    lines = ["digraph countermodel {"]
    for w in range(model.world_count):
        atoms = sorted(a for a, ws in model.valuation.items() if w in ws)
        label = f"w{w}" + (": " + " ".join(atoms) if atoms else "")
        shape = "doublecircle" if w == witness.world else "circle"
        lines.append(f'  w{w} [label="{label}" shape={shape}];')
    for i, j in sorted(model.access):
        lines.append(f"  w{i} -> w{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _frame_names(frame: FrameClass) -> list[str]:
    return sorted(c.value for c in frame)


def _verdict_dict(verdict: Verdict, witness: CountermodelWitness | None) -> dict:
    """The JSON result of ``verdict``; ``witness`` is its minimised
    countermodel when Invalid, else None."""
    if isinstance(verdict, Valid):
        proof_json = verdict.proof.to_json()
        return {
            "verdict": verdict.answer,
            "proof_id": hashlib.sha256(proof_json.encode()).hexdigest()[:16],
            "countermodel": None,
            "witness_world": None,
        }
    return {
        "verdict": verdict.answer,
        "proof_id": None,
        "countermodel": model_to_dict(witness.model),
        "witness_world": witness.world,
    }


# the C escaper when the ``_json`` accelerator is built, as it is in CPython
_escape = json.encoder.encode_basestring_ascii


def _json_text(doc: object) -> str:
    """``doc`` as a JSON report: byte-equal to ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"``, which leaves the C encoder for the
    pure-Python one once an indent is given.  What ``json.dumps`` refuses
    raises too: TypeError for a value or key of another type (with
    ``json``'s message for a value), RecursionError for a cycle, which no
    report holds."""
    out: list[str] = []
    _write_json(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(o, out: list[str], newline: str) -> None:
    """Append the JSON text of ``o`` to ``out``; ``newline`` is the line
    break and indent of ``o``'s own level."""
    if isinstance(o, str):
        out.append(_escape(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            out.append(f"{sep}{_escape(key if isinstance(key, str) else _scalar_text(key))}: ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in o:
            out.append(sep)
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_scalar_text(o))


def _scalar_text(o) -> str:
    """JSON text of ``None``, a bool, an int or a float, spelled as
    ``json`` spells it (``NaN``, ``Infinity``); also the text of such a
    dictionary key before it is quoted."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _emit(out: str) -> None:
    """Write the report to stdout; a write that fails (a full disk, a
    closed pipe) is an error with exit 2, not a traceback with exit 1."""
    try:
        print(out, end="")
        sys.stdout.flush()
    except OSError as e:
        # what stays buffered goes to devnull, so the flush at interpreter
        # exit cannot fail again and print "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliError(f"cannot write output: {e}") from None


def _witness_text(witness: CountermodelWitness) -> str:
    model = witness.model
    lines = [f"  countermodel ({model.world_count} worlds, fails at w{witness.world}):"]
    for w in range(model.world_count):
        atoms = sorted(a for a, ws in model.valuation.items() if w in ws)
        succ = sorted(j for i, j in model.access if i == w)
        lines.append(
            f"    w{w}: atoms {{{', '.join(atoms)}}} -> {{{', '.join('w%d' % j for j in succ)}}}"
        )
    return "\n".join(lines) + "\n"


def _minimized(
    witness: CountermodelWitness,
    premises: list,
    conclusion,
    frame: FrameClass,
    max_worlds: int,
) -> CountermodelWitness:
    """Smallest enumerator witness within the budget, else the one given."""
    return minimize_countermodel(witness, premises, conclusion, frame, max_worlds)


def _maybe_write_dot(args, witness: CountermodelWitness | None) -> None:
    if getattr(args, "dot", None) is None:
        return
    if witness is None:
        print("note: verdict is valid; no countermodel to export", file=sys.stderr)
        return
    text = export_dot(witness)
    try:
        Path(args.dot).write_text(text)
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise CliError(f"cannot write {args.dot}: {e}") from None


def cmd_check(args) -> int:
    argument = resolve_argument(args.argument)
    no_frame = args.no_frame
    frame = frozenset() if no_frame else argument.frame
    t0 = time.perf_counter()
    report: AnalysisReport = analyze(argument)
    # read only the parts this command prints, inside the timed span; the
    # frame search starts from the main verdict and its minimised witness
    main_verdict = report.verdict_without_frame if no_frame else report.verdict
    triviality = report.triviality
    main_witness = None
    if isinstance(main_verdict, Invalid):
        main_witness = _minimized(
            main_verdict.witness,
            argument.premise_formulas(),
            argument.conclusion,
            frame,
            args.max_worlds,
        )
        report.add_countermodel(main_witness)
    minimal_frames = report.minimal_frames if args.minimal_frames else ()
    elapsed = 0.0 if args.stable else (time.perf_counter() - t0) * 1000

    if args.json:
        doc: dict = {
            "command": "check",
            "argument": argument.name,
            "premises": [
                {"name": n, "formula": print_formula(f)} for n, f in argument.premises
            ],
            "conclusion": print_formula(argument.conclusion),
            "frame": _frame_names(frame),
            "stated_frame": _frame_names(argument.frame),
            "no_frame": no_frame,
            "result": _verdict_dict(main_verdict, main_witness),
            "triviality": None if triviality is None else triviality.answer,
            "elapsed_ms": elapsed,
        }
        if args.minimal_frames:
            doc["minimal_frames"] = [_frame_names(fs) for fs in minimal_frames]
        out = _json_text(doc)
    else:
        u = args.unicode
        lines = [f"{argument.name}:"]
        for n, f in argument.premises:
            lines.append(f"  {n}: {print_formula(f, unicode=u)}")
        lines.append(f"  conclusion: {print_formula(argument.conclusion, unicode=u)}")
        lines.append(f"  {main_verdict.answer.capitalize()} under {_frame_text(frame)}")
        out = "\n".join(lines) + "\n"
        if main_witness is not None:
            out += _witness_text(main_witness)
        if triviality is not None:
            out += f"  triviality schema: {triviality.answer.capitalize()}\n"
        if args.minimal_frames:
            shown = ", ".join(_frame_text(fs) for fs in minimal_frames)
            out += f"  minimal frames: {shown}\n"
        if not args.stable:
            out += f"  ({elapsed:.1f} ms)\n"

    _emit(out)
    _maybe_write_dot(args, main_witness)
    return 0 if isinstance(main_verdict, Valid) else 1


def cmd_prove(args) -> int:
    try:
        formula = parse(args.formula)
    except FormulaSyntaxError as e:
        raise CliError(str(e)) from None
    if args.logic is not None and args.frame is not None:
        raise CliError("use either --logic or --frame, not both")
    names: list[str] = []
    if args.logic is not None:
        names = [args.logic]
    elif args.frame is not None:
        names = [s.strip() for s in args.frame.split(",") if s.strip()]
    try:
        frame = frame_class(names)
    except ValueError as e:
        raise CliError(str(e)) from None

    t0 = time.perf_counter()
    verdict = prove_valid(formula, frame)
    elapsed = 0.0 if args.stable else (time.perf_counter() - t0) * 1000

    witness = None
    if isinstance(verdict, Invalid):
        witness = _minimized(verdict.witness, [], formula, frame, args.max_worlds)
    if args.json:
        out = _json_text({
            "command": "prove",
            "formula": print_formula(formula),
            "frame": _frame_names(frame),
            "result": _verdict_dict(verdict, witness),
            "elapsed_ms": elapsed,
        })
    else:
        status = verdict.answer.capitalize()
        out = f"{print_formula(formula, unicode=args.unicode)}\n  {status} under {_frame_text(frame)}\n"
        if witness is not None:
            out += _witness_text(witness)
        if not args.stable:
            out += f"  ({elapsed:.1f} ms)\n"
    _emit(out)
    _maybe_write_dot(args, witness)
    return 0 if isinstance(verdict, Valid) else 1


_SUITES = {
    "corpus": corpus_suite,
    "axioms": axiom_correspondence_suite,
    "steps": derivation_suite,
    "jacquette": jacquette_suite,
}


def _suite_doc(report: SuiteReport, elapsed: float) -> dict:
    entries = []
    for entry in report.entries:
        checks = [
            {
                "name": c.name,
                "description": c.description,
                "frame": _frame_names(c.frame),
                "expected": c.expected,
                "actual": c.verdict.answer,
                "ok": c.ok,
                "countermodel": model_to_dict(c.witness.model) if c.witness else None,
                "witness_world": c.witness.world if c.witness else None,
            }
            for c in entry.checks
        ]
        entries.append({"name": entry.name, "ok": entry.ok, "checks": checks})
    return {
        "command": report.suite,
        "ok": report.ok,
        "entries": entries,
        "failed_entry": next((e.name for e in report.entries if not e.ok), None),
        "elapsed_ms": elapsed,
    }


def _suite_text(report: SuiteReport) -> str:
    lines = [f"suite {report.suite}:"]
    for entry in report.entries:
        for c in entry.checks:
            expected = c.expected if c.expected is not None else "(reported)"
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.name}: expected {expected}, got {c.verdict.answer}")
    n_ok = sum(e.ok for e in report.entries)
    lines.append(f"{n_ok}/{len(report.entries)} entries match")
    return "\n".join(lines) + "\n"


def cmd_suite(args) -> int:
    runner = _SUITES[args.suite_name]
    t0 = time.perf_counter()
    report: SuiteReport = runner()
    elapsed = 0.0 if args.stable else (time.perf_counter() - t0) * 1000

    if args.json:
        out = _json_text(_suite_doc(report, elapsed))
    else:
        out = _suite_text(report)
        if not args.stable:
            out += f"  ({elapsed:.1f} ms)\n"
    _emit(out)
    return 0 if report.ok else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--stable", action="store_true", help="zero timing fields for golden comparisons")
    p.add_argument("--unicode", action="store_true", help="render formulas with symbol glyphs")


def _world_budget(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 1 <= n <= MAX_WORLDS:
        raise argparse.ArgumentTypeError(f"expected a whole number from 1 to {MAX_WORLDS}, got {text!r}")
    return n


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dot", metavar="FILE", help="write the countermodel as a Graphviz digraph")
    p.add_argument("--max-worlds", type=_world_budget, default=3, metavar="N",
                   help=f"world budget for enumeration cross-checks, 1..{MAX_WORLDS} (default 3)")


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused; each
    subcommand's ``func`` looks up what it calls at call time."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="modaltab",
        description="Propositional modal logic: tableau prover, Kripke countermodels, argument analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="analyze a corpus argument or argument file")
    p_check.add_argument("argument", help="corpus name or path to a JSON argument file")
    p_check.add_argument("--no-frame", action="store_true",
                         help="re-check over the empty frame class")
    p_check.add_argument("--minimal-frames", action="store_true",
                         help="report minimal frame classes making the argument valid")
    _add_common(p_check)
    _add_model_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_cm = sub.add_parser("countermodel", help="like check --no-frame")
    p_cm.add_argument("argument")
    p_cm.add_argument("--minimal-frames", action="store_true")
    _add_common(p_cm)
    _add_model_flags(p_cm)
    p_cm.set_defaults(func=cmd_check, no_frame=True)

    p_prove = sub.add_parser("prove", help="decide validity of a formula")
    p_prove.add_argument("formula")
    p_prove.add_argument("--logic", help="logic alias: K, T, D, B, S4, S5")
    p_prove.add_argument("--frame", help="comma-separated frame conditions")
    _add_common(p_prove)
    _add_model_flags(p_prove)
    p_prove.set_defaults(func=cmd_prove)

    for name, help_text in [
        ("corpus", "validity, no-frame invalidity, and triviality of all eight arguments"),
        ("axioms", "standard axiom / frame correspondence checks"),
        ("steps", "step-wise derivation replay"),
        ("jacquette", "modal modus tollens checks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=cmd_suite, suite_name=name)

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the same result, output
    and exit.  The full parser hands every word after a subcommand's name
    to that subcommand's parser, so that parser reads them here directly.
    The full parser runs when ``argv[0]`` names no subcommand or words are
    left over, and then prints its own usage and error."""
    parser, subparsers = _parsers()
    subparser = subparsers.get(argv[0]) if argv else None
    if subparser is not None:
        args, extra = subparser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (CliError, ResourceLimit) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"error: internal error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
