"""Formula ASTs, concrete syntax, and syntactic transformations.

The connective set is that of propositional modal logic: negation,
conjunction, disjunction, material implication, biconditional, box,
diamond, and strict implication.  Strict implication is pure sugar and is
given meaning only through :func:`desugar`.

Concrete syntax is ASCII (``~ & | -> <-> [] <> |>``); the Unicode glyphs
``¬ ∧ ∨ ⊃ □ ◇`` are accepted on input but never emitted by
:func:`print_formula`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

__all__ = [
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Box",
    "Diamond",
    "StrictImplies",
    "Formula",
    "FormulaSyntaxError",
    "MAX_DEPTH",
    "parse",
    "print_formula",
    "desugar",
    "dual_expand",
    "nnf",
    "substitute",
    "subformulas",
    "atoms_of",
    "fresh_atom",
]


_set = object.__setattr__  # nodes are frozen: only constructors and the text cache write


@dataclass(frozen=True, slots=True)
class _Node:
    """Shared storage of the formula classes.

    ``_hash`` is computed once, when the node is built, from its class and
    its children's stored hashes, so hashing never walks the tree.
    ``_text`` holds the node's ASCII rendering once :func:`print_formula`
    has produced it.  Neither takes part in equality, which stays
    structural.
    """

    _hash: int = field(init=False, repr=False, compare=False)
    _text: str | None = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: a stored hash is only valid in
        # the process that computed it
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# Each constructor below is written out, not generated, because formulas
# are built on every transform and rule application.  ``__hash__`` is
# restated in each class so that the dataclass decorator keeps it.


@dataclass(frozen=True, slots=True, init=False)
class Atom(_Node):
    name: str

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash((Atom, name)))
        _set(self, "_text", None)

    __hash__ = _Node.__hash__


@dataclass(frozen=True, slots=True, init=False)
class _Unary(_Node):
    operand: "Formula"

    def __init__(self, operand: "Formula"):
        _set(self, "operand", operand)
        _set(self, "_hash", hash((type(self), operand._hash)))
        _set(self, "_text", None)

    __hash__ = _Node.__hash__


@dataclass(frozen=True, slots=True, init=False)
class _Binary(_Node):
    left: "Formula"
    right: "Formula"

    def __init__(self, left: "Formula", right: "Formula"):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((type(self), left._hash, right._hash)))
        _set(self, "_text", None)

    __hash__ = _Node.__hash__


# The connectives inherit fields, constructor, structural equality, repr
# and pattern-matching positions from ``_Unary`` / ``_Binary``; a node of
# one class never equals a node of another.


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class Diamond(_Unary):
    __slots__ = ()


class StrictImplies(_Binary):
    __slots__ = ()


Formula = Union[Atom, Not, And, Or, Implies, Iff, Box, Diamond, StrictImplies]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Unicode input aliases, rewritten to their ASCII spelling by the tokenizer.
_UNICODE_ALIASES = {
    "¬": "~",
    "∧": "&",
    "∨": "|",
    "⊃": "->",
    "□": "[]",
    "◇": "<>",
}


class FormulaSyntaxError(ValueError):
    """Malformed concrete syntax.

    Carries the byte offset of the offending position and the set of
    token spellings that would have been accepted there; ``reason``
    replaces the expected-token text when the input is well formed but
    too deep.
    """

    def __init__(self, text: str, pos: int, expected: tuple[str, ...], reason: str | None = None):
        self.offset = len(text[:pos].encode("utf-8"))
        self.expected = tuple(sorted(expected))
        found = text[pos : pos + 8] or "end of input"
        detail = reason or f"expected one of {', '.join(self.expected)}; found {found!r}"
        super().__init__(f"syntax error at byte {self.offset}: {detail}")


# Deepest formula ``parse`` accepts, and deepest parenthesis nesting.
# Depth counts one per connective, two per ``<->`` and ``|>`` (which
# desugaring and NNF expand by one extra level) and nothing for a negated
# atom, so every formula that desugar and NNF derive from a parsed one,
# and hence every formula a proof records, parses again.  Each nesting
# level costs the parser six stack frames and the transforms, printer,
# evaluator and compiler at most three, which keeps all of them well
# under the default recursion limit of 1000.
MAX_DEPTH = 100

_Token = tuple[str, str, int]  # (kind, spelling, char position)

_PUNCT = ["<->", "->", "|>", "[]", "<>", "~", "&", "|", "(", ")"]


def _tokenize(text: str) -> Iterator[_Token]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if c in _UNICODE_ALIASES:
            yield (_UNICODE_ALIASES[c], _UNICODE_ALIASES[c], i)
            i += 1
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                yield (punct, punct, i)
                i += len(punct)
                break
        else:
            m = _IDENT_RE.match(text, i)
            if m:
                yield ("ident", m.group(), i)
                i = m.end()
            else:
                raise FormulaSyntaxError(text, i, ("~", "[]", "<>", "(", "identifier"))
    yield ("eof", "", n)


_UNARY = {"~": Not, "[]": Box, "<>": Diamond}


class _Parser:
    """Recursive descent over the grammar:

    formula := iff ; iff := imp ("<->" imp)* ;
    imp := or (("->" | "|>") imp)? ;
    or := and ("|" and)* ; and := unary ("&" unary)* ;
    unary := ("~" | "[]" | "<>")* primary ;
    primary := IDENT | "(" formula ")"

    ``<->`` associates to the left, ``->``/``|>`` to the right.  Only
    parentheses recurse; every rule returns its formula with its depth.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaSyntaxError(self.text, tok[2], (kind,))
        self.pos += 1
        return tok

    def too_deep(self, tok: _Token) -> FormulaSyntaxError:
        return FormulaSyntaxError(
            self.text, tok[2], (), f"formula nested deeper than {MAX_DEPTH} levels"
        )

    def node(self, tok: _Token, f: Formula, depth: int) -> tuple[Formula, int]:
        """``f`` built at operator ``tok``, with its depth, if not too deep."""
        if depth > MAX_DEPTH:
            raise self.too_deep(tok)
        return f, depth

    def formula(self) -> tuple[Formula, int]:
        f, d = self.imp()
        while self.peek()[0] == "<->":
            tok = self.take("<->")
            g, e = self.imp()
            f, d = self.node(tok, Iff(f, g), 2 + max(d, e))
        return f, d

    def imp(self) -> tuple[Formula, int]:
        operands = [self.disj()]
        arrows = []
        while self.peek()[0] in ("->", "|>"):
            arrows.append(self.take(self.peek()[0]))
            operands.append(self.disj())
        f, d = operands.pop()
        while arrows:  # fold from the right
            tok = arrows.pop()
            g, e = operands.pop()
            if tok[0] == "->":
                f, d = self.node(tok, Implies(g, f), 1 + max(d, e))
            else:
                f, d = self.node(tok, StrictImplies(g, f), 2 + max(d, e))
        return f, d

    def disj(self) -> tuple[Formula, int]:
        f, d = self.conj()
        while self.peek()[0] == "|":
            tok = self.take("|")
            g, e = self.conj()
            f, d = self.node(tok, Or(f, g), 1 + max(d, e))
        return f, d

    def conj(self) -> tuple[Formula, int]:
        f, d = self.unary()
        while self.peek()[0] == "&":
            tok = self.take("&")
            g, e = self.unary()
            f, d = self.node(tok, And(f, g), 1 + max(d, e))
        return f, d

    def unary(self) -> tuple[Formula, int]:
        ops = []
        while self.peek()[0] in _UNARY:
            ops.append(self.take(self.peek()[0]))
        f, d = self.primary()
        for tok in reversed(ops):
            literal = tok[0] == "~" and isinstance(f, Atom)  # adds no depth
            f, d = self.node(tok, _UNARY[tok[0]](f), d if literal else d + 1)
        return f, d

    def primary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok[0] == "ident":
            self.take("ident")
            return Atom(tok[1]), 0
        if tok[0] == "(":
            self.take("(")
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                raise self.too_deep(tok)
            result = self.formula()
            self.take(")")
            self.nesting -= 1
            return result
        raise FormulaSyntaxError(self.text, tok[2], ("identifier", "(", "~", "[]", "<>"))


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; whitespace and comments ignored.

    Raises FormulaSyntaxError on malformed input and on input deeper than
    ``MAX_DEPTH``.
    """
    parser = _Parser(text)
    f, _ = parser.formula()
    parser.take("eof")
    return f


# Precedence levels, tightest binding last.
_PREC_IFF = 1
_PREC_IMP = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5
_PREC_ATOM = 6

_ASCII_OPS = {"not": "~", "and": "&", "or": "|", "imp": "->", "iff": "<->", "box": "[]", "dia": "<>", "strict": "|>"}
_UNICODE_OPS = {"not": "¬", "and": "∧", "or": "∨", "imp": "⊃", "iff": "<->", "box": "□", "dia": "◇", "strict": "|>"}


def _prec(f: Formula) -> int:
    match f:
        case Atom():
            return _PREC_ATOM
        case Not() | Box() | Diamond():
            return _PREC_UNARY
        case And():
            return _PREC_AND
        case Or():
            return _PREC_OR
        case Implies() | StrictImplies():
            return _PREC_IMP
        case Iff():
            return _PREC_IFF
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula, unicode: bool = False) -> str:
    """Render with minimal parentheses; ``parse(print_formula(f)) == f``.

    With ``unicode=True`` the five aliased connectives are emitted as
    glyphs (``<->`` and ``|>`` have no accepted glyph and stay ASCII).
    Each node keeps its ASCII text once rendered, so printing a formula
    again, or a formula that shares subtrees with one already printed,
    reuses it; Unicode output is never cached.
    """
    ops = _UNICODE_OPS if unicode else _ASCII_OPS

    def wrap(g: Formula, limit: int) -> str:
        if unicode:
            s = render(g)
        else:
            s = g._text
            if s is None:
                s = render(g)
                _set(g, "_text", s)
        return f"({s})" if _prec(g) < limit else s

    def render(g: Formula) -> str:
        match g:
            case Atom(name):
                return name
            case Not(x):
                return ops["not"] + wrap(x, _PREC_UNARY)
            case Box(x):
                return ops["box"] + wrap(x, _PREC_UNARY)
            case Diamond(x):
                return ops["dia"] + wrap(x, _PREC_UNARY)
            case And(a, b):
                # left associative: equal precedence needs parens on the right
                return f"{wrap(a, _PREC_AND)} {ops['and']} {wrap(b, _PREC_AND + 1)}"
            case Or(a, b):
                return f"{wrap(a, _PREC_OR)} {ops['or']} {wrap(b, _PREC_OR + 1)}"
            case Implies(a, b):
                # right associative: equal precedence needs parens on the left
                return f"{wrap(a, _PREC_IMP + 1)} {ops['imp']} {wrap(b, _PREC_IMP)}"
            case StrictImplies(a, b):
                return f"{wrap(a, _PREC_IMP + 1)} {ops['strict']} {wrap(b, _PREC_IMP)}"
            case Iff(a, b):
                return f"{wrap(a, _PREC_IFF)} {ops['iff']} {wrap(b, _PREC_IFF + 1)}"
        raise TypeError(f"not a formula: {g!r}")

    return wrap(f, 0)  # no precedence is below 0: never parenthesised


def desugar(f: Formula) -> Formula:
    """Replace every ``a |> b`` by ``~<>(a & ~b)``."""
    match f:
        case Atom():
            return f
        case Not(x):
            return Not(desugar(x))
        case Box(x):
            return Box(desugar(x))
        case Diamond(x):
            return Diamond(desugar(x))
        case And(a, b):
            return And(desugar(a), desugar(b))
        case Or(a, b):
            return Or(desugar(a), desugar(b))
        case Implies(a, b):
            return Implies(desugar(a), desugar(b))
        case Iff(a, b):
            return Iff(desugar(a), desugar(b))
        case StrictImplies(a, b):
            return Not(Diamond(And(desugar(a), Not(desugar(b)))))
    raise TypeError(f"not a formula: {f!r}")


def dual_expand(f: Formula) -> Formula:
    """Replace every ``<>a`` by ``~[]~a``.  Input must be sugar-free."""
    match f:
        case Atom():
            return f
        case Not(x):
            return Not(dual_expand(x))
        case Box(x):
            return Box(dual_expand(x))
        case Diamond(x):
            return Not(Box(Not(dual_expand(x))))
        case And(a, b):
            return And(dual_expand(a), dual_expand(b))
        case Or(a, b):
            return Or(dual_expand(a), dual_expand(b))
        case Implies(a, b):
            return Implies(dual_expand(a), dual_expand(b))
        case Iff(a, b):
            return Iff(dual_expand(a), dual_expand(b))
    raise TypeError(f"dual_expand requires sugar-free input: {f!r}")


def nnf(f: Formula) -> Formula:
    """Negation normal form: negations only on atoms, no ->/<-> nodes.

    Input must be sugar-free.  Modalities are pushed through by duality
    (``~[]a`` becomes ``<>~a`` and vice versa); ``<->`` is expanded as the
    conjunction of the two implications.
    """
    return _nnf(f, False)


def _nnf(f: Formula, negated: bool) -> Formula:
    """NNF of ``~f`` if ``negated``, else of ``f``; builds only the nodes
    of the result.  A run of negations is peeled in one frame."""
    while type(f) is Not:
        if not negated and type(f.operand) is Atom:
            return f  # a literal is its own NNF
        f, negated = f.operand, not negated
    match f:
        case Atom():
            return Not(f) if negated else f
        case And(a, b):
            if negated:
                return Or(_nnf(a, True), _nnf(b, True))
            return And(_nnf(a, False), _nnf(b, False))
        case Or(a, b):
            if negated:
                return And(_nnf(a, True), _nnf(b, True))
            return Or(_nnf(a, False), _nnf(b, False))
        case Implies(a, b):
            if negated:
                return And(_nnf(a, False), _nnf(b, True))
            return Or(_nnf(a, True), _nnf(b, False))
        case Iff(a, b):
            # (a -> b) & (b -> a), or its negation ~(a -> b) | ~(b -> a)
            if negated:
                return Or(And(_nnf(a, False), _nnf(b, True)), And(_nnf(b, False), _nnf(a, True)))
            return And(Or(_nnf(a, True), _nnf(b, False)), Or(_nnf(b, True), _nnf(a, False)))
        case Box(x):
            return Diamond(_nnf(x, True)) if negated else Box(_nnf(x, False))
        case Diamond(x):
            return Box(_nnf(x, True)) if negated else Diamond(_nnf(x, False))
    raise TypeError(f"nnf requires sugar-free input: {Not(f) if negated else f!r}")


def substitute(f: Formula, name: str, replacement: Formula) -> Formula:
    """Replace every occurrence of the named atom by ``replacement``."""
    match f:
        case Atom(a):
            return replacement if a == name else f
        case Not(x):
            return Not(substitute(x, name, replacement))
        case Box(x):
            return Box(substitute(x, name, replacement))
        case Diamond(x):
            return Diamond(substitute(x, name, replacement))
        case And(a, b):
            return And(substitute(a, name, replacement), substitute(b, name, replacement))
        case Or(a, b):
            return Or(substitute(a, name, replacement), substitute(b, name, replacement))
        case Implies(a, b):
            return Implies(substitute(a, name, replacement), substitute(b, name, replacement))
        case Iff(a, b):
            return Iff(substitute(a, name, replacement), substitute(b, name, replacement))
        case StrictImplies(a, b):
            return StrictImplies(substitute(a, name, replacement), substitute(b, name, replacement))
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> frozenset[Formula]:
    """All distinct subtrees of ``f``, including ``f`` itself."""
    acc: set[Formula] = set()

    def walk(g: Formula) -> None:
        if g in acc:
            return
        acc.add(g)
        match g:
            case Atom():
                pass
            case Not(x) | Box(x) | Diamond(x):
                walk(x)
            case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) | StrictImplies(a, b):
                walk(a)
                walk(b)

    walk(f)
    return frozenset(acc)


def atoms_of(f: Formula) -> frozenset[str]:
    """Names of all atoms occurring in ``f``."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def fresh_atom(avoid: set[str] | frozenset[str]) -> str:
    """Smallest name of the form p0, p1, ... not occurring in ``avoid``."""
    i = 0
    while f"p{i}" in avoid:
        i += 1
    return f"p{i}"
