"""Formula ASTs, concrete syntax, and syntactic transformations.

The connective set is that of propositional modal logic: negation,
conjunction, disjunction, material implication, biconditional, box,
diamond, and strict implication.  Strict implication is pure sugar and is
given meaning only through :func:`desugar`.

Concrete syntax is ASCII (``~ & | -> <-> [] <> |>``); the Unicode glyphs
``¬ ∧ ∨ ⊃ □ ◇`` are accepted on input and emitted by :func:`print_formula`
only when asked for.  Each connective's spellings and precedence are
stated once, in ``_CONNECTIVES``.
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

# Each connective once: its ASCII spelling, its Unicode spelling, and its
# precedence (tightest binding highest).  ``<->`` and ``|>`` have no
# accepted glyph, so their Unicode spelling is their ASCII one.
_CONNECTIVES: dict[type, tuple[str, str, int]] = {
    Iff: ("<->", "<->", 1),
    Implies: ("->", "⊃", 2),
    StrictImplies: ("|>", "|>", 2),
    Or: ("|", "∨", 3),
    And: ("&", "∧", 4),
    Not: ("~", "¬", 5),
    Box: ("[]", "□", 5),
    Diamond: ("<>", "◇", 5),
}
_PREC_ATOM = 6
_PREC_IMP = _CONNECTIVES[Implies][2]  # the one level that associates to the right

# Unicode input aliases, rewritten to their ASCII spelling by the tokenizer.
_UNICODE_ALIASES = {u: a for a, u, _ in _CONNECTIVES.values() if u != a}


class FormulaSyntaxError(ValueError):
    """Malformed concrete syntax.

    Carries the byte offset of the offending position and the set of
    token spellings that would have been accepted there; ``reason``
    replaces the expected-token text when the input is well formed but
    too deep.
    """

    def __init__(self, text: str, pos: int, expected: tuple[str, ...], reason: str | None = None):
        # argv carries each byte that is not UTF-8 as one surrogate escape
        # (U+DC80..U+DCFF), which counts as that one byte; any other lone
        # surrogate (a JSON \ud800 escape) counts as its 3 surrogatepass bytes
        prefix = text[:pos]
        escapes = sum("\udc80" <= c <= "\udcff" for c in prefix)
        self.offset = len(prefix.encode("utf-8", "surrogatepass")) - 2 * escapes
        self.expected = tuple(sorted(expected))
        found = text[pos : pos + 8] or "end of input"
        detail = reason or f"expected one of {', '.join(self.expected)}; found {found!r}"
        super().__init__(f"syntax error at byte {self.offset}: {detail}")


# Deepest formula ``parse`` accepts, and deepest parenthesis nesting.
# Depth counts one per connective, two per ``<->`` and ``|>`` (which NNF
# expands by one extra level) and nothing for a negated atom, so the NNF
# of a desugared parsed formula and of its negation, and hence every
# formula a proof records, parses again.  The desugared formula itself
# need not: ``desugar`` makes each ``|>`` four levels deep
# (``~<>(a & ~b)``).  The parser keeps its own stack and recurses
# nowhere; each nesting level costs the transforms, printer, evaluator
# and compiler at most three stack frames, which keeps all of them well
# under the default recursion limit of 1000.
MAX_DEPTH = 100

_Token = tuple[str, str, int]  # (kind, spelling, char position)

_DOUBLE_DEPTH = (Iff, StrictImplies)  # the connectives NNF expands by one extra level

# Each spelling, ASCII or glyph, of a unary connective -> its class, and
# of a binary one -> (precedence, class, depth the connective adds).
_UNARY = {
    s: c for c, (a, u, _) in _CONNECTIVES.items() if issubclass(c, _Unary) for s in (a, u)
}
_BINARY = {
    s: (prec, c, 1 + (c in _DOUBLE_DEPTH))
    for c, (a, u, prec) in _CONNECTIVES.items() if issubclass(c, _Binary) for s in (a, u)
}
# the tokens that can start a formula
_STARTS = (*(s for s in _UNARY if s.isascii()), "(", "identifier")
_TOO_DEEP = f"formula nested deeper than {MAX_DEPTH} levels"

# longest first, so that ``<->`` is not read as ``<`` and ``|>`` not as ``|``
_PUNCT = sorted([a for a, _, _ in _CONNECTIVES.values()] + ["(", ")"], key=len, reverse=True)

# Skipped whitespace and ``#`` comments match outside the one group;
# every other match is a token, its spelling in group 1: a connective or
# parenthesis, a Unicode glyph, an identifier, or any other character,
# which is an error.  Every character starts some alternative, so the
# matches cover the text without gaps, and ``findall`` lists the tokens
# with an empty string for each skipped stretch.
_TOKEN_RE = re.compile(
    "[ \t\r\n]+|#[^\n]*\n?"
    f"|({'|'.join(map(re.escape, _PUNCT))}"
    f"|[{''.join(_UNICODE_ALIASES)}]"
    f"|{_IDENT_RE.pattern}"
    "|.)",
    re.DOTALL,
)
# the characters an identifier starts with, which no other token does
_IDENT_START = frozenset(c for c in map(chr, range(128)) if _IDENT_RE.match(c))
_END = " "  # stands for the end of input in ``parse``'s token list: never a token


def _tokenize(text: str) -> Iterator[_Token]:
    """Each token of ``text`` with its kind (glyphs under their ASCII
    spelling) and character position, then ``eof``; raises at the first
    character that starts no token."""
    for m in _TOKEN_RE.finditer(text):
        s = m.group(1)
        if not s:
            continue
        s = _UNICODE_ALIASES.get(s, s)
        if s in _PUNCT:
            yield (s, s, m.start())
        elif s[0] in _IDENT_START:
            yield ("ident", s, m.start())
        else:
            raise FormulaSyntaxError(text, m.start(), _STARTS)
    yield ("eof", "", len(text))


def _error(
    text: str, index: int, expected: tuple[str, ...], reason: str | None = None
) -> FormulaSyntaxError:
    """The error at token ``index`` of ``text`` (``eof`` counted), placed
    at that token's position, which only the error path computes.  A
    character that starts no token is reported instead, wherever it is:
    the tokenizer's error wins over any syntax error."""
    tokens = list(_tokenize(text))  # raises the tokenizer's error
    return FormulaSyntaxError(text, tokens[index][2], expected, reason)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; whitespace and comments ignored.

    Operator precedence over binary connectives, with unary connectives
    and parentheses below::

        formula := unary (BINARY unary)* ;
        unary := UNARY* primary ;
        primary := IDENT | "(" formula ")"

    The connectives and their precedences come from ``_CONNECTIVES``; the
    binary level ``_PREC_IMP`` associates to the right, every other to
    the left.  One loop walks the token list that ``_TOKEN_RE.findall``
    gives, and an open parenthesis saves its level's state on a stack
    instead of recursing.  Every operand carries its depth.

    Raises FormulaSyntaxError on malformed input and on input deeper than
    ``MAX_DEPTH``.
    """
    tokens = list(filter(None, _TOKEN_RE.findall(text)))
    end = len(tokens)
    tokens.append(_END)
    saved = []  # per open parenthesis: its level's operands, pending and prefixes
    operands = []  # (formula, depth) of each left operand still waiting at this level
    pending = []  # (precedence, class, depth step, token index) of each waiting connective
    i = 0
    while True:
        first = i  # the unary prefixes are tokens[first:i]
        while tokens[i] in _UNARY:
            i += 1
        s = tokens[i]
        if s == "(":
            if len(saved) == MAX_DEPTH:
                raise _error(text, i, (), _TOO_DEEP)
            saved.append((operands, pending, first, i))
            operands, pending = [], []
            i += 1
            continue
        if s[0] not in _IDENT_START:
            raise _error(text, i, _STARTS)
        f, d = Atom(s), 0
        last = i
        i += 1
        while True:
            # the prefixes tokens[first:last], innermost first; a negated
            # atom adds no depth
            for j in range(last - 1, first - 1, -1):
                cls = _UNARY[tokens[j]]
                if cls is not Not or type(f) is not Atom:
                    d += 1
                    if d > MAX_DEPTH:
                        raise _error(text, j, (), _TOO_DEEP)
                f = cls(f)
            binary = _BINARY.get(tokens[i])
            # a waiting connective that binds more tightly, or as tightly on a
            # left-associative level, has its right operand (f, d) complete;
            # at the end of a level every one has
            bound = 0 if binary is None else binary[0] + (binary[0] == _PREC_IMP)
            while pending and pending[-1][0] >= bound:
                _, cls, step, j = pending.pop()
                g, e = operands.pop()
                d = (e if e > d else d) + step
                if d > MAX_DEPTH:
                    raise _error(text, j, (), _TOO_DEEP)
                f = cls(g, f)
            if binary is not None:
                operands.append((f, d))
                pending.append((*binary, i))
                i += 1
                break
            if not saved:
                if i != end:
                    raise _error(text, i, ("eof",))
                return f
            if tokens[i] != ")":
                raise _error(text, i, (")",))
            i += 1
            operands, pending, first, last = saved.pop()


def _connective(f: Formula) -> tuple[str, str, int]:
    try:
        return _CONNECTIVES[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None


def _prec(f: Formula) -> int:
    return _PREC_ATOM if type(f) is Atom else _connective(f)[2]


def print_formula(f: Formula, unicode: bool = False) -> str:
    """Render with minimal parentheses; ``parse(print_formula(f)) == f``.

    With ``unicode=True`` the five aliased connectives are emitted as
    glyphs (``<->`` and ``|>`` have no accepted glyph and stay ASCII).
    Each node keeps its ASCII text once rendered, so printing a formula
    again, or a formula that shares subtrees with one already printed,
    reuses it; Unicode output is never cached.
    """
    if not unicode and (text := f._text) is not None:
        return text  # printed before: no renderer is built
    column = 1 if unicode else 0

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
        if type(g) is Atom:
            return g.name
        entry = _connective(g)
        op, prec = entry[column], entry[2]
        if isinstance(g, _Unary):
            return op + wrap(g.operand, prec)
        # an operand of equal precedence needs parentheses on the left of a
        # right-associative connective, on the right of a left-associative one
        right = prec == _PREC_IMP
        return f"{wrap(g.left, prec + right)} {op} {wrap(g.right, prec + (not right))}"

    return wrap(f, 0)  # no precedence is below 0: never parenthesised


def _rebuild(f: Formula, fn, *args) -> Formula:
    """``f`` with each child ``c`` replaced by ``fn(c, *args)``.

    An atom, and a node whose children all come back as they were (``is``),
    is returned itself, so a transform that changes nothing copies nothing.
    The extra arguments ride in ``*args`` rather than a closure, so each
    nesting level costs two stack frames: ``fn`` and this one.
    """
    if type(f) is Atom:
        return f
    if isinstance(f, _Unary):
        x = fn(f.operand, *args)
        return f if x is f.operand else type(f)(x)
    if isinstance(f, _Binary):
        a, b = fn(f.left, *args), fn(f.right, *args)
        return f if a is f.left and b is f.right else type(f)(a, b)
    raise TypeError(f"not a formula: {f!r}")


def desugar(f: Formula) -> Formula:
    """Replace every ``a |> b`` by ``~<>(a & ~b)``."""
    if type(f) is StrictImplies:
        return Not(Diamond(And(desugar(f.left), Not(desugar(f.right)))))
    return _rebuild(f, desugar)


def nnf(f: Formula) -> Formula:
    """Negation normal form: negations only on atoms, no ->/<-> nodes.

    Input must be sugar-free.  Modalities are pushed through by duality
    (``~[]a`` becomes ``<>~a`` and vice versa); ``<->`` is expanded as the
    conjunction of the two implications.  Within one call each node is
    rewritten once per polarity and the result shared, so the operands of
    a ``<->`` chain, which the expansion reads twice, cost linear time.
    """
    return _nnf(f, False, {})


def _nnf(f: Formula, negated: bool, memo: dict[tuple[int, bool], Formula]) -> Formula:
    """NNF of ``~f`` if ``negated``, else of ``f``, memoised in ``memo`` on
    the node's identity and the polarity (the caller's ``f`` keeps every
    node alive); builds only the nodes of the result.  A run of negations
    is peeled in one frame."""
    key = (id(f), negated)
    result = memo.get(key)
    if result is None:
        result = memo[key] = _nnf_node(f, negated, memo)
    return result


def _nnf_node(f: Formula, negated: bool, memo: dict) -> Formula:
    while type(f) is Not:
        if not negated and type(f.operand) is Atom:
            return f  # a literal is its own NNF
        f, negated = f.operand, not negated
    match f:
        case Atom():
            return Not(f) if negated else f
        case And(a, b):
            if negated:
                return Or(_nnf(a, True, memo), _nnf(b, True, memo))
            return And(_nnf(a, False, memo), _nnf(b, False, memo))
        case Or(a, b):
            if negated:
                return And(_nnf(a, True, memo), _nnf(b, True, memo))
            return Or(_nnf(a, False, memo), _nnf(b, False, memo))
        case Implies(a, b):
            if negated:
                return And(_nnf(a, False, memo), _nnf(b, True, memo))
            return Or(_nnf(a, True, memo), _nnf(b, False, memo))
        case Iff(a, b):
            # (a -> b) & (b -> a), or its negation ~(a -> b) | ~(b -> a)
            if negated:
                return Or(And(_nnf(a, False, memo), _nnf(b, True, memo)),
                          And(_nnf(b, False, memo), _nnf(a, True, memo)))
            return And(Or(_nnf(a, True, memo), _nnf(b, False, memo)),
                       Or(_nnf(b, True, memo), _nnf(a, False, memo)))
        case Box(x):
            return Diamond(_nnf(x, True, memo)) if negated else Box(_nnf(x, False, memo))
        case Diamond(x):
            return Box(_nnf(x, True, memo)) if negated else Diamond(_nnf(x, False, memo))
    raise TypeError(f"nnf requires sugar-free input: {Not(f) if negated else f!r}")


def substitute(f: Formula, name: str, replacement: Formula) -> Formula:
    """Replace every occurrence of the named atom by ``replacement``."""
    if type(f) is Atom:
        return replacement if f.name == name else f
    return _rebuild(f, substitute, name, replacement)


def subformulas(f: Formula) -> frozenset[Formula]:
    """All distinct subtrees of ``f``, including ``f`` itself."""
    acc: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in acc:
            continue
        acc.add(g)
        if isinstance(g, _Unary):
            stack.append(g.operand)
        elif isinstance(g, _Binary):
            stack += (g.left, g.right)
    return frozenset(acc)


def atoms_of(f: Formula) -> frozenset[str]:
    """Names of all atoms occurring in ``f``, in one walk that enters each
    node object once: no node is hashed, and a shared subtree is skipped
    by identity."""
    names: set[str] = set()
    seen: set[int] = set()  # ids of the nodes entered; ``f`` keeps them all alive
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        if type(g) is Atom:
            names.add(g.name)
        elif isinstance(g, _Unary):
            stack.append(g.operand)
        else:
            stack += (g.left, g.right)
    return frozenset(names)


def fresh_atom(avoid: set[str] | frozenset[str]) -> str:
    """Smallest name of the form p0, p1, ... not occurring in ``avoid``."""
    i = 0
    while f"p{i}" in avoid:
        i += 1
    return f"p{i}"
