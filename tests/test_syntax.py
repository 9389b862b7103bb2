import os
import pickle
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import modaltab
from modaltab.syntax import (
    MAX_DEPTH,
    And,
    Atom,
    Box,
    Diamond,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    StrictImplies,
    atoms_of,
    desugar,
    fresh_atom,
    nnf,
    parse,
    print_formula,
    subformulas,
    substitute,
    _IDENT_RE,
    _PUNCT,
    _UNICODE_ALIASES,
    _tokenize,
)
from modaltab.semantics import KripkeModel, evaluate
from modaltab.tableau import decide

from conftest import formula_strategy

g = Atom("g")
p = Atom("p")
q = Atom("q")


class TestParse:
    def test_implication_with_box(self):
        assert parse("g -> []g") == Implies(g, Box(g))

    def test_diamond(self):
        assert parse("<>g") == Diamond(g)

    def test_strict_implication(self):
        assert parse("g |> []g") == StrictImplies(g, Box(g))

    def test_precedence(self):
        assert parse("p & q | p") == Or(And(p, q), p)
        assert parse("~p & q") == And(Not(p), q)
        assert parse("p -> q -> p") == Implies(p, Implies(q, p))
        assert parse("p <-> q <-> p") == Iff(Iff(p, q), p)
        assert parse("[]p -> p") == Implies(Box(p), p)
        assert parse("[]<>~p") == Box(Diamond(Not(p)))

    def test_parens_and_whitespace(self):
        assert parse("  ( p | q ) & p ") == And(Or(p, q), p)

    def test_comments(self):
        assert parse("p # everything after the hash\n & q") == And(p, q)

    def test_unicode_aliases(self):
        assert parse("¬p ∧ ◇q") == And(Not(p), Diamond(q))
        assert parse("□p ⊃ p") == Implies(Box(p), p)
        assert parse("p ∨ q") == Or(p, q)

    def test_error_offset_and_expected(self):
        with pytest.raises(FormulaSyntaxError) as e:
            parse("p & ")
        assert e.value.offset == 4
        assert "identifier" in e.value.expected

    def test_error_on_empty(self):
        with pytest.raises(FormulaSyntaxError):
            parse("")

    def test_error_unbalanced(self):
        with pytest.raises(FormulaSyntaxError) as e:
            parse("(p | q")
        assert ")" in e.value.expected

    def test_error_stray_token(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p q")


def reference_tokenize(text):
    """Reference for ``_tokenize``: a scan that tries each token class by
    hand at each character."""
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


def _tokens_or_error(tokenize, text):
    try:
        return list(tokenize(text))
    except FormulaSyntaxError as e:
        return e.offset, e.expected, str(e)


# fragments of formula text: every connective spelling and its prefixes,
# glyphs, comments, the four whitespace characters and others that are
# not (\x0b, \x0c, a no-break space), identifiers, non-ASCII letters,
# lone surrogates and stray characters
TEXT_PIECES = [
    "<->", "->", "|>", "|", "&", "~", "[]", "<>", "(", ")", "<", "-", ">", "[", "]", "<-",
    "¬", "∧", "∨", "⊃", "□", "◇", "#", "# note\n", "#\n", "\n", " ", "\t", "\r",
    "\x0b", "\x0c", "\xa0", "p", "q_1", "_x9", "Ab", "0", "9", "é", "ß", "π", "Ω", "pé",
    "!", "$", "\\", "\udc80", "\ud800", "\x00",
]


class TestTokenizer:
    """The regular-expression tokenizer gives the reference scan's tokens
    and positions, and raises its errors at the same byte offset with the
    same expected set."""

    @given(st.lists(st.sampled_from(TEXT_PIECES) | st.characters(), max_size=24).map("".join))
    @settings(max_examples=400)
    def test_same_tokens_and_errors_as_the_reference(self, text):
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)

    @pytest.mark.parametrize("text", [
        "", "p", "p\x0bq", "p\x0cq", "# only a comment", "p # no newline", "é", "p<->q|>r", "<-p",
        "□p ⊃ p", "p\udc80", "(p\t&\rq)\n",
    ])
    def test_edge_cases(self, text):
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)

    def test_whitespace_is_exactly_four_characters(self):
        for c in "\x0b\x0c\xa0\u2003":
            with pytest.raises(FormulaSyntaxError) as e:
                parse(f"p{c}")
            assert e.value.offset == 1


class _ReferenceParser:
    """Reference for ``parse``: recursive descent with one method per
    precedence level, each stating its connectives and associativity by
    hand:

    formula := iff ; iff := imp ("<->" imp)* ;
    imp := or (("->" | "|>") imp)? ;
    or := and ("|" and)* ; and := unary ("&" unary)* ;
    unary := ("~" | "[]" | "<>")* primary ;
    primary := IDENT | "(" formula ")"
    """

    def __init__(self, text):
        self.text = text
        self.tokens = list(reference_tokenize(text))
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaSyntaxError(self.text, tok[2], (kind,))
        self.pos += 1
        return tok

    def too_deep(self, tok):
        return FormulaSyntaxError(
            self.text, tok[2], (), f"formula nested deeper than {MAX_DEPTH} levels"
        )

    def node(self, tok, f, depth):
        if depth > MAX_DEPTH:
            raise self.too_deep(tok)
        return f, depth

    def formula(self):
        f, d = self.imp()
        while self.peek()[0] == "<->":
            tok = self.take("<->")
            g, e = self.imp()
            f, d = self.node(tok, Iff(f, g), 2 + max(d, e))
        return f, d

    def imp(self):
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

    def disj(self):
        f, d = self.conj()
        while self.peek()[0] == "|":
            tok = self.take("|")
            g, e = self.conj()
            f, d = self.node(tok, Or(f, g), 1 + max(d, e))
        return f, d

    def conj(self):
        f, d = self.unary()
        while self.peek()[0] == "&":
            tok = self.take("&")
            g, e = self.unary()
            f, d = self.node(tok, And(f, g), 1 + max(d, e))
        return f, d

    def unary(self):
        ops = []
        while self.peek()[0] in ("~", "[]", "<>"):
            ops.append(self.take(self.peek()[0]))
        f, d = self.primary()
        for tok in reversed(ops):
            literal = tok[0] == "~" and isinstance(f, Atom)  # adds no depth
            cls = {"~": Not, "[]": Box, "<>": Diamond}[tok[0]]
            f, d = self.node(tok, cls(f), d if literal else d + 1)
        return f, d

    def primary(self):
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


def reference_parse(text):
    parser = _ReferenceParser(text)
    f, _ = parser.formula()
    parser.take("eof")
    return f


def _formula_or_error(parse_fn, text):
    try:
        return parse_fn(text)
    except FormulaSyntaxError as e:
        return e.offset, e.expected, str(e)


PARSE_TOKENS = ["p", "q", "r", "~", "[]", "<>", "&", "|", "->", "|>", "<->", "(", ")"]


# shape -> (text with k nesting steps, depth each step adds)
NESTED = {
    "parentheses": (lambda k: "(" * k + "p" + ")" * k, 1),
    "conjunction": (lambda k: "p" + " & (p" * k + ")" * k, 1),
    "conjunction-chain": (lambda k: "p" + " & p" * k, 1),
    "negation": (lambda k: "~" * (k + 1) + "p", 1),  # ~p is a literal
    "box": (lambda k: "[]" * k + "p", 1),
    "implication": (lambda k: "p" + " -> p" * k, 1),
    "strict": (lambda k: "p" + " |> p" * k, 2),
    "strict-parenthesised": (lambda k: "(p |> " * k + "p" + ")" * k, 2),
    "biconditional": (lambda k: "p" + " <-> p" * k, 2),
}


class TestDepthBound:
    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_bound_parses_and_one_past_it_fails(self, shape):
        build, step = NESTED[shape]
        k = MAX_DEPTH // step
        parse(build(k))
        with pytest.raises(FormulaSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse(build(k + 1))

    @pytest.mark.parametrize("shape", sorted(set(NESTED) - {"biconditional"}))
    def test_proof_formulas_at_the_bound_parse_again(self, shape):
        # everything a proof can record is a subformula of the NNF of the
        # desugared query or of its negation
        build, step = NESTED[shape]
        f = desugar(parse(build(MAX_DEPTH // step)))
        for g in subformulas(nnf(f)) | subformulas(nnf(Not(f))):
            assert parse(print_formula(g)) == g



class TestAgainstReferenceParser:
    """The precedence loop returns the recursive-descent reference's
    formula, or raises at the same byte offset with the same expected set
    and message."""

    @given(st.lists(st.sampled_from(PARSE_TOKENS) | st.sampled_from(TEXT_PIECES),
                    min_size=1, max_size=13),
           st.lists(st.sampled_from(["", " "]), min_size=13, max_size=13))
    @settings(max_examples=1000)
    def test_random_token_strings(self, tokens, gaps):
        # glyphs, comments, stray and non-ASCII characters and surrogates
        # among the tokens: ``parse`` finds positions only when it raises
        text = "".join(t + gap for t, gap in zip(tokens, gaps))
        assert _formula_or_error(parse, text) == _formula_or_error(reference_parse, text)

    @pytest.mark.parametrize("text,offset", [
        ("p q !", 4),  # a stray token first, then a bad character
        ("(p & q é", 7),  # an unclosed parenthesis
        ("-> p $", 5),  # no operand
        ("~" * (MAX_DEPTH + 1) + "[]" * MAX_DEPTH + "p\x00", 3 * MAX_DEPTH + 2),  # too deep
        ("p\n# comment\n) ¬ \udc80", 17),
    ], ids=["stray-token", "unclosed", "no-operand", "too-deep", "after-comment"])
    def test_a_bad_character_wins_over_an_earlier_syntax_error(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as e:
            parse(text)
        assert e.value.offset == offset
        assert e.value.expected == ("(", "<>", "[]", "identifier", "~")
        assert _formula_or_error(parse, text) == _formula_or_error(reference_parse, text)

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_at_and_past_the_depth_bound(self, shape):
        build, step = NESTED[shape]
        for k in (MAX_DEPTH // step, MAX_DEPTH // step + 1):
            text = build(k)
            assert _formula_or_error(parse, text) == _formula_or_error(reference_parse, text)

    @pytest.mark.parametrize("text", [
        "p" + " -> p & p | p" * 98,
        "p" + " -> p & p | p" * 99,
        "p" + " & p <-> p |> p" * 30,
        "[]" * 60 + "(p -> q)" + " <-> ~p" * 25,
        "(" * 40 + "p" + " | q)" * 40 + " -> " + "<>" * 70 + "p",
        "(p |> " * 50 + "p" + ")" * 50 + " & q",
        "q & " + "(p |> " * 50 + "p" + ")" * 50 + " <-> q",
    ], ids=["implications-98", "implications-99", "strict-in-iff", "boxes-then-iffs",
            "disjunctions-then-diamonds", "strict-nest-and", "and-strict-nest-iff"])
    def test_deep_mixed_chains(self, text):
        assert _formula_or_error(parse, text) == _formula_or_error(reference_parse, text)

ONE_WORLD = KripkeModel(1, frozenset(), {"p": frozenset({0})})

# name -> (call, stack frames allowed per nesting level, sugar-free input only)
PER_LEVEL = {
    "desugar": (desugar, 2, False),
    "substitute": (lambda f: substitute(f, "p", Atom("q")), 2, False),
    "print_formula": (print_formula, 3, False),
    "print_formula-unicode": (lambda f: print_formula(f, unicode=True), 3, False),
    "subformulas": (subformulas, 0, False),  # walks an explicit stack
    "decide": (lambda f: decide([], f, frozenset()), 3, False),
    "nnf": (nnf, 3, True),
    "evaluate": (lambda f: evaluate(ONE_WORLD, 0, f), 3, True),
}


class TestFramesPerLevel:
    """``MAX_DEPTH`` promises at most three stack frames per nesting level
    to the parser, the transforms, the printer and the evaluator; the
    rebuilding transforms take two and ``subformulas`` none."""

    @pytest.mark.parametrize("shape,name", [
        (shape, name)
        for shape in sorted(NESTED)
        for name, (_, _, sugar_free) in PER_LEVEL.items()
        if not (sugar_free and shape.startswith("strict"))
    ])
    def test_at_the_bound(self, shape, name):
        build, step = NESTED[shape]
        f = parse(build(MAX_DEPTH // step))  # fresh nodes: no text cached yet
        call, frames, _ = PER_LEVEL[name]
        call_within(frames, call, f)

    def test_parse_at_the_nesting_bound(self):
        # the parser keeps its own stack: no frame per parenthesis
        build, _ = NESTED["parentheses"]
        call_within(0, parse, build(MAX_DEPTH))


class TestPrint:
    def test_box(self):
        assert print_formula(Box(g)) == "[]g"

    def test_implication(self):
        assert print_formula(Implies(g, Box(g))) == "g -> []g"

    def test_negated_diamond_conjunction(self):
        assert print_formula(Not(Diamond(And(p, Not(q))))) == "~<>(p & ~q)"

    def test_minimal_parens(self):
        assert print_formula(Or(And(p, q), p)) == "p & q | p"
        assert print_formula(And(Or(p, q), p)) == "(p | q) & p"
        assert print_formula(Implies(p, Implies(q, p))) == "p -> q -> p"
        assert print_formula(Implies(Implies(p, q), p)) == "(p -> q) -> p"
        assert print_formula(And(p, And(q, p))) == "p & (q & p)"

    def test_unicode_output(self):
        assert print_formula(Implies(Box(p), p), unicode=True) == "□p ⊃ p"
        assert print_formula(Not(Diamond(p)), unicode=True) == "¬◇p"

    @given(formula_strategy(atoms=("p", "q", "g"), max_leaves=64))
    @settings(max_examples=300)
    def test_round_trip(self, f):
        assert parse(print_formula(f)) == f

    @given(formula_strategy(max_leaves=32, sugar=False))
    @settings(max_examples=150)
    def test_unicode_round_trip(self, f):
        assert parse(print_formula(f, unicode=True)) == f


def rebuild(f):
    """A structurally equal copy of ``f`` that shares no node with it."""
    match f:
        case Atom(name):
            return Atom(name)
        case Not(x) | Box(x) | Diamond(x):
            return type(f)(rebuild(x))
    return type(f)(rebuild(f.left), rebuild(f.right))


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def call_within(frames, call, arg):
    """``call(arg)`` under a recursion limit of ``frames`` per nesting
    level up to ``MAX_DEPTH``, above the current stack."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + int(frames * MAX_DEPTH) + 50)
    try:
        call(arg)
    finally:
        sys.setrecursionlimit(limit)


ALL_CONNECTIVES = "~[]p -> <>(p & ~q) | q <-> (p |> []q)"


class TestNodeHash:
    def test_equal_formulas_built_separately(self):
        a = And(Box(Atom("p")), Not(Diamond(Atom("q"))))
        b = And(Box(Atom("p")), Not(Diamond(Atom("q"))))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        c, d = parse(ALL_CONNECTIVES), parse(ALL_CONNECTIVES)
        assert c == d and hash(c) == hash(d)

    @pytest.mark.parametrize("a,b", [
        (And(p, q), Or(p, q)),
        (Box(p), Diamond(p)),
        (Implies(p, q), StrictImplies(p, q)),
        (Not(p), Box(p)),
        (And(p, q), And(q, p)),
    ])
    def test_different_formulas(self, a, b):
        assert a != b
        assert hash(a) != hash(b)
        assert len({a, b}) == 2

    def test_hash_at_the_depth_bound_does_not_recurse(self):
        built = []
        for _ in range(2):
            f = Atom("p")
            for i in range(MAX_DEPTH):
                f = (Box(f), And(q, f))[i % 2]
            built.append(f)
        a, b = built
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 10)
        try:
            assert hash(a) == hash(b)
            assert a in {a}
        finally:
            sys.setrecursionlimit(limit)

    def test_unpickled_in_another_process(self):
        # string hashes differ between processes, so the stored hash
        # must be recomputed when a pickled formula is loaded
        code = (
            "import pickle, sys; from modaltab.syntax import parse; "
            f"sys.stdout.buffer.write(pickle.dumps(parse({ALL_CONNECTIVES!r})))"
        )
        env = {**os.environ, "PYTHONHASHSEED": "1",
               "PYTHONPATH": os.path.dirname(os.path.dirname(modaltab.__file__))}
        data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              check=True, timeout=60).stdout
        f = pickle.loads(data)
        assert f == parse(ALL_CONNECTIVES) and f in {parse(ALL_CONNECTIVES)}
        assert f._strict and not f.left._strict
        assert print_formula(f) == print_formula(parse(ALL_CONNECTIVES))


class TestEquality:
    def test_a_non_formula_is_not_implemented(self):
        assert p.__eq__("p") is NotImplemented and Box(p).__eq__(3) is NotImplemented
        assert p != "p" and Box(p) != 3

    def test_atoms_compare_by_name(self):
        assert Atom("p") == Atom("p") and Atom("p") != Atom("q")
        assert Not(p) != p and Box(p) != Diamond(p)

    @given(formula_strategy(atoms=("p", "q", "g"), max_leaves=32),
           formula_strategy(atoms=("p", "q", "g"), max_leaves=32))
    @settings(max_examples=150)
    def test_agrees_with_printed_text(self, a, b):
        # printing is injective on formulas
        assert rebuild(a) == a and not rebuild(a) != a
        assert (rebuild(a) == rebuild(b)) == (print_formula(a) == print_formula(b))

    def test_shared_subtrees_are_compared_once(self, monkeypatch):
        # the NNF of a 41-link p <-> ... <-> p chain, built twice apart: as
        # trees the two double with each link, but each shares its subtrees
        chain = "p" + " <-> p" * 41
        a, b = nnf(Not(parse(chain))), nnf(Not(parse(chain)))
        assert a is not b
        calls = 0

        def counting(real):
            def eq(self, other):
                nonlocal calls
                calls += 1
                assert calls <= 1000, "equality walks the formulas as trees"
                return real(self, other)
            return eq

        for cls in (Atom, Not, And, Or, Box, Diamond):  # the classes an NNF holds
            monkeypatch.setattr(cls, "__eq__", counting(cls.__eq__))
        assert a == b
        assert a != nnf(parse(chain)) and a != nnf(Not(parse("q" + " <-> p" * 41)))


class TestTextCache:
    def test_ascii_then_unicode_on_one_node(self):
        f = parse(ALL_CONNECTIVES)
        ascii_text = print_formula(f)
        assert ascii_text == print_formula(parse(ALL_CONNECTIVES))
        assert print_formula(f, unicode=True) == print_formula(parse(ALL_CONNECTIVES), unicode=True)
        assert print_formula(f) == ascii_text

    def test_unicode_then_ascii_on_one_node(self):
        f = parse(ALL_CONNECTIVES)
        unicode_text = print_formula(f, unicode=True)
        assert unicode_text == "¬□p ⊃ ◇(p ∧ ¬q) ∨ q <-> p |> □q"
        assert print_formula(f) == print_formula(parse(ALL_CONNECTIVES))
        assert print_formula(f, unicode=True) == unicode_text

    def test_parent_adds_parentheses_around_cached_text(self):
        disjunction = Or(p, q)
        assert print_formula(disjunction) == "p | q"
        assert print_formula(And(disjunction, p)) == "(p | q) & p"
        assert print_formula(Box(disjunction)) == "[](p | q)"

    def test_unicode_ignores_the_ascii_text(self):
        f = Box(And(p, q))
        print_formula(f, unicode=True)
        assert f._text is None  # unicode output never writes the cache
        object.__setattr__(f, "_text", "bogus")
        assert print_formula(f, unicode=True) == "□(p ∧ q)"  # nor reads it

    @given(formula_strategy(atoms=("p", "q", "g"), max_leaves=32))
    @settings(max_examples=150)
    def test_a_printed_node_returns_its_cached_text(self, f):
        node = rebuild(f)
        text = print_formula(node)
        assert node._text is text
        assert print_formula(node) is text  # read back, not rendered again
        assert print_formula(rebuild(f)) == text
        assert print_formula(node, unicode=True) == print_formula(rebuild(f), unicode=True)

    @given(formula_strategy(atoms=("p", "q", "g"), max_leaves=32))
    @settings(max_examples=150)
    def test_both_orders_match_fresh_nodes(self, f):
        ascii_text, unicode_text = print_formula(rebuild(f)), print_formula(rebuild(f), unicode=True)
        first, second = rebuild(f), rebuild(f)
        assert (print_formula(first), print_formula(first, unicode=True)) == (ascii_text, unicode_text)
        assert (print_formula(second, unicode=True), print_formula(second)) == (unicode_text, ascii_text)
        assert print_formula(first) == print_formula(second) == ascii_text


def holds_strict(f):
    """Whether ``f`` holds a ``|>``, by a walk over its tree."""
    match f:
        case Atom():
            return False
        case StrictImplies():
            return True
        case Not(x) | Box(x) | Diamond(x):
            return holds_strict(x)
    return holds_strict(f.left) or holds_strict(f.right)


class TestDesugar:
    def test_strict_definition(self):
        assert desugar(StrictImplies(p, q)) == Not(Diamond(And(p, Not(q))))

    def test_identity_on_sugar_free(self):
        assert desugar(g) == g

    def test_homomorphic(self):
        assert desugar(Box(StrictImplies(p, q))) == Box(Not(Diamond(And(p, Not(q)))))

    def test_output_sugar_free(self):
        f = StrictImplies(StrictImplies(p, q), Box(StrictImplies(q, p)))
        assert not any(isinstance(s, StrictImplies) for s in subformulas(desugar(f)))

    @given(formula_strategy(atoms=("p", "q", "g"), max_leaves=32))
    @settings(max_examples=150)
    def test_sugar_free_input_is_returned_itself(self, f):
        plain = desugar(f)
        assert desugar(plain) is plain

    @pytest.mark.parametrize("text,strict", [
        ("p -> q", False),
        ("~[](p <-> q)", False),
        ("~(q |> p)", True),
        ("<>(p & (q |> r))", True),
    ])
    def test_returned_itself_exactly_when_it_holds_no_strict_implication(self, text, strict):
        f = parse(text)
        assert f._strict is strict
        assert (desugar(f) is f) is not strict

    @given(formula_strategy(atoms=("p", "q", "g"), max_leaves=32, sugar=True))
    @settings(max_examples=150)
    def test_strict_flag_matches_a_walk(self, f):
        assert f._strict is holds_strict(f)
        assert desugar(f)._strict is False

    @pytest.mark.parametrize("text", ["p |> q", "[]p & ~q", "<>(p & (q |> r)) | r"])
    def test_strict_flag_survives_pickle(self, text):
        f = pickle.loads(pickle.dumps(parse(text)))
        nodes = (f, f.left, f.right)
        assert [g._strict for g in nodes] == [holds_strict(g) for g in nodes]

    def test_unchanged_subtrees_are_kept(self):
        kept = parse("[]p & ~q")
        f = desugar(Or(kept, Box(StrictImplies(p, q))))
        assert f.left is kept
        assert f.right == Box(Not(Diamond(And(p, Not(q)))))


class TestNnf:
    def test_modal_duality(self):
        assert nnf(Not(Box(g))) == Diamond(Not(g))

    def test_de_morgan(self):
        assert nnf(Not(And(p, q))) == Or(Not(p), Not(q))

    def test_implication_elimination(self):
        assert nnf(Implies(g, Box(g))) == Or(Not(g), Box(g))

    def test_negations_only_on_atoms(self):
        f = nnf(desugar(parse("~([]p <-> <>(p |> q)) -> ~~q")))
        for s in subformulas(f):
            if isinstance(s, Not):
                assert isinstance(s.operand, Atom)
            assert not isinstance(s, (Implies, Iff))

    @given(formula_strategy(atoms=("p", "q"), max_leaves=24, sugar=False))
    @settings(max_examples=300)
    def test_same_tree_as_rewriting(self, f):
        for h in (f, Not(f), Not(Not(f))):
            assert nnf(h) == nnf_by_rewriting(h)


def nnf_by_rewriting(f):
    """Reference NNF: rewrite one connective at a time, building each
    intermediate ``~a`` and ``a -> b`` node and recursing into it."""
    match f:
        case Atom():
            return f
        case And(a, b):
            return And(nnf_by_rewriting(a), nnf_by_rewriting(b))
        case Or(a, b):
            return Or(nnf_by_rewriting(a), nnf_by_rewriting(b))
        case Implies(a, b):
            return Or(nnf_by_rewriting(Not(a)), nnf_by_rewriting(b))
        case Iff(a, b):
            return And(nnf_by_rewriting(Implies(a, b)), nnf_by_rewriting(Implies(b, a)))
        case Box(x):
            return Box(nnf_by_rewriting(x))
        case Diamond(x):
            return Diamond(nnf_by_rewriting(x))
    match f.operand:
        case Atom():
            return f
        case Not(x):
            return nnf_by_rewriting(x)
        case And(a, b):
            return Or(nnf_by_rewriting(Not(a)), nnf_by_rewriting(Not(b)))
        case Or(a, b):
            return And(nnf_by_rewriting(Not(a)), nnf_by_rewriting(Not(b)))
        case Implies(a, b):
            return And(nnf_by_rewriting(a), nnf_by_rewriting(Not(b)))
        case Iff(a, b):
            return nnf_by_rewriting(Not(And(Implies(a, b), Implies(b, a))))
        case Box(x):
            return Diamond(nnf_by_rewriting(Not(x)))
        case Diamond(x):
            return Box(nnf_by_rewriting(Not(x)))


class TestSubstitute:
    def test_diamond_instance(self):
        assert substitute(Diamond(Atom("P")), "P", Not(g)) == Diamond(Not(g))

    def test_no_occurrence(self):
        assert substitute(Atom("x"), "y", parse("p & q")) == Atom("x")

    def test_single_occurrence(self):
        assert substitute(Box(Atom("P")), "P", g) == Box(g)

    @given(formula_strategy(atoms=("p", "q", "g"), max_leaves=32))
    @settings(max_examples=150)
    def test_absent_atom_returns_the_input_itself(self, f):
        assert substitute(f, "z", parse("p & q")) is f

    def test_unchanged_subtrees_are_kept(self):
        kept = parse("[]p -> q")
        f = substitute(And(kept, Diamond(g)), "g", p)
        assert f.left is kept and f.right == Diamond(p)

    @given(formula_strategy(atoms=("p", "q", "g"), max_leaves=32))
    @settings(max_examples=150)
    def test_identity_substitution(self, f):
        for name in atoms_of(f):
            assert substitute(f, name, Atom(name)) == f


class TestSubformulas:
    def test_box(self):
        assert subformulas(Box(g)) == frozenset({Box(g), g})

    def test_leaf(self):
        assert subformulas(g) == frozenset({g})

    def test_shared_leaf_dedup(self):
        f = Implies(g, Box(g))
        assert subformulas(f) == frozenset({f, g, Box(g)})

    @given(formula_strategy(max_leaves=32))
    @settings(max_examples=150)
    def test_count_at_most_node_count(self, f):
        def node_count(x):
            match x:
                case Atom():
                    return 1
                case Not(a) | Box(a) | Diamond(a):
                    return 1 + node_count(a)
                case _:
                    return 1 + node_count(x.left) + node_count(x.right)

        assert len(subformulas(f)) <= node_count(f)


class TestAtomsOf:
    def test_names(self):
        assert atoms_of(parse("[](p -> q) & <>~p")) == frozenset({"p", "q"})

    def test_shared_subtree_walked_once(self):
        shared = Box(p)
        for _ in range(200):  # 2**200 paths, 201 distinct nodes
            shared = And(shared, shared)
        assert atoms_of(shared) == frozenset({"p"})

    @given(formula_strategy(atoms=("p", "q", "g", "r_1"), max_leaves=32))
    @settings(max_examples=200)
    def test_agrees_with_subformulas(self, f):
        assert atoms_of(f) == frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


class TestFreshAtom:
    def test_empty(self):
        assert fresh_atom(set()) == "p0"

    def test_skip_used(self):
        assert fresh_atom({"p0"}) == "p1"

    def test_disjoint_scheme(self):
        assert fresh_atom({"g"}) == "p0"


class TestSemanticPreservation:
    """desugar and nnf leave truth untouched at every world."""

    @given(f=formula_strategy(max_leaves=16))
    @settings(max_examples=60, deadline=None)
    def test_transforms_preserve_truth(self, small_models, f):
        plain = desugar(f)
        variant = nnf(plain)
        for model in small_models[:: 7]:  # thinned: exhaustive run lives below
            for w in range(model.world_count):
                assert evaluate(model, w, variant) == evaluate(model, w, plain)

    def test_exhaustive_on_fixed_battery(self, small_models):
        battery = [
            parse("p |> q"),
            parse("~(p |> (q |> p))"),
            parse("<>p <-> ~[]~p"),
            parse("~([]p & <>(q | ~p))"),
            parse("(p -> q) |> ([]~q -> []~p)"),
        ]
        for f in battery:
            plain = desugar(f)
            variant = nnf(plain)
            for model in small_models:
                for w in range(model.world_count):
                    assert evaluate(model, w, variant) == evaluate(model, w, plain)
