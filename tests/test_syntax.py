import pytest
from hypothesis import given, settings

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
    dual_expand,
    fresh_atom,
    nnf,
    parse,
    print_formula,
    subformulas,
    substitute,
)
from modaltab.semantics import evaluate

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


# shape -> (text with k nesting steps, depth each step adds)
NESTED = {
    "parentheses": (lambda k: "(" * k + "p" + ")" * k, 1),
    "conjunction": (lambda k: "p" + " & (p" * k + ")" * k, 1),
    "conjunction-chain": (lambda k: "p" + " & p" * k, 1),
    "negation": (lambda k: "~" * (k + 1) + "p", 1),  # ~p is a literal
    "box": (lambda k: "[]" * k + "p", 1),
    "implication": (lambda k: "p" + " -> p" * k, 1),
    "strict": (lambda k: "p" + " |> p" * k, 2),
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


class TestDualExpand:
    def test_diamond(self):
        assert dual_expand(Diamond(g)) == Not(Box(Not(g)))

    def test_box_unchanged(self):
        assert dual_expand(Box(g)) == Box(g)

    def test_nested(self):
        assert dual_expand(Diamond(Diamond(p))) == Not(Box(Not(Not(Box(Not(p))))))

    def test_no_diamond_left(self):
        f = desugar(parse("<>(p |> <>q) & <>p"))
        assert not any(isinstance(s, Diamond) for s in subformulas(dual_expand(f)))


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


class TestSubstitute:
    def test_diamond_instance(self):
        assert substitute(Diamond(Atom("P")), "P", Not(g)) == Diamond(Not(g))

    def test_no_occurrence(self):
        assert substitute(Atom("x"), "y", parse("p & q")) == Atom("x")

    def test_single_occurrence(self):
        assert substitute(Box(Atom("P")), "P", g) == Box(g)

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


class TestFreshAtom:
    def test_empty(self):
        assert fresh_atom(set()) == "p0"

    def test_skip_used(self):
        assert fresh_atom({"p0"}) == "p1"

    def test_disjoint_scheme(self):
        assert fresh_atom({"g"}) == "p0"


class TestSemanticPreservation:
    """desugar, dual_expand, and nnf leave truth untouched at every world."""

    @given(f=formula_strategy(max_leaves=16))
    @settings(max_examples=60, deadline=None)
    def test_transforms_preserve_truth(self, small_models, f):
        plain = desugar(f)
        variants = [plain, dual_expand(plain), nnf(plain)]
        for model in small_models[:: 7]:  # thinned: exhaustive run lives below
            for w in range(model.world_count):
                expected = evaluate(model, w, plain)
                for variant in variants[1:]:
                    assert evaluate(model, w, variant) == expected

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
            variants = [dual_expand(plain), nnf(plain)]
            for model in small_models:
                for w in range(model.world_count):
                    expected = evaluate(model, w, plain)
                    for variant in variants:
                        assert evaluate(model, w, variant) == expected
