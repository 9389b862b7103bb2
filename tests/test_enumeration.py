import hashlib
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import formula_strategy
from modaltab import _kernel_py, enumeration
from modaltab.enumeration import (
    KERNEL,
    MAX_VALUATION_BITS,
    CountermodelWitness,
    EnumerationBudget,
    compile_formula,
    enumerate_models,
    find_countermodel,
    frame_mask,
    minimize_countermodel,
    relation_from_bits,
    valuation_from_bits,
)
from modaltab.semantics import (
    FrameCondition,
    KripkeModel,
    evaluate,
    frame_satisfies,
    holds_globally,
    model_to_json,
)
from modaltab.syntax import (
    And,
    Atom,
    Box,
    Diamond,
    Iff,
    Implies,
    Not,
    Or,
    StrictImplies,
    atoms_of,
    desugar,
    parse,
)

K = frozenset()
SYM = frozenset({FrameCondition.SYMMETRIC})
REFL = frozenset({FrameCondition.REFLEXIVE})

ER_PREMISES = [parse("g -> []g"), parse("<>g")]
ER_CONCLUSION = parse("g")


def count(budget, frame):
    return sum(1 for _ in enumerate_models(budget, frame))


class TestEnumerateModels:
    def test_one_world_unconstrained(self):
        # 2 relations x 2 valuations
        assert count(EnumerationBudget(1, ("g",)), K) == 4

    def test_one_world_reflexive(self):
        assert count(EnumerationBudget(1, ("g",)), REFL) == 2

    def test_two_worlds_total(self):
        # 4 + 2^4 * 2^2 models
        assert count(EnumerationBudget(2, ("g",)), K) == 68

    def test_counts_match_formula(self):
        # 2^(n^2) relations x 2^(n*a) valuations, summed over world counts
        for atoms in [(), ("p",), ("p", "q")]:
            expected = sum(2 ** (n * n) * 2 ** (n * len(atoms)) for n in (1, 2))
            assert count(EnumerationBudget(2, atoms), K) == expected

    def test_frame_filter(self):
        for m in enumerate_models(EnumerationBudget(2, ("g",)), SYM):
            assert frame_satisfies(m, FrameCondition.SYMMETRIC)

    def test_deterministic_order(self):
        first = [model_to_json(m) for m in enumerate_models(EnumerationBudget(2, ("g",)), K)]
        second = [model_to_json(m) for m in enumerate_models(EnumerationBudget(2, ("g",)), K)]
        assert first == second
        # order is by world count, then relation bits, then valuation bits
        assert first[0] == '{"access":[],"valuation":{},"worlds":1}'
        assert first[1] == '{"access":[],"valuation":{"g":[0]},"worlds":1}'
        assert first[2] == '{"access":[[0,0]],"valuation":{},"worlds":1}'


class TestBudget:
    def test_atoms_stored_as_tuple(self):
        budget = EnumerationBudget(2, ["p"])
        assert budget.atoms == ("p",)
        assert hash(budget) == hash(EnumerationBudget(2, ("p",)))

    def test_duplicate_atoms_refused(self):
        # a duplicate would double the valuations searched, and once atoms
        # are indexed through a dict, silently shrink the atom count
        with pytest.raises(ValueError, match="more than once"):
            EnumerationBudget(1, ("p", "p"))

    def test_bare_string_refused(self):
        # "pq" is one name, not the atoms p and q
        with pytest.raises(ValueError, match="not one string"):
            EnumerationBudget(2, "pq")


class TestFindCountermodel:
    def test_necessity_argument_over_k(self):
        w = find_countermodel(ER_PREMISES, ER_CONCLUSION, K, EnumerationBudget(2, ("g",)))
        assert w is not None
        assert model_to_json(w.model) == '{"access":[[0,1],[1,1]],"valuation":{"g":[1]},"worlds":2}'
        assert w.world == 0

    def test_witness_reverifies(self):
        w = find_countermodel(ER_PREMISES, ER_CONCLUSION, K, EnumerationBudget(3, ("g",)))
        for premise in ER_PREMISES:
            assert holds_globally(w.model, premise)
        assert not evaluate(w.model, w.world, ER_CONCLUSION)

    def test_none_under_symmetry(self):
        assert find_countermodel(ER_PREMISES, ER_CONCLUSION, SYM, EnumerationBudget(3, ("g",))) is None

    def test_tautology_has_no_countermodel(self):
        assert find_countermodel([], parse("g | ~g"), K, EnumerationBudget(3, ("g",))) is None

    def test_determinism(self):
        a = find_countermodel(ER_PREMISES, ER_CONCLUSION, K, EnumerationBudget(3, ("g",)))
        b = find_countermodel(ER_PREMISES, ER_CONCLUSION, K, EnumerationBudget(3, ("g",)))
        assert model_to_json(a.model) == model_to_json(b.model)
        assert a.world == b.world

    def test_sugar_handled(self):
        w = find_countermodel([parse("p |> q")], parse("q"), K, EnumerationBudget(2, ("p", "q")))
        assert w is not None

    def test_atoms_beyond_budget_list(self):
        # formula atoms not in the budget's list still get enumerated
        w = find_countermodel([], parse("extra"), K, EnumerationBudget(1, ()))
        assert w is not None


class TestMinimize:
    def test_shrinks_to_two_worlds(self):
        # a valid 3-world witness, padded with a reflexive g-world
        big = CountermodelWitness(
            KripkeModel(3, frozenset({(0, 1), (1, 1), (2, 2)}), {"g": frozenset({1, 2})}),
            0,
        )
        for premise in ER_PREMISES:
            assert holds_globally(big.model, premise)
        small = minimize_countermodel(big, ER_PREMISES, ER_CONCLUSION, K)
        assert small.model.world_count == 2
        assert model_to_json(small.model) == '{"access":[[0,1],[1,1]],"valuation":{"g":[1]},"worlds":2}'

    def test_idempotent_on_minimal(self):
        w = find_countermodel(ER_PREMISES, ER_CONCLUSION, K, EnumerationBudget(2, ("g",)))
        again = minimize_countermodel(w, ER_PREMISES, ER_CONCLUSION, K)
        assert model_to_json(again.model) == model_to_json(w.model)
        assert again.world == w.world

    def test_tollens_bad_witness(self):
        frame = frozenset(
            {FrameCondition.REFLEXIVE, FrameCondition.SYMMETRIC, FrameCondition.TRANSITIVE}
        )
        conclusion = parse("(p -> q) -> ([]~q -> []~p)")
        w = find_countermodel([], conclusion, frame, EnumerationBudget(3, ("p", "q")))
        small = minimize_countermodel(w, [], conclusion, frame)
        assert (
            model_to_json(small.model)
            == '{"access":[[0,0],[0,1],[1,0],[1,1]],"valuation":{"p":[1]},"worlds":2}'
        )
        assert small.world == 0

    def test_world_budget(self):
        big = CountermodelWitness(
            KripkeModel(3, frozenset({(0, 1), (1, 1), (2, 2)}), {"g": frozenset({1, 2})}), 0
        )
        # the 2-world witness lies beyond a 1-world budget
        assert minimize_countermodel(big, ER_PREMISES, ER_CONCLUSION, K, max_worlds=1) is big
        small = minimize_countermodel(big, ER_PREMISES, ER_CONCLUSION, K, max_worlds=2)
        assert small.model.world_count == 2

    def test_valuation_bits_bound(self):
        # 21 atoms: not even one world fits the kernel's bound
        atoms = [f"p{i}" for i in range(MAX_VALUATION_BITS + 1)]
        conclusion = parse(" & ".join(atoms))
        witness = CountermodelWitness(KripkeModel(1, frozenset()), 0)
        assert minimize_countermodel(witness, [], conclusion, K) is witness
        # one world fits but two do not, so no 2-world witness of
        # ~(<>(p0 & p1 & ...) & <>~p0) is sought and the 3-world one is kept
        few = atoms[: MAX_VALUATION_BITS // 2 + 1]
        conclusion = parse(f"~(<>({' & '.join(few)}) & <>~p0)")
        witness = CountermodelWitness(
            KripkeModel(3, frozenset({(0, 1), (0, 2)}), {a: frozenset({1}) for a in few}), 0
        )
        assert not evaluate(witness.model, 0, desugar(conclusion))
        assert minimize_countermodel(witness, [], conclusion, K) is witness


EUCLIDEAN = frozenset({FrameCondition.EUCLIDEAN})
SERIAL = frozenset({FrameCondition.SERIAL})
TRANSITIVE = frozenset({FrameCondition.TRANSITIVE})
RST = frozenset({FrameCondition.REFLEXIVE, FrameCondition.SYMMETRIC, FrameCondition.TRANSITIVE})

# find_first at 3 worlds over atoms (g, p, q): (premises, conclusion, frame,
# result).  The results were recorded from the per-valuation kernel this
# module replaced, so they pin the enumeration order, not just agreement.
GOLDEN_FIXED_ATOMS = [
    ([], "[]p -> p", K, (1, 0, 0, 0)),
    ([], "[]p -> p", REFL, None),
    (["g -> []g", "<>g"], "g", K, (2, 5, 16, 0)),
    (["g -> []g", "<>g"], "g", SYM, None),
    ([], "(p -> q) -> ([]~q -> []~p)", RST, (2, 15, 4, 0)),
    ([], "<>p -> []<>q", EUCLIDEAN, (1, 1, 2, 0)),
    ([], "[]p -> <>p", SERIAL, None),
    ([], "~(<>(p & q) & <>(p & ~q) & <>~p)", K, (3, 7, 25, 2)),
    (["[]p -> p"], "~(<>(p & q) & <>(p & ~q) & <>~p)", TRANSITIVE, (3, 7, 50, 2)),
    ([], "<>p -> [][]<>p", SERIAL, (2, 7, 8, 1)),
]

# find_first at 3 worlds over atoms (g, p, q) whose hit lies at relation
# bits >= 64.  A kernel that evaluates blocks of 64 such relations at once
# (2^15 bits over 2^9 valuations) must find the same first hit whether it
# lies in a later block (the first two groups: past the 64th relation the
# frame accepts) or at high relation bits within the first block (the
# third group, whose frames accept at most 64 relations).  Recorded from
# the per-relation kernel.
GOLDEN_PAST_FIRST_BLOCK = [
    (["~[]<>g"], "~[]g", K, (3, 82, 64, 0)),
    (["~(<>q -> <>p)", "~([]q & (g | p))"], "(((p & p) -> <>p) <-> []p) -> ~g", K, (3, 105, 145, 1)),
    (["g | p | q", "g -> ~p & ~q", "p -> ~q", "<>g & <>p & <>q"], "~g", K, (3, 511, 84, 2)),
    (["g | p | q", "g -> ~p & ~q", "p -> ~q", "<>g & <>p & <>q"], "[]~q", K, (3, 511, 84, 0)),
    (["g | p | q", "g -> ~p & ~q", "p -> ~q", "<>g & <>p & <>q"], "g", TRANSITIVE, (3, 511, 84, 0)),
    (["[]p", "<>~<>g", "<>(p <-> g) | q"], "q -> [](q <-> (g | p))", TRANSITIVE, (3, 211, 94, 0)),
    (["p -> p", "~(<>g -> []g)"],
     "(((g -> g) | (g & p)) -> ((q | q) -> <>q)) & <>((g & g) <-> []g)", TRANSITIVE, (3, 219, 68, 0)),
    (["<>[]~p", "<><>p"], "((g & ~p) | ~<>g) -> (~g | q)", SERIAL, (3, 221, 80, 2)),
    (["<>(q <-> g) -> ((g | g) <-> (g <-> q))", "<>g", "<>~g"], "[](~(g <-> q) | q)", SERIAL, (3, 222, 129, 2)),
    (["g | p | q", "g -> ~p & ~q", "p -> ~q", "<>g & <>p"], "~q", SERIAL, (3, 219, 84, 0)),
    (["<><>g"], "<>((q -> p) -> g) | q", REFL | SERIAL, (3, 285, 256, 1)),
    ([], "p | <>(p <-> <>p)", EUCLIDEAN | SERIAL, (3, 91, 16, 0)),
    (["q", "p | <><>g"], "((~p <-> []q) -> g) | [](~p | (g & g))", REFL | EUCLIDEAN, (3, 511, 87, 0)),
    (["((p -> g) & ~p) <-> <>[]g", "q"], "([](g & g) | p) | p", REFL | SYM, (3, 351, 231, 2)),
    (["(p | (q | p)) <-> ((g -> g) <-> []g)", "((g | p) & (g -> p)) -> ((g <-> q) -> (p -> q))"],
     "[][](g & p) | <>~p", REFL | SYM | SERIAL, (3, 351, 476, 1)),
]

# Full sweeps and an early exit at 3 worlds over each query's own atoms.
GOLDEN_OWN_ATOMS = [
    ([], "[](p -> q) -> ([]p -> []q)", K, None),
    (["p -> q"], "[]~q -> []~p", K, None),
    (["g -> []g", "<>g"], "g", SYM, None),
    (["g -> []g", "<>g"], "g", K, (2, 5, 1, 0)),
]


def _find_first(raw_premises, raw_conclusion, frame, atoms=None):
    premises = [desugar(parse(s)) for s in raw_premises]
    conclusion = desugar(parse(raw_conclusion))
    if atoms is None:
        atoms = sorted(set().union(*(atoms_of(f) for f in [*premises, conclusion])))
    index = {a: i for i, a in enumerate(atoms)}
    return _kernel_py.find_first(
        3,
        len(atoms),
        frame_mask(frame),
        tuple(compile_formula(f, index) for f in premises),
        compile_formula(conclusion, index),
    )


class TestKernels:
    def test_selected_kernel_reported(self):
        assert KERNEL == "pure-python"
        assert enumeration._backend is _kernel_py

    @pytest.mark.parametrize("premises,conclusion,frame,expected", GOLDEN_FIXED_ATOMS)
    def test_golden_fixed_atoms(self, premises, conclusion, frame, expected):
        assert _find_first(premises, conclusion, frame, ("g", "p", "q")) == expected

    @pytest.mark.parametrize("premises,conclusion,frame,expected", GOLDEN_PAST_FIRST_BLOCK)
    def test_golden_past_first_block(self, premises, conclusion, frame, expected):
        assert _find_first(premises, conclusion, frame, ("g", "p", "q")) == expected

    @pytest.mark.parametrize("premises,conclusion,frame,expected", GOLDEN_OWN_ATOMS)
    def test_golden_own_atoms(self, premises, conclusion, frame, expected):
        assert _find_first(premises, conclusion, frame) == expected

    def test_world_cap(self):
        with pytest.raises(ValueError):
            _kernel_py.find_first(_kernel_py.MAX_WORLDS + 1, 1, 0, (), (_kernel_py.OP_ATOM,))

    def test_valuation_bits_cap(self):
        cap = _kernel_py.MAX_VALUATION_BITS
        assert _kernel_py.find_first(1, cap, 0, (), (_kernel_py.OP_ATOM,)) == (1, 0, 0, 0)
        with pytest.raises(ValueError, match="atoms x worlds"):
            _kernel_py.find_first(2, cap // 2 + 1, 0, (), (_kernel_py.OP_ATOM,))

    @pytest.mark.parametrize("n,atom_count", [(1, 1), (2, 2), (3, 2), (1, 5), (4, 1)])
    def test_atom_columns_layout(self, n, atom_count):
        # bit v of atom a's column at world w is bit (a * n + w) of v,
        # counted from the most significant of the atom_count * n bits
        columns, every = _kernel_py.atom_columns(n, atom_count)
        total = atom_count * n
        assert every == (1 << (1 << total)) - 1
        for a in range(atom_count):
            for w in range(n):
                shift = total - 1 - (a * n + w)
                expected = sum(1 << v for v in range(1 << total) if (v >> shift) & 1)
                assert columns[a][w] == expected

    def test_deep_formula(self):
        # nesting depth is bounded by the parser, not by the kernel
        text = "p" + " & (p" * 100 + ")" * 100
        assert _find_first([], text, K) == (1, 0, 0, 0)

    def test_strict_implication_compiles_in_place(self):
        # a |> b is [](~a | b), with no desugaring first
        code = compile_formula(parse("p |> q"), {"p": 0, "q": 1})
        assert code == (_kernel_py.OP_ATOM, _kernel_py.OP_NOT, _kernel_py.OP_ATOM | 1 << 3,
                        _kernel_py.OP_OR, _kernel_py.OP_BOX)

    def test_new_atoms_indexed_in_sorted_order(self):
        # the atoms missing from the index follow it, sorted, whatever the
        # order the walk meets them in
        index = {"r": 0}
        code = compile_formula(parse("q & (p | r) & q"), index)
        assert index == {"r": 0, "p": 1, "q": 2}
        atom = _kernel_py.OP_ATOM
        assert code == (atom | 2 << 3, atom | 1 << 3, atom, _kernel_py.OP_OR, _kernel_py.OP_AND,
                        atom | 2 << 3, _kernel_py.OP_AND)

    @given(
        st.lists(formula_strategy(atoms=("p", "q", "r"), max_leaves=8), max_size=2),
        formula_strategy(atoms=("p", "q", "r"), max_leaves=12),
        st.integers(0, 31),
    )
    @settings(max_examples=200, deadline=None)
    def test_in_place_code_finds_desugared_hit(self, premises, conclusion, mask):
        # sugar compiled in place: the same atom order and the same first
        # hit as the code of the desugared formulas
        hits, indices = [], []
        for prepare in (lambda f: f, desugar):
            index = {}
            codes = [compile_formula(prepare(f), index) for f in [*premises, conclusion]]
            hits.append(_kernel_py.find_first(2, len(index), mask, tuple(codes[:-1]), codes[-1]))
            indices.append(index)
        assert hits[0] == hits[1]
        assert list(indices[0].items()) == list(indices[1].items())

    @pytest.mark.parametrize("links", [1, 2, 18])
    def test_iff_chain_compiles_linearly(self, links):
        # one op per <->, so neither side is copied
        chain = parse("p" + " <-> p" * links)
        assert len(compile_formula(chain, {"p": 0})) == 2 * links + 1

    def test_mask_evaluation_matches_reference(self, small_models, monkeypatch):
        # bit k * V + v of a world's int is the truth there in the block's
        # k-th relation under valuation bits v; blocks of all, 2 (or 8) and
        # 1 of the relations of each world count
        battery = [parse(s) for s in (
            "[]p -> p", "<>p & ~q", "[](p <-> q)", "<>[]p | []~q",
            "(p <-> q) <-> ~p", "[](p <-> <>q) <-> (q <-> p)",
        )]
        atoms = ("p", "q")
        index = {a: i for i, a in enumerate(atoms)}
        models = small_models[::5]
        for block_bits in (1 << 15, 32, 1):
            monkeypatch.setattr(_kernel_py, "BLOCK_BITS", block_bits)
            for f in battery:
                code = compile_formula(f, index)
                for n in (1, 2):
                    rels = sorted({_relation_bits(m) for m in models if m.world_count == n})
                    size = 1 << (len(atoms) * n)
                    truth = {}
                    for block in _kernel_py.blocks(n, len(atoms), rels):
                        got = _kernel_py.evaluate(code, block)
                        for k, rel in enumerate(block.relations):
                            truth[rel] = [x >> (k * size) for x in got]
                    for m in models:
                        if m.world_count != n:
                            continue
                        total = len(atoms) * n
                        val = sum(
                            1 << (total - 1 - (a * n + w))
                            for a, name in enumerate(atoms)
                            for w in m.valuation.get(name, ())
                        )
                        got = [(x >> val) & 1 for x in truth[_relation_bits(m)]]
                        assert got == [evaluate(m, w, f) for w in range(n)]


def _relation_bits(model):
    n = model.world_count
    return sum(1 << (n * n - 1 - (i * n + j)) for i, j in model.access)


def _successors(n, rel):
    return [[j for j in range(n) if (rel >> (n * n - 1 - (i * n + j))) & 1] for i in range(n)]


def _reference_evaluate(code, succ, columns, every):
    """Per-world truth ints of ``code`` for one relation: bit v is the truth
    under valuation bits v (the kernel's evaluator before blocks)."""
    stack = []
    for instr in code:
        op = instr & 7
        if op == _kernel_py.OP_ATOM:
            stack.append(columns[instr >> 3])
        elif op == _kernel_py.OP_NOT:
            stack[-1] = [every ^ x for x in stack[-1]]
        elif op == _kernel_py.OP_AND:
            y = stack.pop()
            stack[-1] = [x & z for x, z in zip(stack[-1], y)]
        elif op == _kernel_py.OP_OR:
            y = stack.pop()
            stack[-1] = [x | z for x, z in zip(stack[-1], y)]
        elif op == _kernel_py.OP_IFF:
            y = stack.pop()
            stack[-1] = [every ^ x ^ z for x, z in zip(stack[-1], y)]
        elif op == _kernel_py.OP_BOX:
            x = stack[-1]
            stack[-1] = [every & _all(x[j] for j in targets) for targets in succ]
        else:  # OP_DIA
            x = stack[-1]
            stack[-1] = [_any(x[j] for j in targets) for targets in succ]
    return stack[-1]


def _all(ints):
    out = -1
    for x in ints:
        out &= x
    return out


def _any(ints):
    out = 0
    for x in ints:
        out |= x
    return out


def _reference_find_first(max_worlds, atom_count, mask, premises, conclusion):
    """The kernel's search one relation at a time."""
    for n in range(1, max_worlds + 1):
        columns, every = _kernel_py.atom_columns(n, atom_count)
        for rel in _kernel_py._decode(n, mask):
            succ = _successors(n, rel)
            held = every
            for code in premises:
                for x in _reference_evaluate(code, succ, columns, every):
                    held &= x
            values = _reference_evaluate(conclusion, succ, columns, every)
            everywhere = every
            for x in values:
                everywhere &= x
            hit = held & ~everywhere
            if hit:
                val = (hit & -hit).bit_length() - 1
                world = next(w for w, x in enumerate(values) if not (x >> val) & 1)
                return (n, rel, val, world)
    return None


CONNECTIVES = (Not, Box, Diamond, And, Or, Implies, Iff)


def _random_formula(rng, depth, atom_count, connectives=CONNECTIVES):
    if depth == 0 or rng.random() < 0.2:
        return Atom(f"a{rng.randrange(atom_count)}")
    op = rng.choice(connectives)
    if op in (Not, Box, Diamond):
        return op(_random_formula(rng, depth - 1, atom_count, connectives))
    return op(
        _random_formula(rng, depth - 1, atom_count, connectives),
        _random_formula(rng, depth - 1, atom_count, connectives),
    )


def _description(n, atom_count, rel, val):
    """Each world is some world of the model (rel, val), with its valuation,
    and reaches exactly the valuations of that world's successors: true
    everywhere in the model when its worlds' valuations differ."""
    total = atom_count * n

    def literals(w):
        return [
            Atom(f"a{a}") if (val >> (total - 1 - (a * n + w))) & 1 else Not(Atom(f"a{a}"))
            for a in range(atom_count)
        ]

    def conj(parts):
        out = parts[0]
        for part in parts[1:]:
            out = And(out, part)
        return out

    cases = []
    for w in range(n):
        parts = literals(w)
        for j in range(n):
            here = conj(literals(j))
            edge = (rel >> (n * n - 1 - (w * n + j))) & 1
            parts.append(Diamond(here) if edge else Box(Not(here)))
        cases.append(conj(parts))
    out = cases[0]
    for case in cases[1:]:
        out = Or(out, case)
    return out


@cache
def _relations(n, mask):
    return tuple(_kernel_py._decode(n, mask))


def _random_queries(seed):
    """1,029 queries as find_first arguments, each with the per-relation
    search's result: 32 per frame mask over 1-3 atoms and 1-3 worlds, then
    five at 4 worlds.  Every other query is drawn around a random model of
    its largest world count: premises that hold everywhere in it, at times
    with its description, and a conclusion that fails somewhere, so it has
    a hit, often late; it is redrawn while the hit has fewer worlds."""
    rng = random.Random(seed)
    sizes = [(worlds, atoms) for worlds in (1, 2, 3) for atoms in (1, 2, 3)] * 4
    shapes = [(mask, *sizes[i % len(sizes)]) for mask in range(32) for i in range(32)]
    shapes += [(mask, 4, 1) for mask in (0, 5, 7, 16, 28)]
    for number, (mask, worlds, atom_count) in enumerate(shapes):
        index = {f"a{i}": i for i in range(atom_count)}

        def draw(depth):
            return compile_formula(_random_formula(rng, depth, atom_count), index)

        if number % 2:
            premises = tuple(draw(3) for _ in range(rng.randrange(3)))
            conclusion = draw(4)
            query = (worlds, atom_count, mask, premises, conclusion)
            yield query, _reference_find_first(*query)
            continue
        for _ in range(20):
            rel = rng.choice(_relations(worlds, mask))
            val = rng.randrange(1 << (atom_count * worlds))
            succ = _successors(worlds, rel)
            columns, every = _kernel_py.atom_columns(worlds, atom_count)

            def truth(code):
                return [(x >> val) & 1 for x in _reference_evaluate(code, succ, columns, every)]

            premises = tuple(p for p in (draw(3) for _ in range(6)) if all(truth(p)))
            described = compile_formula(_description(worlds, atom_count, rel, val), index)
            if rng.random() < 0.5 and all(truth(described)):
                premises += (described,)
            conclusion = draw(4)
            while all(truth(conclusion)):
                conclusion = draw(4)
            query = (worlds, atom_count, mask, premises, conclusion)
            expected = _reference_find_first(*query)
            if expected[0] == worlds:
                break
        yield query, expected


class TestBlockKernel:
    """The block kernel finds the hit the per-relation search finds."""

    @pytest.fixture
    def block_bits(self, monkeypatch):
        def use(bits):
            monkeypatch.setattr(_kernel_py, "BLOCK_BITS", bits)
            monkeypatch.setattr(_kernel_py, "_BLOCKS", {})

        return use

    def test_matches_per_relation_search(self, block_bits):
        queries, expected = zip(*_random_queries(18))
        assert sum(e is not None and e[0] == 3 for e in expected) >= 50
        for bits in (1 << 15, 64, 1):
            block_bits(bits)
            assert tuple(_kernel_py.find_first(*q) for q in queries) == expected

    def test_one_relation_over_the_block(self, block_bits):
        # at MAX_VALUATION_BITS, 2^20 valuations of one relation outgrow a block
        cap = MAX_VALUATION_BITS
        a = {f"a{i}": i for i in range(cap // 2)}
        conclusion = compile_formula(parse("a9 -> [](a9 | a0)"), a)
        premises = (compile_formula(parse("<>a9"), a),)
        query = (2, cap // 2, 0, premises, conclusion)
        expected = _reference_find_first(*query)
        assert expected[0] == 2
        for bits in (1 << 15, 1):
            block_bits(bits)
            assert _kernel_py.find_first(*query) == expected

    def test_four_worlds_keep_no_relations(self, block_bits):
        # false only at a world that sees a world with a successor and two
        # dead ends, p and ~p: four worlds.  4-world K relations times 16
        # valuations outgrow CACHE_BITS, so the search keeps none of them
        # and rebuilds them on the next search, with the same hit
        block_bits(_kernel_py.BLOCK_BITS)
        conclusion = compile_formula(
            parse("~(~p & <>(p & <>(p | ~p)) & <>(p & [](p & ~p)) & <>(~p & [](p & ~p)))"),
            {"p": 0},
        )
        query = (4, 1, 0, (), conclusion)
        expected = _reference_find_first(*query)
        assert expected[0] == 4
        for _ in range(2):
            assert _kernel_py.find_first(*query) == expected
            assert [key for key in _kernel_py._BLOCKS if key[0] == 4] == []
        assert (3, 1, 0) in _kernel_py._BLOCKS

    def test_largest_world_count_streams(self):
        blocks = _kernel_py._blocks_of(_kernel_py.MAX_WORLDS, 1, 0)
        assert not isinstance(blocks, tuple)
        first = next(iter(blocks))
        per = _kernel_py.BLOCK_BITS >> _kernel_py.MAX_WORLDS
        assert first.relations == tuple(range(per))


def _golden_witness_lines():
    """``find_countermodel``'s witnesses for 1,024 seeded queries over a0,
    a1 and a2 with ``->``, ``<->`` and ``|>``: each frame subset, with
    3-world budgets over the fixed atoms (a0, a1) and (a2, a0), over each
    query's own atoms sorted (as minimisation passes them) and over none
    (each formula's new atoms, formula by formula).  Every other query is
    drawn around a random model of 2 or 3 worlds: premises that hold
    everywhere in it, often with its description, and a conclusion that
    fails somewhere, so that many witnesses have more than one world.  A
    line holds the world count, access, valuation in the order of its
    atoms, and world."""
    rng = random.Random(2024)
    conditions = sorted(FrameCondition, key=lambda c: c.value)
    sugared = CONNECTIVES + (StrictImplies,)

    def draw(depth):
        return _random_formula(rng, depth, 3, sugared)

    lines = []
    for i in range(1024):
        frame = frozenset(c for b, c in enumerate(conditions) if (i >> b) & 1)
        premises = [draw(rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
        if i % 2:
            conclusion = draw(rng.randrange(1, 5))
        else:
            n = rng.choice((2, 3))
            rel = rng.choice(_relations(n, frame_mask(frame)))
            val = rng.randrange(1 << (3 * n))
            model = KripkeModel(n, relation_from_bits(n, rel), valuation_from_bits(n, ("a0", "a1", "a2"), val))
            premises = [p for p in premises if holds_globally(model, desugar(p))]
            described = _description(n, 3, rel, val)
            if holds_globally(model, described):
                premises.append(described)
            conclusion = draw(4)
            while holds_globally(model, desugar(conclusion)):
                conclusion = draw(4)
        own = tuple(sorted(set().union(*(atoms_of(f) for f in [*premises, conclusion]))))
        atoms = (("a0", "a1"), own, (), ("a2", "a0"))[(i >> 5) & 3]
        w = find_countermodel(premises, conclusion, frame, EnumerationBudget(3, atoms))
        if w is None:
            lines.append("None")
            continue
        m = w.model
        valuation = [(a, sorted(ws)) for a, ws in m.valuation.items()]
        lines.append(f"{m.world_count} {sorted(m.access)} {valuation} {w.world}")
    return lines


@pytest.mark.golden
class TestGoldenWitnesses:
    """The atom order decides the valuation bits and so the first witness;
    this digest pins it with the enumeration order, under budgets that
    list all of the formulas' atoms, some or none of them, or list them
    out of sorted order."""

    # 695 one-world, 168 two-world and 47 three-world witnesses, 114 None
    DIGEST = "a29487136ece6d1eefe97cb138d9b433a3284cc4e06248bdfacb6d8193ba98f4"

    def test_witnesses_unchanged(self):
        lines = _golden_witness_lines()
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST
