import pytest

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
)
from modaltab.semantics import (
    FrameCondition,
    KripkeModel,
    evaluate,
    frame_satisfies,
    holds_globally,
    model_to_json,
)
from modaltab.syntax import atoms_of, desugar, parse

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

    @pytest.mark.parametrize("links", [1, 2, 18])
    def test_iff_chain_compiles_linearly(self, links):
        # one op per <->, so neither side is copied
        chain = parse("p" + " <-> p" * links)
        assert len(compile_formula(chain, {"p": 0})) == 2 * links + 1

    def test_mask_evaluation_matches_reference(self, small_models):
        battery = [parse(s) for s in (
            "[]p -> p", "<>p & ~q", "[](p <-> q)", "<>[]p | []~q",
            "(p <-> q) <-> ~p", "[](p <-> <>q) <-> (q <-> p)",
        )]
        atoms = ("p", "q")
        index = {a: i for i, a in enumerate(atoms)}
        for f in battery:
            code = compile_formula(f, index)
            for m in small_models[::5]:
                n = m.world_count
                succ = tuple(tuple(sorted(j for i, j in m.access if i == w)) for w in range(n))
                columns, every = _kernel_py.atom_columns(n, len(atoms))
                got = _kernel_py.evaluate(code, succ, columns, every)
                total = len(atoms) * n
                val = sum(
                    1 << (total - 1 - (a * n + w))
                    for a, name in enumerate(atoms)
                    for w in m.valuation.get(name, ())
                )
                assert [(x >> val) & 1 for x in got] == [evaluate(m, w, f) for w in range(n)]
