import json
import pickle
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from modaltab.semantics import (
    FrameCondition,
    InvalidWorld,
    KripkeModel,
    SerialNotClosable,
    evaluate,
    frame_closure,
    frame_satisfies,
    holds_globally,
    model_to_dict,
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
    parse,
)

from conftest import formula_strategy

g = Atom("g")
p = Atom("p")

ONE_WORLD_EMPTY = KripkeModel(1, frozenset(), {"g": frozenset({0})})
# two worlds, w0 -> w1 -> w1, g true only at w1
TWO_WORLD = KripkeModel(1 + 1, frozenset({(0, 1), (1, 1)}), {"g": frozenset({1})})


class TestEvaluate:
    def test_vacuous_box(self):
        assert evaluate(ONE_WORLD_EMPTY, 0, Box(g)) is True

    def test_empty_diamond(self):
        assert evaluate(ONE_WORLD_EMPTY, 0, Diamond(g)) is False

    def test_two_world_model(self):
        assert evaluate(TWO_WORLD, 0, Diamond(g)) is True
        assert evaluate(TWO_WORLD, 0, g) is False
        # recursive oracle spot checks for the same model
        assert evaluate(TWO_WORLD, 1, g) is True
        assert evaluate(TWO_WORLD, 0, Box(g)) is True
        assert evaluate(TWO_WORLD, 1, Box(g)) is True

    def test_absent_atom_is_false(self):
        assert evaluate(ONE_WORLD_EMPTY, 0, Atom("missing")) is False

    def test_invalid_world(self):
        with pytest.raises(InvalidWorld):
            evaluate(ONE_WORLD_EMPTY, 1, g)

    def test_sugar_rejected(self):
        with pytest.raises(TypeError):
            evaluate(ONE_WORLD_EMPTY, 0, parse("p |> q"))

    def test_sugar_rejected_in_a_decided_operand(self):
        # the left operands settle each formula at world 0, yet the walk
        # reaches the strict implication on the right
        strict = StrictImplies(p, g)
        for f in (And(p, strict), Or(g, strict), Implies(p, strict)):
            with pytest.raises(TypeError):
                evaluate(ONE_WORLD_EMPTY, 0, f)
            with pytest.raises(TypeError):
                holds_globally(ONE_WORLD_EMPTY, f)

    def test_non_formula_rejected(self):
        with pytest.raises(TypeError):
            evaluate(ONE_WORLD_EMPTY, 0, "g")
        with pytest.raises(TypeError):
            holds_globally(ONE_WORLD_EMPTY, 42)


class TestHoldsGlobally:
    def test_tautology(self):
        assert holds_globally(TWO_WORLD, Or(g, Not(g))) is True

    def test_atom_failing_somewhere(self):
        assert holds_globally(TWO_WORLD, g) is False

    def test_necessity_premise(self):
        assert holds_globally(TWO_WORLD, Implies(g, Box(g))) is True


class TestFrameSatisfies:
    def test_asymmetric_euclidean(self):
        m = KripkeModel(2, frozenset({(0, 1), (1, 1)}))
        assert frame_satisfies(m, FrameCondition.EUCLIDEAN) is True
        assert frame_satisfies(m, FrameCondition.SYMMETRIC) is False

    def test_full_relation_is_everything(self):
        m = KripkeModel(2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
        for cond in FrameCondition:
            assert frame_satisfies(m, cond) is True

    def test_empty_relation(self):
        m = KripkeModel(1, frozenset())
        assert frame_satisfies(m, FrameCondition.SERIAL) is False
        assert frame_satisfies(m, FrameCondition.SYMMETRIC) is True
        assert frame_satisfies(m, FrameCondition.TRANSITIVE) is True
        assert frame_satisfies(m, FrameCondition.EUCLIDEAN) is True

    def test_not_a_condition(self):
        with pytest.raises(TypeError):
            frame_satisfies(TWO_WORLD, "reflexive")

    def test_every_relation_up_to_three_worlds(self):
        checked = 0
        for n in (1, 2, 3):
            pairs = list(product(range(n), repeat=2))
            for bits in range(1 << len(pairs)):
                m = KripkeModel(n, frozenset(q for k, q in enumerate(pairs) if (bits >> k) & 1))
                for cond in FrameCondition:
                    assert frame_satisfies(m, cond) == frame_satisfies_by_pairs(m, cond), (m, cond)
                checked += 1
        assert checked == 2 + 16 + 512


class TestFrameClosure:
    def test_symmetric_pair(self):
        out = frame_closure({(0, 1)}, {FrameCondition.SYMMETRIC}, 2)
        assert out == frozenset({(0, 1), (1, 0)})

    def test_reflexive_diagonal(self):
        out = frame_closure({(0, 1)}, {FrameCondition.REFLEXIVE}, 2)
        assert out == frozenset({(0, 1), (0, 0), (1, 1)})

    def test_euclidean_fixed_point(self):
        out = frame_closure({(0, 1), (0, 2)}, {FrameCondition.EUCLIDEAN}, 3)
        assert out == frozenset({(0, 1), (0, 2), (1, 2), (2, 1), (1, 1), (2, 2)})
        assert frame_satisfies(KripkeModel(3, out), FrameCondition.EUCLIDEAN)

    def test_serial_rejected(self):
        with pytest.raises(SerialNotClosable):
            frame_closure({(0, 1)}, {FrameCondition.SERIAL}, 2)

    def test_idempotent_and_satisfying(self, one_atom_models):
        conditions = [
            frozenset({FrameCondition.SYMMETRIC, FrameCondition.TRANSITIVE}),
            frozenset({FrameCondition.REFLEXIVE, FrameCondition.EUCLIDEAN}),
            frozenset({FrameCondition.TRANSITIVE}),
        ]
        for m in one_atom_models[:: 17]:
            for conds in conditions:
                once = frame_closure(m.access, conds, m.world_count)
                assert frame_closure(once, conds, m.world_count) == once
                assert once >= m.access
                closed = KripkeModel(m.world_count, once)
                for c in conds:
                    assert frame_satisfies(closed, c)


class TestInvariants:
    def test_duality(self, one_atom_models):
        battery = [p, Not(p), Box(p), Diamond(Not(p))]
        for m in one_atom_models:
            for f in battery:
                for w in range(m.world_count):
                    assert evaluate(m, w, Diamond(f)) == evaluate(m, w, Not(Box(Not(f))))

    def test_axiom_k_everywhere(self, small_models):
        k = parse("[](p -> q) -> ([]p -> []q)")
        for m in small_models:
            assert holds_globally(m, k)

    def test_model_level_correspondence(self, one_atom_models):
        axioms = {
            FrameCondition.REFLEXIVE: parse("[]p -> p"),
            FrameCondition.SYMMETRIC: parse("p -> []<>p"),
            FrameCondition.TRANSITIVE: parse("[]p -> [][]p"),
            FrameCondition.EUCLIDEAN: parse("<>p -> []<>p"),
            FrameCondition.SERIAL: parse("[]p -> <>p"),
        }
        for m in one_atom_models:
            for cond, axiom in axioms.items():
                if frame_satisfies(m, cond):
                    assert holds_globally(m, axiom), (m, cond)


def models(max_worlds=4, atoms=("p", "q")):
    """Models of 1 to ``max_worlds`` worlds over ``atoms``."""

    def over(n):
        worlds = st.frozensets(st.integers(0, n - 1))
        return st.builds(
            KripkeModel,
            st.just(n),
            st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
            st.fixed_dictionaries({a: worlds for a in atoms}),
        )

    return st.integers(1, max_worlds).flatmap(over)


class TestAgainstPointwiseSemantics:
    """The mask semantics against the pointwise walk it replaced."""

    @given(models(), formula_strategy(atoms=("p", "q", "r"), max_leaves=24, sugar=False))
    @settings(max_examples=400, deadline=None)
    def test_evaluate_and_holds_globally(self, m, f):
        values = [evaluate(m, w, f) for w in range(m.world_count)]
        assert values == [evaluate_pointwise(m, w, f) for w in range(m.world_count)]
        assert holds_globally(m, f) == all(values)


def evaluate_pointwise(model, world, f):
    """Reference truth of ``f`` at ``world``: the textbook clauses, walked
    once per world, each modal step over the successors listed from the
    access pairs."""
    if not 0 <= world < model.world_count:
        raise InvalidWorld(f"world {world} outside 0..{model.world_count - 1}")
    match f:
        case Atom(name):
            return world in model.valuation.get(name, frozenset())
        case Not(x):
            return not evaluate_pointwise(model, world, x)
        case And(a, b):
            return evaluate_pointwise(model, world, a) and evaluate_pointwise(model, world, b)
        case Or(a, b):
            return evaluate_pointwise(model, world, a) or evaluate_pointwise(model, world, b)
        case Implies(a, b):
            return (not evaluate_pointwise(model, world, a)) or evaluate_pointwise(model, world, b)
        case Iff(a, b):
            return evaluate_pointwise(model, world, a) == evaluate_pointwise(model, world, b)
        case Box(x):
            return all(evaluate_pointwise(model, v, x) for v in _successors(model, world))
        case Diamond(x):
            return any(evaluate_pointwise(model, v, x) for v in _successors(model, world))
    raise TypeError(f"not a sugar-free formula: {f!r}")


def _successors(model, w):
    return sorted(j for i, j in model.access if i == w)


def frame_satisfies_by_pairs(model, condition):
    """Reference frame check: each condition's first-order statement,
    quantified over the access pairs."""
    n = model.world_count
    r = model.access
    match condition:
        case FrameCondition.REFLEXIVE:
            return all((u, u) in r for u in range(n))
        case FrameCondition.SYMMETRIC:
            return all((v, u) in r for u, v in r)
        case FrameCondition.TRANSITIVE:
            return all((u, w) in r for u, v in r for v2, w in r if v2 == v)
        case FrameCondition.EUCLIDEAN:
            return all((v, w) in r for u, v in r for u2, w in r if u2 == u)
        case FrameCondition.SERIAL:
            return all(any((u, v) in r for v in range(n)) for u in range(n))
    raise TypeError(f"not a frame condition: {condition!r}")


class TestModelValidation:
    def test_needs_a_world(self):
        with pytest.raises(ValueError):
            KripkeModel(0, frozenset())

    def test_access_in_range(self):
        with pytest.raises(InvalidWorld):
            KripkeModel(1, frozenset({(0, 1)}))

    def test_valuation_in_range(self):
        with pytest.raises(InvalidWorld):
            KripkeModel(1, frozenset(), {"g": frozenset({3})})


class TestImmutable:
    def test_valuation_is_read_only(self):
        m = KripkeModel(2, frozenset(), {"g": frozenset({1})})
        with pytest.raises(TypeError):
            m.valuation["q"] = frozenset({0})
        with pytest.raises(TypeError):
            del m.valuation["g"]
        assert dict(m.valuation) == {"g": frozenset({1})}
        assert evaluate(m, 1, g) and not evaluate(m, 0, Atom("q"))

    def test_caller_dict_stays_outside(self):
        valuation = {"g": {1}}
        m = KripkeModel(2, frozenset(), valuation)
        valuation["g"].add(0)
        valuation["q"] = {0}
        assert dict(m.valuation) == {"g": frozenset({1})}
        assert not evaluate(m, 0, g)

    def test_hash_agrees_with_equality(self):
        a = KripkeModel(2, frozenset({(0, 1)}), {"g": frozenset({1}), "p": frozenset()})
        b = KripkeModel(2, {(0, 1)}, {"p": set(), "g": [1]})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, TWO_WORLD}) == 2
        assert a != KripkeModel(2, frozenset({(0, 1)}), {"g": frozenset({1})})

    def test_pickles(self):
        again = pickle.loads(pickle.dumps(TWO_WORLD))
        assert again == TWO_WORLD and hash(again) == hash(TWO_WORLD)
        assert evaluate(again, 0, Diamond(g))


class TestSerialization:
    def test_golden_json(self):
        assert (
            model_to_json(TWO_WORLD)
            == '{"access":[[0,1],[1,1]],"valuation":{"g":[1]},"worlds":2}'
        )

    def test_sorted_and_stable(self):
        m = KripkeModel(
            3,
            frozenset({(2, 1), (0, 2), (1, 1)}),
            {"b": frozenset({2, 0}), "a": frozenset(), "c": frozenset({1})},
        )
        d = model_to_dict(m)
        assert d["access"] == [[0, 2], [1, 1], [2, 1]]
        assert list(d["valuation"]) == ["b", "c"]  # empty sets dropped, keys sorted
        assert d["valuation"]["b"] == [0, 2]
        assert json.loads(model_to_json(m)) == d
