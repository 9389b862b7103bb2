"""modaltab: propositional modal logic with Kripke semantics.

Parser and printer for modal formulas, finite Kripke models, a labelled
tableau decision procedure for global consequence over frame-conditioned
model classes, a brute-force countermodel enumerator that cross-checks
it, and a built-in corpus of modal arguments with analysis suites.
"""

from .enumeration import (
    KERNEL,
    CountermodelWitness,
    EnumerationBudget,
    enumerate_models,
    find_countermodel,
    minimize_countermodel,
)
from .semantics import (
    LOGICS,
    FrameCondition,
    InvalidWorld,
    KripkeModel,
    SerialNotClosable,
    evaluate,
    frame_class,
    frame_closure,
    frame_satisfies,
    holds_globally,
    model_to_dict,
    model_to_json,
)
from .syntax import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
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
    substitute,
)
from .tableau import (
    Invalid,
    ProofObject,
    ResourceLimit,
    Valid,
    Verdict,
    check_proof,
    decide,
    prove_valid,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL",
    "__version__",
    # syntax
    "Atom", "Not", "And", "Or", "Implies", "Iff", "Box", "Diamond",
    "StrictImplies", "Formula", "FormulaSyntaxError", "parse",
    "print_formula", "desugar", "nnf", "substitute",
    "atoms_of", "fresh_atom",
    # semantics
    "FrameCondition", "LOGICS", "frame_class", "KripkeModel",
    "InvalidWorld", "SerialNotClosable", "evaluate", "holds_globally",
    "frame_satisfies", "frame_closure", "model_to_dict", "model_to_json",
    # enumeration
    "EnumerationBudget", "CountermodelWitness", "enumerate_models",
    "find_countermodel", "minimize_countermodel",
    # tableau
    "Valid", "Invalid", "Verdict", "ProofObject", "decide", "prove_valid",
    "check_proof", "ResourceLimit",
]
