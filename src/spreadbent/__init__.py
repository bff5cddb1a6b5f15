"""Partial-spread bent functions from finite pre-quasifield spreads.

The package builds Boolean bent functions on 2m variables by selecting half
of the nonzero slopes of a spread of GF(2^m) x GF(2^m) and evaluating the
selector through an explicit division formula for the underlying
pre-quasifield multiplication.  Every formula is backed by an independent
exhaustive oracle, and every constructed function can be certified by a full
Walsh-Hadamard transform.
"""

__version__ = "0.1.0"

from .field import FieldCtx, ExtCtx, field_ctx, default_modulus, is_irreducible
from .polynomials import (
    LinearizedMap,
    NotBijectiveError,
    NotCoprimeError,
    eval_linearized,
    invert_linearized,
    dickson_eval,
    dickson_inverse_exponent,
    quad_trace_map,
    square_trace_map,
    square_trace_inverse_eval,
)
from .quasifield import (
    AxiomReport,
    ConsistencyError,
    PreQuasifield,
    FieldFamily,
    DempwolffMullerFamily,
    KnuthFamily,
    KantorFamily,
    FAMILY_NAMES,
    make_family,
    verify_axioms,
)
from .spread import (
    INFINITY,
    Point,
    Spread,
    SpreadReport,
    build_spread,
    verify_spread,
    dump_spread,
)
from .boolfun import (
    TruthTable,
    walsh_spectrum,
    walsh_at,
    is_bent,
    anf,
    degree,
    save_tt,
    load_tt,
)
from .construct import (
    CertificationError,
    Selector,
    WrongCardinalityError,
    ZeroInSupportError,
    selector_from_support,
    random_selector,
    ps_minus,
    ps_plus,
    ps_from_components,
    spectrum_summary,
)

__all__ = [
    "__version__",
    # field
    "FieldCtx", "ExtCtx", "field_ctx", "default_modulus", "is_irreducible",
    # polynomials
    "LinearizedMap", "NotBijectiveError", "NotCoprimeError",
    "eval_linearized", "invert_linearized", "dickson_eval",
    "dickson_inverse_exponent", "quad_trace_map", "square_trace_map",
    "square_trace_inverse_eval",
    # quasifield families
    "AxiomReport", "ConsistencyError", "PreQuasifield", "FieldFamily",
    "DempwolffMullerFamily", "KnuthFamily", "KantorFamily", "FAMILY_NAMES",
    "make_family", "verify_axioms",
    # spreads
    "INFINITY", "Point", "Spread", "SpreadReport", "build_spread",
    "verify_spread", "dump_spread",
    # boolean functions
    "TruthTable", "walsh_spectrum", "walsh_at", "is_bent", "anf", "degree",
    "save_tt", "load_tt",
    # construction
    "CertificationError", "Selector", "WrongCardinalityError",
    "ZeroInSupportError", "selector_from_support", "random_selector",
    "ps_minus", "ps_plus", "ps_from_components", "spectrum_summary",
]
