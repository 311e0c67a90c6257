"""Exact certificates for a family of affine hypersurfaces.

The package constructs, decides, and machine-verifies — in exact rational
arithmetic — isomorphisms between the fibers of a family of polynomials,
a locally nilpotent derivation annihilating every family member, coordinate
equivalence of members and of their zero hypersurfaces, automorphisms of a
cylinder that exchange members which are inequivalent downstairs, and a
truncated-power-series change of variables relating the analytic structure
of the fibers.  Every verification produces a :class:`Certificate` whose
checks are exact polynomial identities (residual identically zero), optionally
re-checked numerically at random points.
"""

from .certificate import Certificate, CheckResult, run_schwartz_zippel
from .equivalence import (
    HyperEquivWitness,
    PolyEquivWitness,
    StableEquivPair,
    build_hyper_equiv_automorphism,
    build_poly_equiv_automorphism,
    build_stable_equivalence,
    decide_hypersurface_equivalence,
    decide_poly_equivalence,
    stable_equivalence_degree_bound,
    theorem_certificate,
    verify_hyper_equivalence,
    verify_stable_equivalence,
)
from .errors import (
    DimensionMismatch,
    InvalidWitness,
    NonzeroConstantTerm,
    NotAMultiple,
    NotDecidableInField,
    ResourceLimit,
    SignatureMismatch,
    StablyDistinctError,
)
from .exactfield import (
    QuadExt,
    Scalar,
    parse_scalar,
    quadext,
    rational,
    rational_nth_root,
    scalar_to_text,
    sqrt_in_field,
)
from .formalseries import (
    exp_series,
    second_tail_series,
    truncate,
    truncation_coherence,
    verify_biholomorphism,
)
from .hypersurface import (
    FiberIsomorphism,
    IsoClass,
    PqSpec,
    build_Pq,
    classify,
    constant_fiber_spec,
    isomorphic,
    reduce_mod_relation,
    verify_fiber_isomorphism,
)
from .lnd import (
    build_Delta,
    decompose_as_Delta_multiple,
    nilpotency_index,
    nilpotency_index_bound,
    verify_lnd,
)
from .morphisms import Derivation, RingEndomorphism
from .polyring import (
    Polynomial,
    RingSignature,
    UnivariatePoly,
    difference_quotient,
    exact_divide,
    parse_polynomial,
    poly_to_text,
    x_power_bracket,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CheckResult",
    "Derivation",
    "DimensionMismatch",
    "FiberIsomorphism",
    "HyperEquivWitness",
    "InvalidWitness",
    "IsoClass",
    "NonzeroConstantTerm",
    "NotAMultiple",
    "NotDecidableInField",
    "Polynomial",
    "PolyEquivWitness",
    "PqSpec",
    "QuadExt",
    "ResourceLimit",
    "RingEndomorphism",
    "RingSignature",
    "Scalar",
    "SignatureMismatch",
    "StableEquivPair",
    "StablyDistinctError",
    "UnivariatePoly",
    "build_Delta",
    "build_Pq",
    "build_hyper_equiv_automorphism",
    "build_poly_equiv_automorphism",
    "build_stable_equivalence",
    "classify",
    "constant_fiber_spec",
    "decide_hypersurface_equivalence",
    "decide_poly_equivalence",
    "decompose_as_Delta_multiple",
    "difference_quotient",
    "exact_divide",
    "exp_series",
    "isomorphic",
    "nilpotency_index",
    "nilpotency_index_bound",
    "parse_polynomial",
    "parse_scalar",
    "poly_to_text",
    "quadext",
    "rational",
    "rational_nth_root",
    "reduce_mod_relation",
    "run_schwartz_zippel",
    "scalar_to_text",
    "second_tail_series",
    "sqrt_in_field",
    "stable_equivalence_degree_bound",
    "theorem_certificate",
    "truncate",
    "truncation_coherence",
    "verify_biholomorphism",
    "verify_fiber_isomorphism",
    "verify_hyper_equivalence",
    "verify_lnd",
    "verify_stable_equivalence",
    "x_power_bracket",
]
