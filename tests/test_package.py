"""Tests for the public names of the package."""

import importlib

import pytest

import stably_distinct

# deleted names, each by its attribute path from the package: most had no
# caller outside the tests; UnivariatePoly's arithmetic went when q became
# read-only coefficient data
DELETED = (
    "exactfield.Rational",
    "exactfield.is_rational_square",
    "errors.VerificationFailed",
    "hypersurface.fiber_isomorphism",
    "polyring.half_t_quotient",
    "equivalence.brute_force_hyper_equivalence",
    "certificate.Certificate.raise_if_failed",
    "certificate.composition_sz",
    "morphisms.RingEndomorphism.is_identity",
    "morphisms.Derivation.is_zero",
    "polyring.Polynomial.from_terms",
    "polyring.Polynomial.constant_term",
    "polyring.Polynomial.embed",
    "polyring.RingSignature.y_index",
    "polyring.RingSignature.z_index",
    "polyring.RingSignature.w_index",
    "polyring.UnivariatePoly.t",
    "polyring.UnivariatePoly.scale_argument",
    "polyring.UnivariatePoly.constant",
    "polyring.UnivariatePoly.zero",
    "polyring.UnivariatePoly.is_zero",
    "polyring.UnivariatePoly.__bool__",
    "polyring.UnivariatePoly.__hash__",
    "polyring.UnivariatePoly.__add__",
    "polyring.UnivariatePoly.__radd__",
    "polyring.UnivariatePoly.__neg__",
    "polyring.UnivariatePoly.__sub__",
    "polyring.UnivariatePoly.__rsub__",
    "polyring.UnivariatePoly.__mul__",
    "polyring.UnivariatePoly.__rmul__",
    "polyring.UnivariatePoly.derivative",
    "polyring._PACKED_MIN_PAIRS",
    "polyring._split_surd",
    "polyring._cached_power",
    "certificate._Quad",
    "certificate._parts",
    "certificate._BadModulus",
    "certificate.MODULI",
    "equivalence._cylinder_y",
    "equivalence._phi_of_family",
    "equivalence._SymbolGate",
    "morphisms.DeferredImage.numerator",
    "morphisms.DeferredImage.symbol",
    "morphisms.DeferredImage.stage",
    "morphisms.DeferredImage.divisor",
    "morphisms.RingEndomorphism.deferred",
)


def test_every_exported_name_resolves_once():
    names = stably_distinct.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(stably_distinct, name), name


@pytest.mark.parametrize("path", DELETED)
def test_deleted_name_is_gone(path):
    module, *attrs = path.split(".")
    name = attrs[-1]
    assert name not in stably_distinct.__all__
    # every module has __hash__; no dunder is a package export anyway
    if not name.startswith("__"):
        assert not hasattr(stably_distinct, name)
    owner = importlib.import_module(f"stably_distinct.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    # a class that defines __eq__ without __hash__ gets __hash__ = None
    assert getattr(owner, name, None) is None, path
