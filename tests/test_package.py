"""Tests for the public names of the package."""

import importlib

import pytest

import stably_distinct

# deleted because no code outside the tests called them: the package
# attribute, and the attribute path from the package
DELETED = {
    "Rational": "exactfield.Rational",
    "is_rational_square": "exactfield.is_rational_square",
    "VerificationFailed": "errors.VerificationFailed",
    "fiber_isomorphism": "hypersurface.fiber_isomorphism",
    "half_t_quotient": "polyring.half_t_quotient",
    "brute_force_hyper_equivalence":
        "equivalence.brute_force_hyper_equivalence",
    "raise_if_failed": "certificate.Certificate.raise_if_failed",
    "is_identity": "morphisms.RingEndomorphism.is_identity",
    "is_zero": "morphisms.Derivation.is_zero",
    "from_terms": "polyring.Polynomial.from_terms",
    "constant_term": "polyring.Polynomial.constant_term",
    "embed": "polyring.Polynomial.embed",
    "y_index": "polyring.RingSignature.y_index",
    "z_index": "polyring.RingSignature.z_index",
    "w_index": "polyring.RingSignature.w_index",
    "t": "polyring.UnivariatePoly.t",
    "scale_argument": "polyring.UnivariatePoly.scale_argument",
    "constant": "polyring.UnivariatePoly.constant",
}


def test_every_exported_name_resolves_once():
    names = stably_distinct.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(stably_distinct, name), name


@pytest.mark.parametrize("name, path", sorted(DELETED.items()))
def test_deleted_name_is_gone(name, path):
    assert name not in stably_distinct.__all__
    assert not hasattr(stably_distinct, name)
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"stably_distinct.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    assert not hasattr(owner, attrs[-1]), path
