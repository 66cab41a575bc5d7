"""Closed-form suspension functionals."""

import math
from fractions import Fraction

import pytest

from ergolab import (
    SuspensionModel,
    cylinder_constant,
    gaussian_orthant,
    pair_integrand,
    poisson_pmf,
)

TOL = 1e-12


def test_pmf_basics():
    for lam in (0.3, 1.0, 4.5):
        assert abs(poisson_pmf(0, lam) - math.exp(-lam)) <= TOL
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(3, 0.0) == 0.0
    assert abs(poisson_pmf(1, 1.0) - math.exp(-1)) <= TOL


def test_pmf_rejects_negative_inputs():
    with pytest.raises(ValueError):
        poisson_pmf(-1, 1.0)
    with pytest.raises(ValueError):
        poisson_pmf(1, -0.5)


def test_pmf_normalization():
    for lam in (0.5, 1.0, 5.0, 20.0):
        total = math.fsum(poisson_pmf(k, lam) for k in range(201))
        assert abs(total - 1.0) < TOL


def test_cylinder_constant():
    assert abs(cylinder_constant(SuspensionModel("poisson", 1)) - math.exp(-1)) <= TOL
    assert abs(cylinder_constant(SuspensionModel("poisson", 0)) - math.exp(-1)) <= TOL
    assert cylinder_constant(SuspensionModel("gaussian")) == 0.5


def test_pair_integrand_endpoints_poisson():
    for m in (1, 2, 3):
        model = SuspensionModel("poisson", m)
        c = cylinder_constant(model)
        assert abs(pair_integrand(model, Fraction(1)) - c) <= TOL
        assert abs(pair_integrand(model, Fraction(0)) - c * c) <= TOL


def test_pair_integrand_endpoints_gaussian():
    model = SuspensionModel("gaussian")
    assert abs(pair_integrand(model, Fraction(1)) - 0.5) <= TOL
    assert abs(pair_integrand(model, Fraction(0)) - 0.25) <= TOL
    assert abs(pair_integrand(model, Fraction(1, 2)) - 1.0 / 3.0) <= TOL


def test_gaussian_orthant_special_values():
    assert abs(gaussian_orthant(-1.0) - 0.0) <= TOL
    assert abs(gaussian_orthant(0.0) - 0.25) <= TOL
    assert abs(gaussian_orthant(1.0) - 0.5) <= TOL
    with pytest.raises(ValueError):
        gaussian_orthant(1.5)


def test_pair_integrand_monotone_in_overlap():
    grid = [Fraction(k, 97) for k in range(98)]
    for model in (SuspensionModel("poisson", 1), SuspensionModel("poisson", 3),
                  SuspensionModel("gaussian")):
        vals = [pair_integrand(model, lam) for lam in grid]
        assert all(b >= a - TOL for a, b in zip(vals, vals[1:]))
        c = cylinder_constant(model)
        assert all(c * c - TOL <= v <= c + TOL for v in vals)


def test_pair_integrand_rejects_out_of_range():
    model = SuspensionModel("poisson", 1)
    with pytest.raises(ValueError):
        pair_integrand(model, Fraction(3, 2))
    with pytest.raises(ValueError):
        pair_integrand(model, Fraction(-1, 2))


def test_model_validation():
    with pytest.raises(ValueError):
        SuspensionModel("weird")
    with pytest.raises(ValueError):
        SuspensionModel("poisson", -1)
