"""Integral operator values, hypotheses and its hypergeometric oracle."""

import cmath
import math

import numpy as np
import pytest

from univalence_lab import (
    ParameterSet,
    catalog_build,
    example31_closed_form,
    hyp2f1,
    operator_grid,
    principal_power,
)
from univalence_lab.errors import DomainError, HypothesisViolation
from univalence_lab.series import SeriesFunction
from .conftest import random_disk_points


def _cofactor(coeffs, u):
    """s(u)/u = c_1 + c_2 u + ..., finite at u = 0."""
    return sum(c * u**n for n, c in enumerate(coeffs))


def _dpoly(coeffs, u):
    return sum((n + 1) * c * u**n for n, c in enumerate(coeffs))


def _integrand(p, f, g, phi, u):
    h = principal_power(_dpoly(f.coefficients, u), p.alpha)
    if p.beta != 0:
        h *= principal_power(_cofactor(g.coefficients, u) / _cofactor(phi.coefficients, u), p.beta)
    return h


def _adaptive_simpson(fun, a, b, tol=1e-11, depth=24):
    """Plain recursive adaptive Simpson on a real interval, complex values."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, d):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = fun(lm), fun(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if d <= 0 or abs(left + right - whole) < 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, d - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, d - 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = fun(a), fun(mid), fun(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, depth)


class TestIdentityReduction:
    def test_exact_for_all_gammas(self, identity):
        for gamma in (1.0, 2 + 1j, 0.5 + 0.8j):
            p = ParameterSet(alpha=1.0, beta=1.0, gamma=gamma)
            for z in (0.5 + 0.3j, -0.8, 0.1j):
                value, bracket, _, crossing = operator_grid(z, p, identity, identity, identity)
                assert complex(value) == pytest.approx(z, rel=1e-13)
                assert complex(bracket) == pytest.approx(1.0, rel=1e-12)
                assert not crossing

    def test_zero_maps_to_zero(self, identity):
        value, bracket, _, _ = operator_grid(0.0, ParameterSet(), identity)
        assert value == 0.0
        assert bracket == 1.0


class TestKnownValues:
    def test_gamma_one_is_antiderivative(self, f_quarter):
        p = ParameterSet(alpha=1.0, beta=0.0, gamma=1.0)
        value = complex(operator_grid(0.5, p, f_quarter)[0])
        assert value == pytest.approx(0.5625, rel=1e-12)

    def test_reference_point(self, f_quarter, g_half, identity, params_ref):
        # alpha = beta = 1/2, gamma = 1: integrand is 1 + u/2, F = z + z^2/4
        value = complex(operator_grid(0.8j, params_ref, f_quarter, g_half, identity)[0])
        assert value == pytest.approx(-0.16 + 0.8j, rel=1e-11)

    def test_normalization_near_zero(self, f_quarter, g_half, identity, params_ref):
        z = 1e-4 * cmath.exp(0.3j)
        value = complex(operator_grid(z, params_ref, f_quarter, g_half, identity)[0])
        assert abs(value / z - 1.0) < 1e-3

    def test_value_bracket_consistency(self, f_quarter, g_half, identity):
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.2 + 0.5j)
        value, bracket, _, crossing = operator_grid(0.4 + 0.3j, p, f_quarter, g_half, identity)
        assert not crossing
        expected = (0.4 + 0.3j) * principal_power(bracket, 1.0 / p.gamma)
        assert complex(value) == pytest.approx(expected, rel=1e-13)


class TestGammaOneOracle:
    CONFIGS = (
        (("quadratic", {"c": 0.25}), ("identity", {}), 1.0, 0.0),
        (("quadratic", {"c": 0.25}), ("quadratic", {"c": 0.5}), 0.5, 0.5),
        (("expscaled", {"lam": 1.0}), ("identity", {}), 0.5, 0.0),
    )

    @pytest.mark.parametrize("fspec,gspec,alpha,beta", CONFIGS)
    def test_direct_quadrature_agrees(self, fspec, gspec, alpha, beta, identity):
        f = catalog_build(*fspec)
        g = catalog_build(*gspec)
        p = ParameterSet(alpha=alpha, beta=beta, gamma=1.0)
        for z in (0.5, -0.3 + 0.6j, 0.75j):
            value = complex(operator_grid(z, p, f, g, identity)[0])
            oracle = z * _adaptive_simpson(lambda s: _integrand(p, f, g, identity, s * z), 0.0, 1.0)
            assert value == pytest.approx(oracle, rel=1e-9)


class TestDomainAndHypotheses:
    def test_gamma_nonpositive_real(self, identity):
        with pytest.raises(HypothesisViolation):
            operator_grid(0.5, ParameterSet(gamma=-1.0), identity)

    def test_outside_disk(self, identity):
        with pytest.raises(DomainError):
            operator_grid(1.0, ParameterSet(), identity)

    def test_vanishing_on_ray(self, f_quarter, identity):
        # g/phi = 1 - 2u vanishes at 1/2: the continuation cannot step past
        # that zero of (g/phi)^(1/2), so the rays through it are flagged
        g = SeriesFunction(np.array([1.0, -2.0]))
        p = ParameterSet(alpha=0.0, beta=0.5, gamma=1.0)
        _, _, _, crossing = operator_grid(np.array([0.5, 0.9, 0.9j, 0.4]), p, f_quarter, g, identity)
        assert crossing.tolist() == [True, True, False, False]

    def test_vanishing_derivative_on_ray(self, identity):
        # f'(-1/2) = 0 for f = z + z^2: (f')^(1/2) is flagged past the zero,
        # while f' itself is a polynomial, exact through it (F = f at gamma = 1)
        f = SeriesFunction(np.array([1.0, 1.0]))
        z = np.array([-0.9, -0.5, -0.3])
        _, _, _, crossing = operator_grid(z, ParameterSet(alpha=0.5), f, identity, identity)
        assert crossing.tolist() == [True, True, False]
        values, _, _, crossing = operator_grid(z, ParameterSet(alpha=1.0), f, identity, identity)
        assert not crossing.any()
        assert np.allclose(values, z + z**2, rtol=1e-14, atol=0)

    def test_grid_shape_and_chunking(self, identity):
        zs = random_disk_points(np.random.default_rng(7), 5000, 0.9).reshape(100, 50)
        values, brackets, panels, crossing = operator_grid(zs, ParameterSet(), identity)
        assert values.shape == zs.shape == brackets.shape == crossing.shape
        assert np.allclose(values, zs, rtol=1e-13)
        assert not crossing.any()
        assert panels == 0  # every point on the certified series path


class TestHyp2f1:
    def test_w_zero(self):
        assert hyp2f1(2.3, -0.7j, 1.5, 0.0) == 1.0

    def test_terminating(self):
        for w in (0.3, -0.6 + 0.2j):
            assert hyp2f1(1.0, -1.0, 2.0, w) == pytest.approx(1 - w / 2, rel=1e-14)

    def test_log_identity(self):
        # 2F1(1,1;2;w) = -log(1-w)/w
        assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)

    def test_pole_and_domain(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, -2.0, 0.3)
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_parameter_rejected(self, slot, bad):
        # a NaN term never falls below the tolerance, so the series would
        # spend its whole budget before failing
        args = [1.0, 1.0, 2.0]
        args[slot] = bad
        with pytest.raises(DomainError, match=f"parameter {'abc'[slot]} = .* is not finite"):
            hyp2f1(*args, 0.5)


class TestClosedForm:
    def test_zero(self):
        assert example31_closed_form(0.0, ParameterSet()) == 0.0

    def test_terminating_case(self):
        # gamma = 1, alpha + beta = 1: F(z) = z (1 + z/4)
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0)
        z = 0.8j
        assert example31_closed_form(z, p) == pytest.approx(z * (1 + z / 4), rel=1e-14)

    def test_matches_quadrature(self, f_quarter, g_half, identity):
        p = ParameterSet(alpha=0.3, beta=0.2, gamma=1.2 + 0.5j)
        for z in (0.5, -0.4 + 0.3j):
            got = complex(operator_grid(z, p, f_quarter, g_half, identity)[0])
            want = example31_closed_form(z, p)
            assert abs(got - want) <= 1e-9 * abs(z)

    def test_domain(self):
        with pytest.raises(HypothesisViolation):
            example31_closed_form(0.5, ParameterSet(gamma=-2.0))
        with pytest.raises(DomainError):
            example31_closed_form(1.2, ParameterSet())
