"""The series path of the operator: Miller's power recurrence, the
certificates that route a point to it, and its values against exact
brackets and against the quadrature it replaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from univalence_lab import ParameterSet, QuadratureConfig, catalog_build, operator_grid
from univalence_lab.chain import chain_grid
from univalence_lab.operator import _grid_chunk, _power_coeffs, _series_plan, _through_zero
from univalence_lab.series import SeriesFunction


def example31_exact(z, gamma):
    """F on example31 with alpha + beta = 1: h = 1 + u/2, so the bracket is
    exactly 1 + gamma z / (2 (gamma + 1))."""
    w = gamma * z / (2.0 * (gamma + 1.0))
    # log1p(w) in real arithmetic, accurate for small |w|
    log1p = 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2) + 1j * np.arctan2(w.imag, 1.0 + w.real)
    return z * np.exp(log1p / gamma)


class TestMillerRecurrence:
    @pytest.mark.parametrize("power", [1, 2, 3, 5])
    def test_integer_powers_match_polynomial_products(self, power):
        p = np.array([1.0, 0.3 - 0.2j, -0.7, 0.25j])
        want = P.polypow(p, power)
        got = _power_coeffs(p, complex(power), 24)
        assert np.allclose(got[: want.size], want, rtol=0, atol=1e-14 * np.abs(want).max())
        assert np.all(np.abs(got[want.size :]) <= 1e-14 * np.abs(want).max())

    def test_inverse_is_the_geometric_series(self):
        got = _power_coeffs(np.array([1.0, -0.5]), -1.0 + 0j, 30)
        assert np.allclose(got, 0.5 ** np.arange(30), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("s", [0.5, -0.5, 1.0 / 3.0, 0.3 + 0.7j])
    def test_binomial_series(self, s):
        got = _power_coeffs(np.array([1.0, 0.5]), complex(s), 40)
        want = np.empty(40, dtype=complex)
        want[0] = 1.0
        for n in range(1, 40):  # binom(s, n) 2^-n
            want[n] = want[n - 1] * (s - n + 1) / n / 2.0
        assert np.allclose(got, want, rtol=1e-13, atol=1e-300)


class TestPlan:
    def test_identity_is_exact_everywhere(self, identity):
        plan = _series_plan(identity, identity, identity, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
        assert plan.radius == 1.0 and plan.h.tolist() == [1.0] and plan.s.size == 0

    def test_example31_is_certified_on_the_disk(self, f_quarter, g_half, identity):
        plan = _series_plan(f_quarter, g_half, identity, 0.5 + 0j, 0.5 + 0j, 1.0 + 0j)
        assert plan.radius == 1.0
        # h = (1 + u/2)^(1/2) (1 + u/2)^(1/2) = 1 + u/2
        assert plan.h[:2] == pytest.approx([1.0, 0.5], rel=1e-15)
        assert np.all(np.abs(plan.h[2:]) < 1e-15)

    def test_radius_stops_before_the_zero(self):
        # f' = 1 + 4u: eps = 4r, and L < pi needs 4r < 1 - e^-pi
        f = SeriesFunction(np.array([1.0, 2.0]))
        identity = catalog_build("identity")
        plan = _series_plan(f, identity, identity, 1.0 + 0j, 0j, 1.0 + 0j)
        assert 0.0 < plan.radius < (1.0 - math.exp(-math.pi)) / 4.0

    def test_zeros_of_fractional_factors_only(self, identity):
        f = SeriesFunction(np.array([1.0, 1.5, 0.75]))  # f' = (1 + 1.5u)^2
        fractional = _series_plan(f, identity, identity, 0.5 + 0j, 0j, 1.0 + 0j)
        assert np.min(np.abs(fractional.zeros + 2.0 / 3.0)) < 1e-15
        integer = _series_plan(f, identity, identity, 2.0 + 0j, 0j, 1.0 + 0j)
        assert integer.zeros.size == 0

    def test_through_zero(self):
        zeros = np.array([-2.0 / 3.0 + 0j])
        z = np.array([-0.9, -0.9 + 1e-14j, -0.9 + 1e-3j, -0.5, 0.0, -2.0 / 3.0])
        assert _through_zero(zeros, z).tolist() == [True, True, False, False, False, True]


class TestRayThroughZero:
    def test_operator_flags_the_ray(self):
        f = SeriesFunction(np.array([1.0, 1.5, 0.75]))
        _, _, _, crossing = operator_grid(np.array([-0.8, -0.5, -0.8 + 0.05j]), ParameterSet(alpha=0.5), f)
        assert crossing.tolist() == [True, False, True]

    def test_chain_flags_the_ray(self):
        f = SeriesFunction(np.array([1.0, 1.5, 0.75]))
        _, flagged = chain_grid([-0.8, -0.8, -0.5], [0.0, 0.1, 0.0], ParameterSet(alpha=0.5), f)
        assert flagged.tolist() == [True, True, False]


class TestSeriesValues:
    @settings(max_examples=200, deadline=None)
    @given(
        re_gamma=st.floats(1e-4, 4.0),
        im_gamma=st.floats(-5.0, 5.0),
        alpha=st.floats(0.0, 1.0),
        r=st.floats(0.0, 0.95),
        theta=st.floats(0.0, 2.0 * math.pi),
    )
    def test_example31_matches_the_exact_bracket(self, re_gamma, im_gamma, alpha, r, theta):
        gamma = complex(re_gamma, im_gamma)
        f, g, identity = (catalog_build("quadratic", {"c": 0.25}), catalog_build("quadratic", {"c": 0.5}),
                          catalog_build("identity"))
        z = np.array([r * np.exp(1j * theta)])
        p = ParameterSet(alpha=alpha, beta=1.0 - alpha, gamma=gamma)
        values, _, panels, crossing = operator_grid(z, p, f, g, identity)
        want = example31_exact(z, gamma)
        assert panels == 0 and not crossing.any()
        assert np.abs(values - want)[0] <= 1e-12 * np.abs(want)[0]

    @pytest.mark.parametrize("gamma", [1e-8, 1e-14, 1e-300])
    def test_tiny_gamma_against_the_exact_limit(self, gamma, f_quarter):
        # alpha = 1, beta = 0: h = f' = 1 + u/2, the bracket of example31
        z = 0.9 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
        values, _, panels, crossing = operator_grid(z, ParameterSet(gamma=gamma), f_quarter)
        w = gamma * z / (2.0 * (gamma + 1.0))
        want = z * np.exp((w - w * w / 2.0 + w**3 / 3.0) / gamma)  # |w| <= 2.3e-9
        assert panels == 0 and not crossing.any()
        assert np.all(np.abs(values - want) <= 1e-14 * np.abs(want))


coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
series = st.lists(coefficient, min_size=1, max_size=3).map(lambda c: SeriesFunction(np.array([1.0, *c])))
exponent = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    f=series,
    g=series,
    phi=series,
    alpha=exponent,
    beta=exponent,
    re_gamma=st.floats(0.5, 4.0),
    im_gamma=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_is_sound(f, g, phi, alpha, beta, re_gamma, im_gamma, seed):
    """Wherever the plan certifies a point, the quadrature agrees with the
    series and does not flag it.  The quadrature runs at rel_tol 1e-13:
    at the default 1e-10 its own error reaches 1.5e-12 (identity at
    gamma = 3.25, where the series is exact)."""
    p = ParameterSet(alpha=alpha, beta=beta, gamma=complex(re_gamma, im_gamma))
    plan = _series_plan(f, g, phi, p.alpha, p.beta, p.gamma)
    rng = np.random.default_rng(seed)
    r = min(plan.radius, 0.999) * np.sqrt(rng.uniform(size=8))
    z = r * np.exp(2j * np.pi * rng.uniform(size=8))
    values, _, panels, crossing = operator_grid(z, p, f, g, phi)
    assert panels == 0 and not crossing.any()
    quad, _, _, quad_crossing = _grid_chunk(z, p, f, g, phi, QuadratureConfig(rel_tol=1e-13))
    assert not quad_crossing.any()
    assert np.all(np.abs(values - quad) <= 1e-12 * np.abs(quad))
