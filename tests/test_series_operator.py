"""The operator's two stages: Miller's power recurrence, the certificates
that route a point to the series, exact brackets, and an independent
mpmath reference on and off the certified disc."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from univalence_lab import ParameterSet, catalog_build, operator, operator_grid
from univalence_lab.chain import chain_grid
from univalence_lab.operator import _ARG_LIMIT, _SHIFT_TERMS, _descend, _power_coeffs, _series_plan
from univalence_lab.oracle import polar_samples
from univalence_lab.series import SeriesFunction


def _log1p(w):
    """log1p(w) in real arithmetic, accurate for small |w|."""
    return 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2) + 1j * np.arctan2(w.imag, 1.0 + w.real)


def example31_exact(z, gamma):
    """F on example31 with alpha + beta = 1: h = 1 + u/2, so the bracket is
    exactly 1 + gamma z / (2 (gamma + 1))."""
    return z * np.exp(_log1p(gamma * z / (2.0 * (gamma + 1.0))) / gamma)


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
        plan = _series_plan(f, identity, identity, 0.5 + 0j, 0j, 1.0 + 0j)
        assert 0.0 < plan.radius < (1.0 - math.exp(-math.pi)) / 4.0
        # at alpha = 1, h = f' is an exact polynomial: only |Arg B| < pi/2,
        # |gamma| |S_1| r < 1 - e^(-pi/2) with S_1 = 4 / (gamma + 1), limits r_c
        plan = _series_plan(f, identity, identity, 1.0 + 0j, 0j, 0.7 + 0j)
        assert plan.h.tolist() == [1.0, 4.0] and not plan.factors
        assert plan.radius == pytest.approx(_ARG_LIMIT * 1.7 / 2.8, rel=1e-12)
        # and at gamma = 1, B^(1/gamma) = B has no branch: the whole disk
        assert _series_plan(f, identity, identity, 1.0 + 0j, 0j, 1.0 + 0j).radius == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_terms_are_dropped(self):
        # f' = sum_{n<19} (n + 1)^5 u^n, whose nearest zero lies at |u| = 0.043:
        # the Taylor terms of sqrt(f') grow like 23^n and overflow before the
        # 256th, so the plan keeps the finite ones and certifies from them
        f = SeriesFunction(np.arange(1, 20, dtype=float) ** 4)
        identity = catalog_build("identity")
        p = ParameterSet(alpha=0.5)
        plan = _series_plan(f, identity, identity, p.alpha, p.beta, p.gamma)
        assert 100 < plan.h.size < 256 and np.isfinite(plan.h).all() and plan.radius > 0.02
        z = np.array([0.001, 0.01, 0.02, -0.02, 0.02j])
        values, _, steps, crossing = operator_grid(z, p, f)
        assert steps == 0 and not crossing.any()
        want = np.array([mpmath_operator(f, identity, identity, p.alpha, p.beta, p.gamma, zz) for zz in z])
        assert np.all(np.abs(values - want) <= 1e-12 * np.abs(want))


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


class TestNaturalExponents:
    """f = z + 2z^2 at alpha = 1: h = f' = 1 + 4u is a polynomial, so the
    bracket is exactly B = 1 + 4 gamma z / (gamma + 1) on the whole disk."""

    F = SeriesFunction(np.array([1.0, 2.0]))
    Z = polar_samples(16, 64, 0.9)

    @pytest.mark.parametrize("gamma", [1.0, 1e-8, 1e-14, 0.01 + 1j])
    def test_exact_bracket_on_the_disk(self, gamma):
        values, brackets, _, crossing = operator_grid(self.Z, ParameterSet(gamma=gamma), self.F)
        b1 = 4.0 * gamma * self.Z / (gamma + 1.0)
        # log(1 + b1) without cancellation for small |b1| and next to -1
        log_b = np.where(np.abs(1.0 + b1) < 0.5, np.log(1.0 + b1), _log1p(b1))
        want = self.Z * np.exp(log_b / gamma)
        # F = z B^(1/gamma) carries the relative error of B - 1 times
        # |B - 1| / |gamma B|, which is large only next to a zero of B
        cond = 1.0 + np.abs(b1) / np.abs(gamma * (1.0 + b1))
        ok = np.abs(values - want) <= 1e-14 * cond * np.abs(want)
        assert np.all(ok | crossing)
        assert crossing.sum() <= 0.05 * crossing.size

    @pytest.mark.parametrize("gamma", [1.0, 1e-8])
    def test_no_flag_and_no_step(self, gamma):
        # r_c = 1: at gamma = 1 since B^(1/gamma) = B has no branch, at
        # gamma = 1e-8 since |gamma (B - 1)| stays tiny
        _, _, steps, crossing = operator_grid(self.Z, ParameterSet(gamma=gamma), self.F)
        assert steps == 0 and not crossing.any()

    def test_the_zero_of_the_bracket(self):
        # F = f at gamma = 1, and f(-1/2) = 0 although B = 0 there; next to
        # that zero F keeps the relative accuracy of B
        z = np.array([-0.5, -0.9, -0.5 + 1e-5, -0.5 + 1e-5j])
        values, brackets, _, crossing = operator_grid(z, ParameterSet(), self.F)
        assert values[0] == 0.0 and brackets[0] == 0.0
        assert np.allclose(values[1:], z[1:] * (1.0 + 2.0 * z[1:]), rtol=1e-13, atol=0)
        assert not crossing.any()


def mpmath_operator(f, g, phi, alpha, beta, gamma, z):
    """F(z) to 40 digits with h continued along the ray: each polynomial
    factor P = prod (1 - u / w_k) over its zeros w_k has the continuous
    log P(tz) = sum Log(1 - tz / w_k) on t in [0, 1], since each 1 - tz / w_k
    runs on a line from 1 that misses 0; F takes the principal root of B.
    Where g and phi nearly agree, the logs of their zeros cancel below 40
    digits, so when |(g - phi)/phi| <= 1/2 on the whole ray the factor
    (g/phi)^beta is formed instead as exp(beta log1p((g - phi)/phi)), from
    the exact coefficient difference; log1p is continuous there.
    The integrand is nearly singular where the ray passes closest to a zero,
    at t0 = Re(w_k / z), so the quadrature is split at every t0 in (0, 1).
    mp.quad stops at an absolute error of 10^-40, so the integrand is
    scaled to about 1 first, and the reference fails loudly unless the
    error estimate is below 1e-20 |J|."""
    mp = pytest.importorskip("mpmath")
    parts = [(f.coefficients * np.arange(1, f.degree + 1), alpha)]
    if g != phi:
        parts += [(g.coefficients, beta), (phi.coefficients, -beta)]
    with mp.workdps(40):
        z, gamma = mp.mpc(complex(z)), mp.mpc(complex(gamma))
        ratio = None
        if g != phi and beta != 0:
            n = max(g.degree, phi.degree)
            gc, pc = ([mp.mpc(complex(x)) for x in h.coefficients] + [0] * (n - h.degree) for h in (g, phi))
            diff = [a - b for a, b in zip(gc, pc)]
            # bounds of |(g - phi)(u) / u| and |phi(u) / u| on |u| <= |z|,
            # so on the whole ray
            upper = sum(abs(d) * abs(z) ** k for k, d in enumerate(diff))
            lower = 1 - sum(abs(c) * abs(z) ** k for k, c in enumerate(pc) if k)
            if 2 * upper < lower:
                ratio, parts = (diff[::-1], pc[::-1], mp.mpc(complex(beta))), parts[:1]
        logs = []
        for coeffs, expo in parts:
            # terms below 1e-20 change P by less than 4e-20 on the disk, but
            # would put a root near infinity
            c = coeffs[: 1 + np.flatnonzero(np.abs(coeffs) >= 1e-20).max()]
            if c.size > 1 and expo != 0:
                roots = mp.polyroots([mp.mpc(complex(x)) for x in c[::-1]], maxsteps=200, extraprec=200)
                logs.append((roots, mp.mpc(expo)))
        splits = {mp.re(w / z) for roots, _ in logs for w in roots} if z != 0 else set()

        def integrand(t):
            s = sum(e * mp.log(1 - t * z / w) for roots, e in logs for w in roots)
            if ratio:
                num, den, b = ratio
                s += b * mp.log1p(mp.polyval(num, t * z) / mp.polyval(den, t * z))
            return t ** (gamma - 1) * mp.expm1(s)

        scale = max(abs(integrand(mp.mpf(k) / 4)) for k in range(1, 5)) or 1
        nodes = [0, *sorted(t0 for t0 in splits if 0 < t0 < 1), 1]
        j, err = mp.quad(lambda t: integrand(t) / scale, nodes, error=True)
        j, err = j * scale, err * scale
        assert err <= 1e-20 * abs(j), f"mpmath reference inaccurate: error {err} for |J| = {abs(j)}"
        return complex(z * mp.exp(mp.log1p(gamma * j) / gamma))


coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
series = st.lists(coefficient, min_size=1, max_size=3).map(lambda c: SeriesFunction(np.array([1.0, *c])))
exponent = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
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
@example(  # a subnormal coefficient once made the zero finder raise LinAlgError
    f=SeriesFunction(np.array([1.0, 5e-324])),
    g=SeriesFunction(np.array([1.0, 0j])),
    phi=SeriesFunction(np.array([1.0, 0j])),
    alpha=0.5 + 0j,
    beta=0j,
    re_gamma=1.0,
    im_gamma=0.0,
    seed=0,
)
@example(  # g and phi differ by 2e-263: the logs of their zeros cancelled below 40 digits
    f=SeriesFunction(np.array([1.0, -0.4393 + 0.4645j, -1.48e-8 + 1j, -1.48e-8 + 1j])),
    g=SeriesFunction(np.array([1.0, 0j, 0.7])),
    phi=SeriesFunction(np.array([1.0, 0j, 0.7 + 2e-263j])),
    alpha=0j,
    beta=-7.82e-67j,
    re_gamma=0.5,
    im_gamma=0.0,
    seed=0,
)
def test_certificate_is_sound(f, g, phi, alpha, beta, re_gamma, im_gamma, seed):
    """Wherever the plan certifies a point, the series is unflagged and
    agrees with the mpmath reference."""
    p = ParameterSet(alpha=alpha, beta=beta, gamma=complex(re_gamma, im_gamma))
    plan = _series_plan(f, g, phi, p.alpha, p.beta, p.gamma)
    rng = np.random.default_rng(seed)
    r = min(plan.radius, 0.999) * np.sqrt(rng.uniform(size=2))
    z = r * np.exp(2j * np.pi * rng.uniform(size=2))
    values, _, steps, crossing = operator_grid(z, p, f, g, phi)
    assert steps == 0 and not crossing.any()
    want = np.array([mpmath_operator(f, g, phi, p.alpha, p.beta, p.gamma, zz) for zz in z])
    assert np.all(np.abs(values - want) <= 1e-12 * np.abs(want))


@settings(max_examples=40, deadline=None)
@given(
    f=series,
    g=series,
    alpha=exponent,
    beta=exponent,
    re_gamma=st.floats(1e-4, 4.0),
    im_gamma=st.floats(-5.0, 5.0),
    r=st.floats(0.0, 0.95),
    theta=st.floats(0.0, 2.0 * math.pi),
)
@example(  # the ray passes 0.0025 from the zero -i/3 of f'
    f=SeriesFunction(np.array([1.0, -1j, 1.0])),
    g=SeriesFunction(np.array([1.0])),
    alpha=0.5 + 0j,
    beta=0j,
    re_gamma=1.0,
    im_gamma=0.0,
    r=0.75,
    theta=4.75,
)
def test_continuation_is_accurate_or_flagged(f, g, alpha, beta, re_gamma, im_gamma, r, theta):
    """Past the certified radius every point is within 1e-12 of the mpmath
    reference, or flagged."""
    identity = catalog_build("identity")
    p = ParameterSet(alpha=alpha, beta=beta, gamma=complex(re_gamma, im_gamma))
    plan = _series_plan(f, g, identity, p.alpha, p.beta, p.gamma)
    z = max(r, min(plan.radius * 1.01, 0.95)) * np.exp(1j * theta)
    values, _, _, crossing = operator_grid(np.array([z]), p, f, g)
    if not crossing[0]:
        want = mpmath_operator(f, g, identity, p.alpha, p.beta, p.gamma, z)
        assert abs(values[0] - want) <= 1e-12 * abs(want)


def test_continuation_lowers_the_step_for_a_long_factor():
    """f' of Koebe degree 48 holds more than _SHIFT_TERMS + 1 terms, so the
    step certificate adds the Lagrange remainder of its majorant; on the
    ray to 0.7i that remainder lowers the step, and the value stays within
    1e-12 of the mpmath reference."""
    f = catalog_build("koebe", {"degree": 48})
    identity = catalog_build("identity")
    p = ParameterSet(alpha=0.5)
    z = np.array([0.7j])
    assert f.degree > _SHIFT_TERMS + 1
    assert _series_plan(f, identity, identity, p.alpha, p.beta, p.gamma).radius < 0.7
    lowered = []

    def counted(rung, bad):
        before = rung.copy()
        _descend(rung, bad)
        lowered.append(int((rung - before).sum()))

    with mock.patch.object(operator, "_descend", counted):
        values, _, steps, crossing = operator_grid(z, p, f)
    assert sum(lowered) >= 1 and steps > 0 and not crossing.any()
    want = mpmath_operator(f, identity, identity, p.alpha, p.beta, p.gamma, z[0])
    assert abs(values[0] - want) <= 1e-12 * abs(want)
