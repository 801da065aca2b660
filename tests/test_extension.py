"""Extension constants, disk containment, the piecewise extension map and
its Beltrami coefficients."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from univalence_lab import (
    ParameterSet,
    beltrami_grid,
    beltrami_ring,
    catalog_build,
    chain_grid,
    disk_containment_check,
    extend_grid,
    extension_constants,
    operator_grid,
)
from univalence_lab.cli import bundled_configs, parse_config
from univalence_lab.errors import DomainError


def _extend(z, p, f, g=None, phi=None):
    """The extension from a one-point extend_grid call, which must be unflagged."""
    value, flagged = extend_grid(z, p, f, g, phi)
    assert not flagged
    return complex(value)


K_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
A_GRID = (0.25, 0.5, 0.75, 1.25, 2.0, 3.0)


class TestConstants:
    def test_l_equals_k_at_a_one(self):
        for k in (0.0, 0.3, 0.8):
            c = extension_constants(k, 1.0)
            assert c.l == k
            assert c.L1 == k and c.curlyL1 == k
            assert c.L2 == -math.inf and c.curlyL2 == -math.inf

    def test_half_half(self):
        c = extension_constants(0.5, 0.5)
        assert c.l == pytest.approx(5.0 / 7.0, abs=1e-12)
        assert c.L1 == c.l

    def test_k_zero(self):
        c = extension_constants(0.0, 0.5)
        assert c.l == pytest.approx(1.0 / 3.0, abs=1e-14)  # (1-a)/(1+a)
        assert c.curlyL1 == 0.0
        assert c.curlyL2 == -math.inf

    def test_gap_formula_on_grid(self):
        # l - k = (1-k^2)(1-a)^2 / (|1-a^2| + k(1-a)^2)
        for k in K_GRID:
            for a in A_GRID:
                c = extension_constants(k, a)
                gap = (1 - k * k) * (1 - a) ** 2 / (abs(1 - a * a) + k * (1 - a) ** 2)
                assert c.l - k == pytest.approx(gap, rel=1e-12)
                assert k <= c.l < 1.0

    def test_root_ordering_on_grid(self):
        for k in K_GRID:
            for a in A_GRID:
                c = extension_constants(k, a)
                assert c.curlyL1 <= c.L1 + 1e-14
                assert c.L2 < 0.0
                assert c.curlyL2 < 0.0

    def test_json(self):
        doc = extension_constants(0.3, 1.0).to_json()
        assert doc["l"] == 0.3
        assert doc["L2"] is None  # -inf encoded as null

    def test_domain(self):
        with pytest.raises(DomainError):
            extension_constants(1.0, 1.0)
        with pytest.raises(DomainError):
            extension_constants(0.5, 0.0)

    @pytest.mark.parametrize("a", [1e78, 1e200, 1e-200])
    def test_extreme_a_is_finite(self, a):
        # (1 - a^2)^2 overflowed to an OverflowError for a past 1.16e77
        for k in (0.0, 0.5):
            c = extension_constants(k, a)
            assert c.a == a
            assert (c.L1, c.L2, c.l) == (1.0, -1.0, 1.0)  # the limit a -> 0 or inf
            assert (c.curlyL1, c.curlyL2) == ((0.0, -math.inf) if k == 0.0 else (1.0, -1.0))

    @pytest.mark.parametrize("a", [1.0000001, 1.25, 2.0, 3.0, 7.5, 1e10, 1e78, 1e200])
    def test_reciprocal_a_is_bit_identical(self, a):
        # every root is invariant under a -> 1/a
        for k in (0.0, 0.3, 0.9):
            c, r = extension_constants(k, a), extension_constants(k, 1.0 / a)
            assert (c.L1, c.L2, c.curlyL1, c.curlyL2, c.l) == (r.L1, r.L2, r.curlyL1, r.curlyL2, r.l)

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.9])
    def test_near_one_against_mpmath(self, k):
        # 1 - a^2 and -2a + root cancel near a = 1: curlyL1 read 0.0 at
        # k = 0.3, a = 1.000000001, where it is 0.3
        mp = pytest.importorskip("mpmath")

        def exact(a):
            with mp.workprec(200):
                kk, aa = mp.mpf(k), mp.mpf(a)
                big_a = abs(1 - aa * aa)
                denom = big_a + kk * (1 - aa) ** 2
                root = mp.sqrt(4 * aa * aa + (big_a * kk) ** 2)
                return (
                    ((1 - aa) ** 2 + kk * big_a) / denom,
                    -((1 + aa) ** 2 + kk * big_a) / denom,
                    (-2 * aa + root) / (kk * (1 - aa) ** 2),
                    (-2 * aa - root) / (kk * (1 - aa) ** 2),
                )

        def close(got, want):
            return all(abs(g - w) <= 1e-14 * abs(w) for g, w in zip(got, want))

        for j in range(1, 51):
            for a in (1.0 + 2.0**-j, 1.0 - 2.0**-j):
                c = extension_constants(k, a)
                roots = (c.L1, c.L2, c.curlyL1, c.curlyL2)
                # the roots are taken at min(a, 1/a), 1/a rounded, as
                # test_reciprocal_a_is_bit_identical pins them; L1 and
                # curlyL1 are smooth at a = 1, so that rounding does not
                # show in them
                assert close(roots, exact(min(a, 1.0 / a))), (j, a)
                assert close(roots[::2], exact(a)[::2]), (j, a)
        assert extension_constants(0.3, 1.000000001).curlyL1 == pytest.approx(0.3, rel=1e-9)

    @pytest.mark.parametrize("a", [math.inf, math.nan, -math.inf])
    def test_non_finite_a_rejected(self, a):
        # a = inf gave l = NaN, which to_json wrote as invalid JSON
        with pytest.raises(DomainError, match="a must be finite and > 0"):
            extension_constants(0.5, a)


class TestContainment:
    def test_equality_root_on_grid(self):
        for k in K_GRID:
            for a in A_GRID + (1.0,):
                c = extension_constants(k, a)
                contained, slack = disk_containment_check(k, a, c.l)
                assert contained
                assert slack >= -1e-12

    def test_below_root_fails(self):
        c = extension_constants(0.5, 0.5)
        contained, slack = disk_containment_check(0.5, 0.5, 0.9 * c.L1)
        assert not contained
        assert slack < 0

    def test_degenerate_zero_case(self):
        contained, slack = disk_containment_check(0.0, 1.0, 0.0)
        assert contained
        assert slack == pytest.approx(0.0, abs=1e-15)

    def test_nondefault_m(self):
        c = extension_constants(0.4, 0.75)
        contained, _ = disk_containment_check(0.4, 0.75, c.l, m=2.5)
        assert contained

    def test_domain(self):
        with pytest.raises(DomainError):
            disk_containment_check(0.5, 1.0, 1.0)

    @pytest.mark.parametrize("a", [1e78, 1e160, 1e200, 1e-200])
    def test_extreme_a_is_the_limit(self, a):
        # the transfer disk shrinks to the point m (a -> inf) or -1 (a -> 0),
        # a distance 1 from the criterion disk's centre; a > 1e154 gave NaN
        assert disk_containment_check(0.5, a, 0.9) == (False, -1.5)

    @pytest.mark.parametrize("a", [0.3, 1.25, 3.0, 1e10, 1e150])
    def test_slack_matches_exact_arithmetic(self, a):
        k, l, m = Fraction(1, 2), Fraction(0.9), Fraction(2)
        aq = Fraction(a)
        D = 2 * aq * (1 + l * l) + (1 - l * l) * (1 + aq * aq)
        center = (aq * (1 + l * l) * (m - 1) + (1 - l * l) * (m * aq * aq - 1)) / D
        slack = 2 * aq * l * (1 + m) / D - abs(center - (m - 1) / 2) - k * (m + 1) / 2
        assert disk_containment_check(0.5, a, 0.9, m=2.0)[1] == pytest.approx(float(slack), rel=0, abs=1e-15)

    @pytest.mark.parametrize(
        "a,m", [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, -0.5), (1.0, math.inf)]
    )
    def test_bad_a_or_m_rejected(self, a, m):
        # these gave (False, -1.5) or (False, nan) instead of an error
        with pytest.raises(DomainError, match="a must be finite and > 0, m finite and >= 0"):
            disk_containment_check(0.5, a, 0.5, m)

    @pytest.mark.parametrize("k", [math.nan, -3.0, -1e-300, 1.0, 2.0, math.inf])
    def test_bad_k_rejected(self, k):
        # k = nan gave (False, nan) and k = -3 (True, 3.5): k lies in
        # [0, 1), as for extension_constants
        with pytest.raises(DomainError, match=r"k must lie in \[0, 1\)"):
            disk_containment_check(k, 0.5, 0.5)
        with pytest.raises(DomainError, match=r"k must lie in \[0, 1\)"):
            extension_constants(k, 0.5)

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, math.inf, -math.inf])
    def test_bad_tol_rejected(self, tol):
        # tol = nan gave (False, 0.2) for a slack of +0.2
        assert disk_containment_check(0.0, 1.0, 0.2) == (True, pytest.approx(0.2))
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            disk_containment_check(0.0, 1.0, 0.2, tol=tol)


class TestBeckerExtend:
    def test_inside_is_operator(self, f_quarter, g_half, identity, params_ref):
        z = 0.4 + 0.3j
        F = _extend(z, params_ref, f_quarter, g_half, identity)
        assert F == pytest.approx(
            complex(operator_grid(z, params_ref, f_quarter, g_half, identity)[0]), rel=1e-13
        )

    def test_identity_everywhere(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=1.0)
        for z in (0.5 + 0.2j, 1.5 * cmath.exp(0.8j), -2.0 + 0.1j):
            assert _extend(z, p, identity, identity, identity) == pytest.approx(
                z, rel=1e-5
            )

    def test_identity_ma2_outside(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=2.0)
        z = 1.5 * cmath.exp(0.8j)
        assert _extend(z, p, identity, identity, identity) == pytest.approx(
            z * abs(z), rel=1e-10
        )

    @given(
        theta=st.floats(-4.0, 4.0),
        r=st.one_of(st.just(1.0), st.floats(1.0, 1.0 + 1e-9), st.floats(1.0, 3.0)),
    )
    @settings(max_examples=200, deadline=None)
    @example(theta=2.557013752954216, r=1.3)  # z/|z| has modulus 1 + 2.2e-16
    @example(theta=3.35270895707058, r=1.3)
    def test_accepts_every_outside_point(self, theta, r):
        # z/|z| can round to modulus 1 + 2.2e-16; the chain must take it
        z = r * complex(math.cos(theta), math.sin(theta))
        assume(abs(z) >= 1.0)
        f = catalog_build("quadratic", {"c": 0.25})
        g = catalog_build("quadratic", {"c": 0.5})
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, a=1.0)
        F = _extend(z, p, f, g)
        assert cmath.isfinite(F)


def _example31_thm41():
    spec = parse_config(bundled_configs()["example31_thm41"])
    return spec.params, spec.f, spec.g, spec.phi


class TestSeam:
    """Outside the disk the extension is the chain at (z/|z|, log|z|) with
    no clamp: t is floored only where a t < 2^-49, for |z| < 1 + 1.8e-15/a."""

    @pytest.mark.parametrize("r", [1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-7, 1.0 + 5e-7])
    def test_extension_is_the_chain_at_log_r(self, r):
        # t clamped to 1e-6 put these 1.42e-6 off on example31_thm41
        p, f, g, phi = _example31_thm41()
        z = r * cmath.exp(0.7j)
        rr = abs(z)
        u = complex(z.real / rr, z.imag / rr)
        F, flagged = extend_grid(z, p, f, g, phi)
        L, _ = chain_grid(u, math.log(rr), p, f, g, phi)
        assert not flagged
        assert F.tobytes() == L.tobytes()

    @pytest.mark.parametrize("r", [1.0, 1.0 + 2.0**-52])
    def test_unit_circle_and_next_float(self, r):
        p, f, g, phi = _example31_thm41()
        z = r * np.append(np.exp(2j * np.pi * np.arange(64) / 64), [1j, -1.0, -1j])
        F, flagged = extend_grid(z, p, f, g, phi)
        assert not flagged.any()
        assert np.all(np.isfinite(F))
        assert np.allclose(F, extend_grid(z * (1.0 + 1e-9), p, f, g, phi)[0], rtol=1e-8, atol=0.0)


class TestBeltrami:
    def test_identity_conformal(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=1.0)
        mu = beltrami_grid(1.5 + 0.2j, p, identity, identity, identity)
        assert abs(mu) < 1e-12

    def test_identity_ma2_third(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=2.0)
        for z in (1.5, 1.3 * cmath.exp(1.0j)):
            mu = beltrami_grid(z, p, identity, identity, identity)
            assert abs(mu) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ring_helper(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=2.0)
        samples = beltrami_ring(p, identity, identity, identity, radii=(1.2, 1.6), n_theta=4)
        assert len(samples) == 8
        for s in samples:
            assert s.modulus == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_seam_exclusion(self, identity):
        with pytest.raises(DomainError):
            beltrami_grid(1.0, ParameterSet(), identity)
