"""The array chain and extension layer: chain_grid / transfer_grid against
one-point calls of themselves and the example31 closed form, batching,
typed errors, and values pinned from the former one-point implementation."""

import cmath
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from univalence_lab import (
    ParameterSet,
    beltrami_ring,
    catalog_build,
    criterion_values,
    hyp2f1,
    operator_grid,
    pde_residual,
    polar_samples,
    principal_power,
    series,
    subordination_probe,
)
from univalence_lab import _kernels, operator
from univalence_lab.chain import _transfer_from_G, chain_grid, transfer_grid
from univalence_lab.cli import bundled_configs, parse_config
from univalence_lab.errors import (
    BranchCrossingError,
    ConvergenceError,
    DerivativeVanishes,
    DomainError,
    HypothesisViolation,
    TransferPoleError,
)
from univalence_lab.extension import beltrami_grid, extend_grid
from univalence_lab.series import SeriesFunction

from .conftest import random_disk_points

GAMMAS = (1.0, 0.3, 0.5 + 0.5j, 2.0 + 1.0j)
SPEEDS = ((1.0, 1.0), (2.0, 0.7))  # (m, a)
INTERIOR = (0.0, 0.5, -0.3 + 0.6j, 0.9j, 0.7 * cmath.exp(2.0j), 1e-6)
BOUNDARY = (1.0, cmath.exp(1.0j), -1.0j)
TIMES = (0.0, 0.3, 1.2)

# A one-ulp change of F moves a central difference of step h by about
# eps / (2h) relative to |F'|.  Batching changes the summation order inside
# operator_grid, so values derived from FD stencils (h = 1e-5, as in
# pde_residual) can only be pinned to a few times that.
FD_TOL = 4.0 * np.finfo(float).eps / (2.0 * 1e-5)


def _points():
    """(z, t) pairs covering t = 0, z = 0, |z| = 1 with t > 0."""
    pairs = [(z, t) for z in INTERIOR for t in TIMES]
    pairs += [(z, t) for z in BOUNDARY for t in TIMES if t > 0]
    z, t = zip(*pairs)
    return np.array(z, dtype=complex), np.array(t)


# one call per entry point with the bad value x at one point, or as t (a
# complex x gives its imaginary part)
NON_FINITE_CALLS = {
    "eval_many": lambda x, p, f, g: series.eval_many(f, [0.3, x]),
    "log_derivative": lambda x, p, f, g: series.log_derivative(f, [0.3, x]),
    "criterion_bracket": lambda x, p, f, g: series.criterion_bracket(f, g, None, p.alpha, p.beta, [0.3, x]),
    "criterion_values": lambda x, p, f, g: criterion_values("thm31", np.array([0.3, x]), p, f, g),
    "transfer_grid": lambda x, p, f, g: transfer_grid([0.3, x], 0.2, p, f, g),
    "beltrami_grid": lambda x, p, f, g: beltrami_grid([1.5, x], p, f, g),
    "operator_grid": lambda x, p, f, g: operator_grid([0.3, x], p, f, g),
    "extend_grid": lambda x, p, f, g: extend_grid([0.3, x], p, f, g),
    "chain_grid": lambda x, p, f, g: chain_grid([0.3, x], 0.2, p, f, g),
    "chain_grid[t]": lambda x, p, f, g: chain_grid(0.3, [0.2, x if isinstance(x, float) else x.imag], p, f, g),
    "hyp2f1": lambda x, p, f, g: hyp2f1(1.0, 1.0, 2.0, x),
}


def _params(gamma, m, a):
    return ParameterSet(alpha=0.5, beta=0.5, gamma=gamma, m=m, a=a)


def _close(batch, single, rel):
    single = np.asarray(single)
    return np.all(np.abs(batch - single) <= rel * np.abs(single))


def _single(grid, z, t, *args):
    """grid called on each (z, t) pair alone, results stacked like a batch."""
    out = [grid(zz, tt, *args) for zz, tt in zip(z, t)]
    return tuple(np.array(col) for col in zip(*out))


class TestAgainstWrappers:
    """A batch against one-point calls of the same array function: a value
    does not depend on the batch it is computed in."""

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("m,a", SPEEDS)
    def test_chain_batch_matches_points(self, gamma, m, a, f_quarter, g_half, identity):
        p = _params(gamma, m, a)
        z, t = _points()
        values, flagged = chain_grid(z, t, p, f_quarter, g_half, identity)
        single, single_flagged = _single(chain_grid, z, t, p, f_quarter, g_half, identity)
        assert not single_flagged.any()
        assert values.shape == z.shape and flagged.dtype == bool
        assert not flagged.any()
        assert _close(values, single, 1e-14)
        assert values[z == 0].tolist() == [0.0] * int(np.sum(z == 0))

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("m,a", SPEEDS)
    def test_transfer_batch_matches_points(self, gamma, m, a, f_quarter, g_half, identity):
        p = _params(gamma, m, a)
        z, t = _points()
        batch = transfer_grid(z, t, p, f_quarter, g_half, identity)
        single = _single(transfer_grid, z, t, p, f_quarter, g_half, identity)
        for j in range(3):
            assert _close(batch[j], single[j], 1e-14)

    def test_broadcasting(self, f_quarter, g_half, identity, params_ref):
        z = np.array([0.2, 0.5j, -0.7])
        t = np.array([[0.0], [0.5]])
        values, flagged = chain_grid(z, t, params_ref, f_quarter, g_half, identity)
        assert values.shape == flagged.shape == (2, 3)
        G, w, pv = transfer_grid(z, t, params_ref, f_quarter, g_half, identity)
        assert G.shape == w.shape == pv.shape == (2, 3)
        assert values[1, 2] == chain_grid(-0.7, 0.5, params_ref, f_quarter, g_half, identity)[0]

    def test_larger_than_one_batch(self, f_quarter, g_half, identity, rng):
        p = _params(0.5 + 0.5j, 2.0, 0.7)
        n = 133
        z = 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        t = rng.uniform(0.0, 2.0, size=n)
        values, _ = chain_grid(z, t, p, f_quarter, g_half, identity)
        single, _ = _single(chain_grid, z, t, p, f_quarter, g_half, identity)
        assert _close(values, single, 1e-14)

    def test_empty(self, f_quarter, params_ref):
        values, flagged = chain_grid(np.array([], dtype=complex), 0.5, params_ref, f_quarter)
        assert values.shape == flagged.shape == (0,)


class TestClosedForm:
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("m,a", SPEEDS)
    def test_example31(self, gamma, m, a, f_quarter, g_half, identity):
        # f' = g/phi = 1 + z/2, so h = (1 + z/2)^(alpha+beta) and the bracket
        # is 2F1(gamma, -(alpha+beta); 1+gamma; -zeta/2)
        p = _params(gamma, m, a)
        s = p.alpha + p.beta
        z, t = _points()
        values, _ = chain_grid(z, t, p, f_quarter, g_half, identity)
        for zz, tt, L in zip(z, t, values):
            if zz == 0:
                continue
            zeta = math.exp(-a * tt) * zz
            atg = a * tt * p.gamma
            inner = cmath.exp(-atg) * hyp2f1(p.gamma, -s, 1.0 + p.gamma, -zeta / 2.0) + (
                cmath.exp(m * atg) - cmath.exp(-atg)
            ) * principal_power(1.0 + zeta / 2.0, s)
            want = zz * principal_power(inner, 1.0 / p.gamma)
            assert abs(L - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("m,a", SPEEDS)
    def test_example31_transfer(self, gamma, m, a, f_quarter, g_half, identity):
        # z f''/f' = z g'/g - 1 = zeta/(2 + zeta) for f = z + z^2/4, g = z + z^2/2
        p = _params(gamma, m, a)
        z, t = _points()
        G, w, pv = transfer_grid(z, t, p, f_quarter, g_half, identity)
        zeta = np.exp(-a * t) * z
        G_want = (p.alpha + p.beta) * zeta / (2.0 + zeta) / p.gamma * (
            1.0 - np.exp(-(m + 1.0) * a * t * p.gamma)
        )
        w_want = ((1.0 + a) * G_want + 1.0 - m * a) / ((1.0 - a) * G_want + 1.0 + m * a)
        assert np.all(np.abs(G - G_want) <= 1e-14 * (1.0 + np.abs(G_want)))
        assert np.all(np.abs(w - w_want) <= 1e-14 * (1.0 + np.abs(w_want)))
        assert np.all(np.abs(pv - (1.0 + w_want) / (1.0 - w_want)) <= 1e-13 * np.abs(pv))


class TestOperatorRoot:
    """The chain takes its root through the operator's, so L(z, 0) is F(z)
    bit for bit and the extension inside the disk is the operator."""

    @pytest.mark.parametrize("gamma", [1.0, 1e-8, 1e-11, 1e-14])
    def test_t_zero_is_the_operator(self, gamma, f_quarter, g_half, identity):
        # on the point counts of the stacked pass of S and h (up to 256) and
        # past it, where S and h go one at a time
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=gamma)
        ring = np.concatenate([polar_samples(8, 16, 0.9), [0.5, -0.7 + 0.3j, 0.9j]])
        disk = random_disk_points(np.random.default_rng(7), 4097, 0.95)
        for z in (ring, ring[-1:], ring[-6:], disk[:256], disk[:257], disk):
            values, flagged = chain_grid(z, 0.0, p, f_quarter, g_half, identity)
            want, _, _, crossing = operator_grid(z, p, f_quarter, g_half, identity)
            assert values.tobytes() == want.tobytes() and np.array_equal(flagged, crossing)

    @pytest.mark.parametrize("name", sorted(bundled_configs()))
    def test_t_zero_is_the_operator_on_bundled_configs(self, name):
        spec = parse_config(bundled_configs()[name])
        z = polar_samples(16, 64, 0.99)
        values, flagged = chain_grid(z, 0.0, spec.params, spec.f, spec.g, spec.phi)
        want, _, _, crossing = operator_grid(z, spec.params, spec.f, spec.g, spec.phi)
        assert np.array_equal(values, want) and np.array_equal(flagged, crossing)

    @pytest.mark.parametrize("gamma", [1e-8, 1e-11, 1e-14])
    def test_small_gamma_keeps_its_digits(self, gamma, f_quarter, g_half, identity):
        # h = 1 + u/2 and B = 1 + gamma zeta / (2 (gamma + 1)) on example31
        mp = pytest.importorskip("mpmath")
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=gamma, m=2.0, a=0.7)
        z = np.array([0.5, -0.7 + 0.3j, 0.9j, 0.3 - 0.2j])
        t = np.array([0.3, 1.0, 0.05, 2.0])
        values, _ = chain_grid(z, t, p, f_quarter, g_half, identity)
        with mp.workdps(40):
            for zz, tt, L in zip(z, t, values):
                zz, x, g = mp.mpc(complex(zz)), mp.mpf(p.a * tt), mp.mpf(gamma)
                zeta = mp.exp(-x) * zz
                inner = mp.exp(-x * g) * (1 + g * zeta / (2 * (g + 1))) + (
                    mp.exp(p.m * x * g) - mp.exp(-x * g)
                ) * (1 + zeta / 2)
                want = complex(zz * mp.exp(mp.log(inner) / g))
                assert abs(L - want) <= 1e-14 * abs(want)

    def test_underflowed_value_raises(self):
        # f = z + 1000 z^2: L(z, 0) = F(z) -> z e^(2000 z) as gamma -> 0, which
        # underflows to 0 at z = -0.9 and overflows at z = 0.5; the overflow
        # raises no numpy warning, the typed error is the report
        f = SeriesFunction(np.array([1.0, 1000.0]))
        p = ParameterSet(gamma=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="not a finite nonzero number"):
                chain_grid([0.5, -0.9], 0.0, p, f)
            with pytest.raises(ConvergenceError, match="not a finite nonzero number"):
                operator_grid([0.5, -0.9], p, f)

    def test_large_bracket_stays_finite(self, f_quarter, g_half, identity):
        # e^{m a t} = e^500: the bracket passes 1e154, where |1 + w|^2 - 1
        # would overflow; h = 1 + u/2 and B = 1 + zeta/4 on example31 at gamma = 1
        p = ParameterSet(alpha=0.5, beta=0.5, m=500.0)
        z = np.array([0.5, -0.3j, 0.9 * cmath.exp(2.0j)])
        values, flagged = chain_grid(z, 1.0, p, f_quarter, g_half, identity)
        zeta = math.exp(-1.0) * z
        want = z * (math.exp(-1.0) * (1.0 + zeta / 4.0) + (math.exp(500.0) - math.exp(-1.0)) * (1.0 + zeta / 2.0))
        assert not flagged.any()
        assert np.all(np.abs(values - want) <= 1e-13 * np.abs(want))

    def test_extend_inside_is_the_operator(self):
        # (f')^(1/2) with f' = (1 + 1.5 u)^2 is flagged on the negative axis
        # past -2/3, so the comparison covers flagged points too
        f = SeriesFunction(np.array([1.0, 1.5, 0.75]))
        p = ParameterSet(alpha=0.5, beta=0.0)
        z = np.concatenate([[0.0], polar_samples(12, 32, 0.95)])
        values, flagged = extend_grid(z, p, f)
        want, _, _, crossing = operator_grid(z, p, f)
        assert crossing.any()
        assert np.array_equal(values, want) and np.array_equal(flagged, crossing)


class TestFlags:
    def test_branch_crossing_flagged(self, identity):
        # f' = (1 + 1.5 z)^2 winds past the negative axis on the ray to
        # -0.9 +- 0.1i, so (f')^(1/2) leaves the principal branch there
        f = SeriesFunction(np.array([1.0, 1.5, 0.75]))
        p = ParameterSet(alpha=0.5, beta=0.0)
        values, flagged = chain_grid([-0.9 + 0.1j, 0.3, -0.9 - 0.1j], [0.0, 0.2, 0.1], p, f)
        assert flagged.tolist() == [True, False, True]
        assert np.all(np.isfinite(values))

    def test_extend_grid_carries_flags(self, identity):
        f = SeriesFunction(np.array([1.0, 1.5, 0.75]))
        p = ParameterSet(alpha=0.5, beta=0.0)
        u = cmath.exp(7j * math.pi / 8)
        _, flagged = extend_grid([1.1 * u, 0.9 * u, 0.5, 1.5], p, f)
        assert flagged.tolist() == [True, True, False, False]

    def test_flagged_points_raise(self, identity):
        f = SeriesFunction(np.array([1.0, 1.5, 0.75]))
        p = ParameterSet(alpha=0.5, beta=0.0)
        with pytest.raises(BranchCrossingError, match="stencil"):
            pde_residual(-0.9 - 0.1j, 0.1, p, f)
        with pytest.raises(BranchCrossingError, match="curve"):
            subordination_probe(0.0, 0.1, 0.9, p, f, samples=16)

    def test_one_point_calls_are_flagged(self, identity):
        f = SeriesFunction(np.array([1.0, 1.5, 0.75]))
        p = ParameterSet(alpha=0.5, beta=0.0)
        u = cmath.exp(7j * math.pi / 8)
        assert chain_grid(-0.9 + 0.1j, 0.0, p, f)[1]
        assert extend_grid(0.9 * u, p, f)[1]
        assert extend_grid(1.1 * u, p, f)[1]
        # an unflagged point evaluates to its value in a batch
        value, flagged = chain_grid(0.5, 0.0, p, f)
        assert not flagged and value == chain_grid([0.5, -0.9 + 0.1j], 0.0, p, f)[0][0]
        value, flagged = extend_grid(1.5, p, f)
        assert not flagged and value == extend_grid([1.5, 1.1 * u], p, f)[0][0]


class TestErrors:
    """One bad point in a batch raises what a one-point call raises for it."""

    @pytest.mark.parametrize(
        "bad_z,bad_t,message",
        [
            (0.5, -0.1, "t must be >= 0"),
            (1.0, 0.0, "need |z| < 1"),
            (1.5, 1.0, "need |z| < 1"),
            ((1.0 + 1e-14) * cmath.exp(0.7j), 0.1, "need |z| < 1"),  # past series.DISK_SLACK
        ],
    )
    def test_chain_bad_point(self, bad_z, bad_t, message, f_quarter, params_ref):
        with pytest.raises(DomainError) as single:
            chain_grid(bad_z, bad_t, params_ref, f_quarter)
        z = np.array([0.1, 0.5j, bad_z, -0.3])
        t = np.array([0.2, 0.0, bad_t, 1.0])
        with pytest.raises(DomainError) as batch:
            chain_grid(z, t, params_ref, f_quarter)
        assert str(batch.value) == str(single.value)
        assert str(single.value).startswith(message)

    def test_chain_rounding_slack(self, f_quarter, params_ref):
        # where t > 0, |z| may pass 1 by series.DISK_SLACK, as a rounded z/|z| does
        z = (1.0 + 5e-16) * cmath.exp(0.7j)
        assert abs(z) > 1.0
        L, flagged = chain_grid(z, 0.1, params_ref, f_quarter)
        assert np.isfinite(L) and not flagged

    def test_chain_gamma(self, f_quarter):
        with pytest.raises(HypothesisViolation):
            chain_grid([0.1, 0.2], 0.5, ParameterSet(gamma=-1.0), f_quarter)

    def test_transfer_derivative_vanishes(self, identity, params_ref):
        f = SeriesFunction(np.array([1.0, 0.5]))  # f' = 1 + z vanishes at -1
        with pytest.raises(DerivativeVanishes) as exc:
            transfer_grid([0.3, -1.0, 0.5j], 0.0, params_ref, f, identity, identity)
        assert exc.value.witness == -1.0

    def test_transfer_domain(self, f_quarter, params_ref):
        with pytest.raises(DomainError):
            transfer_grid([0.3, 1.5], 0.0, params_ref, f_quarter)

    @pytest.mark.parametrize("bad_t", [-0.1, math.inf, math.nan])
    def test_transfer_t_as_chain(self, bad_t, f_quarter):
        # a negative t is a point of no chain and t = inf its limit: both
        # are rejected with chain_grid's text, before any point is read
        with pytest.raises(DomainError) as chain:
            chain_grid(0.5, bad_t, ParameterSet(), f_quarter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as transfer:
                transfer_grid([0.3, 0.5], [0.2, bad_t], ParameterSet(), f_quarter)
        assert str(transfer.value) == str(chain.value) == "t must be >= 0 and finite"

    @pytest.mark.parametrize("t", [0.5j, 0.5 + 0j, np.array([0.2, 0.5 + 0j])])
    @pytest.mark.parametrize("entry", ["chain_grid", "transfer_grid", "pde_residual"])
    def test_complex_t(self, entry, t, f_quarter, g_half, params_ref):
        # a complex dtype is refused even where every imaginary part is 0
        call = {"chain_grid": chain_grid, "transfer_grid": transfer_grid, "pde_residual": pde_residual}[entry]
        with pytest.raises(DomainError, match="t must be real"):
            call(0.3 + 0.1j, t, params_ref, f_quarter, g_half)

    def test_transfer_poles(self):
        with pytest.raises(TransferPoleError, match="denominator"):
            _transfer_from_G(np.array([0.1, 3.0]), 1.0, 2.0)
        with pytest.raises(TransferPoleError, match="w = 1"):
            _transfer_from_G(np.array([0.1, 1.0]), 1.0, 2.0)

    def test_beta_zero_ignores_g_and_phi(self, f_quarter):
        # g = z + 2z^2 vanishes at -1/2, and a truncated Koebe g warns near
        # the circle, but at beta = 0 neither enters the chain
        p = ParameterSet(alpha=0.5, beta=0.0)
        g = SeriesFunction(np.array([1.0, 2.0]))
        assert np.isfinite(chain_grid(-0.5, 0.0, p, f_quarter, g)[0])
        assert np.all(np.isfinite(transfer_grid(-0.5, 0.0, p, f_quarter, g)))
        assert np.isfinite(beltrami_grid(-2.0, p, f_quarter, g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transfer_grid(0.999, 0.0, p, f_quarter, catalog_build("koebe", {"degree": 64}))

    def test_beltrami_domain(self, identity, params_ref):
        for bad_z in (1.0, -1.0j, 0.5, 0.0):
            with pytest.raises(DomainError, match=r"need \|z\| > 1"):
                beltrami_grid([1.5, bad_z], params_ref, identity)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, -math.inf)])
    @pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
    def test_non_finite_point_raises(self, name, bad, f_quarter, g_half, params_ref):
        # a bound written "not (x <= bound)" fails at NaN too, so no NaN
        # comes back, flagged or not
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf / inf on the way in
            with pytest.raises(DomainError):
                NON_FINITE_CALLS[name](bad, params_ref, f_quarter, g_half)


class TestExtendGrid:
    def test_matches_points_and_seam(self, f_quarter, g_half, identity, params_ref):
        z = np.array([0.0, 0.4 + 0.3j, 1.0, cmath.exp(0.5j), 1.7 * cmath.exp(2.5j)])
        F, flagged = extend_grid(z, params_ref, f_quarter, g_half, identity)
        assert F[0] == 0.0
        assert not flagged.any()
        for zz, v in zip(z, F):
            single, _ = extend_grid(zz, params_ref, f_quarter, g_half, identity)
            assert v == pytest.approx(single, rel=1e-14)

    def test_unit_circle_overshoot(self, identity):
        # z/|z| rounds to modulus 1 + 2.2e-16 for about 8% of angles
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=1.0)
        z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1000))
        assert np.sum(np.abs(z / np.abs(z)) > 1.0) > 0
        F, _ = extend_grid(z, p, identity, identity, identity)
        assert np.all(np.abs(F - z) <= 1e-5)


def _exact_example31_mu(z, h):
    """d_zbar F / d_z F by the 4-point stencil of step h, in exact rational
    arithmetic on the example31 closed form outside the unit disk."""

    def F(x, y):  # (re, im) of z + (z^2 / r^2)(1/2 - 1/(4 r^2))
        r2 = x * x + y * y
        c = Fraction(1, 2) - 1 / (4 * r2)
        return x + (x * x - y * y) / r2 * c, y + 2 * x * y / r2 * c

    x, y, hq = Fraction(z.real), Fraction(z.imag), Fraction(h)
    (a, b), (c, d) = F(x + hq, y), F(x - hq, y)
    (e, f), (g, k) = F(x, y + hq), F(x, y - hq)
    dx = ((a - c) / (2 * hq), (b - d) / (2 * hq))
    dy = ((e - g) / (2 * hq), (f - k) / (2 * hq))
    # d_z = (dx - i dy)/2, d_zbar = (dx + i dy)/2; the halves cancel
    num = (dx[0] - dy[1], dx[1] + dy[0])
    den = (dx[0] + dy[1], dx[1] - dy[0])
    n2 = den[0] ** 2 + den[1] ** 2
    return complex(
        float((num[0] * den[0] + num[1] * den[1]) / n2),
        float((num[1] * den[0] - num[0] * den[1]) / n2),
    )


class TestPinned:
    """Values of the one-point implementation on the inputs of test_chain.py
    and test_extension.py."""

    def test_pde_residual(self, f_quarter, g_half, identity, params_ref):
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=1.0)
        got = (
            pde_residual(0.4 + 0.2j, 0.5, p, identity, identity, identity),
            pde_residual(0.4 + 0.2j, 0.3, params_ref, f_quarter, g_half, identity),
            pde_residual(0.5, 0.0, params_ref, f_quarter, g_half, identity),
        )
        want = (8.324713445743318e-10, 1.020112693849137e-09, 1.3288042459367487e-09)
        assert np.allclose(got, want, rtol=0.0, atol=FD_TOL)

    def test_subordination_probe(self, f_quarter, g_half, identity, params_ref):
        p = ParameterSet(alpha=1.0, beta=1.0)
        ident = (identity, identity, identity)
        assert subordination_probe(0.1, 0.5, 0.8, p, *ident, samples=16) is True
        assert subordination_probe(0.3, 0.3, 0.6, p, *ident, samples=16) is True
        assert subordination_probe(0.1, 0.5, 0.8, params_ref, f_quarter, g_half, identity) is True

    def test_beltrami_ring_identity(self, identity):
        # w = -1/3 for the identity at m = 1, a = 2, so mu = (z/zbar)/3
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=2.0)
        ring = beltrami_ring(p, identity, identity, identity, radii=(1.2, 1.6), n_theta=4)
        got = np.array([s.mu for s in ring])
        z = np.array([s.z for s in ring])
        assert np.allclose(got, (z / np.conj(z)) / 3.0, rtol=0.0, atol=1e-15)
        assert np.allclose(np.abs(got), 1.0 / 3.0, rtol=0.0, atol=1e-15)

    def test_beltrami_ring_example31(self, f_quarter, g_half, identity, params_ref):
        # Against the exact mu of the closed form.  For example31 at alpha =
        # beta = 1/2, gamma = m = a = 1 the extension outside the disk is
        #   F(z) = z + (z^2/r^2) (1/2 - 1/(4 r^2)),  r = |z|,
        # rational in (x, y); a stencil of step 1e-30 in rational arithmetic
        # is its derivative to far below one ulp.
        ring = beltrami_ring(params_ref, f_quarter, g_half, identity, radii=(1.05, 2.0), n_theta=4)
        got = np.array([s.mu for s in ring])
        want = np.array([_exact_example31_mu(s.z, Fraction(1, 10**30)) for s in ring])
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)


def _stencil_mu(z, p, f, g=None, phi=None, h=1e-5):
    """d_zbar F / d_z F by the 4-point central stencil of step h on
    extend_grid values, and whether any stencil value was flagged."""
    z = np.asarray(z, dtype=np.complex128)
    F, flagged = extend_grid(z[:, None] + np.array([h, -h, 1j * h, -1j * h]), p, f, g, phi)
    dx = (F[:, 0] - F[:, 1]) / (2.0 * h)
    dy = (F[:, 2] - F[:, 3]) / (2.0 * h)
    return (dx + 1j * dy) / (dx - 1j * dy), flagged.any(axis=1)


def _beltrami_families():
    ident = catalog_build("identity")
    quad = (catalog_build("quadratic", {"c": 0.25}), catalog_build("quadratic", {"c": 0.5}), ident)
    families = {}
    for name in ("example31_thm32", "example31_thm41"):
        spec = parse_config(bundled_configs()[name])
        families[name] = (spec.params, spec.f, spec.g, spec.phi)
    families["identity_a2"] = (ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=2.0), ident, ident, ident)
    quad_p = ParameterSet(alpha=0.5, beta=0.5, gamma=0.7 + 0.4j, m=2.0, a=0.6)
    families["quadratic_gamma"] = (quad_p, *quad)
    f_exp = catalog_build("expscaled", {"lam": 0.5, "degree": 24})
    families["expscaled24"] = (ParameterSet(alpha=0.5, m=1.5, a=1.4), f_exp, None, None)
    return families


class TestBeltramiOracle:
    """The closed-form mu against a central-difference stencil on the
    extension's values.  A one-ulp change of F moves the stencil by about
    eps / (2h) relative to |F'|, so agreement is to ~1e-10, not to ulps."""

    @pytest.mark.parametrize("name", sorted(_beltrami_families()))
    def test_matches_stencil(self, name):
        p, f, g, phi = _beltrami_families()[name]
        rng = np.random.default_rng(2024)
        z = rng.uniform(1.02, 5.0, 128) * np.exp(2j * np.pi * rng.uniform(size=128))
        want, flagged = _stencil_mu(z, p, f, g, phi)
        assert not flagged.any()
        got = beltrami_grid(z, p, f, g, phi)
        assert np.allclose(got, want, rtol=0.0, atol=2e-10)

    def test_flagged_points(self):
        # mu needs no branch of F: at points whose extension value crossed
        # a branch it still matches the stencil of the flagged values
        f = SeriesFunction(np.array([1.0, 1.5, 0.75]))
        p = ParameterSet(alpha=0.5, beta=0.0)
        z = 1.1 * np.exp(np.array([7j, -7j]) * math.pi / 8)
        want, flagged = _stencil_mu(z, p, f)
        assert flagged.all()
        assert np.allclose(beltrami_grid(z, p, f), want, rtol=0.0, atol=5e-10)


class TestPreparedOnce:
    """A chain call pays for arithmetic, not set-up: S and h of the plan go
    through one Horner pass, and transfer calls on one problem reuse one
    prepared bracket stack."""

    def test_chain_grid_makes_one_pass_and_one_plan_lookup(self, f_quarter, g_half, identity):
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0)
        z = 0.3 * np.exp(2j * np.pi * np.arange(6) / 6)  # the size of the pde_residual stencil
        t = 0.4
        assert np.abs(z).max() <= operator._series_plan(f_quarter, g_half, identity, p.alpha, p.beta, p.gamma).radius
        before = operator._series_plan.cache_info()
        with (
            mock.patch.object(_kernels, "_horner0", wraps=_kernels._horner0) as passes,
            mock.patch.object(_kernels, "polyval", wraps=_kernels.polyval) as alone,
        ):
            values, _ = chain_grid(z, t, p, f_quarter, g_half, identity)
        after = operator._series_plan.cache_info()
        assert passes.call_count == 1 and alone.call_count == 0
        assert after.hits + after.misses == before.hits + before.misses + 1
        # the pass keeps the bits of S and h one at a time
        for zz, L in zip(z, values):
            assert chain_grid(zz, t, p, f_quarter, g_half, identity)[0].tobytes() == L.tobytes()

    def test_transfer_prepares_its_stack_once(self, params_ref):
        # a problem of its own, so its first call prepares the stack
        f = SeriesFunction(np.array([1.0, 0.25, 0.01j]), label="f")
        g = SeriesFunction(np.array([1.0, 0.5]), label="g")
        z = np.array([0.3, -0.2 + 0.4j, 0.5j])
        stack = _kernels.SeriesStack
        with mock.patch.object(stack, "__init__", autospec=True, side_effect=stack.__init__) as prepare:
            results = [transfer_grid(z, t, params_ref, f, g) for t in (0.1, 0.5, 0.1)]
            pde_residual(0.3 + 0.1j, 0.5, params_ref, f, g)
        assert prepare.call_count == 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(results[0], results[2]))

    def test_transfer_builds_no_plan(self, f_quarter, g_half):
        # the transfer reads the criterion bracket only: at gamma = -1, where
        # the operator plan is not certified, it still works, and no plan is
        # looked up
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=-1.0)
        before = operator._series_plan.cache_info()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                G, w, pv = transfer_grid([0.3, 0.5j], [0.2, 0.7], p, f_quarter, g_half)
        assert operator._series_plan.cache_info() == before
        assert np.all(np.isfinite(G)) and np.all(np.isfinite(w)) and np.all(np.isfinite(pv))

    def test_equal_series_keep_their_own_stacks(self):
        # the pair of TestPreparedStack.test_series_told_apart_by_their_bits:
        # equal series whose imaginary parts are +0.0 and -0.0
        plus = SeriesFunction(np.array([1.0, 0.3, -0.2, 0.1, 0.05 + 0j]), label="plus")
        minus = SeriesFunction(np.conj(plus.coefficients), label="minus")
        assert plus == minus and hash(plus) == hash(minus)
        p = ParameterSet(alpha=0.5, beta=0.5)
        ident = catalog_build("identity")
        z = np.conj(np.array([-0.5, -0.9, 0.5, -0.2, 0.0, -0.7], dtype=np.complex128))
        stacks = []

        def polyval012(stack, points, _run=_kernels.polyval012):
            stacks.append(stack)
            return _run(stack, points)

        with mock.patch.object(_kernels, "polyval012", polyval012):
            for s in (plus, minus, minus):
                G = transfer_grid(z, 0.0, p, s, s, ident)[0]
                assert G.tobytes() == transfer_grid(z, 0.0, p, s, s, ident)[0].tobytes()
        first_plus, _, first_minus, _, again_minus, _ = stacks
        assert first_minus is again_minus and first_minus is not first_plus
        assert first_minus.series[0].tobytes() == minus.coefficients.tobytes()
        assert first_plus.series[0].tobytes() == plus.coefficients.tobytes()
