"""Subordination chain, transfer functions, PDE residual, subordination probe."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest

from univalence_lab import (
    ParameterSet,
    chain_grid,
    operator_grid,
    oracle,
    pde_residual,
    subordination_probe,
    transfer_grid,
)
from univalence_lab.chain import T_CLAMP, _transfer_from_G
from univalence_lab.errors import DomainError, HypothesisViolation, InconclusiveError, TransferPoleError


def _chain(z, t, p, f, g=None, phi=None):
    """L(z, t) from a one-point chain_grid call, which must be unflagged."""
    values, flagged = chain_grid(z, t, p, f, g, phi)
    assert not flagged
    return complex(values)


class TestChainEval:
    def test_t_zero_equals_operator(self, f_quarter, g_half, identity, params_ref):
        for z in (0.5, -0.3 + 0.6j):
            L = _chain(z, 0.0, params_ref, f_quarter, g_half, identity)
            F = complex(operator_grid(z, params_ref, f_quarter, g_half, identity)[0])
            assert L == pytest.approx(F, rel=1e-12)

    def test_identity_closed_form(self, identity):
        for gamma in (1.0, 2 + 1j, 0.5 + 0.8j):
            for m, a in ((1.0, 1.0), (2.0, 0.7)):
                p = ParameterSet(alpha=1.0, beta=1.0, gamma=gamma, m=m, a=a)
                for z, t in ((0.5 + 0.2j, 0.4), (0.9, 1.5)):
                    L = _chain(z, t, p, identity, identity, identity)
                    assert L == pytest.approx(cmath.exp(m * a * t) * z, rel=1e-12)

    def test_origin(self, f_quarter, params_ref):
        assert _chain(0.0, 0.7, params_ref, f_quarter) == 0.0

    def test_first_coefficient(self, f_quarter, g_half, identity, params_ref):
        # (L(h, t) - L(0, t)) / h matches exp(m a t) to relative 1e-4
        h = 1e-6
        for t in (0.3, 1.0):
            L = _chain(h, t, params_ref, f_quarter, g_half, identity)
            coeff = L / h
            assert abs(coeff - math.exp(params_ref.m * params_ref.a * t)) <= 1e-4 * abs(coeff)

    def test_growth_envelope(self, f_quarter, g_half, identity, params_ref):
        for t in (0.0, 1.0, 3.0, 5.0):
            L = _chain(0.5, t, params_ref, f_quarter, g_half, identity)
            ratio = abs(L) / math.exp(params_ref.m * params_ref.a * t)
            assert 0.1 <= ratio <= 10.0

    def test_domain(self, identity, params_ref):
        with pytest.raises(DomainError):
            chain_grid(0.5, -0.1, params_ref, identity)
        with pytest.raises(DomainError):
            chain_grid(1.0, 0.0, params_ref, identity)
        with pytest.raises(DomainError):
            chain_grid(1.5, 1.0, params_ref, identity)
        with pytest.raises(HypothesisViolation):
            chain_grid(0.5, 0.5, ParameterSet(gamma=-1.0), identity)
        # boundary point is fine once t > 0
        _chain(1.0, 0.5, params_ref, identity)


class TestTransfer:
    def test_identity_values(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=1.0)
        G, w, pval = transfer_grid(0.5, 0.3, p, identity, identity, identity)
        assert G == 0.0
        assert w == 0.0
        assert pval == 1.0

    def test_identity_general_ma(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=2.0, a=0.5)
        G, w, _ = transfer_grid(0.3, 0.7, p, identity, identity, identity)
        assert G == 0.0
        assert w == pytest.approx((1 - p.m * p.a) / (1 + p.m * p.a), rel=1e-14)

    def test_t_zero_gives_zero_G(self, f_quarter, g_half, identity, params_ref):
        G, w, _ = transfer_grid(0.7, 0.0, params_ref, f_quarter, g_half, identity)
        assert G == 0.0
        assert w == 0.0  # m = a = 1

    def test_reference_point_contractive(self, f_quarter, g_half, identity, params_ref):
        _, w, _ = transfer_grid(0.5, 0.2, params_ref, f_quarter, g_half, identity)
        assert abs(w) < 1.0

    def test_p_from_w(self, f_quarter, g_half, identity, params_ref):
        # p = (1 + w)/(1 - w) away from the identity, where w = 0
        _, w, pval = transfer_grid(0.5, 0.2, params_ref, f_quarter, g_half, identity)
        assert w != 0.0
        assert complex(pval) == pytest.approx((1 + w) / (1 - w), rel=1e-14)

    def test_moebius_identity(self, rng):
        # 4a [ |G|^2 - (m-1) Re G - m ] = |num|^2 - |den|^2 exactly
        for _ in range(100):
            G = complex(rng.normal(), rng.normal())
            m = rng.uniform(0.0, 4.0)
            a = rng.uniform(0.1, 3.0)
            num = (1 + a) * G + 1 - m * a
            den = (1 - a) * G + 1 + m * a
            lhs = 4 * a * (abs(G) ** 2 - (m - 1) * G.real - m)
            assert lhs == pytest.approx(abs(num) ** 2 - abs(den) ** 2, abs=1e-9)

    def test_poles(self):
        with pytest.raises(TransferPoleError):
            _transfer_from_G(3.0, 1.0, 2.0)  # denominator zero
        with pytest.raises(TransferPoleError):
            _transfer_from_G(1.0, 1.0, 2.0)  # w = 1, p undefined


class TestPdeResidual:
    def test_identity(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=1.0)
        r = pde_residual(0.4 + 0.2j, 0.5, p, identity, identity, identity)
        assert r < 1e-6

    def test_reference(self, f_quarter, g_half, identity, params_ref):
        r = pde_residual(0.4 + 0.2j, 0.3, params_ref, f_quarter, g_half, identity)
        assert r < 1e-6

    def test_t_zero_clamped(self, f_quarter, g_half, identity, params_ref):
        r = pde_residual(0.5, 0.0, params_ref, f_quarter, g_half, identity)
        assert r < 1e-6

    def test_domain(self, identity, params_ref):
        with pytest.raises(DomainError):
            pde_residual(0.0, 0.5, params_ref, identity)

    @pytest.mark.parametrize("t", [-5.0, -1e-300, math.nan, math.inf])
    def test_t_outside_the_chain_is_refused(self, f_quarter, g_half, params_ref, t):
        # as transfer_grid refuses it, instead of clamping it to T_CLAMP
        with pytest.raises(DomainError, match="t must be"):
            transfer_grid(0.3 + 0.1j, t, params_ref, f_quarter, g_half)
        with pytest.raises(DomainError, match="t must be"):
            pde_residual(0.3 + 0.1j, t, params_ref, f_quarter, g_half)

    def test_small_t_is_clamped(self, f_quarter, g_half, params_ref):
        r = pde_residual(0.3 + 0.1j, T_CLAMP, params_ref, f_quarter, g_half)
        for t in (0.0, 0.5 * T_CLAMP):
            assert pde_residual(0.3 + 0.1j, t, params_ref, f_quarter, g_half) == r


class TestSubordination:
    def test_identity_nests(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0)
        assert subordination_probe(0.1, 0.5, 0.8, p, identity, identity, identity, samples=16)

    def test_equal_times(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0)
        assert subordination_probe(0.3, 0.3, 0.6, p, identity, identity, identity, samples=16)

    def test_reference(self, f_quarter, g_half, identity, params_ref):
        assert subordination_probe(
            0.1, 0.5, 0.8, params_ref, f_quarter, g_half, identity, samples=64
        )

    def test_domain(self, identity, params_ref):
        with pytest.raises(DomainError):
            subordination_probe(0.5, 0.1, 0.8, params_ref, identity)
        with pytest.raises(DomainError):
            subordination_probe(0.1, 0.5, 1.2, params_ref, identity)

    @pytest.mark.parametrize("samples", [0, -3, 2.5, 16.0, True, False, None, "16"])
    def test_samples_must_be_a_positive_integer(self, identity, params_ref, samples):
        # samples = 0 checked no test point and returned True; -3 and 2.5
        # raised numpy's ValueError and a TypeError
        with pytest.raises(DomainError, match="samples must be an integer >= 1"):
            subordination_probe(0.1, 0.5, 0.8, params_ref, identity, samples=samples)

    def test_one_sample_and_numpy_integers(self, identity, params_ref):
        assert subordination_probe(0.1, 0.5, 0.8, params_ref, identity, samples=1) is True
        assert subordination_probe(0.1, 0.5, 0.8, params_ref, identity, samples=np.int64(8)) is True

    def test_gives_up_after_the_finest_curve(self, identity, params_ref):
        # every count inconclusive: each curve size is tried once, and the
        # error of the 4096-point curve propagates
        sizes = []

        def inconclusive(curve, pts, min_dist):
            sizes.append(curve.size - 1)
            raise InconclusiveError(f"curve of {curve.size - 1} points too close")

        with mock.patch.object(oracle, "argument_principle_check", inconclusive):
            with pytest.raises(InconclusiveError, match="^curve of 4096 points too close$"):
                subordination_probe(0.1, 0.5, 0.8, params_ref, identity, samples=16)
        assert sizes == [256, 512, 1024, 2048, 4096]
