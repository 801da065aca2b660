"""Principal-branch powers and path-continuity tracking."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from univalence_lab import BranchedPath, continuous_power_along_path, principal_power
from univalence_lab.branchpow import track_power, unwrapped_arguments
from univalence_lab.errors import (
    SingularPathError,
    SingularPowerError,
    UndersampledPathError,
)

nonzero_complex = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)
mild_complex = st.complex_numbers(
    max_magnitude=5.0, allow_nan=False, allow_infinity=False
)


class TestPrincipalPower:
    def test_one_to_any(self):
        for c in (1.0, 2 + 1j, -3.5, 0.5 + 0.8j):
            assert principal_power(1.0, c) == 1.0

    def test_principal_square_root(self):
        assert principal_power(-1.0, 0.5) == pytest.approx(1j, abs=1e-15)

    def test_real_base(self):
        assert principal_power(0.25, 2 + 1j) == pytest.approx(
            cmath.exp((2 + 1j) * math.log(0.25)), abs=1e-15
        )

    def test_zero_base(self):
        assert principal_power(0.0, 2 + 1j) == 0.0
        with pytest.raises(SingularPowerError):
            principal_power(0.0, -1.0)
        with pytest.raises(SingularPowerError):
            principal_power(0.0, 1j)
        with pytest.raises(SingularPowerError):
            principal_power(0.0, 0.0)

    @given(w=nonzero_complex)
    @settings(max_examples=100, deadline=None)
    def test_exponent_zero_and_one(self, w):
        assert principal_power(w, 0) == 1.0
        assert principal_power(w, 1) == pytest.approx(w, rel=1e-12)

    @given(w=nonzero_complex, c=mild_complex)
    @settings(max_examples=100, deadline=None)
    def test_modulus_identity(self, w, c):
        got = abs(principal_power(w, c))
        # math.atan2, not cmath.phase: phase raises OverflowError when the
        # angle underflows to a subnormal, e.g. at w = 2 + 5e-324j
        expected = abs(w) ** c.real * math.exp(-c.imag * math.atan2(w.imag, w.real))
        assert got == pytest.approx(expected, rel=1e-9)

    @given(
        w=nonzero_complex,
        c=mild_complex,
        r=st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_real_scaling(self, w, c, r):
        lhs = principal_power(r * w, c)
        rhs = principal_power(r, c) * principal_power(w, c)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestPathTracking:
    def test_constant_path(self):
        values, crossed = continuous_power_along_path(np.ones(5), 2 + 1j)
        assert np.allclose(values, 1.0)
        assert not crossed

    def test_loop_crossing(self):
        th = np.linspace(0.0, 2.0 * np.pi, 64)
        values, crossed = continuous_power_along_path(np.exp(1j * th), 0.5)
        assert crossed
        # the continuous square root ends at -1, not back at +1
        assert values[-1] == pytest.approx(-1.0, abs=1e-12)

    def test_radial_path_no_crossing(self):
        path = np.linspace(0.1, 0.9, 17)
        values, crossed = continuous_power_along_path(path, 1 + 1j)
        assert not crossed
        expected = np.array([principal_power(x, 1 + 1j) for x in path])
        assert np.allclose(values, expected, rtol=1e-12)

    def test_zero_sample(self):
        with pytest.raises(SingularPathError):
            BranchedPath(np.array([1.0, 0.0, -1.0]))
        with pytest.raises(SingularPathError):
            unwrapped_arguments(np.array([1.0, 0.0]))

    def test_undersampled(self):
        # consecutive arguments differ by ~pi: ambiguous sheet
        with pytest.raises(UndersampledPathError):
            continuous_power_along_path(np.array([1.0, -1.0 + 1e-15j, 1.0]), 0.5)

    def test_unwrapped_arguments_continuity(self):
        th = np.linspace(0.0, 3.0 * np.pi, 200)
        got = unwrapped_arguments(np.exp(1j * th))
        assert np.allclose(got, th, atol=1e-12)


def _principal_comparison(w, c, rel_tol=1e-9):
    """The tracker as it was before sheet indices: unwrap by a cumulative
    sum of wrapped increments, then compare with the principal power.
    Returns (continued power, crossed per column, threshold ratio)."""
    ang = np.angle(w)
    inc = np.diff(ang, axis=0)
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    theta = np.concatenate([ang[:1], ang[:1] + np.cumsum(inc, axis=0)])
    cont = np.exp(c * (np.log(np.abs(w)) + 1j * theta))
    principal = np.exp(c * np.log(w))
    scale = np.abs(cont) + np.abs(principal) + 1e-300
    ratio = np.abs(cont - principal) / (rel_tol * scale)
    return cont, np.any(ratio > 1.0, axis=0), ratio


exponents = st.one_of(
    st.floats(-3.0, 3.0),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.integers(-4, 4),
)


@st.composite
def sampled_paths(draw):
    """(n, m) arrays of m paths with n samples: random walks in log w whose
    steps turn by at most 1.5 rad, so paths wind across the cut freely."""
    n = draw(st.integers(1, 16))
    m = draw(st.integers(1, 3))
    start = draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False))
    steps = draw(
        st.lists(
            st.tuples(st.floats(-0.5, 0.5), st.floats(-1.5, 1.5)),
            min_size=(n - 1) * m,
            max_size=(n - 1) * m,
        )
    )
    log_steps = np.array([complex(a, b) for a, b in steps]).reshape(n - 1, m)
    log_w = np.log(start) + np.concatenate([np.zeros((1, m)), np.cumsum(log_steps, axis=0)])
    return np.exp(log_w)


class TestTrackPower:
    @given(w=sampled_paths(), c=exponents)
    @settings(max_examples=300, deadline=None)
    def test_sheet_index_matches_principal_comparison(self, w, c):
        c = complex(c)
        cont, crossed_ref, ratio = _principal_comparison(w, c)
        # both tests round differently; skip paths within 1e-6 of the threshold
        assume(not np.any(np.abs(ratio - 1.0) < 1e-6))
        log_power, crossed, max_step = track_power(w, c)
        assert crossed.tolist() == crossed_ref.tolist()
        assert np.all(np.abs(np.exp(log_power) - cont) <= 1e-13 * np.abs(cont))
        assert max_step.shape == (w.shape[1],)
        assert np.all(max_step <= np.pi)

    def test_max_step(self):
        w = np.exp(1j * np.array([0.0, 0.5, 2.0, 3.0]))
        assert track_power(w, 1.0)[2] == pytest.approx(1.5, abs=1e-15)
        assert track_power(w[:1], 1.0)[2] == 0.0

    def test_integer_power_never_crosses(self):
        th = np.linspace(0.0, 6.0 * np.pi, 97)
        log_power, crossed, _ = track_power(np.exp(1j * th), 3)
        assert not crossed
        assert np.allclose(log_power.imag, 3 * th, atol=1e-12)

    def test_non_finite_sample_counts_as_crossed(self):
        w = np.array([[1.0, 1.0], [1j, np.nan], [-1.0 - 0.1j, 1.0]])
        assert track_power(w, 0.5)[1].tolist() == [True, True]
        assert track_power(w, 2.0)[1].tolist() == [False, True]
