"""Principal-branch powers and path-continuity tracking."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univalence_lab import BranchedPath, continuous_power_along_path, principal_power
from univalence_lab.branchpow import unwrapped_arguments
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
