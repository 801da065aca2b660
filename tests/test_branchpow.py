"""Principal-branch powers and the sheet-crossing rule of continued powers."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univalence_lab import principal_power
from univalence_lab.errors import DomainError, SingularPowerError
from univalence_lab.operator import sheet_crossed

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

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)]
    )
    def test_non_finite_rejected(self, bad):
        # a typed error, not nan+nanj or inf+nanj; 0 and 1 as the other
        # argument take the early returns of w = 0 and c = 0 otherwise
        for w, c in ((bad, 0.5), (bad, 0.0), (0.5, bad), (0.0, bad), (1.0, bad)):
            with pytest.raises(DomainError, match="must be finite"):
                principal_power(w, c)

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


class TestSheetCrossed:
    def test_integer_power_never_crosses(self):
        k = np.arange(-5, 6)
        assert not sheet_crossed(k, 3).any()
        assert sheet_crossed(k, 0.5).tolist() == (k % 2 == 1).tolist()

    def test_non_finite_sheet_counts_as_crossed(self):
        with np.errstate(invalid="ignore", over="ignore"):
            assert sheet_crossed(np.array([np.nan, np.inf, 0.0]), 2.0).tolist() == [True, True, False]
            # e^{2 pi i c k} overflows for a large sheet index and Im c < 0
            assert sheet_crossed(np.array([1e300]), 1.0 - 1.0j).tolist() == [True]
