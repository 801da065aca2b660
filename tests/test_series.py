"""Series representation: evaluation, derivatives, log-derivative terms,
catalog, nonvanishing sampling, truncation warnings."""

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univalence_lab import (
    SeriesFunction,
    catalog_build,
    criterion_bracket,
    criterion_check,
    eval_many,
    log_derivative,
    nonvanishing_check,
)
from univalence_lab.criterion import DiskGrid, ParameterSet
from univalence_lab.errors import (
    DerivativeVanishes,
    DomainError,
    HypothesisViolation,
    TruncationWarning,
)
from .conftest import random_disk_points


class TestEvalWithDerivatives:
    def test_identity(self, identity):
        assert [complex(x) for x in eval_many(identity, 0.3)] == [0.3, 1.0, 0.0]

    def test_quadratic(self, f_quarter):
        v, d1, d2 = eval_many(f_quarter, 0.5)
        assert v == pytest.approx(0.5625, abs=1e-15)
        assert d1 == pytest.approx(1.25, abs=1e-15)
        assert d2 == pytest.approx(0.5, abs=1e-15)

    def test_koebe_matches_closed_form(self):
        k = catalog_build("koebe")
        z = 0.5
        v, d1, _ = eval_many(k, z)
        assert v == pytest.approx(z / (1 - z) ** 2, abs=1e-12)
        assert d1 == pytest.approx((1 + z) / (1 - z) ** 3, abs=1e-10)

    def test_origin(self):
        for name, params in (
            ("identity", {}),
            ("quadratic", {"c": 0.25}),
            ("koebe", {}),
            ("expscaled", {"lam": 1.0}),
        ):
            s = catalog_build(name, params)
            v, d1, d2 = eval_many(s, 0.0)
            assert v == 0.0
            assert d1 == 1.0
            c2 = s.coefficients[1] if s.degree >= 2 else 0.0
            assert d2 == pytest.approx(2.0 * c2, abs=1e-15)

    def test_domain_error(self, identity):
        with pytest.raises(DomainError):
            eval_many(identity, 1.5)
        with pytest.raises(DomainError):
            eval_many(identity, np.array([0.5, 1.2 + 0.1j]))

    def test_fd_consistency(self, rng):
        s = catalog_build("expscaled", {"lam": 1.5})
        h = 1e-6
        for z in random_disk_points(rng, 20, 0.8):
            _, d1, _ = eval_many(s, z)
            vp, _, _ = eval_many(s, z + h)
            vm, _, _ = eval_many(s, z - h)
            fd = (vp - vm) / (2 * h)
            assert abs(fd - d1) <= 1e-6 * max(abs(d1), 1.0)

    @given(
        c=st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
        zr=st.floats(-0.7, 0.7),
        zi=st.floats(-0.7, 0.7),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratic_property(self, c, zr, zi):
        s = catalog_build("quadratic", {"c": c})
        z = complex(zr, zi)
        if abs(z) > 1:
            return
        v, d1, d2 = eval_many(s, z)
        assert v == pytest.approx(z + c * z * z, abs=1e-12)
        assert d1 == pytest.approx(1 + 2 * c * z, abs=1e-12)
        assert d2 == pytest.approx(2 * c, abs=1e-12)


class TestCriterionTerms:
    def test_pre_schwarzian_quadratic(self, f_quarter, identity):
        # f = z + z^2/4 gives z f''/f' = z/(z + 2); at z = 1 that is 1/3
        pre = criterion_bracket(f_quarter, identity, identity, 1.0, 0.0, 1.0)
        assert pre == pytest.approx(1.0 / 3.0, abs=1e-14)
        for z in (0.5, 0.3 + 0.4j):
            pre = criterion_bracket(f_quarter, None, None, 1.0, 0.0, z)
            assert pre == pytest.approx(z / (z + 2), abs=1e-14)

    def test_ratio_term(self, f_quarter, g_half, identity):
        # z g'/g - z phi'/phi at alpha = 0, beta = 1; phi = None is the identity
        z = 0.5
        for phi in (identity, None):
            lr = criterion_bracket(f_quarter, g_half, phi, 0.0, 1.0, z)
            assert lr == pytest.approx(z / (z + 2), abs=1e-14)

    def test_origin_removable(self, f_quarter, g_half, identity):
        assert criterion_bracket(f_quarter, g_half, identity, 1.0, 0.0, 0.0) == 0.0
        assert criterion_bracket(f_quarter, g_half, identity, 0.0, 1.0, 0.0) == 0.0

    def test_continuity_at_origin(self):
        cat = [
            catalog_build("identity"),
            catalog_build("quadratic", {"c": 0.25}),
            catalog_build("koebe"),
            catalog_build("expscaled", {"lam": 1.0}),
        ]
        z = 1e-6 * cmath.exp(0.7j)
        for s in cat:
            pre = criterion_bracket(s, s, s, 1.0, 0.0, z)
            lr = criterion_bracket(s, s, s, 0.0, 1.0, z)
            assert abs(pre) < 1e-5
            assert abs(lr) < 1e-5

    def test_derivative_vanishes(self, identity):
        f = SeriesFunction(np.array([1.0, 1.0]))  # f' = 1 + 2z, zero at -1/2
        with pytest.raises(DerivativeVanishes) as exc:
            criterion_bracket(f, identity, identity, 1.0, 0.0, -0.5)
        assert exc.value.witness == -0.5

    def test_g_vanishing(self, f_quarter, identity):
        g = SeriesFunction(np.array([1.0, -2.0]))  # zero at z = 1/2
        with pytest.raises(HypothesisViolation):
            criterion_bracket(f_quarter, g, identity, 1.0, 1.0, 0.5)


class TestLogDerivative:
    def test_small_z_branch(self, g_half):
        out = log_derivative(g_half, np.array([1e-9 + 0j]))
        assert out[0] == pytest.approx(1.0, abs=1e-8)

    def test_matches_direct_quotient(self, g_half):
        z = np.array([0.5, -0.3 + 0.2j])
        expected = (1 + z) * z / (z + z * z / 2)  # g' z / g for g = z + z^2/2
        assert np.allclose(log_derivative(g_half, z), expected, atol=1e-14)

    def test_checks_the_disk(self):
        # the degree-64 Koebe series gives 42.77 at 0.999, where z k'/k is
        # (1 + z)/(1 - z) = 1999
        k = catalog_build("koebe", {"degree": 64})
        with pytest.warns(TruncationWarning, match="tail bound"):
            log_derivative(k, np.array([0.999]))
        with pytest.raises(DomainError):
            log_derivative(catalog_build("quadratic", {"c": 0.25}), 5.0)


class TestCatalog:
    def test_identity(self):
        assert list(catalog_build("identity").coefficients) == [1.0]

    def test_quadratic(self):
        assert list(catalog_build("quadratic", {"c": 0.25}).coefficients) == [1.0, 0.25]

    def test_koebe_coefficients(self):
        k = catalog_build("koebe")
        assert k.degree == 64
        assert np.array_equal(k.coefficients, np.arange(1, 65))
        assert k.truncated

    def test_expscaled(self):
        s = catalog_build("expscaled", {"lam": 2.0, "degree": 6})
        assert s.coefficients[0] == 1.0
        assert s.coefficients[2] == pytest.approx(4.0 / 6.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            catalog_build("nope")
        with pytest.raises(ValueError):
            catalog_build("quadratic", {"c": 0.7})
        with pytest.raises(ValueError):
            catalog_build("identity", {"degree": 0})
        with pytest.raises(ValueError):
            catalog_build("koebe", {"spurious": 1})

    @pytest.mark.parametrize("degree", [2.5, True, "64", None, float("inf")])
    def test_degree_must_be_an_integer(self, degree):
        with pytest.raises(ValueError, match="degree must be an integer"):
            catalog_build("koebe", {"degree": degree})

    def test_expscaled_degree_limit(self):
        assert catalog_build("expscaled", {"lam": 4.0, "degree": 170}).degree == 170
        for degree in (171, 3000):
            with pytest.raises(ValueError, match=f"^expscaled degree {degree} > 170$"):
                catalog_build("expscaled", {"degree": degree})

    def test_integral_float_degree(self):
        assert catalog_build("koebe", {"degree": 64.0}) == catalog_build("koebe", {"degree": 64})

    def test_class_a_validation(self):
        with pytest.raises(ValueError):
            SeriesFunction(np.array([2.0]))
        with pytest.raises(ValueError):
            SeriesFunction(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            SeriesFunction(np.empty(0))

    def test_equal_series_hash_equal(self):
        # z + 0.5 z^2 and z + (0.5 - 0.0i) z^2 differ only in a signed zero
        a = SeriesFunction(np.array([1.0, 0.5]))
        b = SeriesFunction(np.array([complex(1.0, -0.0), complex(0.5, -0.0)]))
        assert np.signbit(b.coefficients.imag).all()
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestNonvanishing:
    def test_identity_true(self, identity):
        ok, witness = nonvanishing_check(identity, 0.99, DiskGrid())
        assert ok and witness is None

    def test_boundary_zero_passes(self):
        s = SeriesFunction(np.array([1.0, 1.0]))  # z(1 + z), zero on |z| = 1
        ok, _ = nonvanishing_check(s, 0.999, DiskGrid())
        assert ok

    def test_interior_zero_fails(self):
        s = SeriesFunction(np.array([1.0, -2.0]))  # z(1 - 2z), zero at 0.5
        ok, witness = nonvanishing_check(s, 0.9, DiskGrid())
        assert not ok
        assert abs(witness - 0.5) < 0.05

    @pytest.mark.parametrize("zero,radius,found", [(0.9, 0.9, True), (0.9, 0.89, False), (0.3, 0.3, True)])
    def test_samples_the_grid_up_to_radius_or_that_circle(self, zero, radius, found):
        # the grid circles of radius <= `radius`, or else the circle |z| = radius
        s = SeriesFunction(np.array([1.0, -1.0 / zero]))  # z(1 - z/zero)
        ok, witness = nonvanishing_check(s, radius, DiskGrid(radii=(0.6, 0.9), angles_per_radius=8))
        assert (ok, witness) == ((False, zero) if found else (True, None))

    def test_radius_validation(self, identity):
        for radius in (1.0, 0.0, -0.5, np.nan):  # NaN fails the range test too
            with pytest.raises(DomainError, match="radius"):
                nonvanishing_check(identity, radius, DiskGrid())

    @pytest.mark.parametrize("floor", [np.nan, -1.0, np.inf])
    def test_floor_validation(self, floor):
        # g = z - 2z^2 vanishes at 0.5: a NaN floor would pass it
        g = SeriesFunction(np.array([1.0, -2.0]))
        assert nonvanishing_check(g, 0.9, DiskGrid())[0] is False
        with pytest.raises(DomainError, match="floor"):
            nonvanishing_check(g, 0.9, DiskGrid(), floor=floor)


class TestTruncationWarning:
    def test_truncated_series_warns(self):
        k = catalog_build("koebe")
        with pytest.warns(TruncationWarning):
            eval_many(k, 0.999)

    def test_exact_polynomial_never_warns(self, f_quarter):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            eval_many(f_quarter, 0.999)

    def test_high_degree_koebe_silent_at_certified_radius(self):
        k = catalog_build("koebe", {"degree": 4096})
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            eval_many(k, 0.99)

    def test_truncated_g_and_phi_warn(self, identity):
        # the degree-64 Koebe tail bound is 33.6 at |z| = 0.99, whether the
        # series is f, g or phi
        k = catalog_build("koebe", {"degree": 64})
        grid = DiskGrid(radii=(0.5, 0.9, 0.99), angles_per_radius=64, refine_steps=4)
        p = ParameterSet(alpha=0.5, beta=0.5)
        for f, g, phi in ((k, identity, identity), (identity, k, identity), (identity, identity, k)):
            report = criterion_check("thm31", p, f, g, phi, grid)
            assert "series koebe: tail bound 33.6 exceeds 1e-12 at |z|=0.99" in report.warnings
