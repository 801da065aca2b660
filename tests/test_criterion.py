"""Criterion engine: point values, variant algebra, disk sup-scan."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univalence_lab import (
    DiskGrid,
    ParameterSet,
    catalog_build,
    criterion,
    criterion_check,
    criterion_values,
    series,
)
from univalence_lab.criterion import criterion_bound
from univalence_lab.errors import ConvergenceError, HypothesisViolation
from univalence_lab.series import SeriesFunction, polar_grid
from .conftest import random_disk_points


class TestPointValues:
    def test_identity_thm31_zero(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=1.0)
        for z in (0.0, 0.5, 0.3 + 0.4j, 0.99):
            assert criterion_values("thm31", z, p, identity, identity, identity) == 0.0

    def test_identity_thm31_m3_constant(self, identity):
        p = ParameterSet(alpha=1.0, beta=1.0, m=3.0)
        for z in (0.5, -0.7j):
            v = criterion_values("thm31", z, p, identity, identity, identity)
            assert v == pytest.approx(1.0, abs=1e-14)  # |(m-1)/2| = 1, bound 2

    def test_cor32_koebe_explicit_point(self):
        # (1 - r^2) |z f''/f'| at z = 0.9 for z/(1-z)^2 is
        # (1 - 0.81) (4*0.9 + 2*0.81)/(1 - 0.81) = 5.22
        k = catalog_build("koebe", {"degree": 512})
        p = ParameterSet(gamma=1.0)
        v = criterion_values("cor32", 0.9, p, k)
        assert v == pytest.approx(5.22, rel=1e-9)

    def test_thm41_equals_thm31_values(self, rng, f_quarter, g_half, identity):
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, k=0.3)
        z = random_disk_points(rng, 64, 0.95)
        a = criterion_values("thm31", z, p, f_quarter, g_half, identity)
        b = criterion_values("thm41", z, p, f_quarter, g_half, identity)
        assert np.array_equal(a, b)

    def test_thm32_zero_at_origin(self, f_quarter, g_half, identity):
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0)
        assert criterion_values("thm32", 0.0, p, f_quarter, g_half, identity) == 0.0

    def test_cor31_substitution(self, rng, f_quarter):
        # cor31 evaluates the thm31 expression with beta = alpha, g = id, phi = f
        p = ParameterSet(alpha=0.3 + 0.1j, beta=99.0, gamma=1.5, m=1.0)
        q = ParameterSet(alpha=0.3 + 0.1j, beta=0.3 + 0.1j, gamma=1.5, m=1.0)
        ident = catalog_build("identity")
        z = random_disk_points(rng, 32, 0.9)
        a = criterion_values("cor31", z, p, f_quarter)
        b = criterion_values("thm31", z, q, f_quarter, ident, f_quarter)
        assert np.allclose(a, b, rtol=1e-13)

    def test_unknown_variant(self, identity):
        with pytest.raises(ValueError):
            criterion_values("thm99", 0.5, ParameterSet(), identity)


class TestPascuInequality:
    def test_pascu_bound(self, rng):
        # |(1 - |z|^{(m+1) gamma}) / gamma| <= (1 - |z|^{(m+1) Re gamma}) / Re gamma
        for _ in range(500):
            r = rng.uniform(1e-6, 1 - 1e-9)
            gamma = complex(rng.uniform(1e-3, 4.0), rng.uniform(-4.0, 4.0))
            m = rng.uniform(0.0, 5.0)
            lhs = abs((1.0 - np.exp((m + 1) * gamma * math.log(r))) / gamma)
            rhs = (1.0 - r ** ((m + 1) * gamma.real)) / gamma.real
            assert lhs <= rhs + 1e-12

    def test_implication_chain(self, rng, f_quarter, g_half, identity):
        # thm32 value <= 1 at a sample with m >= 1 forces thm31 value <= (m+1)/2
        for _ in range(200):
            m = rng.uniform(1.0, 4.0)
            gamma = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
            p = ParameterSet(alpha=0.5, beta=0.5, gamma=gamma, m=m)
            z = complex(random_disk_points(rng, 1, 0.97)[0])
            v32 = criterion_values("thm32", z, p, f_quarter, g_half, identity)
            if v32 <= 1.0:
                v31 = criterion_values("thm31", z, p, f_quarter, g_half, identity)
                assert v31 <= (m + 1.0) / 2.0 + 1e-12


class TestCheck:
    def test_identity_passes_any_gamma(self, identity, small_grid):
        for gamma in (1.0, -2.0, 0.5 + 0.8j, -1 - 1j):
            p = ParameterSet(alpha=1.0, beta=1.0, gamma=gamma, m=1.0)
            rep = criterion_check("thm31", p, identity, grid=small_grid)
            assert rep.passed
            assert rep.sup_value == 0.0
            assert rep.bound == 1.0

    def test_reference_thm32_passes(self, f_quarter, g_half, identity, params_ref, small_grid):
        rep = criterion_check("thm32", params_ref, f_quarter, g_half, identity, small_grid)
        assert rep.passed
        assert rep.sup_value < 1.0
        assert rep.margin == rep.bound - rep.sup_value

    def test_koebe_cor32_fails_small_grid(self, small_grid):
        k = catalog_build("koebe", {"degree": 512})
        rep = criterion_check("cor32", ParameterSet(gamma=1.0), k, grid=small_grid)
        assert not rep.passed
        # refinement climbs to the outermost radius on the positive real axis
        assert rep.sup_value == pytest.approx(4 * 0.9 + 2 * 0.81, rel=1e-6)
        assert abs(rep.witness.imag) < 1e-6
        assert rep.witness.real == pytest.approx(0.9, abs=1e-9)

    def test_thm41_bound(self, f_quarter, g_half, identity, small_grid):
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, k=0.3)
        rep31 = criterion_check("thm31", p, f_quarter, g_half, identity, small_grid)
        rep41 = criterion_check("thm41", p, f_quarter, g_half, identity, small_grid)
        assert rep41.sup_value == pytest.approx(rep31.sup_value, rel=1e-12)
        assert rep41.bound == pytest.approx(0.3 * 1.0)
        assert criterion_bound("thm41", p) == rep41.bound

    def test_monotone_in_grid(self, f_quarter, g_half, identity, params_ref):
        base = DiskGrid(radii=(0.5, 0.9), angles_per_radius=64, refine_steps=0)
        bigger = DiskGrid(radii=(0.3, 0.5, 0.7, 0.9), angles_per_radius=128, refine_steps=0)
        a = criterion_check("thm32", params_ref, f_quarter, g_half, identity, base)
        b = criterion_check("thm32", params_ref, f_quarter, g_half, identity, bigger)
        assert b.sup_value >= a.sup_value

    def test_derivative_vanishes_is_automatic_fail(self, identity):
        f = SeriesFunction(np.array([1.0, 1.0]))  # f'(-1/2) = 0
        grid = DiskGrid(radii=(0.5,), angles_per_radius=8, refine_steps=0)  # hits -0.5
        rep = criterion_check("thm31", ParameterSet(), f, grid=grid)
        assert not rep.passed
        assert math.isinf(rep.sup_value)
        assert rep.warnings

    def test_non_finite_sup_raises(self, small_grid):
        # f' = 1 + 2e308 z overflows on the whole grid: the criterion is NaN
        f = SeriesFunction(np.array([1.0, 1e308]))
        with pytest.raises(ConvergenceError, match="cor32: the criterion is not finite at z = "):
            criterion_check("cor32", ParameterSet(), f, grid=small_grid)

    def test_hypothesis_violations(self, f_quarter, identity, small_grid):
        with pytest.raises(HypothesisViolation):
            criterion_check("thm32", ParameterSet(gamma=-1.0), f_quarter, grid=small_grid)
        with pytest.raises(HypothesisViolation):
            criterion_check("thm32", ParameterSet(m=0.5), f_quarter, grid=small_grid)
        with pytest.raises(HypothesisViolation):  # default k = 1 sentinel
            criterion_check("thm41", ParameterSet(), f_quarter, grid=small_grid)
        g = SeriesFunction(np.array([1.0, -2.0]))  # vanishes at 0.5
        # the default grid samples r = 0.5 exactly, exposing the zero
        with pytest.raises(HypothesisViolation):
            criterion_check("thm31", ParameterSet(beta=1.0), f_quarter, g, identity)
        with pytest.raises(HypothesisViolation):  # cor31 checks f itself
            criterion_check("cor31", ParameterSet(), g)

    def test_hypotheses_sample_what_the_bracket_reads(self, f_quarter, g_half, small_grid):
        # g and phi are sampled exactly when bracket_quotients lets them in:
        # none at beta = 0 or for cor32, and phi = f for cor31
        sampled = []

        def counted(s, radius, grid, floor=1e-9):
            sampled.append(s)
            return series.nonvanishing_check(s, radius, grid, floor)

        with mock.patch.object(criterion, "nonvanishing_check", counted):
            for variant, beta, expected in [
                ("thm31", 0.0, []),
                ("thm32", 0.0, []),
                ("cor32", 0.5, []),
                ("thm41", 0.5, [g_half, f_quarter]),
                ("cor31", 0.5, [catalog_build("identity"), f_quarter]),
            ]:
                sampled.clear()
                p = ParameterSet(alpha=0.5, beta=beta, k=0.5)
                criterion_check(variant, p, f_quarter, g_half, f_quarter, small_grid)
                assert sampled == expected

    def test_report_json_shape(self, identity, small_grid):
        rep = criterion_check("thm31", ParameterSet(), identity, grid=small_grid)
        doc = rep.to_json()
        assert set(doc) == {"variant", "passed", "sup", "bound", "witness", "margin", "grid", "warnings"}
        assert doc["witness"] == [rep.witness.real, rep.witness.imag]
        assert doc["grid"]["radii"] == list(small_grid.radii)


class TestValuesRefuseParameters:
    """criterion_values refuses the parameters the statement excludes, with
    the text criterion_check raises."""

    @pytest.mark.parametrize("variant", ["thm32", "cor32"])
    @pytest.mark.parametrize("gamma", [1j, -0.5 + 1j])
    def test_re_gamma_not_positive(self, variant, gamma, f_quarter, g_half, identity, small_grid):
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=gamma, m=1.0)
        message = f"^{variant} requires Re gamma > 0$"
        with pytest.raises(HypothesisViolation, match=message):
            criterion_values(variant, np.array([0.3 + 0.1j]), p, f_quarter, g_half, identity)
        with pytest.raises(HypothesisViolation, match=message):
            criterion_check(variant, p, f_quarter, g_half, identity, small_grid)

    @pytest.mark.parametrize(
        "variant,kwargs,message",
        [("thm32", {"m": 0.5}, "thm32 requires m >= 1"), ("thm41", {"k": 1.0}, r"thm41 requires k in \[0, 1\)")],
    )
    def test_other_scalar_conditions(self, variant, kwargs, message, f_quarter, identity):
        with pytest.raises(HypothesisViolation, match=message):
            criterion_values(variant, 0.3, ParameterSet(**kwargs), f_quarter, identity, identity)


class TestParameterValidation:
    def test_parameter_set(self):
        with pytest.raises(ValueError):
            ParameterSet(gamma=0.0)
        with pytest.raises(ValueError):
            ParameterSet(m=-1.0)
        with pytest.raises(ValueError):
            ParameterSet(a=0.0)
        with pytest.raises(ValueError):
            ParameterSet(k=1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha": float("nan")}, {"beta": complex(0.0, float("inf"))}, {"gamma": float("nan")},
         {"m": float("nan")}, {"a": float("nan")}, {"k": float("nan")}, {"m": float("inf")},
         {"a": float("inf")}],
    )
    def test_non_finite_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"^{name}: "):
            ParameterSet(**kwargs)

    @pytest.mark.parametrize("name", ["m", "a", "k"])
    def test_complex_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name}: must be a real number"):
            ParameterSet(**{name: 1j})

    def test_disk_grid(self):
        with pytest.raises(ValueError):
            DiskGrid(radii=())
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.9, 0.5))
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5, 1.0))
        with pytest.raises(ValueError):
            DiskGrid(angles_per_radius=4)

    @pytest.mark.parametrize(
        "radii",
        [(0.5, float("nan"), 0.9), (0.5, float("inf")), (0.5, "0.7", 0.9), ("0.5",), (False, 0.5), (0.5, True)],
    )
    def test_disk_grid_radii_must_be_finite_reals(self, radii):
        with pytest.raises(ValueError, match="radii must be finite real numbers"):
            DiskGrid(radii=radii)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"refine_steps": 2.5}, "refine_steps must be an integer"),
            ({"refine_steps": -3}, "refine_steps must be >= 0"),
            ({"refine_steps": True}, "refine_steps must be an integer"),
            ({"angles_per_radius": 8.5}, "angles_per_radius must be an integer"),
            ({"angles_per_radius": False}, "angles_per_radius must be an integer"),
            ({"angles_per_radius": float("inf")}, "angles_per_radius must be an integer"),
            ({"angles_per_radius": "64"}, "angles_per_radius must be an integer"),
        ],
    )
    def test_disk_grid_integers(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DiskGrid(**kwargs)

    def test_disk_grid_points_are_read_only_polar_grid(self):
        grid = DiskGrid(radii=(0.25, 0.5), angles_per_radius=8)
        z = grid.points()
        assert z.tobytes() == polar_grid([0.25, 0.5], 8).tobytes()
        assert z[9] == pytest.approx(0.5 * np.exp(0.25j * np.pi), abs=1e-16)
        assert grid.points() is z
        with pytest.raises(ValueError):
            z[0] = 0.0

    def test_a_check_samples_its_grid_once(self, f_quarter, g_half, params_ref):
        # the hypotheses on g and phi read the grid's points too
        calls = []

        def counted(radii, n_angles):
            calls.append(n_angles)
            return polar_grid(radii, n_angles)

        grid = DiskGrid(radii=(0.3, 0.6, 0.9), angles_per_radius=64, refine_steps=4)
        with mock.patch.object(criterion, "polar_grid", counted), mock.patch.object(series, "polar_grid", counted):
            first = criterion_check("thm31", params_ref, f_quarter, g_half, grid=grid)
            assert calls == [64]
            second = criterion_check("thm31", params_ref, f_quarter, g_half, grid=grid)
            assert calls == [64]
        assert second.to_json() == first.to_json()

    def test_disk_grid_integral_values_become_ints(self):
        grid = DiskGrid(angles_per_radius=64.0, refine_steps=np.int64(0))
        assert type(grid.angles_per_radius) is int and grid.angles_per_radius == 64
        assert type(grid.refine_steps) is int and grid.refine_steps == 0

    @given(m=st.floats(0.0, 6.0), k=st.floats(0.0, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, m, k):
        p = ParameterSet(m=m, k=k)
        assert criterion_bound("thm31", p) == (m + 1) / 2
        assert criterion_bound("cor31", p) == (m + 1) / 2
        assert criterion_bound("thm32", p) == 1.0
        assert criterion_bound("cor32", p) == 1.0
        assert criterion_bound("thm41", p) == pytest.approx(k * (m + 1) / 2)
