"""Injectivity oracles: collision scan and argument-principle covering."""

import numpy as np
import pytest

from univalence_lab import (
    SampleCloud,
    argument_principle_check,
    injectivity_scan,
    polar_samples,
    winding_numbers,
)
from univalence_lab.errors import DomainError, InconclusiveError


def _circle(radius, n=513):
    th = np.linspace(0.0, 2.0 * np.pi, n)
    c = radius * np.exp(1j * th)
    c[-1] = c[0]
    return c


class TestSampling:
    def test_polar_samples_needs_a_radius(self):
        for n_r in (0, -2):
            with pytest.raises(ValueError, match="n_r must be >= 1"):
                polar_samples(n_r, 4, 0.5)

    def test_polar_samples(self):
        zs = polar_samples(10, 16, 0.8)
        assert zs.size == 160
        assert np.abs(zs).max() == pytest.approx(0.8)
        assert np.abs(zs).min() > 0

    def test_cloud_validation(self):
        with pytest.raises(ValueError):
            SampleCloud(np.array([0.1]), np.array([0.1, 0.2]), 0.5)
        with pytest.raises(ValueError):
            SampleCloud(np.array([0.1]), np.array([np.nan + 0j]), 0.5)
        with pytest.raises(ValueError):
            SampleCloud(np.array([0.6]), np.array([0.6 + 0j]), 0.5)
        with pytest.raises(ValueError):
            SampleCloud(np.array([0.5]), np.array([0.5 + 0j]), 1.0)


class TestCollision:
    def test_square_map_collides(self):
        zs = polar_samples(20, 40, 0.8)
        cloud = SampleCloud(zs, zs**2, 0.8)
        pair = injectivity_scan(cloud)
        assert pair is not None
        z1, z2 = pair
        assert z1 != z2
        assert abs(z1**2 - z2**2) < 1e-5
        assert abs(z1 + z2) < 1e-6  # the symmetric preimages z, -z

    def test_identity_clean(self):
        zs = polar_samples(20, 40, 0.8)
        cloud = SampleCloud(zs, zs.copy(), 0.8)
        assert injectivity_scan(cloud) is None

    def test_nearby_points_not_collisions(self):
        # near-identical z with near-identical values must not count
        zs = np.array([0.5, 0.5 + 1e-9])
        cloud = SampleCloud(zs, zs.astype(complex), 0.6)
        assert injectivity_scan(cloud, tol=1e-6) is None

    def test_tol_validation(self):
        cloud = SampleCloud(np.array([0.1]), np.array([0.1 + 0j]), 0.5)
        with pytest.raises(ValueError):
            injectivity_scan(cloud, tol=0.0)


class TestWinding:
    def test_identity_covers_once(self):
        assert argument_principle_check(_circle(0.5), [0.2, -0.1 + 0.2j])

    def test_square_double_covers(self):
        curve = _circle(0.5) ** 2
        w = winding_numbers(curve, [0.1])
        assert w[0] == 2
        assert not argument_principle_check(curve, [0.1])

    def test_outside_target_zero(self):
        assert winding_numbers(_circle(0.5), [2.0])[0] == 0

    def test_oracles_agree_on_square_map(self):
        # a collision implies some target is covered with winding >= 2
        zs = polar_samples(20, 40, 0.8)
        cloud = SampleCloud(zs, zs**2, 0.8)
        pair = injectivity_scan(cloud)
        assert pair is not None
        target = pair[0] ** 2
        if abs(target) < 0.3:  # safely inside the |z|=0.64 image circle
            assert winding_numbers(_circle(0.8) ** 2, [target])[0] >= 2

    def test_target_on_curve_inconclusive(self):
        with pytest.raises(InconclusiveError):
            winding_numbers(_circle(0.5), [0.5])

    @pytest.mark.parametrize("min_dist", [-1.0, np.nan])
    def test_min_dist_must_be_a_distance(self, min_dist):
        # the target 1 lies on the curve: the default min_dist finds it, and
        # a min_dist that no distance can fall below must not hide it
        curve, target = _circle(1.0), [1.0]
        with pytest.raises(InconclusiveError):
            argument_principle_check(curve, target)
        for check in (winding_numbers, argument_principle_check):
            with pytest.raises(DomainError, match="min_dist"):
                check(curve, target, min_dist=min_dist)

    def test_undersampled_inconclusive(self):
        curve = np.array([1.0, -1.0 + 1e-13j, 1.0])
        with pytest.raises(InconclusiveError):
            winding_numbers(curve, [0.0])

    def test_open_curve_rejected(self):
        th = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
        with pytest.raises(ValueError):
            winding_numbers(0.5 * np.exp(1j * th), [0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_curve_or_target_rejected(self, bad):
        # rint(NaN) cast to int would give a garbage count, and False from
        # argument_principle_check with no error
        curve = _circle(0.5)
        curve[100] = bad
        for args in ((curve, [0.1]), (_circle(0.5), [0.1, bad])):
            with pytest.raises(ValueError, match="must be finite"):
                winding_numbers(*args)
            with pytest.raises(ValueError, match="must be finite"):
                argument_principle_check(*args)
