"""Ground-truth injectivity checks, independent of every criterion.

Two oracles: a pairwise collision scan on a sampled cloud, and an
argument-principle covering count (winding number 1 for every interior
target certifies injectivity at sampling resolution)."""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, InconclusiveError
from .series import polar_grid

_MAX_INCREMENT = np.pi * 0.95


@dataclass(frozen=True)
class SampleCloud:
    """(z, F(z)) samples inside a subdisk; flagged values must be excluded
    before construction."""

    z: np.ndarray
    values: np.ndarray
    radius: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.complex128).ravel()
        v = np.asarray(self.values, dtype=np.complex128).ravel()
        if z.size == 0 or z.shape != v.shape:
            raise ValueError("z and values must be nonempty and matching")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("cloud contains non-finite values")
        if np.abs(z).max() > self.radius * (1.0 + 1e-12) or not self.radius < 1.0:
            raise ValueError("all |z| must be <= radius < 1")
        z.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "values", v)


def polar_samples(n_r, n_theta, r_max):
    """Polar grid of n_r radii times n_theta angles up to r_max."""
    if n_r < 1:
        raise ValueError("n_r must be >= 1")
    return polar_grid(np.linspace(r_max / n_r, r_max, n_r), n_theta)


def injectivity_scan(cloud, tol=None):
    """First pair (z1, z2) with far-apart arguments but values within tol,
    or None.  Default tolerance is 1e-6 scaled by the value diameter."""
    if tol is None:
        v = cloud.values
        diam = max(
            v.real.max() - v.real.min(), v.imag.max() - v.imag.min(), 1e-30
        )
        tol = 1e-6 * diam
    if not tol > 0:
        raise ValueError("tol must be positive")
    pair = _kernels.collision_scan(cloud.z, cloud.values, tol)
    if pair is None:
        return None
    i, j = pair
    return complex(cloud.z[i]), complex(cloud.z[j])


def winding_numbers(curve, targets, min_dist=1e-8):
    """Integer winding numbers of a closed sampled curve around targets.

    Raises InconclusiveError when a target sits within min_dist of the
    curve or when an argument increment comes too close to pi (the sheet
    would be a guess; refine the curve instead), DomainError for
    a min_dist that is NaN or below 0."""
    if not min_dist >= 0:
        raise DomainError("min_dist must be >= 0")
    curve = np.asarray(curve, dtype=np.complex128)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.complex128))
    if curve.size < 3 or abs(curve[0] - curve[-1]) > 1e-10:
        raise ValueError("curve must be closed (first ~ last within 1e-10)")
    if not (np.isfinite(curve).all() and np.isfinite(targets).all()):
        raise ValueError("curve and targets must be finite")
    total, mind, maxinc = _kernels.winding_stats(curve, targets)
    if np.any(mind <= min_dist):
        k = int(np.argmin(mind))
        raise InconclusiveError(
            f"target {targets[k]} within {mind[k]:.3g} of the curve"
        )
    if np.any(maxinc >= _MAX_INCREMENT):
        raise InconclusiveError(
            "curve undersampled: an argument increment approaches pi"
        )
    return np.rint(total / (2.0 * np.pi)).astype(int)


def argument_principle_check(curve, targets, min_dist=1e-8):
    """True iff every target is covered exactly once by the curve."""
    return bool(np.all(winding_numbers(curve, targets, min_dist) == 1))
