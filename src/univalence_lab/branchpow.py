"""Principal-branch complex powers and continuity tracking along paths.

All powers in the package use the principal branch (argument in (-pi, pi]).
When a quantity is known to vary continuously along a path, the tracker
below unwraps the argument and reports whether the principal branch would
have jumped; jumps are diagnostic information and are never repaired.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPathError, SingularPowerError, UndersampledPathError

_JUMP_LIMIT = math.pi * (1.0 - 1e-12)


def principal_power(w, c):
    """w^c = exp(c Log w) with Log the principal logarithm.

    w = 0 is allowed only for Re c > 0 (result 0) or c = 0 (result 1 by
    the empty-product convention is NOT used: 0^0 is rejected).
    """
    w = complex(w)
    c = complex(c)
    if w == 0:
        if c.real > 0:
            return 0.0 + 0.0j
        raise SingularPowerError(f"0 raised to power {c} with Re c <= 0")
    if c == 0:
        return 1.0 + 0.0j
    return cmath.exp(c * cmath.log(w))


@dataclass(frozen=True)
class BranchedPath:
    """Discretized path in C* fine enough to track argument continuity."""

    samples: np.ndarray
    winding_offset: int = 0

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.samples, dtype=np.complex128))
        if s.size < 1:
            raise ValueError("path must contain at least one sample")
        if np.any(s == 0):
            raise SingularPathError("path passes through 0")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


def track_power(w, c, rel_tol=1e-9):
    """The power w^c continued down axis 0 from the principal branch at the
    first sample, for every column of an array at once.

    The argument theta = Arg w - 2 pi k carries an integer sheet index k,
    the cumulative sum of the 2 pi wraps of the principal-argument
    increments, so k = 0 at the first sample and every increment lies in
    [-pi, pi].  Returns (log_power, crossed, max_step):

      log_power  c (log|w| + i theta), the log of the continued power;
      crossed    per column, True where the continued power differs from
                 the principal one, i.e. |e^{2 pi i c k} - 1| exceeds
                 rel_tol (1 + |e^{2 pi i c k}|) at some sample (the same
                 test as |cont - principal| > rel_tol (|cont| + |principal|)
                 without forming the principal power); samples whose
                 sheet index is not finite count as crossed;
      max_step   per column, the largest |increment| of theta (0 for one
                 sample), for callers that reject undersampled paths.

    Zeros of w are the caller's business: their argument is taken as 0."""
    w = np.asarray(w, dtype=np.complex128)
    c = complex(c)
    log_power = np.empty(w.shape, dtype=np.complex128)
    np.log(np.abs(w), out=log_power.real)
    theta = log_power.imag
    np.arctan2(w.imag, w.real, out=theta)  # np.angle(w), written in place
    step = np.diff(theta, axis=0)
    wraps = np.rint(step * (0.5 / math.pi))
    step -= (2.0 * math.pi) * wraps
    max_step = np.maximum(step.max(axis=0, initial=0.0), -step.min(axis=0, initial=0.0))
    crossed = np.zeros(max_step.shape, dtype=bool)
    if np.any(wraps):  # else k = 0: no theta shift and nothing crossed
        k = np.zeros(w.shape)
        np.cumsum(wraps, axis=0, out=k[1:])
        theta -= (2.0 * math.pi) * k
        off = k != 0
        bad = np.zeros(k.shape, dtype=bool)
        bad[off] = sheet_crossed(k[off], c, rel_tol)
        crossed = bad.any(axis=0)
    log_power *= c
    return log_power, crossed, max_step


def sheet_crossed(k, c, rel_tol=1e-9):
    """Where the power w^c continued onto sheet k (argument Arg w - 2 pi k)
    differs from the principal one: |e^{2 pi i c k} - 1| exceeds
    rel_tol (1 + |e^{2 pi i c k}|), or e^{2 pi i c k} is not finite."""
    turn = np.exp((2j * math.pi * complex(c)) * np.asarray(k, dtype=float))
    return ~np.isfinite(turn) | (np.abs(turn - 1.0) > rel_tol * (1.0 + np.abs(turn)))


def unwrapped_arguments(samples):
    """Continuous argument along a path, seeded at the principal argument
    of the first sample.  Raises on zeros and on undersampled jumps."""
    samples = BranchedPath(samples).samples
    log_arg, _, max_step = track_power(samples, 1.0)
    theta = log_arg.imag
    if max_step >= _JUMP_LIMIT:
        k = int(np.argmax(np.abs(np.diff(theta))))
        raise UndersampledPathError(
            f"argument jump {float(max_step):.4f} >= pi between samples {k} and {k + 1}"
        )
    return theta


def continuous_power_along_path(path, c, rel_tol=1e-9):
    """Powers w^c tracked continuously along the path.

    Returns (values, crossed) where `crossed` is True iff the continuous
    determination differs from the pointwise principal power anywhere,
    i.e. the path wound across the negative real axis."""
    if isinstance(path, BranchedPath):
        samples = path.samples
    else:
        samples = BranchedPath(path).samples
    log_power, crossed, max_step = track_power(samples, complex(c), rel_tol=rel_tol)
    if max_step >= _JUMP_LIMIT:
        unwrapped_arguments(samples)  # raises, naming the samples
    return np.exp(log_power), bool(crossed)
