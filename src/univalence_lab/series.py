"""Normalized analytic functions on the unit disk as truncated power series.

A series f(z) = z + c_2 z^2 + ... + c_N z^N stores c_1..c_N with c_1 = 1
(the class-A normalization f(0) = 0, f'(0) = 1).  Derivatives are exact
series operations; the log-derivative terms z h'(z)/h(z) needed by the
criteria are evaluated through the quotient of the cofactor series
S(z) = h(z)/z, which removes the forced zero at the origin.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DerivativeVanishes, DomainError, HypothesisViolation, TruncationWarning

TRUNCATION_TOL = 1e-12
SMALL_Z = 1e-8
DERIVATIVE_FLOOR = 1e-13  # |f'| below this counts as f' = 0
DEFAULT_DEGREE = 64
DISK_SLACK = 1e-15  # |z| <= 1 + DISK_SLACK counts as in the closed disk


@dataclass(frozen=True, eq=False)
class SeriesFunction:
    """Truncated power series of a class-A function; coefficients c_1..c_N.

    Equality compares coefficients only (labels are cosmetic).  `truncated`
    marks series that cut off an infinite expansion (Koebe, exponential);
    only those carry a meaningful tail bound and can warn."""

    coefficients: np.ndarray
    label: str = ""
    truncated: bool = False

    def __eq__(self, other):
        if not isinstance(other, SeriesFunction):
            return NotImplemented
        return self.coefficients.shape == other.coefficients.shape and bool(
            np.all(self.coefficients == other.coefficients)
        )

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=np.complex128))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if c[0] != 1.0:
            raise ValueError("c1 must equal 1 (class-A normalization)")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        # + 0.0 maps -0.0 to 0.0, so series that compare equal hash equal
        object.__setattr__(self, "_hash", hash((c + 0.0).tobytes()))

    @property
    def degree(self):
        return int(self.coefficients.size)

    def tail_bound(self, radius):
        """|c_N| * r^N, the crude truncation estimate at |z| = r."""
        n = self.degree
        return abs(self.coefficients[-1]) * radius**n

    def to_json(self):
        return [[c.real, c.imag] for c in self.coefficients]


def _truncation_message(s, radius):
    """The TruncationWarning text of s at |z| = radius, or None when s is
    not truncated or its tail bound there is within TRUNCATION_TOL."""
    if s.truncated and s.tail_bound(radius) > TRUNCATION_TOL:
        return (
            f"series {s.label or '<unnamed>'}: tail bound "
            f"{s.tail_bound(radius):.3g} exceeds {TRUNCATION_TOL:g} at |z|={radius:.4g}"
        )
    return None


def eval_many(s, z):
    """Vectorized (s, s', s'') on an array of points with |z| <= 1."""
    z = np.asarray(z, dtype=np.complex128)
    _check_disk(np.abs(z), s)
    p, dp, ddp = _kernels.polyval012(_kernels.SeriesStack((s.coefficients,)), z)[:, 0]
    return p.reshape(z.shape), dp.reshape(z.shape), ddp.reshape(z.shape)


def _check_disk(r, *series):
    """DomainError when the largest |z| = r passes 1 + DISK_SLACK or a
    point is not finite; each truncated series warns there, in order."""
    if not r.size:
        return
    rmax = float(r.max())
    if not rmax <= 1.0 + DISK_SLACK:  # NaN fails it too
        raise DomainError(f"max |z| = {rmax:.6g} > 1")
    for s in series:
        message = _truncation_message(s, rmax)
        if message:
            warnings.warn(message, TruncationWarning, stacklevel=2)


def log_derivative(s, z):
    """z s'(z) / s(z) at points with |z| <= 1, the removable singularity at 0 filled in.

    For |z| > SMALL_Z the direct quotient s'(z) z / s(z) is used; below
    that, the series quotient D(z)/S(z) with D = s' and S = s/z, which
    tends to 1 as z -> 0 for any class-A series.
    """
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    _check_disk(r, s)
    p, dp, _ = _kernels.polyval012(_kernels.SeriesStack((s.coefficients,)), z)[:, 0]
    return _log_quotient(s, z, p.reshape(z.shape), dp.reshape(z.shape), _small(r))


def _small(r):
    """The mask of the points with |z| = r <= SMALL_Z, or None when there
    is none."""
    small = r <= SMALL_Z
    return small if np.count_nonzero(small) else None


def _log_quotient(s, z, p, dp, small):
    """log_derivative from p = s(z) and dp = s'(z) at the points z, small
    their _small mask.  The masks run only when a point has |z| <=
    SMALL_Z: on the other points they select every element, which gives
    the same bits."""
    big = ... if small is None else ~small
    denom = p[big]
    if np.count_nonzero(denom) < denom.size:
        bad = z[big][denom == 0][0]
        raise HypothesisViolation(
            f"series {s.label or '<unnamed>'} vanishes at z = {bad}", witness=complex(bad)
        )
    quotient = dp[big] * z[big] / denom
    if small is None:
        return quotient
    out = np.empty_like(p)
    out[big] = quotient
    sz = z[small]
    out[small] = dp[small] / _kernels.polyval(s.coefficients, sz).reshape(sz.shape)
    return out


def bracket_quotients(f, g, phi, alpha, beta):
    """The quotients z s^(top)/s^(top-1) of criterion_bracket as (series,
    top, weight, least |denominator|): f, then g and phi (the identity when
    None) when beta != 0, the one place that decides whether they enter."""
    quotients = ((f, 2, alpha, DERIVATIVE_FLOOR),)
    if beta != 0:
        quotients += ((g or _IDENTITY, 1, beta, 0.0), (phi or _IDENTITY, 1, -beta, 0.0))
    return quotients


def criterion_bracket(f, g, phi, alpha, beta, z):
    """The criterion bracket B = alpha z f''/f' + beta (z g'/g - z phi'/phi)
    over points with |z| <= 1, g and phi entering as bracket_quotients says.

    B is 0 at z = 0 (removable singularities of the class-A
    normalization).  Raises DerivativeVanishes at the first point where
    |f'| < DERIVATIVE_FLOOR.  Truncated series warn at the largest |z|: f
    first, g and phi once f' passes.  The distinct series are evaluated by
    one polyval012 call, which gives each the bits of eval_many and
    log_derivative."""
    z = np.asarray(z, dtype=np.complex128)
    quotients = bracket_quotients(f, g, phi, alpha, beta)
    return _bracket(quotients, _bracket_series(quotients), beta, z, np.abs(z))


def _bracket_series(quotients):
    """(stack, slots) of the distinct series of the quotients, in order:
    their _kernels.SeriesStack and the index of each quotient's series in
    it.  Series are told apart by identity, not by value: two that compare
    equal can still differ in the sign of a zero, which their values keep."""
    series = {id(s): s.coefficients for s, *_ in quotients}
    slots = tuple(list(series).index(id(s)) for s, *_ in quotients)
    return _kernels.SeriesStack(series.values()), slots


def _bracket(quotients, series, beta, z, r):
    """criterion_bracket at the complex128 array z of moduli r, from its
    bracket_quotients, their _bracket_series and beta.  beta weights lr =
    0 too when g and phi do not enter, so the signs of zero parts stay.
    The points are taken in order, flat."""
    (f, _, alpha, _), *logs = quotients
    stack, slots = series
    _check_disk(r, f)
    shape, z, r = z.shape, z.ravel(), r.ravel()
    p, dp, ddp = _kernels.polyval012(stack, z)
    fp, fpp = dp[slots[0]], ddp[slots[0]]
    bad = np.abs(fp) < DERIVATIVE_FLOOR
    if np.count_nonzero(bad):  # a fraction of the cost of bad.any() on few points
        w = complex(z[bad][0])
        raise DerivativeVanishes(f"f'(z) = 0 at z = {w}", witness=w)
    pre = z * fpp / fp
    if logs:
        (g, *_), (phi, *_) = logs
        _check_disk(r, g, phi)  # for their truncation warnings
        j, k = slots[1:]
        small = _small(r)
        lr = _log_quotient(g, z, p[j], dp[j], small) - _log_quotient(phi, z, p[k], dp[k], small)
    else:
        lr = np.zeros_like(z)
    return (alpha * pre + beta * lr).reshape(shape)


def as_integer(value, name):
    """value as an int: an integer, or a float with an integral value, and
    not a bool; else ValueError.  Counts read from a config pass here."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer")
    return int(value)


_CATALOG = ("identity", "quadratic", "koebe", "expscaled")


def catalog_build(name, params=None):
    """Build a catalog series: identity, quadratic z + c z^2, truncated
    Koebe z/(1-z)^2, or scaled exponential (e^{lam z} - 1)/lam."""
    params = dict(params or {})
    degree = as_integer(params.pop("degree", DEFAULT_DEGREE), "degree")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if name == "identity":
        coeffs = np.array([1.0 + 0.0j])
    elif name == "quadratic":
        c = complex(params.pop("c", 0.0))
        if abs(c) > 0.5:
            raise ValueError(f"quadratic coefficient |c| = {abs(c)} > 0.5")
        coeffs = np.array([1.0, c], dtype=np.complex128)
    elif name == "koebe":
        coeffs = np.arange(1, degree + 1, dtype=np.complex128)
    elif name == "expscaled":
        lam = complex(params.pop("lam", 1.0))
        if abs(lam) > 4.0:
            raise ValueError(f"|lam| = {abs(lam)} > 4")
        if degree > 170:  # 171! overflows a double; at |lam| <= 4, c_170 < 1e-205
            raise ValueError(f"expscaled degree {degree} > 170")
        n = np.arange(1, degree + 1)
        coeffs = lam ** (n - 1) / np.array([math.factorial(int(k)) for k in n])
    else:
        raise ValueError(f"unknown catalog function {name!r}; choose from {_CATALOG}")
    if params:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")
    return SeriesFunction(coeffs, label=name, truncated=name in ("koebe", "expscaled"))


_IDENTITY = catalog_build("identity")  # default g and phi


def polar_grid(radii, n_angles):
    """The open circles r e^{2 pi i j / n_angles}, j < n_angles, of radii, radius-major."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    return (np.asarray(radii, dtype=float)[:, None] * np.exp(1j * theta)[None, :]).ravel()


def nonvanishing_check(s, radius, grid, floor=1e-9):
    """Sample |s(z)/z| on the grid circles up to `radius`, else on |z| = radius; evidence, not proof.

    Returns (True, None) if all samples stay above `floor`, otherwise
    (False, witness); raises DomainError for a radius outside (0, 1) and
    for a floor below 0 or not finite (NaN fails both).
    """
    if not 0.0 < radius < 1.0:
        raise DomainError("radius must lie in (0, 1)")
    if not 0.0 <= floor < math.inf:
        raise DomainError("floor must be finite and >= 0")
    inside = sum(r <= radius for r in grid.radii)  # the radii increase
    z = grid.points()[: inside * grid.angles_per_radius] if inside else polar_grid([radius], grid.angles_per_radius)
    vals = np.abs(_kernels.polyval(s.coefficients, z))  # |s(z)/z|
    bad = np.nonzero(vals <= floor)[0]
    if bad.size:
        return False, complex(z[bad[0]])
    return True, None
