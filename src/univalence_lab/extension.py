"""Quasiconformal extension machinery: the Becker extension, which is the
chain itself (L(z, 0) = F(z) inside the disk, L(z/|z|, log|z|) outside),
its Beltrami coefficients in closed form from the chain's transfer, and
the extension-constant algebra that turns a strengthened criterion
constant k and chain speed a into the final quasiconformality constant l.

For a != 1 the constant is

    l = [(1-a)^2 + k |1-a^2|] / [|1-a^2| + k (1-a)^2]

and l = k at a = 1 (the sharpest case, hence the default a = 1)."""

import math
from dataclasses import dataclass

import numpy as np

from .chain import chain_grid, transfer_grid
from .errors import DomainError
from .series import polar_grid


@dataclass(frozen=True)
class ExtensionConstants:
    k: float
    a: float
    L1: float
    L2: float
    curlyL1: float
    curlyL2: float
    l: float

    def to_json(self):
        def enc(x):
            return x if math.isfinite(x) else None

        return {
            "k": self.k,
            "a": self.a,
            "L1": enc(self.L1),
            "L2": enc(self.L2),
            "curlyL1": enc(self.curlyL1),
            "curlyL2": enc(self.curlyL2),
            "l": self.l,
        }


@dataclass(frozen=True)
class BeltramiSample:
    z: complex
    mu: complex

    @property
    def modulus(self):
        return abs(self.mu)


def extension_constants(k, a):
    """Roots of the two containment inequalities and the final l.

    At a = 1 the quadratics degenerate and l = k directly; at k = 0 the
    curly pair divides by k, so (0, -inf) sentinels are returned.  The
    roots are invariant under a -> 1/a: taken at min(a, 1/a), none overflows."""
    k = float(k)
    a_in = float(a)
    if not 0.0 <= k < 1.0:
        raise DomainError("k must lie in [0, 1)")
    if not 0.0 < a_in < math.inf:
        raise DomainError("a must be finite and > 0")
    if a_in == 1.0:
        return ExtensionConstants(k, a_in, k, -math.inf, k, -math.inf, k)
    a = min(a_in, 1.0 / a_in)
    A = (1.0 - a) * (1.0 + a)  # 1 - a^2, which 1 - a*a loses to cancellation near a = 1
    denom = A + k * (1.0 - a) ** 2
    L1 = ((1.0 - a) ** 2 + k * A) / denom
    L2 = -((1.0 + a) ** 2 + k * A) / denom
    if k == 0.0:
        cl1, cl2 = 0.0, -math.inf
    else:
        root = math.sqrt(4.0 * a * a + (A * k) ** 2)
        # (root - 2a) / (k (1 - a)^2) by its conjugate, as root^2 - 4a^2 = (A k)^2
        cl1 = k * (1.0 + a) ** 2 / (2.0 * a + root)
        cl2 = (-2.0 * a - root) / (k * (1.0 - a) ** 2)
    return ExtensionConstants(k, a_in, L1, L2, cl1, cl2, L1)


def disk_containment_check(k, a, l, m=1.0, tol=1e-12):
    """Containment of the criterion disk in the transfer disk.

    The criterion disk has center (m-1)/2 and radius k(m+1)/2; the
    transfer disk (in the same bracket variable) has center
    [a(1+l^2)(m-1) + (1-l^2)(m a^2 - 1)] / D and radius 2 a l (1+m) / D
    with D = 2a(1+l^2) + (1-l^2)(1+a^2), taken in a = p/q with q = 1/a for
    a > 1 so that none overflows.  Returns (contained, slack)."""
    if not (0.0 < a < math.inf and 0.0 <= m < math.inf):
        raise DomainError("a must be finite and > 0, m finite and >= 0")
    if not 0.0 <= l < 1.0:
        raise DomainError("l must lie in [0, 1)")
    p, q = (a, 1.0) if a <= 1.0 else (1.0, 1.0 / a)
    D = 2.0 * p * q * (1.0 + l * l) + (1.0 - l * l) * (q * q + p * p)
    if D <= 0.0:
        raise DomainError("degenerate denominator in the transfer disk")
    center = (p * q * (1.0 + l * l) * (m - 1.0) + (1.0 - l * l) * (m * p * p - q * q)) / D
    radius = 2.0 * p * q * l * (1.0 + m) / D
    dist = abs(center - (m - 1.0) / 2.0)
    slack = radius - dist - k * (m + 1.0) / 2.0
    return slack >= -tol, slack


def _exterior(z, r, a):
    """The chain's (u, t) = (z/|z|, log|z|) at points z with |z| = r >= 1.

    u is divided componentwise, so |u| may pass 1 by a few ulps, within the
    chain's DISK_SLACK.  The chain reads t only through a t, floored here to
    2^-49, which keeps e^{-a t} u strictly inside the disk."""
    u = (z.real / r) + 1j * (z.imag / r)
    return u, np.maximum(np.log(r), 2.0**-49 / a)


def extend_grid(z, p, f, g=None, phi=None):
    """Piecewise extension on an array, all of it the chain: L(z, 0), the
    operator, inside the disk, and L(z/|z|, log|z|) outside (see _exterior).
    Returns (values, flagged) like chain_grid: flagged marks points whose
    value crossed a branch and is invalid."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    outside = r >= 1.0
    u, t = z.copy(), np.zeros(r.shape)
    u[outside], t[outside] = _exterior(z[outside], r[outside], p.a)
    return chain_grid(u, t, p, f, g, phi)


def beltrami_grid(z, p, f, g=None, phi=None):
    """Beltrami coefficients of the extension at an array of points with
    |z| > 1, in closed form.

    With u = z/|z| and t = log|z|, the chain's PDE u L_u = p L_t turns the
    Wirtinger derivatives of L(u, t) into mu = -(z/zbar) w(u, t), w the
    transfer.  It depends on f, g and phi only through the branch-free
    bracket, so a branch crossing of the extension's value leaves it valid."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    if not np.all((r > 1.0) & (r < np.inf)):  # NaN fails it too
        raise DomainError("need |z| > 1 and finite")
    _, w, _ = transfer_grid(*_exterior(z, r, p.a), p, f, g, phi)
    return -(z / np.conj(z)) * w


def beltrami_ring(p, f, g=None, phi=None, radii=(1.05, 1.3, 1.6, 2.0), n_theta=8):
    """Beltrami samples on a ring grid outside the unit circle."""
    z = polar_grid(radii, n_theta)
    mu = beltrami_grid(z, p, f, g, phi)
    return [BeltramiSample(zz, mm) for zz, mm in zip(z.tolist(), mu.tolist())]
