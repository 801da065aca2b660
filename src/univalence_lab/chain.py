"""The subordination chain L(z, t), its transfer functions, the PDE
residual probe, and a winding-number subordination check.

L is evaluated in the factored form

    L(z, t) = z [e^{-a t g} B(e^{-a t} z)
               + (e^{m a t g} - e^{-a t g}) h(e^{-a t} z)]^{1/g}

where B(w) = g int_0^1 s^{g-1} h(s w) ds is the operator bracket; the
factoring is valid because Log(e^{-a t} z) = -a t + Log z for positive
real scalings.  B and h at every zeta = e^{-a t} z therefore come from the
operator's machinery: its certified Taylor series where it applies, and
elsewhere the step-by-step continuation along the ray 0 -> zeta, which
carries h(zeta) on the continued branches.  The root is the operator's
too: the bracket enters as inner - 1 = e^{-a t g}(B - 1) + expm1(-a t g)
+ (expm1(m a t g) - expm1(-a t g)) h, every term of the size of g, so
small g loses no digits; it is exactly B - 1 at t = 0, so L(z, 0) = F(z)
to the last bit."""

import numbers

import numpy as np

from . import oracle
from .errors import (
    BranchCrossingError,
    DegeneratePointError,
    DomainError,
    InconclusiveError,
    TransferPoleError,
)
from .operator import _evaluate, _root
from .series import _IDENTITY, DISK_SLACK, _bracket, _bracket_series, bracket_quotients, polar_grid

FD_STEP_Z = 1e-5
FD_STEP_T = 1e-4
T_CLAMP = 1e-3
_BRACKET_PROBLEMS = 16  # prepared brackets _transfer_bracket keeps

_brackets = {}  # ids of a problem -> (the problem, its quotients, its _bracket_series)


def _flat(z, t):
    """Broadcast z (complex) and t (real) and flatten; returns (z, t, shape).
    Raises DomainError unless every t is real, finite and >= 0; a complex
    dtype counts as not real, even with zero imaginary parts."""
    t = np.asarray(t)
    if t.dtype.kind == "c":
        raise DomainError("t must be real")
    z, t = np.broadcast_arrays(np.asarray(z, dtype=np.complex128), t.astype(float, copy=False))
    if not ((t >= 0) & (t < np.inf)).all():  # NaN fails it too
        raise DomainError("t must be >= 0 and finite")
    return z.ravel(), t.ravel(), z.shape


def chain_grid(z, t, p, f, g=None, phi=None):
    """L(z, t) on broadcastable arrays of z and t, |z| < 1 at t = 0 and
    |z| <= 1 + DISK_SLACK at t > 0; the integral operator at t = 0.  Returns
    (values, flagged): flagged marks points where the operator path or the
    ray 0 -> e^{-a t} z carrying h crossed a branch, so the value is invalid.
    Raises HypothesisViolation unless Re gamma > 0, and ConvergenceError where
    an unflagged value is not a finite nonzero number, as operator_grid does."""
    g, phi = g or _IDENTITY, phi or _IDENTITY
    zf, tf, shape = _flat(z, t)
    r = np.abs(zf)
    if np.any(~(r <= 1.0 + DISK_SLACK) | ((r >= 1.0) & (tf <= 0))):
        raise DomainError("need |z| < 1, or |z| <= 1 with t > 0")
    values = np.zeros_like(zf)
    flagged = np.zeros(zf.shape, dtype=bool)
    nz = zf != 0
    values[nz], flagged[nz] = _chain_values(zf[nz], tf[nz], p, f, g, phi)
    return values.reshape(shape), flagged.reshape(shape)


def _chain_values(z, t, p, f, g, phi):
    zeta = np.exp(-p.a * t) * z
    b1, h, _, crossing = _evaluate(zeta, p, f, g, phi, inner_h=True)
    atg = p.a * t * p.gamma
    decay1 = np.expm1(-atg)  # e^{-a t gamma} - 1
    with np.errstate(over="ignore", invalid="ignore"):  # _root raises on what overflows
        inner1 = (1.0 + decay1) * b1 + decay1 + (np.expm1(p.m * atg) - decay1) * h
    return _root(z, inner1, p.gamma, crossing), crossing


def _reject_flagged(flagged, where):
    if np.any(flagged):
        raise BranchCrossingError(
            f"{int(np.sum(flagged))} chain values of {where} flagged for a branch crossing"
        )


def transfer_grid(z, t, p, f, g=None, phi=None):
    """(G, w, p) of the chain on broadcastable arrays of z and t >= 0.

    G collects the criterion bracket at zeta = e^{-a t} z scaled by
    (1 - e^{-(m+1) a t gamma}) / gamma; w is the Moebius transfer
    [(1+a)G + 1 - ma] / [(1-a)G + 1 + ma] and p = (1+w)/(1-w)."""
    zf, tf, shape = _flat(z, t)
    zeta = np.exp(-p.a * tf) * zf
    quotients, series = _transfer_bracket(f, g, phi, p.alpha, p.beta)
    bracket = _bracket(quotients, series, p.beta, zeta, np.abs(zeta))
    G = bracket / p.gamma * (1.0 - np.exp(-(p.m + 1.0) * p.a * tf * p.gamma))
    return tuple(x.reshape(shape) for x in _transfer_from_G(G, p.m, p.a))


def _transfer_bracket(f, g, phi, alpha, beta):
    """(quotients, series) of criterion_bracket for the problem (f, g, phi,
    alpha, beta): its bracket_quotients and their _bracket_series, prepared
    on the problem's first call and kept for the _BRACKET_PROBLEMS problems
    used last, so repeated transfer calls on one problem prepare its
    SeriesStack once.  A problem is told apart by the identity of its five
    members, never by value, as _bracket_series tells series apart; an
    entry holds them, so no id of a kept problem is reused."""
    problem = (f, g or _IDENTITY, phi or _IDENTITY, alpha, beta)
    key = tuple(map(id, problem))
    entry = _brackets.pop(key, None)
    if entry is None:
        quotients = bracket_quotients(*problem)
        entry = problem, quotients, _bracket_series(quotients)
        if len(_brackets) >= _BRACKET_PROBLEMS:
            del _brackets[next(iter(_brackets))]  # the one used longest ago
    _brackets[key] = entry
    return entry[1:]


def _transfer_from_G(G, m, a):
    G = np.asarray(G, dtype=np.complex128)
    num = (1.0 + a) * G + 1.0 - m * a
    den = (1.0 - a) * G + 1.0 + m * a
    if np.any(den == 0):
        raise TransferPoleError(f"transfer denominator vanished at G = {complex(G[den == 0][0])}")
    w = num / den
    if np.any(w == 1.0):
        raise TransferPoleError("w = 1: p is undefined")
    return G, w, (1.0 + w) / (1.0 - w)


def pde_residual(z, t, p, f, g=None, phi=None):
    """Relative residual of z dL/dz = p(z,t) dL/dt by central differences.

    t in [0, T_CLAMP) is evaluated at T_CLAMP (one-sided guard at the t = 0
    boundary); any other t raises DomainError, as in transfer_grid."""
    z = complex(z)
    t = max(float(_flat(z, t)[1][0]), T_CLAMP)
    if not 0.0 < abs(z) < 1.0:
        raise DomainError("need 0 < |z| < 1")
    hz = FD_STEP_Z
    ht = FD_STEP_T
    stencil_z = [z + hz, z - hz, z + 1j * hz, z - 1j * hz, z, z]
    stencil_t = [t, t, t, t, t + ht, t - ht]
    L, flagged = chain_grid(stencil_z, stencil_t, p, f, g, phi)
    _reject_flagged(flagged, f"the stencil at ({z}, {t})")
    x_plus, x_minus, y_plus, y_minus, t_plus, t_minus = L.tolist()
    dx = (x_plus - x_minus) / (2.0 * hz)
    dy = (y_plus - y_minus) / (2.0 * hz)
    Lz = 0.5 * (dx + dy / 1j)
    Lt = (t_plus - t_minus) / (2.0 * ht)
    pval = complex(transfer_grid(z, t, p, f, g, phi)[2])
    lhs = z * Lz
    rhs = pval * Lt
    if abs(lhs) < 1e-14 and abs(rhs) < 1e-14:
        raise DegeneratePointError(f"both derivative magnitudes < 1e-14 at ({z}, {t})")
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs))


def subordination_probe(t, s, rho, p, f, g=None, phi=None, samples=64):
    """Check L(., t)(half-radius points) lies inside the curve L(rho e^{i.}, s).

    Sampling-based: each test point must have winding number exactly 1
    with respect to the image curve at time s; curves too close to a test
    point raise InconclusiveError rather than guessing.  samples, the
    number of test points, must be an integer >= 1 (not a bool): with none
    the check would hold vacuously."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise DomainError("samples must be an integer >= 1")
    if not 0.0 <= t <= s:
        raise DomainError("need 0 <= t <= s")
    if not 0.0 < rho < 1.0:
        raise DomainError("need 0 < rho < 1")
    pts, flagged = chain_grid(polar_grid([0.5 * rho], samples), t, p, f, g, phi)
    _reject_flagged(flagged, f"test points at t = {t}")
    for n_curve in (256, 512, 1024, 2048, 4096):
        circle = polar_grid([rho], n_curve)
        curve, flagged = chain_grid(np.append(circle, circle[0]), s, p, f, g, phi)
        _reject_flagged(flagged, f"curve at s = {s}")
        try:
            return oracle.argument_principle_check(curve, pts, min_dist=1e-10)
        except InconclusiveError:
            if n_curve == 4096:
                raise
