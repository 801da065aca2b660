"""The integral operator F(z) = z [g int_0^1 t^{g-1} h(tz) dt]^{1/g} with
h(u) = (f'(u))^alpha (g(u)/phi(u))^beta, plus the hypergeometric closed
form that serves as its independent oracle on the
quadratic/quadratic/identity configuration.

Two paths evaluate it.

Series path.  h = (f')^alpha (g/z)^beta (phi/z)^{-beta} is analytic with
h(0) = 1, and its Taylor coefficients h_n follow from J.C.P. Miller's
recurrence for powers of a power series (Knuth, TAOCP vol. 2, 4.7), one
polynomial factor at a time.  The bracket is then exactly

    B(z) = 1 + gamma sum_{n>=1} S_n z^n,   S_n = h_n / (gamma + n),

and F = z exp(log1p(B - 1) / gamma), never through log B, which would
round B - 1 away for small |gamma|.  A plan, built once per problem,
holds the h_n, the S_n and the largest radius r_c < 1 on which three
certificates hold: every factor P = 1 + p_1 u + ... has
eps_P(r) = sum |p_k| r^k < 1 with L_P = -log(1 - eps_P) below pi for f'
and for g/z and phi/z together, so no factor vanishes and the branch
tracker never leaves sheet 0; a Cauchy bound on the tail of h beyond the
kept terms is at most 1e-16; and |gamma| (sum |S_n| r^n + tail) stays
below 1 - e^{-pi/2}, so |Arg B| < pi/2 along every bracket path.  Points
with |z| <= r_c take this path, unflagged and with no quadrature panel.

Quadrature path, for the remaining points.  The substitution t = s^p with
p = max(1, ceil(2/Re gamma)) makes the endpoint factor t^{gamma-1}
boundedly differentiable, so one fixed Gauss-Legendre rule with panel
doubling converges for Re gamma > 0.  Integrand powers are tracked
continuously along the ray from u = 0 (where h = 1); branch crossings are
flagged, never repaired.  A ray that runs through a zero of a factor
with a non-integer exponent is flagged too, for factors of fewer than 64
coefficients, whose zeros the plan computes; the sampled tracker cannot
see such a zero.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .branchpow import _JUMP_LIMIT, principal_power, track_power
from .errors import ConvergenceError, DomainError, HypothesisViolation
from .series import _IDENTITY


@dataclass(frozen=True)
class QuadratureConfig:
    nodes_per_panel: int = 32
    max_panels: int = 64
    rel_tol: float = 1e-10
    substitution_power: int | None = None

    def __post_init__(self):
        if self.nodes_per_panel < 2 or self.max_panels < 1:
            raise ValueError("need >= 2 nodes per panel and >= 1 panel")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")

    def power_for(self, gamma):
        """Substitution exponent p with Re(p*gamma) >= 2 unless overridden."""
        if self.substitution_power is not None:
            if self.substitution_power < 1:
                raise ValueError("substitution power must be >= 1")
            return int(self.substitution_power)
        return max(1, math.ceil(2.0 / complex(gamma).real))


@dataclass(frozen=True)
class OperatorResult:
    value: complex
    bracket: complex
    panels_used: int
    branch_crossing: bool


@lru_cache(maxsize=32)
def _gl_nodes(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=256)
def _panel_rule(nodes_per_panel, n_panels):
    """Composite GL nodes/weights on [0, 1] plus the panels' upper bounds.

    Panels are graded geometrically toward 0 so the endpoint factor
    s^{p gamma - 1} (algebraic decay with a log-oscillation for complex
    gamma) is resolved spectrally on every panel; doubling the panel count
    halves the innermost edge geometrically."""
    x, w = _gl_nodes(nodes_per_panel)
    edges = np.concatenate(
        [[0.0], 2.0 ** -np.arange(n_panels - 1, -1, -1, dtype=float)]
    )
    s_parts = []
    w_parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2.0
        s_parts.append((x + 1.0) * half + lo)
        w_parts.append(w * half)
    s = np.concatenate(s_parts)
    wts = np.concatenate(w_parts)
    return s, wts, edges[1:]


def _derivative_coeffs(s):
    """Coefficients of s'(z) as a plain polynomial a_0 + a_1 z + ..."""
    n = np.arange(1, s.degree + 1)
    return s.coefficients * n


def _integrand_matrix(p, f, g, phi, u):
    """h(u) on a (nodes, npoints) matrix of ray points, continuity-tracked
    down each column from h(0) = 1.  Returns (h, crossing-per-column).

    The log-powers of both factors are summed and exponentiated once."""
    log_h = None
    crossing = np.zeros(u.shape[1], dtype=bool)
    flat = u.ravel()
    for expo, deriv in ((p.alpha, True), (p.beta, False)):
        if expo == 0:
            continue
        if deriv:
            w = _kernels.polyval(_derivative_coeffs(f), flat)
        else:
            w = _kernels.polyval(g.coefficients, flat) / _kernels.polyval(phi.coefficients, flat)
        if np.any(w == 0) or np.any(~np.isfinite(w)):
            which = "f'" if deriv else "g/phi"
            raise HypothesisViolation(f"{which} vanishes or blows up on the integration ray")
        log_power, crossed, _ = track_power(w.reshape(u.shape), expo)
        if log_h is None:
            log_h = log_power
        else:
            log_h += log_power
        crossing |= crossed
    if log_h is None:
        return np.ones(u.shape, dtype=np.complex128), crossing
    return np.exp(log_h), crossing


_SERIES_TERMS = 256  # Taylor terms of h a plan computes; bounds its cost
_TAIL_TOL = 1e-16  # Cauchy bound asked of the tail of h beyond the kept terms
_ARG_LIMIT = 1.0 - math.exp(-math.pi / 2.0)  # |B - 1| below it keeps |Arg B| < pi/2
_ZERO_TOL = 1e-12  # a ray this close to a zero, relative to |z|, runs through it


def _power_coeffs(p, c, n):
    """The first n Taylor coefficients of P(u)^c, P = 1 + p_1 u + ... given
    as p = [1, p_1, ...], by J.C.P. Miller's recurrence
    q_k = (1/k) sum_{j=1}^{min(k, m)} ((c + 1) j - k) p_j q_{k-j}."""
    q = np.zeros(n, dtype=np.complex128)
    q[0] = 1.0
    pj = p[1:n]
    cj = (c + 1.0) * np.arange(1, pj.size + 1) * pj
    for k in range(1, n):
        top = min(k, pj.size)
        q[k] = ((cj[:top] - k * pj[:top]) @ q[k - top : k][::-1]) / k
    return q


def _zeros(coeffs):
    """Zeros of 1 + p_1 u + ..., each also as the mean of its cluster: a
    k-fold zero comes back from np.roots as k roots about eps^(1/k) apart,
    and their mean is accurate to rounding."""
    roots = np.roots(coeffs[::-1])
    near = np.abs(roots[:, None] - roots[None, :]) <= 1e-3 * (1.0 + np.abs(roots))[:, None]
    return np.concatenate([roots, (near @ roots) / near.sum(axis=1)])


def _eps(absp, r):
    """eps_P(r) = sum_{k>=1} |p_k| r^k for each r of a 1-d array."""
    with np.errstate(over="ignore", invalid="ignore"):  # NaN from inf * 0 fails every "< 1"
        powers = np.cumprod(np.broadcast_to(r[:, None], (r.size, absp.size - 1)), axis=1)
        return powers @ absp[1:]


def _log_bound(absp, r):
    """L_P(r) = -log(1 - eps_P(r)), the bound on |log P| for |u| <= r;
    inf where eps_P(r) >= 1."""
    e = _eps(absp, r)
    return np.where(e < 1.0, -np.log1p(-np.minimum(e, 1.0 - 1e-16)), np.inf)


def _sup(ok, hi):
    """The largest r in [0, hi] with ok(r), for ok monotone from True at 0."""
    if ok(hi):
        return hi
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


class SeriesPlan(NamedTuple):
    """Certified series evaluation of one problem (f, g, phi, alpha, beta,
    gamma): h_0 .. h_N, S_n = h_n / (gamma + n) for n = 1 .. N, the radius
    r_c up to which both are certified, and the zeros of the factors with a
    non-integer exponent (see the module docstring).  A NamedTuple, since
    defining a frozen dataclass costs about 1.7 ms of import time."""

    h: np.ndarray
    s: np.ndarray
    radius: float
    zeros: np.ndarray


@lru_cache(maxsize=256)
def _series_plan(f, g, phi, alpha, beta, gamma):
    # (coefficients [1, p_1, ...], exponent, group) of each nonconstant factor
    factors = [(_derivative_coeffs(f), alpha, 0)]
    if g != phi:
        factors += [(g.coefficients, beta, 1), (phi.coefficients, -beta, 1)]
    factors = [(np.trim_zeros(c, "b"), e, grp) for c, e, grp in factors if e != 0]
    factors = [(c, e, grp) for c, e, grp in factors if c.size > 1]
    h = np.zeros(_SERIES_TERMS, dtype=np.complex128)
    h[0] = 1.0
    zeros = [np.zeros(0, dtype=np.complex128)]
    for coeffs, expo, _ in factors:
        h = np.convolve(h, _power_coeffs(coeffs, expo, _SERIES_TERMS))[:_SERIES_TERMS]
        natural = expo.imag == 0 and expo.real >= 0 and expo.real == int(expo.real)
        if coeffs.size < _kernels._BLOCKED_MIN_TERMS and not natural:
            zeros.append(_zeros(coeffs))
    zeros = np.concatenate(zeros)
    if not factors:  # h = 1
        return SeriesPlan(h[:1], h[1:1], 1.0, zeros)
    absps = [(np.abs(c), abs(e), grp) for c, e, grp in factors]

    def r_arg_ok(r):  # L_{f'}(r) < pi and L_{g/z}(r) + L_{phi/z}(r) < pi
        logs = [0.0, 0.0]
        for absp, _, grp in absps:
            logs[grp] += _log_bound(absp, np.array([r]))[0]
        return max(logs) < math.pi

    def zero_free(r):
        return all(_eps(absp, np.array([r]))[0] < 1.0 for absp, _, _ in absps)

    top = 1.0
    while top < 1024.0 and zero_free(top):  # Cauchy radii past 1024 gain nothing for |z| <= 1
        top *= 2.0
    # Cauchy radii where every eps < 1, crowded toward the largest, and there
    # log M(rho) = sum |c| L_P(rho), the log of a bound on |h| on |u| = rho
    rho = _sup(zero_free, top) * (1.0 - np.geomspace(1.0, 1e-6, 200)[1:])
    log_m = sum(e * _log_bound(absp, rho) for absp, e, _ in absps)
    n = np.arange(1, _SERIES_TERMS)
    s = h[1:] / (gamma + n)
    terms = np.arange(_SERIES_TERMS)[:, None]  # keeping h_0 .. h_N: rows N = 0, 1, ...

    def certified(r):
        """Per N, whether the tail and the argument certificates hold at r."""
        if r == 0.0:
            return np.ones(_SERIES_TERMS, dtype=bool)
        x = r / rho[rho > r]
        # Cauchy bounds on sum_{n>N} |h_n| r^n, which also bound the tail of S
        tails = np.exp((log_m[rho > r] + (terms + 1.0) * np.log(x) - np.log1p(-x)).min(axis=1, initial=np.inf))
        partial = np.concatenate([[0.0], np.cumsum(np.abs(s) * r**n)])
        return (tails <= _TAIL_TOL) & (abs(gamma) * (partial + tails) < _ARG_LIMIT)

    radius = _sup(lambda r: certified(r)[-1], _sup(r_arg_ok, 1.0))
    keep = int(np.argmax(certified(radius))) + 1
    return SeriesPlan(h[:keep], s[: keep - 1], radius, zeros)


def _log1p(w):
    """log(1 + w) for complex w, accurate for small |w| (numpy's complex
    log1p rounds 1 + w first)."""
    x, y = w.real, w.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _series_values(plan, z, gamma):
    """(F, B) at points with |z| <= plan.radius."""
    b1 = gamma * z * _kernels.polyval(plan.s, z) if plan.s.size else np.zeros_like(z)
    values = z * np.exp(_log1p(b1) / gamma)
    bad = (z != 0) & ~((values != 0) & np.isfinite(values))
    if np.any(bad):
        raise ConvergenceError(
            f"F({complex(z[bad][0])}) = {complex(values[bad][0])} is not a finite nonzero number"
        )
    return values, 1.0 + b1


def _through_zero(zeros, z):
    """True where the segment [0, z] passes within _ZERO_TOL |z| of a zero."""
    hit = np.zeros(z.shape, dtype=bool)
    r2 = (z * z.conj()).real
    for w in zeros:
        t = np.clip((w * z.conj()).real / np.where(r2 > 0, r2, 1.0), 0.0, 1.0)
        hit |= np.abs(w - t * z) <= _ZERO_TOL * np.abs(z)
    return hit


_CHUNK = 4096


def operator_grid(zs, p, f, g=None, phi=None, q=None):
    """Vectorized operator evaluation over an array of disk points.

    Returns (values, brackets, panels_used, crossing flags).  Points inside
    the plan's certified radius take the series path; the rest are
    processed by quadrature in chunks sharing one panel count, where
    doubling stops when every bracket in the chunk is stable to rel_tol.
    panels_used is the largest panel count of a chunk, 0 if none ran."""
    g = g or _IDENTITY
    phi = phi or _IDENTITY
    q = q or QuadratureConfig()
    if p.gamma.real <= 0:
        raise HypothesisViolation("operator evaluation requires Re gamma > 0")
    zs = np.asarray(zs, dtype=np.complex128)
    shape = zs.shape
    zflat = zs.ravel()
    if zflat.size and np.abs(zflat).max() >= 1.0:
        raise DomainError("operator is defined for |z| < 1")

    plan = _series_plan(f, g, phi, p.alpha, p.beta, p.gamma)
    near = np.abs(zflat) <= plan.radius
    values = np.empty_like(zflat)
    brackets = np.empty_like(zflat)
    crossing = np.zeros(zflat.shape, dtype=bool)
    values[near], brackets[near] = _series_values(plan, zflat[near], p.gamma)
    far = np.flatnonzero(~near)
    panels = 0
    for lo in range(0, far.size, _CHUNK):
        idx = far[lo : lo + _CHUNK]
        v, b, n, c = _grid_chunk(zflat[idx], p, f, g, phi, q)
        values[idx] = v
        brackets[idx] = b
        crossing[idx] = c | _through_zero(plan.zeros, zflat[idx])
        panels = max(panels, n)
    return (
        values.reshape(shape),
        brackets.reshape(shape),
        panels,
        crossing.reshape(shape),
    )


def _grid_chunk(zflat, p, f, g, phi, q):
    pw = q.power_for(p.gamma)
    pg = pw * p.gamma
    npp = q.nodes_per_panel
    prev = None
    n_panels = 1
    while n_panels <= q.max_panels:
        s, wts, bounds = _panel_rule(npp, n_panels)
        u = (s**pw)[:, None] * zflat[None, :]
        h, crossing = _integrand_matrix(p, f, g, phi, u)
        weights = (wts * pw * p.gamma * s ** (pg - 1.0)).reshape(n_panels, 1, npp)
        # one (1 x npp) @ (npp x points) product per panel
        panel_sums = np.matmul(weights, h.reshape(n_panels, npp, -1))[:, 0, :]
        brackets = panel_sums.sum(axis=0)
        if prev is not None:
            delta = np.abs(brackets - prev)
            if np.all(delta <= q.rel_tol * np.maximum(np.abs(brackets), 1e-300)):
                break
        prev = brackets
        n_panels *= 2
    else:
        raise ConvergenceError(
            f"quadrature did not converge within {q.max_panels} panels"
        )

    # the bracket path tau^{-gamma} int_0^tau, tau = bound**pw, through the
    # panel bounds; the power is taken in logs since bound**pw underflows
    # once pw is in the thousands
    partials = np.cumsum(panel_sums, axis=0)
    paths = np.vstack(
        [np.ones(zflat.size), np.exp(-p.gamma * pw * np.log(bounds))[:, None] * partials]
    )
    zero_path = np.any(paths == 0, axis=0)
    safe = np.where(zero_path[None, :], 1.0 + 0.0j, paths)
    _, root_jump, max_step = track_power(safe, 1.0 / p.gamma)
    undersampled = max_step >= _JUMP_LIMIT
    nz = zflat != 0
    crossing |= (zero_path | undersampled | root_jump) & nz
    values = np.zeros_like(zflat)
    ok = nz & (brackets != 0)
    values[ok] = zflat[ok] * np.exp(np.log(brackets[ok]) / p.gamma)
    crossing |= nz & (brackets == 0)
    lost = nz & ~crossing & ~((values != 0) & np.isfinite(values))
    if np.any(lost):
        z = complex(zflat[lost][0])
        raise ConvergenceError(
            f"F({z}) = {complex(values[lost][0])} is not a finite nonzero number "
            f"(bracket {complex(brackets[lost][0])}, 1/gamma = {1.0 / p.gamma})"
        )
    brackets = np.where(nz, brackets, 1.0 + 0.0j)
    return values, brackets, n_panels, crossing


def operator_eval(z, p, f, g=None, phi=None, q=None):
    """F(z) at a single point; see operator_grid for the machinery."""
    values, brackets, panels, crossing = operator_grid(
        np.array([complex(z)]), p, f, g, phi, q
    )
    return OperatorResult(
        complex(values[0]), complex(brackets[0]), panels, bool(crossing[0])
    )


def hyp2f1(a, b, c, w, max_terms=100_000):
    """Gauss series 2F1(a, b; c; w) on |w| < 1, terminating when a or b is
    a non-positive integer."""
    a, b, c, w = complex(a), complex(b), complex(c), complex(w)
    if c.imag == 0 and c.real <= 0 and c.real == int(c.real):
        raise DomainError(f"2F1 pole: c = {c} is a non-positive integer")
    if abs(w) >= 1.0:
        raise DomainError(f"2F1 series requires |w| < 1, got |w| = {abs(w):.4g}")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * w
        if term == 0:
            return total
        total += term
        if abs(term) < 1e-16 * abs(total):
            return total
    raise ConvergenceError(f"2F1 series did not converge in {max_terms} terms")


def example31_closed_form(z, p):
    """z [2F1(gamma, -(alpha+beta); 1+gamma; -z/2)]^{1/gamma}, the closed
    form of the operator on f = z + z^2/4, g = z + z^2/2, phi = z."""
    if p.gamma.real <= 0:
        raise HypothesisViolation("closed form requires Re gamma > 0")
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("closed form is defined for |z| < 1")
    if z == 0:
        return 0.0 + 0.0j
    val = hyp2f1(p.gamma, -(p.alpha + p.beta), 1.0 + p.gamma, -z / 2.0)
    return z * principal_power(val, 1.0 / p.gamma)
