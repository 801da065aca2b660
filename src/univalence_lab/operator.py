"""The integral operator F(z) = z [g int_0^1 t^{g-1} h(tz) dt]^{1/g} with
h(u) = (f'(u))^alpha (g(u)/phi(u))^beta, evaluated by singularity-aware
Gauss-Legendre quadrature, plus the hypergeometric closed form that serves
as its independent oracle on the quadratic/quadratic/identity configuration.

The substitution t = s^p with p = max(1, ceil(2/Re gamma)) makes the
endpoint factor t^{gamma-1} boundedly differentiable, so one fixed rule
with panel doubling converges for every Re gamma > 0.  Integrand powers
are tracked continuously along the ray from u = 0 (where h = 1); branch
crossings are flagged, never repaired.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

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


_CHUNK = 4096


def operator_grid(zs, p, f, g=None, phi=None, q=None):
    """Vectorized operator evaluation over an array of disk points.

    Returns (values, brackets, panels_used, crossing flags).  Points are
    processed in chunks sharing one panel count; doubling stops when every
    bracket in the chunk is stable to rel_tol."""
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

    values = np.empty_like(zflat)
    brackets = np.empty_like(zflat)
    crossing = np.empty(zflat.shape, dtype=bool)
    panels = 0
    for lo in range(0, zflat.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        v, b, n, c = _grid_chunk(zflat[sl], p, f, g, phi, q)
        values[sl] = v
        brackets[sl] = b
        crossing[sl] = c
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
