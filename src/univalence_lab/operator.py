"""The integral operator F(z) = z [g int_0^1 t^{g-1} h(tz) dt]^{1/g} with
h(u) = (f'(u))^alpha (g(u)/phi(u))^beta, plus the hypergeometric closed
form that serves as its independent oracle on the
quadratic/quadratic/identity configuration.

h = (f')^alpha (g/z)^beta (phi/z)^{-beta} is analytic with h(0) = 1.  The
factors whose exponent is a natural number multiply out into one exact
polynomial M; the others are powers P^e of polynomials P = 1 + p_1 u + ....
With J(z) = z^{-gamma} int_0^z u^{gamma-1} (h(u) - 1) du the bracket is
B = 1 + gamma J, and F = z exp(log1p(gamma J) / gamma), never through
log B, which would round B - 1 away for small |gamma|.

Series.  The Taylor coefficients h_n follow from J.C.P. Miller's
recurrence for powers of a power series (Knuth, TAOCP vol. 2, 4.7), one
factor at a time, and J = sum_{n>=1} S_n z^n with S_n = h_n / (gamma + n).
Terms from the first whose modulus overflows on are dropped (h_n depends
on no later term, so the earlier ones are exact), and the certificates
read the finite prefix.
A plan, built once per problem, holds the h_n, the S_n and the largest
radius r_c <= 1 on which three certificates hold: every factor P^e has
eps_P(r) = sum |p_k| r^k < 1 with L_P = -log(1 - eps_P) below pi for f'
and for g/z and phi/z together, so no factor vanishes and each log P
stays on its principal sheet; a Cauchy bound on the tail of h beyond the
kept terms is at most 1e-16; and |gamma| (sum |S_n| r^n + tail) stays
below 1 - e^{-pi/2}, so |Arg B| < pi/2 along every bracket path.  When
h = M is a polynomial, all its terms are kept and only the last
certificate limits r_c; when 1/gamma is a natural number as well,
B^{1/gamma} has no branch and r_c = 1.  Points with |z| <= r_c take this
path, unflagged.

Continuation, for the other points: numerical analytic continuation of
h along the ray (van der Hoeven, "Fast evaluation of holonomic
functions", TCS 1999), started at r_c z/|z| from the series.  A step
moves the centre c to c(1 + sigma).  Each factor P^e is shifted to c,
P(c(1+s))/P(c) = 1 + sum_k a_k s^k, and sigma is the largest rung of a
ladder with eps(2 sigma) = sum |a_k| (2 sigma)^k <= 1/2, the first
_SHIFT_TERMS terms exact and the rest bounded by the Lagrange remainder
of the majorant sum |p_j| u^j.  Then |P(c(1+s))/P(c) - 1| <= 1/2 for
|s| <= 2 sigma: the step is zero-free and the principal log of the ratio
continues log P.  M may at most double its majorant on that disc, and
sigma <= 1/4 keeps (1 + s)^{gamma-1} analytic there.  A fixed
Gauss-Legendre rule in s gives

    J(c(1+sigma)) = (1+sigma)^{-gamma}
                    (J(c) + int_0^sigma (1+s)^{gamma-1} (h(c(1+s)) - 1) ds).

A point is flagged where the continued power of f' or of g/phi, or the
continued B^{1/gamma}, differs from the principal one at z (by the sheet
index, see sheet_crossed); where Arg B jumps by pi or more between step
ends; and where a step would fall below 1e-14 or the steps run out, which
is what happens on a ray through a zero of a factor.  Every power in the
package is principal (argument in (-pi, pi]) or continued this way; this
module decides every branch and forms every root B^{1/gamma}, the chain's
and the extension's included.
"""

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DomainError, HypothesisViolation, SingularPowerError
from .series import _IDENTITY


_JUMP_LIMIT = math.pi * (1.0 - 1e-12)  # an argument step this large leaves the sheet ambiguous
_SHEET_TOL = 1e-9  # relative change of a power that counts as a sheet crossing


def principal_power(w, c):
    """w^c = exp(c Log w) with Log the principal logarithm.

    w = 0 is allowed only for Re c > 0 (result 0); 0^0 is rejected."""
    w = complex(w)
    c = complex(c)
    if w == 0:
        if c.real > 0:
            return 0.0 + 0.0j
        raise SingularPowerError(f"0 raised to power {c} with Re c <= 0")
    if c == 0:
        return 1.0 + 0.0j
    return cmath.exp(c * cmath.log(w))


def sheet_crossed(k, c):
    """Where the power w^c continued onto sheet k (argument Arg w - 2 pi k)
    differs from the principal one: |e^{2 pi i c k} - 1| exceeds
    _SHEET_TOL (1 + |e^{2 pi i c k}|), or e^{2 pi i c k} is not finite."""
    turn = np.exp((2j * math.pi * complex(c)) * np.asarray(k, dtype=float))
    return ~np.isfinite(turn) | (np.abs(turn - 1.0) > _SHEET_TOL * (1.0 + np.abs(turn)))


def _derivative_coeffs(s):
    """Coefficients of s'(z) as a plain polynomial a_0 + a_1 z + ..."""
    n = np.arange(1, s.degree + 1)
    return s.coefficients * n


_SERIES_TERMS = 256  # Taylor terms of h a plan computes; bounds its cost
_TAIL_TOL = 1e-16  # Cauchy bound asked of the tail of h beyond the kept terms
_ARG_LIMIT = 1.0 - math.exp(-math.pi / 2.0)  # |B - 1| below it keeps |Arg B| < pi/2
_MULTIPLIER_TERMS = 1 << 16  # the longest polynomial M a plan multiplies out

_NODES = 12  # Gauss-Legendre nodes per continuation step
_MAX_STEPS = 128  # continuation steps a ray may take before its point is flagged
_SHIFT_TERMS = 16  # shifted coefficients a step certificate computes per factor
_LADDER = 0.25 * 2.0 ** (-0.5 * np.arange(90))  # step sizes sigma, from 1/4 down to 1.1e-14


def _natural(e):
    """Whether the complex number e is a non-negative integer."""
    return e.imag == 0 and e.real >= 0 and e.real == int(e.real)


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
    """Certified evaluation of one problem (f, g, phi, alpha, beta, gamma):
    h_0 .. h_N, S_n = h_n / (gamma + n) for n = 1 .. N, the radius r_c up
    to which both are certified, the factors with an exponent that is not
    a natural number as (coefficients, exponent, group, sign) with group 0
    for f' and 1 for g/phi, the polynomial M, the product of the other
    factors (see the module docstring), and values, the polynomials S_1 +
    S_2 u + ... and h prepared for one Horner pass of both
    (_kernels.ValueStack).  A NamedTuple, since defining a frozen dataclass
    costs about 1.7 ms of import time."""

    h: np.ndarray
    s: np.ndarray
    radius: float
    factors: tuple
    multiplier: np.ndarray
    values: _kernels.ValueStack


@lru_cache(maxsize=256)
def _series_plan(f, g, phi, alpha, beta, gamma):
    # (coefficients [1, p_1, ...], exponent, group, sign) of each nonconstant factor
    factors = [(_derivative_coeffs(f), alpha, 0, 1)]
    if g != phi:
        factors += [(g.coefficients, beta, 1, 1), (phi.coefficients, -beta, 1, -1)]
    factors = [(np.trim_zeros(c, "b"), *rest) for c, *rest in factors if rest[0] != 0]
    multiplier = np.ones(1, dtype=np.complex128)
    powers = []
    for coeffs, expo, grp, sign in factors:
        if coeffs.size == 1:
            continue
        if _natural(expo) and multiplier.size + (coeffs.size - 1) * expo.real <= _MULTIPLIER_TERMS:
            for _ in range(int(expo.real)):
                multiplier = np.convolve(multiplier, coeffs)
        else:
            powers.append((coeffs, expo, grp, sign))
    factors = tuple(powers)
    if not factors:  # h = M: every term kept, nothing to truncate
        n = np.arange(1, multiplier.size)
        s = multiplier[1:] / (gamma + n)
        radius = 1.0
        if s.size and not _natural(1.0 / gamma):
            radius = _sup(lambda r: abs(gamma) * (np.abs(s) @ r**n) < _ARG_LIMIT, 1.0)
        return SeriesPlan(multiplier, s, radius, factors, multiplier, _kernels.ValueStack((s, multiplier)))
    h = np.zeros(_SERIES_TERMS, dtype=np.complex128)
    h[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for coeffs, expo, _, _ in factors:
            h = np.convolve(h, _power_coeffs(coeffs, expo, _SERIES_TERMS))[:_SERIES_TERMS]
        if multiplier.size > 1:
            h = np.convolve(h, multiplier)[:_SERIES_TERMS]
        # h_n is formed from h_0 .. h_n of each factor alone, so the terms
        # before the first that overflows |h_n| are exact
        bad = np.flatnonzero(~np.isfinite(np.abs(h)))
    if bad.size:
        h = h[: bad[0]]
    absps = [(np.abs(c), abs(e), grp) for c, e, grp, _ in factors]

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
    # log M(rho) = sum |c| L_P(rho) (+ log sum |m_k| rho^k), the log of a
    # bound on |h| on |u| = rho
    rho = _sup(zero_free, top) * (1.0 - np.geomspace(1.0, 1e-6, 200)[1:])
    log_m = sum(e * _log_bound(absp, rho) for absp, e, _ in absps)
    if multiplier.size > 1:
        with np.errstate(over="ignore"):
            log_m = log_m + np.log(_kernels.polyval(np.abs(multiplier), rho).real)
    n = np.arange(1, h.size)
    s = h[1:] / (gamma + n)
    terms = np.arange(h.size)[:, None]  # keeping h_0 .. h_N: rows N = 0, 1, ...

    def certified(r):
        """Per N, whether the tail and the argument certificates hold at r."""
        if r == 0.0:
            return np.ones(h.size, dtype=bool)
        x = r / rho[rho > r]
        # Cauchy bounds on sum_{n>N} |h_n| r^n, which also bound the tail of S
        tails = np.exp((log_m[rho > r] + (terms + 1.0) * np.log(x) - np.log1p(-x)).min(axis=1, initial=np.inf))
        partial = np.concatenate([[0.0], np.cumsum(np.abs(s) * r**n)])
        return (tails <= _TAIL_TOL) & (abs(gamma) * (partial + tails) < _ARG_LIMIT)

    radius = _sup(lambda r: certified(r)[-1], _sup(r_arg_ok, 1.0))
    keep = int(np.argmax(certified(radius))) + 1
    h, s = h[:keep], s[: keep - 1]
    return SeriesPlan(h, s, radius, factors, multiplier, _kernels.ValueStack((s, h)))


def _log1p(w):
    """log(1 + w) for complex w, accurate for small |w| (numpy's complex
    log1p rounds 1 + w first) and near w = -1, where log1p(|1 + w|^2 - 1)
    would lose the digits of |1 + w|; that happens only outside every
    certified disc of a problem with a branched factor, since there
    |w| < _ARG_LIMIT.  Past |w| = 1e154, where |1 + w|^2 - 1 overflows (a
    chain bracket grows as e^{m a t Re gamma}), |1 + w| is taken directly."""
    x, y = w.real, w.imag
    with np.errstate(over="ignore"):
        square = x * (2.0 + x) + y * y
    direct = (np.abs(1.0 + w) < 1.0 - _ARG_LIMIT) | np.isinf(square)
    modulus = np.where(direct, np.log(np.hypot(1.0 + x, y)), 0.5 * np.log1p(square))
    return modulus + 1j * np.arctan2(y, 1.0 + x)


@lru_cache(maxsize=1)
def _gauss():
    """The _NODES-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def _shift_rows(p, terms):
    """Rows k = 0 .. terms of binom(j, k) p_j: evaluated at u = c, row k is
    the k-th Taylor coefficient of P at c times c^k."""
    rows = np.empty((terms + 1, p.size), dtype=p.dtype)
    rows[0] = p
    j = np.arange(p.size)
    for k in range(1, terms + 1):
        rows[k] = rows[k - 1] * (j - k + 1) / k
    return rows


def _descend(rung, bad):
    """Move points down the ladder until bad(points, 2 sigma) holds for none
    of them; points past the last rung drop out."""
    while True:
        live = np.flatnonzero(rung < _LADDER.size)
        worse = bad(live, 2.0 * _LADDER[rung[live]])
        if not worse.any():
            return
        rung[live[worse]] += 1


def _walk(plan, z, gamma):
    """Continue J = z^{-gamma} I along the rays r_c z/|z| -> z for points
    with |z| > r_c (see the module docstring).  Returns (J, h, steps,
    flagged): h is h(z) on the continued branches and steps the number of
    steps each point took."""
    x, w = _gauss()
    powers = (2.0 * _LADDER[:, None]) ** np.arange(1, _SHIFT_TERMS + 1)  # (2 sigma)^k per rung
    r = np.abs(z)
    c = z * (plan.radius / r)
    J = c * _kernels.polyval(plan.s, c) if plan.s.size else np.zeros_like(c)
    track_b = not _natural(1.0 / gamma)  # else B^{1/gamma} has no branch
    arg_b = np.angle(1.0 + gamma * J)
    theta_b = arg_b.copy()
    # per factor P: its shift rows k = 1 .. K, the majorant's (K+1)-th
    # Taylor coefficient as a polynomial (None if P has no more terms),
    # and P and log P at the centres, on the sheet of r_c z/|z|
    rows, tails, pc, logp = [], [], [], []
    for p, *_ in plan.factors:
        k = min(p.size - 1, _SHIFT_TERMS)
        shift = _shift_rows(p, k + 1)
        rows.append(shift[1 : k + 1])
        tails.append(np.abs(shift[k + 1, k + 1 :]) if p.size > k + 1 else None)
        pc.append(_kernels.polyval(p, c))
        logp.append(np.log(pc[-1]))
    absm = np.abs(plan.multiplier) if plan.multiplier.size > 1 else None
    steps = np.zeros(z.shape, dtype=int)
    flagged = np.zeros(z.shape, dtype=bool)
    idx = np.arange(z.size)  # the points still walking
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_STEPS):
            cc = c[idx]
            ac = np.abs(cc)
            ok = np.ones((_LADDER.size, idx.size), dtype=bool)
            eps = []
            for shift, pcf in zip(rows, pc):
                a = np.abs(_kernels._blocked_rows(shift, cc)) / np.abs(pcf[idx])
                eps.append(powers[:, : a.shape[0]] @ a)
                ok &= eps[-1] <= 0.5
            rung = np.where(ok.any(axis=0), np.argmax(ok, axis=0), _LADDER.size)
            for e, shift, tail, pcf in zip(eps, rows, tails, pc):
                if tail is not None:  # add the Lagrange remainder of the majorant
                    _descend(rung, lambda i, rho: e[rung[i], i] + (ac[i] * rho) ** (len(shift) + 1)
                             * _kernels.polyval(tail, ac[i] * (1.0 + rho)).real / np.abs(pcf[idx[i]]) > 0.5)
            if absm is not None:  # M may at most double its majorant
                _descend(rung, lambda i, rho: _kernels.polyval(absm, ac[i] * (1.0 + rho)).real
                         > 2.0 * _kernels.polyval(absm, ac[i]).real)
            stalled = rung == _LADDER.size
            flagged[idx[stalled]] = True
            idx, cc, rung = idx[~stalled], cc[~stalled], rung[~stalled]
            rest = r[idx] / np.abs(cc) - 1.0
            last = _LADDER[rung] >= rest
            sigma = np.where(last, rest, _LADDER[rung])
            s = x[:, None] * sigma  # (nodes, points), then the step's end
            u = np.vstack([cc * (1.0 + s), np.where(last, z[idx], cc * (1.0 + sigma))])
            log_h = np.zeros(u.shape, dtype=np.complex128)
            for (p, expo, *_), pcf, logf in zip(plan.factors, pc, logp):
                pu = _kernels.polyval(p, u.ravel()).reshape(u.shape)
                lu = logf[idx] + np.log(pu / pcf[idx])
                log_h += expo * lu
                pcf[idx], logf[idx] = pu[-1], lu[-1]
            h = np.exp(log_h[:-1])
            if absm is not None:
                h *= _kernels.polyval(plan.multiplier, u[:-1].ravel()).reshape(s.shape)
            dj = sigma * (w @ (np.exp((gamma - 1.0) * np.log1p(s)) * (h - 1.0)))
            J[idx] = np.exp(-gamma * np.log1p(sigma)) * (J[idx] + dj)
            c[idx] = u[-1]
            steps[idx] += 1
            if track_b:  # Arg B continued through the step ends
                arg = np.angle(1.0 + gamma * J[idx])
                d = arg - arg_b[idx]
                d -= 2.0 * math.pi * np.rint(d / (2.0 * math.pi))
                flagged[idx] |= np.abs(d) >= _JUMP_LIMIT
                theta_b[idx] += d
                arg_b[idx] = arg
            idx = idx[~last]
            if not idx.size:
                break
    flagged[idx] = True  # out of steps
    # h(z), and the continued powers of f' and of g/phi and the continued
    # root B^{1/gamma} against the principal ones at z
    log_h = np.zeros_like(z)
    theta = np.zeros((2,) + z.shape)
    principal = np.ones((2,) + z.shape, dtype=np.complex128)
    group_expo = [None, None]
    for (_, expo, grp, sign), pcf, logf in zip(plan.factors, pc, logp):
        log_h += expo * logf
        theta[grp] += sign * logf.imag
        principal[grp] *= pcf if sign > 0 else 1.0 / pcf
        group_expo[grp] = expo * sign
    for grp, expo in enumerate(group_expo):
        if expo is not None:
            k = np.rint((theta[grp] - np.angle(principal[grp])) / (2.0 * math.pi))
            flagged |= sheet_crossed(k, expo)
    if track_b:
        k = np.rint((theta_b - np.angle(1.0 + gamma * J)) / (2.0 * math.pi))
        flagged |= sheet_crossed(k, 1.0 / gamma)
    h = np.exp(log_h)
    if absm is not None:
        h *= _kernels.polyval(plan.multiplier, z)
    return J, h, steps, flagged


def _evaluate(z, p, f, g, phi, inner_h=False):
    """B - 1, h, the continuation step counts and the crossing flags at a
    1-d array of points.  h is set at the points past the plan's r_c, and
    with inner_h at those within it too, from the plan's series: S and h in
    one pass (_kernels.polyvals)."""
    if p.gamma.real <= 0:
        raise HypothesisViolation("operator evaluation requires Re gamma > 0")
    if z.size and not np.abs(z).max() < 1.0:  # NaN fails it too
        raise DomainError("operator is defined for |z| < 1")
    plan = _series_plan(f, g, phi, p.alpha, p.beta, p.gamma)
    near = np.abs(z) <= plan.radius
    b1 = np.empty_like(z)
    h = np.empty_like(z)
    steps = np.zeros(z.shape, dtype=int)
    crossing = np.zeros(z.shape, dtype=bool)
    zn = z[near]
    if inner_h:
        sn, h[near] = _kernels.polyvals(plan.values, zn)
    elif plan.s.size:
        sn = _kernels.polyval(plan.s, zn)
    b1[near] = p.gamma * zn * sn if plan.s.size else 0.0
    if not near.all():
        far = ~near
        J, h[far], steps[far], crossing[far] = _walk(plan, z[far], p.gamma)
        b1[far] = p.gamma * J
    return b1, h, steps, crossing


def _root(z, b1, gamma, flagged):
    """F = z exp(log1p(B - 1) / gamma), and the chain's L with its inner
    bracket in place of B.  Raises ConvergenceError where an unflagged F at
    z != 0 is not finite or has underflowed to 0, unless B = 0, where F = 0
    on every branch since Re(1/gamma) > 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = z * np.exp(_log1p(b1) / gamma)
    zero = b1 == -1.0
    values[zero] = 0.0
    bad = (z != 0) & ~zero & ~flagged & ~((values != 0) & np.isfinite(values))
    if np.any(bad):
        raise ConvergenceError(
            f"F({complex(z[bad][0])}) = {complex(values[bad][0])} is not a finite nonzero number "
            f"(bracket {complex(1.0 + b1[bad][0])}, 1/gamma = {1.0 / gamma})"
        )
    return values


def operator_grid(zs, p, f, g=None, phi=None):
    """Vectorized operator evaluation over an array of disk points.

    Returns (values, brackets, steps, crossing flags).  Points inside the
    plan's certified radius take the series path; the rest are continued
    step by step along their rays.  steps is the largest step count of a
    point, 0 when every point is certified."""
    zs = np.asarray(zs, dtype=np.complex128)
    zflat = zs.ravel()
    b1, _, steps, crossing = _evaluate(zflat, p, f, g or _IDENTITY, phi or _IDENTITY)
    values = _root(zflat, b1, p.gamma, crossing)
    return (
        values.reshape(zs.shape),
        (1.0 + b1).reshape(zs.shape),
        int(steps.max(initial=0)),
        crossing.reshape(zs.shape),
    )


def hyp2f1(a, b, c, w, max_terms=100_000):
    """Gauss series 2F1(a, b; c; w) on |w| < 1, terminating when a or b is
    a non-positive integer."""
    a, b, c, w = complex(a), complex(b), complex(c), complex(w)
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError(f"2F1 parameter {name} = {v} is not finite")
    if c.imag == 0 and c.real <= 0 and c.real == int(c.real):
        raise DomainError(f"2F1 pole: c = {c} is a non-positive integer")
    if not abs(w) < 1.0:
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
    if not abs(z) < 1.0:
        raise DomainError("closed form is defined for |z| < 1")
    if z == 0:
        return 0.0 + 0.0j
    val = hyp2f1(p.gamma, -(p.alpha + p.beta), 1.0 + p.gamma, -z / 2.0)
    return z * principal_power(val, 1.0 / p.gamma)
