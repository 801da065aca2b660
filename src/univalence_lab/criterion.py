"""Vectorised evaluation and disk sup-scan of the Becker-type criteria.

Five variants are supported:

  thm31  |(1-|z|^{(m+1)g})/g [a zf''/f' + b (zg'/g - zphi'/phi)] - (m-1)/2| <= (m+1)/2
  thm32  (1-|z|^{(m+1)Re g})/Re g |a zf''/f' + b (zg'/g - zphi'/phi)|      <= 1
  cor31  thm31 with b = a, g = id, phi = f
  cor32  (1-|z|^{2 Re g})/Re g |zf''/f'|                                   <= 1
  thm41  the thm31 expression against the strengthened bound k (m+1)/2

A PASS is sampling-based evidence (sup over a grid plus local refinement),
not a proof; reports carry the grid metadata and, for each truncated
series of the bracket, its truncation warning at the grid's largest |z|.
"""

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DerivativeVanishes, HypothesisViolation
from .series import (
    _IDENTITY,
    _bracket,
    _bracket_series,
    _truncation_message,
    as_integer,
    bracket_quotients,
    nonvanishing_check,
    polar_grid,
)

VARIANTS = ("thm31", "thm32", "cor31", "cor32", "thm41")
STRICTNESS_TOL = 1e-12
# hops of a look-ahead call of _sup_search: _FIRST_HOPS after the grid
# maximum and after a move, doubling while the walk runs out of its calls
# without moving, up to _LOOK_AHEAD_HOPS hops of 4 probes, as many points
# as the stacked Horner path takes (_kernels._STACK_POINTS); calls of 300
# and 1000 levels at once were 2-5x slower.  Each width a call takes gets
# its Horner coefficient table once per statement (_kernels.SeriesStack),
# so a call costs its arithmetic and a few fixed array steps
_FIRST_HOPS = 4
_LOOK_AHEAD_HOPS = _kernels._STACK_POINTS // 4
# the pruned grid scan (_grid_candidates) evaluates the whole grid when
# the series hold fewer than _SCAN_MIN_TERMS terms in all (the crossover in
# benchmarks/bench_kernels.py); the constants of its bound are in units of 2^-53
_SCAN_MIN_TERMS = 24
_UNIT_ROUNDOFF = 2.0**-53
_FFT_ROUNDING = 32
_GRID_OFFSET = 32
_BOUND_SAFETY = 4.0


@dataclass(frozen=True)
class ParameterSet:
    """(alpha, beta, gamma, m, a, k) governing criterion, chain, extension.

    k = 1 is the "univalence only" sentinel; thm41 requires k < 1.
    """

    alpha: complex = 1.0
    beta: complex = 0.0
    gamma: complex = 1.0
    m: float = 1.0
    a: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        for name in ("m", "a", "k"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name}: must be a real number")
        for name in ("alpha", "beta", "gamma", "m", "a"):
            z = complex(getattr(self, name))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"{name}: must be finite")
        if self.gamma == 0:
            raise ValueError("gamma: must be nonzero")
        if not self.m >= 0:
            raise ValueError("m: must be >= 0")
        if not self.a > 0:
            raise ValueError("a: must be > 0")
        if not 0.0 <= self.k <= 1.0:
            raise ValueError("k: must lie in [0, 1]")


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling of the disk; radii concentrate toward the boundary."""

    radii: tuple = tuple(1.0 - 2.0 ** (-j) for j in range(1, 11))
    angles_per_radius: int = 512
    refine_steps: int = 20

    def __post_init__(self):
        r = tuple(self.radii)
        real = (isinstance(x, numbers.Real) and not isinstance(x, bool) for x in r)
        if not all(real) or not all(map(math.isfinite, r)):
            raise ValueError("radii must be finite real numbers")
        r = tuple(map(float, r))
        if not r or any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("radii must be a nonempty increasing sequence")
        if not (0.0 < r[0] and r[-1] < 1.0):
            raise ValueError("radii must lie in (0, 1)")
        for name in ("angles_per_radius", "refine_steps"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.angles_per_radius < 8:
            raise ValueError("angles_per_radius must be >= 8")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")
        object.__setattr__(self, "radii", r)

    def points(self):
        """polar_grid of the radii, built on the first call and read-only."""
        if "_points" not in self.__dict__:
            object.__setattr__(self, "_points", polar_grid(self.radii, self.angles_per_radius))
            self._points.setflags(write=False)
        return self._points

    def to_json(self):
        return {
            "radii": list(self.radii),
            "angles_per_radius": self.angles_per_radius,
            "refine_steps": self.refine_steps,
        }


@dataclass
class CriterionReport:
    variant: str
    passed: bool
    sup_value: float
    bound: float
    witness: complex
    margin: float
    grid: DiskGrid
    warnings: list = field(default_factory=list)

    def to_json(self):
        return {
            "variant": self.variant,
            "passed": self.passed,
            "sup": self.sup_value,
            "bound": self.bound,
            "witness": [self.witness.real, self.witness.imag],
            "margin": self.margin,
            "grid": self.grid.to_json(),
            "warnings": list(self.warnings),
        }


class _Statement(NamedTuple):
    """A variant, corollary substitutions made: |fac B - centre|, or fac |B|
    with gamma real if centre is None, against bound, for the bracket B of
    alpha, beta, f, g, phi (its bracket_quotients are quotients, their
    _bracket_series series: the prepared stack of their distinct series,
    which keeps its Horner tables for every call of the check) and fac =
    (1 - |z|^{(m+1) gamma})/gamma."""

    f: object
    g: object
    phi: object
    alpha: complex
    beta: complex
    gamma: complex
    m: float
    centre: object
    bound: float
    quotients: tuple
    series: tuple


def _statement(variant, p, f, g=None, phi=None):
    """The _Statement of variant at p for f, g and phi (the identity when
    None).  Raises ValueError for an unknown variant and
    HypothesisViolation for the parameters the statement excludes."""
    bound = criterion_bound(variant, p)
    real = variant in ("thm32", "cor32")
    if real and p.gamma.real <= 0:
        raise HypothesisViolation(f"{variant} requires Re gamma > 0")
    if variant == "thm32" and p.m < 1.0:
        raise HypothesisViolation("thm32 requires m >= 1")
    if variant == "thm41" and not p.k < 1.0:
        raise HypothesisViolation("thm41 requires k in [0, 1)")
    alpha, beta, m = p.alpha, p.beta, p.m
    g, phi = g or _IDENTITY, phi or _IDENTITY
    if variant == "cor31":
        beta, g, phi = alpha, _IDENTITY, f
    elif variant == "cor32":  # m fixed at 1 by the statement
        alpha, beta, g, phi, m = 1.0 + 0.0j, 0.0j, f, f, 1.0
    gamma, centre = (p.gamma.real, None) if real else (p.gamma, (m - 1.0) / 2.0)
    quotients = bracket_quotients(f, g, phi, alpha, beta)
    return _Statement(f, g, phi, alpha, beta, gamma, m, centre, bound, quotients, _bracket_series(quotients))


def criterion_values(variant, z, p, f, g=None, phi=None):
    """Vectorized criterion expression over an array of disk points."""
    return _values(_statement(variant, p, f, g, phi), np.asarray(z, dtype=np.complex128))


def _values(st, z):
    """The criterion of the statement st at a complex128 array z."""
    r = np.abs(z)
    return _expression(st, r, _bracket(st.quotients, st.series, st.beta, z, r))[0]


def _expression(st, r, bracket):
    """(criterion values, factor) from the bracket at points of modulus r:
    |fac bracket - centre| or fac |bracket|, fac depending on r only."""
    # the mask runs only when a point is 0, where fac is 0 with a centre
    # (the bracket is 0 there anyway) and 1/gamma without; on the other
    # points it would select every element, which gives the same bits
    nz = ... if np.count_nonzero(r) == r.size else r > 0
    c = (st.m + 1.0) * st.gamma
    if st.centre is not None:
        fac, at_zero = (1.0 - np.exp(c * np.log(r[nz]))) / st.gamma, 0.0
    else:
        fac, at_zero = (1.0 - r[nz] ** c) / st.gamma, 1.0 / st.gamma
    if nz is not ...:
        full = np.full(r.shape, at_zero, dtype=fac.dtype)
        full[nz] = fac
        fac = full
    if st.centre is not None:
        return np.abs(fac * bracket - st.centre), fac
    return fac * np.abs(bracket), fac


def criterion_bound(variant, p):
    if variant in ("thm31", "cor31"):
        return (p.m + 1.0) / 2.0
    if variant in ("thm32", "cor32"):
        return 1.0
    if variant == "thm41":
        return p.k * (p.m + 1.0) / 2.0
    raise ValueError(f"unknown variant {variant!r}")


def _check_hypotheses(variant, st, grid):
    """Raise HypothesisViolation where a series whose z s'/s enters the
    bracket vanishes on the grid: g and phi (f for cor31) as
    bracket_quotients lets them in, so none at beta = 0."""
    for name, (s, *_) in zip(("g", "f" if variant == "cor31" else "phi"), st.quotients[1:]):
        ok, witness = nonvanishing_check(s, grid.radii[-1], grid)
        if not ok:
            raise HypothesisViolation(f"{name} vanishes inside the scanned disk near z = {witness}", witness=witness)


def _grid_max(st, grid, z):
    """(index, value) of the first maximum of the criterion over the grid
    points z, as argmax of one _values call on all of them would give it,
    or the exception that call would raise.

    The values come from one _values call, at the candidates of
    _grid_candidates alone, in index order."""
    idx, _ = _grid_candidates(st, grid, z)
    vals = _values(st, z if idx is None else z[idx])
    best = int(np.argmax(vals))
    return best if idx is None else int(idx[best]), float(vals[best])


def _grid_candidates(st, grid, z):
    """(indices, None) of the grid points z that can hold the first maximum
    of _values or make it raise, or (None, reason) when the whole grid is
    to be evaluated.

    The criterion reads the quotients z f''/f' and, when bracket_quotients
    lets them in, z g'/g and z phi'/phi (1 for the identity).  Each row of
    such a quotient is taken on every circle |z| = r of the grid from one
    inverse FFT, by _kernels.circle_rows.  A row value there differs from the
    Horner value at the grid point by at most _BOUND_SAFETY times the sum of
      - Horner's a-priori bound gamma_2n sum |a_k| r^k (Higham, Accuracy
        and Stability, 2nd ed., sections 5.1 and 24.1) for a row of n
        terms, with the rounding of r^k, of the fold and of the FFT:
        (n + _FFT_ROUNDING ceil(log2 2N)) u sum |a_k| r^k;
      - the grid point's distance from r e^{2 pi i l/N} (under 10 u r
        measured, _GRID_OFFSET u r taken) times the absolute series of the
        row's derivative.
    The bound is carried through each quotient z A/B, where it holds while
    |B| exceeds its bound, the bracket with 32 u times the size of its
    terms for the rounding, and the factor fac (see _factor_error).  A
    candidate is a point whose upper bound reaches the largest lower
    bound, or where the bound admits |f'| < DERIVATIVE_FLOOR, g = 0 or
    phi = 0.

    reason is "terms" when the series the criterion evaluates hold fewer
    than _SCAN_MIN_TERMS terms in all, too few for the FFT to pay, and
    "nonfinite" when an approximation or bound is not finite."""
    if sum(s.degree + 1 for s in {s for s, *_ in st.quotients}) < _SCAN_MIN_TERMS:
        return None, "terms"
    with np.errstate(all="ignore"):  # overflow and 0/0 end as non-finite values
        row = _circle_rows(st.quotients, grid)
        if row is None:
            return None, "nonfinite"
        rad = np.asarray(grid.radii)[:, None]
        z = z.reshape(rad.size, -1)
        ratios = e_ratios = size = 0.0  # sums of w a/b, of their bounds and of |w a/b|
        shift = shift_size = 0.0  # sums of w and |w| over the quotients that are 1
        for s, top, w, least in st.quotients:
            if _unit(s, top):
                shift += w
                shift_size += abs(w)
                continue
            (a, e_a), (b, e_b) = row[s._bits, top], row[s._bits, top - 1]
            ratio = a / b
            size_q = abs(w) * np.abs(ratio)
            gap = np.maximum(np.abs(b) - (e_b + least), 0.0)  # 0 where B may be too small
            ratios = ratios + w * ratio
            e_ratios = e_ratios + (abs(w) * e_a + size_q * e_b) / gap
            size = size + size_q
        bracket = z * ratios + shift
        e_bracket = rad * (e_ratios + 32.0 * _UNIT_ROUNDOFF * size) + 32.0 * _UNIT_ROUNDOFF * shift_size
        approx, fac = _expression(st, rad, bracket)
        fac = np.abs(fac[:, :1])
        e_fac = _factor_error(st, rad)
        d = 0.0 if st.centre is None else abs(st.centre)
        err = (fac + e_fac) * e_bracket + (e_fac + 16.0 * _UNIT_ROUNDOFF * fac) * np.abs(bracket)
        err += 16.0 * _UNIT_ROUNDOFF * d
    ok = np.isfinite(err)
    if not np.isfinite(approx[ok]).all():
        return None, "nonfinite"
    floor = (approx - err)[ok].max(initial=-math.inf)
    return np.flatnonzero(~ok | (approx + err >= floor)), None


def _circle_rows(quotients, grid):
    """{(coefficient bytes, order): (values (radii, angles), bounds
    (radii, 1))} of the rows the quotients read on the grid's circles, or
    None when a row's absolute series is not finite or reaches 1e300.  The
    rows are those of _kernels.series_rows, zero-padded to one width; rows
    scaled there are rows that overflow, so they give None too."""
    keys = tuple(dict.fromkeys((s._bits, j) for s, top, *_ in quotients if not _unit(s, top) for j in (top, top - 1)))
    tables = [_kernels.series_rows(bits) for bits, _ in keys]
    if any(scale != 1.0 for _, scale in tables):
        return None
    terms = np.array([[rows.shape[1]] for rows, _ in tables])
    padded = np.zeros((len(keys), terms.max()), dtype=np.complex128)
    for i, ((rows, _), (_, j)) in enumerate(zip(tables, keys)):
        padded[i, : rows.shape[1]] = rows[j]
    n = grid.angles_per_radius
    radii = np.asarray(grid.radii)
    vals, sums, dsums = _kernels.circle_rows(padded, radii, n)
    terms = terms + _FFT_ROUNDING * math.ceil(math.log2(2 * n))
    errs = _BOUND_SAFETY * _UNIT_ROUNDOFF * (terms * sums + _GRID_OFFSET * radii * dsums)
    # a value on a circle is at most its absolute series, so this also
    # keeps every value finite
    if not (np.isfinite(errs).all() and sums.max() < 1e300):
        return None
    return {key: (vals[i], errs[i][:, None]) for i, key in enumerate(keys)}


def _unit(s, top):
    """Whether the quotient z s^(top)/s^(top-1) is 1: z s'/s of the identity."""
    return top == 1 and s.degree == 1


def _factor_error(st, r):
    """A bound on the distance of fac at the radii r, as _expression
    computes it, from fac at |z| of a grid point on the circle: the
    rounding of (1 - e^{c log r})/gamma, twice, and the change of fac over
    the few ulps by which |z| differs from r."""
    exponent = (st.m + 1.0) * st.gamma * np.log(r)
    power = np.exp(exponent)
    rounding = (np.abs(power) * (np.abs(exponent) + 1.0) + np.abs(1.0 - power)) / abs(st.gamma)
    return 8.0 * _UNIT_ROUNDOFF * (rounding + (st.m + 1.0) * np.abs(power))


def _hops(r, th, dr, dth, rmax, levels):
    """The (r, theta) probes of `levels` hops around (r, th), four per hop,
    with dr and dth halved from one hop to the next."""
    probes = []
    for _ in range(levels):
        probes += ((min(r + dr, rmax), th), (max(r - dr, 1e-6), th), (r, th + dth), (r, th - dth))
        dr /= 2.0
        dth /= 2.0
    return probes


def _look_ahead(st, probes):
    """[(probes, values)] per hop of four `probes` of _hops, from one
    _values call.  Its points take one cmath.exp per distinct angle: the
    centre's, which every hop's two radial probes share, and each hop's
    two angular ones.

    If that call raises HypothesisViolation (f' vanishes at a probe, say),
    the first hop is evaluated alone: it raises again only if the zero is
    one of its own probes, as its own call would."""
    unit = cmath.exp(1j * probes[0][1])
    points = []
    for (out, _), (inward, _), (r, plus), (_, minus) in zip(*[iter(probes)] * 4):
        points += (out * unit, inward * unit, r * cmath.exp(1j * plus), r * cmath.exp(1j * minus))
    pz = np.array(points)
    try:
        values = _values(st, pz).tolist()
    except HypothesisViolation:
        values = _values(st, pz[:4]).tolist()
    return [(probes[j : j + 4], values[j : j + 4]) for j in range(0, len(values), 4)]


def _sup_search(st, grid):
    """(sup, witness) of the criterion expression: the grid maximum, then
    a coordinate search in (r, theta) with `refine_steps` halvings,
    clamped to the outermost grid radius, which stops at the first hop
    whose four probes all equal the centre: no later one can move.

    Each hop takes its four probes around the centre in order and moves to
    every one that beats the sup so far; a level repeats its hop while it
    moves, up to 8 moves.  The probes of a hop depend only on the centre
    and the level, so on arriving at a centre the search evaluates the
    hops of this level and of the next ones in one _values call and walks
    them in order.  A hop that moves discards the rest; a hop that does
    not costs no call.  Most walks move within a few hops, so a call
    covers 4 hops after the grid maximum and after every move, and twice
    the hops of the last call when the walk ran out of that one without
    moving, at most _LOOK_AHEAD_HOPS and the levels left.  On the bundled
    configs and the example31 and expscaled variant families of
    tests/test_refinement.py that is 191 calls on 2928 points, where one
    call on every remaining level made 176 calls on 8468 points and one
    call per hop makes 442 calls.  A point takes the same bits in a batch
    of any size (every operation is elementwise, and the product of a long
    series pads its columns to a multiple of four), so the grid maximum of
    _grid_max and the path, sup and witness are those of one call on the
    grid and one per hop."""
    z = grid.points()
    best, sup = _grid_max(st, grid, z)
    witness = complex(z[best])

    r = abs(witness)
    th = cmath.phase(witness)
    radii = grid.radii
    i = min(range(len(radii)), key=lambda j: abs(radii[j] - r))
    gaps = [radii[j + 1] - radii[j] for j in range(len(radii) - 1)] or [radii[0] / 2]
    dr = max(gaps[max(i - 1, 0) : i + 1] or gaps) / 2.0
    dth = math.pi / grid.angles_per_radius
    rmax = radii[-1]
    ahead = []  # the hops still ahead of the current centre
    window = _FIRST_HOPS  # hops of the next look-ahead call
    for level in range(grid.refine_steps):
        moved = True
        hops = 0
        while moved and hops < 8:
            moved = False
            if not ahead:
                probes = _hops(r, th, dr, dth, rmax, min(window, grid.refine_steps - level))
                ahead = _look_ahead(st, probes)
                window = min(2 * window, _LOOK_AHEAD_HOPS)  # if the walk runs out of this one
            probes, pvals = ahead.pop(0)
            for (rr, tt), v in zip(probes, pvals):
                if v > sup:
                    sup, r, th = v, rr, tt
                    moved = True
                    hops += 1
            if probes == [(r, th)] * 4:  # each probe rounded, or clamped, to the centre
                return sup, r * cmath.exp(1j * th)
            if moved:
                ahead = []
                window = _FIRST_HOPS
        dr /= 2.0
        dth /= 2.0
    return sup, r * cmath.exp(1j * th)


def criterion_check(variant, p, f, g=None, phi=None, grid=None):
    """Sup-scan the disk and report pass/fail against the variant bound.

    The grid maximum is refined by a coordinate search in (r, theta) with
    `refine_steps` halvings, clamped to the outermost grid radius.  PASS
    means "no violation found by sampling".  The report warns once for
    each truncated series of the bracket (f, then g and phi as
    bracket_quotients lets them in), at the grid's largest |z|: a tail
    bound |c_N| r^N grows with r and every probe lies inside that circle,
    so a probe's text would say less.  Raises ConvergenceError when the
    sup is not finite.
    """
    grid = grid or DiskGrid()
    st = _statement(variant, p, f, g, phi)
    _check_hypotheses(variant, st, grid)

    with warnings.catch_warnings(record=True):  # stated once, below
        try:
            sup, witness = _sup_search(st, grid)
        except DerivativeVanishes as exc:
            return CriterionReport(variant, False, math.inf, st.bound, exc.witness, -math.inf, grid, [str(exc)])
    if not math.isfinite(sup):
        raise ConvergenceError(f"{variant}: the criterion is not finite at z = {witness}")

    passed = sup <= st.bound + STRICTNESS_TOL
    report = CriterionReport(variant, passed, sup, st.bound, witness, st.bound - sup, grid)
    radius = float(np.abs(grid.points()).max())
    messages = (_truncation_message(s, radius) for s, *_ in st.quotients)
    report.warnings.extend(dict.fromkeys(m for m in messages if m))
    return report
