"""Vectorised evaluation and disk sup-scan of the Becker-type criteria.

Five variants are supported:

  thm31  |(1-|z|^{(m+1)g})/g [a zf''/f' + b (zg'/g - zphi'/phi)] - (m-1)/2| <= (m+1)/2
  thm32  (1-|z|^{(m+1)Re g})/Re g |a zf''/f' + b (zg'/g - zphi'/phi)|      <= 1
  cor31  thm31 with b = a, g = id, phi = f
  cor32  (1-|z|^{2 Re g})/Re g |zf''/f'|                                   <= 1
  thm41  the thm31 expression against the strengthened bound k (m+1)/2

A PASS is sampling-based evidence (sup over a grid plus local refinement),
not a proof; reports carry the grid metadata and any truncation warnings.
"""

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DerivativeVanishes, HypothesisViolation, TruncationWarning
from .series import _IDENTITY, _warn_if_truncated, bracket_terms, nonvanishing_check

VARIANTS = ("thm31", "thm32", "cor31", "cor32", "thm41")
STRICTNESS_TOL = 1e-12
# most levels per look-ahead call: 256 points, the stacked Horner path
# (_kernels._STACK_POINTS).  It binds only past 64 refine_steps, where
# uncapped calls were 2-5x slower at 300 and 1000 levels
_LOOK_AHEAD_HOPS = 64


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
        for name in ("alpha", "beta", "gamma"):
            z = getattr(self, name)
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
        r = tuple(float(x) for x in self.radii)
        if not r or any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("radii must be a nonempty increasing sequence")
        if not (0.0 < r[0] and r[-1] < 1.0):
            raise ValueError("radii must lie in (0, 1)")
        for name in ("angles_per_radius", "refine_steps"):
            v = getattr(self, name)
            integral = isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
            if isinstance(v, bool) or not integral:
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(v))
        if self.angles_per_radius < 8:
            raise ValueError("angles_per_radius must be >= 8")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")
        object.__setattr__(self, "radii", r)

    def points(self):
        theta = np.linspace(0.0, 2.0 * np.pi, self.angles_per_radius, endpoint=False)
        r = np.asarray(self.radii)
        return (r[:, None] * np.exp(1j * theta)[None, :]).ravel()

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


def _resolve(variant, p, f, g, phi):
    """Effective (alpha, beta, g, phi) after the corollary substitutions."""
    if variant == "cor31":
        return p.alpha, p.alpha, _IDENTITY, f
    if variant == "cor32":
        return 1.0 + 0.0j, 0.0 + 0.0j, f, f
    return p.alpha, p.beta, g, phi


def criterion_values(variant, z, p, f, g=None, phi=None):
    """Vectorized criterion expression over an array of disk points."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    z = np.asarray(z, dtype=np.complex128)
    alpha, beta, g_eff, phi_eff = _resolve(variant, p, f, g or _IDENTITY, phi or _IDENTITY)

    pre, lr = bracket_terms(f, g_eff, phi_eff, z, log_ratio=beta != 0)
    bracket = alpha * pre + beta * lr

    r = np.abs(z)
    m = 1.0 if variant == "cor32" else p.m  # cor32: m fixed at 1 by the statement
    # the mask runs only when a point is 0: on the others it selects every
    # element, which gives the same bits
    nz = r > 0
    if nz.all():
        nz = ...
    if variant in ("thm31", "thm41", "cor31"):
        fac = np.zeros_like(z)  # bracket is 0 at z = 0 anyway
        fac[nz] = (1.0 - np.exp((m + 1.0) * p.gamma * np.log(r[nz]))) / p.gamma
        return np.abs(fac * bracket - (m - 1.0) / 2.0)
    rg = p.gamma.real
    fac = np.full(z.shape, 1.0 / rg)
    fac[nz] = (1.0 - r[nz] ** ((m + 1.0) * rg)) / rg
    return fac * np.abs(bracket)


def criterion_bound(variant, p):
    if variant in ("thm31", "cor31"):
        return (p.m + 1.0) / 2.0
    if variant in ("thm32", "cor32"):
        return 1.0
    if variant == "thm41":
        return p.k * (p.m + 1.0) / 2.0
    raise ValueError(f"unknown variant {variant!r}")


def _check_hypotheses(variant, p, f, g, phi, grid):
    if variant in ("thm32", "cor32"):
        if p.gamma.real <= 0:
            raise HypothesisViolation(f"{variant} requires Re gamma > 0")
        if variant == "thm32" and p.m < 1.0:
            raise HypothesisViolation("thm32 requires m >= 1")
    if variant == "thm41" and not p.k < 1.0:
        raise HypothesisViolation("thm41 requires k in [0, 1)")
    rmax = grid.radii[-1]
    to_check = ()
    if variant in ("thm31", "thm32", "thm41"):
        to_check = (("g", g), ("phi", phi))
    elif variant == "cor31":
        to_check = (("f", f),)
    for name, s in to_check:
        ok, witness = nonvanishing_check(s, rmax, grid)
        if not ok:
            raise HypothesisViolation(
                f"{name} vanishes inside the scanned disk near z = {witness}", witness=witness
            )


def _hops(r, th, dr, dth, rmax, levels):
    """The (r, theta) probes of `levels` hops around (r, th), four per hop,
    with dr and dth halved from one hop to the next."""
    probes = []
    for _ in range(levels):
        probes += ((min(r + dr, rmax), th), (max(r - dr, 1e-6), th), (r, th + dth), (r, th - dth))
        dr /= 2.0
        dth /= 2.0
    return probes


def _look_ahead(variant, p, f, g, phi, probes):
    """[(probes, largest |z|, values)] per hop of four `probes`, from one
    criterion_values call with its truncation warnings dropped.

    If that call raises HypothesisViolation (f' vanishes at a probe, say),
    the first hop is evaluated alone: it raises again only if the zero is
    one of its own probes, as its own call would."""
    pz = np.array([rr * cmath.exp(1j * tt) for rr, tt in probes])
    with warnings.catch_warnings(record=True):
        try:
            values = criterion_values(variant, pz, p, f, g, phi).tolist()
        except HypothesisViolation:
            pz = pz[:4]
            values = criterion_values(variant, pz, p, f, g, phi).tolist()
    radius = np.abs(pz).reshape(-1, 4).max(axis=1).tolist()
    return [(probes[4 * j : 4 * j + 4], radius[j], values[4 * j : 4 * j + 4]) for j in range(len(radius))]


def _sup_search(variant, p, f, g, phi, grid):
    """(sup, witness) of the criterion expression: the grid maximum, then a
    coordinate search in (r, theta) with `refine_steps` halvings, clamped to
    the outermost grid radius.

    Each hop takes its four probes around the centre in order and moves to
    every one that beats the sup so far; a level repeats its hop while it
    moves, up to 8 moves.  The probes of a hop depend only on the centre
    and the level, so on arriving at a centre the search evaluates the hops
    of this level and of every later one in one criterion_values call
    (4 * (refine_steps - level) points, 80 at the default grid, at most
    _LOOK_AHEAD_HOPS levels) and walks them in order.  A hop that moves
    discards the rest; a hop that does not costs no call.  So a check
    makes one call per move plus one, instead of one per hop: 176 instead
    of 442 on the bundled configs and the example31 and expscaled variant
    families of tests/test_refinement.py.  A point takes the same
    bits in a batch as in a four-point call (every operation is
    elementwise, and the product of a long series sees a multiple of four
    points either way), so the path, sup and witness are those of one call
    per hop.  Truncation warnings are issued per hop the walk takes, at
    the largest |z| of its four probes, as its own call would issue them."""
    z = grid.points()
    vals = criterion_values(variant, z, p, f, g, phi)
    best = int(np.argmax(vals))
    sup = float(vals[best])
    witness = complex(z[best])

    r = abs(witness)
    th = cmath.phase(witness)
    radii = grid.radii
    i = min(range(len(radii)), key=lambda j: abs(radii[j] - r))
    gaps = [radii[j + 1] - radii[j] for j in range(len(radii) - 1)] or [radii[0] / 2]
    dr = max(gaps[max(i - 1, 0) : i + 1] or gaps) / 2.0
    dth = math.pi / grid.angles_per_radius
    rmax = radii[-1]
    _, beta, g_eff, phi_eff = _resolve(variant, p, f, g, phi)
    warned = (f, g_eff, phi_eff) if beta != 0 else (f,)
    ahead = []  # the hops still ahead of the current centre
    for level in range(grid.refine_steps):
        moved = True
        hops = 0
        while moved and hops < 8:
            moved = False
            if not ahead:
                probes = _hops(r, th, dr, dth, rmax, min(grid.refine_steps - level, _LOOK_AHEAD_HOPS))
                ahead = _look_ahead(variant, p, f, g, phi, probes)
            probes, radius, pvals = ahead.pop(0)
            for s in warned:
                _warn_if_truncated(s, radius)
            for (rr, tt), v in zip(probes, pvals):
                if v > sup:
                    sup, r, th = v, rr, tt
                    moved = True
                    hops += 1
            if moved:
                ahead = []
        dr /= 2.0
        dth /= 2.0
    return sup, r * cmath.exp(1j * th)


def criterion_check(variant, p, f, g=None, phi=None, grid=None):
    """Sup-scan the disk and report pass/fail against the variant bound.

    The grid maximum is refined by a coordinate search in (r, theta) with
    `refine_steps` halvings, clamped to the outermost grid radius.  PASS
    means "no violation found by sampling".
    """
    grid = grid or DiskGrid()
    g = g or _IDENTITY
    phi = phi or _IDENTITY
    _check_hypotheses(variant, p, f, g, phi, grid)
    bound = criterion_bound(variant, p)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        try:
            sup, witness = _sup_search(variant, p, f, g, phi, grid)
        except DerivativeVanishes as exc:
            report = CriterionReport(
                variant, False, math.inf, bound, exc.witness, -math.inf, grid
            )
            report.warnings.append(str(exc))
            return report

    passed = sup <= bound + STRICTNESS_TOL
    report = CriterionReport(variant, passed, sup, bound, witness, bound - sup, grid)
    seen = set()
    for w in caught:
        if issubclass(w.category, TruncationWarning) and str(w.message) not in seen:
            seen.add(str(w.message))
            report.warnings.append(str(w.message))
    return report
