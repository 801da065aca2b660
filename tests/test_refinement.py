"""The batched refinement of `criterion_check` follows the same search path
as one-probe-at-a-time refinement: verdicts and witnesses are pinned to the
values the one-probe search produced, and the look-ahead search is checked
bit for bit against a copy of the search with one call per hop."""

import cmath
import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from univalence_lab import DiskGrid, ParameterSet, catalog_build, criterion_check, criterion_values
from univalence_lab import criterion
from univalence_lab.cli import bundled_configs, parse_config
from univalence_lab.criterion import VARIANTS
from univalence_lab.errors import DerivativeVanishes, TruncationWarning, UnivalenceLabError
from univalence_lab.series import SeriesFunction

# name -> (passed, sup, witness) from the one-probe-at-a-time refinement
GOLDEN = {
    "example31_thm32": (True, 0.27806614328136553, complex(-0.6527037620544434, 7.993315729914097e-17)),
    "example31_thm41": (True, 0.27806614328136553, complex(-0.6527037620544434, 7.993315729914097e-17)),
    "identity": (True, 0.0, complex(0.5, 0.0)),
    "koebe_cor32": (False, 5.920199999999953, complex(0.99, 0.0)),
    "example31/thm31": (True, 0.2682820873226321, complex(-0.6628799438476561, -7.757912568610889e-09)),
    "example31/thm32": (True, 0.2682820873226321, complex(-0.6628799438476561, -7.757912568610889e-09)),
    "example31/cor31": (True, 0.08071557937853611, complex(-0.689070701599121, -8.064431732118858e-09)),
    "example31/cor32": (True, 0.26828208732263203, complex(-0.6628799438476561, -7.757912274233058e-09)),
    "example31/thm41": (True, 0.2682820873226321, complex(-0.6628799438476561, -7.757912568610889e-09)),
    "expscaled/thm31": (True, 0.21838190739773106, complex(0.4778650028618002, -0.3269250077591239)),
    "expscaled/thm32": (True, 0.21838190739773106, complex(0.47786501051403224, -0.32692499657388624)),
    "expscaled/cor31": (True, 0.09416493078029077, complex(-0.48879740864105814, 0.3344043522477964)),
    "expscaled/cor32": (True, 0.3464101615137571, complex(-0.5764740665440365, -0.03179794995074383)),
    "expscaled/thm41": (True, 0.21838190739773106, complex(0.4778650028618002, -0.3269250077591239)),
}


def _family(name):
    """(params, f, g) of the two variant families."""
    if name == "example31":
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.1, m=1.0, k=0.3)
        return p, catalog_build("quadratic", {"c": 0.25}), catalog_build("quadratic", {"c": 0.5})
    lam = 0.9 * cmath.exp(0.6j)
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, k=0.3)
    f = catalog_build("expscaled", {"lam": lam, "degree": 32})
    g = catalog_build("expscaled", {"lam": lam / 2, "degree": 32})
    return p, f, g


def _case(case, refine_steps=None):
    """(variant, p, f, g, phi, grid) of a GOLDEN case, its grid taking
    refine_steps levels when given."""
    if "/" in case:
        family, variant = case.split("/")
        p, f, g = _family(family)
        args = (variant, p, f, g, catalog_build("identity"), DiskGrid())
    else:
        spec = parse_config(bundled_configs()[case])
        args = (spec.variant, spec.params, spec.f, spec.g, spec.phi, spec.grid)
    if refine_steps is None:
        return args
    return (*args[:-1], dataclasses.replace(args[-1], refine_steps=refine_steps))


def _report(case):
    return criterion_check(*_case(case))


def test_cases_cover_configs_and_variants():
    families = {f"{fam}/{v}" for fam in ("example31", "expscaled") for v in VARIANTS}
    assert set(GOLDEN) == set(bundled_configs()) | families


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_matches_golden(case):
    passed, sup, witness = GOLDEN[case]
    rep = _report(case)
    assert rep.passed is passed
    assert rep.witness == witness
    assert rep.sup_value == pytest.approx(sup, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("refine_steps", [None, 1100])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_look_ahead_window(case, refine_steps):
    # a call covers 4 hops after the grid maximum and after a move, and
    # twice the hops of the last call when the walk ran out of that one
    # without moving, at most _LOOK_AHEAD_HOPS and the levels left: the
    # walk is replayed from the values each call returned
    args = _case(case, refine_steps)
    steps = args[-1].refine_steps
    look_ahead, grid_max = criterion._look_ahead, criterion._grid_max
    calls, start = [], []

    def recorded(st, probes):
        hops = look_ahead(st, probes)
        calls.append((len(probes) // 4, list(hops)))  # the search pops hops off its list
        return hops

    def first(st, grid, z):
        start.append(grid_max(st, grid, z))
        return start[-1]

    with mock.patch.object(criterion, "_look_ahead", recorded), mock.patch.object(criterion, "_grid_max", first):
        criterion_check(*args)
    (_, sup), = start
    level = moves = 0
    window = 4
    for n, hops in calls:
        assert n == min(window, criterion._LOOK_AHEAD_HOPS, steps - level)
        for _, values in hops:
            moved = False
            for v in values:
                if v > sup:
                    sup, moved, moves = v, True, moves + 1
            if not moved or moves >= 8:
                level, moves = level + 1, 0
            if moved:
                window = 4
                break
        else:
            window = 2 * n
    assert calls


def _one_radius_case(second_zero):
    """(grid, f, the zero of f' that the refinement reports).

    f' vanishes at the second probe of the first hop, radially inside the
    grid maximum.  The second zero, between two grid angles, moves the grid
    maximum to a neighbour whose angular probe lands on it."""
    grid = DiskGrid(radii=(0.5,), angles_per_radius=16, refine_steps=4)
    w = complex(grid.points()[3])
    th, r = cmath.phase(w), abs(w)
    z1 = (r - 0.125) * cmath.exp(1j * th)
    if not second_zero:
        return grid, SeriesFunction([1.0, -1.0 / (2.0 * z1)]), z1
    z2 = r * cmath.exp(1j * (th - np.pi / 16))
    return grid, SeriesFunction([1.0, -(1.0 / z1 + 1.0 / z2) / 2.0, 1.0 / (3.0 * z1 * z2)]), z2


@pytest.mark.parametrize("second_zero", [False, True])
def test_vanishing_probe_fails_as_before(second_zero):
    grid, f, expected = _one_radius_case(second_zero)
    rep = criterion_check("cor32", ParameterSet(gamma=1.0), f, grid=grid)
    assert rep.to_json() == {
        "variant": "cor32",
        "passed": False,
        "sup": float("inf"),
        "bound": 1.0,
        "witness": [expected.real, expected.imag],
        "margin": float("-inf"),
        "grid": grid.to_json(),
        "warnings": [f"f'(z) = 0 at z = {expected}"],
    }


def test_truncation_warning_survives_batching():
    k = catalog_build("koebe", {"degree": 64})
    grid = DiskGrid(radii=(0.5, 0.9, 0.99), angles_per_radius=64, refine_steps=8)
    rep = criterion_check("cor32", ParameterSet(gamma=1.0), k, grid=grid)
    assert not rep.passed
    assert rep.witness == complex(-0.8375, 1.0256416942859083e-16)
    assert "series koebe: tail bound 33.6 exceeds 1e-12 at |z|=0.99" in rep.warnings
    # the refinement probes past the tail tolerance add no text of their own
    assert not any("at |z|=0.8" in w for w in rep.warnings)


def test_truncation_warnings_match_one_call_per_hop():
    # the witness is interior, so the hops of different levels reach
    # smaller radii than the grid, where the tail bound |c_N| r^N is
    # smaller: a call per hop would warn at each of them, and the report
    # states the truncation gap once, at the grid's largest |z|
    k = catalog_build("koebe", {"degree": 64})
    grid = DiskGrid(radii=(0.5, 0.9, 0.99), angles_per_radius=64, refine_steps=8)
    rep = criterion_check("cor32", ParameterSet(gamma=1.0), k, grid=grid)
    assert rep.sup_value == 1100.6982787515117
    assert rep.warnings == ["series koebe: tail bound 33.6 exceeds 1e-12 at |z|=0.99"]


# g shapes the landscape; at alpha = 0, f enters only through the check
# that f' does not vanish
_ZERO_PARAMS = ParameterSet(alpha=0.0, beta=1.0, gamma=1.0, m=1.0)
_ZERO_GRID = DiskGrid(radii=(0.5, 0.9), angles_per_radius=16, refine_steps=4)


@pytest.mark.parametrize("level,dr,dth", [(1, 0.0, 1.0), (1, -1.0, 0.0), (2, 0.0, -1.0)])
def test_zero_seen_only_by_the_look_ahead(level, dr, dth):
    # the search starts at the grid maximum -0.5 and moves outward at
    # level 0, so the probes of the later levels around -0.5 are never
    # reached; f' vanishes at one of them
    w = complex(_ZERO_GRID.points()[8])
    r, th = abs(w), cmath.phase(w)
    z0 = (r + dr * 0.2 / 2**level) * cmath.exp(1j * (th + dth * math.pi / 16 / 2**level))
    f = SeriesFunction([1.0, -1.0 / (2.0 * z0)])
    g = catalog_build("quadratic", {"c": 0.5})
    with pytest.raises(DerivativeVanishes):
        criterion_values("thm31", np.array([z0]), _ZERO_PARAMS, f, g)
    rep = criterion_check("thm31", _ZERO_PARAMS, f, g, grid=_ZERO_GRID)
    assert rep.to_json() == {
        "variant": "thm31",
        "passed": True,
        "sup": 0.27805555555555556,
        "bound": 1.0,
        "witness": [-0.6499999999999999, 7.960204194457794e-17],
        "margin": 0.7219444444444445,
        "grid": _ZERO_GRID.to_json(),
        "warnings": [],
    }


def _one_hop_sup_search(variant, p, f, g, phi, grid):
    """The search with one criterion_values call per hop, the oracle of the
    look-ahead search."""
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
    for _ in range(grid.refine_steps):
        moved = True
        hops = 0
        while moved and hops < 8:
            moved = False
            probes = (
                (min(r + dr, rmax), th),
                (max(r - dr, 1e-6), th),
                (r, th + dth),
                (r, th - dth),
            )
            pz = np.array([rr * cmath.exp(1j * tt) for rr, tt in probes])
            pvals = criterion_values(variant, pz, p, f, g, phi)
            for (rr, tt), v in zip(probes, pvals.tolist()):
                if v > sup:
                    sup, r, th = v, rr, tt
                    moved = True
                    hops += 1
        dr /= 2.0
        dth /= 2.0
    return sup, r * cmath.exp(1j * th)


def _outcome(variant, p, f, g, phi, grid):
    try:
        rep = criterion_check(variant, p, f, g, phi, grid)
    except UnivalenceLabError as exc:
        return type(exc), str(exc), repr(getattr(exc, "witness", None))
    return rep.passed, repr(rep.sup_value), repr(rep.witness), rep.warnings


def _assert_as_one_hop(variant, p, f, g, phi, grid):
    """criterion_check matches its copy with the one-hop search.  The copy
    states no truncation warnings of its own; the expected ones are those a
    criterion_values call on the whole grid issues, each text once: the
    first text of each series, at the grid's largest |z|."""
    caught = []

    def one_hop(st, grid):
        sup, witness = _one_hop_sup_search(variant, p, f, g, phi, grid)
        with warnings.catch_warnings(record=True) as issued:
            warnings.simplefilter("always", TruncationWarning)
            criterion_values(variant, grid.points(), p, f, g, phi)
        caught.extend(str(w.message) for w in issued if issubclass(w.category, TruncationWarning))
        return sup, witness

    silent = mock.patch.object(criterion, "_truncation_message", lambda s, radius: None)
    with mock.patch.object(criterion, "_sup_search", one_hop), silent:
        expected = _outcome(variant, p, f, g, phi, grid)
    if isinstance(expected[-1], list):  # a report, not an exception
        expected = (*expected[:-1], expected[-1] + list(dict.fromkeys(caught)))
    assert _outcome(variant, p, f, g, phi, grid) == expected


def _series(kind, size, angle, degree):
    """z + c z^2 with |c| <= 0.49, or the degree-`degree` exponential at
    |lam| <= 3.5 (truncated, so it can warn)."""
    if kind == "quadratic":
        return catalog_build("quadratic", {"c": 0.49 * size * cmath.exp(1j * angle)})
    return catalog_build("expscaled", {"lam": 3.5 * size * cmath.exp(1j * angle), "degree": degree})


_SERIES = st.tuples(
    st.sampled_from(("quadratic", "expscaled")),
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
    st.integers(8, 99),
)
_GRIDS = st.builds(
    lambda radii, n, steps: DiskGrid(radii=tuple(sorted(set(radii))), angles_per_radius=n, refine_steps=steps),
    st.lists(st.floats(0.05, 0.99), min_size=1, max_size=3),
    st.integers(8, 32),
    st.integers(0, 12),
)
_COMPLEX = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
_PARAMS = st.builds(
    ParameterSet,
    alpha=_COMPLEX,
    beta=st.one_of(st.just(0.0), _COMPLEX),
    gamma=st.builds(complex, st.floats(0.05, 2.0), st.floats(-1.0, 1.0)),
    m=st.floats(0.0, 3.0),
    k=st.floats(0.0, 0.99),
)


@given(
    variant=st.sampled_from(VARIANTS),
    p=_PARAMS,
    f=_SERIES,
    g=_SERIES,
    phi=st.one_of(st.none(), _SERIES),
    grid=_GRIDS,
)
@example(  # series of 64 or more terms take the blocked product
    variant="thm31",
    p=ParameterSet(alpha=0.5 + 0.2j, beta=0.5, gamma=1.0 + 0.5j, m=2.5, k=0.3),
    f=("expscaled", 0.9, 0.6, 99),
    g=("expscaled", 0.5, -0.6, 70),
    phi=None,
    grid=DiskGrid(radii=(0.5, 0.9, 0.97), angles_per_radius=24, refine_steps=12),
)
@settings(max_examples=150, deadline=None)
def test_look_ahead_matches_one_call_per_hop(variant, p, f, g, phi, grid):
    _assert_as_one_hop(variant, p, _series(*f), _series(*g), phi and _series(*phi), grid)


@given(
    variant=st.sampled_from(("thm31", "thm32", "thm41")),
    level=st.integers(0, 11),
    index=st.integers(0, 3),
    g=_SERIES,
    grid=_GRIDS.filter(lambda grid: grid.refine_steps > 0),
)
@settings(max_examples=80, deadline=None)
@pytest.mark.filterwarnings("ignore::univalence_lab.errors.TruncationWarning")
def test_planted_zero_matches_one_call_per_hop(variant, level, index, g, grid):
    # f' vanishes at a probe of the first look-ahead call: one the walk
    # reaches (the report names it) or one it never reaches (no effect)
    p = ParameterSet(alpha=0.0, beta=1.0, gamma=1.0, m=1.0, k=0.5)
    g = _series(*g)
    z = grid.points()
    w = complex(z[int(np.argmax(criterion_values(variant, z, p, g, g)))])
    r, th = abs(w), cmath.phase(w)
    radii = grid.radii
    i = min(range(len(radii)), key=lambda j: abs(radii[j] - r))
    gaps = [radii[j + 1] - radii[j] for j in range(len(radii) - 1)] or [radii[0] / 2]
    level = min(level, grid.refine_steps - 1)
    dr = max(gaps[max(i - 1, 0) : i + 1] or gaps) / 2.0 / 2**level
    dth = math.pi / grid.angles_per_radius / 2**level
    rr, tt = ((min(r + dr, radii[-1]), th), (max(r - dr, 1e-6), th), (r, th + dth), (r, th - dth))[index]
    f = SeriesFunction([1.0, -1.0 / (2.0 * rr * cmath.exp(1j * tt))])
    _assert_as_one_hop(variant, p, f, g, None, grid)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_search_ends_once_no_probe_can_move(case):
    # past some level every probe rounds, or is clamped, to the centre, so
    # no later hop can move or reach a new radius: the search ends there,
    # and 10^9 levels report what 3000 levels do, from the same calls
    _assert_as_one_hop(*_case(case, 1100))
    look_ahead = criterion._look_ahead
    calls = []

    def counted(st, probes):
        calls.append(len(probes))
        if len(calls) > 2000:
            raise AssertionError("the search did not end")
        return look_ahead(st, probes)

    runs = []
    with mock.patch.object(criterion, "_look_ahead", counted):
        for steps in (3000, 10**9):
            calls.clear()
            runs.append((_outcome(*_case(case, steps)), list(calls)))
    assert runs[0] == runs[1]
