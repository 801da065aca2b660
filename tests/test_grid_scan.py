"""The pruned grid scan of `criterion_check` (FFT on each circle, exact
evaluation at the certified candidates) returns the index and the bits of
the first maximum of one `criterion_values` call on every grid point, or
the exception that call raises.  The scan's own truncation warnings are
not compared: `criterion_check` states them from the grid's largest |z|."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from univalence_lab import (
    DiskGrid,
    ParameterSet,
    SeriesFunction,
    _kernels,
    catalog_build,
    criterion,
    criterion_check,
    criterion_values,
)
from univalence_lab.criterion import VARIANTS
from univalence_lab.errors import DerivativeVanishes, HypothesisViolation, TruncationWarning, UnivalenceLabError
from univalence_lab.series import criterion_bracket, eval_many, log_derivative

KOEBE = catalog_build("koebe", {"degree": 4096})
IDENTITY = catalog_build("identity")


def _outcome(scan, variant, p, f, g, phi, grid):
    """(index, sup bits) of a grid scan, or the exception's type, message
    and witness."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        try:
            best, sup = scan(variant, p, f, g, phi, grid)
        except UnivalenceLabError as exc:
            return type(exc), str(exc), getattr(exc, "witness", None)
    return best, float(sup).hex()


def _full_scan(variant, p, f, g, phi, grid):
    vals = criterion_values(variant, grid.points(), p, f, g, phi)
    best = int(np.argmax(vals))
    return best, float(vals[best])


def _pruned_scan(variant, p, f, g, phi, grid):
    return criterion._grid_max(criterion._statement(variant, p, f, g, phi), grid, grid.points())


def _assert_as_full_scan(variant, p, f, g, phi, grid):
    """The pruned scan with its cost fallback off matches the full scan;
    so does the scan as criterion_check runs it."""
    expected = _outcome(_full_scan, variant, p, f, g, phi, grid)
    with mock.patch.object(criterion, "_SCAN_MIN_TERMS", 0):
        assert _outcome(_pruned_scan, variant, p, f, g, phi, grid) == expected
    assert _outcome(_pruned_scan, variant, p, f, g, phi, grid) == expected


def _series(terms, decay, seed, real):
    """Random coefficients c_1 = 1, c_k ~ decay^k N(0, 1), complex or real
    with -0.0 imaginary parts."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=terms) * decay ** np.arange(terms)
    c = c + 1j * (rng.normal(size=terms) * decay ** np.arange(terms)) if not real else np.conj(c + 0j)
    c[0] = 1.0
    return SeriesFunction(c)


_SERIES = st.one_of(
    st.builds(_series, st.integers(1, 62), st.floats(0.2, 1.3), st.integers(0, 2**32 - 1), st.booleans()),
    st.builds(_series, st.integers(64, 600), st.floats(0.5, 1.02), st.integers(0, 2**32 - 1), st.booleans()),
    st.just(KOEBE),
    st.just(IDENTITY),
)
_COMPLEX = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
_PARAMS = st.builds(
    ParameterSet,
    alpha=_COMPLEX,
    beta=st.one_of(st.just(0.0), _COMPLEX),
    gamma=st.builds(complex, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)).filter(lambda g: abs(g) > 1e-3),
    m=st.floats(0.0, 3.0),
    k=st.floats(0.0, 0.99),
)
_GRIDS = st.builds(
    lambda radii, n: DiskGrid(radii=tuple(sorted(set(radii))), angles_per_radius=n, refine_steps=0),
    st.lists(st.one_of(st.floats(1e-9, 1e-6), st.floats(0.01, 0.995)), min_size=1, max_size=12),
    st.integers(8, 1024),
)


@given(variant=st.sampled_from(VARIANTS), p=_PARAMS, f=_SERIES, g=_SERIES, phi=_SERIES, grid=_GRIDS)
@example(  # Koebe against a long random g: both long rows in one bound
    variant="thm31",
    p=ParameterSet(alpha=0.5 + 0.2j, beta=0.3 - 0.1j, gamma=1.0 + 0.5j, m=2.0, k=0.3),
    f=KOEBE,
    g=_series(200, 0.9, 7, False),
    phi=IDENTITY,
    grid=DiskGrid(radii=(0.5, 0.9, 0.99), angles_per_radius=97, refine_steps=0),
)
@settings(max_examples=200, deadline=None)
def test_pruned_scan_matches_full_scan(variant, p, f, g, phi, grid):
    _assert_as_full_scan(variant, p, f, g, phi, grid)


_P = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, k=0.3)


def test_exact_ties_take_the_first_index():
    # z f''/f' = lam z up to rounding for the exponential, so the values on
    # a circle tie, four of them exactly at the maximum
    f = catalog_build("expscaled", {"lam": np.exp(0.3j), "degree": 32})
    grid = DiskGrid()
    vals = criterion_values("cor32", grid.points(), _P, f)
    assert np.count_nonzero(vals == vals.max()) == 4
    assert _outcome(_full_scan, "cor32", _P, f, None, None, grid)[0] == 108
    _assert_as_full_scan("cor32", _P, f, None, None, grid)


def test_constant_values_take_index_zero():
    grid = DiskGrid(radii=(0.3, 0.6, 0.9), angles_per_radius=16)
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=3.0)
    assert _outcome(_full_scan, "thm31", p, IDENTITY, IDENTITY, IDENTITY, grid) == (0, (1.0).hex())
    _assert_as_full_scan("thm31", p, IDENTITY, IDENTITY, IDENTITY, grid)


def test_derivative_vanishing_at_a_grid_point():
    grid = DiskGrid(radii=(0.3, 0.5, 0.9), angles_per_radius=64)
    w = complex(grid.points()[70])
    f = SeriesFunction([1.0, -1.0 / (2.0 * w)])
    assert _outcome(_full_scan, "cor32", _P, f, None, None, grid) == (DerivativeVanishes, f"f'(z) = 0 at z = {w}", w)
    _assert_as_full_scan("cor32", _P, f, None, None, grid)


def test_g_vanishing_at_a_grid_point():
    # g = z - 2z^2 is exactly 0 at the grid point 0.5
    grid = DiskGrid(radii=(0.3, 0.5, 0.9), angles_per_radius=64)
    g = SeriesFunction([1.0, -2.0])
    f = catalog_build("quadratic", {"c": 0.25})
    expected = (HypothesisViolation, "series <unnamed> vanishes at z = (0.5+0j)", 0.5)
    assert _outcome(_full_scan, "thm31", _P, f, g, None, grid) == expected
    _assert_as_full_scan("thm31", _P, f, g, None, grid)


def test_non_finite_rows_fall_back_to_the_full_scan():
    # f'' has the coefficient 40 * 39 * 1e306 = inf, while Horner's values
    # on |z| <= 0.5 stay finite
    c = np.zeros(40, dtype=np.complex128)
    c[0], c[39] = 1.0, 1e306
    f = SeriesFunction(c)
    grid = DiskGrid(radii=(0.2, 0.35, 0.5), angles_per_radius=64)
    z = grid.points()
    assert np.isfinite(criterion_values("thm31", z, _P, f)).all()
    assert criterion._circle_enclosure(criterion._statement("thm31", _P, f), grid.radii, z) is None
    _assert_as_full_scan("thm31", _P, f, None, None, grid)


@pytest.mark.parametrize("variant", ["cor32", "thm31"])
def test_huge_absolute_series_falls_back_to_the_full_scan(variant):
    # f = z + 1e299 (z^2 + ... + z^30): its rows are finite, but the
    # absolute series of f'' passes 1e300 on the outer circles, so the
    # circle scan gives up and the full scan finds a finite sup
    c = np.full(30, 1e299, dtype=np.complex128)
    c[0] = 1.0
    f = SeriesFunction(c)
    p = ParameterSet(alpha=1.0, beta=0.0)
    grid = DiskGrid()
    rows, scale = _kernels.series_rows(f.coefficients)
    assert scale == 1.0 and np.isfinite(rows).all()
    z = grid.points()
    assert criterion._circle_enclosure(criterion._statement(variant, p, f), grid.radii, z) is None
    _assert_as_full_scan(variant, p, f, None, None, grid)
    assert criterion_check(variant, p, f, grid=grid).sup_value == pytest.approx(9.85e6, rel=1e-3)


_VALUES = criterion._values


def _evaluated(st, grid):
    """The grid points that _grid_max evaluates exactly for st."""
    calls = []
    with mock.patch.object(criterion, "_values", side_effect=lambda st, z: calls.append(z) or _VALUES(st, z)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            criterion._grid_max(st, grid, grid.points())
    (points,) = calls
    return points


def test_fallbacks():
    grid = DiskGrid()
    z = grid.points()
    f, g = catalog_build("quadratic", {"c": 0.25}), catalog_build("quadratic", {"c": 0.5})
    # example31 holds 3 + 3 + 2 terms: the gate sends it to the whole grid
    # and never calls the enclosure, from _grid_max or from criterion_check
    example31 = criterion._statement("thm31", _P, f, g)
    assert example31.series[0].terms == 8 < criterion._SCAN_MIN_TERMS
    with mock.patch.object(criterion, "_circle_enclosure") as enclosure:
        assert np.array_equal(_evaluated(example31, grid), z)
        criterion_check("thm31", _P, f, g, grid=grid)
    enclosure.assert_not_called()
    koebe = criterion._statement("cor32", ParameterSet(), KOEBE)
    assert 0 < _evaluated(koebe, grid).size <= z.size // 4
    # every point a candidate: the scan evaluates them all, as the full scan
    with mock.patch.object(criterion, "_BOUND_SAFETY", 1e12):
        assert np.array_equal(_evaluated(koebe, grid), z)
        expected = _outcome(_full_scan, "cor32", ParameterSet(), KOEBE, None, None, grid)
        assert _outcome(_pruned_scan, "cor32", ParameterSet(), KOEBE, None, None, grid) == expected


@pytest.mark.parametrize("name", ["koebe_cor32", "expscaled"])
def test_a_check_forms_each_series_rows_once(name):
    # the statement's stack forms the rows of the long Koebe series once
    # and the scan reads them; the short exponential's rows are formed when
    # the scan asks for them, and nowhere else
    from univalence_lab.cli import bundled_configs, parse_config

    spec = parse_config(bundled_configs()["koebe_cor32"])
    f = spec.f if name == "koebe_cor32" else catalog_build("expscaled", {"lam": np.exp(0.3j), "degree": 32})
    with mock.patch.object(_kernels, "series_rows", wraps=_kernels.series_rows) as rows:
        with mock.patch.object(criterion, "_circle_enclosure", wraps=criterion._circle_enclosure) as enclosure:
            criterion_check("cor32", spec.params, f, grid=spec.grid)
    assert enclosure.call_count == 1 and rows.call_count == 1


def test_evaluation_forms_no_rows_for_short_series():
    # eval_many, log_derivative and criterion_bracket prepare a stack per
    # call; a short series' rows are left to the scan that asks for them
    f = catalog_build("expscaled", {"lam": np.exp(0.3j), "degree": 32})
    z = np.array([0.3, 0.5j])
    with mock.patch.object(_kernels, "series_rows", wraps=_kernels.series_rows) as rows:
        eval_many(f, z)
        log_derivative(f, z)
        criterion_bracket(f, f, IDENTITY, 0.5, 0.5, z)
    rows.assert_not_called()


@pytest.mark.parametrize("name", ["koebe_cor32", "example31_thm32"])
def test_truncation_warnings_at_the_largest_radius(name):
    # the config's f, then a Koebe series short enough to warn on its grid:
    # whichever points the scan evaluates, the report's warnings are those
    # of one criterion_values call on the whole grid
    from univalence_lab.cli import bundled_configs, parse_config

    spec = parse_config(bundled_configs()[name])
    for f in (spec.f, catalog_build("koebe", {"degree": 64})):
        _assert_as_full_scan(spec.variant, spec.params, f, spec.g, spec.phi, spec.grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            criterion_values(spec.variant, spec.grid.points(), spec.params, f, spec.g, spec.phi)
        expected = list(dict.fromkeys(str(w.message) for w in caught))
        assert expected or f is spec.f
        report = criterion_check(spec.variant, spec.params, f, spec.g, spec.phi, spec.grid)
        assert report.warnings == expected
