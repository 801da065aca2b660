"""Kernels: the series evaluators against an independent extended-precision
Horner reference, and the oracle kernels against brute force."""

import math
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
from univalence_lab.errors import DerivativeVanishes, HypothesisViolation, InconclusiveError, TruncationWarning
from univalence_lab.oracle import _MAX_INCREMENT, winding_numbers
from univalence_lab.series import (
    SMALL_Z,
    _bracket,
    _bracket_series,
    bracket_quotients,
    criterion_bracket,
    eval_many,
    log_derivative,
)
from .conftest import random_disk_points

ACCURACY = 1e-13


def _reference_rows(rows, z):
    """(sum_k a_jk z^k, sum_k |a_jk| |z|^k) per row, by Horner in clongdouble."""
    rows = np.asarray(rows, dtype=np.clongdouble)
    absrows = np.abs(rows)
    z = np.asarray(z, dtype=np.clongdouble)
    az = np.abs(z)
    val = np.zeros((rows.shape[0], z.size), dtype=np.clongdouble)
    scale = np.zeros((rows.shape[0], z.size), dtype=np.longdouble)
    for k in range(rows.shape[1] - 1, -1, -1):
        val = val * z + rows[:, k : k + 1]
        scale = scale * az + absrows[:, k : k + 1]
    return val, scale


def _derivative_rows(coeffs):
    """Rows of p, p', p'' for p = sum_{n>=1} c_n z^n: the coefficient of
    z^k in row j is n!/(n-j)! c_n with n = k + j."""
    c = np.concatenate(([0.0], np.asarray(coeffs, dtype=np.complex128)))
    n = np.arange(c.size, dtype=float)
    rows = np.zeros((3, c.size), dtype=np.clongdouble)
    for j in range(3):
        fall = np.prod([n - i for i in range(j)], axis=0) if j else np.ones_like(n)
        rows[j, : c.size - j] = (fall * c)[j:]
    return rows


def _assert_accurate(got, ref, scale):
    err = np.abs(np.asarray(got, dtype=np.clongdouble) - ref)
    assert np.all(err <= ACCURACY * scale), float(np.max(err / np.maximum(scale, 1e-300)))


def _points(rng, n, r_max):
    """n disk points with |z| <= r_max; the first lies on |z| = r_max."""
    z = random_disk_points(rng, n, r_max)
    z[0] = r_max * np.exp(0.7j)
    return z


def _polyval012(coeffs, z):
    """polyval012 on a SeriesStack prepared for this one call."""
    return _kernels.polyval012(_kernels.SeriesStack(coeffs), z)


SERIES = {
    "koebe4096": (lambda: catalog_build("koebe", {"degree": 4096}), 0.999),
    "expscaled32": (lambda: catalog_build("expscaled", {"lam": 2.5 * np.exp(0.9j), "degree": 32}), 0.999),
    "quadratic": (lambda: catalog_build("quadratic", {"c": 0.4 - 0.2j}), 0.999),
}


class TestSeriesAccuracy:
    """Error <= 1e-13 * sum_n n!/(n-j)! |c_n| |z|^(n-j) for value, p', p''."""

    @pytest.mark.parametrize("npts", [1, 4, 5120])
    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_polyval012(self, rng, name, npts):
        build, r_max = SERIES[name]
        s = build()
        z = _points(rng, npts, r_max)
        ref, scale = _reference_rows(_derivative_rows(s.coefficients), z)
        got = _polyval012([s.coefficients], z)[:, 0]
        for j in range(3):
            assert got[j].shape == (npts,)
            _assert_accurate(got[j], ref[j], scale[j])

    @pytest.mark.parametrize("npts", [1, 4, 5120])
    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_polyval(self, rng, name, npts):
        # the cofactor s(z)/z, whose coefficients start at z^0
        build, r_max = SERIES[name]
        s = build()
        z = _points(rng, npts, r_max)
        ref, scale = _reference_rows(s.coefficients[None, :], z)
        got = _kernels.polyval(s.coefficients, z)
        assert got.shape == (npts,)
        _assert_accurate(got, ref[0], scale[0])

    def test_origin_and_empty(self):
        s = catalog_build("koebe", {"degree": 4096})
        p, dp, ddp = _polyval012([s.coefficients], np.zeros(3))[:, 0]
        assert np.all(p == 0) and np.all(dp == 1) and np.all(ddp == 4)
        assert _kernels.polyval(s.coefficients, np.zeros(0)).shape == (0,)
        assert _polyval012([s.coefficients], np.zeros(0)).shape == (3, 1, 0)


def _brute_force_scan(z, values, tol):
    i, j = np.triu_indices(z.size, 1)
    hit = (np.abs(values[i] - values[j]) < tol) & (np.abs(z[i] - z[j]) > 10 * tol)
    if not hit.any():
        return None
    k = np.flatnonzero(hit)[0]  # triu_indices are in lexicographic order
    return int(i[k]), int(j[k])


def _cloud(seed, n, log_tol, kind):
    """(z, values, tol) for a random cloud of n points with tol = 10^log_tol
    times the value diameter.  kind plants near-collisions within 0.9 tol,
    exact duplicate values, or rounds the values onto a lattice of spacing
    0.7 tol or 1.5 tol, which gives many of them equal real parts and puts
    the end of many search windows on a lattice line."""
    rng = np.random.default_rng(seed)
    z = random_disk_points(rng, n, 0.9)
    values = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    diam = max(np.ptp(values.real), np.ptp(values.imag), 1e-30)
    tol = diam * 10.0**log_tol
    pick = rng.integers(n, size=(4, 2))
    if kind == "near":
        for i, j in pick:
            values[i] = values[j] + 0.9 * tol * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    elif kind == "duplicate":
        for i, j in pick:
            values[i] = values[j]
    elif kind == "lattice":
        h = tol * rng.choice([0.7, 1.5])
        values = np.round(values / h) * h
    return z, values, tol


class TestCollisionScanProperty:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        log_tol=st.floats(-12.0, -1.0),
        kind=st.sampled_from(["plain", "near", "duplicate", "lattice"]),
    )
    @example(seed=1, n=300, log_tol=-9.0, kind="near")
    @example(seed=2, n=300, log_tol=-9.0, kind="lattice")
    @example(seed=3, n=1, log_tol=-1.0, kind="plain")
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force(self, seed, n, log_tol, kind):
        z, values, tol = _cloud(seed, n, log_tol, kind)
        assert _kernels.collision_scan(z, values, tol) == _brute_force_scan(z, values, tol)

    @pytest.mark.parametrize("seed", range(5))
    def test_pairs_split_over_chunks(self, monkeypatch, seed):
        # a budget of 3 pairs per chunk: the first pair is the least over
        # every chunk, not the first one found
        monkeypatch.setattr(_kernels, "_CHUNK_BYTES", 3 * 64)
        z, values, tol = _cloud(seed, 200, -1.5, "near")
        assert _kernels.collision_scan(z, values, tol) == _brute_force_scan(z, values, tol)


class TestPolyvalOnePoint:
    @pytest.mark.parametrize("terms", [2, 3, 4, 17, 63])
    def test_single_point_equals_batch(self, rng, terms):
        coeffs = rng.normal(size=terms) + 1j * rng.normal(size=terms)
        z = random_disk_points(rng, 1000, 0.99)
        batch = _kernels.polyval(coeffs, z)
        single = np.array([_kernels.polyval(coeffs, z[i : i + 1])[0] for i in range(z.size)])
        assert _kernels.polyval(coeffs, z[:1]).shape == (1,)
        assert np.array_equal(single.view(np.float64), batch.view(np.float64))

    @given(
        seed=st.integers(0, 2**32 - 1),
        terms=st.integers(1, 69),
        npts=st.integers(1, 39),
        negative_zero=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_point_alone_gets_its_batch_bits(self, seed, terms, npts, negative_zero):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=terms) + 1j * rng.normal(size=terms)
        z = random_disk_points(rng, npts, 0.99)
        if negative_zero:  # real coefficients and points, -0.0 imaginary parts
            coeffs.imag = -0.0
            z.imag = -0.0
        batch = _kernels.polyval(coeffs, z)
        alone = np.concatenate([_kernels.polyval(coeffs, z[i : i + 1]) for i in range(npts)])
        assert np.array_equal(alone.view(np.float64), batch.view(np.float64))


def _horner_reference(c, z):
    """(p, p', p'') of one series by the per-series Horner loop that
    evaluated the series of fewer than 64 terms before the stacked kernel:
    the reference the kernel must match bit for bit."""
    p = np.full_like(z, c[-1])
    dp = np.zeros_like(z)
    ddp = np.zeros_like(z)
    for k in range(c.size - 2, -2, -1):
        a = c[k] if k >= 0 else 0.0 + 0.0j
        ddp = ddp * z + dp
        dp = dp * z + p
        p = p * z + a
    return p, dp, 2.0 * ddp


def _log_derivative_reference(s, z):
    p, dp, _ = _horner_reference(s.coefficients, z)
    small = np.abs(z) <= SMALL_Z
    out = np.empty_like(p)
    if np.any(~small):
        denom = p[~small]
        if np.any(np.abs(denom) == 0.0):
            bad = z[~small][np.abs(denom) == 0.0][0]
            raise HypothesisViolation(
                f"series {s.label or '<unnamed>'} vanishes at z = {bad}", witness=complex(bad)
            )
        out[~small] = dp[~small] * z[~small] / denom
    if np.any(small):
        out[small] = dp[small] / _kernels.polyval(s.coefficients, z[small])
    return out


def _bracket_reference(f, g, phi, alpha, beta, z):
    """criterion_bracket as it was computed one series at a time."""
    _, fp, fpp = _horner_reference(f.coefficients, z)
    bad = np.abs(fp) < 1e-13
    if np.any(bad):
        w = complex(z[bad][0])
        raise DerivativeVanishes(f"f'(z) = 0 at z = {w}", witness=w)
    lr = np.zeros_like(z) if beta == 0 else _log_derivative_reference(g, z) - _log_derivative_reference(phi, z)
    return alpha * (z * fpp / fp) + beta * lr


def _bracket_per_series(f, g, phi, alpha, beta, z):
    """criterion_bracket from eval_many and log_derivative, one series at a
    time."""
    _, fp, fpp = eval_many(f, z)
    bad = np.abs(fp) < 1e-13
    if np.any(bad):
        w = complex(z[bad][0])
        raise DerivativeVanishes(f"f'(z) = 0 at z = {w}", witness=w)
    lr = np.zeros_like(z) if beta == 0 else log_derivative(g, z) - log_derivative(phi, z)
    return alpha * (z * fpp / fp) + beta * lr


# (alpha, beta): z f''/f' alone, z g'/g - z phi'/phi alone, and both
_WEIGHTS = ((1 + 0j, 0j), (0j, 1 + 0j), (0.5 - 0.25j, 1.5 + 0.5j))


def _outcome(fn, *args):
    """The bytes of the returned array, or the exception's type, message
    and witness."""
    try:
        return np.ascontiguousarray(fn(*args)).tobytes()
    except HypothesisViolation as exc:
        return type(exc), str(exc), exc.witness


def _random_series(rng, n, label, negative_zero):
    """c_1 = 1 and n - 1 coefficients shrinking like 0.6^k.  negative_zero
    makes them real with imaginary part -0.0, whose sign the values keep at
    real z, so that a series shorter than the others must start from its
    top coefficient exactly."""
    c = np.ones(n, dtype=np.complex128)
    c[1:] = rng.normal(size=n - 1) * 0.6 ** np.arange(2, n + 1)
    if negative_zero:
        return SeriesFunction(np.conj(c), label=label)
    c[1:] += 1j * rng.normal(size=n - 1) * 0.6 ** np.arange(2, n + 1)
    return SeriesFunction(c, label=label)


def _probe_points(rng, n):
    """n points of the closed disk: 0, two of modulus at most SMALL_Z, two
    on |z| = 1 and two real ones (as many as fit), the rest random, in
    random order."""
    z = random_disk_points(rng, n, 1.0)
    special = [0.0, SMALL_Z * np.exp(2j * np.pi * rng.uniform()), 1e-12j, np.exp(2j * np.pi * rng.uniform()), -1.0]
    special += list(rng.uniform(-1.0, 1.0, 2))
    z[: min(n, 7)] = special[: min(n, 7)]
    return rng.permutation(z)


class TestStackedHornerParity:
    """polyval012 on a stack of series, and criterion_bracket, give the bits of
    the per-series Horner reference."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(1, 62), st.integers(1, 62), st.integers(1, 62)),
        npts=st.integers(1, 300),
        negative_zero=st.booleans(),
    )
    @example(seed=1, sizes=(32, 32, 1), npts=4, negative_zero=False)
    @example(seed=2, sizes=(62, 7, 7), npts=300, negative_zero=True)
    @example(seed=3, sizes=(5, 40, 1), npts=1, negative_zero=True)
    @settings(max_examples=120, deadline=None)
    def test_bits_equal_per_series_horner(self, seed, sizes, npts, negative_zero):
        rng = np.random.default_rng(seed)
        f, g, phi = (_random_series(rng, n, name, negative_zero) for n, name in zip(sizes, "fgp"))
        z = _probe_points(rng, npts)
        stacked = _polyval012([s.coefficients for s in (f, g, phi)], z)
        for j, s in enumerate((f, g, phi)):
            for got, ref in zip(stacked, _horner_reference(s.coefficients, z)):
                assert got[j].tobytes() == ref.tobytes()
        for alpha, beta in _WEIGHTS:
            args = (f, g, phi, alpha, beta, z)
            assert _outcome(criterion_bracket, *args) == _outcome(_bracket_reference, *args)

    def test_shorter_series_starts_at_its_top_coefficient(self):
        # real coefficients with imaginary part -0.0 and a negative top one:
        # at negative real z the signs of the zero imaginary parts survive,
        # so the shorter series must start from c_N exactly, not 0 z + c_N
        f = SeriesFunction(np.conj([1.0, 0.3, -0.2, 0.1, 0.05 + 0j]))
        g = SeriesFunction(np.conj([1.0, -0.3 + 0j]))
        z = np.array([-0.5, -0.9, 0.5, -0.2, 0.0], dtype=np.complex128)
        stacked = _polyval012([f.coefficients, g.coefficients], z)
        for j, s in enumerate((f, g)):
            for got, ref in zip(stacked, _horner_reference(s.coefficients, z)):
                assert got[j].tobytes() == ref.tobytes()

    def test_grid_equals_its_chunks(self):
        # on the default 5120-point grid each series runs alone, in chunks
        # of _HORNER_BYTES per temporary: every chunk-sized piece evaluated
        # alone has the bits of the whole call
        rng = np.random.default_rng(7)
        series = [_random_series(rng, n, name, True).coefficients for n, name in ((32, "f"), (17, "g"), (1, "p"))]
        z = DiskGrid().points()
        chunk = _kernels._HORNER_BYTES // (16 * 3)
        assert z.size == 5120 > chunk
        whole = _polyval012(series, z)
        for s in range(0, z.size, chunk):
            for a, b in zip(whole, _polyval012(series, z[s : s + chunk])):
                assert a[:, s : s + chunk].tobytes() == b.tobytes()

    def test_derivative_vanishes_keeps_message_and_witness(self):
        f = SeriesFunction(np.array([1.0, 0.5]), label="f")  # f' = 1 + z
        ident = catalog_build("identity")
        z = np.array([0.5, -1.0, 0.25j, -1.0])
        with pytest.raises(DerivativeVanishes) as exc:
            criterion_bracket(f, ident, ident, 1.0, 1.0, z)
        assert str(exc.value) == "f'(z) = 0 at z = (-1+0j)" and exc.value.witness == -1.0
        for alpha, beta in _WEIGHTS:
            args = (f, ident, ident, alpha, beta, z)
            assert _outcome(criterion_bracket, *args) == _outcome(_bracket_reference, *args)

    @pytest.mark.parametrize("vanishing", ["g", "phi"])
    def test_g_or_phi_vanishing_keeps_message_and_witness(self, vanishing):
        f = catalog_build("quadratic", {"c": 0.25})
        zero_at_minus_one = SeriesFunction(np.array([1.0, 1.0]), label=vanishing)  # z (1 + z)
        fine = SeriesFunction(np.array([1.0, 0.1, 0.01]), label="other")
        g, phi = (zero_at_minus_one, fine) if vanishing == "g" else (fine, zero_at_minus_one)
        z = np.array([0.0, 0.5j, -1.0, 0.3, -1.0])
        with pytest.raises(HypothesisViolation) as exc:
            criterion_bracket(f, g, phi, 1.0, 1.0, z)
        assert str(exc.value) == f"series {vanishing} vanishes at z = (-1+0j)" and exc.value.witness == -1.0
        args = (f, g, phi, 1.0, 1.0, z)
        assert _outcome(criterion_bracket, *args) == _outcome(_bracket_reference, *args)
        assert criterion_bracket(f, g, phi, 1.0, 0.0, z).shape == z.shape  # beta = 0: g and phi do not enter


class TestBracketTermsParity:
    """criterion_bracket gives every series the bits of eval_many and
    log_derivative: long series (64-600 terms, the degree-4096 Koebe
    series), stacks that mix short and long ones, and f also g or phi."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(*[st.one_of(st.integers(1, 62), st.integers(64, 600), st.just(4096))] * 3),
        shared=st.sampled_from(((), ("g",), ("phi",), ("g", "phi"))),
        npts=st.integers(1, 300),
        negative_zero=st.booleans(),
    )
    @example(seed=1, sizes=(4096, 4096, 1), shared=("g",), npts=80, negative_zero=False)
    @example(seed=2, sizes=(100, 7, 600), shared=(), npts=300, negative_zero=True)
    @example(seed=3, sizes=(20, 64, 63), shared=(), npts=1, negative_zero=False)
    @settings(max_examples=60, deadline=None)
    def test_bits_equal_eval_many(self, seed, sizes, shared, npts, negative_zero):
        rng = np.random.default_rng(seed)
        koebe = catalog_build("koebe", {"degree": 4096})
        f, g, phi = (koebe if n == 4096 else _random_series(rng, n, name, negative_zero) for n, name in zip(sizes, "fgp"))
        g = f if "g" in shared else g
        phi = f if "phi" in shared else phi
        z = _probe_points(rng, npts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for alpha, beta in _WEIGHTS:
                args = (f, g, phi, alpha, beta, z)
                assert _outcome(criterion_bracket, *args) == _outcome(_bracket_per_series, *args)


class TestPreparedStack:
    """A SeriesStack prepared once, as a criterion statement holds it, and
    evaluated again and again on point sets of any size gives the bits and
    the errors of the per-call path, which prepares a stack for each call."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 62), min_size=1, max_size=3, unique=True),
        npts=st.lists(st.integers(1, 256), min_size=1, max_size=4),
        negative_zero=st.booleans(),
    )
    @example(seed=1, sizes=[32, 2, 1], npts=[16, 16, 32, 256], negative_zero=False)
    @example(seed=2, sizes=[62, 7, 40], npts=[256, 43, 1, 44], negative_zero=True)
    @example(seed=3, sizes=[5], npts=[1, 2, 256], negative_zero=True)
    @settings(max_examples=100, deadline=None)
    def test_polyval012_bits(self, seed, sizes, npts, negative_zero):
        rng = np.random.default_rng(seed)
        series = [_random_series(rng, n, f"s{j}", negative_zero) for j, n in enumerate(sizes)]
        coeffs = [s.coefficients for s in series]
        stack = _kernels.SeriesStack(coeffs)
        for n in npts:  # one stack, several widths, some of them again
            z = _probe_points(rng, n)
            got = _kernels.polyval012(stack, z)
            assert got.tobytes() == _polyval012(coeffs, z).tobytes()
            for j, s in enumerate(series):
                for a, ref in zip(got, _horner_reference(s.coefficients, z)):
                    assert a[j].tobytes() == ref.tobytes()
        assert stack._kept <= _kernels._HORNER_BYTES

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(1, 62), st.integers(1, 62), st.integers(1, 62)),
        npts=st.lists(st.integers(1, 256), min_size=1, max_size=3),
        negative_zero=st.booleans(),
    )
    @example(seed=1, sizes=(32, 32, 1), npts=[16, 256, 16], negative_zero=False)
    @example(seed=2, sizes=(3, 62, 1), npts=[1, 7], negative_zero=True)
    @settings(max_examples=60, deadline=None)
    def test_bracket_bits(self, seed, sizes, npts, negative_zero):
        # every point set holds 0 and points of modulus at most SMALL_Z
        rng = np.random.default_rng(seed)
        f, g, phi = (_random_series(rng, n, name, negative_zero) for n, name in zip(sizes, "fgp"))
        for alpha, beta in _WEIGHTS:
            quotients = bracket_quotients(f, g, phi, alpha, beta)
            prepared = _bracket_series(quotients)
            for n in npts:
                z = _probe_points(rng, n)
                got = _outcome(lambda z: _bracket(quotients, prepared, beta, z, np.abs(z)), z)
                assert got == _outcome(criterion_bracket, f, g, phi, alpha, beta, z)

    @pytest.mark.parametrize("vanishing", ["f", "g", "phi"])
    def test_errors_after_the_tables_are_kept(self, vanishing):
        # f' = 1 + z, g = z (1 + z) or phi = z (1 + z) vanishes at z = -1
        f = SeriesFunction(np.array([1.0, 0.5]), label="f") if vanishing == "f" else catalog_build("quadratic", {"c": 0.25})
        zero = SeriesFunction(np.array([1.0, 1.0]), label=vanishing)
        fine = SeriesFunction(np.array([1.0, 0.1, 0.01]), label="other")
        g, phi = (zero, fine) if vanishing == "g" else (fine, zero)
        p = ParameterSet(alpha=0.5, beta=0.5)
        st_ = criterion._statement("thm31", p, f, g, phi)
        good = np.array([0.5, 0.25j, -0.3, 0.0])
        bad = np.array([0.5, -1.0, 0.25j, -1.0])
        for z in (good, bad, good, bad):
            expected = _outcome(criterion_values, "thm31", z, p, f, g, phi)
            assert _outcome(criterion._values, st_, z) == expected
        kind = DerivativeVanishes if vanishing == "f" else HypothesisViolation
        with pytest.raises(kind) as exc:
            criterion._values(st_, bad)
        text = "f'(z) = 0 at z = (-1+0j)" if vanishing == "f" else f"series {vanishing} vanishes at z = (-1+0j)"
        assert str(exc.value) == text and exc.value.witness == -1.0

    def test_series_told_apart_by_their_bits(self):
        # equal series whose imaginary parts are +0.0 and -0.0: at real z
        # with imaginary part -0.0 the values keep the signs, so each
        # statement, and each series within one, must keep its own bits
        plus = SeriesFunction(np.array([1.0, 0.3, -0.2, 0.1, 0.05 + 0j]), label="plus")
        minus = SeriesFunction(np.conj(plus.coefficients), label="minus")
        assert plus == minus and plus.coefficients.tobytes() != minus.coefficients.tobytes()
        z = np.conj(np.array([-0.5, -0.9, 0.5, -0.2, 0.0, -0.7], dtype=np.complex128))
        p = ParameterSet(alpha=0.5, beta=0.5)
        ident = catalog_build("identity")
        values = {}
        for s in (plus, minus):
            stack = criterion._statement("thm31", p, s, s, ident).series[0]
            for _ in range(2):  # the second call reads the kept table
                got = _kernels.polyval012(stack, z)
                for a, ref in zip(got, _horner_reference(s.coefficients, z)):
                    assert a[0].tobytes() == ref.tobytes()
            values[s.label] = got.tobytes()
        assert values["plus"] != values["minus"]
        # within one statement too: the bracket reads g and phi from slots
        # of their own, whichever comes first
        f = catalog_build("quadratic", {"c": 0.25})
        for g, phi in ((plus, minus), (minus, plus)):
            both = criterion._statement("thm31", p, f, g, phi)
            stack, slots = both.series
            assert stack.count == 3 and slots == (0, 1, 2)
            for _ in range(2):
                got = _kernels.polyval012(stack, z)
                for j, s in ((1, g), (2, phi)):
                    for a, ref in zip(got, _horner_reference(s.coefficients, z)):
                        assert a[j].tobytes() == ref.tobytes()
                bracket = _bracket(both.quotients, both.series, both.beta, z, np.abs(z))
                assert bracket.tobytes() == _bracket_reference(f, g, phi, p.alpha, p.beta, z).tobytes()

    @pytest.mark.parametrize("family", ["example31", "expscaled"])
    def test_each_table_is_built_once_per_check(self, family):
        # the coefficient table of a width is built on the first pass of
        # that width and read by every later one of the check
        ident = catalog_build("identity")
        if family == "example31":
            f, g = catalog_build("quadratic", {"c": 0.25}), catalog_build("quadratic", {"c": 0.5})
        else:
            lam = np.exp(0.3j)
            f = catalog_build("expscaled", {"lam": lam, "degree": 32})
            g = catalog_build("expscaled", {"lam": lam / 2.0, "degree": 32})
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, k=0.3)
        for variant in criterion.VARIANTS:
            statements = []

            def statement(*args, _make=criterion._statement):
                statements.append(_make(*args))
                return statements[-1]

            passes = []

            def horner(stack, z, out, i=None, _run=_kernels._horner012):
                passes.append(z.size)
                return _run(stack, z, out, i)

            with (
                mock.patch.object(criterion, "_statement", statement),
                mock.patch.object(_kernels, "_horner012", horner),
                mock.patch.object(np, "repeat", wraps=np.repeat) as repeat,
                warnings.catch_warnings(),
            ):
                warnings.simplefilter("ignore", TruncationWarning)
                criterion_check(variant, p, f, g, ident, DiskGrid())
            (st_,) = statements
            stack = st_.series[0]
            widths = [c.args[1] for c in repeat.call_args_list if c.args and c.args[0] is stack.cols]
            assert widths and len(widths) == len(set(widths)) == len(stack._tables)
            assert len(passes) > 2 * len(widths)  # tables are read far more often than built

    def test_stack_counts_as_its_series(self):
        # a caller at the polyval012 boundary may count the series of its
        # first argument: a stack, long series included, has the length of
        # the sequence it was built from
        rng = np.random.default_rng(4)
        coeffs = [_random_series(rng, n, f"s{j}", False).coefficients for j, n in enumerate((3, 80, 12))]
        stack = _kernels.SeriesStack(coeffs)
        assert len(stack) == len(coeffs) == 3 and len(stack.long) == 1
        assert _kernels.polyval012(stack, _probe_points(rng, 8)).shape == (3, 3, 8)

    def test_bare_arrays_are_refused(self):
        # polyval012 takes a prepared SeriesStack only: neither one series
        # nor a sequence of them
        c = np.array([1.0, 0.5j])
        z = np.array([0.25, -0.5j])
        for bare in (c, [c], (c, c[:1])):
            with pytest.raises(TypeError, match="SeriesStack"):
                _kernels.polyval012(bare, z)

    def test_criterion_calls_have_countable_series(self):
        # every polyval012 call of a check hands over series that len()
        # counts, as a work counter wrapped around the kernel reads them
        f, g = catalog_build("quadratic", {"c": 0.25}), catalog_build("quadratic", {"c": 0.5})
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, k=0.3)
        counted = []

        def polyval012(coeffs, z, *args, _run=_kernels.polyval012):
            out = _run(coeffs, z, *args)
            counted.append(len(coeffs) * np.size(z))
            return out

        with mock.patch.object(_kernels, "polyval012", polyval012):
            for variant in criterion.VARIANTS:
                criterion_check(variant, p, f, g, catalog_build("identity"), DiskGrid())
        assert counted and all(n > 0 for n in counted)


def _signed_zeros(rng, x):
    """x with about half its entries set to +0.0 or -0.0, at random."""
    x = x.copy()
    hit = rng.uniform(size=x.size) < 0.5
    x[hit] = np.where(rng.uniform(size=int(hit.sum())) < 0.5, 0.0, -0.0)
    return x


def _random_polynomial(rng, n, zero_parts):
    """a_0 .. a_(n-1) shrinking like 0.6^k; with zero_parts about half of
    the real and half of the imaginary parts are zeros of either sign."""
    re, im = (rng.normal(size=n) * 0.6 ** np.arange(n) for _ in range(2))
    a = np.empty(n, dtype=np.complex128)
    a.real, a.imag = (_signed_zeros(rng, re), _signed_zeros(rng, im)) if zero_parts else (re, im)
    return a


class TestValueStack:
    """Every polynomial of a ValueStack, the prepared S and h of an operator
    plan, gets the bits of polyval alone, on the stacked pass (several
    short polynomials on at most _STACK_POINTS points) and off it."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 80), min_size=1, max_size=4),
        npts=st.lists(st.sampled_from([1, 6, 256, 257, 4097]) | st.integers(1, 300), min_size=1, max_size=3),
        zero_parts=st.booleans(),
    )
    @example(seed=1, sizes=[61, 62], npts=[6, 1, 256, 6, 257], zero_parts=False)  # example31's S and h
    @example(seed=2, sizes=[5, 62, 64, 2], npts=[1, 6, 4097], zero_parts=True)
    @example(seed=3, sizes=[2, 1, 0, 40], npts=[256, 257, 6], zero_parts=True)
    @example(seed=4, sizes=[3, 3], npts=[1, 6], zero_parts=True)
    @settings(max_examples=60, deadline=None)
    def test_each_polynomial_has_the_bits_of_polyval(self, seed, sizes, npts, zero_parts):
        rng = np.random.default_rng(seed)
        coeffs = [_random_polynomial(rng, n, zero_parts) for n in sizes]
        stack = _kernels.ValueStack(coeffs)
        for n in npts:  # one stack, several widths, some of them again
            z = random_disk_points(rng, n, 1.0)
            real = rng.uniform(size=n) < 0.3  # real points, imaginary part +0.0 or -0.0
            z.imag[real] = _signed_zeros(rng, np.ones(int(real.sum())))
            got = _kernels.polyvals(stack, z)
            assert len(got) == len(coeffs)
            for a, row in zip(coeffs, got):
                want = _kernels.polyval(a, z) if a.size else np.zeros(n, dtype=np.complex128)
                assert row.tobytes() == want.tobytes()
        assert stack._kept <= _kernels._HORNER_BYTES


class TestDispatchAgreesWithNumpy:
    """The public kernels agree with independent numpy computations."""

    def test_polyval012(self, rng):
        coeffs = (rng.normal(size=12) + 1j * rng.normal(size=12)).astype(complex)
        coeffs[0] = 1.0
        z = random_disk_points(rng, 200, 0.95)
        ref, scale = _reference_rows(_derivative_rows(coeffs), z)
        for j, got in enumerate(_polyval012([coeffs], z)[:, 0]):
            _assert_accurate(got, ref[j], scale[j])

    def test_polyval(self, rng):
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        z = random_disk_points(rng, 100, 0.9)
        ref, scale = _reference_rows(coeffs[None, :], z)
        _assert_accurate(_kernels.polyval(coeffs, z), ref[0], scale[0])

    def test_collision_scan(self, rng):
        z = random_disk_points(rng, 400, 0.9)
        values = z.copy()
        # plant one exact collision between well-separated points
        values[37] = values[301]
        tol = 1e-7
        got = _kernels.collision_scan(z, values, tol)
        assert got == _brute_force_scan(z, values, tol) == (37, 301)

    def test_collision_scan_none(self, rng):
        z = random_disk_points(rng, 300, 0.9)
        assert _kernels.collision_scan(z, z.copy(), 1e-9) is None

    def test_winding_stats(self, rng):
        th = np.linspace(0.0, 2.0 * np.pi, 257)
        curve = 0.7 * np.exp(1j * th) + 0.05 * np.exp(5j * th)
        curve[-1] = curve[0]
        targets = random_disk_points(rng, 20, 0.4)
        total, mindist, maxinc = _kernels.winding_stats(curve, targets)
        d = curve[None, :] - targets[:, None]
        inc = np.diff(np.unwrap(np.angle(d), axis=1), axis=1)
        assert np.allclose(total, inc.sum(axis=1), rtol=1e-12, atol=1e-12)
        assert np.allclose(total, 2.0 * np.pi, rtol=1e-12)  # every target is inside
        assert np.allclose(mindist, np.abs(d).min(axis=1), rtol=1e-12, atol=1e-12)
        assert np.allclose(maxinc, np.abs(inc).max(axis=1), rtol=1e-12, atol=1e-12)


class TestBlockedBatchIndependence:
    """A long series gives a point the same bits alone, in any window of a
    batch, and in the whole batch (every matrix product has a multiple of
    4 columns)."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        terms=st.one_of(st.integers(64, 600), st.just(4096)),
        npts=st.integers(1, 700),
        rows=st.sampled_from(((0, 1, 2), (1, 2), (0,))),
        cuts=st.lists(st.integers(0, 700), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_alone_and_windows_equal_the_batch(self, seed, terms, npts, rows, cuts):
        rng = np.random.default_rng(seed)
        if terms == 4096:
            c = catalog_build("koebe", {"degree": 4096}).coefficients
        else:
            c = (rng.normal(size=terms) + 1j * rng.normal(size=terms)) * 0.99 ** np.arange(terms)
        table = _kernels._derivative_rows(np.asarray(c, dtype=np.complex128))[list(rows)]
        z = random_disk_points(rng, npts, 0.999)
        batch = _kernels._blocked_rows(table, z)
        alone = np.concatenate([_kernels._blocked_rows(table, z[i : i + 1]) for i in range(min(npts, 40))], axis=1)
        assert np.array_equal(alone.view(np.float64), batch[:, : alone.shape[1]].view(np.float64))
        edges = sorted({0, npts, *(min(c, npts) for c in cuts)})
        windows = np.concatenate([_kernels._blocked_rows(table, z[a:b]) for a, b in zip(edges, edges[1:])], axis=1)
        assert np.array_equal(windows.view(np.float64), batch.view(np.float64))


class TestOverflowingRows:
    """A coefficient whose (k + 1) k c_k overflows leaves the blocked
    product finite: its rows are formed from c scaled by a power of two."""

    def test_finite_and_accurate(self):
        mp = pytest.importorskip("mpmath")
        c = np.zeros(70, dtype=np.complex128)
        c[0], c[69] = 1.0, 1e306  # f = z + 1e306 z^70
        z = np.array([0.1, 0.2j, -0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = criterion_values("cor32", z, ParameterSet(), SeriesFunction(c))
            rows = _polyval012([c], z)[:, 0]
        assert _kernels.series_rows(c)[1] > 1.0
        with mp.workdps(50):
            a = mp.mpf(1e306)
            for i, w in enumerate(z.tolist()):
                w = mp.mpc(w)
                ref_rows = (w + a * w**70, 1 + 70 * a * w**69, 70 * 69 * a * w**68)
                for j in range(3):
                    assert abs(rows[j][i] - ref_rows[j]) <= 1e-12 * abs(ref_rows[j])
                ref = (1 - abs(w) ** 2) * abs(w * ref_rows[2] / ref_rows[1])
                assert abs(got[i] - ref) <= 1e-12 * ref

    def test_finite_rows_keep_their_scale(self):
        koebe = catalog_build("koebe", {"degree": 4096}).coefficients
        rows, scale = _kernels.series_rows(koebe)
        assert scale == 1.0
        assert np.array_equal(rows, _kernels._derivative_rows(koebe))


class TestCircleRows:
    """circle_rows lies within the bound of criterion._circle_enclosure of
    Horner's values at r e^{2 pi i l/n}, and its absolute series match
    math.fsum, with one fold (k <= n) and several."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        terms=st.integers(1, 63),
        n=st.integers(8, 96),
        radii=st.lists(st.floats(1e-6, 0.999), min_size=1, max_size=4, unique=True),
    )
    @example(seed=0, m=2, terms=40, n=64, radii=[0.5, 0.9])  # one fold
    @example(seed=1, m=2, terms=63, n=8, radii=[0.5, 0.99])  # eight folds
    @settings(max_examples=60, deadline=None)
    def test_values_and_sums(self, seed, m, terms, n, radii):
        rng = np.random.default_rng(seed)
        rows = (rng.normal(size=(m, terms)) + 1j * rng.normal(size=(m, terms))) * 0.9 ** np.arange(terms)
        radii = np.array(sorted(radii))
        vals, sums, dsums = _kernels.circle_rows(rows, radii, n)
        assert vals.shape == (m, radii.size, n) and sums.shape == dsums.shape == (m, radii.size)
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        k = np.arange(terms)
        rounding = terms + criterion._FFT_ROUNDING * math.ceil(math.log2(2 * n))
        for j in range(m):
            a = np.abs(rows[j])
            for i, r in enumerate(radii.tolist()):
                assert sums[j, i] == pytest.approx(math.fsum(a * r**k), rel=1e-12)
                assert dsums[j, i] == pytest.approx(math.fsum(k[1:] * a[1:] * r ** k[:-1]), rel=1e-12)
                horner = _kernels.polyval(rows[j], r * np.exp(1j * theta))
                bound = criterion._UNIT_ROUNDOFF * (rounding * sums[j, i] + criterion._GRID_OFFSET * r * dsums[j, i])
                assert np.abs(vals[j, i] - horner).max() <= criterion._BOUND_SAFETY * bound


def _winding_loop(curve, targets):
    """winding_stats as it was computed one target at a time."""
    m = targets.shape[0]
    total, mindist, maxinc = np.empty(m), np.empty(m), np.empty(m)
    for j in range(m):
        d = curve - targets[j]
        inc = np.diff(np.angle(d))
        inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
        total[j] = inc.sum()
        mindist[j] = np.abs(d).min()
        maxinc[j] = np.abs(inc).max() if inc.size else 0.0
    return total, mindist, maxinc


class TestWindingBlocks:
    """winding_stats in blocks of targets gives the bits of one pass per
    target, and winding_numbers decides as they do."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        npts=st.integers(3, 3000),
        ntargets=st.integers(1, 80),
        near=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_one_pass_per_target(self, seed, npts, ntargets, near):
        rng = np.random.default_rng(seed)
        th = np.linspace(0.0, 2.0 * np.pi, npts)
        curve = 0.7 * np.exp(1j * th) + 0.05 * np.exp(5j * th)
        curve[-1] = curve[0]
        targets = random_disk_points(rng, ntargets, 0.9)
        # a share of the targets sits on or next to the curve: within
        # min_dist, or where an argument increment approaches pi
        k = rng.integers(0, npts, ntargets)
        close = rng.uniform(size=ntargets) < near
        targets[close] = curve[k[close]] + rng.choice([0.0, 1e-9, 1e-3], size=close.sum())
        got = _kernels.winding_stats(curve, targets)
        expected = _winding_loop(curve, targets)
        for a, b in zip(got, expected):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        total, mindist, maxinc = expected
        try:
            numbers = winding_numbers(curve, targets)
        except InconclusiveError as exc:
            assert (mindist <= 1e-8).any() or (maxinc >= _MAX_INCREMENT).any(), str(exc)
        else:
            assert not (mindist <= 1e-8).any() and not (maxinc >= _MAX_INCREMENT).any()
            assert np.array_equal(numbers, np.rint(total / (2.0 * np.pi)).astype(int))


class TestWindingWrap:
    """The in-place wrap of winding_stats gives the bits of the remainder
    formula at its edges: increments of exactly +-pi and +-2 pi, 0, and
    NaN."""

    # angle(-1 + 0j) = pi and angle(-1 - 0j) = -pi: steps between them and
    # from the positive axis give the increments +-2 pi, +-pi and 0
    CURVE = np.array(
        [1.0, -1.0, complex(-1.0, -0.0), -1.0, -1.0, complex(-2.0, -0.0), 2.0, complex(-1.0, -0.0), 1.0, 1.0],
        dtype=np.complex128,
    )

    def _assert_bits(self, curve, targets):
        got = _kernels.winding_stats(curve, targets)
        for a, b in zip(got, _winding_loop(curve, targets)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        return got

    def test_half_and_full_turns_and_repeats(self):
        curve = self.CURVE
        incs = np.diff(np.angle(curve))
        assert {np.pi, -np.pi, 2.0 * np.pi, -2.0 * np.pi, 0.0} <= set(incs.tolist())
        targets = np.array([0.0, complex(0.0, -0.0), 0.5, -0.5, 3.0j], dtype=np.complex128)
        _, mindist, maxinc = self._assert_bits(curve, targets)
        assert maxinc[0] == np.pi and mindist[0] == 1.0

    def test_nan_point(self):
        curve = self.CURVE.copy()
        curve[4] = complex(np.nan, 0.0)
        total, mindist, maxinc = self._assert_bits(curve, np.array([0.0, 0.5j]))
        assert np.isnan(total).all() and np.isnan(maxinc).all()


class TestBackendSelection:
    def test_numpy_backend_full_pipeline(self):
        f = catalog_build("quadratic", {"c": 0.25})
        g = catalog_build("quadratic", {"c": 0.5})
        grid = DiskGrid(radii=(0.5, 0.9), angles_per_radius=64, refine_steps=5)
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0)
        r = criterion_check("thm32", p, f, g, catalog_build("identity"), grid)
        assert r.passed
        assert r.sup_value < 1.0
