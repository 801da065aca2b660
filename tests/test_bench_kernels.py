"""The scripts under benchmarks/ keep working against the package
internals they time: one small case of each of their tables, each timing
loop run once instead of timed."""

import importlib.util
import pathlib
from unittest import mock

import numpy as np

from univalence_lab import DiskGrid, ParameterSet, SeriesFunction, catalog_build
from univalence_lab.extension import beltrami_ring

_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def _bench(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _once(fn, repeat):
    fn()
    return 1e-3


def test_kernel_rows():
    # polyval012 is timed on a stack prepared outside its loop, and the
    # preparation in a column of its own
    bench = _bench("bench_kernels")
    stack = bench._kernels.SeriesStack
    timed = []

    def best(fn, repeat):
        with mock.patch.object(stack, "__init__", autospec=True, side_effect=stack.__init__) as prepare:
            fn()
        timed.append(prepare.call_count)
        return 1e-3

    with mock.patch.object(bench, "_best", best):
        for degree in (4096, 2):
            row = bench._kernel_row(degree, 4, np.random.default_rng(0), 1)
            cells = row.split()
            assert cells[:2] == [str(degree), "4"] and cells[3::2] == ["ms", "ms", "ms"]
    assert timed == [0, 1, 0] * 2  # polyval012, prepare, polyval


def test_horner_rows():
    # each row times the stacked pass (no series alone) of the expscaled
    # statement's three series of degree up to 32 on its points
    bench = _bench("bench_kernels")
    passes = []

    def horner(stack, z, out, i=None, _run=bench._kernels._horner012):
        passes.append((len(stack), stack.top, z.size, i))
        return _run(stack, z, out, i)

    with mock.patch.object(bench, "_best", _once), mock.patch.object(bench._kernels, "_horner012", horner):
        rows = [bench._horner_row(n, np.random.default_rng(0), 1) for n in bench.HORNER_POINTS]
    assert bench.HORNER_POINTS == (16, 80, 256)
    assert [row.split()[0::2] for row in rows] == [["16", "us"], ["80", "us"], ["256", "us"]]
    # the pass that builds the width's buffer, then the one of the timing loop
    assert passes == [(3, 32, n, None) for n in bench.HORNER_POINTS for _ in range(2)]


def test_criterion_and_scan_rows():
    bench = _bench("bench_kernels")
    lam = np.exp(0.3j)
    f = catalog_build("expscaled", {"lam": lam, "degree": 32})
    g = catalog_build("expscaled", {"lam": lam / 2.0, "degree": 32})
    phi = catalog_build("identity")
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, k=0.3)
    with mock.patch.object(bench, "_best", _once):
        row = bench._criterion_row("thm31", p, f, g, phi, 1)
        scan = bench._scan_row("thm31", p, f, g, phi, DiskGrid(), 1)
    cells = row.split()
    assert cells[1::2][:4] == ["ms", "us", "us", "us"]  # grid, probe, lookahead, first
    assert float(cells[6]) > 0.0  # first: timed, not the mocked loop
    probes, points = map(int, cells[8:10])
    assert probes > 0  # the probe calls of the check were counted
    assert 0 < points <= 4 * DiskGrid().refine_steps * probes
    with mock.patch.object(bench._kernels, "_Pass", wraps=bench._kernels._Pass) as built:
        bench._first_call("thm31", p, f, g, phi, np.full(16, 0.5 + 0.1j), 1)
    assert built.call_count == 50  # each timed call built its statement's pass buffer
    terms, _, _, cands, fallback = scan.split()
    assert int(terms) == 68 and 0 < int(cands) < 5120 and fallback == "-"


def test_scan_row_fallbacks():
    # the terms count comes from the statement's stack, which tells series
    # apart by identity; the fallback from the gate, then from a None
    # enclosure
    bench = _bench("bench_kernels")
    p = ParameterSet(alpha=1.0, beta=0.0)
    grid = DiskGrid(radii=(0.5, 0.9), angles_per_radius=64)
    quadratic = catalog_build("quadratic", {"c": 0.25})
    huge = SeriesFunction(np.concatenate(([1.0], np.full(29, 1e299))))  # see test_grid_scan
    with mock.patch.object(bench, "_best", _once):
        rows = [bench._scan_row("cor32", p, f, None, None, grid, 1).split() for f in (quadratic, huge)]
    (terms, _, _, cands, fallback), (terms_huge, _, _, cands_huge, fallback_huge) = rows
    assert (int(terms), fallback) == (3, "terms") and 0 < int(cands) <= 128
    assert (int(terms_huge), cands_huge, fallback_huge) == (31, "-", "nonfinite")


def test_winding_row():
    bench = _bench("bench_kernels")
    spec = bench.parse_config(bench.bundled_configs()["example31_thm32"])
    with mock.patch.object(bench, "_best", _once):
        row = bench._winding_row(spec, 1)
    assert row.split()[:2] == ["winding_stats", "2049"] and row.endswith("50 targets covered once: True")


def test_operator_row():
    bench = _bench("bench_operator")
    f = SeriesFunction(np.array([1.0, 1.5, 0.75]))  # f' = (1 + 1.5 u)^2 vanishes at -2/3
    ident = catalog_build("identity")
    grid = bench.polar_samples(4, 8, 0.9)
    with mock.patch.object(bench, "_best", _once):
        row = bench._operator_row("cubic", grid, ParameterSet(alpha=0.5), f, ident, ident, 1)
    points, series, steps, flagged = map(int, row.split()[1:5])
    assert points == 32 and 0 < series < 32 and steps > 0 and flagged > 0


def test_chain_and_beltrami_rows():
    bench = _bench("bench_chain")
    problem = bench._problem()
    rng = np.random.default_rng(0)
    with mock.patch.object(bench, "_best", _once):
        chain = bench._chain_row(*bench._points(6, rng), problem, 1)
        ring = bench._beltrami_row(bench.BELTRAMI_GRIDS[1], problem, 1)
        # the first probe curve, and each transfer size, by transfer_grid
        curve = bench._chain_row(*bench._points(257, rng), problem, 1)
        with mock.patch.object(bench, "transfer_grid", wraps=bench.transfer_grid) as transfer:
            rows = [bench._chain_row(*bench._points(n, rng), problem, 1, transfer) for n in bench.TRANSFER_SIZES]
    assert chain.split()[0] == "6" and ring.split()[0] == "32" and curve.split()[0] == "257"
    assert 257 in bench.SIZES and bench.TRANSFER_SIZES == (1, 6, 640)
    assert [row.split()[0] for row in rows] == ["1", "6", "640"] and transfer.call_count == 3
    # the second grid is the default ring of beltrami_ring
    p, f, g, phi = problem
    assert bench.BELTRAMI_GRIDS[1].tolist() == [s.z for s in beltrami_ring(p, f, g, phi)]
