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
    with mock.patch.object(np, "repeat", wraps=np.repeat) as repeat:
        bench._first_call("thm31", p, f, g, phi, np.full(16, 0.5 + 0.1j), 1)
    assert repeat.call_count == 50  # each timed call built its statement's table
    terms, _, _, cands, fallback = scan.split()
    assert int(terms) == 68 and 0 < int(cands) < 5120 and fallback == "-"


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
    with mock.patch.object(bench, "_best", _once):
        chain = bench._chain_row(*bench._points(6, np.random.default_rng(0)), problem, 1)
        ring = bench._beltrami_row(bench.BELTRAMI_GRIDS[1], problem, 1)
    assert chain.split()[0] == "6" and ring.split()[0] == "32"
    # the second grid is the default ring of beltrami_ring
    p, f, g, phi = problem
    assert bench.BELTRAMI_GRIDS[1].tolist() == [s.z for s in beltrami_ring(p, f, g, phi)]
