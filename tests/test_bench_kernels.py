"""benchmarks/bench_kernels.py keeps working against the criterion
internals it times: one small case of its verdict and grid-scan tables,
each timing loop run once instead of timed."""

import importlib.util
import pathlib
from unittest import mock

import numpy as np

from univalence_lab import DiskGrid, ParameterSet, catalog_build

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _once(fn, repeat):
    fn()
    return 1e-3


def test_criterion_and_scan_rows():
    bench = _bench()
    lam = np.exp(0.3j)
    f = catalog_build("expscaled", {"lam": lam, "degree": 32})
    g = catalog_build("expscaled", {"lam": lam / 2.0, "degree": 32})
    phi = catalog_build("identity")
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, k=0.3)
    with mock.patch.object(bench, "_best", _once):
        row = bench._criterion_row("thm31", p, f, g, phi, 1)
        scan = bench._scan_row("thm31", p, f, g, phi, DiskGrid(), 1)
    assert int(row.split()[6]) > 0  # the probe calls of the check were counted
    terms, _, _, cands, fallback = scan.split()
    assert int(terms) == 68 and 0 < int(cands) < 5120 and fallback == "-"
