"""Time the series kernels `polyval012` and `polyval` across degree and
point count.

Run:  PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N]

Each row is the best of N repeats of a loop long enough to take at least
0.2 s.  The (4096, *) rows are the truncated Koebe series of the
`koebe_cor32` check: one point is a refinement probe, four are one
batched hop, 5120 are the default disk grid.  (32, 5120) is the scan of a
degree-32 exponential series.  The two degree-2 rows are the quadratic
series that the operator and chain paths evaluate one point at a time or
on large grids, where the blocked scheme falls back to plain Horner and
must cost no more.

A second table times the oracle and output kernels.  `collision_scan`
runs on n x n polar clouds (radius 0.99) of the example31_thm32 operator
at the default injectivity tolerance 1e-6 and at 2e-2 of the value
diameter, where each point's real-part window holds many others;
`emit_grid_csv` writes a 4096 x 5 grid, the size of the default
`eval --out` CSV.  To compare two
checkouts, run the script in each.
"""

import argparse
import os
import tempfile
import timeit

import numpy as np

from univalence_lab import _kernels, operator_grid
from univalence_lab.cli import bundled_configs, emit_grid_csv, parse_config
from univalence_lab.oracle import polar_samples

CASES = ((4096, 1), (4096, 4), (4096, 5120), (32, 5120), (2, 1), (2, 100_000))
CLOUDS = (64, 100, 200)
RELATIVE_TOLS = (1e-6, 2e-2)


def _inputs(degree, npts, rng):
    coeffs = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    coeffs[0] = 1.0
    z = 0.99 * np.sqrt(rng.uniform(size=npts)) * np.exp(2j * np.pi * rng.uniform(size=npts))
    return coeffs, z


def _best(fn, repeat):
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}")
    print(f"{'degree':>6} {'points':>7}  {'polyval012':>12}  {'polyval':>12}")
    for degree, npts in CASES:
        coeffs, z = _inputs(degree, npts, rng)
        t012 = _best(lambda: _kernels.polyval012(coeffs, z), args.repeat)
        t1 = _best(lambda: _kernels.polyval(coeffs, z), args.repeat)
        print(f"{degree:>6} {npts:>7}  {t012 * 1e3:9.4f} ms  {t1 * 1e3:9.4f} ms")

    spec = parse_config(bundled_configs()["example31_thm32"])
    print(f"\n{'kernel':>14} {'points':>7} {'tol/diam':>8}  {'time':>12}  result")
    for n in CLOUDS:
        z = polar_samples(n, n, 0.99)
        values = operator_grid(z, spec.params, spec.f, spec.g, spec.phi)[0]
        diam = max(np.ptp(values.real), np.ptp(values.imag))
        for rel in RELATIVE_TOLS:
            t = _best(lambda: _kernels.collision_scan(z, values, rel * diam), args.repeat)
            pair = _kernels.collision_scan(z, values, rel * diam)
            print(f"{'collision_scan':>14} {z.size:>7} {rel:>8.0e}  {t * 1e3:9.4f} ms  {pair}")
    rows = rng.normal(size=(4096, 5))
    rows[:, 4] = rng.uniform(size=4096) < 0.5
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        columns = ("re_z", "im_z", "re_w", "im_w", "flagged")
        t = _best(lambda: emit_grid_csv(rows, columns, path), args.repeat)
    print(f"{'emit_grid_csv':>14} {rows.shape[0]:>7} {'':>8}  {t * 1e3:9.4f} ms")


if __name__ == "__main__":
    main()
