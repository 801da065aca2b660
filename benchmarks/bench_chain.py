"""Time `chain_grid`, `transfer_grid` and `beltrami_grid` by point count.

Run:  PYTHONPATH=src python3 benchmarks/bench_chain.py [--repeat N]

The problem is example31 (f = z + z^2/4, g = z + z^2/2, phi = z,
alpha = beta = 1/2, gamma = 1).  The point counts are the sizes the
callers ask for: 1 a single point, 6 the `pde_residual` stencil, 257 the
first `subordination_probe` curve (256 points and the closing one), 640
the default `chain` command grid (8 x 16 points x 5 times) and 4097 the
finest `subordination_probe` curve.  `transfer_grid` runs on 1 point (the
transfer of `pde_residual`), 6 and 640.  `beltrami_grid` runs on the grids
its callers use: 80 points, those of the default `extend` grid with
|z| > 1, and 32 points, the default `beltrami_ring`.  Each row is
the best of N repeats of a loop long enough to take at least 0.2 s.  To
compare two checkouts, run the script in each.
"""

import argparse
import timeit

import numpy as np

from univalence_lab import ParameterSet, catalog_build
from univalence_lab.chain import chain_grid, transfer_grid
from univalence_lab.extension import beltrami_grid
from univalence_lab.series import polar_grid

SIZES = (1, 6, 257, 640, 4097)
TRANSFER_SIZES = (1, 6, 640)


# the outside points of the default `extend` grid, and the default ring
BELTRAMI_GRIDS = (polar_grid(np.linspace(0.5, 2.0, 8)[3:], 16), polar_grid((1.05, 1.3, 1.6, 2.0), 8))


def _problem():
    f = catalog_build("quadratic", {"c": 0.25})
    g = catalog_build("quadratic", {"c": 0.5})
    phi = catalog_build("identity")
    return ParameterSet(alpha=0.5, beta=0.5, gamma=1.0), f, g, phi


def _points(n, rng):
    z = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    t = rng.uniform(0.0, 1.0, size=n)
    return z, t


def _best(fn, repeat):
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number


def _chain_row(z, t, problem, repeat, grid=chain_grid):
    p, f, g, phi = problem
    elapsed = _best(lambda: grid(z, t, p, f, g, phi), repeat)
    return f"{z.size:>6}  {elapsed * 1e3:9.3f} ms  {elapsed / z.size * 1e6:9.3f} us"


def _beltrami_row(z, problem, repeat):
    p, f, g, phi = problem
    elapsed = _best(lambda: beltrami_grid(z, p, f, g, phi), repeat)
    return f"{z.size:>6}  {elapsed * 1e3:10.3f} ms  {elapsed / z.size * 1e6:8.3f} us"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    problem = _problem()
    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}")
    print(f"{'points':>6}  {'chain_grid':>12}  {'per point':>12}")
    for n in SIZES:
        print(_chain_row(*_points(n, rng), problem, args.repeat))
    print(f"{'points':>6}  {'transfer_grid':>12}  {'per point':>12}")
    for n in TRANSFER_SIZES:
        print(_chain_row(*_points(n, rng), problem, args.repeat, transfer_grid))
    print(f"{'points':>6}  {'beltrami_grid':>13}  {'per point':>11}")
    for z in BELTRAMI_GRIDS:
        print(_beltrami_row(z, problem, args.repeat))


if __name__ == "__main__":
    main()
