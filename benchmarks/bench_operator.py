"""Time whole `operator_grid` calls and the series plan.

Run:  PYTHONPATH=src python3 benchmarks/bench_operator.py [--repeat N]

The first table times `operator_grid` on the `eval` command's points
(32 radii x 128 angles up to |z| = 0.9).  example31 (f = z + z^2/4,
g = z + z^2/2, phi = z, alpha = beta = 1/2) at gamma = 1, 1e-3 and
0.01 + 1i and the identity configuration are certified on the whole grid
and take the series path.  The last three rows (alpha = 1/2, beta = 0,
gamma = 1) are certified only near 0, so most of their points are
continued step by step along their rays: f = z + 1.5z^2 + 0.75z^3, whose
f' = (1 + 1.5u)^2 vanishes at -2/3 inside the grid, the degree-64 scaled
exponential with lambda = 1, and the degree-512 Koebe series, whose
factor is long enough for the Lagrange remainder of the step
certificate.  The "series" column counts the points on the series path,
"steps" is the largest number of continuation steps of a point and
"flagged" the number of flagged points.

The last row times building the series plan of example31 at gamma = 1
from a cold cache: Miller's recurrence for each factor and the search for
the certified radius.

Each row is the best of N repeats of a loop long enough to take at least
0.2 s.  To compare two checkouts, run the script in each.
"""

import argparse
import timeit

import numpy as np

from univalence_lab import ParameterSet, catalog_build
from univalence_lab.operator import _series_plan, operator_grid
from univalence_lab.oracle import polar_samples
from univalence_lab.series import SeriesFunction


def _best(fn, repeat):
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number


def _operator_row(label, grid, params, f, g, ident, repeat):
    """One row of the operator_grid table."""
    _, _, steps, flagged = operator_grid(grid, params, f, g, ident)
    radius = _series_plan(f, g, ident, params.alpha, params.beta, params.gamma).radius
    series = int(np.sum(np.abs(grid) <= radius))
    elapsed = _best(lambda: operator_grid(grid, params, f, g, ident), repeat)
    return f"{label:>26}  {grid.size:>6}  {series:>6}  {steps:>6}  {int(flagged.sum()):>7}  {elapsed * 1e3:7.2f} ms"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    f = catalog_build("quadratic", {"c": 0.25})
    g = catalog_build("quadratic", {"c": 0.5})
    ident = catalog_build("identity")
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0)
    half = ParameterSet(alpha=0.5)

    print(f"numpy {np.__version__}")
    grid = polar_samples(32, 128, 0.9)
    cases = (
        ("example31 gamma=1", p, f, g),
        ("example31 gamma=1e-3", ParameterSet(alpha=0.5, beta=0.5, gamma=1e-3), f, g),
        ("example31 gamma=0.01+1i", ParameterSet(alpha=0.5, beta=0.5, gamma=0.01 + 1j), f, g),
        ("identity", ParameterSet(alpha=1.0, beta=1.0), ident, ident),
        ("z + 1.5z^2 + 0.75z^3", half, SeriesFunction(np.array([1.0, 1.5, 0.75])), ident),
        ("expscaled lambda=1", half, catalog_build("expscaled", {"lam": 1.0}), ident),
        ("koebe degree 512", half, catalog_build("koebe", {"degree": 512}), ident),
    )
    print(f"{'operator_grid':>26}  {'points':>6}  {'series':>6}  {'steps':>6}  {'flagged':>7}  {'time':>10}")
    for label, params, ff, gg in cases:
        print(_operator_row(label, grid, params, ff, gg, ident, args.repeat))

    def cold_plan():
        _series_plan.cache_clear()
        return _series_plan(f, g, ident, p.alpha, p.beta, p.gamma)

    elapsed = _best(cold_plan, args.repeat)
    print(f"\n{'series plan, cold cache':>26}  {elapsed * 1e3:7.2f} ms")

if __name__ == "__main__":
    main()
