"""Time the operator's integrand kernel, whole `operator_grid` calls and
the series plan.

Run:  PYTHONPATH=src python3 benchmarks/bench_operator.py [--repeat N]

The problem is example31 (f = z + z^2/4, g = z + z^2/2, phi = z,
alpha = beta = 1/2) unless a row says otherwise.

The first table times `operator._integrand_matrix`, which evaluates
h = (f')^alpha (g/phi)^beta on a (nodes, points) matrix of ray points and
tracks its branch down each column.  The shapes are the sizes the
quadrature fallback asks for: (64, 4096) is a two-panel `operator_grid`
chunk, (2048, 64) a 64-panel chain batch and (32, 64) the chain's ray to
h(zeta).

The second table times `operator_grid` on the `eval` command's points
(32 radii x 128 angles up to |z| = 0.9).  example31 at gamma = 1, 1e-3
and 0.01 + 1i and the identity configuration are certified on the whole
grid and take the series path; f = z + 2z^2 (alpha = 1, beta = 0) is
certified only up to |z| = 0.21, so most of its points fall back to the
quadrature.  The "series" column counts the points on the series path.

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
from univalence_lab.operator import _integrand_matrix, _series_plan, operator_grid
from univalence_lab.series import SeriesFunction

MATRICES = ((64, 4096), (2048, 64), (32, 64))


def _best(fn, repeat):
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number


def _disk(n, r_max, rng):
    return r_max * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def _polar(nr, ntheta, r_max):
    r = np.linspace(r_max / nr, r_max, nr)
    th = np.linspace(0.0, 2.0 * np.pi, ntheta, endpoint=False)
    return (r[:, None] * np.exp(1j * th)[None, :]).ravel()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    f = catalog_build("quadratic", {"c": 0.25})
    g = catalog_build("quadratic", {"c": 0.5})
    ident = catalog_build("identity")
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0)
    rng = np.random.default_rng(0)

    print(f"numpy {np.__version__}")
    print(f"{'_integrand_matrix':>22}  {'time':>10}  {'per node':>9}")
    for nodes, points in MATRICES:
        s = np.sort(rng.uniform(size=nodes))
        u = s[:, None] * _disk(points, 0.9, rng)[None, :]
        elapsed = _best(lambda: _integrand_matrix(p, f, g, ident, u), args.repeat)
        label = f"({nodes}, {points})"
        print(f"{label:>22}  {elapsed * 1e3:7.2f} ms  {elapsed / u.size * 1e9:6.1f} ns")

    grid = _polar(32, 128, 0.9)
    cases = (
        ("example31 gamma=1", p, f, g),
        ("example31 gamma=1e-3", ParameterSet(alpha=0.5, beta=0.5, gamma=1e-3), f, g),
        ("example31 gamma=0.01+1i", ParameterSet(alpha=0.5, beta=0.5, gamma=0.01 + 1j), f, g),
        ("identity", ParameterSet(alpha=1.0, beta=1.0), ident, ident),
        ("f = z + 2z^2 (fallback)", ParameterSet(), SeriesFunction(np.array([1.0, 2.0])), ident),
    )
    print(f"\n{'operator_grid':>26}  {'points':>6}  {'series':>6}  {'panels':>6}  {'time':>10}")
    for label, params, ff, gg in cases:
        panels = operator_grid(grid, params, ff, gg, ident)[2]
        radius = _series_plan(ff, gg, ident, params.alpha, params.beta, params.gamma).radius
        series = int(np.sum(np.abs(grid) <= radius))
        elapsed = _best(lambda: operator_grid(grid, params, ff, gg, ident), args.repeat)
        print(f"{label:>26}  {grid.size:>6}  {series:>6}  {panels:>6}  {elapsed * 1e3:7.2f} ms")

    def cold_plan():
        _series_plan.cache_clear()
        return _series_plan(f, g, ident, p.alpha, p.beta, p.gamma)

    elapsed = _best(cold_plan, args.repeat)
    print(f"\n{'series plan, cold cache':>26}  {elapsed * 1e3:7.2f} ms")

if __name__ == "__main__":
    main()
