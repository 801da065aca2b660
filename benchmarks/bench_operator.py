"""Time the operator's integrand kernel and whole `operator_grid` calls.

Run:  PYTHONPATH=src python3 benchmarks/bench_operator.py [--repeat N]

The problem is example31 (f = z + z^2/4, g = z + z^2/2, phi = z,
alpha = beta = 1/2) unless a row says otherwise.

The first table times `operator._integrand_matrix`, which evaluates
h = (f')^alpha (g/phi)^beta on a (nodes, points) matrix of ray points and
tracks its branch down each column.  The shapes are the sizes its callers
ask for: (64, 4096) is a two-panel `operator_grid` chunk, (2048, 64) a
64-panel chain batch and (32, 64) the chain's ray to h(zeta).

The second table times `operator_grid` on the `eval` command's points
(32 radii x 128 angles up to |z| = 0.9) for example31 at gamma = 1 and
for the identity configuration, and on 64 points for example31 at
gamma = 0.5 + 0.5i, which needs 32 panels.

Each row is the best of N repeats of a loop long enough to take at least
0.2 s.  To compare two checkouts, run the script in each.
"""

import argparse
import timeit

import numpy as np

from univalence_lab import ParameterSet, catalog_build
from univalence_lab.operator import _integrand_matrix, operator_grid

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

    cases = (
        ("example31 gamma=1", p, f, g, _polar(32, 128, 0.9)),
        ("identity", ParameterSet(alpha=1.0, beta=1.0), ident, ident, _polar(32, 128, 0.9)),
        ("example31 gamma=0.5+0.5i", ParameterSet(alpha=0.5, beta=0.5, gamma=0.5 + 0.5j), f, g,
         _disk(64, 0.9, rng)),
    )
    print(f"\n{'operator_grid':>26}  {'points':>6}  {'panels':>6}  {'time':>10}")
    for label, params, ff, gg, zs in cases:
        panels = operator_grid(zs, params, ff, gg, ident)[2]
        elapsed = _best(lambda: operator_grid(zs, params, ff, gg, ident), args.repeat)
        print(f"{label:>26}  {zs.size:>6}  {panels:>6}  {elapsed * 1e3:7.2f} ms")


if __name__ == "__main__":
    main()
