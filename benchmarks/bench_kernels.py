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
`eval --out` CSV.

A third table times the criterion search of the `verdict` workload's
families: example31 (f = z + z^2/4, g = z + z^2/2, phi = z) and the
degree-32 exponentials f = (e^{lam z} - 1)/lam, g the same at lam/2
(lam = e^{0.3i}), each under the five variants, and the Koebe degree-4096
`koebe_cor32` configuration.  `grid` is one `criterion_values` call on
the default 5120-point disk grid, `probe` one call on the four probes of
a refinement hop, `lookahead` one call on the 80 probes of a look-ahead
over all 20 levels, `probes` the number of probe calls `criterion_check`
makes, and `check` the whole `criterion_check`.  To compare two
checkouts, run the script in each.
"""

import argparse
import os
import tempfile
import timeit
import warnings

import numpy as np

from univalence_lab import DiskGrid, ParameterSet, _kernels, catalog_build, criterion, operator_grid
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

    print(f"\n{'family':>10} {'variant':>7}  {'grid':>9}  {'probe':>9}  {'lookahead':>9}  {'probes':>6}  {'check':>9}")
    for label, variant, p, fgp in _verdict_cases():
        print(f"{label:>10} {variant:>7}  " + _criterion_row(variant, p, *fgp, args.repeat))


def _verdict_cases():
    """(family, variant, parameters, (f, g, phi)) of the verdict searches."""
    ident = catalog_build("identity")
    example31 = (catalog_build("quadratic", {"c": 0.25}), catalog_build("quadratic", {"c": 0.5}), ident)
    lam = np.exp(0.3j)
    expscaled = (
        catalog_build("expscaled", {"lam": lam, "degree": 32}),
        catalog_build("expscaled", {"lam": lam / 2.0, "degree": 32}),
        ident,
    )
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, a=1.0, k=0.3)
    for label, fgp in (("example31", example31), ("expscaled", expscaled)):
        for variant in criterion.VARIANTS:
            yield label, variant, p, fgp
    koebe = parse_config(bundled_configs()["koebe_cor32"])
    yield "koebe4096", koebe.variant, koebe.params, (koebe.f, koebe.g, koebe.phi)


def _criterion_row(variant, p, f, g, phi, repeat):
    """grid ms, probe and look-ahead us, probe calls and criterion_check
    ms of one case."""
    grid = DiskGrid()
    values = criterion.criterion_values
    calls = []

    def counted(*args):
        calls.append(None)
        return values(*args)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        criterion.criterion_values = counted
        try:
            witness = criterion.criterion_check(variant, p, f, g, phi, grid).witness
        finally:
            criterion.criterion_values = values
        probes = witness * np.array([0.99, 1.0, np.exp(0.006j), np.exp(-0.006j)])
        steps = 0.006 / 2.0 ** np.arange(grid.refine_steps)
        ahead = witness * np.stack([1.0 - steps, 1.0 - 2.0 * steps, np.exp(1j * steps), np.exp(-1j * steps)], 1)
        points = grid.points()
        t_grid = _best(lambda: values(variant, points, p, f, g, phi), repeat)
        t_probe = _best(lambda: values(variant, probes, p, f, g, phi), repeat)
        t_ahead = _best(lambda: values(variant, ahead.ravel(), p, f, g, phi), repeat)
        t_check = _best(lambda: criterion.criterion_check(variant, p, f, g, phi, grid), repeat)
    # one call scans the grid, the others are probes
    return (
        f"{t_grid * 1e3:6.2f} ms  {t_probe * 1e6:6.1f} us  {t_ahead * 1e6:6.1f} us  "
        f"{len(calls) - 1:>6}  {t_check * 1e3:6.2f} ms"
    )


if __name__ == "__main__":
    main()
