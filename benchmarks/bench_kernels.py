"""Time the series kernels `polyval012` and `polyval` across degree and
point count.

Run:  PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N]

Each row is the best of N repeats of a loop long enough to take at least
0.2 s.  `polyval012` times the evaluation of a `SeriesStack` prepared
before the loop, and `prepare` the preparation of one such stack (the
derivative rows of a series of 64 or more coefficients, the coefficient
columns of a shorter one), which each criterion statement, `eval_many`
and `log_derivative` call pays.  The (4096, *) rows are the truncated
Koebe series of the `koebe_cor32` check: one point is a refinement probe, four are one
batched hop, 5120 are the default disk grid.  (32, 5120) is the scan of a
degree-32 exponential series.  The two degree-2 rows are the quadratic
series that the operator and chain paths evaluate one point at a time or
on large grids, where the blocked scheme falls back to plain Horner and
must cost no more.

A second table times one stacked `_horner012` pass, the Horner loop of
`polyval012` on at most `_kernels._STACK_POINTS` points, on the stack of the
expscaled statement of the `verdict` workload (f and g of degree 32, phi =
z, the family below) at 16 points, the most common look-ahead call, 80
points, which the pass splits into two chunks, and 256 points, the most
the pass takes.  The stack and the buffer of each width are prepared
before the loop, as a criterion statement keeps them.

A third table times the oracle and output kernels.  `collision_scan`
runs on n x n polar clouds (radius 0.99) of the example31_thm32 operator
at the default injectivity tolerance 1e-6 and at 2e-2 of the value
diameter, where each point's real-part window holds many others;
`winding_stats` runs at the shape of the `oracle` command: 50 targets, the
images of a 5 x 10 polar grid within |z| <= 0.475, on the closed
2049-point image curve of |z| = 0.95; its result is whether every target
is covered once.  `emit_grid_csv` writes a 4096 x 5 grid, the size of a
32 x 128 `eval --out` CSV.

A fourth table times both paths of `emit_grid_csv`, the one `%` format
operation and the numpy `g17_csv` kernel, at the grid sizes the commands
write: 48 x 7 (identity `chain`), 128 x 6 (`extend`), 640 x 7 (example31
`chain`) and 4096 x 5 (32 x 128 `eval`), on normal random values with a
0/1 flag column, and gives the tracemalloc peak of one call on each
path.  Its crossover sets `cli._CSV_VECTOR_CELLS`.

A fifth table times the criterion search of the `verdict` workload's
families: example31 (f = z + z^2/4, g = z + z^2/2, phi = z) and the
degree-32 exponentials f = (e^{lam z} - 1)/lam, g the same at lam/2
(lam = e^{0.3i}), each under the five variants, and the Koebe degree-4096
`koebe_cor32` configuration.  `grid` is one `criterion._values` call
(the criterion of a statement built once, as `criterion_check` builds
it) on the default 5120-point disk grid, `probe` one call on the four
probes of a refinement hop, `lookahead` one call on the 16 probes of the
first look-ahead call (4 hops, `criterion._FIRST_HOPS`), both without
the disk check, as the search makes them, `first` that call on a freshly
built statement, which pays for whatever the statement prepares on its
first call (the Horner buffer of each width),
`probes` the number of probe calls `criterion_check` makes, `points` the
probe points they evaluate, and `check` the whole `criterion_check`.  To
compare two checkouts, run the script in each.

A sixth table times the grid scan of `criterion_check` on the same cases,
Koebe on its config grid (7 radii x 512 angles): `exact` is one
`criterion._values` call on every grid point, `pruned` the FFT scan with
its cost cutoff off (`criterion._SCAN_MIN_TERMS` = 0), three runs each,
alternating.  `terms` is the number the cutoff reads (the terms of the
series of the statement's stack, summed), `cands` the points the pruned
scan evaluates exactly, and `fallback` the reason the scan as
`criterion_check` runs it evaluates the whole grid instead: "terms" below
the cutoff, "nonfinite" where `criterion._circle_enclosure` gives None,
"-" for none.  Rows for the exponential family at lower
degrees locate the crossover, which sets `criterion._SCAN_MIN_TERMS`.
"""

import argparse
import math
import os
import tempfile
import time
import timeit
import tracemalloc
import warnings

import numpy as np

from univalence_lab import DiskGrid, ParameterSet, _kernels, catalog_build, cli, criterion, operator_grid
from univalence_lab.cli import bundled_configs, emit_grid_csv, parse_config
from univalence_lab.oracle import argument_principle_check, polar_samples
from univalence_lab.series import polar_grid

CASES = ((4096, 1), (4096, 4), (4096, 5120), (32, 5120), (2, 1), (2, 100_000))
CLOUDS = (64, 100, 200)
RELATIVE_TOLS = (1e-6, 2e-2)
CSV_GRIDS = ((48, 7), (128, 6), (640, 7), (4096, 5))
HORNER_POINTS = (16, 80, 256)
WINDING_RADIUS = 0.95


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
    print(f"{'degree':>6} {'points':>7}  {'polyval012':>12}  {'prepare':>12}  {'polyval':>12}")
    for degree, npts in CASES:
        print(_kernel_row(degree, npts, rng, args.repeat))

    print(f"\n{'_horner012':>10} {'points':>7}  {'time':>12}")
    for npts in HORNER_POINTS:
        print(f"{'expscaled':>10} " + _horner_row(npts, rng, args.repeat))

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
    print(_winding_row(spec, args.repeat))
    rows = rng.normal(size=(4096, 5))
    rows[:, 4] = rng.uniform(size=4096) < 0.5
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        columns = ("re_z", "im_z", "re_w", "im_w", "flagged")
        t = _best(lambda: emit_grid_csv(rows, columns, path), args.repeat)
    print(f"{'emit_grid_csv':>14} {rows.shape[0]:>7} {'':>8}  {t * 1e3:9.4f} ms")

    print(f"\n{'csv grid':>10}  {'% path':>12}  {'g17_csv':>12}  {'% peak':>10}  {'g17 peak':>10}")
    for n, c in CSV_GRIDS:
        print(f"{f'{n} x {c}':>10}  " + _csv_row(rng, n, c, args.repeat))

    print(
        f"\n{'family':>10} {'variant':>7}  {'grid':>9}  {'probe':>9}  {'lookahead':>9}  {'first':>9}  {'probes':>6}"
        f"  {'points':>6}  {'check':>9}"
    )
    for label, variant, p, fgp in _verdict_cases():
        print(f"{label:>10} {variant:>7}  " + _criterion_row(variant, p, *fgp, args.repeat))

    print(f"\n{'family':>12} {'variant':>7} {'terms':>5}  {'exact ms':>20}  {'pruned ms':>20}  {'cands':>5}  fallback")
    for label, variant, p, fgp, grid in _scan_cases():
        print(f"{label:>12} {variant:>7}  " + _scan_row(variant, p, *fgp, grid, args.repeat))


def _kernel_row(degree, npts, rng, repeat):
    """ms of polyval012 on a stack prepared once, of preparing the stack
    and of polyval, for a random series of the degree on npts points."""
    coeffs, z = _inputs(degree, npts, rng)
    stack = _kernels.SeriesStack((coeffs,))
    t012 = _best(lambda: _kernels.polyval012(stack, z), repeat)
    t_prep = _best(lambda: _kernels.SeriesStack((coeffs,)), repeat)
    t1 = _best(lambda: _kernels.polyval(coeffs, z), repeat)
    return f"{degree:>6} {npts:>7}  {t012 * 1e3:9.4f} ms  {t_prep * 1e3:9.4f} ms  {t1 * 1e3:9.4f} ms"


def _horner_row(npts, rng, repeat):
    """us of one stacked _horner012 pass on npts points of the disk, on the
    stack of the expscaled thm31 statement, whose buffer for the width is
    built before the loop."""
    _, _, p, fgp = next(case for case in _verdict_cases() if case[0] == "expscaled")
    stack = criterion._statement("thm31", p, *fgp).series[0]
    z = _inputs(1, npts, rng)[1]
    out = np.empty((3, len(stack), npts), dtype=np.complex128)
    _kernels._horner012(stack, z, out)
    t = _best(lambda: _kernels._horner012(stack, z, out), repeat)
    return f"{npts:>7}  {t * 1e6:9.1f} us"


def _winding_row(spec, repeat):
    """ms of one winding_stats call on the image curve of the circle
    |z| = WINDING_RADIUS, closed by its first point, around the images of
    50 points within half that radius, and whether they are covered once."""
    circle = polar_grid([WINDING_RADIUS], 2048)
    curve = operator_grid(np.append(circle, circle[0]), spec.params, spec.f, spec.g, spec.phi)[0]
    targets = operator_grid(polar_samples(5, 10, 0.5 * WINDING_RADIUS), spec.params, spec.f, spec.g, spec.phi)[0]
    t = _best(lambda: _kernels.winding_stats(curve, targets), repeat)
    once = argument_principle_check(curve, targets)
    return f"{'winding_stats':>14} {curve.size:>7} {'':>8}  {t * 1e3:9.4f} ms  {targets.size} targets covered once: {once}"


def _csv_row(rng, n, c, repeat):
    """ms and tracemalloc peak KiB of emit_grid_csv on an n x c grid, with
    the cutoff set to take the `%` path, then the g17_csv one."""
    rows = rng.normal(size=(n, c))
    rows[:, -1] = rng.uniform(size=n) < 0.5
    columns = tuple(f"c{j}" for j in range(c))
    saved = cli._CSV_VECTOR_CELLS
    times, peaks = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        try:
            for cutoff in (rows.size + 1, 0):  # the `%` path, then g17_csv
                cli._CSV_VECTOR_CELLS = cutoff
                times.append(_best(lambda: emit_grid_csv(rows, columns, path), repeat))
                tracemalloc.start()
                emit_grid_csv(rows, columns, path)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        finally:
            cli._CSV_VECTOR_CELLS = saved
    return f"{times[0] * 1e3:9.4f} ms  {times[1] * 1e3:9.4f} ms  {peaks[0] / 1024:6.0f} KiB  {peaks[1] / 1024:6.0f} KiB"


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


def _scan_cases():
    """(family, variant, parameters, (f, g, phi), grid) of the grid scan
    table: the verdict families on the default grid, Koebe on its config
    grid, and the exponential family at degrees 8, 16 and 24."""
    for label, variant, p, fgp in _verdict_cases():
        if label == "koebe4096":
            yield label, variant, p, fgp, parse_config(bundled_configs()["koebe_cor32"]).grid
        else:
            yield label, variant, p, fgp, DiskGrid()
    lam = np.exp(0.3j)
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, a=1.0, k=0.3)
    for degree in (8, 16, 24):
        f = catalog_build("expscaled", {"lam": lam, "degree": degree})
        g = catalog_build("expscaled", {"lam": lam / 2.0, "degree": degree})
        for variant in ("thm31", "cor31", "cor32"):
            yield f"expscaled{degree}", variant, p, (f, g, catalog_build("identity")), DiskGrid()


def _scan_row(variant, p, f, g, phi, grid, repeat):
    """exact and pruned ms of the grid scan, three runs each, the terms the
    cutoff reads, the candidate count and the fallback."""
    z = grid.points()
    st = criterion._statement(variant, p, f, g, phi)
    terms = st.series[0].terms
    times = {"exact": [], "pruned": []}
    saved, values = criterion._SCAN_MIN_TERMS, criterion._values
    evaluated = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for _ in range(3):
                for side, cutoff in (("exact", math.inf), ("pruned", 0)):
                    criterion._SCAN_MIN_TERMS = cutoff
                    times[side].append(_best(lambda: criterion._grid_max(st, grid, z), repeat))
            criterion._values = lambda st, z: evaluated.append(z.size) or values(st, z)
            criterion._grid_max(st, grid, z)
        finally:
            criterion._SCAN_MIN_TERMS, criterion._values = saved, values
        enclosure = criterion._circle_enclosure(st, grid.radii, z)
    ms = {side: "/".join(f"{t * 1e3:.2f}" for t in ts) for side, ts in times.items()}
    cands = "-" if enclosure is None else evaluated[0]
    fallback = "terms" if terms < saved else "nonfinite" if enclosure is None else "-"
    return f"{terms:>5}  {ms['exact']:>20}  {ms['pruned']:>20}  {cands:>5}  {fallback}"


def _first_call(variant, p, f, g, phi, z, repeat):
    """Seconds of the first criterion._values call at z on a statement
    built just before it, the best of `repeat` batches of 50 statements."""
    best = math.inf
    for _ in range(repeat):
        statements = [criterion._statement(variant, p, f, g, phi) for _ in range(50)]
        start = time.perf_counter()
        for st in statements:
            criterion._values(st, z, check_disk=False)
        best = min(best, (time.perf_counter() - start) / len(statements))
    return best


def _criterion_row(variant, p, f, g, phi, repeat):
    """grid ms, probe, look-ahead and first look-ahead us, probe calls,
    probe points and criterion_check ms of one case."""
    grid = DiskGrid()
    st = criterion._statement(variant, p, f, g, phi)
    values = criterion._values
    calls = []

    def counted(st, z, **kwargs):
        calls.append(z.size)
        return values(st, z, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        criterion._values = counted
        try:
            witness = criterion.criterion_check(variant, p, f, g, phi, grid).witness
        finally:
            criterion._values = values
        probes = witness * np.array([0.99, 1.0, np.exp(0.006j), np.exp(-0.006j)])
        steps = 0.006 / 2.0 ** np.arange(criterion._FIRST_HOPS)
        ahead = witness * np.stack([1.0 - steps, 1.0 - 2.0 * steps, np.exp(1j * steps), np.exp(-1j * steps)], 1)
        points = grid.points()
        t_grid = _best(lambda: values(st, points), repeat)
        t_probe = _best(lambda: values(st, probes, check_disk=False), repeat)
        t_ahead = _best(lambda: values(st, ahead.ravel(), check_disk=False), repeat)
        t_first = _first_call(variant, p, f, g, phi, ahead.ravel(), repeat)
        t_check = _best(lambda: criterion.criterion_check(variant, p, f, g, phi, grid), repeat)
    # one call scans the grid, the others are probes
    return (
        f"{t_grid * 1e3:6.2f} ms  {t_probe * 1e6:6.1f} us  {t_ahead * 1e6:6.1f} us  {t_first * 1e6:6.1f} us  "
        f"{len(calls) - 1:>6}  {sum(calls[1:]):>6}  {t_check * 1e3:6.2f} ms"
    )


if __name__ == "__main__":
    main()
