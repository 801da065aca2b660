"""Acceptance suite: the nine headline guarantees of the package, each
verified at its stated tolerance and reported as one visible line.

Runtimes are measured after a one-time warm-up evaluation so that kernel
compilation / cache loading is not billed to the numeric work.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from univalence_lab import (
    DiskGrid,
    ParameterSet,
    SampleCloud,
    argument_principle_check,
    beltrami_grid,
    catalog_build,
    chain_grid,
    criterion_check,
    disk_containment_check,
    example31_closed_form,
    extend_grid,
    extension_constants,
    injectivity_scan,
    operator_grid,
    pde_residual,
    polar_samples,
    transfer_grid,
)
from univalence_lab.chain import _transfer_from_G
from univalence_lab.cli import bundled_configs, parse_config
from univalence_lab.errors import TransferPoleError
from .conftest import random_disk_points


@pytest.fixture(scope="module", autouse=True)
def warmup():
    ident = catalog_build("identity")
    operator_grid(0.5, ParameterSet(), ident)
    chain_grid(0.5, 0.1, ParameterSet(), ident)


def _report(capsys, n, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\nacceptance criterion {n} [{name}]: {status}{suffix}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def test_criterion_1_identity_reduction(capsys, rng, identity):
    zs = random_disk_points(rng, 50, 0.95)
    ts = rng.uniform(0.0, 2.0, 50)
    start = time.perf_counter()
    worst = 0.0
    flagged = False
    for gamma in (1.0, 2 + 1j, 0.5 + 0.8j):
        p = ParameterSet(alpha=1.0, beta=1.0, gamma=gamma, m=1.0, a=1.0)
        for z, t in zip(zs, ts):
            z = complex(z)
            F, _, _, crossing = operator_grid(z, p, identity, identity, identity)
            L, chain_flagged = chain_grid(z, t, p, identity, identity, identity)
            want = cmath.exp(p.m * p.a * t) * z
            worst = max(worst, abs(F - z) / abs(z), abs(L - want) / abs(want))
            flagged |= bool(crossing or chain_flagged)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and not flagged and elapsed < 1.0
    _report(capsys, 1, "identity reduction", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_closed_form_equivalence(capsys, rng, f_quarter, g_half, identity):
    zs = random_disk_points(rng, 100, 0.9)
    start = time.perf_counter()
    worst = 0.0
    for alpha, beta, gamma in ((0.5, 0.5, 1.0), (0.3, 0.2, 1.2 + 0.5j)):
        p = ParameterSet(alpha=alpha, beta=beta, gamma=gamma)
        for z in zs:
            z = complex(z)
            got = complex(operator_grid(z, p, f_quarter, g_half, identity)[0])
            want = example31_closed_form(z, p)
            worst = max(worst, abs(got - want) / abs(z))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(capsys, 2, "closed-form oracle equivalence", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_criterion_reproduction(capsys, f_quarter, g_half, identity, params_ref):
    rep32 = criterion_check("thm32", params_ref, f_quarter, g_half, identity)
    ok32 = rep32.passed and rep32.sup_value <= 1.0 + 1e-9

    # The Koebe-type series is certified for |z| <= 0.99 only; the scan is
    # capped there, where the analytic supremum 4r + 2r^2 -> 6 reaches 5.9202.
    koebe = catalog_build("koebe", {"degree": 4096})
    grid = DiskGrid(radii=(0.5, 0.75, 0.875, 0.9375, 0.96875, 0.984375, 0.99))
    repk = criterion_check("cor32", ParameterSet(gamma=1.0), koebe, grid=grid)
    okk = (
        not repk.passed
        and repk.sup_value > 5.9
        and abs(repk.witness.imag) < 1e-9
        and abs(abs(repk.witness) - grid.radii[-1]) < 1e-9
        and repk.witness.real > 0
    )
    ok = ok32 and okk
    _report(
        capsys,
        3,
        "criterion reproduction",
        ok,
        f"thm32 sup {rep32.sup_value:.4f}, koebe sup {repk.sup_value:.4f} at {repk.witness:.4f}",
    )


def test_criterion_4_transfer_equivalence(capsys, rng):
    checked = 0
    ok = True
    margin = 1e-10
    while checked < 1000:
        G = complex(rng.normal(scale=1.5), rng.normal(scale=1.5))
        m = rng.uniform(0.0, 4.0)
        a = rng.uniform(0.1, 3.0)  # spans a < 1, a = 1 neighborhood, a > 1
        disk_gap = abs(G - (m - 1) / 2) - (m + 1) / 2
        try:
            _, w, _ = _transfer_from_G(G, m, a)
        except TransferPoleError:
            continue
        w_gap = abs(w) - 1.0
        if abs(disk_gap) < margin or abs(w_gap) < margin:
            continue  # too close to the boundary to classify
        checked += 1
        if (w_gap < 0) != (disk_gap < 0):
            ok = False
            break
    _report(capsys, 4, "transfer biconditional", ok, f"{checked} samples classified")


def test_criterion_5_loewner_pde(capsys, f_quarter, g_half, identity, params_ref):
    radii = (0.2, 0.45, 0.65, 0.8, 0.9)
    angles = np.linspace(0.0, 2 * np.pi, 4, endpoint=False)
    zs = [r * cmath.exp(1j * th) for r in radii for th in angles]  # 20 points
    ts = np.linspace(0.01, 2.0, 10)
    worst = max(
        pde_residual(z, t, params_ref, f_quarter, g_half, identity) for z in zs for t in ts
    )
    coeff_ok = True
    h = 1e-6
    for t in (0.5, 1.5):
        L, flagged = chain_grid(h, t, params_ref, f_quarter, g_half, identity)
        coeff = complex(L) / h
        coeff_ok &= not flagged
        want = math.exp(params_ref.m * params_ref.a * t)
        coeff_ok &= abs(coeff - want) <= 1e-4 * want
    ok = worst < 1e-6 and coeff_ok
    _report(capsys, 5, "Loewner PDE residual", ok, f"max residual {worst:.2e}")


def test_criterion_6_extension_constants(capsys):
    ok = all(extension_constants(k, 1.0).l == k for k in (0.0, 0.3, 0.8))
    ok &= abs(extension_constants(0.5, 0.5).l - 5.0 / 7.0) <= 1e-12
    detail = []
    for k in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for a in (0.25, 0.5, 0.75, 1.25, 2.0, 3.0):
            c = extension_constants(k, a)
            contained, slack = disk_containment_check(k, a, c.l)
            if not (
                c.l >= k
                and c.curlyL1 <= c.L1 + 1e-14
                and c.L2 < 0
                and c.curlyL2 < 0
                and contained
            ):
                ok = False
                detail.append(f"(k={k}, a={a})")
    _report(capsys, 6, "extension constants", ok, "; ".join(detail) or "54-point grid clean")


def test_criterion_7_beltrami(capsys, f_quarter, g_half, identity):
    ident_p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=2.0)
    worst_dev = 0.0
    for r in (1.05, 1.2, 1.4, 1.7, 2.0):
        for th in np.linspace(0.0, 2 * np.pi, 4, endpoint=False):  # 20 samples
            mu = beltrami_grid(r * cmath.exp(1j * th), ident_p, identity, identity, identity)
            worst_dev = max(worst_dev, abs(abs(mu) - 1.0 / 3.0))
    ok = worst_dev <= 1e-12

    # bundled thm41 configuration (k = 0.3, a = 1, so l = k)
    spec = parse_config(bundled_configs()["example31_thm41"])
    rep = criterion_check(spec.variant, spec.params, spec.f, spec.g, spec.phi, spec.grid)
    ok &= rep.passed
    ell = extension_constants(spec.params.k, spec.params.a).l
    mu_max = 0.0
    for r in (1.05, 1.3, 1.6, 2.0):
        for th in np.linspace(0.0, 2 * np.pi, 4, endpoint=False):
            mu = beltrami_grid(r * cmath.exp(1j * th), spec.params, spec.f, spec.g, spec.phi)
            mu_max = max(mu_max, abs(mu))
    ok &= mu_max <= ell + 1e-12

    w_max = 0.0
    for r in np.linspace(0.95 / 4, 0.95, 4):
        for th in np.linspace(0.0, 2 * np.pi, 4, endpoint=False):  # 16 z points
            for t in np.linspace(0.0, 3.0, 8):
                _, w, _ = transfer_grid(
                    r * cmath.exp(1j * th), t, spec.params, spec.f, spec.g, spec.phi
                )
                w_max = max(w_max, abs(w))
    ok &= w_max <= spec.params.k + 1e-8
    _report(
        capsys,
        7,
        "Beltrami bounds",
        ok,
        f"identity |mu| dev {worst_dev:.1e}, ring |mu| max {mu_max:.4f} <= l={ell}, |w| max {w_max:.4f}",
    )


def test_criterion_8_oracle_consistency(capsys, rng):
    start = time.perf_counter()
    configs = bundled_configs()
    passing = ("identity", "example31_thm32", "example31_thm41")
    ok = True
    detail = []
    for name in passing:
        spec = parse_config(configs[name])
        rep = criterion_check(spec.variant, spec.params, spec.f, spec.g, spec.phi, spec.grid)
        if not rep.passed:
            ok = False
            detail.append(f"{name}: criterion unexpectedly failed")
            continue
        zs = polar_samples(200, 200, 0.99)
        values, _, _, crossing = operator_grid(zs, spec.params, spec.f, spec.g, spec.phi)
        keep = ~crossing
        cloud = SampleCloud(zs[keep], values[keep], 0.99)
        if injectivity_scan(cloud) is not None:
            ok = False
            detail.append(f"{name}: collision found")
        circle = 0.99 * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 2049))
        curve, _, _, _ = operator_grid(circle, spec.params, spec.f, spec.g, spec.phi)
        curve[-1] = curve[0]
        inner = cloud.values[np.abs(cloud.z) <= 0.495]
        targets = rng.choice(inner, size=50, replace=False)
        if not argument_principle_check(curve, targets):
            ok = False
            detail.append(f"{name}: covering count != 1")

    # the z^2 fixture must trip both oracles
    zs = polar_samples(40, 80, 0.8)
    cloud = SampleCloud(zs, zs**2, 0.8)
    pair = injectivity_scan(cloud)
    sq_curve = (0.8 * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 2049))) ** 2
    sq_curve[-1] = sq_curve[0]
    from univalence_lab import winding_numbers

    if pair is None or winding_numbers(sq_curve, [0.1])[0] != 2:
        ok = False
        detail.append("z^2 fixture did not trip the oracles")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(capsys, 8, "oracle consistency", ok, "; ".join(detail) or f"{elapsed:.1f}s")


def test_criterion_9_seam_continuity(capsys, f_quarter, g_half, identity, params_ref):
    ident_p = ParameterSet(alpha=1.0, beta=1.0, m=1.0, a=1.0)
    cases = (
        (ident_p, identity, identity, identity),
        (params_ref, f_quarter, g_half, identity),
    )
    worst = 0.0
    flagged = False
    for p, f, g, phi in cases:
        for th in np.linspace(0.0, 2 * np.pi, 32, endpoint=False):
            u = cmath.exp(1j * th)
            outer, outer_flagged = extend_grid(1.001 * u, p, f, g, phi)
            inner, inner_flagged = extend_grid(0.999 * u, p, f, g, phi)
            worst = max(worst, abs(outer - inner))
            flagged |= bool(outer_flagged or inner_flagged)
    ok = worst < 1e-2 and not flagged
    _report(capsys, 9, "extension seam continuity", ok, f"max seam jump {worst:.2e}")
