"""The batched refinement of `criterion_check` follows the same search path
as one-probe-at-a-time refinement: verdicts and witnesses are pinned to the
values the one-probe search produced."""

import cmath

import numpy as np
import pytest

from univalence_lab import DiskGrid, ParameterSet, catalog_build, criterion_check
from univalence_lab.cli import bundled_configs, parse_config
from univalence_lab.criterion import VARIANTS
from univalence_lab.series import SeriesFunction

# name -> (passed, sup, witness) from the one-probe-at-a-time refinement
GOLDEN = {
    "example31_thm32": (True, 0.27806614328136553, complex(-0.6527037620544434, 7.993315729914097e-17)),
    "example31_thm41": (True, 0.27806614328136553, complex(-0.6527037620544434, 7.993315729914097e-17)),
    "identity": (True, 0.0, complex(0.5, 0.0)),
    "koebe_cor32": (False, 5.920199999999953, complex(0.99, 0.0)),
    "example31/thm31": (True, 0.2682820873226321, complex(-0.6628799438476561, -7.757912568610889e-09)),
    "example31/thm32": (True, 0.2682820873226321, complex(-0.6628799438476561, -7.757912568610889e-09)),
    "example31/cor31": (True, 0.08071557937853611, complex(-0.689070701599121, -8.064431732118858e-09)),
    "example31/cor32": (True, 0.26828208732263203, complex(-0.6628799438476561, -7.757912274233058e-09)),
    "example31/thm41": (True, 0.2682820873226321, complex(-0.6628799438476561, -7.757912568610889e-09)),
    "expscaled/thm31": (True, 0.21838190739773106, complex(0.4778650028618002, -0.3269250077591239)),
    "expscaled/thm32": (True, 0.21838190739773106, complex(0.47786501051403224, -0.32692499657388624)),
    "expscaled/cor31": (True, 0.09416493078029077, complex(-0.48879740864105814, 0.3344043522477964)),
    "expscaled/cor32": (True, 0.3464101615137571, complex(-0.5764740665440365, -0.03179794995074383)),
    "expscaled/thm41": (True, 0.21838190739773106, complex(0.4778650028618002, -0.3269250077591239)),
}


def _family(name):
    """(params, f, g) of the two variant families."""
    if name == "example31":
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.1, m=1.0, k=0.3)
        return p, catalog_build("quadratic", {"c": 0.25}), catalog_build("quadratic", {"c": 0.5})
    lam = 0.9 * cmath.exp(0.6j)
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=1.0, m=1.0, k=0.3)
    f = catalog_build("expscaled", {"lam": lam, "degree": 32})
    g = catalog_build("expscaled", {"lam": lam / 2, "degree": 32})
    return p, f, g


def _report(case):
    if "/" in case:
        family, variant = case.split("/")
        p, f, g = _family(family)
        return criterion_check(variant, p, f, g, catalog_build("identity"), DiskGrid())
    spec = parse_config(bundled_configs()[case])
    return criterion_check(spec.variant, spec.params, spec.f, spec.g, spec.phi, spec.grid)


def test_cases_cover_configs_and_variants():
    families = {f"{fam}/{v}" for fam in ("example31", "expscaled") for v in VARIANTS}
    assert set(GOLDEN) == set(bundled_configs()) | families


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_matches_golden(case):
    passed, sup, witness = GOLDEN[case]
    rep = _report(case)
    assert rep.passed is passed
    assert rep.witness == witness
    assert rep.sup_value == pytest.approx(sup, rel=1e-13, abs=1e-300)


def _one_radius_case(second_zero):
    """(grid, f, the zero of f' that the refinement reports).

    f' vanishes at the second probe of the first hop, radially inside the
    grid maximum.  The second zero, between two grid angles, moves the grid
    maximum to a neighbour whose angular probe lands on it."""
    grid = DiskGrid(radii=(0.5,), angles_per_radius=16, refine_steps=4)
    w = complex(grid.points()[3])
    th, r = cmath.phase(w), abs(w)
    z1 = (r - 0.125) * cmath.exp(1j * th)
    if not second_zero:
        return grid, SeriesFunction([1.0, -1.0 / (2.0 * z1)]), z1
    z2 = r * cmath.exp(1j * (th - np.pi / 16))
    return grid, SeriesFunction([1.0, -(1.0 / z1 + 1.0 / z2) / 2.0, 1.0 / (3.0 * z1 * z2)]), z2


@pytest.mark.parametrize("second_zero", [False, True])
def test_vanishing_probe_fails_as_before(second_zero):
    grid, f, expected = _one_radius_case(second_zero)
    rep = criterion_check("cor32", ParameterSet(gamma=1.0), f, grid=grid)
    assert rep.to_json() == {
        "variant": "cor32",
        "passed": False,
        "sup": float("inf"),
        "bound": 1.0,
        "witness": [expected.real, expected.imag],
        "margin": float("-inf"),
        "grid": grid.to_json(),
        "warnings": [f"f'(z) = 0 at z = {expected}"],
    }


def test_truncation_warning_survives_batching():
    k = catalog_build("koebe", {"degree": 64})
    grid = DiskGrid(radii=(0.5, 0.9, 0.99), angles_per_radius=64, refine_steps=8)
    rep = criterion_check("cor32", ParameterSet(gamma=1.0), k, grid=grid)
    assert not rep.passed
    assert rep.witness == complex(-0.8375, 1.0256416942859083e-16)
    assert "series koebe: tail bound 33.6 exceeds 1e-12 at |z|=0.99" in rep.warnings
    # the refinement probes past the tail tolerance warn too
    assert any("at |z|=0.8" in w for w in rep.warnings)
