"""Numerical toolkit for Becker-type univalence criteria of an integral
operator, the associated subordination chains, and quasiconformal
extension constants, with independent oracles for every checkable claim."""

from .chain import (
    chain_grid,
    pde_residual,
    subordination_probe,
    transfer_grid,
)
from .criterion import (
    CriterionReport,
    DiskGrid,
    ParameterSet,
    criterion_check,
    criterion_values,
)
from .extension import (
    BeltramiSample,
    ExtensionConstants,
    beltrami_grid,
    beltrami_ring,
    disk_containment_check,
    extend_grid,
    extension_constants,
)
from .operator import (
    example31_closed_form,
    hyp2f1,
    operator_grid,
    principal_power,
)
from .oracle import (
    SampleCloud,
    argument_principle_check,
    injectivity_scan,
    polar_samples,
    winding_numbers,
)
from .series import (
    SeriesFunction,
    catalog_build,
    criterion_bracket,
    eval_many,
    log_derivative,
    nonvanishing_check,
)

__version__ = "0.1.0"

__all__ = [
    "BeltramiSample",
    "CriterionReport",
    "DiskGrid",
    "ExtensionConstants",
    "ParameterSet",
    "SampleCloud",
    "SeriesFunction",
    "argument_principle_check",
    "beltrami_grid",
    "beltrami_ring",
    "catalog_build",
    "chain_grid",
    "criterion_bracket",
    "criterion_check",
    "criterion_values",
    "disk_containment_check",
    "eval_many",
    "example31_closed_form",
    "extend_grid",
    "extension_constants",
    "hyp2f1",
    "injectivity_scan",
    "log_derivative",
    "nonvanishing_check",
    "operator_grid",
    "pde_residual",
    "polar_samples",
    "principal_power",
    "subordination_probe",
    "transfer_grid",
    "winding_numbers",
]
