"""Numerical toolkit for Becker-type univalence criteria of an integral
operator, the associated subordination chains, and quasiconformal
extension constants, with independent oracles for every checkable claim."""

from .chain import (
    ChainPoint,
    chain_eval,
    chain_grid,
    chain_point,
    pde_residual,
    subordination_probe,
    transfer_functions,
    transfer_grid,
)
from .criterion import (
    CriterionReport,
    DiskGrid,
    ParameterSet,
    criterion_check,
    criterion_value,
    criterion_values,
)
from .extension import (
    BeltramiSample,
    ExtensionConstants,
    becker_extend,
    beltrami_estimate,
    beltrami_grid,
    beltrami_ring,
    disk_containment_check,
    extend_grid,
    extension_constants,
)
from .operator import (
    OperatorResult,
    example31_closed_form,
    hyp2f1,
    operator_eval,
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
    criterion_terms,
    eval_many,
    eval_with_derivatives,
    log_derivative,
    nonvanishing_check,
)

__version__ = "0.1.0"

__all__ = [
    "BeltramiSample",
    "ChainPoint",
    "CriterionReport",
    "DiskGrid",
    "ExtensionConstants",
    "OperatorResult",
    "ParameterSet",
    "SampleCloud",
    "SeriesFunction",
    "argument_principle_check",
    "becker_extend",
    "beltrami_estimate",
    "beltrami_grid",
    "beltrami_ring",
    "catalog_build",
    "chain_eval",
    "chain_grid",
    "chain_point",
    "criterion_check",
    "criterion_terms",
    "criterion_value",
    "criterion_values",
    "disk_containment_check",
    "eval_many",
    "eval_with_derivatives",
    "example31_closed_form",
    "extend_grid",
    "extension_constants",
    "hyp2f1",
    "injectivity_scan",
    "log_derivative",
    "nonvanishing_check",
    "operator_eval",
    "operator_grid",
    "pde_residual",
    "polar_samples",
    "principal_power",
    "subordination_probe",
    "transfer_functions",
    "transfer_grid",
    "winding_numbers",
]
