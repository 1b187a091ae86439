"""Compound-matrix algebra and k-order contraction analysis.

A dynamical system is k-order contractive when the flow shrinks the
hyper-volume of k-parallelotopes at an exponential rate; k = 1 is ordinary
contraction.  This package computes the compound-matrix machinery behind
that notion (multiplicative/additive compounds, wedge products, matrix
measures of compounds), integrates the associated variational and compound
ODEs, and certifies contraction of linear and nonlinear systems from
measure-based sufficient conditions.
"""

from .combinatorics import (
    Relation,
    SubsetRank,
    SubsetRelation,
    all_subsets,
    binomial,
    rank,
    subset_relation,
    unrank,
)
from .compound import (
    add_compound,
    k_content,
    minor,
    mult_compound,
    schwarz_n_minus_1,
    transform_add_compound,
    wedge,
)
from .measures import (
    MeasureSpec,
    MeasureValue,
    Norm,
    measure,
    measure_k_direct,
    measure_k_witness,
    measure_witness,
    symmetric_eigenvalues,
    symmetric_eigh,
)
from .spectra import CompoundSpectrumReport, compound_spectrum_check, eigenvalues
from .dynamics import (
    BoxDomain,
    FloquetResult,
    FrameTrajectory,
    MatrixTrajectory,
    ParallelotopeTrace,
    SubspaceReport,
    SystemModel,
    Trajectory,
    asymptotic_subspace,
    compound_transition,
    floquet,
    integrate,
    simplex_map,
    transition_matrix,
    variational_frame,
    volume_trace,
)
from .certify import (
    Certificate,
    certify_diagonal,
    certify_lti,
    certify_nonlinear_grid,
    certify_row_rule,
    certify_scaled_l1,
    check_bendixson,
    check_gas,
    control_check,
)
from .models import ModelEntry, SeirDiagnostics, model, model_names, seir_orbit_diagnostics
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Relation", "SubsetRank", "SubsetRelation", "all_subsets",
    "binomial", "rank", "subset_relation", "unrank",
    "add_compound", "k_content", "minor", "mult_compound", "schwarz_n_minus_1",
    "transform_add_compound", "wedge",
    "MeasureSpec", "MeasureValue", "Norm", "measure", "measure_k_direct",
    "measure_k_witness", "measure_witness", "symmetric_eigenvalues", "symmetric_eigh",
    "CompoundSpectrumReport", "compound_spectrum_check", "eigenvalues",
    "BoxDomain", "FloquetResult", "FrameTrajectory", "MatrixTrajectory",
    "ParallelotopeTrace", "SubspaceReport", "SystemModel", "Trajectory",
    "asymptotic_subspace", "compound_transition", "floquet", "integrate",
    "simplex_map", "transition_matrix", "variational_frame", "volume_trace",
    "Certificate", "certify_diagonal", "certify_lti", "certify_nonlinear_grid",
    "certify_row_rule", "certify_scaled_l1", "check_bendixson", "check_gas",
    "control_check",
    "ModelEntry", "SeirDiagnostics", "model", "model_names", "seir_orbit_diagnostics",
    "errors",
]
