"""Compound-matrix algebra and k-order contraction analysis.

A dynamical system is k-order contractive when the flow shrinks the
hyper-volume of k-parallelotopes at an exponential rate; k = 1 is ordinary
contraction.  This package computes the compound-matrix machinery behind
that notion (multiplicative/additive compounds, wedge products, matrix
measures of compounds), integrates the associated variational and compound
ODEs, and certifies contraction of linear and nonlinear systems from
measure-based sufficient conditions.

``import kcontract`` executes no submodule: each name of ``__all__``, and each
submodule (``kcontract.models``), is imported from ``_HOME`` on first access.
"""

import importlib

__version__ = "0.1.0"

_HOME = {  # submodule: the public names it defines
    "combinatorics": ("Relation", "SubsetRank", "SubsetRelation", "all_subsets",
                      "binomial", "rank", "subset_relation", "unrank"),
    "compound": ("add_compound", "k_content", "minor", "mult_compound", "schwarz_n_minus_1",
                 "transform_add_compound", "wedge"),
    "measures": ("MeasureSpec", "MeasureValue", "Norm", "measure", "measure_k_direct",
                 "measure_k_witness", "measure_witness", "symmetric_eigenvalues",
                 "symmetric_eigh"),
    "spectra": ("CompoundSpectrumReport", "compound_spectrum_check", "eigenvalues"),
    "dynamics": ("BoxDomain", "FloquetResult", "FrameTrajectory", "MatrixTrajectory",
                 "ParallelotopeTrace", "SubspaceReport", "SystemModel", "Trajectory",
                 "asymptotic_subspace", "compound_transition", "floquet", "integrate",
                 "simplex_map", "transition_matrix", "variational_frame", "volume_trace"),
    "certify": ("Certificate", "certify_diagonal", "certify_lti", "certify_nonlinear_grid",
                "certify_row_rule", "certify_scaled_l1", "check_bendixson", "check_gas",
                "control_check"),
    "models": ("ModelEntry", "SeirDiagnostics", "model", "model_names",
               "seir_orbit_diagnostics"),
    "fileio": (),
    "cli": (),
    "errors": (),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}

__all__ = [*_MODULE_OF, "errors"]


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _HOME:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_HOME})
