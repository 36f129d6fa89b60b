"""Numerical laboratory for metric projections onto an LMI-representable
cone family and the matching PSD-cone slices, with semismoothness-order
probes along the family's boundary curves."""

from .cones import (ConeModel, ConePoint, curve_step, holder_gap, lmi_adjoint,
                    lmi_apply, make_cone, membership_cone,
                    membership_polar_shadow, normal_curve, polar_curve,
                    read_cone_point, sample_cone, step_normal_inner,
                    write_cone_point)
from .errors import InvalidInputError, NumericFailureError
from .probe import (ProbeReport, fit_exponent, probe_semismoothness,
                    report_to_csv, report_to_json, residual_exact,
                    residual_numeric)
from .project import (SolveStats, SolverConfig, project_cone, project_polar,
                      project_range, project_slice_dykstra,
                      project_slice_fixedpoint)
from .symmat import (BlockSymMatrix, SymMatrix, jacobi_eig, psd_project_block,
                     read_block_matrix, write_block_matrix)

__version__ = "0.1.0"

__all__ = [
    "BlockSymMatrix", "ConeModel", "ConePoint", "InvalidInputError",
    "NumericFailureError", "ProbeReport", "SolveStats", "SolverConfig",
    "SymMatrix", "curve_step", "fit_exponent", "holder_gap", "jacobi_eig",
    "lmi_adjoint", "lmi_apply", "make_cone", "membership_cone",
    "membership_polar_shadow", "normal_curve", "polar_curve",
    "probe_semismoothness", "project_cone", "project_polar",
    "project_range", "project_slice_dykstra", "project_slice_fixedpoint",
    "psd_project_block", "read_block_matrix", "read_cone_point",
    "report_to_csv", "report_to_json", "residual_exact", "residual_numeric",
    "sample_cone", "step_normal_inner", "write_block_matrix",
    "write_cone_point",
]
