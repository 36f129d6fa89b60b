"""End-to-end and per-layer metric definitions.

Gated end-to-end times are calibrated (see calib.py): an op's time net of
the calibration handler, times the speed factor measured around it.
`ops_per_s_cal` is the median over the run's passes of the pass's ops per
second, so one input that takes a thousand times the usual iterations
moves one pass, not the run. `rss_mb` is the benchmark process's peak RSS,
about 105 MB, most of it numpy and scipy (the input generator imports
scipy.stats).

Printed but not gated: the raw (uncalibrated) figures, which move by up to
a factor of two between processes on a shared core; `fail_frac`, which is 0
on two workloads (the result line carries `attempted` and `failed`); and
the per-op latency percentiles, whose seed-to-seed spread on `slice` was
13 % (p50) and 16 % (p90) over ten seeds, because Dykstra iteration counts
span two decades there and a run sees about 70 inputs.

Per-layer metrics come from the traced phase and are normalised per op
(`/op` units), so runs that complete different numbers of ops compare.
Self times are in calibrated seconds. A metric whose wrapper target is
missing from the program reads `absent` (JSON null).
"""

from __future__ import annotations

import math

import numpy as np

# name, unit, better; the result line of --trace 0
END_TO_END = (
    ("ops_per_s_cal", "1/s", "higher"),
    ("rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
# a latency percentile is printed only with at least this many ops, so ten
# or more lie beyond the 90th
MIN_OPS_P90 = 100


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: an observed value, never interpolated."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# name, unit, span names the metric needs (op.* spans always exist)
PER_LAYER = (
    ("symmat.psd_clip.calls", "count/op", ("symmat.psd_clip",)),
    ("symmat.psd_clip.self_s", "s/op", ("symmat.psd_clip",)),
    ("symmat.psd_clip.rows_per_call", "rows", ("symmat.psd_clip",)),
    ("symmat.jacobi.calls", "count/op", ("symmat.jacobi",)),
    ("symmat.jacobi.self_s", "s/op", ("symmat.jacobi",)),
    ("cones.make_cone.self_s", "s", ("cones.make_cone",)),
    ("cones.gram_solve.calls", "count/op", ("cones.gram_solve",)),
    ("cones.gram_solve.self_s", "s/op", ("cones.gram_solve",)),
    ("project.cone.calls", "count/op", ("project.cone",)),
    ("project.cone.self_s", "s/op", ("project.cone",)),
    ("project.factor.calls", "count/op", ("project.factor",)),
    ("project.linsolve.calls", "count/op", ("project.linsolve",)),
    ("project.linsolve.self_s", "s/op", ("project.linsolve",)),
    ("project.admm.iters", "count/op", ("project.cone",)),
    ("project.admm.iters_max", "count", ("project.cone",)),
    ("project.admm.us_per_iter", "us", ("project.cone", "project.polish")),
    ("project.polish.attempts", "count/op", ("project.polish",)),
    ("project.polish.accepted", "count/op", ("project.polish",)),
    ("project.polish.accept_ratio", "ratio", ("project.polish",)),
    ("project.polish.self_s", "s/op", ("project.polish", "project.newton")),
    ("project.newton.calls", "count/op", ("project.newton",)),
    ("project.unconverged", "count/op", ("project.cone",)),
    ("project.dykstra.calls", "count/op", ("project.dykstra",)),
    ("project.dykstra.iters", "count/op", ()),
    ("project.dykstra.self_s", "s/op", ("project.dykstra",)),
    ("project.fixedpoint.outer_iters", "count/op", ()),
    ("project.fixedpoint.inner_iters", "count/op", ("project.cone",)),
    ("project.fixedpoint.self_s", "s/op", ()),
    ("probe.residual.calls", "count/op", ("probe.residual",)),
    ("probe.residual.self_s", "s/op", ("probe.residual",)),
    ("probe.cone_solves_per_point", "count", ("probe.residual", "project.cone")),
    ("probe.slope_gap_max", "ratio", ()),
    ("trace.overhead", "ratio", ()),
)


# per-layer metrics where a larger value is the better one
HIGHER_IS_BETTER = frozenset({"symmat.psd_clip.rows_per_call",
                              "project.polish.accept_ratio"})


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(table, kinds, iterations, slope_gaps, overhead) -> dict:
    """Per-layer metric values from the traced phase.

    `kinds` and `iterations` give each traced op's kind and the iteration
    count its own SolveStats reported; `slope_gaps` lists |slope - lambda|
    of the probe ops.
    """
    n_ops = len(kinds)
    kinds = np.array(kinds)
    iterations = np.array(iterations, dtype=float)
    per_op = lambda x: _div(x, n_ops)
    cone = table.mask("project.cone")
    polish = table.mask("project.polish")
    cone_iters = float(table.count[cone].sum())
    dyk_ops = np.isin(kinds, ("dykstra_block", "dykstra_dense"))
    fp_ops = kinds == "fixedpoint"
    admm_s = table.net_duration("project.cone") - table.net_duration("project.polish")
    values = {
        "symmat.psd_clip.calls": per_op(table.calls("symmat.psd_clip")),
        "symmat.psd_clip.self_s": per_op(table.self_time("symmat.psd_clip")),
        "symmat.psd_clip.rows_per_call": _div(
            float(table.count[table.mask("symmat.psd_clip")].sum()),
            table.calls("symmat.psd_clip")),
        "symmat.jacobi.calls": per_op(table.calls("symmat.jacobi")),
        "symmat.jacobi.self_s": per_op(table.self_time("symmat.jacobi")),
        "cones.make_cone.self_s": table.self_time("cones.make_cone"),
        "cones.gram_solve.calls": per_op(table.calls("cones.gram_solve")),
        "cones.gram_solve.self_s": per_op(table.self_time("cones.gram_solve")),
        "project.cone.calls": per_op(table.calls("project.cone")),
        "project.cone.self_s": per_op(table.self_time("project.cone")),
        "project.factor.calls": per_op(table.calls("project.factor")),
        "project.linsolve.calls": per_op(table.calls("project.linsolve")),
        "project.linsolve.self_s": per_op(table.self_time("project.linsolve")),
        "project.admm.iters": per_op(cone_iters),
        "project.admm.iters_max": float(table.count[cone].max()) if cone.any() else 0.0,
        "project.admm.us_per_iter": _div(1e6 * admm_s, cone_iters),
        "project.polish.attempts": per_op(float(polish.sum())),
        "project.polish.accepted": per_op(float(table.count[polish].sum())),
        "project.polish.accept_ratio": _div(float(table.count[polish].sum()),
                                            float(polish.sum())),
        "project.polish.self_s": per_op(table.self_time("project.polish")
                                        + table.self_time("project.newton")),
        "project.newton.calls": per_op(table.calls("project.newton")),
        "project.unconverged": per_op(float((table.flag[cone] == 0).sum())),
        # block Dykstra runs in _dykstra_flat; the dense path's loop is the
        # body of project_slice_dykstra, i.e. the op span itself
        "project.dykstra.calls": per_op(table.calls("project.dykstra")
                                        + table.calls("op.dykstra_dense")),
        "project.dykstra.iters": per_op(float(iterations[dyk_ops].sum())),
        "project.dykstra.self_s": per_op(table.self_time("project.dykstra")
                                         + table.self_time("op.dykstra_dense")),
        "project.fixedpoint.outer_iters": per_op(float(iterations[fp_ops].sum())),
        "project.fixedpoint.inner_iters": per_op(float(
            table.count[table.child_of("project.cone", "op.fixedpoint")].sum())),
        "project.fixedpoint.self_s": per_op(table.self_time("op.fixedpoint")),
        "probe.residual.calls": per_op(table.calls("probe.residual")),
        "probe.residual.self_s": per_op(table.self_time("probe.residual")),
        "probe.cone_solves_per_point": _div(
            float(table.child_of("project.cone", "probe.residual").sum()),
            table.calls("probe.residual")),
        "probe.slope_gap_max": max(slope_gaps, default=0.0),
        "trace.overhead": overhead,
    }
    for name, _, needs in PER_LAYER:
        if any(span not in table.present for span in needs):
            values[name] = None
    return values
