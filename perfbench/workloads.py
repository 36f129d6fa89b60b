"""Seeded inputs, operations and correctness checks of the three workloads.

Every workload is a closed loop: one process, one thread, the next op
starts when the previous one returns. Inputs are built from `--seed` before
timing starts, as passes. A pass is the smallest balanced slice of the op
list (every `n`, every scale stratum); runs stop only between passes, so
every run measures the same mix. Each pass is a list of groups, and a group
is the ops one correctness check covers.

The first `checked_passes(budget)` passes are the run's checked prefix:
every run completes them, however slow the program, and the result line's
`attempted` and `failed` count only them. So the same seed and budget give
the same counts on every run, while the passes after the prefix, which
fill the rest of the time and vary in number, still add to the timing and
are checked and reported too. `pass_s` is a pass's time at the seed on a
shared 2-core x86-64 VM; it only sizes the prefix.

The program sees only generated arrays and its public API with default
arguments: no `jobs=`, the default `SolverConfig`.

Failures: an op fails when it raises, when it reports itself unconverged,
or when the benchmark's own check rejects its output. The checks never
trust the solver's `converged` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm, qmc

# Kept in BENCHMARK.json's `why` lines too.
WHY = {
    "cone-scaled": "project_cone on N(0,I) directions scaled by 10^U[-12,12], "
                   "n in {2,4,6,8,12}: scale moves work into Newton polish and "
                   "shows the seed's scale defects",
    "polar-probe": "numeric probe_semismoothness, n in {2..6}: apex-degenerate "
                   "solves, 3 cone solves per grid point; n>=7 left out (n=8 "
                   "takes 54 s, n=10/12 raise)",
    "slice": "slice projection of N(0,1) blocks, n in {2,3}, by block Dykstra, "
             "dense (Jacobi) Dykstra and the fixed point: the only Jacobi and "
             "Gram-solve load",
}

CONE_NS = (2, 4, 6, 8, 12)
CONE_STRATA = 8          # scale strata per n in one pass
CONE_DIRECTIONS = 64     # unit-scale reference directions per n
U_RANGE = 12.0
CHECKED_SHARE = 0.4      # of the budget, filled by the checked prefix at the seed
PROBE_NS = (2, 3, 4, 5, 6)
PROBE_GATE = 0.1         # the CLI's numeric-mode gate on |slope - lambda|
SLICE_NS = (2, 3)
SLICE_AGREE = 1e-5       # acceptance criterion 6
SLICE_FEAS = 1e-7        # blockwise PSD and range residual, relative to ||X||


@dataclass
class Op:
    kind: str            # cone | probe | dykstra_block | dykstra_dense | fixedpoint
    n: int
    data: np.ndarray | None = None
    direction: int = -1  # cone: index into the reference directions
    scale: float = 1.0


@dataclass
class Outcome:
    failed: bool
    reason: str
    digest: bytes
    iterations: int


def gaussian_draws(rng, count: int, dim: int) -> np.ndarray:
    """`count` draws of N(0, I_dim) by randomised quasi-Monte Carlo.

    Scrambled Sobol points, seeded by `rng`, go through the normal
    quantile: each draw is exactly N(0, I_dim), and together they cover the
    distribution evenly. Per-input cost is heavy-tailed here (Dykstra
    iterations span two decades at n = 3), and independent draws left the
    run-to-run spread of the latency percentiles at 15-25 %.
    """
    points = qmc.Sobol(dim, scramble=True, rng=rng).random_base2(
        max(1, math.ceil(math.log2(count))))[:count]
    # a coordinate is exactly 0 with probability 2**-30 (Sobol's bit depth)
    return norm.ppf(np.clip(points, 1e-300, None))


def block_min_eigs(blocks: np.ndarray) -> np.ndarray:
    a, b, c = blocks[:, 0], blocks[:, 1], blocks[:, 2]
    return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)


def execute(sp, models, op: Op):
    """The timed part of one op: one public-API call with default arguments."""
    model = models[op.n]
    if op.kind == "cone":
        return sp.project_cone(model, sp.ConePoint(op.n, op.data))
    if op.kind == "probe":
        return sp.probe_semismoothness(model, "numeric")
    X = sp.BlockSymMatrix(op.n, op.data)
    if op.kind == "dykstra_block":
        return sp.project_slice_dykstra(model, X)
    if op.kind == "dykstra_dense":
        return sp.project_slice_dykstra(model, X.to_full())
    if op.kind == "fixedpoint":
        return sp.project_slice_fixedpoint(model, X)
    raise ValueError(f"unknown op kind {op.kind!r}")


class Workload:
    name = ""
    ns: tuple = ()
    pass_s = 1.0

    def __init__(self, seed: int, passes: int):
        self.rng = np.random.default_rng(seed)
        self.passes = [self.make_pass(k) for k in range(passes)]

    def make_pass(self, k: int) -> list:
        """Pass k: a list of groups, each a list of ops."""
        raise NotImplementedError

    def checked_passes(self, budget_s: float) -> int:
        """Length of the checked prefix for a run of budget_s seconds."""
        share = int(CHECKED_SHARE * budget_s / self.pass_s)
        return max(1, min(len(self.passes), share))

    def warmup_op(self) -> Op:
        """The set-up's warm-up op: the first op of the list at the
        smallest n, at unit scale."""
        raise NotImplementedError

    def prepare(self, sp, models) -> bool:
        """Untimed reference answers; False if a reference fails its check."""
        return True

    def check(self, sp, models, group, results) -> list:
        raise NotImplementedError


def _cone_checks(sp, model, q, p, stats):
    """Returns the reason a cone projection p of q is rejected, or ''."""
    if not stats.converged:
        return "unconverged"
    qn = float(np.linalg.norm(q))
    blocks = sp.lmi_apply(model, sp.ConePoint(model.n, p)).blocks
    if block_min_eigs(blocks).min() < -1e-9 * qn:
        return "outside cone"
    if abs(float(p @ (q - p))) > 1e-7 * qn * qn:
        return "not orthogonal"
    gap = qn * qn - float(p @ p) - float((q - p) @ (q - p))
    if abs(gap) > 1e-7 * qn * qn:
        return "pythagoras gap"
    return ""


class ConeScaled(Workload):
    name = "cone-scaled"
    ns = CONE_NS
    pass_s = 0.75

    def __init__(self, seed: int, passes: int):
        rng = np.random.default_rng(seed)
        self.directions = {n: gaussian_draws(rng, CONE_DIRECTIONS, 2 * n + 1)
                           for n in CONE_NS}
        # passes take directions in a seeded rotation, so a run uses the
        # whole pool about equally instead of a random few of it
        self.rotation = {n: rng.permutation(CONE_DIRECTIONS) for n in CONE_NS}
        self.rng = rng
        self.passes = [self.make_pass(k) for k in range(passes)]

    def make_pass(self, k):
        ops = []
        width = 2.0 * U_RANGE / CONE_STRATA
        for n in CONE_NS:
            # one draw of u per stratum, so each pass spans the full range
            for i, stratum in enumerate(self.rng.permutation(CONE_STRATA)):
                u = -U_RANGE + width * (stratum + self.rng.uniform())
                j = int(self.rotation[n][(k * CONE_STRATA + i) % CONE_DIRECTIONS])
                scale = 10.0 ** u
                ops.append(Op("cone", n, scale * self.directions[n][j], j, scale))
        order = self.rng.permutation(len(ops))
        return [[ops[i]] for i in order]

    def warmup_op(self):
        return Op("cone", CONE_NS[0], self.directions[CONE_NS[0]][0], 0, 1.0)

    def prepare(self, sp, models):
        self.refs = {}
        ok = True
        for n in CONE_NS:
            for j, g in enumerate(self.directions[n]):
                pt, stats = sp.project_cone(models[n], sp.ConePoint(n, g))
                self.refs[(n, j)] = pt.coords
                ok &= _cone_checks(sp, models[n], g, pt.coords, stats) == ""
        return ok

    def check(self, sp, models, group, results):
        (op,), (out,) = group, results
        if out is None:
            return [Outcome(True, "raised", b"", 0)]
        p, stats = out[0].coords, out[1]
        reason = _cone_checks(sp, models[op.n], op.data, p, stats)
        if not reason:
            # relative to the direction's norm: near the apex the answer
            # itself is ~0 and any solver tolerance is a large share of it
            ref = self.refs[(op.n, op.direction)]
            g = self.directions[op.n][op.direction]
            if np.linalg.norm(p / op.scale - ref) > 1e-6 * np.linalg.norm(g):
                reason = "differs from unit-scale projection"
        digest = p.tobytes() + stats.iterations.to_bytes(8, "little")
        return [Outcome(bool(reason), reason, digest, stats.iterations)]


class PolarProbe(Workload):
    name = "polar-probe"
    ns = PROBE_NS
    pass_s = 18.0

    def make_pass(self, k):
        # no random arrays: the probe's grid is its default; the seed only
        # orders the n values
        return [[Op("probe", int(n))] for n in self.rng.permutation(PROBE_NS)]

    def warmup_op(self):
        return Op("probe", PROBE_NS[0])

    def check(self, sp, models, group, results):
        (op,), (report,) = group, results
        if report is None:
            return [Outcome(True, "raised", b"", 0)]
        gap = abs(report.fitted_slope - models[op.n].lam)
        reason = "" if gap <= PROBE_GATE else f"slope off by {gap:.3g}"
        digest = report.residual_norms.tobytes()
        return [Outcome(bool(reason), reason, digest, 0)]


class Slice(Workload):
    name = "slice"
    ns = SLICE_NS
    pass_s = 0.55

    def __init__(self, seed: int, passes: int):
        rng = np.random.default_rng(seed)
        self.inputs = {n: gaussian_draws(rng, passes, 3 * (2 * n - 1))
                       .reshape(-1, 2 * n - 1, 3) for n in SLICE_NS}
        self.passes = [self.make_pass(k) for k in range(passes)]

    def make_pass(self, k):
        return [[Op(kind, n, self.inputs[n][k]) for kind in
                 ("dykstra_block", "dykstra_dense", "fixedpoint")]
                for n in SLICE_NS]

    def warmup_op(self):
        return self.passes[0][0][0]

    def check(self, sp, models, group, results):
        n = group[0].n
        W = models[n].lmi_weighted
        xnorm = float(np.linalg.norm(group[0].data))
        outcomes, blocks = [], []
        for op, out in zip(group, results):
            if out is None:
                blocks.append(None)
                outcomes.append(Outcome(True, "raised", b"", 0))
                continue
            mat, stats = out
            if op.kind == "dykstra_dense":
                dense = mat.to_dense()
                digest = dense.tobytes()
                b = sp.BlockSymMatrix.from_full(n, mat).blocks
                off = dense.copy()
                for k in range(2 * n - 1):
                    off[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 0.0
                off_block = float(np.abs(off).max())
            else:
                b = mat.blocks
                digest = b.tobytes()
                off_block = 0.0
            blocks.append(b)
            flat = b.copy()
            flat[:, 1] *= math.sqrt(2.0)
            coeff, *_ = np.linalg.lstsq(W, flat.ravel(), rcond=None)
            range_res = float(np.linalg.norm(W @ coeff - flat.ravel()))
            reason = ""
            if not stats.converged:
                reason = "unconverged"
            elif block_min_eigs(b).min() < -SLICE_FEAS * xnorm:
                reason = "not blockwise PSD"
            elif range_res > SLICE_FEAS * xnorm or off_block > SLICE_FEAS * xnorm:
                reason = "outside the LMI range"
            outcomes.append(Outcome(bool(reason), reason, digest,
                                    stats.iterations))
        done = [b for b in blocks if b is not None]
        spread = max((float(np.linalg.norm(x - y)) for x in done for y in done),
                     default=0.0)
        if spread > SLICE_AGREE:
            for o in outcomes:
                if not o.failed:
                    o.failed, o.reason = True, f"projectors disagree {spread:.2e}"
        return outcomes


WORKLOADS = {w.name: w for w in (ConeScaled, PolarProbe, Slice)}
