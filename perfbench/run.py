"""sliceproj benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cone-scaled,polar-probe,slice}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.

--trace 0 measures the end-to-end metrics with tracing off. Set-up is timed
first, in three fresh interpreters (median reported). Then ops run in whole
passes for about S seconds (at least one pass) while a calibration kernel
is sampled every 50 ms. The result line carries the gated metrics of
metrics.END_TO_END; the report above it also prints raw throughput, the
per-op latency percentiles, fail_frac and the calibration time.

--trace 1 runs the same op list twice from its start, S/2 seconds each:
untraced, then with every layer wrapped. It reports the per-layer metrics
of the traced half and the tracing overhead (traced over untraced
calibrated time on the ops both halves ran), and checks that both halves
produced bitwise-identical outputs and that per-layer self times sum to no
more than the traced wall time. Spans are written to
`perfbench/out/trace-<workload>.npz`.

Output: a human-readable report (every metric with its unit and sample
count, the failures, the machine record), then as the last line one JSON
object with the keys correct, attempted, failed and metrics.

`attempted` and `failed` count the ops of the checked prefix (see
workloads.py), which every run completes; with --trace 1 both halves'
prefixes. An op fails when it raised (an op still running after 30 s is
stopped with OpTimeout), reported itself unconverged, or failed a check.
The report also prints the counts over every op run, and `fail_frac` over
them.
`correct` is false when the benchmark could not vouch for its own figures:
a reference answer failed its check, traced and untraced outputs differ,
or self times exceed the traced wall time. Known program defects show in
`failed`, not in `correct`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import calib
import metrics
from spans import SpanTable, Tracer
from workloads import WORKLOADS, execute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


@dataclass
class Phase:
    kinds: list = field(default_factory=list)
    passes: list = field(default_factory=list)     # pass index per op
    spans: list = field(default_factory=list)      # (start, end) per op
    outcomes: list = field(default_factory=list)
    slope_gaps: list = field(default_factory=list)
    raw_s: object = None                           # per-op net seconds
    cal_s: object = None                           # per-op calibrated seconds
    factors: object = None
    kernel_s: list = field(default_factory=list)
    checked_passes: int = 1

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def checked(self) -> tuple[int, int]:
        """(attempted, failed) over the checked prefix."""
        mine = [o for k, o in zip(self.passes, self.outcomes)
                if k < self.checked_passes]
        return len(mine), sum(o.failed for o in mine)


def measure(workload, sp, models, budget_s, tracer=None) -> Phase:
    """Run the checked prefix, then whole passes until the next pass would
    end past budget_s, checking each group's outputs untimed."""
    phase = Phase(checked_passes=workload.checked_passes(budget_s))
    sampler = calib.Sampler(calib.NumpyKernel(), calib.NUMPY_REF_S,
                            tracer.note_calibration if tracer else None)
    pass_times = []
    with sampler:
        begin = perf_counter()
        for index, one_pass in enumerate(itertools.cycle(workload.passes)):
            start = perf_counter()
            if (index >= phase.checked_passes
                    and start - begin + statistics.fmean(pass_times) > budget_s):
                break
            for group in one_pass:
                results, errors = [], []
                for op in group:
                    if tracer is not None:
                        tracer.current_op = len(phase.kinds)
                    t0 = perf_counter()
                    try:
                        sampler.deadline = t0 + calib.OP_TIMEOUT_S
                        if tracer is None:
                            out = execute(sp, models, op)
                        else:
                            out = tracer.call("op." + op.kind, execute, sp, models, op)
                        err = ""
                    except Exception as exc:  # a failed op; the run goes on
                        out, err = None, f"{type(exc).__name__}: {exc}"
                    finally:
                        sampler.deadline = None
                    t1 = perf_counter()
                    phase.kinds.append(op.kind)
                    phase.passes.append(index)
                    phase.spans.append((t0, t1))
                    results.append(out)
                    errors.append(err)
                outcomes = workload.check(sp, models, group, results)
                for op, out, err, outcome in zip(group, results, errors, outcomes):
                    if err:
                        outcome.reason = err
                    if op.kind == "probe" and out is not None:
                        phase.slope_gaps.append(
                            abs(out.fitted_slope - models[op.n].lam))
                phase.outcomes.extend(outcomes)
            pass_times.append(perf_counter() - start)
    if tracer is not None:
        tracer.current_op = -1
    starts = np.array(sampler.starts)
    kernel = np.array(sampler.kernel_times())
    csum = np.concatenate([[0.0], np.cumsum(kernel)])
    spans = np.array(phase.spans)
    lo = np.searchsorted(starts, spans[:, 0])
    hi = np.searchsorted(starts, spans[:, 1])
    phase.raw_s = spans[:, 1] - spans[:, 0] - (csum[hi] - csum[lo])
    phase.factors = sampler.factors(phase.spans)
    phase.cal_s = phase.raw_s * phase.factors
    phase.kernel_s = list(kernel)
    return phase


def time_setup(workload) -> list:
    """Set-up times (calibrated and raw seconds) of SETUP_REPEATS fresh
    interpreters, run one after another."""
    op = workload.warmup_op()
    spec = {"src": str(SRC), "ns": list(workload.ns),
            "op": {"kind": op.kind, "n": op.n,
                   "data": None if op.data is None else op.data.tolist()}}
    runs = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return runs


def pass_throughput(phase: Phase, seconds) -> float:
    """Median over passes of ops per second within the pass: one input that
    takes a thousand times the usual iterations moves one pass, not the run."""
    passes = np.array(phase.passes)
    return statistics.median(
        float((passes == k).sum() / seconds[passes == k].sum())
        for k in np.unique(passes))


def end_to_end(phase: Phase, setups: list) -> tuple[dict, list]:
    """Gated metrics, and report rows (name, value, unit, samples)."""
    n = len(phase.kinds)
    n_passes = len(set(phase.passes))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = {
        "ops_per_s_cal": pass_throughput(phase, phase.cal_s),
        "rss_mb": rss_mb,
        "setup_s": statistics.median(s["cal_s"] for s in setups),
    }
    rows = [
        ("setup_s", gated["setup_s"], "s", len(setups)),
        ("setup_s_raw", statistics.median(s["raw_s"] for s in setups), "s",
         len(setups)),
        ("ops_per_s", pass_throughput(phase, phase.raw_s), "1/s", n_passes),
        ("ops_per_s_cal", gated["ops_per_s_cal"], "1/s", n_passes),
    ]
    for q in (0.5, 0.9):
        if q == 0.9 and n < metrics.MIN_OPS_P90:
            continue
        for suffix, seconds in (("", phase.raw_s), ("_cal", phase.cal_s)):
            rows.append((f"op_p{round(100 * q)}_ms{suffix}",
                         1e3 * metrics.nearest_rank(seconds, q), "ms", n))
    rows += [
        ("fail_frac", phase.failed / n, "ratio", n),
        ("rss_mb", rss_mb, "MB", 1),
        ("calibration_ms", 1e3 * statistics.median(phase.kernel_s)
         if phase.kernel_s else float("nan"), "ms", len(phase.kernel_s)),
    ]
    return gated, rows


def traced(workload, sp, models, seconds) -> tuple:
    """Untraced half, then traced half; per-layer metrics and report rows."""
    plain = measure(workload, sp, models, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced_models = {n: sp.cones.make_cone(n) for n in workload.ns}
        phase = measure(workload, sp, traced_models, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    common = min(len(plain.kinds), len(phase.kinds))
    identical = all(a.digest == b.digest for a, b in
                    zip(plain.outcomes[:common], phase.outcomes[:common]))
    overhead = float(phase.cal_s[:common].sum() / plain.cal_s[:common].sum() - 1.0)
    table = SpanTable(tracer, phase.factors, float(np.mean(phase.factors)))
    tracer.write(HERE / "out" / f"trace-{workload.name}.npz")
    values = metrics.layer_values(
        table, phase.kinds, [o.iterations for o in phase.outcomes],
        phase.slope_gaps, overhead)
    self_sum = float((table.self_s / table.factor).sum())
    within_wall = self_sum <= table.wall_s
    units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    n = len(phase.kinds)
    rows = [(name, value, units[name], n) for name, value in values.items()]
    rows += [
        ("traced.ops", n, "count", n),
        ("traced.self_sum_s", self_sum, "s", len(table.name)),
        ("traced.wall_s", table.wall_s, "s", 1),
        ("traced.identical_outputs", identical, "bool", common),
        ("untraced.ops_per_s_cal", len(plain.kinds) / plain.cal_s.sum(), "1/s",
         len(plain.kinds)),
        ("traced.ops_per_s_cal", n / phase.cal_s.sum(), "1/s", n),
    ]
    return values, rows, identical and within_wall, (plain, phase)


def print_rows(rows) -> None:
    for name, value, unit, samples in rows:
        shown = "absent" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value))
        print(f"  {name:34s} {shown:>14s} {unit:9s} n={samples}")


def print_failures(phases) -> None:
    counts = {}
    for phase in phases:
        for kind, o in zip(phase.kinds, phase.outcomes):
            if o.failed:
                key = f"{kind}: {o.reason.splitlines()[0][:80]}"
                counts[key] = counts.get(key, 0) + 1
    for key, count in sorted(counts.items()):
        print(f"  failed {count:5d} x {key}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sliceproj" / "__init__.py").is_file():
        print(f"perfbench: no sliceproj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # enough passes for the budget at the fastest op rate seen; runs cycle
    # through them if the program gets faster still
    passes = max(2, int(4 * args.seconds))
    workload = WORKLOADS[args.workload](args.seed, passes)
    setups = [] if args.trace else time_setup(workload)

    import sliceproj as sp
    models = {n: sp.make_cone(n) for n in workload.ns}
    refs_ok = workload.prepare(sp, models)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(calib.machine_record()))
    if args.trace:
        values, rows, trace_ok, phases = traced(workload, sp, models, args.seconds)
        result = {name: {"value": values[name], "unit": unit}
                  for name, unit, _ in metrics.PER_LAYER}
        correct = refs_ok and trace_ok
    else:
        phase = measure(workload, sp, models, args.seconds)
        phases = (phase,)
        gated, rows = end_to_end(phase, setups)
        result = {name: {"value": gated[name], "unit": unit}
                  for name, unit, _ in metrics.END_TO_END}
        correct = refs_ok
    attempted = sum(p.checked()[0] for p in phases)
    failed = sum(p.checked()[1] for p in phases)
    print_rows(rows)
    print_failures(phases)
    print(f"# references_ok={refs_ok} all ops: attempted="
          f"{sum(len(p.kinds) for p in phases)} failed={sum(p.failed for p in phases)}; "
          f"checked prefix ({'+'.join(str(p.checked_passes) for p in phases)} "
          f"passes): attempted={attempted} failed={failed} "
          f"loadavg={calib.machine_record()['loadavg']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
