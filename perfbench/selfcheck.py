"""The benchmark's own self-check. Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json is well formed and names exactly the metrics, units and
   workloads the code emits.
2. A one-op run of each workload (the first check group at the smallest n;
   for `slice` a group is the three projections of one input), untraced and
   traced, emits every end-to-end and per-layer metric with its unit and
   none absent. Traced and untraced outputs are bitwise identical, and the
   per-layer self times sum to no more than the traced wall time.
3. An op that runs past its deadline fails with OpTimeout and the run
   goes on.
4. run.py prints a well-formed last line in both modes; two runs of
   `cone-scaled` with the same seed report the same `attempted` and
   `failed`; and run.py exits non-zero without a result in a directory
   holding only BENCHMARK.json and perfbench/.

Prints one line per check and exits 0 when all hold. Takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_manifest(bench: dict) -> None:
    import metrics
    from workloads import WHY

    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(bench["run_seconds"], int)
          and 1 <= bench["run_seconds"] <= 60, "run_seconds in 1..60")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    check(all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names)),
          "names well formed and unique")
    check(all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer")
              for m in bench[key]), "units well formed")
    check({w["name"]: w["why"] for w in bench["workloads"]} == WHY,
          "workloads and their reasons match workloads.WHY")
    check([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
          == list(metrics.END_TO_END), "end_to_end matches metrics.END_TO_END")
    check(all(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "end_to_end bounds in (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s present, in s, lower is better, with the largest bound")
    expected = [(name, unit, "higher" if name in metrics.HIGHER_IS_BETTER
                 else "lower") for name, unit, _ in metrics.PER_LAYER]
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == expected, "per_layer matches metrics.PER_LAYER")


def one_op_runs(bench: dict) -> None:
    import run
    from workloads import WORKLOADS

    import sliceproj as sp

    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in bench[key]}
    for name, cls in WORKLOADS.items():
        workload = cls(0, 1)
        prepared = {n: sp.make_cone(n) for n in workload.ns}
        first = min(workload.passes[0], key=lambda group: group[0].n)
        workload.passes = [[first]]
        ok_refs = workload.prepare(sp, prepared)
        phase = run.measure(workload, sp, prepared, 0.0)
        gated, rows = run.end_to_end(phase, run.time_setup(workload))
        values, trace_rows, trace_ok, (plain, traced) = run.traced(
            workload, sp, prepared, 0.0)
        emitted = {row[0]: row[2] for row in rows + trace_rows}
        check(ok_refs, f"{name}: references pass their own checks")
        check(len(phase.kinds) == len(first) and len(traced.kinds) == len(first),
              f"{name}: one-op run ran {len(first)} op(s) per phase")
        check(all(emitted.get(k) == u for k, u in units.items()),
              f"{name}: every named metric emitted with its unit")
        check(all(v is not None for v in values.values()),
              f"{name}: no per-layer metric absent")
        check(all(a.digest == b.digest for a, b in
                  zip(plain.outcomes, traced.outcomes)) and trace_ok,
              f"{name}: traced output bitwise equal to untraced; "
              f"self times within traced wall time")
        if name == "polar-probe":
            check(values["probe.cone_solves_per_point"] == 3.0,
                  f"{name}: 3 cone solves per grid point")


def timeout_run() -> None:
    import calib
    import run
    from workloads import Op, PolarProbe

    import sliceproj as sp

    workload = PolarProbe(0, 1)
    workload.passes = [[[Op("probe", 2)]]]
    limit = calib.OP_TIMEOUT_S
    calib.OP_TIMEOUT_S = 0.2
    try:
        phase = run.measure(workload, sp, {2: sp.make_cone(2)}, 0.0)
    finally:
        calib.OP_TIMEOUT_S = limit
    outcome = phase.outcomes[0]
    check(outcome.failed and outcome.reason.startswith("OpTimeout")
          and phase.raw_s[0] < 1.0,
          "an op past its deadline fails with OpTimeout and the run goes on")


def command_runs(bench: dict) -> None:
    cmd = bench["command"] + ["--workload", "slice", "--seed", "0", "--seconds", "1"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(cmd + ["--trace", trace], cwd=ROOT, text=True,
                              capture_output=True, timeout=180, check=False)
        try:
            last = json.loads(done.stdout.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            last = {}
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v.get("unit") for k, v in last.get("metrics", {}).items()}
        check(done.returncode == 0
              and set(last) == {"correct", "attempted", "failed", "metrics"}
              and last["attempted"] >= 1 and got == wanted,
              f"run.py --trace {trace}: exit 0 and a well-formed result line")
    counts = []
    for _ in range(2):
        done = subprocess.run(
            bench["command"] + ["--workload", "cone-scaled", "--seed", "0",
                                "--seconds", "3", "--trace", "0"],
            cwd=ROOT, text=True, capture_output=True, timeout=180, check=False)
        try:
            last = json.loads(done.stdout.strip().splitlines()[-1])
            counts.append((last["attempted"], last["failed"]))
        except (json.JSONDecodeError, IndexError, KeyError):
            counts.append(None)
    check(counts[0] is not None and counts[0] == counts[1],
          f"cone-scaled: same seed, same attempted and failed {counts}")
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = subprocess.run(cmd + ["--trace", "0"], cwd=bare, text=True,
                          capture_output=True, timeout=180, check=False)
    shutil.rmtree(bare)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          "without the program: non-zero exit and no result")


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_manifest(bench)
    one_op_runs(bench)
    timeout_run()
    command_runs(bench)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
