"""Times one set-up in a fresh interpreter and prints it as JSON.

Set-up is `import sliceproj`, `make_cone` for the workload's n set and one
warm-up op. Building the warm-up input (JSON decoding) and importing the
benchmark's own modules are not timed. Usage (from run.py):

    python3 perfbench/setup_child.py '{"src": ..., "ns": [...], "op": {...}}'
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402  (stdlib only at import time)


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    op = spec["op"]
    sampler = calib.Sampler(calib.python_kernel, calib.PYTHON_REF_S)
    with sampler:
        t0 = time.perf_counter()
        import sliceproj as sp
        t1 = time.perf_counter()
        import numpy as np
        import workloads
        data = None if op["data"] is None else np.array(op["data"])
        warmup = workloads.Op(op["kind"], op["n"], data)
        t2 = time.perf_counter()
        models = {n: sp.make_cone(n) for n in spec["ns"]}
        workloads.execute(sp, models, warmup)
        t3 = time.perf_counter()
    intervals = [(t0, t1), (t2, t3)]
    kernel = np.array(sampler.kernel_times())
    starts = np.array(sampler.starts)
    net = [b - a - kernel[(starts >= a) & (starts < b)].sum() for a, b in intervals]
    factors = sampler.factors(intervals)
    print(json.dumps({"raw_s": float(sum(net)),
                      "cal_s": float(np.dot(net, factors)),
                      "samples": len(kernel)}))


if __name__ == "__main__":
    main()
