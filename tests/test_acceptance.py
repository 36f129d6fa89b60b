"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here exactly as stated. The checks shared
with the ``verify`` subcommand live in ``sliceproj.verify``, one copy each;
the criteria run them at full sample counts with fixed seeds.
"""

import time

import numpy as np
import pytest

from sliceproj import (SolverConfig, make_cone, probe_semismoothness,
                       residual_exact, residual_numeric)
from sliceproj.verify import (check_holder, check_kernel, check_moreau,
                              check_normal_ray, check_probe_fit,
                              check_probe_orders, check_slice)

CFG = SolverConfig(tol=1e-9)

MODELS = {n: make_cone(n) for n in range(2, 7)}

TARGET_LAMBDAS = {2: 4.0 / 3.0, 3: 8.0 / 7.0, 4: 16.0 / 15.0,
                  5: 32.0 / 31.0, 6: 64.0 / 63.0}


def _report(num, name, ok, detail):
    # a leading newline, since pytest's progress dots do not end their line
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_exponent_recovery():
    for n, model in MODELS.items():
        assert model.lam == pytest.approx(TARGET_LAMBDAS[n], rel=1e-15)
    start = time.perf_counter()
    ok, detail = check_probe_fit(range(2, 7))
    elapsed = time.perf_counter() - start
    _report(1, "exponent recovery", ok and elapsed < 1.0,
            f"{detail}, runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_order_collapse():
    ok, detail = check_probe_orders(range(2, 7))
    order_6 = probe_semismoothness(MODELS[6], "exact").implied_order
    _report(2, "order collapse", ok and order_6 <= 0.05,
            f"implied_order(n=6) = {order_6:.4f} (<= 0.05), {detail}")


def test_criterion_3_numeric_mode_agreement():
    start = time.perf_counter()
    worst_rel = 0.0
    worst_slope_gap = 0.0
    for n in (2, 3):
        model = MODELS[n]
        for t in (1e-3, 1e-2, 1e-1):
            _, exact_norm = residual_exact(model, t)
            _, numeric_norm = residual_numeric(model, t, CFG, fd_step=1e-6)
            worst_rel = max(worst_rel,
                            abs(numeric_norm - exact_norm) / exact_norm)
        report = probe_semismoothness(model, "numeric", cfg=CFG, fd_step=1e-6)
        worst_slope_gap = max(worst_slope_gap,
                              abs(report.fitted_slope - model.lam))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 0.05 and worst_slope_gap <= 0.05 and elapsed < 120.0
    _report(3, "numeric-mode agreement", ok,
            f"worst relative norm gap {worst_rel:.2e} (tol 5e-2), worst "
            f"slope gap {worst_slope_gap:.4f} (tol 0.05), "
            f"runtime {elapsed:.1f}s (< 120s)")


def test_criterion_4_normal_cone_lemma():
    _report(4, "normal-cone ray as executable fact",
            *check_normal_ray((2, 3, 4)))


def test_criterion_5_moreau_suite():
    rng = np.random.default_rng(2024)
    _report(5, "Moreau suite", *check_moreau(rng, range(2, 6), 200, 20))


def test_criterion_6_slice_cross_validation():
    rng = np.random.default_rng(4096)
    _report(6, "slice projector cross-validation",
            *check_slice(rng, (2, 3), 20, 3))


def test_criterion_7_holder_suite():
    rng = np.random.default_rng(97531)
    _report(7, "Hoelder suite", *check_holder(rng, 1000, 100))


def test_criterion_8_kernel_correctness():
    rng = np.random.default_rng(31337)
    # n in 2..6, up to dim 4n-2 = 22
    _report(8, "kernel correctness", *check_kernel(rng, 100, 6))
