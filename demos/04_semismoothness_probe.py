"""The headline experiment: the semismoothness order collapses with n.

Along the polar cone's boundary curve, the directional-derivative residual
of the polar projection scales like t^lambda while the step scales like t,
so the projection is at most (lambda - 1)-order semismooth. Since lambda
tends to 1 as n grows, no positive order survives across the whole family.
The probe measures the exponent twice: from the closed-form residual and
from solver-based finite differences that never touch the closed form.
"""

from sliceproj import (make_cone, probe_semismoothness, residual_exact,
                       residual_numeric)

print("=" * 72)
print("Exact mode: fitted slope vs lambda, implied order vs lambda - 1")
print("=" * 72)
print(f"{'n':>3} {'lambda':>10} {'slope':>10} {'implied':>10} "
      f"{'lambda-1':>10} {'gap':>9}")
for n in range(2, 7):
    model = make_cone(n)
    report = probe_semismoothness(model, "exact")
    print(f"{n:>3} {model.lam:>10.6f} {report.fitted_slope:>10.6f} "
          f"{report.implied_order:>10.6f} {model.lam - 1.0:>10.6f} "
          f"{abs(report.fitted_slope - model.lam):>9.2e}")
print()
print("The implied order sinks toward 0: for any target p > 0 some member")
print("of the family breaks p-order semismoothness at desk scale.")

print()
print("=" * 72)
print("Numeric mode (n = 2): solver-measured residuals vs the closed form")
print("=" * 72)
model = make_cone(2)
print(f"{'t':>10} {'exact':>14} {'numeric':>14} {'rel gap':>10}")
for t in (1e-3, 1e-2, 1e-1):
    _, exact_norm = residual_exact(model, t)
    _, numeric_norm = residual_numeric(model, t, fd_step=1e-6)
    rel = abs(numeric_norm - exact_norm) / exact_norm
    print(f"{t:>10.0e} {exact_norm:>14.6e} {numeric_norm:>14.6e} {rel:>10.1e}")

report = probe_semismoothness(model, "numeric")
print(f"\nnumeric-mode fit: slope = {report.fitted_slope:.6f} "
      f"(lambda = {model.lam:.6f})")
print(report.summary_line())
