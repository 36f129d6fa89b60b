"""Tour of the cone family's geometry.

Walks through the objects everything else is built from: the conjugate
exponents, the LMI block form and its adjoint, membership tests, the
boundary curve of the polar cone with its normal generators, and the
Hoelder gap that powers the normal-cone characterization.
"""

import numpy as np

from sliceproj import (ConePoint, curve_step, holder_gap, lmi_adjoint,
                       lmi_apply, make_cone, membership_cone,
                       membership_polar_shadow, normal_curve, polar_curve,
                       step_normal_inner)

print("=" * 70)
print("1. Conjugate exponents: kappa = 2^n doubles, lambda -> 1")
print("=" * 70)
for n in range(2, 7):
    model = make_cone(n)
    print(f"  n={n}: kappa={model.kappa:6.0f}  lambda={model.lam:.6f}  "
          f"1/kappa + 1/lambda = {1 / model.kappa + 1 / model.lam:.15f}")

model = make_cone(2)

print()
print("=" * 70)
print("2. The LMI form: a point is in the cone iff its block image is PSD")
print("=" * 70)
p = ConePoint.from_parts(2, x1=0.3, x2=0.2, x3=1.0, y=[0.5], z=[0.4])
image = lmi_apply(model, p)
inside, worst = membership_cone(model, p)
print(f"  point {p.coords}")
for k, (a, b, c) in enumerate(image.blocks.tolist()):
    print(f"  block {k}: {[[a, b], [b, c]]}")
print(f"  membership: {inside} (worst constraint violation {worst:+.3f})")

# the adjoint is the transpose under the trace inner product
mat = image
lhs = lmi_apply(model, p).inner(mat)
rhs = float(p.coords @ lmi_adjoint(model, mat).coords)
print(f"  adjoint identity <Ap, M> = <p, A*M>: {lhs:.12f} = {rhs:.12f}")

print()
print("=" * 70)
print("3. The boundary curve of the polar cone and its normal generators")
print("=" * 70)
print("  v(t) head sits on the unit lambda-sphere; w(t) is orthogonal to")
print("  v(t), lies in the cone, and spans the entire normal ray there.")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    v = polar_curve(model, t)
    w = normal_curve(model, t)
    in_cone, _ = membership_cone(model, w, tol=1e-10)
    in_shadow = membership_polar_shadow((v.x1, v.x2, v.x3), model)
    print(f"  t={t:4.2f}  <v,w> = {float(v.coords @ w.coords):+.2e}   "
          f"w in cone: {in_cone}   v head in polar shadow: {in_shadow}")

print()
print("=" * 70)
print("4. The curve step and its normal component (closed form)")
print("=" * 70)
print("  <v(t)-v(0), w(t)> = 1 - (1 - t^lambda)^(1/kappa) ~ t^lambda/kappa")
for t in (1e-4, 1e-2, 0.5):
    h = curve_step(model, t)
    closed = step_normal_inner(model, t)
    direct = float(h.coords @ normal_curve(model, t).coords)
    print(f"  t={t:8.1e}  closed={closed:.6e}  direct={direct:.6e}  "
          f"t^lambda/kappa={t ** model.lam / model.kappa:.6e}")

print()
print("=" * 70)
print("5. Hoelder gap: zero exactly on proportional pairs")
print("=" * 70)
rng = np.random.default_rng(0)
x = rng.uniform(0.5, 2.0, 4)
y = rng.uniform(0.5, 2.0, 4)
p_exp = 4.0 / 3.0
q_exp = p_exp / (p_exp - 1.0)
print(f"  random pair:       gap = {holder_gap(x, y, p_exp):.6f}")
x_prop = (1.7 * np.abs(y) ** q_exp) ** (1.0 / p_exp)
print(f"  proportional pair: gap = {holder_gap(x_prop, y, p_exp):.2e}")
