"""Projecting onto the PSD-cone slice two independent ways.

The slice is the intersection of the PSD cone with the range of the LMI
map: exactly the image of the cone. Its projection is derived from the
cone projector: one cone solve in the Gram metric, on the model's
slice_model. Dykstra's alternating projections share nothing with the
cone projector, so they serve as the independent oracle: the two must
land on the same point.
"""

import numpy as np

from sliceproj import (BlockSymMatrix, lmi_apply, make_cone, project_range,
                       project_slice_dykstra, project_slice_fixedpoint,
                       psd_project_block, sample_cone)

model = make_cone(2)
rng = np.random.default_rng(2)

print("=" * 70)
print("1. Slice members are fixed points")
print("=" * 70)
member_image = lmi_apply(model, sample_cone(model, rng))
out, stats = project_slice_dykstra(model, member_image)
print(f"  drift of a slice member under Dykstra: "
      f"{np.linalg.norm(out.blocks - member_image.blocks):.2e} "
      f"({stats.iterations} iterations)")

print()
print("=" * 70)
print("2. Dykstra vs the derived projection on random block matrices")
print("=" * 70)
for trial in range(5):
    X = BlockSymMatrix(2, rng.standard_normal((3, 3)) * 1.5)
    via_dyk, s_dyk = project_slice_dykstra(model, X)
    via_fp, s_fp = project_slice_fixedpoint(model, X)
    gap = np.linalg.norm(via_dyk.blocks - via_fp.blocks)
    print(f"  trial {trial}: agreement {gap:.2e}   "
          f"(dykstra {s_dyk.iterations} it, derived {s_fp.iterations} it, "
          f"{s_fp.exit_reason})")

print()
print("=" * 70)
print("3. The output really lies in both sets")
print("=" * 70)
X = BlockSymMatrix(2, rng.standard_normal((3, 3)) * 2.0)
out, _ = project_slice_dykstra(model, X)
psd_drift = np.linalg.norm(psd_project_block(out).blocks - out.blocks)
range_drift = np.linalg.norm(project_range(model, out).blocks - out.blocks)
print(f"  distance to PSD blocks:   {psd_drift:.2e}")
print(f"  distance to the range:    {range_drift:.2e}")
