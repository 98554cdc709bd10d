"""The oriented-box kernel: footprints, extents, projections, and exact 3D IoU.

Boxes rotate about the vertical axis only, so every volume overlap factors
into a convex 2D footprint intersection times a 1D height overlap. That
makes the IoU exact (no sampling) and cheap.
"""

import numpy as np

from cabinetkit import CabinetModel, OrientedBox, builtin_catalog, iou3d, make_instance, render_views
from cabinetkit.geometry import box_extents, footprints

# A box is its center, its extents, and a rotation about z in degrees.
box = OrientedBox(position=(0, 0, 0), size=(2, 4, 2), rotation_deg=45)

# The xy footprint is a convex CCW quad; rotations that are multiples of
# 90 degrees are snapped exactly, so axis-aligned results stay exact. With
# the z interval it fixes the whole box. `footprints` builds those of any
# number of boxes as one (n, 4, 2) array.
print("footprint of a 45-degree box:", np.round(footprints([box])[0], 3).tolist())
print("z interval:", box.z_interval)

# The world-frame extent (lo, hi) of any number of boxes, as float triples.
[(lo, hi)] = box_extents([box])
print("extent: lo", np.round(lo, 3), "hi", np.round(hi, 3))

# IoU basics: identical boxes score exactly 1, face-tangent boxes score 0.
a = OrientedBox((0, 0, 0), (1, 1, 1))
print("\niou(a, a) =", iou3d(a, a))
print("iou(a, a shifted by 0.5) =", iou3d(a, OrientedBox((0.5, 0, 0), (1, 1, 1))))
print("iou(a, a shifted by 1.0) =", iou3d(a, OrientedBox((1.0, 0, 0), (1, 1, 1))))

# Rotated overlaps go through Sutherland-Hodgman polygon clipping.
b = OrientedBox((0.3, 0.2, 0), (1, 1, 1), rotation_deg=30)
print("iou(a, rotated b) =", round(iou3d(a, b), 6))

# Orthographic projections give the drawing geometry. render_views
# projects a model's boxes into each view and merges the view's segments:
# an axis-aligned box projects to its 4 silhouette segments; a rotated one
# shows interior edges.
catalog = builtin_catalog()
print()
for name, b in (("an axis-aligned box", a), ("the 45-degree box", box)):
    front, top = render_views(CabinetModel((make_instance(catalog, "M-DOOR", b),)), ["front", "top"])
    print(f"{name}: front view {len(front.segments)} segments, top view {len(top.segments)} segments")
