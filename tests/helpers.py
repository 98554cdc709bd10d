"""Shared test oracles, kept independent of the code paths they check."""

import dataclasses
import itertools

import numpy as np
from hypothesis import strategies as st

from cabinetkit import CabinetModel, OrientedBox, SynthSpec, generate, make_instance
from cabinetkit.geometry import CLIP_EPS, _clip_iou, box_footprint, merge_segments, view_axes


def awkward_text(min_size: int = 0):
    """Text that must survive emission and parsing unchanged.

    It is drawn from the characters that carry meaning in the YAML subset,
    plus line breaks, or it is a word that would be written plain but for
    its trailing line break.
    """
    return st.text(",[]#:'\"\\- \n\tabM1", min_size=min_size, max_size=10) | st.from_regex(
        r"[A-Za-z][A-Za-z0-9 .-]{0,8}\n", fullmatch=True
    )


def brute_force_best_total(iou: np.ndarray) -> float:
    """Best total IoU over all assignments, by explicit permutation search."""
    n, m = iou.shape
    if n <= m:
        return max(
            sum(iou[i, perm[i]] for i in range(n))
            for perm in itertools.permutations(range(m), n)
        )
    return max(
        sum(iou[perm[j], j] for j in range(m))
        for perm in itertools.permutations(range(n), m)
    )


def aabb_iou_oracle(a: OrientedBox, b: OrientedBox) -> float:
    """Plain axis-aligned IoU from the box fields (valid for 90-degree grids)."""

    def bounds(box):
        quarter = int(box.rotation_deg // 90.0) % 4
        sx, sy, sz = box.size
        if quarter % 2 == 1:
            sx, sy = sy, sx
        lo = np.array(box.position) - np.array((sx, sy, sz)) / 2.0
        hi = np.array(box.position) + np.array((sx, sy, sz)) / 2.0
        return lo, hi

    lo_a, hi_a = bounds(a)
    lo_b, hi_b = bounds(b)
    overlap = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    if np.any(overlap <= 0):
        return 0.0
    inter = float(np.prod(overlap))
    va = float(np.prod(hi_a - lo_a))
    vb = float(np.prod(hi_b - lo_b))
    return inter / (va + vb - inter)


def clip_iou(a: OrientedBox, b: OrientedBox) -> float:
    """IoU as footprint clipping times z overlap, with no prefilter.

    This is the route `pairwise_iou` takes for pairs with a box that is not
    at a right angle, kept whole so that the prefilter can be checked against it.
    """
    return _clip_iou(a, box_footprint(a), b, box_footprint(b))


def box_corners(box: OrientedBox) -> np.ndarray:
    """The 8 world-frame corners, shape (8, 3): the bottom footprint, then the top."""
    z0, z1 = box.z_interval
    return np.array([(x, y, z) for z in (z0, z1) for x, y in box_footprint(box)])


_BOX_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),  # bottom ring
    (4, 5), (5, 6), (6, 7), (7, 4),  # top ring
    (0, 4), (1, 5), (2, 6), (3, 7),  # verticals
)


def project_box_oracle(box: OrientedBox, view: str):
    """`project_box` by projecting all 12 box edges: the reference."""
    ax_h, ax_v = view_axes(view)
    corners = box_corners(box)
    segments = []
    for i, j in _BOX_EDGES:
        p = (float(corners[i][ax_h]), float(corners[i][ax_v]))
        q = (float(corners[j][ax_h]), float(corners[j][ax_v]))
        if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 > CLIP_EPS * CLIP_EPS:
            segments.append((p, q))
    return merge_segments(segments)


def random_box(rng, *, lo=50.0, hi=2000.0, min_size=30.0, max_size=800.0,
               rotations=(0.0,)) -> OrientedBox:
    position = tuple(rng.uniform(lo, hi, 3))
    size = tuple(rng.uniform(min_size, max_size, 3))
    rotation = float(rng.choice(rotations))
    return OrientedBox(position, size, rotation)


def random_box_model(rng, catalog, n, **kwargs) -> CabinetModel:
    ids = list(catalog.model_ids)
    instances = tuple(
        make_instance(catalog, str(rng.choice(ids)), random_box(rng, **kwargs))
        for _ in range(n)
    )
    return CabinetModel(instances)


def tilted(model: CabinetModel, seed: int) -> CabinetModel:
    """`model` with every box turned about z by 1 to 12 degrees either way."""
    rng = np.random.default_rng([seed, 1])
    instances = []
    for inst in model.instances:
        angle = rng.uniform(1.0, 12.0) * (1.0 if rng.random() < 0.5 else -1.0)
        box = OrientedBox(inst.box.position, inst.box.size, inst.box.rotation_deg + angle)
        instances.append(dataclasses.replace(inst, box=box))
    return CabinetModel(tuple(instances))


def synthesized_models(catalog, seed: int) -> list[CabinetModel]:
    """A default-spec and a 40-48-box model for `seed`, each also tilted."""
    models = []
    for spec in (SynthSpec(seed=seed), SynthSpec(seed=seed, count_range=(40, 48))):
        model = generate(spec, catalog)
        models += [model, tilted(model, seed)]
    return models
