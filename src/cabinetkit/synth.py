"""Seeded cabinet synthesis and corpus statistics.

The generator builds desk-scale assemblies the way the catalog intends:
one base box whose interior is split into N vertical compartments (the
NK* widths plus divider panels), with shelves, drawers, or doors placed
per compartment. Everything is integer-millimeter and bit-reproducible
from the seed, and every generated model passes validation with the
dataset filters enabled.

``perturb`` produces degraded copies with *fixed-count* edits
(``round(rate * n)`` picks, sampled without replacement), so tests can
predict metric outcomes exactly from the rates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .catalog import PrimitiveCatalog, builtin_catalog
from .geometry import MAX_MM, OrientedBox, model_aabb
from .program import MAX_INSTANCES, CabinetModel, PrimitiveInstance, make_instance

# Keep every corner at least this far from the world origin so that decoded
# (quantization-shifted) boxes still sit inside the first octant.
ORIGIN_MARGIN_MM = 3

_MIN_COMPARTMENT_MM = 150


@dataclass(frozen=True)
class PerturbSpec:
    """Independent degradation rates applied by `perturb`."""

    seed: int = 0
    pos_sigma_mm: float = 0.0
    id_swap_rate: float = 0.0
    drop_rate: float = 0.0
    add_rate: float = 0.0
    param_corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("id_swap_rate", "drop_rate", "add_rate", "param_corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if not 0.0 <= self.pos_sigma_mm <= MAX_MM:
            raise ValueError(
                f"pos_sigma_mm must lie in [0, {MAX_MM:g}] mm, got {self.pos_sigma_mm!r}"
            )


@dataclass(frozen=True)
class SynthSpec:
    """Generator configuration; the count range must stay inside the dataset filters."""

    seed: int = 0
    count_range: tuple[int, int] = (1, MAX_INSTANCES)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        lo, hi = self.count_range
        if not 1 <= lo <= hi <= MAX_INSTANCES:
            raise ValueError(f"count_range must lie within [1, {MAX_INSTANCES}]")


def generate(spec: SynthSpec, catalog: PrimitiveCatalog | None = None) -> CabinetModel:
    """Deterministically generate one valid cabinet model from the seed."""
    catalog = catalog or builtin_catalog()
    rng = np.random.default_rng(spec.seed)
    t = int(catalog.divider_thickness_mm)

    width = int(rng.integers(620, 2400 + 1))
    depth = int(rng.integers(260, 640 + 1))
    height = int(rng.integers(560, 2320 + 1))
    m = ORIGIN_MARGIN_MM

    interior_w = width - 2 * t
    interior_h = height - 2 * t
    # base box plus N-1 dividers must already fit under the count cap
    max_n = min(
        6,
        (interior_w + t) // (_MIN_COMPARTMENT_MM + t),
        spec.count_range[1],
    )
    n = int(rng.integers(1, max_n + 1))

    # Integer widths that sum exactly to the interior minus dividers.
    total = interior_w - (n - 1) * t
    extra = rng.multinomial(total - n * _MIN_COMPARTMENT_MM, np.full(n, 1.0 / n))
    widths = [int(_MIN_COMPARTMENT_MM + e) for e in extra]

    nk_keys = ("NKA", "NKB", "NKC", "NKD", "NKE", "NKF")
    params = {"N": n}
    for key, w in zip(nk_keys, widths):
        params[key] = w
    params["DBXX"] = int(rng.choice((1, 2, 3)))

    base = make_instance(
        catalog,
        "M-BB01",
        OrientedBox((m + width / 2, m + depth / 2, m + height / 2), (width, depth, height)),
        params,
    )

    dividers: list[PrimitiveInstance] = []
    compartments: list[tuple[int, int]] = []
    x = m + t
    for i, w in enumerate(widths):
        compartments.append((x, x + w))
        x += w
        if i < n - 1:
            dividers.append(
                make_instance(
                    catalog,
                    "M-SIDE",
                    OrientedBox(
                        (x + t / 2, m + depth / 2, m + height / 2), (t, depth, interior_h)
                    ),
                )
            )
            x += t

    contents: list[PrimitiveInstance] = []
    for x0, x1 in compartments:
        contents.extend(
            _fill_compartment(rng, catalog, (x0, x1), depth, interior_h, t, m)
        )

    max_count = spec.count_range[1]
    fixed = 1 + len(dividers)
    if fixed + len(contents) > max_count:
        contents = contents[: max(0, max_count - fixed)]
    instances = [base, *dividers, *contents]
    if len(instances) < spec.count_range[0]:
        instances.extend(
            _extra_shelves(
                rng, catalog, compartments, depth, interior_h, t, m,
                spec.count_range[0] - len(instances),
            )
        )
    return CabinetModel(tuple(instances))


def _fill_compartment(rng, catalog, x_range, depth, interior_h, t, m) -> list[PrimitiveInstance]:
    x0, x1 = x_range
    w = x1 - x0
    cx = x0 + w / 2
    kind = rng.choice(
        ("empty", "shelves", "drawers", "door", "door_shelves"),
        p=(0.1, 0.3, 0.2, 0.2, 0.2),
    )
    items: list[PrimitiveInstance] = []
    if kind in ("shelves", "door_shelves"):
        count = int(rng.integers(1, 4))
        for j in range(1, count + 1):
            z_bottom = m + t + (interior_h * j) // (count + 1)
            model_id = "M-SHAD" if rng.random() < 0.5 else "M-SHFX"
            items.append(
                make_instance(
                    catalog,
                    model_id,
                    OrientedBox(
                        (cx, m + depth / 2, z_bottom + t / 2), (w, depth - 2 * t, t)
                    ),
                )
            )
    if kind == "drawers":
        count = int(rng.integers(2, 5))
        h = interior_h // count
        for j in range(count):
            items.append(
                make_instance(
                    catalog,
                    "M-DRAW",
                    OrientedBox(
                        (cx, m + (depth - t) / 2, m + t + j * h + h / 2),
                        (w, depth - t, h),
                    ),
                    {"DH": min(400, h)},
                )
            )
    if kind in ("door", "door_shelves"):
        items.append(
            make_instance(
                catalog,
                "M-DOOR",
                OrientedBox((cx, m + t / 2, m + t + interior_h / 2), (w, t, interior_h)),
            )
        )
    return items


def _extra_shelves(rng, catalog, compartments, depth, interior_h, t, m, needed):
    """Top up the instance count with shelves at unused heights."""
    items: list[PrimitiveInstance] = []
    used: set[tuple[int, int]] = set()
    slots = max(4, needed + 2)
    while len(items) < needed:
        slots *= 2
        for j in range(1, slots):
            for ci, (x0, x1) in enumerate(compartments):
                if len(items) >= needed:
                    return items
                z_bottom = m + t + (interior_h * j) // slots
                key = (ci, z_bottom)
                if key in used:
                    continue
                used.add(key)
                w = x1 - x0
                items.append(
                    make_instance(
                        catalog,
                        "M-SHFX",
                        OrientedBox(
                            (x0 + w / 2, m + depth / 2, z_bottom + t / 2),
                            (w, depth - 2 * t, t),
                        ),
                    )
                )
    return items


def perturb(
    model: CabinetModel, spec: PerturbSpec, catalog: PrimitiveCatalog | None = None
) -> CabinetModel:
    """Seeded degradation with fixed-count edits; all-zero rates is identity.

    Each position component of a jittered or added box is clamped to the box
    domain, [-MAX_MM, MAX_MM], which moves only boxes that would leave it.
    """
    catalog = catalog or builtin_catalog()
    rng = np.random.default_rng(spec.seed)
    instances = list(model.instances)
    n = len(instances)

    drop_count = min(round(spec.drop_rate * n), n - 1)
    if drop_count > 0:
        dropped = set(rng.choice(n, size=drop_count, replace=False).tolist())
        instances = [inst for i, inst in enumerate(instances) if i not in dropped]

    swap_count = round(spec.id_swap_rate * len(instances))
    if swap_count > 0:
        ids = list(catalog.model_ids)
        targets = rng.choice(len(instances), size=swap_count, replace=False).tolist()
        for i in sorted(targets):
            current = instances[i]
            others = [mid for mid in ids if mid != current.model_id]
            new_id = str(rng.choice(others))
            schema = catalog.require(new_id)
            instances[i] = make_instance(catalog, new_id, current.box, schema.defaults())

    candidates = [i for i, inst in enumerate(instances) if inst.params]
    corrupt_count = round(spec.param_corrupt_rate * len(candidates))
    if corrupt_count > 0:
        chosen = rng.choice(len(candidates), size=corrupt_count, replace=False).tolist()
        for index in sorted(chosen):
            i = candidates[index]
            instances[i] = _corrupt_one_param(rng, instances[i], catalog)

    if spec.pos_sigma_mm > 0:
        jittered = []
        for inst in instances:
            jitter = rng.normal(0.0, spec.pos_sigma_mm, size=3).tolist()
            position = tuple(min(max(p + d, -MAX_MM), MAX_MM) for p, d in zip(inst.box.position, jitter))
            box = OrientedBox(position, inst.box.size, inst.box.rotation_deg)
            jittered.append(PrimitiveInstance(inst.model_id, box, inst.name, inst.params))
        instances = jittered

    add_count = round(spec.add_rate * n)
    if add_count > 0:
        lo, hi = model_aabb(model)
        for _ in range(add_count):
            model_id = str(rng.choice(list(catalog.model_ids)))
            schema = catalog.require(model_id)
            position = tuple(min(max(rng.uniform(lo[a], hi[a]), -MAX_MM), MAX_MM) for a in range(3))
            size = tuple(float(rng.uniform(50.0, 600.0)) for _ in range(3))
            instances.append(
                make_instance(
                    catalog, model_id, OrientedBox(position, size), schema.defaults()
                )
            )
    return CabinetModel(tuple(instances))


def _corrupt_one_param(rng, instance: PrimitiveInstance, catalog) -> PrimitiveInstance:
    schema = catalog.get(instance.model_id)
    keys = list(instance.params)
    key = keys[int(rng.integers(0, len(keys)))]
    value = instance.params[key]
    param = schema.schema_for(key) if schema is not None else None
    new_value = value
    if param is not None and param.kind == "enumeration":
        members = [mem for mem in param.domain if mem != value]
        if members:
            new_value = members[int(rng.integers(0, len(members)))]
    elif isinstance(value, bool):
        new_value = value
    elif isinstance(value, int):
        new_value = value + 1
        if param is not None and param.domain is not None and new_value > param.domain[1]:
            new_value = int(param.domain[0])
    elif isinstance(value, float):
        new_value = value + 25.0
    else:
        new_value = f"{value}x"
    params = dict(instance.params)
    params[key] = new_value
    return PrimitiveInstance(
        model_id=instance.model_id, box=instance.box, name=instance.name, params=params
    )


@dataclass
class CorpusStats:
    """Order-independent corpus histograms and totals."""

    n_models: int = 0
    primitives_per_cabinet: dict[int, int] = field(default_factory=dict)
    params_per_primitive: dict[int, int] = field(default_factory=dict)
    unique_primitives: int = 0
    total_distinct_parameters: int = 0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n_models": self.n_models,
            "primitives_per_cabinet": {
                str(k): self.primitives_per_cabinet[k]
                for k in sorted(self.primitives_per_cabinet)
            },
            "params_per_primitive": {
                str(k): self.params_per_primitive[k]
                for k in sorted(self.params_per_primitive)
            },
            "unique_primitives": self.unique_primitives,
            "total_distinct_parameters": self.total_distinct_parameters,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def stats(models: Iterable[CabinetModel]) -> CorpusStats:
    """Histogram primitives per cabinet and params per primitive instance."""
    result = CorpusStats()
    ids: set[str] = set()
    distinct_params: set[tuple[str, str]] = set()
    for model in models:
        result.n_models += 1
        count = len(model.instances)
        result.primitives_per_cabinet[count] = (
            result.primitives_per_cabinet.get(count, 0) + 1
        )
        for instance in model.instances:
            ids.add(instance.model_id)
            k = len(instance.params)
            result.params_per_primitive[k] = result.params_per_primitive.get(k, 0) + 1
            for key in instance.params:
                distinct_params.add((instance.model_id, key))
    if result.n_models == 0:
        raise ValueError("stats requires at least one model")
    result.unique_primitives = len(ids)
    result.total_distinct_parameters = len(distinct_params)
    return result
