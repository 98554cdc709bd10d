"""Pinned IoU matrices; run as a script to re-record them.

`tests/data/iou_pinned.json` holds one record per case: the bytes of
`pairwise_iou(gt, pred)` as hex, so that any change to a score shows up
bit for bit. Ground truth is a synthesized model, default spec or 40-48
boxes, and the prediction is its `synth.perturb` degradation. Each side is
turned as one of the pairs in `TURNS` says, and both sides are scaled by
each of `SCALES`. Last come `helpers.domain_corner_boxes()` against
themselves,
in both orders.

Usage: python3 tests/iou_cases.py --write
Only re-record on a commit whose scores are trusted.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).parent / "data" / "iou_pinned.json"

#: (spec name, seeds): every default-spec seed is cheap; one dense seed is 40-48 boxes.
SPECS = (("default", range(6)), ("dense", range(1)))
#: (ground truth, prediction): "tilted" is 1-12 degrees either way, "any" any
#: angle, "quarter" one to three quarter turns, a number an added angle.
TURNS = (
    ("plain", "plain"),
    ("plain", "tilted"),
    ("tilted", "tilted"),
    ("any", "any"),
    ("quarter", "quarter"),
    ("+1e-12", "-1e-12"),
)
SCALES = (1e-2, 1.0, 1e2)

_PERTURB = dict(pos_sigma_mm=10.0, add_rate=0.1, id_swap_rate=0.1, param_corrupt_rate=0.1)


def _turn(rotation: float, turn: str, rng) -> float:
    if turn == "plain":
        return rotation
    if turn == "tilted":
        return rotation + rng.uniform(1.0, 12.0) * (1.0 if rng.random() < 0.5 else -1.0)
    if turn == "any":
        return rng.uniform(0.0, 360.0)
    if turn == "quarter":
        return rotation + 90.0 * int(rng.integers(1, 4))
    return rotation + float(turn)


def _boxes(model, turn: str, scale: float, rng) -> list:
    from cabinetkit import OrientedBox

    return [
        OrientedBox(
            tuple(c * scale for c in inst.box.position),
            tuple(c * scale for c in inst.box.size),
            _turn(inst.box.rotation_deg, turn, rng),
        )
        for inst in model.instances
    ]


def case_models(catalog) -> list[tuple[str, int, object, object]]:
    """(spec name, seed, ground truth, perturbed prediction) for every pinned model."""
    from cabinetkit import PerturbSpec, SynthSpec, generate, perturb

    out = []
    for name, seeds in SPECS:
        for seed in seeds:
            spec = SynthSpec(seed=seed) if name == "default" else SynthSpec(seed=seed, count_range=(40, 48))
            gt = generate(spec, catalog)
            pred = perturb(gt, PerturbSpec(seed=seed, **_PERTURB), catalog)
            out.append((name, seed, gt, pred))
    return out


def outcomes(catalog) -> list[dict]:
    from cabinetkit.geometry import pairwise_iou
    from helpers import domain_corner_boxes

    records = []
    for name, seed, gt, pred in case_models(catalog):
        for gt_turn, pred_turn in TURNS:
            for scale in SCALES:
                rng = np.random.default_rng(seed)
                iou = pairwise_iou(_boxes(gt, gt_turn, scale, rng), _boxes(pred, pred_turn, scale, rng))
                records.append({
                    "case": f"{name} seed {seed}, {gt_turn}/{pred_turn}, scale {scale:g}",
                    "shape": list(iou.shape),
                    "iou": iou.tobytes().hex(),
                })
    boxes = domain_corner_boxes()
    for order, side in (("forward", boxes), ("reversed", boxes[::-1])):
        iou = pairwise_iou(side, side)
        records.append({"case": f"domain corner boxes, {order}", "shape": list(iou.shape), "iou": iou.tobytes().hex()})
    return records


def dumps(records: list[dict]) -> str:
    """One case per line, so the file diffs case by case."""
    return "[\n" + ",\n".join(json.dumps(record) for record in records) + "\n]\n"


def main_script() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true", help="re-record the fixture")
    args = parser.parse_args()
    if not args.write:
        parser.error("pass --write to re-record the fixture")
    from cabinetkit import builtin_catalog

    records = outcomes(builtin_catalog())
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(dumps(records), encoding="utf-8")
    print(f"wrote {len(records)} cases to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main_script())
