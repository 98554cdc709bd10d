"""Pinned drawings; run as a script to re-record them.

`tests/data/drawing_pinned.json` holds one record per case: the SHA-256 of
the `to_svg` text of a synthesized model's drawing (`render_views`, then
`annotate`, then optionally `inject_noise`, then `layout_sheet`), so that
any change to a drawn byte shows up. The cases are:

* default-spec seeds 0-199, drawn front, top and side, both plain and with
  `NOISE` at noise seed = model seed;
* 40-48-box seeds 0-19, drawn front, top, side and section, with every box
  turned by one to three quarter turns, and tilted by 1 to 12 degrees
  either way (`helpers.tilted`).

Usage: python3 tests/drawing_cases.py --write
Only re-record on a commit whose drawings are trusted.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).parent / "data" / "drawing_pinned.json"

DEFAULT_SEEDS = range(200)
DENSE_SEEDS = range(20)
VIEWS = ["front", "top", "side"]
DENSE_VIEWS = ["front", "top", "side", "section"]
NOISE = dict(p_drop=0.05, jitter_sigma=0.5, p_spurious=0.05)


def quartered(model, seed: int):
    """`model` with every box turned about z by one to three quarter turns."""
    from cabinetkit import CabinetModel, OrientedBox

    rng = np.random.default_rng([seed, 2])
    instances = []
    for inst in model.instances:
        turn = 90.0 * int(rng.integers(1, 4))
        box = OrientedBox(inst.box.position, inst.box.size, inst.box.rotation_deg + turn)
        instances.append(dataclasses.replace(inst, box=box))
    return CabinetModel(tuple(instances))


def draw(model, views: list[str], catalog, noise=None, seed: int = 0) -> str:
    """The SVG text of `model` drawn in `views`, degraded by `noise` at `seed` if given."""
    from cabinetkit import drawing

    drawn = drawing.annotate(drawing.render_views(model, views), model, catalog)
    if noise is not None:
        drawn = drawing.inject_noise(drawn, noise, seed)
    return drawing.to_svg(drawing.layout_sheet(drawn))


def outcomes(catalog) -> list[dict]:
    from cabinetkit import NoiseSpec, SynthSpec, generate
    from helpers import tilted

    noise = NoiseSpec(**NOISE)
    cases = []
    for seed in DEFAULT_SEEDS:
        model = generate(SynthSpec(seed=seed), catalog)
        cases.append((f"default seed {seed}, plain", draw(model, VIEWS, catalog)))
        cases.append((f"default seed {seed}, noisy", draw(model, VIEWS, catalog, noise, seed)))
    for seed in DENSE_SEEDS:
        model = generate(SynthSpec(seed=seed, count_range=(40, 48)), catalog)
        cases.append((f"dense seed {seed}, quarter", draw(quartered(model, seed), DENSE_VIEWS, catalog)))
        cases.append((f"dense seed {seed}, tilted", draw(tilted(model, seed), DENSE_VIEWS, catalog)))
    return [
        {"case": case, "sha256": hashlib.sha256(svg.encode("utf-8")).hexdigest()}
        for case, svg in cases
    ]


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
