"""Show what a re-record of the pinned outputs would move, without writing any pin.

Every writer of a pinned file runs into a temporary directory, and its
output is compared with the committed file:

* parse: `parse_cases.py`, the files that changed;
* IoU: `iou_cases.py`, the matrix entries (pairs) that changed, the
  largest absolute change, and the pairs whose IoU crosses 0.5;
* totals: `perfbench/record_totals.py`, the report counts that changed,
  per workload and seed;
* drawings: `drawing_cases.py`, the SVG hashes that changed, per case
  family (`plain`, `noisy`, `quarter`, `tilted`, `grid`; `quarter` and
  `tilted` are the dense models, drawn with a section view, and `grid`
  the view sets other than front, top and side);
* goldens: `golden_fixtures.py`, the files of `tests/golden/` that changed;
* demos: the six demos, run from a copy, the drawings of `demos/out/`
  that changed.

Usage: python3 tests/pin_diff.py [SEEDS ...]

SEEDS are `record_totals.py` seed ranges; the default, 0-49 and
1000000-1000004, is the range CI re-records.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
DEFAULT_SEEDS = ["0-49", "1000000-1000004"]


def _changed_files(new_dir: Path, old_dir: Path, pattern: str = "**/*") -> list[str]:
    """Relative names of the files that differ, are new, or are gone."""
    new = {p.relative_to(new_dir): p for p in new_dir.glob(pattern) if p.is_file()}
    old = {p.relative_to(old_dir): p for p in old_dir.glob(pattern) if p.is_file()}
    changed = []
    for name in sorted(new.keys() | old.keys()):
        if name not in old:
            changed.append(f"{name} (new)")
        elif name not in new:
            changed.append(f"{name} (gone)")
        elif new[name].read_bytes() != old[name].read_bytes():
            changed.append(str(name))
    return changed


def _files_line(what: str, changed: list[str], total: int) -> str:
    return f"{what}: {len(changed)} of {total} files changed" + (
        ": " + ", ".join(changed) if changed else ""
    )


def parse_report(catalog, tmp: Path) -> list[str]:
    import parse_cases

    out = tmp / "parse"
    out.mkdir()
    fixtures = parse_cases.fixtures(catalog)
    for path, records in fixtures.items():
        (out / path.name).write_text(parse_cases.dumps(records), encoding="utf-8")
    changed = [
        path.name for path in fixtures
        if (out / path.name).read_bytes() != path.read_bytes()
    ]
    return [_files_line("parse", changed, len(fixtures))]


def _iou(record: dict) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(record["iou"]), dtype=np.float64).reshape(record["shape"])


def iou_report(catalog, tmp: Path) -> list[str]:
    import iou_cases

    path = tmp / iou_cases.FIXTURE.name
    path.write_text(iou_cases.dumps(iou_cases.outcomes(catalog)), encoding="utf-8")
    new = {r["case"]: r for r in json.loads(path.read_text(encoding="utf-8"))}
    old = {r["case"]: r for r in json.loads(iou_cases.FIXTURE.read_text(encoding="utf-8"))}
    cases = pairs = crossing = 0
    largest = 0.0
    for case in new.keys() & old.keys():
        if new[case] == old[case]:
            continue
        cases += 1
        a, b = _iou(old[case]), _iou(new[case])
        if a.shape != b.shape:
            pairs += max(a.size, b.size)
            continue
        moved = (a != b) & ~(np.isnan(a) & np.isnan(b))
        pairs += int(moved.sum())
        if moved.any():
            largest = max(largest, float(np.nanmax(np.abs(a - b)[moved])))
        crossing += int(((a >= 0.5) != (b >= 0.5)).sum())
    lines = [
        f"iou: {cases} of {len(old)} cases changed; {pairs} pairs changed, "
        f"largest change {largest:.3g}, {crossing} pairs cross 0.5"
    ]
    if new.keys() != old.keys():
        lines.append(f"iou: {len(new.keys() - old.keys())} cases new, {len(old.keys() - new.keys())} gone")
    return lines


def totals_report(tmp: Path, seeds: list[str]) -> list[str]:
    """Re-run `record_totals.py` with its output and work directory moved into `tmp`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import record_totals
    import run

    committed = json.loads(run.EXPECTED_TOTALS.read_text(encoding="utf-8"))
    run.EXPECTED_TOTALS = tmp / "expected_totals.json"
    run.OUT = tmp / "bench_out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = record_totals.main(seeds)
    if code != 0:
        return [f"totals: record_totals.py exited with {code}"]
    recorded = json.loads(run.EXPECTED_TOTALS.read_text(encoding="utf-8"))
    entries = 0
    lines = []
    for workload, by_seed in recorded.items():
        for seed, totals in by_seed.items():
            entries += 1
            before = committed.get(workload, {}).get(seed)
            if before is None:
                lines.append(f"  {workload} seed {seed}: not pinned")
                continue
            moved = [
                f"{key} {before.get(key)} -> {totals.get(key)}"
                for key in sorted(before.keys() | totals.keys())
                if before.get(key) != totals.get(key)
            ]
            if moved:
                lines.append(f"  {workload} seed {seed}: " + ", ".join(moved))
    return [f"totals: {len(lines)} of {entries} (workload, seed) entries changed"] + lines


def _family(case: str) -> str:
    return case.rsplit(", ", 1)[-1]


def drawing_report(catalog) -> list[str]:
    import drawing_cases

    new = drawing_cases.outcomes(catalog)
    old = json.loads(drawing_cases.FIXTURE.read_text(encoding="utf-8"))
    if [r["case"] for r in new] != [r["case"] for r in old]:
        return [f"drawings: the case list changed ({len(old)} cases -> {len(new)})"]
    families = Counter(_family(r["case"]) for r in old)
    moved = Counter(_family(a["case"]) for a, b in zip(old, new) if a != b)
    per_family = ", ".join(f"{f} {moved[f]} of {n}" for f, n in families.items())
    return [f"drawings: {sum(moved.values())} of {len(old)} cases changed ({per_family})"]


def golden_report(tmp: Path) -> list[str]:
    import golden_fixtures

    dest = tmp / "golden"
    with contextlib.redirect_stdout(io.StringIO()):
        files = golden_fixtures.build_all(dest)
    changed = _changed_files(dest, golden_fixtures.GOLDEN_DIR)
    return [_files_line("goldens", changed, len(files))]


def demo_report(tmp: Path) -> list[str]:
    """Run each demo from a copy of `demos/`, so it writes into the copy's `out/`."""
    demos = tmp / "demos"
    demos.mkdir()
    for script in sorted((ROOT / "demos").glob("*.py")):
        shutil.copy(script, demos)
        done = subprocess.run(
            [sys.executable, str(demos / script.name)], cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        if done.returncode != 0:
            return [f"demos: {script.name} exited with {done.returncode}: {done.stderr[-500:]}"]
    changed = _changed_files(demos / "out", ROOT / "demos" / "out", "*.svg")
    return [_files_line("demos", changed, len(list((demos / "out").glob("*.svg"))))]


def report(seeds: list[str]) -> list[str]:
    from cabinetkit import builtin_catalog

    catalog = builtin_catalog()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        return [
            *parse_report(catalog, tmp),
            *iou_report(catalog, tmp),
            *drawing_report(catalog),
            *golden_report(tmp),
            *demo_report(tmp),
            # Last: record_totals imports cabinetkit afresh.
            *totals_report(tmp, seeds),
        ]


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    print("\n".join(report(sys.argv[1:] or DEFAULT_SEEDS)))
