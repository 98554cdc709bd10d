"""Record the corpus totals that run.py checks `cabinetkit eval` reports against.

    python3 perfbench/record_totals.py 0-19 1000000-1000004

For each eval workload and seed, builds the corpus at the workload's full
size, runs one in-process `cabinetkit eval` and stores the report's corpus
totals in perfbench/expected_totals.json (entries for other seeds are
kept). Record on a commit whose scores are trusted: afterwards, a change
that moves any total makes the benchmark report failed operations.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl


def parse_seeds(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    table = {}
    if run.EXPECTED_TOTALS.is_file():
        table = json.loads(run.EXPECTED_TOTALS.read_text(encoding="utf-8"))
    work_dir = run.OUT / "record-totals"
    try:
        for workload in wl.WORKLOADS.values():
            if workload.kind != "eval":
                continue
            for seed in parse_seeds(argv):
                lib = wl.fresh_import()
                inputs = wl.make_inputs(lib, workload, seed, workload.size, work_dir)
                report_path = work_dir / "report.json"
                _, code = wl.cli_pass(inputs, report_path)
                if code != 0:
                    print(f"{workload.name} seed {seed}: eval exited with {code}", file=sys.stderr)
                    return 1
                totals = json.loads(report_path.read_text(encoding="utf-8"))["totals"]
                table.setdefault(workload.name, {})[str(seed)] = totals
                print(f"{workload.name} seed {seed}: {totals}", flush=True)
                shutil.rmtree(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.EXPECTED_TOTALS.write_text(dump(table), encoding="utf-8")
    return 0


def dump(table: dict) -> str:
    """JSON with one line per (workload, seed), seeds in numeric order."""
    parts = []
    for name, seeds in table.items():
        rows = ",\n".join(
            f"    {json.dumps(seed)}: {json.dumps(totals)}"
            for seed, totals in sorted(seeds.items(), key=lambda item: int(item[0]))
        )
        parts.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
