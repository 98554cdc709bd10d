"""Build the CLI golden-fixture tree; run as a script to refresh tests/golden.

Usage: python3 tests/golden_fixtures.py --write
"""

import argparse
import shutil
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"


def build_all(dest: Path) -> list[str]:
    """Run the fixed CLI recipe into `dest`; returns the relative file list."""
    from cabinetkit import SynthSpec, builtin_catalog, emit_python, generate, save_catalog
    from cabinetkit.cli import main
    from helpers import tilted

    dest.mkdir(parents=True, exist_ok=True)
    corpus = dest / "corpus"

    def run(*argv):
        code = main([str(a) for a in argv])
        assert code == 0, f"golden command failed ({code}): {argv}"

    run("synth", "--seed", 7, "--count", 2, "--out", corpus)
    model = corpus / "000000.py"
    run("convert", model, dest / "model.yaml", "--to", "yaml")
    run("convert", model, dest / "model.cmds", "--to", "commands")
    run("render", model, dest / "render_3view.svg")
    run("render", model, dest / "render_geometry_only.svg", "--layers", "geometry")
    run(
        "render", model, dest / "render_noise.svg",
        "--views", "front,top", "--noise-seed", 11,
        "--p-drop", 0.1, "--jitter", 1.0, "--p-spurious", 0.05,
    )
    # Tilted drawings: every box turned 1-12 degrees either way.
    catalog = builtin_catalog()
    for name, spec in (
        ("tilted", SynthSpec(seed=7)),
        ("tilted_dense", SynthSpec(seed=7, count_range=(40, 48))),
    ):
        program = dest / f"{name}.py"
        program.write_text(emit_python(tilted(generate(spec, catalog), 7), catalog), encoding="utf-8")
        run("render", program, dest / f"render_{name}.svg", "--views", "front,top,side,section")
    run(
        "render", dest / "tilted.py", dest / "render_tilted_noise.svg",
        "--views", "front,top,side,section", "--noise-seed", 11,
        "--p-drop", 0.1, "--jitter", 1.0, "--p-spurious", 0.05,
    )
    run("eval", "--pred", corpus, "--gt", corpus, "--out", dest / "report.json")
    run("stats", "--in", corpus, "--out", dest / "stats.json")
    (dest / "catalog.yaml").write_text(save_catalog(builtin_catalog()), encoding="utf-8")

    return sorted(
        str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file()
    )


def main_script() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true", help="refresh tests/golden")
    args = parser.parse_args()
    if not args.write:
        parser.error("pass --write to refresh the golden tree")
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    files = build_all(GOLDEN_DIR)
    print(f"wrote {len(files)} golden fixtures:")
    for name in files:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main_script())
