"""Every command in README's command-line block runs and exits 0."""

import re
import shlex
from pathlib import Path

from cabinetkit import SynthSpec, emit_python, generate
from cabinetkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each `cabinetkit ...` line in the `sh` block under "Command line"."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cabinetkit ")]


def test_readme_commands_run(tmp_path, monkeypatch, catalog):
    monkeypatch.chdir(tmp_path)
    model = generate(SynthSpec(seed=5), catalog)
    Path("model.py").write_text(emit_python(model, catalog), encoding="utf-8")
    for corpus in ("corpus", "pred_corpus", "gt_corpus"):
        assert main(["synth", "--seed", "7", "--count", "3", "--out", corpus]) == 0
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "validate", "convert", "render", "synth", "stats", "eval"
    }
    for argv in commands:
        assert main(argv) == 0, argv
