"""The runtime dependency stays numpy only.

The package may import the standard library, numpy and itself; the test
extras (pytest, hypothesis, scipy, PyYAML) are for the tests alone.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cabinetkit"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "cabinetkit"}


def _imported_roots(path: Path):
    """The top-level name of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    foreign = sorted(
        (str(path.relative_to(PACKAGE)), root)
        for path in sources
        for root in _imported_roots(path)
        if root not in ALLOWED
    )
    assert foreign == []


def _declared(key: str) -> list[str]:
    """The package names of one requirement list in pyproject.toml, such as `dependencies`."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(rf"^{key}\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert declared is not None
    requirements = re.findall(r"\"([^\"]*)\"|'([^']*)'", declared.group(1))
    return [re.match(r"[A-Za-z0-9_.-]*", double or single)[0] for double, single in requirements]


def test_pyproject_declares_only_numpy():
    assert _declared("dependencies") == ["numpy"]


def test_ci_installs_numpy_and_the_test_extra():
    """The CI install line and pyproject.toml are two hand-kept copies of one list."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    installs = re.findall(r"\bpip install ([^\n]*)", workflow)
    assert len(installs) == 1
    assert sorted(installs[0].split()) == sorted(_declared("dependencies") + _declared("test"))
