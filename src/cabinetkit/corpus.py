"""Manifest-driven corpus directories.

A corpus is a directory holding one shape-program file per model plus a
``manifest.json`` that maps stable sample IDs to files. The explicit
mapping is what lets evaluation pair predictions with ground truth without
relying on filename conventions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import program
from .catalog import PrimitiveCatalog
from .program import CabinetModel, ParseResult

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1

_EXTENSIONS = {"python": ".py", "yaml": ".yaml"}


@dataclass(frozen=True)
class CorpusEntry:
    sample_id: str
    path: str
    format: str


class CorpusFormatError(ValueError):
    """Raised when a manifest or corpus directory is malformed."""


def write_corpus(
    directory: str | Path,
    models: list[tuple[str, CabinetModel]],
    catalog: PrimitiveCatalog,
    *,
    fmt: str = "python",
    seeds: dict[str, int] | None = None,
    filters: dict | None = None,
) -> Path:
    """Write models plus a manifest; returns the manifest path."""
    if fmt not in _EXTENSIONS:
        raise CorpusFormatError(f"unknown corpus format {fmt!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    emit = program.emit_python if fmt == "python" else program.emit_yaml
    samples = []
    for sample_id, model in models:
        filename = f"{sample_id}{_EXTENSIONS[fmt]}"
        (directory / filename).write_text(emit(model, catalog), encoding="utf-8")
        entry = {"id": sample_id, "file": filename}
        if seeds and sample_id in seeds:
            entry["seed"] = seeds[sample_id]
        samples.append(entry)
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "format": fmt,
        "samples": samples,
    }
    if filters is not None:
        manifest["filters"] = filters
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def read_manifest(path: str | Path) -> tuple[Path, list[CorpusEntry]]:
    """Accepts a manifest file or the directory containing one."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no manifest at {manifest_path}")
    try:
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict) or "samples" not in data:
        raise CorpusFormatError(f"{manifest_path}: manifest requires a 'samples' list")
    fmt = data.get("format", "python")
    if fmt not in _EXTENSIONS:
        raise CorpusFormatError(f"{manifest_path}: unknown format {fmt!r}")
    entries = []
    for sample in data["samples"]:
        if not isinstance(sample, dict) or "id" not in sample or "file" not in sample:
            raise CorpusFormatError(f"{manifest_path}: sample entries need 'id' and 'file'")
        entries.append(
            CorpusEntry(
                sample_id=str(sample["id"]),
                path=str(sample["file"]),
                format=fmt,
            )
        )
    ids = [e.sample_id for e in entries]
    if len(set(ids)) != len(ids):
        raise CorpusFormatError(f"{manifest_path}: duplicate sample IDs")
    return manifest_path.parent, entries


def parse_file(path: str | Path, fmt: str, catalog: PrimitiveCatalog) -> ParseResult:
    """Parse a shape-program file in `fmt` ("python" or "yaml").

    The parser gets the raw bytes, so a file that is not valid UTF-8 yields
    an ``encoding`` diagnostic instead of an exception.
    """
    data = Path(path).read_bytes()
    parse = program.parse_python if fmt == "python" else program.parse_yaml
    return parse(data, catalog)


def load_entry(base: Path, entry: CorpusEntry, catalog: PrimitiveCatalog) -> ParseResult:
    return parse_file(base / entry.path, entry.format, catalog)


def read_corpus(path: str | Path, catalog: PrimitiveCatalog) -> list[tuple[str, ParseResult]]:
    """Load every sample of a corpus, in manifest order."""
    base, entries = read_manifest(path)
    return [(entry.sample_id, load_entry(base, entry, catalog)) for entry in entries]
