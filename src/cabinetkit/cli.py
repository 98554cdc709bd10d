"""Command-line interface.

Exit codes: 0 = success, 1 = validation/diagnostic failures in the inputs,
2 = usage or I/O errors. Human summaries go to stdout; diagnostics go to
stderr; file outputs are deterministic given identical flags and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import codec, corpus, drawing, metrics, program, synth
from .catalog import CatalogError, PrimitiveCatalog, builtin_catalog, load_catalog
from .diagnostics import error, has_errors, warning

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2

CATALOG_ENV_VAR = "CABINET_CATALOG"


def _resolve_catalog(path: str | None) -> PrimitiveCatalog:
    path = path or os.environ.get(CATALOG_ENV_VAR)
    if path is None:
        return builtin_catalog()
    return load_catalog(Path(path).read_text(encoding="utf-8"))


def _detect_format(path: Path) -> str:
    """The syntax of a program file: by its suffix, else by its first line.

    A file that is neither `.py` nor `.yaml`/`.yml` is YAML when its first
    line that is not blank or a `#` comment starts with `cabinet:`. Like
    the parsers, it reads the text after one leading byte order mark.
    """
    suffix = path.suffix.lower()
    if suffix == ".py":
        return "python"
    if suffix in (".yaml", ".yml"):
        return "yaml"
    text = path.read_text(encoding="utf-8", errors="replace").removeprefix(program.BOM)
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            return "yaml" if line.startswith("cabinet:") else "python"
    return "python"


def _print_diagnostics(diags, prefix: str = "") -> None:
    for diag in diags:
        print(f"{prefix}{diag}", file=sys.stderr)


def cmd_validate(args) -> int:
    catalog = _resolve_catalog(args.catalog)
    path = Path(args.path)
    fmt = _detect_format(path)
    result = corpus.parse_file(path, fmt, catalog)
    if result.model is None:
        diags = result.diagnostics
    else:
        diags = program.validate(
            result.model, catalog, filters=args.filters, spans=result.id_spans()
        )
    _print_diagnostics(diags, prefix=f"{path}:")
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def cmd_convert(args) -> int:
    catalog = _resolve_catalog(args.catalog)
    in_path = Path(args.input)
    fmt = _detect_format(in_path)
    result = corpus.parse_file(in_path, fmt, catalog)
    if result.model is None:
        _print_diagnostics(result.diagnostics, prefix=f"{in_path}:")
        return EXIT_DIAGNOSTICS
    if args.to == "python":
        text = program.emit_python(result.model, catalog)
        _print_diagnostics(_dropped_names(result, catalog), prefix=f"{in_path}:")
    elif args.to == "yaml":
        text = program.emit_yaml(result.model, catalog)
    else:  # commands
        try:
            sequence = codec.encode(result.model, catalog)
        except KeyError as exc:  # a model ID outside the catalog has no slot
            message = f"cannot encode commands: {exc.args[0]}"
            _print_diagnostics([error("unknown-model", message)], prefix=f"{in_path}:")
            return EXIT_DIAGNOSTICS
        text = codec.format_commands(sequence)
    Path(args.output).write_text(text, encoding="utf-8")
    return EXIT_OK


def _dropped_names(result: program.ParseResult, catalog: PrimitiveCatalog) -> list:
    """A warning for each instance whose name the Python syntax cannot keep.

    That syntax has no `name`: reading it back gives the catalog name.
    """
    model, spans = result.model, result.id_spans()
    found = []
    for index, instance in enumerate(model.instances):
        schema = catalog.get(instance.model_id)
        if instance.name != (schema.name if schema is not None else ""):
            message = f"instance {index}: name {instance.name!r} is not kept by the Python syntax"
            found.append(warning("name-dropped", message, spans[index]))
    return found


def cmd_render(args) -> int:
    catalog = _resolve_catalog(args.catalog)
    in_path = Path(args.input)
    fmt = _detect_format(in_path)
    result = corpus.parse_file(in_path, fmt, catalog)
    if result.model is None:
        _print_diagnostics(result.diagnostics, prefix=f"{in_path}:")
        return EXIT_DIAGNOSTICS
    views = [v.strip() for v in args.views.split(",") if v.strip()]
    rendered = drawing.render_views(result.model, views)
    # Annotations are always computed so that layer selection never changes
    # the layout; --layers only controls which SVG groups are written.
    annotated = drawing.annotate(rendered, result.model, catalog)
    if args.noise_seed is not None:
        noise = drawing.NoiseSpec(
            p_drop=args.p_drop, jitter_sigma=args.jitter, p_spurious=args.p_spurious
        )
        annotated = drawing.inject_noise(annotated, noise, args.noise_seed)
    sheet = drawing.layout_sheet(annotated)
    layers = frozenset(l.strip() for l in args.layers.split(",") if l.strip())
    Path(args.output).write_text(drawing.to_svg(sheet, layers), encoding="utf-8")
    return EXIT_OK


class _GroundTruthUnparsed(Exception):
    """Stops `cmd_eval` at a ground truth that failed to parse (already reported)."""


def cmd_eval(args) -> int:
    catalog = _resolve_catalog(args.catalog)
    pred_base, pred_entries = corpus.read_manifest(args.pred)
    gt_base, gt_entries = corpus.read_manifest(args.gt)
    pred_by_id = {e.sample_id: e for e in pred_entries}
    gt_by_id = {e.sample_id: e for e in gt_entries}
    missing = sorted(set(gt_by_id) ^ set(pred_by_id))
    if missing:
        for sample_id in missing:
            side = "prediction" if sample_id in gt_by_id else "ground truth"
            print(f"sample {sample_id!r} missing from {side}", file=sys.stderr)
        return EXIT_DIAGNOSTICS

    def load_pairs():
        # One sample at a time, so that memory does not grow with the corpus.
        for sample_id in sorted(gt_by_id):
            pred_result = corpus.load_entry(pred_base, pred_by_id[sample_id], catalog)
            gt_result = corpus.load_entry(gt_base, gt_by_id[sample_id], catalog)
            if gt_result.model is None:
                print(f"ground truth {sample_id!r} failed to parse:", file=sys.stderr)
                _print_diagnostics(gt_result.diagnostics, prefix="  ")
                raise _GroundTruthUnparsed
            yield sample_id, pred_result.model, gt_result.model

    try:
        report = metrics.evaluate_corpus(load_pairs(), catalog, args.iou)
    except _GroundTruthUnparsed:
        return EXIT_DIAGNOSTICS
    if args.out is not None:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    _print_summary(report)
    return EXIT_OK


def _print_summary(report: metrics.CorpusReport) -> None:
    header = f"{'':8}{'retrieval':>11}{'prec':>9}{'rec':>9}{'F1':>9}{'param':>9}"
    print(f"samples: {report.n_samples}  parse failures: {report.parse_failures}")
    print(header)
    for label, row in (("macro", report.macro()), ("micro", report.micro())):
        print(
            f"{label:8}"
            f"{row['retrieval_acc'] * 100:>10.2f} "
            f"{row['precision'] * 100:>8.2f} "
            f"{row['recall'] * 100:>8.2f} "
            f"{row['f1'] * 100:>8.2f} "
            f"{row['param_acc'] * 100:>8.2f}"
        )


def cmd_synth(args) -> int:
    catalog = _resolve_catalog(args.catalog)
    out_dir = Path(args.out)
    models = []
    seeds = {}
    for index in range(args.count):
        sample_id = f"{index:06d}"
        seed = args.seed + index
        spec = synth.SynthSpec(seed=seed)
        models.append((sample_id, synth.generate(spec, catalog)))
        seeds[sample_id] = seed
    corpus.write_corpus(
        out_dir,
        models,
        catalog,
        fmt=args.format,
        seeds=seeds,
        filters={"max_instances": program.MAX_INSTANCES, "size_range_mm": list(program.SIZE_FILTER_MM)},
    )
    print(f"wrote {len(models)} models to {out_dir}")
    return EXIT_OK


def cmd_stats(args) -> int:
    catalog = _resolve_catalog(args.catalog)
    samples = corpus.read_corpus(args.input, catalog)
    models = []
    failures = 0
    for sample_id, result in samples:
        if result.model is None:
            failures += 1
            print(f"sample {sample_id!r} failed to parse; skipping", file=sys.stderr)
        else:
            models.append(result.model)
    if not models:
        print("no parseable models in corpus", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    text = synth.stats(models).to_json()
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_DIAGNOSTICS if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cabinetkit",
        description="Parametric cabinet shape programs: validate, convert, render, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_catalog(p):
        p.add_argument(
            "--catalog",
            help=f"catalog file (default: ${CATALOG_ENV_VAR} or the built-in mini catalog)",
        )

    p = sub.add_parser("validate", help="parse and validate a shape program")
    p.add_argument("path")
    add_catalog(p)
    p.add_argument("--filters", action="store_true", help="apply the dataset filters")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert between syntaxes or to command sequences")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=("python", "yaml", "commands"), required=True)
    add_catalog(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("render", help="render a shape program to an SVG drawing")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--views", default="front,top,side", help="comma-separated view kinds")
    p.add_argument("--layers", default="geometry,annotation", help="SVG groups to write")
    p.add_argument("--noise-seed", type=int, default=None)
    p.add_argument("--p-drop", type=float, default=0.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--p-spurious", type=float, default=0.0)
    add_catalog(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred", required=True, help="prediction corpus dir or manifest")
    p.add_argument("--gt", required=True, help="ground-truth corpus dir or manifest")
    p.add_argument("--iou", type=float, default=metrics.DEFAULT_IOU_THRESHOLD)
    p.add_argument("--out", help="write the JSON report here")
    add_catalog(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a reproducible synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("python", "yaml"), default="python")
    add_catalog(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="corpus statistics as JSON")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    add_catalog(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and args.count <= 0:
        parser.error(f"--count must be positive, got {args.count}")
    try:
        return args.func(args)
    except (OSError, CatalogError, corpus.CorpusFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
