"""cabinetkit benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload eval-typical --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of stdout carries the end-to-end metrics
(untraced). With ``--trace 1`` it carries the per-layer metrics of a traced
run, and the spans go to ``.bench_out/trace-<workload>-seed<seed>.json``.
Every run also writes its full result, with provenance, to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy

import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED_TOTALS = Path(__file__).resolve().parent / "expected_totals.json"

SETUP_REPEATS = 5

END_TO_END = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "program.parse_python.us_per_instance": "us",
    "program.parse_yaml.us_per_instance": "us",
    "program.emit_python.us_per_model": "us",
    "program.emit_yaml.us_per_model": "us",
    "program.validate.us_per_model": "us",
    "metrics.iou_matrix.us_per_pair": "us",
    "metrics.iou_matrix.pairs_per_sample": "count",
    "metrics.assign.us_per_sample": "us",
    "metrics.assign.n_mean": "count",
    "metrics.evaluate_sample.self_us": "us",
    "metrics.aggregate.ms": "ms",
    "corpus.load_entry.self_us": "us",
    "cli.eval.self_ms": "ms",
    "codec.encode.us_per_model": "us",
    "codec.format_commands.us_per_model": "us",
    "drawing.render_views.us_per_model": "us",
    "geometry.merge_segments.us_per_model": "us",
    "drawing.annotate.us_per_model": "us",
    "drawing.inject_noise.us_per_model": "us",
    "drawing.layout_sheet.us_per_model": "us",
    "drawing.to_svg.us_per_model": "us",
    "drawing.segments_per_model": "count",
    "drawing.svg_kb_per_model": "KB",
    "synth.generate.us_per_model": "us",
    "synth.perturb.us_per_model": "us",
    "program.parse_python.pass_pct": "%",
    "program.parse_yaml.pass_pct": "%",
    "metrics.iou_matrix.pass_pct": "%",
    "metrics.assign.pass_pct": "%",
    "drawing.pass_pct": "%",
    "trace.overhead_pct": "%",
    "input.instances_mean": "count",
    "input.instances_max": "count",
    "input.pairs_per_sample": "count",
    "input.rotated_pair_share": "share",
    "input.z_overlap_share": "share",
    "input.program_bytes_per_model": "B",
}

_DRAWING_SPANS = (
    "drawing.render_views",
    "geometry.merge_segments",
    "drawing.annotate",
    "drawing.inject_noise",
    "drawing.layout_sheet",
    "drawing.to_svg",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", type=int, default=None,
        help="samples or models per pass (default: the workload's size)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.size is not None and args.size < 1:
        parser.error("--size must be positive")
    return args


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    if not git.is_dir():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cabinetkit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "seed_set": "held-out" if seed >= wl.HELD_OUT_MIN_SEED else "development",
    }


def expected_totals(workload: wl.Workload, seed: int, size: int) -> dict | None:
    if size != workload.size or not EXPECTED_TOTALS.is_file():
        return None
    table = json.loads(EXPECTED_TOTALS.read_text(encoding="utf-8"))
    return table.get(workload.name, {}).get(str(seed))


class Setup:
    """Import, catalog load and the workload's inputs, timed on every call.

    The first call's inputs are the ones measured. The remaining calls only
    add timings; they run between measurement passes, so that the median
    covers the whole run and not just its first seconds on a host whose
    speed drifts.
    """

    def __init__(self, workload, seed: int, size: int, work_dir: Path, repeats: int):
        self._args = (workload, seed, size)
        self._work_dir = work_dir
        self._repeats = repeats
        self.times: list[float] = []
        self.inputs = self._once()
        origin = Path(self.inputs.lib.cli.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"cabinetkit was imported from {origin}, not from {SRC}")

    def _once(self):
        rep_dir = self._work_dir / f"setup{len(self.times)}"
        start = perf_counter()
        lib = wl.fresh_import()
        inputs = wl.make_inputs(lib, *self._args, rep_dir)
        self.times.append(perf_counter() - start)
        if len(self.times) > 1:
            shutil.rmtree(rep_dir, ignore_errors=True)
        return inputs

    def between_passes(self) -> None:
        if len(self.times) < self._repeats:
            self._once()

    def finish(self) -> None:
        while len(self.times) < self._repeats:
            self._once()


def install_wraps(tracer: Tracer, lib) -> None:
    def instances(args, kwargs, result):
        return len(result.model) if result.model is not None else 0

    w = tracer.wrap
    w(lib.cli, "cmd_eval", "cli.eval")
    w(lib.corpus, "load_entry", "corpus.load_entry", sample=lambda a, k: a[1].sample_id)
    w(lib.program, "parse_python", "program.parse_python", count=instances)
    w(lib.program, "parse_yaml", "program.parse_yaml", count=instances)
    w(lib.program, "emit_python", "program.emit_python")
    w(lib.program, "emit_yaml", "program.emit_yaml")
    w(lib.program, "validate", "program.validate")
    w(lib.metrics, "evaluate_corpus", "metrics.evaluate_corpus")
    w(lib.metrics.CorpusReport, "to_json", "metrics.to_json")
    w(lib.metrics, "evaluate_sample", "metrics.evaluate_sample",
      sample=lambda a, k: k.get("sample_id") or None)
    w(lib.metrics, "match", "metrics.match",
      count=lambda a, k, r: max(len(a[0]), len(a[1])))
    w(lib.metrics, "iou_matrix", "metrics.iou_matrix", count=lambda a, k, r: int(r.size))
    w(lib.codec, "encode", "codec.encode")
    w(lib.codec, "format_commands", "codec.format_commands")
    w(lib.drawing, "render_views", "drawing.render_views",
      count=lambda a, k, r: sum(len(v.segments) for v in r))
    w(lib.geometry, "merge_segments", "geometry.merge_segments")
    w(lib.drawing, "annotate", "drawing.annotate")
    w(lib.drawing, "inject_noise", "drawing.inject_noise")
    w(lib.drawing, "layout_sheet", "drawing.layout_sheet")
    w(lib.drawing, "to_svg", "drawing.to_svg", count=lambda a, k, r: len(r))
    w(lib.synth, "generate", "synth.generate")
    w(lib.synth, "perturb", "synth.perturb")


def layer_metrics(table: dict, overhead_pct: float, shape: dict) -> dict[str, float]:
    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def per_call_us(name):
        return ratio(row(name)["self_s"], row(name)["calls"], 1e6)

    pass_s = row("pass").get("root_s", 0.0)
    render_calls = row("drawing.render_views")["calls"]
    out = {
        "program.parse_python.us_per_instance":
            ratio(row("program.parse_python")["self_s"], row("program.parse_python")["count"], 1e6),
        "program.parse_yaml.us_per_instance":
            ratio(row("program.parse_yaml")["self_s"], row("program.parse_yaml")["count"], 1e6),
        "program.emit_python.us_per_model": per_call_us("program.emit_python"),
        "program.emit_yaml.us_per_model": per_call_us("program.emit_yaml"),
        "program.validate.us_per_model": per_call_us("program.validate"),
        "metrics.iou_matrix.us_per_pair":
            ratio(row("metrics.iou_matrix")["self_s"], row("metrics.iou_matrix")["count"], 1e6),
        "metrics.iou_matrix.pairs_per_sample":
            ratio(row("metrics.iou_matrix")["count"], row("metrics.iou_matrix")["calls"]),
        "metrics.assign.us_per_sample": per_call_us("metrics.match"),
        "metrics.assign.n_mean":
            ratio(row("metrics.match")["count"], row("metrics.match")["calls"]),
        "metrics.evaluate_sample.self_us": per_call_us("metrics.evaluate_sample"),
        "metrics.aggregate.ms": ratio(
            row("metrics.evaluate_corpus")["self_s"] + row("metrics.to_json")["total_s"],
            row("cli.eval")["calls"], 1e3),
        "corpus.load_entry.self_us": per_call_us("corpus.load_entry"),
        "cli.eval.self_ms": ratio(row("cli.eval")["self_s"], row("cli.eval")["calls"], 1e3),
        "codec.encode.us_per_model": per_call_us("codec.encode"),
        "codec.format_commands.us_per_model": per_call_us("codec.format_commands"),
        "drawing.render_views.us_per_model": per_call_us("drawing.render_views"),
        "geometry.merge_segments.us_per_model":
            ratio(row("geometry.merge_segments")["self_s"], render_calls, 1e6),
        "drawing.annotate.us_per_model": per_call_us("drawing.annotate"),
        "drawing.inject_noise.us_per_model": per_call_us("drawing.inject_noise"),
        "drawing.layout_sheet.us_per_model": per_call_us("drawing.layout_sheet"),
        "drawing.to_svg.us_per_model": per_call_us("drawing.to_svg"),
        "drawing.segments_per_model": ratio(row("drawing.render_views")["count"], render_calls),
        "drawing.svg_kb_per_model":
            ratio(row("drawing.to_svg")["count"], row("drawing.to_svg")["calls"], 1 / 1024),
        "synth.generate.us_per_model": per_call_us("synth.generate"),
        "synth.perturb.us_per_model": per_call_us("synth.perturb"),
        "program.parse_python.pass_pct": ratio(row("program.parse_python")["self_s"], pass_s, 100),
        "program.parse_yaml.pass_pct": ratio(row("program.parse_yaml")["self_s"], pass_s, 100),
        "metrics.iou_matrix.pass_pct": ratio(row("metrics.iou_matrix")["self_s"], pass_s, 100),
        "metrics.assign.pass_pct": ratio(row("metrics.match")["self_s"], pass_s, 100),
        "drawing.pass_pct":
            ratio(sum(row(name)["self_s"] for name in _DRAWING_SPANS), pass_s, 100),
        "trace.overhead_pct": overhead_pct,
    }
    out.update(shape)
    return out


@dataclass
class Outcome:
    """What one workload's measurement phase found."""

    measured: dict[str, float]  # end-to-end metrics except set-up and memory
    overhead_pct: float  # traced against untraced passes; 0 when untraced
    shape: dict[str, float]  # input-shape counters
    attempted: int
    failed: int
    problems: list[str]
    details: dict


def run_eval(workload, inputs, args, work_dir, tracer, between_passes):
    """Alternate the two eval passes until the time is up (at least one each).

    Untraced: a CLI pass, then an API pass. Traced: an untraced CLI pass,
    then a traced one, for the overhead comparison.
    """
    report_path = work_dir / "report.json"
    cli_times, traced_times, cli_runs, api_runs = [], [], [], []
    deadline = perf_counter() + args.seconds
    while True:
        seconds, code = wl.cli_pass(inputs, report_path)
        cli_times.append(seconds)
        cli_runs.append((code, _read(report_path) if code == 0 else None))
        if tracer is None:
            api_runs.append(wl.api_pass(inputs))
        else:
            install_wraps(tracer, inputs.lib)
            try:
                with tracer.span("pass"):
                    seconds, code = wl.cli_pass(inputs, report_path)
            finally:
                tracer.restore()
            traced_times.append(seconds)
            cli_runs.append((code, _read(report_path) if code == 0 else None))
        if perf_counter() >= deadline:
            break
        report_path.unlink(missing_ok=True)
        between_passes()
    if tracer is not None:
        api_runs.append(wl.api_pass(inputs))  # reference for the checks
    n = len(inputs.gt_models)
    expected = expected_totals(workload, args.seed, n)
    failed, problems = wl.check_eval(cli_runs, api_runs, expected)
    attempted = n * (len(cli_runs) + len(api_runs))
    sample_times = [t for run in api_runs for _, t, _ in run]
    details = {
        "cli_pass_s": cli_times,
        "traced_cli_pass_s": traced_times,
        "api_samples_timed": len(sample_times),
        "api_pass_p50_ms": [statistics.median(t for _, t, _ in run) * 1e3 for run in api_runs],
        "api_pass_p99_ms": [percentile([t for _, t, _ in run], 99) * 1e3 for run in api_runs],
        "totals_recorded": expected is not None,
    }
    measured = {
        "items_per_s": n * len(cli_times) / sum(cli_times),
        "item_ms_p50": statistics.median(sample_times) * 1e3,
        "item_ms_p99": percentile(sample_times, 99) * 1e3,
    }
    return Outcome(measured, _overhead_pct(traced_times, cli_times), wl.eval_shape(inputs),
                   attempted, failed, problems, details)


def run_build(workload, inputs, args, tracer, between_passes):
    """Build passes until the time is up; traced runs alternate with untraced."""
    model_times, pass_times, traced_times, pass_p50, pass_p99 = [], [], [], [], []
    attempted = failed = 0
    reference = None
    deadline = perf_counter() + args.seconds
    traced_turn = False
    while True:
        if traced_turn:
            install_wraps(tracer, inputs.lib)
            try:
                with tracer.span("pass"):
                    times, outputs, bad = wl.build_pass(inputs, reference, tracer.span)
            finally:
                tracer.restore()
            traced_times.append(sum(times))
        else:
            times, outputs, bad = wl.build_pass(inputs, reference)
            pass_times.append(sum(times))
            model_times.extend(times)
            pass_p50.append(statistics.median(times) * 1e3)
            pass_p99.append(percentile(times, 99) * 1e3)
        attempted += len(times)
        failed += bad
        if reference is None:
            reference = outputs
        if tracer is not None:
            traced_turn = not traced_turn
        if perf_counter() >= deadline and (tracer is None or traced_times):
            break
        between_passes()

    problems = []
    if attempted == len(inputs.seeds):  # a single pass: re-render to check determinism
        _, _, bad = wl.build_pass(inputs, reference)
        failed += bad
        attempted += len(inputs.seeds)
    for seed, built in zip(inputs.seeds, reference):
        if built is None:
            continue
        found = wl.check_built(inputs.lib, inputs.catalog, built)
        if found:
            failed += 1
            problems.append(f"model seed {seed}: {', '.join(found)}")
    n = len(inputs.seeds)
    measured = {
        "items_per_s": n * len(pass_times) / sum(pass_times),
        "item_ms_p50": statistics.median(model_times) * 1e3,
        "item_ms_p99": percentile(model_times, 99) * 1e3,
    }
    details = {"pass_s": pass_times, "traced_pass_s": traced_times,
               "models_timed": len(model_times), "pass_p50_ms": pass_p50,
               "pass_p99_ms": pass_p99}
    shape = wl.build_shape([b for b in reference if b is not None])
    return Outcome(measured, _overhead_pct(traced_times, pass_times), shape,
                   attempted, failed, problems, details)


def _overhead_pct(traced, untraced) -> float:
    if not traced:
        return 0.0
    return (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0


def _read(path: Path) -> str | None:
    return path.read_text(encoding="utf-8") if path.is_file() else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cabinetkit" / "__init__.py").is_file():
        print(f"error: no cabinetkit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = wl.WORKLOADS[args.workload]
    size = args.size or workload.size
    work_dir = OUT / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        setup = Setup(workload, args.seed, size, work_dir, 1 if tracer else SETUP_REPEATS)
        inputs = setup.inputs
        if tracer is not None and workload.kind == "eval":
            install_wraps(tracer, inputs.lib)
            try:
                with tracer.span("setup"):
                    wl.make_inputs(inputs.lib, workload, args.seed, size, work_dir / "traced")
            finally:
                tracer.restore()
        if workload.kind == "eval":
            outcome = run_eval(workload, inputs, args, work_dir, tracer, setup.between_passes)
        else:
            outcome = run_build(workload, inputs, args, tracer, setup.between_passes)
        setup.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    measured = outcome.measured
    measured["setup_s"] = statistics.median(setup.times)
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is None:
        units = END_TO_END
        values = measured
    else:
        units = PER_LAYER
        table = tracer.summary(roots="pass")
        values = layer_metrics(table, outcome.overhead_pct, outcome.shape)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted, failed = outcome.attempted, outcome.failed
    correct = failed == 0 and not outcome.problems
    record = {
        "workload": workload.name,
        "size": size,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": outcome.problems,
        "metrics": metrics,
        "end_to_end_untraced" if tracer is None else "end_to_end_while_tracing": measured,
        "input_shape": outcome.shape,
        "setup_s_each": setup.times,
        "details": outcome.details,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json",
                     {"workload": workload.name, "provenance": record["provenance"],
                      "layers": table, "metrics": metrics})

    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{workload.name:20} {name:40} {metric['value']:14.4f} {metric['unit']}")
    print(f"{workload.name:20} error_rate {failed}/{attempted}; seed {args.seed} "
          f"({record['provenance']['seed_set']})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
