"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import re
import time
from contextlib import contextmanager
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import cabinetkit as ck
from cabinetkit import codec, drawing, metrics, program
from cabinetkit.cli import main as cli_main
from golden_fixtures import GOLDEN_DIR, build_all
from helpers import aabb_iou_oracle, random_box, random_box_model


@contextmanager
def criterion(num: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {num:02d} PASS {description} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def thousand_models(catalog):
    return [ck.generate(ck.SynthSpec(seed=seed), catalog) for seed in range(1000)]


def test_criterion_01_round_trip_identity(catalog, thousand_models):
    with criterion(1, "round-trip identity over 1,000 models, both syntaxes"):
        started = time.monotonic()
        for model in thousand_models:
            py = ck.emit_python(model, catalog)
            ya = ck.emit_yaml(model, catalog)
            from_py = ck.parse_python(py, catalog)
            from_ya = ck.parse_yaml(ya, catalog)
            assert from_py.ok and from_py.diagnostics == []
            assert from_ya.ok and from_ya.diagnostics == []
            assert from_py.model == model
            assert from_ya.model == model
            for original, parsed in zip(model.instances, from_py.model.instances):
                assert tuple(original.params.items()) == tuple(parsed.params.items())
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"round-trip took {elapsed:.2f}s (budget 10s)"


def test_criterion_02_assignment_optimality(catalog):
    with criterion(2, "Hungarian total IoU equals brute force on 500 pairs (n<=7)"):
        started = time.monotonic()
        rng = np.random.default_rng(20240901)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            pred = random_box_model(rng, catalog, n, lo=0, hi=900,
                                    rotations=(0, 90, 180, 270))
            gt = random_box_model(rng, catalog, m, lo=0, hi=900,
                                  rotations=(0, 90, 180, 270))
            ious = metrics.iou_matrix(pred, gt)
            got = math.fsum(iou for _, _, iou in metrics.match(pred, gt).pairs)
            if n <= m:
                best = max(
                    math.fsum(ious[i, perm[i]] for i in range(n))
                    for perm in permutations(range(m), n)
                )
            else:
                best = max(
                    math.fsum(ious[perm[j], j] for j in range(m))
                    for perm in permutations(range(n), m)
                )
            assert got == best
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"assignment check took {elapsed:.2f}s (budget 30s)"


def test_criterion_03_iou_correctness(catalog):
    with criterion(3, "IoU: exact identity, analytic offset cube, AABB agreement"):
        for rot in (0.0, 30.0, 45.0, 90.0, 215.0):
            box = ck.OrientedBox((120.0, 75.0, 260.0), (40.0, 55.0, 70.0), rot)
            assert ck.iou3d(box, box) == 1.0

        a = ck.OrientedBox((0, 0, 0), (1, 1, 1))
        b = ck.OrientedBox((0.5, 0, 0), (1, 1, 1))
        assert abs(ck.iou3d(a, b) - 1.0 / 3.0) <= 1e-9

        rng = np.random.default_rng(7)
        for _ in range(10_000):
            a = random_box(rng, lo=0, hi=800, rotations=(0, 90, 180, 270))
            b = random_box(rng, lo=0, hi=800, rotations=(0, 90, 180, 270))
            assert abs(ck.iou3d(a, b) - aabb_iou_oracle(a, b)) <= 1e-9


def test_criterion_04_protocol_constants(catalog):
    with criterion(4, "protocol constants: >0.5 TP, 1500x3mm + 4 bins, filters, 512px"):
        assert metrics.DEFAULT_IOU_THRESHOLD == 0.5
        # strict inequality: a pair at IoU exactly 0.5 is not a true positive
        gt = ck.CabinetModel(
            (ck.make_instance(catalog, "M-DOOR", ck.OrientedBox((1.0, 0.5, 0.5), (2, 1, 1))),)
        )
        pred = ck.CabinetModel(
            (ck.make_instance(catalog, "M-DOOR", ck.OrientedBox((0.5, 0.5, 0.5), (1, 1, 1))),)
        )
        assert ck.iou3d(pred.instances[0].box, gt.instances[0].box) == 0.5
        assert metrics.evaluate_sample(pred, gt, catalog).tp == 0

        assert codec.LENGTH_BINS == 1500
        assert codec.LENGTH_RESOLUTION_MM == 3.0
        assert codec.LENGTH_RANGE_MM == 4500.0
        assert codec.ROTATION_BINS == 4

        assert program.SIZE_FILTER_MM == (100.0, 4500.0)
        assert program.MAX_INSTANCES == 48

        assert drawing.DEFAULT_CANVAS_PX == 512


def test_criterion_05_codec_error_bound(catalog):
    with criterion(5, "codec: 100k scalar round trips <=1.5mm; box IoU >= 0.98"):
        started = time.monotonic()
        rng = np.random.default_rng(99)
        values = rng.uniform(0.0, 4497.0, size=100_000)
        violations = 0
        for v in values:
            if abs(codec.dequantize_length(codec.quantize_length(v)) - v) > 1.5:
                violations += 1
        assert violations == 0

        worst = 1.0
        for _ in range(2_000):
            position = tuple(rng.uniform(0.0, 4000.0, 3))
            size = tuple(rng.uniform(300.0, 4200.0, 3))
            rotation = float(rng.choice((0.0, 90.0, 180.0, 270.0)))
            box = ck.OrientedBox(position, size, rotation)
            model = ck.CabinetModel((ck.make_instance(catalog, "M-DOOR", box),))
            decoded = codec.decode(codec.encode(model, catalog), catalog)
            worst = min(worst, ck.iou3d(box, decoded.instances[0].box))
        assert worst >= 0.98, f"worst decoded IoU {worst:.5f}"
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"codec check took {elapsed:.2f}s (budget 5s)"


def test_criterion_06_metric_sanity(catalog):
    with criterion(6, "metric sanity: identity, ID swap, drop one of four (exact)"):
        pairs = []
        for seed in range(100):
            model = ck.generate(ck.SynthSpec(seed=seed), catalog)
            pairs.append((f"{seed:03d}", model, model))
        report = ck.evaluate_corpus(pairs, catalog)
        for agg in (report.macro(), report.micro()):
            assert agg["precision"] == 1.0
            assert agg["recall"] == 1.0
            assert agg["f1"] == 1.0
            assert agg["retrieval_acc"] == 1.0
            assert agg["param_acc"] == 1.0

        model = ck.generate(ck.SynthSpec(seed=17), catalog)
        swapped = ck.perturb(model, ck.PerturbSpec(seed=1, id_swap_rate=1.0), catalog)
        swap_report = ck.evaluate_sample(swapped, model, catalog)
        assert swap_report.f1 == 1.0
        assert swap_report.retrieval_acc == 0.0

        four = ck.generate(ck.SynthSpec(seed=2, count_range=(4, 4)), catalog)
        assert len(four) == 4
        dropped = ck.perturb(four, ck.PerturbSpec(seed=3, drop_rate=0.25), catalog)
        drop_report = ck.evaluate_sample(dropped, four, catalog)
        assert drop_report.recall == 0.75
        assert drop_report.precision == 1.0


def test_criterion_07_perturbation_monotonicity(catalog):
    with criterion(7, "mean F1 at 50mm jitter below 10mm jitter by >= 0.02"):
        def mean_f1(sigma: float) -> float:
            scores = []
            for seed in range(200):
                model = ck.generate(ck.SynthSpec(seed=seed), catalog)
                noisy = ck.perturb(
                    model, ck.PerturbSpec(seed=seed + 1, pos_sigma_mm=sigma), catalog
                )
                scores.append(ck.evaluate_sample(noisy, model, catalog).f1)
            return float(np.mean(scores))

        f1_small = mean_f1(10.0)
        f1_large = mean_f1(50.0)
        assert f1_small - f1_large >= 0.02, (f1_small, f1_large)


def test_criterion_08_drawing_layer_separation(catalog):
    with criterion(8, "geometry group identical with/without annotations; exact labels"):
        group_re = re.compile(r'<g id="geometry".*?</g>', re.S)
        for seed in range(50):
            model = ck.generate(ck.SynthSpec(seed=seed), catalog)
            views = ck.annotate(
                ck.render_views(model, ["front", "top", "side"]), model, catalog
            )
            sheet = ck.layout_sheet(views)
            full = ck.to_svg(sheet)
            geometry_only = ck.to_svg(sheet, layers=frozenset({"geometry"}))
            assert group_re.search(full).group(0) == group_re.search(geometry_only).group(0)
            for view in views:
                for ann in view.annotations:
                    if isinstance(ann, ck.DimensionSet):
                        measured = math.hypot(
                            ann.end[0] - ann.start[0], ann.end[1] - ann.start[1]
                        )
                        assert float(int(ann.label)) == measured


def test_criterion_09_cli_determinism(catalog, tmp_path):
    with criterion(9, "CLI golden suite: re-runs byte-identical, >=10 fixtures"):
        run_a = tmp_path / "run_a"
        run_b = tmp_path / "run_b"
        files_a = build_all(run_a)
        files_b = build_all(run_b)
        assert files_a == files_b
        assert len(files_a) >= 10
        for name in files_a:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
        assert GOLDEN_DIR.is_dir(), "committed golden tree missing"
        golden_files = sorted(
            str(p.relative_to(GOLDEN_DIR)) for p in GOLDEN_DIR.rglob("*") if p.is_file()
        )
        assert golden_files == files_a
        for name in golden_files:
            assert (GOLDEN_DIR / name).read_bytes() == (run_a / name).read_bytes(), name


def test_criterion_10_syntax_length(catalog, thousand_models):
    with criterion(10, "YAML emission longer than Python for >= 95% of 1,000 models"):
        longer = 0
        for model in thousand_models:
            if len(ck.emit_yaml(model, catalog)) > len(ck.emit_python(model, catalog)):
                longer += 1
        assert longer >= 950, f"YAML longer for only {longer}/1000 models"
