import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cabinetkit import CabinetModel, OrientedBox, emit_python, make_instance, metrics, parse_python
from cabinetkit.metrics import (
    DEFAULT_IOU_THRESHOLD,
    _solve_min_cost,
    evaluate_corpus,
    evaluate_sample,
    iou_matrix,
    match,
    param_match,
)
from helpers import brute_force_best_total, random_box_model


@st.composite
def tie_heavy_ious(draw):
    """IoU matrices up to 9 x 9, most entries exactly 0 or 1."""
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    value = st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, 0.5]) | st.floats(0.0, 1.0)
    rows = st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n)
    return np.array(draw(rows), dtype=float).reshape(n, m)


def unit_cube_model(catalog, xs, model_id="M-DOOR"):
    instances = tuple(
        make_instance(catalog, model_id, OrientedBox((x, 0.5, 0.5), (1, 1, 1)))
        for x in xs
    )
    return CabinetModel(instances)


class TestMatch:
    def test_identity_matching(self, catalog):
        model = unit_cube_model(catalog, [0.5, 10.5, 20.5])
        matching = match(model, model)
        assert matching.pairs == ((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0))
        assert matching.unmatched_pred == ()
        assert matching.unmatched_gt == ()

    def test_cardinality_two_vs_three(self, catalog):
        pred = unit_cube_model(catalog, [0.5, 10.5])
        gt = unit_cube_model(catalog, [0.5, 10.5, 20.5])
        matching = match(pred, gt)
        assert len(matching.pairs) == 2
        assert matching.unmatched_pred == ()
        assert matching.unmatched_gt == (2,)

    def test_pairs_have_positive_iou_and_partition_both_sides(self, catalog):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            pred = random_box_model(rng, catalog, n)
            gt = random_box_model(rng, catalog, m)
            matching = match(pred, gt)
            assert all(iou > 0.0 for _, _, iou in matching.pairs)
            used_p = [p for p, _, _ in matching.pairs]
            used_g = [g for _, g, _ in matching.pairs]
            assert sorted(used_p + list(matching.unmatched_pred)) == list(range(n))
            assert sorted(used_g + list(matching.unmatched_gt)) == list(range(m))

    def test_matches_brute_force_small(self, catalog):
        rng = np.random.default_rng(42)
        for _ in range(120):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            pred = random_box_model(rng, catalog, n)
            gt = random_box_model(rng, catalog, m)
            got = sum(iou for _, _, iou in match(pred, gt).pairs)
            best = brute_force_best_total(iou_matrix(pred, gt))
            assert got == best

    def test_matches_scipy(self, catalog):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            pred = random_box_model(rng, catalog, n)
            gt = random_box_model(rng, catalog, m)
            ious = iou_matrix(pred, gt)
            got = sum(iou for _, _, iou in match(pred, gt).pairs)
            rows, cols = linear_sum_assignment(ious, maximize=True)
            assert got == pytest.approx(float(ious[rows, cols].sum()), abs=1e-12)

    def test_identical_ground_truth_boxes_pair_in_row_order(self, catalog):
        # Both predictions overlap both twins; the second one overlaps more.
        twin = OrientedBox((500, 500, 500), (400, 400, 18))
        gt = CabinetModel(
            (make_instance(catalog, "M-SHAD", twin), make_instance(catalog, "M-SHFX", twin))
        )
        pred = CabinetModel(
            (
                make_instance(catalog, "M-SHAD", OrientedBox((530, 500, 500), (400, 400, 18))),
                make_instance(catalog, "M-SHFX", OrientedBox((510, 500, 500), (400, 400, 18))),
            )
        )
        assert [(i, j) for i, j, _ in match(pred, gt).pairs] == [(0, 0), (1, 1)]
        assert evaluate_sample(pred, gt, catalog).retrieval_correct == 2

    def test_identical_prediction_boxes_pair_in_row_order(self, catalog):
        # Both twins overlap both ground truths; the second one overlaps more.
        # The warm start would pair the first twin with the first ground truth.
        twin = OrientedBox((500, 500, 500), (400, 400, 18))
        pred = CabinetModel(
            (make_instance(catalog, "M-SHAD", twin), make_instance(catalog, "M-SHFX", twin))
        )
        gt = CabinetModel(
            (
                make_instance(catalog, "M-SHFX", OrientedBox((530, 500, 500), (400, 400, 18))),
                make_instance(catalog, "M-SHAD", OrientedBox((510, 500, 500), (400, 400, 18))),
            )
        )
        assert [(i, j) for i, j, _ in match(pred, gt).pairs] == [(0, 1), (1, 0)]
        assert evaluate_sample(pred, gt, catalog).retrieval_correct == 2

    @pytest.mark.parametrize("twin_side", ["pred", "gt"])
    def test_identical_boxes_that_overlap_nothing_stay_unmatched(self, catalog, twin_side):
        shared = unit_cube_model(catalog, [0.5])
        twins = unit_cube_model(catalog, [0.5, 50.5, 50.5])
        pred, gt = (twins, shared) if twin_side == "pred" else (shared, twins)
        matching = match(pred, gt)
        assert matching.pairs == ((0, 0, 1.0),)
        unmatched = matching.unmatched_pred if twin_side == "pred" else matching.unmatched_gt
        assert unmatched == (1, 2)

    @pytest.mark.parametrize(
        "pred_xs, gt_xs, warm_start",
        [
            ([0.5, 10.5], [0.5, 10.5, 20.5], True),
            ([0.5, 0.5], [0.5, 10.5], False),
            ([0.5, 10.5], [10.5, 0.5, 10.5], False),
            ([0.5, 0.5], [0.5, 0.5], False),
        ],
        ids=["no-twins", "twin-predictions", "twin-ground-truths", "both"],
    )
    def test_warm_start_only_without_equal_boxes(self, catalog, pred_xs, gt_xs, warm_start):
        seen = []

        def solve(cost, *, warm_start):
            seen.append(warm_start)
            return _solve_min_cost(cost, warm_start=warm_start)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_solve_min_cost", solve)
            match(unit_cube_model(catalog, pred_xs), unit_cube_model(catalog, gt_xs))
        assert seen == [warm_start]

    @pytest.mark.parametrize(
        "ious, expected",
        [([[0.6, 0.9], [0.6, 0.9]], [1, 0]), ([[0.6, 0.6], [0.9, 0.9]], [0, 1])],
        ids=["twin-predictions", "twin-ground-truths"],
    )
    def test_twins_are_searched_in_row_order(self, ious, expected):
        assert _solve_min_cost(1.0 - np.array(ious), warm_start=False) == expected

    @pytest.mark.parametrize("warm_start", [True, False])
    @given(ious=tie_heavy_ious())
    @settings(max_examples=300, deadline=None)
    def test_solver_total_is_optimal_on_tie_heavy_matrices(self, ious, warm_start):
        n, m = ious.shape
        size = max(n, m)
        padded = np.zeros((size, size))
        padded[:n, :m] = ious
        cost = 1.0 - padded
        assignment = _solve_min_cost(cost, warm_start=warm_start)
        assert sorted(assignment) == list(range(size))
        got = sum(cost[i, j] for i, j in enumerate(assignment))
        rows, cols = linear_sum_assignment(cost)
        assert got == pytest.approx(float(cost[rows, cols].sum()), abs=1e-12)
        if size <= 6:
            best_iou = brute_force_best_total(ious)
            assert got == pytest.approx(size - best_iou, abs=1e-12)

    @pytest.mark.parametrize("warm_start", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_solver_rejects_non_finite_costs(self, bad, warm_start):
        cost = np.zeros((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            _solve_min_cost(cost, warm_start=warm_start)


class TestEvaluateSample:
    def test_identity(self, catalog, simple_model):
        report = evaluate_sample(simple_model, simple_model, catalog)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.retrieval_acc == 1.0
        assert report.param_acc == 1.0
        assert report.param_total == report.retrieval_correct

    def test_wrong_ids_keep_f1(self, catalog):
        gt = unit_cube_model(catalog, [0.5, 10.5, 20.5], model_id="M-DOOR")
        pred = unit_cube_model(catalog, [0.5, 10.5, 20.5], model_id="M-SHFX")
        report = evaluate_sample(pred, gt, catalog)
        assert report.f1 == 1.0
        assert report.retrieval_acc == 0.0
        assert report.param_total == 0
        assert report.param_acc is None

    def test_analytic_shifted_cube(self, catalog):
        gt = unit_cube_model(catalog, [0.5, 10.5])
        pred = CabinetModel(
            (
                gt.instances[0],
                make_instance(
                    catalog, "M-DOOR", OrientedBox((11.0, 0.5, 0.5), (1, 1, 1))
                ),
            )
        )
        # shifted cube has IoU 1/3 < 0.5 -> one TP, one FP, one FN
        report = evaluate_sample(pred, gt, catalog)
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert (report.precision, report.recall, report.f1) == (0.5, 0.5, 0.5)

    def test_empty_prediction(self, catalog, simple_model):
        report = evaluate_sample(None, simple_model, catalog)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
        assert report.retrieval_total == 0
        assert report.fn == len(simple_model)

    def test_iou_exactly_at_threshold_is_not_tp(self, catalog):
        # Boxes chosen so IoU is exactly 0.5; the rule is strictly greater.
        gt = CabinetModel(
            (make_instance(catalog, "M-DOOR", OrientedBox((1.0, 0.5, 0.5), (2, 1, 1))),)
        )
        pred = CabinetModel(
            (make_instance(catalog, "M-DOOR", OrientedBox((0.5, 0.5, 0.5), (1, 1, 1))),)
        )
        from cabinetkit import iou3d

        assert iou3d(pred.instances[0].box, gt.instances[0].box) == 0.5
        report = evaluate_sample(pred, gt, catalog, 0.5)
        assert report.tp == 0

    def test_permutation_invariance(self, catalog):
        rng = np.random.default_rng(7)
        pred = random_box_model(rng, catalog, 6)
        gt = random_box_model(rng, catalog, 5)
        base = evaluate_sample(pred, gt, catalog)
        order_p = rng.permutation(len(pred)).tolist()
        order_g = rng.permutation(len(gt)).tolist()
        shuffled = evaluate_sample(
            CabinetModel(tuple(pred.instances[i] for i in order_p)),
            CabinetModel(tuple(gt.instances[j] for j in order_g)),
            catalog,
        )
        for field in ("tp", "fp", "fn", "precision", "recall", "f1",
                      "retrieval_correct", "retrieval_total",
                      "param_correct", "param_total"):
            assert getattr(base, field) == getattr(shuffled, field)

    def test_threshold_monotonicity(self, catalog):
        rng = np.random.default_rng(11)
        pred = random_box_model(rng, catalog, 8)
        gt = random_box_model(rng, catalog, 8)
        previous_tp = None
        for thresh in (0.1, 0.3, 0.5, 0.7, 0.9):
            tp = evaluate_sample(pred, gt, catalog, thresh).tp
            if previous_tp is not None:
                assert tp <= previous_tp
            previous_tp = tp

    def test_metrics_bounded(self, catalog):
        rng = np.random.default_rng(13)
        for _ in range(30):
            pred = random_box_model(rng, catalog, int(rng.integers(1, 8)))
            gt = random_box_model(rng, catalog, int(rng.integers(1, 8)))
            r = evaluate_sample(pred, gt, catalog)
            for value in (r.precision, r.recall, r.f1):
                assert 0.0 <= value <= 1.0

    def test_retrieval_total_counts_tp_pairs_only(self, catalog):
        gt = unit_cube_model(catalog, [0.5, 10.5])
        pred = CabinetModel(
            (
                gt.instances[0],
                make_instance(catalog, "M-DOOR", OrientedBox((11.0, 0.5, 0.5), (1, 1, 1))),
            )
        )
        report = evaluate_sample(pred, gt, catalog)
        # The second pair is matched at IoU 1/3, below the threshold.
        assert len(match(pred, gt).pairs) == 2
        assert (report.tp, report.retrieval_total) == (1, 1)
        with pytest.raises(TypeError):
            evaluate_sample(pred, gt, catalog, retrieval_over_all_pairs=True)


class TestParamMatch:
    def test_equal_maps(self, catalog):
        schema = catalog.require("M-BB01")
        assert param_match({"DBXX": 1}, {"DBXX": 1}, schema)

    def test_enum_mismatch(self, catalog):
        schema = catalog.require("M-BB01")
        assert not param_match({"DBXX": 1}, {"DBXX": 2}, schema)

    def test_length_tolerance(self, catalog):
        schema = catalog.require("M-BB01")
        assert not param_match({"NKA": 300}, {"NKA": 301}, schema)

    def test_key_set_mismatch(self, catalog):
        schema = catalog.require("M-BB01")
        assert not param_match({"N": 1}, {"N": 1, "NKA": 300}, schema)

    def test_int_float_canonicalization(self, catalog):
        schema = catalog.require("M-DRAW")
        assert param_match({"DH": 160}, {"DH": 160.0}, schema)

    def test_int_beyond_float_range_is_scored(self, catalog, simple_model):
        huge = int("9" * 400)
        schema = catalog.require("M-BB01")
        assert not param_match({"NKA": huge}, {"NKA": 560.0}, schema)
        assert param_match({"NKA": huge}, {"NKA": huge}, schema)
        # Lenient parsing keeps such a value with a param-value warning.
        text = emit_python(simple_model, catalog).replace("NKA=560", f"NKA={huge}")
        pred = parse_python(text, catalog).model
        assert pred.instances[0].params["NKA"] == huge
        report = evaluate_sample(pred, simple_model, catalog)
        assert (report.tp, report.retrieval_correct) == (3, 3)
        assert (report.param_correct, report.param_total) == (2, 3)


class TestEvaluateCorpus:
    def test_macro_mean(self, catalog, simple_model):
        other = unit_cube_model(catalog, [0.5, 30.5])
        report = evaluate_corpus(
            [("a", simple_model, simple_model), ("b", None, other)], catalog
        )
        assert report.macro()["f1"] == 0.5
        assert report.parse_failures == 1

    def test_micro_differs_from_macro(self, catalog):
        big = unit_cube_model(catalog, [0.5 + 2 * i for i in range(8)])
        small_gt = unit_cube_model(catalog, [0.5, 100.5])
        small_pred = unit_cube_model(catalog, [0.5, 300.5])
        report = evaluate_corpus(
            [("big", big, big), ("small", small_pred, small_gt)], catalog
        )
        macro, micro = report.macro(), report.micro()
        assert macro["f1"] != micro["f1"]
        data = report.to_dict()
        assert data["schema_version"] == 1
        assert data["totals"]["tp"] == 9

    def test_identity_corpus_is_perfect(self, catalog):
        from cabinetkit import SynthSpec, generate

        pairs = []
        for seed in range(20):
            model = generate(SynthSpec(seed=seed), catalog)
            pairs.append((f"{seed:03d}", model, model))
        report = evaluate_corpus(pairs, catalog)
        for agg in (report.macro(), report.micro()):
            for value in agg.values():
                assert value == 1.0

    def test_order_independence(self, catalog):
        rng = np.random.default_rng(5)
        pairs = []
        for i in range(6):
            pairs.append(
                (f"s{i}", random_box_model(rng, catalog, 4), random_box_model(rng, catalog, 4))
            )
        forward = evaluate_corpus(pairs, catalog).to_dict()
        backward = evaluate_corpus(list(reversed(pairs)), catalog).to_dict()
        assert forward == backward


def test_default_threshold_constant():
    assert DEFAULT_IOU_THRESHOLD == 0.5
