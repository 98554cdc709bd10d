import re

import numpy as np
import pytest

from cabinetkit import (
    CabinetModel,
    OrientedBox,
    PerturbSpec,
    SynthSpec,
    decode,
    emit_python,
    emit_yaml,
    encode,
    evaluate_sample,
    generate,
    iou3d,
    make_instance,
    parse_python,
    parse_yaml,
    perturb,
    stats,
    validate,
)
from cabinetkit.catalog import validate_params
from cabinetkit.diagnostics import has_errors
from cabinetkit.geometry import MAX_MM


class TestGenerate:
    def test_deterministic(self, catalog):
        spec = SynthSpec(seed=123)
        assert generate(spec, catalog) == generate(spec, catalog)

    def test_different_seeds_differ(self, catalog):
        assert generate(SynthSpec(seed=1), catalog) != generate(SynthSpec(seed=2), catalog)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            SynthSpec(seed=-1)

    def test_validates_with_filters(self, catalog):
        for seed in range(1000):
            model = generate(SynthSpec(seed=seed), catalog)
            diags = validate(model, catalog, filters=True)
            assert diags == [], (seed, diags[:2])

    def test_base_box_params_exact(self, catalog):
        for seed in range(50):
            model = generate(SynthSpec(seed=seed), catalog)
            base = model.instances[0]
            assert base.model_id == "M-BB01"
            schema = catalog.require("M-BB01")
            assert validate_params(schema, base.params) == []
            n = base.params["N"]
            widths = [v for k, v in base.params.items() if k.startswith("NK")]
            assert len(widths) == n
            # widths plus dividers close exactly onto the interior width
            interior = base.box.size[0] - 2 * catalog.divider_thickness_mm
            assert sum(widths) + (n - 1) * catalog.divider_thickness_mm == interior

    def test_count_range_honored(self, catalog):
        for lo, hi in ((1, 48), (4, 6), (10, 12)):
            for seed in range(12):
                model = generate(SynthSpec(seed=seed, count_range=(lo, hi)), catalog)
                assert lo <= len(model) <= hi

    def test_contents_do_not_overlap(self, catalog):
        # Interior parts may share faces but not volume; the base box is the
        # enclosing shell and is exempt.
        for seed in range(25):
            model = generate(SynthSpec(seed=seed), catalog)
            parts = [i for i in model.instances if i.model_id != "M-BB01"]
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert iou3d(parts[i].box, parts[j].box) == 0.0, (
                        seed, parts[i], parts[j],
                    )

    def test_round_trips_and_codec(self, catalog):
        for seed in range(30):
            model = generate(SynthSpec(seed=seed), catalog)
            assert parse_python(emit_python(model, catalog), catalog).model == model
            assert parse_yaml(emit_yaml(model, catalog), catalog).model == model
            decoded = decode(encode(model, catalog), catalog)
            diags = validate(decoded, catalog, filters=True)
            assert not has_errors(diags), (seed, diags[:2])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(count_range=(0, 10))
        with pytest.raises(ValueError):
            SynthSpec(count_range=(5, 100))


class TestPerturb:
    def test_identity(self, catalog):
        model = generate(SynthSpec(seed=5), catalog)
        assert perturb(model, PerturbSpec(seed=0), catalog) == model

    def test_id_swap_decouples_metrics(self, catalog):
        model = generate(SynthSpec(seed=5), catalog)
        swapped = perturb(model, PerturbSpec(seed=1, id_swap_rate=1.0), catalog)
        report = evaluate_sample(swapped, model, catalog)
        assert report.f1 == 1.0
        assert report.retrieval_acc == 0.0
        assert report.param_total == 0

    def test_drop_one_of_four(self, catalog):
        model = generate(SynthSpec(seed=2, count_range=(4, 4)), catalog)
        assert len(model) == 4
        dropped = perturb(model, PerturbSpec(seed=3, drop_rate=0.25), catalog)
        assert len(dropped) == 3
        report = evaluate_sample(dropped, model, catalog)
        assert report.recall == 0.75
        assert report.precision == 1.0

    def test_never_drops_all(self, catalog):
        model = generate(SynthSpec(seed=2, count_range=(4, 4)), catalog)
        survived = perturb(model, PerturbSpec(seed=3, drop_rate=1.0), catalog)
        assert len(survived) == 1

    def test_param_corruption_hits_param_accuracy(self, catalog):
        model = generate(SynthSpec(seed=8), catalog)
        corrupted = perturb(model, PerturbSpec(seed=4, param_corrupt_rate=1.0), catalog)
        report = evaluate_sample(corrupted, model, catalog)
        assert report.f1 == 1.0
        assert report.retrieval_acc == 1.0
        assert report.param_acc < 1.0

    def test_additions_lower_precision(self, catalog):
        model = generate(SynthSpec(seed=9, count_range=(8, 12)), catalog)
        more = perturb(model, PerturbSpec(seed=5, add_rate=0.5), catalog)
        assert len(more) > len(model)
        report = evaluate_sample(more, model, catalog)
        assert report.recall == 1.0
        assert report.precision < 1.0

    def test_jitter_determinism(self, catalog):
        model = generate(SynthSpec(seed=5), catalog)
        spec = PerturbSpec(seed=7, pos_sigma_mm=10.0)
        assert perturb(model, spec, catalog) == perturb(model, spec, catalog)
        other = PerturbSpec(seed=8, pos_sigma_mm=10.0)
        assert perturb(model, spec, catalog) != perturb(model, other, catalog)

    def test_size_sigma_is_gone(self):
        with pytest.raises(TypeError):
            PerturbSpec(size_sigma_mm=5.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0, 1e7])
    def test_pos_sigma_outside_the_box_domain_rejected(self, sigma):
        message = f"pos_sigma_mm must lie in [0, 1e+06] mm, got {sigma!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PerturbSpec(pos_sigma_mm=sigma)

    @pytest.mark.parametrize("name", ["id_swap_rate", "drop_rate", "add_rate", "param_corrupt_rate"])
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -0.1, 1.5])
    def test_rate_outside_the_unit_interval_names_field_and_value(self, name, rate):
        message = f"{name} must lie in [0, 1], got {rate!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PerturbSpec(**{name: rate})

    def test_wide_jitter_keeps_boxes_in_the_domain(self, catalog):
        model = generate(SynthSpec(seed=0), catalog)
        jittered = perturb(model, PerturbSpec(seed=0, pos_sigma_mm=MAX_MM), catalog)
        positions = [p for inst in jittered.instances for p in inst.box.position]
        assert len(jittered.instances) == len(model.instances)
        assert MAX_MM in map(abs, positions)

    def test_jitter_clamps_only_components_past_the_edge(self, catalog):
        edge = OrientedBox((999995.0, 300.0, 900.0), (18.0, 400.0, 2000.0))
        model = CabinetModel((make_instance(catalog, "M-SIDE", edge),))
        jittered = perturb(model, PerturbSpec(seed=3, pos_sigma_mm=10.0), catalog)
        _, dy, dz = np.random.default_rng(3).normal(0.0, 10.0, size=3)  # dx is past 5 mm
        assert jittered.instances[0].box.position == (MAX_MM, 300.0 + dy, 900.0 + dz)

    @pytest.mark.parametrize("seed", [1, 4, 5])
    def test_added_boxes_stay_in_the_domain(self, catalog, seed):
        # The model's bounds reach 1.5e6 mm in x, past the position domain.
        edge = OrientedBox((MAX_MM, 300.0, 900.0), (MAX_MM, 400.0, 2000.0))
        model = CabinetModel((make_instance(catalog, "M-SIDE", edge),))
        more = perturb(model, PerturbSpec(seed=seed, add_rate=1.0), catalog)
        assert more.instances[0] == model.instances[0]
        assert len(more.instances) == 2
        assert more.instances[1].box.position[0] == MAX_MM



class TestStats:
    def test_single_model_histogram(self, catalog):
        model = generate(SynthSpec(seed=1, count_range=(5, 5)), catalog)
        result = stats([model])
        assert result.primitives_per_cabinet == {5: 1}
        assert result.n_models == 1

    def test_param_counts_within_schema_bound(self, catalog):
        models = [generate(SynthSpec(seed=s), catalog) for s in range(40)]
        result = stats(models)
        assert all(0 <= k <= 8 for k in result.params_per_primitive)
        assert sum(result.primitives_per_cabinet.values()) == 40
        assert result.unique_primitives <= len(catalog)

    def test_order_independent(self, catalog):
        models = [generate(SynthSpec(seed=s), catalog) for s in range(10)]
        forward = stats(models).to_dict()
        backward = stats(list(reversed(models))).to_dict()
        assert forward == backward

    def test_histogram_mass_equals_corpus_size(self, catalog):
        models = [generate(SynthSpec(seed=s), catalog) for s in range(15)]
        result = stats(models)
        assert sum(result.primitives_per_cabinet.values()) == 15
        total_instances = sum(len(m) for m in models)
        assert sum(result.params_per_primitive.values()) == total_instances

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            stats([])
