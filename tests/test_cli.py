import json
import re
import shutil
from pathlib import Path

import pytest

from cabinetkit import SynthSpec, emit_python, emit_yaml, generate, save_catalog
from cabinetkit.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def model_file(tmp_path, catalog):
    model = generate(SynthSpec(seed=5), catalog)
    path = tmp_path / "model.py"
    path.write_text(emit_python(model, catalog), encoding="utf-8")
    return path


@pytest.fixture
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--seed", 7, "--count", 4, "--out", out) == 0
    return out


def _copy_with_non_utf8(corpus_dir, out_dir, index):
    """A copy of the corpus whose sample `index` holds a byte that is not UTF-8."""
    out_dir.mkdir()
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    for sample in manifest["samples"]:
        (out_dir / sample["file"]).write_bytes((corpus_dir / sample["file"]).read_bytes())
    broken = out_dir / manifest["samples"][index]["file"]
    broken.write_bytes(b"\xff" + broken.read_bytes())
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    return out_dir


def _put_huge_nka(path):
    """Give the program's NKA parameters a value far beyond the float range."""
    text = path.read_text(encoding="utf-8")
    assert "NKA=" in text
    path.write_text(re.sub(r"NKA=\d+", "NKA=" + "9" * 400, text), encoding="utf-8")


class TestExitCodes:
    def test_valid_file_exits_zero(self, model_file, capsys):
        assert run("validate", model_file, "--filters") == 0
        assert capsys.readouterr().out == ""

    def test_int_beyond_float_range_exits_one(self, model_file, capsys):
        _put_huge_nka(model_file)
        assert run("validate", model_file) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if " error: " in line]
        assert len(errors) == 1 and errors[0].endswith("[param-value]")

    def test_each_catalog_finding_printed_once(self, model_file, capsys):
        text = model_file.read_text(encoding="utf-8")
        model_file.write_text(
            re.sub(r"DBXX=\d+", "DBXX=9, ZZZ=1", text, count=1), encoding="utf-8"
        )
        assert run("validate", model_file) == 1
        err = capsys.readouterr().err.splitlines()
        codes = [line.rsplit("[", 1)[1] for line in err]
        assert codes.count("param-value]") == 1 and codes.count("unknown-param]") == 1
        assert any(" error: instance " in line and "[param-value]" in line for line in err)
        assert any(" warning: instance " in line and "[unknown-param]" in line for line in err)

    def test_python_findings_carry_the_id_span(self, tmp_path, capsys):
        path = tmp_path / "v.py"
        path.write_text(
            "b0 = Box(position=(300, 200, 1000), size=(600, 400, 2000), rotation=0)\n"
            'm0 = Model(id="M-BB01", box=b0, N=1, NKA=564, DBXX=9, ZZZ=1)\n',
            encoding="utf-8",
        )
        assert run("validate", path) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{path}:2:15: error: instance 0: M-BB01: DBXX=9 is not one of (1, 2, 3) [param-value]",
            f"{path}:2:15: warning: instance 0: M-BB01: unknown parameter 'ZZZ' [unknown-param]",
        ]

    def test_yaml_findings_carry_the_id_span(self, tmp_path, catalog, capsys):
        # Laid out as emitted, so read without the node tree; only validate
        # finds the box below the floor.
        model = generate(SynthSpec(seed=5), catalog)
        text = emit_yaml(model, catalog)
        entries = text.split("\n- id: ")
        entries[2] = re.sub(r"position:\n  - [^\n]+\n  - [^\n]+\n  - [^\n]+",
                            "position:\n  - 500\n  - 500\n  - -5000", entries[2])
        path = tmp_path / "v.yaml"
        path.write_text("\n- id: ".join(entries), encoding="utf-8")
        line = text.splitlines().index(f"- id: {model.instances[1].model_id}", 2) + 1
        assert run("validate", path) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"{path}:{line}:7: error: instance 1: box extends outside")

    def test_parse_failure_prints_the_parse_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("b0 = Box(position=(1, 1, 1)\n", encoding="utf-8")
        assert run("validate", path) == 1
        assert capsys.readouterr().err == f"{path}:1:28: error: expected ')' [syntax]\n"

    def test_strict_option_is_gone(self, model_file):
        with pytest.raises(SystemExit) as err:
            run("validate", model_file, "--strict")
        assert err.value.code == 2

    def test_overlong_model_exits_one(self, tmp_path, catalog, capsys):
        lines = []
        for i in range(49):
            lines.append(
                f"box_{i} = Box(position=({100 + i * 40}, 100, 100), "
                f"size=(30, 30, 30), rotation=0)"
            )
            lines.append(f'model_{i} = Model(id="M-SHFX", box=box_{i})')
        path = tmp_path / "big.py"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("validate", path, "--filters") == 1
        assert "filter-count" in capsys.readouterr().err
        assert run("validate", path) == 0  # filters off

    @pytest.mark.parametrize("command, outputs", [
        ("validate", []),
        ("convert", ["out.yaml", "--to", "yaml"]),
        ("render", ["out.svg"]),
    ])
    def test_input_format_option_is_gone(self, command, outputs, model_file):
        with pytest.raises(SystemExit) as err:
            run(command, model_file, *outputs, "--format", "python")
        assert err.value.code == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert run("validate", tmp_path / "nope.py") == 2

    def test_unknown_convert_target_exits_two(self, model_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("convert", model_file, tmp_path / "out.x", "--to", "nonsense")
        assert err.value.code == 2

    def test_zero_count_synth_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("synth", "--seed", 1, "--count", 0, "--out", tmp_path / "c")
        assert err.value.code == 2


class TestConvert:
    def test_python_yaml_python_round_trip(self, model_file, tmp_path, catalog):
        yaml_path = tmp_path / "m.yaml"
        back_path = tmp_path / "m2.py"
        assert run("convert", model_file, yaml_path, "--to", "yaml") == 0
        assert run("convert", yaml_path, back_path, "--to", "python") == 0
        assert back_path.read_text() == model_file.read_text()

    def test_commands_output(self, model_file, tmp_path):
        out = tmp_path / "m.cmds"
        assert run("convert", model_file, out, "--to", "commands") == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "<s>" and lines[-1] == "</s>"
        assert all(len(l.split()) == 8 for l in lines[1:-1])

    def test_line_break_to_python_exits_two(self, tmp_path, catalog, capsys):
        # A YAML string may hold an escaped line break; the Python syntax cannot.
        model = generate(SynthSpec(seed=5), catalog)
        source = tmp_path / "model.yaml"
        text = emit_yaml(model, catalog).replace("id: M-BB01", 'id: "M-BB01\\nX"', 1)
        source.write_text(text, encoding="utf-8")
        out = tmp_path / "model.py"
        assert run("convert", source, out, "--to", "python") == 2
        err = capsys.readouterr().err
        assert "error: cannot emit a line break in a Python string: 'M-BB01\\nX'" in err
        assert not out.exists()

    def test_dropped_name_to_python_warns(self, tmp_path, catalog, capsys):
        model = generate(SynthSpec(seed=5), catalog)
        source = tmp_path / "model.yaml"
        text = emit_yaml(model, catalog)
        source.write_text(text.replace("  name: base box\n", "  name: fid shelf\n", 1), encoding="utf-8")
        out = tmp_path / "model.py"
        assert run("convert", source, out, "--to", "python") == 0
        assert capsys.readouterr().err == (
            f"{source}:2:7: warning: instance 0: name 'fid shelf' is not kept by the Python "
            "syntax [name-dropped]\n"
        )
        assert out.read_text(encoding="utf-8") == emit_python(model, catalog)

    def test_malformed_input_exits_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("this is not a shape program\n", encoding="utf-8")
        assert run("convert", bad, tmp_path / "out.yaml", "--to", "yaml") == 1

    def test_unknown_model_id_to_commands_exits_one(self, model_file, tmp_path, capsys):
        # Lenient parsing keeps the ID with a warning; it has no command slot.
        text = model_file.read_text(encoding="utf-8").replace('id="M-BB01"', 'id="M-NOPE"')
        model_file.write_text(text, encoding="utf-8")
        out = tmp_path / "m.cmds"
        assert run("convert", model_file, out, "--to", "commands") == 1
        assert "error: cannot encode commands: unknown model_id 'M-NOPE' [unknown-model]" in capsys.readouterr().err
        assert not out.exists()


class TestRender:
    def test_deterministic_output(self, model_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        flags = ["--noise-seed", 9, "--p-drop", 0.1, "--jitter", 1.5]
        assert run("render", model_file, a, *flags) == 0
        assert run("render", model_file, b, *flags) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_geometry_only_layer(self, model_file, tmp_path):
        out = tmp_path / "geo.svg"
        assert run("render", model_file, out, "--layers", "geometry") == 0
        svg = out.read_text()
        assert '<g id="geometry"' in svg
        assert '<g id="annotation"' not in svg

    def test_default_canvas_512(self, model_file, tmp_path):
        out = tmp_path / "c.svg"
        assert run("render", model_file, out) == 0
        assert 'viewBox="0 0 512 512"' in out.read_text()

    def test_single_view(self, model_file, tmp_path):
        out = tmp_path / "f.svg"
        assert run("render", model_file, out, "--views", "front") == 0
        assert out.exists()

    def test_unknown_layer_exits_two(self, model_file, tmp_path, capsys):
        assert run("render", model_file, tmp_path / "x.svg", "--layers", "wires") == 2
        assert capsys.readouterr().err == "error: unknown layers: wires\n"
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("jitter", ["inf", "nan"])
    def test_non_finite_jitter_exits_two(self, model_file, tmp_path, capsys, jitter):
        out = tmp_path / "x.svg"
        assert run("render", model_file, out, "--noise-seed", 1, "--jitter", jitter) == 2
        assert capsys.readouterr().err == (
            f"error: jitter_sigma must lie in [0, 1e+06] mm, got {jitter}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("views, message", [
        (",", "a sheet holds between 1 and 5 views"),
        ("front,top,side,section,front,top", "a sheet holds between 1 and 5 views"),
        ("front,wat", "unknown view kind 'wat'"),
    ])
    def test_bad_view_list_exits_two(self, model_file, tmp_path, capsys, views, message):
        out = tmp_path / "x.svg"
        assert run("render", model_file, out, "--views", views) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--canvas=512", "--section-cut=5"])
    def test_removed_options_exit_two(self, model_file, tmp_path, capsys, option):
        out = tmp_path / "x.svg"
        with pytest.raises(SystemExit) as err:
            run("render", model_file, out, option)
        assert err.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not out.exists()

    def test_catalog_findings_are_left_to_validate(self, tmp_path, capsys):
        path = tmp_path / "v.py"
        path.write_text(
            "b0 = Box(position=(300, 200, 1000), size=(600, 400, 2000), rotation=0)\n"
            'm0 = Model(id="M-MYSTERY", box=b0, ZZZ=1)\n',
            encoding="utf-8",
        )
        assert run("render", path, tmp_path / "x.svg") == 0
        assert run("convert", path, tmp_path / "x.yaml", "--to", "yaml") == 0
        assert capsys.readouterr().err == ""
        assert run("validate", path) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{path}:2:15: error: instance 0: unknown model ID 'M-MYSTERY' [unknown-model]",
        ]


class TestSynthAndStats:
    def test_synth_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--seed", 7, "--count", 10, "--out", a) == 0
        assert run("synth", "--seed", 7, "--count", 10, "--out", b) == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_contents(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert len(manifest["samples"]) == 4
        assert manifest["samples"][0] == {"id": "000000", "file": "000000.py", "seed": 7}

    def test_stats_output(self, corpus_dir, capsys):
        assert run("stats", "--in", corpus_dir) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_models"] == 4
        assert all(0 <= int(k) <= 8 for k in data["params_per_primitive"])

    def test_stats_skips_non_utf8_file(self, corpus_dir, tmp_path, capsys):
        broken = _copy_with_non_utf8(corpus_dir, tmp_path / "c", index=0)
        assert run("stats", "--in", broken) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["n_models"] == 3
        assert captured.err == "sample '000000' failed to parse; skipping\n"

    def test_yaml_corpus(self, tmp_path):
        out = tmp_path / "y"
        assert run("synth", "--seed", 3, "--count", 2, "--out", out, "--format", "yaml") == 0
        assert (out / "000000.yaml").exists()
        assert run("stats", "--in", out) == 0


class TestEval:
    def test_identity_eval(self, corpus_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run("eval", "--pred", corpus_dir, "--gt", corpus_dir,
                   "--out", report_path) == 0
        out = capsys.readouterr().out
        assert "100.00" in out
        report = json.loads(report_path.read_text())
        assert report["micro"]["f1"] == 1.0
        assert report["macro"]["param_acc"] == 1.0
        assert report["iou_threshold"] == 0.5

    @pytest.mark.parametrize("iou", ["nan", "inf", "-0.5", "1.5"])
    def test_threshold_outside_unit_interval_exits_two(self, corpus_dir, tmp_path, capsys, iou):
        report_path = tmp_path / "report.json"
        assert run("eval", "--pred", corpus_dir, "--gt", corpus_dir, "--iou", iou,
                   "--out", report_path) == 2
        assert capsys.readouterr().err == (
            f"error: iou_thresh must lie in [0, 1], got {float(iou)!r}\n"
        )
        assert not report_path.exists()

    def test_higher_threshold_never_higher_f1(self, corpus_dir, tmp_path):
        noisy = tmp_path / "noisy"
        import numpy as np

        from cabinetkit import PerturbSpec, builtin_catalog, corpus as corpus_mod, parse_python, perturb

        catalog = builtin_catalog()
        samples = corpus_mod.read_corpus(corpus_dir, catalog)
        perturbed = []
        for i, (sid, result) in enumerate(samples):
            spec = PerturbSpec(seed=i, pos_sigma_mm=30.0)
            perturbed.append((sid, perturb(result.model, spec, catalog)))
        corpus_mod.write_corpus(noisy, perturbed, catalog)

        r50, r90 = tmp_path / "r50.json", tmp_path / "r90.json"
        assert run("eval", "--pred", noisy, "--gt", corpus_dir, "--iou", 0.5,
                   "--out", r50) == 0
        assert run("eval", "--pred", noisy, "--gt", corpus_dir, "--iou", 0.9,
                   "--out", r90) == 0
        f1_50 = json.loads(r50.read_text())["micro"]["f1"]
        f1_90 = json.loads(r90.read_text())["micro"]["f1"]
        assert f1_90 <= f1_50

    def test_drop_rate_matches_analytic_recall(self, corpus_dir, tmp_path):
        from cabinetkit import PerturbSpec, builtin_catalog, corpus as corpus_mod, perturb

        catalog = builtin_catalog()
        samples = corpus_mod.read_corpus(corpus_dir, catalog)
        rate = 0.25
        perturbed = []
        expected_tp = 0
        expected_gt = 0
        for i, (sid, result) in enumerate(samples):
            n = len(result.model)
            drops = min(round(rate * n), n - 1)
            expected_tp += n - drops
            expected_gt += n
            perturbed.append(
                (sid, perturb(result.model, PerturbSpec(seed=i, drop_rate=rate), catalog))
            )
        dropped_dir = tmp_path / "dropped"
        corpus_mod.write_corpus(dropped_dir, perturbed, catalog)
        out = tmp_path / "drop_report.json"
        assert run("eval", "--pred", dropped_dir, "--gt", corpus_dir, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["micro"]["precision"] == 1.0
        assert report["micro"]["recall"] == expected_tp / expected_gt

    def test_id_mismatch_exits_one(self, corpus_dir, tmp_path, capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        for sample in manifest["samples"][:2]:
            (partial / sample["file"]).write_bytes(
                (corpus_dir / sample["file"]).read_bytes()
            )
        manifest["samples"] = manifest["samples"][:2]
        (partial / "manifest.json").write_text(json.dumps(manifest))
        assert run("eval", "--pred", partial, "--gt", corpus_dir) == 1
        assert "missing" in capsys.readouterr().err

    def test_eval_report_deterministic(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("eval", "--pred", corpus_dir, "--gt", corpus_dir, "--out", a) == 0
        assert run("eval", "--pred", corpus_dir, "--gt", corpus_dir, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unparsable_ground_truth_mid_corpus_exits_one(self, corpus_dir, tmp_path, capsys):
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        for sample in manifest["samples"]:
            (gt_dir / sample["file"]).write_bytes((corpus_dir / sample["file"]).read_bytes())
        broken = manifest["samples"][2]
        (gt_dir / broken["file"]).write_text("b0 = Box(\n", encoding="utf-8")
        (gt_dir / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "report.json"
        assert run("eval", "--pred", corpus_dir, "--gt", gt_dir, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"ground truth {broken['id']!r} failed to parse:",
            "  1:10: error: expected Box argument name [syntax]",
        ]
        assert captured.out == ""
        assert not out.exists()

    def test_non_utf8_prediction_counts_as_parse_failure(self, corpus_dir, tmp_path, capsys):
        pred_dir = _copy_with_non_utf8(corpus_dir, tmp_path / "pred", index=1)
        out = tmp_path / "report.json"
        assert run("eval", "--pred", pred_dir, "--gt", corpus_dir, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["parse_failures"] == 1
        assert [s["parse_failed"] for s in report["samples"]] == [False, True, False, False]
        assert "parse failures: 1" in capsys.readouterr().out

    def test_empty_model_id_counts_as_parse_failure(self, corpus_dir, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        shutil.copytree(corpus_dir, pred_dir)
        broken = pred_dir / "000002.py"
        broken.write_text(
            broken.read_text(encoding="utf-8").replace('id="M-BB01"', 'id=""'), encoding="utf-8"
        )
        out = tmp_path / "report.json"
        assert run("eval", "--pred", pred_dir, "--gt", corpus_dir, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["parse_failures"] == 1
        assert [s["parse_failed"] for s in report["samples"]] == [False, False, True, False]

    def test_int_beyond_float_range_is_scored(self, corpus_dir, tmp_path):
        pred_dir = tmp_path / "pred"
        shutil.copytree(corpus_dir, pred_dir)
        _put_huge_nka(pred_dir / "000000.py")
        out = tmp_path / "report.json"
        assert run("eval", "--pred", pred_dir, "--gt", corpus_dir, "--out", out) == 0
        totals = json.loads(out.read_text())["totals"]
        assert totals["param_correct"] == totals["param_total"] - 1

    def test_retrieval_over_all_pairs_option_is_gone(self, corpus_dir):
        with pytest.raises(SystemExit) as err:
            run("eval", "--pred", corpus_dir, "--gt", corpus_dir, "--retrieval-over-all-pairs")
        assert err.value.code == 2

    def test_jobs_option_is_gone(self, corpus_dir):
        with pytest.raises(SystemExit) as err:
            run("eval", "--pred", corpus_dir, "--gt", corpus_dir, "--jobs", 2)
        assert err.value.code == 2


class TestFormatDetection:
    """A program's syntax comes from its suffix, else from its first line of content."""

    @pytest.mark.parametrize("head", ["# a comment\n", "\n  \n# one\n  # two\n\n", "\ufeff",
                                      "\ufeff# a byte order mark, then a comment\n"])
    def test_leading_comments_and_blank_lines_are_skipped(self, head, tmp_path, catalog, capsys):
        model = generate(SynthSpec(seed=5), catalog)
        yaml_path, python_path = tmp_path / "m.txt", tmp_path / "p.txt"
        yaml_path.write_text(head + emit_yaml(model, catalog), encoding="utf-8")
        python_path.write_text(head + emit_python(model, catalog), encoding="utf-8")
        for path in (yaml_path, python_path):
            assert run("validate", path, "--filters") == 0
            assert run("render", path, tmp_path / "out.svg") == 0
            assert run("convert", path, tmp_path / "out.yaml", "--to", "yaml") == 0
        assert capsys.readouterr().err == ""

    def test_a_file_of_comments_reads_as_python(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# cabinet:\n", encoding="utf-8")
        assert run("validate", path) == 1
        assert capsys.readouterr().err == f"{path}:error: program defines no primitives [empty]\n"


# Each numeric option of each subcommand meets these values. A huge --count
# really asks for that many files, so --count gets only values that are not
# positive integers.
_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e18", "1e308", str(2**64)]
_NUMERIC_RUNS = (
    [("render", option, value)
     for option in ("--noise-seed", "--p-drop", "--jitter", "--p-spurious")
     for value in _NUMBERS]
    + [("eval", "--iou", value) for value in _NUMBERS]
    + [("synth", "--seed", value) for value in _NUMBERS]
    + [("synth", "--count", value) for value in _NUMBERS if value != str(2**64)]
)


class TestNumericOptions:
    """A numeric option either exits 2 naming its value, or writes only finite numbers."""

    @pytest.mark.parametrize("command, option, value", _NUMERIC_RUNS)
    def test_value_is_named_or_output_is_finite(self, command, option, value, model_file,
                                                tmp_path, capsys):
        out = tmp_path / "out"
        if command == "render":
            argv = ["render", model_file, out, f"{option}={value}"]
            if option != "--noise-seed":  # the rates apply only to a noisy drawing
                argv += ["--noise-seed", 1]
        elif command == "eval":
            corpus = tmp_path / "corpus"
            assert run("synth", "--count", 2, "--out", corpus) == 0
            argv = ["eval", "--pred", corpus, "--gt", corpus, f"{option}={value}", "--out", out]
        else:
            argv = ["synth", "--out", out, f"{option}={value}"]
            if option != "--count":
                argv += ["--count", 1]
        capsys.readouterr()
        try:
            code = run(*argv)
        except SystemExit as exc:  # argparse rejects a value its type does not read
            code = exc.code
        captured = capsys.readouterr()
        if code == 2:
            assert value in captured.err or repr(float(value)) in captured.err, captured.err
            return
        assert code == 0, captured.err
        written = [captured.out.replace(str(tmp_path), "")]
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        written += [path.read_text(encoding="utf-8") for path in files]
        for text in written:
            assert "nan" not in text.lower() and "inf" not in text.lower()


def _box_texts(position, size):
    """One `M-SIDE` box in both syntaxes: (suffix, text, offset of each argument's value)."""
    python = f"b0 = Box(position=({position}), size=({size}), rotation=0.5)\n" 'm0 = Model(id="M-SIDE", box=b0)\n'
    yaml = f"cabinet:\n- id: M-SIDE\n  position: [{position}]\n  size: [{size}]\n  rotation: 0.5\n"
    return [
        (".py", python, {"position": python.index("position=") + 9, "size": python.index("size=") + 5}),
        (".yaml", yaml, {"position": yaml.index("position: ") + 10, "size": yaml.index("size: ") + 6}),
    ]


class TestBoxDomain:
    """Boxes outside the domain are a syntax error at their argument, never a traceback."""

    TALL = "1" + "0" * 40  # 1e40 mm
    DEEP = "1" + "0" * 300  # 1e300 mm
    FAR = "1" + "0" * 20  # 1e20 mm
    FARTHEST = "1" + "0" * 308  # 1e308 mm

    @pytest.mark.parametrize("command", ["validate", "render"])
    @pytest.mark.parametrize("position, size, argument", [
        ("9, 300, 900", f"18, 600, {TALL}", "size"),
        ("9, 300, 900", f"18, {DEEP}, 1800", "size"),
        (f"{FAR}, 300, 900", "18, 400, 2000", "position"),
        (f"9, {FARTHEST}, 900", "18, 400, 2000", "position"),
    ], ids=["1e40-tall", "1e300-deep", "x-1e20", "y-1e308"])
    def test_out_of_domain_box_exits_one_at_its_argument(self, command, position, size, argument,
                                                         tmp_path, capsys):
        for suffix, text, offsets in _box_texts(position, size):
            path = tmp_path / f"m{suffix}"
            path.write_text(text, encoding="utf-8")
            args = [path] if command == "validate" else [path, tmp_path / "out.svg"]
            assert run(command, *args) == 1
            offset = offsets[argument]
            line = text.count("\n", 0, offset) + 1
            column = offset - (text.rfind("\n", 0, offset) + 1) + 1
            [message] = capsys.readouterr().err.splitlines()
            assert message.startswith(f"{path}:{line}:{column}: error: {argument} out of domain")
            assert message.endswith("[syntax]")


class TestCatalogFlag:
    def test_custom_catalog_via_flag_and_env(self, tmp_path, catalog, model_file, monkeypatch):
        catalog_path = tmp_path / "cat.yaml"
        catalog_path.write_text(save_catalog(catalog), encoding="utf-8")
        assert run("validate", model_file, "--catalog", catalog_path) == 0
        monkeypatch.setenv("CABINET_CATALOG", str(catalog_path))
        assert run("validate", model_file) == 0
        monkeypatch.setenv("CABINET_CATALOG", str(tmp_path / "missing.yaml"))
        assert run("validate", model_file) == 2
