import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from airyflow import cli, geometry, harness, schemes
from airyflow.errors import (
    InvalidParameter,
    NonCommensurateTime,
    ParseError,
    StudyFailed,
    UnknownShape,
    ValidationError,
)
from airyflow.harness import (
    ConvergenceStudyConfig,
    RunConfig,
    format_float,
    parse_config,
    preset_config,
    run_convergence_study,
    run_experiment,
    run_filter_study,
)
from airyflow.schemes import SchemeConfig

MINIMAL = """
# reference evolution
shape = ellipse
a = 1
b = 0.5
n = 512
dt = 5e-4
t_final = 2
scheme = cnadb
"""


class TestParseConfig:
    def test_minimal_ellipse_accepted(self):
        cfg = parse_config(MINIMAL)
        assert isinstance(cfg, RunConfig)
        assert cfg.shape == "ellipse" and cfg.shape_params == {"a": 1.0, "b": 0.5}
        assert cfg.n == 512 and cfg.dt == 5e-4 and cfg.scheme == "cnadb"
        assert cfg.steps == 4000
        # defaults resolved
        assert cfg.snapshot_stride == 4000
        assert cfg.diagnostic_stride == 8

    def test_zero_dt_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("shape = circle\nn = 32\ndt = 0\nt_final = 1\n")

    def test_non_commensurate_time_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("shape = circle\nn = 32\ndt = 1e-3\nt_final = 3.00000049\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_config("shape = circle\nnonsense line\n")
        assert err.value.line == 2

    def test_bad_number_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_config("shape = circle\nn = 32\ndt = fast\nt_final = 1\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("key, value", [
        ("t_final", "inf"), ("t_final", "nan"), ("dt", "inf"), ("dt", "-inf"),
        ("closure_tol", "nan"), ("a", "nan"), ("a", "inf"),
    ])
    def test_non_finite_number_is_parse_error(self, key, value):
        settings = dict(shape="ellipse", a="1", b="0.5", n="64", dt="1e-3", t_final="0.01")
        settings[key] = value
        text = "".join(f"{k} = {v}\n" for k, v in settings.items())
        with pytest.raises(ParseError, match=f"{key} expects a finite number") as err:
            parse_config(text)
        assert err.value.line == list(settings).index(key) + 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "colour = blue\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "n = 256\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("\n# header\nshape = circle  # trailing\nn = 32\ndt = 1e-2\nt_final = 0.1\n")
        assert cfg.shape == "circle"

    def test_converge_kind(self):
        text = MINIMAL + "kind = converge\naxis = time\nt0 = 0.92\ndt_ignored_not_a_key = 1"
        with pytest.raises(ValidationError):
            parse_config(text)  # unknown key still rejected
        study = parse_config(MINIMAL + "kind = converge\naxis = time\nt0 = 0.92\n")
        assert isinstance(study, ConvergenceStudyConfig)
        assert study.axis == "time" and study.comparison_time == 0.92

    @pytest.mark.parametrize("t_final", ["", "t_final = 7\n"], ids=["unset", "set"])
    def test_converge_levels_run_to_t0(self, t_final):
        # t_final is optional under kind = converge: every level runs to t0
        study = parse_config("kind = converge\naxis = time\nt0 = 0.1\nshape = circle\n"
                             f"n = 32\ndt = 1e-2\n{t_final}")
        assert isinstance(study, ConvergenceStudyConfig)
        assert [cfg.t_final for cfg in study.level_configs()] == [0.1, 0.1, 0.1]
        assert [cfg.steps for cfg in study.level_configs()] == [10, 20, 40]

    def test_converge_requires_axis_and_t0(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "kind = converge\n")

    def test_t0_incommensurate_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "kind = converge\naxis = time\nt0 = 0.9213\n")

    def test_t0_incommensurate_named_without_t_final(self):
        # without t_final every level runs to t0, so the error names t0
        with pytest.raises(NonCommensurateTime, match=r"^t0 spans 0\.10025, not a whole"):
            parse_config("kind = converge\naxis = time\nt0 = 0.10025\nshape = circle\n"
                         "n = 32\ndt = 1e-2")

    @pytest.mark.parametrize("key, stride", [("diagnostic_stride", 2.5),
                                             ("snapshot_stride", -1)])
    def test_bad_stride_rejected_naming_it(self, key, stride):
        with pytest.raises(ValidationError, match=f"{key} must be an integer >= 1, got {stride}"):
            RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5}, n=64, dt=1e-3,
                      t_final=0.05, scheme="cnadb", **{key: stride})

    @pytest.mark.parametrize("shape, params, error", [
        ("triangle", {}, UnknownShape),
        ("ellipse", {"m": 3}, InvalidParameter),
    ], ids=["unknown", "ellipse-m"])
    def test_bad_shape_rejected_when_built(self, shape, params, error, tmp_path, capsys):
        with pytest.raises(error):
            RunConfig(shape=shape, shape_params=params, n=32, dt=1e-2, t_final=0.1,
                      scheme="cnadb")
        config = tmp_path / "run.txt"
        config.write_text(f"shape = {shape}\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
                          + "n = 32\ndt = 1e-2\nt_final = 0.1\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err and not out.exists()

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("shape = circle\nn = 100\ndt = 1e-2\nt_final = 0.1\n")

    def test_readme_grammar_block(self):
        # README's config-grammar block parses, names every key of the
        # grammar, and the lines it marks "(default)" set the defaults
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config grammar", 1)[1].split("\n### ", 1)[0]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(block)
        assert isinstance(cfg, RunConfig) and cfg.shape == "ellipse" and cfg.steps == 4000
        for key in harness._KNOWN_KEYS:
            assert re.search(rf"\b{key}\b", section), f"README grammar omits {key!r}"
        marked = [line for line in block.splitlines() if "(default)" in line]
        assert {line.split("=")[0].strip() for line in marked} == {
            "kind", "scheme", "filter", "closure_tol"}
        unset = "\n".join(line for line in block.splitlines() if line not in marked)
        assert parse_config(unset) == cfg

    def test_readme_cli_block(self):
        # every command line of README's CLI block parses, optional
        # "[...]" parts included
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## CLI", 1)[1].split("\n### ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0] for line in block.splitlines()]
        commands = [re.sub(r"\[([^]]*)\]", r"\1", line).split()
                    for line in lines if line.startswith("airyflow ")]
        assert len(commands) == len(block.splitlines())
        for words in commands:
            args = cli.build_parser().parse_args(words[1:])
            assert args.command == words[1]


class TestPresets:
    def test_catalog_of_presets(self):
        for name in ("E", "E1", "E2", "PC3", "CARDIOID"):
            cfg = preset_config(name)
            assert cfg.steps > 0

    def test_reference_preset_values(self):
        cfg = preset_config("E")
        assert cfg.shape == "ellipse" and cfg.shape_params["b"] == 0.5
        assert cfg.n == 512 and cfg.dt == 5e-4 and cfg.t_final == 2.0
        pc3 = preset_config("PC3")
        assert pc3.shape == "pc3" and pc3.dt == 5e-6 and pc3.t_final == 4.5

    def test_extended_flags(self):
        assert not harness.is_extended_preset("E")
        assert harness.is_extended_preset("pc3")
        assert harness.is_extended_preset("CARDIOID")

    def test_overrides(self):
        cfg = preset_config("E", dt=1e-3, t_final=0.5)
        assert cfg.dt == 1e-3 and cfg.t_final == 0.5

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_config("Q")

    def test_override_strings_typed_as_config_keys(self):
        pairs = ["n=256", "dt = 1e-3", "scheme= adb", "closure_tol=1e-6"]
        overrides = harness.parse_overrides(pairs)
        assert overrides == {"n": 256, "dt": 1e-3, "scheme": "adb", "closure_tol": 1e-6}
        assert type(overrides["n"]) is int

    @pytest.mark.parametrize("pair, message", [
        ("dt", "is not key=value"),
        ("shape=circle", "unknown field 'shape'"),
        ("colour=blue", "unknown field 'colour'"),
    ])
    def test_bad_override_rejected(self, pair, message, tmp_path, capsys):
        with pytest.raises(ValidationError, match=message):
            harness.parse_overrides([pair])
        assert cli.main(["preset", "E", pair, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_bad_override_value_rejected(self):
        with pytest.raises(ValueError, match="n expects an integer"):
            harness.parse_overrides(["n=many"])

    @pytest.mark.parametrize("pair", ["t_final=inf", "t_final=nan", "dt=inf",
                                      "closure_tol=nan"])
    def test_non_finite_override_exits_2(self, pair, tmp_path, capsys):
        key = pair.split("=")[0]
        assert cli.main(["preset", "E", pair, "--out", str(tmp_path)]) == 2
        assert f"{key} expects a finite number" in capsys.readouterr().err


def small_run_config(tmp_path, **overrides):
    base = dict(
        shape="circle",
        shape_params={"r": 1.0},
        n=32,
        dt=1e-2,
        t_final=0.2,
        scheme="cnadb",
        snapshot_stride=10,
        diagnostic_stride=4,
        output_dir=tmp_path / "run",
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunExperiment:
    def test_output_bundle(self, tmp_path):
        cfg = small_run_config(tmp_path)
        result = run_experiment(cfg)
        assert result.status == "completed"
        out = result.output_dir
        assert (out / "config.txt").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "manifest.txt").exists()
        assert (out / "snapshots" / "curve_t0.000000.csv").exists()
        assert (out / "snapshots" / "curve_t0.200000.csv").exists()
        assert (out / "spectrum_t0.000000.csv").exists()
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.DIAGNOSTICS_COLUMNS)
        curve_header = (out / "snapshots" / "curve_t0.000000.csv").read_text().splitlines()[0]
        assert curve_header == "alpha,x,y,k"
        spec_header = (out / "spectrum_t0.000000.csv").read_text().splitlines()[0]
        assert spec_header == "m,power"

    def test_manifest_references_existing_files(self, tmp_path):
        result = run_experiment(small_run_config(tmp_path))
        out = result.output_dir
        manifest = dict(
            line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
        )
        assert manifest["status"] == "completed"
        assert int(manifest["steps_completed"]) == 20
        assert float(manifest["wall_time_s"]) > 0
        outputs = [v for k, v in manifest.items() if k.startswith("output.")]
        assert outputs and all((out / rel).exists() for rel in outputs)

    def test_circle_diagnostics_flat(self, tmp_path):
        cfg = small_run_config(tmp_path, n=64, dt=1e-3, t_final=1.0,
                               snapshot_stride=1000, diagnostic_stride=100)
        result = run_experiment(cfg)
        rows = result.rows
        for getter in (lambda r: r.m1, lambda r: r.m2, lambda r: r.m3,
                       lambda r: r.max_curvature, lambda r: r.delta_n,
                       lambda r: r.radius_n):
            series = [getter(r) for r in rows]
            assert max(series) - min(series) <= 1e-10

    def test_deterministic_reruns(self, tmp_path):
        a = run_experiment(small_run_config(tmp_path / "a"))
        b = run_experiment(small_run_config(tmp_path / "b"))
        for rel in ("diagnostics.csv", "snapshots/curve_t0.200000.csv", "spectrum_t0.200000.csv"):
            assert (a.output_dir / rel).read_bytes() == (b.output_dir / rel).read_bytes()

    def test_blowup_flagged_with_partial_outputs(self, tmp_path, monkeypatch):
        cfg = small_run_config(tmp_path, diagnostic_stride=1)
        monkeypatch.setattr(schemes, "nonlinear_term", lambda *args: np.full(cfg.n, 1e6))
        result = run_experiment(cfg)
        assert result.status == "blowup"
        assert result.error and "blow-up" in result.error
        manifest = (result.output_dir / "manifest.txt").read_text()
        assert "status = blowup" in manifest
        assert (result.output_dir / "diagnostics.csv").exists()

    def test_closure_violation_flagged_with_partial_outputs(self, tmp_path, capsys):
        # airyflow preset E scheme=adb dt=2e-3: the curve reconstruction fails
        # the closure check a few steps in, in the diagnostics probe or, with
        # the probe due only at step 0, in the snapshot writer
        for observer, strides in (("probe", []),
                                  ("snapshots", ["diagnostic_stride=1000", "snapshot_stride=3"])):
            out = tmp_path / observer
            code = cli.main(["preset", "E", "scheme=adb", "dt=2e-3", *strides, "--out", str(out)])
            assert code == 1
            assert capsys.readouterr().out.startswith("closure: ")
            manifest = dict(
                line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
            )
            assert manifest["status"] == "closure"
            assert "curve does not close" in manifest["error"]
            steps = int(manifest["steps_completed"])
            assert 0 < steps < int(manifest["steps_requested"]) == 1000
            assert manifest["error"].startswith(f"closure at step {steps + 1} ")
            rows = (out / "diagnostics.csv").read_text().splitlines()
            assert rows[0] == ",".join(harness.DIAGNOSTICS_COLUMNS)
            assert (len(rows) == 2) if observer == "snapshots" else (len(rows) > 2)

    def test_closure_violation_at_step_0(self, tmp_path, capsys):
        # the initial curve closes only to ~1e-15: the run ends at step 0
        # with its outputs written instead of escaping run_experiment
        out = tmp_path / "e"
        code = cli.main(["preset", "E", "closure_tol=1e-17", "t_final=0.01", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out.startswith("closure: 0/20 steps")
        manifest = dict(
            line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
        )
        assert manifest["status"] == "closure" and manifest["steps_completed"] == "0"
        assert manifest["error"].startswith("closure at step 0 (t=0): curve does not close")
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert rows == [",".join(harness.DIAGNOSTICS_COLUMNS)]

    @pytest.mark.parametrize("cfg", [
        preset_config("E"),
        preset_config("PC3", t_final=1e-4),  # non-default closure_tol
        RunConfig(shape="perturbed_circle", shape_params={"r0": 1.0, "delta0": 0.05, "m": 3},
                  n=64, dt=1e-3, t_final=0.01, scheme="cn", filter="dpr"),
        RunConfig(shape="perturbed_circle", shape_params={"r0": 1.0, "delta0": 0.05, "m": 2.0},
                  n=64, dt=1e-3, t_final=0.01, scheme="cnadb"),  # m echoed as 2
    ], ids=["E", "PC3", "perturbed_circle", "perturbed_circle-float-m"])
    def test_config_echo_round_trips(self, cfg, tmp_path):
        result = run_experiment(replace(cfg, output_dir=tmp_path))
        assert result.status == "completed"
        assert parse_config((tmp_path / "config.txt").read_text()) == cfg

    def test_cli_run_writes_bundle(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_text("shape = circle\nn = 32\ndt = 1e-2\nt_final = 0.2\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"completed: 20/20 steps -> {out}")
        assert "status = completed" in (out / "manifest.txt").read_text()
        assert (out / "diagnostics.csv").exists()

    def test_requires_output_dir(self, tmp_path):
        cfg = small_run_config(tmp_path, output_dir=None)
        with pytest.raises(ValidationError):
            run_experiment(cfg)


class TestConvergenceStudy:
    def test_linear_problem_at_roundoff_floor(self, tmp_path, monkeypatch):
        # with the nonlinear term zeroed the integrating-factor scheme is
        # exact, so both difference norms sit at the roundoff floor
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=2e-3, t_final=0.4, scheme="adb")
        study = ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.4)
        monkeypatch.setattr(schemes, "nonlinear_term",
                            lambda phi_hat, length, filter: np.zeros(2 * (phi_hat.size - 1)))
        row = run_convergence_study(study)
        assert row.err_coarse <= 1e-13 and row.err_fine <= 1e-13

    def test_time_axis_bundle(self, tmp_path):
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=4e-4, t_final=0.2, scheme="cn")
        study = ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.2)
        row = run_convergence_study(study, output_dir=tmp_path)
        text = (tmp_path / "convergence.csv").read_text().splitlines()
        assert text[0] == "curve,scheme,t0,err_coarse,err_fine,order"
        fields = text[1].split(",")
        assert fields[0] == "ellipse" and fields[1] == "cn"
        assert float(fields[5]) == pytest.approx(row.order, rel=1e-15)
        manifest = (tmp_path / "convergence_manifest.txt").read_text().splitlines()
        assert manifest == ["level.0 = ok", "level.1 = ok", "level.2 = ok"]

    def test_failed_levels_recorded(self, tmp_path):
        # adb at n=128 blows up at t=0.062 with dt=2e-3 and at t=0.089 with
        # dt=1e-3; the dt=5e-4 level reaches t0 = 0.1
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=128, dt=2e-3, t_final=0.1, scheme="adb")
        study = ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.1)
        with pytest.raises(StudyFailed) as err:
            run_convergence_study(study, output_dir=tmp_path)
        assert sorted(err.value.errors) == [0, 1]
        manifest = dict(line.split(" = ", 1) for line in
                        (tmp_path / "convergence_manifest.txt").read_text().splitlines())
        assert [manifest[f"level.{k}"] for k in range(3)] == ["failed", "failed", "ok"]
        assert manifest["error.0"].startswith("level 0 (dt = 0.002): blow-up at step 31")
        assert manifest["error.1"].startswith("level 1 (dt = 0.001): blow-up at step")
        assert "error.2" not in manifest
        assert not (tmp_path / "convergence.csv").exists()

    def test_cli_blowup_exits_1_with_manifest(self, tmp_path, capsys):
        config = tmp_path / "study.txt"
        config.write_text("kind = converge\naxis = time\nt0 = 0.5\nshape = ellipse\n"
                          "a = 1\nb = 0.5\nn = 128\ndt = 2e-3\nt_final = 0.5\n"
                          "scheme = adb\n")
        out = tmp_path / "out"
        assert cli.main(["converge", str(config), "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "FAILED level 0 (dt = 0.002): blow-up at step 31 (t=0.062)" in printed
        manifest = (out / "convergence_manifest.txt").read_text().splitlines()
        assert manifest[:3] == ["level.0 = failed", "level.1 = failed", "level.2 = failed"]
        assert not (out / "convergence.csv").exists()

    def test_cli_writes_order(self, tmp_path, capsys):
        config = tmp_path / "study.txt"
        config.write_text("kind = converge\naxis = time\nt0 = 0.05\nshape = ellipse\n"
                          "a = 1\nb = 0.5\nn = 64\ndt = 1e-3\nscheme = cn\n")
        out = tmp_path / "out"
        assert cli.main(["converge", str(config), "--out", str(out)]) == 0
        assert "ellipse/cn t0=0.05: err " in capsys.readouterr().out
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "curve,scheme,t0,err_coarse,err_fine,order" and len(rows) == 2

    def test_cardioid_cn_reference_order(self):
        # reference refinement row: dt in {2e-4, 1e-4, 5e-5} at t0 = 0.5
        # reproduces the tabulated order 2.024 to four digits
        base = RunConfig(shape="cardioid", n=512, dt=2e-4, t_final=0.5, scheme="cn")
        study = ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.5)
        row = run_convergence_study(study)
        assert 1.6 <= row.order <= 2.5

    def test_space_axis_levels(self):
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=32, dt=1e-3, t_final=0.1, scheme="cnadb")
        study = ConvergenceStudyConfig(base=base, axis="space", comparison_time=0.1)
        configs = study.level_configs()
        assert [c.n for c in configs] == [32, 64, 128]
        assert all(c.dt == 1e-3 for c in configs)


FILTER_128 = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                       n=128, dt=2e-3, t_final=0.1, scheme="adb", diagnostic_stride=5)


class TestFilterStudy:
    def test_variant_set_and_schemas(self, tmp_path):
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=5e-4, t_final=0.05, scheme="adb",
                         diagnostic_stride=20)
        result = run_filter_study(base, output_dir=tmp_path)
        assert result.labels == ["ADB", "ADBDPR", "ADBK", "CN", "CNDPR", "CNK", "CNADB"]
        spectra = (tmp_path / "filters_spectra.csv").read_text().splitlines()
        assert spectra[0] == "m," + ",".join(f"power_{x}" for x in result.labels)
        assert len(spectra) == 65  # header + one row per mode
        xi = (tmp_path / "filters_xi.csv").read_text().splitlines()
        assert xi[0] == "time," + ",".join(f"xi_{x}" for x in result.labels)

    def test_failed_variants_recorded(self, tmp_path):
        # adb and adbk blow up at step 31 on this config, after their
        # last observed step 30
        result = run_filter_study(FILTER_128, output_dir=tmp_path)
        assert sorted(result.errors) == ["ADB", "ADBK"]
        manifest = dict(line.split(" = ", 1) for line in
                        (tmp_path / "filters_manifest.txt").read_text().splitlines())
        assert manifest["variant.ADB"] == "failed" and manifest["variant.CN"] == "ok"
        assert manifest["error.ADB"].startswith("BlowUp: blow-up at step 31 (t=0.062)")
        # the largest mean tangent over observed states: ADB's curve stops
        # closing before its guard trips, the completed variants close
        closure = {label: float(manifest[f"closure.{label}"]) for label in result.labels}
        assert closure["ADB"] > geometry.DEFAULT_CLOSURE_TOL
        assert max(closure[label] for label in result.labels if label not in result.errors) < 1e-12
        rows = [line.split(",") for line in
                (tmp_path / "filters_xi.csv").read_text().splitlines()]
        header, body = rows[0], rows[1:]
        assert len(body) == 11  # steps 0, 5, ..., 50
        for label in ("ADB", "ADBK"):
            cells = [row[header.index(f"xi_{label}")] for row in body]
            assert len(result.xi_series[label]) == 7  # steps 0, 5, ..., 30
            assert all(cells[:7]) and not any(cells[7:]), label

    def test_deterministic_reruns(self, tmp_path):
        # identical configs give byte-identical outputs, failed variants included
        for name in ("a", "b"):
            run_filter_study(FILTER_128, output_dir=tmp_path / name)
        for rel in ("filters_spectra.csv", "filters_xi.csv", "filters_manifest.txt"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_cli_exits_1_naming_failed_variants(self, tmp_path, capsys):
        config = tmp_path / "filters.txt"
        config.write_text("shape = ellipse\na = 1\nb = 0.5\nn = 128\ndt = 2e-3\n"
                          "t_final = 0.1\nscheme = adb\ndiagnostic_stride = 5\n")
        out = tmp_path / "out"
        assert cli.main(["filters", str(config), "--out", str(out)]) == 1
        printed = capsys.readouterr().out.splitlines()
        failed = [line for line in printed if "FAILED" in line]
        assert [line.split(":", 1)[0] for line in failed] == ["ADB", "ADBK"]
        for name in ("filters_spectra.csv", "filters_xi.csv", "filters_manifest.txt"):
            assert (out / name).exists(), name
            assert str(out / name) in printed[-1], name

    def test_adbk_differs_from_adb_only_below_threshold(self, tmp_path):
        # short horizon where unfiltered adb is still healthy: the krasny
        # cutoff only touches modes whose amplitude sits below 1e-13
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=1e-4, t_final=0.02, scheme="adb",
                         diagnostic_stride=100)
        result = run_filter_study(base)
        adb = result.spectra["ADB"]
        adbk = result.spectra["ADBK"]
        # modes that stayed above the cutoff agree to accumulated roundoff
        # (the zeroed junk perturbs them at ~1e-13 absolute per step);
        # meaningful differences are confined to sub-threshold amplitudes
        alive = adb > 1e-26  # power of the 1e-13 amplitude threshold
        rel = np.abs(adb[alive] - adbk[alive]) / adb[alive]
        assert np.max(rel) <= 1e-7
        dead = ~alive
        assert np.all(adbk[dead] <= 1e-26)


class TestFormatting:
    def test_round_trip_exact(self, rng):
        for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
            assert float(format_float(x)) == x

    def test_negative_zero_normalized(self):
        assert format_float(-0.0) == "0"


# ---------------------------------------------------------------------------
# run invariants: each entry point rejects each bad setting it takes with the
# documented error type, and the message names the offending key

_SCHEME = dict(scheme="cnadb", dt=1e-2)
_RUN = dict(shape="circle", n=32, t_final=0.1, **_SCHEME)
_BAD = [("scheme", "rk4"), ("filter", "lowpass"), ("dt", 0.0), ("dt", -1e-3), ("n", 24),
        ("n", 4), ("t_final", -0.1), ("t_final", 0.10025), ("t0", 0.10025),
        ("closure_tol", 0.0), ("closure_tol", -1e-8)]
_SCHEME_KEYS = {"scheme", "filter", "dt"}
_RUN_KEYS = _SCHEME_KEYS | {"n", "t_final", "closure_tol"}


def _parse_with(key, value):
    settings = {**_RUN, key: value}
    if key == "t0":
        settings.update(kind="converge", axis="time")
    return parse_config("".join(f"{k} = {v}\n" for k, v in settings.items()))


def _integrate_to(key, t_final):
    state = harness.build_initial_state(RunConfig(**_RUN))
    return schemes.integrate(state, SchemeConfig(**_SCHEME), t_final)


_ENTRY_POINTS = {
    "parse_config": (_parse_with, ValidationError, _RUN_KEYS | {"t0"}),
    "RunConfig": (lambda key, value: RunConfig(**{**_RUN, key: value}), ValidationError,
                  _RUN_KEYS),
    "preset_config": (lambda key, value: preset_config("E", **{key: value}), ValidationError,
                      _RUN_KEYS),
    "SchemeConfig": (lambda key, value: SchemeConfig(**{**_SCHEME, key: value}),
                     ValidationError, _SCHEME_KEYS),
    "integrate": (_integrate_to, NonCommensurateTime, {"t_final"}),
}


@pytest.mark.parametrize("entry, key, value", [
    (entry, key, value)
    for entry, (_, _, keys) in _ENTRY_POINTS.items()
    for key, value in _BAD if key in keys
])
def test_invariant_rejected_naming_key(entry, key, value):
    call, error, _ = _ENTRY_POINTS[entry]
    with pytest.raises(error) as err:
        call(key, value)
    assert isinstance(err.value, ValueError)
    assert re.search(rf"\b{key}\b", str(err.value)), str(err.value)


# config text rejects nan and inf where it becomes numbers
# (test_non_finite_number_is_parse_error); the Python entry points take floats
_NON_FINITE = [("dt", math.inf), ("dt", math.nan), ("t_final", math.inf),
               ("t_final", math.nan), ("closure_tol", math.inf), ("closure_tol", math.nan)]


@pytest.mark.parametrize("entry, key, value", [
    (entry, key, value)
    for entry, (_, _, keys) in _ENTRY_POINTS.items() if entry != "parse_config"
    for key, value in _NON_FINITE if key in keys
])
def test_non_finite_rejected_naming_key(entry, key, value):
    test_invariant_rejected_naming_key(entry, key, value)
