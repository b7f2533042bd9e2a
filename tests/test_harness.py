import numpy as np
import pytest

from airyflow import cli, harness
from airyflow.errors import ParseError, ValidationError
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
from airyflow.spectral import GridField

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

    def test_converge_requires_axis_and_t0(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "kind = converge\n")

    def test_t0_incommensurate_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "kind = converge\naxis = time\nt0 = 0.9213\n")

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("shape = circle\nn = 100\ndt = 1e-2\nt_final = 0.1\n")


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

    def test_blowup_flagged_with_partial_outputs(self, tmp_path):
        bad = lambda state: GridField(np.full(state.n, 1e6))
        cfg = small_run_config(tmp_path, diagnostic_stride=1)
        result = run_experiment(cfg, nonlinear=bad)
        assert result.status == "blowup"
        assert result.error and "blow-up" in result.error
        manifest = (result.output_dir / "manifest.txt").read_text()
        assert "status = blowup" in manifest
        assert (result.output_dir / "diagnostics.csv").exists()

    def test_closure_violation_flagged_with_partial_outputs(self, tmp_path, capsys):
        # airyflow preset E scheme=adb dt=2e-3: the diagnostics observer's
        # curve reconstruction fails the closure check a few steps in
        out = tmp_path / "e"
        code = cli.main(["preset", "E", "scheme=adb", "dt=2e-3", "--out", str(out)])
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
        assert rows[0] == ",".join(harness.DIAGNOSTICS_COLUMNS) and len(rows) > 1

    def test_requires_output_dir(self, tmp_path):
        cfg = small_run_config(tmp_path, output_dir=None)
        with pytest.raises(ValidationError):
            run_experiment(cfg)


class TestConvergenceStudy:
    def test_linear_problem_at_roundoff_floor(self, tmp_path):
        # with the nonlinear term zeroed the integrating-factor scheme is
        # exact, so both difference norms sit at the roundoff floor
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=2e-3, t_final=0.4, scheme="adb")
        study = ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.4)
        zero = lambda state: GridField(np.zeros(state.n))
        row = run_convergence_study(study, nonlinear=zero)
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
