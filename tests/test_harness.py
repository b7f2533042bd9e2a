import inspect
import math
import os
import re
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from airyflow import cli, diagnostics, geometry, harness, schemes, spectral
from airyflow.errors import (
    BlowUp,
    ClosureViolation,
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

from conftest import observe_states, observed_states, state_observer
from oracles import per_state_observe, per_state_rows

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


def preset_text(name: str) -> str:
    """Config text of preset ``name``'s entry, key by key."""
    return "".join(f"{key} = {value if isinstance(value, str) else format_float(value)}\n"
                   for key, value in harness.PRESETS[name].items())


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
        for line, message in (("nonsense line", "line 2, column 14: expected 'key = value'"),
                              ("2n = 32", "line 2, column 1: bad key '2n'"),
                              ("n =", "line 2, column 4: missing value for 'n'")):
            with pytest.raises(ParseError) as err:
                parse_config(f"shape = circle\n{line}\n")
            assert err.value.line == 2 and str(err.value) == message

    @pytest.mark.parametrize("line, column", [("dt=abc", 4), ("dt = abc", 6), ("dt =  abc", 7)])
    def test_bad_value_column_is_the_values_first_character(self, line, column):
        with pytest.raises(ParseError) as err:
            parse_config(f"shape = circle\n{line}\n")
        assert str(err.value) == f"line 2, column {column}: dt expects a finite number, got 'abc'"

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
        text = MINIMAL + "kind = converge\naxis = time\ndt_ignored_not_a_key = 1"
        with pytest.raises(ValidationError):
            parse_config(text)  # unknown key still rejected
        study = parse_config(MINIMAL + "kind = converge\naxis = time\n")
        assert isinstance(study, ConvergenceStudyConfig)
        assert study.axis == "time" and study.comparison_time == 2.0

    @pytest.mark.parametrize("text", [pytest.param(MINIMAL, id="minimal"), *(
        pytest.param(preset_text(name), id=name) for name in sorted(harness.PRESETS))])
    @pytest.mark.parametrize("axis", ["time", "space"])
    def test_converge_config_is_a_run_config_and_an_axis(self, text, axis):
        # the study compares its levels at the run's own t_final
        run = parse_config(text)
        assert parse_config(text + f"kind = converge\naxis = {axis}\n") == (
            ConvergenceStudyConfig(base=run, axis=axis, comparison_time=run.t_final))

    def test_converge_levels_run_to_t_final(self):
        study = parse_config("kind = converge\naxis = time\nshape = circle\n"
                             "n = 32\ndt = 1e-2\nt_final = 0.1\n")
        assert [cfg.t_final for cfg in study.level_configs()] == [0.1, 0.1, 0.1]
        assert [cfg.steps for cfg in study.level_configs()] == [10, 20, 40]

    @pytest.mark.parametrize("kind", ["run", "converge"])
    def test_t0_is_an_unknown_key(self, kind, tmp_path, capsys):
        # a converge config states its comparison time once, as t_final
        config = tmp_path / "config.txt"
        config.write_text(MINIMAL + f"kind = {kind}\naxis = time\n" * (kind == "converge")
                          + "t0 = 2\n")
        with pytest.raises(ValidationError, match=r"^unknown key 't0' on line \d+$"):
            parse_config(config.read_text())
        out = tmp_path / "out"
        assert cli.main([kind, str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown key 't0'")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("kind = batch\n" + MINIMAL, "kind must be 'run' or 'converge', got 'batch'"),
        ("n = 32\ndt = 1e-2\nt_final = 0.1\n", "config must set 'shape'"),
        ("shape = circle\nn = 32\nt_final = 0.1\n", "config must set ['dt']"),
        (MINIMAL + "axis = time\n", "'axis' is only valid with kind = converge"),
        (MINIMAL + "kind = converge\naxis = both\n",
         "axis must be 'time' or 'space', got 'both'"),
    ], ids=["kind", "no-shape", "no-dt", "axis-in-run", "axis"])
    def test_invalid_config_rejected_naming_the_fault(self, text, message):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert str(err.value) == message

    def test_converge_requires_axis_and_t0(self):
        # the comparison time t0 is the run's t_final, which a converge config sets as a run's
        with pytest.raises(ValidationError, match=r"^kind = converge requires 'axis'$"):
            parse_config(MINIMAL + "kind = converge\n")
        with pytest.raises(ValidationError, match=r"^config must set \['t_final'\]$"):
            parse_config("kind = converge\naxis = time\nshape = circle\nn = 32\ndt = 1e-2\n")

    def test_t0_incommensurate_rejected(self):
        # a comparison time that is no whole number of steps is refused as a run's t_final
        with pytest.raises(NonCommensurateTime, match=r"^t_final spans 0\.9213, not a whole"):
            parse_config(MINIMAL.replace("t_final = 2", "t_final = 0.9213")
                         + "kind = converge\naxis = time\n")

    @pytest.mark.parametrize("key, stride", [("diagnostic_stride", 2.5),
                                             ("snapshot_stride", -1)])
    def test_bad_stride_rejected_naming_it(self, key, stride):
        with pytest.raises(ValidationError, match=f"{key} must be an integer >= 1, got {stride}"):
            RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5}, n=64, dt=1e-3,
                      t_final=0.05, scheme="cnadb", **{key: stride})

    @pytest.mark.parametrize("shape, params, error", [
        ("triangle", {}, UnknownShape),
        ("ellipse", {"m": 3}, InvalidParameter),
        ("perturbed_circle", {"r0": 0.0}, InvalidParameter),
        # a non-finite parameter is refused here, not as NotRegular (or a
        # RuntimeWarning) once the curve is resampled; config text cannot say nan
        ("circle", {"r": math.nan}, InvalidParameter),
        ("ellipse", {"b": math.inf}, InvalidParameter),
        ("perturbed_circle", {"r0": math.inf}, InvalidParameter),
        ("perturbed_circle", {"delta0": math.nan}, InvalidParameter),
        ("perturbed_circle", {"m": math.inf}, InvalidParameter),
        # config text can say this one: an integer, but too large for a float
        ("perturbed_circle", {"m": 10**400}, InvalidParameter),
    ], ids=["unknown", "ellipse-m", "perturbed-r0", "circle-r-nan", "ellipse-b-inf",
            "perturbed-r0-inf", "perturbed-delta0-nan", "perturbed-m-inf", "perturbed-m-huge"])
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

    def test_fractional_wavenumber_is_parse_error(self):
        with pytest.raises(ParseError, match="m expects an integer, got '2.5'") as err:
            parse_config("shape = perturbed_circle\nm = 2.5\nn = 32\ndt = 1e-2\nt_final = 0.1\n")
        assert err.value.line == 2

    def test_cli_run_without_output_directory_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.txt"
        config.write_text("shape = circle\nn = 32\ndt = 1e-2\nt_final = 0.1\n")
        assert cli.main(["run", str(config)]) == 2
        message = "error: no output directory: set 'out' in the config or pass --out\n"
        assert capsys.readouterr() == ("", message)

    def test_unknown_shape_message_unquoted(self, tmp_path, capsys):
        # UnknownShape is a ValueError: str() is its message, not a KeyError repr
        config = tmp_path / "run.txt"
        config.write_text("shape = triangle\nn = 32\ndt = 1e-2\nt_final = 0.1\n")
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown shape 'triangle'; known: [") and '"' not in err

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("shape = circle\nn = 100\ndt = 1e-2\nt_final = 0.1\n")

    @pytest.mark.parametrize("command, kind, text", [
        ("run", "run", "kind = converge\naxis = time\nt_final = 0.1\n"),
        ("converge", "converge", "t_final = 0.1\n"),
        ("filters", "run", "kind = converge\naxis = time\nt_final = 0.1\n"),
    ])
    def test_cli_rejects_config_of_other_kind(self, command, kind, text, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(text + "shape = circle\nn = 32\ndt = 1e-2\n")
        out = tmp_path / "out"
        assert cli.main([command, str(config), "--out", str(out)]) == 2
        message = f"error: '{command}' expects a config with kind = {kind}\n"
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    @staticmethod
    def readme_grammar():
        """README's config-grammar section and its ini block."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config grammar", 1)[1].split("\n### ", 1)[0]
        return section, section.split("```ini\n", 1)[1].split("```", 1)[0]

    def test_readme_grammar_block(self):
        # README's config-grammar block parses, names every key of the
        # grammar, and the lines it marks "(default)" set the defaults
        section, block = self.readme_grammar()
        cfg = parse_config(block)
        assert isinstance(cfg, RunConfig) and cfg.shape == "ellipse" and cfg.steps == 4000
        for key in harness._KEYS:
            assert re.search(rf"\b{key}\b", section), f"README grammar omits {key!r}"
        marked = [line for line in block.splitlines() if "(default)" in line]
        assert {line.split("=")[0].strip() for line in marked} == {
            "kind", "scheme", "filter", "closure_tol"}
        unset = "\n".join(line for line in block.splitlines() if line not in marked)
        assert parse_config(unset) == cfg

    def test_readme_converge_block(self):
        # README's converge block is two lines that make its run block, less
        # the default kind = run, a study comparing the levels at its t_final
        section, run_block = self.readme_grammar()
        block = section.split("```ini\n")[2].split("```", 1)[0]
        assert [line.split("=")[0].strip() for line in block.splitlines()] == ["kind", "axis"]
        text = "".join(line + "\n" for line in run_block.splitlines()
                       if not line.startswith("kind ="))
        run = parse_config(text)
        assert parse_config(text + block) == ConvergenceStudyConfig(
            base=run, axis="time", comparison_time=run.t_final)

    def test_readme_grammar_lists_the_accepted_names(self):
        # the scheme and filter comments list exactly the names SchemeConfig
        # accepts, and the shape comment the catalog's shapes in its order,
        # so the grammar advertises no name the code rejects
        block = self.readme_grammar()[1]
        for key, names in (("scheme", schemes.SCHEMES), ("filter", spectral.FILTERS),
                           ("shape", tuple(geometry._CATALOG))):
            listed = re.search(rf"^{key} = .*#(.*)$", block, re.M).group(1).split("|")
            assert tuple(name.replace("(default)", "").strip() for name in listed) == names
        # the shape-parameter comment lists each factory's parameters in its
        # signature's order, and names the shape after them
        comments = [line.split("#", 1)[1].strip() for line in block.splitlines() if "#" in line]
        first = next(i for i, text in enumerate(comments) if text.startswith("shape parameters:"))
        text = " ".join(comments[first:first + 2]).removeprefix("shape parameters:")
        listed = {shape: tuple(re.split(r",\s*", names))
                  for names, shape in re.findall(r"(\w[\w, ]*?) \((\w+)\)", text)}
        signatures = {shape: tuple(inspect.signature(factory).parameters)
                      for shape, factory in geometry._CATALOG.items()}
        assert listed == {shape: params for shape, params in signatures.items() if params}

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

    @pytest.mark.parametrize("name", sorted(harness.PRESETS))
    def test_entry_is_config_text(self, name):
        assert harness.PRESETS[name].keys() <= harness._KEYS.keys()
        assert parse_config(preset_text(name)) == preset_config(name)

    @pytest.mark.parametrize("name, note", [("PC3", "note: PC3 runs 900000 steps\n"),
                                            ("e", "")])
    def test_long_preset_noted(self, name, note, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "run_experiment",
                            lambda cfg: harness.RunResult("completed", cfg.steps, []))
        assert cli.main(["preset", name, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith(note + "completed: ")

    def test_preset_prints_what_run_prints(self, tmp_path, capsys):
        # preset and run share one body: the status line, then the final diagnostics
        assert cli.main(["preset", "E", "t_final=0.01", "--out", str(tmp_path)]) == 0
        status, final = capsys.readouterr().out.splitlines()
        assert status == f"completed: 20/20 steps -> {tmp_path}"
        assert final.startswith("final diagnostics: t=0.01 xi=")

    def test_overrides(self, tmp_path):
        cfg = preset_config("E", dt=1e-3, t_final=0.5, output_dir=tmp_path)
        assert cfg.dt == 1e-3 and cfg.t_final == 0.5 and cfg.output_dir == tmp_path

    @pytest.mark.parametrize("key, value", [("shape", "circle"), ("a", 2.0), ("t0", 0.1),
                                            ("kind", "converge"), ("colour", "blue")])
    def test_python_override_rejected_as_on_cli(self, key, value):
        with pytest.raises(ValidationError, match=f"preset override for unknown field '{key}'"):
            preset_config("E", **{key: value})

    def test_readme_presets_table(self):
        # one row of README's presets table per preset, with its n, dt and T
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Presets", 1)[1].split("\n#", 1)[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("|")][2:]
        assert sorted(row[0] for row in rows) == sorted(harness.PRESETS)
        for name, _, n, dt, t_final, _ in rows:
            cfg = preset_config(name)
            assert (int(n), float(dt), float(t_final)) == (cfg.n, cfg.dt, cfg.t_final), name

    def test_readme_closure_example(self, tmp_path, monkeypatch):
        # README's "Outputs" quotes a preset run's closure error and how the
        # same run ends when stopped after a step: run both as quoted
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = " ".join(readme.split("### Outputs", 1)[1].split("\n#", 1)[0].split())
        name, words, message = re.search(
            r"preset (\w+) with `([^`]+)` gives `([^`]+)`", section).groups()
        stopped, open_at, recorded = map(int, re.search(
            r"Stopped after step (\d+), .*? finds step (\d+) open, and ends `interrupted` "
            r"with `steps_completed = (\d+)`", section).groups())
        cfg = preset_config(name, **harness.parse_overrides(words.split()),
                            output_dir=tmp_path / "whole")
        assert run_experiment(cfg).error == message
        assert message.startswith(f"closure at step {open_at} ")
        interrupt_run(monkeypatch, 1, stopped + 1)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(replace(cfg, output_dir=tmp_path / "cut"))
        manifest = read_manifest(tmp_path / "cut")
        assert (manifest["status"], manifest["steps_completed"], manifest["error"]) == (
            "interrupted", str(recorded), message)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_config("Q")

    def test_override_strings_typed_as_config_keys(self):
        pairs = ["n=256", "dt = 1e-3", "scheme= adb", "closure_tol=1e-6"]
        overrides = harness.parse_overrides(pairs)
        assert overrides == {"n": 256, "dt": 1e-3, "scheme": "adb", "closure_tol": 1e-6}
        assert type(overrides["n"]) is int

    @pytest.mark.parametrize("words, message", [
        ("dt", "is not key=value"),
        ("shape=circle", "unknown field 'shape'"),
        ("colour=blue", "unknown field 'colour'"),
        ("n=256 n=128", "repeated override 'n'"),
    ])
    def test_bad_override_rejected(self, words, message, tmp_path, capsys):
        pairs = words.split()
        with pytest.raises(ValidationError, match=message):
            harness.parse_overrides(pairs)
        assert cli.main(["preset", "E", *pairs, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_bad_override_value_rejected(self):
        with pytest.raises(ValueError, match="n expects an integer"):
            harness.parse_overrides(["n=many"])

    @pytest.mark.parametrize("words", [
        "E t_final=0.01 n=64 --out {out}",
        "E --out {out} t_final=0.01 n=64",
        "E t_final=0.01 --out {out} n=64",
        "--out {out} E t_final=0.01 n=64",
    ])
    def test_cli_overrides_before_or_after_out(self, words, tmp_path):
        out = tmp_path / "e"
        assert cli.main(["preset", *words.format(out=out).split()]) == 0
        config = (out / "config.txt").read_text().splitlines()
        assert "t_final = 0.01" in config and "n = 64" in config
        assert read_manifest(out)["steps_requested"] == "20"

    @pytest.mark.parametrize("pair", ["t_final=inf", "t_final=nan", "dt=inf",
                                      "closure_tol=nan"])
    def test_non_finite_override_exits_2(self, pair, tmp_path, capsys):
        key = pair.split("=")[0]
        assert cli.main(["preset", "E", pair, "--out", str(tmp_path)]) == 2
        assert f"{key} expects a finite number" in capsys.readouterr().err


def help_bullets(text):
    """The ``* ``command`` ...`` bullet lines of ``text``, stripped."""
    return [line.strip() for line in text.splitlines() if line.strip().startswith("* ``")]


class TestCliHelp:
    def test_help_keeps_each_subcommand_bullet_on_its_line(self, capsys):
        with pytest.raises(SystemExit) as exit:
            cli.main(["--help"])
        assert exit.value.code == 0
        bullets = help_bullets(cli.__doc__)
        assert [bullet.split("``")[1].split()[0] for bullet in bullets] == [
            "run", "converge", "filters", "preset"]
        assert help_bullets(capsys.readouterr().out) == bullets

    def test_module_entry_point_prints_help(self):
        # ``python -m airyflow.cli`` reaches the module's SystemExit(main())
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "airyflow.cli", "--help"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: airyflow ")
        assert help_bullets(done.stdout) == help_bullets(cli.__doc__)


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
        out = cfg.output_dir
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
        cfg = small_run_config(tmp_path)
        run_experiment(cfg)
        out = cfg.output_dir
        manifest = dict(
            line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
        )
        assert manifest["status"] == "completed"
        assert int(manifest["steps_completed"]) == 20
        assert float(manifest["wall_time_s"]) > 0
        outputs = [v for k, v in manifest.items() if k.startswith("output.")]
        assert outputs and all((out / rel).exists() for rel in outputs)

    def test_manifest_records_setup_time(self, tmp_path):
        cfg = small_run_config(tmp_path)
        run_experiment(cfg)
        lines = (cfg.output_dir / "manifest.txt").read_text().splitlines()
        keys = [line.split(" = ", 1)[0] for line in lines]
        assert keys.index("setup_time_s") == keys.index("wall_time_s") + 1
        manifest = dict(line.split(" = ", 1) for line in lines)
        setup, wall = float(manifest["setup_time_s"]), float(manifest["wall_time_s"])
        assert math.isfinite(setup) and math.isfinite(wall)
        assert 0.0 <= setup <= wall

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
        a, b = small_run_config(tmp_path / "a"), small_run_config(tmp_path / "b")
        run_experiment(a)
        run_experiment(b)
        for rel in ("diagnostics.csv", "snapshots/curve_t0.200000.csv", "spectrum_t0.200000.csv"):
            assert (a.output_dir / rel).read_bytes() == (b.output_dir / rel).read_bytes()

    def test_snapshot_names_tell_steps_below_a_microsecond_apart(self, tmp_path):
        cfg = small_run_config(tmp_path, n=32, dt=1e-7, t_final=5e-7, snapshot_stride=1)
        run_experiment(cfg)
        out = cfg.output_dir
        curves = sorted(path.name for path in (out / "snapshots").iterdir())
        assert curves == [f"curve_t0.000000{j}.csv" for j in range(6)]
        listed = [line.split(" = ", 1)[1] for line in
                  (out / "manifest.txt").read_text().splitlines() if line.startswith("output.")]
        assert len(listed) == len(set(listed)) == 2 + 2 * 6
        assert sorted(rel for rel in listed if rel.startswith("snapshots/")) == [
            f"snapshots/{name}" for name in curves]

    def test_blowup_flagged_with_partial_outputs(self, tmp_path, monkeypatch):
        cfg = small_run_config(tmp_path, diagnostic_stride=1)
        monkeypatch.setattr(schemes, "nonlinear_term", lambda *args: np.full(cfg.n, 1e6))
        result = run_experiment(cfg)
        assert result.status == "blowup"
        assert result.error and "blow-up" in result.error
        manifest = (cfg.output_dir / "manifest.txt").read_text()
        assert "status = blowup" in manifest
        assert (cfg.output_dir / "diagnostics.csv").exists()

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

    def test_final_state_only_after_completion(self, tmp_path, monkeypatch):
        cfg = preset_config("E", t_final=0.01, output_dir=tmp_path / "e")
        final = run_experiment(cfg).final
        want = schemes.integrate(harness.build_initial_state(cfg), cfg, cfg.t_final)
        assert np.array_equal(final.phi, want.phi)
        assert (final.length, final.time) == (want.length, want.time)
        closing = preset_config("E", **TestBlockObservation.CLOSING, output_dir=tmp_path / "c")
        failed = run_experiment(closing)
        assert failed.status == "closure" and failed.final is None
        kick_at(monkeypatch, 5)
        blown = run_experiment(replace(cfg, output_dir=tmp_path / "b"))
        assert blown.status == "blowup" and blown.final is None


def read_manifest(out):
    return dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())


def kick_at(monkeypatch, step):
    """Make the nonlinear term huge at ``step``: the guard then ends the run there."""
    calls, original = [0], schemes.nonlinear_term

    def kicked(phi_hat, length, filter, *work):
        calls[0] += 1
        term = original(phi_hat, length, filter, *work)
        return term + 1e9 if calls[0] == step else term

    monkeypatch.setattr(schemes, "nonlinear_term", kicked)


def interrupt_run(monkeypatch, run, call):
    """Make the nonlinear term raise ``KeyboardInterrupt`` at its ``call``-th
    call in the ``run``-th trajectory (both counted from 1)."""
    runs, calls = [0], [0]
    observer_run, original = harness._BlockObserver.run, schemes.nonlinear_term

    def counted_run(self, observers):
        runs[0], calls[0] = runs[0] + 1, 0
        return observer_run(self, observers)

    def interrupted(*args):
        calls[0] += 1
        if (runs[0], calls[0]) == (run, call):
            raise KeyboardInterrupt
        return original(*args)

    monkeypatch.setattr(harness._BlockObserver, "run", counted_run)
    monkeypatch.setattr(schemes, "nonlinear_term", interrupted)


class TestBlockObservation:
    # preset E with adb at dt = 1.7e-3, observed every step: the curve fails
    # the closure check inside the second block (step 14), a few steps
    # before the run blows up in that block (step 19)
    K = harness.OBSERVE_BLOCK
    CLOSING = dict(scheme="adb", dt=1.7e-3, t_final=0.085, diagnostic_stride=1)

    def observed_states(self, cfg, steps):
        return observed_states(harness.build_initial_state(cfg), cfg, steps * cfg.dt)

    @pytest.fixture(scope="class")
    def closing(self):
        """(first_open, blowup, states): the first step whose state's closure
        defect exceeds the tolerance, the step at which the run blows up, and
        the states of the steps before it, each from ``schemes.integrate``."""
        cfg = preset_config("E", **self.CLOSING)
        initial, states = harness.build_initial_state(cfg), []
        with pytest.raises(BlowUp) as err:
            schemes.integrate(initial, cfg, cfg.t_final,
                              [(1, state_observer(initial, cfg.dt, lambda j, s: states.append(s)))])
        defects = [per_state_observe(state).closure for state in states]
        first_open = next(j for j, defect in enumerate(defects) if defect > cfg.closure_tol)
        return first_open, err.value.step, states

    def test_rows_bitwise_equal_to_per_state_rows(self, tmp_path):
        # two full blocks and a partial one, with snapshots due inside them
        cfg = preset_config("E", t_final=(2 * self.K + 3) * 5e-4, diagnostic_stride=1,
                            snapshot_stride=5, output_dir=tmp_path)
        result = run_experiment(cfg)
        assert result.rows == per_state_rows(self.observed_states(cfg, cfg.steps))
        curves = sorted(path.name for path in (tmp_path / "snapshots").iterdir())
        assert len(curves) == len(range(0, cfg.steps + 1, 5)) + (cfg.steps % 5 != 0)

    def test_buffered_states_keep_their_phi_until_observed(self, tmp_path, monkeypatch):
        # the stepper keeps writing the row it hands out while earlier rows
        # wait in a block: each pass reads every row as it was handed out
        cfg = preset_config("E", t_final=(2 * self.K + 3) * 5e-4, diagnostic_stride=1,
                            snapshot_stride=5, output_dir=tmp_path)
        handed, due, checked = {}, [], []
        watch, flush, observe = (harness._BlockObserver.watch, harness._BlockObserver.flush,
                                 diagnostics.observe)

        def recording_watch(observer, output):
            callback = watch(observer, output)

            def recorded(step, phi):
                handed[step] = phi.copy()
                callback(step, phi)

            return recorded

        def recording_flush(observer):
            due[:] = observer.pending  # the steps of the block's rows, in order
            flush(observer)

        def checked_observe(phi, *run):
            checked.extend(np.array_equal(row, handed[step]) for row, step in zip(phi, due))
            return observe(phi, *run)

        monkeypatch.setattr(harness._BlockObserver, "watch", recording_watch)
        monkeypatch.setattr(harness._BlockObserver, "flush", recording_flush)
        monkeypatch.setattr(diagnostics, "observe", checked_observe)
        assert run_experiment(cfg).status == "completed"
        assert len(checked) == cfg.steps + 1 and all(checked)

    def test_first_failing_state_inside_a_block_ends_the_run(self, tmp_path, closing):
        cfg = preset_config("E", **self.CLOSING, output_dir=tmp_path)
        open_at, _, states = closing
        assert 0 < open_at % self.K < self.K - 1  # inside a block, not its last
        result = run_experiment(cfg)
        assert result.status == "closure"
        assert result.error.startswith(f"closure at step {open_at} ")
        assert result.steps_completed == open_at - 1
        assert result.rows == per_state_rows(states[:open_at])
        assert read_manifest(tmp_path)["steps_completed"] == str(open_at - 1)

    def test_closure_in_a_block_wins_over_a_later_blowup(self, tmp_path, monkeypatch, closing):
        # the guard trips one step after the failing state, before its block
        # is full, so the block is flushed while the BlowUp propagates
        open_at = closing[0]
        kick_at(monkeypatch, open_at + 1)
        loose = run_experiment(preset_config("E", **self.CLOSING, closure_tol=1.0,
                                             output_dir=tmp_path / "loose"))
        assert loose.status == "blowup" and loose.steps_completed == open_at
        kick_at(monkeypatch, open_at + 1)
        result = run_experiment(preset_config("E", **self.CLOSING, output_dir=tmp_path / "e"))
        assert result.status == "closure"
        assert result.steps_completed == open_at - 1
        assert len(result.rows) == open_at  # steps 0 .. open_at - 1
        assert read_manifest(tmp_path / "e")["status"] == "closure"

    def test_blowup_keeps_every_buffered_row(self, tmp_path, monkeypatch):
        blowup = self.K + 5  # mid-block: steps K .. K+4 are buffered
        cfg = preset_config("E", t_final=0.05, diagnostic_stride=1, output_dir=tmp_path / "a")
        whole = run_experiment(cfg).rows
        kick_at(monkeypatch, blowup)
        result = run_experiment(replace(cfg, output_dir=tmp_path / "b"))
        assert result.status == "blowup" and result.steps_completed == blowup - 1
        assert result.rows == whole[:blowup]
        rows = (tmp_path / "b" / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == 1 + blowup

    def test_each_due_state_observed_once(self, monkeypatch, tmp_path):
        # steps 0 and final are due for rows and snapshots; one pass per block
        blocks = []
        original = diagnostics.observe

        def observe(phi, *args):
            blocks.append(len(phi))
            return original(phi, *args)

        monkeypatch.setattr(diagnostics, "observe", observe)
        cfg = preset_config("E", t_final=0.05, output_dir=tmp_path)  # 100 steps, stride 1
        run_experiment(cfg)
        assert sum(blocks) == cfg.steps + 1
        assert blocks == [self.K] * (sum(blocks) // self.K) + [sum(blocks) % self.K] * bool(
            sum(blocks) % self.K)

    def test_each_due_state_observed_once_when_closure_fails(self, monkeypatch, tmp_path,
                                                             closing):
        # the run blows up with the failing state and the steps after it
        # buffered; the final flush finds that state open and records the
        # buffered steps before it from the same pass
        open_at, blowup, _ = closing
        assert blowup // self.K == open_at // self.K  # one block holds both
        observed, due, raised = [], [], []
        original, flush = diagnostics.observe, harness._BlockObserver.flush

        def observe(phi, *run):
            observed.extend(due)
            return original(phi, *run)

        def recording_flush(observer):
            due[:] = observer.pending  # the steps of the block's rows, in order
            try:
                flush(observer)
            except ClosureViolation as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(diagnostics, "observe", observe)
        monkeypatch.setattr(harness._BlockObserver, "flush", recording_flush)
        result = run_experiment(preset_config("E", **self.CLOSING, output_dir=tmp_path))
        assert len(observed) == len(set(observed)) == blowup
        assert [exc.step for exc in raised] == [open_at]
        assert result.error == read_manifest(tmp_path)["error"] == str(raised[0])
        assert len(result.rows) == open_at

    @pytest.mark.parametrize("stride, recorded", [(1, 29), (7, 28)])
    def test_interrupted_run_writes_its_rows_and_manifest(self, stride, recorded, tmp_path,
                                                          monkeypatch):
        # Ctrl-C inside step 30: the rows of the steps observed before it are
        # written, and steps_completed is the last of them
        cfg = preset_config("E", t_final=0.05, diagnostic_stride=stride, snapshot_stride=50,
                            output_dir=tmp_path / "whole")
        whole = (run_experiment(cfg), (tmp_path / "whole" / "diagnostics.csv").read_text())
        calls, original = [0], schemes.nonlinear_term

        def interrupted(*args):
            calls[0] += 1
            if calls[0] == 30:
                raise KeyboardInterrupt
            return original(*args)

        monkeypatch.setattr(schemes, "nonlinear_term", interrupted)
        out = tmp_path / "cut"
        with pytest.raises(KeyboardInterrupt):
            run_experiment(replace(cfg, output_dir=out))
        manifest = read_manifest(out)
        assert manifest["status"] == "interrupted" and "error" not in manifest
        assert manifest["steps_completed"] == str(recorded)
        assert manifest["steps_requested"] == str(cfg.steps)
        rows = len(range(0, recorded + 1, stride))
        assert (out / "diagnostics.csv").read_text().splitlines() == (
            whole[1].splitlines()[:1 + rows])
        assert float(manifest["max_abs_xi"]) == max(abs(row.xi) for row in whole[0].rows[:rows])
        assert [value for key, value in manifest.items() if key.startswith("output.")] == [
            "config.txt", "diagnostics.csv", "snapshots/curve_t0.000000.csv",
            "spectrum_t0.000000.csv"]

    def test_interrupt_outlives_the_closure_failure_its_flush_finds(self, tmp_path,
                                                                     monkeypatch, closing):
        # Ctrl-C at the nonlinear term's call for the step two past the failing
        # state, before the blow-up and with both buffered in one block: the
        # flush finds that state open, and the run still ends interrupted
        open_at, blowup, _ = closing
        call = open_at + 2
        assert call < blowup and call // self.K == open_at // self.K
        cfg = preset_config("E", **self.CLOSING, output_dir=tmp_path / "whole")
        whole = run_experiment(cfg)
        assert whole.status == "closure" and whole.steps_completed == open_at - 1
        out = tmp_path / "cut"
        interrupt_run(monkeypatch, 1, call)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(replace(cfg, output_dir=out))
        manifest = read_manifest(out)
        assert manifest["status"] == "interrupted"
        assert manifest["steps_completed"] == str(open_at - 1)
        assert manifest["error"] == whole.error
        assert whole.error.startswith(f"closure at step {open_at} ")
        rows = (out / "diagnostics.csv").read_bytes().splitlines()
        assert rows == (tmp_path / "whole" / "diagnostics.csv").read_bytes().splitlines()[
            :1 + open_at]
        assert len(rows) == 1 + open_at

    @pytest.mark.parametrize("blowup, last, recorded", [(None, 9, 95),
                                                        (harness.OBSERVE_BLOCK + 5, 2, 11)])
    def test_interrupt_in_the_last_flush(self, blowup, last, recorded, tmp_path, monkeypatch):
        # the last flush, the observe pass number ``last``, comes after the
        # stepping ends: at step 100 (eight full blocks before it) or at a
        # blow-up (one full block before it)
        if blowup:
            kick_at(monkeypatch, blowup)
        cfg = preset_config("E", t_final=0.05, diagnostic_stride=1, output_dir=tmp_path)
        calls, original = [0], diagnostics.observe

        def observe(*args):
            calls[0] += 1
            if calls[0] == last:
                raise KeyboardInterrupt
            return original(*args)

        monkeypatch.setattr(diagnostics, "observe", observe)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        manifest = read_manifest(tmp_path)
        assert calls[0] == last
        assert manifest["status"] == "interrupted"
        assert manifest["steps_completed"] == str(recorded)
        if blowup is None:
            assert "error" not in manifest
        else:  # the blow-up found on the way
            assert manifest["error"].startswith(f"blow-up at step {blowup} ")
        assert len((tmp_path / "diagnostics.csv").read_text().splitlines()) == 2 + recorded

    def test_observed_run_builds_only_its_initial_and_final_states(self, tmp_path, monkeypatch):
        built, post_init = [], geometry.ThetaLState.__post_init__

        def counted(state):
            built.append(state)
            post_init(state)

        monkeypatch.setattr(geometry.ThetaLState, "__post_init__", counted)
        cfg = preset_config("E", t_final=0.01, diagnostic_stride=1, snapshot_stride=1,
                            output_dir=tmp_path)
        result = run_experiment(cfg)
        assert len(result.rows) == cfg.steps + 1
        assert len(built) == 2 and built[1] is result.final

    def test_manifest_extremes_read_off_diagnostics(self, tmp_path):
        # cnadb at dt = 6.25e-3 completes with no BlowUp while xi reaches 26
        cfg = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5}, n=64, dt=6.25e-3,
                        t_final=0.2, scheme="cnadb", output_dir=tmp_path)
        assert run_experiment(cfg).status == "completed"
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        header = lines[0].split(",")
        table = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        peak = max(table, key=lambda row: abs(row["xi"]))
        manifest = read_manifest(tmp_path)
        assert float(manifest["max_abs_xi"]) == abs(peak["xi"]) > 10
        assert float(manifest["max_abs_xi_time"]) == peak["time"]
        assert float(manifest["max_tail"]) == max(row["tail_max"] for row in table)


class TestConvergenceStudy:
    def test_linear_problem_at_roundoff_floor(self, tmp_path, monkeypatch):
        # with the nonlinear term zeroed the integrating-factor scheme is
        # exact, so both difference norms sit at the roundoff floor
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=2e-3, t_final=0.4, scheme="adb")
        study = ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.4)
        monkeypatch.setattr(schemes, "nonlinear_term",
                            lambda phi_hat, length, filter, *work: np.zeros(2 * (phi_hat.size - 1)))
        row = run_convergence_study(study)
        assert row.err_coarse <= 1e-13 and row.err_fine <= 1e-13

    def test_time_axis_bundle(self, tmp_path):
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=4e-4, t_final=0.2, scheme="cn", output_dir=tmp_path)
        study = ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.2)
        row = run_convergence_study(study)
        text = (tmp_path / "convergence.csv").read_text().splitlines()
        assert text[0] == "curve,scheme,t0,err_coarse,err_fine,order"
        fields = text[1].split(",")
        assert fields[0] == "ellipse" and fields[1] == "cn"
        assert float(fields[5]) == pytest.approx(row.order, rel=1e-15)
        manifest = (tmp_path / "convergence_manifest.txt").read_text().splitlines()
        assert manifest == ["level.0 = ok", "level.1 = ok", "level.2 = ok",
                            "steps_completed.0 = 500", "steps_completed.1 = 1000",
                            "steps_completed.2 = 2000"]

    def test_failed_levels_recorded(self, tmp_path):
        # adb at n=128 blows up at t=0.062 with dt=2e-3 and at t=0.089 with
        # dt=1e-3; the dt=5e-4 level reaches t0 = 0.1
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=128, dt=2e-3, t_final=0.1, scheme="adb", output_dir=tmp_path)
        study = ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.1)
        with pytest.raises(StudyFailed) as err:
            run_convergence_study(study)
        assert sorted(err.value.errors) == [0, 1]
        manifest = dict(line.split(" = ", 1) for line in
                        (tmp_path / "convergence_manifest.txt").read_text().splitlines())
        assert [manifest[f"level.{k}"] for k in range(3)] == ["failed", "failed", "ok"]
        assert manifest["error.0"].startswith("level 0 (dt = 0.002): blow-up at step 31")
        assert manifest["error.1"].startswith("level 1 (dt = 0.001): blow-up at step")
        assert "error.2" not in manifest
        assert not (tmp_path / "convergence.csv").exists()

    def test_steps_completed_per_level(self, tmp_path):
        # the failing study above: levels 0 and 1 blow up at steps 31 and 89
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=128, dt=2e-3, t_final=0.1, scheme="adb", output_dir=tmp_path)
        with pytest.raises(StudyFailed):
            run_convergence_study(ConvergenceStudyConfig(base=base, axis="time",
                                                         comparison_time=0.1))
        lines = (tmp_path / "convergence_manifest.txt").read_text().splitlines()
        assert lines[3:6] == ["steps_completed.0 = 30", "steps_completed.1 = 88",
                              "steps_completed.2 = 200"]
        assert [line.split(" = ")[0] for line in lines[6:]] == ["error.0", "error.1"]

    @pytest.mark.parametrize("axis", ["time", "space"])
    def test_row_norms_of_the_level_states(self, axis):
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=1e-3, t_final=0.05, scheme="cnadb")
        study = ConvergenceStudyConfig(base=base, axis=axis, comparison_time=0.05)
        row = run_convergence_study(study)
        states = [schemes.integrate(harness.build_initial_state(cfg), cfg, cfg.t_final)
                  for cfg in study.level_configs()]
        assert row.err_coarse == diagnostics.state_difference_norm(states[0], states[1])
        assert row.err_fine == diagnostics.state_difference_norm(states[1], states[2])

    def test_interrupted_study_writes_the_manifest_of_its_levels(self, tmp_path, monkeypatch):
        # Ctrl-C inside level 1: level 0's lines, the running level, no CSV
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=4e-4, t_final=0.2, scheme="cnadb", output_dir=tmp_path)
        study = ConvergenceStudyConfig(base=base, axis="time", comparison_time=0.2)
        interrupt_run(monkeypatch, 2, 300)
        with pytest.raises(KeyboardInterrupt):
            run_convergence_study(study)
        assert (tmp_path / "convergence_manifest.txt").read_text().splitlines() == [
            "status = interrupted", "level.0 = ok", "level.1 = interrupted",
            "steps_completed.0 = 500", "steps_completed.1 = 0"]  # a level records no rows
        assert not (tmp_path / "convergence.csv").exists()

    def test_interrupt_in_setup_comes_before_any_level_steps(self, tmp_path, monkeypatch):
        # every level's initial state is built before level 0 steps, so Ctrl-C
        # while building the finest has no finished level to lose
        base = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5},
                         n=64, dt=4e-4, t_final=0.2, scheme="cnadb", output_dir=tmp_path)
        study = ConvergenceStudyConfig(base=base, axis="space", comparison_time=0.2)
        built, stepped, build = [], [], harness.build_initial_state

        def interrupted_build(cfg):
            built.append(cfg.n)
            if len(built) == 3:
                raise KeyboardInterrupt
            return build(cfg)

        monkeypatch.setattr(harness, "build_initial_state", interrupted_build)
        monkeypatch.setattr(schemes, "integrate", lambda *args: stepped.append(args))
        with pytest.raises(KeyboardInterrupt):
            run_convergence_study(study)
        assert built == [64, 128, 256] and not stepped
        assert not any(tmp_path.iterdir())

    def test_cli_blowup_exits_1_with_manifest(self, tmp_path, capsys):
        config = tmp_path / "study.txt"
        config.write_text("kind = converge\naxis = time\nshape = ellipse\n"
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
        config.write_text("kind = converge\naxis = time\nshape = ellipse\n"
                          "a = 1\nb = 0.5\nn = 64\ndt = 1e-3\nt_final = 0.05\nscheme = cn\n")
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
                         diagnostic_stride=20, output_dir=tmp_path)
        result = run_filter_study(base)
        assert result.labels == ["ADB", "ADBDPR", "ADBK", "CN", "CNDPR", "CNK", "CNADB"]
        spectra = (tmp_path / "filters_spectra.csv").read_text().splitlines()
        assert spectra[0] == "m," + ",".join(f"power_{x}" for x in result.labels)
        assert len(spectra) == 65  # header + one row per mode
        xi = (tmp_path / "filters_xi.csv").read_text().splitlines()
        assert xi[0] == "time," + ",".join(f"xi_{x}" for x in result.labels)

    def test_failed_variants_recorded(self, tmp_path):
        # adb and adbk blow up at step 31 on this config, after their
        # last observed step 30
        result = run_filter_study(replace(FILTER_128, output_dir=tmp_path))
        assert sorted(result.errors) == ["ADB", "ADBK"]
        manifest = dict(line.split(" = ", 1) for line in
                        (tmp_path / "filters_manifest.txt").read_text().splitlines())
        assert manifest["variant.ADB"] == "failed" and manifest["variant.CN"] == "ok"
        assert manifest["error.ADB"].startswith("BlowUp: blow-up at step 31 (t=0.062)")
        # the largest mean tangent over observed states: ADB's curve stops
        # closing before its guard trips, the completed variants close
        closure = {label: float(manifest[f"closure.{label}"]) for label in result.labels}
        assert closure["ADB"] > RunConfig.closure_tol
        assert max(closure[label] for label in result.labels if label not in result.errors) < 1e-12
        rows = [line.split(",") for line in
                (tmp_path / "filters_xi.csv").read_text().splitlines()]
        header, body = rows[0], rows[1:]
        assert len(body) == 11  # steps 0, 5, ..., 50
        for label in ("ADB", "ADBK"):
            cells = [row[header.index(f"xi_{label}")] for row in body]
            assert len(result.xi_series[label]) == 7  # steps 0, 5, ..., 30
            assert all(cells[:7]) and not any(cells[7:]), label

    @pytest.mark.parametrize("study, failed", [
        ("filter-128", {"ADB": 30, "ADBK": 30}),
        ("criterion-4", {"ADB": 1971}),
    ], ids=["filter-128", "criterion-4"])
    def test_steps_completed_per_variant(self, study, failed, tmp_path, request):
        if study == "criterion-4":
            base, result = request.getfixturevalue("criterion_4_study")
        else:
            base = replace(FILTER_128, output_dir=tmp_path)
            result = run_filter_study(base)
        lines = (base.output_dir / "filters_manifest.txt").read_text().splitlines()
        labels = result.labels
        assert lines[len(labels):2 * len(labels)] == [
            f"steps_completed.{label} = {failed.get(label, base.steps)}" for label in labels]
        assert lines[2 * len(labels)].startswith("error.")

    def test_interrupted_study_writes_the_manifest_of_its_variants(self, tmp_path, monkeypatch):
        # Ctrl-C inside ADBK, the third variant, at its step 23: the lines of
        # ADB and ADBDPR as an uninterrupted study writes them, then ADBK's
        # last recorded step, and no CSV
        run_filter_study(replace(FILTER_128, output_dir=tmp_path / "whole"))
        whole = (tmp_path / "whole" / "filters_manifest.txt").read_text().splitlines()
        interrupt_run(monkeypatch, 3, 23)
        out = tmp_path / "cut"
        with pytest.raises(KeyboardInterrupt):
            run_filter_study(replace(FILTER_128, output_dir=out))
        lines = (out / "filters_manifest.txt").read_text().splitlines()
        kept = [line for line in whole
                if line.split(" = ")[0].split(".")[1] in ("ADB", "ADBDPR")]
        assert lines == ["status = interrupted", *kept[:2], "variant.ADBK = interrupted",
                         *kept[2:4], "steps_completed.ADBK = 20", *kept[4:]]
        assert [line.split(" = ")[0] for line in kept[4:]] == [
            "error.ADB", "closure.ADB", "closure.ADBDPR"]
        assert sorted(path.name for path in out.iterdir()) == ["filters_manifest.txt"]

    def test_closure_is_the_largest_observed_defect(self, tmp_path):
        result = run_filter_study(replace(FILTER_128, output_dir=tmp_path))
        manifest = dict(line.split(" = ", 1) for line in
                        (tmp_path / "filters_manifest.txt").read_text().splitlines())
        for label, scheme, filter_mode in harness.FILTER_STUDY_VARIANTS:
            cfg = replace(FILTER_128, scheme=scheme, filter=filter_mode)
            defects, initial = [], harness.build_initial_state(cfg)
            with pytest.raises(BlowUp) if label in result.errors else nullcontext():
                schemes.integrate(initial, cfg, cfg.t_final, [(
                    cfg.diagnostic_stride, state_observer(initial, cfg.dt, lambda j, s: (
                        defects.append(observe_states([s]).closure[0]))))])
            assert float(manifest[f"closure.{label}"]) == max(defects), label

    def test_deterministic_reruns(self, tmp_path):
        # identical configs give byte-identical outputs, failed variants included
        for name in ("a", "b"):
            run_filter_study(replace(FILTER_128, output_dir=tmp_path / name))
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


@pytest.mark.parametrize("entry, kind, written", [
    (run_experiment, "run", "manifest.txt"),
    (run_filter_study, "run", "filters_manifest.txt"),
    (run_convergence_study, "converge", "convergence_manifest.txt"),
])
def test_entry_point_writes_where_config_says(entry, kind, written, tmp_path, monkeypatch):
    text = "shape = ellipse\na = 1\nb = 0.5\nn = 64\ndt = 1e-3\nt_final = 0.02\nscheme = cn\n"
    if kind == "converge":
        text += "kind = converge\naxis = time\n"
    monkeypatch.chdir(tmp_path)  # where a study writing without a directory would land
    if entry is not run_experiment:  # which requires an output directory
        entry(parse_config(text))
        assert not any(tmp_path.iterdir())
    entry(parse_config(text + f"out = {tmp_path / 'out'}\n"))
    assert (tmp_path / "out" / written).is_file()


@pytest.mark.parametrize("entry, calls", [
    (run_experiment, (1, 1, 1)),
    (run_filter_study, (7, 7, 1)),
    (run_convergence_study, (3, 3, 3)),
])
def test_every_trajectory_runs_through_the_block_observer(entry, calls, tmp_path, monkeypatch):
    # (_BlockObserver.run, schemes.integrate, build_initial_state) calls per
    # entry point; the filter study builds its shared initial state once
    counts = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    names = ("run", "integrate", "build_initial_state")
    for module, name in zip((harness._BlockObserver, schemes, harness), names):
        counting(module, name)
    cfg = RunConfig(shape="ellipse", shape_params={"a": 1.0, "b": 0.5}, n=32, dt=1e-3,
                    t_final=0.01, scheme="cn", output_dir=tmp_path)
    entry(ConvergenceStudyConfig(base=cfg, axis="time", comparison_time=0.01)
          if entry is run_convergence_study else cfg)
    assert tuple(map(counts.count, names)) == calls


class TestFormatting:
    def test_round_trip_exact(self, rng):
        for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
            assert float(format_float(x)) == x

    def test_negative_zero_normalized(self):
        assert format_float(-0.0) == "0"

    @pytest.mark.parametrize("rows", [
        [(-0.0, np.float64(-0.0), float("nan"), np.nan, 1e-300, 5e-324, -1.5e300),
         (np.int64(-255), 3, np.int64(0), float("inf"), -float("inf"), 0.1, np.float64(2) / 3)],
        [(np.int64(-3), 1e-300), (np.int64(4), -0.0)],  # a spectrum: int m and power
        [(0.5, -0.0, ""), (0.25, 1e-300, float("nan"))],  # a truncated series
        [("cardioid", "cnadb", 0.01, 4.3e-09, -0.0, 10)],  # a convergence row
    ], ids=["floats-and-ints", "int-column", "empty-cells", "text"])
    def test_csv_cells_read_as_format_cell(self, rows, tmp_path):
        path = tmp_path / "table.csv"
        columns = [f"c{i}" for i in range(len(rows[0]))]
        harness._write_csv(path, columns, iter(rows))
        expected = [",".join(columns)]
        expected += [",".join(harness._format_cell(cell) for cell in row) for row in rows]
        assert path.read_text().splitlines() == expected

    def test_numeric_table_same_bytes_as_array_rows_or_cells(self, tmp_path):
        rows = [(-0.0, 3, 0.30000000000000004, 2**52 + 1),
                (np.pi, -7, np.float64(-0.0), 1e-300),
                (5e-324, 0, -2.0 / 3, 123456789.12345678)]
        written = []
        for name, table in (("array", np.array(rows)), ("tuples", rows)):
            harness._write_csv(tmp_path / name, ("a", "b", "c", "d"), table)
            written.append((tmp_path / name).read_bytes())
        cells = "".join(",".join(map(harness._format_cell, row)) + "\n" for row in rows)
        assert written == [("a,b,c,d\n" + cells).encode()] * 2
        assert cells.splitlines()[0] == "0,3,0.30000000000000004,4503599627370497"


# ---------------------------------------------------------------------------
# run invariants: each entry point rejects each bad setting it takes with the
# documented error type, and the message names the offending key

_SCHEME = dict(scheme="cnadb", dt=1e-2)
_RUN = dict(shape="circle", n=32, t_final=0.1, **_SCHEME)
_BAD = [("scheme", "rk4"), ("filter", "lowpass"), ("dt", 0.0), ("dt", -1e-3), ("n", 24),
        ("n", 4), ("t_final", -0.1), ("t_final", 0.10025), ("closure_tol", 0.0),
        ("closure_tol", -1e-8)]
_SCHEME_KEYS = {"scheme", "filter", "dt"}
_RUN_KEYS = _SCHEME_KEYS | {"n", "t_final", "closure_tol"}


def _parse_with(key, value):
    return parse_config("".join(f"{k} = {v}\n" for k, v in {**_RUN, key: value}.items()))


def _integrate_to(key, t_final):
    state = harness.build_initial_state(RunConfig(**_RUN))
    return schemes.integrate(state, SchemeConfig(**_SCHEME), t_final)


_ENTRY_POINTS = {
    "parse_config": (_parse_with, ValidationError, _RUN_KEYS),
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


@pytest.mark.parametrize("entry", ["RunConfig", "preset_config"])
def test_non_integer_grid_size_rejected_naming_key(entry):
    # config text types n as an integer; the Python entry points take any number
    test_invariant_rejected_naming_key(entry, "n", 256.0)
    assert _ENTRY_POINTS[entry][0]("n", np.int64(32)).n == 32
