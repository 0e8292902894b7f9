"""End-to-end checks of the command-line interface.

Every test but one drives ``main(argv)`` in process so the suite stays
fast; ``TestEntryPoint`` runs ``python -m splaysim.cli`` once.  The contract
under test is the exit code (0 success, 1 honest failure, 2 usage
or config error), the files written to the output directory, and the lines
printed for a human reader.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splaysim
from splaysim import cli, experiments, sim
from splaysim.cli import CONFIG_SCHEMA, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from splaysim.model import (MAX_VALIDATION_GRID, InvalidPhaseResponseError, PhaseResponse,
                            validate_prc)
from splaysim.prc import prc_from_spec
from splaysim.sim import Perturbation, SimConfig, ZenoViolationError, read_trajectory_csv, run


@pytest.fixture(autouse=True)
def isolated_out(tmp_path, monkeypatch):
    """Keep any run that omits --out from writing into the repo."""
    monkeypatch.setenv("SPLAYSIM_OUT", str(tmp_path / "default_out"))


def write_config(path, **overrides):
    data = {
        "schema": CONFIG_SCHEMA,
        "omega": 1.0,
        "prc": "paper",
        "x0": [5.5977, 6.0274, 3.4383],
        "horizon": 30.0,
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


#: a config value for each SimConfig run parameter, off its default, and
#: what SimConfig must hold, from the config key or from the flag; float
#: parameters take JSON integers and store them as floats
NON_DEFAULTS = {
    "omega": (2, 2.0),
    "perturbation": ({"kind": "sinusoidal", "amplitude": 0.03}, Perturbation.sinusoidal(0.03)),
    "horizon": (4, 4.0),
    "max_jumps": (3, 3),
    "stop_v_threshold": (0, 0.0),
    "policy": ("enumerate", "enumerate"),
    "seed": (3, 3),
    "sample_dt": (1, 1.0),
}

#: the simulate subcommand's parser, and the flag of each of its options
SIMULATE = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["simulate"]
FLAGS = {a.dest: a.option_strings[0] for a in SIMULATE._actions if a.option_strings}


def as_flags(name, value):
    """The simulate flags that set SimConfig field name to a config value:
    the field's own flag, or for a perturbation block its --perturb-* flags."""
    if name == "perturbation":
        return [arg for key, v in value.items() if key != "kind"
                for arg in (FLAGS[f"perturb_{key}"], str(v))]
    return [FLAGS[name], str(value)]

_SINUSOID = {"kind": "sinusoidal", "amplitude": 0.03}
#: inputs that must end in "config error:" and exit 2: (config overrides, flags)
MALFORMED = {
    "seed-string": ({"seed": "abc"}, []),
    "seed-fraction": ({"seed": 3.7}, []),
    "seed-negative": ({"seed": -1}, []),
    "stop-v-string": ({"stop_v_threshold": "abc"}, []),
    "n-string": ({"n": "abc"}, []),
    "horizon-string": ({"horizon": "5"}, []),
    "horizon-beyond-float": ({"horizon": 10**400}, []),
    "x0-entry-beyond-float": ({"x0": [1, 10**400, 3]}, []),
    "omega-null": ({"omega": None}, []),
    "x0-string-entry": ({"x0": ["a", 1, 2]}, []),
    "prc-number": ({"prc": 5}, []),
    "amplitude-negative": ({"perturbation": {**_SINUSOID, "amplitude": -0.01}}, []),
    "amplitude-string": ({"perturbation": {**_SINUSOID, "amplitude": "abc"}}, []),
    "offset-string": ({"perturbation": {**_SINUSOID, "offsets": [0, 1, "z"]}}, []),
    "frequency-nan": ({"perturbation": {**_SINUSOID, "frequency": "nan"}}, []),
    "flag-amplitude-negative": ({}, ["--perturb-amplitude", "-0.1"]),
    "flag-offset-string": ({}, ["--perturb-amplitude", "0.03", "--perturb-offsets", "1,x,2"]),
    "flag-x0-string": ({}, ["--x0", "1,x,2"]),
    "flag-frequency-nan": ({}, ["--perturb-amplitude", "0.03", "--perturb-frequency", "nan"]),
    "max-jumps-string": ({"max_jumps": "x"}, []),
    "flag-sample-dt-1e-15": ({}, ["--sample-dt", "1e-15"]),
    "flag-sample-dt-1e-8": ({}, ["--sample-dt", "1e-8"]),
    "flag-omega-inf": ({}, ["--omega", "inf"]),
    "max-jumps-fraction": ({"max_jumps": 2.5}, []),
    "max-jumps-integral-float": ({"max_jumps": 3.0}, []),
    "max-jumps-nan": ({"max_jumps": math.nan}, []),
    "max-jumps-inf": ({"max_jumps": math.inf}, []),
    "n-fraction": ({"n": 3.5}, []),
    "n-matching-x0": ({"n": 3}, []),
    "x0-comma-string": ({"x0": "5.5977,6.0274,3.4383"}, []),
    "flag-stop-v-nan": ({}, ["--stop-v", "nan"]),
    "kind-none-with-flag-amplitude": ({"perturbation": {"kind": "none"}},
                                      ["--perturb-amplitude", "0.1"]),
    "flag-frequency-without-amplitude": ({}, ["--perturb-frequency", "0.7"]),
    "flag-offsets-without-amplitude": ({}, ["--perturb-offsets", "0,1,2"]),
    "horizon-true": ({"horizon": True}, []),
    "max-jumps-true": ({"max_jumps": True}, []),
    "stop-v-false": ({"stop_v_threshold": False}, []),
    "seed-true": ({"seed": True}, []),
    "x0-boolean-entry": ({"x0": [5.5977, True, 3.4383]}, []),
    "amplitude-true": ({"perturbation": {**_SINUSOID, "amplitude": True}}, []),
    "offset-false": ({"perturbation": {**_SINUSOID, "offsets": [0, False, 2]}}, []),
    "amplitude-beyond-float": ({"perturbation": {**_SINUSOID, "amplitude": 10**400}}, []),
    "frequency-beyond-float": ({"perturbation": {**_SINUSOID, "frequency": 10**400}}, []),
    "stop-splay-removed": ({"stop_splay_tol": 1e-3}, []),
    "firing-tol-removed": ({"firing_tol": 1e-9}, []),
    "min-dwell-removed": ({"min_dwell": 1e-9}, []),
    "seed-null": ({"seed": None}, []),
}
#: the malformed inputs of the wrong type (true or false included), and
#: the key the message must name
CAST_KEYS = {"horizon-string": "horizon", "horizon-beyond-float": "horizon",
             "x0-entry-beyond-float": "x0", "omega-null": "omega", "max-jumps-string": "max_jumps",
             "x0-string-entry": "x0", "x0-comma-string": "x0", "flag-x0-string": "x0",
             "max-jumps-fraction": "max_jumps", "max-jumps-integral-float": "max_jumps",
             "max-jumps-nan": "max_jumps", "max-jumps-inf": "max_jumps", "horizon-true": "horizon",
             "max-jumps-true": "max_jumps", "stop-v-false": "stop_v_threshold",
             "seed-true": "seed", "seed-null": "seed", "x0-boolean-entry": "x0",
             "amplitude-true": "perturbation.amplitude", "offset-false": "perturbation.offsets",
             "amplitude-string": "perturbation.amplitude", "offset-string": "perturbation.offsets",
             "frequency-nan": "perturbation.frequency",
             "amplitude-beyond-float": "perturbation.amplitude",
             "frequency-beyond-float": "perturbation.frequency"}
#: the malformed inputs that name a key SimConfig does not have; n is the
#: length of x0
UNKNOWN_KEYS = {"stop-splay-removed": "stop_splay_tol", "firing-tol-removed": "firing_tol",
                "min-dwell-removed": "min_dwell", "n-string": "n", "n-fraction": "n",
                "n-matching-x0": "n"}


class TestSimulate:
    def test_config_run_writes_trajectory_and_events(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "out"
        code = main(["simulate", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "stop reason:" in stdout
        assert "terminal V:" in stdout
        assert (out / "trajectory.csv").is_file()
        assert (out / "events.csv").is_file()
        arc = read_trajectory_csv(out / "trajectory.csv")
        assert arc.n == 3
        assert arc.js[-1] > 0

    def test_flags_alone_suffice_without_config(self, tmp_path):
        code = main([
            "simulate", "--x0", "0.5,2.5,4.5", "--prc", "paper",
            "--horizon", "5.0", "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_OK
        arc = read_trajectory_csv(tmp_path / "o" / "trajectory.csv")
        assert math.isclose(arc.final_time.t, 5.0)

    def test_unset_parameters_take_the_simconfig_defaults(self, tmp_path, monkeypatch):
        seen = []

        def capture(config):
            seen.append(config)
            return run(config)

        monkeypatch.setattr(cli, "run", capture)
        code = main(["simulate", "--x0", "0.5,2.5,4.5", "--prc", "paper",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        (config,) = seen
        defaults = SimConfig(prc=config.prc, x0=config.x0)
        for f in dataclasses.fields(SimConfig):
            if f.name != "x0":
                assert getattr(config, f.name) == getattr(defaults, f.name), f.name

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SimConfig)
                                      if f.name not in ("prc", "x0")])
    def test_each_config_key_reaches_simconfig(self, tmp_path, monkeypatch, name):
        # the same value reaches the field as a config key and as a flag
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or run(config))
        value, expected = NON_DEFAULTS[name]
        by_key = write_config(tmp_path / "key.json", **{"horizon": 5.0, name: value})
        by_flag = write_config(tmp_path / "flag.json", horizon=5.0)
        for argv in ([str(by_key)], [str(by_flag), *as_flags(name, value)]):
            assert main(["simulate", *argv, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(seen) == 2
        for config in seen:
            assert expected != getattr(SimConfig(prc=config.prc, x0=config.x0), name)
            assert getattr(config, name) == expected
            assert type(getattr(config, name)) is type(expected)

    def test_the_flags_are_the_simconfig_fields(self):
        # each field has one flag of its name, the perturbation its
        # --perturb-* flags, and no option reaches anything else but the
        # output directory and the config path
        fields = {f.name for f in dataclasses.fields(SimConfig)} - {"perturbation"}
        perturb = {f"perturb_{key}" for key in cli._PERTURBATION_KEYS - {"kind"}}
        dests = [a.dest for a in SIMULATE._actions if a.dest != "help"]
        assert sorted(dests) == sorted(fields | perturb | {"out", "config"})

    @pytest.mark.parametrize("flag", ["--firing-tol", "--min-dwell"])
    def test_a_removed_flag_is_a_usage_error_without_output(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(write_config(tmp_path / "run.json")), flag, "1e-9",
                  "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_null_turns_the_stop_rule_off(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or run(config))
        cfg = write_config(tmp_path / "run.json", horizon=5.0, stop_v_threshold=None)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert seen[0].stop_v_threshold is None

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_input_is_a_config_error_without_output(self, tmp_path, capsys, case):
        overrides, flags = MALFORMED[case]
        cfg = write_config(tmp_path / "run.json", **overrides)
        out = tmp_path / "o"
        code = main(["simulate", str(cfg), "--out", str(out), *flags])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        if case in CAST_KEYS:
            assert err.startswith(f"config error: {CAST_KEYS[case]}: ")
        if case in UNKNOWN_KEYS:
            assert f"unknown key {UNKNOWN_KEYS[case]!r}" in err
        assert not out.exists()

    def test_flags_override_config_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", horizon=80.0)
        code = main([
            "simulate", str(cfg), "--horizon", "1.0",
            "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_OK
        arc = read_trajectory_csv(tmp_path / "o" / "trajectory.csv")
        assert arc.final_time.t <= 1.0 + 1e-12

    def test_table_prc_path_resolves_against_config_dir(self, tmp_path, capsys):
        # The response table is referenced by a relative path inside the
        # config file and must be found next to the config, not the cwd.
        zs = np.linspace(0.0, 2.0 * np.pi, 2001)
        from splaysim.prc import paper_prc
        q = paper_prc(3)(zs)
        table = tmp_path / "resp.csv"
        table.write_text(
            "\n".join(f"{float(z)!r},{float(v)!r}" for z, v in zip(zs, q)))
        cfg = write_config(tmp_path / "run.json", prc="table:resp.csv",
                           horizon=10.0)
        code = main(["simulate", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "absent.json")])
        assert code == EXIT_USAGE
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, kind):
        cfg = tmp_path / "run.json"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(json.dumps({"schema": CONFIG_SCHEMA}).encode() + b"\xff")
        out = tmp_path / "o"
        code = main(["simulate", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("blocked", ["trajectory.csv", "events.csv"])
    def test_unwritable_csv_is_a_config_error_without_csv(self, tmp_path, capsys, blocked):
        cfg = write_config(tmp_path / "run.json", horizon=5.0)
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        code = main(["simulate", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error:")
        assert [p.name for p in out.iterdir()] == [blocked]
        assert (out / blocked).is_dir()

    def test_failed_write_removes_the_directories_it_made(self, tmp_path, monkeypatch,
                                                          capsys):
        def full(arc, path, events=None):
            raise OSError(28, "No space left on device", str(events))

        monkeypatch.setattr(cli, "write_trajectory_csv", full)
        cfg = write_config(tmp_path / "run.json", horizon=5.0)
        code = main(["simulate", str(cfg), "--out", str(tmp_path / "new" / "o")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: [Errno 28] ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
    def test_a_write_that_fails_midway_leaves_no_csv(self, tmp_path, monkeypatch, capsys,
                                                     existing):
        """The float kernel fails on its second call, a block into both
        files of the one write pass; neither file is left."""
        real, present = sim._float_cells, []

        def failing(values):
            if present:
                raise OSError(28, "No space left on device")
            present.extend(sorted(p.name for p in out.iterdir()))
            return real(values)

        monkeypatch.setattr(sim, "_float_cells", failing)
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "o"
        if existing:
            out.mkdir()
        code = main(["simulate", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: [Errno 28] ")
        assert present == ["events.csv", "trajectory.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o", "run.json"][not existing:]
        assert not existing or list(out.iterdir()) == []

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        data = json.loads(cfg.read_text())
        data["stop_v"] = 1e-6
        cfg.write_text(json.dumps(data))
        code = main(["simulate", str(cfg)])
        assert code == EXIT_USAGE
        assert "unknown key" in capsys.readouterr().err

    def test_wrong_schema_tag_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", schema="simconfig/2")
        code = main(["simulate", str(cfg)])
        assert code == EXIT_USAGE
        assert "schema" in capsys.readouterr().err

    def test_missing_x0_is_a_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--prc", "paper"])
        assert code == EXIT_USAGE
        assert "config error:" in capsys.readouterr().err

    def test_unparseable_x0_is_a_config_error(self, capsys):
        code = main(["simulate", "--prc", "paper", "--x0", "1.0,abc,2.0"])
        assert code == EXIT_USAGE

    def test_bad_prc_selector_is_a_config_error(self, capsys):
        code = main(["simulate", "--prc", "linear:abc", "--x0", "0,2,4"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("row, named", [("nan,0.0", "(nan, 0.0)"),
                                            ("4.0,-inf", "(4.0, -inf)")])
    def test_non_finite_table_breakpoint_is_a_config_error_without_output(
            self, tmp_path, capsys, row, named):
        table = tmp_path / "t.csv"
        table.write_text(f"0.0,0.0\n{row}\n{2.0 * np.pi!r},-1.0\n")
        out = tmp_path / "o"
        code = main(["simulate", "--x0", "1,2,3", "--prc", f"table:{table}", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: breakpoint 1 is not finite: {named}\n"
        assert not out.exists()
        assert main(["validate-prc", "--prc", f"table:{table}", "--n", "3"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: breakpoint 1 is not finite")

    def test_a_second_header_row_in_a_table_is_a_config_error_without_output(
            self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text(f"z,q\nzero,oops\n0.0,0.0\n{2.0 * np.pi!r},-1.0\n")
        out = tmp_path / "o"
        code = main(["simulate", "--x0", "1,2,3", "--prc", f"table:{table}", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {table}:2: could not parse 'zero,oops'\n"
        assert not out.exists()

    def test_out_of_box_phase_is_a_config_error(self, capsys):
        code = main(["simulate", "--prc", "paper", "--x0", "0,2,7.0"])
        assert code == EXIT_USAGE

    def test_zeno_violation_exits_one(self, tmp_path, capsys):
        # the drawn branch keeps a firer at 2*pi, which then fires again at once
        cfg = write_config(
            tmp_path / "zeno.json",
            prc="broken:zero",
            x0=[2.0 * np.pi, 2.0 * np.pi, 1.0],
            policy="enumerate",
            seed=1,
        )
        out = tmp_path / "o"
        code = main(["simulate", str(cfg), "--out", str(out)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert "zeno violation:" in err
        assert "np.float64" not in err  # event times are plain floats
        assert not out.exists()

    def test_response_leaving_the_box_exits_one_without_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "steep.json", prc="linear:20")
        out = tmp_path / "o"
        code = main(["simulate", str(cfg), "--out", str(out)])
        assert code == EXIT_FAIL
        assert "invalid response function:" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert not (out / "events.csv").exists()
        assert not out.exists()

    def test_perturbation_block_round_trips(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            horizon=10.0,
            stop_v_threshold=None,
            perturbation={"kind": "sinusoidal", "amplitude": 0.03,
                          "frequency": 0.5, "offsets": [0.0, 2.0, 4.0]},
        )
        code = main(["simulate", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert "horizon" in capsys.readouterr().out

    def test_perturbation_amplitude_flag_implies_sinusoid(self, tmp_path):
        code = main([
            "simulate", "--x0", "0,2,4", "--prc", "paper",
            "--horizon", "5.0", "--perturb-amplitude", "0.05",
            "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_OK

    def test_perturbation_parameters_without_a_kind_mean_a_sinusoid(self, tmp_path,
                                                                     monkeypatch):
        seen = []

        def capture(config):
            seen.append(config)
            return run(config)

        monkeypatch.setattr(cli, "run", capture)
        cfg = write_config(tmp_path / "run.json", horizon=5.0, perturbation={"amplitude": 0.04})
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert seen[0].perturbation == Perturbation.sinusoidal(0.04)

    def test_perturbation_wrong_offset_count_is_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            perturbation={"kind": "sinusoidal", "amplitude": 0.03,
                          "offsets": [0.0, 1.0]},
        )
        code = main(["simulate", str(cfg)])
        assert code == EXIT_USAGE
        assert "offsets" in capsys.readouterr().err

    def test_unknown_perturbation_kind_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json",
                           perturbation={"kind": "square", "amplitude": 0.1})
        code = main(["simulate", str(cfg)])
        assert code == EXIT_USAGE

    def test_out_dir_falls_back_to_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("SPLAYSIM_OUT", str(target))
        cfg = write_config(tmp_path / "run.json", horizon=5.0)
        code = main(["simulate", str(cfg)])
        assert code == EXIT_OK
        assert (target / "trajectory.csv").is_file()

    @pytest.mark.parametrize("via", ["flag", "environment"])
    def test_out_naming_a_file_is_a_config_error(self, tmp_path, monkeypatch, capsys, via):
        target = tmp_path / "taken"
        target.write_text("kept\n")
        cfg = write_config(tmp_path / "run.json", horizon=5.0)
        argv = ["simulate", str(cfg)]
        if via == "flag":
            argv += ["--out", str(target)]
        else:
            monkeypatch.setenv("SPLAYSIM_OUT", str(target))
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error:")
        assert target.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "taken"]

    def test_out_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPLAYSIM_OUT", str(tmp_path / "env"))
        out = tmp_path / "flag"
        cfg = write_config(tmp_path / "run.json", horizon=5.0)
        code = main(["simulate", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trajectory.csv").is_file()
        assert not (tmp_path / "env").exists()


class TestValidatePrc:
    def test_valid_response_passes(self, capsys):
        code = main(["validate-prc", "--prc", "paper", "--n", "3"])
        assert code == EXIT_OK
        assert "pass" in capsys.readouterr().out.lower()

    def test_out_of_family_slope_fails(self, capsys):
        code = main(["validate-prc", "--prc", "linear:1.5", "--n", "3"])
        assert code == EXIT_FAIL
        stdout = capsys.readouterr().out
        assert "fail" in stdout.lower()

    def test_broken_catalog_entry_fails_with_named_checks(self, capsys):
        code = main(["validate-prc", "--prc", "broken:zero", "--n", "3"])
        assert code == EXIT_FAIL
        stdout = capsys.readouterr().out
        assert "reset-at-top" in stdout

    @pytest.mark.parametrize("spec, given, calls", [
        ("paper", {}, 0), ("linear:0.5", {}, 0), ("linear:1.5", {}, 0), ("broken:zero", {}, 1),
        ("paper", {"grid": 20000}, 1), ("paper", {"lipschitz": 5.0}, 1),
    ], ids=["paper", "linear-0.5", "linear-1.5", "broken-zero", "paper-grid", "paper-lipschitz"])
    def test_a_response_s_own_report_is_printed_unless_a_flag_asks_for_another(
            self, monkeypatch, capsys, spec, given, calls):
        """paper, linear:<c> and table: responses carry the report of
        validate_prc's defaults, and it is printed as it is; a broken:*
        response carries none, and --grid or --lipschitz asks for another,
        so validate_prc runs once.  The text is the report validate_prc
        gives either way."""
        report = validate_prc(prc_from_spec(spec, 3).func, 3, **given)
        counted = []
        monkeypatch.setattr(cli, "validate_prc",
                            lambda *a, **kw: counted.append(kw) or validate_prc(*a, **kw))
        flags = [text for key, value in given.items() for text in (f"--{key}", str(value))]
        code = main(["validate-prc", "--prc", spec, "--n", "3", *flags])
        assert counted == [given] * calls
        assert capsys.readouterr().out == report.summary() + "\n"
        assert code == (EXIT_OK if report.passed else EXIT_FAIL)

    def test_unknown_selector_is_usage_error(self, capsys):
        code = main(["validate-prc", "--prc", "nonsense", "--n", "3"])
        assert code == EXIT_USAGE

    def test_grid_above_the_cap_is_usage_error(self, capsys):
        grid = str(MAX_VALIDATION_GRID + 1)
        code = main(["validate-prc", "--prc", "paper", "--n", "3", "--grid", grid])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: grid must be between")
        assert captured.out == ""

    def test_scalar_only_response_is_usage_error(self, monkeypatch, capsys):
        def scalar_q(z):
            return 0.0 if z <= 4.0 else 4.0 - z

        monkeypatch.setattr(cli, "prc_from_spec", lambda spec, n: PhaseResponse(spec, scalar_q, n))
        code = main(["validate-prc", "--prc", "scalar", "--n", "3"])
        assert code == EXIT_USAGE
        assert "one increment per phase" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", str(10**400)])
    def test_bad_network_size_is_usage_error(self, capsys, n):
        # a size beyond the float range would overflow in the response's corner
        code = main(["validate-prc", "--prc", "paper", "--n", n])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("lipschitz", ["nan", "inf", "0", "-1"])
    def test_bad_lipschitz_constant_is_usage_error(self, capsys, lipschitz):
        code = main(["validate-prc", "--prc", "paper", "--n", "3", "--lipschitz", lipschitz])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: lipschitz must be")
        assert captured.out == ""


class TestExperiment:
    def test_unknown_name_is_usage_error(self, capsys):
        code = main(["experiment", "nosuch"])
        assert code == EXIT_USAGE

    def test_fig2_study_passes_and_writes_summary(self, tmp_path, capsys):
        code = main(["experiment", "fig2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = tmp_path / "fig2" / "summary.json"
        assert summary.is_file()
        data = json.loads(summary.read_text())
        assert data["passed"] is True
        assert "summary:" in capsys.readouterr().out

    def test_corpus_accepts_reduced_budgets(self, tmp_path, capsys):
        code = main(["experiment", "corpus", "--samples", "2000",
                     "--runs", "6", "--seed", "7", "--out", str(tmp_path)])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "corpus" / "summary.json").read_text())
        assert data["passed"] is True

    @pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--runs", "-3"),
                                             ("--samples", "0")])
    def test_corpus_budget_below_one_is_a_config_error(self, tmp_path, capsys, flag, value):
        code = main(["experiment", "corpus", flag, value, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "corpus").exists()

    def test_corpus_negative_seed_is_a_config_error(self, tmp_path, capsys):
        code = main(["experiment", "corpus", "--seed", "-1", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: seed must be nonnegative")
        assert not (tmp_path / "corpus").exists()

    def test_corpus_samples_above_the_cap_are_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["experiment", "corpus", "--samples",
                     str(experiments.MAX_GEOMETRY_SAMPLES + 1), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: geometry_samples must be at most")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--samples", "10"), ("--runs", "5"),
                                             ("--seed", "3")])
    def test_corpus_flags_on_another_study_are_a_config_error(self, tmp_path, capsys,
                                                              flag, value):
        code = main(["experiment", "fig2", flag, value, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"config error: {flag} ")
        assert not (tmp_path / "fig2").exists()


    @pytest.mark.parametrize("error, prefix", [
        (ZenoViolationError(3.0, 2, 1e-6, 1e-3), "zeno violation: "),
        (InvalidPhaseResponseError("reset left the box"), "invalid response function: "),
    ], ids=["zeno", "response"])
    def test_run_error_in_a_study_exits_one(self, tmp_path, monkeypatch, capsys, error, prefix):
        def study(out_dir):
            raise error

        monkeypatch.setitem(experiments.EXPERIMENTS, "fig2", study)
        code = main(["experiment", "fig2", "--out", str(tmp_path)])
        assert code == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.err == f"{prefix}{error}\n"
        assert captured.out == ""

    def test_out_naming_a_file_is_a_config_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("kept\n")
        code = main(["experiment", "fig2", "--out", str(target)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""
        assert target.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


class TestCloseness:
    def run_pair(self, tmp_path):
        for name, x0 in (("a", "0.5,2.5,4.5"), ("b", "0.6,2.5,4.5")):
            code = main(["simulate", "--x0", x0, "--prc", "paper",
                         "--horizon", "10.0",
                         "--out", str(tmp_path / name)])
            assert code == EXIT_OK
        return (tmp_path / "a" / "trajectory.csv",
                tmp_path / "b" / "trajectory.csv")

    def test_self_comparison_reports_zero(self, tmp_path, capsys):
        first, _ = self.run_pair(tmp_path)
        code = main(["closeness", str(first), str(first), "--tau", "5.0"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "eps_star: 0" in stdout

    def test_distinct_starts_report_positive_bound(self, tmp_path, capsys):
        first, second = self.run_pair(tmp_path)
        code = main(["closeness", str(first), str(second), "--tau", "5.0"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        eps = float(stdout.split("eps_star:")[1].split()[0])
        assert 0.0 < eps < 1.0
        assert "witness: t=" in stdout

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["closeness", str(tmp_path / "gone.csv"),
                     str(tmp_path / "gone.csv"), "--tau", "5.0"])
        assert code == EXIT_USAGE

    def test_malformed_header_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,phase\n0.0,1.0\n")
        code = main(["closeness", str(bad), str(bad), "--tau", "5.0"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("column, value", [
        (1, "0"), (1, "1.5"), (-1, "garbage"), (0, "nan"), (2, "nan"), (2, "9.0"), (0, "0.0"),
    ], ids=["decreasing", "not-an-integer", "unknown-kind", "nan-time", "nan-phase",
            "outside-box", "time-decreases"])
    def test_malformed_jump_index_is_usage_error(self, tmp_path, capsys, column, value):
        first, _ = self.run_pair(tmp_path)
        lines = first.read_text().splitlines()
        cut = next(i for i, line in enumerate(lines) if line.split(",")[1] == "1")
        fields = lines[cut + 1].split(",")
        fields[column] = value
        lines[cut + 1] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["closeness", str(first), str(bad), "--tau", "5.0"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"config error: {bad}:{cut + 2}: " in captured.err
        assert "eps_star" not in captured.out

    def test_nan_tau_is_usage_error(self, tmp_path, capsys):
        first, _ = self.run_pair(tmp_path)
        capsys.readouterr()
        code = main(["closeness", str(first), str(first), "--tau", "nan"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: tau must be nonnegative, got nan")
        assert "eps_star" not in captured.out

    def test_one_oscillator_file_is_usage_error(self, tmp_path, capsys):
        single = tmp_path / "single.csv"
        single.write_text("t,j,x_1,V,Vtilde,event\n0.0,0,1.0,0.0,0.0,flow\n")
        code = main(["closeness", str(single), str(single), "--tau", "5.0"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"config error: {single}: need at least 2 oscillators, got 1\n"
        assert "eps_star" not in captured.out

    def test_file_without_samples_is_usage_error(self, tmp_path, capsys):
        first, _ = self.run_pair(tmp_path)
        header_only = tmp_path / "header_only.csv"
        header_only.write_text(first.read_text().splitlines()[0] + "\n\n")
        capsys.readouterr()
        code = main(["closeness", str(first), str(header_only), "--tau", "5.0"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"config error: {header_only}: no samples\n"
        assert "eps_star" not in captured.out


class TestEntryPoint:
    """``python -m splaysim.cli`` exits with the code ``main`` returns."""

    def run_module(self, *argv):
        src = str(Path(splaysim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "splaysim.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_config_directory_exits_two_without_traceback(self, tmp_path):
        done = self.run_module("simulate", str(tmp_path), "--out", str(tmp_path / "o"))
        assert done.returncode == EXIT_USAGE
        assert done.stderr.startswith("config error:")
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()

    def test_good_config_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", horizon=5.0)
        done = self.run_module("simulate", str(cfg), "--out", str(tmp_path / "o"))
        assert done.returncode == EXIT_OK, done.stderr
        assert "stop reason: horizon" in done.stdout
        assert (tmp_path / "o" / "trajectory.csv").is_file()
