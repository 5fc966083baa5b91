"""End-to-end tests of the command-line interface.

Most cases call ``main`` in process with configs written to pytest tmp
directories; exit codes and the JSON error channel on stderr are part
of the contract, as is byte-identical output for repeated runs.
"""

import dataclasses
import gc
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import semdde
from semdde.analysis import err_and_amplitude
from semdde.analysis import convergence_study
from semdde.cli import RunConfig, _initial_state, main, run
from semdde.collocation import DiscreteState, default_constraints, \
    newton_solve, resample_state, state_from_document, state_to_document
from semdde.continuation import checked_amplitude, continue_branch, \
    hopf_initial_guess, mackey_glass_hopf, sd_quadratic_seed, \
    write_branch_csv
from semdde.errors import AnalyticityViolationError, ConfigError, \
    InvalidArgumentError, SemDdeError
from semdde.nodes import NodeKind, lebesgue_constant, make_nodes
from semdde.oracle import phi_m_defect
from semdde.piecewise import Mesh, PeriodicPiecewisePoly
from semdde.problems import get_problem, mackey_glass, sd_quadratic


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def child_env(**variables):
    """This environment with ``variables`` set, in which a child
    interpreter imports the same semdde as this process, whether it is
    installed or found through PYTHONPATH."""
    package_root = os.path.dirname(os.path.dirname(semdde.__file__))
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def read_error(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err.splitlines()[-1])["error"]


@pytest.fixture(scope="module")
def mg_solution(tmp_path_factory):
    """One solved Mackey-Glass orbit just past the onset delay."""
    out = tmp_path_factory.mktemp("mg_solution")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "problem": "mackey_glass", "mesh": 11, "degree": 5,
        "guess": {"kind": "hopf", "amplitude": 0.01},
        "out_dir": str(out),
    }))
    assert main(["solve", "--config", str(cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def mg_branch(tmp_path_factory):
    """An eight-point branch used by the resume tests: it reaches the
    predictor's full history of six orbits."""
    out = tmp_path_factory.mktemp("mg_branch")
    doc = {
        "problem": "mackey_glass", "mesh": 11, "degree": 4,
        "guess": {"kind": "hopf", "amplitude": 0.01},
        "p_to": 0.55, "steps": 8, "out_dir": str(out),
    }
    cfg = out / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["continue", "--config", str(cfg)]) == 0
    return out, doc


class TestRunConfig:
    def test_unknown_key_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_document({"problem": "x", "speling": 1})

    def test_unknown_key_error_lists_every_field(self):
        names = sorted(f.name for f in dataclasses.fields(RunConfig))
        assert len(names) == 16
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_document({"speling": 1})
        assert str(excinfo.value).endswith(f"known keys are {names}")

    def test_empty_document_gives_the_defaults(self):
        assert RunConfig.from_document({}) == RunConfig()

    def test_non_object_is_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_document([1, 2])

    def test_unknown_newton_key_is_rejected(self):
        with pytest.raises(ConfigError, match="newton settings"):
            RunConfig.from_document({"newton": {"tol": 1e-8}})

    def test_scalar_degree_and_params_normalize_to_tuples(self):
        cfg = RunConfig.from_document({"degree": 7, "params": 0.5})
        assert cfg.degree == (7,)
        assert cfg.params == (0.5,)

    def test_mesh_int_becomes_uniform(self):
        cfg = RunConfig.from_document({"mesh": 4})
        assert np.array_equal(cfg.mesh.breaks, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_mesh_breaks_pass_through(self):
        cfg = RunConfig.from_document({"mesh": [0.0, 0.3, 1.0]})
        assert np.array_equal(cfg.mesh.breaks, [0.0, 0.3, 1.0])

    def test_guess_without_kind_is_rejected(self):
        with pytest.raises(ConfigError, match="guess"):
            RunConfig.from_document({"guess": {"amplitude": 0.1}})

    def test_zero_steps_is_rejected(self):
        with pytest.raises(ConfigError, match="steps"):
            RunConfig.from_document({"steps": 0})

    def test_mesh_list_type_check(self):
        with pytest.raises(ConfigError, match="mesh_list"):
            RunConfig.from_document({"mesh_list": [2, 0]})

    @pytest.mark.parametrize("change", [
        {"guess": {"kind": "constant", "values": ["a"], "period": 1.6}},
        {"guess": {"kind": "constant", "values": [True], "period": 1.6}},
        {"guess": {"kind": "constant", "values": [], "period": 1.6}},
        {"guess": {"kind": "constant", "values": [1.0], "period": "x"}},
        {"guess": {"kind": "constant", "values": [1.0]}},
        {"guess": {"kind": "hopf", "amplitude": "x"}},
        {"guess": {"kind": "hopf", "offset": None}},
        {"guess": {"kind": "file", "path": ["solution.json"]}},
        {"guess": {"kind": "constant", "values": [1.0], "period": 1.6,
                   "amplitude": 0.1}},
        {"resume": "false"},
        {"steps": True},
        {"mesh": True},
        {"newton": {"fd_step": True}},
        {"newton": {"fd_step": 0.0}},
        {"newton": {"tol_residual": "1e-8"}},
        {"newton": {"max_iter": 2.5}},
        {"newton": {"max_iter": True}},
        {"params": [10**400]},
    ], ids=["values_str", "values_bool", "values_empty", "period_str",
            "period_missing", "amplitude_str", "offset_null", "path_list",
            "constant_extra_key", "resume_str", "steps_bool", "mesh_bool",
            "fd_step_bool", "fd_step_zero", "tol_str", "max_iter_float",
            "max_iter_bool", "params_huge_int"])
    def test_malformed_value_exits_1_before_solving(self, tmp_path, capsys,
                                                     change):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 3, "degree": 3,
            "guess": {"kind": "constant", "values": [1.0], "period": 1.6},
            "params": [0.3], "out_dir": str(tmp_path), **change,
        })
        assert main(["solve", "--config", path]) == 1
        assert read_error(capsys)["type"] == "ConfigError"
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("mesh, code, message", [
        ([k / 11 for k in range(12)], 0, None),
        ([str(k / 11) for k in range(12)], 1, "each entry of breaks must "),
        ([False, True], 1, "each entry of breaks must "),
        ([0, 0.7, 0.5, 1], 1, "mesh breaks must be strictly increasing"),
    ], ids=["numbers", "strings", "bools", "not_increasing"])
    def test_mesh_breaks_pass_the_real_rule(self, tmp_path, capsys, mesh,
                                            code, message):
        # numpy read the strings as numbers and the bools as 0 and 1; a
        # refused list exits as ConfigError, like every other config value
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": mesh, "degree": 5,
            "guess": {"kind": "hopf", "amplitude": 0.01},
            "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == code
        assert (tmp_path / "solution.json").exists() == (code == 0)
        if code:
            error = read_error(capsys)
            assert error["type"] == "ConfigError"
            assert error["message"].startswith(message)

    #: one malformed value per config key; a key added later needs its own
    MALFORMED = {
        "problem": 3, "node_kind": "padua", "mesh": True, "mesh_list": [0],
        "degree": "5", "params": "x", "newton": 3, "out_dir": 3, "grid": 1,
        "guess": 3, "p_to": "x", "steps": 0, "resume": "false", "k_max": 0,
        "solution": 3, "samples": True}

    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(RunConfig)])
    def test_every_key_refuses_a_malformed_value_as_config_error(
            self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", {key: self.MALFORMED[key]})
        assert main(["solve", "--config", path]) == 1
        error = read_error(capsys)
        assert error["type"] == "ConfigError"
        assert key in error["message"]
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe{}"],
                             ids=["not_json", "not_utf8"])
    def test_a_config_that_is_not_json_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_bytes(text)
        assert main(["solve", "--config", str(path)]) == 1
        error = read_error(capsys)
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"{path} is not valid JSON: ")

    @pytest.mark.parametrize("value", [None, 3], ids=["null", "number"])
    @pytest.mark.parametrize("key", ["problem", "out_dir", "solution"])
    def test_text_key_must_be_a_string(self, tmp_path, capsys, monkeypatch,
                                       key, value):
        # a relative output directory would land in tmp_path
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "c.json", {"degree": [4], key: value})
        assert main(["nodes", "--config", path]) == 1
        error = read_error(capsys)
        assert error["type"] == "ConfigError"
        assert key in error["message"]
        assert os.listdir(tmp_path) == ["c.json"]


class TestSolve:
    def test_happy_path_outputs(self, mg_solution):
        state = state_from_document(
            json.loads((mg_solution / "solution.json").read_text()))
        result = json.loads((mg_solution / "result.json").read_text())
        assert result["format_version"] == 1
        assert result["problem"] == "mackey_glass"
        assert result["T"] == pytest.approx(state.period)
        assert result["err"] < 1e-6
        assert result["phi_defect"] < 1e-8
        assert result["amplitude"] > 0.01
        # one dense pass gives both, bitwise
        assert (result["err"], result["amplitude"]) == err_and_amplitude(
            state, mackey_glass(), 10001)
        meta = json.loads((mg_solution / "metadata.json").read_text())
        assert meta["command"] == "solve" and meta["wall_time"] > 0.0
        phases = [meta[key] for key in
                  ("newton_s", "residual_err_s", "phi_defect_s")]
        assert all(t > 0.0 for t in phases)
        assert sum(phases) <= meta["wall_time"]

    def test_data_files_are_byte_identical_across_runs(self, mg_solution,
                                                       tmp_path):
        cfg = json.loads((mg_solution / "config.json").read_text())
        cfg["out_dir"] = str(tmp_path)
        path = write_config(tmp_path / "config.json", cfg)
        assert main(["solve", "--config", path]) == 0
        for name in ("solution.json", "result.json"):
            assert (tmp_path / name).read_bytes() == \
                (mg_solution / name).read_bytes()

    def test_out_flag_overrides_config_dir(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 3, "degree": 3,
            "guess": {"kind": "constant", "values": [1.0], "period": 1.6},
            "params": [0.3],
        })
        out = tmp_path / "elsewhere"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        assert (out / "solution.json").exists()

    def test_value_error_inside_a_command_exits_1(self, tmp_path, capsys,
                                                  monkeypatch):
        def broken(cfg, out_dir):
            raise ValueError("bad value deep inside")

        monkeypatch.setattr("semdde.cli.cmd_solve", broken)
        path = write_config(tmp_path / "c.json", {"out_dir": str(tmp_path)})
        assert main(["solve", "--config", path]) == 1
        assert read_error(capsys) == {"type": "ValueError",
                                      "message": "bad value deep inside"}

    def test_constant_guess_converges_to_equilibrium(self, tmp_path):
        # below the onset delay the equilibrium is the only nearby
        # solution, so this is a cheap convergence check
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 3, "degree": 3,
            "guess": {"kind": "constant", "values": [1.2], "period": 1.6},
            "params": [0.3], "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["amplitude"] < 1e-8
        assert result["p"] == [0.3]

    def test_unknown_problem_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "lorenz", "mesh": 2, "degree": 3,
            "guess": {"kind": "constant", "values": [1.0], "period": 1.0},
            "params": [0.1], "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == 1
        assert read_error(capsys)["type"] == "InvalidArgumentError"

    def test_missing_guess_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 2, "degree": 3,
            "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == 1
        assert read_error(capsys)["type"] == "ConfigError"

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "ghost.json")]) == 1
        assert read_error(capsys)["type"] == "FileNotFoundError"

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 1
        assert "message" in read_error(capsys)

    def test_invalid_newton_value_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 2, "degree": 3,
            "guess": {"kind": "constant", "values": [1.0], "period": 1.0},
            "params": [0.1], "newton": {"max_iter": 0},
            "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == 1

    def test_newton_divergence_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 11, "degree": 4,
            "guess": {"kind": "hopf", "amplitude": 0.5},
            "newton": {"max_iter": 1}, "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == 2
        assert read_error(capsys)["type"] == "MaxIterExceededError"

    @pytest.mark.parametrize("section,key,bad", [
        ("profile", "degree", 5.0),
        ("profile", "degree", "5"),
        ("profile", "degree", True),
        ("profile", "dim", 1.0),
        ("profile", "dim", True),
        ("profile", "values", "abc"),
        ("profile", "values", [[["1.0"]]]),
        (None, "mu", "abc"),
        (None, "mu", [1.6, None]),
    ])
    def test_malformed_guess_file_exits_1(self, mg_solution, tmp_path,
                                          capsys, section, key, bad):
        doc = json.loads((mg_solution / "solution.json").read_text())
        (doc[section] if section else doc)[key] = bad
        guess = tmp_path / "guess.json"
        guess.write_text(json.dumps(doc))
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 11, "degree": 5,
            "guess": {"kind": "file", "path": str(guess)},
            "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == 1
        assert read_error(capsys)["type"] == "InvalidArgumentError"

    def test_hopf_guess_requires_an_onset(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(
            "semdde.cli.get_problem",
            lambda name: dataclasses.replace(get_problem(name), onset=None))
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 4, "degree": 4,
            "guess": {"kind": "hopf"}, "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == 1
        assert read_error(capsys)["type"] == "ConfigError"
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("command", ["solve", "continue"])
    def test_collapse_onto_the_equilibrium_exits_2(self, tmp_path, capsys,
                                                   command):
        # sd_quadratic has no orbit just above its onset, so Newton falls
        # from the 0.01 hopf guess onto the equilibrium
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "mesh": 12, "degree": 5,
            "guess": {"kind": "hopf", "amplitude": 0.01},
            "p_to": 1.4, "steps": 2, "out_dir": str(tmp_path),
        })
        assert main([command, "--config", path]) == 2
        error = read_error(capsys)
        assert error["type"] == "CollapseError"
        assert "2.000e-02" in error["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_continue_from_a_flat_first_orbit_exits_2(self, tmp_path,
                                                      capsys):
        # a hopf guess of amplitude 0 is the equilibrium, which solves
        # without a collapse; continue refuses it before schedule.json
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "mesh": 12, "degree": 5,
            "guess": {"kind": "hopf", "amplitude": 0.0},
            "p_to": 1.4, "steps": 2, "out_dir": str(tmp_path),
        })
        assert main(["continue", "--config", path]) == 2
        error = read_error(capsys)
        assert error["type"] == "CollapseError"
        assert "flat-profile floor 1e-08" in error["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_orbit_that_grows_from_its_guess_is_kept(self, mg_solution):
        # the Mackey-Glass hopf guess (sine amplitude 0.01, whose peaks
        # fall between the nodes of (11, 8)) converges to an orbit above
        # the onset, which the collapse rule lets through
        cfg = RunConfig.from_document(
            json.loads((mg_solution / "config.json").read_text()))
        guess = _initial_state(cfg)
        assert checked_amplitude(guess) == pytest.approx(0.0199702562209,
                                                         rel=1e-12)
        result = json.loads((mg_solution / "result.json").read_text())
        assert result["amplitude"] == pytest.approx(0.029, abs=1e-3)

    def test_flat_hopf_guess_converges_to_the_equilibrium(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "mesh": 12, "degree": 5,
            "guess": {"kind": "hopf", "amplitude": 0.0},
            "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["amplitude"] < 1e-8

    def test_seed_guess_is_solved_on_the_configured_mesh(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "params": [0.95], "mesh": 20,
            "degree": 8, "guess": {"kind": "seed"}, "out_dir": str(tmp_path),
        })
        assert main(["solve", "--config", path]) == 0
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert doc["profile"]["degree"] == 8
        assert len(doc["profile"]["breaks"]) == 21
        # the library solve from the resampled seed, bit for bit
        prob = sd_quadratic()
        init = resample_state(sd_quadratic_seed(0.95), Mesh.uniform(20), 8)
        cons = default_constraints(prob, init.params)
        solved = newton_solve(init, prob, cons)
        state = solved.state
        err, amplitude = err_and_amplitude(state, prob)
        assert state_from_document(doc).flatten().tobytes() == \
            state.flatten().tobytes()
        assert json.loads((tmp_path / "result.json").read_text()) == {
            "format_version": 1, "problem": "sd_quadratic",
            "p": state.params.tolist(), "T": state.period,
            "amplitude": amplitude, "err": err,
            "phi_defect": phi_m_defect(state, prob, cons).max_defect,
            "iterations": solved.iterations,
        }

    @pytest.mark.parametrize("command", ["solve", "continue"])
    @pytest.mark.parametrize("given,breaks,degree", [
        ({"mesh": 20}, 21, 5), ({"degree": 8}, 13, 8), ({}, 13, 5),
    ], ids=["mesh_only", "degree_only", "neither"])
    def test_file_guess_takes_what_the_config_leaves_out(
            self, tmp_path, command, given, breaks, degree):
        # the seed file holds the shipped 12-interval degree-5 orbit
        guess = tmp_path / "guess.json"
        guess.write_text(json.dumps(state_to_document(
            sd_quadratic_seed(0.95))))
        path = write_config(tmp_path / "c.json", dict(
            given, problem="sd_quadratic", p_to=0.96, steps=1,
            guess={"kind": "file", "path": str(guess)},
            out_dir=str(tmp_path / "out")))
        assert main([command, "--config", path]) == 0
        name = "solution.json" if command == "solve" else "point_0000.json"
        doc = json.loads((tmp_path / "out" / name).read_text())
        assert (len(doc["profile"]["breaks"]), doc["profile"]["degree"]) \
            == (breaks, degree)

    def test_hopf_guess_starts_at_the_declared_onset(self):
        cfg = RunConfig.from_document({
            "problem": "sd_quadratic", "mesh": 4, "degree": 3,
            "guess": {"kind": "hopf", "amplitude": 0.2, "offset": -0.02},
        })
        guess = _initial_state(cfg)
        onset = sd_quadratic().onset
        assert guess.params.tolist() == [onset.tau_hopf - 0.02]
        assert guess.period == onset.period == 2.0 * np.pi
        dense = guess.poly.eval(np.linspace(0.0, 1.0, 2001))
        assert 0.199 <= np.max(np.abs(dense)) <= 0.201

    @pytest.mark.parametrize("command", ["solve", "continue"])
    def test_file_guess_is_solved_at_the_configured_params(self, tmp_path,
                                                           command):
        # the shipped orbit at delay 0.95, solved at 1.0 from its own
        # period, as a convergence cell starts
        seed = sd_quadratic_seed(0.95)
        guess = tmp_path / "guess.json"
        guess.write_text(json.dumps(state_to_document(seed)))
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "params": [1.0], "p_to": 1.01,
            "steps": 1, "guess": {"kind": "file", "path": str(guess)},
            "out_dir": str(tmp_path / "out"),
        })
        assert main([command, "--config", path]) == 0
        prob = sd_quadratic()
        init = DiscreteState(seed.poly, [seed.period, 1.0])
        state = newton_solve(init, prob,
                             default_constraints(prob, init.params)).state
        if command == "solve":
            result = json.loads((tmp_path / "out" / "result.json").read_text())
            assert (result["p"], result["T"]) == ([1.0], state.period)
        else:
            schedule = json.loads(
                (tmp_path / "out" / "schedule.json").read_text())
            assert schedule["p_start"] == 1.0
        name = "solution.json" if command == "solve" else "point_0000.json"
        assert (tmp_path / "out" / name).exists()

    @pytest.mark.parametrize("command", ["solve", "continue"])
    def test_hopf_guess_with_params_exits_1(self, tmp_path, capsys,
                                            command):
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 11, "degree": 4,
            "params": [0.9], "p_to": 0.55, "steps": 1,
            "guess": {"kind": "hopf", "amplitude": 0.01},
            "out_dir": str(out),
        })
        assert main([command, "--config", path]) == 1
        error = read_error(capsys)
        assert error["type"] == "ConfigError"
        assert "onset" in error["message"] and "offset" in error["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "continue"])
    def test_several_degrees_exit_1(self, tmp_path, capsys, command):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 11, "degree": [4, 6],
            "p_to": 0.55, "steps": 1,
            "guess": {"kind": "hopf", "amplitude": 0.01},
            "out_dir": str(tmp_path / "out"),
        })
        assert main([command, "--config", path]) == 1
        assert read_error(capsys) == {
            "type": "ConfigError",
            "message": "this command needs a single degree"}


class TestContinue:
    def test_branch_outputs(self, mg_branch):
        out, _ = mg_branch
        lines = (out / "branch.csv").read_text().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1].startswith("p,T,amplitude")
        assert len(lines) == 10
        amplitudes = [float(line.split(",")[2]) for line in lines[2:]]
        assert all(a < b for a, b in zip(amplitudes, amplitudes[1:]))
        for i in range(8):
            assert (out / f"point_{i:04d}.json").exists()
        sched = json.loads((out / "schedule.json").read_text())
        assert len(sched["targets"]) == 8
        assert sched["targets"][-1] == 0.55

    def test_points_equal_one_continue_branch_call_bitwise(self, mg_branch):
        """One call per target, each passed the stored point before the
        one it starts from, gives the library's branch."""
        out, doc = mg_branch
        prob = mackey_glass()
        guess = hopf_initial_guess(mackey_glass_hopf(), 0.01,
                                   Mesh.uniform(11), 4)
        start = newton_solve(guess, prob,
                             default_constraints(prob, guess.params)).state
        points = continue_branch(start, prob, float(start.params[0]),
                                 doc["p_to"], doc["steps"])
        for i, point in enumerate(points):
            stored = state_from_document(json.loads(
                (out / f"point_{i:04d}.json").read_text()))
            assert stored.flatten().tobytes() == \
                point.state.flatten().tobytes()
        csv_text = io.StringIO()
        write_branch_csv(points, csv_text)
        assert (out / "branch.csv").read_text() == csv_text.getvalue()

    @pytest.mark.parametrize("cut", range(1, 8))
    def test_resume_reproduces_the_full_run_bitwise(self, mg_branch,
                                                    tmp_path, cut):
        """Cut 1 resumes with no history and cuts 2 to 6 with every
        stored point before the last; cut 7 is the first to leave its
        oldest point out of the predictor's six orbits."""
        out, doc = mg_branch
        partial = tmp_path / "partial"
        partial.mkdir()
        shutil.copy(out / "schedule.json", partial)
        for i in range(cut):
            shutil.copy(out / f"point_{i:04d}.json", partial)
        lines = (out / "branch.csv").read_text().splitlines()
        (partial / "branch.csv").write_text(
            "\n".join(lines[:2 + cut]) + "\n")
        path = write_config(tmp_path / "c.json",
                            dict(doc, resume=True, out_dir=str(partial)))
        assert main(["continue", "--config", path]) == 0
        assert (partial / "branch.csv").read_bytes() == \
            (out / "branch.csv").read_bytes()
        for i in range(8):
            name = f"point_{i:04d}.json"
            assert (partial / name).read_bytes() == (out / name).read_bytes()

    def test_interrupted_run_resumes_to_the_full_run_bitwise(
            self, mg_branch, tmp_path, monkeypatch):
        out, doc = mg_branch
        run = tmp_path / "run"
        calls = []

        def interrupt_third_point(*args, **kwargs):
            calls.append(args[3])
            if len(calls) == 3:
                raise KeyboardInterrupt
            return continue_branch(*args, **kwargs)

        monkeypatch.setattr("semdde.cli.continue_branch",
                            interrupt_third_point)
        path = write_config(tmp_path / "c.json", dict(doc, out_dir=str(run)))
        with pytest.raises(KeyboardInterrupt):
            main(["continue", "--config", path])
        monkeypatch.undo()
        assert len((run / "branch.csv").read_text().splitlines()) == 4
        path = write_config(tmp_path / "r.json",
                            dict(doc, resume=True, out_dir=str(run)))
        assert main(["continue", "--config", path]) == 0
        assert (run / "branch.csv").read_bytes() == \
            (out / "branch.csv").read_bytes()
        for i in range(8):
            name = f"point_{i:04d}.json"
            assert (run / name).read_bytes() == (out / name).read_bytes()

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """A continuation from the Hopf guess under one and two BLAS
        threads, and the one-thread run cut back to its first point and
        resumed under two, write the same data byte for byte."""
        doc = {
            "problem": "mackey_glass", "mesh": 11, "degree": 4,
            "guess": {"kind": "hopf", "amplitude": 0.01},
            "p_to": 0.55, "steps": 3,
        }
        def run(threads, out, config):
            proc = subprocess.run(
                [sys.executable, "-m", "semdde.cli", "continue",
                 "--config", write_config(tmp_path / "c.json", config),
                 "--out", str(out)],
                capture_output=True, text=True,
                env=child_env(OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr

        def data(out):
            names = ["branch.csv", "schedule.json"] + sorted(
                p.name for p in out.glob("point_*.json"))
            return {name: (out / name).read_bytes() for name in names}

        run("1", tmp_path / "1", doc)
        run("2", tmp_path / "2", doc)
        full = data(tmp_path / "1")
        assert len(full) == 2 + 3
        assert data(tmp_path / "2") == full

        cut = tmp_path / "1"
        lines = (cut / "branch.csv").read_text().splitlines()
        (cut / "branch.csv").write_text("\n".join(lines[:3]) + "\n")
        for i in (1, 2):
            (cut / f"point_{i:04d}.json").unlink()
        run("2", cut, dict(doc, resume=True))
        assert data(cut) == full

    @pytest.mark.parametrize("tamper", ["p_off_by_one_ulp", "other_schedule"])
    def test_resume_with_rows_off_the_schedule_exits_1(
            self, mg_branch, tmp_path, capsys, tamper):
        out, doc = mg_branch
        partial = tmp_path / "partial"
        shutil.copytree(out, partial)
        lines = (out / "branch.csv").read_text().splitlines()
        if tamper == "p_off_by_one_ulp":
            cells = lines[3].split(",")
            cells[0] = repr(float(np.nextafter(float(cells[0]), 1.0)))
            lines[3] = ",".join(cells)
            (partial / "branch.csv").write_text("\n".join(lines) + "\n")
        else:
            # a stale branch from a longer run beside a new schedule
            sched = json.loads((out / "schedule.json").read_text())
            sched["p_to"] = 0.53
            doc = dict(doc, p_to=0.53)
            sched["targets"] = np.linspace(
                sched["p_start"], 0.53, sched["steps"] + 1)[1:].tolist()
            (partial / "schedule.json").write_text(json.dumps(sched))
        path = write_config(tmp_path / "c.json",
                            dict(doc, resume=True, out_dir=str(partial)))
        assert main(["continue", "--config", path]) == 1
        assert read_error(capsys)["type"] == "ConfigError"
        assert (partial / "branch.csv").read_text().splitlines()[2:] == \
            lines[2:]

    @pytest.mark.parametrize("tamper", [
        "missing_targets", "not_an_object", "non_numeric_target",
        "short_targets"])
    def test_resume_with_malformed_schedule_exits_1(self, mg_branch,
                                                    tmp_path, capsys,
                                                    tamper):
        out, doc = mg_branch
        partial = tmp_path / "partial"
        shutil.copytree(out, partial)
        sched = json.loads((out / "schedule.json").read_text())
        if tamper == "missing_targets":
            del sched["targets"]
        elif tamper == "not_an_object":
            sched = [sched]
        elif tamper == "non_numeric_target":
            # the stored value itself, but as a string
            sched["targets"][1] = repr(sched["targets"][1])
        else:
            sched["targets"] = sched["targets"][:-1]
        (partial / "schedule.json").write_text(json.dumps(sched))
        path = write_config(tmp_path / "c.json",
                            dict(doc, resume=True, out_dir=str(partial)))
        assert main(["continue", "--config", path]) == 1
        assert read_error(capsys)["type"] == "ConfigError"

    @pytest.mark.parametrize("name,error", [
        ("schedule.json", "ConfigError"),
        ("branch.csv", "InvalidArgumentError")])
    def test_resume_with_non_utf8_file_exits_1(self, mg_branch, tmp_path,
                                               capsys, name, error):
        out, doc = mg_branch
        partial = tmp_path / "partial"
        shutil.copytree(out, partial)
        if name == "schedule.json":
            (partial / name).write_bytes(b"\xff\xfe{")
        else:
            (partial / name).write_bytes(
                (out / name).read_bytes() + b"\xff\xfe\n")
        path = write_config(tmp_path / "c.json",
                            dict(doc, resume=True, out_dir=str(partial)))
        assert main(["continue", "--config", path]) == 1
        assert read_error(capsys)["type"] == error

    def test_resume_with_truncated_last_row_exits_1(self, mg_branch,
                                                    tmp_path, capsys):
        out, doc = mg_branch
        partial = tmp_path / "partial"
        shutil.copytree(out, partial)
        text = (out / "branch.csv").read_text()
        (partial / "branch.csv").write_text(text[:-4])
        path = write_config(tmp_path / "c.json",
                            dict(doc, resume=True, out_dir=str(partial)))
        assert main(["continue", "--config", path]) == 1
        assert read_error(capsys)["type"] == "InvalidArgumentError"

    def test_resume_without_schedule_exits_1(self, mg_branch, tmp_path,
                                             capsys):
        _, doc = mg_branch
        path = write_config(tmp_path / "c.json",
                            dict(doc, resume=True, out_dir=str(tmp_path)))
        assert main(["continue", "--config", path]) == 1
        assert read_error(capsys)["type"] == "ConfigError"

    def test_resume_with_mismatched_schedule_exits_1(self, mg_branch,
                                                     tmp_path, capsys):
        out, doc = mg_branch
        partial = tmp_path / "partial"
        shutil.copytree(out, partial)
        path = write_config(
            tmp_path / "c.json",
            dict(doc, resume=True, steps=9, out_dir=str(partial)))
        assert main(["continue", "--config", path]) == 1
        assert "disagrees" in read_error(capsys)["message"]

    @pytest.mark.parametrize("key, config, message", [
        ("steps", 1, "schedule.json steps must be an integer, got True"),
        ("p_to", 1.0, "schedule.json p_to must be a finite number, got True"),
    ], ids=["steps", "p_to"])
    def test_resume_with_a_bool_in_the_schedule_exits_1(
            self, tmp_path, capsys, key, config, message):
        # True == 1 == 1.0, so a plain comparison would resume from it
        doc = {"problem": "mackey_glass", "mesh": 11, "degree": 4,
               "guess": {"kind": "hopf", "amplitude": 0.01},
               "p_to": 0.55, "steps": 1, "out_dir": str(tmp_path)}
        path = write_config(tmp_path / "c.json", doc)
        assert main(["continue", "--config", path]) == 0
        sched = json.loads((tmp_path / "schedule.json").read_text())
        (tmp_path / "schedule.json").write_text(
            json.dumps(dict(sched, **{key: True})))
        path = write_config(tmp_path / "c.json",
                            dict(doc, resume=True, **{key: config}))
        assert main(["continue", "--config", path]) == 1
        assert read_error(capsys) == {"type": "ConfigError",
                                      "message": message}

    def test_resume_with_empty_branch_exits_1(self, mg_branch, tmp_path,
                                              capsys):
        out, doc = mg_branch
        partial = tmp_path / "partial"
        partial.mkdir()
        shutil.copy(out / "schedule.json", partial)
        lines = (out / "branch.csv").read_text().splitlines()
        (partial / "branch.csv").write_text("\n".join(lines[:2]) + "\n")
        path = write_config(tmp_path / "c.json",
                            dict(doc, resume=True, out_dir=str(partial)))
        assert main(["continue", "--config", path]) == 1
        assert "no points" in read_error(capsys)["message"]

    def test_infeasible_target_exits_2_and_keeps_the_header(self, tmp_path,
                                                            capsys):
        # pushing the delay below the onset has no orbit to find; the
        # command fails but still writes a readable (empty) branch file
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 11, "degree": 4,
            "guess": {"kind": "hopf", "amplitude": 0.01},
            "p_to": 0.40, "steps": 3, "out_dir": str(tmp_path),
        })
        assert main(["continue", "--config", path]) == 2
        assert read_error(capsys)["type"] == "StepFailureError"
        lines = (tmp_path / "branch.csv").read_text().splitlines()
        assert lines[0] == "# format_version=1"
        assert len(lines) == 2


class TestConvergence:
    def test_serial_run_and_err_decreases_with_degree(self, mg_solution,
                                                      tmp_path):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "params": [0.4718196289360753],
            "mesh_list": [2, 5], "degree": [4, 6, 8],
            "guess": {"kind": "file",
                      "path": str(mg_solution / "solution.json")},
            "out_dir": str(tmp_path),
        })
        assert main(["convergence", "--config", path]) == 0
        doc = json.loads((tmp_path / "convergence.json").read_text())
        assert doc["metadata"]["problem"] == "mackey_glass"
        by_size = {}
        for row in doc["rows"]:
            by_size.setdefault(row["num_intervals"], []).append(row["err"])
        for errs in by_size.values():
            assert all(a > b for a, b in zip(errs, errs[1:]))
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert len(meta["cell_wall_times"]) == 6
        header = (tmp_path / "convergence.csv").read_text().splitlines()[1]
        assert "wall_time" not in header

    def test_parallel_run_matches_serial_bitwise(self, mg_solution,
                                                 tmp_path):
        # three columns, dealt round robin over min(jobs, 3) processes:
        # with two jobs this process computes L = 1 and 5 and its child
        # L = 2; with four jobs, as with three, each column has its own
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "params": [0.4718196289360753],
            "mesh_list": [1, 2, 5], "degree": [4, 6],
            "guess": {"kind": "file",
                      "path": str(mg_solution / "solution.json")},
        })
        for jobs in ("1", "2", "3", "4"):
            assert main(["convergence", "--config", path,
                         "--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
        for jobs in ("2", "3", "4"):
            for name in ("convergence.csv", "convergence.json"):
                assert (tmp_path / "1" / name).read_bytes() == \
                    (tmp_path / jobs / name).read_bytes()
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_jobs_start_at_most_one_worker_per_column(
            self, mg_solution, tmp_path, monkeypatch):
        forks = []
        fork = os.fork
        # this process computes columns too: 2 columns fork 1 child
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "params": [0.4718196289360753],
            "mesh_list": [2, 5], "degree": [4, 6],
            "guess": {"kind": "file",
                      "path": str(mg_solution / "solution.json")},
        })
        counts = []
        for jobs in ("1", "8"):
            assert main(["convergence", "--config", path,
                         "--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
            counts.append(len(forks))
        assert counts == [0, 1]
        for name in ("convergence.csv", "convergence.json"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "8" / name).read_bytes()

    def test_a_negative_delay_writes_failed_cells_and_exits_0(self,
                                                              tmp_path):
        guess = tmp_path / "seed.json"
        guess.write_text(json.dumps(state_to_document(
            sd_quadratic_seed(0.95))))
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "params": [0.1], "mesh_list": [10],
            "degree": [4, 6], "guess": {"kind": "file", "path": str(guess)},
            "out_dir": str(tmp_path / "out"),
        })
        assert main(["convergence", "--config", path]) == 0
        doc = json.loads((tmp_path / "out" / "convergence.json").read_text())
        assert [(row["num_intervals"], row["degree"], row["newton_iters"])
                for row in doc["rows"]] == [(10, 4, -1), (10, 6, -1)]
        for row in doc["rows"]:
            assert row["failure"].startswith("NegativeDelayError: ")
        assert (tmp_path / "out" / "convergence.csv").exists()

    def test_a_collapsed_cell_is_written_as_failed_and_exits_0(self,
                                                               tmp_path):
        guess = tmp_path / "seed.json"
        guess.write_text(json.dumps(state_to_document(
            sd_quadratic_seed(1.1))))
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "params": [1.5], "mesh_list": [10],
            "degree": [4, 8], "guess": {"kind": "file", "path": str(guess)},
            "out_dir": str(tmp_path / "out"),
        })
        assert main(["convergence", "--config", path]) == 0
        doc = json.loads((tmp_path / "out" / "convergence.json").read_text())
        collapsed, solved = doc["rows"]
        assert (collapsed["degree"], collapsed["newton_iters"]) == (4, -1)
        assert collapsed["failure"].startswith("CollapseError: ")
        assert solved["degree"] == 8 and solved["failure"] is None
        rows = (tmp_path / "out" / "convergence.csv").read_text()
        assert "CollapseError: " in rows

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # at --jobs 2 the forked child keeps the BLAS thread pool too
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "params": [0.95], "mesh_list": [4, 5],
            "degree": [4, 6], "guess": {"kind": "seed"},
        })
        runs = [(threads, jobs) for threads in ("1", "2")
                for jobs in ("1", "2")]
        for threads, jobs in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "semdde.cli", "convergence",
                 "--config", path, "--out", str(tmp_path / threads / jobs),
                 "--jobs", jobs],
                capture_output=True, text=True,
                env=child_env(OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
        for threads, jobs in runs[1:]:
            for name in ("convergence.csv", "convergence.json"):
                assert (tmp_path / "1" / "1" / name).read_bytes() == \
                    (tmp_path / threads / jobs / name).read_bytes()

    def test_shipped_seed_needs_its_own_problem(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "params": [0.95], "mesh_list": [2],
            "degree": [4], "guess": {"kind": "seed"},
            "out_dir": str(tmp_path),
        })
        assert main(["convergence", "--config", path]) == 1
        assert read_error(capsys)["type"] == "ConfigError"
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("command",
                             ["solve", "continue", "circle-map", "nodes"])
    def test_jobs_is_a_flag_of_convergence_alone(self, tmp_path, capsys,
                                                 command):
        # argparse's usage error, as for any unknown flag
        path = write_config(tmp_path / "c.json", {"degree": [4]})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_1(self, mg_solution, tmp_path, capsys,
                                    jobs):
        # rejected while the config is read, before any column runs
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "params": [0.4718196289360753],
            "mesh_list": [2], "degree": [4],
            "guess": {"kind": "file",
                      "path": str(mg_solution / "solution.json")},
            "out_dir": str(tmp_path),
        })
        assert main(["convergence", "--config", path, "--jobs", jobs]) == 1
        assert read_error(capsys)["type"] == "ConfigError"
        assert not (tmp_path / "convergence.csv").exists()

    def test_seed_guess_kind_is_required(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "params": [0.5], "mesh_list": [2],
            "degree": [4], "guess": {"kind": "hopf"},
            "out_dir": str(tmp_path),
        })
        assert main(["convergence", "--config", path]) == 1
        assert "converged orbit" in read_error(capsys)["message"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("plan", [
        {"mesh_list": [10, 10], "degree": [4]},
        {"mesh_list": [10], "degree": [4, 4]},
    ], ids=["mesh_list", "degree"])
    def test_a_repeated_entry_exits_1_before_any_column(
            self, tmp_path, capsys, monkeypatch, plan, jobs):
        def no_column(*args, **kwargs):
            raise AssertionError("a column started")

        monkeypatch.setattr("semdde.cli.convergence_study", no_column)
        monkeypatch.setattr(os, "fork", no_column)
        path = write_config(tmp_path / "c.json", dict(
            plan, problem="sd_quadratic", params=[0.95],
            guess={"kind": "seed"}, out_dir=str(tmp_path / "out")))
        assert main(["convergence", "--config", path, "--jobs", jobs]) == 1
        error = read_error(capsys)
        assert error["type"] == "InvalidArgumentError"
        assert "must be distinct" in error["message"]
        assert list((tmp_path / "out").iterdir()) == []


class TestColumnWorkers:
    """``convergence --jobs 2`` on two columns: this process computes
    L = 1 and one forked child L = 2, each through a stand-in for
    ``convergence_study``.  However a run ends, it leaves no child."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def config(self, tmp_path):
        return write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "params": [0.95], "mesh_list": [1, 2],
            "degree": [4], "guess": {"kind": "seed"},
            "out_dir": str(tmp_path / "out"),
        })

    @staticmethod
    def convergence(monkeypatch, config, column, jobs="2"):
        """``main`` with ``column(L)`` as the study of column L."""
        monkeypatch.setattr(
            "semdde.cli.convergence_study",
            lambda prob, params, sizes, *args, **kwargs: column(sizes[0]))
        return main(["convergence", "--config", config, "--jobs", jobs])

    @pytest.mark.parametrize("end, status", [
        (lambda: os._exit(3), 3 << 8),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), signal.SIGKILL),
    ], ids=["exit", "signal"])
    def test_a_child_that_ends_without_a_result_exits_2(
            self, tmp_path, capsys, monkeypatch, config, end, status):
        assert self.convergence(monkeypatch, config,
                        lambda L: L == 2 and end()) == 2
        assert read_error(capsys) == {
            "type": "SemDdeError",
            "message": f"the worker of mesh sizes [2] ended without a "
                       f"result (wait status {status})"}
        assert not (tmp_path / "out" / "convergence.csv").exists()

    @pytest.mark.parametrize("error, code", [
        (ConfigError("bad column"), 1),
        (InvalidArgumentError("bad column"), 1),
        (AnalyticityViolationError("bad column"), 2),
    ])
    def test_a_child_error_exits_as_it_would_in_serial(
            self, tmp_path, capsys, monkeypatch, config, error, code):
        def column(L):
            if L == 2:
                raise error

        for jobs in ("1", "2"):
            assert self.convergence(monkeypatch, config, column, jobs) == code
            assert read_error(capsys) == {"type": type(error).__name__,
                                          "message": "bad column"}
        assert not (tmp_path / "out" / "convergence.csv").exists()

    def test_an_error_that_does_not_pickle_arrives_as_its_repr(
            self, capsys, monkeypatch, config):
        class Local(SemDdeError):  # pickled by a name no import finds
            pass

        def column(L):
            if L == 2:
                raise Local("bad column")

        assert self.convergence(monkeypatch, config, column) == 2
        error = read_error(capsys)
        assert error["type"] == "SemDdeError"
        assert error["message"] == "Local('bad column')"

    @pytest.mark.parametrize("error", [ConfigError, KeyboardInterrupt])
    def test_a_failing_parent_kills_its_child(self, monkeypatch, config,
                                              error):
        def column(L):
            if L == 2:
                time.sleep(60)
            raise error("parent column")

        start = time.monotonic()
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                self.convergence(monkeypatch, config, column)
        else:
            assert self.convergence(monkeypatch, config, column) == 1
        assert time.monotonic() - start < 30


@pytest.fixture(scope="module")
def seed_file(tmp_path_factory):
    # re-converge the shipped seed on its own mesh so the stored orbit
    # is a solution, not a near-solution
    out = tmp_path_factory.mktemp("seed")
    raw = out / "raw.json"
    raw.write_text(json.dumps(state_to_document(sd_quadratic_seed(0.95))))
    cfg = write_config(out / "c.json", {
        "problem": "sd_quadratic",
        "guess": {"kind": "file", "path": str(raw)},
        "out_dir": str(out),
    })
    assert main(["solve", "--config", cfg]) == 0
    return str(out / "solution.json")


class TestCircleMap:
    def test_state_dependent_orbit_reports_isolated_points(self, seed_file,
                                                           tmp_path):
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "solution": seed_file,
            "k_max": 5, "grid": 4000, "out_dir": str(tmp_path),
        })
        assert main(["circle-map", "--config", path]) == 0
        doc = json.loads((tmp_path / "circle_result.json").read_text())
        assert doc["kind"] == "generic"
        fifth = [pts for pts in doc["periodic_points"]
                 if pts["iterate"] == 5][0]
        assert sum(fifth["unstable"]) == 5
        header = (tmp_path / "circle_map.csv").read_text().splitlines()[1]
        assert header == "t,g1,g2,g3,g4,g5"

    def test_constant_delay_orbit_is_a_rotation(self, mg_solution,
                                                tmp_path):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass",
            "solution": str(mg_solution / "solution.json"),
            "k_max": 3, "grid": 2000, "out_dir": str(tmp_path),
        })
        assert main(["circle-map", "--config", path]) == 0
        doc = json.loads((tmp_path / "circle_result.json").read_text())
        assert doc["kind"] == "rotation"
        result = json.loads((mg_solution / "result.json").read_text())
        assert doc["shift"] == pytest.approx(-result["p"][0] / result["T"])
        assert doc["periodic_points"] == []

    def test_missing_solution_file_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic",
            "solution": str(tmp_path / "ghost.json"),
            "out_dir": str(tmp_path),
        })
        assert main(["circle-map", "--config", path]) == 1
        assert read_error(capsys)["type"] == "FileNotFoundError"

    def test_future_format_version_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "future.json"
        bad.write_text(json.dumps(
            {"format_version": 99, "mu": [1.0], "profile": {}}))
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "solution": str(bad),
            "out_dir": str(tmp_path),
        })
        assert main(["circle-map", "--config", path]) == 1
        assert read_error(capsys)["type"] == "FormatVersionError"

    def test_unknown_problem_exits_1(self, seed_file, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "lorenz", "solution": seed_file,
            "out_dir": str(tmp_path),
        })
        assert main(["circle-map", "--config", path]) == 1
        assert read_error(capsys)["type"] == "InvalidArgumentError"

    def test_problem_without_a_delay_map_exits_1(self, seed_file, tmp_path,
                                                 capsys, monkeypatch):
        monkeypatch.setattr(
            "semdde.cli.get_problem",
            lambda name: dataclasses.replace(get_problem(name), lag=None))
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "solution": seed_file,
            "out_dir": str(tmp_path),
        })
        assert main(["circle-map", "--config", path]) == 1
        error = read_error(capsys)
        assert error["type"] == "ConfigError"
        assert "delay map" in error["message"]
        assert not (tmp_path / "circle_map.csv").exists()

    def test_grid_flag_must_be_sane(self, seed_file, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "solution": seed_file,
            "out_dir": str(tmp_path),
        })
        assert main(["circle-map", "--config", path, "--grid", "1"]) == 1

    def test_grid_flag_overrides_the_config(self, seed_file, tmp_path,
                                            capsys):
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "solution": seed_file,
            "grid": 4000, "out_dir": str(tmp_path),
        })
        assert main(["circle-map", "--config", path, "--grid", "2000"]) == 0
        lines = (tmp_path / "circle_map.csv").read_text().splitlines()
        assert len(lines) == 2 + 2000  # format line and header first
        assert main(["circle-map", "--config", path, "--grid", "1"]) == 1
        assert read_error(capsys) == {
            "type": "ConfigError", "message": "grid must be >= 2, got 1"}


class TestNodes:
    @pytest.mark.parametrize("kind", list(NodeKind), ids=lambda k: k.value)
    def test_tables_match_the_library(self, tmp_path, kind):
        path = write_config(tmp_path / "c.json", {
            "degree": [4, 8], "node_kind": kind.value,
            "samples": 2001, "out_dir": str(tmp_path),
        })
        assert main(["nodes", "--config", path]) == 0
        lines = (tmp_path / "nodes.csv").read_text().splitlines()
        assert lines[0] == "# format_version=1"
        family = make_nodes(kind, 4)
        first = lines[2].split(",")
        assert first[:3] == [kind.value, "4", "0"]
        assert float(first[3]) == family.nodes[0]
        assert sum(line.split(",")[1] == "4" for line in lines[2:]) == \
            family.m
        leb = (tmp_path / "lebesgue.csv").read_text().splitlines()
        value = float(leb[2].split(",")[3])
        assert value == lebesgue_constant(family, 2001)

    def test_unknown_node_kind_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "degree": [4], "node_kind": "padua", "out_dir": str(tmp_path),
        })
        assert main(["nodes", "--config", path]) == 1
        assert read_error(capsys) == {
            "type": "ConfigError",
            "message": "unknown node_kind 'padua'; expected one of "
                       "['gauss_legendre', 'chebyshev_gauss', "
                       "'chebyshev_lobatto', 'equidistant']"}

    def test_chebyshev_lobatto_degree_600_is_written_finite(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "degree": [600], "node_kind": "chebyshev_lobatto",
            "samples": 6010, "out_dir": str(tmp_path),
        })
        assert main(["nodes", "--config", path]) == 0
        rows = (tmp_path / "nodes.csv").read_text().splitlines()[2:]
        weights = [float(row.split(",")[4]) for row in rows]
        assert len(weights) == 601 and np.all(np.isfinite(weights))
        leb = (tmp_path / "lebesgue.csv").read_text().splitlines()[2]
        assert float(leb.split(",")[3]) < 2.0 / np.pi * np.log(601) + 1.0

    def test_a_count_past_the_finite_range_exits_1_before_writing(
            self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {
            "degree": [4, 1100], "node_kind": "equidistant",
            "samples": 11000, "out_dir": str(tmp_path),
        })
        assert main(["nodes", "--config", path]) == 1
        error = read_error(capsys)
        assert error["type"] == "InvalidArgumentError"
        assert error["message"].startswith("equidistant nodes: m = 1100 ")
        assert not (tmp_path / "nodes.csv").exists()

    def test_too_few_samples_for_one_degree_exits_1_before_writing(
            self, tmp_path, capsys):
        # every Lebesgue constant is computed before a table is written
        path = write_config(tmp_path / "c.json", {
            "degree": [4, 40], "samples": 100, "out_dir": str(tmp_path),
        })
        assert main(["nodes", "--config", path]) == 1
        assert read_error(capsys)["message"] == \
            "samples must be >= 10*m = 400, got 100"
        assert not (tmp_path / "nodes.csv").exists()
        assert not (tmp_path / "lebesgue.csv").exists()


class TestMetadata:
    """main writes metadata.json once per command that returns: the
    base keys and each command's own."""

    BASE = {"format_version", "command", "wall_time"}

    @staticmethod
    def keys(out_dir, command):
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["command"] == command and meta["wall_time"] > 0.0
        return set(meta) - TestMetadata.BASE

    def test_solve(self, mg_solution):
        assert self.keys(mg_solution, "solve") == {
            "newton_s", "residual_err_s", "phi_defect_s"}

    def test_continue(self, mg_branch):
        assert self.keys(mg_branch[0], "continue") == {"new_points"}

    def test_failed_continue(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "mesh": 11, "degree": 4,
            "guess": {"kind": "hopf", "amplitude": 0.01},
            "p_to": 0.40, "steps": 3, "out_dir": str(tmp_path),
        })
        assert main(["continue", "--config", path]) == 2
        assert self.keys(tmp_path, "continue") == {"new_points"}

    def test_convergence(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "params": [0.95], "mesh_list": [2],
            "degree": [4], "guess": {"kind": "seed"},
            "out_dir": str(tmp_path),
        })
        assert main(["convergence", "--config", path]) == 0
        assert self.keys(tmp_path, "convergence") == {"cell_wall_times"}

    def test_circle_map(self, seed_file, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "solution": seed_file, "k_max": 1,
            "grid": 1000, "out_dir": str(tmp_path),
        })
        assert main(["circle-map", "--config", path]) == 0
        assert self.keys(tmp_path, "circle-map") == set()

    def test_nodes(self, tmp_path):
        path = write_config(tmp_path / "c.json", {
            "degree": [4], "out_dir": str(tmp_path)})
        assert main(["nodes", "--config", path]) == 0
        assert self.keys(tmp_path, "nodes") == set()


class TestNodeKind:
    """node_kind selects the nodes tables; the commands that collocate
    reject any family but Gauss-Legendre before they solve."""

    CONFIGS = {
        "solve": {"problem": "mackey_glass", "mesh": 11, "degree": 5,
                  "guess": {"kind": "hopf", "amplitude": 0.01}},
        "continue": {"problem": "mackey_glass", "mesh": 11, "degree": 5,
                     "guess": {"kind": "hopf", "amplitude": 0.01},
                     "p_to": 0.55, "steps": 2},
        "convergence": {"problem": "sd_quadratic", "mesh_list": [2],
                        "degree": [4], "params": [0.95],
                        "guess": {"kind": "seed"}},
    }

    @pytest.mark.parametrize("kind", ["chebyshev_lobatto", "equidistant"])
    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_collocating_command_rejects_other_families(self, tmp_path,
                                                        capsys, command,
                                                        kind):
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", dict(
            self.CONFIGS[command], node_kind=kind, out_dir=str(out)))
        assert main([command, "--config", path]) == 1
        error = read_error(capsys)
        assert error["type"] == "ConfigError"
        assert kind in error["message"]
        assert not out.exists()


class TestTruncatedStateFile:
    @pytest.mark.parametrize("source", ["guess", "resume_point",
                                        "resume_predecessor",
                                        "circle_map_solution"])
    def test_exits_1_with_the_error_json(self, mg_solution, mg_branch,
                                         tmp_path, capsys, source):
        def truncate(path):
            text = path.read_text()
            path.write_text(text[:len(text) // 2])
            return str(path)

        if source == "guess":
            guess = tmp_path / "guess.json"
            shutil.copy(mg_solution / "solution.json", guess)
            command, doc = "solve", {
                "problem": "mackey_glass",
                "guess": {"kind": "file", "path": truncate(guess)},
                "out_dir": str(tmp_path)}
        elif source.startswith("resume"):
            out, branch_doc = mg_branch
            partial = tmp_path / "partial"
            shutil.copytree(out, partial)
            # resume loads the last stored point and those before it
            last = -1 if source == "resume_point" else -2
            truncate(sorted(partial.glob("point_*.json"))[last])
            command, doc = "continue", dict(branch_doc, resume=True,
                                            out_dir=str(partial))
        else:
            solution = tmp_path / "solution.json"
            shutil.copy(mg_solution / "solution.json", solution)
            command, doc = "circle-map", {
                "problem": "mackey_glass", "solution": truncate(solution),
                "out_dir": str(tmp_path)}
        path = write_config(tmp_path / "c.json", doc)
        assert main([command, "--config", path]) == 1
        error = read_error(capsys)
        assert error["type"] == "InvalidArgumentError"
        assert "not valid JSON" in error["message"]


class TestRefusedStateFile:
    """A state file whose document the library refuses exits 1 with the
    library's error type and the file's path in front of its message."""

    @pytest.mark.parametrize("change,kind,message", [
        (lambda doc: doc["profile"].update(dim=0), "InvalidArgumentError",
         "dim must be >= 1, got 0"),
        (lambda doc: doc.update(format_version=99), "FormatVersionError",
         "state document declares format_version 99; "),
        (lambda doc: doc.pop("mu"), "InvalidArgumentError",
         "state document needs keys "),
    ], ids=["dim_0", "format_version_99", "no_mu"])
    @pytest.mark.parametrize("source", ["guess", "circle_map_solution",
                                        "resume_point"])
    def test_exits_1_naming_the_file(self, mg_solution, mg_branch, tmp_path,
                                     capsys, source, change, kind, message):
        if source == "resume_point":
            out, branch_doc = mg_branch
            partial = tmp_path / "partial"
            shutil.copytree(out, partial)
            orbit = sorted(partial.glob("point_*.json"))[-1]
            command, doc = "continue", dict(branch_doc, resume=True,
                                            out_dir=str(partial))
        else:
            orbit = tmp_path / "orbit.json"
            shutil.copy(mg_solution / "solution.json", orbit)
            command, doc = ("solve", {"guess": {"kind": "file",
                                                "path": str(orbit)}}) \
                if source == "guess" else ("circle-map",
                                           {"solution": str(orbit)})
            doc.update(problem="mackey_glass", out_dir=str(tmp_path / "out"))
        stored = json.loads(orbit.read_text())
        change(stored)
        orbit.write_text(json.dumps(stored))
        path = write_config(tmp_path / "c.json", doc)
        assert main([command, "--config", path]) == 1
        error = read_error(capsys)
        assert error["type"] == kind
        assert error["message"].startswith(f"{orbit}: {message}")


def _two_components(state):
    """The orbit with its one component stored twice."""
    values = state.poly.free_values
    return DiscreteState(
        PeriodicPiecewisePoly(state.poly.mesh, state.poly.degree,
                              np.concatenate([values, values], axis=-1)),
        state.mu)


class TestWrongDimension:
    """A state whose dimension differs from the problem's is bad input:
    the library raises InvalidArgumentError, the CLI exits 1."""

    @pytest.mark.parametrize("call", [
        lambda prob, s: newton_solve(s, prob,
                                     default_constraints(prob, s.params)),
        lambda prob, s: convergence_study(prob, s.params, [3], [4], seed=s),
        lambda prob, s: continue_branch(s, prob, s.params[0], 0.6, 1),
    ], ids=["newton_solve", "convergence_study", "continue_branch"])
    def test_library_raises_invalid_argument(self, mg_solution, call):
        state = state_from_document(
            json.loads((mg_solution / "solution.json").read_text()))
        with pytest.raises(InvalidArgumentError, match="expected"):
            call(mackey_glass(), _two_components(state))

    @pytest.mark.parametrize("command,change", [
        ("solve", "dim"), ("circle-map", "dim"), ("circle-map", "params")])
    def test_cli_exits_1(self, mg_solution, tmp_path, capsys, command,
                         change):
        state = state_from_document(
            json.loads((mg_solution / "solution.json").read_text()))
        state = _two_components(state) if change == "dim" else \
            DiscreteState(state.poly, np.append(state.mu, 0.0))
        orbit = tmp_path / "orbit.json"
        orbit.write_text(json.dumps(state_to_document(state)))
        out = tmp_path / "out"
        doc = {"problem": "mackey_glass", "out_dir": str(out)}
        if command == "solve":
            doc["guess"] = {"kind": "file", "path": str(orbit)}
        else:
            doc["solution"] = str(orbit)
        assert main([command, "--config",
                     write_config(tmp_path / "c.json", doc)]) == 1
        assert read_error(capsys)["type"] == "InvalidArgumentError"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "continue", "convergence"])
    def test_a_guess_file_is_refused_naming_it(self, mg_solution, tmp_path,
                                               capsys, monkeypatch, command):
        # before any solve, and for convergence before any column is forked
        def forbidden():
            raise AssertionError("a column worker was forked")

        monkeypatch.setattr(os, "fork", forbidden)
        state = state_from_document(
            json.loads((mg_solution / "solution.json").read_text()))
        orbit = tmp_path / "orbit.json"
        orbit.write_text(json.dumps(state_to_document(_two_components(state))))
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", {
            "problem": "mackey_glass", "out_dir": str(out),
            "guess": {"kind": "file", "path": str(orbit)},
            "p_to": 0.55, "steps": 1, "params": state.params.tolist(),
            "mesh_list": [3, 4], "degree": [4]})
        argv = [command, "--config", path]
        assert main(argv + ["--jobs", "2"] if command == "convergence"
                    else argv) == 1
        error = read_error(capsys)
        assert error["type"] == "InvalidArgumentError"
        assert error["message"].startswith(
            f"{orbit} holds an orbit of dimension 2 with 1 params; ")
        assert list(out.iterdir()) == []

    def test_a_resume_point_is_refused_naming_it(self, mg_branch, tmp_path,
                                                 capsys):
        out, doc = mg_branch
        partial = tmp_path / "partial"
        shutil.copytree(out, partial)
        last = sorted(partial.glob("point_*.json"))[-1]
        state = state_from_document(json.loads(last.read_text()))
        last.write_text(json.dumps(state_to_document(_two_components(state))))
        before = {p.name: p.read_bytes() for p in partial.iterdir()}
        path = write_config(tmp_path / "c.json",
                            dict(doc, resume=True, out_dir=str(partial)))
        assert main(["continue", "--config", path]) == 1
        error = read_error(capsys)
        assert error["type"] == "InvalidArgumentError"
        assert error["message"].startswith(
            f"{last} holds an orbit of dimension 2 with 1 params; ")
        assert {p.name: p.read_bytes() for p in partial.iterdir()} == before


class TestLogging:
    def test_bad_level_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SEMDDE_LOG", "chatty")
        path = write_config(tmp_path / "c.json", {"degree": [4]})
        assert main(["nodes", "--config", path, "--out",
                     str(tmp_path)]) == 1
        assert "SEMDDE_LOG" in read_error(capsys)["message"]

    def test_info_level_reports_progress(self, tmp_path):
        config = {
            "problem": "mackey_glass", "mesh": 3, "degree": 3,
            "guess": {"kind": "constant", "values": [1.0], "period": 1.6},
            "params": [0.3], "out_dir": str(tmp_path),
        }
        path = write_config(tmp_path / "c.json", config)
        proc = subprocess.run(
            [sys.executable, "-m", "semdde.cli", "solve",
             "--config", path],
            capture_output=True, text=True, env=child_env(SEMDDE_LOG="info"),
        )
        assert proc.returncode == 0
        assert "solved mackey_glass" in proc.stderr


class TestProgram:
    """The command-line program is ``run``: ``main`` on a frozen heap.
    ``main`` called in process leaves the collector as it found it."""

    SOLVE = {"problem": "mackey_glass", "mesh": 3, "degree": 3,
             "guess": {"kind": "constant", "values": [1.0], "period": 1.6},
             "params": [0.3]}

    def test_importing_the_cli_loads_no_process_pool(self):
        child = ("import sys, semdde.cli; print(sorted(m for m in "
                 "sys.modules if m.split('.')[0] in "
                 "('concurrent', 'multiprocessing')))")
        proc = subprocess.run([sys.executable, "-c", child],
                              capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_a_forking_run_prints_once_and_loads_no_process_pool(
            self, tmp_path):
        # a child that returned into main, or exited through Python's
        # shutdown, would write or flush the report line a second time
        path = write_config(tmp_path / "c.json", {
            "problem": "sd_quadratic", "params": [0.95], "mesh_list": [4, 5],
            "degree": [4], "guess": {"kind": "seed"},
        })
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "semdde.cli",
             "convergence", "--config", path, "--out", str(tmp_path),
             "--jobs", "2"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == \
            f"wrote {tmp_path / 'convergence.csv'} (2 cells)\n"
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "numpy" in imported
        assert [name for name in imported if name.split(".")[0] in
                ("concurrent", "multiprocessing")] == []

    def test_main_in_process_freezes_nothing(self, tmp_path):
        path = write_config(tmp_path / "c.json", self.SOLVE)
        frozen = gc.get_freeze_count()
        assert main(["solve", "--config", path, "--out",
                     str(tmp_path)]) == 0
        assert gc.get_freeze_count() == frozen

    def test_the_program_writes_what_main_writes(self, tmp_path):
        path = write_config(tmp_path / "c.json", self.SOLVE)
        assert main(["solve", "--config", path, "--out",
                     str(tmp_path / "main")]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "semdde.cli", "solve", "--config", path,
             "--out", str(tmp_path / "program")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert names == sorted(
            p.name for p in (tmp_path / "program").iterdir())
        for name in set(names) - {"metadata.json"}:
            assert (tmp_path / "main" / name).read_bytes() == \
                (tmp_path / "program" / name).read_bytes()

    def test_run_freezes_the_heap_then_exits_with_the_code_of_main(
            self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr("semdde.cli.main",
                            lambda: calls.append("main") or 2)
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2
        assert calls == ["freeze", "main"]
        # the console script is the same entry as python -m semdde.cli
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert '\n[project.scripts]\nsemdde = "semdde.cli:run"\n' in \
            pyproject.read_text()
