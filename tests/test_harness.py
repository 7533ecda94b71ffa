import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from gppi import checks, harness, protocols
from gppi.cli import main as cli_main
from gppi.control import CostSpec, terminal_log_desirability
from gppi.errors import AlignmentError, ConfigError
from gppi.gp import load_model
from gppi.harness import (fill_defaults, load_config, run_baseline,
                          run_compose, run_learn)
from gppi.plants import make_plant
from gppi.records import (ControllerRecord, CostFields, load_record,
                          save_manifest, save_record)
from gppi.rng import RngHub


def _linear_config(tmp_path, seed=0, trials=2):
    return {
        "plant": {"name": "linear",
                  "params": {"A": [[-0.4]], "Bc": [[1.0]], "B": [[0.08]],
                             "sigma_omega": [[1.0]]}},
        "cost": {"Q_diag": [1.0], "x_d": [0.5], "lambda": 0.5,
                 "horizon_steps": 10},
        "protocol": {"trials": trials, "seed": seed, "init_rollouts": 1,
                     "u_max": 2.0, "inner_max_iters": 2, "max_points": 60,
                     "baseline_samples": 200, "baseline_iterations": 3},
        "output_dir": str(tmp_path / "run"),
    }


class TestConfig:
    def test_defaults_filled(self):
        cfg = fill_defaults({"cost": {"Q_diag": [1.0, 1.0, 1.0, 1.0],
                                      "x_d": [0, 0, 3.14, 0]}})
        assert cfg["protocol"]["init_rollouts"] == 2      # cartpole default
        assert cfg["cost"]["horizon_steps"] == 60

    def test_dpc_defaults(self):
        cfg = fill_defaults({"plant": {"name": "dpc"},
                             "cost": {"Q_diag": [1] * 6, "x_d": [0] * 6}})
        assert cfg["protocol"]["init_rollouts"] == 6

    def test_arm_defaults(self):
        cfg = fill_defaults({"plant": {"name": "two-link-arm"},
                             "cost": {"Q_diag": [1] * 4, "x_d": [0] * 4}})
        assert cfg["protocol"]["init_rollouts"] == 3
        assert cfg["cost"]["horizon_steps"] == 100

    @pytest.mark.parametrize("alias,canonical", [
        ("cart-pole", "cartpole"), ("cp", "cartpole"), ("CartPole", "cartpole"),
        ("dpc", "double-pendulum-cart"),
        ("cart-double-pendulum", "double-pendulum-cart"),
        ("double_pendulum_cart", "double-pendulum-cart"),
        ("arm", "two-link-arm"), ("twolink", "two-link-arm"),
        ("two_link_arm", "two-link-arm"),
    ])
    def test_alias_gets_canonical_defaults(self, alias, canonical):
        plant = make_plant(alias)
        assert plant.spec.name == canonical
        n = plant.spec.n
        cost = {"Q_diag": [1] * n, "x_d": [0] * n}
        got = fill_defaults({"plant": {"name": alias}, "cost": cost})
        want = fill_defaults({"plant": {"name": canonical}, "cost": cost})
        assert got["protocol"]["init_rollouts"] \
            == want["protocol"]["init_rollouts"]
        assert got["cost"]["horizon_steps"] == want["cost"]["horizon_steps"]

    def test_unknown_plant_rejected(self):
        with pytest.raises(ConfigError):
            fill_defaults({"plant": {"name": "pendulum"},
                           "cost": {"Q_diag": [1.0], "x_d": [0.0]}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            fill_defaults({"costs": {}})
        with pytest.raises(ConfigError):
            fill_defaults({"cost": {"Qdiag": [1.0]}})

    def test_rollouts_per_trial_is_unknown(self):
        with pytest.raises(ConfigError, match="rollouts_per_trial"):
            fill_defaults({"cost": {"Q_diag": [1.0] * 4, "x_d": [0.0] * 4},
                           "protocol": {"rollouts_per_trial": 1}})

    def test_inner_tol_is_unknown(self):
        with pytest.raises(ConfigError, match="inner_tol"):
            fill_defaults({"cost": {"Q_diag": [1.0] * 4, "x_d": [0.0] * 4},
                           "protocol": {"inner_tol": 1e-3}})

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError):
            fill_defaults({})

    def test_round_trip_identity(self, tmp_path):
        cfg = fill_defaults({"cost": {"Q_diag": [1, 1, 1, 1],
                                      "x_d": [0, 0, 3.14159, 0]}})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert load_config(p) == cfg


class TestRunLearn:
    def test_artifacts_written(self, tmp_path):
        out = run_learn(_linear_config(tmp_path))["out_dir"]
        for name in ("metrics.csv", "timing.csv", "model.json",
                     "controller.json", "trace.csv", "config_snapshot.json",
                     "version.json"):
            assert (out / name).exists(), name
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "trial,terminal_log_psi,terminal_cost"
        trace_header = (out / "trace.csv").read_text().splitlines()[0]
        assert trace_header.startswith("step,t,mu_0,sigma_diag_0,u_0")
        assert trace_header.endswith("log_psi")

    def test_trace_cells_are_numbers(self, tmp_path):
        out = run_learn(_linear_config(tmp_path))["out_dir"]
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == 11
        for row in rows:
            for cell in row.split(","):
                float(cell)

    def test_byte_identical_metrics_under_fixed_seed(self, tmp_path):
        cfg1 = _linear_config(tmp_path / "a", seed=3)
        cfg2 = _linear_config(tmp_path / "b", seed=3)
        out1 = run_learn(cfg1)["out_dir"]
        out2 = run_learn(cfg2)["out_dir"]
        assert (out1 / "metrics.csv").read_bytes() \
            == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "trace.csv").read_bytes() \
            == (out2 / "trace.csv").read_bytes()
        assert (out1 / "controller.json").read_bytes() \
            == (out2 / "controller.json").read_bytes()
        assert (out1 / "model.json").read_bytes() \
            == (out2 / "model.json").read_bytes()

    def test_moved_run_dir_still_loads_model(self, tmp_path):
        out = run_learn(_linear_config(tmp_path / "a"))["out_dir"]
        doc = json.loads((out / "controller.json").read_text())
        assert doc["model_ref"] == "model.json"
        moved = tmp_path / "elsewhere" / "moved-run"
        shutil.move(str(out), str(moved))
        record = load_record(moved / "controller.json")
        assert os.path.samefile(record.model_ref, moved / "model.json")
        assert load_model(record.model_ref).state_dim == 1

    def test_different_seed_changes_outcome(self, tmp_path):
        out1 = run_learn(_linear_config(tmp_path / "a", seed=0))["out_dir"]
        out2 = run_learn(_linear_config(tmp_path / "b", seed=1))["out_dir"]
        assert (out1 / "metrics.csv").read_bytes() \
            != (out2 / "metrics.csv").read_bytes()

    def test_record_schema(self, tmp_path):
        out = run_learn(_linear_config(tmp_path))["out_dir"]
        doc = json.loads((out / "controller.json").read_text())
        assert set(doc) == {"task_id", "x_d", "cost", "controls", "log_psi",
                            "grad_psi_over_psi", "model_ref", "plant"}
        assert doc["plant"] == fill_defaults(_linear_config(tmp_path))["plant"]
        assert set(doc["cost"]) == {"Q_diag", "lambda", "dt", "horizon_steps",
                                    "terminal_scale"}
        assert len(doc["controls"]) == 10
        assert len(doc["log_psi"]) == 11

    def test_version_stamped_by_one_git_call_per_process(self, tmp_path,
                                                          monkeypatch):
        harness._git_describe.cache_clear()
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        outs = [run_learn(_linear_config(tmp_path / tag, trials=1))["out_dir"]
                for tag in ("a", "b")]
        assert len(calls) == 1
        stamps = [json.loads((out / "version.json").read_text())
                  for out in outs]
        assert stamps[0] == stamps[1]

    def test_unwritable_output_dir(self, tmp_path):
        cfg = _linear_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        cfg["output_dir"] = str(blocker / "sub")
        with pytest.raises(ConfigError):
            run_learn(cfg)


# Loading scipy.optimize adds about 21 MB of resident memory and
# scipy.linalg about 25 MB, so a process that never calls a module leaves it
# unloaded.
@pytest.mark.parametrize("code,module", [
    ("from gppi.harness import run_learn\n"
     "run_learn(json.loads(sys.argv[1]))\n", "scipy.optimize"),
    ("from gppi.harness import run_baseline\n"
     "run_baseline(json.loads(sys.argv[1]))\n", "scipy.linalg"),
    ("import gppi\n", "scipy.linalg"),
], ids=["run_learn", "run_baseline", "import_gppi"])
def test_fresh_process_does_not_load(tmp_path, code, module):
    code = f"import json, sys\n{code}print({module!r} in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code,
         json.dumps(_linear_config(tmp_path, trials=1))],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("runner", [run_learn, run_baseline],
                         ids=["learn", "baseline"])
@pytest.mark.parametrize("section,key,value", [
    ("protocol", "x0", [0.0, 0.0]),
    ("cost", "Q_diag", [1.0, 1.0]),
    ("cost", "x_d", [0.5, 0.0]),
    ("cost", "x_d", [[0.5]]),
])
def test_state_length_mismatch_is_config_error(tmp_path, runner, section, key,
                                               value):
    cfg = _linear_config(tmp_path)
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        runner(cfg)
    assert not Path(cfg["output_dir"]).exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_start_state_exits_2(tmp_path, value):
    cfg = _linear_config(tmp_path)
    cfg["protocol"]["x0"] = [value]
    with pytest.raises(ConfigError, match="protocol.x0"):
        run_learn(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))            # NaN and Infinity are valid here
    assert cli_main(["learn", str(p)]) == 2
    assert not Path(cfg["output_dir"]).exists()


@pytest.mark.parametrize("key,value,field", [
    ("terminal_scale", float("nan"), "Q_terminal"),
    ("terminal_scale", None, "Q_terminal"),
    ("terminal_scale", "2", "Q_terminal"),
    ("lambda", float("inf"), "lam"),
    ("lambda", "0.5", "lam"),
    ("lambda", True, "lam"),
    ("lambda", None, "lam"),
    ("horizon_steps", 2.7, "horizon_steps"),
])
def test_malformed_cost_is_config_error(tmp_path, key, value, field):
    cfg = _linear_config(tmp_path)
    cfg["cost"][key] = value
    with pytest.raises(ConfigError, match=f"cost {field}"):
        run_learn(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))            # NaN and Infinity are valid here
    assert cli_main(["learn", str(p)]) == 2
    assert not Path(cfg["output_dir"]).exists()


@pytest.mark.parametrize("key,value", [
    ("max_points", "100"), ("max_points", float("nan")), ("max_points", 0),
    ("trials", 2.5), ("trials", "2"), ("trials", True), ("trials", 0),
    ("init_rollouts", 1.0), ("inner_max_iters", None),
    ("baseline_samples", 4.5), ("baseline_iterations", "3"),
    ("seed", 1.5), ("seed", -1), ("seed", "0"),
    ("u_max", "x"), ("u_max", -1), ("u_max", float("inf")), ("u_max", 0),
])
def test_malformed_protocol_setting_is_config_error(tmp_path, key, value):
    cfg = _linear_config(tmp_path)
    cfg["protocol"][key] = value
    for runner, command in ((run_learn, "learn"),
                            (run_baseline, "baseline-pi")):
        with pytest.raises(ConfigError, match=f"protocol.{key}"):
            runner(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))        # NaN and Infinity are valid here
        assert cli_main([command, str(p)]) == 2
    assert not Path(cfg["output_dir"]).exists()


@pytest.mark.parametrize("section,key,value", [
    ("cost", "Q_diag", [True]), ("cost", "x_d", [False]),
    ("protocol", "x0", [True]), ("protocol", "x0", ["0.5"])])
def test_non_numeric_state_vector_exits_2(tmp_path, section, key, value):
    cfg = _linear_config(tmp_path)
    cfg[section][key] = value
    for runner, command in ((run_learn, "learn"),
                            (run_baseline, "baseline-pi")):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            runner(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli_main([command, str(p)]) == 2
    assert not Path(cfg["output_dir"]).exists()


@pytest.mark.parametrize("horizon,init,max_points", [(4, 1, 1), (1, 1, 6)],
                         ids=["one-point-gp", "one-init-pair"])
def test_learn_that_cannot_fit_exits_2_before_its_run_dir(tmp_path, horizon,
                                                          init, max_points):
    # the first hyperparameter fit needs two training pairs: either the
    # GP holds one point or the initialization gives one
    cfg = protocols.cartpole_swingup(seed=0, trials=1,
                                     output_dir=str(tmp_path / "run"))
    cfg["cost"]["horizon_steps"] = horizon
    cfg["protocol"].update(init_rollouts=init, max_points=max_points)
    with pytest.raises(ConfigError, match="hyperparameter fit"):
        run_learn(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli_main(["learn", str(p)]) == 2
    assert not Path(cfg["output_dir"]).exists()
    # the baseline fits no model, so it takes the same config
    cfg["protocol"].update(baseline_samples=3, baseline_iterations=1)
    p.write_text(json.dumps(cfg))
    assert cli_main(["baseline-pi", str(p)]) == 0
    assert (Path(cfg["output_dir"]) / "metrics.csv").exists()


@pytest.mark.parametrize("name,params", [
    ("linear", ["A"]), ("linear", 3), ("cartpole", ["cart_mass"])])
def test_plant_params_not_an_object_is_config_error(tmp_path, name, params):
    cfg = _linear_config(tmp_path)
    cfg["plant"] = {"name": name, "params": params}
    for runner, command in ((run_learn, "learn"),
                            (run_baseline, "baseline-pi")):
        with pytest.raises(ConfigError, match="params"):
            runner(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli_main([command, str(p)]) == 2
    assert not Path(cfg["output_dir"]).exists()


class TestRunCompose:
    def _make_library(self, tmp_path, targets=(0.3, 0.6)):
        paths = []
        for k, t in enumerate(targets):
            cfg = _linear_config(tmp_path / f"task{k}", trials=2)
            cfg["cost"]["x_d"] = [t]
            out = run_learn(cfg)["out_dir"]
            paths.append(out / "controller.json")
        manifest = tmp_path / "manifest.json"
        save_manifest(manifest, paths, [2.0], cfg["plant"])
        return manifest

    def test_single_task_manifest_reproduces_record(self, tmp_path):
        manifest = self._make_library(tmp_path, targets=(0.3,))
        res = run_compose(manifest, [0.3],
                          output_dir=tmp_path / "composite")
        rec = load_record(json.loads(manifest.read_text())["records"][0])
        assert np.array_equal(res["record"].controls, rec.controls)
        assert np.allclose(res["record"].log_psi, rec.log_psi)

    def test_two_task_compose_writes_metrics(self, tmp_path):
        manifest = self._make_library(tmp_path)
        res = run_compose(manifest, [0.45],
                          output_dir=tmp_path / "composite")
        out = res["out_dir"]
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == "task,terminal_log_psi"
        assert len(rows) == 4  # composite + two tasks
        assert (out / "trace.csv").exists()

    def test_composite_model_ref_names_first_task_model(self, tmp_path):
        manifest = self._make_library(tmp_path)
        out = run_compose(manifest, [0.45],
                          output_dir=tmp_path / "composite")["out_dir"]
        doc = json.loads((out / "controller.json").read_text())
        assert not os.path.isabs(doc["model_ref"])
        record = load_record(out / "controller.json")
        first = json.loads(manifest.read_text())["records"][0]
        assert os.path.samefile(record.model_ref,
                                os.path.join(os.path.dirname(first),
                                             "model.json"))

    def test_relative_library_composes_from_its_own_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        manifest = self._make_library(Path("lib"))
        doc = json.loads(manifest.read_text())
        assert doc["records"] == [os.path.join(f"task{k}", "run",
                                               "controller.json")
                                  for k in range(2)]
        monkeypatch.chdir(tmp_path / "lib")
        res = run_compose("manifest.json", [0.45], output_dir="composite")
        assert (tmp_path / "lib" / "composite" / "metrics.csv").exists()
        assert os.path.samefile(res["record"].model_ref,
                                os.path.join("task0", "run", "model.json"))

    def test_composite_log_psi_mixed_in_log_domain(self, tmp_path):
        # Psi_t = exp(log_psi_t) underflows to zero at log_psi ~ -800
        T = 4
        plant = {"name": "linear", "params": {"A": [[-0.4]], "Bc": [[1.0]]}}
        paths = []
        for k, (target, offset) in enumerate(((0.3, -800.0), (0.6, -803.0))):
            rec = ControllerRecord(
                f"task{k}", [target], CostFields([1.0], 0.5, 0.02, T),
                np.zeros((T, 1)), offset - 0.5 * np.arange(T + 1),
                np.zeros((T + 1, 1)), plant=plant)
            paths.append(tmp_path / f"task{k}.json")
            save_record(rec, paths[-1])
        manifest = tmp_path / "manifest.json"
        save_manifest(manifest, paths, [2.0], plant)
        res = run_compose(manifest, [0.4])
        records = [load_record(p) for p in paths]
        omega = res["weights"].omega_tilde
        expected = [logsumexp([r.log_psi[t] for r in records], b=omega)
                    for t in range(T + 1)]
        assert np.all(res["record"].log_psi < -800.0)
        assert np.allclose(res["record"].log_psi, expected, rtol=1e-12)

    @pytest.mark.parametrize("case", ["short-controls", "long-P_diag",
                                      "nan-P_diag", "mixed-x_d"])
    def test_malformed_library_exits_2(self, tmp_path, case):
        T = 3
        plant = {"name": "linear", "params": {"A": [[-0.4, 0.0], [0.0, -0.4]],
                                              "Bc": [[1.0], [0.0]]}}
        x_ds, rows, p_diag = [[0.3, 0.0], [0.6, 0.0]], [T, T], [2.0, 2.0]
        if case == "short-controls":
            rows[1] = T - 1
        elif case == "long-P_diag":
            p_diag = [2.0, 2.0, 2.0]
        elif case == "nan-P_diag":
            p_diag = [float("nan"), 2.0]
        else:
            x_ds[1] = [0.6]
        paths = []
        for k in range(2):
            rec = ControllerRecord(
                f"task{k}", x_ds[k], CostFields([1.0, 1.0], 0.5, 0.02, T),
                np.zeros((rows[k], 1)), np.zeros(T + 1), np.zeros((T + 1, 2)),
                plant=plant)
            paths.append(tmp_path / f"task{k}.json")
            save_record(rec, paths[-1])
        manifest = tmp_path / "manifest.json"
        save_manifest(manifest, paths, p_diag, plant)
        out = tmp_path / "composite"
        with pytest.raises(ConfigError) as info:
            run_compose(manifest, [0.45, 0.0], output_dir=out)
        if case == "mixed-x_d":
            assert info.value.field == "x_d"
        assert cli_main(["compose", str(manifest), "--target", "0.45,0",
                         "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_malformed_manifest_distinct_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"records": []}))
        code = cli_main(["compose", str(bad), "--target", "0.1"])
        assert code == 2

    @pytest.mark.parametrize("records", ["ctrl.json", [], ["ctrl.json", 1],
                                         {"a": "ctrl.json"}, None])
    def test_manifest_records_not_a_list_of_paths(self, tmp_path, records):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": records, "P_diag": [2.0],
                                        "plant": {"name": "linear"}}))
        with pytest.raises(ConfigError, match="'records'"):
            run_compose(manifest, [0.4])
        assert cli_main(["compose", str(manifest), "--target", "0.4"]) == 2

    def test_manifest_not_an_object_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("3")
        with pytest.raises(ConfigError, match="JSON object"):
            run_compose(manifest, [0.4])

    def test_manifest_without_plant_rejected(self, tmp_path):
        T = 3
        rec = ControllerRecord("task0", [0.3], CostFields([1.0], 0.5, 0.02, T),
                               np.zeros((T, 1)), np.zeros(T + 1),
                               np.zeros((T + 1, 1)))
        save_record(rec, tmp_path / "task0.json")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"records": ["task0.json"],
                                        "P_diag": [2.0]}))
        with pytest.raises(ConfigError, match="no 'plant' section"):
            run_compose(manifest, [0.4])
        code = cli_main(["compose", str(manifest), "--target", "0.4"])
        assert code == 2

    def test_misspelt_manifest_plant_key_rejected(self, tmp_path):
        T = 3
        rec = ControllerRecord("task0", [0.3], CostFields([1.0], 0.5, 0.02, T),
                               np.zeros((T, 1)), np.zeros(T + 1),
                               np.zeros((T + 1, 1)))
        save_record(rec, tmp_path / "task0.json")
        manifest = tmp_path / "manifest.json"
        save_manifest(manifest, [tmp_path / "task0.json"], [2.0],
                      {"name": "linear", "noise_sd": 0.5,
                       "params": {"A": [[-0.4]], "Bc": [[1.0]]}})
        with pytest.raises(ConfigError, match="plant.noise_sd"):
            run_compose(manifest, [0.4])
        code = cli_main(["compose", str(manifest), "--target", "0.4"])
        assert code == 2

    def test_records_learned_on_other_plant_rejected(self, tmp_path):
        manifest = self._make_library(tmp_path, targets=(0.3,))
        doc = json.loads(manifest.read_text())
        doc["plant"]["params"]["A"] = [[5.0]]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(AlignmentError) as info:
            run_compose(manifest, [0.3])
        assert info.value.field == "plant"
        assert cli_main(["compose", str(manifest), "--target", "0.3"]) == 2

    def test_manifest_x0_of_other_length_rejected(self, tmp_path):
        manifest = self._make_library(tmp_path, targets=(0.3,))
        doc = json.loads(manifest.read_text())
        doc["x0"] = [0.0, 0.0]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="x0"):
            run_compose(manifest, [0.3])
        assert cli_main(["compose", str(manifest), "--target", "0.3"]) == 2

    def test_non_numeric_manifest_x0_is_config_error(self, tmp_path):
        manifest = self._make_library(tmp_path, targets=(0.3,))
        doc = json.loads(manifest.read_text())
        doc["x0"] = ["a"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="manifest x0"):
            run_compose(manifest, [0.3])
        assert cli_main(["compose", str(manifest), "--target", "0.3"]) == 2

    @pytest.mark.parametrize("key,named", [("x0", "manifest x0"),
                                           ("P_diag", "kernel width")])
    def test_boolean_manifest_vector_exits_2(self, tmp_path, key, named):
        manifest = self._make_library(tmp_path, targets=(0.3,))
        doc = json.loads(manifest.read_text())
        doc[key] = [True]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=named):
            run_compose(manifest, [0.3])
        assert cli_main(["compose", str(manifest), "--target", "0.3"]) == 2

    def test_boolean_target_is_config_error(self, tmp_path):
        manifest = self._make_library(tmp_path, targets=(0.3,))
        with pytest.raises(ConfigError, match="target"):
            run_compose(manifest, [True])

    def test_non_finite_manifest_x0_exits_2(self, tmp_path):
        manifest = self._make_library(tmp_path, targets=(0.3,))
        doc = json.loads(manifest.read_text())
        doc["x0"] = [float("inf")]
        manifest.write_text(json.dumps(doc))     # written as Infinity
        with pytest.raises(ConfigError, match="manifest x0"):
            run_compose(manifest, [0.3])
        assert cli_main(["compose", str(manifest), "--target", "0.3"]) == 2

    def test_negative_seed_exits_2(self, tmp_path):
        manifest = self._make_library(tmp_path, targets=(0.3,))
        with pytest.raises(ConfigError, match="seed"):
            run_compose(manifest, [0.3], seed=-1)
        out = tmp_path / "composite"
        assert cli_main(["compose", str(manifest), "--target", "0.3",
                         "--seed", "-1", "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_target_of_other_shape_rejected(self, tmp_path):
        manifest = self._make_library(tmp_path, targets=(0.3,))
        for target in (0.4, [[0.4]]):
            with pytest.raises(ConfigError, match="target"):
                run_compose(manifest, target)

    def test_record_without_plant_rejected(self, tmp_path):
        T = 3
        rec = ControllerRecord("task0", [0.3], CostFields([1.0], 0.5, 0.02, T),
                               np.zeros((T, 1)), np.zeros(T + 1),
                               np.zeros((T + 1, 1)))
        save_record(rec, tmp_path / "task0.json")
        with pytest.raises(ConfigError, match="no 'plant' section"):
            load_record(tmp_path / "task0.json")
        manifest = tmp_path / "manifest.json"
        save_manifest(manifest, [tmp_path / "task0.json"], [2.0],
                      {"name": "linear",
                       "params": {"A": [[-0.4]], "Bc": [[1.0]]}})
        with pytest.raises(ConfigError, match="no 'plant' section"):
            run_compose(manifest, [0.4])

    @pytest.mark.parametrize("case", ["record", "cost"])
    def test_record_not_an_object_rejected(self, tmp_path, case):
        path = tmp_path / "task0.json"
        if case == "record":
            path.write_text("[1]")
        else:
            T = 3
            save_record(ControllerRecord(
                "task0", [0.3], CostFields([1.0], 0.5, 0.02, T),
                np.zeros((T, 1)), np.zeros(T + 1), np.zeros((T + 1, 1)),
                plant={"name": "linear"}), path)
            doc = json.loads(path.read_text())
            doc["cost"] = 3
            path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match={"record": "JSON object",
                                               "cost": "cost"}[case]):
            load_record(path)
        manifest = tmp_path / "manifest.json"
        save_manifest(manifest, [path], [2.0],
                      {"name": "linear",
                       "params": {"A": [[-0.4]], "Bc": [[1.0]]}})
        assert cli_main(["compose", str(manifest), "--target", "0.4"]) == 2

    def test_misaligned_records_error(self, tmp_path):
        paths = []
        for k, lam in enumerate((0.5, 0.7)):
            cfg = _linear_config(tmp_path / f"t{k}", trials=1)
            cfg["cost"]["lambda"] = lam
            out = run_learn(cfg)["out_dir"]
            paths.append(out / "controller.json")
        manifest = tmp_path / "m.json"
        save_manifest(manifest, paths, [1.0], cfg["plant"])
        with pytest.raises(AlignmentError):
            run_compose(manifest, [0.4])


class TestRunBaseline:
    def test_baseline_trace_schema_matches(self, tmp_path):
        cfg = _linear_config(tmp_path)
        res = run_baseline(cfg)
        header = (res["out_dir"] / "trace.csv").read_text().splitlines()[0]
        assert header == "step,t,mu_0,sigma_diag_0,u_0,log_psi"

    def test_terminal_log_psi_is_the_recursions(self, tmp_path):
        # both weigh a path of cost S by exp(-S/(2 lambda))
        res = run_baseline(_linear_config(tmp_path))
        row = (res["out_dir"] / "metrics.csv").read_text().splitlines()[1]
        cost = CostSpec([[1.0]], [0.5], 0.5, 0.02, 10)
        assert float(row.split(",")[0]) == pytest.approx(
            terminal_log_desirability(cost, res["states"][-1]), rel=1e-14)


class TestCli:
    def test_learn_and_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_linear_config(tmp_path)))
        assert cli_main(["learn", str(cfg_path)]) == 0

    def test_config_error_exit_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli_main(["learn", str(p)]) == 2
        assert cli_main(["learn", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("command", ["learn", "baseline-pi"])
    @pytest.mark.parametrize("text", ["[1]", '"x"', "3"])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, command,
                                         text):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(p)
        assert cli_main([command, str(p)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_output_dir_not_a_string_exit_2(self, tmp_path, capsys):
        cfg = _linear_config(tmp_path)
        cfg["output_dir"] = 3
        with pytest.raises(ConfigError, match="output_dir"):
            fill_defaults(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        for command in ("learn", "baseline-pi"):
            assert cli_main([command, str(p)]) == 2
            assert "output_dir must be a string" in capsys.readouterr().err

    def test_malformed_shape_exit_2(self, tmp_path):
        cfg = _linear_config(tmp_path)
        cfg["plant"]["params"]["A"] = [[-0.4, 0.0]]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli_main(["learn", str(p)]) == 2

    @pytest.mark.parametrize("key", ["A", "Bc", "B", "sigma_omega"])
    def test_non_numeric_linear_parameter_exit_2(self, tmp_path, capsys, key):
        cfg = _linear_config(tmp_path)
        cfg["plant"]["params"][key] = [["x"]]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli_main(["learn", str(p)]) == 2
        assert f"parameter '{key}'" in capsys.readouterr().err

    def test_check_exit_codes(self, monkeypatch, capsys):
        passing = (0, lambda rng: (True, "fine"))
        failing = (0, lambda rng: (False, "off"))
        monkeypatch.setattr(checks, "CHECKS", {"passes": passing,
                                               "fails": failing})
        assert cli_main(["check"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] fails: off" in out
        assert "1/2 checks passed" in out
        monkeypatch.setattr(checks, "CHECKS", {"passes": passing})
        assert cli_main(["check"]) == 0
        assert "1/1 checks passed" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli_main(["check", "--fast"])
        assert exc.value.code == 2

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "gppi.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("learn", "compose", "baseline-pi", "check"):
            assert sub in proc.stdout


class TestRng:
    def test_named_streams_independent_and_stable(self):
        hub = RngHub(5)
        a1 = hub.stream("plant-noise").standard_normal(4)
        b1 = hub.stream("init-controls").standard_normal(4)
        a2 = hub.stream("plant-noise").standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_seed_not_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            RngHub(seed)

    def test_adding_component_does_not_shift_existing(self):
        hub = RngHub(9)
        before = hub.stream("plant-noise").standard_normal(8)
        hub.stream("a-new-component").standard_normal(8)
        after = hub.stream("plant-noise").standard_normal(8)
        assert np.array_equal(before, after)


def test_compose_keeps_the_learned_terminal_weight(tmp_path):
    cfg = _linear_config(tmp_path / "task0", trials=1)
    cfg["cost"]["terminal_scale"] = 2.0
    record_path = run_learn(cfg)["out_dir"] / "controller.json"
    assert load_record(record_path).cost_fields.terminal_scale == 2.0
    manifest = tmp_path / "manifest.json"
    save_manifest(manifest, [record_path], [2.0], cfg["plant"])
    res = run_compose(manifest, [0.5], output_dir=tmp_path / "composite")
    x_T = res["states"][-1]
    learned = CostSpec([[1.0]], [0.5], 0.5, 0.02, 10, [[2.0]])
    assert res["terminal_log_psi"] == pytest.approx(
        terminal_log_desirability(learned, x_T), rel=1e-12)
    assert res["terminal_log_psi"] != pytest.approx(
        terminal_log_desirability(CostSpec([[1.0]], [0.5], 0.5, 0.02, 10), x_T))
    doc = json.loads((res["out_dir"] / "controller.json").read_text())
    assert doc["cost"]["terminal_scale"] == 2.0


def test_record_without_terminal_scale_rejected(tmp_path):
    T = 3
    rec = ControllerRecord("task0", [0.3], CostFields([1.0], 0.5, 0.02, T),
                           np.zeros((T, 1)), np.zeros(T + 1),
                           np.zeros((T + 1, 1)),
                           plant={"name": "linear"})
    path = tmp_path / "task0.json"
    save_record(rec, path)
    doc = json.loads(path.read_text())
    del doc["cost"]["terminal_scale"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="terminal_scale"):
        load_record(path)
