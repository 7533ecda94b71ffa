"""Experiment orchestration: configs, run directories, CSV/JSON artifacts.

A run directory always receives a config snapshot and a version stamp.  The
metric CSVs contain only seed-deterministic columns; wall-clock timings go to
a separate timing.csv.  The controller record names its model relative to
its own directory, so repeated runs with the same seed produce byte-identical
metrics.csv, trace.csv and controller.json, wherever the run directory lies.
"""

from __future__ import annotations

import copy
import functools
import json
import logging
import subprocess
from pathlib import Path

import numpy as np

from . import __version__
from .compose import (TaskLibrary, composite_plan,
                      composite_terminal_log_desirability, task_weights)
from .control import CostSpec, mpc_learning_loop
from .baselines import sampling_pi_control
from .errors import AlignmentError, ConfigError, NumericalError
from .gp import MIN_FIT_POINTS, save_model
from .plants import (DT, NOISE_STD, SUBSTEPS, _real_array, _require_count,
                     _require_number, canonical_plant_name, make_plant)
from .protocols import PLANT_PROTOCOLS
from .records import (ControllerRecord, CostFields, export_trace_csv,
                      load_manifest, load_record, save_record, write_csv)
from .rng import RngHub

logger = logging.getLogger(__name__)

_DEFAULT_CONFIG = {
    "plant": {"name": "cartpole", "dt": DT, "substeps": SUBSTEPS,
              "noise_std": NOISE_STD, "params": {}},
    "cost": {"Q_diag": None, "x_d": None, "lambda": 0.2,
             "horizon_steps": None, "terminal_scale": 1.0},
    "protocol": {"init_rollouts": None, "trials": 10, "inner_max_iters": 3,
                 "seed": 0, "u_max": 10.0, "max_points": 250, "x0": None,
                 "baseline_samples": 1000, "baseline_iterations": 50},
    "output_dir": "runs/out",
}


def _merge_section(section: str, defaults: dict, values: dict) -> dict:
    """`values` over a shallow copy of `defaults`; an unknown key raises
    ConfigError."""
    out = dict(defaults)
    for key, v in values.items():
        if key not in out:
            raise ConfigError(f"unknown key '{section}.{key}'")
        out[key] = v
    return out


def _executed_rollout(plant, x0, controls, rng) -> np.ndarray:
    """States of one plant rollout under `controls`; a divergence raises
    NumericalError carrying the control step."""
    states = [x0]
    x = x0
    for t, u in enumerate(controls):
        try:
            x = plant.step(x, u, rng)
        except NumericalError as exc:
            raise NumericalError(f"executed rollout failed at step {t}: {exc}",
                                 jitter=exc.jitter, step=t) from exc
        states.append(x)
    return np.array(states)


def fill_defaults(config: dict) -> dict:
    """Deep-merge a user config over the defaults and resolve plant fields.

    The plant name may be any alias `make_plant` accepts; it resolves through
    the plant registry to the canonical name whose protocol supplies
    `init_rollouts` and `horizon_steps` when the config leaves them unset.
    An unknown plant name, a config that is not an object, or an
    `output_dir` that is not a string raises ConfigError.
    """
    if config is not None and not isinstance(config, dict):
        raise ConfigError("config must be a JSON object, got "
                          f"{type(config).__name__}")
    out = copy.deepcopy(_DEFAULT_CONFIG)
    for section, value in (config or {}).items():
        if section not in out:
            raise ConfigError(f"unknown config section '{section}'")
        if isinstance(out[section], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"section '{section}' must be an object")
            out[section] = _merge_section(section, out[section], value)
        else:
            out[section] = value
    if not isinstance(out["output_dir"], str):
        raise ConfigError("output_dir must be a string path, got "
                          f"{type(out['output_dir']).__name__}")
    proto = PLANT_PROTOCOLS[canonical_plant_name(out["plant"]["name"])]
    if out["protocol"]["init_rollouts"] is None:
        out["protocol"]["init_rollouts"] = proto["init_rollouts"]
    if out["cost"]["horizon_steps"] is None:
        out["cost"]["horizon_steps"] = proto["horizon_steps"]
    if out["cost"]["Q_diag"] is None or out["cost"]["x_d"] is None:
        raise ConfigError("cost.Q_diag and cost.x_d are required")
    return out


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return fill_defaults(raw)


def _same_plant(a, b) -> bool:
    """Whether two built plants have the same dynamics: name, integration
    settings, noise and every parameter."""
    sa, sb = a.spec, b.spec
    return ((sa.name, sa.dt, sa.substeps) == (sb.name, sb.dt, sb.substeps)
            and np.array_equal(sa.B, sb.B)
            and np.array_equal(sa.sigma_omega, sb.sigma_omega)
            and sa.params.keys() == sb.params.keys()
            and all(np.array_equal(sa.params[k], sb.params[k])
                    for k in sa.params))


def build_cost(cost_cfg: dict, dt: float) -> CostSpec:
    """The run's CostSpec.  Raises ConfigError, before any arithmetic, unless
    `lambda` is a positive and `terminal_scale` a non-negative number."""
    _require_number("cost lam", cost_cfg["lambda"])
    _require_number("cost Q_terminal scale (terminal_scale)",
                    cost_cfg["terminal_scale"], may_be_zero=True)
    q = np.diag(np.asarray(cost_cfg["Q_diag"], dtype=float))
    q_term = cost_cfg["terminal_scale"] * q
    return CostSpec(q, np.asarray(cost_cfg["x_d"], dtype=float),
                    float(cost_cfg["lambda"]), dt, cost_cfg["horizon_steps"],
                    q_term)


def _state_vector(what: str, value, plant) -> np.ndarray:
    """`value` as a float array of one finite number per state of `plant`;
    raises ConfigError, naming `what`, for anything else, bools and strings
    included."""
    n = plant.spec.n
    vec = _real_array(value)
    if vec is None or vec.shape != (n,) or not np.all(np.isfinite(vec)):
        raise ConfigError(f"{what} must hold {n} finite numbers, one per "
                          f"state of the {plant.spec.name} plant, got "
                          f"{value!r}")
    return vec


def _check_protocol(proto: dict) -> None:
    """ConfigError unless the counts of `proto` are integers >= 1 (the seed
    >= 0, max_points also None for no cap) and u_max a finite positive
    number."""
    for key in ("trials", "init_rollouts", "inner_max_iters",
                "baseline_samples", "baseline_iterations"):
        _require_count(f"protocol.{key}", proto[key])
    if proto["max_points"] is not None:
        _require_count("protocol.max_points", proto["max_points"])
    _require_count("protocol.seed", proto["seed"], minimum=0)
    _require_number("protocol.u_max", proto["u_max"])


def _plant_cost_start(config: dict):
    """The run's plant, cost and start state.  Raises ConfigError for a
    protocol setting `_check_protocol` rejects, and unless cost.Q_diag,
    cost.x_d and a set protocol.x0 each hold one finite number per state of
    the plant."""
    _check_protocol(config["protocol"])
    plant = make_plant(**config["plant"])
    n = plant.spec.n
    for key in ("Q_diag", "x_d"):
        if config["cost"][key] is not None:
            _state_vector(f"cost.{key}", config["cost"][key], plant)
    x0 = config["protocol"]["x0"]
    x0 = np.zeros(n) if x0 is None else _state_vector("protocol.x0", x0, plant)
    return plant, build_cost(config["cost"], config["plant"]["dt"]), x0


@functools.cache
def _git_describe() -> str:
    """`git describe` of the package's checkout, or 'unknown'; run once per
    process, as the code does not change while it runs."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5,
                             cwd=Path(__file__).parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _make_run_dir(path) -> Path:
    """The directory `path`, made if need be and stamped with version.json;
    ConfigError if it cannot be written."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output dir not writable: {exc}") from exc
    with open(out / "version.json", "w", encoding="utf-8") as fh:
        json.dump({"package_version": __version__,
                   "git": _git_describe()}, fh)
    return out


def _prepare_run_dir(config: dict) -> Path:
    out = _make_run_dir(config["output_dir"])
    with open(out / "config_snapshot.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return out


def _flush_failure(out_dir: Path, exc: Exception) -> None:
    with open(out_dir / "FAILED", "w", encoding="utf-8") as fh:
        fh.write(f"{type(exc).__name__}: {exc}\n")


def _check_fit_size(proto: dict, horizon_steps: int) -> None:
    """ConfigError unless the initialization rollouts can give the first
    hyperparameter fit `gp.MIN_FIT_POINTS` training pairs and a set
    max_points can hold them."""
    pairs = proto["init_rollouts"] * horizon_steps
    if pairs < MIN_FIT_POINTS:
        raise ConfigError(
            f"protocol.init_rollouts x cost.horizon_steps is {pairs} training "
            f"pairs; the hyperparameter fit needs at least {MIN_FIT_POINTS}")
    if proto["max_points"] is not None and proto["max_points"] < MIN_FIT_POINTS:
        raise ConfigError(
            f"protocol.max_points {proto['max_points']} holds fewer than the "
            f"{MIN_FIT_POINTS} training pairs the hyperparameter fit needs")


def run_learn(config: dict) -> dict:
    """Execute the learning protocol and write all run artifacts.  A config
    that does not fit its plant, or whose initialization cannot give the
    hyperparameter fit enough training pairs (`_check_fit_size`), raises
    ConfigError before the run directory is made."""
    config = fill_defaults(config)
    plant, cost, x0 = _plant_cost_start(config)
    proto = config["protocol"]
    _check_fit_size(proto, cost.horizon_steps)
    out = _prepare_run_dir(config)
    try:
        result = mpc_learning_loop(
            plant, cost, trials=proto["trials"], seed=proto["seed"],
            init_rollouts=proto["init_rollouts"], u_max=float(proto["u_max"]),
            inner_max_iters=proto["inner_max_iters"],
            max_points=proto["max_points"], x0=x0)
    except Exception as exc:
        _flush_failure(out, exc)
        raise

    write_csv(out / "metrics.csv",
              ["trial", "terminal_log_psi", "terminal_cost"],
              [(m.trial, float(m.terminal_log_psi), float(m.terminal_cost))
               for m in result.metrics])
    write_csv(out / "timing.csv", ["trial", "wall_seconds"],
              [(m.trial, float(m.wall_seconds)) for m in result.metrics])
    save_model(result.model, out / "model.json")
    record = ControllerRecord(
        task_id=out.name,
        x_d=cost.x_d,
        cost_fields=CostFields(np.diag(cost.Q), cost.lam, cost.dt,
                               cost.horizon_steps,
                               float(config["cost"]["terminal_scale"])),
        controls=result.controls,
        log_psi=result.log_psi,
        grad_psi_over_psi=result.grad_psi_over_psi,
        model_ref=str(out / "model.json"),   # saved relative to out
        plant=config["plant"])
    save_record(record, out / "controller.json")
    export_trace_csv(out / "trace.csv", cost.dt, result.states,
                     np.zeros_like(result.states), result.controls,
                     result.log_psi)
    return {"metrics": result.metrics, "record": record,
            "model": result.model, "out_dir": out, "states": result.states}


def run_compose(manifest_path, new_target, output_dir=None, seed: int = 0) -> dict:
    """Build and execute a composite controller from a record library.

    Every record must have been learned on the manifest's plant; a record
    whose plant differs raises AlignmentError on the field 'plant'.  A seed
    that is not an integer >= 0 raises ConfigError before any work.
    """
    noise = RngHub(seed).stream("compose-noise")
    doc = load_manifest(manifest_path)
    plant_cfg = _merge_section("plant", _DEFAULT_CONFIG["plant"], doc["plant"])
    plant = make_plant(**plant_cfg)
    records = [load_record(p) for p in doc["records"]]
    for path, rec in zip(doc["records"], records):
        learned_on = make_plant(**_merge_section(
            "plant", _DEFAULT_CONFIG["plant"], rec.plant))
        if not _same_plant(learned_on, plant):
            raise AlignmentError("plant", f"record {path} was learned on a "
                                 "different plant than the manifest names")
    new_target = _state_vector("target", new_target, plant)
    x0 = doc.get("x0")
    x0 = np.zeros(plant.spec.n) if x0 is None \
        else _state_vector("manifest x0", x0, plant)
    p_diag = doc.get("P_diag")
    if p_diag is None:
        p_diag = TaskLibrary.default_kernel_width(records, new_target)
    library = TaskLibrary(records, p_diag)
    weights = task_weights(library, new_target)
    controls, log_psi = composite_plan(library, weights)

    out = None if output_dir is None else _make_run_dir(output_dir)

    ref = records[0].cost_fields
    states = _executed_rollout(plant, x0, controls, noise)
    term = composite_terminal_log_desirability(library, weights, states[-1])
    record = ControllerRecord(
        task_id="composite",
        x_d=new_target,
        cost_fields=ref,
        controls=controls,
        log_psi=log_psi,
        grad_psi_over_psi=np.zeros((ref.horizon_steps + 1, plant.spec.n)),
        model_ref=records[0].model_ref,
        plant=plant_cfg)
    if out is not None:
        save_record(record, out / "controller.json")
        export_trace_csv(out / "trace.csv", ref.dt, states,
                         np.zeros_like(states), controls, log_psi)
        write_csv(out / "metrics.csv",
                  ["task", "terminal_log_psi"],
                  [("composite", float(term))]
                  + [(r.task_id, float(r.log_psi[-1])) for r in records])
    return {"record": record, "states": states, "terminal_log_psi": term,
            "weights": weights, "library": library, "out_dir": out}


def run_baseline(config: dict) -> dict:
    """Sampling-PI baseline on the true plant; same trace schema as learn."""
    config = fill_defaults(config)
    plant, cost, x0 = _plant_cost_start(config)
    out = _prepare_run_dir(config)
    proto = config["protocol"]
    hub = RngHub(proto["seed"])
    try:
        res = sampling_pi_control(
            plant, x0, np.zeros((cost.horizon_steps, plant.spec.m)), cost,
            n_samples=proto["baseline_samples"],
            rng=hub.stream("baseline-sampling"),
            n_iterations=proto["baseline_iterations"])
    except Exception as exc:
        _flush_failure(out, exc)
        raise
    # executed trace under the final controls
    states = _executed_rollout(plant, x0, res.controls,
                               hub.stream("baseline-exec"))
    # per-step log-desirability of the executed point path's cost-to-go
    log_psi = np.array([-cost.path_costs(states[t:]) / (2.0 * cost.lam)
                        for t in range(cost.horizon_steps + 1)])
    export_trace_csv(out / "trace.csv", cost.dt, states,
                     np.zeros_like(states), res.controls, log_psi)
    write_csv(out / "metrics.csv",
              ["terminal_log_psi", "terminal_cost", "ess"],
              [(float(log_psi[-1]), float(cost.terminal_cost(states[-1])),
                float(res.ess))])
    return {"controls": res.controls, "states": states, "ess": res.ess,
            "status": res.status, "out_dir": out}
