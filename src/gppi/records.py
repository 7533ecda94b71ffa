"""Persisted controller artifacts and trace export.

A ControllerRecord is the unit the composition module consumes: the executed
control sequence of a learned task, its desirability trace along the visited
states, the target, and the cost fields that must align across a library.

`model_ref` names the GP model file the controller was learned with.  In
memory it is a path usable as it stands (absolute, or relative to the working
directory).  On disk it is stored relative to the directory that holds the
record file, so a record and its model can be moved together; `load_record`
resolves it against that directory again.  An empty `model_ref` stays empty,
and an absolute one in an older record loads unchanged.

A library manifest lists record paths under the same convention: relative
entries are relative to the manifest's own directory.  It also carries the
`plant` config section the library was learned on, which composition needs
to simulate the composite controller.

A record file carries the `plant` config section of the run that learned
it, so composition can check that a record matches the plant it is run on;
`load_record` rejects a record file without one.  Its `cost` section
carries `terminal_scale`, the factor of Q in the terminal weight, so that
composition rebuilds the terminal cost the task was learned with;
`load_record` rejects a record file without it as well.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class CostFields:
    """The persisted subset of a cost specification (diagonal Q only); the
    terminal weight is `terminal_scale` times Q."""

    Q_diag: np.ndarray
    lam: float
    dt: float
    horizon_steps: int
    terminal_scale: float = 1.0

    def __post_init__(self):
        self.Q_diag = np.atleast_1d(np.asarray(self.Q_diag, dtype=float))


@dataclass
class ControllerRecord:
    """One learned task; `model_ref` follows the convention in the module doc."""

    task_id: str
    x_d: np.ndarray
    cost_fields: CostFields
    controls: np.ndarray            # (T, m)
    log_psi: np.ndarray             # (T+1,) at the executed controls
    grad_psi_over_psi: np.ndarray   # (T+1, n) of the generating pass
    model_ref: str = ""
    plant: dict | None = None       # plant config section; required on disk

    def __post_init__(self):
        self.x_d = np.atleast_1d(np.asarray(self.x_d, dtype=float))
        self.controls = np.atleast_2d(np.asarray(self.controls, dtype=float))
        self.log_psi = np.atleast_1d(np.asarray(self.log_psi, dtype=float))
        self.grad_psi_over_psi = np.atleast_2d(
            np.asarray(self.grad_psi_over_psi, dtype=float))


def save_record(record: ControllerRecord, path) -> None:
    model_ref = record.model_ref
    if model_ref:
        model_ref = os.path.relpath(model_ref, os.path.dirname(path) or ".")
    doc = {
        "task_id": record.task_id,
        "x_d": record.x_d.tolist(),
        "cost": {
            "Q_diag": record.cost_fields.Q_diag.tolist(),
            "lambda": record.cost_fields.lam,
            "dt": record.cost_fields.dt,
            "horizon_steps": record.cost_fields.horizon_steps,
            "terminal_scale": record.cost_fields.terminal_scale,
        },
        "controls": record.controls.tolist(),
        "log_psi": record.log_psi.tolist(),
        "grad_psi_over_psi": record.grad_psi_over_psi.tolist(),
        "model_ref": model_ref,
    }
    if record.plant is not None:
        doc["plant"] = record.plant
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_record(path) -> ControllerRecord:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"controller record {path} must be a JSON object")
    if not isinstance(doc.get("plant"), dict) or "name" not in doc["plant"]:
        raise ConfigError(f"controller record {path} has no 'plant' section "
                          "naming the plant it was learned on")
    if not isinstance(doc.get("cost"), dict) \
            or "terminal_scale" not in doc["cost"]:
        raise ConfigError(f"controller record {path} has no "
                          "'cost.terminal_scale'")
    try:
        model_ref = str(doc.get("model_ref", ""))
        if model_ref and not os.path.isabs(model_ref):
            model_ref = os.path.normpath(
                os.path.join(os.path.dirname(path), model_ref))
        cost = CostFields(np.asarray(doc["cost"]["Q_diag"], dtype=float),
                          float(doc["cost"]["lambda"]),
                          float(doc["cost"]["dt"]),
                          int(doc["cost"]["horizon_steps"]),
                          float(doc["cost"]["terminal_scale"]))
        return ControllerRecord(
            str(doc["task_id"]),
            np.asarray(doc["x_d"], dtype=float),
            cost,
            np.asarray(doc["controls"], dtype=float),
            np.asarray(doc["log_psi"], dtype=float),
            np.asarray(doc["grad_psi_over_psi"], dtype=float),
            model_ref,
            doc["plant"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed controller record: {exc}") from exc


def export_trace_csv(path, dt, mus, sigma_diags, controls, log_psis) -> None:
    """Write the per-step trace: step,t,mu_*,sigma_diag_*,u_*,log_psi.

    Rows cover steps 0..T; the control columns repeat the last control at the
    terminal row so every row has the same arity.
    """
    mus = np.atleast_2d(np.asarray(mus, dtype=float))
    sig = np.atleast_2d(np.asarray(sigma_diags, dtype=float))
    us = np.atleast_2d(np.asarray(controls, dtype=float))
    lp = np.atleast_1d(np.asarray(log_psis, dtype=float))
    n = mus.shape[1]
    m = us.shape[1]
    header = ["step", "t"]
    header += [f"mu_{i}" for i in range(n)]
    header += [f"sigma_diag_{i}" for i in range(n)]
    header += [f"u_{j}" for j in range(m)]
    header += ["log_psi"]
    write_csv(path, header, (
        [step, step * dt,
         *map(float, mus[step]), *map(float, sig[step]),
         *map(float, us[min(step, us.shape[0] - 1)]), float(lp[step])]
        for step in range(mus.shape[0])))


def write_csv(path, header, rows) -> None:
    """Write `header` and `rows` as CSV lines; a float cell is written with
    `repr`, so that it reads back exactly, any other cell with `str`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c)
                              for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_manifest(path, record_paths, p_diag, plant: dict) -> None:
    """Relative `record_paths` (to the working directory) are stored relative
    to the manifest's directory; absolute ones are stored as given.  `plant`
    is the plant config section (at least its `name`) of the library."""
    base = os.path.dirname(path) or "."
    doc = {"records": [str(p) if os.path.isabs(p) else os.path.relpath(p, base)
                       for p in record_paths],
           "P_diag": [float(v) for v in np.atleast_1d(p_diag)],
           "plant": plant}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_manifest(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("manifest must be a JSON object")
    records = doc.get("records")
    if not isinstance(records, list) or not records \
            or not all(isinstance(p, str) for p in records):
        raise ConfigError("manifest 'records' must be a non-empty list of "
                          "record paths")
    if not isinstance(doc.get("plant"), dict) or "name" not in doc["plant"]:
        raise ConfigError("manifest has no 'plant' section naming the plant")
    base = os.path.dirname(path)
    doc["records"] = [
        p if os.path.isabs(p) else os.path.normpath(os.path.join(base, p))
        for p in records]
    return doc
