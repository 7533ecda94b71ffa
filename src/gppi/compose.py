"""Composite controllers for new targets from a library of learned tasks.

The desirability PDE is linear, so a weighted mixture of terminal
desirabilities is itself a valid desirability; controls mix with
Psi-proportional weights along the horizon.  All mixture sums use exactly
rounded accumulation (math.fsum) so results are invariant under record
reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import (LOG_PHI_FLOOR, ControlSequence, CostSpec,
                      backward_desirability, forward_rollout, log_phi_step,
                      terminal_log_desirability)
from .errors import AlignmentError, ConfigError
from .moments import GaussianBelief
from .records import ControllerRecord

MIN_NEAREST_WEIGHT = 0.1


@dataclass
class TaskLibrary:
    """Aligned controller records plus the target-distance kernel width."""

    records: list                       # ControllerRecord
    kernel_width: np.ndarray            # diagonal of P

    def __post_init__(self):
        if not self.records:
            raise ConfigError("library needs at least one record")
        self.kernel_width = np.atleast_1d(
            np.asarray(self.kernel_width, dtype=float))
        if np.any(self.kernel_width <= 0):
            raise ConfigError("kernel width entries must be positive")
        ref = self.records[0]
        for rec in self.records[1:]:
            for name in ("Q_diag", "lam", "dt", "horizon_steps",
                         "terminal_scale"):
                if not np.allclose(getattr(rec.cost_fields, name),
                                   getattr(ref.cost_fields, name)):
                    raise AlignmentError(name)

    @property
    def size(self) -> int:
        return len(self.records)

    def cost_for(self, target) -> CostSpec:
        ref = self.records[0].cost_fields
        q = np.diag(ref.Q_diag)
        return CostSpec(q, np.asarray(target, dtype=float), ref.lam, ref.dt,
                        ref.horizon_steps, ref.terminal_scale * q)

    @staticmethod
    def default_kernel_width(records, new_target=None) -> np.ndarray:
        """Q-shaped diagonal, rescaled so the nearest task keeps weight >= 0.1."""
        ref = records[0].cost_fields
        q = np.asarray(ref.Q_diag, dtype=float)
        base = q / max(float(np.sum(q)), 1e-300)
        base = np.where(base <= 0, 1e-6, base)
        if new_target is None or len(records) == 0:
            return base
        t = np.asarray(new_target, dtype=float)
        d2 = min(float((t - r.x_d) @ (base * (t - r.x_d))) for r in records)
        if d2 > 0 and math.exp(-0.5 * d2) < MIN_NEAREST_WEIGHT:
            base = base * (2.0 * math.log(1.0 / MIN_NEAREST_WEIGHT) / d2)
        return base


@dataclass
class CompositeWeights:
    omega: np.ndarray           # raw Gaussian-kernel distances
    omega_tilde: np.ndarray     # normalized


def task_weights(library: TaskLibrary, new_target) -> CompositeWeights:
    """Gaussian kernel distance between the new target and each stored one."""
    t = np.asarray(new_target, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ConfigError("new target must be finite")
    p = library.kernel_width
    omega = np.array([
        math.exp(-0.5 * float((t - rec.x_d) @ (p * (t - rec.x_d))))
        for rec in library.records
    ])
    total = math.fsum(omega)
    return CompositeWeights(omega, omega / total)


def log_mixture(omega, log_values) -> float:
    """log sum_k omega_k exp(log_values_k), formed in log domain."""
    parts = [(math.log(w) if w > 0 else -math.inf) + lv
             for w, lv in zip(omega, log_values)]
    peak = max(parts)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(math.fsum(math.exp(e - peak) for e in parts))


def composite_terminal_cost(library: TaskLibrary, weights: CompositeWeights,
                            x_T) -> float:
    """Log-sum-exp mixture of the per-task terminal costs."""
    lam = library.records[0].cost_fields.lam
    return -lam * log_mixture(weights.omega_tilde, [
        -library.cost_for(rec.x_d).terminal_cost(x_T) / lam
        for rec in library.records])


def composite_control(library: TaskLibrary, weights: CompositeWeights,
                      t: int):
    """Psi-weighted mixture of the stored per-task controls at step t.

    Weights are formed in log domain; if every stored log Psi_t sits at the
    saturation floor the mixture falls back to the plain task weights with a
    warning status.  Returns (control, status).
    """
    logits = []
    for rec, w in zip(library.records, weights.omega_tilde):
        if t >= len(rec.log_psi):
            raise ConfigError(f"record {rec.task_id} has no log_psi at step {t}")
        logits.append((math.log(w) if w > 0 else -math.inf) + rec.log_psi[t])
    peak = max(logits)
    status = "ok"
    if not math.isfinite(peak) or all(rec.log_psi[t] <= LOG_PHI_FLOOR
                                      for rec in library.records):
        mix = weights.omega_tilde
        status = "saturated-uniform"
    else:
        raw = [math.exp(l - peak) for l in logits]
        tot = math.fsum(raw)
        mix = [r / tot for r in raw]
    m = library.records[0].controls.shape[1]
    u = np.array([math.fsum(w * rec.controls[t, j]
                            for w, rec in zip(mix, library.records))
                  for j in range(m)])
    return u, status


def composite_control_sequence(library: TaskLibrary,
                               weights: CompositeWeights) -> ControlSequence:
    T = library.records[0].cost_fields.horizon_steps
    u = np.vstack([composite_control(library, weights, t)[0][None, :]
                   for t in range(T)])
    return ControlSequence(u)


def composite_terminal_log_desirability(library: TaskLibrary,
                                        weights: CompositeWeights,
                                        x_T) -> float:
    """Mixture terminal desirability at a reached state, in the recursion's
    own convention (matches terminal_log_desirability for a single task)."""
    return log_mixture(weights.omega_tilde, [
        terminal_log_desirability(library.cost_for(rec.x_d), x_T)
        for rec in library.records])


@dataclass
class LinearityReport:
    residuals: np.ndarray       # per-step relative residual on Psi
    max_residual: float
    log_psi_composite: np.ndarray
    log_psi_mixture: np.ndarray


def verify_linearity(library: TaskLibrary, weights: CompositeWeights, plant,
                     model, x0) -> LinearityReport:
    """Compare the composite desirability computed two ways.

    (a) Backward recursion from the composite terminal boundary (mixture of
        per-task terminal integrals) along the composite controller's belief
        trajectory, with the new target's interior cost.
    (b) The task-weighted mixture of per-task desirabilities, each from the
        task's own rollout under the shared model.

    Both estimate the same quantity when the PDE linearity holds; on a linear
    plant the residual isolates the moment-matching approximation.
    """
    ref = library.records[0].cost_fields
    T = ref.horizon_steps
    lam = ref.lam
    new_target = np.array([
        math.fsum(w * rec.x_d[j] for w, rec in zip(weights.omega_tilde,
                                                   library.records))
        for j in range(len(library.records[0].x_d))
    ])
    comp_cost = library.cost_for(new_target)

    # side (a): composite rollout, composite terminal boundary
    u_comp = composite_control_sequence(library, weights)
    traj = forward_rollout(model, x0, u_comp, plant, comp_cost,
                           compute_jac=False)
    interior = np.zeros(T + 1)
    for t in range(T - 2, -1, -1):
        lp, _, _ = log_phi_step(traj.beliefs[t + 1], comp_cost, comp_cost.dt,
                                step_index=t + 1)
        interior[t] = lp + interior[t + 1]
    log_term = log_mixture(weights.omega_tilde, [
        log_phi_step(traj.beliefs[T], library.cost_for(rec.x_d), 1.0,
                     terminal=True, step_index=T)[0]
        for rec in library.records])
    log_a = interior + log_term
    log_a[T] = log_term

    # side (b): per-task recursions on their own rollouts
    per_task = []
    for rec in library.records:
        cost_k = library.cost_for(rec.x_d)
        traj_k = forward_rollout(model, x0, ControlSequence(rec.controls),
                                 plant, cost_k, compute_jac=False)
        per_task.append(backward_desirability(traj_k, cost_k).log_psi)
    log_b = np.array([log_mixture(weights.omega_tilde,
                                  [lp[t] for lp in per_task])
                      for t in range(T + 1)])

    resid = np.abs(np.expm1(log_a - log_b))
    return LinearityReport(resid, float(resid.max()), log_a, log_b)
