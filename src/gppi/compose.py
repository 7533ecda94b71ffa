"""Composite controllers for new targets from a library of learned tasks.

The desirability PDE is linear, so a weighted mixture of terminal
desirabilities is itself a valid desirability; controls mix with
Psi-proportional weights along the horizon.  Every mixture, of the task
weights and of the desirabilities, is formed in log domain by `mixture`,
so it stays exact where each Psi underflows; its sums are exactly rounded
(math.fsum), so results are invariant under record reordering.

A library checks its records when it is built: one state size n across
every x_d and Q_diag, one control size m, and per record a finite x_d,
(T, m) controls and T+1 finite log Psi.  Records that disagree raise an
AlignmentError naming the field, and any other fault a ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import (ControlSequence, CostSpec, backward_desirability,
                      forward_rollout, log_phi_step,
                      terminal_log_desirability)
from .errors import AlignmentError, ConfigError
from .plants import _real_array

MIN_NEAREST_WEIGHT = 0.1


def _state_size(records) -> int:
    """The records' one state dimension n, checked as the module doc says."""
    if not records:
        raise ConfigError("library needs at least one record")
    n = records[0].cost_fields.Q_diag.shape[0]
    m = records[0].controls.shape[1]
    for rec in records:
        T = rec.cost_fields.horizon_steps
        if (rec.controls.shape[0] != T or rec.log_psi.shape != (T + 1,)
                or not np.all(np.isfinite(rec.log_psi))
                or not np.all(np.isfinite(rec.x_d))):
            raise ConfigError(f"record {rec.task_id} must hold a finite x_d, "
                              f"{T} rows of controls and {T + 1} finite "
                              "log_psi entries")
        for name, shape, size in (
                ("x_d", rec.x_d.shape, n),
                ("Q_diag", rec.cost_fields.Q_diag.shape, n),
                ("controls", rec.controls.shape[1:], m)):
            if shape != (size,):
                raise AlignmentError(name, f"record {rec.task_id} has {name} "
                                     f"of shape {shape}, not {size} entries")
    return n


@dataclass
class TaskLibrary:
    """Aligned controller records plus the target-distance kernel width,
    which must hold 1 or n finite positive entries."""

    records: list                       # ControllerRecord
    kernel_width: np.ndarray            # diagonal of P

    def __post_init__(self):
        n = _state_size(self.records)
        width = _real_array(self.kernel_width)
        if width is None:
            raise ConfigError("kernel width must be numbers (no bools or "
                              f"strings), got {self.kernel_width!r}")
        width = self.kernel_width = np.atleast_1d(width)
        if (width.shape not in ((1,), (n,)) or not np.all(np.isfinite(width))
                or not np.all(width > 0)):
            raise ConfigError(f"kernel width must hold 1 or {n} finite "
                              f"positive entries, got {width.tolist()}")
        ref = self.records[0]
        for rec in self.records[1:]:
            for name in ("Q_diag", "lam", "dt", "horizon_steps",
                         "terminal_scale"):
                if not np.allclose(getattr(rec.cost_fields, name),
                                   getattr(ref.cost_fields, name)):
                    raise AlignmentError(name)

    def cost_for(self, target) -> CostSpec:
        ref = self.records[0].cost_fields
        q = np.diag(ref.Q_diag)
        return CostSpec(q, np.asarray(target, dtype=float), ref.lam, ref.dt,
                        ref.horizon_steps, ref.terminal_scale * q)

    @staticmethod
    def default_kernel_width(records, new_target) -> np.ndarray:
        """Q-shaped diagonal, rescaled so the nearest task keeps weight >= 0.1."""
        _state_size(records)
        q = records[0].cost_fields.Q_diag
        base = q / max(float(np.sum(q)), 1e-300)
        base = np.where(base <= 0, 1e-6, base)
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
    """Gaussian kernel distance between the new target and each stored one,
    normalized in log domain, so finite where every raw weight underflows."""
    t = np.asarray(new_target, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ConfigError("new target must be finite")
    p = library.kernel_width
    log_omega = [-0.5 * float((t - rec.x_d) @ (p * (t - rec.x_d)))
                 for rec in library.records]
    return CompositeWeights(np.array([math.exp(l) for l in log_omega]),
                            mixture(np.ones(len(log_omega)), log_omega)[0])


def mixture(omega, log_values):
    """The weights omega_k e^{l_k} / sum_j omega_j e^{l_j} and the log of
    that sum (NaN and -inf for a zero sum), formed in log domain at any
    magnitude of l with exactly rounded sums (math.fsum), so neither
    result depends on the order of the entries."""
    parts = [(math.log(w) if w > 0 else -math.inf) + lv
             for w, lv in zip(omega, log_values)]
    peak = max(parts)
    if peak == -math.inf:
        return np.full(len(parts), math.nan), -math.inf
    raw = [math.exp(e - peak) for e in parts]
    total = math.fsum(raw)
    return np.array([r / total for r in raw]), peak + math.log(total)


def composite_plan(library: TaskLibrary, weights: CompositeWeights):
    """The open-loop composite: controls (T, m) and log Psi (T+1,).

    At step t the task controls mix with the weights omega_k Psi_k,t /
    sum_j omega_j Psi_j,t over the stored log Psi_k,t, and the composite
    log Psi_t is the log of that sum.
    """
    mixes, log_psi = zip(*(
        mixture(weights.omega_tilde, column)
        for column in np.stack([rec.log_psi for rec in library.records]).T))
    stacked = np.stack([rec.controls for rec in library.records])  # (K, T, m)
    controls = np.array([[math.fsum(col) for col in (mix[:, None] * u).T]
                         for mix, u in zip(mixes, stacked.swapaxes(0, 1))])
    return controls, np.array(log_psi)


def composite_terminal_log_desirability(library: TaskLibrary,
                                        weights: CompositeWeights,
                                        x_T) -> float:
    """Mixture terminal desirability at a reached state, in the recursion's
    own convention (matches terminal_log_desirability for a single task)."""
    return mixture(weights.omega_tilde, [
        terminal_log_desirability(library.cost_for(rec.x_d), x_T)
        for rec in library.records])[1]


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
    new_target = np.array([
        math.fsum(w * rec.x_d[j] for w, rec in zip(weights.omega_tilde,
                                                   library.records))
        for j in range(len(library.records[0].x_d))
    ])
    comp_cost = library.cost_for(new_target)

    # side (a): the composite's own recursion, shifted onto the mixed
    # terminal boundary
    traj = forward_rollout(model, x0, ControlSequence(
        composite_plan(library, weights)[0]), plant, comp_cost,
        compute_jac=False)
    own = backward_desirability(traj, comp_cost).log_psi
    log_term = mixture(weights.omega_tilde, [
        log_phi_step(traj.belief(T), library.cost_for(rec.x_d), 1.0,
                     terminal=True, step_index=T)[0]
        for rec in library.records])[1]
    log_a = own - own[T] + log_term

    # side (b): per-task recursions on their own rollouts
    per_task = []
    for rec in library.records:
        cost_k = library.cost_for(rec.x_d)
        traj_k = forward_rollout(model, x0, ControlSequence(rec.controls),
                                 plant, cost_k, compute_jac=False)
        per_task.append(backward_desirability(traj_k, cost_k).log_psi)
    log_b = np.array([mixture(weights.omega_tilde,
                              [lp[t] for lp in per_task])[1]
                      for t in range(T + 1)])

    resid = np.abs(np.expm1(log_a - log_b))
    return LinearityReport(resid, float(resid.max()), log_a, log_b)
