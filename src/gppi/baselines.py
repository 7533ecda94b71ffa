"""Verification baseline: sampling-based iterative path integral control.

It is independent of the analytic forward-backward scheme and exists to
cross-check it.  The sampling controller steps its whole sample batch of
controlled-diffusion rollouts through the true plant's own integrator
(`Plant.step_batch`) and averages the realized Brownian increments with
exponentiated path-cost weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import CostSpec
from .errors import ConfigError, NumericalError

ESS_WARN_THRESHOLD = 2.0


def path_cost(trajectory: np.ndarray, cost: CostSpec) -> float:
    """q_T + sum of interior q_j dt over steps 1..T-1."""
    total = 0.0
    for j in range(1, cost.horizon_steps):
        total += cost.state_cost(trajectory[j]) * cost.dt
    total += cost.terminal_cost(trajectory[cost.horizon_steps])
    return float(total)


@dataclass
class SamplingPiResult:
    controls: np.ndarray        # (T, m)
    ess: float                  # effective sample size of the last pass
    weights: np.ndarray         # (S,) normalized weights of the last pass
    status: str = "ok"


def _rollout_batch(plant, x0, u_seq, n_samples, rng):
    """Plant rollouts of a sample batch; returns (states, Brownian increments)."""
    T, _ = u_seq.shape
    states = np.empty((n_samples, T + 1, plant.spec.n))
    noises = np.empty((n_samples, T, plant.spec.B.shape[1]))
    states[:, 0] = x0
    for t in range(T):
        try:
            states[:, t + 1], noises[:, t] = plant.step_batch(states[:, t],
                                                              u_seq[t], rng)
        except NumericalError as exc:
            raise NumericalError(f"sample rollout failed at step {t}: {exc}",
                                 jitter=exc.jitter, step=t) from exc
    return states, noises


def sampling_pi_control(plant, x_t, u_old, cost: CostSpec, n_samples: int,
                        rng, n_iterations: int = 1) -> SamplingPiResult:
    """Iterative path integral control by importance sampling.

    Each pass draws `n_samples` rollouts under the current control sequence
    (controlled diffusion), weights them by exp(-S/lambda) and shifts the
    controls by the weighted average of the realized noise mapped through
    G^+ B / dt.  Low effective sample size only degrades the estimate; the
    result is still returned with a warning status.

    The path costs of all samples are one stacked quadratic form, and the
    projection is one `control_matrix` call over the nominal path and one
    stacked pseudoinverse; both equal the per-sample and per-step results
    bit for bit, except that with a single interior step einsum may sum a
    sample's quadratic form in another order (a last-bit difference).
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if n_iterations < 1:
        raise ConfigError("n_iterations must be >= 1")
    u_seq = np.atleast_2d(np.asarray(u_old, dtype=float)).copy()
    T = cost.horizon_steps
    if u_seq.shape[0] != T:
        raise ConfigError("u_old length must equal horizon_steps")
    x_t = np.asarray(x_t, dtype=float)
    status = "ok"
    ess = float(n_samples)

    for _ in range(n_iterations):
        states, noises = _rollout_batch(plant, x_t, u_seq, n_samples, rng)
        diffs = states[:, 1:] - cost.x_d                    # (S, T, n)
        qs = np.einsum("sij,jk,sik->si", diffs[:, :-1], cost.Q, diffs[:, :-1])
        d_T = diffs[:, -1:]                                 # (S, 1, n)
        costs = qs.sum(axis=1) * cost.dt + (
            d_T @ cost.Q_terminal @ d_T.transpose(0, 2, 1))[:, 0, 0]
        logw = -costs / cost.lam
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        ess = 1.0 / float(w @ w)
        if ess < ESS_WARN_THRESHOLD:
            status = "low-ess"
        # G^+ B projection of the weighted noise, all steps in one stack
        w_noise = np.einsum("s,stp->tp", w, noises)
        nominal = states[int(np.argmax(w))]
        G_pinv = np.linalg.pinv(plant.control_matrix(nominal[:T]))   # (T, m, n)
        u_seq = u_seq + (G_pinv @ (plant.spec.B @ w_noise[..., None])
                         )[..., 0] / cost.dt
    return SamplingPiResult(u_seq, ess, w, status)
