"""Verification baselines: sampling-based iterative path integral control
and a finite-horizon LQR/LQG solver.

Both are independent of the analytic forward-backward scheme and exist to
cross-check it.  The sampling controller steps its whole sample batch of
controlled-diffusion rollouts through the true plant's own integrator
(`Plant.step_batch`) and averages the realized Brownian increments with
exponentiated path-cost weights; the control-cost weight it implies is tied
to the plant noise through the classical constraint
lam G R^-1 G' = B Sigma_w B' (enforced on range(G)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import CostSpec
from .errors import ConfigError, NumericalError

ESS_WARN_THRESHOLD = 2.0


# ---------------------------------------------------------------------------
# Path samples
# ---------------------------------------------------------------------------

@dataclass
class PathCostSample:
    """One sampled trajectory with its noise draws and accumulated path cost."""

    trajectory: np.ndarray      # (T+1, n)
    noise: np.ndarray           # (T, p) Brownian increments per step
    cost: float

    @staticmethod
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


# ---------------------------------------------------------------------------
# Finite-horizon LQR
# ---------------------------------------------------------------------------

@dataclass
class LqgSolution:
    value: list            # P_t, t = 0..T
    gains: list            # K_t, t = 0..T-1


def lqg_solve(A, Bc, Q, R, Qf, horizon: int) -> LqgSolution:
    """Discrete finite-horizon Riccati recursion.

    Minimizes sum_t (x' Q x + u' R u) + x_T' Qf x_T for x_{t+1} = A x + B u.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(Bc, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    Qf = np.atleast_2d(np.asarray(Qf, dtype=float))
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    P = [None] * (horizon + 1)
    K = [None] * horizon
    P[horizon] = Qf
    for t in range(horizon - 1, -1, -1):
        Pn = P[t + 1]
        gram = R + B.T @ Pn @ B
        try:
            K[t] = np.linalg.solve(gram, B.T @ Pn @ A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("Riccati gain solve failed") from exc
        Ac = A - B @ K[t]
        P[t] = Q + K[t].T @ R @ K[t] + Ac.T @ Pn @ Ac
        P[t] = 0.5 * (P[t] + P[t].T)
        if not np.all(np.isfinite(P[t])):
            raise NumericalError("Riccati recursion blew up")
    return LqgSolution(P, K)


def riccati_residual(sol: LqgSolution, A, Bc, Q, R) -> float:
    """Max fixed-point residual of the recursion, for the invariant suite."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(Bc, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    worst = 0.0
    for t, K in enumerate(sol.gains):
        Pn = sol.value[t + 1]
        Ac = A - B @ K
        rhs = Q + K.T @ R @ K + Ac.T @ Pn @ Ac
        worst = max(worst, float(np.max(np.abs(sol.value[t] - rhs))))
    return worst


def noise_tied_control_weight(plant, lam: float) -> np.ndarray:
    """R from the classical tie lam G R^-1 G' = B Sigma_w B' on range(G).

    Evaluated at the plant's control matrix at the origin; time-invariant
    for the linear plants the baseline is used with.
    """
    G = plant.control_matrix(np.zeros(plant.spec.n))
    Gp = np.linalg.pinv(G)
    noise_cov = plant.spec.B @ plant.spec.sigma_omega @ plant.spec.B.T
    core = Gp @ noise_cov @ Gp.T
    try:
        return lam * np.linalg.inv(core)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("noise covariance not invertible on range(G)") from exc
