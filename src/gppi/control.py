"""Forward-backward path integral control on GP belief trajectories.

Forward: propagate the state belief under the current controls into one
stacked record of the rollout (`BeliefTrajectory`): the beliefs, the
increment moments with the parts of their pullbacks and, for a derivative
pass, the control term of every step.  Backward: accumulate the
desirability recursion in log domain from two `log_phi_step` calls, one at
the terminal belief and one on the record's interior beliefs; then carry
its partials backward, one `moments.step_vjp` per step on the record's
data (the adjoint pass), which gives grad Psi_t / Psi_t at each step's own
state.  Update: the analytic correction delta_u_t = G^+ Sigma_f
(grad Psi_t / Psi_t) over the record's means and increment covariances,
damped by a backtracking acceptance rule on log Psi_0.

The line search evaluates its candidate step scales together: a
value-only `forward_rollout` takes a batch of control sequences (C, T, m),
propagates all C beliefs with one `moment_match` call per step, and
`backward_desirability` returns log Psi per candidate.  A candidate that
fails numerically is masked (log Psi = -inf, its belief frozen) rather than
raised.  A single sequence is a batch of one through the same arithmetic,
so each row of a batch is bit-identical to a rollout of its candidate
alone, and the accepted candidate's row (`BeliefTrajectory.row`,
`DesirabilityTrace.row`), with the moment parts the batch keeps and its
control terms added, is the next derivative pass.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .gp import GpModel, incorporate_sample, refit
from .moments import (GaussianBelief, IncrementPrediction, RowChecks,
                      control_jacobians, identity_where, moment_match,
                      step_vjp)
from .plants import _require_count, _require_number
from .rng import RngHub

logger = logging.getLogger(__name__)

LOG_PHI_FLOOR = -700.0
DAMPING_LADDER = tuple(0.5 ** k for k in range(7))  # 1 .. 1/64
EXPANSION_MAX = 256.0
EXPANSION_SCALES = tuple(2.0 ** k for k in
                         range(int(np.log2(EXPANSION_MAX)) + 1))  # 1 .. 256
# hyperparameter fits of the learning loop: the first, after the random
# initialization rollouts, with restarts; the one after each trial without
FIT_RESTARTS = 4
FIT_MAX_ITERS = 150
REFIT_MAX_ITERS = 60


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostSpec:
    """Quadratic state cost toward one target state, temperature and horizon.

    Every step's cost is (x - x_d)' Q (x - x_d), the terminal one with
    Q_terminal, which defaults to Q.  The desirability of a path of cost S
    (`path_costs`, in the units of `terminal_cost`) is exp(-S/(2 lam)): the
    recursion, its oracles, composition and the sampling baseline all use
    this one convention.

    Raises ConfigError unless lam and dt are finite and positive and
    horizon_steps is an integer >= 1, and for a non-square, non-finite,
    asymmetric or indefinite Q or Q_terminal, for Q_terminal of another
    shape than Q, or for an x_d that is not finite or whose length is not
    Q's.
    """

    Q: np.ndarray              # (n, n) PSD
    x_d: np.ndarray            # (n,) desired state
    lam: float                 # temperature
    dt: float
    horizon_steps: int
    Q_terminal: np.ndarray | None = None  # defaults to Q

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        object.__setattr__(self, "Q", q)
        qt = self.Q_terminal if self.Q_terminal is not None else q
        object.__setattr__(self, "Q_terminal",
                           np.atleast_2d(np.asarray(qt, dtype=float)))
        object.__setattr__(self, "x_d", np.asarray(self.x_d, dtype=float))
        _require_number("cost lam", self.lam)
        _require_number("cost dt", self.dt)
        _require_count("cost horizon_steps", self.horizon_steps)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ConfigError(f"Q must be square, got shape {q.shape}")
        if self.Q_terminal.shape != q.shape:
            raise ConfigError(f"Q_terminal must have Q's shape {q.shape}, "
                              f"got {self.Q_terminal.shape}")
        if self.x_d.shape != (q.shape[0],):
            raise ConfigError(f"x_d must have {q.shape[0]} entries, one per "
                              f"row of Q, got shape {self.x_d.shape}")
        for name in ("Q", "Q_terminal", "x_d"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"cost {name} must be finite")
        for mat in (self.Q, self.Q_terminal):
            if np.max(np.abs(mat - mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
                raise ConfigError("cost matrices must be symmetric")
            if np.any(np.linalg.eigvalsh(mat) < -1e-10):
                raise ConfigError("cost matrices must be PSD")

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def terminal_cost(self, x) -> float:
        d = np.asarray(x, dtype=float) - self.x_d
        return float(d @ self.Q_terminal @ d)

    def path_costs(self, states) -> np.ndarray:
        """Cost S of each point path of a stack, states (..., T+1, n) to
        costs (...): steps 1..T-1 weigh (x - x_d)' Q (x - x_d) at dt, step T
        is under Q_terminal.  T is read from the stack, so a path's tail
        from any step is a path too."""
        d = np.asarray(states, dtype=float) - self.x_d
        inner = d[..., 1:-1, :]
        d_T = d[..., -1:, :]
        interior = np.einsum("...ij,jk,...ik->...i", inner, self.Q, inner)
        terminal = d_T @ self.Q_terminal @ np.swapaxes(d_T, -1, -2)
        return interior.sum(axis=-1) * self.dt + terminal[..., 0, 0]

    def tail(self, start: int) -> "CostSpec":
        """Cost over the remaining horizon starting at absolute step `start`."""
        if start < 0 or start >= self.horizon_steps:
            raise ConfigError("tail start out of range")
        return CostSpec(self.Q, self.x_d, self.lam, self.dt,
                        self.horizon_steps - start, self.Q_terminal)


@dataclass
class ControlSequence:
    """Open-loop control plan with optional saturation bounds.

    u is (T, m) for one plan, or (C, T, m) for a batch of C candidate plans
    that a value-only `forward_rollout` evaluates together.
    """

    u: np.ndarray                       # (T, m) or (C, T, m)
    R: np.ndarray | None = None         # (T, m, m) implied control weights
    u_min: np.ndarray | None = None
    u_max: np.ndarray | None = None
    flagged_steps: list = field(default_factory=list)

    def __post_init__(self):
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        if not np.all(np.isfinite(self.u)):
            raise ConfigError("control sequence must be finite")

    @property
    def horizon(self) -> int:
        return self.u.shape[-2]

    def clamp(self, u: np.ndarray) -> np.ndarray:
        if self.u_min is not None:
            u = np.maximum(u, self.u_min)
        if self.u_max is not None:
            u = np.minimum(u, self.u_max)
        return u


@dataclass
class BeliefTrajectory:
    """The record of one rollout, or of a batch of C, stacked over steps.

    Entry t of mu and sigma is the belief at step t (entry 0 the observed
    start state); entry t of mu_f and sigma_f holds the increment moments
    of step t, from belief t to belief t+1.  A batch's ok holds the
    rows whose propagation has not failed up to each step; a failed row
    keeps its last belief, and its later moments are meaningless.  For the
    adjoint pass, entry t of `parts` is the `IncrementPrediction.parts` of
    step t, `model` the rollout's model, and entry t of `control_jac` (a
    single plan's derivative pass) dt * d(G(mu_t) u_t) / d mu_t, or None.
    """

    mu: np.ndarray                      # (T+1, n) or (C, T+1, n)
    sigma: np.ndarray                   # (T+1, n, n) or (C, T+1, n, n)
    ok: np.ndarray | None               # (C, T+1) for a batch
    mu_f: np.ndarray                    # (T, n) or (C, T, n)
    sigma_f: np.ndarray                 # (T, n, n) or (C, T, n, n)
    controls_old: ControlSequence
    parts: list                         # T
    model: GpModel | None = None
    control_jac: list = field(default_factory=list)  # T, once built

    def belief(self, t: int) -> GaussianBelief:
        """The belief at step t in contiguous arrays (a batch's are
        copies), with a batch's `ok` column."""
        return GaussianBelief(np.ascontiguousarray(self.mu[..., t, :]),
                              np.ascontiguousarray(self.sigma[..., t, :, :]),
                              None if self.ok is None else self.ok[:, t])

    def row(self, c: int) -> "BeliefTrajectory":
        """Row c of a batch as a single plan's record, without control
        terms, copied so that it does not keep its whole batch alive."""
        return BeliefTrajectory(
            self.mu[c].copy(), self.sigma[c].copy(), None,
            self.mu_f[c].copy(), self.sigma_f[c].copy(),
            replace(self.controls_old, u=self.controls_old.u[c].copy()),
            [None if p is None else {k: a[c].copy() for k, a in p.items()}
             for p in self.parts], self.model)


@dataclass
class DesirabilityTrace:
    """log Psi_t and grad Psi_t / Psi_t along the horizon.

    Entry t holds the tail beyond step t.  grad_psi_over_psi[t] is the
    adjoint mean co-state d log Psi_t / d mu_t: the tail's gradient with
    respect to the mean of the belief at step t, with that belief's
    covariance held fixed, stored as grad Psi / Psi for numerical stability.
    At t = 0 the belief is the observed start state, so entry 0 is the
    gradient with respect to x0.

    grad_psi_over_psi is None until `desirability_gradient` fills it.  For
    a batch of C rollouts log_psi is (C, T+1), a failed candidate's row is
    -inf throughout, and no gradient is formed.
    """

    log_psi: np.ndarray                 # (T+1,) or (C, T+1)
    grad_psi_over_psi: np.ndarray | None = None   # (T+1, n)
    saturated: bool | np.ndarray = False  # (C,) bool for a batch
    # d log phi_t / d{mu_t, Sigma_t} at steps t = 1..T, (..., T+1, n) and
    # (..., T+1, n, n); entry 0 is unused
    _phi_mu: np.ndarray | None = field(default=None, repr=False)
    _phi_sigma: np.ndarray | None = field(default=None, repr=False)

    def row(self, c: int) -> "DesirabilityTrace":
        """Row c of a batch's value-only trace as a single plan's, copied."""
        return DesirabilityTrace(self.log_psi[c].copy(), None,
                                 bool(self.saturated[c]), self._phi_mu[c].copy(),
                                 self._phi_sigma[c].copy())


# ---------------------------------------------------------------------------
# Phi: the Gaussian-times-exponentiated-quadratic integral
# ---------------------------------------------------------------------------

def log_phi_step(belief: GaussianBelief, cost: CostSpec, step_weight: float,
                 terminal: bool = False, step_index: int | None = None):
    """log Phi with analytic partials d log Phi / d{mu, Sigma}.

    Phi = |I + Sigma M|^{-1/2} exp(-0.5 delta' M (I + Sigma M)^{-1} delta)
    with M = (step_weight / lambda) Q and delta = mu - x_d.

    `step_index` only labels the errors.  A single belief gives a float and
    raises NumericalError on failure.  A batch gives log Phi (C,), -inf on
    the failed and the already dead rows, with partials (C, n) and
    (C, n, n); a single belief runs as a batch of one through the same
    arithmetic.
    """
    q = cost.Q_terminal if terminal else cost.Q
    n = cost.dim
    M = (step_weight / cost.lam) * q
    mu = belief.mu.reshape(-1, n)
    sigma = belief.sigma.reshape(-1, n, n)
    checks = RowChecks(belief.ok)
    delta = mu - cost.x_d
    J = np.eye(n) + M @ sigma
    sign, logdet = np.linalg.slogdet(J)
    checks.fail(sign == 0, "phi normalization matrix singular", step=step_index)
    bad = ~(sign > 0)
    checks.fail(bad, "phi determinant non-positive", step=step_index)
    W = np.linalg.solve(identity_where(bad, J), np.broadcast_to(M, J.shape))
    W = 0.5 * (W + W.transpose(0, 2, 1))
    y = (W @ delta[:, :, None])[:, :, 0]
    log_phi = -0.5 * logdet - 0.5 * (delta[:, None, :] @ y[:, :, None])[:, 0, 0]
    checks.fail(~np.isfinite(log_phi), "phi overflowed", step=step_index)
    dlog_dmu = -y
    dlog_dsigma = 0.5 * (y[:, :, None] * y[:, None, :] - W)
    if checks.single:
        return float(log_phi[0]), dlog_dmu[0], dlog_dsigma[0]
    return np.where(checks.ok, log_phi, -np.inf), dlog_dmu, dlog_dsigma


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def forward_rollout(model: GpModel, x0, controls: ControlSequence, plant,
                    cost: CostSpec, compute_jac: bool = True) -> BeliefTrajectory:
    """Propagate beliefs over the horizon under the current controls.

    Belief 0 is the observed state.  Step t applies controls.u[t] through
    the known control matrix, propagates the belief that `moment_match`
    returned and copies it, with the step's increment moments, into the
    record, with the parts of its pullback.  With `compute_jac` the control
    term of every step is recorded as well.

    Without `compute_jac`, controls.u may be a batch (C, T, m) of candidate
    plans, propagated with one `moment_match` call per step into a record
    with a leading axis C.  A candidate that fails at some step is dropped
    from `ok` and frozen, and the batch runs on; a single plan raises
    NumericalError carrying the step instead.
    """
    T = cost.horizon_steps
    if controls.horizon != T:
        raise ConfigError("controls length must equal horizon_steps")
    u = controls.u
    belief = GaussianBelief.observed(x0)
    n, lead = belief.dim, u.shape[:-2]
    if lead and compute_jac:
        raise ConfigError("step pullbacks need a single plan")
    traj = BeliefTrajectory(
        np.empty(lead + (T + 1, n)), np.zeros(lead + (T + 1, n, n)),
        np.ones(lead + (T + 1,), dtype=bool) if lead else None,
        np.empty(lead + (T, n)), np.empty(lead + (T, n, n)), controls, [],
        model)
    traj.mu[..., 0, :] = belief.mu          # an observed state, sigma 0
    if lead:
        belief = traj.belief(0)
    preds: list[IncrementPrediction] = []
    for t in range(T):
        try:
            belief = moment_match(model, belief, u[..., t, :],
                                  plant.control_matrix, cost.dt,
                                  prediction_out=preds)
        except NumericalError as exc:
            raise NumericalError(f"forward rollout failed at step {t}: {exc}",
                                 jitter=exc.jitter, step=t) from exc
        pred = preds[t]
        traj.mu[..., t + 1, :] = belief.mu
        traj.sigma[..., t + 1, :, :] = belief.sigma
        traj.mu_f[..., t, :] = pred.mu_f
        traj.sigma_f[..., t, :, :] = pred.sigma_f
        traj.parts.append(pred.parts)
        if lead:
            traj.ok[:, t + 1] = belief.ok
    return _with_control_jac(traj, plant, cost.dt) if compute_jac else traj


def _with_control_jac(traj: BeliefTrajectory, plant, dt: float):
    """`traj`, a single plan's record, with the control terms of its steps."""
    traj.control_jac = control_jacobians(plant.control_matrix_jac,
                                         traj.mu[:-1], traj.controls_old.u, dt)
    return traj


# ---------------------------------------------------------------------------
# Backward passes
# ---------------------------------------------------------------------------

def backward_desirability(traj: BeliefTrajectory, cost: CostSpec) -> DesirabilityTrace:
    """Accumulate the desirability recursion in log domain.

    The terminal boundary is integrated with unit weight against the
    terminal belief; interior steps carry weight dt.  log_psi[t] is the tail
    beyond step t, so log_psi[T-1] equals log_psi[T].  On a batched
    trajectory every row runs the same recursion; a candidate whose rollout
    or whose log phi failed is -inf.

    log phi is evaluated twice: at the terminal belief, and on the interior
    beliefs of every step 1..T-1 (and every row), one slice of the record;
    the tails are summed backward from T in the recursion's order.  A
    single plan raises the NumericalError of the terminal step, or else of
    the latest failing interior step, as a step-by-step recursion would.
    """
    T = cost.horizon_steps
    if traj.mu.shape[-2] != T + 1:
        raise ConfigError("trajectory length does not match horizon")
    rows = traj.mu.shape[:-2]
    n = cost.dim
    log_phi = np.zeros(rows + (T + 1,))
    phi_mu = np.zeros(rows + (T + 1, n))
    phi_sigma = np.zeros(rows + (T + 1, n, n))
    (log_phi[..., T], phi_mu[..., T, :], phi_sigma[..., T, :, :]) = \
        log_phi_step(traj.belief(T), cost, 1.0, terminal=True, step_index=T)
    if T > 1:
        ok = traj.ok[:, 1:T] if rows else np.ones(T - 1, dtype=bool)
        stack = GaussianBelief(traj.mu[..., 1:T, :].reshape(-1, n),
                               traj.sigma[..., 1:T, :, :].reshape(-1, n, n),
                               ok.reshape(-1))
        lp, dmu, dsig = log_phi_step(stack, cost, cost.dt)
        if not rows and lp.min() == -np.inf:
            # the latest failing step, evaluated alone, raises its error
            t = int(np.flatnonzero(lp == -np.inf)[-1]) + 1
            log_phi_step(traj.belief(t), cost, cost.dt, step_index=t)
        log_phi[..., 1:T] = lp.reshape(rows + (T - 1,))
        phi_mu[..., 1:T, :] = dmu.reshape(rows + (T - 1, n))
        phi_sigma[..., 1:T, :, :] = dsig.reshape(rows + (T - 1, n, n))

    low = (log_phi < LOG_PHI_FLOOR) & (log_phi > -np.inf)
    saturated = low.any(axis=-1)
    floored = np.where(low, LOG_PHI_FLOOR, log_phi)
    # tails from T backward: log_psi[T-1-j] sums log phi_T .. log phi_{T-j},
    # one addition per step, in the order of a step-by-step recursion
    tails = np.cumsum(floored[..., :0:-1], axis=-1)
    log_psi = np.empty(rows + (T + 1,))
    log_psi[..., T] = tails[..., 0]
    log_psi[..., :T] = tails[..., ::-1]
    if saturated.any():
        logger.warning("desirability trace saturated at the log floor")
    return DesirabilityTrace(log_psi,
                             saturated=saturated if rows else bool(saturated),
                             _phi_mu=phi_mu, _phi_sigma=phi_sigma)


def desirability_gradient(traj: BeliefTrajectory, trace: DesirabilityTrace,
                          cost: CostSpec) -> DesirabilityTrace:
    """Fill grad_psi_over_psi by one adjoint pass.

    The co-state (chi_mu, chi_sig) = d log Psi_t / d(mu_t, Sigma_t) is
    seeded at step T with the terminal log-phi partials and pulled back one
    step at a time, absorbing the interior log-phi partials of each step it
    crosses.  Each step is one vector-Jacobian product, `step_vjp` on the
    record's belief, moments, parts and control term of that step; no
    Jacobian is formed.  The mean component at step t is
    grad_psi_over_psi[t].  Everything is analytic.
    """
    T = cost.horizon_steps
    if len(traj.control_jac) != T:
        raise ConfigError("trajectory was built without step pullbacks")
    grad = np.zeros((T + 1, cost.dim))

    chi_mu = trace._phi_mu[T]
    chi_sig = trace._phi_sigma[T]
    grad[T] = chi_mu
    for t in range(T - 1, -1, -1):
        if t < T - 1:
            # log Psi_t = log phi_{t+1} + log Psi_{t+1} below the terminal step
            chi_mu = chi_mu + trace._phi_mu[t + 1]
            chi_sig = chi_sig + trace._phi_sigma[t + 1]
        chi_mu, chi_sig = step_vjp(traj.model, traj.mu[t], traj.sigma[t],
                                   traj.mu_f[t], traj.parts[t],
                                   traj.control_jac[t], chi_mu, chi_sig)
        grad[t] = chi_mu
    trace.grad_psi_over_psi = grad
    return trace


# ---------------------------------------------------------------------------
# Control update
# ---------------------------------------------------------------------------

def _column_norms(v):
    """Euclidean norms of a stack of columns (T, n, 1), each one dot
    product, as `np.linalg.norm` forms it for a single vector."""
    return np.sqrt((v.transpose(0, 2, 1) @ v)[:, 0, 0])


def control_update(trace: DesirabilityTrace, traj: BeliefTrajectory, plant,
                   lam: float = 1.0) -> ControlSequence:
    """delta_u_t = G_t^+ Sigma_ft (grad Psi_t / Psi_t), applied per step to
    the trajectory's own plan, traj.controls_old.

    Records the implied control-cost weight R_t = lam (G^+ Sigma_f G^+')^-1,
    which satisfies the structural constraint exactly on range(G) and reduces
    to lam G' Sigma_f^-1 G for square invertible G.  Steps where the gradient
    pushes outside the controllable subspace are flagged and resolved by the
    least-squares projection the pseudoinverse provides.

    Step t consumes grad_psi_over_psi[t], the adjoint gradient of its tail
    at the step's own belief mean.  All T steps are one stack over the
    record: one `control_matrix` call, one stacked pseudoinverse and one
    stacked inverse, where a step whose G^+ Sigma_f G^+' is singular gets a
    NaN weight without failing the others.
    """
    if trace.grad_psi_over_psi is None:
        raise ConfigError("desirability gradient has not been computed")
    old = traj.controls_old
    G = plant.control_matrix(traj.mu[:-1])                         # (T, n, m)
    Gp = np.linalg.pinv(G)                                         # (T, m, n)
    sf = traj.sigma_f                                              # (T, n, n)
    target_vec = sf @ trace.grad_psi_over_psi[:-1, :, None]        # (T, n, 1)
    du = Gp @ target_vec                                           # (T, m, 1)
    resid = _column_norms(G @ du - target_vec)
    scale = np.maximum(_column_norms(target_vec), 1e-300)
    flagged = np.flatnonzero(resid > 1e-8 * scale).tolist()
    new_u = old.clamp(old.u + du[..., 0])
    core = Gp @ sf @ Gp.transpose(0, 2, 1)                         # (T, m, m)
    singular = np.linalg.slogdet(core)[0] == 0
    weights = lam * np.linalg.inv(identity_where(singular, core))
    weights[singular] = np.nan
    return ControlSequence(new_u, weights, old.u_min, old.u_max, flagged)


# ---------------------------------------------------------------------------
# Inner optimization loop
# ---------------------------------------------------------------------------

@dataclass
class InnerOptResult:
    controls: ControlSequence
    trace: DesirabilityTrace
    log_psi0: float
    accepted_log_psi: list
    status: str                         # converged | max-iters | no-progress | stalled
    n_iters: int
    accepted_scales: list = field(default_factory=list)  # one per accepted step
    candidates_evaluated: int = 0       # line-search candidates rolled out
    candidates_failed: int = 0          # of those, masked as numerical failures


def _candidate_values(model, x0, proposal: ControlSequence, u_cur, du, scales,
                      plant, cost):
    """log Psi_0 of the clamped candidates u_cur + s du over `scales`, from
    one batched value-only rollout; -inf marks a failed candidate.  Returns
    the candidate controls, their values, and the batch's trajectory and
    trace."""
    s = np.asarray(scales)[:, None, None]
    batch = replace(proposal, u=u_cur.clamp(u_cur.u + s * du))
    traj = forward_rollout(model, x0, batch, plant, cost, compute_jac=False)
    trace = backward_desirability(traj, cost)
    return batch.u, trace.log_psi[:, 0], traj, trace


def inner_optimize(model: GpModel, x0, controls_init: ControlSequence,
                   cost: CostSpec, plant, max_iters: int = 50,
                   tol: float = 1e-3) -> InnerOptResult:
    """Alternate forward / backward / update with damped acceptance.

    A proposed update u_old + alpha delta_u is accepted only if it does not
    decrease log Psi_0, halving alpha down the ladder otherwise; an accepted
    full step (alpha = 1) is then doubled up to EXPANSION_MAX while the value
    keeps not decreasing.  No accepted value is below the one before it, so
    the current iterate is the best one and is returned.  Exactly one
    update is attempted per iteration, so tol = inf returns after a single
    update.

    Each iteration evaluates every expansion scale (1, 2, ..., EXPANSION_MAX)
    in one batched value-only rollout and, only when scale 1 is rejected,
    the damped scales (1/2 .. 1/64) in a second one, then replays the
    one-by-one rule on the values: the ladder accepts the first candidate
    whose value is >= log Psi_0, and the expansion stops at the first failed
    (-inf) or decreasing candidate.  The values are bit-identical to single
    rollouts, so the accepted controls are those of the one-by-one search.
    Only the initial controls get a derivative rollout; later gradient
    passes are accepted rows of their batches.

    The returned trace is the gradient pass that generated the returned
    controls (one update behind them); log_psi0 is evaluated at the returned
    controls themselves.
    """
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    u_cur = controls_init
    traj = forward_rollout(model, x0, u_cur, plant, cost, compute_jac=True)
    trace = desirability_gradient(traj, backward_desirability(traj, cost), cost)
    behind = trace                      # the gradient pass that made u_cur
    accepted = [float(trace.log_psi[0])]    # accepted[-1] is u_cur's value
    scales_taken = []
    searched = []                       # candidate values of every batch
    status = "max-iters"

    for it in range(max_iters):
        proposal = control_update(trace, traj, plant, cost.lam)
        du = proposal.u - u_cur.u
        du_norm = float(np.max(np.abs(du))) if du.size else 0.0
        chosen = None
        us, vals, *batch = _candidate_values(model, x0, proposal, u_cur, du,
                                             EXPANSION_SCALES, plant, cost)
        searched.append(vals)
        if vals[0] >= accepted[-1]:
            # the raw uncertainty-scaled step is often very conservative when
            # the model is confident; expand while the value keeps improving
            k = 0
            while k + 1 < len(vals) and vals[k + 1] >= vals[k]:
                k += 1
            chosen = (EXPANSION_SCALES[k], k)
        else:
            us, vals, *batch = _candidate_values(
                model, x0, proposal, u_cur, du, DAMPING_LADDER[1:], plant, cost)
            searched.append(vals)
            hits = np.flatnonzero(vals >= accepted[-1])
            if hits.size:
                k = int(hits[0])
                chosen = (DAMPING_LADDER[1 + k], k)
        if chosen is None:
            status = "no-progress" if accepted[-1] <= accepted[0] else "stalled"
            break
        scale, k = chosen
        u_cur, behind = replace(proposal, u=us[k].copy()), trace
        accepted.append(float(vals[k]))
        scales_taken.append(scale)
        if du_norm < tol:
            status = "converged"
            break
        if it + 1 < max_iters:
            # the accepted row of its batch is the next derivative pass
            batch_traj, batch_trace = batch
            traj = _with_control_jac(batch_traj.row(k), plant, cost.dt)
            trace = desirability_gradient(traj, batch_trace.row(k), cost)

    search = dict(accepted_scales=scales_taken,
                  candidates_evaluated=sum(v.size for v in searched),
                  candidates_failed=sum(int(np.sum(v == -np.inf))
                                        for v in searched))
    if status == "no-progress":
        logger.warning("inner optimization made no progress")
        return InnerOptResult(controls_init, trace, accepted[0], accepted,
                              status, it + 1, **search)
    return InnerOptResult(u_cur, behind, accepted[-1], accepted, status,
                          it + 1, **search)


# ---------------------------------------------------------------------------
# Receding-horizon learning loop
# ---------------------------------------------------------------------------

@dataclass
class TrialMetrics:
    trial: int
    terminal_log_psi: float
    terminal_cost: float
    wall_seconds: float
    aborted: bool = False
    states: np.ndarray | None = None    # visited states of the trial's rollout


@dataclass
class LearnResult:
    model: GpModel
    metrics: list
    controls: np.ndarray               # executed controls of last full trial
    # per-step log Psi_0 of the planned tail at each visited state, evaluated
    # at the returned controls (InnerOptResult.log_psi0), then the terminal
    log_psi: np.ndarray
    # per-step gradient of the pass that generated the returned controls (one
    # update behind them), then zeros at the terminal row
    grad_psi_over_psi: np.ndarray
    states: np.ndarray                 # visited states of last full trial
    cost: CostSpec


def terminal_log_desirability(cost: CostSpec, x_terminal) -> float:
    """Point evaluation of the terminal desirability at a reached state."""
    belief = GaussianBelief.observed(x_terminal)
    lp, _, _ = log_phi_step(belief, cost, 1.0, terminal=True,
                            step_index=cost.horizon_steps)
    return lp


def mpc_learning_loop(plant, cost: CostSpec, trials: int, seed: int, *,
                      init_rollouts: int, u_max: float, inner_max_iters: int,
                      max_points: int | None, x0) -> LearnResult:
    """Model learning and receding-horizon control, one plant rollout per trial.

    Random-control initialization rollouts seed the GP; each trial then runs
    the full horizon once, re-optimizing the remaining control tail at every
    step from the warm-started previous solution and incorporating every
    observed transition.  A trial whose plant step or planning fails
    numerically is recorded as aborted.  The plan of a completed trial
    becomes the next trial's warm start when its terminal desirability is
    not below the best so far.  Hyperparameters are refit after
    initialization and after each trial.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    hub = RngHub(seed)
    n, m = plant.spec.n, plant.spec.m
    T = cost.horizon_steps
    x0 = np.asarray(x0, dtype=float)

    model = GpModel.empty(n, max_points=max_points)
    u_plan = np.zeros((T, m))
    for r in range(init_rollouts):
        u_rng = hub.spawn("init-controls", r)
        w_rng = hub.spawn("init-noise", r)
        u_seq = u_rng.uniform(-u_max, u_max, size=(T, m))
        # Algorithm-style bootstrap: the last random sequence becomes the
        # first trial's u_old, so early beliefs traverse uncertain regions
        # and the uncertainty-scaled updates have something to work with.
        u_plan = u_seq.copy()
        x = x0
        for t in range(T):
            try:
                x_next = plant.step(x, u_seq[t], w_rng)
            except NumericalError:
                logger.warning("initialization rollout %d diverged at %d", r, t)
                break
            model, _ = incorporate_sample(model, x, u_seq[t], x_next,
                                          plant.control_matrix, cost.dt)
            x = x_next
    model = refit(model, rng=hub.stream("hyper-fit"), n_restarts=FIT_RESTARTS,
                  max_iters=FIT_MAX_ITERS)

    metrics: list[TrialMetrics] = []
    # (controls, per-step log Psi_0, per-step gradient, states, terminal
    # log desirability) of the last completed trial
    last_full = None
    best_terminal = -np.inf
    u_lo, u_hi = np.full(m, -u_max), np.full(m, u_max)

    for trial in range(trials):
        t_start = time.perf_counter()
        # the stream index of a trial once had room for repeated rollouts;
        # it is kept so that every seed reproduces its earlier runs
        w_rng = hub.spawn("plant-noise", trial * 1000)
        x = x0
        trial_u = u_plan.copy()
        states = [x]
        step_logpsi, step_grad = [], []
        try:
            for t in range(T):
                res = inner_optimize(
                    model, x,
                    ControlSequence(trial_u[t:].copy(), u_min=u_lo,
                                    u_max=u_hi),
                    cost.tail(t), plant, max_iters=inner_max_iters)
                trial_u[t:] = res.controls.u
                try:
                    x_next = plant.step(x, trial_u[t], w_rng)
                except NumericalError as exc:
                    raise NumericalError(
                        f"plant step failed at step {t}: {exc}",
                        jitter=exc.jitter, step=t) from exc
                model, _ = incorporate_sample(
                    model, x, trial_u[t], x_next, plant.control_matrix,
                    cost.dt)
                step_logpsi.append(res.log_psi0)
                step_grad.append(res.trace.grad_psi_over_psi[0])
                states.append(x_next)
                x = x_next
        except NumericalError as exc:
            logger.warning("trial %d aborted: %s", trial, exc)
            metrics.append(TrialMetrics(trial, float("nan"), float("nan"),
                                        time.perf_counter() - t_start, True))
        else:
            # Adopt the replanned sequence as the next warm start only if it
            # improved the terminal outcome; otherwise restart from the
            # incumbent so plateau noise does not random-walk the plan.
            terminal = terminal_log_desirability(cost, states[-1])
            if terminal >= best_terminal:
                best_terminal = terminal
                u_plan = trial_u
            last_full = (trial_u.copy(), np.array(step_logpsi),
                         np.array(step_grad), np.array(states), terminal)
            metrics.append(TrialMetrics(
                trial, terminal, cost.terminal_cost(states[-1]),
                time.perf_counter() - t_start, states=last_full[3]))
        model = refit(model, rng=hub.spawn("hyper-refit", trial),
                      n_restarts=0, max_iters=REFIT_MAX_ITERS)

    if last_full is None:
        raise NumericalError("every trial aborted; no controller learned")
    controls, log_psi, grads, states, terminal = last_full
    grads_full = np.vstack([grads, np.zeros((1, n))])
    return LearnResult(model, metrics, controls,
                       np.concatenate([log_psi, [terminal]]), grads_full,
                       states, cost)
