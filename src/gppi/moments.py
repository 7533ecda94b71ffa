"""Gaussian-input moments of the GP increment model, with their pullback.

Given an input belief N(m, S), the exact squared-exponential moments of the
posterior increment are computed: predictive mean, predictive covariance
(including the noise floor) and the input-increment cross covariance
(Deisenroth and Rasmussen, PILCO, ICML 2011).  The model has one W for all
output dimensions, so the Gaussian-weighted kernel terms are the same for
every output up to its factor sigma_s^2: one N-vector q for the mean and
cross covariance, and one N x N matrix Qbar for the whole covariance block,
per belief.

Derivatives are taken in reverse mode.  Asked for a pullback record, a
single-belief evaluation keeps its small value intermediates, and the
record's vector-Jacobian product maps weights on the three output moments
back to weights on (m, S).  The product folds those weights into a few N x N
and N-vector weights before it touches the kernel terms, so one pullback
costs a few N x N products, whatever the state dimension.  Belief
propagation wraps it into the `StepPullback` of a whole step, through which
the adjoint desirability gradient carries its co-state; no numerical
differentiation is involved.

The output dimensions are handled as stacks of arrays, not in Python
loops; this routine sits on the hot path of every rollout.

The value path also takes a leading candidate axis C: `predict_increment`
accepts beliefs mu (C, n), sigma (C, n, n), and `moment_match` a batch of
beliefs with controls (C, m), so the line search propagates all of its
candidates with one call per step.  A single belief runs as a batch of one
through the same code, and every reduction keeps the summation order of
the single evaluation, so row c of a batch is bit-identical to evaluating
its belief alone.  Checks that raise NumericalError for a single belief
(`RowChecks`) instead mask the failing row of a batch.  Pullback records
are kept for a single belief only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .gp import GpModel

SYM_TOL = 1e-10
PSD_TOL = 1e-12


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class GaussianBelief:
    """State belief N(mu, sigma) at one horizon step, or a batch of them.

    A single belief has mu (n,), sigma (n, n) and ok None.  A batch of C
    candidate beliefs has mu (C, n), sigma (C, n, n) and ok (C,): the rows
    whose propagation has not failed.  A failed row keeps its last finite
    belief.  An observed (deterministic) state carries zero covariance.
    Gradients are not stored on beliefs: the adjoint pass of the
    desirability gradient pulls back through the step pullbacks that
    `moment_match` records.
    """

    mu: np.ndarray
    sigma: np.ndarray
    ok: np.ndarray | None = None

    @staticmethod
    def observed(x) -> "GaussianBelief":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        n = x.shape[0]
        return GaussianBelief(x, np.zeros((n, n)))

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]

    @property
    def is_observed(self) -> bool:
        return not np.any(self.sigma)

    def validate(self) -> None:
        """Raise NumericalError unless the covariance (of every live row of
        a batch) is symmetric and PSD."""
        checks = RowChecks(self.ok)
        _check_covariances(self.sigma.reshape(-1, self.dim, self.dim), checks)
        if self.ok is not None and not np.array_equal(checks.ok, self.ok):
            raise NumericalError("batch covariance not symmetric or not PSD")


@dataclass
class IncrementPrediction:
    """One-step increment moments under a Gaussian input belief.

    For a batch of C beliefs every array gains a leading axis C.  `vjp`,
    kept on request for a single belief, maps weights (g_mu (n,),
    g_sigma (n, n), g_cov (n, n)) on (mu_f, sigma_f, cov_x_dx) to the
    gradient (d_mu (n,), d_sigma (n, n)) of that weighted sum with respect
    to the input (mu, sigma); it is None when the moments do not depend on
    the input (an empty model).
    """

    mu_f: np.ndarray        # (n,)
    sigma_f: np.ndarray     # (n, n)
    cov_x_dx: np.ndarray    # (n, n); rows input state, cols increment dim
    vjp: Callable | None = None
    ok: np.ndarray | None = None   # (C,) for a batch: rows whose checks passed


# ---------------------------------------------------------------------------
# Row checks of a candidate batch
# ---------------------------------------------------------------------------

class RowChecks:
    """Numerical checks over the rows of a candidate batch.

    Built with ok=None for a single evaluation, which raises NumericalError
    at its first failing check, in the order an unbatched computation makes
    them.  Built with a (C,) bool mask for a batch, a failing check only
    clears the row's entry in `ok`, so one failing candidate never stops the
    others; the values of a cleared row are meaningless.
    """

    def __init__(self, ok):
        self.single = ok is None
        self.ok = np.ones(1, dtype=bool) if ok is None else ok.copy()

    def fail(self, bad, message, step=None):
        if not self.single:
            self.ok &= ~bad
        elif bad[0]:
            raise NumericalError(message, step=step)


def identity_where(bad, mats):
    """`mats` (..., n, n) with the matrices flagged in `bad` replaced by the
    identity, so that a stacked solve never fails on a failed row."""
    if not bad.any():
        return mats
    return np.where(bad[..., None, None], np.eye(mats.shape[-1]), mats)


def _check_covariances(sigma, checks: RowChecks) -> None:
    """Symmetry and PSD checks of a stack of belief covariances (C, n, n)."""
    s = sigma
    scale = np.maximum(np.max(np.abs(s), axis=(1, 2)), 1.0)
    asym = np.max(np.abs(s - s.transpose(0, 2, 1)), axis=(1, 2))
    checks.fail(asym > SYM_TOL * scale, "belief covariance not symmetric")
    if not s.shape[-1]:
        return
    eig = np.linalg.eigvalsh(0.5 * (s + s.transpose(0, 2, 1)))
    floor = -PSD_TOL * np.maximum(np.trace(s, axis1=1, axis2=2), 1e-300)
    checks.fail(eig[:, 0] < floor,
                f"belief covariance not PSD (min eig {eig[0, 0]:.3e})")


# ---------------------------------------------------------------------------
# Core computation
# ---------------------------------------------------------------------------

def predict_increment(model: GpModel, mu_in, sigma_in, *,
                      with_vjp: bool = False) -> IncrementPrediction:
    """Exact SE-kernel moments of the increment under N(mu_in, sigma_in).

    mu_in (n,) and sigma_in (n, n) give one input belief; mu_in (C, n) and
    sigma_in (C, n, n) give a batch of C candidate beliefs, and every field
    of the result then carries the same leading axis.  One belief is
    evaluated as a batch of one through the same code, so row c of a batch
    equals the single evaluation of its belief bit for bit.  A single
    evaluation raises NumericalError when a check fails; a batch clears the
    row's entry in `ok` instead.

    `with_vjp` (a single belief only) keeps the value intermediates and
    returns the pullback of the moments as `IncrementPrediction.vjp`.
    """
    n = model.state_dim
    m = np.asarray(mu_in, dtype=float)
    single = m.ndim <= 1
    if with_vjp and not single:
        raise ConfigError("a pullback record needs a single input belief")
    m = m.reshape(-1, n)
    S = np.asarray(sigma_in, dtype=float).reshape(-1, n, n)
    C = m.shape[0]
    checks = RowChecks(None if single else np.ones(C, dtype=bool))

    if model.n_points == 0:
        sig = np.diag(model.hyper.prior_var)
        if not single:
            return IncrementPrediction(np.zeros((C, n)), np.tile(sig, (C, 1, 1)),
                                       np.zeros((C, n, n)), ok=checks.ok)
        return IncrementPrediction(np.zeros(n), sig, np.zeros((n, n)))

    zeta = model.train.inputs[None, :, :] - m[:, None, :]         # (C, N, n)
    mu_f, sigma_f, cov, parts = _values(model, zeta, S, checks)
    if not single:
        return IncrementPrediction(mu_f, sigma_f, cov, ok=checks.ok)
    vjp = None
    if with_vjp:
        row = {k: a[0] for k, a in parts.items()}
        vjp = partial(_vjp, model, m[0], S[0], mu_f[0], row)
    return IncrementPrediction(mu_f[0], sigma_f[0], cov[0], vjp)


def _log_qbar(w, zeta, Y, logdet_r):
    """eta (C, N, n) and log Qbar (C, N, N).

    Qbar[i, j] = |R|^-1/2 exp(-0.5 zeta_i' W zeta_i - 0.5 zeta_j' W zeta_j
                              + 0.5 z_ij' R^-1 S z_ij),  z_ij = eta_i + eta_j,
    zeta_i = x_i - m, so that sigma_s,a^2 sigma_s,b^2 Qbar[i, j] is the
    mean of k_a(x_i, x) k_b(x_j, x) (signal parts) over x ~ N(m, S), with
    w the diagonal of W.
    """
    eta = zeta * w                                               # (C, N, n)
    u = eta @ Y                                                  # (C, N, n)
    r_row = -0.5 * np.einsum("cnj,cnj->cn", eta, zeta) \
        + 0.5 * np.einsum("cnj,cnj->cn", u, eta)                 # (C, N)
    Kbar = u @ eta.transpose(0, 2, 1)
    Kbar += r_row[:, :, None]
    Kbar += r_row[:, None, :]
    Kbar -= 0.5 * logdet_r[:, None, None]
    return eta, Kbar


def _values(model: GpModel, zeta, S, checks: RowChecks):
    """Value moments for a batch of beliefs.

    Every output pair (a, b) has the matrix sigma_s,a^2 sigma_s,b^2 Qbar, so
    the whole covariance block costs one N x N exponential per belief.
    Returns (mu_f, sigma_f, cov, parts); `parts` holds the batched
    intermediates a pullback reuses, none of them N x N.
    """
    n = zeta.shape[2]
    hyper, alphas = model.hyper, model.alphas                    # (E, N)
    w = hyper.w
    sig2 = hyper.signal_var                                      # (E,)
    eye = np.eye(n)

    A = S + np.diag(1.0 / w)                                     # (C, n, n)
    sign_a, logdet_a = np.linalg.slogdet(A)
    bad = ~(sign_a > 0)
    checks.fail(bad, "input covariance plus length scales not PD")
    T = np.linalg.solve(identity_where(bad, A),
                        zeta.transpose(0, 2, 1)).transpose(0, 2, 1)  # (C, N, n)
    half_ratio = 0.5 * (logdet_a + float(np.sum(np.log(w))))     # (C,)
    logq0 = -half_ratio[:, None] \
        - 0.5 * np.einsum("cnj,cnj->cn", T, zeta)                # (C, N)
    qbar = np.exp(logq0)
    lq = (sig2[:, None] * alphas)[None] * qbar[:, None, :]       # (C, E, N)
    mu_f = lq.sum(axis=2)
    v = lq @ T                                                   # (C, E, n)
    cov = S @ v.transpose(0, 2, 1)                               # (C, n, E)

    g = 2.0 * w
    R = S * g + eye
    sign_r, logdet_r = np.linalg.slogdet(R)
    bad = ~(sign_r > 0)
    checks.fail(bad, "pair normalization matrix not PD")
    Y = np.linalg.solve(identity_where(bad, R), S)
    Y = 0.5 * (Y + Y.transpose(0, 2, 1))
    _, Kbar = _log_qbar(w, zeta, Y, logdet_r)
    Qbar = np.exp(Kbar, out=Kbar)                                # (C, N, N)

    M2 = alphas @ (Qbar @ alphas.T)                              # (C, E, E)
    e2 = np.outer(sig2, sig2) * M2
    # one BLAS product per row on the flat (E, N*N) view of the inverse
    # Grams: a batched product sums in a different order
    inv_flat = model.inv_grams.reshape(len(sig2), -1)
    tr_base = np.stack([inv_flat @ q.reshape(-1) for q in Qbar])  # (C, E)
    tr = sig2 ** 2 * tr_base
    model_var = np.maximum(sig2 - tr, 0.0) + hyper.prior_var - sig2
    sigma_f = e2 - mu_f[:, :, None] * mu_f[:, None, :]
    sigma_f[:, np.arange(n), np.arange(n)] += model_var
    sigma_f = 0.5 * (sigma_f + sigma_f.transpose(0, 2, 1))
    checks.fail(~(np.all(np.isfinite(sigma_f), axis=(1, 2))
                  & np.all(np.isfinite(mu_f), axis=1)),
                "moment computation overflowed")
    parts = dict(A=A, T=T, qbar=qbar, v=v, Y=Y, R=R, logdet_r=logdet_r,
                 tr=tr)
    return mu_f, sigma_f, cov, parts


# ---------------------------------------------------------------------------
# Pullback of the moments
# ---------------------------------------------------------------------------
#
# Two pieces.  With c_i the weight on d log q_i,
#     d log q_i = -0.5 tr(A^-1 dS) + T_i' dm + 0.5 T_i' dS T_i,
# and with B_ij the weight on d log Qbar_ij, G = 2 W,
#     d log Qbar_ij = ((I - G Y) z_ij)' dm + 0.5 z_ij' dY z_ij
#                     - 0.5 tr(R^-1 dS G),   dY = R^-1 dS (I - G Y).
# Derivatives are taken with respect to every entry of S separately.

def _gauss_pullback(A, T, c, psi_v, psi_mu):
    """Gradient of the log q and cross-covariance terms.

    A (n, n), T (N, n), c (N,) the weights on d log q, psi_v (n, n) =
    sum_e psi_e v_e' and psi_mu (n,) = sum_e psi_e mu_f,e, psi_e the weight
    on v_e = sum_i lq_ei T_i.  Returns (d_m (n,), d_S (n, n)).
    """
    n = A.shape[-1]
    rhs = np.empty((n, n + 1))
    rhs[:, :n] = -0.5 * c.sum() * np.eye(n) - psi_v
    rhs[:, n] = -psi_mu
    sol = np.linalg.solve(A.T, rhs)
    cT = T * c[:, None]
    d_m = cT.sum(axis=0) + sol[:, n]
    d_S = sol[:, :n] + 0.5 * (cT.T @ T)
    return d_m, d_S


def _pair_pullback(B, eta, g, Y, R):
    """Gradient of sum_ij B_ij log Qbar_ij.

    B (N, N) already carries the Qbar factor; eta (N, n), g (n,) the
    diagonal of G, Y and R (n, n).  Returns (d_m (n,), d_S (n, n)).
    """
    n = Y.shape[-1]
    s1 = B.sum(axis=1)                                           # (N,)
    s2 = B.sum(axis=0)
    s_z = np.einsum("n,ni->i", s1, eta) + np.einsum("n,ni->i", s2, eta)
    cross = eta.T @ (B @ eta)
    Z = (eta * s1[:, None]).T @ eta + (eta * s2[:, None]).T @ eta \
        + cross + cross.T                                        # (n, n)
    d_m = s_z - g * np.einsum("ij,j->i", Y, s_z)
    rhs = 0.5 * (Z - (Z @ Y) * g) - 0.5 * s1.sum() * (np.eye(n) * g)
    d_S = np.linalg.solve(R.T, rhs)
    return d_m, d_S


def _output_weights(mu_f, g_mu, g_sig, g_cov, S):
    """Fold the output weights: the symmetric weight on sigma_f, the total
    weight on mu_f (sigma_f holds -mu_f mu_f') and psi (E, n), the weight
    on each v_e of cov[:, e] = S v_e."""
    Csym = 0.5 * (g_sig + g_sig.T)
    return Csym, g_mu - 2.0 * (Csym @ mu_f), g_cov.T @ S


def _vjp(model: GpModel, m, S, mu_f, p: dict, g_mu, g_sig, g_cov):
    """Pullback of the moments for one belief."""
    T, v = p["T"], p["v"]
    N = T.shape[0]
    w = model.hyper.w
    sig2 = model.hyper.signal_var
    a2 = sig2[:, None] * model.alphas                               # (E, N)
    Csym, g_mf, psi = _output_weights(mu_f, g_mu, g_sig, g_cov, S)

    # mean and cross covariance: one weight per training point on d log q,
    # with lq = a2 * qbar
    c = p["qbar"] * (g_mf @ a2 + np.sum(T * (a2.T @ psi), axis=1))  # (N,)
    d_m, d_S = _gauss_pullback(p["A"], T, c, psi.T @ v, psi.T @ mu_f)
    d_S += g_cov @ v

    # pair and trace weights folded into one N x N weight on Qbar
    active = (sig2 - p["tr"]) > 0.0
    t = np.where(active, sig2 ** 2 * np.diag(Csym), 0.0)
    Wq = a2.T @ (Csym @ a2)
    Wq -= (t @ model.inv_grams.reshape(len(sig2), N * N)).reshape(N, N)
    # Qbar is recomputed, not stored: it is the one N x N array of the step
    zeta = model.train.inputs[None, :, :] - m[None, None, :]
    eta, B = _log_qbar(w, zeta, p["Y"][None], p["logdet_r"][None])
    B = np.exp(B[0], out=B[0])
    B *= Wq
    pm, pS = _pair_pullback(B, eta[0], 2.0 * w, p["Y"], p["R"])
    return d_m + pm, d_S + pS


# ---------------------------------------------------------------------------
# Belief propagation
# ---------------------------------------------------------------------------

@dataclass
class StepPullback:
    """Reverse-mode linearization of one belief-propagation step.

    `pullback` maps a co-state (chi_mu, chi_sig) = (d f / d mu',
    d f / d Sigma') of any scalar f of the step's output belief to
    (d f / d mu, d f / d Sigma) at its input: one vector-Jacobian product.
    Every covariance entry counts as a separate variable.
    """

    increment_vjp: Callable | None   # IncrementPrediction.vjp of the step
    control_jac: np.ndarray | None   # dt * d(G(mu) u) / d mu, (n, n)

    def pullback(self, chi_mu, chi_sig):
        d_mu, d_sig = chi_mu, chi_sig
        if self.increment_vjp is not None:
            # sigma' = sigma + sigma_f + cov + cov'
            dm, dS = self.increment_vjp(chi_mu, chi_sig, chi_sig + chi_sig.T)
            d_mu, d_sig = d_mu + dm, d_sig + dS
        if self.control_jac is not None:
            d_mu = d_mu + self.control_jac.T @ chi_mu
        return d_mu, d_sig


def moment_match(model: GpModel, belief_in: GaussianBelief, delta_u, plant_G,
                 dt: float, *, plant_G_jac=None,
                 prediction_out: list | None = None,
                 step_map_out: list | None = None) -> GaussianBelief:
    """Propagate a Gaussian state belief, or a batch of them, one step.

    mu'    = mu + mu_f + G(mu) delta_u dt
    sigma' = sigma + sigma_f + cov + cov'

    A single belief takes delta_u (m,) and raises NumericalError when a
    check fails.  A batch (`belief_in.ok` set) takes delta_u (C, m) and
    makes one `predict_increment` call for all rows; a row that fails a
    check is dropped from `ok` and keeps its input belief, and the other
    rows go on unchanged.  A single belief runs as a batch of one through
    the same arithmetic.  `plant_G` maps states (C, n) to control matrices
    (C, n, m) and is called once per step.

    With `step_map_out` (single belief only) the step's `StepPullback` is
    appended to it for the adjoint gradient pass: the moments' pullback
    and, via the plant's analytic G Jacobian when supplied, the control
    term dt * d(G(mu) u)/dmu.  `prediction_out` collects the per-step
    increment moments.
    """
    single = belief_in.ok is None
    if step_map_out is not None and not single:
        raise ConfigError("step pullbacks need a single belief")
    n = belief_in.dim
    mu = belief_in.mu.reshape(-1, n)
    sigma = belief_in.sigma.reshape(-1, n, n)
    u = np.asarray(delta_u, dtype=float).reshape(mu.shape[0], -1)
    checks = RowChecks(belief_in.ok)
    _check_covariances(sigma, checks)
    checks.fail(~np.all(np.isfinite(u), axis=1),
                "non-finite control in moment_match")

    if single:
        pred = predict_increment(model, mu[0], sigma[0],
                                 with_vjp=step_map_out is not None)
    else:
        # failed rows are evaluated at zero covariance and discarded
        pred = predict_increment(
            model, mu, np.where(checks.ok[:, None, None], sigma, 0.0))
        checks.ok &= pred.ok
    mu_f = pred.mu_f.reshape(mu.shape)
    sigma_f = pred.sigma_f.reshape(sigma.shape)
    cov = pred.cov_x_dx.reshape(sigma.shape)

    G = plant_G(mu)                                              # (C, n, m)
    mu_out = mu + mu_f + (G @ u[:, :, None])[:, :, 0] * dt
    sigma_out = sigma + sigma_f + cov + cov.transpose(0, 2, 1)
    sigma_out = 0.5 * (sigma_out + sigma_out.transpose(0, 2, 1))
    checks.fail(~np.all(np.isfinite(mu_out), axis=1), "belief mean overflowed")
    checks.fail(~np.all(np.isfinite(sigma_out), axis=(1, 2)),
                "belief covariance overflowed")

    if step_map_out is not None:
        control_jac = None
        if plant_G_jac is not None and np.any(u[0]):
            control_jac = dt * np.einsum("ijk,j->ik", plant_G_jac(mu[0]), u[0])
        step_map_out.append(StepPullback(pred.vjp, control_jac))
    if prediction_out is not None:
        prediction_out.append(pred)
    if single:
        return GaussianBelief(mu_out[0], sigma_out[0])
    ok = checks.ok
    return GaussianBelief(np.where(ok[:, None], mu_out, mu),
                          np.where(ok[:, None, None], sigma_out, sigma), ok)
