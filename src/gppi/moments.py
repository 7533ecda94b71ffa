"""Gaussian-input moments of the GP increment model, with their pullback.

Given an input belief N(m, S), the exact squared-exponential moments of the
posterior increment are computed: predictive mean, predictive covariance
(including the noise floor) and the input-increment cross covariance
(Deisenroth and Rasmussen, PILCO, ICML 2011).  The model has one W for all
output dimensions, so the Gaussian-weighted kernel terms are the same for
every output up to its factor sigma_s^2: one N-vector q for the mean and
cross covariance, and one N x N matrix Qbar for the whole covariance block,
per belief.  The arrays that depend on the model alone (W^-1, log|W|,
sigma_s^2 alpha, the flat inverse Grams and the rest) are cached on the
`GpModel`, and log Qbar is one product of two factors written in place
(`_log_qbar`), so a step computes only what depends on its beliefs.

Derivatives are taken in reverse mode, with no numerical differentiation.
The pullback of a belief, a vector-Jacobian product (`moment_vjp`), maps
weights on the three output moments back to weights on (m, S).  It folds
them into a few N x N and N-vector weights before it touches the kernel
terms, so it costs a few N x N products, whatever the state dimension.  It
reads plain data: the model, the belief, the predictive mean and the
`parts` of `_values` that an `IncrementPrediction` keeps.  `step_vjp` pulls
a co-state back through one whole step, moments and control term; the
control terms of a derivative pass come from `control_jacobians`, one call
of the plant's G Jacobian on the record's stacked means.

Every evaluation runs over a leading candidate axis C: `predict_increment`
takes beliefs mu (C, n), sigma (C, n, n), and `moment_match` a batch of
beliefs with controls (C, m), so the line search propagates all of its
candidates with one call per step.  A single belief is row 0 of its batch
of one, and every reduction keeps the summation order of the single
evaluation, so row c of a batch is bit-identical to evaluating its belief
alone.  `moment_match` therefore checks, predicts and evaluates G(mu) once
per distinct belief of a batch (candidates whose controls agree up to a
step share their beliefs there), and the checks that raise NumericalError
for a single belief (`RowChecks`) mask the failing rows of a batch instead.
A batch keeps the pullback parts of every row, none of them N-long, and
`IncrementPrediction.row` turns row c into a single prediction with the
parts of that row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
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


@dataclass
class IncrementPrediction:
    """One-step increment moments under a Gaussian input belief.

    For a batch of C beliefs every array gains a leading axis C.  `parts`
    holds the intermediates of `_values` that the pullback `moment_vjp`
    reads, with the same leading axis for a batch, none of them N-long; it
    is None when the moments do not depend on the input (an empty model).
    """

    mu_f: np.ndarray        # (n,)
    sigma_f: np.ndarray     # (n, n)
    cov_x_dx: np.ndarray    # (n, n); rows input state, cols increment dim
    parts: dict | None = field(default=None, repr=False)
    ok: np.ndarray | None = None   # (C,) for a batch: rows whose checks passed

    def row(self, c: int) -> "IncrementPrediction":
        """Row c of a batch as a single prediction, parts included."""
        parts = None if self.parts is None \
            else {k: _row_of(a, c) for k, a in self.parts.items()}
        return IncrementPrediction(_row_of(self.mu_f, c),
                                   _row_of(self.sigma_f, c),
                                   _row_of(self.cov_x_dx, c), parts)

    def take(self, rows) -> "IncrementPrediction":
        """The batch whose row c is row rows[c] of this one, parts
        included."""
        parts = None if self.parts is None \
            else {k: a[rows] for k, a in self.parts.items()}
        return IncrementPrediction(self.mu_f[rows], self.sigma_f[rows],
                                   self.cov_x_dx[rows], parts, self.ok[rows])


def _row_of(a, c):
    """Row c of a batch `a`: a copy, so that a kept row does not keep its
    whole batch alive, except that a batch of one is its own row."""
    return a[c] if len(a) == 1 else a[c].copy()


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


def _check_beliefs(mu, sigma, checks: RowChecks):
    """Finiteness, symmetry and PSD checks of a stack of beliefs, means
    (C, n) and covariances (C, n, n).  Returns (mu, sigma) with the rows
    that failed a check replaced by the zero belief, which every later step
    evaluates without overflow.  A row passes a check only where its
    comparison holds (the `not <=` form of `Plant.step_batch`), so that a
    NaN fails it."""
    finite = np.isfinite(mu).all(axis=1) & np.isfinite(sigma).all(axis=(1, 2))
    checks.fail(~finite, "non-finite belief")
    s = np.where(finite[:, None, None], sigma, 0.0) if not finite.all() \
        else sigma
    scale = np.maximum(np.abs(s).max(axis=(1, 2)), 1.0)
    asym = np.abs(s - s.transpose(0, 2, 1)).max(axis=(1, 2))
    checks.fail(~(asym <= SYM_TOL * scale), "belief covariance not symmetric")
    if s.shape[-1]:
        eig = np.linalg.eigvalsh(0.5 * (s + s.transpose(0, 2, 1)))
        floor = -PSD_TOL * np.maximum(s.trace(axis1=1, axis2=2), 1e-300)
        not_psd = ~(eig[:, 0] >= floor)
        # every belief step runs this check: format the message only on a
        # failing row
        if np.count_nonzero(not_psd):
            checks.fail(not_psd,
                        f"belief covariance not PSD (min eig {eig[0, 0]:.3e})")
    ok = checks.ok
    if ok.all():
        return mu, sigma
    return (np.where(ok[:, None], mu, 0.0),
            np.where(ok[:, None, None], sigma, 0.0))


# ---------------------------------------------------------------------------
# Core computation
# ---------------------------------------------------------------------------

def predict_increment(model: GpModel, mu_in, sigma_in) -> IncrementPrediction:
    """Exact SE-kernel moments of the increment under N(mu_in, sigma_in).

    mu_in (n,) and sigma_in (n, n) give one input belief; mu_in (C, n) and
    sigma_in (C, n, n) give a batch of C candidate beliefs, and every field
    of the result then carries the same leading axis.  One belief is
    evaluated as a batch of one and returned as its `row(0)`, parts
    included, so row c of a batch equals the single evaluation of its belief
    bit for bit.  A single evaluation raises NumericalError when a check
    fails; a batch clears the row's entry in `ok` instead.
    """
    n = model.state_dim
    m = np.asarray(mu_in, dtype=float)
    single = m.ndim <= 1
    m = m.reshape(-1, n)
    S = np.asarray(sigma_in, dtype=float).reshape(-1, n, n)
    C = m.shape[0]
    checks = RowChecks(None if single else np.ones(C, dtype=bool))

    if model.n_points == 0:
        sig = np.diag(model.hyper.prior_var)
        pred = IncrementPrediction(np.zeros((C, n)), np.tile(sig, (C, 1, 1)),
                                   np.zeros((C, n, n)), ok=checks.ok)
    else:
        zeta = model.train.inputs[None, :, :] - m[:, None, :]     # (C, N, n)
        pred = IncrementPrediction(*_values(model, zeta, S, checks),
                                   ok=checks.ok)
    return pred.row(0) if single else pred


def _log_qbar(w, zeta, Y, logdet_r):
    """eta (C, N, n) and log Qbar (C, N, N).

    Qbar[i, j] = |R|^-1/2 exp(-0.5 zeta_i' W zeta_i - 0.5 zeta_j' W zeta_j
                              + 0.5 z_ij' R^-1 S z_ij),  z_ij = eta_i + eta_j,
    zeta_i = x_i - m, so that sigma_s,a^2 sigma_s,b^2 Qbar[i, j] is the
    mean of k_a(x_i, x) k_b(x_j, x) (signal parts) over x ~ N(m, S), with
    w the diagonal of W and Y = R^-1 S.  With u_i = Y eta_i and
    r_i = 0.5 eta_i' (u_i - zeta_i), log Qbar[i, j] = u_i' eta_j + r_i
    + r_j - 0.5 log|R|: one product per belief of the factors
    [u | r | 1] (N, n+2) and [eta | 1 | r - 0.5 log|R|]' (n+2, N), both
    written in place into C-ordered arrays.
    """
    C, N, n = zeta.shape
    eta = zeta * w                                               # (C, N, n)
    u = eta @ Y
    left = np.empty((C, N, n + 2))
    right = np.empty((C, n + 2, N))
    left[:, :, :n] = u
    left[:, :, n] = 0.5 * np.einsum("cnj,cnj->cn", eta, u - zeta)   # r
    left[:, :, n + 1] = 1.0
    right[:, :n] = eta.transpose(0, 2, 1)
    right[:, n] = 1.0
    right[:, n + 1] = left[:, :, n] - 0.5 * logdet_r[:, None]
    return eta, left @ right


def _qbar(T, zeta, half_ratio):
    """q (C, N) with q_i = exp(-half_ratio - 0.5 zeta_i' A^-1 zeta_i), so
    that sigma_s,a^2 q_i is the mean of k_a(x_i, x) over x ~ N(m, S)."""
    return np.exp(-half_ratio[:, None]
                  - 0.5 * np.einsum("cnj,cnj->cn", T, zeta))


def _values(model: GpModel, zeta, S, checks: RowChecks):
    """Value moments for a batch of beliefs.

    Every output pair (a, b) has the matrix sigma_s,a^2 sigma_s,b^2 Qbar, so
    the whole covariance block costs one N x N exponential per belief.
    Returns (mu_f, sigma_f, cov, parts); `parts` holds the batched
    intermediates a pullback reuses, none of them N-long.
    """
    n = zeta.shape[2]
    hyper, alphas = model.hyper, model.alphas                    # (E, N)
    sig2 = hyper.signal_var                                      # (E,)

    A = S + model.inv_w                                          # (C, n, n)
    sign_a, logdet_a = np.linalg.slogdet(A)
    bad = ~(sign_a > 0)
    checks.fail(bad, "input covariance plus length scales not PD")
    Ainv = np.linalg.inv(identity_where(bad, A))
    T = zeta @ Ainv                                              # (C, N, n)
    half_ratio = 0.5 * (logdet_a + model.log_det_w)              # (C,)
    qbar = _qbar(T, zeta, half_ratio)                            # (C, N)
    lq = model.scaled_alphas[None] * qbar[:, None, :]            # (C, E, N)
    mu_f = lq.sum(axis=2)
    v = lq @ T                                                   # (C, E, n)
    cov = S @ v.transpose(0, 2, 1)                               # (C, n, E)

    R = S * model.two_w + np.eye(n)
    sign_r, logdet_r = np.linalg.slogdet(R)
    bad = ~(sign_r > 0)
    checks.fail(bad, "pair normalization matrix not PD")
    Y = np.linalg.solve(identity_where(bad, R), S)
    Y = 0.5 * (Y + Y.transpose(0, 2, 1))
    _, Kbar = _log_qbar(hyper.w, zeta, Y, logdet_r)
    Qbar = np.exp(Kbar, out=Kbar)                                # (C, N, N)

    M2 = alphas @ (Qbar @ alphas.T)                              # (C, E, E)
    e2 = model.signal_var_outer * M2
    # one matrix-vector product per row on the flat (E, N*N) view of the
    # inverse Grams, so that a row sums as a batch of one does
    tr_base = (Qbar.reshape(len(Qbar), 1, -1) @ model.inv_grams_flat_t)[:, 0]
    tr = model.signal_var_sq * tr_base                           # (C, E)
    model_var = np.maximum(sig2 - tr, 0.0) + hyper.prior_var - sig2
    sigma_f = e2 - mu_f[:, :, None] * mu_f[:, None, :]
    sigma_f.reshape(len(sigma_f), n * n)[:, ::n + 1] += model_var  # diagonal
    sigma_f = 0.5 * (sigma_f + sigma_f.transpose(0, 2, 1))
    checks.fail(~(np.isfinite(sigma_f).all(axis=(1, 2))
                  & np.isfinite(mu_f).all(axis=1)),
                "moment computation overflowed")
    parts = dict(Ainv=Ainv, half_ratio=half_ratio, v=v, Y=Y, R=R,
                 logdet_r=logdet_r, tr=tr)
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

def _gauss_pullback(Ainv, T, c, psi_v, psi_mu):
    """Gradient of the log q and cross-covariance terms.

    Ainv (n, n) = A^-1, T (N, n), c (N,) the weights on d log q, psi_v
    (n, n) = sum_e psi_e v_e' and psi_mu (n,) = sum_e psi_e mu_f,e, psi_e
    the weight on v_e = sum_i lq_ei T_i.  Returns (d_m (n,), d_S (n, n)).
    """
    n = Ainv.shape[-1]
    rhs = np.empty((n, n + 1))
    rhs[:, :n] = -0.5 * c.sum() * np.eye(n) - psi_v
    rhs[:, n] = -psi_mu
    sol = Ainv.T @ rhs
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


def moment_vjp(model: GpModel, m, S, mu_f, p: dict, g_mu, g_sig, g_cov):
    """Pullback of the moments for one belief N(m, S), whose prediction has
    `mu_f` and `parts` p: weights (g_mu, g_sig, g_cov) on (mu_f, sigma_f,
    cov_x_dx) to the gradient (d_m, d_S) of that weighted sum."""
    # zeta, T and q are recomputed, not kept: they are N-long per belief
    zeta = model.train.inputs[None, :, :] - m[None, None, :]
    T = zeta[0] @ p["Ainv"]
    qbar = _qbar(T[None], zeta, p["half_ratio"][None])[0]
    v = p["v"]
    N = T.shape[0]
    a2 = model.scaled_alphas                                        # (E, N)
    Csym, g_mf, psi = _output_weights(mu_f, g_mu, g_sig, g_cov, S)

    # mean and cross covariance: one weight per training point on d log q,
    # with lq = a2 * qbar
    c = qbar * (g_mf @ a2 + np.sum(T * (a2.T @ psi), axis=1))  # (N,)
    d_m, d_S = _gauss_pullback(p["Ainv"], T, c, psi.T @ v, psi.T @ mu_f)
    d_S += g_cov @ v

    # pair and trace weights folded into one N x N weight on Qbar
    active = (model.hyper.signal_var - p["tr"]) > 0.0
    t = np.where(active, model.signal_var_sq * np.diag(Csym), 0.0)
    Wq = a2.T @ (Csym @ a2)
    Wq -= (t @ model.inv_grams_flat).reshape(N, N)
    # Qbar is recomputed, not stored: it is the one N x N array of the step
    eta, B = _log_qbar(model.hyper.w, zeta, p["Y"][None], p["logdet_r"][None])
    B = np.exp(B[0], out=B[0])
    B *= Wq
    pm, pS = _pair_pullback(B, eta[0], model.two_w, p["Y"], p["R"])
    return d_m + pm, d_S + pS


# ---------------------------------------------------------------------------
# Belief propagation
# ---------------------------------------------------------------------------

def step_vjp(model: GpModel, mu, sigma, mu_f, parts, control_jac, chi_mu,
             chi_sig):
    """Pullback of one belief-propagation step from (mu, sigma).

    Maps a co-state (chi_mu, chi_sig) = (d f / d mu', d f / d Sigma') of any
    scalar f of the step's output belief to (d f / d mu, d f / d Sigma) at
    its input: one vector-Jacobian product, every covariance entry a
    separate variable.  mu_f and parts are those of the step's
    `IncrementPrediction`; control_jac is the step's control term
    dt * d(G(mu) u) / d mu (n, n), or None where u = 0.
    """
    d_mu, d_sig = chi_mu, chi_sig
    if parts is not None:
        # sigma' = sigma + sigma_f + cov + cov'
        dm, dS = moment_vjp(model, mu, sigma, mu_f, parts, chi_mu, chi_sig,
                            chi_sig + chi_sig.T)
        d_mu, d_sig = d_mu + dm, d_sig + dS
    if control_jac is not None:
        d_mu = d_mu + control_jac.T @ chi_mu
    return d_mu, d_sig


def control_jacobians(plant_G_jac, mus, us, dt) -> list:
    """The control term dt * d(G(mu_t) u_t) / d mu_t (n, n) of every step of
    a derivative pass, at the belief means mus (T, n) of its inputs under
    its controls us (T, m), or None for a step with u_t = 0.  The G
    Jacobians of all steps come from one `plant_G_jac` call on the stacked
    means; `plant_G_jac` maps states (K, n) to (K, n, m, n), or to one
    (n, m, n) shared by every state.
    """
    mus = np.asarray(mus, dtype=float)
    us = np.asarray(us, dtype=float)
    control = [None] * len(us)
    moving = np.flatnonzero(np.any(us, axis=-1))
    if moving.size:
        jacs = dt * np.einsum("...ijk,...j->...ik", plant_G_jac(mus[moving]),
                              us[moving])
        for t, jac in zip(moving.tolist(), jacs):
            control[t] = jac
    return control


def _distinct_rows(*arrays):
    """The first row of each group of bit-identical rows across `arrays`,
    each (C, ...), and the group of every row: (first (K,), group (C,))."""
    keys = np.concatenate([a.reshape(len(a), -1) for a in arrays], axis=1)
    flat, size = keys.tobytes(), keys.itemsize * keys.shape[1]
    groups: dict = {}
    first, group = [], []
    for c in range(len(keys)):
        g = groups.setdefault(flat[c * size:(c + 1) * size], len(groups))
        if g == len(first):
            first.append(c)
        group.append(g)
    return np.array(first), np.array(group)


def moment_match(model: GpModel, belief_in: GaussianBelief, delta_u, plant_G,
                 dt: float, *,
                 prediction_out: list | None = None) -> GaussianBelief:
    """Propagate a Gaussian state belief, or a batch of them, one step.

    mu'    = mu + mu_f + G(mu) delta_u dt
    sigma' = sigma + sigma_f + cov + cov'

    A single belief takes delta_u (m,) and raises NumericalError when a
    check fails (a non-finite mean or covariance is a "non-finite belief").
    A batch (`belief_in.ok` set) takes delta_u (C, m) and groups its rows
    first: bit-identical beliefs (every row at the observed start state,
    say) share the belief checks, one `predict_increment` row and G(mu).
    A row that fails a check, or whose control is not finite, is dropped
    from `ok` and keeps its input belief; it is evaluated at zeros in place
    of its failed belief or control, and the other rows go on unchanged.
    `plant_G` maps states (K, n) to control matrices (K, n, m) and is
    called once per step.  `prediction_out`, a list, receives the step's
    `IncrementPrediction`, with the parts of the moments' pullback.
    """
    single = belief_in.ok is None
    n = belief_in.dim
    mu = belief_in.mu.reshape(-1, n)
    sigma = belief_in.sigma.reshape(-1, n, n)
    u = np.asarray(delta_u, dtype=float).reshape(mu.shape[0], -1)
    checks = RowChecks(belief_in.ok)
    rows = None
    if single:
        distinct = checks
    else:
        # rows that failed before are evaluated at the zero belief and
        # discarded; the rest are checked and evaluated once per distinct
        # belief, and `rows` maps each row to its distinct belief (None
        # when every row is distinct)
        live = checks.ok
        if not live.all():
            mu = np.where(live[:, None], mu, 0.0)
            sigma = np.where(live[:, None, None], sigma, 0.0)
        first, rows = _distinct_rows(mu, sigma)
        if len(first) < len(rows):
            mu, sigma = mu[first], sigma[first]
        else:
            rows = None
        distinct = RowChecks(np.ones(len(mu), dtype=bool))
    mu, sigma = _check_beliefs(mu, sigma, distinct)
    finite_u = np.isfinite(u).all(axis=1)
    checks.fail(~finite_u, "non-finite control in moment_match")
    if not finite_u.all():
        # a batch's masked rows are evaluated at zero control
        u = np.where(finite_u[:, None], u, 0.0)

    if single:
        pred = predict_increment(model, mu[0], sigma[0])
    else:
        pred = predict_increment(model, mu, sigma)
    G = plant_G(mu)                                              # (K, n, m)
    if not single:
        ok = distinct.ok & pred.ok
        if rows is not None:
            pred, G, ok = pred.take(rows), G[rows], ok[rows]
            mu, sigma = mu[rows], sigma[rows]
        checks.ok &= ok
    mu_f = pred.mu_f.reshape(mu.shape)
    sigma_f = pred.sigma_f.reshape(sigma.shape)
    cov = pred.cov_x_dx.reshape(sigma.shape)

    mu_out = mu + mu_f + (G @ u[:, :, None])[:, :, 0] * dt
    sigma_out = sigma + sigma_f + cov + cov.transpose(0, 2, 1)
    sigma_out = 0.5 * (sigma_out + sigma_out.transpose(0, 2, 1))
    checks.fail(~np.isfinite(mu_out).all(axis=1), "belief mean overflowed")
    checks.fail(~np.isfinite(sigma_out).all(axis=(1, 2)),
                "belief covariance overflowed")

    if prediction_out is not None:
        prediction_out.append(pred)
    if single:
        return GaussianBelief(mu_out[0], sigma_out[0])
    ok = checks.ok
    return GaussianBelief(np.where(ok[:, None], mu_out, belief_in.mu),
                          np.where(ok[:, None, None], sigma_out,
                                   belief_in.sigma), ok)
