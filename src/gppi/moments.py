"""Gaussian-input moments of the GP increment model, with derivatives.

Given an input belief N(m, S), the exact squared-exponential moments of the
posterior increment are computed per output dimension: predictive mean,
predictive covariance (including the noise floor) and the input-increment
cross covariance.  The same routine evaluates directional derivatives of all
three along caller-supplied directions (dm, dS) in input-moment space.
Feeding the canonical basis directions recovers the full partial-derivative
tensors, from which belief propagation assembles the linearized step map
that the adjoint desirability gradient pulls back through; no numerical
differentiation is involved.

All inner loops over output dimensions and dimension pairs are batched
through numpy's stacked linalg; this routine sits on the hot path of every
rollout.

The value path also takes a leading candidate axis C: `predict_increment`
accepts beliefs mu (C, n), sigma (C, n, n), and `moment_match` a batch of
beliefs with controls (C, m), so the line search propagates all of its
candidates with one call per step.  A single belief runs as a batch of one
through the same code, and every reduction keeps the summation order of
the single evaluation, so row c of a batch is bit-identical to evaluating
its belief alone.  Checks that raise NumericalError for a single belief
(`RowChecks`) instead mask the failing row of a batch.  Derivatives are
computed for a single belief only, from the same value intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .gp import GpModel

# the general path loops over dimension pairs; when every output dimension
# shares one set of length scales all pair matrices are scalar multiples of a
# single N x N matrix and a much cheaper path applies

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
    desirability gradient pulls back through the step maps that
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
class IncrementJacobian:
    """Directional derivatives of the increment moments.

    Columns index the K supplied directions; with canonical basis directions
    these are the raw partials with respect to (mu_in, sigma_in).
    """

    dmu: np.ndarray     # (n_out, K)
    dsigma: np.ndarray  # (n_out, n_out, K)
    dcov: np.ndarray    # (n_in, n_out, K)


@dataclass
class IncrementPrediction:
    """One-step increment moments under a Gaussian input belief.

    For a batch of C beliefs every array gains a leading axis C.
    """

    mu_f: np.ndarray        # (n,)
    sigma_f: np.ndarray     # (n, n)
    cov_x_dx: np.ndarray    # (n, n); rows input state, cols increment dim
    jac: IncrementJacobian | None = None
    ok: np.ndarray | None = None   # (C,) for a batch: rows whose checks passed


class _ModelStacks:
    """Per-model arrays stacked over output dimensions, cached on the model."""

    def __init__(self, model: GpModel):
        n = model.state_dim
        self.w = np.stack([h.w for h in model.hyper])                  # (E, n)
        self.inv_w = 1.0 / self.w
        self.two_log_ss = np.array([2.0 * h.log_sigma_s for h in model.hyper])
        self.prior_var = np.array([h.sigma_s ** 2 + h.sigma_w ** 2
                                   for h in model.hyper])
        self.sig_s2 = np.array([h.sigma_s ** 2 for h in model.hyper])
        if model.n_points:
            self.alphas = np.stack(model.alphas)                       # (E, N)
            self.inv_grams = np.stack(model.inv_grams)                 # (E, N, N)
        else:
            self.alphas = np.zeros((n, 0))
            self.inv_grams = np.zeros((n, 0, 0))
        ai, bi = np.triu_indices(n)
        self.pair_a = ai
        self.pair_b = bi
        self.diag_mask = ai == bi
        self.shared_w = bool(np.all(self.w == self.w[0]))


def _stacks(model: GpModel) -> _ModelStacks:
    cache = model.__dict__.get("_stacks_cache")
    if cache is None:
        cache = _ModelStacks(model)
        model.__dict__["_stacks_cache"] = cache
    return cache


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

def predict_increment(model: GpModel, mu_in, sigma_in, dmu_dirs=None,
                      dsigma_dirs=None) -> IncrementPrediction:
    """Exact SE-kernel moments of the increment under N(mu_in, sigma_in).

    mu_in (n,) and sigma_in (n, n) give one input belief; mu_in (C, n) and
    sigma_in (C, n, n) give a batch of C candidate beliefs, and every field
    of the result then carries the same leading axis.  One belief is
    evaluated as a batch of one through the same code, so row c of a batch
    equals the single evaluation of its belief bit for bit.  A single
    evaluation raises NumericalError when a check fails; a batch clears the
    row's entry in `ok` instead.

    dmu_dirs (n, K) and dsigma_dirs (n, n, K) optionally request directional
    derivatives of all outputs along K directions of the input moments;
    they are defined for a single belief only.
    """
    n = model.state_dim
    m = np.asarray(mu_in, dtype=float)
    single = m.ndim <= 1
    want_jac = dmu_dirs is not None
    if want_jac and not single:
        raise ConfigError("directional derivatives need a single input belief")
    m = m.reshape(-1, n)
    S = np.asarray(sigma_in, dtype=float).reshape(-1, n, n)
    C = m.shape[0]
    checks = RowChecks(None if single else np.ones(C, dtype=bool))
    if want_jac:
        dm = np.asarray(dmu_dirs, dtype=float).reshape(n, -1)
        Kd = dm.shape[1]
        dS = (np.zeros((n, n, Kd)) if dsigma_dirs is None
              else np.asarray(dsigma_dirs, dtype=float).reshape(n, n, Kd))

    if model.n_points == 0:
        sig = np.diag([h.sigma_s ** 2 + h.sigma_w ** 2 for h in model.hyper])
        if not single:
            return IncrementPrediction(np.zeros((C, n)), np.tile(sig, (C, 1, 1)),
                                       np.zeros((C, n, n)), ok=checks.ok)
        jac = None
        if want_jac:
            jac = IncrementJacobian(np.zeros((n, Kd)), np.zeros((n, n, Kd)),
                                    np.zeros((n, n, Kd)))
        return IncrementPrediction(np.zeros(n), sig, np.zeros((n, n)), jac)

    st = _stacks(model)
    zeta = model.train.inputs[None, :, :] - m[:, None, :]         # (C, N, n)
    values = _shared_values if st.shared_w else _general_values
    mu_f, sigma_f, cov, parts = values(st, zeta, S, checks)
    if not single:
        return IncrementPrediction(mu_f, sigma_f, cov, ok=checks.ok)
    jac = None
    if want_jac:
        row = {k: a[0] for k, a in parts.items()}
        derivs = _shared_jac if st.shared_w else _general_jac
        jac = derivs(st, S[0], mu_f[0], row, dm, dS)
    return IncrementPrediction(mu_f[0], sigma_f[0], cov[0], jac)


def _general_values(st: "_ModelStacks", zeta, S, checks: RowChecks):
    """Value moments with per-dimension length scales for a batch.

    Returns (mu_f, sigma_f, cov, parts); `parts` holds the batched
    intermediates the derivative pass reuses.
    """
    C, N, n = zeta.shape
    E = n
    eye = np.eye(n)

    # --- per-dimension: mean and input-output covariance ------------------
    A = S[:, None, :, :] + st.inv_w[:, None, :] * eye[None, :, :]  # (C, E, n, n)
    sign_a, logdet_a = np.linalg.slogdet(A)
    bad = ~(sign_a > 0)
    checks.fail(bad.any(axis=1), "input covariance plus length scales not PD")
    Ta = np.linalg.solve(identity_where(bad, A), np.broadcast_to(
        zeta.transpose(0, 2, 1)[:, None], (C, E, n, N)))         # (C, E, n, N)
    Ta = Ta.transpose(0, 1, 3, 2)                                # (C, E, N, n)
    half_ratio = 0.5 * (logdet_a + np.sum(np.log(st.w), axis=1)) # (C, E)
    logq = st.two_log_ss[:, None] - half_ratio[:, :, None] \
        - 0.5 * np.einsum("cenj,cnj->cen", Ta, zeta)             # (C, E, N)
    q = np.exp(logq)
    lq = st.alphas * q                                           # (C, E, N)
    mu_f = lq.sum(axis=2)                                        # (C, E)
    v = np.einsum("cenj,cen->cej", Ta, lq)                       # (C, E, n)
    cov = S @ v.transpose(0, 2, 1)                               # (C, n, E)

    # --- pairs: predictive covariance --------------------------------------
    ai, bi = st.pair_a, st.pair_b
    P = ai.shape[0]
    eta = zeta[:, None, :, :] * st.w[:, None, :]                 # (C, E, N, n)
    logk = st.two_log_ss[:, None] \
        - 0.5 * np.einsum("cenj,cnj->cen", eta, zeta)            # (C, E, N)
    g = st.w[ai] + st.w[bi]                                      # (P, n)
    R = S[:, None, :, :] * g[:, None, :] + eye[None, :, :]       # (C, P, n, n)
    sign_r, logdet_r = np.linalg.slogdet(R)
    bad = ~(sign_r > 0)
    checks.fail(bad.any(axis=1), "pair normalization matrix not PD")
    Y = np.linalg.solve(identity_where(bad, R),
                        np.broadcast_to(S[:, None], (C, P, n, n)))
    Y = 0.5 * (Y + Y.transpose(0, 1, 3, 2))
    eta_a, eta_b = eta[:, ai], eta[:, bi]                        # (C, P, N, n)
    ua = np.matmul(eta_a, Y)                                     # (C, P, N, n)
    row_a = logk[:, ai] + 0.5 * np.einsum("cpnj,cpnj->cpn", ua, eta_a)
    ub = np.matmul(eta_b, Y)
    row_b = logk[:, bi] + 0.5 * np.einsum("cpnj,cpnj->cpn", ub, eta_b)
    n2 = np.matmul(ua, eta_b.transpose(0, 1, 3, 2))              # (C, P, N, N)
    n2 += row_a[:, :, :, None]
    n2 += row_b[:, :, None, :]
    n2 -= 0.5 * logdet_r[:, :, None, None]
    Q = np.exp(n2, out=n2)
    alpha_a, alpha_b = st.alphas[ai], st.alphas[bi]              # (P, N)
    e2 = np.einsum("pn,cpnm,pm->cp", alpha_a, Q, alpha_b)

    vals = e2 - mu_f[:, ai] * mu_f[:, bi]
    # per-row einsums: a batched contraction sums in a different order
    tr = np.stack([np.einsum("knm,knm->k", st.inv_grams, q[st.diag_mask])
                   for q in Q])                                  # (C, E)
    model_var = np.maximum(st.sig_s2 - tr, 0.0) + st.prior_var - st.sig_s2
    sigma_f = np.zeros((C, n, n))
    sigma_f[:, ai, bi] = vals
    sigma_f[:, bi, ai] = vals
    sigma_f[:, np.arange(n), np.arange(n)] += model_var
    checks.fail(~(np.all(np.isfinite(sigma_f), axis=(1, 2))
                  & np.all(np.isfinite(mu_f), axis=1)),
                "moment computation overflowed")
    parts = dict(A=A, Ta=Ta, lq=lq, v=v, eta=eta, Y=Y, R=R, Q=Q, tr=tr,
                 eta_a=eta_a, eta_b=eta_b)
    return mu_f, 0.5 * (sigma_f + sigma_f.transpose(0, 2, 1)), cov, parts


def _general_jac(st: "_ModelStacks", S, mu_f, p: dict, dm, dS):
    """Directional derivatives of the per-dimension path for one belief."""
    A, Ta, lq, v, eta = p["A"], p["Ta"], p["lq"], p["v"], p["eta"]
    N, n = eta.shape[1:]
    E = n
    Kd = dm.shape[1]
    ai, bi = st.pair_a, st.pair_b
    g = st.w[ai] + st.w[bi]

    # --- per-dimension directional derivatives -----------------------------
    dS_flat = dS.reshape(n, n * Kd)
    AinvdS = np.linalg.solve(A, np.broadcast_to(dS_flat, (E, n, n * Kd)))
    AinvdS = AinvdS.reshape(E, n, n, Kd)
    trA = np.einsum("eiik->ek", AinvdS)                          # (E, K)
    TdS = np.matmul(Ta, dS_flat).reshape(E, N, n, Kd)
    dlogq = -0.5 * trA[:, None, :] + np.matmul(Ta, dm)[:, :, :] \
        + 0.5 * np.einsum("enjk,enj->enk", TdS, Ta)              # (E, N, K)
    dmu = np.einsum("en,enk->ek", lq, dlogq)                     # (E, K)
    rhs = np.einsum("ijk,ej->eik", dS, v) \
        + lq.sum(axis=1)[:, None, None] * dm[None, :, :]         # (E, n, K)
    dva = np.einsum("enj,enk->ejk", Ta, lq[:, :, None] * dlogq) \
        - np.linalg.solve(A, rhs.reshape(E, n, Kd))
    dcov_en = np.einsum("ijk,ej->eik", dS, v) \
        + np.einsum("ij,ejk->eik", S, dva)                       # (E, n, K)
    dcov = dcov_en.transpose(1, 0, 2)                            # (n, E, K)

    # --- pair directional derivatives --------------------------------------
    Q, Y, R = p["Q"], p["Y"], p["R"]
    alpha_a, alpha_b = st.alphas[ai], st.alphas[bi]
    B = alpha_a[:, :, None] * alpha_b[:, None, :] * Q            # (P, N, N)
    de2 = _pair_directional_batch(B, p["eta_a"], p["eta_b"], g, Y, R, dm, dS)
    dvals = de2 - dmu[ai] * mu_f[bi, None] - mu_f[ai, None] * dmu[bi]
    Bt = st.inv_grams * Q[st.diag_mask]
    dtr = _pair_directional_batch(
        Bt, eta, eta, g[st.diag_mask], Y[st.diag_mask], R[st.diag_mask],
        dm, dS)
    active = (st.sig_s2 - p["tr"]) > 0.0
    dsig = np.zeros((n, n, Kd))
    dsig[ai, bi, :] = dvals
    dsig[bi, ai, :] = dvals
    dsig[np.arange(n), np.arange(n), :] -= np.where(
        active[:, None], dtr, 0.0)
    return IncrementJacobian(dmu, dsig, dcov)


def _shared_values(st: "_ModelStacks", zeta, S, checks: RowChecks):
    """Value moments for one shared set of length scales across output dims.

    Every pair matrix Q_ab equals sigma_s_a^2 sigma_s_b^2 Qbar for a single
    shared Qbar, so the whole covariance block costs one N x N exponential
    per belief.  Returns the same (mu_f, sigma_f, cov, parts) as the general
    path.
    """
    n = zeta.shape[2]
    w = st.w[0]
    sig2 = st.sig_s2                                             # (E,)
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
    lq = (sig2[:, None] * st.alphas)[None] * qbar[:, None, :]    # (C, E, N)
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
    eta = zeta * w                                               # (C, N, n)
    u = eta @ Y                                                  # (C, N, n)
    r_row = -0.5 * np.einsum("cnj,cnj->cn", eta, zeta) \
        + 0.5 * np.einsum("cnj,cnj->cn", u, eta)                 # (C, N)
    Kbar = u @ eta.transpose(0, 2, 1)
    Kbar += r_row[:, :, None]
    Kbar += r_row[:, None, :]
    Kbar -= 0.5 * logdet_r[:, None, None]
    Qbar = np.exp(Kbar, out=Kbar)                                # (C, N, N)

    QA = Qbar @ st.alphas.T                                      # (C, N, E)
    M2 = st.alphas @ QA                                          # (C, E, E)
    e2 = np.outer(sig2, sig2) * M2
    # per-row einsums: a batched contraction sums in a different order
    tr_base = np.stack([np.einsum("enm,nm->e", st.inv_grams, q)
                        for q in Qbar])                          # (C, E)
    tr = sig2 ** 2 * tr_base
    model_var = np.maximum(st.sig_s2 - tr, 0.0) + st.prior_var - st.sig_s2
    sigma_f = e2 - mu_f[:, :, None] * mu_f[:, None, :]
    sigma_f[:, np.arange(n), np.arange(n)] += model_var
    sigma_f = 0.5 * (sigma_f + sigma_f.transpose(0, 2, 1))
    checks.fail(~(np.all(np.isfinite(sigma_f), axis=(1, 2))
                  & np.all(np.isfinite(mu_f), axis=1)),
                "moment computation overflowed")
    parts = dict(A=A, T=T, lq=lq, v=v, Y=Y, R=R, eta=eta, QA=QA, M2=M2,
                 Qbar=Qbar, tr_base=tr_base, tr=tr)
    return mu_f, sigma_f, cov, parts


def _shared_jac(st: "_ModelStacks", S, mu_f, p: dict, dm, dS):
    """Directional derivatives of the shared-length-scale path for one belief."""
    A, T, lq, v, eta = p["A"], p["T"], p["lq"], p["v"], p["eta"]
    N, n = eta.shape
    Kd = dm.shape[1]
    sig2 = st.sig_s2
    g = 2.0 * st.w[0]
    Y, R, QA, M2, Qbar = p["Y"], p["R"], p["QA"], p["M2"], p["Qbar"]

    dS_flat = dS.reshape(n, n * Kd)
    # mean and cross-covariance directions (shared d log q across dims)
    AinvdS = np.linalg.solve(A, dS_flat).reshape(n, n, Kd)
    trA = np.einsum("iik->k", AinvdS)
    TdS = (T @ dS_flat).reshape(N, n, Kd)
    dlogq = -0.5 * trA[None, :] + T @ dm \
        + 0.5 * np.einsum("njk,nj->nk", TdS, T)                  # (N, K)
    dmu = lq @ dlogq                                             # (E, K)
    rhs = np.einsum("ijk,ej->eik", dS, v) \
        + lq.sum(axis=1)[:, None, None] * dm[None, :, :]         # (E, n, K)
    dva = np.einsum("nj,enk->ejk", T, lq[:, :, None] * dlogq[None, :, :]) \
        - np.linalg.solve(A, rhs)
    dcov_en = np.einsum("ijk,ej->eik", dS, v) \
        + np.einsum("ij,ejk->eik", S, dva)
    dcov = dcov_en.transpose(1, 0, 2)                            # (n, E, K)

    # pair directions; per-pair weight sums reuse the shared Qbar products
    ai, bi = st.pair_a, st.pair_b
    scale = sig2[ai] * sig2[bi]                                  # (P,)
    s_row = st.alphas[ai] * QA[:, bi].T + st.alphas[bi] * QA[:, ai].T
    s_row *= scale[:, None]                                      # (P, N) = s1+s2
    sumB = scale * M2[ai, bi]
    s_z = np.einsum("pn,ni->pi", s_row, eta)                     # (P, n)
    c_dims = st.alphas[:, :, None] * eta[None, :, :]             # (E, N, n)
    QC = np.matmul(Qbar[None, :, :], c_dims)                     # (E, N, n)
    crossZ = np.einsum("pni,pnj->pij",
                       c_dims[ai], QC[bi]) * scale[:, None, None]
    diag_w = st.alphas[ai] * QA[:, bi].T * scale[:, None]        # s1 (P, N)
    diag_w2 = st.alphas[bi] * QA[:, ai].T * scale[:, None]       # s2 (P, N)
    Za = np.einsum("pn,ni,nj->pij", diag_w, eta, eta)
    Zb = np.einsum("pn,ni,nj->pij", diag_w2, eta, eta)
    Z = Za + Zb + crossZ + crossZ.transpose(0, 2, 1)

    de2 = _coeff_contract(Z, s_z, sumB, g, Y, R, dm, dS)
    dvals = de2 - dmu[ai] * mu_f[bi, None] - mu_f[ai, None] * dmu[bi]

    # model-variance trace term per dimension
    Wt = st.inv_grams * Qbar[None, :, :]                         # (E, N, N)
    st1 = Wt.sum(axis=2)
    st2 = Wt.sum(axis=1)
    sz_t = np.einsum("en,ni->ei", st1 + st2, eta)
    WH = np.matmul(Wt, eta)                                      # (E, N, n)
    crossT = np.matmul(eta.T[None, :, :], WH)                    # (E, n, n)
    Zt = np.einsum("en,ni,nj->eij", st1 + st2, eta, eta) \
        + crossT + crossT.transpose(0, 2, 1)
    dtr = _coeff_contract(Zt, sz_t, p["tr_base"], g, Y, R, dm, dS)
    dtr *= sig2[:, None] ** 2
    active = (st.sig_s2 - p["tr"]) > 0.0

    dsig = np.zeros((n, n, Kd))
    dsig[ai, bi, :] = dvals
    dsig[bi, ai, :] = dvals
    dsig[np.arange(n), np.arange(n), :] -= np.where(active[:, None], dtr, 0.0)
    return IncrementJacobian(dmu, dsig, dcov)


def _coeff_contract(Z, s_z, sumB, g, Y, R, dm, dS):
    """Shared-scale analogue of the per-pair directional contraction.

    Z (P, n, n), s_z (P, n), sumB (P,) with one common (g, Y, R).
    """
    P, n, _ = Z.shape
    mvec = s_z - g[None, :] * (s_z @ Y)
    out = mvec @ dm
    GY = g[:, None] * Y
    Pm = (np.eye(n) - GY) @ Z.transpose(0, 2, 1)                 # (P, n, n)
    Rt = R.T
    Pm = np.linalg.solve(Rt[None, :, :], Pm.transpose(0, 2, 1)).transpose(0, 2, 1)
    D = np.linalg.solve(Rt, np.diag(g))
    coeff = 0.5 * Pm.transpose(0, 2, 1) - 0.5 * sumB[:, None, None] * D[None]
    out = out + np.einsum("pij,ijk->pk", coeff, dS)
    return out


def _pair_directional_batch(B, eta_a, eta_b, g, Y, R, dm, dS):
    """Directional derivatives of sum_ij B_ij Q_ij for stacked pairs.

    B already carries the Q factor.  Returns (P, K).
    """
    P, N, n = eta_a.shape
    Kd = dm.shape[1]
    s1 = B.sum(axis=2)                                           # (P, N)
    s2 = B.sum(axis=1)
    sumB = s1.sum(axis=1)                                        # (P,)
    s_z = np.einsum("pn,pni->pi", s1, eta_a) \
        + np.einsum("pn,pni->pi", s2, eta_b)                     # (P, n)
    t = np.matmul(B, eta_b)                                      # (P, N, n)
    cross = np.matmul(eta_a.transpose(0, 2, 1), t)               # (P, n, n)
    Za = np.matmul((eta_a * s1[:, :, None]).transpose(0, 2, 1), eta_a)
    Zb = np.matmul((eta_b * s2[:, :, None]).transpose(0, 2, 1), eta_b)
    Z = Za + Zb + cross + cross.transpose(0, 2, 1)               # (P, n, n)

    mvec = s_z - g * np.einsum("pij,pj->pi", Y, s_z)             # (P, n)
    out = mvec @ dm                                              # (P, K)

    GY = g[:, :, None] * Y
    Pm = np.matmul(np.eye(n)[None, :, :] - GY, Z.transpose(0, 2, 1))
    Rt = R.transpose(0, 2, 1)
    Pm = np.linalg.solve(Rt, Pm.transpose(0, 2, 1)).transpose(0, 2, 1)
    D = np.linalg.solve(Rt, np.broadcast_to(np.eye(n), (P, n, n)) * g[:, :, None])
    coeff = 0.5 * Pm.transpose(0, 2, 1) - 0.5 * sumB[:, None, None] * D
    out = out + np.einsum("pij,ijk->pk", coeff, dS)
    return out


# ---------------------------------------------------------------------------
# Belief propagation
# ---------------------------------------------------------------------------

@dataclass
class StepMap:
    """Linearization of one belief-propagation step around its input.

    Written on the flattened (mu, vec Sigma) pair:
        d mu'    = mu_mu  d mu + mu_sig  d vec(Sigma)
        d Sigma' = sig_mu d mu + sig_sig d vec(Sigma)
    The adjoint pass of the desirability gradient applies it transposed,
    pulling the co-state back from step t+1 to step t.
    """

    mu_mu: np.ndarray     # (n, n)
    mu_sig: np.ndarray    # (n, n^2)
    sig_mu: np.ndarray    # (n^2, n)
    sig_sig: np.ndarray   # (n^2, n^2)


def _canonical_directions(n: int):
    K = n + n * n
    dm = np.zeros((n, K))
    dm[:, :n] = np.eye(n)
    dS = np.zeros((n, n, K))
    idx = np.arange(n * n)
    dS.reshape(n * n, K)[idx, n + idx] = 1.0
    return dm, dS


def _assemble_step_map(pred: IncrementPrediction, dGu, dt: float,
                       n: int) -> StepMap:
    """Combine the canonical moment partials into the one-step linear map."""
    jac = pred.jac
    full_dsig = jac.dsigma + jac.dcov + np.transpose(jac.dcov, (1, 0, 2))
    mu_mu = np.eye(n) + jac.dmu[:, :n]
    if dGu is not None:
        mu_mu = mu_mu + dt * dGu
    mu_sig = jac.dmu[:, n:]
    sig_mu = full_dsig[:, :, :n].reshape(n * n, n)
    sig_sig = full_dsig[:, :, n:].reshape(n * n, n * n) + np.eye(n * n)
    return StepMap(mu_mu, mu_sig, sig_mu, sig_sig)


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
    the same arithmetic.

    With `step_map_out` (single belief only) the step is also linearized:
    the analytic moment partials and, via the plant's analytic G Jacobian
    when supplied, the control term dt * d(G(mu) u)/dmu form a StepMap,
    appended to `step_map_out` for the adjoint gradient pass.
    `prediction_out` collects the per-step increment moments.
    """
    single = belief_in.ok is None
    if step_map_out is not None and not single:
        raise ConfigError("step maps are recorded for a single belief only")
    n = belief_in.dim
    mu = belief_in.mu.reshape(-1, n)
    sigma = belief_in.sigma.reshape(-1, n, n)
    u = np.asarray(delta_u, dtype=float).reshape(mu.shape[0], -1)
    checks = RowChecks(belief_in.ok)
    _check_covariances(sigma, checks)
    checks.fail(~np.all(np.isfinite(u), axis=1),
                "non-finite control in moment_match")

    if step_map_out is not None:
        dm_dirs, dS_dirs = _canonical_directions(n)
        pred = predict_increment(model, mu[0], sigma[0], dm_dirs, dS_dirs)
    elif single:
        pred = predict_increment(model, mu[0], sigma[0])
    else:
        # failed rows are evaluated at zero covariance and discarded
        pred = predict_increment(
            model, mu, np.where(checks.ok[:, None, None], sigma, 0.0))
        checks.ok &= pred.ok
    mu_f = pred.mu_f.reshape(mu.shape)
    sigma_f = pred.sigma_f.reshape(sigma.shape)
    cov = pred.cov_x_dx.reshape(sigma.shape)

    G = np.stack([plant_G(x) for x in mu])                       # (C, n, m)
    mu_out = mu + mu_f + (G @ u[:, :, None])[:, :, 0] * dt
    sigma_out = sigma + sigma_f + cov + cov.transpose(0, 2, 1)
    sigma_out = 0.5 * (sigma_out + sigma_out.transpose(0, 2, 1))
    checks.fail(~np.all(np.isfinite(mu_out), axis=1), "belief mean overflowed")
    checks.fail(~np.all(np.isfinite(sigma_out), axis=(1, 2)),
                "belief covariance overflowed")

    if step_map_out is not None:
        dGu = None
        if plant_G_jac is not None and np.any(u[0]):
            dGu = np.einsum("ijk,j->ik", plant_G_jac(mu[0]), u[0])
        step_map_out.append(_assemble_step_map(pred, dGu, dt, n))
    if prediction_out is not None:
        prediction_out.append(pred)
    if single:
        return GaussianBelief(mu_out[0], sigma_out[0])
    ok = checks.ok
    return GaussianBelief(np.where(ok[:, None], mu_out, mu),
                          np.where(ok[:, None, None], sigma_out, sigma), ok)
