"""Gaussian process models of passive state increments.

One independent GP per output dimension over a shared input set.  Training
targets are passive increments: the known control contribution
G(x) u_applied dt is subtracted when a transition sample is ingested and
added back analytically at prediction time, so a single model stays valid
under any control sequence.

Kernel: k(xi, xj) = sigma_s^2 exp(-0.5 (xi-xj)' W (xi-xj)) + delta_ij sigma_w^2
with W a diagonal matrix of inverse squared length scales.

Hyperparameters are fitted with W tied across output dimensions, and the
marginal likelihood is evaluated in the eigenbasis of the one length-scale
Gram, with a jitter ladder on its eigenvalues (`tied_log_marginal_likelihood`).

A model carries one Cholesky factor of the Gram per output dimension and
nothing else: the alphas K^-1 y and the inverse Grams that prediction needs
are derived from the factors on first use and cached on the model.  A sample
updates the factors in O(N^2) per dimension: at `max_points` the evicted
point's row and column are removed by Givens rotations, and the new point is
appended by one triangular solve.  Inverses are never carried from one update
to the next, as their Schur-complement updates drift.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, lapack, qr_delete, solve_triangular

from .errors import ConfigError, NumericalError

logger = logging.getLogger(__name__)

JITTER_BASE = 1e-10
JITTER_MAX = 1e-4
LOG_HYPER_BOUNDS = (-12.0, 8.0)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelHyper:
    """Kernel hyperparameters for one output dimension, stored in log space."""

    log_sigma_s: float
    log_sigma_w: float
    log_w: np.ndarray  # (n,) log inverse squared length scales

    def __post_init__(self):
        object.__setattr__(self, "log_w",
                           np.atleast_1d(np.asarray(self.log_w, dtype=float)))
        vec = np.concatenate(([self.log_sigma_s, self.log_sigma_w], self.log_w))
        if not np.all(np.isfinite(vec)):
            raise ConfigError("kernel hyperparameters must be finite")

    @property
    def sigma_s(self) -> float:
        return float(np.exp(self.log_sigma_s))

    @property
    def sigma_w(self) -> float:
        return float(np.exp(self.log_sigma_w))

    @property
    def w(self) -> np.ndarray:
        """Diagonal of W (inverse squared length scales)."""
        return np.exp(self.log_w)

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.log_sigma_s, self.log_sigma_w], self.log_w))

    @staticmethod
    def from_vector(vec: np.ndarray) -> "KernelHyper":
        return KernelHyper(float(vec[0]), float(vec[1]), np.array(vec[2:]))

    @staticmethod
    def create(sigma_s: float, sigma_w: float, w) -> "KernelHyper":
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if sigma_s <= 0 or sigma_w <= 0 or np.any(w <= 0):
            raise ConfigError("sigma_s, sigma_w and W diagonal must be positive")
        return KernelHyper(np.log(sigma_s), np.log(sigma_w), np.log(w))


@dataclass(frozen=True)
class TrainingSet:
    """Shared inputs and per-dimension passive-increment targets."""

    inputs: np.ndarray    # (N, n)
    outputs: np.ndarray   # (N, n)

    def __post_init__(self):
        inp = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        out = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        object.__setattr__(self, "inputs", inp)
        object.__setattr__(self, "outputs", out)
        if inp.shape[0] != out.shape[0]:
            raise ConfigError("inputs and outputs must have equal length")
        if inp.size and not (np.all(np.isfinite(inp)) and np.all(np.isfinite(out))):
            raise ConfigError("training data must be finite")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @staticmethod
    def empty(state_dim: int) -> "TrainingSet":
        return TrainingSet(np.zeros((0, state_dim)), np.zeros((0, state_dim)))


@dataclass(frozen=True)
class GpModel:
    """Fitted increment model: training data, hyperparameters, factors.

    `chols` holds the lower Cholesky factor of each output dimension's Gram
    matrix, the only factorization stored.  `alphas` and `inv_grams` are
    derived from it on first access and cached in the instance; a model made
    by `dataclasses.replace` starts without them.  Immutable otherwise:
    `incorporate_sample` and refits return new values, and the cached values
    are deterministic functions of the fields, so a model may be shared
    freely across concurrent rollouts (two first reads at once compute the
    same arrays).  Callers must not write into the arrays they read.
    """

    train: TrainingSet
    hyper: tuple          # one KernelHyper per output dimension
    chols: tuple = field(repr=False, default=())   # (N, N) lower per dim
    max_points: int | None = None
    insertion_order: tuple = ()

    def __post_init__(self):
        if self.max_points is not None and self.max_points < 1:
            raise ConfigError("max_points must be at least 1")

    @property
    def state_dim(self) -> int:
        return self.train.inputs.shape[1]

    @property
    def n_points(self) -> int:
        return self.train.size

    @cached_property
    def alphas(self) -> tuple:
        """K^-1 y per output dimension, (N,) each: two triangular solves."""
        return tuple(cho_solve((L, True), self.train.outputs[:, dim])
                     if L.size else np.zeros(0)
                     for dim, L in enumerate(self.chols))

    @cached_property
    def inv_grams(self) -> tuple:
        """K^-1 per output dimension, (N, N) each, by LAPACK potri on L."""
        return tuple(_chol_inverse(L) for L in self.chols)

    @staticmethod
    def from_data(train: TrainingSet, hyper, max_points: int | None = None) -> "GpModel":
        hyper = tuple(hyper)
        if len(hyper) != train.inputs.shape[1]:
            raise ConfigError("need one KernelHyper per output dimension")
        chols = tuple(chol_with_jitter(kernel_matrix(train.inputs, h))[0]
                      for h in hyper)
        return GpModel(train, hyper, chols, max_points,
                       tuple(range(train.size)))

    @staticmethod
    def empty(state_dim: int, hyper=None, max_points: int | None = None) -> "GpModel":
        if hyper is None:
            hyper = tuple(KernelHyper.create(1.0, 0.1, np.ones(state_dim))
                          for _ in range(state_dim))
        hyper = tuple(hyper)
        return GpModel(TrainingSet.empty(state_dim), hyper,
                       tuple(np.zeros((0, 0)) for _ in hyper),
                       max_points, tuple())


# ---------------------------------------------------------------------------
# Kernel and factorization
# ---------------------------------------------------------------------------

def kernel_eval(xi, xj, hyper: KernelHyper, same_index: bool = False) -> float:
    """Squared-exponential covariance between two states."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    xj = np.atleast_1d(np.asarray(xj, dtype=float))
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(xj))):
        raise ConfigError("kernel inputs must be finite")
    d = xi - xj
    val = hyper.sigma_s ** 2 * np.exp(-0.5 * float(d @ (hyper.w * d)))
    if same_index:
        val += hyper.sigma_w ** 2
    return float(val)


def _sq_dist(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared distances (xi-xj)' W (xi-xj) between rows of X, clipped at 0."""
    Xs = X * np.sqrt(w)
    sq = np.sum(Xs ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Xs @ Xs.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def kernel_matrix(X: np.ndarray, hyper: KernelHyper, with_noise: bool = True) -> np.ndarray:
    """Gram matrix of the kernel over rows of X."""
    K = hyper.sigma_s ** 2 * np.exp(-0.5 * _sq_dist(X, hyper.w))
    if with_noise:
        K[np.diag_indices_from(K)] += hyper.sigma_w ** 2
    return K


def kernel_vector(X: np.ndarray, x: np.ndarray, hyper: KernelHyper) -> np.ndarray:
    d = X - x
    return hyper.sigma_s ** 2 * np.exp(-0.5 * np.sum(d * d * hyper.w, axis=1))


def chol_with_jitter(K: np.ndarray):
    """Cholesky with an escalating diagonal jitter ladder.

    Returns (L, jitter_used).  Raises NumericalError carrying the last jitter
    attempted if even the largest allowed jitter fails.
    """
    n = K.shape[0]
    if n == 0:
        return np.zeros((0, 0)), 0.0
    scale = np.trace(K) / n
    jitter = 0.0
    while True:
        try:
            L = np.linalg.cholesky(K + jitter * np.eye(n))
            return L, jitter
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = JITTER_BASE * scale
            else:
                jitter *= 10.0
            if jitter > JITTER_MAX * scale:
                raise NumericalError(
                    "Gram factorization failed", jitter=jitter)


def _chol_inverse(L: np.ndarray) -> np.ndarray:
    """Symmetric inverse of L L' from its lower Cholesky factor."""
    if not L.size:
        return np.zeros((0, 0))
    inv, info = lapack.dpotri(L, lower=1)
    if info != 0:
        raise NumericalError(
            f"inverse from the Cholesky factor failed (info {info})")
    return np.tril(inv) + np.tril(inv, -1).T


# ---------------------------------------------------------------------------
# Marginal likelihood and hyperparameter fitting
# ---------------------------------------------------------------------------

def tied_log_marginal_likelihood(train: TrainingSet, theta):
    """Summed log marginal likelihood of the output columns of `train` under
    tied length scales, and its gradient in
    theta = (log_sigma_s (E), log_sigma_w (E), log_w (n)).

    With K_w = exp(-0.5 d^2) = Q diag(lam) Q', column d has the Gram matrix
    Q diag(D[:, d]) Q' with D[:, d] = sigma_s,d^2 lam + sigma_w,d^2, so one
    `eigh` yields every log-determinant, alpha and sigma gradient, and the
    length scales need one M = sum_d sigma_s,d^2 (alpha_d alpha_d' - K_d^-1).

    Positivity rule: column d of D is accepted when all of it exceeds
    N eps scale_d, with scale_d = sigma_s,d^2 + sigma_w,d^2 = trace(K_d) / N;
    that is the rounding `eigh` can leave, as K_w's eigenvalues are at most
    N.  A column below it gets the `chol_with_jitter` ladder, JITTER_BASE
    scale_d raised tenfold up to JITTER_MAX scale_d.  Past that, or for a
    non-finite D, the sentinel (-1e18, zero gradient) is returned.
    """
    if train.size < 1:
        raise ConfigError("need at least one training pair")
    X, Y = train.inputs, train.outputs
    N, E = Y.shape
    theta = np.asarray(theta, dtype=float)
    s2 = np.exp(2.0 * theta[:E])
    noise2 = np.exp(2.0 * theta[E:2 * E])
    w = np.exp(theta[2 * E:])
    Kw = np.exp(-0.5 * _sq_dist(X, w))
    lam, Q = np.linalg.eigh(Kw)
    scale = s2 + noise2
    D = lam[:, None] * s2 + noise2
    floor = N * np.finfo(float).eps * scale
    jitter = np.zeros(E)
    rung = JITTER_BASE
    bad = ~(np.min(D, axis=0) > floor)          # a NaN counts as bad
    while np.any(bad):
        if rung > JITTER_MAX:
            return -1e18, np.zeros(theta.size)
        jitter[bad] = rung * scale[bad]
        bad = ~(np.min(D, axis=0) + jitter > floor)
        rung *= 10.0
    D += jitter

    Yt = Q.T @ Y
    A = Yt / D                       # alphas in the eigenbasis
    inv_D = 1.0 / D
    lml = -0.5 * float(np.sum(Yt * A) + np.sum(np.log(D))) \
        - 0.5 * N * E * np.log(2.0 * np.pi)

    A2 = A * A
    grad = np.empty(theta.size)
    grad[:E] = s2 * (lam @ (A2 - inv_D))               # d/d log sigma_s
    grad[E:2 * E] = noise2 * np.sum(A2 - inv_D, axis=0)  # d/d log sigma_w
    alpha = Q @ A
    M = (alpha * s2) @ alpha.T - (Q * (inv_D @ s2)) @ Q.T
    V = M * Kw
    quad = 2.0 * ((X * X).T @ V.sum(axis=1) - np.sum(X * (V @ X), axis=0))
    grad[2 * E:] = -0.25 * w * quad                    # d/d log w
    return lml, grad


def log_marginal_likelihood(train: TrainingSet, hyper: KernelHyper, dim: int):
    """Log marginal likelihood of output dimension `dim` and its gradient in
    (log_sigma_s, log_sigma_w, log_w_1..log_w_n): the tied likelihood of
    that one column."""
    return tied_log_marginal_likelihood(
        TrainingSet(train.inputs, train.outputs[:, [dim]]), hyper.as_vector())


def _default_init(train: TrainingSet, dim: int) -> KernelHyper:
    X, y = train.inputs, train.outputs[:, dim]
    sx = np.std(X, axis=0)
    sx[sx < 1e-3] = 1.0
    sy = max(float(np.std(y)), 1e-6)
    return KernelHyper.create(sy, max(0.1 * sy, 1e-6), 1.0 / sx ** 2)


def _ascend(objective, theta0, max_iters):
    """Backtracking gradient ascent in log-hyper space."""
    lo, hi = LOG_HYPER_BOUNDS
    theta = np.clip(theta0, lo, hi)
    f, g = objective(theta)
    step = 0.1
    for _ in range(max_iters):
        gnorm = np.max(np.abs(g))
        if gnorm < 1e-6 * max(1.0, abs(f)):
            break
        accepted = False
        for _ in range(14):
            cand = np.clip(theta + step * g, lo, hi)
            f2, g2 = objective(cand)
            if f2 > f + 1e-4 * step * float(g @ g):
                theta, f, g = cand, f2, g2
                step = min(step * 1.5, 10.0)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return theta, f


def _restarted_ascent(objective, theta_base, rng, n_restarts, probe_iters,
                      max_iters):
    starts = [theta_base]
    for _ in range(n_restarts):
        starts.append(theta_base + rng.normal(scale=0.7, size=theta_base.size))
    probed = [_ascend(objective, th, probe_iters) for th in starts]
    best_theta, _ = max(probed, key=lambda p: p[1])
    return _ascend(objective, best_theta, max(max_iters - probe_iters, 1))


def fit_hyperparameters(train: TrainingSet, *, rng=None, n_restarts: int = 4,
                        max_iters: int = 200, probe_iters: int = 30,
                        init=None):
    """Fit kernel hyperparameters by restarted gradient ascent.

    The length scales are tied across output dimensions (the tied model makes
    the uncertain-input moment computation far cheaper), and
    `tied_log_marginal_likelihood` is ascended over all dimensions jointly:
    one `eigh` of the length-scale Gram per evaluation, with the jitter rule
    stated there.  `init` warm-starts from one KernelHyper per dimension and
    the mean of their log_w.  Random restarts are probed with a short
    iteration budget and only the most promising candidate is polished to
    the full budget.  Returns (hypers, status) where status is 'ok' or
    'no-improvement'.
    """
    if train.size < 2:
        raise ConfigError("need at least two training pairs to fit")
    if rng is None:
        rng = np.random.default_rng(0)
    E = train.outputs.shape[1]
    base = init if init is not None else \
        [_default_init(train, dim) for dim in range(E)]
    theta_base = np.clip(np.concatenate([
        [h.log_sigma_s for h in base], [h.log_sigma_w for h in base],
        np.mean([h.log_w for h in base], axis=0)]), *LOG_HYPER_BOUNDS)

    def objective(theta):
        return tied_log_marginal_likelihood(train, theta)

    f0, _ = objective(theta_base)
    theta, f = _restarted_ascent(objective, theta_base, rng, n_restarts,
                                 probe_iters, max_iters)
    status = "ok"
    if f < f0:
        logger.warning("hyperparameter fit failed to improve")
        status = "no-improvement"
        theta = theta_base
    hypers = [KernelHyper(float(theta[d]), float(theta[E + d]),
                          theta[2 * E:].copy()) for d in range(E)]
    return hypers, status


# ---------------------------------------------------------------------------
# Sample ingestion
# ---------------------------------------------------------------------------

def passive_increment(x, u_applied, x_next, plant_G, dt: float) -> np.ndarray:
    """Subtract the known control contribution from an observed transition."""
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d(np.asarray(u_applied, dtype=float))
    return np.asarray(x_next, dtype=float) - x - (plant_G(x) @ u) * dt


def _rank1_extend(model: GpModel, train: TrainingSet, order: tuple):
    """Extend `model` to `train`, its training set plus one last point, by
    one row of each Cholesky factor, a triangular solve per dimension.
    Returns None when a Schur complement is at most 1e-12 of the prior
    variance, where the row would lose precision."""
    X, x_new = model.train.inputs, train.inputs[-1]
    chols = []
    for h, L in zip(model.hyper, model.chols):
        k = kernel_vector(X, x_new, h)
        kappa = h.sigma_s ** 2 + h.sigma_w ** 2
        l2 = solve_triangular(L, k, lower=True) if L.size else np.zeros(0)
        rem = kappa - float(l2 @ l2)
        if rem <= 1e-12 * kappa:
            return None
        n_old = L.shape[0]
        Ln = np.zeros((n_old + 1, n_old + 1))
        Ln[:n_old, :n_old] = L
        Ln[n_old, :n_old] = l2
        Ln[n_old, n_old] = np.sqrt(rem)
        chols.append(Ln)
    return GpModel(train, model.hyper, tuple(chols), model.max_points, order)


def _evict_index(inputs: np.ndarray, order: tuple, hyper) -> int:
    """Pick the most redundant point: older member of the closest input pair."""
    w = np.mean([h.w for h in hyper], axis=0)
    Xs = inputs * np.sqrt(w)
    sq = np.sum(Xs ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * Xs @ Xs.T
    np.fill_diagonal(d2, np.inf)
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return i if order[i] <= order[j] else j


def _delete_point(model: GpModel, idx: int) -> GpModel:
    """Remove stored point `idx`, downdating each Cholesky factor in O(N^2).

    With R = L', deleting column idx of R leaves R'R equal to the Gram
    without row and column idx; `qr_delete` restores R's triangular form by
    Givens rotations, which leave R'R unchanged.  Rows of R with a negative
    diagonal are flipped, so that L keeps a positive diagonal.
    """
    N = model.n_points
    eye = np.eye(N)
    chols = []
    for L in model.chols:
        _, R = qr_delete(eye, L.T, idx, which="col", check_finite=False)
        R = R[:N - 1, :N - 1]
        R *= np.where(np.diag(R) < 0.0, -1.0, 1.0)[:, None]
        chols.append(R.T)
    keep = np.arange(N) != idx
    train = TrainingSet(model.train.inputs[keep], model.train.outputs[keep])
    order = model.insertion_order[:idx] + model.insertion_order[idx + 1:]
    return GpModel(train, model.hyper, tuple(chols), model.max_points, order)


def incorporate_sample(model: GpModel, x, u_applied, x_next, plant_G,
                       dt: float):
    """Add one transition sample; returns (new_model, status).

    Non-finite transitions are rejected with status 'rejected'.  At
    `max_points` the older member of the closest pair among the stored
    inputs and the new one is evicted first (never the new point), by a
    Cholesky downdate; the new point is then appended by a one-row
    extension.  When the new point is too close to a stored one for the
    extension, the final training set is refactorized with the jitter
    ladder.  The hyperparameters are left untouched; refitting happens on
    the harness schedule, not here.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    x = np.asarray(x, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x_next))
            and np.all(np.isfinite(np.atleast_1d(u_applied)))):
        logger.warning("rejecting non-finite transition sample")
        return model, "rejected"
    d = passive_increment(x, u_applied, x_next, plant_G, dt)
    if not np.all(np.isfinite(d)):
        logger.warning("rejecting non-finite increment")
        return model, "rejected"

    new_label = max(model.insertion_order, default=-1) + 1
    if model.max_points is not None and model.n_points >= model.max_points:
        idx = _evict_index(np.vstack([model.train.inputs, x[None, :]]),
                           model.insertion_order + (new_label,), model.hyper)
        model = _delete_point(model, idx)
    order = model.insertion_order + (new_label,)
    train = TrainingSet(np.vstack([model.train.inputs, x[None, :]]),
                        np.vstack([model.train.outputs, d[None, :]]))
    extended = _rank1_extend(model, train, order)
    if extended is None:
        extended = replace(GpModel.from_data(train, model.hyper,
                                             model.max_points),
                           insertion_order=order)
    return extended, "ok"


def refit(model: GpModel, rng=None, **kwargs) -> GpModel:
    """Refit hyperparameters on the current data, warm-started."""
    hypers, _ = fit_hyperparameters(model.train, rng=rng, init=model.hyper,
                                    **kwargs)
    out = GpModel.from_data(model.train, hypers, model.max_points)
    return replace(out, insertion_order=model.insertion_order)


# ---------------------------------------------------------------------------
# Point-input posterior
# ---------------------------------------------------------------------------

def posterior_predict(model: GpModel, x):
    """Posterior mean and variance of the increment at a known state.

    The variance includes the noise term sigma_w^2; with no data this is the
    prior (0, sigma_s^2 + sigma_w^2) per dimension.
    """
    x = np.asarray(x, dtype=float)
    n = model.state_dim
    mean = np.zeros(n)
    var = np.zeros(n)
    for dim, h in enumerate(model.hyper):
        if model.n_points == 0:
            var[dim] = h.sigma_s ** 2 + h.sigma_w ** 2
            continue
        k = kernel_vector(model.train.inputs, x, h)
        mean[dim] = float(k @ model.alphas[dim])
        sol = solve_triangular(model.chols[dim], k, lower=True)
        var[dim] = max(h.sigma_s ** 2 + h.sigma_w ** 2 - float(sol @ sol), 0.0)
    return mean, var


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: GpModel, path) -> None:
    doc = {
        "state_dim": model.state_dim,
        "hyper": [
            {"log_sigma_s": h.log_sigma_s, "log_sigma_w": h.log_sigma_w,
             "log_w": list(map(float, h.log_w))}
            for h in model.hyper
        ],
        "inputs": model.train.inputs.tolist(),
        "outputs": model.train.outputs.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path, max_points: int | None = None) -> GpModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        n = int(doc["state_dim"])
        hypers = tuple(
            KernelHyper(float(h["log_sigma_s"]), float(h["log_sigma_w"]),
                        np.asarray(h["log_w"], dtype=float))
            for h in doc["hyper"])
        inputs = np.asarray(doc["inputs"], dtype=float).reshape(-1, n)
        outputs = np.asarray(doc["outputs"], dtype=float).reshape(-1, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model document: {exc}") from exc
    train = TrainingSet(inputs, outputs)
    if train.size == 0:
        return GpModel.empty(n, hypers, max_points)
    return GpModel.from_data(train, hypers, max_points)
