"""Gaussian process models of passive state increments.

One independent GP per output dimension over a shared input set.  Training
targets are passive increments: the known control contribution
G(x) u_applied dt is subtracted when a transition sample is ingested and
added back analytically at prediction time, so a single model stays valid
under any control sequence.

Kernel: k(xi, xj) = sigma_s^2 exp(-0.5 (xi-xj)' W (xi-xj)) + delta_ij sigma_w^2
with W a diagonal matrix of inverse squared length scales.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

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
    """Fitted increment model: training data, hyperparameters, factorizations.

    Immutable; `incorporate_sample` and refits return new values, so a model
    may be shared freely across concurrent rollouts.
    """

    train: TrainingSet
    hyper: tuple          # one KernelHyper per output dimension
    chols: tuple = field(repr=False, default=())   # (N, N) lower per dim
    alphas: tuple = field(repr=False, default=())  # (N,) per dim
    inv_grams: tuple = field(repr=False, default=())  # (N, N) per dim
    max_points: int | None = None
    insertion_order: tuple = ()

    @property
    def state_dim(self) -> int:
        return self.train.inputs.shape[1]

    @property
    def n_points(self) -> int:
        return self.train.size

    @staticmethod
    def from_data(train: TrainingSet, hyper, max_points: int | None = None) -> "GpModel":
        hyper = tuple(hyper)
        if len(hyper) != train.inputs.shape[1]:
            raise ConfigError("need one KernelHyper per output dimension")
        chols, alphas, invs = _factorize_all(train, hyper)
        return GpModel(train, hyper, chols, alphas, invs, max_points,
                       tuple(range(train.size)))

    @staticmethod
    def empty(state_dim: int, hyper=None, max_points: int | None = None) -> "GpModel":
        if hyper is None:
            hyper = tuple(KernelHyper.create(1.0, 0.1, np.ones(state_dim))
                          for _ in range(state_dim))
        hyper = tuple(hyper)
        return GpModel(TrainingSet.empty(state_dim), hyper,
                       tuple(np.zeros((0, 0)) for _ in hyper),
                       tuple(np.zeros(0) for _ in hyper),
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


def kernel_matrix(X: np.ndarray, hyper: KernelHyper, with_noise: bool = True) -> np.ndarray:
    """Gram matrix of the kernel over rows of X."""
    Xs = X * np.sqrt(hyper.w)
    sq = np.sum(Xs ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Xs @ Xs.T)
    np.maximum(d2, 0.0, out=d2)
    K = hyper.sigma_s ** 2 * np.exp(-0.5 * d2)
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


def _factorize_all(train: TrainingSet, hyper):
    chols, alphas, invs = [], [], []
    n_pts = train.size
    eye = np.eye(n_pts)
    for dim, h in enumerate(hyper):
        if n_pts == 0:
            chols.append(np.zeros((0, 0)))
            alphas.append(np.zeros(0))
            invs.append(np.zeros((0, 0)))
            continue
        K = kernel_matrix(train.inputs, h)
        L, _ = chol_with_jitter(K)
        alphas.append(cho_solve((L, True), train.outputs[:, dim]))
        invs.append(cho_solve((L, True), eye))
        chols.append(L)
    return tuple(chols), tuple(alphas), tuple(invs)


# ---------------------------------------------------------------------------
# Marginal likelihood and hyperparameter fitting
# ---------------------------------------------------------------------------

def log_marginal_likelihood(train: TrainingSet, hyper: KernelHyper, dim: int):
    """Log marginal likelihood of one output dimension and its gradient.

    The gradient is taken with respect to the log hyperparameters in the
    order (log_sigma_s, log_sigma_w, log_w_1..log_w_n).
    """
    if train.size < 1:
        raise ConfigError("need at least one training pair")
    X = train.inputs
    y = train.outputs[:, dim]
    N, n = X.shape
    K = kernel_matrix(X, hyper)
    try:
        L, _ = chol_with_jitter(K)
    except NumericalError:
        return -1e18, np.zeros(n + 2)
    alpha = cho_solve((L, True), y)
    lml = -0.5 * float(y @ alpha) - float(np.sum(np.log(np.diag(L)))) \
        - 0.5 * N * np.log(2.0 * np.pi)

    iK = cho_solve((L, True), np.eye(N))
    U = np.outer(alpha, alpha) - iK
    Ksig = kernel_matrix(X, hyper, with_noise=False)

    grad = np.empty(n + 2)
    grad[0] = float(np.sum(U * Ksig))                       # d/d log sigma_s
    grad[1] = hyper.sigma_w ** 2 * float(np.trace(U))       # d/d log sigma_w
    V = U * Ksig
    w = hyper.w
    for j in range(n):
        a = X[:, j]
        row = V @ a
        s_r = V.sum(axis=1)
        s_c = V.sum(axis=0)
        quad = float(a ** 2 @ s_r + a ** 2 @ s_c - 2.0 * a @ row)
        grad[2 + j] = -0.25 * w[j] * quad
    return lml, grad


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
                        init=None, share_lengthscales: bool = False):
    """Fit kernel hyperparameters by restarted gradient ascent.

    Random restarts are probed with a short iteration budget and only the
    most promising candidate is polished to the full budget.  With
    `share_lengthscales` the length scales are tied across output dimensions
    and the summed marginal likelihood is ascended jointly (the tied model
    makes the uncertain-input moment computation far cheaper).  Returns
    (hypers, status) where status is 'ok' or 'no-improvement'.
    """
    if train.size < 2:
        raise ConfigError("need at least two training pairs to fit")
    if rng is None:
        rng = np.random.default_rng(0)
    n = train.inputs.shape[1]

    if share_lengthscales:
        return _fit_shared(train, rng, n_restarts, max_iters, probe_iters, init)

    hypers = []
    status = "ok"
    for dim in range(n):
        def objective(theta, _dim=dim):
            return log_marginal_likelihood(
                train, KernelHyper.from_vector(theta), _dim)

        base = init[dim] if init is not None else _default_init(train, dim)
        theta_base = np.clip(base.as_vector(), *LOG_HYPER_BOUNDS)
        f0, _ = objective(theta_base)
        theta, f = _restarted_ascent(objective, theta_base, rng, n_restarts,
                                     probe_iters, max_iters)
        if f < f0:
            logger.warning("hyperparameter fit failed to improve (dim %d)", dim)
            status = "no-improvement"
            theta, f = theta_base, f0
        hypers.append(KernelHyper.from_vector(theta))
    return hypers, status


def _fit_shared(train, rng, n_restarts, max_iters, probe_iters, init):
    """Joint fit with one set of length scales for all output dimensions.

    Parameter vector: per-dim log sigma_s (E), per-dim log sigma_w (E),
    shared log_w (n).
    """
    n = train.inputs.shape[1]
    E = n

    def objective(theta):
        total = 0.0
        grad = np.zeros_like(theta)
        log_w = theta[2 * E:]
        for dim in range(E):
            h = KernelHyper(float(theta[dim]), float(theta[E + dim]), log_w)
            f, g = log_marginal_likelihood(train, h, dim)
            total += f
            grad[dim] += g[0]
            grad[E + dim] += g[1]
            grad[2 * E:] += g[2:]
        return total, grad

    if init is not None:
        sig = [h.log_sigma_s for h in init]
        noi = [h.log_sigma_w for h in init]
        log_w = np.mean([h.log_w for h in init], axis=0)
    else:
        defaults = [_default_init(train, dim) for dim in range(E)]
        sig = [h.log_sigma_s for h in defaults]
        noi = [h.log_sigma_w for h in defaults]
        log_w = np.mean([h.log_w for h in defaults], axis=0)
    theta_base = np.clip(np.concatenate([sig, noi, log_w]), *LOG_HYPER_BOUNDS)
    f0, _ = objective(theta_base)
    theta, f = _restarted_ascent(objective, theta_base, rng, n_restarts,
                                 probe_iters, max_iters)
    status = "ok"
    if f < f0:
        logger.warning("shared hyperparameter fit failed to improve")
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


def _rank1_extend(model: GpModel, x_new: np.ndarray, d_new: np.ndarray) -> GpModel:
    """Append one point, extending factorizations in O(N^2) per dimension."""
    X = model.train.inputs
    chols, alphas, invs = [], [], []
    for dim, h in enumerate(model.hyper):
        k = kernel_vector(X, x_new, h)
        kappa = h.sigma_s ** 2 + h.sigma_w ** 2
        L = model.chols[dim]
        l2 = solve_triangular(L, k, lower=True) if L.size else np.zeros(0)
        rem = kappa - float(l2 @ l2)
        if rem <= 1e-12 * kappa:
            return None  # caller falls back to a full refactorization
        l3 = np.sqrt(rem)
        n_old = L.shape[0]
        Ln = np.zeros((n_old + 1, n_old + 1))
        Ln[:n_old, :n_old] = L
        Ln[n_old, :n_old] = l2
        Ln[n_old, n_old] = l3
        y = np.append(model.train.outputs[:, dim], d_new[dim])
        alphas.append(cho_solve((Ln, True), y))
        iK = model.inv_grams[dim]
        s = rem
        iKk = iK @ k if iK.size else np.zeros(0)
        top = iK + np.outer(iKk, iKk) / s if iK.size else np.zeros((0, 0))
        iKn = np.zeros((n_old + 1, n_old + 1))
        iKn[:n_old, :n_old] = top
        iKn[n_old, :n_old] = -iKk / s
        iKn[:n_old, n_old] = -iKk / s
        iKn[n_old, n_old] = 1.0 / s
        invs.append(iKn)
        chols.append(Ln)
    train = TrainingSet(np.vstack([X, x_new[None, :]]),
                        np.vstack([model.train.outputs, d_new[None, :]]))
    order = model.insertion_order + (max(model.insertion_order, default=-1) + 1,)
    return GpModel(train, model.hyper, tuple(chols), tuple(alphas),
                   tuple(invs), model.max_points, order)


def _evict_index(model: GpModel) -> int:
    """Pick the most redundant point: older member of the closest input pair."""
    X = model.train.inputs
    w = np.mean([h.w for h in model.hyper], axis=0)
    Xs = X * np.sqrt(w)
    sq = np.sum(Xs ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * Xs @ Xs.T
    np.fill_diagonal(d2, np.inf)
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    order = model.insertion_order
    return i if order[i] <= order[j] else j


def incorporate_sample(model: GpModel, x, u_applied, x_next, plant_G,
                       dt: float):
    """Add one transition sample; returns (new_model, status).

    Non-finite transitions are rejected with status 'rejected'.  The
    hyperparameters are left untouched; refitting happens on the harness
    schedule, not here.
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

    extended = _rank1_extend(model, x, d)
    if extended is None:
        train = TrainingSet(np.vstack([model.train.inputs, x[None, :]]),
                            np.vstack([model.train.outputs, d[None, :]]))
        extended = GpModel.from_data(train, model.hyper, model.max_points)
    if extended.max_points is not None and extended.n_points > extended.max_points:
        idx = _evict_index(extended)
        keep = np.arange(extended.n_points) != idx
        train = TrainingSet(extended.train.inputs[keep],
                            extended.train.outputs[keep])
        order = tuple(o for k, o in zip(keep, extended.insertion_order) if k)
        extended = replace(GpModel.from_data(train, extended.hyper,
                                             extended.max_points),
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
