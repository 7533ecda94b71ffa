"""Gaussian process models of passive state increments.

One GP per output dimension over a shared input set.  Training targets are
passive increments: the known control contribution G(x) u_applied dt is
subtracted when a transition sample is ingested and added back analytically
at prediction time, so a single model stays valid under any control
sequence.

Kernel of output dimension e:
    k_e(xi, xj) = sigma_s,e^2 exp(-0.5 (xi-xj)' W (xi-xj)) + delta_ij sigma_w,e^2
with W a diagonal matrix of inverse squared length scales.  A model has one
W for all its outputs (`KernelHyper`), so every output's Gram matrix is a
scaled copy of one unit-amplitude kernel plus noise, and the marginal
likelihood of all outputs is evaluated in the eigenbasis of that one kernel,
with a jitter ladder on its eigenvalues (`tied_log_marginal_likelihood`).

A model is its training set, hyperparameters and insertion order.  Its
Cholesky factors of the Grams, one per output dimension, are derived on
first read and cached on the model, and so are the alphas K^-1 y and the
inverse Grams that prediction derives from them.  A sample added to a model
that has its factors updates them in O(N^2) per dimension: at `max_points`
the evicted point's row and column are removed by Givens rotations, and the
new point is appended by one triangular solve.  A sample added to a model
without factors updates only the training set, so the random-control
rollouts that seed a model before its first refit factorize nothing.
Inverses are never carried from one update to the next, as their
Schur-complement updates drift.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, lapack, qr_delete, solve_triangular

from .errors import ConfigError, NumericalError

logger = logging.getLogger(__name__)

JITTER_BASE = 1e-10
JITTER_MAX = 1e-4
LOG_HYPER_BOUNDS = (-12.0, 8.0)
# value of `tied_log_marginal_likelihood` past its jitter ladder
_SENTINEL = -1e18


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def _squares(log_sigma: np.ndarray) -> np.ndarray:
    # squared entry by entry in C pow, which rounds differently from numpy's
    # s * s in about one case in a thousand: every artifact of a seeded run
    # depends on these bits
    return np.array([s ** 2 for s in np.exp(log_sigma).tolist()])


@dataclass(frozen=True)
class KernelHyper:
    """Kernel hyperparameters of a whole increment model, in log space.

    Output dimension e has signal amplitude sigma_s[e] and noise sigma_w[e];
    every output shares the one diagonal W of inverse squared length scales.
    `as_vector` is the theta layout of `tied_log_marginal_likelihood`.  The
    derived arrays (`w`, the variances) are cached on first read; callers
    must not write into them.
    """

    log_sigma_s: np.ndarray  # (E,)
    log_sigma_w: np.ndarray  # (E,)
    log_w: np.ndarray        # (n,) log inverse squared length scales

    def __post_init__(self):
        for name in ("log_sigma_s", "log_sigma_w", "log_w"):
            object.__setattr__(self, name, np.atleast_1d(
                np.asarray(getattr(self, name), dtype=float)))
        if not (self.log_sigma_s.ndim == self.log_w.ndim == 1
                and self.log_sigma_s.shape == self.log_sigma_w.shape):
            raise ConfigError("need one log_sigma_s and one log_sigma_w per "
                              "output dimension and a vector log_w")
        if not np.all(np.isfinite(self.as_vector())):
            raise ConfigError("kernel hyperparameters must be finite")

    @cached_property
    def w(self) -> np.ndarray:
        """Diagonal of W (inverse squared length scales)."""
        return np.exp(self.log_w)

    @cached_property
    def signal_var(self) -> np.ndarray:
        """sigma_s^2 per output dimension."""
        return _squares(self.log_sigma_s)

    @cached_property
    def noise_var(self) -> np.ndarray:
        """sigma_w^2 per output dimension."""
        return _squares(self.log_sigma_w)

    @cached_property
    def prior_var(self) -> np.ndarray:
        """Prior variance sigma_s^2 + sigma_w^2 per output dimension."""
        return self.signal_var + self.noise_var

    def as_vector(self) -> np.ndarray:
        return np.concatenate((self.log_sigma_s, self.log_sigma_w, self.log_w))

    @staticmethod
    def from_vector(vec, n_outputs: int) -> "KernelHyper":
        E = n_outputs
        return KernelHyper(vec[:E], vec[E:2 * E], vec[2 * E:])

    @staticmethod
    def create(sigma_s, sigma_w, w) -> "KernelHyper":
        """From positive values.  A scalar sigma_s or sigma_w stands for one
        value per entry of w, the outputs of a state-increment model."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        s, noise = (np.full(w.size, v, dtype=float) if np.ndim(v) == 0
                    else np.asarray(v, dtype=float) for v in (sigma_s, sigma_w))
        if np.any(s <= 0) or np.any(noise <= 0) or np.any(w <= 0):
            raise ConfigError("sigma_s, sigma_w and W diagonal must be positive")
        return KernelHyper(np.log(s), np.log(noise), np.log(w))


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
    """Increment model: training data, hyperparameters, insertion order.

    `chols`, the lower Cholesky factor of each output dimension's Gram, is
    the only factorization.  `from_data` computes it at once, and
    `incorporate_sample` builds it in O(N^2) from a `factored` model's.
    Any other model, such as `empty` and the models updated from it,
    factorizes on first read, in O(N^3) per dimension.  The other derived
    arrays are computed on first access and cached in the instance too:
    `alphas` and `inv_grams` from the factors, and from them and `hyper`
    the constants that every moment-matching step reads (`inv_w`,
    `log_det_w`, `two_w`, `scaled_alphas`, `signal_var_outer`,
    `signal_var_sq`, `inv_grams_flat` and `inv_grams_flat_t`), none of
    which costs an O(N^3) routine of its own.  A model made by `dataclasses.replace` starts without any of them,
    factors included.  Immutable otherwise: `incorporate_sample` and refits
    return new values, and the cached values are deterministic functions of
    the fields, so a model may be shared freely across concurrent rollouts
    (two first reads at once compute the same arrays).  Callers must not
    write into the arrays they read.
    """

    train: TrainingSet
    hyper: KernelHyper
    max_points: int | None = None
    insertion_order: tuple = ()

    def __post_init__(self):
        if self.max_points is not None and self.max_points < 1:
            raise ConfigError("max_points must be at least 1")
        n = self.train.inputs.shape[1]
        if self.hyper.log_sigma_s.size != n or self.hyper.log_w.size != n:
            raise ConfigError("need one amplitude and one noise level per "
                              "output dimension and one length scale per "
                              "input dimension")

    @property
    def state_dim(self) -> int:
        return self.train.inputs.shape[1]

    @property
    def n_points(self) -> int:
        return self.train.size

    @property
    def factored(self) -> bool:
        """Whether the Cholesky factors are computed already."""
        return "chols" in self.__dict__

    @cached_property
    def chols(self) -> tuple:
        """Lower Cholesky factor of each output dimension's Gram, (N, N)
        each, by `chol_with_jitter`: O(N^3) per dimension."""
        Kw = kernel_matrix(self.train.inputs, self.hyper.w)
        diag = np.diag_indices(self.n_points)
        chols = []
        for s2, noise2 in zip(self.hyper.signal_var, self.hyper.noise_var):
            K = s2 * Kw
            K[diag] += noise2
            chols.append(chol_with_jitter(K)[0])
        return tuple(chols)

    def _with_chols(self, chols) -> "GpModel":
        """This model, its factors set to `chols`, which an incremental
        update built; returns self."""
        self.__dict__["chols"] = tuple(chols)
        return self

    @cached_property
    def alphas(self) -> np.ndarray:
        """K^-1 y of each output dimension, (E, N): two triangular solves
        per row."""
        return np.stack([cho_solve((L, True), self.train.outputs[:, dim])
                         if L.size else np.zeros(0)
                         for dim, L in enumerate(self.chols)])

    @cached_property
    def inv_grams(self) -> np.ndarray:
        """K^-1 of each output dimension, (E, N, N), by LAPACK potri on L.
        C-contiguous, so that the flat (E, N*N) view is free."""
        out = np.empty((len(self.chols), self.n_points, self.n_points))
        for dim, L in enumerate(self.chols):
            out[dim] = _chol_inverse(L)
        return out

    # The constants of Gaussian-input moment matching (`moments`), which
    # depend on the model alone; each belief step reads them.

    @cached_property
    def inv_w(self) -> np.ndarray:
        """W^-1 as an (n, n) matrix."""
        return np.diag(1.0 / self.hyper.w)

    @cached_property
    def log_det_w(self) -> float:
        """log |W|."""
        return float(np.sum(np.log(self.hyper.w)))

    @cached_property
    def two_w(self) -> np.ndarray:
        """2 w, the diagonal of 2 W."""
        return 2.0 * self.hyper.w

    @cached_property
    def scaled_alphas(self) -> np.ndarray:
        """sigma_s^2 alpha of each output dimension, (E, N)."""
        return self.hyper.signal_var[:, None] * self.alphas

    @cached_property
    def signal_var_outer(self) -> np.ndarray:
        """sigma_s,a^2 sigma_s,b^2 of each output pair, (E, E)."""
        return np.outer(self.hyper.signal_var, self.hyper.signal_var)

    @cached_property
    def signal_var_sq(self) -> np.ndarray:
        """sigma_s^4 per output dimension."""
        return self.hyper.signal_var ** 2

    @cached_property
    def inv_grams_flat(self) -> np.ndarray:
        """The (E, N*N) view of `inv_grams`."""
        return self.inv_grams.reshape(len(self.chols), -1)

    @cached_property
    def inv_grams_flat_t(self) -> np.ndarray:
        """The (N*N, E) transpose of `inv_grams_flat`."""
        return self.inv_grams_flat.T

    @staticmethod
    def from_data(train: TrainingSet, hyper: KernelHyper,
                  max_points: int | None = None,
                  insertion_order: tuple | None = None) -> "GpModel":
        """The model of `train` under `hyper`, factorized now.  The
        insertion order defaults to the order of the rows."""
        if insertion_order is None:
            insertion_order = tuple(range(train.size))
        model = GpModel(train, hyper, max_points, insertion_order)
        model.chols             # factorized now, not on first read
        return model

    @staticmethod
    def empty(state_dim: int, hyper: KernelHyper | None = None,
              max_points: int | None = None) -> "GpModel":
        """A model without data and without factors, so that the samples
        added to it update only its training set until something reads its
        factors.  `hyper` defaults to sigma_s = 1, sigma_w = 0.1, W = I."""
        if hyper is None:
            hyper = KernelHyper.create(1.0, 0.1, np.ones(state_dim))
        return GpModel(TrainingSet.empty(state_dim), hyper, max_points)


# ---------------------------------------------------------------------------
# Kernel and factorization
# ---------------------------------------------------------------------------

def _sq_dist(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared distances (xi-xj)' W (xi-xj) between rows of X, clipped at 0.

    The rows are centred first: the expansion |xi|^2 + |xj|^2 - 2 xi'xj
    cancels catastrophically for rows far from the origin.
    """
    Xs = (X - np.mean(X, axis=0)) * np.sqrt(w) if len(X) else X
    sq = np.sum(Xs ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Xs @ Xs.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def kernel_matrix(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit-amplitude Gram matrix exp(-0.5 (xi-xj)' W (xi-xj)) over rows of
    X.  Output e's Gram is sigma_s,e^2 times it plus sigma_w,e^2 I."""
    return np.exp(-0.5 * _sq_dist(X, w))


def kernel_vector(X: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit-amplitude kernel between the rows of X and one state x."""
    d = X - x
    return np.exp(-0.5 * np.sum(d * d * w, axis=1))


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
    # centred, as the length-scale gradient expands the squared distances
    X, Y = train.inputs - np.mean(train.inputs, axis=0), train.outputs
    N, E = Y.shape
    theta = np.asarray(theta, dtype=float)
    s2 = np.exp(2.0 * theta[:E])
    noise2 = np.exp(2.0 * theta[E:2 * E])
    w = np.exp(theta[2 * E:])
    Kw = kernel_matrix(X, w)
    lam, Q = np.linalg.eigh(Kw)
    scale = s2 + noise2
    D = lam[:, None] * s2 + noise2
    floor = N * np.finfo(float).eps * scale
    jitter = np.zeros(E)
    rung = JITTER_BASE
    bad = ~(np.min(D, axis=0) > floor)          # a NaN counts as bad
    while np.any(bad):
        if rung > JITTER_MAX:
            return _SENTINEL, np.zeros(theta.size)
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


def log_marginal_likelihood(train: TrainingSet, hyper: KernelHyper):
    """Summed log marginal likelihood of the output columns of `train` under
    `hyper`, and its gradient in the layout of `hyper.as_vector()`."""
    return tied_log_marginal_likelihood(train, hyper.as_vector())


def _default_init(train: TrainingSet) -> KernelHyper:
    X, Y = train.inputs, train.outputs
    sx = np.std(X, axis=0)
    sx[sx < 1e-3] = 1.0
    # column by column: a reduction over axis 0 sums in another order
    sy = np.array([max(float(np.std(y)), 1e-6) for y in Y.T])
    return KernelHyper.create(sy, np.maximum(0.1 * sy, 1e-6), 1.0 / sx ** 2)


def _lbfgs_ascent(objective, theta, f, g, max_iters: int):
    """Limited-memory BFGS ascent (Nocedal 1980) in log-hyper space, from
    `theta` with value f and gradient g, for at most `max_iters` accepted
    steps.  Returns (theta, f) after the last accepted step, or the start
    when no step is accepted.

    The direction comes from the two-loop recursion over the last 10 pairs
    (s, y) with s'y > 1e-10 y'y, restricted to the coordinates not held at
    a bound, and is taken by `_armijo_step`.  Without pairs, or when that
    direction is no ascent direction or finds no Armijo point, the pairs
    are dropped and the projected gradient, scaled to at most 1 per
    coordinate, is tried instead.  It stops when the projected gradient is
    below 1e-6 max(1, |f|), at a sentinel start, or when that
    steepest-ascent step fails too.
    """
    lo, hi = LOG_HYPER_BOUNDS
    pairs = deque(maxlen=10)
    for _ in range(max_iters):
        free = ~(((theta <= lo) & (g < 0)) | ((theta >= hi) & (g > 0)))
        pg = np.where(free, g, 0.0)
        if f <= _SENTINEL or np.max(np.abs(pg)) < 1e-6 * max(1.0, abs(f)):
            break
        step = None
        if pairs:
            d = _two_loop(pg, pairs)
            d[~free] = 0.0
            if float(g @ d) > 0.0:
                step = _armijo_step(objective, theta, f, g, d)
        if step is None:
            pairs.clear()
            step = _armijo_step(objective, theta, f, g,
                                pg / max(1.0, float(np.max(np.abs(pg)))))
            if step is None:
                break
        cand, f2, g2 = step
        s, y = cand - theta, g - g2
        if float(s @ y) > 1e-10 * float(y @ y):
            pairs.append((s, y))
        theta, f, g = cand, f2, g2
    return theta, f


def _armijo_step(objective, theta, f, g, d):
    """(theta', f', g') at the first theta' = clip(theta + 2^-k d) onto
    LOG_HYPER_BOUNDS, k = 0..13, with f' > f + max(1e-4 g'(theta' - theta),
    0), which no sentinel value and no decrease pass; None if none does."""
    for k in range(14):
        cand = np.clip(theta + 0.5 ** k * d, *LOG_HYPER_BOUNDS)
        f2, g2 = objective(cand)
        if f2 > f + max(1e-4 * float(g @ (cand - theta)), 0.0):
            return cand, f2, g2
    return None


def _two_loop(g, pairs):
    """H g for the L-BFGS inverse-Hessian estimate H of -f built from
    `pairs`, scaled by s'y / y'y of the newest pair."""
    q = g.copy()
    coeffs = []
    for s, y in reversed(pairs):
        a = float(s @ q) / float(s @ y)
        q -= a * y
        coeffs.append(a)
    s, y = pairs[-1]
    r = (float(s @ y) / float(y @ y)) * q
    for (s, y), a in zip(pairs, reversed(coeffs)):
        r += (a - float(y @ r) / float(s @ y)) * s
    return r


def fit_hyperparameters(train: TrainingSet, *, rng=None, n_restarts: int = 4,
                        max_iters: int = 200,
                        init: KernelHyper | None = None):
    """Fit a model's kernel hyperparameters by L-BFGS ascent from the best
    of several starts.

    One W serves every output dimension (it makes the uncertain-input moment
    computation far cheaper), and `tied_log_marginal_likelihood` is ascended
    over all dimensions jointly: one `eigh` of the length-scale Gram per
    evaluation, with the jitter rule stated there.  `init` warm-starts the
    fit; without it the start comes from the data's spread.

    Restart rule: the `n_restarts` perturbations N(0, 0.7^2) of the start
    are all drawn from `rng` first, then the start and each perturbation,
    clipped onto LOG_HYPER_BOUNDS, are evaluated once, and the ascent runs
    for up to `max_iters` steps from the first start of the highest value.
    Returns (hyper, status) where status is 'ok' or, when the result is
    below the unperturbed start or the likelihood's sentinel,
    'no-improvement' (with the unperturbed start returned).
    """
    if train.size < 2:
        raise ConfigError("need at least two training pairs to fit")
    if rng is None:
        rng = np.random.default_rng(0)
    base = init if init is not None else _default_init(train)
    theta_base = np.clip(base.as_vector(), *LOG_HYPER_BOUNDS)
    starts = [theta_base] + [
        np.clip(theta_base + rng.normal(scale=0.7, size=theta_base.size),
                *LOG_HYPER_BOUNDS)
        for _ in range(n_restarts)]

    def objective(theta):
        return tied_log_marginal_likelihood(train, theta)

    values = [objective(th) for th in starts]
    best = max(range(len(starts)), key=lambda i: values[i][0])
    theta, f = _lbfgs_ascent(objective, starts[best], *values[best],
                             max_iters)
    status = "ok"
    if f < values[0][0] or f <= _SENTINEL:
        logger.warning("hyperparameter fit failed to improve")
        status = "no-improvement"
        theta = theta_base
    return KernelHyper.from_vector(theta, train.outputs.shape[1]), status


# ---------------------------------------------------------------------------
# Sample ingestion
# ---------------------------------------------------------------------------

def passive_increment(x, u_applied, x_next, plant_G, dt: float) -> np.ndarray:
    """Subtract the known control contribution from an observed transition."""
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d(np.asarray(u_applied, dtype=float))
    return np.asarray(x_next, dtype=float) - x - (plant_G(x) @ u) * dt


def _rank1_extend(model: GpModel, train: TrainingSet, order: tuple):
    """Extend factored `model` to `train`, its training set plus one last
    point, by one row of each Cholesky factor, a triangular solve per
    dimension.  Returns None when a Schur complement is at most 1e-12 of the
    prior variance, where the row would lose precision."""
    h = model.hyper
    k_unit = kernel_vector(model.train.inputs, train.inputs[-1], h.w)
    chols = []
    for L, s2, kappa in zip(model.chols, h.signal_var, h.prior_var):
        k = s2 * k_unit
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
    return GpModel(train, h, model.max_points, order)._with_chols(chols)


def _evict_index(inputs: np.ndarray, order: tuple, w: np.ndarray) -> int:
    """Pick the most redundant point: older member of the closest input pair
    under the model's length scales."""
    d2 = _sq_dist(inputs, w)
    np.fill_diagonal(d2, np.inf)
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return i if order[i] <= order[j] else j


def _without_point(model: GpModel, idx: int) -> GpModel:
    """`model` without stored point `idx`, in its training set and its
    insertion order, and without factors."""
    keep = np.arange(model.n_points) != idx
    train = TrainingSet(model.train.inputs[keep], model.train.outputs[keep])
    order = model.insertion_order[:idx] + model.insertion_order[idx + 1:]
    return GpModel(train, model.hyper, model.max_points, order)


def _delete_point(model: GpModel, idx: int) -> GpModel:
    """Remove stored point `idx` from factored `model`, downdating each
    Cholesky factor in O(N^2).

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
    return _without_point(model, idx)._with_chols(chols)


def incorporate_sample(model: GpModel, x, u_applied, x_next, plant_G,
                       dt: float):
    """Add one transition sample; returns (new_model, status).

    Non-finite transitions are rejected with status 'rejected'.  At
    `max_points` the older member of the closest pair among the stored
    inputs and the new one is evicted first (never the new point).  Only a
    `factored` model has its factors updated, in O(N^2): the eviction by a
    Cholesky downdate and the new point by a one-row extension, or, when
    the new point is too close to a stored one for the extension, by
    refactorizing the final training set with the jitter ladder.  A model
    without factors gives one without factors, which derives them on first
    read, so the updates before a refit factorize nothing that the refit
    would discard.  The hyperparameters are left untouched; refitting
    happens on the harness schedule, not here.
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

    factored = model.factored
    new_label = max(model.insertion_order, default=-1) + 1
    if model.max_points is not None and model.n_points >= model.max_points:
        idx = _evict_index(np.vstack([model.train.inputs, x[None, :]]),
                           model.insertion_order + (new_label,), model.hyper.w)
        model = (_delete_point if factored else _without_point)(model, idx)
    order = model.insertion_order + (new_label,)
    train = TrainingSet(np.vstack([model.train.inputs, x[None, :]]),
                        np.vstack([model.train.outputs, d[None, :]]))
    if not factored:
        return GpModel(train, model.hyper, model.max_points, order), "ok"
    extended = _rank1_extend(model, train, order)
    if extended is None:
        extended = GpModel.from_data(train, model.hyper, model.max_points,
                                     order)
    return extended, "ok"


def refit(model: GpModel, rng=None, **kwargs) -> GpModel:
    """Refit hyperparameters on the current data, warm-started, and
    factorize at the fitted ones.  Reads only the model's training set,
    hyperparameters and insertion order, never its factors."""
    hyper, _ = fit_hyperparameters(model.train, rng=rng, init=model.hyper,
                                   **kwargs)
    return GpModel.from_data(model.train, hyper, model.max_points,
                             model.insertion_order)


# ---------------------------------------------------------------------------
# Point-input posterior
# ---------------------------------------------------------------------------

def posterior_predict(model: GpModel, x):
    """Posterior mean and variance of the increment at a known state.

    The variance includes the noise term sigma_w^2; with no data this is the
    prior (0, sigma_s^2 + sigma_w^2) per dimension.
    """
    x = np.asarray(x, dtype=float)
    h = model.hyper
    prior = h.prior_var
    if model.n_points == 0:
        return np.zeros(model.state_dim), prior
    k_unit = kernel_vector(model.train.inputs, x, h.w)
    mean = np.zeros(model.state_dim)
    var = np.zeros(model.state_dim)
    for dim, s2 in enumerate(h.signal_var):
        k = s2 * k_unit
        mean[dim] = float(k @ model.alphas[dim])
        sol = solve_triangular(model.chols[dim], k, lower=True)
        var[dim] = max(prior[dim] - float(sol @ sol), 0.0)
    return mean, var


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: GpModel, path) -> None:
    """Write `model` as JSON, with one `hyper` entry per output dimension;
    every entry repeats the model's one log_w."""
    h = model.hyper
    doc = {
        "state_dim": model.state_dim,
        "hyper": [
            {"log_sigma_s": float(s), "log_sigma_w": float(w),
             "log_w": list(map(float, h.log_w))}
            for s, w in zip(h.log_sigma_s, h.log_sigma_w)
        ],
        "inputs": model.train.inputs.tolist(),
        "outputs": model.train.outputs.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path, max_points: int | None = None) -> GpModel:
    """Read a model written by `save_model`.  Raises ConfigError for a
    malformed document, or one whose `hyper` entries differ in log_w."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        n = int(doc["state_dim"])
        entries = doc["hyper"]
        log_w = [np.asarray(h["log_w"], dtype=float) for h in entries]
        hyper = KernelHyper([float(h["log_sigma_s"]) for h in entries],
                            [float(h["log_sigma_w"]) for h in entries],
                            log_w[0])
        inputs = np.asarray(doc["inputs"], dtype=float).reshape(-1, n)
        outputs = np.asarray(doc["outputs"], dtype=float).reshape(-1, n)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed model document: {exc}") from exc
    if not all(np.array_equal(lw, log_w[0]) for lw in log_w[1:]):
        raise ConfigError("model document has differing log_w entries; a "
                          "model has one set of length scales")
    return GpModel.from_data(TrainingSet(inputs, outputs), hyper, max_points)
