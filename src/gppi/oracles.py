"""Independent numerical oracles used to verify the analytic machinery.

Nothing here shares code with the paths it checks: the phi integral is done
by adaptive quadrature, the path integral by tensor-product Gauss-Hermite
enumeration through the point-state GP chain, moment matching by Monte
Carlo, the marginal likelihood by one Cholesky factorization per output,
and the exact linear-Gaussian chain in closed form (which in turn
validates the tensor quadrature itself).  The GP oracles evaluate the point
posterior of the model's one W, the same for every output dimension.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy import integrate

from .errors import ConfigError
from .gp import GpModel, TrainingSet
from scipy.linalg import cho_solve, solve_triangular


# ---------------------------------------------------------------------------
# Marginal likelihood by Cholesky factorization
# ---------------------------------------------------------------------------

def cholesky_log_marginal_likelihood(train: TrainingSet, theta) -> float:
    """Summed log marginal likelihood of the output columns of `train` at
    theta = (log_sigma_s (E), log_sigma_w (E), log_w (n)): one Cholesky
    factorization per output, with the kernel built from explicit input
    differences and no jitter."""
    X, Y = train.inputs, train.outputs
    N, E = Y.shape
    theta = np.asarray(theta, dtype=float)
    Kw = np.exp(-0.5 * ((X[:, None, :] - X[None, :, :]) ** 2)
                @ np.exp(theta[2 * E:]))
    total = 0.0
    for d in range(E):
        L = np.linalg.cholesky(np.exp(2.0 * theta[d]) * Kw
                               + np.exp(2.0 * theta[E + d]) * np.eye(N))
        alpha = cho_solve((L, True), Y[:, d])
        total += (-0.5 * float(Y[:, d] @ alpha)
                  - float(np.sum(np.log(np.diag(L))))
                  - 0.5 * N * math.log(2.0 * math.pi))
    return total


# ---------------------------------------------------------------------------
# Adaptive quadrature of the phi integral
# ---------------------------------------------------------------------------

def quadrature_phi(mu, sigma, q_matrix, x_d, lam, step_weight,
                   tol=1e-10) -> float:
    """integral of N(x; mu, sigma) exp(-(w/2 lam) (x-xd)' Q (x-xd)) dx."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    q = np.atleast_2d(np.asarray(q_matrix, dtype=float))
    x_d = np.atleast_1d(np.asarray(x_d, dtype=float))
    n = mu.shape[0]
    scale = step_weight / (2.0 * lam)

    if n == 1:
        s = math.sqrt(max(sigma[0, 0], 1e-300))
        lo, hi = mu[0] - 10 * s, mu[0] + 10 * s

        def f(x):
            d = x - x_d[0]
            return (math.exp(-0.5 * ((x - mu[0]) / s) ** 2)
                    / (s * math.sqrt(2 * math.pi))
                    * math.exp(-scale * q[0, 0] * d * d))

        val, _ = integrate.quad(f, lo, hi, epsabs=tol, epsrel=tol, limit=200)
        return float(val)
    if n == 2:
        L = np.linalg.cholesky(sigma + 1e-14 * np.trace(sigma) * np.eye(2))
        inv = np.linalg.inv(sigma + 1e-14 * np.trace(sigma) * np.eye(2))
        norm = 1.0 / (2 * math.pi * math.sqrt(np.linalg.det(
            sigma + 1e-14 * np.trace(sigma) * np.eye(2))))
        s0 = math.sqrt(sigma[0, 0])
        s1 = math.sqrt(sigma[1, 1])

        def f(y, x):
            d = np.array([x, y]) - mu
            e = np.array([x, y]) - x_d
            return (norm * math.exp(-0.5 * d @ inv @ d)
                    * math.exp(-scale * (e @ q @ e)))

        val, _ = integrate.dblquad(
            f, mu[0] - 9 * s0, mu[0] + 9 * s0,
            lambda x: mu[1] - 9 * s1, lambda x: mu[1] + 9 * s1,
            epsabs=tol * 10, epsrel=1e-9)
        return float(val)
    raise ConfigError("quadrature oracle supports 1-D and 2-D only")


# ---------------------------------------------------------------------------
# Tensor-product Gauss-Hermite path integral through the GP chain
# ---------------------------------------------------------------------------

def _gh_grid(n_dims: int, nodes_per_dim: int):
    nodes, weights = hermegauss(nodes_per_dim)   # weight exp(-x^2/2)
    weights = weights / math.sqrt(2 * math.pi)
    grids = np.meshgrid(*([nodes] * n_dims), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = np.ones(pts.shape[0])
    for axis in range(n_dims):
        w = w * weights[np.meshgrid(*([np.arange(nodes_per_dim)] * n_dims),
                                    indexing="ij")[axis].ravel()]
    return pts, np.log(w)


def _point_predict_batch(model: GpModel, xs: np.ndarray):
    """Posterior mean and variance (incl. noise) per dim for many states."""
    M, n = xs.shape
    h = model.hyper
    if model.n_points == 0:
        return np.zeros((M, n)), np.tile(h.prior_var, (M, 1))
    X = model.train.inputs
    d2 = np.zeros((M, X.shape[0]))
    for j in range(n):
        d2 += h.w[j] * (xs[:, j, None] - X[None, :, j]) ** 2
    kk_unit = np.exp(-0.5 * d2)
    means = np.empty((M, n))
    varis = np.empty((M, n))
    for dim, (s2, prior) in enumerate(zip(h.signal_var, h.prior_var)):
        kk = s2 * kk_unit
        means[:, dim] = kk @ model.alphas[dim]
        sol = solve_triangular(model.chols[dim], kk.T, lower=True)
        varis[:, dim] = np.maximum(
            prior - np.einsum("nm,nm->m", sol, sol), 1e-300)
    return means, varis


def path_integral_quadrature(model: GpModel, x0, controls, plant,
                             cost, nodes_per_dim: int = 5,
                             chunk: int = 50_000) -> float:
    """log of the full path integral via per-step Gauss-Hermite enumeration.

    The chain transitions are the point-state GP posteriors (diagonal
    covariance by output independence) with the known control contribution
    folded in; interior states carry weight exp(-(dt/2 lam) q), the terminal
    state exp(-(1/2 lam) q_T).  Exact tree enumeration, chunked level by
    level; feasible for <= 2 state dimensions and <= 5 steps.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.shape[0]
    T = cost.horizon_steps
    u = np.atleast_2d(np.asarray(controls, dtype=float))
    if n > 2 or T > 6:
        raise ConfigError("path-integral oracle limited to 2 states, 6 steps")
    xi, logw_node = _gh_grid(n, nodes_per_dim)

    # state-independent control matrices admit a vectorized control term
    g_probe = plant.control_matrix(x0)
    g_const = np.allclose(plant.control_matrix(x0 + 0.37), g_probe)

    states = x0[None, :]
    logw = np.zeros(1)
    for t in range(T):
        new_states = []
        new_logw = []
        for lo in range(0, states.shape[0], chunk):
            xs = states[lo:lo + chunk]
            lw = logw[lo:lo + chunk]
            mean_f, var_f = _point_predict_batch(model, xs)
            if g_const:
                g_term = np.broadcast_to(g_probe @ u[t], xs.shape)
            else:
                g_term = np.stack([plant.control_matrix(x) @ u[t] for x in xs])
            centers = xs + mean_f + g_term * cost.dt
            std = np.sqrt(var_f)
            # children: centers (M, n) + std (M, n) * xi (K, n)
            child = centers[:, None, :] + std[:, None, :] * xi[None, :, :]
            child = child.reshape(-1, n)
            w_child = (lw[:, None] + logw_node[None, :]).reshape(-1)
            d = child - cost.x_d
            if t + 1 < T:
                w_child = w_child - (cost.dt / (2 * cost.lam)) * np.einsum(
                    "mi,ij,mj->m", d, cost.Q, d)
            else:
                w_child = w_child - (1.0 / (2 * cost.lam)) * np.einsum(
                    "mi,ij,mj->m", d, cost.Q_terminal, d)
            new_states.append(child)
            new_logw.append(w_child)
        states = np.concatenate(new_states)
        logw = np.concatenate(new_logw)
    peak = logw.max()
    return float(peak + np.log(np.sum(np.exp(logw - peak))))


# ---------------------------------------------------------------------------
# Closed-form linear-Gaussian chain (validates the tensor oracle)
# ---------------------------------------------------------------------------

def linear_chain_log_integral(A, b, W, cost, x0) -> float:
    """Exact log path integral for x_{j+1} = A x_j + b + N(0, W).

    Interior weights exp(-(dt/2 lam) q_j), terminal exp(-(1/2 lam) q_T),
    propagated backward in closed form through Gaussian integrals of
    exponentiated quadratics.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    n = A.shape[0]
    T = cost.horizon_steps
    lam = cost.lam

    def cost_quadratic(q_mat, scale):
        P = scale * q_mat
        r = -P @ cost.x_d
        c = 0.5 * float(cost.x_d @ P @ cost.x_d)
        return P, r, c

    # interior weight of every step 1..T-1
    Pq, rq, cq = cost_quadratic(cost.Q, cost.dt / lam)
    # value exponent at step j as exp(-0.5 x'Px - r'x - c)
    P, r, c = cost_quadratic(cost.Q_terminal, 1.0 / lam)
    for j in range(T - 1, 0, -1):
        # integrate y ~ N(Ax + b, W) against exp(-0.5 y'Py - r'y - c)
        J = np.eye(n) + W @ P
        Jinv = np.linalg.inv(J)
        logdet = float(np.log(np.linalg.det(J)))
        P_m = P @ Jinv                    # quadratic in the mean m
        P_m = 0.5 * (P_m + P_m.T)
        r_m = Jinv.T @ r
        c_m = c + 0.5 * logdet - 0.5 * float(r @ Jinv @ W @ r)
        # substitute m = A x + b
        P_x = A.T @ P_m @ A
        r_x = A.T @ (P_m @ b + r_m)
        c_x = c_m + 0.5 * float(b @ P_m @ b) + float(r_m @ b)
        # multiply the interior weight at step j
        P, r, c = P_x + Pq, r_x + rq, c_x + cq
        P = 0.5 * (P + P.T)
    # final integration from the deterministic x0 through step 1's kernel
    J = np.eye(n) + W @ P
    Jinv = np.linalg.inv(J)
    logdet = float(np.log(np.linalg.det(J)))
    m = A @ np.asarray(x0, dtype=float) + b
    val = -0.5 * float(m @ (P @ Jinv) @ m) - float(Jinv.T @ r @ m) \
        - c - 0.5 * logdet + 0.5 * float(r @ Jinv @ W @ r)
    return val


# ---------------------------------------------------------------------------
# Monte Carlo oracle for the uncertain-input moments
# ---------------------------------------------------------------------------

def mc_increment_moments(model: GpModel, mu, sigma, n_draws: int, rng,
                         n_batches: int = 10):
    """Monte Carlo estimate of the increment moments under a Gaussian input.

    Draws inputs, evaluates the exact point posterior at each and aggregates
    the laws of total expectation and covariance: the output covariance is
    the covariance of the point means plus the diagonal of the mean point
    variance, as the outputs are independent at a known input.  Returns a
    dict of estimates ("mean" (n,), "sigma" (n, n), "cov" (n, n) of input
    and increment) and their standard errors ("mean_se", ...) from batch
    means.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    n = mu.shape[0]
    L = np.linalg.cholesky(sigma + 1e-15 * np.trace(sigma) * np.eye(n))
    per = n_draws // n_batches
    batches = {"mean": [], "sigma": [], "cov": []}
    for _ in range(n_batches):
        xs = mu + rng.standard_normal((per, n)) @ L.T
        m_f, v_f = _point_predict_batch(model, xs)
        batches["mean"].append(m_f.mean(axis=0))
        batches["sigma"].append(np.cov(m_f, rowvar=False).reshape(n, n)
                                + np.diag(v_f.mean(axis=0)))
        batches["cov"].append(np.einsum("mi,mj->ij", xs - mu, m_f) / per)
    out = {}
    for name, values in batches.items():
        values = np.array(values)
        out[name] = values.mean(axis=0)
        out[name + "_se"] = values.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return out
