"""Built-in oracle suite behind the `check` CLI subcommand.

Each check prints one pass/fail line; the full pytest suite covers far more,
but this gives a quick self-contained verification of the core numerics on
an installed package.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .control import (ControlSequence, CostSpec, backward_desirability,
                      desirability_gradient, forward_rollout, phi_step)
from .gp import (LOG_HYPER_BOUNDS, GpModel, KernelHyper, TrainingSet,
                 fit_hyperparameters, incorporate_sample,
                 log_marginal_likelihood, tied_log_marginal_likelihood)
from .moments import GaussianBelief, moment_match, predict_increment
from .oracles import (cholesky_log_marginal_likelihood, mc_increment_moments,
                      path_integral_quadrature, quadrature_phi)
from .plants import make_plant


def _check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    return bool(ok)


def check_phi_quadrature(rng, n_cases=40) -> bool:
    worst = 0.0
    for _ in range(n_cases):
        n = int(rng.integers(1, 3))
        mu = rng.normal(size=n)
        a = rng.normal(size=(n, n)) * 0.6
        sigma = a @ a.T + 0.05 * np.eye(n)
        qd = rng.uniform(0.1, 3.0, size=n)
        x_d = rng.normal(size=n)
        lam = float(rng.uniform(0.3, 3.0))
        w = float(rng.uniform(0.02, 1.0))
        cost = CostSpec(np.diag(qd), x_d, lam, 0.02, 1)
        phi, _, _ = phi_step(GaussianBelief(mu, sigma), cost, w)
        ref = quadrature_phi(mu, sigma, np.diag(qd), x_d, lam, w)
        worst = max(worst, abs(phi - ref) / abs(ref))
    return _check("phi vs adaptive quadrature", worst < 1e-6,
                  f"worst rel {worst:.2e}")


def moment_matching_mc_deviation(rng, n_draws: int = 200_000) -> float:
    """Largest deviation, in Monte Carlo standard errors, of the moments of a
    random 3-D model at a random full input covariance from their Monte
    Carlo estimates: mu_f and every entry of sigma_f and cov_x_dx."""
    n = 3
    X = rng.uniform(-1, 1, (15, n))
    Y = np.sin(2 * X) + 0.05 * rng.standard_normal((15, n))
    hyper = KernelHyper.create([1.0, 0.6, 0.8], [0.1, 0.05, 0.08],
                               rng.uniform(0.5, 2.0, n))
    model = GpModel.from_data(TrainingSet(X, Y), hyper)
    m = rng.uniform(-0.5, 0.5, n)
    a = 0.3 * rng.normal(size=(n, n))
    S = a @ a.T + 0.02 * np.eye(n)
    pred = predict_increment(model, m, S)
    est = mc_increment_moments(model, m, S, n_draws, rng, n_batches=20)
    return max(float(np.max(np.abs(got - est[key]) / est[key + "_se"]))
               for got, key in ((pred.mu_f, "mean"), (pred.sigma_f, "sigma"),
                                (pred.cov_x_dx, "cov")))


def check_moment_matching_mc(rng, n_cases=3) -> bool:
    worst = max(moment_matching_mc_deviation(rng) for _ in range(n_cases))
    return _check("moment matching vs Monte Carlo (n = 3)", worst < 4.0,
                  f"worst {worst:.1f} standard errors")


def check_step_pullback(rng) -> bool:
    """One step's pullback against central differences of a random
    functional <a, mu'> + <B, Sigma'> along random (dm, dS), at n = 6 with
    the double pendulum's state-dependent G."""
    dpc = make_plant("dpc")
    n, n_points = 6, 40
    w = rng.uniform(0.3, 2.0, n)
    train = TrainingSet(rng.normal(size=(n_points, n)),
                        0.1 * rng.normal(size=(n_points, n)))
    model = GpModel.from_data(
        train, KernelHyper.create(0.5 + 0.1 * np.arange(n), 0.05, w))
    m = 0.5 * rng.normal(size=n)
    a = 0.3 * rng.normal(size=(n, n))
    S = a @ a.T + 0.05 * np.eye(n)
    u = rng.uniform(-2, 2, 1)
    wa, wB = rng.normal(size=n), rng.normal(size=(n, n))

    def f(mv, Sv):
        out = moment_match(model, GaussianBelief(mv, Sv), u,
                           dpc.control_matrix, 0.02)
        return wa @ out.mu + np.sum(wB * out.sigma)

    maps = []
    moment_match(model, GaussianBelief(m, S), u, dpc.control_matrix, 0.02,
                 plant_G_jac=dpc.control_matrix_jac, step_map_out=maps)
    d_mu, d_sig = maps[0].pullback(wa, wB)
    worst = 0.0
    for _ in range(4):
        dm = rng.normal(size=n)
        dS = rng.normal(size=(n, n))
        dS = 0.5 * (dS + dS.T)
        fd = (f(m + 1e-6 * dm, S + 1e-6 * dS)
              - f(m - 1e-6 * dm, S - 1e-6 * dS)) / 2e-6
        worst = max(worst, abs(d_mu @ dm + np.sum(d_sig * dS) - fd)
                    / max(abs(fd), 1e-8))
    return _check("step pullback vs finite differences (n = 6)", worst < 1e-6,
                  f"worst rel {worst:.2e}")


def fd_tail_gradient(model, traj, plant, cost, j, eps=1e-5) -> np.ndarray:
    """Central differences of log Psi_j over the mean of belief j.

    The covariance of belief j is held fixed.  Beliefs j+1..T are
    re-propagated from each perturbed belief j without derivatives, spliced
    into the trajectory, and the desirability recursion is rerun.  At j = 0
    this is the finite difference over the observed start state.
    """
    base = traj.beliefs[j]
    fd = np.zeros(base.dim)
    for k in range(base.dim):
        vals = []
        for step in (eps, -eps):
            mu = base.mu.copy()
            mu[k] += step
            belief = GaussianBelief(mu, base.sigma)
            beliefs = traj.beliefs[:j] + [belief]
            for t in range(j, cost.horizon_steps):
                belief = moment_match(model, belief, traj.controls_old.u[t],
                                      plant.control_matrix, cost.dt)
                beliefs.append(belief)
            spliced = replace(traj, beliefs=beliefs)
            vals.append(backward_desirability(spliced, cost).log_psi[j])
        fd[k] = (vals[0] - vals[1]) / (2 * eps)
    return fd


def check_desirability_gradient(rng) -> bool:
    cp = make_plant("cartpole")
    model = GpModel.empty(4)
    x = np.zeros(4)
    for _ in range(50):
        u = rng.uniform(-8, 8, 1)
        xn = cp.step(x, u, rng)
        model, _ = incorporate_sample(model, x, u, xn, cp.control_matrix, 0.02)
        x = xn if np.linalg.norm(xn) < 20 else np.zeros(4)
    hy, _ = fit_hyperparameters(model.train, rng=rng, n_restarts=1, max_iters=60)
    model = GpModel.from_data(model.train, hy)
    cost = CostSpec(np.diag([0.5, 0.05, 2.0, 0.05]), [0, 0, np.pi, 0],
                    1.0, 0.02, 15)
    us = ControlSequence(rng.uniform(-2, 2, (15, 1)))
    x0 = np.array([0.0, 0.1, 0.3, -0.2])
    traj = forward_rollout(model, x0, us, cp, cost)
    trace = desirability_gradient(traj, backward_desirability(traj, cost), cost)
    worst = 0.0
    for j in (0, 7, 15):
        fd = fd_tail_gradient(model, traj, cp, cost, j)
        denom = max(np.max(np.abs(fd)), 1e-12)
        worst = max(worst, np.max(np.abs(trace.grad_psi_over_psi[j] - fd)) / denom)
    return _check("desirability gradient vs finite differences", worst < 1e-4,
                  f"worst rel {worst:.2e}")


def check_lml_gradient(rng) -> bool:
    """Central differences of the likelihood gradient: one output column,
    and both columns jointly."""
    train = TrainingSet(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    first = TrainingSet(train.inputs, train.outputs[:, :1])

    def one_dim(v):
        return log_marginal_likelihood(first, KernelHyper.from_vector(v, 1))

    def tied(v):
        return tied_log_marginal_likelihood(train, v)

    cases = [(one_dim, np.log([0.8, 0.15, 1.0, 2.0])),
             (tied, np.log([0.8, 1.3, 0.15, 0.05, 1.0, 2.0]))]
    worst = 0.0
    for objective, v in cases:
        _, g = objective(v)
        for k in range(v.size):
            vp, vm = v.copy(), v.copy()
            vp[k] += 1e-6
            vm[k] -= 1e-6
            fd = (objective(vp)[0] - objective(vm)[0]) / 2e-6
            worst = max(worst, abs(g[k] - fd) / max(abs(fd), 1e-8))
    return _check("marginal likelihood gradient vs finite differences",
                  worst < 1e-5, f"worst rel {worst:.2e}")


def check_fit_stationarity(rng) -> bool:
    """Fit a fixed 4-D training set and check the result without the
    optimizer: the projected gradient, clip(theta + g) - theta on
    LOG_HYPER_BOUNDS, is below the fit's stopping tolerance
    1e-6 max(1, |f|), and a Cholesky evaluation of the likelihood agrees
    with the `eigh` value."""
    X = rng.uniform(-1.5, 1.5, (60, 4))
    Y = 0.3 * np.sin(X @ rng.normal(size=(4, 4))) \
        + 0.02 * rng.standard_normal((60, 4))
    train = TrainingSet(X, Y)
    hyper, status = fit_hyperparameters(train, rng=rng)
    theta = hyper.as_vector()
    f, g = tied_log_marginal_likelihood(train, theta)
    pg = np.max(np.abs(np.clip(theta + g, *LOG_HYPER_BOUNDS) - theta))
    rel = abs(cholesky_log_marginal_likelihood(train, theta) - f) / abs(f)
    return _check("hyperparameter fit is stationary (n = 4)",
                  status == "ok" and pg < 1e-6 * max(1.0, abs(f))
                  and rel < 1e-10,
                  f"projected gradient {pg:.1e}, Cholesky rel {rel:.1e}")


def check_gp_update(rng, n_updates=200) -> bool:
    """`n_updates` at-max GP updates of a 6-D model, each against a fresh
    refactorization of the same training set: the largest relative deviation
    of chols, alphas and inv_grams."""
    n, max_points = 6, 40
    hyper = KernelHyper.create(0.5 + 0.1 * np.arange(n), 0.05,
                               rng.uniform(0.3, 2.0, n))
    model = GpModel.empty(n, hyper, max_points=max_points)
    G = lambda x: np.zeros((n, 1))
    x = np.zeros(n)
    worst = 0.0
    for t in range(max_points + n_updates):
        x = 0.9 * x + 0.4 * rng.normal(size=n)
        model, _ = incorporate_sample(model, x, [0.0], x + 0.02 * np.sin(x),
                                      G, 0.02)
        if t < max_points:
            continue
        ref = GpModel.from_data(model.train, model.hyper)
        for name in ("chols", "alphas", "inv_grams"):
            for got, want in zip(getattr(model, name), getattr(ref, name)):
                worst = max(worst, float(np.max(np.abs(got - want))
                                         / np.max(np.abs(want))))
    return _check("GP updates at max_points vs refactorization",
                  worst < 1e-10, f"worst rel {worst:.2e}")


def check_path_integral(rng, fast=False) -> bool:
    lin = make_plant("linear", params=dict(A=[[-0.4]], Bc=[[1.0]],
                                           B=[[0.12]], sigma_omega=[[1.0]]))
    model = GpModel.empty(1)
    x = np.array([0.6])
    for _ in range(160):
        u = rng.uniform(-1.5, 1.5, 1)
        xn = lin.step(x, u, rng)
        model, _ = incorporate_sample(model, x, u, xn, lin.control_matrix, 0.02)
        x = xn if abs(xn[0]) < 2.4 else np.array([0.6])
    hy, _ = fit_hyperparameters(model.train, rng=rng, n_restarts=1, max_iters=60)
    model = GpModel.from_data(model.train, hy)
    cost = CostSpec([[0.8]], [0.25], 1.3, 0.02, 5)
    us = ControlSequence(rng.uniform(-0.5, 0.5, (5, 1)))
    traj = forward_rollout(model, [0.55], us, lin, cost, compute_jac=False)
    lp = backward_desirability(traj, cost).log_psi[0]
    ref = path_integral_quadrature(model, [0.55], us.u, lin, cost,
                                   nodes_per_dim=10 if fast else 14)
    rel = abs(lp - ref) / abs(ref)
    return _check("recursion vs tensor path quadrature (1-D)", rel < 1e-4,
                  f"rel {rel:.2e}")


def run_checks(fast: bool = False) -> bool:
    rng = np.random.default_rng(20240817)
    t0 = time.time()
    results = [
        check_phi_quadrature(rng, n_cases=15 if fast else 40),
        check_lml_gradient(rng),
        # their own streams, so that the other checks keep their draws
        check_step_pullback(np.random.default_rng(6)),
        check_gp_update(np.random.default_rng(10)),
        check_fit_stationarity(np.random.default_rng(12)),
        check_desirability_gradient(rng),
        check_path_integral(rng, fast=fast),
    ]
    if not fast:
        results.append(check_moment_matching_mc(rng))
    print(f"{sum(results)}/{len(results)} checks passed "
          f"({time.time() - t0:.1f}s)")
    return all(results)
