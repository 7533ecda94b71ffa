"""The oracle suite: each analytic path against an independent reference
from `oracles.py` (which does not import the code it checks) or against
central finite differences.

`CHECKS` maps each comparison's name to its seed and to a function that
takes a generator with that seed and returns (ok, detail), the cases and
the tolerance written inside it.  `gppi check` and the tier-1 test
`tests/test_oracles.py` run the same table and compute the same numbers.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .control import (ControlSequence, CostSpec, backward_desirability,
                      desirability_gradient, forward_rollout, log_phi_step)
from .gp import (LOG_HYPER_BOUNDS, GpModel, KernelHyper, TrainingSet,
                 fit_hyperparameters, incorporate_sample,
                 tied_log_marginal_likelihood)
from .moments import (GaussianBelief, moment_match, predict_increment,
                      step_pullbacks)
from .oracles import (cholesky_log_marginal_likelihood,
                      linear_chain_log_integral, mc_increment_moments,
                      path_integral_quadrature, quadrature_phi)
from .plants import make_plant


def random_tied_case(rng, N: int, E: int):
    """A random training set of N points with E inputs and E outputs, and
    a random theta in the layout of `tied_log_marginal_likelihood`."""
    train = TrainingSet(rng.normal(size=(N, E)), rng.normal(size=(N, E)))
    theta = np.concatenate([rng.normal(0.0, 0.3, E),
                            np.log(rng.uniform(0.05, 0.3, E)),
                            rng.normal(-1.0, 0.3, E)])
    return train, theta


def projected_gradient(train, hyper):
    """Likelihood and projected gradient clip(theta + g) - theta on
    LOG_HYPER_BOUNDS: zero in the entries that push out at a bound."""
    theta = hyper.as_vector()
    f, g = tied_log_marginal_likelihood(train, theta)
    lo, hi = LOG_HYPER_BOUNDS
    return f, np.clip(theta + g, lo, hi) - theta


def factor_deviation(model) -> float:
    """Largest relative deviation of chols, alphas and inv_grams from a
    fresh factorization of the same training set."""
    ref = GpModel.from_data(model.train, model.hyper, model.max_points)
    worst = 0.0
    for name in ("chols", "alphas", "inv_grams"):
        for got, want in zip(getattr(model, name), getattr(ref, name)):
            if want.size:
                worst = max(worst, float(np.max(np.abs(got - want))
                                         / np.max(np.abs(want))))
    return worst


def fd_tail_gradient(model, traj, plant, cost, j, eps=1e-5) -> np.ndarray:
    """Central differences of log Psi_j over the mean of belief j.

    The covariance of belief j is held fixed.  Beliefs j+1..T are
    re-propagated from each perturbed belief j without derivatives and
    spliced into a copy of the record's beliefs, and the desirability
    recursion is rerun.  At j = 0 this is the finite difference over the
    observed start state.
    """
    base = traj.belief(j)
    fd = np.zeros(base.dim)
    for k in range(base.dim):
        vals = []
        for step in (eps, -eps):
            spliced = replace(traj, mu=traj.mu.copy(), sigma=traj.sigma.copy())
            spliced.mu[j, k] += step
            belief = spliced.belief(j)
            for t in range(j, cost.horizon_steps):
                belief = moment_match(model, belief, traj.controls_old.u[t],
                                      plant.control_matrix, cost.dt)
                spliced.mu[t + 1] = belief.mu
                spliced.sigma[t + 1] = belief.sigma
            vals.append(backward_desirability(spliced, cost).log_psi[j])
        fd[k] = (vals[0] - vals[1]) / (2 * eps)
    return fd


def _likelihood_fd_rel(train, theta) -> float:
    """Largest relative deviation of the likelihood gradient at theta from
    central differences of the likelihood."""
    _, g = tied_log_marginal_likelihood(train, theta)
    worst = 0.0
    for k in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += 1e-6
        tm[k] -= 1e-6
        fd = (tied_log_marginal_likelihood(train, tp)[0]
              - tied_log_marginal_likelihood(train, tm)[0]) / 2e-6
        worst = max(worst, abs(g[k] - fd) / max(abs(fd), 1e-8))
    return worst


def _learned_model(plant, x0, n_samples, u_max, reset_norm, rng):
    """A GP fitted to `n_samples` random-control transitions of `plant`
    from x0, restarting at x0 once the state norm reaches `reset_norm`."""
    model = GpModel.empty(plant.spec.n)
    x = x0
    for _ in range(n_samples):
        u = rng.uniform(-u_max, u_max, 1)
        xn = plant.step(x, u, rng)
        model, _ = incorporate_sample(model, x, u, xn, plant.control_matrix,
                                      plant.spec.dt)
        x = xn if np.linalg.norm(xn) < reset_norm else x0
    hy, _ = fit_hyperparameters(model.train, rng=rng, n_restarts=1,
                                max_iters=60)
    return GpModel.from_data(model.train, hy)


def phi_vs_quadrature(rng):
    """log_phi_step against adaptive quadrature of the phi integral, at 40
    random 1-D and 2-D beliefs, costs and step weights."""
    tol, worst = 1e-7, 0.0
    for _ in range(40):
        n = int(rng.integers(1, 3))
        mu = rng.normal(size=n)
        a = rng.normal(size=(n, n)) * 0.6
        sigma = a @ a.T + 0.05 * np.eye(n)
        qd = rng.uniform(0.1, 3.0, size=n)
        x_d = rng.normal(size=n)
        lam = float(rng.uniform(0.3, 3.0))
        w = float(rng.uniform(0.02, 1.0))
        cost = CostSpec(np.diag(qd), x_d, lam, 0.02, 1)
        phi = np.exp(log_phi_step(GaussianBelief(mu, sigma), cost, w)[0])
        ref = quadrature_phi(mu, sigma, np.diag(qd), x_d, lam, w)
        worst = max(worst, abs(phi - ref) / abs(ref))
    return worst < tol, f"worst rel {worst:.2e} (bound {tol:g})"


def likelihood_gradient_vs_fd(rng):
    """The likelihood gradient against central differences on one, two and
    three output columns, at fixed and at random hyperparameters."""
    tol = 1e-5
    small = TrainingSet(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    large = TrainingSet(rng.normal(size=(12, 3)), rng.normal(size=(12, 3)))
    tied, theta = random_tied_case(rng, 12, 3)
    hyper = KernelHyper.create([0.8, 1.1, 0.6], [0.2, 0.1, 0.3],
                               [1.3, 0.5, 2.0])
    worst = max(
        _likelihood_fd_rel(TrainingSet(small.inputs, small.outputs[:, :1]),
                           np.log([0.8, 0.15, 1.0, 2.0])),
        _likelihood_fd_rel(small, np.log([0.8, 1.3, 0.15, 0.05, 1.0, 2.0])),
        _likelihood_fd_rel(large, hyper.as_vector()),
        _likelihood_fd_rel(tied, theta))
    return worst < tol, f"worst rel {worst:.2e} (bound {tol:g})"


def step_pullback_vs_fd(rng):
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

    preds = []
    moment_match(model, GaussianBelief(m, S), u, dpc.control_matrix, 0.02,
                 prediction_out=preds)
    step, = step_pullbacks([preds[0].vjp], dpc.control_matrix_jac, m[None],
                           u[None], 0.02)
    d_mu, d_sig = step.pullback(wa, wB)
    tol, worst = 1e-6, 0.0
    for _ in range(4):
        dm = rng.normal(size=n)
        dS = rng.normal(size=(n, n))
        dS = 0.5 * (dS + dS.T)
        fd = (f(m + 1e-6 * dm, S + 1e-6 * dS)
              - f(m - 1e-6 * dm, S - 1e-6 * dS)) / 2e-6
        worst = max(worst, abs(d_mu @ dm + np.sum(d_sig * dS) - fd)
                    / max(abs(fd), 1e-8))
    return worst < tol, f"worst rel {worst:.2e} (bound {tol:g})"


def gp_update_vs_refactorization(rng):
    """200 at-max GP updates of a 6-D model, each against a fresh
    refactorization of the same training set."""
    n, max_points = 6, 40
    hyper = KernelHyper.create(0.5 + 0.1 * np.arange(n), 0.05,
                               rng.uniform(0.3, 2.0, n))
    # factored from the start, so that every update is incremental
    model = GpModel.from_data(TrainingSet.empty(n), hyper, max_points)
    G = lambda x: np.zeros((n, 1))
    x = np.zeros(n)
    tol, worst = 1e-10, 0.0
    for t in range(max_points + 200):
        x = 0.9 * x + 0.4 * rng.normal(size=n)
        model, _ = incorporate_sample(model, x, [0.0], x + 0.02 * np.sin(x),
                                      G, 0.02)
        if t >= max_points:
            worst = max(worst, factor_deviation(model))
    return worst < tol, f"worst rel {worst:.2e} (bound {tol:g})"


def fit_stationarity(rng):
    """Fit a fixed 4-D training set and check the result without the
    optimizer: the projected gradient is below the fit's stopping tolerance
    1e-6 max(1, |f|), and a Cholesky evaluation of the likelihood agrees
    with the `eigh` value."""
    X = rng.uniform(-1.5, 1.5, (60, 4))
    Y = 0.3 * np.sin(X @ rng.normal(size=(4, 4))) \
        + 0.02 * rng.standard_normal((60, 4))
    train = TrainingSet(X, Y)
    hyper, status = fit_hyperparameters(train, rng=rng)
    f, pg = projected_gradient(train, hyper)
    pg, pg_tol = np.max(np.abs(pg)), 1e-6 * max(1.0, abs(f))
    ref, _ = cholesky_log_marginal_likelihood(train, hyper.as_vector())
    rel, rel_tol = abs(ref - f) / abs(f), 1e-10
    return (status == "ok" and pg < pg_tol and rel < rel_tol,
            f"status {status}, projected gradient {pg:.1e} (bound "
            f"{pg_tol:.1e}), Cholesky rel {rel:.1e} (bound {rel_tol:g})")


def desirability_gradient_vs_fd(rng):
    """The adjoint gradient of log Psi_j against `fd_tail_gradient` at
    j = 0, 7 and 15, on a cart-pole model fitted to 50 transitions."""
    cp = make_plant("cartpole")
    model = _learned_model(cp, np.zeros(4), 50, 8.0, 20.0, rng)
    cost = CostSpec(np.diag([0.5, 0.05, 2.0, 0.05]), [0, 0, np.pi, 0],
                    1.0, 0.02, 15)
    us = ControlSequence(rng.uniform(-2, 2, (15, 1)))
    traj = forward_rollout(model, [0.0, 0.1, 0.3, -0.2], us, cp, cost)
    trace = desirability_gradient(traj, backward_desirability(traj, cost), cost)
    tol, worst = 1e-4, 0.0
    for j in (0, 7, 15):
        fd = fd_tail_gradient(model, traj, cp, cost, j)
        denom = max(np.max(np.abs(fd)), 1e-12)
        worst = max(worst, np.max(np.abs(trace.grad_psi_over_psi[j] - fd))
                    / denom)
    return worst < tol, f"worst rel {worst:.2e} (bound {tol:g})"


def tensor_quadrature_vs_closed_form(_rng):
    """The tensor path quadrature against the closed-form linear-Gaussian
    chain.  An empty GP on x' = x + Bc u dt is the chain A = I,
    b = Bc u dt, W = prior increment variance.  The case is fixed and draws
    nothing."""
    model = GpModel.empty(1)
    plant = make_plant("linear", params=dict(A=[[0.0]], Bc=[[1.0]]))
    cost = CostSpec([[0.8]], [0.25], 1.3, 0.02, 5)
    u = np.full((5, 1), 0.7)
    W = predict_increment(model, [0.0], [[0.0]]).sigma_f
    b = plant.control_matrix(np.zeros(1)) @ u[0] * cost.dt
    exact = linear_chain_log_integral(np.eye(1), b, W, cost, [0.55])
    quad = path_integral_quadrature(model, [0.55], u, plant, cost,
                                    nodes_per_dim=14)
    tol, rel = 1e-10, abs(quad - exact) / abs(exact)
    return rel < tol, f"rel {rel:.2e} (bound {tol:g})"


def recursion_vs_path_quadrature(rng):
    """log Psi_0 of the recursion against the tensor path quadrature, on a
    1-D linear plant model fitted to 160 transitions."""
    lin = make_plant("linear", params=dict(A=[[-0.4]], Bc=[[1.0]],
                                           B=[[0.12]], sigma_omega=[[1.0]]))
    model = _learned_model(lin, np.array([0.6]), 160, 1.5, 2.4, rng)
    cost = CostSpec([[0.8]], [0.25], 1.3, 0.02, 5)
    us = ControlSequence(rng.uniform(-0.5, 0.5, (5, 1)))
    traj = forward_rollout(model, [0.55], us, lin, cost, compute_jac=False)
    lp = backward_desirability(traj, cost).log_psi[0]
    ref = path_integral_quadrature(model, [0.55], us.u, lin, cost,
                                   nodes_per_dim=14)
    tol, rel = 1e-4, abs(lp - ref) / abs(ref)
    return rel < tol, f"rel {rel:.2e} (bound {tol:g})"


def moments_vs_monte_carlo(rng):
    """The moments of three random 3-D models, each at a random full input
    covariance, against Monte Carlo estimates from 10^6 draws: mu_f and
    every entry of sigma_f and cov_x_dx, in Monte Carlo standard errors."""
    n, tol, worst = 3, 4.0, 0.0
    for _ in range(3):
        X = rng.uniform(-1, 1, (15, n))
        Y = np.sin(2 * X) + 0.05 * rng.standard_normal((15, n))
        hyper = KernelHyper.create([1.0, 0.6, 0.8], [0.1, 0.05, 0.08],
                                   rng.uniform(0.5, 2.0, n))
        model = GpModel.from_data(TrainingSet(X, Y), hyper)
        m = rng.uniform(-0.5, 0.5, n)
        a = 0.3 * rng.normal(size=(n, n))
        S = a @ a.T + 0.02 * np.eye(n)
        pred = predict_increment(model, m, S)
        est = mc_increment_moments(model, m, S, 10 ** 6, rng, n_batches=20)
        for got, key in ((pred.mu_f, "mean"), (pred.sigma_f, "sigma"),
                         (pred.cov_x_dx, "cov")):
            worst = max(worst, float(np.max(np.abs(got - est[key])
                                            / est[key + "_se"])))
    return worst < tol, f"worst {worst:.2f} standard errors (bound {tol:g})"


# name -> (seed, comparison)
CHECKS = {
    "phi-vs-quadrature": (20240817, phi_vs_quadrature),
    "likelihood-gradient-vs-fd": (1, likelihood_gradient_vs_fd),
    "step-pullback-vs-fd": (6, step_pullback_vs_fd),
    "gp-update-vs-refactorization": (10, gp_update_vs_refactorization),
    "fit-stationarity": (12, fit_stationarity),
    "desirability-gradient-vs-fd": (2, desirability_gradient_vs_fd),
    "tensor-quadrature-vs-closed-form": (0, tensor_quadrature_vs_closed_form),
    "recursion-vs-path-quadrature": (3, recursion_vs_path_quadrature),
    "moments-vs-monte-carlo": (5, moments_vs_monte_carlo),
}


def run_check(name: str):
    """(ok, detail) of the entry `name`, drawing from its own seed."""
    seed, compare = CHECKS[name]
    ok, detail = compare(np.random.default_rng(seed))
    return bool(ok), detail


def run_checks() -> bool:
    """Run every entry of `CHECKS`, print one line each and a summary, and
    return whether all passed."""
    t0 = time.time()
    passed = 0
    for name in CHECKS:
        ok, detail = run_check(name)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        passed += ok
    print(f"{passed}/{len(CHECKS)} checks passed ({time.time() - t0:.1f}s)")
    return passed == len(CHECKS)
