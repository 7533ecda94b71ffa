import dataclasses

import numpy as np
import pytest
import scipy.linalg

from gppi import gp
from gppi.checks import factor_deviation, projected_gradient, random_tied_case
from gppi.errors import ConfigError
from gppi.gp import (JITTER_BASE, LOG_HYPER_BOUNDS, GpModel, KernelHyper,
                     TrainingSet, chol_with_jitter, fit_hyperparameters,
                     incorporate_sample, kernel_matrix, load_model,
                     log_marginal_likelihood, posterior_predict, save_model,
                     tied_log_marginal_likelihood)
from gppi.oracles import cholesky_log_marginal_likelihood


class TestKernel:
    def test_far_from_origin_matches_pairwise_differences(self):
        rng = np.random.default_rng(0)
        X = 1e7 + rng.uniform(0.0, 3.0, size=(30, 2))
        w = np.array([1.0, 0.5])
        K = kernel_matrix(X, w)
        ref = np.exp(-0.5 * ((X[:, None, :] - X[None, :, :]) ** 2) @ w)
        assert np.max(np.abs(K - ref)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(K)) > -1e-12

    def test_invalid_hyper_rejected(self):
        with pytest.raises(ConfigError):
            KernelHyper.create(-1.0, 0.1, [1.0])
        with pytest.raises(ConfigError):
            KernelHyper.create(1.0, 0.1, [0.0])


class TestMarginalLikelihood:
    def test_single_pair_zero_output(self):
        train = TrainingSet([[0.5]], [[0.0]])
        h = KernelHyper.create(1.0, 0.1, [1.0])
        lml, _ = log_marginal_likelihood(train, h)
        expected = -0.5 * np.log(1.01) - 0.5 * np.log(2 * np.pi)
        assert lml == pytest.approx(expected, rel=1e-12)

    def test_noisy_duplicate_large_negative_not_crash(self):
        train = TrainingSet([[0.5], [0.5]], [[0.3], [0.1]])
        h = KernelHyper.create(1.0, 1e-9, [1.0])
        lml, _ = log_marginal_likelihood(train, h)
        assert np.isfinite(lml) or lml == -1e18
        assert lml < -1e4


class TestTiedMarginalLikelihood:
    @pytest.mark.parametrize("N,E", [(1, 1), (12, 3), (100, 6)])
    def test_matches_cholesky_reference(self, rng, N, E):
        train, theta = random_tied_case(rng, N, E)
        f, g = tied_log_marginal_likelihood(train, theta)
        f_ref, g_ref = cholesky_log_marginal_likelihood(train, theta)
        assert f == pytest.approx(f_ref, rel=1e-10)
        assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))

    def test_single_column_is_per_dimension_likelihood(self, rng):
        train, theta = random_tied_case(rng, 12, 3)
        h = KernelHyper(theta[1], theta[4], theta[6:])
        column = TrainingSet(train.inputs, train.outputs[:, [1]])
        f, g = log_marginal_likelihood(column, h)
        f_ref, g_ref = cholesky_log_marginal_likelihood(column, h.as_vector())
        assert f == pytest.approx(f_ref, rel=1e-10)
        assert np.allclose(g, g_ref, rtol=1e-10, atol=1e-12)

    def test_far_from_origin_matches_cholesky_reference(self, rng):
        train, theta = random_tied_case(rng, 30, 2)
        far = TrainingSet(train.inputs + 1e7, train.outputs)
        f, g = tied_log_marginal_likelihood(far, theta)
        f_ref, g_ref = cholesky_log_marginal_likelihood(train, theta)
        assert f == pytest.approx(f_ref, rel=1e-10)
        assert np.max(np.abs(g - g_ref)) <= 1e-8 * np.max(np.abs(g_ref))

    def test_duplicate_inputs_take_first_jitter_rung(self):
        # K_w = ones(2, 2) has eigenvalues (0, 2); sigma_w^2 = 1e-18 is below
        # the positivity floor, so the first rung JITTER_BASE * scale applies
        train = TrainingSet([[0.5], [0.5]], [[0.3], [0.1]])
        theta = np.log([1.0, 1e-9, 1.0])
        lml, g = tied_log_marginal_likelihood(train, theta)
        jitter = JITTER_BASE * (1.0 + 1e-18)
        D = np.array([1e-18 + jitter, 2.0 + 1e-18 + jitter])
        y_rot2 = np.array([0.2 ** 2 / 2, 0.4 ** 2 / 2])
        expected = -0.5 * np.sum(y_rot2 / D + np.log(D)) - np.log(2 * np.pi)
        assert np.isfinite(lml) and lml < -1e4
        assert lml == pytest.approx(expected, rel=1e-9)
        assert np.all(np.isfinite(g))

    def test_beyond_jitter_max_returns_sentinel(self):
        # sigma_s^2 = exp(800) overflows, so D is not finite and no rung of
        # the jitter ladder makes it positive
        rng = np.random.default_rng(0)
        train = TrainingSet(rng.uniform(0.0, 3.0, size=(30, 1)),
                            rng.normal(size=(30, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            lml, g = tied_log_marginal_likelihood(
                train, np.array([400.0, np.log(0.1), 0.0]))
        assert lml == -1e18
        assert np.array_equal(g, np.zeros(3))


def _first_order_ascend(objective, theta0, max_iters):
    """The backtracking gradient ascent that the L-BFGS fit replaced."""
    lo, hi = LOG_HYPER_BOUNDS
    theta = np.clip(theta0, lo, hi)
    f, g = objective(theta)
    step = 0.1
    for _ in range(max_iters):
        if np.max(np.abs(g)) < 1e-6 * max(1.0, abs(f)):
            break
        for _ in range(14):
            cand = np.clip(theta + step * g, lo, hi)
            f2, g2 = objective(cand)
            if f2 > f + 1e-4 * step * float(g @ g):
                theta, f, g = cand, f2, g2
                step = min(step * 1.5, 10.0)
                break
            step *= 0.5
        else:
            break
    return theta, f


def _first_order_fit(train, rng, n_restarts, max_iters, probe_iters=30):
    """Likelihood reached by the replaced fit: every start probed for
    `probe_iters` iterations, the best polished for the rest."""
    theta_base = np.clip(gp._default_init(train).as_vector(),
                         *LOG_HYPER_BOUNDS)

    def objective(theta):
        return tied_log_marginal_likelihood(train, theta)

    starts = [theta_base] + [theta_base + rng.normal(scale=0.7,
                                                     size=theta_base.size)
                             for _ in range(n_restarts)]
    probed = [_first_order_ascend(objective, th, probe_iters) for th in starts]
    best, _ = max(probed, key=lambda p: p[1])
    _, f = _first_order_ascend(objective, best, max(max_iters - probe_iters, 1))
    return max(f, objective(theta_base)[0])


class TestFit:
    def test_not_below_first_order_ascent_on_cartpole_data(self,
                                                           cartpole_model):
        train = cartpole_model.train
        assert train.size == 80
        hyper, status = fit_hyperparameters(
            train, rng=np.random.default_rng(3), n_restarts=1, max_iters=80)
        f, _ = tied_log_marginal_likelihood(train, hyper.as_vector())
        f_ref = _first_order_fit(train, np.random.default_rng(3), 1, 80)
        assert status == "ok"
        assert f >= f_ref

    def test_projected_gradient_below_stopping_tolerance(self,
                                                        cartpole_model):
        hyper, _ = fit_hyperparameters(cartpole_model.train,
                                       rng=np.random.default_rng(3))
        f, pg = projected_gradient(cartpole_model.train, hyper)
        assert np.max(np.abs(pg)) < 1e-6 * max(1.0, abs(f))

    def test_sentinel_start_returns_no_improvement(self, monkeypatch, caplog):
        train = TrainingSet([[0.0], [1.0], [2.0]], [[0.1], [0.3], [0.2]])
        calls = []

        def sentinel(train, theta):
            calls.append(theta)
            return -1e18, np.zeros(theta.size)

        monkeypatch.setattr(gp, "tied_log_marginal_likelihood", sentinel)
        init = KernelHyper.create(0.5, 0.1, [2.0])
        with caplog.at_level("WARNING", logger="gppi.gp"):
            hyper, status = fit_hyperparameters(
                train, rng=np.random.default_rng(0), n_restarts=2, init=init)
        assert status == "no-improvement"
        assert "hyperparameter fit failed to improve" in caplog.text
        assert np.array_equal(hyper.as_vector(), init.as_vector())
        assert len(calls) == 3          # one evaluation per start

    @pytest.mark.parametrize("start_values,best", [
        ((1.0, 5.0, 5.0), 1), ((1.0, 2.0, 7.0), 2), ((3.0, 3.0, 3.0), 0)])
    def test_ascent_continues_from_best_start(self, monkeypatch, start_values,
                                              best):
        train = TrainingSet([[0.0], [1.0], [2.0]], [[0.1], [0.3], [0.2]])
        calls = []

        def stub(train, theta):
            # the starts get `start_values` and a gradient of 0.5; every
            # later point is worse, so the first step fails its Armijo test
            calls.append(np.array(theta))
            if len(calls) <= len(start_values):
                return start_values[len(calls) - 1], np.full(theta.size, 0.5)
            return 0.0, np.zeros(theta.size)

        monkeypatch.setattr(gp, "tied_log_marginal_likelihood", stub)
        init = KernelHyper.create(0.5, 0.1, [2.0])
        hyper, status = fit_hyperparameters(
            train, rng=np.random.default_rng(0), n_restarts=2, init=init)
        starts, ascent = calls[:3], calls[3:]
        assert np.array_equal(starts[0], init.as_vector())
        assert not np.array_equal(starts[1], starts[2])
        # the first trial step is a full steepest-ascent step from the best
        assert np.array_equal(ascent[0],
                              np.clip(starts[best] + 0.5, *LOG_HYPER_BOUNDS))
        # each start is evaluated exactly once
        assert not any(np.array_equal(c, st) for c in ascent for st in starts)
        assert status == "ok"
        assert np.array_equal(hyper.as_vector(), starts[best])

    def test_result_within_bounds(self):
        # noise-free data drive log sigma_w onto the lower bound
        X = np.linspace(-2, 2, 25)[:, None]
        train = TrainingSet(X, np.sin(2 * X))
        hyper, status = fit_hyperparameters(train,
                                            rng=np.random.default_rng(1))
        theta = hyper.as_vector()
        lo, hi = LOG_HYPER_BOUNDS
        assert status == "ok"
        assert np.all((theta >= lo) & (theta <= hi))
        assert theta[1] == lo

    def test_same_rng_gives_identical_hyperparameters(self, cartpole_model):
        a, _ = fit_hyperparameters(cartpole_model.train,
                                   rng=np.random.default_rng(5), n_restarts=2)
        b, _ = fit_hyperparameters(cartpole_model.train,
                                   rng=np.random.default_rng(5), n_restarts=2)
        assert np.array_equal(a.as_vector(), b.as_vector())

    def test_recovers_known_hyperparameters(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, size=(30, 1))
        K = kernel_matrix(X, [4.0])
        L = np.linalg.cholesky(K + 1e-12 * np.eye(30))
        y = L @ rng.standard_normal(30) + 0.05 * rng.standard_normal(30)
        hyper, status = fit_hyperparameters(
            TrainingSet(X, y[:, None]), rng=np.random.default_rng(1))
        assert status == "ok"
        truth = np.array([0.0, np.log(0.05), np.log(4.0)])
        got = hyper.as_vector()
        assert np.all(np.abs(got - truth) <= 0.7)

    def test_monotone_vs_default_init(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, size=(25, 1))
        y = np.sin(3 * X[:, 0]) + 0.05 * rng.standard_normal(25)
        train = TrainingSet(X, y[:, None])
        hyper, _ = fit_hyperparameters(train, rng=np.random.default_rng(2))
        f_default, _ = log_marginal_likelihood(
            train, KernelHyper.create(1.0, 0.1, [1.0]))
        f_fit, _ = log_marginal_likelihood(train, hyper)
        assert f_fit >= f_default

    def test_no_signal_shrinks_sigma_s(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(20, 1))
        y = 1e-4 * rng.standard_normal(20)
        hyper, _ = fit_hyperparameters(TrainingSet(X, y[:, None]),
                                       rng=np.random.default_rng(0))
        assert np.exp(hyper.log_sigma_s[0]) < 0.05

    def test_requires_two_pairs(self):
        with pytest.raises(ConfigError):
            fit_hyperparameters(TrainingSet([[0.0]], [[0.0]]))


class TestIncorporate:
    def test_empty_to_one(self):
        model = GpModel.empty(2)
        G = lambda x: np.array([[0.0], [1.0]])
        model, status = incorporate_sample(model, [0.0, 0.0], [0.5],
                                           [0.1, 0.2], G, 0.02)
        assert status == "ok" and model.n_points == 1

    def test_zero_control_stores_raw_increment(self):
        model = GpModel.empty(2)
        G = lambda x: np.array([[0.0], [1.0]])
        model, _ = incorporate_sample(model, [0.0, 0.0], [0.0],
                                      [0.3, 0.4], G, 0.02)
        assert np.allclose(model.train.outputs[0], [0.3, 0.4])

    def test_linear_plant_control_subtraction_exact(self):
        a, g, dt = -0.7, 1.3, 0.02
        G = lambda x: np.array([[g]])
        x, u = np.array([0.9]), np.array([0.4])
        x_next = x + a * x * dt + g * u * dt
        model = GpModel.empty(1)
        model, _ = incorporate_sample(model, x, u, x_next, G, dt)
        assert model.train.outputs[0, 0] == pytest.approx(a * x[0] * dt,
                                                          abs=1e-15)

    def test_nonfinite_rejected_with_warning(self):
        model = GpModel.empty(1)
        G = lambda x: np.array([[1.0]])
        model2, status = incorporate_sample(model, [0.0], [0.0],
                                            [np.nan], G, 0.02)
        assert status == "rejected" and model2.n_points == 0

    def test_rank1_extension_matches_refactorization(self, rng,
                                                     factor_updates):
        model = _factored(GpModel.empty(2))
        G = lambda x: np.array([[0.0], [1.0]])
        for _ in range(7):
            x = rng.normal(size=2)
            xn = x + 0.05 * rng.normal(size=2)
            model, _ = incorporate_sample(model, x, rng.normal(size=1),
                                          xn, G, 0.02)
        extensions = factor_updates["_rank1_extend"]
        assert len(extensions) == 7 and extensions[-1] is model
        assert None not in extensions
        full = GpModel.from_data(model.train, model.hyper)
        for dim in range(2):
            assert np.allclose(model.alphas[dim], full.alphas[dim],
                               atol=1e-11)
            assert np.allclose(model.inv_grams[dim], full.inv_grams[dim],
                               atol=1e-10)

    def test_max_points_eviction(self, rng):
        model = GpModel.empty(1, max_points=5)
        G = lambda x: np.array([[1.0]])
        for i in range(9):
            model, _ = incorporate_sample(model, [float(i)], [0.0],
                                          [float(i) + 0.1], G, 0.02)
        assert model.n_points == 5


def _factored(model):
    """`model` with its factors computed, so that samples added to it take
    the incremental updates."""
    return GpModel.from_data(model.train, model.hyper, model.max_points)


def _zero_G(n):
    return lambda x: np.zeros((n, 1))


def _add(model, x, d):
    """Incorporate a sample whose passive increment is exactly d."""
    x = np.asarray(x, dtype=float)
    return incorporate_sample(model, x, [0.0], x + np.asarray(d, dtype=float),
                              _zero_G(x.size), 0.02)


def _expected_eviction(model, x):
    """Stored index of the older member, the earlier row, of the closest
    pair among the stored inputs and x, by explicit differences under the
    model's W."""
    X = np.vstack([model.train.inputs, x])
    d2 = np.einsum("ijk,k->ij", (X[:, None, :] - X[None, :, :]) ** 2,
                   model.hyper.w)
    np.fill_diagonal(d2, np.inf)
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return min(i, j)


# the per-model constants of moment matching, cached on first read
_MOMENT_CONSTANTS = ("inv_w", "log_det_w", "two_w", "scaled_alphas",
                     "signal_var_outer", "signal_var_sq", "inv_grams_flat",
                     "inv_grams_flat_t")


def _hyper(n, rng):
    d = np.arange(n)
    return KernelHyper.create(0.5 + 0.1 * d, 0.05 + 0.01 * d,
                              rng.uniform(0.3, 1.5, n))


_POSITIONS = {"first": 0, "interior": 4, "last": 8}


def _eviction_samples(rng, position):
    """Inputs of a chain that fills a 4-D model of N = 9 points and then
    adds one closer to stored point _POSITIONS[position] than any two stored
    points are, or, for "below_max", stays under `max_points`; and that
    max_points."""
    n, N = 4, 9
    X = 2.0 * rng.normal(size=(N, n))
    if position == "below_max":
        return X, N + 1
    gap = min(np.linalg.norm(X[i] - X[j]) for i in range(N) for j in range(i))
    x_new = X[_POSITIONS[position]] + 0.05 * gap * np.ones(n) / np.sqrt(n)
    return np.vstack([X, x_new]), N


class TestDowndate:
    @pytest.mark.parametrize("n,max_points", [(4, 12), (6, 12), (4, 1),
                                              (6, 2)])
    def test_at_max_updates_match_refactorization(self, rng, n, max_points,
                                                  factor_updates):
        model = _factored(GpModel.empty(n, _hyper(n, rng),
                                        max_points=max_points))
        x = np.zeros(n)
        at_max = added = 0
        while at_max < 3 * max_points:
            x = x + 0.4 * rng.normal(size=n)
            full = model.n_points == max_points
            if full:
                idx = _expected_eviction(model, x)
                kept = np.delete(model.train.inputs, idx, axis=0)
            model, status = _add(model, x, np.sin(x))
            assert status == "ok"
            added += 1
            if full:
                at_max += 1
                assert model.n_points == max_points
                assert np.array_equal(model.train.inputs,
                                      np.vstack([kept, x]))
            assert len(factor_updates["_rank1_extend"]) == added
            assert len(factor_updates["_delete_point"]) == at_max
            assert factor_updates["_rank1_extend"][-1] is model
            assert factor_deviation(model) <= 1e-10
            assert np.all(np.diag(model.chols[0]) > 0)

    @pytest.mark.parametrize("position", ["first", "interior", "last"])
    def test_evicts_older_member_of_closest_pair(self, rng, position,
                                                 factor_updates):
        h = _hyper(4, rng)
        xs, N = _eviction_samples(rng, position)
        model = _factored(GpModel.empty(4, h, max_points=N))
        for x in xs[:-1]:
            model, _ = _add(model, x, np.cos(x))
        p, X, x_new = _POSITIONS[position], model.train.inputs, xs[-1]
        assert _expected_eviction(model, x_new) == p
        new, status = _add(model, x_new, np.cos(x_new))
        assert status == "ok"
        assert np.array_equal(new.train.inputs,
                              np.vstack([np.delete(X, p, axis=0), x_new]))
        assert len(factor_updates["_delete_point"]) == 1
        assert len(factor_updates["_rank1_extend"]) == N + 1
        assert factor_updates["_rank1_extend"][-1] is new
        assert factor_deviation(new) <= 1e-10

    def test_near_duplicate_at_max_refactorizes(self, factor_updates):
        # a stored pair 3e-7 apart is the closest pair, so the new point,
        # 5e-7 from a kept point, stays and is too close for the extension
        # (no jitter is needed for either training set)
        h = KernelHyper.create(1.0, 1e-8, [1.0])
        X = np.array([[0.0], [1.0], [1.0 + 3e-7], [2.5]])
        model = GpModel.from_data(TrainingSet(X, np.sin(X)), h, max_points=4)
        x_new = np.array([2.5 + 5e-7])
        assert _expected_eviction(model, x_new) == 1
        new, status = _add(model, x_new, np.sin(x_new))
        assert status == "ok"
        # the downdate ran, and the extension declined
        assert len(factor_updates["_delete_point"]) == 1
        assert factor_updates["_rank1_extend"] == [None]
        final = np.array([[0.0], [1.0 + 3e-7], [2.5], [2.5 + 5e-7]])
        assert np.array_equal(new.train.inputs, final)
        ref = GpModel.from_data(new.train, h)
        assert np.array_equal(new.chols[0], ref.chols[0])

    def test_near_duplicate_below_max_refactorizes(self, factor_updates):
        h = KernelHyper.create(1.0, 1e-8, [1.0])
        X = np.array([[0.0], [1.0]])
        model = GpModel.from_data(TrainingSet(X, np.sin(X)), h, max_points=5)
        new, status = _add(model, [1.0 + 1e-8], [0.3])
        assert status == "ok" and new.n_points == 3
        assert factor_updates == {"_rank1_extend": [None],
                                  "_delete_point": []}
        assert np.array_equal(new.train.inputs, [[0.0], [1.0], [1.0 + 1e-8]])
        assert np.array_equal(new.chols[0],
                              GpModel.from_data(new.train, h).chols[0])

    def test_at_max_update_is_quadratic_and_derives_lazily(self, rng,
                                                          monkeypatch):
        n, N = 6, 30
        model = GpModel.empty(n, _hyper(n, rng), max_points=N)
        for _ in range(N):
            x = rng.normal(size=n)
            model, _ = _add(model, x, np.sin(x))
        for name in ("alphas", "inv_grams") + _MOMENT_CONSTANTS:
            getattr(model, name)        # cached on the model updated below

        def forbidden(*args, **kwargs):
            raise AssertionError("an O(N^3) routine ran in an at-max update")

        def forbid_cubic_routines():
            for name in ("kernel_matrix", "chol_with_jitter", "_chol_inverse"):
                monkeypatch.setattr(gp, name, forbidden)
            # gp imports cho_solve from scipy.linalg at call time
            monkeypatch.setattr(scipy.linalg, "cho_solve", forbidden)

        forbid_cubic_routines()
        x = rng.normal(size=n)
        new, status = _add(model, x, np.sin(x))
        assert status == "ok" and new.n_points == N and new.factored
        for name in ("alphas", "inv_grams") + _MOMENT_CONSTANTS:
            assert name not in new.__dict__, name
        monkeypatch.undo()
        assert len(new.alphas) == n and "alphas" in new.__dict__
        assert "inv_grams" not in new.__dict__
        assert new.inv_grams[0].shape == (N, N)
        assert "inv_grams" in new.__dict__
        # the moment constants come from hyper, alphas and inv_grams alone
        forbid_cubic_routines()
        for name in _MOMENT_CONSTANTS:
            getattr(new, name)
            assert name in new.__dict__, name
        monkeypatch.undo()
        sig2, w = new.hyper.signal_var, new.hyper.w
        assert np.array_equal(new.inv_w, np.diag(1.0 / w))
        assert new.log_det_w == float(np.sum(np.log(w)))
        assert np.array_equal(new.two_w, 2.0 * w)
        assert np.array_equal(new.scaled_alphas, sig2[:, None] * new.alphas)
        assert np.array_equal(new.signal_var_outer, np.outer(sig2, sig2))
        assert np.array_equal(new.signal_var_sq, sig2 ** 2)
        assert np.array_equal(new.inv_grams_flat, new.inv_grams.reshape(n, -1))
        assert np.shares_memory(new.inv_grams_flat, new.inv_grams)
        assert np.array_equal(new.inv_grams_flat_t, new.inv_grams_flat.T)
        copy = dataclasses.replace(new)
        for name in ("chols", "alphas", "inv_grams") + _MOMENT_CONSTANTS:
            assert name not in copy.__dict__, name

    def test_max_points_below_one_rejected(self):
        with pytest.raises(ConfigError):
            GpModel.empty(2, max_points=0)


class TestLazyFactors:
    """A model without factors takes the same samples as one with them,
    without factorizing."""

    @pytest.mark.parametrize("case", ["below_max", "first", "interior",
                                      "last", "near_duplicate"])
    def test_unfactored_chain_matches_factored_chain(self, rng, case,
                                                     factor_updates):
        if case == "near_duplicate":
            # below max_points the third point is too close for the
            # extension; at it the new point, 5e-7 from a kept one, is too
            h = KernelHyper.create(1.0, 1e-8, [1.0])
            xs = np.array([[0.0], [1.0], [1.0 + 3e-7], [2.5], [2.5 + 5e-7]])
            max_points = 4
        else:
            xs, max_points = _eviction_samples(rng, case)
            h = _hyper(xs.shape[1], rng)
        lazy = GpModel.empty(xs.shape[1], h, max_points=max_points)
        eager = _factored(lazy)
        for x in xs:
            lazy, status = _add(lazy, x, np.cos(x))
            assert status == "ok" and not lazy.factored
            eager, status = _add(eager, x, np.cos(x))
            assert status == "ok" and eager.factored
            assert np.array_equal(lazy.train.inputs, eager.train.inputs)
            assert np.array_equal(lazy.train.outputs, eager.train.outputs)
        evicted = len(xs) - lazy.n_points
        assert evicted == (0 if case == "below_max" else 1)
        # only the factored chain reached the incremental updates
        extensions = factor_updates["_rank1_extend"]
        assert len(extensions) == len(xs)
        assert len(factor_updates["_delete_point"]) == evicted
        assert (None in extensions) == (case == "near_duplicate")
        ref = GpModel.from_data(lazy.train, h)
        for got, want in zip(lazy.chols, ref.chols):
            assert np.array_equal(got, want)
        assert lazy.factored
        assert factor_deviation(eager) <= 1e-10

    def test_empty_model_starts_unfactored(self):
        model = GpModel.empty(3)
        assert not model.factored
        assert [L.shape for L in model.chols] == [(0, 0)] * 3
        assert GpModel.from_data(TrainingSet.empty(3), model.hyper).factored

    def test_empty_model_keeps_hyperparameter_shape_check(self):
        with pytest.raises(ConfigError):
            GpModel.empty(3, KernelHyper.create(1.0, 0.1, [1.0, 1.0]))
        with pytest.raises(ConfigError):
            GpModel.empty(2, KernelHyper.create([1.0, 1.0, 1.0], 0.1,
                                                [1.0, 1.0]))

    def test_replace_derives_factors_at_new_hyperparameters(self, rng):
        X = rng.normal(size=(20, 3))
        m = GpModel.from_data(TrainingSet(X, np.sin(X)), _hyper(3, rng))
        h2 = _hyper(3, rng)
        old_alphas = m.alphas           # cached at the old hyperparameters
        moved = dataclasses.replace(m, hyper=h2)
        assert not moved.factored
        ref = GpModel.from_data(m.train, h2)
        for got, want in zip(moved.chols, ref.chols):
            assert np.array_equal(got, want)
        assert np.array_equal(moved.alphas, ref.alphas)
        assert not np.allclose(moved.alphas, old_alphas)


class TestPosterior:
    def test_empty_model_prior(self):
        model = GpModel.empty(2)
        mean, var = posterior_predict(model, [0.4, -0.2])
        assert np.allclose(mean, 0.0)
        assert np.allclose(var, 1.0 + 0.01)

    def test_reproduces_training_outputs_at_small_noise(self, rng):
        X = np.linspace(-1, 1, 5)[:, None]
        Y = np.sin(2 * X)
        model = GpModel.from_data(TrainingSet(X, Y),
                                  KernelHyper.create(1.0, 1e-6, [1.0]))
        for i in range(5):
            mean, _ = posterior_predict(model, X[i])
            assert abs(mean[0] - Y[i, 0]) <= 1e-4 * max(abs(Y[i, 0]), 1e-3)

    def test_permutation_invariance(self, rng):
        X = rng.normal(size=(12, 2))
        Y = rng.normal(size=(12, 2))
        h = KernelHyper.create(1.0, 0.1, [1.0, 1.0])
        m1 = GpModel.from_data(TrainingSet(X, Y), h)
        perm = rng.permutation(12)
        m2 = GpModel.from_data(TrainingSet(X[perm], Y[perm]), h)
        x = rng.normal(size=2)
        p1, v1 = posterior_predict(m1, x)
        p2, v2 = posterior_predict(m2, x)
        assert np.allclose(p1, p2, rtol=1e-12, atol=1e-12)
        assert np.allclose(v1, v2, rtol=1e-12, atol=1e-12)


class TestJitterAndPersistence:
    def test_jitter_ladder_recovers(self):
        X = np.array([[0.0], [1e-9]])
        L, jitter = chol_with_jitter(kernel_matrix(X, [1.0]))
        assert L.shape == (2, 2)

    def test_roundtrip(self, tmp_path, rng):
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 2))
        model = GpModel.from_data(
            TrainingSet(X, Y),
            KernelHyper.create(0.9, 0.1, [1.0, 2.0]))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.train.inputs, model.train.inputs)
        x = rng.normal(size=2)
        assert np.allclose(posterior_predict(back, x)[0],
                           posterior_predict(model, x)[0], rtol=1e-13)

    def test_reloaded_model_evicts_what_the_saved_one_would(self, tmp_path,
                                                            rng):
        # a saved model keeps no order but its rows', so a reload at the
        # same cap evicts the same points as the model it came from
        n, N = 3, 8
        model = _factored(GpModel.empty(n, _hyper(n, rng), max_points=N))
        for _ in range(N + 6):
            x = rng.normal(size=n)
            model, _ = _add(model, x, np.sin(x))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path, max_points=N)
        # next to stored row 2, next to the newest row, then anywhere
        for p in (2, N - 1, None):
            X = model.train.inputs
            x = rng.normal(size=n) if p is None else X[p] + 1e-3
            model, _ = _add(model, x, np.cos(x))
            loaded, _ = _add(loaded, x, np.cos(x))
            if p is not None:
                assert np.array_equal(model.train.inputs,
                                      np.vstack([np.delete(X, p, axis=0), x]))
            assert np.array_equal(model.train.inputs, loaded.train.inputs)
            assert np.array_equal(model.train.outputs, loaded.train.outputs)

    def test_model_above_its_cap_rejected(self, tmp_path, rng):
        train = TrainingSet(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        hyper = KernelHyper.create(0.9, 0.1, [1.0, 2.0])
        path = tmp_path / "model.json"
        save_model(GpModel.from_data(train, hyper), path)
        with pytest.raises(ConfigError, match="more than its max_points 3"):
            load_model(path, max_points=3)
        with pytest.raises(ConfigError, match="max_points"):
            GpModel(train, hyper, max_points=4)
        assert load_model(path, max_points=5).n_points == 5

    def test_malformed_document(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"state_dim": 2}')
        with pytest.raises(ConfigError):
            load_model(p)

    # one hyper entry per output dimension, each repeating the model's log_w
    _TWO_OUTPUT_DOC = (
        '{"state_dim": 2, "hyper": ['
        '{"log_sigma_s": -0.35667494393873245, "log_sigma_w": '
        '-2.3025850929940455, "log_w": [0.0, 0.6931471805599453]}, '
        '{"log_sigma_s": 0.1823215567939546, "log_sigma_w": '
        '-1.6094379124341003, "log_w": [0.0, 0.6931471805599453]}], '
        '"inputs": [[0.1, -0.4], [0.7, 0.2], [-0.5, 0.9]], '
        '"outputs": [[0.01, -0.02], [0.03, 0.0], [-0.015, 0.025]]}')

    def test_two_output_document_round_trips_byte_for_byte(self, tmp_path):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(self._TWO_OUTPUT_DOC)
        model = load_model(src)
        assert np.array_equal(model.hyper.log_sigma_s,
                              [-0.35667494393873245, 0.1823215567939546])
        assert np.array_equal(model.hyper.log_w, [0.0, 0.6931471805599453])
        save_model(model, out)
        assert out.read_text() == self._TWO_OUTPUT_DOC

    def test_differing_log_w_entries_rejected(self, tmp_path):
        p = tmp_path / "untied.json"
        p.write_text(self._TWO_OUTPUT_DOC.replace(
            '"log_w": [0.0, 0.6931471805599453]}]',
            '"log_w": [0.0, 0.7]}]'))
        with pytest.raises(ConfigError, match="log_w"):
            load_model(p)
