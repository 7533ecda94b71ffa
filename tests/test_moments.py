import warnings

import numpy as np
import pytest

from gppi import moments
from gppi.errors import NumericalError
from gppi.gp import GpModel, KernelHyper, TrainingSet, posterior_predict
from gppi.moments import (GaussianBelief, _log_qbar, moment_match,
                          predict_increment, step_pullbacks)
from gppi.oracles import mc_increment_moments


def _random_model(rng, n=3, n_points=15):
    X = rng.normal(size=(n_points, n))
    Y = 0.1 * rng.normal(size=(n_points, n))
    d = np.arange(n)
    hyper = KernelHyper.create(0.5 + 0.2 * d, 0.05 + 0.01 * d,
                               rng.uniform(0.5, 2.0, n))
    return GpModel.from_data(TrainingSet(X, Y), hyper)


def _random_input(rng, n):
    m = 0.5 * rng.normal(size=n)
    a = 0.3 * rng.normal(size=(n, n))
    return m, a @ a.T + 0.05 * np.eye(n)


def _const_G(G):
    """A state-independent control matrix, for states (..., n)."""
    G = np.asarray(G, dtype=float)
    return lambda x: np.broadcast_to(G, np.shape(x)[:-1] + G.shape)


def _plant_G(x):
    """A state-dependent control matrix (..., 3, 1)."""
    g = np.zeros(np.shape(x)[:-1] + (3, 1))
    g[..., 1, 0] = 1.0 + 0.1 * x[..., 0]
    g[..., 2, 0] = 0.5
    return g


def _plant_G_jac(x):
    jac = np.zeros((3, 1, 3))
    jac[1, 0, 0] = 0.1
    return jac


def _step_pullback(model, m, S, u, a, B):
    """The pullback of f = <a, mu'> + <B, Sigma'> through one step."""
    preds = []
    moment_match(model, GaussianBelief(m, S), u, _plant_G, 0.02,
                 prediction_out=preds)
    maps = step_pullbacks([preds[0].vjp], _plant_G_jac, m[None], u[None],
                          0.02)
    assert len(maps) == 1
    return maps[0].pullback(a, B)


class TestPrediction:
    def test_empty_model_prior(self):
        model = GpModel.empty(2)
        pred = predict_increment(model, [0.1, 0.2], 0.3 * np.eye(2))
        assert np.allclose(pred.mu_f, 0.0)
        assert np.allclose(pred.sigma_f, np.diag([1.01, 1.01]))
        assert np.allclose(pred.cov_x_dx, 0.0)

    def test_interpolates_training_point_small_noise(self):
        X = np.linspace(-1, 1, 4)[:, None]
        Y = np.cos(2 * X)
        model = GpModel.from_data(TrainingSet(X, Y),
                                  KernelHyper.create(1.0, 1e-6, [1.5]))
        pred = predict_increment(model, X[2], np.zeros((1, 1)))
        assert abs(pred.mu_f[0] - Y[2, 0]) < 1e-4

    def test_vanishing_input_variance_matches_point_posterior(self, rng):
        model = _random_model(rng)
        m, _ = _random_input(rng, 3)
        pred = predict_increment(model, m, 1e-12 * np.eye(3))
        mean_pt, var_pt = posterior_predict(model, m)
        assert np.allclose(pred.mu_f, mean_pt, atol=1e-8)
        assert np.allclose(np.diag(pred.sigma_f), var_pt, atol=1e-8)
        off = pred.sigma_f - np.diag(np.diag(pred.sigma_f))
        assert np.max(np.abs(off)) < 1e-8

    def test_directional_derivatives_match_fd(self, rng):
        # the pullback of f = <a, mu'> + <B, Sigma'> contracted with a
        # direction (dm, dS) is f's derivative along it
        model = _random_model(rng)
        m, S = _random_input(rng, 3)
        u = np.array([0.7])
        a, B = rng.normal(size=3), rng.normal(size=(3, 3))

        def f(mv, Sv):
            out = moment_match(model, GaussianBelief(mv, Sv), u, _plant_G, 0.02)
            return a @ out.mu + np.sum(B * out.sigma)

        d_mu, d_sig = _step_pullback(model, m, S, u, a, B)
        eps = 1e-6
        for _ in range(4):
            dm = rng.normal(size=3)
            dS = rng.normal(size=(3, 3))
            dS = 0.5 * (dS + dS.T)
            fd = (f(m + eps * dm, S + eps * dS)
                  - f(m - eps * dm, S - eps * dS)) / (2 * eps)
            assert d_mu @ dm + np.sum(d_sig * dS) == pytest.approx(fd, abs=2e-7)

    def test_monte_carlo_oracle_1d(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (3, 1))
        Y = np.sin(2 * X)
        model = GpModel.from_data(TrainingSet(X, Y),
                                  KernelHyper.create(1.0, 0.1, [2.0]))
        pred = predict_increment(model, [0.3], [[0.04]])
        est = mc_increment_moments(model, [0.3], [[0.04]], 10 ** 6, rng)
        assert abs(pred.mu_f[0] - est["mean"][0]) < 3 * est["mean_se"][0]
        assert abs(pred.sigma_f[0, 0] - est["sigma"][0, 0]) \
            < 3 * est["sigma_se"][0, 0]
        assert abs(pred.cov_x_dx[0, 0] - est["cov"][0, 0]) \
            < 3 * est["cov_se"][0, 0]


class TestBeliefPropagation:
    def test_prior_fallback_step(self):
        model = GpModel.empty(2)
        plant_G = _const_G([[0.0], [1.0]])
        b = GaussianBelief.observed([0.4, -0.1])
        out = moment_match(model, b, [0.0], plant_G, 0.02)
        assert np.allclose(out.mu, b.mu)
        assert np.allclose(out.sigma, np.diag([1.01, 1.01]))

    def test_observed_initial_state_has_zero_covariance(self):
        b = GaussianBelief.observed([1.0, 2.0])
        assert not np.any(b.sigma)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_chained_jacobians_match_fd(self, k, cartpole, cartpole_model):
        rng = np.random.default_rng(4)
        us = rng.uniform(-2, 2, size=(k, 1))
        x0 = np.array([0.1, -0.2, 0.4, 0.3])

        def roll(x0v, maps=None):
            b = GaussianBelief.observed(x0v)
            preds, mus = [], []
            for i in range(k):
                mus.append(b.mu)
                b = moment_match(cartpole_model, b, us[i],
                                 cartpole.control_matrix, 0.02,
                                 prediction_out=preds)
            if maps is not None:
                maps += step_pullbacks([p.vjp for p in preds],
                                       cartpole.control_matrix_jac, mus, us,
                                       0.02)
            return b

        maps = []
        roll(x0, maps)
        assert len(maps) == k

        def pull(chi_mu, chi_sig):
            for m in reversed(maps):
                chi_mu, chi_sig = m.pullback(chi_mu, chi_sig)
            return chi_mu

        # row i of d(mu_k, Sigma_k)/dx0 is the chained pullback of output i
        eye = np.eye(4)
        dmu = np.array([pull(eye[i], np.zeros((4, 4))) for i in range(4)])
        dsig = np.array([pull(np.zeros(4), np.outer(eye[i], eye[j]))
                         for i in range(4) for j in range(4)]).reshape(4, 4, 4)
        eps = 1e-4
        fd_mu = np.zeros((4, 4))
        fd_sig = np.zeros((4, 4, 4))
        for j in range(4):
            d = np.zeros(4)
            d[j] = eps
            hi, lo = roll(x0 + d), roll(x0 - d)
            fd_mu[:, j] = (hi.mu - lo.mu) / (2 * eps)
            fd_sig[:, :, j] = (hi.sigma - lo.sigma) / (2 * eps)
        assert np.max(np.abs(dmu - fd_mu)) \
            <= 1e-4 * max(np.max(np.abs(fd_mu)), 1e-12)
        assert np.max(np.abs(dsig - fd_sig)) \
            <= 1e-4 * max(np.max(np.abs(fd_sig)), 1e-12)

    def test_psd_preserved_over_rollout(self, cartpole, cartpole_model, rng):
        b = GaussianBelief.observed([0.0, 0.0, 0.1, 0.0])
        for t in range(60):
            b = moment_match(cartpole_model, b, rng.uniform(-3, 3, 1),
                             cartpole.control_matrix, 0.02)
            assert np.array_equal(b.sigma, b.sigma.T)
            eig = np.linalg.eigvalsh(b.sigma)
            assert eig[0] >= -1e-12 * np.trace(b.sigma)

    def test_invalid_covariance_rejected(self):
        model = GpModel.empty(2)
        bad = GaussianBelief(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))
        with pytest.raises(NumericalError):
            moment_match(model, bad, [0.0], _const_G(np.eye(2)[:, :1]), 0.02)

    @pytest.mark.parametrize("bad", ["mean", "covariance"])
    @pytest.mark.parametrize("empty", [True, False])
    def test_non_finite_belief_rejected(self, bad, empty, rng):
        model = GpModel.empty(3) if empty else _random_model(rng)
        m, S = _random_input(rng, 3)
        if bad == "mean":
            m[1] = np.nan
        else:
            S[0, 2] = S[2, 0] = np.inf
        with pytest.raises(NumericalError, match="non-finite belief"):
            moment_match(model, GaussianBelief(m, S), [0.5], _plant_G, 0.02)


class TestCandidateBatch:
    """Row c of a batched evaluation equals a batch of one, bit for bit."""

    def test_predict_rows_equal_batch_of_one(self, rng):
        model = _random_model(rng, n=4, n_points=40)
        inputs = [_random_input(rng, 4) for _ in range(6)]
        mus = np.array([m for m, _ in inputs])
        sigmas = np.array([S for _, S in inputs])
        batch = predict_increment(model, mus, sigmas)
        assert batch.mu_f.shape == (6, 4) and batch.ok.all()
        for c in range(6):
            one = predict_increment(model, mus[c:c + 1], sigmas[c:c + 1])
            single = predict_increment(model, mus[c], sigmas[c])
            for field in ("mu_f", "sigma_f", "cov_x_dx"):
                assert np.array_equal(getattr(batch, field)[c],
                                      getattr(one, field)[0])
                assert np.array_equal(getattr(batch, field)[c],
                                      getattr(single, field))
            weights = (rng.normal(size=4), rng.normal(size=(4, 4)),
                       rng.normal(size=(4, 4)))
            for got, want in zip(single.vjp(*weights),
                                 batch.row(c).vjp(*weights)):
                assert np.array_equal(got, want)

    def test_empty_model_rows_have_no_pullback(self, rng):
        model = GpModel.empty(3)
        m, S = _random_input(rng, 3)
        single = predict_increment(model, m, S)
        batch = predict_increment(model, np.stack([m, -m]), np.stack([S, S]))
        assert single.vjp is None and single.ok is None
        for c in range(2):
            row = batch.row(c)
            assert row.vjp is None
            for field in ("mu_f", "sigma_f", "cov_x_dx"):
                assert np.array_equal(getattr(row, field),
                                      getattr(single, field))

    def test_moment_match_rows_equal_batch_of_one(self, rng):
        model = _random_model(rng, n=3, n_points=30)
        plant_G = _plant_G
        inputs = [_random_input(rng, 3) for _ in range(5)]
        belief = GaussianBelief(np.array([m for m, _ in inputs]),
                                np.array([S for _, S in inputs]),
                                np.ones(5, dtype=bool))
        u = rng.uniform(-2, 2, (5, 1))
        out = moment_match(model, belief, u, plant_G, 0.02)
        assert out.ok.all()
        for c in range(5):
            one = moment_match(
                model, GaussianBelief(belief.mu[c:c + 1], belief.sigma[c:c + 1],
                                      np.ones(1, dtype=bool)),
                u[c:c + 1], plant_G, 0.02)
            single = moment_match(
                model, GaussianBelief(belief.mu[c], belief.sigma[c]), u[c],
                plant_G, 0.02)
            assert np.array_equal(out.mu[c], one.mu[0])
            assert np.array_equal(out.sigma[c], one.sigma[0])
            assert np.array_equal(out.mu[c], single.mu)
            assert np.array_equal(out.sigma[c], single.sigma)

    def test_non_finite_rows_masked(self, rng):
        model = _random_model(rng, n=3, n_points=20)
        inputs = [_random_input(rng, 3) for _ in range(4)]
        mu = np.array([m for m, _ in inputs])
        sigma = np.array([S for _, S in inputs])
        mu[1, 0] = np.nan
        sigma[2, 0, 1] = np.inf
        sigma[2, 1, 0] = -np.inf
        belief = GaussianBelief(mu, sigma, np.ones(4, dtype=bool))
        u = rng.uniform(-2, 2, (4, 1))
        out = moment_match(model, belief, u, _plant_G, 0.02)
        assert out.ok.tolist() == [True, False, False, True]
        for c in (1, 2):
            assert np.array_equal(out.mu[c], mu[c], equal_nan=True)
            assert np.array_equal(out.sigma[c], sigma[c])
        for c in (0, 3):
            single = moment_match(model, GaussianBelief(mu[c], sigma[c]),
                                  u[c], _plant_G, 0.02)
            assert np.array_equal(out.mu[c], single.mu)
            assert np.array_equal(out.sigma[c], single.sigma)

    def test_non_finite_controls_masked_without_warning(self, cartpole):
        # G has zero entries, so a masked row's inf * 0 would warn in G @ u
        model = GpModel.empty(4)
        belief = GaussianBelief(np.zeros((3, 4)), np.zeros((3, 4, 4)),
                                np.ones(3, dtype=bool))
        u = np.array([[0.5], [np.inf], [np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = moment_match(model, belief, u, cartpole.control_matrix, 0.02)
        assert out.ok.tolist() == [True, False, False]
        single = moment_match(model, GaussianBelief.observed(np.zeros(4)),
                              u[0], cartpole.control_matrix, 0.02)
        assert np.array_equal(out.mu[0], single.mu)
        assert np.array_equal(out.sigma[0], single.sigma)

    @pytest.mark.parametrize("layout", ["failing-pair", "all-equal"])
    def test_checks_and_G_run_once_per_distinct_belief(self, layout, rng,
                                                       monkeypatch):
        # "failing-pair": one non-PSD belief in two rows among distinct good
        # ones; "all-equal": every row at one belief, as at the start of a
        # rollout, under different controls
        model = _random_model(rng, n=3, n_points=20)
        inputs = [_random_input(rng, 3) for _ in range(4)]
        mu = np.array([m for m, _ in inputs])
        sigma = np.array([S for _, S in inputs])
        if layout == "failing-pair":
            sigma[1] = sigma[3] = np.diag([0.2, -0.1, 0.3])
            mu[3] = mu[1]
            distinct, failed = 3, [1, 3]
        else:
            mu[:], sigma[:] = mu[0], sigma[0]
            distinct, failed = 1, []
        checked, G_rows = [], []
        check = moments._check_beliefs

        def counted_check(m, S, checks):
            checked.append(len(m))
            return check(m, S, checks)

        def plant_G(x):
            G_rows.append(len(x))
            return _plant_G(x)

        monkeypatch.setattr(moments, "_check_beliefs", counted_check)
        u = rng.uniform(-2, 2, (4, 1))
        out = moment_match(model, GaussianBelief(mu, sigma,
                                                 np.ones(4, dtype=bool)),
                           u, plant_G, 0.02)
        assert checked == [distinct] and G_rows == [distinct]
        assert np.flatnonzero(~out.ok).tolist() == failed
        monkeypatch.undo()
        for c in range(4):
            if c in failed:
                assert np.array_equal(out.sigma[c], sigma[c])
                continue
            single = moment_match(model, GaussianBelief(mu[c], sigma[c]),
                                  u[c], _plant_G, 0.02)
            assert np.array_equal(out.mu[c], single.mu)
            assert np.array_equal(out.sigma[c], single.sigma)

    def test_failed_row_masked_and_frozen(self):
        model = GpModel.empty(2)
        sigma = np.array([0.1 * np.eye(2), [[1.0, 0.0], [0.0, -0.5]]])
        belief = GaussianBelief(np.zeros((2, 2)), sigma, np.ones(2, dtype=bool))
        out = moment_match(model, belief, np.zeros((2, 1)),
                           _const_G(np.eye(2)[:, :1]), 0.02)
        assert out.ok.tolist() == [True, False]
        assert np.array_equal(out.sigma[1], sigma[1])
        single = moment_match(model, GaussianBelief(np.zeros(2), sigma[0]),
                              [0.0], _const_G(np.eye(2)[:, :1]), 0.02)
        assert np.array_equal(out.sigma[0], single.sigma)


def _break_covariance(S, check):
    """A copy of covariance S that passes the belief checks before `check`
    and fails it: "symmetric" perturbs one off-diagonal entry, "PSD" gives
    a symmetric matrix with a negative eigenvalue."""
    S = S.copy()
    if check == "symmetric":
        S[0, 1] += 1e-3
        assert np.linalg.eigvalsh(0.5 * (S + S.T))[0] > 0
    else:
        S -= (np.linalg.eigvalsh(S)[-1] + 0.1) * np.outer([1, 0, 0],
                                                         [1, 0, 0])
        assert np.array_equal(S, S.T)
    return S


class TestBeliefChecks:
    """The symmetry and PSD checks of an input belief."""

    @pytest.mark.parametrize("check", ["symmetric", "PSD"])
    def test_single_belief_raises(self, check, rng):
        model = _random_model(rng)
        m, S = _random_input(rng, 3)
        bad = _break_covariance(S, check)
        with pytest.raises(NumericalError,
                           match=f"belief covariance not {check}"):
            moment_match(model, GaussianBelief(m, bad), [0.5], _plant_G, 0.02)

    @pytest.mark.parametrize("check", ["symmetric", "PSD"])
    def test_batch_masks_only_that_row(self, check, rng):
        model = _random_model(rng, n=3, n_points=20)
        inputs = [_random_input(rng, 3) for _ in range(4)]
        mu = np.array([m for m, _ in inputs])
        sigma = np.array([S for _, S in inputs])
        sigma[2] = _break_covariance(sigma[2], check)
        u = rng.uniform(-2, 2, (4, 1))
        out = moment_match(model, GaussianBelief(mu, sigma,
                                                 np.ones(4, dtype=bool)),
                           u, _plant_G, 0.02)
        assert out.ok.tolist() == [True, True, False, True]
        assert np.array_equal(out.mu[2], mu[2])
        assert np.array_equal(out.sigma[2], sigma[2])
        for c in (0, 1, 3):
            single = moment_match(model, GaussianBelief(mu[c], sigma[c]),
                                  u[c], _plant_G, 0.02)
            assert np.array_equal(out.mu[c], single.mu)
            assert np.array_equal(out.sigma[c], single.sigma)


class TestFusedKernel:
    @pytest.mark.parametrize("C", [1, 3])
    def test_log_qbar_matches_element_formula(self, C, rng):
        # the docstring's Qbar[i, j], entry by entry, against the one
        # stacked product; the last two points sit so far away that every
        # entry with one of them underflows to 0
        n, N = 3, 12
        X = rng.normal(size=(N, n))
        X[-2:] += 40.0
        w = rng.uniform(0.5, 2.0, n)
        inputs = [_random_input(rng, n) for _ in range(C)]
        m = np.array([mu for mu, _ in inputs])
        S = np.array([s for _, s in inputs])
        R = S * (2.0 * w) + np.eye(n)
        Y = np.linalg.solve(R, S)
        Y = 0.5 * (Y + Y.transpose(0, 2, 1))
        zeta = X[None] - m[:, None]
        _, log_qbar = _log_qbar(w, zeta, Y, np.linalg.slogdet(R)[1])
        want = np.empty((C, N, N))
        for c in range(C):
            r_inv_s = np.linalg.solve(R[c], S[c])
            norm = np.linalg.det(R[c]) ** -0.5
            for i in range(N):
                for j in range(N):
                    zi, zj = zeta[c, i], zeta[c, j]
                    z = w * zi + w * zj
                    want[c, i, j] = norm * np.exp(
                        -0.5 * zi @ (w * zi) - 0.5 * zj @ (w * zj)
                        + 0.5 * z @ r_inv_s @ z)
        got = np.exp(log_qbar)
        assert np.all(want[:, :-2, :-2] > 0)
        assert not np.any(want[:, -2:]) and not np.any(want[:, :, -2:])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
