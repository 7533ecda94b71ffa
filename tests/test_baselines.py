import numpy as np
import pytest

from gppi.baselines import _rollout_batch, path_cost, sampling_pi_control
from gppi.control import CostSpec
from gppi.errors import ConfigError, NumericalError
from gppi.plants import make_plant


class TestPathCost:
    def test_recomputable_from_trajectory(self, rng):
        cost = CostSpec([[0.7]], [0.2], 1.0, 0.02, 8)
        traj = rng.normal(size=(9, 1))
        total = path_cost(traj, cost)
        manual = sum(0.7 * (traj[j, 0] - 0.2) ** 2 * 0.02 for j in range(1, 8))
        manual += 0.7 * (traj[8, 0] - 0.2) ** 2
        assert total == pytest.approx(manual, abs=1e-10)


class TestSamplingPi:
    def test_zero_cost_keeps_controls_near_old(self):
        plant = make_plant("linear", params=dict(A=[[-0.5]], Bc=[[1.0]],
                                                 B=[[0.1]],
                                                 sigma_omega=[[1.0]]))
        cost = CostSpec([[0.0]], [0.0], 1.0, 0.02, 10)
        rng = np.random.default_rng(0)
        res = sampling_pi_control(plant, [0.0], np.zeros((10, 1)), cost,
                                  n_samples=10_000, rng=rng)
        # uniform weights: delta u is a mean of n iid noises through G^+ B/dt
        sigma_step = 0.1 * np.sqrt(0.02) / 0.02
        assert np.max(np.abs(res.controls)) < 3 * sigma_step / np.sqrt(10_000)
        assert res.ess > 9_000

    def test_weights_normalized(self):
        plant = make_plant("linear", params=dict(A=[[-0.5]], Bc=[[1.0]],
                                                 B=[[0.1]],
                                                 sigma_omega=[[1.0]]))
        cost = CostSpec([[1.0]], [0.3], 0.5, 0.02, 6)
        res = sampling_pi_control(plant, [1.0], np.zeros((6, 1)), cost,
                                  n_samples=500, rng=np.random.default_rng(1))
        assert float(np.sum(res.weights)) == pytest.approx(1.0, abs=1e-12)

    def test_variance_scales_inverse_n(self):
        plant = make_plant("linear", params=dict(A=[[-0.5]], Bc=[[1.0]],
                                                 B=[[0.15]],
                                                 sigma_omega=[[1.0]]))
        cost = CostSpec([[1.0]], [0.4], 0.6, 0.02, 5)
        sizes = [100, 1000, 10_000]
        variances = []
        rng = np.random.default_rng(42)
        for n in sizes:
            reps = [sampling_pi_control(plant, [1.0], np.zeros((5, 1)), cost,
                                        n_samples=n, rng=rng).controls[0, 0]
                    for _ in range(24)]
            variances.append(np.var(reps, ddof=1))
        slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_n_samples_validated(self):
        plant = make_plant("linear", params=dict(A=[[0.0]], Bc=[[1.0]]))
        cost = CostSpec([[1.0]], [0.0], 1.0, 0.02, 3)
        with pytest.raises(ConfigError):
            sampling_pi_control(plant, [0.0], np.zeros((3, 1)), cost, 0,
                                np.random.default_rng(0))

    def test_rank_deficient_noise_gives_finite_controls(self):
        plant = make_plant("linear", params=dict(
            A=[[-0.5, 0.0], [0.0, -0.5]], Bc=[[1.0], [0.0]],
            B=0.1 * np.eye(2), sigma_omega=[[1.0, 1.0], [1.0, 1.0]]))
        cost = CostSpec(np.eye(2), [0.3, 0.0], 1.0, 0.02, 5)
        res = sampling_pi_control(plant, [0.0, 0.0], np.zeros((5, 1)), cost,
                                  n_samples=50, rng=np.random.default_rng(0))
        assert res.controls.shape == (5, 1)
        assert np.all(np.isfinite(res.controls))

    def test_diverging_plant_raises(self):
        plant = make_plant("linear", params=dict(A=[[300.0]], Bc=[[1.0]]))
        cost = CostSpec([[1.0]], [0.0], 1.0, 0.02, 40)
        with pytest.raises(NumericalError):
            sampling_pi_control(plant, [1.0], np.zeros((40, 1)), cost,
                                n_samples=5, rng=np.random.default_rng(0))

    def test_divergence_error_carries_control_step(self):
        plant = make_plant("linear", params=dict(A=[[300.0]], Bc=[[1.0]]))
        cost = CostSpec([[1.0]], [0.0], 1.0, 0.02, 40)
        with pytest.raises(NumericalError) as info:
            sampling_pi_control(plant, [1.0], np.zeros((40, 1)), cost,
                                n_samples=5, rng=np.random.default_rng(0))
        assert isinstance(info.value.step, int)
        assert 0 <= info.value.step < 40
        assert isinstance(info.value.__cause__, NumericalError)

    def test_n_iterations_validated(self):
        plant = make_plant("linear", params=dict(A=[[0.0]], Bc=[[1.0]]))
        cost = CostSpec([[1.0]], [0.0], 1.0, 0.02, 3)
        with pytest.raises(ConfigError):
            sampling_pi_control(plant, [0.0], np.zeros((3, 1)), cost, 10,
                                np.random.default_rng(0), n_iterations=0)


def _sampling_pi_per_sample(plant, x_t, u_old, cost, n_samples, rng,
                            n_iterations):
    """`sampling_pi_control` with a cost loop per sample and a projection
    loop per step, as it was written before they became stack operations."""
    u_seq = np.atleast_2d(np.asarray(u_old, dtype=float)).copy()
    T = cost.horizon_steps
    x_t = np.asarray(x_t, dtype=float)
    for _ in range(n_iterations):
        states, noises = _rollout_batch(plant, x_t, u_seq, n_samples, rng)
        costs = np.empty(n_samples)
        interior = np.arange(1, T)
        for s in range(n_samples):
            traj = states[s]
            diffs = traj[interior] - cost.x_d
            qs = np.einsum("ij,jk,ik->i", diffs, cost.Q, diffs)
            costs[s] = qs.sum() * cost.dt + cost.terminal_cost(traj[T])
        logw = -costs / cost.lam
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        ess = 1.0 / float(w @ w)
        w_noise = np.einsum("s,stp->tp", w, noises)
        nominal = states[int(np.argmax(w))]
        for t in range(T):
            G = plant.control_matrix(nominal[t])
            u_seq[t] = u_seq[t] + np.linalg.pinv(G) @ (
                plant.spec.B @ w_noise[t]) / cost.dt
    return u_seq, w, ess


def _swing_cost(horizon):
    return CostSpec(np.diag([0.5, 0.05, 4.0, 0.1]), [0.0, 0.0, np.pi, 0.0],
                    0.2, 0.02, horizon, Q_terminal=np.diag([1.0, 0.1, 8.0, 0.2]))


class TestSamplingPiStacked:
    """The stacked cost and projection against the per-sample loops."""

    @staticmethod
    def _both(plant, x0, cost, n_samples, n_iterations, seed):
        u0 = np.random.default_rng(seed + 1).normal(
            size=(cost.horizon_steps, plant.spec.m))
        res = sampling_pi_control(plant, x0, u0, cost, n_samples,
                                  np.random.default_rng(seed), n_iterations)
        ref = _sampling_pi_per_sample(plant, x0, u0, cost, n_samples,
                                      np.random.default_rng(seed),
                                      n_iterations)
        return res, ref

    @pytest.mark.parametrize("horizon", [3, 15])
    def test_cartpole_bit_identical(self, cartpole, horizon):
        res, (u, w, ess) = self._both(cartpole, [0.0, 0.0, 0.3, 0.0],
                                      _swing_cost(horizon), 25, 2, seed=4)
        assert np.array_equal(res.controls, u)
        assert np.array_equal(res.weights, w)
        assert res.ess == ess

    def test_linear_bit_identical(self):
        plant = make_plant("linear", params=dict(A=[[-0.5]], Bc=[[1.0]],
                                                 B=[[0.15]],
                                                 sigma_omega=[[1.0]]))
        cost = CostSpec([[1.0]], [0.4], 0.6, 0.02, 5)
        res, (u, w, ess) = self._both(plant, [1.0], cost, 1000, 2, seed=42)
        assert np.array_equal(res.controls, u)
        assert np.array_equal(res.weights, w)
        assert res.ess == ess

    def test_cartpole_single_interior_step(self, cartpole):
        # With one interior step einsum sums the n^2 terms of each sample's
        # quadratic form in another order than with a sample axis, so the
        # costs may differ in the last bit; everything else is unchanged.
        res, (u, w, ess) = self._both(cartpole, [0.0, 0.0, 0.3, 0.0],
                                      _swing_cost(2), 25, 2, seed=4)
        assert np.allclose(res.controls, u, rtol=1e-12, atol=0)
        assert np.allclose(res.weights, w, rtol=1e-12, atol=1e-300)
        assert res.ess == pytest.approx(ess, rel=1e-12)

