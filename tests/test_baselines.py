import numpy as np
import pytest

from gppi.baselines import (LqgSolution, PathCostSample, lqg_solve,
                            noise_tied_control_weight, riccati_residual,
                            sampling_pi_control)
from gppi.control import CostSpec
from gppi.errors import ConfigError, NumericalError
from gppi.plants import make_plant


class TestLqg:
    def test_zero_cost_zero_gains(self):
        sol = lqg_solve(np.eye(2), [[0.0], [1.0]], np.zeros((2, 2)),
                        [[1.0]], np.zeros((2, 2)), 10)
        for K in sol.gains:
            assert np.allclose(K, 0.0)

    def test_scalar_one_step_gain(self):
        sol = lqg_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], 1)
        assert sol.gains[0][0, 0] == pytest.approx(0.5)

    def test_double_integrator_cost_to_go_matches_policy_eval(self):
        dt = 0.02
        A = np.array([[1.0, dt], [0.0, 1.0]])
        B = np.array([[0.0], [dt]])
        Q = np.diag([1.0, 0.1]) * dt
        R = np.array([[0.5 * dt]])
        Qf = np.eye(2)
        sol = lqg_solve(A, B, Q, R, Qf, 60)
        x0 = np.array([1.0, -0.5])
        predicted = float(x0 @ sol.value[0] @ x0)
        x = x0.copy()
        total = 0.0
        for t in range(60):
            u = -sol.gains[t] @ x
            total += float(x @ Q @ x + u @ R @ u)
            x = A @ x + B @ u
        total += float(x @ Qf @ x)
        assert total == pytest.approx(predicted, abs=1e-8)

    def test_riccati_fixed_point_residual(self):
        A = np.array([[1.0, 0.02], [0.0, 1.0]])
        B = np.array([[0.0], [0.02]])
        sol = lqg_solve(A, B, 0.1 * np.eye(2), [[0.5]], np.eye(2), 60)
        assert riccati_residual(sol, A, B, 0.1 * np.eye(2), [[0.5]]) < 1e-10

    def test_horizon_validated(self):
        with pytest.raises(ConfigError):
            lqg_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], 0)


class TestPathCost:
    def test_recomputable_from_trajectory(self, rng):
        cost = CostSpec([[0.7]], [0.2], 1.0, 0.02, 8)
        traj = rng.normal(size=(9, 1))
        total = PathCostSample.path_cost(traj, cost)
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


def test_noise_tied_weight_scalar():
    plant = make_plant("linear", params=dict(A=[[0.0]], Bc=[[2.0]],
                                             B=[[0.5]], sigma_omega=[[1.0]]))
    # lam g^2 / r = b^2 sigma^2  =>  r = lam g^2 / (b^2 sigma^2)
    R = noise_tied_control_weight(plant, lam=0.8)
    assert R[0, 0] == pytest.approx(0.8 * 4.0 / 0.25)
