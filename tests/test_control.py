from dataclasses import replace

import numpy as np
import pytest

from gppi.checks import fd_tail_gradient
from gppi.control import (DAMPING_LADDER, EXPANSION_MAX, EXPANSION_SCALES,
                          LOG_PHI_FLOOR, BeliefTrajectory, ControlSequence,
                          CostSpec, DesirabilityTrace, _candidate_values,
                          _with_control_jac, backward_desirability,
                          control_update, desirability_gradient,
                          forward_rollout, inner_optimize, log_phi_step,
                          mpc_learning_loop, terminal_log_desirability)
from gppi.errors import ConfigError, NumericalError
from gppi.gp import GpModel, refit
from gppi.moments import GaussianBelief
from gppi.oracles import path_integral_quadrature
from gppi.plants import make_plant


def _belief(mu, sigma):
    return GaussianBelief(np.atleast_1d(np.asarray(mu, dtype=float)),
                          np.atleast_2d(np.asarray(sigma, dtype=float)))


class TestPhi:
    def test_pinned_1d_value(self):
        # (w / 2 lam) Q = 1 with lam = 1, Sigma = 1, mu - x_d = 1
        cost = CostSpec([[1.0]], [0.0], 1.0, 1.0, 1)
        phi = np.exp(log_phi_step(_belief([1.0], [[1.0]]), cost, 1.0)[0])
        assert phi == pytest.approx(2 ** -0.5 * np.exp(-0.25), rel=1e-12)
        assert phi == pytest.approx(0.55069, abs=1e-5)

    def test_zero_cost_gives_unit_phi(self):
        cost = CostSpec([[0.0]], [0.0], 1.0, 0.02, 1)
        lp, dmu, dsig = log_phi_step(_belief([2.0], [[1.5]]), cost, 0.02)
        assert np.exp(lp) == 1.0
        assert np.allclose(dmu, 0.0) and np.allclose(dsig, 0.0)

    def test_delta_mass_at_target(self):
        cost = CostSpec([[3.0]], [0.7], 1.0, 0.02, 1)
        phi = np.exp(log_phi_step(_belief([0.7], [[0.0]]), cost, 1.0)[0])
        assert phi == 1.0

    def test_partials_match_fd(self, rng):
        cost = CostSpec(np.array([[2.0, 0.3], [0.3, 1.0]]), [0.5, -0.2],
                        0.7, 0.05, 3)
        a = rng.normal(size=(2, 2)) * 0.4
        S = a @ a.T + 0.1 * np.eye(2)
        mu = np.array([0.8, 0.1])
        lp, dmu, dsig = log_phi_step(_belief(mu, S), cost, 0.05, step_index=1)
        eps = 1e-6
        for k in range(2):
            d = np.zeros(2)
            d[k] = eps
            hi, _, _ = log_phi_step(_belief(mu + d, S), cost, 0.05, step_index=1)
            lo, _, _ = log_phi_step(_belief(mu - d, S), cost, 0.05, step_index=1)
            assert (hi - lo) / (2 * eps) == pytest.approx(dmu[k], abs=1e-8)
        for k in range(2):
            for l in range(2):
                dS = np.zeros((2, 2))
                dS[k, l] += eps / 2
                dS[l, k] += eps / 2
                hi, _, _ = log_phi_step(_belief(mu, S + dS), cost, 0.05,
                                        step_index=1)
                lo, _, _ = log_phi_step(_belief(mu, S - dS), cost, 0.05,
                                        step_index=1)
                sym = 0.5 * (dsig[k, l] + dsig[l, k])
                assert (hi - lo) / (2 * eps) == pytest.approx(sym, abs=1e-7)


class TestForwardRollout:
    def test_single_step_empty_model(self):
        model = GpModel.empty(2)
        plant = make_plant("linear", params=dict(A=np.zeros((2, 2)),
                                                 Bc=[[0.0], [1.0]]))
        cost = CostSpec(np.eye(2), [0.0, 0.0], 1.0, 0.02, 1)
        traj = forward_rollout(model, [0.3, -0.4],
                               ControlSequence(np.zeros((1, 1))), plant, cost)
        assert traj.mu.shape == (2, 2) and traj.sigma.shape == (2, 2, 2)
        assert np.allclose(traj.mu[1], [0.3, -0.4])
        assert np.allclose(traj.sigma[1], np.diag([1.01, 1.01]))

    def test_linear_plant_mean_tracks_closed_form(self, linear_plant,
                                                  linear_model):
        cost = CostSpec([[1.0]], [0.0], 1.0, 0.02, 40)
        traj = forward_rollout(linear_model, [1.0],
                               ControlSequence(np.zeros((40, 1))),
                               linear_plant, cost, compute_jac=False)
        for t in (10, 25, 40):
            expected = np.exp(-0.5 * t * 0.02)
            assert traj.mu[t, 0] == pytest.approx(expected, rel=0.02)

    def test_cartpole_horizon_all_psd(self, cartpole, cartpole_model, rng):
        cost = CostSpec(np.diag([0.5, 0.05, 2.0, 0.05]), [0, 0, np.pi, 0],
                        1.0, 0.02, 60)
        us = ControlSequence(rng.uniform(-3, 3, (60, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole,
                               cost, compute_jac=False)
        assert traj.mu.shape == (61, 4)
        for s in traj.sigma:
            eig = np.linalg.eigvalsh(0.5 * (s + s.T))
            assert eig.size == 0 or eig[0] >= -1e-12 * max(np.trace(s), 1e-300)

    def test_length_mismatch_rejected(self, cartpole, cartpole_model):
        cost = CostSpec(np.eye(4), np.zeros(4), 1.0, 0.02, 5)
        with pytest.raises(ConfigError):
            forward_rollout(cartpole_model, np.zeros(4),
                            ControlSequence(np.zeros((4, 1))), cartpole, cost)

    @pytest.mark.parametrize("compute_jac", [False, True])
    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_single_plan_failure_carries_its_step(self, k, compute_jac):
        # an empty model and unit control move the mean from 0 by exactly 1
        # per step; the control matrix is infinite from mean k on, so the
        # belief mean overflows at step k
        class FailingPlant:
            def control_matrix(self, x):
                big = np.asarray(x)[..., :1, None] >= k - 0.5
                return np.where(big, np.inf, 1.0)

            def control_matrix_jac(self, x):
                return np.zeros((1, 1, 1))

        cost = CostSpec([[1.0]], [0.0], 1.0, 1.0, 6)
        with pytest.raises(NumericalError) as info:
            forward_rollout(GpModel.empty(1), [0.0],
                            ControlSequence(np.ones((6, 1))), FailingPlant(),
                            cost, compute_jac=compute_jac)
        assert info.value.step == k
        assert str(info.value).startswith(f"forward rollout failed at step {k}")

    @pytest.mark.parametrize("compute_jac", [False, True])
    def test_non_finite_start_state_rejected(self, cartpole, cartpole_model,
                                             compute_jac):
        cost = CostSpec(np.eye(4), np.zeros(4), 1.0, 0.02, 5)
        with pytest.raises(NumericalError, match="non-finite belief") as info:
            forward_rollout(cartpole_model, [np.nan, 0.0, 0.0, 0.0],
                            ControlSequence(np.ones((5, 1))), cartpole, cost,
                            compute_jac=compute_jac)
        assert info.value.step == 0


class TestBackwardDesirability:
    def test_zero_cost_everywhere(self, cartpole, cartpole_model, rng):
        cost = CostSpec(np.zeros((4, 4)), np.zeros(4), 1.0, 0.02, 10)
        us = ControlSequence(rng.uniform(-2, 2, (10, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole, cost)
        trace = backward_desirability(traj, cost)
        assert np.allclose(trace.log_psi, 0.0)

    def test_single_step_base_case(self, cartpole, cartpole_model):
        cost = CostSpec(np.diag([1.0, 0.1, 2.0, 0.1]), [0, 0, np.pi, 0],
                        1.0, 0.02, 1)
        traj = forward_rollout(cartpole_model, np.zeros(4),
                               ControlSequence(np.zeros((1, 1))),
                               cartpole, cost)
        trace = backward_desirability(traj, cost)
        lp, _, _ = log_phi_step(traj.belief(1), cost, 1.0, terminal=True,
                                step_index=1)
        assert trace.log_psi[0] == pytest.approx(lp)
        assert trace.log_psi[1] == pytest.approx(lp)

    def test_log_domain_equals_direct_domain(self, cartpole, cartpole_model,
                                             rng):
        # direct-domain recursion: Psi_{j-1} = phi_j * Psi_j
        cost = CostSpec(np.diag([0.2, 0.02, 0.5, 0.02]), [0, 0, np.pi, 0],
                        5.0, 0.02, 15)
        us = ControlSequence(rng.uniform(-2, 2, (15, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole, cost)
        trace = backward_desirability(traj, cost)
        psi = np.exp(log_phi_step(traj.belief(15), cost, 1.0, terminal=True,
                                  step_index=15)[0])
        direct = np.zeros(16)
        direct[15] = psi
        direct[14] = psi
        for t in range(13, -1, -1):
            phi = np.exp(log_phi_step(traj.belief(t + 1), cost, cost.dt,
                                      step_index=t + 1)[0])
            direct[t] = phi * direct[t + 1]
        assert np.all(direct >= 1e-100)
        assert np.allclose(np.exp(trace.log_psi), direct, rtol=1e-10)

    def test_matches_tensor_path_quadrature_1d(self, linear_plant,
                                               linear_model, rng):
        cost = CostSpec([[0.8]], [0.25], 1.3, 0.02, 5)
        us = ControlSequence(rng.uniform(-0.5, 0.5, (5, 1)))
        traj = forward_rollout(linear_model, [0.55], us, linear_plant, cost,
                               compute_jac=False)
        lp = backward_desirability(traj, cost).log_psi[0]
        ref = path_integral_quadrature(linear_model, [0.55], us.u,
                                       linear_plant, cost, nodes_per_dim=14)
        assert lp == pytest.approx(ref, rel=1e-4)


def _backward_per_step(traj, cost):
    """Reference: the step-by-step recursion, one `log_phi_step` call per
    step from the terminal one down.  Returns log Psi, the saturation flags
    and the log phi partials {t: (d/dmu, d/dSigma)}; a single plan raises
    the error of the first step that fails in that order."""
    T = cost.horizon_steps
    rows = traj.mu.shape[:-2]
    log_psi = np.zeros(rows + (T + 1,))
    saturated = np.zeros(rows, dtype=bool)
    partials = {}

    def floored(lp):
        nonlocal saturated
        low = (lp < LOG_PHI_FLOOR) & (lp > -np.inf)
        saturated = saturated | low
        return np.where(low, LOG_PHI_FLOOR, lp)

    lp, *partials[T] = log_phi_step(traj.belief(T), cost, 1.0, terminal=True,
                                    step_index=T)
    log_psi[..., T] = floored(lp)
    log_psi[..., T - 1] = log_psi[..., T]
    for t in range(T - 2, -1, -1):
        lp, *partials[t + 1] = log_phi_step(traj.belief(t + 1), cost, cost.dt,
                                            step_index=t + 1)
        log_psi[..., t] = floored(lp) + log_psi[..., t + 1]
    return log_psi, saturated, partials


def _assert_matches_per_step(traj, cost):
    trace = backward_desirability(traj, cost)
    log_psi, saturated, partials = _backward_per_step(traj, cost)
    assert np.array_equal(trace.log_psi, log_psi)
    assert np.array_equal(trace.saturated, saturated)
    for t, (dmu, dsig) in partials.items():
        assert np.array_equal(trace._phi_mu[..., t, :], dmu, equal_nan=True)
        assert np.array_equal(trace._phi_sigma[..., t, :, :], dsig,
                              equal_nan=True)
    return trace


class TestStackedBackwardPass:
    """`backward_desirability` evaluates log phi once for the terminal step
    and once for all interior steps; it equals the step-by-step recursion
    bit for bit, errors included."""

    # n = 2, Q = I, lam = 1, dt = 0.02: interior M = 0.02 I, terminal M = I
    COST = CostSpec(np.eye(2), np.zeros(2), 1.0, 0.02, 6)

    def _traj(self, mus, sigmas, ok=None):
        # mus (T+1, ...) step first; the record keeps a batch's rows first
        if ok is not None:
            mus, sigmas, ok = mus.swapaxes(0, 1), sigmas.swapaxes(0, 1), ok.T
        return BeliefTrajectory(mus, sigmas, ok, None, None, None, [])

    def _batch(self, rng):
        T, C = self.COST.horizon_steps, 5
        mus = rng.normal(size=(T + 1, C, 2))
        a = 0.3 * rng.normal(size=(T + 1, C, 2, 2))
        sigmas = a @ a.transpose(0, 1, 3, 2) + 0.01 * np.eye(2)
        ok = np.ones((T + 1, C), dtype=bool)
        ok[3:, 1] = False                   # rollout of row 1 failed at step 3
        mus[:, 2] = 300.0                   # row 2 saturates at every step
        sigmas[4, 3] = -50.0 * np.eye(2)    # row 3: I + M Sigma singular
        sigmas[2, 4] = np.diag([-100.0, 1.0])   # row 4: det(I + M Sigma) < 0
        return mus, sigmas, ok

    def test_single_plan_matches_per_step(self, cartpole, cartpole_model,
                                          swing_cost, rng):
        us = ControlSequence(rng.uniform(-2, 2, (20, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole,
                               swing_cost)
        _assert_matches_per_step(traj, swing_cost)
        mus, sigmas, _ = self._batch(rng)
        trace = _assert_matches_per_step(
            self._traj(mus[:, 2], sigmas[:, 2]), self.COST)
        assert trace.saturated is True

    @pytest.mark.parametrize("T", [1, 2, 6])
    def test_batch_with_failed_and_saturated_rows(self, T, rng):
        mus, sigmas, ok = self._batch(rng)
        cost = replace(self.COST, horizon_steps=T)
        keep = list(range(T)) + [self.COST.horizon_steps]
        trace = _assert_matches_per_step(
            self._traj(mus[keep], sigmas[keep], ok[keep]), cost)
        if T == 6:
            assert trace.saturated.tolist() == [False, False, True, False,
                                                False]
            assert np.isfinite(trace.log_psi[[0, 2]]).all()
            assert (trace.log_psi[[1, 3, 4], 0] == -np.inf).all()

    @pytest.mark.parametrize("bad", [{4: -50.0}, {2: -100.0},
                                     {2: -100.0, 4: -50.0}, {6: -2.0},
                                     {3: -50.0, 6: -2.0}])
    def test_single_plan_raises_first_failure_from_the_end(self, bad):
        # at step k, Sigma = -50 I makes I + M Sigma singular at an interior
        # step, diag(-100, 1) gives it a negative determinant, and
        # diag(-2, 1) does so at the terminal step (M = I)
        T = self.COST.horizon_steps
        mus = np.zeros((T + 1, 2))
        sigmas = np.tile(0.1 * np.eye(2), (T + 1, 1, 1))
        for k, v in bad.items():
            sigmas[k] = np.diag([v, 1.0]) if v != -50.0 else v * np.eye(2)
        traj = self._traj(mus, sigmas)
        with pytest.raises(NumericalError) as want:
            _backward_per_step(traj, self.COST)
        with pytest.raises(NumericalError) as got:
            backward_desirability(traj, self.COST)
        assert str(got.value) == str(want.value)
        assert got.value.step == want.value.step == max(bad)


class TestDesirabilityGradient:
    def test_zero_cost_zero_gradient(self, cartpole, cartpole_model, rng):
        cost = CostSpec(np.zeros((4, 4)), np.zeros(4), 1.0, 0.02, 8)
        us = ControlSequence(rng.uniform(-2, 2, (8, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole, cost)
        trace = desirability_gradient(traj, backward_desirability(traj, cost),
                                      cost)
        assert np.allclose(trace.grad_psi_over_psi, 0.0)

    def test_symmetric_problem_zero_gradient_at_t0(self):
        # symmetric 1-D problem: target at the start state, symmetric prior
        model = GpModel.empty(1)
        plant = make_plant("linear", params=dict(A=[[0.0]], Bc=[[1.0]]))
        cost = CostSpec([[1.0]], [0.0], 1.0, 0.02, 6)
        traj = forward_rollout(model, [0.0], ControlSequence(np.zeros((6, 1))),
                               plant, cost)
        trace = desirability_gradient(traj, backward_desirability(traj, cost),
                                      cost)
        assert np.allclose(trace.grad_psi_over_psi[0], 0.0, atol=1e-12)

    def test_matches_fd_over_x0(self, cartpole, cartpole_model, dpc,
                                dpc_model, rng):
        cases = [
            (cartpole, cartpole_model, [0.5, 0.05, 2.0, 0.05],
             [0, 0, np.pi, 0], [0.0, 0.1, 0.3, -0.2]),
            (dpc, dpc_model, [0.5, 0.05, 2.0, 0.05, 2.0, 0.05],
             [0, 0, np.pi, 0, np.pi, 0], [0.0, 0.1, 0.3, -0.2, 0.2, 0.1]),
        ]
        for plant, model, q, x_d, x0 in cases:
            cost = CostSpec(np.diag(q), x_d, 1.0, 0.02, 20)
            us = ControlSequence(rng.uniform(-2, 2, (20, 1)))
            traj = forward_rollout(model, np.array(x0), us, plant, cost)
            trace = desirability_gradient(
                traj, backward_desirability(traj, cost), cost)
            # entry j is d log Psi_j / d mu_j; at j = 0 that is d / d x0
            for j in (0, 5, 13, 20):
                fd = fd_tail_gradient(model, traj, plant, cost, j)
                denom = max(np.max(np.abs(fd)), 1e-12)
                assert np.max(np.abs(trace.grad_psi_over_psi[j] - fd)) \
                    / denom < 1e-4

    def test_terminal_gradient_is_log_phi_partial(self, cartpole,
                                                  cartpole_model, rng,
                                                  swing_cost):
        us = ControlSequence(rng.uniform(-2, 2, (20, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole,
                               swing_cost)
        trace = desirability_gradient(
            traj, backward_desirability(traj, swing_cost), swing_cost)
        T = swing_cost.horizon_steps
        _, dmu, _ = log_phi_step(traj.belief(T), swing_cost, 1.0,
                                 terminal=True, step_index=T)
        assert np.allclose(trace.grad_psi_over_psi[T], dmu, rtol=1e-12, atol=0)

    def test_missing_jacobians_rejected(self, cartpole, cartpole_model,
                                        swing_cost, rng):
        us = ControlSequence(rng.uniform(-1, 1, (20, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole,
                               swing_cost, compute_jac=False)
        trace = backward_desirability(traj, swing_cost)
        with pytest.raises(ConfigError):
            desirability_gradient(traj, trace, swing_cost)


class TestControlUpdate:
    @staticmethod
    def _traj(old, sigma_f):
        """The record of a 1-D plan that stays at 0 with increment
        variance sigma_f at every step."""
        T = old.horizon
        return BeliefTrajectory(np.zeros((T + 1, 1)), np.zeros((T + 1, 1, 1)),
                                None, np.zeros((T, 1)),
                                np.full((T, 1, 1), sigma_f), old, [])

    def test_zero_gradient_returns_old_controls(self, rng):
        plant = make_plant("linear", params=dict(A=[[0.0]], Bc=[[1.0]]))
        old = ControlSequence(rng.normal(size=(3, 1)))
        trace = DesirabilityTrace(np.zeros(4), np.zeros((4, 1)))
        new = control_update(trace, self._traj(old, 0.04), plant)
        assert np.array_equal(new.u, old.u)

    def test_scalar_arithmetic(self):
        plant = make_plant("linear", params=dict(A=[[0.0]], Bc=[[1.0]]))
        traj = self._traj(ControlSequence(np.zeros((1, 1))), 0.04)
        trace = DesirabilityTrace(np.zeros(2), np.array([[2.0], [0.0]]))
        new = control_update(trace, traj, plant, lam=1.0)
        assert new.u[0, 0] == pytest.approx(0.08, abs=1e-15)
        assert new.R.shape == (1, 1, 1)
        assert new.R[0, 0, 0] == pytest.approx(1.0 / 0.04, rel=1e-12)

    def test_value_only_trace_rejected(self, cartpole, cartpole_model,
                                       swing_cost, rng):
        us = ControlSequence(rng.uniform(-1, 1, (20, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole,
                               swing_cost)
        trace = backward_desirability(traj, swing_cost)
        assert trace.grad_psi_over_psi is None
        with pytest.raises(ConfigError, match="gradient has not been computed"):
            control_update(trace, traj, cartpole)

    def test_structural_constraint_on_range_G(self, cartpole, cartpole_model,
                                              swing_cost, rng):
        us = ControlSequence(rng.uniform(-2, 2, (20, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole,
                               swing_cost)
        trace = desirability_gradient(
            traj, backward_desirability(traj, swing_cost), swing_cost)
        new = control_update(trace, traj, cartpole, lam=swing_cost.lam)
        for t in (0, 7, 19):
            G = cartpole.control_matrix(traj.mu[t])
            sf = traj.sigma_f[t]
            R = new.R[t]
            proj = G @ np.linalg.pinv(G)
            lhs = swing_cost.lam * G @ np.linalg.inv(R) @ G.T
            rhs = proj @ sf @ proj
            rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(sf)
            assert rel < 1e-8

    def test_requires_gradient(self, cartpole, cartpole_model, swing_cost,
                               rng):
        us = ControlSequence(rng.uniform(-1, 1, (20, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole,
                               swing_cost)
        trace = backward_desirability(traj, swing_cost)
        with pytest.raises(ConfigError):
            control_update(trace, traj, cartpole)


def _control_update_per_step(trace, traj, plant, lam=1.0):
    """`control_update` as one control_matrix, pinv and inv per step, as
    it was written before the horizon became one stack."""
    controls_old = traj.controls_old
    new_u = np.empty_like(controls_old.u)
    weights, flagged = [], []
    for t in range(controls_old.horizon):
        G = plant.control_matrix(traj.mu[t])
        Gp = np.linalg.pinv(G)
        sf = traj.sigma_f[t]
        target_vec = sf @ trace.grad_psi_over_psi[t]
        du = Gp @ target_vec
        resid = np.linalg.norm(G @ du - target_vec)
        if resid > 1e-8 * max(np.linalg.norm(target_vec), 1e-300):
            flagged.append(t)
        new_u[t] = controls_old.clamp(controls_old.u[t] + du)
        try:
            weights.append(lam * np.linalg.inv(Gp @ sf @ Gp.T))
        except np.linalg.LinAlgError:
            weights.append(np.full((G.shape[1], G.shape[1]), np.nan))
    return new_u, weights, flagged


def _assert_update_matches_per_step(trace, traj, plant, lam):
    new = control_update(trace, traj, plant, lam=lam)
    u, weights, flagged = _control_update_per_step(trace, traj, plant, lam)
    assert np.array_equal(new.u, u)
    assert isinstance(new.R, np.ndarray)
    assert np.array_equal(new.R, weights, equal_nan=True)
    assert new.flagged_steps == flagged
    return new


class TestControlUpdateStacked:
    """The stacked update against a per-step reference copy."""

    @pytest.mark.parametrize("which", ["cartpole", "dpc"])
    def test_rollout_bit_identical(self, which, cartpole, cartpole_model,
                                   dpc, dpc_model):
        plant, model = (cartpole, cartpole_model) if which == "cartpole" \
            else (dpc, dpc_model)
        n = plant.spec.n
        x_d = np.zeros(n)
        x_d[2::2] = np.pi
        cost = CostSpec(np.diag(np.linspace(0.5, 3.0, n)), x_d, 0.3, 0.02, 30)
        rng = np.random.default_rng(21)
        us = ControlSequence(rng.uniform(-2, 2, (30, 1)), u_min=[-20.0],
                             u_max=[20.0])
        traj = forward_rollout(model, np.zeros(n), us, plant, cost)
        trace = desirability_gradient(
            traj, backward_desirability(traj, cost), cost)
        new = _assert_update_matches_per_step(trace, traj, plant, cost.lam)
        assert new.flagged_steps    # underactuated: gradients leave range(G)

    @pytest.mark.parametrize("name", ["arm", "linear"])
    def test_singular_step_gets_nan_weight(self, name):
        plant = make_plant("arm") if name == "arm" else make_plant(
            "linear", params=dict(A=np.zeros((3, 3)),
                                  Bc=[[1.0], [0.5], [0.0]]))
        n, T = plant.spec.n, 12
        rng = np.random.default_rng(8)
        mu = np.array([rng.normal(size=n) for _ in range(T + 1)])
        sf = np.zeros((T, n, n))
        for t in range(T):
            a = rng.normal(size=(n, n))
            if t != 4:
                sf[t] = 0.01 * a @ a.T
        grad = rng.normal(size=(T + 1, n))
        grad[7] = 0.0
        trace = DesirabilityTrace(np.zeros(T + 1), grad)
        us = ControlSequence(rng.normal(size=(T, plant.spec.m)),
                             u_min=[-0.5] * plant.spec.m,
                             u_max=[0.5] * plant.spec.m)
        traj = BeliefTrajectory(mu, np.zeros((T + 1, n, n)), None,
                                np.zeros((T, n)), sf, us, [])
        new = _assert_update_matches_per_step(trace, traj, plant, 0.7)
        assert np.all(np.isnan(new.R[4]))
        assert all(np.all(np.isfinite(r)) for t, r in enumerate(new.R)
                   if t != 4)
        assert 7 not in new.flagged_steps


class TestInnerOptimize:
    def test_infinite_tol_single_update(self, cartpole, cartpole_model,
                                        swing_cost, rng):
        us = ControlSequence(rng.uniform(-1, 1, (20, 1)))
        res = inner_optimize(cartpole_model, np.zeros(4), us, swing_cost,
                             cartpole, max_iters=5, tol=np.inf)
        assert res.n_iters == 1

    def test_monotone_accepted_values(self, cartpole, cartpole_model,
                                      swing_cost, rng):
        us = ControlSequence(rng.uniform(-1, 1, (20, 1)))
        res = inner_optimize(cartpole_model, np.zeros(4), us, swing_cost,
                             cartpole, max_iters=6, tol=1e-5)
        diffs = np.diff(res.accepted_log_psi)
        assert np.all(diffs >= -1e-12)

    def test_improves_on_zero_controls(self, cartpole, cartpole_model):
        cost = CostSpec(np.diag([1.0, 0.05, 4.0, 0.05]), [0, 0, np.pi, 0],
                        0.2, 0.02, 30)
        us = ControlSequence(np.zeros((30, 1)))
        res = inner_optimize(cartpole_model, np.zeros(4), us, cost, cartpole,
                             max_iters=10, tol=1e-6)
        base = inner_optimize(cartpole_model, np.zeros(4), us, cost, cartpole,
                              max_iters=1, tol=np.inf)
        assert res.log_psi0 >= base.accepted_log_psi[0]
        assert res.log_psi0 > res.accepted_log_psi[0]

    @pytest.mark.parametrize("case,status", [
        ("single-update", "converged"), ("shared-scales", "max-iters"),
        ("all-clamped", "converged"), ("edge", "max-iters"),
        ("edge-stalls", "stalled"), ("edge-no-progress", "no-progress")])
    def test_returns_the_value_of_its_controls(self, case, status, cartpole,
                                               cartpole_model, swing_cost,
                                               rng):
        # the cases of the line-search tests; _EdgePlant started close to
        # its edge stalls after one step, or fails at every scale
        if case.startswith("edge"):
            x0 = {"edge": 0.0, "edge-stalls": 0.499,
                  "edge-no-progress": 0.4999}[case]
            args = (GpModel.empty(1), [x0], ControlSequence(np.zeros((10, 1))),
                    CostSpec([[1.0]], [2.0], 1.0, 0.02, 10), _EdgePlant())
            res = inner_optimize(*args, max_iters=3, tol=1e-6)
        else:
            lo, hi, u = ((2.0, 2.0, np.full((20, 1), 2.0))
                         if case == "all-clamped"
                         else (-10.0, 10.0, rng.uniform(-1, 1, (20, 1))))
            us = ControlSequence(u, u_min=np.full(1, lo), u_max=np.full(1, hi))
            args = (cartpole_model, np.zeros(4), us, swing_cost, cartpole)
            res = inner_optimize(*args, max_iters=4,
                                 tol=np.inf if case == "single-update"
                                 else 1e-6)
        assert res.status == status
        assert res.log_psi0 == res.accepted_log_psi[-1] \
            == max(res.accepted_log_psi)
        model, x0, _, cost, plant = args
        traj = forward_rollout(model, x0, res.controls, plant, cost,
                               compute_jac=False)
        assert backward_desirability(traj, cost).log_psi[0] == res.log_psi0

    def test_max_iters_validated(self, cartpole, cartpole_model, swing_cost):
        with pytest.raises(ConfigError):
            inner_optimize(cartpole_model, np.zeros(4),
                           ControlSequence(np.zeros((20, 1))), swing_cost,
                           cartpole, max_iters=0)


class TestMpcLoop:
    def test_zero_trials_rejected(self, cartpole):
        cost = CostSpec(np.eye(4), np.zeros(4), 1.0, 0.02, 10)
        with pytest.raises(ConfigError):
            mpc_learning_loop(cartpole, cost, trials=0, seed=0,
                              init_rollouts=1, u_max=2.0, inner_max_iters=2,
                              max_points=80, x0=np.zeros(4))

    def test_short_run_produces_metrics_and_artifacts(self):
        plant = make_plant("linear", params=dict(A=[[-0.3]], Bc=[[1.0]],
                                                 B=[[0.05]],
                                                 sigma_omega=[[1.0]]))
        cost = CostSpec([[1.0]], [0.5], 0.5, 0.02, 10)
        res = mpc_learning_loop(plant, cost, trials=2, seed=1,
                                init_rollouts=1, u_max=2.0,
                                inner_max_iters=2, max_points=80,
                                x0=np.zeros(1))
        assert len(res.metrics) == 2
        assert res.controls.shape == (10, 1)
        assert res.log_psi.shape == (11,)
        assert np.all(np.isfinite(res.log_psi))

    def test_log_psi_is_value_at_executed_controls(self, monkeypatch):
        # the recorded log Psi of each step must be the value of the returned
        # controls, not of the pass that generated them
        from gppi import control
        results = []

        def recording(*args, **kwargs):
            res = inner_optimize(*args, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(control, "inner_optimize", recording)
        plant = make_plant("linear", params=dict(A=[[-0.3]], Bc=[[1.0]],
                                                 B=[[0.05]],
                                                 sigma_omega=[[1.0]]))
        cost = CostSpec([[1.0]], [0.5], 0.5, 0.02, 10)
        res = mpc_learning_loop(plant, cost, trials=1, seed=1,
                                init_rollouts=1, u_max=2.0,
                                inner_max_iters=2, max_points=80,
                                x0=np.zeros(1))
        assert len(results) == 10
        assert np.array_equal(res.log_psi[:-1],
                              [r.log_psi0 for r in results])
        assert any(r.log_psi0 != r.trace.log_psi[0] for r in results)

    def test_terminal_log_desirability_point_value(self):
        cost = CostSpec([[2.0]], [1.0], 0.5, 0.02, 5)
        lp = terminal_log_desirability(cost, [0.0])
        assert lp == pytest.approx(-2.0 * 1.0 / (2 * 0.5))

    def _linear_run(self, trials, **kwargs):
        plant = make_plant("linear", params=dict(A=[[-0.3]], Bc=[[1.0]],
                                                 B=[[0.05]],
                                                 sigma_omega=[[1.0]]))
        cost = CostSpec([[1.0]], [0.5], 0.5, 0.02, 10)
        return mpc_learning_loop(plant, cost, trials=trials, seed=1,
                                 init_rollouts=1, u_max=2.0,
                                 inner_max_iters=2, max_points=80,
                                 x0=np.zeros(1), **kwargs)

    def test_factors_updated_only_after_first_refit(self, monkeypatch,
                                                    factor_updates):
        # 3 initialization rollouts of 10 steps fill a 12-point model, so
        # initialization runs below and at max_points and every trial
        # sample is at it; the counts are read at each refit
        from gppi import control
        at_refit = []

        def counted_refit(model, *args, **kwargs):
            at_refit.append((model.factored,
                             len(factor_updates["_rank1_extend"]),
                             len(factor_updates["_delete_point"])))
            return refit(model, *args, **kwargs)

        monkeypatch.setattr(control, "refit", counted_refit)
        plant = make_plant("linear", params=dict(A=[[-0.3]], Bc=[[1.0]],
                                                 B=[[0.05]],
                                                 sigma_omega=[[1.0]]))
        cost = CostSpec([[1.0]], [0.5], 0.5, 0.02, 10)
        res = mpc_learning_loop(plant, cost, trials=2, seed=1,
                                init_rollouts=3, u_max=2.0,
                                inner_max_iters=2, max_points=12,
                                x0=np.zeros(1))
        assert not any(m.aborted for m in res.metrics)
        # one extension and one downdate per trial sample, none before
        assert at_refit == [(False, 0, 0), (True, 10, 10), (True, 20, 20)]
        assert res.model.n_points == 12

    def test_aborted_trial_recorded_and_skipped(self, monkeypatch):
        from gppi import control
        calls = []

        def failing_first_trial(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:         # step 2 of trial 0
                raise NumericalError("injected", step=2)
            return inner_optimize(*args, **kwargs)

        monkeypatch.setattr(control, "inner_optimize", failing_first_trial)
        res = self._linear_run(trials=2)
        first, second = res.metrics
        assert first.aborted and np.isnan(first.terminal_log_psi)
        assert np.isnan(first.terminal_cost) and first.states is None
        assert not second.aborted
        # the result is the completed trial's, with its terminal value once
        assert np.array_equal(res.states, second.states)
        assert res.log_psi[-1] == second.terminal_log_psi
        assert res.log_psi[-1] == terminal_log_desirability(res.cost,
                                                            res.states[-1])

    def test_every_trial_aborted_raises(self, monkeypatch):
        from gppi import control

        def failing(*args, **kwargs):
            raise NumericalError("injected", step=0)

        monkeypatch.setattr(control, "inner_optimize", failing)
        with pytest.raises(NumericalError, match="every trial aborted"):
            self._linear_run(trials=2)


def _sequential_inner_optimize(model, x0, controls_init, cost, plant,
                               max_iters, tol):
    """Reference: the one-candidate-per-rollout line search that
    `inner_optimize` replaced, with the same loop and acceptance rule."""
    def evaluate(controls):
        traj = forward_rollout(model, x0, controls, plant, cost,
                               compute_jac=False)
        return float(backward_desirability(traj, cost).log_psi[0])

    u_cur = controls_init
    traj = forward_rollout(model, x0, u_cur, plant, cost, compute_jac=True)
    trace = desirability_gradient(traj, backward_desirability(traj, cost), cost)
    log_psi0 = float(trace.log_psi[0])
    initial_log_psi0 = log_psi0
    best = (log_psi0, u_cur)
    accepted = [log_psi0]
    scales = []
    status = "max-iters"
    n_done = 0
    for it in range(max_iters):
        n_done += 1
        proposal = control_update(trace, traj, plant, cost.lam)
        du = proposal.u - u_cur.u
        du_norm = float(np.max(np.abs(du))) if du.size else 0.0
        stepped = False
        chosen = None
        for alpha in DAMPING_LADDER:
            cand = replace(proposal, u=u_cur.clamp(u_cur.u + alpha * du))
            try:
                cand_val = evaluate(cand)
            except NumericalError:
                continue
            if cand_val >= log_psi0:
                chosen = (cand_val, cand, alpha)
                break
        if chosen is not None and alpha == DAMPING_LADDER[0]:
            scale = 2.0
            while scale <= EXPANSION_MAX:
                cand = replace(proposal, u=u_cur.clamp(u_cur.u + scale * du))
                try:
                    cand_val = evaluate(cand)
                except NumericalError:
                    break
                if cand_val < chosen[0]:
                    break
                chosen = (cand_val, cand, scale)
                scale *= 2.0
        if chosen is not None:
            cand_val, cand, taken = chosen
            if cand_val >= best[0]:
                best = (cand_val, cand)
            u_cur, log_psi0, stepped = cand, cand_val, True
            accepted.append(cand_val)
            scales.append(taken)
        if not stepped:
            status = "no-progress" if log_psi0 <= initial_log_psi0 else "stalled"
            break
        if du_norm < tol:
            status = "converged"
            break
        if it + 1 < max_iters:
            traj = forward_rollout(model, x0, u_cur, plant, cost,
                                   compute_jac=True)
            trace = desirability_gradient(
                traj, backward_desirability(traj, cost), cost)
            log_psi0 = float(trace.log_psi[0])
    if status == "no-progress":
        return controls_init.u, initial_log_psi0, accepted, scales, status, n_done
    return best[1].u, best[0], accepted, scales, status, n_done


def _assert_matches_sequential(model, x0, us, cost, plant, max_iters=4,
                               tol=1e-6):
    res = inner_optimize(model, x0, us, cost, plant, max_iters=max_iters,
                         tol=tol)
    u, log_psi0, accepted, scales, status, n_iters = \
        _sequential_inner_optimize(model, x0, us, cost, plant, max_iters, tol)
    assert np.array_equal(res.controls.u, u)
    assert res.log_psi0 == log_psi0
    assert res.accepted_log_psi == accepted
    assert res.accepted_scales == scales
    assert res.status == status and res.n_iters == n_iters
    return res


class _EdgePlant:
    """x' = u in 1-D, with a control matrix that is non-finite outside
    |x| < 0.5, so that the long line-search steps fail numerically."""

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x[..., :1, None]) < 0.5, 1.0, np.inf)

    def control_matrix_jac(self, x):
        return np.zeros((1, 1, 1))


class TestBatchedLineSearch:
    def test_backward_rows_equal_single_rollouts(self, cartpole,
                                                 cartpole_model, swing_cost,
                                                 rng):
        batch = ControlSequence(rng.uniform(-3, 3, (5, 20, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), batch, cartpole,
                               swing_cost, compute_jac=False)
        trace = backward_desirability(traj, swing_cost)
        assert trace.log_psi.shape == (5, 21)
        for c in range(5):
            one = forward_rollout(cartpole_model, np.zeros(4),
                                  ControlSequence(batch.u[c:c + 1]), cartpole,
                                  swing_cost, compute_jac=False)
            single = forward_rollout(cartpole_model, np.zeros(4),
                                     ControlSequence(batch.u[c]), cartpole,
                                     swing_cost, compute_jac=False)
            assert np.array_equal(
                trace.log_psi[c], backward_desirability(one, swing_cost).log_psi[0])
            assert np.array_equal(
                trace.log_psi[c], backward_desirability(single, swing_cost).log_psi)

    @pytest.mark.parametrize("which", ["cartpole", "dpc"])
    def test_shared_prefix_rows_equal_single_rollouts(self, which, monkeypatch,
                                                      cartpole, cartpole_model,
                                                      dpc, dpc_model, rng):
        # rows that agree up to step k share their beliefs up to step k, and
        # each step predicts only the distinct ones
        from gppi import moments
        plant, model = {"cartpole": (cartpole, cartpole_model),
                        "dpc": (dpc, dpc_model)}[which]
        n, T = plant.spec.n, 12
        cost = CostSpec(np.eye(n), np.full(n, 0.5), 1.0, 0.02, T)
        base = rng.uniform(-2, 2, (T, 1))
        splits = [0, T, T, 3, 3, 7, 0]      # row c follows base up to step k
        u = np.array([np.where(np.arange(T)[:, None] < k, base,
                               rng.uniform(-2, 2, (T, 1))) for k in splits])
        u[6] = u[0]                         # a duplicate of a diverging row
        rows = []
        orig = moments.predict_increment

        def counting(model, mu, sigma, **kwargs):
            rows.append(len(np.atleast_2d(mu)))
            return orig(model, mu, sigma, **kwargs)

        monkeypatch.setattr(moments, "predict_increment", counting)
        traj = forward_rollout(model, np.zeros(n), ControlSequence(u), plant,
                               cost, compute_jac=False)
        monkeypatch.setattr(moments, "predict_increment", orig)
        trace = backward_desirability(traj, cost)
        # distinct beliefs per step: one at the start, then {0, 6} apart
        # from the rest; 3 and 4 split off after step 3, and 5 after step 7
        want = [1] + [2] * 3 + [4] * 4 + [5] * 4
        assert rows == want
        for c in range(len(u)):
            single = ControlSequence(u[c])
            one = forward_rollout(model, np.zeros(n), single, plant, cost,
                                  compute_jac=False)
            _assert_same_record(traj.row(c), one)
            assert np.array_equal(
                trace.log_psi[c], backward_desirability(one, cost).log_psi)
            # the row's pullback parts, its representative's, give the
            # derivative pass of the candidate alone
            row_traj, row_trace = _row_pass(traj, trace, c, plant, cost.dt)
            fresh_traj, fresh_trace = _derivative_pass(model, np.zeros(n),
                                                       single, plant, cost)
            assert np.array_equal(
                desirability_gradient(row_traj, row_trace,
                                      cost).grad_psi_over_psi,
                fresh_trace.grad_psi_over_psi)

    def test_batch_needs_value_only_rollout(self, cartpole, cartpole_model,
                                            swing_cost):
        with pytest.raises(ConfigError):
            forward_rollout(cartpole_model, np.zeros(4),
                            ControlSequence(np.zeros((2, 20, 1))), cartpole,
                            swing_cost, compute_jac=True)

    def test_matches_sequential_search_shared_scales(self, cartpole,
                                                     cartpole_model,
                                                     swing_cost, rng):
        us = ControlSequence(rng.uniform(-1, 1, (20, 1)), u_min=np.full(1, -10.0),
                             u_max=np.full(1, 10.0))
        res = _assert_matches_sequential(cartpole_model, np.zeros(4), us,
                                         swing_cost, cartpole)
        assert res.candidates_evaluated >= len(EXPANSION_SCALES) * res.n_iters
        assert res.candidates_failed == 0

    def test_tie_when_every_control_clamped(self, cartpole, cartpole_model,
                                            swing_cost):
        # every candidate clamps to u_max, so all candidates tie with u_cur
        cap = np.full(1, 2.0)
        us = ControlSequence(np.full((20, 1), 2.0), u_min=cap, u_max=cap)
        res = _assert_matches_sequential(cartpole_model, np.zeros(4), us,
                                         swing_cost, cartpole)
        assert res.accepted_scales == [EXPANSION_MAX]
        assert np.array_equal(res.controls.u, us.u)

    def test_failing_expansion_candidates_masked(self):
        plant = _EdgePlant()
        cost = CostSpec([[1.0]], [2.0], 1.0, 0.02, 10)
        us = ControlSequence(np.zeros((10, 1)))
        res = _assert_matches_sequential(GpModel.empty(1), [0.0], us, cost,
                                         plant, max_iters=3)
        assert res.candidates_failed > 0
        # the first expansion stops at a failed candidate; a later scale 1
        # fails too and the damping ladder takes over
        assert 1.0 <= res.accepted_scales[0] < EXPANSION_MAX
        assert min(res.accepted_scales) < 1.0
        scales = np.array(EXPANSION_SCALES)
        batch = ControlSequence(scales[:, None, None]
                                * np.ones((len(scales), 10, 1)))
        traj = forward_rollout(GpModel.empty(1), [0.0], batch, plant, cost,
                               compute_jac=False)
        log_psi0 = backward_desirability(traj, cost).log_psi[:, 0]
        assert np.isfinite(log_psi0[0]) and log_psi0[-1] == -np.inf
        assert not traj.ok[-1, -1]
        with pytest.raises(NumericalError):
            forward_rollout(GpModel.empty(1), [0.0],
                            ControlSequence(batch.u[-1]), plant, cost,
                            compute_jac=False)


def _derivative_pass(model, x0, controls, plant, cost):
    traj = forward_rollout(model, x0, controls, plant, cost, compute_jac=True)
    return traj, desirability_gradient(traj, backward_desirability(traj, cost),
                                       cost)


def _row_pass(traj, trace, c, plant, dt):
    """Row c of a batched value pass as a derivative pass, ready for
    `desirability_gradient`, as `inner_optimize` forms it."""
    return _with_control_jac(traj.row(c), plant, dt), trace.row(c)


_RECORD_ARRAYS = ("mu", "sigma", "mu_f", "sigma_f")


def _assert_same_record(row, one):
    """`row`, a row of a batch's record, equals the record `one` of a
    single-plan rollout array for array, over the steps of `one`."""
    assert row.ok is None and one.ok is None
    T = one.mu.shape[0] - 1
    for name in _RECORD_ARRAYS:
        got, want = getattr(row, name), getattr(one, name)
        assert np.array_equal(got[:len(want)], want), name
    assert np.array_equal(row.controls_old.u[:T], one.controls_old.u)
    assert row.model is one.model
    assert len(one.parts) == T
    for got, want in zip(row.parts, one.parts):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.keys() == want.keys()
            for k, a in want.items():
                assert np.array_equal(got[k], a), k


class TestBeliefRecord:
    """A batch's record holds every row's rollout; `row(c)` is that of the
    candidate alone."""

    def test_rows_equal_single_rollouts(self, linear_model):
        # _EdgePlant fails once the mean leaves |x| < 0.5, so the candidates
        # with the larger controls fail, each at its own step
        plant, T, x0 = _EdgePlant(), 10, [0.0]
        cost = CostSpec([[1.0]], [2.0], 1.0, 0.02, T)
        scales = np.array([0.0, 1.0, 4.0, 16.0, 64.0, -64.0])
        u = scales[:, None, None] * np.linspace(0.5, 1.5, T)[:, None]
        traj = forward_rollout(linear_model, x0, ControlSequence(u), plant,
                               cost, compute_jac=False)
        assert traj.mu.shape == (6, T + 1, 1) and traj.ok.shape == (6, T + 1)
        failed_at = []
        for c in range(len(u)):
            row = traj.row(c)
            for name in _RECORD_ARRAYS:
                assert not np.shares_memory(getattr(row, name),
                                            getattr(traj, name))
            for got, kept in zip(row.parts, traj.parts):
                for k, a in kept.items():
                    assert not np.shares_memory(got[k], a), k
            try:
                one = forward_rollout(linear_model, x0, ControlSequence(u[c]),
                                      plant, cost, compute_jac=False)
            except NumericalError as exc:
                # step k failed: the row keeps belief k from there on
                k = exc.step
                failed_at.append(k)
                assert traj.ok[c].tolist() == [True] * (k + 1) \
                    + [False] * (T - k)
                assert (row.mu[k + 1:] == row.mu[k]).all()
                assert (row.sigma[k + 1:] == row.sigma[k]).all()
                one = forward_rollout(linear_model, x0,
                                      ControlSequence(u[c, :k]), plant,
                                      replace(cost, horizon_steps=k),
                                      compute_jac=False)
            else:
                assert traj.ok[c].all()
            _assert_same_record(row, one)
        assert len(failed_at) == 4 and len(set(failed_at)) >= 2
        assert 0 < min(failed_at) and max(failed_at) < T

    def test_single_plan_record(self, cartpole, cartpole_model, swing_cost,
                                rng):
        us = ControlSequence(rng.uniform(-2, 2, (20, 1)))
        traj = forward_rollout(cartpole_model, np.zeros(4), us, cartpole,
                               swing_cost)
        assert traj.ok is None and traj.controls_old is us
        assert traj.mu.shape == (21, 4) and traj.sigma.shape == (21, 4, 4)
        assert traj.mu_f.shape == (20, 4) and traj.sigma_f.shape == (20, 4, 4)
        assert len(traj.parts) == len(traj.control_jac) == 20
        assert traj.model is cartpole_model
        # each step maps belief t to belief t+1 through its moments
        G = cartpole.control_matrix(traj.mu[:20])
        assert np.array_equal(
            traj.mu[1:], traj.mu[:20] + traj.mu_f
            + (G @ us.u[:, :, None])[:, :, 0] * swing_cost.dt)
        b = traj.belief(7)
        assert b.ok is None and np.array_equal(b.mu, traj.mu[7])


class TestAcceptedRowPass:
    """The accepted row of a value batch is the next derivative pass, bit
    for bit equal to rolling its candidate out again with derivatives."""

    @pytest.mark.parametrize("which", ["cartpole", "dpc", "empty"])
    def test_row_equals_fresh_derivative_pass(self, which, cartpole,
                                              cartpole_model, dpc, dpc_model,
                                              rng):
        plant, model = {"cartpole": (cartpole, cartpole_model),
                        "dpc": (dpc, dpc_model),
                        "empty": (cartpole, GpModel.empty(4))}[which]
        n = plant.spec.n
        x_d = np.zeros(n)
        x_d[2::2] = np.pi
        cost = CostSpec(np.diag(np.tile([0.5, 0.05], n // 2)), x_d, 1.0,
                        0.02, 20)
        x0 = np.linspace(-0.1, 0.2, n)
        cap = np.full(1, 10.0)
        u_cur = ControlSequence(rng.uniform(-1, 1, (20, 1)), u_min=-cap,
                                u_max=cap)
        traj, trace = _derivative_pass(model, x0, u_cur, plant, cost)
        if which == "empty":
            assert all(p is None for p in traj.parts)
        proposal = control_update(trace, traj, plant, cost.lam)
        du = proposal.u - u_cur.u
        for scales, k in ((EXPANSION_SCALES, 3), (DAMPING_LADDER[1:], 2)):
            us, vals, batch_traj, batch_trace = _candidate_values(
                model, x0, proposal, u_cur, du, scales, plant, cost)
            assert np.isfinite(vals[k])
            cand = replace(proposal, u=us[k].copy())
            row_traj, row_trace = _row_pass(batch_traj, batch_trace, k,
                                            plant, cost.dt)
            row_trace = desirability_gradient(row_traj, row_trace, cost)
            fresh_traj, fresh_trace = _derivative_pass(model, x0, cand, plant,
                                                       cost)
            assert np.array_equal(row_trace.log_psi, fresh_trace.log_psi)
            assert np.array_equal(row_trace.grad_psi_over_psi,
                                  fresh_trace.grad_psi_over_psi)
            _assert_same_record(row_traj, fresh_traj)
            assert np.array_equal(
                control_update(row_trace, row_traj, plant, cost.lam).u,
                control_update(fresh_trace, fresh_traj, plant, cost.lam).u)

    def test_one_derivative_rollout_per_call(self, monkeypatch, cartpole,
                                             cartpole_model, swing_cost, rng):
        from gppi import control
        jac_calls = []

        def counting(*args, **kwargs):
            jac_calls.append(kwargs.get("compute_jac", True))
            return forward_rollout(*args, **kwargs)

        monkeypatch.setattr(control, "forward_rollout", counting)
        us = ControlSequence(rng.uniform(-1, 1, (20, 1)))
        res = inner_optimize(cartpole_model, np.zeros(4), us, swing_cost,
                             cartpole, max_iters=3, tol=1e-9)
        # every iteration stepped, so two of the three gradient passes came
        # from accepted rows
        assert res.n_iters == 3 and len(res.accepted_scales) == 3
        assert jac_calls.count(True) == 1
        assert jac_calls.count(False) >= 3


class TestCostSpec:
    @pytest.mark.parametrize("Q,x_d,Q_terminal", [
        (np.ones((2, 3)), [0.0, 0.0], None),
        (np.eye(2), [0.0, 0.0], np.eye(3)),
        (np.eye(2), [0.0, 0.0, 0.0], None),
        (np.eye(2), np.zeros((11, 2)), None),
        (np.eye(2), 0.0, None),
    ], ids=["Q-not-square", "Q_terminal-shape", "x_d-length", "x_d-per-step",
            "x_d-scalar"])
    def test_malformed_shapes_rejected(self, Q, x_d, Q_terminal):
        with pytest.raises(ConfigError):
            CostSpec(Q, x_d, 1.0, 0.02, 10, Q_terminal)

    @pytest.mark.parametrize("field,value", [
        ("lam", np.nan), ("lam", 0.0), ("dt", np.inf), ("horizon_steps", 2.7),
        ("horizon_steps", 0), ("Q", [[np.nan, 0.0], [0.0, 1.0]]),
        ("Q_terminal", [[1.0, 0.0], [0.0, np.nan]]), ("x_d", [np.nan, 0.0]),
    ])
    def test_non_finite_or_non_integer_rejected(self, field, value):
        args = dict(Q=np.eye(2), x_d=[0.0, 0.0], lam=1.0, dt=0.02,
                    horizon_steps=10, Q_terminal=None)
        args[field] = value
        with pytest.raises(ConfigError, match=field):
            CostSpec(**args)
