import math

import numpy as np
import pytest

from gppi.compose import (CompositeWeights, TaskLibrary,
                          composite_control, composite_control_sequence,
                          composite_terminal_cost, task_weights,
                          verify_linearity)
from gppi.control import ControlSequence, CostSpec, inner_optimize
from gppi.errors import AlignmentError, ConfigError
from gppi.records import ControllerRecord, CostFields


def _record(task_id, x_d, controls, log_psi=None, q_diag=(1.0,), lam=1.0,
            dt=0.02, horizon=None):
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    horizon = controls.shape[0] if horizon is None else horizon
    n = np.atleast_1d(x_d).shape[0]
    if log_psi is None:
        log_psi = np.zeros(horizon + 1)
    return ControllerRecord(
        task_id, np.atleast_1d(x_d),
        CostFields(np.asarray(q_diag, dtype=float), lam, dt, horizon),
        controls, np.asarray(log_psi, dtype=float),
        np.zeros((horizon + 1, n)))


class TestWeights:
    def test_single_task_collapse(self):
        lib = TaskLibrary([_record("a", [0.5], np.ones((4, 1)))], [1.0])
        w = task_weights(lib, [0.5])
        assert np.allclose(w.omega_tilde, [1.0])

    def test_equidistant_symmetry(self):
        lib = TaskLibrary([_record("a", [0.0], np.ones((4, 1))),
                           _record("b", [2.0], np.ones((4, 1)))], [1.0])
        w = task_weights(lib, [1.0])
        assert np.allclose(w.omega_tilde, [0.5, 0.5])

    def test_pinned_scalar_values(self):
        lib = TaskLibrary([_record("a", [0.0], np.ones((4, 1))),
                           _record("b", [2.0], np.ones((4, 1)))], [1.0])
        w = task_weights(lib, [0.5])
        assert w.omega[0] == pytest.approx(math.exp(-0.5 * 0.25), abs=1e-4)
        assert w.omega[1] == pytest.approx(math.exp(-0.5 * 2.25), abs=1e-4)
        assert w.omega_tilde[0] == pytest.approx(0.7310, abs=2e-4)
        assert w.omega_tilde[1] == pytest.approx(0.2690, abs=2e-4)

    def test_normalization_sums_to_one(self, rng):
        recs = [_record(str(k), rng.normal(size=2), np.ones((3, 1)),
                        q_diag=(1.0, 1.0)) for k in range(5)]
        lib = TaskLibrary(recs, [0.7, 1.3])
        w = task_weights(lib, rng.normal(size=2))
        assert math.fsum(w.omega_tilde) == pytest.approx(1.0, abs=1e-12)
        assert np.all(w.omega_tilde >= 0)
        assert np.all(w.omega <= 1.0) and np.all(w.omega > 0)

    def test_alignment_error_names_field(self):
        a = _record("a", [0.0], np.ones((4, 1)), lam=1.0)
        b = _record("b", [1.0], np.ones((4, 1)), lam=2.0)
        with pytest.raises(AlignmentError) as err:
            TaskLibrary([a, b], [1.0])
        assert err.value.field == "lam"


class TestCompositeTerminalCost:
    def test_single_task_exact(self):
        lib = TaskLibrary([_record("a", [0.3], np.ones((4, 1)))], [1.0])
        w = task_weights(lib, [0.3])
        q = composite_terminal_cost(lib, w, [1.0])
        assert q == pytest.approx(1.0 * (1.0 - 0.3) ** 2, rel=1e-12)

    def test_equal_costs_collapse(self):
        lib = TaskLibrary([_record("a", [1.0], np.ones((4, 1))),
                           _record("b", [-1.0], np.ones((4, 1)))], [1.0])
        w = task_weights(lib, [0.0])
        q = composite_terminal_cost(lib, w, [0.0])
        assert q == pytest.approx(1.0, rel=1e-12)

    def test_pinned_log_sum_exp_value(self):
        # K=2, lam=1, q = {1, 3}, equal weights
        lib = TaskLibrary([_record("a", [0.0], np.ones((4, 1))),
                           _record("b", [1.0 + math.sqrt(3.0)],
                                   np.ones((4, 1)))], [1.0])
        w = CompositeWeights(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        x_T = [1.0]   # q_a = 1, q_b = (sqrt 3)^2 = 3
        q = composite_terminal_cost(lib, w, x_T)
        expected = -math.log(0.5 * math.exp(-1) + 0.5 * math.exp(-3))
        assert q == pytest.approx(expected, rel=1e-10)
        assert q == pytest.approx(1.5662, abs=2e-4)

    def test_boundary_consistency(self, rng):
        recs = [_record(str(k), rng.normal(size=1), np.ones((4, 1)),
                        lam=0.8) for k in range(3)]
        lib = TaskLibrary(recs, [1.0])
        w = task_weights(lib, [0.2])
        for _ in range(5):
            x_T = rng.normal(size=1)
            q_bar = composite_terminal_cost(lib, w, x_T)
            lam = 0.8
            direct = math.fsum(
                wt * math.exp(-1.0 * (x_T[0] - r.x_d[0]) ** 2 / lam)
                for wt, r in zip(w.omega_tilde, recs))
            assert math.exp(-q_bar / lam) == pytest.approx(direct, abs=1e-12)


class TestCompositeControl:
    def test_single_task_bit_identical(self, rng):
        controls = rng.normal(size=(5, 2))
        rec = _record("a", [0.1, 0.2], controls, q_diag=(1.0, 1.0),
                      log_psi=rng.normal(size=6))
        lib = TaskLibrary([rec], [1.0, 1.0])
        w = task_weights(lib, [0.1, 0.2])
        for t in range(5):
            u, status = composite_control(lib, w, t)
            assert status == "ok"
            assert np.array_equal(u, controls[t])

    def test_identical_records_reproduce(self, rng):
        controls = rng.normal(size=(4, 1))
        lp = rng.normal(size=5)
        recs = [_record("a", [0.5], controls, log_psi=lp),
                _record("b", [0.5], controls, log_psi=lp)]
        lib = TaskLibrary(recs, [1.0])
        w = task_weights(lib, [0.5])
        for t in range(4):
            u, _ = composite_control(lib, w, t)
            assert np.allclose(u, controls[t], rtol=1e-15)

    def test_permutation_invariance_exact(self, rng):
        recs = [_record(str(k), rng.normal(size=1),
                        rng.normal(size=(4, 1)),
                        log_psi=rng.normal(size=5)) for k in range(4)]
        target = [0.3]
        u_fwd = []
        lib = TaskLibrary(recs, [1.0])
        w = task_weights(lib, target)
        for t in range(4):
            u_fwd.append(composite_control(lib, w, t)[0])
        lib_rev = TaskLibrary(recs[::-1], [1.0])
        w_rev = task_weights(lib_rev, target)
        for t in range(4):
            u_rev = composite_control(lib_rev, w_rev, t)[0]
            assert np.array_equal(u_rev, u_fwd[t])

    def test_convex_hull_property(self, rng):
        recs = [_record(str(k), rng.normal(size=1),
                        rng.normal(size=(6, 1)),
                        log_psi=rng.normal(size=7)) for k in range(3)]
        lib = TaskLibrary(recs, [1.0])
        w = task_weights(lib, [0.0])
        for t in range(6):
            u, _ = composite_control(lib, w, t)
            us = [r.controls[t, 0] for r in recs]
            assert min(us) - 1e-12 <= u[0] <= max(us) + 1e-12

    def test_saturated_fallback(self, rng):
        recs = [_record(str(k), [float(k)], rng.normal(size=(3, 1)),
                        log_psi=np.full(4, -750.0)) for k in range(2)]
        lib = TaskLibrary(recs, [1.0])
        w = task_weights(lib, [0.5])
        u, status = composite_control(lib, w, 1)
        assert status == "saturated-uniform"
        expected = math.fsum(wt * r.controls[1, 0]
                             for wt, r in zip(w.omega_tilde, recs))
        assert u[0] == pytest.approx(expected)


class TestVerifyLinearity:
    def _library_from_learning(self, linear_plant, linear_model, targets,
                               lam=2.0, horizon=20):
        recs = []
        for k, target in enumerate(targets):
            cost = CostSpec([[1.0]], [target], lam, 0.02, horizon)
            res = inner_optimize(linear_model, [0.0],
                                 ControlSequence(np.zeros((horizon, 1))),
                                 cost, linear_plant, max_iters=25, tol=1e-5)
            recs.append(ControllerRecord(
                str(k), np.array([target]),
                CostFields(np.array([1.0]), lam, 0.02, horizon),
                res.controls.u, res.trace.log_psi,
                res.trace.grad_psi_over_psi))
        return TaskLibrary(recs, [4.0])

    def test_single_task_zero_residual(self, linear_plant, linear_model):
        lib = self._library_from_learning(linear_plant, linear_model, [0.4])
        w = task_weights(lib, [0.4])
        report = verify_linearity(lib, w, linear_plant, linear_model, [0.0])
        assert report.max_residual < 1e-12

    def test_duplicated_tasks_zero_residual(self, linear_plant, linear_model):
        lib1 = self._library_from_learning(linear_plant, linear_model, [0.4])
        rec = lib1.records[0]
        import dataclasses
        rec2 = dataclasses.replace(rec, task_id="copy")
        lib = TaskLibrary([rec, rec2], [4.0])
        w = task_weights(lib, [0.4])
        report = verify_linearity(lib, w, linear_plant, linear_model, [0.0])
        assert report.max_residual < 1e-12

    def test_two_tasks_linear_plant_small_residual(self, linear_plant,
                                                   linear_model):
        lib = self._library_from_learning(linear_plant, linear_model,
                                          [0.35, 0.45], lam=2.0)
        w = task_weights(lib, [0.40])
        report = verify_linearity(lib, w, linear_plant, linear_model, [0.0])
        assert report.max_residual < 1e-3


def test_composite_near_independent_on_linear_plant(linear_plant,
                                                    linear_model):
    """Midway composite vs independently optimized controller, 10% band."""
    lam, horizon = 2.0, 20
    recs = []
    for k, target in enumerate([0.3, 0.5]):
        cost = CostSpec([[1.0]], [target], lam, 0.02, horizon)
        res = inner_optimize(linear_model, [0.0],
                             ControlSequence(np.zeros((horizon, 1))),
                             cost, linear_plant, max_iters=25, tol=1e-5)
        recs.append(ControllerRecord(
            str(k), np.array([target]),
            CostFields(np.array([1.0]), lam, 0.02, horizon),
            res.controls.u, res.trace.log_psi, res.trace.grad_psi_over_psi))
    lib = TaskLibrary(recs, [4.0])
    target = np.array([0.4])
    w = task_weights(lib, target)
    u_comp = composite_control_sequence(lib, w)

    cost_new = CostSpec([[1.0]], target, lam, 0.02, horizon)
    res_direct = inner_optimize(linear_model, [0.0],
                                ControlSequence(np.zeros((horizon, 1))),
                                cost_new, linear_plant, max_iters=25, tol=1e-5)

    def terminal_desirability(controls):
        x = np.array([0.0])
        for t in range(horizon):
            x = linear_plant.step(x, controls[t], None)
        return math.exp(-(x[0] - target[0]) ** 2 / (2 * lam))

    d_comp = terminal_desirability(u_comp.u)
    d_dir = terminal_desirability(res_direct.controls.u)
    assert d_comp >= 0.9 * d_dir


def test_terminal_scale_aligns_and_weights_the_terminal_cost():
    a = _record("a", [0.0], np.ones((4, 1)))
    a.cost_fields.terminal_scale = 2.0
    lib = TaskLibrary([a], [1.0])
    assert np.array_equal(lib.cost_for([0.3]).Q_terminal, [[2.0]])
    w = task_weights(lib, [0.0])
    assert composite_terminal_cost(lib, w, [1.0]) == pytest.approx(2.0)
    b = _record("b", [1.0], np.ones((4, 1)))
    with pytest.raises(AlignmentError) as err:
        TaskLibrary([a, b], [1.0])
    assert err.value.field == "terminal_scale"
