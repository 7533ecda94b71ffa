import math

import numpy as np
import pytest

from gppi.compose import (CompositeWeights, TaskLibrary, composite_plan,
                          composite_terminal_log_desirability, task_weights,
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

    def test_far_target_weights_stay_finite(self):
        # every raw weight underflows; the normalized ones do not
        lib = TaskLibrary([_record("a", [0.0], np.ones((4, 1))),
                           _record("b", [1.0], np.ones((4, 1)))], [1.0])
        w = task_weights(lib, [60.0])
        assert np.array_equal(w.omega, [0.0, 0.0])
        assert w.omega_tilde[0] == pytest.approx(math.exp(-59.5), rel=1e-12)
        assert w.omega_tilde[1] == pytest.approx(1.0, rel=1e-15)
        u, log_psi = composite_plan(lib, w)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(log_psi))

    def test_alignment_error_names_field(self):
        a = _record("a", [0.0], np.ones((4, 1)), lam=1.0)
        b = _record("b", [1.0], np.ones((4, 1)), lam=2.0)
        with pytest.raises(AlignmentError) as err:
            TaskLibrary([a, b], [1.0])
        assert err.value.field == "lam"


class TestLibraryChecks:
    """A library rejects records that do not fit together or themselves."""

    def _two(self, **second):
        first = dict(x_d=[0.0, 0.0], controls=np.zeros((3, 1)),
                     q_diag=(1.0, 1.0))
        return [_record("a", **first), _record("b", **{**first, **second})]

    @pytest.mark.parametrize("second,field", [
        (dict(x_d=[1.0]), "x_d"),
        (dict(q_diag=(1.0, 1.0, 1.0)), "Q_diag"),
        (dict(controls=np.zeros((3, 2))), "controls"),
    ], ids=["x_d", "Q_diag", "controls"])
    def test_disagreement_names_field(self, second, field):
        with pytest.raises(AlignmentError) as err:
            TaskLibrary(self._two(**second), [1.0])
        assert err.value.field == field

    @pytest.mark.parametrize("second", [
        dict(controls=np.zeros((2, 1)), horizon=3),
        dict(log_psi=np.zeros(3)),
        dict(log_psi=[0.0, 0.0, np.nan, 0.0]),
        dict(x_d=[np.inf, 0.0]),
    ], ids=["short-controls", "short-log-psi", "nan-log-psi", "inf-x_d"])
    def test_malformed_record_is_config_error(self, second):
        with pytest.raises(ConfigError) as err:
            TaskLibrary(self._two(**second), [1.0])
        assert not isinstance(err.value, AlignmentError)

    @pytest.mark.parametrize("width", [[1.0, 1.0, 1.0], [np.nan, 1.0],
                                       [np.inf], [0.0], ["wide"]])
    def test_kernel_width_checked(self, width):
        with pytest.raises(ConfigError, match="kernel width"):
            TaskLibrary(self._two(), width)

    def test_kernel_width_of_one_or_n_entries(self):
        assert TaskLibrary(self._two(), 2.0).kernel_width.shape == (1,)
        assert TaskLibrary(self._two(), [1.0, 2.0]).kernel_width.shape == (2,)


class TestCompositeTerminalCost:
    """The composite terminal boundary, log sum_k w_k exp(-q_k / (2 lam)),
    in the recursion's convention."""

    def test_single_task_exact(self):
        lib = TaskLibrary([_record("a", [0.3], np.ones((4, 1)))], [1.0])
        w = task_weights(lib, [0.3])
        lp = composite_terminal_log_desirability(lib, w, [1.0])
        assert lp == pytest.approx(-(1.0 - 0.3) ** 2 / 2, rel=1e-12)

    def test_equal_costs_collapse(self):
        lib = TaskLibrary([_record("a", [1.0], np.ones((4, 1))),
                           _record("b", [-1.0], np.ones((4, 1)))], [1.0])
        w = task_weights(lib, [0.0])
        lp = composite_terminal_log_desirability(lib, w, [0.0])
        assert lp == pytest.approx(-0.5, rel=1e-12)

    def test_pinned_log_sum_exp_value(self):
        # K=2, lam=1, q = {1, 3}, equal weights
        lib = TaskLibrary([_record("a", [0.0], np.ones((4, 1))),
                           _record("b", [1.0 + math.sqrt(3.0)],
                                   np.ones((4, 1)))], [1.0])
        w = CompositeWeights(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        x_T = [1.0]   # q_a = 1, q_b = (sqrt 3)^2 = 3
        lp = composite_terminal_log_desirability(lib, w, x_T)
        expected = math.log(0.5 * math.exp(-0.5) + 0.5 * math.exp(-1.5))
        assert lp == pytest.approx(expected, rel=1e-10)
        assert lp == pytest.approx(-0.8799, abs=2e-4)

    def test_boundary_consistency(self, rng):
        recs = [_record(str(k), rng.normal(size=1), np.ones((4, 1)),
                        lam=0.8) for k in range(3)]
        lib = TaskLibrary(recs, [1.0])
        w = task_weights(lib, [0.2])
        for _ in range(5):
            x_T = rng.normal(size=1)
            lp = composite_terminal_log_desirability(lib, w, x_T)
            lam = 0.8
            direct = math.fsum(
                wt * math.exp(-1.0 * (x_T[0] - r.x_d[0]) ** 2 / (2 * lam))
                for wt, r in zip(w.omega_tilde, recs))
            assert math.exp(lp) == pytest.approx(direct, abs=1e-12)


class TestCompositeControl:
    def test_single_task_bit_identical(self, rng):
        controls = rng.normal(size=(5, 2))
        rec = _record("a", [0.1, 0.2], controls, q_diag=(1.0, 1.0),
                      log_psi=rng.normal(size=6))
        lib = TaskLibrary([rec], [1.0, 1.0])
        u, log_psi = composite_plan(lib, task_weights(lib, [0.1, 0.2]))
        assert np.array_equal(u, controls)
        assert np.array_equal(log_psi, rec.log_psi)

    def test_identical_records_reproduce(self, rng):
        controls = rng.normal(size=(4, 1))
        lp = rng.normal(size=5)
        recs = [_record("a", [0.5], controls, log_psi=lp),
                _record("b", [0.5], controls, log_psi=lp)]
        lib = TaskLibrary(recs, [1.0])
        u, _ = composite_plan(lib, task_weights(lib, [0.5]))
        assert np.allclose(u, controls, rtol=1e-15)

    def test_permutation_invariance_exact(self, rng):
        recs = [_record(str(k), rng.normal(size=1),
                        rng.normal(size=(4, 1)),
                        log_psi=rng.normal(size=5)) for k in range(4)]
        target = [0.3]
        lib = TaskLibrary(recs, [1.0])
        u_fwd, lp_fwd = composite_plan(lib, task_weights(lib, target))
        lib_rev = TaskLibrary(recs[::-1], [1.0])
        u_rev, lp_rev = composite_plan(lib_rev, task_weights(lib_rev, target))
        assert np.array_equal(u_rev, u_fwd)
        assert np.array_equal(lp_rev, lp_fwd)

    def test_convex_hull_property(self, rng):
        recs = [_record(str(k), rng.normal(size=1),
                        rng.normal(size=(6, 1)),
                        log_psi=rng.normal(size=7)) for k in range(3)]
        lib = TaskLibrary(recs, [1.0])
        u, _ = composite_plan(lib, task_weights(lib, [0.0]))
        us = np.stack([r.controls[:, 0] for r in recs])
        assert np.all(us.min(axis=0) - 1e-12 <= u[:, 0])
        assert np.all(u[:, 0] <= us.max(axis=0) + 1e-12)

    def test_equal_deep_log_psi_mixes_by_task_weight(self, rng):
        # Psi = e^-750 underflows; equal log Psi leave the task weights
        recs = [_record(str(k), [float(k)], rng.normal(size=(3, 1)),
                        log_psi=np.full(4, -750.0)) for k in range(2)]
        lib = TaskLibrary(recs, [1.0])
        w = task_weights(lib, [0.5])
        u, _ = composite_plan(lib, w)
        expected = math.fsum(wt * r.controls[1, 0]
                             for wt, r in zip(w.omega_tilde, recs))
        assert u[1, 0] == pytest.approx(expected)

    def test_unequal_deep_log_psi_mixes_by_desirability(self):
        # log Psi -750 and -760 with controls 0 and 1 under equal task
        # weights: u = 1 / (1 + e^10), not the plain task-weight mean 0.5
        recs = [_record(str(k), [float(k)], np.full((3, 1), float(k)),
                        log_psi=np.full(4, lp))
                for k, lp in enumerate((-750.0, -760.0))]
        lib = TaskLibrary(recs, [1.0])
        w = task_weights(lib, [0.5])
        assert np.array_equal(w.omega_tilde, [0.5, 0.5])
        u, log_psi = composite_plan(lib, w)
        assert u[:, 0] == pytest.approx(1.0 / (1.0 + math.exp(10.0)),
                                        rel=1e-12)
        assert log_psi == pytest.approx(
            -750.0 + math.log(0.5 * (1.0 + math.exp(-10.0))), rel=1e-15)


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
    u_comp, _ = composite_plan(lib, w)

    cost_new = CostSpec([[1.0]], target, lam, 0.02, horizon)
    res_direct = inner_optimize(linear_model, [0.0],
                                ControlSequence(np.zeros((horizon, 1))),
                                cost_new, linear_plant, max_iters=25, tol=1e-5)

    def terminal_desirability(controls):
        x = np.array([0.0])
        for t in range(horizon):
            x = linear_plant.step(x, controls[t], None)
        return math.exp(-(x[0] - target[0]) ** 2 / (2 * lam))

    d_comp = terminal_desirability(u_comp)
    d_dir = terminal_desirability(res_direct.controls.u)
    assert d_comp >= 0.9 * d_dir


def test_terminal_scale_aligns_and_weights_the_terminal_cost():
    a = _record("a", [0.0], np.ones((4, 1)))
    a.cost_fields.terminal_scale = 2.0
    lib = TaskLibrary([a], [1.0])
    assert np.array_equal(lib.cost_for([0.3]).Q_terminal, [[2.0]])
    w = task_weights(lib, [0.0])
    assert composite_terminal_log_desirability(lib, w, [1.0]) \
        == pytest.approx(-1.0)
    b = _record("b", [1.0], np.ones((4, 1)))
    with pytest.raises(AlignmentError) as err:
        TaskLibrary([a, b], [1.0])
    assert err.value.field == "terminal_scale"
