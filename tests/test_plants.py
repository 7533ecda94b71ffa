import dataclasses

import numpy as np
import pytest

from gppi.errors import ConfigError, NumericalError
from gppi.plants import CartPole, DoublePendulumCart, TwoLinkArm, make_plant


def test_cartpole_equilibrium_down():
    cp = make_plant("cartpole")
    assert np.allclose(cp.drift(np.zeros(4)), 0.0)


def test_dpc_equilibrium_down():
    dpc = make_plant("dpc")
    assert np.allclose(dpc.drift(np.zeros(6)), 0.0)


def test_arm_rest_is_fixed_point():
    arm = make_plant("arm")
    x = np.array([0.7, -0.4, 0.0, 0.0])
    assert np.allclose(arm.drift(x), 0.0)


@pytest.mark.parametrize("name,x0", [
    ("cartpole", [0.0, 0.2, 2.0, 0.5]),
    ("dpc", [0.0, 0.1, 1.0, 0.3, -0.5, 0.2]),
    ("arm", [0.3, 1.0, 0.5, -0.8]),
])
def test_energy_conservation_noise_free(name, x0):
    plant = make_plant(name, params=dict(friction=0.0))
    x = np.array(x0, dtype=float)
    e0 = plant.energy(x)
    for _ in range(60):
        x = plant.step(x, np.zeros(plant.spec.m), None)
    assert abs(plant.energy(x) - e0) / abs(e0) < 1e-3


@pytest.mark.parametrize("name", ["cartpole", "dpc", "arm"])
def test_control_matrix_jacobian_matches_fd(name, rng):
    plant = make_plant(name)
    x = rng.normal(size=plant.spec.n)
    jac = plant.control_matrix_jac(x)
    eps = 1e-6
    fd = np.zeros_like(jac)
    for k in range(plant.spec.n):
        d = np.zeros(plant.spec.n)
        d[k] = eps
        fd[:, :, k] = (plant.control_matrix(x + d)
                       - plant.control_matrix(x - d)) / (2 * eps)
    assert np.max(np.abs(jac - fd)) < 1e-7


def test_underactuation_preserved():
    assert make_plant("cartpole").control_matrix(np.zeros(4)).shape == (4, 1)
    assert make_plant("dpc").control_matrix(np.zeros(6)).shape == (6, 1)


def test_arm_control_matrix_diagonal_at_decoupled_configuration():
    arm = make_plant("arm")
    # the off-diagonal inertia vanishes where cos(theta2) solves
    # m2 (lc2^2 + l1 lc2 c2) + I2 = 0
    c2 = -(arm.m2 * arm.lc2 ** 2 + arm.I2) / (arm.m2 * arm.l1 * arm.lc2)
    th2 = float(np.arccos(c2))
    G = arm.control_matrix(np.array([0.3, th2, 0.0, 0.0]))
    block = G[2:, :]
    assert abs(block[0, 1]) < 1e-12 and abs(block[1, 0]) < 1e-12
    assert block[0, 0] > 0 and block[1, 1] > 0


def test_step_deterministic_under_seed(cartpole):
    x = np.array([0.1, 0.0, 0.5, 0.0])
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        xs = [x]
        for _ in range(20):
            xs.append(cartpole.step(xs[-1], np.array([1.0]), rng))
        runs.append(np.array(xs))
    assert np.array_equal(runs[0], runs[1])


def test_equilibrium_fixed_under_zero_noise(cartpole):
    x = np.zeros(4)
    assert np.allclose(cartpole.step(x, np.zeros(1), None), x)


def test_sde_one_step_moments():
    lin = make_plant("linear", params=dict(A=[[-1.0]], Bc=[[1.0]],
                                           B=[[0.1]], sigma_omega=[[1.0]]))
    rng = np.random.default_rng(3)
    n = 100_000
    draws = rng.standard_normal((n, lin.spec.substeps))
    h = lin.spec.dt / lin.spec.substeps
    f = 1 - h + h ** 2 / 2 - h ** 3 / 6 + h ** 4 / 24  # RK4 decay per substep
    xs = np.full(n, 1.0)
    for k in range(lin.spec.substeps):
        xs = xs * f + 0.1 * np.sqrt(h) * draws[:, k]
    # analytic one-step moments of dx = -x dt + 0.1 dw
    exact_mean = np.exp(-lin.spec.dt)
    ref_std = 0.1 * np.sqrt(lin.spec.dt)
    assert abs(xs.mean() - exact_mean) < 3 * ref_std / np.sqrt(n)
    assert abs(xs.std() - ref_std) / ref_std < 0.02
    # the plant's own integrator agrees with the analytic mean
    rng2 = np.random.default_rng(99)
    single = np.array([lin.step(np.array([1.0]), np.zeros(1), rng2)[0]
                       for _ in range(2000)])
    assert abs(single.mean() - exact_mean) < 4 * ref_std / np.sqrt(2000)


def test_divergence_error():
    lin = make_plant("linear", params=dict(A=[[30.0]], Bc=[[1.0]]))
    with pytest.raises(NumericalError):
        x = np.array([1.0])
        for _ in range(2000):
            x = lin.step(x, np.zeros(1), None)


def test_unknown_plant_rejected():
    with pytest.raises(ConfigError):
        make_plant("hovercraft")


def test_control_dimension_checked(cartpole):
    with pytest.raises(ConfigError):
        cartpole.step(np.zeros(4), np.zeros(2), None)


def test_batch_step_equals_single_steps_noise_free(cartpole, rng):
    xs = rng.normal(size=(5, 4))
    u = np.array([0.7])
    batch, dw_sum = cartpole.step_batch(xs, u, None)
    single = np.array([cartpole.step(x, u, None) for x in xs])
    assert np.array_equal(batch, single)
    assert np.array_equal(dw_sum, np.zeros((5, 2)))


def test_batch_of_one_equals_step_under_seed(cartpole):
    x = np.array([0.1, -0.2, 0.5, 0.3])
    u = np.array([1.5])
    single = cartpole.step(x, u, np.random.default_rng(7))
    batch, _ = cartpole.step_batch(x[None], u, np.random.default_rng(7))
    assert np.array_equal(batch[0], single)


def test_batch_step_returns_summed_increments():
    B = np.array([[1.0, 0.5], [0.0, 2.0]])
    lin = make_plant("linear", params=dict(A=np.zeros((2, 2)),
                                           Bc=np.zeros((2, 1)), B=B,
                                           sigma_omega=[[1.0, 0.3], [0.3, 0.5]]))
    xs = np.array([[0.1, -0.2], [1.0, 2.0], [-3.0, 0.0]])
    x_next, dw_sum = lin.step_batch(xs, np.zeros(1), np.random.default_rng(5))
    assert dw_sum.shape == (3, 2)
    assert np.max(np.abs((x_next - xs) - dw_sum @ B.T)) < 1e-14


def _any_plant(name):
    if name == "linear":
        return make_plant("linear", params=dict(
            A=[[-0.5, 0.3], [0.1, -0.2]], Bc=[[1.0, 0.4], [-0.3, 2.0]]))
    return make_plant(name)


@pytest.mark.parametrize("name", ["cartpole", "dpc", "arm", "linear"])
@pytest.mark.parametrize("n_rows", [1, 25])
def test_batched_rate_and_step_rows_equal_single_rows(name, n_rows):
    plant = _any_plant(name)
    rng = np.random.default_rng(n_rows)
    xs = rng.normal(size=(n_rows, plant.spec.n))
    u = rng.normal(size=plant.spec.m)
    rate = plant._controlled_rate(xs, u)
    single = np.array([plant.drift(x) + plant.control_matrix(x) @ u
                       for x in xs])
    assert np.array_equal(rate, single)
    batch, _ = plant.step_batch(xs, u, None)
    assert np.array_equal(batch, [plant.step(x, u, None) for x in xs])


@pytest.mark.parametrize("name,x", [
    ("cartpole", [0.0, 0.0, 0.0, 1e155]),
    ("cartpole", [0.0, 1e307, 0.0, 0.0]),
    ("cartpole", [0.0, 0.0, 3.0, 1e200]),
    # a NaN that no inertia sees: A x is inf - inf on the first row
    ("linear", [10.0, -10.0]),
])
def test_step_to_nan_state_raises(name, x):
    if name == "linear":
        plant = make_plant("linear", params=dict(A=[[1e308, 1e308], [0.0, 0.0]],
                                                 Bc=[[1.0], [0.0]]))
    else:
        plant = make_plant(name)
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        plant.step(x, np.zeros(plant.spec.m), None)


# LAPACK reference for the closed-form inertia solves: the mass matrix H,
# the generalized forces of the drift, dH/d(angle) per angle index, the
# input map F (generalized forces per unit control), the state rows that
# receive H^-1 (.) and the rows that hold the positions' rates.
def _reference_dynamics(plant, x):
    if isinstance(plant, CartPole):
        M, m, L, g, b = plant.M, plant.m, plant.L, plant.g, plant.b
        _, xd, th, thd = x
        s, c = np.sin(th), np.cos(th)
        H = np.array([[M + m, 0.5 * m * L * c], [0.5 * m * L * c, m * L ** 2 / 3]])
        rhs = np.array([-b * xd + 0.5 * m * L * thd ** 2 * s,
                        -0.5 * m * g * L * s])
        e = -0.5 * m * L * s
        dH = {2: np.array([[0.0, e], [e, 0.0]])}
        return H, rhs, dH, np.array([[1.0], [0.0]]), [1, 3], [0, 2]
    if isinstance(plant, DoublePendulumCart):
        M, m1, m2, l1, l2, g, b = (plant.M, plant.m1, plant.m2, plant.l1,
                                   plant.l2, plant.g, plant.b)
        _, xd, t1, t1d, t2, t2d = x
        s1, s2, s12 = np.sin(t1), np.sin(t2), np.sin(t1 - t2)
        c1, c2, c12 = np.cos(t1), np.cos(t2), np.cos(t1 - t2)
        k1, k2, k12 = (0.5 * m1 + m2) * l1, 0.5 * m2 * l2, 0.5 * m2 * l1 * l2
        H = np.array([[M + m1 + m2, k1 * c1, k2 * c2],
                      [k1 * c1, (m1 / 3 + m2) * l1 ** 2, k12 * c12],
                      [k2 * c2, k12 * c12, m2 * l2 ** 2 / 3]])
        rhs = np.array([-b * xd + k1 * s1 * t1d ** 2 + k2 * s2 * t2d ** 2,
                        -k12 * s12 * t2d ** 2 - k1 * g * s1,
                        k12 * s12 * t1d ** 2 - k2 * g * s2])
        dH1 = np.array([[0.0, -k1 * s1, 0.0],
                        [-k1 * s1, 0.0, -k12 * s12],
                        [0.0, -k12 * s12, 0.0]])
        dH2 = np.array([[0.0, 0.0, -k2 * s2],
                        [0.0, 0.0, k12 * s12],
                        [-k2 * s2, k12 * s12, 0.0]])
        return (H, rhs, {2: dH1, 4: dH2}, np.array([[1.0], [0.0], [0.0]]),
                [1, 3, 5], [0, 2, 4])
    assert isinstance(plant, TwoLinkArm)
    m1, m2, l1, lc1, lc2 = plant.m1, plant.m2, plant.l1, plant.lc1, plant.lc2
    I1, I2, b = plant.I1, plant.I2, plant.b
    _, t2, w1, w2 = x
    c2, s2 = np.cos(t2), np.sin(t2)
    h01 = m2 * (lc2 ** 2 + l1 * lc2 * c2) + I2
    H = np.array([[m1 * lc1 ** 2 + I1 + I2
                   + m2 * (l1 ** 2 + lc2 ** 2 + 2 * l1 * lc2 * c2), h01],
                  [h01, m2 * lc2 ** 2 + I2]])
    k = m2 * l1 * lc2 * s2
    rhs = np.array([k * w2 * (2 * w1 + w2) - b * w1, -k * w1 ** 2 - b * w2])
    return (H, rhs, {1: np.array([[-2 * k, -k], [-k, 0.0]])}, np.eye(2),
            [2, 3], [0, 1])


def _reference_drift_G_jac(plant, x):
    n, m = plant.spec.n, plant.spec.m
    H, rhs, dH, F, acc_rows, pos_rows = _reference_dynamics(plant, x)
    drift = np.zeros(n)
    # the velocities sit in the rows that receive the accelerations
    drift[pos_rows] = x[acc_rows]
    drift[acc_rows] = np.linalg.solve(H, rhs)
    G = np.zeros((n, m))
    G[acc_rows] = np.linalg.solve(H, F)
    jac = np.zeros((n, m, n))
    for k, dHk in dH.items():
        jac[acc_rows, :, k] = np.linalg.solve(H, -dHk @ G[acc_rows])
    return drift, G, jac


@pytest.mark.parametrize("name", ["cartpole", "dpc", "arm"])
def test_closed_form_inertia_solves_match_lapack(name):
    plant = make_plant(name)
    n = plant.spec.n
    rng = np.random.default_rng(1846)
    xs = np.empty((1000, n))
    angles = [2] if name == "cartpole" else [2, 4] if name == "dpc" else [0, 1]
    other = [k for k in range(n) if k not in angles]
    xs[:, angles] = rng.uniform(-10.0, 10.0, (1000, len(angles)))
    xs[:, other] = rng.uniform(-20.0, 20.0, (1000, len(other)))
    refs = [_reference_drift_G_jac(plant, x) for x in xs]
    G_batch = plant.control_matrix(xs)

    def close(got, ref):
        # relative to the largest entry: either solve's rounding scales with
        # the size of the solution, so an entry that cancels to near zero
        # has no relative accuracy to compare
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    for x, (drift, G, jac), G_row in zip(xs, refs, G_batch):
        close(plant.drift(x), drift)
        close(plant.control_matrix(x), G)
        close(G_row, G)
        close(plant.control_matrix_jac(x), jac)


@pytest.mark.parametrize("name,params", [
    ("cartpole", dict(pole_mass=0.0)),
    ("dpc", dict(link2_mass=0.0)),
    ("arm", dict(link2_mass=0.0)),
])
def test_singular_inertia_raises(name, params):
    # built from a PlantSpec directly: make_plant rejects these parameters
    base = make_plant(name)
    plant = type(base)(dataclasses.replace(
        base.spec, params={**base.spec.params, **params}))
    x = np.full(plant.spec.n, 0.3)
    u = np.zeros(plant.spec.m)
    calls = [lambda: plant.drift(x), lambda: plant.control_matrix(x),
             lambda: plant.control_matrix(np.stack([x, -x])),
             lambda: plant.control_matrix_jac(x),
             lambda: plant.step(x, u, None),
             lambda: plant.step_batch(np.stack([x, -x]), u, None)]
    for call in calls:
        with pytest.raises(NumericalError):
            call()


@pytest.mark.parametrize("name,params", [
    ("cartpole", dict(pole_len=3.0)),
    ("cartpole", dict(pole_mass=0.0)),
    ("cartpole", dict(cart_mass=-0.5)),
    ("cartpole", dict(pole_length=np.nan)),
    ("cartpole", dict(friction=-0.1)),
    ("cartpole", dict(gravity=np.inf)),
    ("dpc", dict(link2_mass=0.0)),
    ("dpc", dict(link1_length=np.inf)),
    ("dpc", dict(gravity=-9.81)),
    ("arm", dict(link2_mass=0.0)),
    ("arm", dict(link2_length=-0.5)),
    ("arm", dict(friction=np.nan)),
    ("arm", dict(gravity=9.81)),
    ("linear", dict(A=[[0.0]], Bc=[[1.0]], C=[[1.0]])),
    # malformed shapes: A not square, B rows, sigma_omega against B's columns
    ("linear", dict(A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], Bc=[[0.0], [1.0]])),
    ("linear", dict(A=np.zeros((2, 2)), Bc=[[0.0], [1.0]], B=[[1.0, 0.0]])),
    ("linear", dict(A=np.zeros((2, 2)), Bc=[[0.0], [1.0]], B=[[1.0], [0.0]],
                    sigma_omega=np.eye(2))),
])
def test_make_plant_rejects_bad_parameters(name, params):
    with pytest.raises(ConfigError):
        make_plant(name, params=params)


def test_make_plant_accepts_zero_friction_and_gravity():
    plant = make_plant("cartpole", params=dict(friction=0, gravity=0.0))
    assert np.allclose(plant.drift(np.zeros(4)), 0.0)


@pytest.mark.parametrize("name", ["cartpole", "dpc", "arm"])
@pytest.mark.parametrize("angle", [np.nan, np.inf])
def test_non_finite_inertia_raises(name, angle):
    plant = make_plant(name)
    x = np.full(plant.spec.n, 0.3)
    x[1 if name == "arm" else 2] = angle
    with np.errstate(invalid="ignore"):
        for call in (plant.drift, plant.control_matrix, plant.control_matrix_jac,
                     lambda x: plant.control_matrix(np.stack([np.zeros_like(x), x]))):
            with pytest.raises(NumericalError):
                call(x)


@pytest.mark.parametrize("name", ["cartpole", "linear"])
@pytest.mark.parametrize("setting,value", [
    ("dt", np.nan), ("dt", np.inf), ("dt", 0.0), ("dt", -0.02), ("dt", "0.02"),
    ("substeps", 2.5), ("substeps", 0), ("substeps", True),
    ("noise_std", -0.5), ("noise_std", None), ("noise_std", "x"),
    ("noise_std", np.nan), ("noise_std", np.inf),
])
def test_make_plant_rejects_bad_settings(name, setting, value):
    params = dict(A=[[0.0]], Bc=[[1.0]]) if name == "linear" else None
    with pytest.raises(ConfigError, match=setting):
        make_plant(name, params=params, **{setting: value})
