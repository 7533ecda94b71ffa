import numpy as np
import pytest

from gppi.errors import ConfigError, NumericalError
from gppi.plants import make_plant


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
