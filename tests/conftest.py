import os

# One BLAS thread, set before numpy loads BLAS: on two cores the default
# multi-threaded OpenBLAS makes the GP fits several times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from gppi.control import CostSpec  # noqa: E402
from gppi.gp import GpModel, TrainingSet, fit_hyperparameters, incorporate_sample  # noqa: E402
from gppi.plants import make_plant  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def cartpole():
    return make_plant("cartpole")


@pytest.fixture(scope="session")
def cartpole_model(cartpole):
    """Small GP trained on random-control cart-pole transitions."""
    rng = np.random.default_rng(11)
    model = GpModel.empty(4)
    x = np.zeros(4)
    for _ in range(80):
        u = rng.uniform(-8, 8, 1)
        xn = cartpole.step(x, u, rng)
        model, _ = incorporate_sample(model, x, u, xn,
                                      cartpole.control_matrix, 0.02)
        x = xn if np.linalg.norm(xn) < 20 else np.zeros(4)
    hypers, _ = fit_hyperparameters(model.train, rng=np.random.default_rng(3),
                                    n_restarts=1, max_iters=80)
    return GpModel.from_data(model.train, hypers)


@pytest.fixture(scope="session")
def dpc():
    return make_plant("dpc")


@pytest.fixture(scope="session")
def dpc_model(dpc):
    """Small GP trained on random-control double-pendulum-cart transitions."""
    rng = np.random.default_rng(13)
    model = GpModel.empty(6)
    x = np.zeros(6)
    for _ in range(80):
        u = rng.uniform(-8, 8, 1)
        xn = dpc.step(x, u, rng)
        model, _ = incorporate_sample(model, x, u, xn, dpc.control_matrix, 0.02)
        x = xn if np.linalg.norm(xn) < 20 else np.zeros(6)
    hypers, _ = fit_hyperparameters(model.train, rng=np.random.default_rng(3),
                                    n_restarts=1, max_iters=80)
    return GpModel.from_data(model.train, hypers)


@pytest.fixture(scope="session")
def linear_plant():
    return make_plant("linear", params=dict(A=[[-0.5]], Bc=[[1.0]],
                                            B=[[0.02]], sigma_omega=[[1.0]]))


@pytest.fixture(scope="session")
def linear_model(linear_plant):
    """Densely trained GP on the 1-D linear plant."""
    rng = np.random.default_rng(5)
    model = GpModel.empty(1)
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, 1)
        u = rng.uniform(-2, 2, 1)
        xn = linear_plant.step(x, u, rng)
        model, _ = incorporate_sample(model, x, u, xn,
                                      linear_plant.control_matrix, 0.02)
    hypers, _ = fit_hyperparameters(model.train, rng=np.random.default_rng(9),
                                    n_restarts=1, max_iters=80)
    return GpModel.from_data(model.train, hypers)


@pytest.fixture
def swing_cost():
    return CostSpec(np.diag([0.5, 0.05, 2.0, 0.05]), [0, 0, np.pi, 0],
                    1.0, 0.02, 20)
