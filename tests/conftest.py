import os

# One BLAS thread, set before numpy loads BLAS: on two cores the default
# multi-threaded OpenBLAS makes the GP fits several times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from gppi.control import CostSpec  # noqa: E402
from gppi.gp import GpModel, KernelHyper, incorporate_sample  # noqa: E402
from gppi.plants import make_plant  # noqa: E402


# The fixture models take literal hyperparameters, the values that the
# first-order ascent fit returned for these training sets (n_restarts=1,
# max_iters=80), so that they do not move when the fit changes.
_CARTPOLE_HYPER = [
    -3.4832340386057723, -3.5407098004233672, -2.7976041265578715,
    -1.7144060200879754, -6.633075101420701, -6.666154068679231,
    -5.510733638464722, -6.003334131865573, -3.00331975607575,
    -3.1264778526588417, 1.2038692606609345, -4.213072604807732]
_DPC_HYPER = [
    -4.194108183233287, -3.163412879935383, -2.9880920222585248,
    -1.3737001846647576, -3.01213525800624, -1.0130205853844456,
    -6.855583966583265, -6.399902341660079, -5.95395364429163,
    -5.223641600818274, -7.384563997540583, -4.719242840782133,
    1.0812727372481772, -3.284893690842997, 2.6668791476885905,
    -4.920985364412107, 1.5137972005903721, -4.4519388512787605]
_LINEAR_HYPER = [-4.407258916633576, -5.885047323246191, -1.1786968581074055]


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
    return GpModel.from_data(model.train,
                             KernelHyper.from_vector(_CARTPOLE_HYPER, 4))


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
    return GpModel.from_data(model.train,
                             KernelHyper.from_vector(_DPC_HYPER, 6))


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
    return GpModel.from_data(model.train,
                             KernelHyper.from_vector(_LINEAR_HYPER, 1))


@pytest.fixture
def swing_cost():
    return CostSpec(np.diag([0.5, 0.05, 2.0, 0.05]), [0, 0, np.pi, 0],
                    1.0, 0.02, 20)
