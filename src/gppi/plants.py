"""Simulated benchmark systems: dx = (f(x) + G(x) u) dt + B dw.

Each plant exposes the passive drift f, the control matrix G (vectorized
over leading axes, so that belief propagation evaluates a whole candidate
batch in one call), the analytic Jacobian of G (needed by the
belief-propagation gradient chain, since the control contribution
G(mu) u dt depends on the state), and a stochastic integrator.  The
deterministic part of a step is integrated with RK4 sub-steps; the
Brownian term is added per sub-step as B * sqrt(h) * L_w xi.
Plain explicit-Euler sub-stepping cannot hold the noise-free energy drift
inside the tolerance the invariant suite demands, so RK4 is used for the
drift while the noise handling stays Euler-Maruyama.

There is one integrator, `Plant.step_batch`, which steps a batch of states
(S, n) under one control; `Plant.step` is a batch of one.  The sampling
baseline steps its whole sample batch through it.

Angles are raw (unwrapped); "hanging down" is 0 and "upright" is pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError

DIVERGENCE_NORM = 1e6


@dataclass
class PlantSpec:
    """Physical and integration parameters of a simulated system."""

    name: str
    n: int
    m: int
    params: dict
    B: np.ndarray              # diffusion matrix, n x p
    sigma_omega: np.ndarray    # Brownian increment variance, p x p
    dt: float = 0.02
    substeps: int = 10

    def __post_init__(self):
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.sigma_omega = np.atleast_2d(np.asarray(self.sigma_omega, dtype=float))
        if self.n < 1 or self.m < 1:
            raise ConfigError("state and control dimensions must be >= 1")
        if self.substeps < 1:
            raise ConfigError("substeps must be >= 1")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        w = self.sigma_omega
        if not np.allclose(w, w.T) or np.any(np.linalg.eigvalsh(w) < -1e-12):
            raise ConfigError("sigma_omega must be symmetric PSD")


class Plant:
    """Base class: stateless dynamics bundle plus a caller-owned rng."""

    spec: PlantSpec

    def __init__(self, spec: PlantSpec):
        self.spec = spec
        self._noise_chol = _psd_sqrt(spec.sigma_omega)

    # --- dynamics interface -------------------------------------------------
    def drift(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def control_matrix(self, x: np.ndarray) -> np.ndarray:
        """G(x): states (..., n) to control matrices (..., n, m)."""
        raise NotImplementedError

    def control_matrix_jac(self, x: np.ndarray) -> np.ndarray:
        """d G[i, j] / d x[k], shape (n, m, n)."""
        raise NotImplementedError

    def energy(self, x: np.ndarray) -> float:
        raise NotImplementedError(f"{self.spec.name} has no energy function")

    # --- integration --------------------------------------------------------
    def _controlled_rate(self, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.array([self.drift(x) + self.control_matrix(x) @ u for x in xs])

    def step(self, x, u, rng: np.random.Generator | None = None) -> np.ndarray:
        """One control step of one state, a batch of one for `step_batch`;
        Brownian noise is added when `rng` is given."""
        xs, _ = self.step_batch(np.asarray(x, dtype=float)[None], u, rng)
        return xs[0]

    def step_batch(self, xs, u, rng: np.random.Generator | None = None):
        """One control step of every state of a batch `xs` (S, n) under `u`.

        Returns the next states (S, n) and the Brownian increments summed
        over the sub-steps (S, p), zero without `rng`.  Each sub-step draws
        one (S, p) block of standard normals from `rng`; for S = 1 that is
        one p-vector per sub-step.
        """
        xs = np.asarray(xs, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(u)):
            raise NumericalError("non-finite state or control in plant step")
        if u.shape[0] != self.spec.m:
            raise ConfigError(
                f"control dimension {u.shape[0]} != plant m={self.spec.m}")
        h = self.spec.dt / self.spec.substeps
        sq = np.sqrt(h)
        B = self.spec.B
        dw_sum = np.zeros((xs.shape[0], B.shape[1]))
        for _ in range(self.spec.substeps):
            xs = _rk4(self._controlled_rate, xs, u, h)
            if rng is not None:
                dw = sq * (rng.standard_normal(dw_sum.shape) @ self._noise_chol.T)
                xs = xs + dw @ B.T
                dw_sum += dw
            if np.any(np.linalg.norm(xs, axis=1) > DIVERGENCE_NORM):
                raise NumericalError("plant state diverged", step=None)
        return xs, dw_sum


def _rk4(rate, x, u, h):
    k1 = rate(x, u)
    k2 = rate(x + 0.5 * h * k1, u)
    k3 = rate(x + 0.5 * h * k2, u)
    k4 = rate(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _psd_sqrt(w: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(w)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


# a unit force on the cart, the first generalized coordinate
_FORCE_2 = np.array([[1.0], [0.0]])
_FORCE_3 = np.array([[1.0], [0.0], [0.0]])


def _solve_inertia(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular inertia matrix") from exc


# ---------------------------------------------------------------------------
# Linear test plant
# ---------------------------------------------------------------------------

class LinearPlant(Plant):
    """dx = (A x + Bc u) dt + B dw; the workhorse of the oracle suites."""

    def __init__(self, spec: PlantSpec):
        super().__init__(spec)
        self.A = np.atleast_2d(np.asarray(spec.params["A"], dtype=float))
        self.Bc = np.atleast_2d(np.asarray(spec.params["Bc"], dtype=float))
        if self.Bc.shape != (spec.n, spec.m):
            raise ConfigError("Bc must be n x m")

    def drift(self, x):
        return self.A @ np.asarray(x, dtype=float)

    def control_matrix(self, x):
        return np.broadcast_to(self.Bc, np.shape(x)[:-1] + self.Bc.shape)

    def control_matrix_jac(self, x):
        return np.zeros((self.spec.n, self.spec.m, self.spec.n))


# ---------------------------------------------------------------------------
# Cart-pole
# ---------------------------------------------------------------------------

class CartPole(Plant):
    """Cart with a uniform-rod pole.  State (x, xdot, theta, thetadot)."""

    def __init__(self, spec: PlantSpec):
        super().__init__(spec)
        p = spec.params
        self.M = p["cart_mass"]
        self.m = p["pole_mass"]
        self.L = p["pole_length"]
        self.g = p["gravity"]
        self.b = p["friction"]

    def _inertia(self, theta):
        c = np.cos(theta)
        h = np.empty(c.shape + (2, 2))
        h[..., 0, 0] = self.M + self.m
        h[..., 0, 1] = h[..., 1, 0] = 0.5 * self.m * self.L * c
        h[..., 1, 1] = self.m * self.L ** 2 / 3.0
        return h

    def drift(self, x):
        x = np.asarray(x, dtype=float)
        _, xd, th, thd = x
        s = np.sin(th)
        rhs = np.array([
            -self.b * xd + 0.5 * self.m * self.L * thd ** 2 * s,
            -0.5 * self.m * self.g * self.L * s,
        ])
        acc = _solve_inertia(self._inertia(th), rhs)
        return np.array([xd, acc[0], thd, acc[1]])

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (4, 1))
        g[..., 1::2, :] = _solve_inertia(self._inertia(x[..., 2]), _FORCE_2)
        return g

    def control_matrix_jac(self, x):
        th = x[2]
        h = self._inertia(th)
        dh = np.zeros((2, 2))
        dh[0, 1] = dh[1, 0] = -0.5 * self.m * self.L * np.sin(th)
        col = _solve_inertia(h, np.array([1.0, 0.0]))
        dcol = _solve_inertia(h, -dh @ col)
        jac = np.zeros((4, 1, 4))
        jac[1, 0, 2] = dcol[0]
        jac[3, 0, 2] = dcol[1]
        return jac

    def energy(self, x):
        _, xd, th, thd = np.asarray(x, dtype=float)
        m, L = self.m, self.L
        # cart + pole CoM translation + pole rotation about CoM
        vx = xd + 0.5 * L * thd * np.cos(th)
        vy = 0.5 * L * thd * np.sin(th)
        kin = 0.5 * self.M * xd ** 2 + 0.5 * m * (vx ** 2 + vy ** 2) \
            + 0.5 * (m * L ** 2 / 12.0) * thd ** 2
        pot = -0.5 * m * self.g * L * np.cos(th)
        return kin + pot


# ---------------------------------------------------------------------------
# Double pendulum on a cart
# ---------------------------------------------------------------------------

class DoublePendulumCart(Plant):
    """Cart with two uniform-rod links, absolute link angles.

    State (x, xdot, theta1, theta1dot, theta2, theta2dot); one force on the
    cart.
    """

    def __init__(self, spec: PlantSpec):
        super().__init__(spec)
        p = spec.params
        self.M = p["cart_mass"]
        self.m1 = p["link1_mass"]
        self.m2 = p["link2_mass"]
        self.l1 = p["link1_length"]
        self.l2 = p["link2_length"]
        self.g = p["gravity"]
        self.b = p["friction"]

    def _inertia(self, th1, th2):
        m1, m2, l1, l2 = self.m1, self.m2, self.l1, self.l2
        c1, c2, c12 = np.cos(th1), np.cos(th2), np.cos(th1 - th2)
        h = np.empty(c1.shape + (3, 3))
        h[..., 0, 0] = self.M + m1 + m2
        h[..., 0, 1] = h[..., 1, 0] = (0.5 * m1 + m2) * l1 * c1
        h[..., 0, 2] = h[..., 2, 0] = 0.5 * m2 * l2 * c2
        h[..., 1, 1] = (m1 / 3.0 + m2) * l1 ** 2
        h[..., 1, 2] = h[..., 2, 1] = 0.5 * m2 * l1 * l2 * c12
        h[..., 2, 2] = m2 * l2 ** 2 / 3.0
        return h

    def drift(self, x):
        x = np.asarray(x, dtype=float)
        _, xd, th1, th1d, th2, th2d = x
        m1, m2, l1, l2, g = self.m1, self.m2, self.l1, self.l2, self.g
        s1, s2, s12 = np.sin(th1), np.sin(th2), np.sin(th1 - th2)
        rhs = np.array([
            -self.b * xd + (0.5 * m1 + m2) * l1 * s1 * th1d ** 2
            + 0.5 * m2 * l2 * s2 * th2d ** 2,
            -0.5 * m2 * l1 * l2 * s12 * th2d ** 2 - (0.5 * m1 + m2) * g * l1 * s1,
            0.5 * m2 * l1 * l2 * s12 * th1d ** 2 - 0.5 * m2 * g * l2 * s2,
        ])
        acc = _solve_inertia(self._inertia(th1, th2), rhs)
        return np.array([xd, acc[0], th1d, acc[1], th2d, acc[2]])

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (6, 1))
        g[..., 1::2, :] = _solve_inertia(self._inertia(x[..., 2], x[..., 4]),
                                         _FORCE_3)
        return g

    def control_matrix_jac(self, x):
        th1, th2 = x[2], x[4]
        m1, m2, l1, l2 = self.m1, self.m2, self.l1, self.l2
        s1, s2, s12 = np.sin(th1), np.sin(th2), np.sin(th1 - th2)
        h = self._inertia(th1, th2)
        col = _solve_inertia(h, np.array([1.0, 0.0, 0.0]))

        dh1 = np.zeros((3, 3))
        dh1[0, 1] = dh1[1, 0] = -(0.5 * m1 + m2) * l1 * s1
        dh1[1, 2] = dh1[2, 1] = -0.5 * m2 * l1 * l2 * s12
        dh2 = np.zeros((3, 3))
        dh2[0, 2] = dh2[2, 0] = -0.5 * m2 * l2 * s2
        dh2[1, 2] = dh2[2, 1] = 0.5 * m2 * l1 * l2 * s12

        jac = np.zeros((6, 1, 6))
        for state_idx, dh in ((2, dh1), (4, dh2)):
            dcol = _solve_inertia(h, -dh @ col)
            jac[1, 0, state_idx] = dcol[0]
            jac[3, 0, state_idx] = dcol[1]
            jac[5, 0, state_idx] = dcol[2]
        return jac

    def energy(self, x):
        _, xd, th1, th1d, th2, th2d = np.asarray(x, dtype=float)
        m1, m2, l1, l2, g = self.m1, self.m2, self.l1, self.l2, self.g
        c1, c2 = np.cos(th1), np.cos(th2)
        v1x = xd + 0.5 * l1 * th1d * c1
        v1y = 0.5 * l1 * th1d * np.sin(th1)
        v2x = xd + l1 * th1d * c1 + 0.5 * l2 * th2d * c2
        v2y = l1 * th1d * np.sin(th1) + 0.5 * l2 * th2d * np.sin(th2)
        kin = 0.5 * self.M * xd ** 2 \
            + 0.5 * m1 * (v1x ** 2 + v1y ** 2) + 0.5 * (m1 * l1 ** 2 / 12.0) * th1d ** 2 \
            + 0.5 * m2 * (v2x ** 2 + v2y ** 2) + 0.5 * (m2 * l2 ** 2 / 12.0) * th2d ** 2
        pot = -(0.5 * m1 + m2) * g * l1 * c1 - 0.5 * m2 * g * l2 * c2
        return kin + pot


# ---------------------------------------------------------------------------
# Planar two-link arm
# ---------------------------------------------------------------------------

class TwoLinkArm(Plant):
    """Two-link manipulator in the horizontal plane (no gravity).

    State (theta1, theta2, omega1, omega2); theta2 is the relative elbow
    angle; controls are the two joint torques.
    """

    def __init__(self, spec: PlantSpec):
        super().__init__(spec)
        p = spec.params
        self.m1 = p["link1_mass"]
        self.m2 = p["link2_mass"]
        self.l1 = p["link1_length"]
        self.l2 = p["link2_length"]
        self.b = p["friction"]
        self.lc1 = 0.5 * self.l1
        self.lc2 = 0.5 * self.l2
        self.I1 = self.m1 * self.l1 ** 2 / 12.0
        self.I2 = self.m2 * self.l2 ** 2 / 12.0

    def _inertia(self, th2):
        c2 = np.cos(th2)
        h = np.empty(c2.shape + (2, 2))
        h[..., 0, 0] = self.m1 * self.lc1 ** 2 + self.I1 + self.I2 \
            + self.m2 * (self.l1 ** 2 + self.lc2 ** 2 + 2 * self.l1 * self.lc2 * c2)
        h[..., 0, 1] = h[..., 1, 0] = \
            self.m2 * (self.lc2 ** 2 + self.l1 * self.lc2 * c2) + self.I2
        h[..., 1, 1] = self.m2 * self.lc2 ** 2 + self.I2
        return h

    def drift(self, x):
        x = np.asarray(x, dtype=float)
        th2, w1, w2 = x[1], x[2], x[3]
        h = self.m2 * self.l1 * self.lc2 * np.sin(th2)
        bias = np.array([-h * w2 * (2 * w1 + w2), h * w1 ** 2])
        acc = _solve_inertia(self._inertia(th2),
                             -bias - self.b * np.array([w1, w2]))
        return np.array([w1, w2, acc[0], acc[1]])

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (4, 2))
        g[..., 2:, :] = np.linalg.inv(self._inertia(x[..., 1]))
        return g

    def control_matrix_jac(self, x):
        th2 = x[1]
        m = self._inertia(th2)
        d = -self.m2 * self.l1 * self.lc2 * np.sin(th2)
        dm = np.array([[2 * d, d], [d, 0.0]])
        minv = np.linalg.inv(m)
        dminv = -minv @ dm @ minv
        jac = np.zeros((4, 2, 4))
        jac[2:, :, 1] = dminv
        return jac

    def energy(self, x):
        qd = np.asarray(x, dtype=float)[2:]
        return 0.5 * qd @ self._inertia(x[1]) @ qd


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_CARTPOLE_PARAMS = dict(cart_mass=0.5, pole_mass=0.5, pole_length=0.5,
                        gravity=9.81, friction=0.1)
_DPC_PARAMS = dict(cart_mass=0.5, link1_mass=0.5, link2_mass=0.5,
                   link1_length=0.5, link2_length=0.5, gravity=9.81,
                   friction=0.1)
_ARM_PARAMS = dict(link1_mass=0.5, link2_mass=0.5, link1_length=0.5,
                   link2_length=0.5, friction=0.1)

_NOISE_STD_DEFAULT = 0.01

# Every accepted spelling of a plant name, mapped to its canonical name.
_PLANT_ALIASES = {
    "cartpole": "cartpole", "cart-pole": "cartpole", "cp": "cartpole",
    "double-pendulum-cart": "double-pendulum-cart",
    "dpc": "double-pendulum-cart",
    "cart-double-pendulum": "double-pendulum-cart",
    "two-link-arm": "two-link-arm", "arm": "two-link-arm",
    "twolink": "two-link-arm",
    "linear": "linear",
}


def canonical_plant_name(name) -> str:
    """Resolve a plant name or alias (any case, '_' or '-') to its canonical name.

    Raises ConfigError for a name that no plant answers to.
    """
    if not isinstance(name, str):
        raise ConfigError(f"plant name must be a string, got {name!r}")
    key = _PLANT_ALIASES.get(name.lower().replace("_", "-"))
    if key is None:
        raise ConfigError(f"unknown plant '{name}'")
    return key


def _velocity_rows_B(n: int, vel_rows: list[int]) -> np.ndarray:
    b = np.zeros((n, len(vel_rows)))
    for j, r in enumerate(vel_rows):
        b[r, j] = 1.0
    return b


def make_plant(name: str, *, dt: float = 0.02, substeps: int = 10,
               params: dict | None = None, noise_std: float | None = None,
               **extra) -> Plant:
    """Build a plant by name with optional parameter overrides."""
    key = canonical_plant_name(name)
    std = _NOISE_STD_DEFAULT if noise_std is None else noise_std
    if key == "cartpole":
        p = {**_CARTPOLE_PARAMS, **(params or {})}
        vel = [1, 3]
        spec = PlantSpec("cartpole", 4, 1, p, _velocity_rows_B(4, vel),
                         std ** 2 * np.eye(len(vel)), dt, substeps)
        return CartPole(spec)
    if key == "double-pendulum-cart":
        p = {**_DPC_PARAMS, **(params or {})}
        vel = [1, 3, 5]
        spec = PlantSpec("double-pendulum-cart", 6, 1, p,
                         _velocity_rows_B(6, vel),
                         std ** 2 * np.eye(len(vel)), dt, substeps)
        return DoublePendulumCart(spec)
    if key == "two-link-arm":
        p = {**_ARM_PARAMS, **(params or {})}
        vel = [2, 3]
        spec = PlantSpec("two-link-arm", 4, 2, p, _velocity_rows_B(4, vel),
                         std ** 2 * np.eye(len(vel)), dt, substeps)
        return TwoLinkArm(spec)
    # the only canonical name left is "linear"
    p = dict(params or {})
    if "A" not in p or "Bc" not in p:
        raise ConfigError("linear plant requires params A and Bc")
    a = np.atleast_2d(np.asarray(p["A"], dtype=float))
    bc = np.atleast_2d(np.asarray(p["Bc"], dtype=float))
    n, m = a.shape[0], bc.shape[1]
    bdiff = np.asarray(p.get("B", np.eye(n)), dtype=float)
    bdiff = np.atleast_2d(bdiff)
    sw = np.asarray(p.get("sigma_omega", std ** 2 * np.eye(bdiff.shape[1])),
                    dtype=float)
    spec = PlantSpec("linear", n, m, p, bdiff, sw, dt, substeps)
    return LinearPlant(spec)
