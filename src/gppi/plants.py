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
baseline steps its whole sample batch through it.  Each RK4 stage of a
batch evaluates G once for all S rows and f once per row; a batch of one
evaluates G on the bare state, where stacking costs more set-up than it
saves.  Either way every row is bit-identical to stepping it alone.

The articulated plants never call LAPACK on their mass matrix.  Each
returns the upper triangle of its 2 x 2 or 3 x 3 inertia, and
`_sym_inverse` inverts it in closed form, adjugate over determinant, with
nothing but ``+ - * /``.  So the same formula serves `drift`, which takes
one state as Python floats with `math` trigonometry (one call per row, at
a fraction of a small `np.linalg.solve`), and `control_matrix`, which
broadcasts it over any leading batch shape.  A singular or non-finite
inertia raises `NumericalError`.

Each articulated plant is one row of the table `_ARTICULATED`, from which
`make_plant` builds it and the alias map is built; the linear plant has its
own short branch.  `DT`, `SUBSTEPS` and `NOISE_STD` are the one home of the
integration and noise defaults, which the harness config defaults read.

Angles are raw (unwrapped); "hanging down" is 0 and "upright" is pi.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
    dt: float
    substeps: int

    def __post_init__(self):
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.sigma_omega = np.atleast_2d(np.asarray(self.sigma_omega, dtype=float))
        if self.n < 1 or self.m < 1:
            raise ConfigError("state and control dimensions must be >= 1")
        s = self.substeps
        if not isinstance(s, numbers.Integral) or isinstance(s, bool) or s < 1:
            raise ConfigError(f"plant substeps must be an integer >= 1, "
                              f"got {s!r}")
        _require_number("plant dt", self.dt)
        if self.B.ndim != 2 or self.B.shape[0] != self.n:
            raise ConfigError(f"B must have one row per state (n={self.n}), "
                              f"got shape {self.B.shape}")
        p = self.B.shape[1]
        w = self.sigma_omega
        if w.shape != (p, p):
            raise ConfigError(f"sigma_omega must be {p} x {p}, one row and "
                              f"column per column of B, got shape {w.shape}")
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
        if len(xs) == 1:
            # a stacked G costs more set-up than it saves on one row
            return (self.drift(xs[0]) + self.control_matrix(xs[0]) @ u)[None]
        return np.array([self.drift(x) for x in xs]) + self.control_matrix(xs) @ u

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
            # `not <=` so that a NaN row, which compares False, fails too
            if not np.all(np.linalg.norm(xs, axis=1) <= DIVERGENCE_NORM):
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


def _sym_inverse(h, first_row=False):
    """Inverse of a symmetric 2 x 2 or 3 x 3 matrix, adjugate over determinant.

    `h` is the upper triangle row by row, ``((h00, h01), (h11,))`` or
    ``((h00, h01, h02), (h11, h12), (h22,))``; the inverse comes back as a
    tuple of full rows, only its first with `first_row` (all that a unit
    force on the first coordinate needs).  Only ``+ - * /`` touch the
    entries, so they may be floats (one state) or arrays of one shape (a
    batch), and each batch row is bit-identical to its state alone.  Raises
    NumericalError where h is singular or not finite.
    """
    if len(h) == 2:
        (a, b), (d,) = h
        det = a * d - b * b
        _require_regular(det)
        o = -b / det
        return ((d / det, o),) if first_row else ((d / det, o), (o, a / det))
    (a, b, c), (d, e), (f,) = h
    # the first row's cofactors also expand the determinant
    c00 = d * f - e * e
    c01 = c * e - b * f
    c02 = b * e - c * d
    det = a * c00 + b * c01 + c * c02
    _require_regular(det)
    if first_row:
        return ((c00 / det, c01 / det, c02 / det),)
    i01, i02, i12 = c01 / det, c02 / det, (b * c - a * e) / det
    return ((c00 / det, i01, i02),
            (i01, (a * f - c * c) / det, i12),
            (i02, i12, (a * d - b * b) / det))


def _require_regular(det):
    """NumericalError unless every determinant is nonzero and finite."""
    if isinstance(det, np.ndarray):
        # count_nonzero is the cheapest reduction over a small batch
        regular = np.count_nonzero(det) == np.count_nonzero(np.isfinite(det)) \
            == det.size
    else:
        regular = det != 0 and math.isfinite(det)
    if not regular:
        raise NumericalError("singular or non-finite inertia matrix")


def _sin_cos(theta: float):
    """`math.sin` and `math.cos` of one angle.  An infinite angle raises
    NumericalError, as the NaN inertia of a NaN angle does."""
    try:
        return math.sin(theta), math.cos(theta)
    except ValueError:
        raise NumericalError("non-finite angle in the plant dynamics") from None


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

    def _inertia(self, c):
        """Upper triangle of the mass matrix at cos(theta) = c."""
        return ((self.M + self.m, 0.5 * self.m * self.L * c),
                (self.m * self.L ** 2 / 3.0,))

    def drift(self, x):
        _, xd, th, thd = np.asarray(x, dtype=float).tolist()
        s, c = _sin_cos(th)
        (a, b), (_, d) = _sym_inverse(self._inertia(c))
        r0 = -self.b * xd + 0.5 * self.m * self.L * thd * thd * s
        r1 = -0.5 * self.m * self.g * self.L * s
        return np.array([xd, a * r0 + b * r1, thd, b * r0 + d * r1])

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        # a unit force on the cart: G is the first column of the inverse
        a, b = _sym_inverse(self._inertia(np.cos(x[..., 2])), first_row=True)[0]
        g = np.zeros(x.shape[:-1] + (4, 1))
        g[..., 1, 0] = a
        g[..., 3, 0] = b
        return g

    def control_matrix_jac(self, x):
        s, c = _sin_cos(float(x[2]))
        inv = np.array(_sym_inverse(self._inertia(c)))
        dh = np.zeros((2, 2))
        dh[0, 1] = dh[1, 0] = -0.5 * self.m * self.L * s
        dcol = -inv @ (dh @ inv[:, 0])
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

    def _inertia(self, c1, c2, c12):
        """Upper triangle of the mass matrix at cos(theta1) = c1,
        cos(theta2) = c2 and cos(theta1 - theta2) = c12."""
        m1, m2, l1, l2 = self.m1, self.m2, self.l1, self.l2
        return ((self.M + m1 + m2, (0.5 * m1 + m2) * l1 * c1, 0.5 * m2 * l2 * c2),
                ((m1 / 3.0 + m2) * l1 ** 2, 0.5 * m2 * l1 * l2 * c12),
                (m2 * l2 ** 2 / 3.0,))

    def drift(self, x):
        _, xd, th1, th1d, th2, th2d = np.asarray(x, dtype=float).tolist()
        m1, m2, l1, l2, g = self.m1, self.m2, self.l1, self.l2, self.g
        s1, c1 = _sin_cos(th1)
        s2, c2 = _sin_cos(th2)
        s12, c12 = _sin_cos(th1 - th2)
        (a, b, c), (_, d, e), (_, _, f) = _sym_inverse(self._inertia(c1, c2, c12))
        r0 = -self.b * xd + (0.5 * m1 + m2) * l1 * s1 * th1d * th1d \
            + 0.5 * m2 * l2 * s2 * th2d * th2d
        r1 = -0.5 * m2 * l1 * l2 * s12 * th2d * th2d - (0.5 * m1 + m2) * g * l1 * s1
        r2 = 0.5 * m2 * l1 * l2 * s12 * th1d * th1d - 0.5 * m2 * g * l2 * s2
        return np.array([xd, a * r0 + b * r1 + c * r2,
                         th1d, b * r0 + d * r1 + e * r2,
                         th2d, c * r0 + e * r1 + f * r2])

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        th1, th2 = x[..., 2], x[..., 4]
        # a unit force on the cart: G is the first column of the inverse
        a, b, c = _sym_inverse(
            self._inertia(np.cos(th1), np.cos(th2), np.cos(th1 - th2)),
            first_row=True)[0]
        g = np.zeros(x.shape[:-1] + (6, 1))
        g[..., 1, 0] = a
        g[..., 3, 0] = b
        g[..., 5, 0] = c
        return g

    def control_matrix_jac(self, x):
        th1, th2 = float(x[2]), float(x[4])
        m1, m2, l1, l2 = self.m1, self.m2, self.l1, self.l2
        s1, c1 = _sin_cos(th1)
        s2, c2 = _sin_cos(th2)
        s12, c12 = _sin_cos(th1 - th2)
        inv = np.array(_sym_inverse(self._inertia(c1, c2, c12)))
        col = inv[:, 0]

        dh1 = np.zeros((3, 3))
        dh1[0, 1] = dh1[1, 0] = -(0.5 * m1 + m2) * l1 * s1
        dh1[1, 2] = dh1[2, 1] = -0.5 * m2 * l1 * l2 * s12
        dh2 = np.zeros((3, 3))
        dh2[0, 2] = dh2[2, 0] = -0.5 * m2 * l2 * s2
        dh2[1, 2] = dh2[2, 1] = 0.5 * m2 * l1 * l2 * s12

        jac = np.zeros((6, 1, 6))
        for state_idx, dh in ((2, dh1), (4, dh2)):
            dcol = -inv @ (dh @ col)
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

    def _inertia(self, c2):
        """Upper triangle of the mass matrix at cos(theta2) = c2."""
        m2, l1, lc2 = self.m2, self.l1, self.lc2
        return ((self.m1 * self.lc1 ** 2 + self.I1 + self.I2
                 + m2 * (l1 ** 2 + lc2 ** 2 + 2 * l1 * lc2 * c2),
                 m2 * (lc2 ** 2 + l1 * lc2 * c2) + self.I2),
                (m2 * lc2 ** 2 + self.I2,))

    def drift(self, x):
        _, th2, w1, w2 = np.asarray(x, dtype=float).tolist()
        s2, c2 = _sin_cos(th2)
        (a, b), (_, d) = _sym_inverse(self._inertia(c2))
        h = self.m2 * self.l1 * self.lc2 * s2
        # minus the Coriolis bias, minus the joint friction
        r0 = h * w2 * (2 * w1 + w2) - self.b * w1
        r1 = -h * w1 * w1 - self.b * w2
        return np.array([w1, w2, a * r0 + b * r1, b * r0 + d * r1])

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        (a, b), (_, d) = _sym_inverse(self._inertia(np.cos(x[..., 1])))
        g = np.zeros(x.shape[:-1] + (4, 2))
        g[..., 2, 0] = a
        g[..., 2, 1] = g[..., 3, 0] = b
        g[..., 3, 1] = d
        return g

    def control_matrix_jac(self, x):
        s2, c2 = _sin_cos(float(x[1]))
        minv = np.array(_sym_inverse(self._inertia(c2)))
        d = -self.m2 * self.l1 * self.lc2 * s2
        dm = np.array([[2 * d, d], [d, 0.0]])
        dminv = -minv @ dm @ minv
        jac = np.zeros((4, 2, 4))
        jac[2:, :, 1] = dminv
        return jac

    def energy(self, x):
        _, th2, w1, w2 = np.asarray(x, dtype=float)
        (a, b), (d,) = self._inertia(np.cos(th2))
        return 0.5 * (a * w1 * w1 + 2 * b * w1 * w2 + d * w2 * w2)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# The integration and noise defaults of every plant.
DT = 0.02
SUBSTEPS = 10
NOISE_STD = 0.01

# The articulated plants by canonical name: class, state and control
# dimensions, the velocity rows that Brownian noise enters, the physical
# defaults (the only parameter names accepted) and the plant's aliases.
_ARTICULATED = {
    "cartpole": (
        CartPole, 4, 1, (1, 3),
        dict(cart_mass=0.5, pole_mass=0.5, pole_length=0.5, gravity=9.81,
             friction=0.1),
        ("cart-pole", "cp")),
    "double-pendulum-cart": (
        DoublePendulumCart, 6, 1, (1, 3, 5),
        dict(cart_mass=0.5, link1_mass=0.5, link2_mass=0.5, link1_length=0.5,
             link2_length=0.5, gravity=9.81, friction=0.1),
        ("dpc", "cart-double-pendulum")),
    "two-link-arm": (
        TwoLinkArm, 4, 2, (2, 3),
        dict(link1_mass=0.5, link2_mass=0.5, link1_length=0.5,
             link2_length=0.5, friction=0.1),
        ("arm", "twolink")),
}

# Every canonical plant name: the articulated plants, then the linear one.
PLANT_NAMES = (*_ARTICULATED, "linear")

# Every accepted spelling of a plant name, mapped to its canonical name.
_PLANT_ALIASES = {**{name: name for name in PLANT_NAMES},
                  **{alias: name for name, (*_, aliases) in _ARTICULATED.items()
                     for alias in aliases}}


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


def _require_number(what: str, value, may_be_zero: bool = False) -> None:
    """ConfigError unless `value` is a real number (not a bool or a string)
    that is finite and positive or, with `may_be_zero`, non-negative."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)
            and (value >= 0 if may_be_zero else value > 0)):
        sign = "non-negative" if may_be_zero else "positive"
        raise ConfigError(f"{what} must be a finite, {sign} number, "
                          f"got {value!r}")


def _physical_params(defaults: dict, params: dict | None) -> dict:
    """`params` over `defaults`.  Raises ConfigError for a name not in
    `defaults`, a mass or length that is not positive and finite, or a
    friction or gravity that is negative or not finite."""
    unknown = sorted(set(params or {}) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown plant parameters {unknown}; "
                          f"expected some of {sorted(defaults)}")
    p = {**defaults, **(params or {})}
    for key, value in p.items():
        _require_number(f"plant parameter '{key}'", value,
                        may_be_zero=key in ("friction", "gravity"))
    return p


def make_plant(name: str, *, dt: float = DT, substeps: int = SUBSTEPS,
               params: dict | None = None,
               noise_std: float = NOISE_STD) -> Plant:
    """Build a plant by name with optional parameter overrides.

    The articulated plants accept only their own parameter names, and check
    the physical values (see `_physical_params`); the linear plant takes A,
    Bc and optionally B and sigma_omega.  Raises ConfigError otherwise, and
    unless `noise_std` is finite and non-negative (`PlantSpec` checks `dt`
    and `substeps`).
    """
    key = canonical_plant_name(name)
    _require_number("plant noise_std", noise_std, may_be_zero=True)
    if key in _ARTICULATED:
        cls, n, m, rows, defaults, _ = _ARTICULATED[key]
        return cls(PlantSpec(key, n, m, _physical_params(defaults, params),
                             np.eye(n)[:, rows],
                             noise_std ** 2 * np.eye(len(rows)), dt, substeps))
    p = dict(params or {})
    if "A" not in p or "Bc" not in p:
        raise ConfigError("linear plant requires params A and Bc")
    unknown = sorted(set(p) - {"A", "Bc", "B", "sigma_omega"})
    if unknown:
        raise ConfigError(f"unknown linear plant parameters {unknown}")
    a = np.atleast_2d(np.asarray(p["A"], dtype=float))
    bc = np.atleast_2d(np.asarray(p["Bc"], dtype=float))
    n, m = a.shape[0], bc.shape[1]
    if a.shape != (n, n):
        raise ConfigError(f"linear plant A must be square, got shape {a.shape}")
    bdiff = np.asarray(p.get("B", np.eye(n)), dtype=float)
    bdiff = np.atleast_2d(bdiff)
    sw = p.get("sigma_omega", noise_std ** 2 * np.eye(bdiff.shape[1]))
    return LinearPlant(PlantSpec(key, n, m, p, bdiff, sw, dt, substeps))
