"""Simulated benchmark systems: dx = (f(x) + G(x) u) dt + B dw.

Each plant exposes the passive drift f, the control matrix G (vectorized
over leading axes, so that belief propagation evaluates a whole candidate
batch in one call), the analytic Jacobian of G (needed by the
belief-propagation gradient chain, since the control contribution
G(mu) u dt depends on the state; also over leading axes, so that a
derivative pass evaluates it for all its steps in one call), and a
stochastic integrator.  The
deterministic part of a step is integrated with RK4 sub-steps; the
Brownian term is added per sub-step as B * sqrt(h) * L_w xi.
Plain explicit-Euler sub-stepping cannot hold the noise-free energy drift
inside the tolerance the invariant suite demands, so RK4 is used for the
drift while the noise handling stays Euler-Maruyama.

There is one integrator, `Plant.step_batch`, which steps a batch of states
(S, n) under one control (m,) or one control per row (S, m); `Plant.step`
is a batch of one.  The sampling baseline steps its whole sample batch
through it.  Each RK4 stage evaluates the controlled rate f(x) + G(x) u
with one `drift(x, u)` call per row, so the inertia of the articulated
plants is built and inverted once per row and stage, for f and G
together.  The linear plant takes the whole batch in one product instead.
Either way every row is bit-identical to stepping it alone.

The articulated plants never call LAPACK on their mass matrix; each
inverts its 2 x 2 or 3 x 3 inertia in closed form, adjugate over
determinant, with nothing but ``+ - * /``.  The products of the physical
parameters are computed once, at construction.  `drift` takes one state
and control as Python floats and is one flat body: `math` trigonometry,
then the inverse written out inline (one call per row, at a fraction of a
small `np.linalg.solve`).  `control_matrix` and `control_matrix_jac` build
the upper triangle of the inertia with `_inertia` and invert it with
`_sym_inverse`, which broadcasts the same formula over any leading batch
shape.  The two copies are held equal bit for bit by the test that
`drift(x, u)` is `drift(x, 0) + control_matrix(x) @ u` exactly.  A singular
or non-finite inertia raises `NumericalError`.

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
        _require_count("plant substeps", self.substeps)
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
    def drift(self, x, u):
        """The controlled rate f(x) + G(x) u of one state `x` (n,) under one
        control `u` (m,), as a sequence of n floats.  The articulated plants
        read both as sequences of floats, as `tolist` gives them."""
        raise NotImplementedError

    def control_matrix(self, x: np.ndarray) -> np.ndarray:
        """G(x): states (..., n) to control matrices (..., n, m)."""
        raise NotImplementedError

    def control_matrix_jac(self, x: np.ndarray) -> np.ndarray:
        """d G[..., i, j] / d x[..., k]: states (..., n) to (..., n, m, n)."""
        raise NotImplementedError

    def energy(self, x: np.ndarray) -> float:
        raise NotImplementedError(f"{self.spec.name} has no energy function")

    # --- integration --------------------------------------------------------
    def _controlled_rate(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """The rates of states `xs` (S, n) under controls `us` (S, m)."""
        return np.array([self.drift(x, u) for x, u in zip(xs.tolist(), us.tolist())])

    def step(self, x, u, rng: np.random.Generator | None = None) -> np.ndarray:
        """One control step of one state, a batch of one for `step_batch`;
        Brownian noise is added when `rng` is given."""
        xs, _ = self.step_batch(np.asarray(x, dtype=float)[None], u, rng)
        return xs[0]

    def step_batch(self, xs, u, rng: np.random.Generator | None = None):
        """One control step of every state of a batch `xs` (S, n) under `u`,
        one control (m,) for every row or one per row (S, m).

        Returns the next states (S, n) and the Brownian increments summed
        over the sub-steps (S, p), zero without `rng`.  Each sub-step draws
        one (S, p) block of standard normals from `rng`; for S = 1 that is
        one p-vector per sub-step.  Raises ConfigError for any other shape
        of `xs` or `u`, and NumericalError for a non-finite entry.
        """
        xs = np.asarray(xs, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        n, m = self.spec.n, self.spec.m
        if xs.ndim != 2 or xs.shape[0] < 1 or xs.shape[1] != n:
            raise ConfigError(f"state shape {xs.shape} is not (S, n) for "
                              f"plant n={n} and S >= 1 states")
        S = xs.shape[0]
        if u.shape not in ((m,), (S, m)):
            raise ConfigError(f"control shape {u.shape} is neither (m,) nor "
                              f"(S, m) for plant m={m} and S={S} states")
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(u)):
            raise NumericalError("non-finite state or control in plant step")
        us = np.broadcast_to(u, (S, m))
        h = self.spec.dt / self.spec.substeps
        sq = np.sqrt(h)
        B = self.spec.B
        dw_sum = np.zeros((S, B.shape[1]))
        for _ in range(self.spec.substeps):
            xs = _rk4(self._controlled_rate, xs, us, h)
            if rng is not None:
                dw = sq * (rng.standard_normal(dw_sum.shape) @ self._noise_chol.T)
                xs = xs + dw @ B.T
                dw_sum += dw
            # `not <=` so that a NaN row, which compares False, fails too
            if not (np.einsum("ij,ij->i", xs, xs) <= DIVERGENCE_NORM ** 2).all():
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


# The two NumericalErrors of the inertia, raised by the batched helpers
# below and by each articulated `drift` inline.
_SINGULAR = "singular or non-finite inertia matrix"
_NON_FINITE_ANGLE = "non-finite angle in the plant dynamics"


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
        raise NumericalError(_SINGULAR)


def _sin_cos_all(theta):
    """`math.sin` and `math.cos` of every angle of an array, as two arrays of
    its shape, so that each entry is the value `drift` takes for that angle.
    An infinite angle raises NumericalError, as the NaN inertia of a NaN
    angle does."""
    theta = np.asarray(theta, dtype=float)
    try:
        pairs = np.array([(math.sin(t), math.cos(t))
                          for t in theta.ravel().tolist()])
    except ValueError:
        raise NumericalError(_NON_FINITE_ANGLE) from None
    pairs = pairs.reshape(theta.shape + (2,))
    return pairs[..., 0], pairs[..., 1]


def _stacked(rows):
    """The rows of a `_sym_inverse` result as one C-ordered array (..., k, k),
    so that a stacked product takes each matrix as a plain 2-D one does."""
    return np.ascontiguousarray(np.moveaxis(np.array(rows), (0, 1), (-2, -1)))


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

    def drift(self, x, u):
        return self.A @ np.asarray(x, dtype=float) + self.Bc @ np.asarray(u, dtype=float)

    def _controlled_rate(self, xs, us):
        # einsum, not `@`: BLAS takes one row through GEMV and a batch
        # through GEMM, which sum in different orders, so a row of a batch
        # would not be bit-identical to the state stepped alone
        return np.einsum("ij,kj->ik", xs, self.A) + np.einsum("ij,kj->ik", us, self.Bc)

    def control_matrix(self, x):
        return np.broadcast_to(self.Bc, np.shape(x)[:-1] + self.Bc.shape)

    def control_matrix_jac(self, x):
        n, m = self.spec.n, self.spec.m
        return np.zeros(np.shape(x)[:-1] + (n, m, n))


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
        # the inertia H = ((h00, k * cos(theta)), (k * cos(theta), h11)) and
        # the gravity torque kg * sin(theta), each product in the order of
        # the formula written out in full
        self._h00 = self.M + self.m
        self._k = 0.5 * self.m * self.L
        self._h11 = self.m * self.L ** 2 / 3.0
        self._kg = -0.5 * self.m * self.g * self.L

    def _inertia(self, c):
        """Upper triangle of the mass matrix at cos(theta) = c."""
        return (self._h00, self._k * c), (self._h11,)

    def drift(self, x, u):
        _, xd, th, thd = x
        (u0,) = u
        try:
            s, c = math.sin(th), math.cos(th)
        except ValueError:
            raise NumericalError(_NON_FINITE_ANGLE) from None
        h00, k, h11 = self._h00, self._k, self._h11
        h01 = k * c
        # H^-1 = ((a, b), (b, d)), adjugate over determinant
        det = h00 * h11 - h01 * h01
        if not (det != 0 and math.isfinite(det)):
            raise NumericalError(_SINGULAR)
        a, b, d = h11 / det, -h01 / det, h00 / det
        r0 = -self.b * xd + k * thd * thd * s
        r1 = self._kg * s
        # G u is the force u0 times the inverse's first column (a, b)
        return [xd, a * r0 + b * r1 + a * u0, thd, b * r0 + d * r1 + b * u0]

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        # a unit force on the cart: G is the first column of the inverse
        a, b = _sym_inverse(self._inertia(np.cos(x[..., 2])), first_row=True)[0]
        g = np.zeros(x.shape[:-1] + (4, 1))
        g[..., 1, 0] = a
        g[..., 3, 0] = b
        return g

    def control_matrix_jac(self, x):
        x = np.asarray(x, dtype=float)
        s, c = _sin_cos_all(x[..., 2])
        inv = _stacked(_sym_inverse(self._inertia(c)))            # (..., 2, 2)
        dh = np.zeros(x.shape[:-1] + (2, 2))
        dh[..., 0, 1] = dh[..., 1, 0] = -self._k * s
        dcol = -inv @ (dh @ inv[..., :1])                         # (..., 2, 1)
        jac = np.zeros(x.shape[:-1] + (4, 1, 4))
        jac[..., 1, 0, 2] = dcol[..., 0, 0]
        jac[..., 3, 0, 2] = dcol[..., 1, 0]
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
        m1, m2, l1, l2, g = self.m1, self.m2, self.l1, self.l2, self.g
        # the inertia H: constant diagonal h00, h11, h22 and off-diagonal
        # k1 cos(theta1), k2 cos(theta2), k12 cos(theta1 - theta2); and the
        # gravity torques g1 sin(theta1), g2 sin(theta2).  Each product is
        # in the order of the formula written out in full.
        self._h00 = self.M + m1 + m2
        self._k1 = (0.5 * m1 + m2) * l1
        self._k2 = 0.5 * m2 * l2
        self._h11 = (m1 / 3.0 + m2) * l1 ** 2
        self._k12 = 0.5 * m2 * l1 * l2
        self._h22 = m2 * l2 ** 2 / 3.0
        self._g1 = (0.5 * m1 + m2) * g * l1
        self._g2 = 0.5 * m2 * g * l2

    def _inertia(self, c1, c2, c12):
        """Upper triangle of the mass matrix at cos(theta1) = c1,
        cos(theta2) = c2 and cos(theta1 - theta2) = c12."""
        return ((self._h00, self._k1 * c1, self._k2 * c2),
                (self._h11, self._k12 * c12),
                (self._h22,))

    def drift(self, x, u):
        _, xd, th1, th1d, th2, th2d = x
        (u0,) = u
        try:
            s1, c1 = math.sin(th1), math.cos(th1)
            s2, c2 = math.sin(th2), math.cos(th2)
            s12, c12 = math.sin(th1 - th2), math.cos(th1 - th2)
        except ValueError:
            raise NumericalError(_NON_FINITE_ANGLE) from None
        h00, h11, h22 = self._h00, self._h11, self._h22
        k1, k2, k12 = self._k1, self._k2, self._k12
        h01, h02, h12 = k1 * c1, k2 * c2, k12 * c12
        # H^-1 = ((a, b, c), (b, d, e), (c, e, f)), adjugate over
        # determinant; the first row's cofactors also expand the determinant
        c00 = h11 * h22 - h12 * h12
        c01 = h02 * h12 - h01 * h22
        c02 = h01 * h12 - h02 * h11
        det = h00 * c00 + h01 * c01 + h02 * c02
        if not (det != 0 and math.isfinite(det)):
            raise NumericalError(_SINGULAR)
        a, b, c = c00 / det, c01 / det, c02 / det
        d = (h00 * h22 - h02 * h02) / det
        e = (h01 * h02 - h00 * h12) / det
        f = (h00 * h11 - h01 * h01) / det
        r0 = -self.b * xd + k1 * s1 * th1d * th1d + k2 * s2 * th2d * th2d
        r1 = -k12 * s12 * th2d * th2d - self._g1 * s1
        r2 = k12 * s12 * th1d * th1d - self._g2 * s2
        # G u is the force u0 times the inverse's first column (a, b, c)
        return [xd, a * r0 + b * r1 + c * r2 + a * u0,
                th1d, b * r0 + d * r1 + e * r2 + b * u0,
                th2d, c * r0 + e * r1 + f * r2 + c * u0]

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
        x = np.asarray(x, dtype=float)
        th1, th2 = x[..., 2], x[..., 4]
        k1, k2, k12 = self._k1, self._k2, self._k12
        s1, c1 = _sin_cos_all(th1)
        s2, c2 = _sin_cos_all(th2)
        s12, c12 = _sin_cos_all(th1 - th2)
        inv = _stacked(_sym_inverse(self._inertia(c1, c2, c12)))  # (..., 3, 3)

        # d H / d theta1 and d H / d theta2, stacked on axis -3
        dh = np.zeros(x.shape[:-1] + (2, 3, 3))
        dh[..., 0, 0, 1] = dh[..., 0, 1, 0] = -k1 * s1
        dh[..., 0, 1, 2] = dh[..., 0, 2, 1] = -k12 * s12
        dh[..., 1, 0, 2] = dh[..., 1, 2, 0] = -k2 * s2
        dh[..., 1, 1, 2] = dh[..., 1, 2, 1] = k12 * s12

        inv = inv[..., None, :, :]
        dcol = -inv @ (dh @ inv[..., :1])                      # (..., 2, 3, 1)
        jac = np.zeros(x.shape[:-1] + (6, 1, 6))
        jac[..., 1::2, 0, 2::2] = np.swapaxes(dcol[..., 0], -1, -2)
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
        m2, l1, lc2 = self.m2, self.l1, self.lc2
        # the inertia H = ((p00 + m2 (q00 + k00 cos), m2 (q01 + k01 cos) + I2),
        # (., h11)) at cos(theta2), and the Coriolis coefficient kc of
        # sin(theta2); each sum and product in the order of the formula
        # written out in full
        self._p00 = self.m1 * self.lc1 ** 2 + self.I1 + self.I2
        self._q00 = l1 ** 2 + lc2 ** 2
        self._k00 = 2 * l1 * lc2
        self._q01 = lc2 ** 2
        self._k01 = l1 * lc2
        self._h11 = m2 * lc2 ** 2 + self.I2
        self._kc = m2 * l1 * lc2

    def _inertia(self, c2):
        """Upper triangle of the mass matrix at cos(theta2) = c2."""
        m2 = self.m2
        return ((self._p00 + m2 * (self._q00 + self._k00 * c2),
                 m2 * (self._q01 + self._k01 * c2) + self.I2),
                (self._h11,))

    def drift(self, x, u):
        _, th2, w1, w2 = x
        u0, u1 = u
        try:
            s2, c2 = math.sin(th2), math.cos(th2)
        except ValueError:
            raise NumericalError(_NON_FINITE_ANGLE) from None
        m2, h11 = self.m2, self._h11
        h00 = self._p00 + m2 * (self._q00 + self._k00 * c2)
        h01 = m2 * (self._q01 + self._k01 * c2) + self.I2
        # H^-1 = ((a, b), (b, d)), adjugate over determinant
        det = h00 * h11 - h01 * h01
        if not (det != 0 and math.isfinite(det)):
            raise NumericalError(_SINGULAR)
        a, b, d = h11 / det, -h01 / det, h00 / det
        h = self._kc * s2
        # minus the Coriolis bias, minus the joint friction
        r0 = h * w2 * (2 * w1 + w2) - self.b * w1
        r1 = -h * w1 * w1 - self.b * w2
        # G u is the inverse times the two torques
        return [w1, w2, a * r0 + b * r1 + (a * u0 + b * u1),
                b * r0 + d * r1 + (b * u0 + d * u1)]

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        (a, b), (_, d) = _sym_inverse(self._inertia(np.cos(x[..., 1])))
        g = np.zeros(x.shape[:-1] + (4, 2))
        g[..., 2, 0] = a
        g[..., 2, 1] = g[..., 3, 0] = b
        g[..., 3, 1] = d
        return g

    def control_matrix_jac(self, x):
        x = np.asarray(x, dtype=float)
        s2, c2 = _sin_cos_all(x[..., 1])
        minv = _stacked(_sym_inverse(self._inertia(c2)))          # (..., 2, 2)
        d = -self._kc * s2
        dm = np.zeros(x.shape[:-1] + (2, 2))
        dm[..., 0, 0] = 2 * d
        dm[..., 0, 1] = dm[..., 1, 0] = d
        dminv = -minv @ dm @ minv
        jac = np.zeros(x.shape[:-1] + (4, 2, 4))
        jac[..., 2:, :, 1] = dminv
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


def _require_count(what: str, value, minimum: int = 1) -> None:
    """ConfigError unless `value` is an integer >= `minimum` (not a bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
            or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, "
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


def _finite_array(key: str, value) -> np.ndarray:
    """`value` as a float array.  Raises ConfigError, naming the linear plant
    parameter `key`, unless it is a number or a regular nest of lists of
    numbers (no bools or strings), all of them finite."""
    try:
        arr = np.asarray(value)
    except ValueError:      # a ragged nest of lists
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ConfigError(f"linear plant parameter '{key}' must be an array of "
                          f"finite numbers, got {value!r}")
    return arr.astype(float)


def make_plant(name: str, *, dt: float = DT, substeps: int = SUBSTEPS,
               params: dict | None = None,
               noise_std: float = NOISE_STD) -> Plant:
    """Build a plant by name with optional parameter overrides.

    The articulated plants accept only their own parameter names, and check
    the physical values (see `_physical_params`); the linear plant takes A,
    Bc and optionally B and sigma_omega, each an array of finite numbers
    (see `_finite_array`).  Raises ConfigError otherwise, for
    `params` that are neither a dict nor None, and unless `noise_std` is
    finite and non-negative (`PlantSpec` checks `dt` and `substeps`).
    """
    key = canonical_plant_name(name)
    if params is not None and not isinstance(params, dict):
        raise ConfigError("plant params must be an object of parameter "
                          f"values, got {type(params).__name__}")
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
    a = np.atleast_2d(_finite_array("A", p["A"]))
    bc = np.atleast_2d(_finite_array("Bc", p["Bc"]))
    n, m = a.shape[0], bc.shape[1]
    if a.shape != (n, n):
        raise ConfigError(f"linear plant A must be square, got shape {a.shape}")
    bdiff = np.atleast_2d(_finite_array("B", p.get("B", np.eye(n))))
    sw = _finite_array("sigma_omega", p.get(
        "sigma_omega", noise_std ** 2 * np.eye(bdiff.shape[1])))
    return LinearPlant(PlantSpec(key, n, m, p, bdiff, sw, dt, substeps))
