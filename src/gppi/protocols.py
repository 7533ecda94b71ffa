"""Ready-made experiment configurations for the benchmark systems.

These are the settings the acceptance runs use; the CLI consumes the same
dictionaries via `gppi.harness.fill_defaults`.  Cost weights, temperatures
and the random-control amplitude are not reported for the original
experiments, so these values are tuned here and recorded in config form.

A builder states only what differs from the defaults: `fill_defaults`
supplies the rest, including the plant's integration settings and physical
parameters, and `init_rollouts` and `horizon_steps` from `PLANT_PROTOCOLS`.
The three builders share one body, `_config`.
"""

from __future__ import annotations

import math

# Per-plant protocol defaults, keyed by canonical plant name (see
# plants.PLANT_NAMES): `harness.fill_defaults` supplies them to a config
# that leaves them unset, as the builders below do.
PLANT_PROTOCOLS = {
    "cartpole": dict(init_rollouts=2, horizon_steps=60),
    "double-pendulum-cart": dict(init_rollouts=6, horizon_steps=60),
    "two-link-arm": dict(init_rollouts=3, horizon_steps=100),
    "linear": dict(init_rollouts=2, horizon_steps=50),
}


def _config(plant: str, cost: dict, protocol: dict, seed: int, trials: int,
            output_dir: str) -> dict:
    """A config of `plant` with its own cost and protocol entries and the
    ones that every shipped protocol shares."""
    return {"plant": {"name": plant},
            "cost": {**cost, "terminal_scale": 2.0},
            "protocol": {**protocol, "trials": trials, "seed": seed,
                         "max_points": 200},
            "output_dir": output_dir}


def cartpole_swingup(seed: int = 0, trials: int = 20, output_dir: str = "runs/cartpole") -> dict:
    return _config("cartpole",
                   {"Q_diag": [0.5, 0.05, 4.0, 0.1],
                    "x_d": [0.0, 0.0, math.pi, 0.0]},
                   {"inner_max_iters": 2, "u_max": 20.0},
                   seed, trials, output_dir)


def dpc_swingup(seed: int = 0, trials: int = 10, output_dir: str = "runs/dpc") -> dict:
    return _config("double-pendulum-cart",
                   {"Q_diag": [0.5, 0.05, 3.0, 0.05, 3.0, 0.05],
                    "x_d": [0.0, 0.0, math.pi, 0.0, math.pi, 0.0],
                    "lambda": 0.3},
                   {"inner_max_iters": 1, "u_max": 20.0},
                   seed, trials, output_dir)


def arm_reach(target, seed: int = 0, trials: int = 3,
              output_dir: str = "runs/arm") -> dict:
    return _config("two-link-arm",
                   {"Q_diag": [2.0, 2.0, 0.1, 0.1],
                    "x_d": [float(v) for v in target], "lambda": 0.3},
                   {"inner_max_iters": 1, "u_max": 4.0},
                   seed, trials, output_dir)


def arm_reach_targets(n_tasks: int = 8):
    """Joint-space reaching targets spread over the workspace."""
    targets = []
    for k in range(n_tasks):
        ang = 2 * math.pi * k / n_tasks
        targets.append([0.9 * math.cos(ang), 0.9 * math.sin(ang), 0.0, 0.0])
    return targets
