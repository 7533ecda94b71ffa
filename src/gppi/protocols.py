"""Ready-made experiment configurations for the benchmark systems.

These are the settings the acceptance runs use; the CLI consumes the same
dictionaries via `gppi.harness.fill_defaults`.  Cost weights, temperatures
and the random-control amplitude are not reported for the original
experiments, so these values are tuned here and recorded in config form.
"""

from __future__ import annotations

import math

# Per-plant protocol defaults, keyed by canonical plant name (see
# plants.canonical_plant_name): the builders below use them, and
# `harness.fill_defaults` supplies them to a config that leaves them unset.
PLANT_PROTOCOLS = {
    "cartpole": dict(init_rollouts=2, horizon_steps=60),
    "double-pendulum-cart": dict(init_rollouts=6, horizon_steps=60),
    "two-link-arm": dict(init_rollouts=3, horizon_steps=100),
    "linear": dict(init_rollouts=2, horizon_steps=50),
}


def cartpole_swingup(seed: int = 0, trials: int = 20, output_dir: str = "runs/cartpole") -> dict:
    proto = PLANT_PROTOCOLS["cartpole"]
    return {
        "plant": {"name": "cartpole", "dt": 0.02, "substeps": 10,
                  "noise_std": 0.01, "params": {}},
        "cost": {"Q_diag": [0.5, 0.05, 4.0, 0.1],
                 "x_d": [0.0, 0.0, math.pi, 0.0],
                 "lambda": 0.2, "horizon_steps": proto["horizon_steps"],
                 "terminal_scale": 2.0},
        "protocol": {"init_rollouts": proto["init_rollouts"],
                     "rollouts_per_trial": 1,
                     "trials": trials, "inner_max_iters": 2,
                     "inner_tol": 1e-3, "seed": seed, "u_max": 20.0,
                     "max_points": 200},
        "output_dir": output_dir,
    }


def dpc_swingup(seed: int = 0, trials: int = 10, output_dir: str = "runs/dpc") -> dict:
    proto = PLANT_PROTOCOLS["double-pendulum-cart"]
    return {
        "plant": {"name": "double-pendulum-cart", "dt": 0.02, "substeps": 10,
                  "noise_std": 0.01, "params": {}},
        "cost": {"Q_diag": [0.5, 0.05, 3.0, 0.05, 3.0, 0.05],
                 "x_d": [0.0, 0.0, math.pi, 0.0, math.pi, 0.0],
                 "lambda": 0.3, "horizon_steps": proto["horizon_steps"],
                 "terminal_scale": 2.0},
        "protocol": {"init_rollouts": proto["init_rollouts"],
                     "rollouts_per_trial": 1,
                     "trials": trials, "inner_max_iters": 1,
                     "inner_tol": 1e-3, "seed": seed, "u_max": 20.0,
                     "max_points": 200},
        "output_dir": output_dir,
    }


def arm_reach(target, seed: int = 0, trials: int = 3,
              output_dir: str = "runs/arm") -> dict:
    proto = PLANT_PROTOCOLS["two-link-arm"]
    return {
        "plant": {"name": "two-link-arm", "dt": 0.02, "substeps": 10,
                  "noise_std": 0.01, "params": {}},
        "cost": {"Q_diag": [2.0, 2.0, 0.1, 0.1],
                 "x_d": [float(v) for v in target],
                 "lambda": 0.3, "horizon_steps": proto["horizon_steps"],
                 "terminal_scale": 2.0},
        "protocol": {"init_rollouts": proto["init_rollouts"],
                     "rollouts_per_trial": 1,
                     "trials": trials, "inner_max_iters": 1,
                     "inner_tol": 1e-3, "seed": seed, "u_max": 4.0,
                     "max_points": 200},
        "output_dir": output_dir,
    }


def arm_reach_targets(n_tasks: int = 8):
    """Joint-space reaching targets spread over the workspace."""
    targets = []
    for k in range(n_tasks):
        ang = 2 * math.pi * k / n_tasks
        targets.append([0.9 * math.cos(ang), 0.9 * math.sin(ang), 0.0, 0.0])
    return targets
