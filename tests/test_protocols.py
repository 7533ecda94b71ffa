import math

import pytest

from gppi.harness import fill_defaults
from gppi.plants import PLANT_NAMES
from gppi.protocols import (PLANT_PROTOCOLS, arm_reach, cartpole_swingup,
                            dpc_swingup)

_PROTOCOL_REST = {"seed": 0, "max_points": 200, "x0": None,
                  "baseline_samples": 1000, "baseline_iterations": 50}


def _plant(name):
    return {"name": name, "dt": 0.02, "substeps": 10, "noise_std": 0.01,
            "params": {}}


@pytest.mark.parametrize("config,want", [
    (cartpole_swingup(), {
        "plant": _plant("cartpole"),
        "cost": {"Q_diag": [0.5, 0.05, 4.0, 0.1],
                 "x_d": [0.0, 0.0, math.pi, 0.0], "lambda": 0.2,
                 "horizon_steps": 60, "terminal_scale": 2.0},
        "protocol": {"init_rollouts": 2, "trials": 20, "inner_max_iters": 2,
                     "u_max": 20.0, **_PROTOCOL_REST},
        "output_dir": "runs/cartpole"}),
    (dpc_swingup(), {
        "plant": _plant("double-pendulum-cart"),
        "cost": {"Q_diag": [0.5, 0.05, 3.0, 0.05, 3.0, 0.05],
                 "x_d": [0.0, 0.0, math.pi, 0.0, math.pi, 0.0],
                 "lambda": 0.3, "horizon_steps": 60, "terminal_scale": 2.0},
        "protocol": {"init_rollouts": 6, "trials": 10, "inner_max_iters": 1,
                     "u_max": 20.0, **_PROTOCOL_REST},
        "output_dir": "runs/dpc"}),
    (arm_reach([0.9, -0.2, 0.0, 0.0]), {
        "plant": _plant("two-link-arm"),
        "cost": {"Q_diag": [2.0, 2.0, 0.1, 0.1], "x_d": [0.9, -0.2, 0.0, 0.0],
                 "lambda": 0.3, "horizon_steps": 100, "terminal_scale": 2.0},
        "protocol": {"init_rollouts": 3, "trials": 3, "inner_max_iters": 1,
                     "u_max": 4.0, **_PROTOCOL_REST},
        "output_dir": "runs/arm"}),
], ids=["cartpole", "dpc", "arm"])
def test_filled_protocol_is_pinned(config, want):
    got = fill_defaults(config)
    assert got == want
    # the plant section is dumped unsorted into controller.json
    assert list(got["plant"]) == ["name", "dt", "substeps", "noise_std",
                                  "params"]


@pytest.mark.parametrize("builder", [
    cartpole_swingup, dpc_swingup,
    lambda **kw: arm_reach([0.9, 0.0, 0.0, 0.0], **kw)])
def test_builder_arguments_reach_the_config(builder):
    got = fill_defaults(builder(seed=4, trials=7, output_dir="elsewhere"))
    assert got["protocol"]["seed"] == 4
    assert got["protocol"]["trials"] == 7
    assert got["output_dir"] == "elsewhere"


def test_every_plant_has_one_protocol():
    assert set(PLANT_PROTOCOLS) == set(PLANT_NAMES)
