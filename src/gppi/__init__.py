"""Sample-efficient path integral control with Gaussian process dynamics.

Learn state-increment dynamics as per-dimension GPs, propagate Gaussian
beliefs with exact squared-exponential moment matching, evaluate the
desirability recursion and its analytic gradients backward in time, and
update controls in closed form.  Learned controllers compose across targets
through the linearity of the desirability PDE.
"""

__version__ = "0.1.0"

from .control import (BeliefTrajectory, ControlSequence, CostSpec,
                      DesirabilityTrace, backward_desirability,
                      control_update, desirability_gradient, forward_rollout,
                      inner_optimize, mpc_learning_loop)
from .gp import (GpModel, KernelHyper, TrainingSet, fit_hyperparameters,
                 incorporate_sample, load_model, log_marginal_likelihood,
                 posterior_predict, save_model)
from .moments import (GaussianBelief, IncrementPrediction, moment_match,
                      predict_increment)
from .compose import (CompositeWeights, TaskLibrary, composite_plan,
                      task_weights, verify_linearity)
from .baselines import sampling_pi_control
from .plants import Plant, PlantSpec, make_plant
from .records import ControllerRecord, CostFields, load_record, save_record
from .rng import RngHub

__all__ = [
    "BeliefTrajectory", "CompositeWeights", "ControlSequence",
    "ControllerRecord", "CostFields", "CostSpec", "DesirabilityTrace",
    "GaussianBelief", "GpModel", "IncrementPrediction", "KernelHyper",
    "Plant", "PlantSpec", "RngHub", "TaskLibrary", "TrainingSet",
    "backward_desirability", "composite_plan",
    "control_update", "desirability_gradient", "fit_hyperparameters",
    "forward_rollout", "incorporate_sample", "inner_optimize", "load_model",
    "load_record", "log_marginal_likelihood", "make_plant", "moment_match",
    "mpc_learning_loop", "posterior_predict", "predict_increment",
    "sampling_pi_control", "save_model", "save_record", "task_weights",
    "verify_linearity",
]
