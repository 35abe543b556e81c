"""Secrecy rate maximization for a multi-carrier MIMO wiretap channel
with a full-duplex jamming receiver."""

# Assigned before the submodule imports: harness reads it.
__version__ = "0.1.0"

from .channel import (ChannelRealization, SystemParams, db2lin, draw_channels,
                      perturb_csi, trial_seed)
from .errors import (ConfigError, DegenerateChannel, DimensionMismatch,
                     FdWiretapError, InfeasibleStart, NonPositiveDefinite,
                     UnknownStrategy, WrongDimension)
from .system_model import (BidirectionalDesign, SecrecyReport, TransmitDesign,
                           secrecy_rates)
from .bcd import (init_optimal_beam, init_random, init_uniform, optimize,
                  optimize_bidirectional)
from .waterfill import Allocation, SubcarrierGains
from .harness import ExperimentConfig, ExperimentResult, run_experiment
from . import waterfill  # keep the submodule reachable as an attribute

__all__ = [
    "Allocation", "BidirectionalDesign", "ChannelRealization", "ConfigError",
    "DegenerateChannel", "DimensionMismatch", "ExperimentConfig",
    "ExperimentResult", "FdWiretapError", "InfeasibleStart",
    "NonPositiveDefinite", "SecrecyReport",
    "SubcarrierGains", "SystemParams", "TransmitDesign", "UnknownStrategy",
    "WrongDimension", "db2lin", "draw_channels", "init_optimal_beam",
    "init_random", "init_uniform", "optimize",
    "optimize_bidirectional", "perturb_csi", "run_experiment",
    "secrecy_rates", "trial_seed",
    "__version__",
]
