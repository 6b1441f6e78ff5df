"""confmix: a desk-scale lab for confidence-gated weak/strong mixtures on graphs.

A feature-only weak expert and a graph-convolution strong expert are
combined per node through a confidence function of the weak expert's
prediction dispersion. The package trains the pair (alternating, joint,
or blended objectives), runs both inference modes, and verifies the
optimization theory behind the gate with independent brute-force
oracles on the probability simplex.
"""

from .confidence import (CappedLinearGate, ConfidenceSpec, LearnableGate, StepGate,
                         TwoLevelGate, confidence, default_spec, dispersion)
from .errors import (ConfigError, ContractError, DomainError, GraphFormatError,
                     GraphValidationError, ShapeError, TapeStateError,
                     TrainingDivergedError)
from .experts import (ExpertArch, ExpertModel, gcn_forward, init_expert,
                      load_expert, save_expert, weak_forward)
from .graphs import (BlindspotInstance, Graph, build_blindspot_graph,
                     build_graph, cost_estimate, generate_specialization_graph,
                     khop_sizes, load_graph, save_graph)
from .mixture import (blend_loss, infer_expected, infer_stochastic,
                      mixture_loss, multi_expert_loss)
from .tensor import Tensor, backward, check_gradient
from .theory import (GroupProblem, SimplexGrid, alpha_loss, binary_bounds, delta,
                     group_min, quasiconvexity_witness_search, run_theorem_suite,
                     verify_blindspot, verify_theorem_case, verify_tightness)
from .training import (TrainConfig, TrainReport, TrainResult, evaluate,
                       pretrain_expert, train)

__all__ = [
    "BlindspotInstance", "CappedLinearGate", "ConfidenceSpec", "ConfigError",
    "ContractError", "DomainError", "ExpertArch", "ExpertModel", "Graph",
    "GraphFormatError", "GraphValidationError", "GroupProblem", "LearnableGate",
    "ShapeError", "SimplexGrid", "StepGate", "TapeStateError", "Tensor", "TrainConfig",
    "TrainReport", "TrainResult", "TrainingDivergedError", "TwoLevelGate", "alpha_loss",
    "backward", "binary_bounds", "blend_loss", "build_blindspot_graph", "build_graph",
    "check_gradient", "confidence", "cost_estimate", "default_spec", "delta",
    "dispersion", "evaluate", "gcn_forward", "generate_specialization_graph",
    "group_min", "infer_expected", "infer_stochastic", "init_expert", "khop_sizes",
    "load_expert", "load_graph", "mixture_loss", "multi_expert_loss", "pretrain_expert",
    "quasiconvexity_witness_search", "run_theorem_suite", "save_expert", "save_graph",
    "train", "verify_blindspot", "verify_theorem_case", "verify_tightness",
    "weak_forward",
]
