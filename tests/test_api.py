"""The package's public names: a change to them is a deliberate edit here."""

import confmix

# every name `from confmix import *` gives, the submodules that the
# package's own imports load included
PUBLIC_API = [
    "BlindspotInstance", "CappedLinearGate", "ConfidenceSpec", "ConfigError",
    "ContractError", "DomainError", "ExpertArch", "ExpertModel", "Graph",
    "GraphFormatError", "GraphValidationError", "GroupProblem", "LearnableGate",
    "ShapeError", "SimplexGrid", "StepGate", "TapeStateError", "Tensor", "TrainConfig",
    "TrainReport", "TrainResult", "TrainingDivergedError", "TwoLevelGate", "alpha_loss",
    "backward", "binary_bounds", "blend_loss", "build_blindspot_graph", "build_graph",
    "check_gradient", "confidence", "cost_estimate", "default_spec", "delta",
    "dispersion", "documents", "errors", "evaluate", "experts", "gcn_forward",
    "generate_specialization_graph", "graphs", "group_min", "infer_expected",
    "infer_stochastic", "init_expert", "khop_sizes", "load_expert", "load_graph",
    "mixture", "mixture_loss", "multi_expert_loss", "pretrain_expert",
    "quasiconvexity_witness_search", "run_theorem_suite", "save_expert", "save_graph",
    "tensor", "theory", "train", "training", "verify_blindspot", "verify_theorem_case",
    "verify_tightness", "weak_forward",
]


def test_public_api_is_pinned():
    assert sorted(confmix.__all__) == PUBLIC_API
