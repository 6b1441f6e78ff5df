"""The package's public names, its dependencies and the one form of its
bound messages: a change to any is a deliberate edit here."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import confmix

# every name `from confmix import *` gives; the submodules are not among them
PUBLIC_API = [
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


def test_public_api_is_pinned():
    assert sorted(confmix.__all__) == PUBLIC_API


def test_cli_imports_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy alone; an import such as scipy.sparse
    # would also add its start-up time to every command
    script = ("import json, sys; before = set(sys.modules); import confmix.cli; "
              "print(json.dumps(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(confmix.__path__[0]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert set(json.loads(out)) - {"confmix", "numpy"} - sys.stdlib_module_names == set()


# a closed bound on a count or size, "X must be in [a, b]" or "X must be >= a";
# a strict float domain, such as "in [0.5, 1)" or "> 0", is another rule
BOUND_MESSAGE = re.compile(r"must be (in \[[^\]\n]*\]|>= )")


def test_only_errors_builds_a_bound_message():
    # every other module calls errors.check_range, so the text has one form
    found = [f"{path.name}:{number}"
             for path in sorted(Path(confmix.__path__[0]).glob("*.py")) if path.name != "errors.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if BOUND_MESSAGE.search(line)]
    assert found == []
