"""Dispersion measures, gate shapes, quasiconvexity searches."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confmix import tensor as T
from confmix.confidence import (CappedLinearGate, ConfidenceSpec, LearnableGate,
                                StepGate, TwoLevelGate, _witness_margins, confidence,
                                confidence_batch, confidence_rows, default_spec,
                                dispersion, dispersion_rows,
                                quasiconvexity_witness_search,
                                spec_from_document, spec_to_document)
from confmix.documents import read_json, write_json
from confmix.errors import ConfigError, DomainError
from confmix.mixture import infer_stochastic, mixture_loss
from confmix.theory import _FIXED_SPECS, _PLANTED_FAULT, GroupProblem, alpha_loss

FIXED_SPECS = [
    ConfidenceSpec("variance", StepGate(0.0)),
    ConfidenceSpec("neg_entropy", StepGate(0.0)),
    ConfidenceSpec("variance", TwoLevelGate(0.08, 0.1)),
    ConfidenceSpec("neg_entropy", TwoLevelGate(0.3, 0.5)),
    ConfidenceSpec("variance", CappedLinearGate(2.0)),
    ConfidenceSpec("neg_entropy", CappedLinearGate(1.0)),
]


def test_variance_values():
    assert dispersion([0.5, 0.5], "variance") == 0.0
    assert np.isclose(dispersion([0.7, 0.3], "variance"), 0.08)


def test_neg_entropy_values():
    assert dispersion([0.5, 0.5], "neg_entropy") == 0.0
    assert np.isclose(dispersion([1.0, 0.0], "neg_entropy"), np.log(2))
    assert dispersion([1.0 / 3] * 3, "neg_entropy") == 0.0


def test_dispersion_positive_off_uniform():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.dirichlet(np.ones(3))
        if np.abs(p - 1.0 / 3).max() < 1e-6:
            continue
        assert dispersion(p, "variance") > 0.0
        assert dispersion(p, "neg_entropy") > 0.0


def test_off_simplex_rejected():
    with pytest.raises(DomainError):
        dispersion([0.5, 0.6], "variance")
    with pytest.raises(DomainError):
        confidence([0.8, 0.3], default_spec())


NAN2 = [np.nan, np.nan]
ROWS = np.array([[0.7, 0.3]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: dispersion(NAN2, "variance"), DomainError, "off the probability simplex"),
    (lambda: confidence(NAN2, default_spec()), DomainError, "off the probability simplex"),
    (lambda: alpha_loss(NAN2, [0.5, 0.5]), DomainError, "prediction off the simplex"),
    (lambda: alpha_loss([0.5, 0.5], NAN2), DomainError, "label distribution off"),
    (lambda: infer_stochastic(ROWS, ROWS, [np.nan], seed=0), DomainError, r"lie in \[0, 1\]"),
    (lambda: mixture_loss(ROWS, np.array([NAN2]), np.array([0.5]), [0]), DomainError,
     "p_strong row 0 is off the probability simplex"),
    (lambda: GroupProblem(2, NAN2, 0.5, default_spec()), ConfigError, "strictly interior"),
    (lambda: GroupProblem(2, [0.7, 0.3], np.nan, default_spec()), ConfigError,
     "mu must be finite"),
], ids=["dispersion", "confidence", "alpha_loss_p", "alpha_loss_alpha",
        "infer_stochastic_conf", "mixture_loss_rows", "group_problem_alpha",
        "group_problem_mu"])
def test_nan_fails_simplex_and_range_checks(call, error, message):
    # each check compares so that NaN fails it, not so that NaN slips past
    with pytest.raises(error, match=message):
        call()


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_permutation_invariance(raw, rnd):
    p = np.asarray(raw)
    p = p / p.sum()
    perm = list(range(len(p)))
    rnd.shuffle(perm)
    for kind in ("variance", "neg_entropy"):
        assert np.isclose(dispersion(p, kind), dispersion(p[perm], kind),
                          atol=1e-12)


@given(st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_symmetric_binary_pair(p):
    for spec in FIXED_SPECS:
        assert confidence([p, 1.0 - p], spec) == confidence([1.0 - p, p], spec)


def test_fixed_gate_monotonicity_sweep():
    xs = np.linspace(0.0, np.log(4), 10_000)
    for spec in FIXED_SPECS:
        values = np.asarray(spec.gate(xs))
        assert (np.diff(values) >= 0.0).all()
        assert spec.gate(0.0) == 0.0
        assert values.min() >= 0.0 and values.max() <= 1.0


def test_step_gate_is_all_or_nothing():
    # with a zero threshold, any non-uniform prediction gets confidence 1
    spec = ConfidenceSpec("variance", StepGate(0.0))
    assert confidence([0.6, 0.4], spec) == 1.0
    assert confidence([0.5, 0.5], spec) == 0.0


def test_fixed_confidence_zero_at_uniform():
    for spec in FIXED_SPECS:
        assert confidence([0.25] * 4, spec) == 0.0


def test_two_level_example():
    # knee placed at the dispersion of [0.7, 0.3] (0.08 up to float
    # rounding): the boundary is inclusive, so that point scores 1
    knee = dispersion([0.7, 0.3], "variance")
    spec = ConfidenceSpec("variance", TwoLevelGate(d_max=knee, beta=0.1))
    assert confidence([0.7, 0.3], spec) == 1.0
    assert confidence([0.6, 0.4], spec) == 0.1       # inside (0, d_max)


def test_capped_linear_shape():
    gate = CappedLinearGate(4.0)
    assert gate(0.1) == pytest.approx(0.4)
    assert gate(0.5) == 1.0


def test_quasiconvexity_fixed_specs():
    for i, spec in enumerate(FIXED_SPECS):
        for n in (2, 3):
            margin = quasiconvexity_witness_search(spec, 10_000, seed=i, n=n)
            assert margin <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_witness_margins_match_a_search_per_spec(n):
    """One shared draw scores each spec as its own search does, bit for
    bit, with the dispersion kinds interleaved and a learnable spec among
    the fixed ones."""
    fixed = [spec for _, spec in _FIXED_SPECS]   # variance and neg_entropy in turn
    specs = [*fixed[:3], spec_from_document(_PLANTED_FAULT), *fixed[3:]]
    want = [quasiconvexity_witness_search(spec, 10_000, 303, n=n) for spec in specs]
    assert _witness_margins(specs, 10_000, 303, n) == want


@pytest.mark.parametrize("n", [1, 0, -1])
def test_witness_search_rejects_simplices_below_two_points(n):
    with pytest.raises(ConfigError, match="n must be >= 2"):
        quasiconvexity_witness_search(FIXED_SPECS[0], 10, 0, n=n)


def test_strict_quasiconvexity_of_dispersions():
    # midpoint of the two vertices is uniform: dispersion collapses to 0
    assert dispersion([0.5, 0.5], "variance") == 0.0
    assert dispersion([1.0, 0.0], "variance") == 0.5
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p, q = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        if np.abs(p - q).max() < 1e-9:
            continue
        lam = rng.uniform(0.05, 0.95)
        mid = lam * p + (1 - lam) * q
        for kind in ("variance", "neg_entropy"):
            top = max(dispersion(p, kind), dispersion(q, kind))
            assert dispersion(mid, kind) < top + 1e-15


def test_learnable_gate_can_break_quasiconvexity():
    # deliberately non-monotone weights; documents that the learnable gate
    # sits outside the analyzed class
    gate = LearnableGate.create(seed=0, hidden=4)
    first, second = gate.model.layers
    first.weight.values = np.array([[8.0, -8.0], [-6.0, 6.0],
                                    [4.0, -4.0], [-2.0, 2.0]]).T
    second.weight.values = np.array([[5.0, -5.0], [-5.0, 5.0],
                                     [5.0, -5.0], [-5.0, 5.0]])
    spec = ConfidenceSpec("variance", gate)
    margin = quasiconvexity_witness_search(spec, 10_000, seed=1, n=2)
    assert margin > 1e-12


def test_gate_parameter_validation():
    with pytest.raises(ConfigError):
        StepGate(-0.1)
    with pytest.raises(ConfigError):
        TwoLevelGate(0.0, 0.5)
    with pytest.raises(ConfigError):
        TwoLevelGate(0.1, 1.0)
    with pytest.raises(ConfigError):
        CappedLinearGate(0.0)
    with pytest.raises(ConfigError):
        ConfidenceSpec("gini", StepGate(0.0))


def _dirichlet_rows(n: int, seed: int) -> np.ndarray:
    """About 8,000 probability rows over n classes: Dirichlet draws at
    three concentrations, every one-hot row and the uniform row."""
    rng = np.random.default_rng(seed)
    draws = [rng.dirichlet(np.full(n, a), size=2_660) for a in (0.2, 1.0, 5.0)]
    return np.concatenate(draws + [np.eye(n), np.full((1, n), 1.0 / n)])


BIT_SPECS = [ConfidenceSpec(kind, gate) for kind in ("variance", "neg_entropy")
             for gate in (StepGate(0.0), StepGate(0.05), TwoLevelGate(0.08, 0.4),
                          CappedLinearGate(0.3), CappedLinearGate(2.0),
                          CappedLinearGate(7.5))]


def test_tensor_path_matches_numpy_path():
    """Training and infer score every confidence through confidence_rows;
    the numpy route of confidence_batch serves the theory oracles and the
    scalar `confidence`. The two routes agree to the bit."""
    for n in range(2, 9):
        rows = _dirichlet_rows(n, seed=n)
        for spec in BIT_SPECS:
            got = confidence_rows(T.Tensor(rows), spec).values
            assert got.tobytes() == confidence_batch(rows, spec).tobytes(), (n, spec)
        for kind in ("variance", "neg_entropy"):
            got = dispersion_rows(T.Tensor(rows), kind).values
            want = np.array([dispersion(r, kind) for r in rows[:50]])
            assert got[:50].tobytes() == want.tobytes(), (n, kind)


@pytest.mark.parametrize("n", range(2, 9))
def test_uniform_row_matches_numpy_path_bit_for_bit(n):
    """neg_entropy's float residue at the uniform row (-2.2e-16 for n=5)
    snaps to +0.0 on both routes, flat there; other rows keep their bits."""
    rows = np.stack([np.full(n, 1.0 / n), np.random.default_rng(n).dirichlet(np.ones(n))])
    for spec in FIXED_SPECS:
        leaf = T.Tensor(rows, requires_grad=True)
        got = confidence_rows(leaf, spec)
        assert got.values.tobytes() == confidence_batch(rows, spec).tobytes()
        if isinstance(spec.gate, CappedLinearGate):
            T.backward(T.mean_all(got))
            assert not leaf.grad[0].any() and leaf.grad[1].any()


def test_learnable_gate_tensor_path_matches_numpy():
    gate = LearnableGate.create(seed=5, hidden=6)
    spec = ConfidenceSpec("variance", gate)
    rng = np.random.default_rng(8)
    rows = rng.dirichlet(np.ones(3), size=20)
    got = confidence_rows(T.Tensor(rows), spec).values
    want = confidence_batch(rows, spec)
    assert np.allclose(got, want, atol=1e-12)
    assert got.min() > 0.0 and got.max() < 1.0


def test_learnable_gate_head_gathers_first_column():
    gate = LearnableGate.create(seed=5, hidden=6)
    pair = T.Tensor(np.random.default_rng(9).uniform(0.0, 1.0, (5, 2)))
    out = gate.forward(pair)
    ops = [node._op for node in T.Tape.from_output(out).records]
    assert ops[-2:] == ["softmax_rows", "take_rows"]
    assert ops.count("matmul") == len(gate.model.layers)
    head = out._parents[0].values
    assert np.array_equal(out.values, head[:, 0])


def test_spec_serialization_roundtrip():
    for spec in FIXED_SPECS + [ConfidenceSpec("variance", LearnableGate.create(3))]:
        doc = spec_to_document(spec)
        back = spec_from_document(doc)
        rng = np.random.default_rng(11)
        rows = rng.dirichlet(np.ones(2), size=10)
        assert np.array_equal(confidence_batch(rows, spec),
                              confidence_batch(rows, back))


# a learnable spec as confidence.json holds it: a 2 -> 3 -> 2 weak expert
LEARNABLE_DOCUMENT = (
    '{"dispersion":"neg_entropy","gate":{"kind":"learnable","weights":['
    '[[[0.5,-1.25,0.0],[3.0,0.1,-0.3333333333333333]],[0.0,0.25,-2.0]],'
    '[[[1.0,-1.0],[0.7,1e-17],[-4.5,2.0]],[0.125,0.0]]]}}\n')


def test_learnable_spec_document_bytes_roundtrip(tmp_path):
    path = tmp_path / "confidence.json"
    path.write_text(LEARNABLE_DOCUMENT, encoding="utf-8")
    spec = spec_from_document(read_json(path, "confidence spec", ConfigError))
    assert [layer.weight.shape for layer in spec.gate.model.layers] == [(2, 3), (3, 2)]
    write_json(path, spec_to_document(spec), sort_keys=False)
    assert path.read_text(encoding="utf-8") == LEARNABLE_DOCUMENT
