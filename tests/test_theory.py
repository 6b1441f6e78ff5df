"""Grid oracles against the minimizer theory and its constructions."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confmix import tensor as T
from confmix.confidence import (CappedLinearGate, ConfidenceSpec, LearnableGate,
                                StepGate, TwoLevelGate, _dispersion_rows_np,
                                confidence_batch)
from confmix.errors import ConfigError, DomainError, GraphValidationError
from confmix.experts import forward
from confmix.graphs import build_blindspot_graph
from confmix.theory import (_BRANCH_FLOOR, BinaryBounds, GroupProblem, SimplexGrid,
                            _binary_loss, _branch_inverse, _compositions,
                            _fixed_spec_for, alpha_loss, binary_bounds,
                            build_root_separator, delta, group_min, resolvable_mu_cap,
                            sample_binary_problems, sample_ternary_problems,
                            verify_binary_corollary, verify_blindspot,
                            verify_step_tightness, verify_theorem_case,
                            verify_tightness)

STEP_VAR = ConfidenceSpec("variance", StepGate(0.0))


@pytest.fixture(scope="module")
def grid2():
    return SimplexGrid.build(2, 2000)


@pytest.fixture(scope="module")
def grid3():
    return SimplexGrid.build(3, 300)


def test_grid_counts_and_exact_sums(grid3):
    assert grid3.points.shape[0] == math.comb(300 + 2, 2)
    assert (grid3.ints.sum(axis=1) == 300).all()
    small = SimplexGrid.build(4, 6)
    assert small.points.shape[0] == math.comb(6 + 3, 3)
    assert (small.ints.sum(axis=1) == 6).all()


def test_grid_lexicographic_order(grid2):
    assert np.array_equal(grid2.ints[0], [0, 2000])
    assert np.array_equal(grid2.ints[-1], [2000, 0])
    order = np.lexsort(grid2.ints.T[::-1])
    assert np.array_equal(order, np.arange(grid2.points.shape[0]))


@pytest.mark.parametrize("parts", [2, 3, 4, 5])
def test_compositions_match_itertools_order(parts):
    for total in range(7):
        want = [c for c in itertools.product(range(total + 1), repeat=parts)
                if sum(c) == total]
        got = _compositions(total, parts)
        assert got.dtype == np.int64
        assert got.tolist() == [list(c) for c in want]


@pytest.mark.parametrize("n, m", [(2, 2000), (3, 60), (4, 12)])
def test_grid_tables_equal_fresh_computation(n, m):
    grid = SimplexGrid.build(n, m)
    fresh = -np.log(np.clip(grid.points, T.LOG_FLOOR, 1.0))
    assert grid.neg_logs.tobytes() == fresh.tobytes()
    for kind in ("variance", "neg_entropy"):
        table = grid.dispersion(kind)
        assert table.tobytes() == _dispersion_rows_np(grid.points, kind).tobytes()
        assert grid.dispersion(kind) is table
    assert grid.neg_logs is grid.neg_logs
    with pytest.raises(ConfigError):
        grid.dispersion("entropy")


GATE_SPECS = [ConfidenceSpec(kind, gate) for kind in ("variance", "neg_entropy")
              for gate in (StepGate(0.0), StepGate(0.05), TwoLevelGate(0.1, 0.4),
                           CappedLinearGate(1.5))]
GATE_SPECS.append(ConfidenceSpec("variance", LearnableGate.create(seed=2, hidden=4)))


@pytest.mark.parametrize("spec", GATE_SPECS, ids=lambda spec: type(spec.gate).__name__)
@pytest.mark.parametrize("n, m", [(2, 200), (3, 30)])
def test_group_min_matches_reference(spec, n, m):
    """The table-reading group_min against confidence_batch over the
    points times the loss minus mu, then the first argmin."""
    grid = SimplexGrid.build(n, m)
    rng = np.random.default_rng(n)
    for _ in range(5):
        alpha = rng.dirichlet(np.ones(n))
        mu = delta(alpha) + float(rng.uniform(-0.3, 0.8))
        conf = confidence_batch(grid.points, spec)
        losses = -np.log(np.clip(grid.points, T.LOG_FLOOR, 1.0)) @ alpha
        objective = conf * (losses - mu)
        idx = int(np.argmin(objective))
        got = group_min(GroupProblem(n, alpha, mu, spec), grid)
        assert np.array_equal(got.point, grid.points[idx])
        assert (got.value, got.conf, got.loss) == (objective[idx], conf[idx], losses[idx])


def _reference_branch_inverse(alpha1, mu):
    lo, hi = _BRANCH_FLOOR, alpha1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _binary_loss(mid, alpha1) < mu:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@st.composite
def branch_problems(draw):
    alpha1 = draw(st.one_of(st.floats(1e-6, 1.0, exclude_max=True),
                            st.floats(1.0 - 1e-9, 1.0, exclude_max=True)))
    at_floor = _binary_loss(_BRANCH_FLOOR, alpha1)
    mu = draw(st.one_of(st.floats(0.0, 40.0),
                        st.floats(-1e-9, 1e-9).map(lambda d: at_floor + d)))
    return alpha1, mu


@given(problem=branch_problems())
@settings(max_examples=300, deadline=None)
def test_branch_inverse_equals_full_bisection(problem):
    assert _branch_inverse(*problem) == _reference_branch_inverse(*problem)


def test_fixed_spec_draws_all_six():
    """Each rotation index builds the spec the six-spec list held there
    and leaves the random stream where the list left it."""
    alpha = np.array([0.7, 0.3])

    def six_specs(rng):
        specs = []
        for kind in ("variance", "neg_entropy"):
            d_alpha = float(_dispersion_rows_np(alpha[None, :], kind)[0])
            specs.append(ConfidenceSpec(kind, StepGate(0.0)))
            specs.append(ConfidenceSpec(kind, TwoLevelGate(
                d_max=float(rng.uniform(0.3, 1.7)) * max(d_alpha, 1e-6),
                beta=float(rng.uniform(0.2, 0.8)))))
            specs.append(ConfidenceSpec(kind, CappedLinearGate(
                slope=float(rng.uniform(0.5, 3.0)))))
        return specs

    ref = np.random.default_rng(9)
    want = six_specs(ref)
    for index in range(8):
        rng = np.random.default_rng(9)
        assert _fixed_spec_for(alpha, rng, index) == want[index % 6]
        assert rng.bit_generator.state == ref.bit_generator.state


def test_delta_values():
    assert np.isclose(delta(np.array([0.5, 0.5])), np.log(2))
    assert np.isclose(delta(np.array([0.7, 0.3])), 0.6108643020548935)


def test_alpha_loss_minimized_at_alpha():
    grid = SimplexGrid.build(2, 1000)
    alpha = np.array([0.7, 0.3])
    losses = -np.log(np.clip(grid.points, 1e-12, 1.0)) @ alpha
    best = grid.points[np.argmin(losses)]
    assert np.array_equal(best, alpha)  # alpha is a grid point at this scale
    assert np.isclose(alpha_loss(alpha, alpha), delta(alpha))


def test_group_min_case1_example(grid2):
    problem = GroupProblem(2, np.array([0.7, 0.3]), 0.5, STEP_VAR)
    result = group_min(problem, grid2)
    assert np.array_equal(result.point, [0.5, 0.5])
    assert result.value == 0.0 and result.conf == 0.0


def test_group_min_case2_example(grid2):
    alpha = np.array([0.9, 0.1])
    problem = GroupProblem(2, alpha, delta(alpha), STEP_VAR)
    result = group_min(problem, grid2)
    assert (np.array_equal(result.point, alpha)
            or np.array_equal(result.point, [0.5, 0.5]))
    assert abs(result.value) < 1e-14


def test_group_min_case3_step_example(grid2):
    problem = GroupProblem(2, np.array([0.9, 0.1]), 0.6, STEP_VAR)
    result = group_min(problem, grid2)
    assert np.array_equal(result.point, [0.9, 0.1])
    assert np.isclose(result.value, -0.2749170266085518)


def test_theorem_cases_on_examples(grid2, grid3):
    for alpha, mu, spec, want in [
        ([0.7, 0.3], 0.5, STEP_VAR, 1),
        ([0.9, 0.1], delta(np.array([0.9, 0.1])), STEP_VAR, 2),
        ([0.9, 0.1], 0.6, STEP_VAR, 3),
        ([0.9, 0.1], 0.6, ConfidenceSpec("variance", TwoLevelGate(0.08, 0.1)), 3),
        ([0.9, 0.1], 0.6, ConfidenceSpec("neg_entropy", CappedLinearGate(1.0)), 3),
    ]:
        case, clauses = verify_theorem_case(
            GroupProblem(2, np.array(alpha), mu, spec), grid2)
        assert case == want and all(c.passed for c in clauses), clauses
    case, clauses = verify_theorem_case(
        GroupProblem(3, np.array([0.6, 0.3, 0.1]), 1.2,
                     ConfidenceSpec("variance", TwoLevelGate(0.2, 0.5))), grid3)
    assert case == 3 and all(c.passed for c in clauses)


def test_theorem_rejects_uniform_alpha(grid2):
    with pytest.raises(ConfigError):
        verify_theorem_case(GroupProblem(2, np.array([0.5, 0.5]), 0.4, STEP_VAR),
                            grid2)


def test_theorem_rejects_learnable_spec(grid2):
    spec = ConfidenceSpec("variance", LearnableGate.create(0))
    with pytest.raises(ConfigError):
        verify_theorem_case(GroupProblem(2, np.array([0.7, 0.3]), 0.4, spec), grid2)


def test_random_suites_pass(grid2, grid3):
    for problem in sample_binary_problems(60, seed=5, m=2000):
        _, clauses = verify_theorem_case(problem, grid2)
        assert all(c.passed for c in clauses), (problem.alpha, problem.mu, clauses)
    for problem in sample_ternary_problems(12, seed=6, m=300):
        _, clauses = verify_theorem_case(problem, grid3)
        assert all(c.passed for c in clauses), (problem.alpha, problem.mu, clauses)


def test_step_tightness_pins_alpha(grid2):
    [clause] = verify_step_tightness(np.array([0.9, 0.1]), 0.6, grid2)
    assert clause.passed and clause.measured <= 1.0 / 2000


def _window(alpha, mu, eta, beta, grid):
    """verify_tightness's clauses by name, and the loss at the minimizer of
    its two-level gate, whose knee is the max variance over {loss <= mu - eta}."""
    clauses = {c.clause: c for c in verify_tightness(alpha, mu, eta, beta, grid)}
    d_max = grid.dispersion("variance")[grid.neg_logs @ alpha <= mu - eta].max()
    spec = ConfidenceSpec("variance", TwoLevelGate(float(d_max), beta))
    return clauses, group_min(GroupProblem(2, alpha, mu, spec), grid).loss


def test_window_tightness_example():
    grid = SimplexGrid.build(2, 5000)
    clauses, minimizer_loss = _window(np.array([0.9, 0.1]), 0.6, 0.05, 0.1, grid)
    assert clauses["beta_inside_bound"].passed
    beta_bound = 0.1 - clauses["beta_inside_bound"].measured
    assert np.isclose(beta_bound, 0.05 / (0.6 - delta(np.array([0.9, 0.1]))))
    assert clauses["minimizer_in_loss_window"].passed
    assert minimizer_loss < 0.6


def test_window_shrinks_toward_alpha():
    # as eta grows toward mu - delta, the window's lower edge approaches
    # delta and the minimizer's loss drops with it
    grid = SimplexGrid.build(2, 5000)
    alpha = np.array([0.9, 0.1])
    mu = 0.6
    gap = mu - delta(alpha)
    losses = []
    for eta in (0.05, 0.15, 0.25, gap - 0.01):
        clauses, minimizer_loss = _window(alpha, mu, eta, 0.4 * eta / gap, grid)
        assert clauses["minimizer_in_loss_window"].passed
        losses.append(minimizer_loss)
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] <= delta(alpha) + 0.02


def test_window_tightness_beta_violation_recorded():
    grid = SimplexGrid.build(2, 2000)
    alpha = np.array([0.9, 0.1])
    clauses = {c.clause: c for c in verify_tightness(alpha, 0.6, 0.05, 0.9, grid)}
    assert not clauses["beta_inside_bound"].passed
    assert not clauses["minimizer_in_loss_window"].passed   # minimizer escapes to alpha


def test_window_tightness_infeasible_eta():
    grid = SimplexGrid.build(2, 200)
    with pytest.raises(ConfigError):
        verify_tightness(np.array([0.9, 0.1]), 0.4, 0.2, 0.1, grid)


def test_binary_bounds_frozen_value():
    bounds = binary_bounds(0.9, 0.6)
    assert abs(bounds.residual) < 1e-9
    assert np.isclose(bounds.upper, 0.9974639474888796, atol=1e-9)
    assert bounds.lower == 0.9


def test_binary_bounds_branch_inverse_near_one():
    # p = 0.99999999881: bisecting on p itself left a 4e-9 residual
    alpha1, mu = 0.948, 1.0686320414702255
    bounds = binary_bounds(alpha1, mu)
    assert abs(bounds.residual) <= 4.5e-16
    assert 1.0 - 1.2e-9 < bounds.upper < 1.0 - 1.1e-9


def test_binary_bounds_window_collapses():
    gap = delta(np.array([0.9, 0.1]))
    bounds = binary_bounds(0.9, gap + 1e-9)
    assert abs(bounds.upper - 0.9) < 1e-4


def test_binary_bounds_domain_errors():
    with pytest.raises(DomainError):
        binary_bounds(0.9, 0.1)          # mu below delta
    with pytest.raises(DomainError):
        binary_bounds(0.3, 0.9)          # alpha1 below 1/2
    with pytest.raises(DomainError):
        binary_bounds(0.9, 40.0)         # beyond resolvable branch


def test_binary_corollary_cross_check(grid2):
    clauses = verify_binary_corollary(0.9, 0.6, grid2, STEP_VAR)
    assert all(c.passed for c in clauses)
    result = group_min(GroupProblem(2, np.array([0.9, 0.1]), 0.6, STEP_VAR), grid2)
    bounds = binary_bounds(0.9, 0.6)
    assert bounds.lower <= result.point[0] < bounds.upper


def test_grid_soundness_under_refinement():
    problem_args = (np.array([0.85, 0.15]), 0.7)
    values = []
    for m in (250, 500, 1000):
        grid = SimplexGrid.build(2, m)
        spec = ConfidenceSpec("variance", CappedLinearGate(1.5))
        problem = GroupProblem(2, problem_args[0], problem_args[1], spec)
        values.append(group_min(problem, grid).value)
    assert values[1] <= values[0] + 1e-12
    assert values[2] <= values[1] + 1e-12


def test_delta_concavity():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        a = rng.dirichlet(np.ones(2))
        b = rng.dirichlet(np.ones(2))
        lam = rng.uniform(0, 1)
        mixed = lam * a + (1 - lam) * b
        assert delta(mixed) >= lam * delta(a) + (1 - lam) * delta(b) - 1e-12


def test_case1_universal_zero_at_uniform(grid2):
    rng = np.random.default_rng(13)
    for _ in range(20):
        a1 = rng.uniform(0.55, 0.95)
        alpha = np.array([a1, 1 - a1])
        mu = delta(alpha) * rng.uniform(0.1, 0.9)
        for spec in (STEP_VAR,
                     ConfidenceSpec("neg_entropy", TwoLevelGate(0.2, 0.6)),
                     ConfidenceSpec("variance", CappedLinearGate(2.0))):
            result = group_min(GroupProblem(2, alpha, mu, spec), grid2)
            assert result.value == 0.0
            assert np.array_equal(result.point, [0.5, 0.5])


def test_mu_sweep_flips_minimizer(grid2):
    alpha = np.array([0.8, 0.2])
    gap = delta(alpha)
    uniform_phase, alpha_phase = [], []
    for mu in np.linspace(0.3 * gap, 2.0 * gap, 15):
        result = group_min(GroupProblem(2, alpha, float(mu), STEP_VAR), grid2)
        at_uniform = np.array_equal(result.point, [0.5, 0.5])
        (uniform_phase if mu < gap else alpha_phase).append(at_uniform)
    assert all(uniform_phase)
    assert not any(alpha_phase)


def test_resolvable_mu_cap_monotone_in_alpha_min():
    tight = resolvable_mu_cap(np.array([0.9, 0.1]), 2000)
    loose = resolvable_mu_cap(np.array([0.6, 0.4]), 2000)
    assert loose > tight > 0


def test_blindspot_verification_k1_k2():
    for k in (1, 2):
        instance = build_blindspot_graph(k, 6, seed=3 + k)
        clauses = {c.clause: c for c in verify_blindspot(instance, 50, seed=40 + k)}
        assert clauses["conv_output_gap"].measured < 1e-9
        assert clauses["mixture_distinguishes_roots"].passed
        assert clauses["mixture_matches_strong_elsewhere"].passed
        # the witness weak expert alone already puts the roots in two classes
        pw = forward(build_root_separator(instance), instance.graph).values
        assert pw[instance.u].argmax() != pw[instance.v].argmax()


def test_blindspot_validation_catches_corruption():
    instance = build_blindspot_graph(1, 4, seed=9)
    features = instance.graph.features.copy()
    features[instance.node_map[instance.u] + 0] += 0.5
    corrupted = dataclasses.replace(
        instance, graph=dataclasses.replace(instance.graph, features=features))
    with pytest.raises(GraphValidationError):
        verify_blindspot(corrupted, 5, seed=0)
