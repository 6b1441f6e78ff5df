"""Grid oracles against the minimizer theory and its constructions."""

import dataclasses
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confmix import tensor as T
from confmix import theory
from confmix.confidence import (CappedLinearGate, ConfidenceSpec, LearnableGate,
                                StepGate, TwoLevelGate, _dispersion_rows_np,
                                confidence_batch)
from confmix.errors import ConfigError, DomainError, GraphValidationError
from confmix.experts import forward
from confmix.graphs import build_blindspot_graph
from confmix.theory import (_BRANCH_FLOOR, _DRAW_HIGHS, _DRAW_LOWS, SUITES, BinaryBounds,
                            ClauseResult, GroupProblem, SimplexGrid, SuiteReport, _binary_block,
                            _binary_loss, _branch_inverse, _compositions, _Rows, _rotation,
                            _ternary_block, alpha_loss, binary_bounds, binary_suite,
                            build_root_separator, delta, group_min, resolvable_mu_cap,
                            run_theorem_suite, spec_label, verify_binary_corollary,
                            verify_blindspot, verify_step_tightness, verify_theorem_case,
                            verify_tightness)

STEP_VAR = ConfidenceSpec("variance", StepGate(0.0))


def test_grid_counts_and_exact_sums(grid3):
    assert grid3.points.shape[0] == math.comb(300 + 2, 2)
    assert (grid3.ints.sum(axis=1) == 300).all()
    small = SimplexGrid.build(4, 6)
    assert small.points.shape[0] == math.comb(6 + 3, 3)
    assert (small.ints.sum(axis=1) == 6).all()


@pytest.mark.parametrize("n, m", [(2, 2), (2, 9), (3, 2), (3, 7), (4, 2), (4, 6)])
def test_grid_build_equals_itertools_reference(n, m):
    """The grid's integer rows are the lexicographic compositions of m,
    as int64 C-ordered rows, and its points their quotients by m."""
    want = np.array([c for c in itertools.product(range(m + 1), repeat=n) if sum(c) == m],
                    dtype=np.int64)
    grid = SimplexGrid.build(n, m)
    assert grid.ints.dtype == np.int64 and grid.ints.flags.c_contiguous
    assert grid.ints.tobytes() == want.tobytes()
    assert grid.points.tobytes() == (want / float(m)).tobytes()


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


def test_step_gate_tables_are_shared_and_equal_the_gate(grid3):
    """Equal step specs share one kept table per grid, as bools equal to
    the gate's 0/1 values; other shapes' tables are made afresh."""
    for kind in ("variance", "neg_entropy"):
        table = grid3.gated(ConfidenceSpec(kind, StepGate(0.0)))
        assert table.dtype == bool
        assert np.array_equal(table, StepGate(0.0)(grid3.dispersion(kind)))
        assert grid3.gated(ConfidenceSpec(kind, StepGate(0.0))) is table
        two_level = ConfidenceSpec(kind, TwoLevelGate(0.1, 0.4))
        assert grid3.gated(two_level) is not grid3.gated(two_level)


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


@given(lanes=st.lists(branch_problems(), min_size=1, max_size=12),
       floor_alpha=st.floats(1e-6, 1.0, exclude_max=True))
@settings(max_examples=150, deadline=None)
def test_branch_inverse_lanes_equal_scalar_bisection(lanes, floor_alpha):
    """One array call against each lane's own scalar bisection. Lanes
    stop at different steps; the last one converges to the floor."""
    lanes = lanes + [(floor_alpha, _binary_loss(_BRANCH_FLOOR, floor_alpha) + 1.0)]
    alpha1, mu = np.array(lanes).T
    got = _branch_inverse(alpha1, mu)
    assert got.shape == (len(lanes),)
    assert got.tolist() == [_reference_branch_inverse(a, m) for a, m in lanes]
    assert got[-1] < 2.0 * _BRANCH_FLOOR


def _six_specs(alpha, rng):
    """The six conforming fixed specs of a problem, drawn in order."""
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


def test_fixed_spec_draws_all_six():
    """Each rotation index builds the spec the six-spec list held there,
    from the six draws that list made, in its order."""
    alpha = np.array([0.7, 0.3])
    want = _six_specs(alpha, np.random.default_rng(9))
    draws = np.random.default_rng(9).uniform(_DRAW_LOWS, _DRAW_HIGHS)
    got = _rotation(np.arange(8), np.repeat(draws[None], 8, axis=0),
                    np.repeat(alpha[None], 8, axis=0))
    assert got == [want[index % 6] for index in range(8)]


def sample_binary_problems(count, seed, m):
    """The theorem suite's first `count` binary problems from `seed`, as GroupProblems."""
    alphas, mus, specs = _binary_block(np.random.default_rng(seed), 0, count, m)
    return [GroupProblem(2, *problem) for problem in zip(alphas, mus.tolist(), specs)]


def sample_ternary_problems(count, seed, m):
    """The theorem suite's `count` ternary problems from `seed`, as GroupProblems."""
    alphas, mus, specs = _ternary_block(np.random.default_rng(seed), 0, count, m)
    return [GroupProblem(3, *problem) for problem in zip(alphas, mus.tolist(), specs)]


def _reference_binary_problems(count, seed, m):
    """The scalar-draw binary sampler: one `rng.uniform` call per draw
    and one GroupProblem built as each problem is drawn."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(count):
        case = i % 3 + 1
        if case == 2:
            k = int(round(rng.uniform(0.55, 0.95) * m))
            alpha = np.array([k, m - k], dtype=np.float64) / m
        else:
            a1 = float(rng.uniform(0.55, 0.95))
            alpha = np.array([a1, 1.0 - a1])
        gap = float(-np.log(np.clip(alpha, T.LOG_FLOOR, 1.0)) @ alpha)
        if case == 1:
            mu = gap * float(rng.uniform(0.2, 0.8))
        elif case == 2:
            mu = gap
        else:
            mu = gap + float(rng.uniform(0.08, 1.0))
        problems.append(GroupProblem(2, alpha, mu, _six_specs(alpha, rng)[i % 6]))
    return problems


@pytest.mark.parametrize("seed", [0, 13, 511])
def test_binary_sampler_equals_scalar_draws(seed):
    """Counts 0 to 7 end in every part of the case cycle (i % 3) and the
    spec cycle (i % 6)."""
    for count in (0, 1, 2, 3, 7, 60):
        got = sample_binary_problems(count, seed, 2000)
        want = _reference_binary_problems(count, seed, 2000)
        assert len(got) == count
        for a, b in zip(got, want):
            assert a.alpha.tobytes() == b.alpha.tobytes()
            assert (a.mu, a.spec) == (b.mu, b.spec)


def _reference_ternary_problems(count, seed, m):
    """The per-problem ternary sampler: the six-spec list drawn as each
    GroupProblem is built."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(count):
        case = i % 3 + 1
        while True:
            raw = rng.exponential(scale=1.0, size=3)
            alpha = raw / raw.sum()
            if alpha.min() < 0.12 or np.abs(alpha - 1.0 / 3).max() < 1e-3:
                continue
            if case != 3 or resolvable_mu_cap(alpha, m) - delta(alpha) >= 0.1:
                break
        if case == 2:
            ints = np.floor(alpha * m).astype(np.int64)
            ints[0] += m - ints.sum()
            alpha = ints / float(m)
            if alpha.min() <= 0.0 or np.abs(alpha - 1.0 / 3).max() < 1e-3:
                alpha = np.array([m // 2, m // 3, m - m // 2 - m // 3]) / float(m)
        gap = float(-np.log(np.clip(alpha, T.LOG_FLOOR, 1.0)) @ alpha)
        if case == 1:
            mu = gap * float(rng.uniform(0.2, 0.8))
        elif case == 2:
            mu = gap
        else:
            hi = min(gap + 1.0, resolvable_mu_cap(alpha, m) - 0.02)
            mu = gap + float(rng.uniform(0.05, hi - gap))
        problems.append(GroupProblem(3, alpha, mu, _six_specs(alpha, rng)[i % 6]))
    return problems


@pytest.mark.parametrize("seed", [1, 6])
def test_ternary_sampler_equals_per_problem_draws(seed):
    for count in (0, 1, 2, 3, 7, 40):
        got = sample_ternary_problems(count, seed, 300)
        want = _reference_ternary_problems(count, seed, 300)
        assert len(got) == count
        for a, b in zip(got, want):
            assert a.alpha.tobytes() == b.alpha.tobytes()
            assert (a.mu, a.spec) == (b.mu, b.spec)


@pytest.mark.parametrize("seed", [1, 6])
def test_ternary_blocks_continue_one_stream(seed):
    """Problems [0, 13) then [13, 20) from one generator are the problems
    [0, 20) of one call: 13 ends mid-cycle of both the cases and the specs."""
    rng = np.random.default_rng(seed)
    head, tail = _ternary_block(rng, 0, 13, 300), _ternary_block(rng, 13, 7, 300)
    alphas, mus, specs = _ternary_block(np.random.default_rng(seed), 0, 20, 300)
    assert np.concatenate([head[0], tail[0]]).tobytes() == alphas.tobytes()
    assert np.concatenate([head[1], tail[1]]).tobytes() == mus.tobytes()
    assert head[2] + tail[2] == specs


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


def test_theorem_rejects_empty_sublevel_set(grid2):
    """mu just above delta(alpha), with alpha off the grid: no grid point
    has a loss at or below mu, so there is no floor to bound the gradient."""
    alpha = np.array([0.70001, 0.29999])
    with pytest.raises(ConfigError, match="empty sublevel set"):
        verify_theorem_case(GroupProblem(2, alpha, delta(alpha) + 1e-12, STEP_VAR), grid2)


def test_random_suites_pass(grid2, grid3):
    for problem in sample_binary_problems(60, seed=5, m=2000):
        _, clauses = verify_theorem_case(problem, grid2)
        assert all(c.passed for c in clauses), (problem.alpha, problem.mu, clauses)
    for problem in sample_ternary_problems(12, seed=6, m=300):
        _, clauses = verify_theorem_case(problem, grid3)
        assert all(c.passed for c in clauses), (problem.alpha, problem.mu, clauses)


def _reference_case(problem, grid):
    """verify_theorem_case one problem at a time: the sublevel rows
    gathered and reduced per coordinate, and a binary level set from two
    scalar bisections."""
    alpha, mu, spec = problem.alpha, problem.mu, problem.spec
    gap = delta(alpha)
    result = group_min(problem, grid)
    uniform = np.full(problem.n, 1.0 / problem.n)
    if gap > mu:
        return 1, [
            ClauseResult.at_most("objective_zero", abs(result.value), 0.0),
            ClauseResult.at_most("minimizer_uniform",
                                 float(np.abs(result.point - uniform).max()), 0.0),
            ClauseResult("confidence_zero", result.conf, 0.0, result.conf == 0.0)]
    if gap == mu:
        to_alpha = float(np.abs(result.point - alpha).max())
        to_uniform = float(np.abs(result.point - uniform).max())
        float_tol = 16.0 * np.finfo(float).eps * max(1.0, abs(mu))
        return 2, [
            ClauseResult.at_most("objective_zero", abs(result.value), float_tol),
            ClauseResult.at_most("minimizer_alpha_or_uniform",
                                 min(to_alpha, to_uniform), grid.spacing)]
    losses = grid.neg_logs @ alpha
    sub_points = grid.points[losses <= mu]
    k_bound = float((alpha / np.maximum(sub_points.min(axis=0), 1.0 / grid.m)).max())
    tol_obj = 10.0 * k_bound / grid.m
    conf_alpha = confidence_batch(alpha[None, :], spec)[0]
    eps_c = tol_obj / max(mu - result.loss, tol_obj)
    sub_floor = max(float(sub_points.min()), 1.0 / grid.m)
    k_disp = 2.0 if spec.dispersion == "variance" else 1.0 + abs(np.log(sub_floor))
    if problem.n == 2:
        q = _reference_branch_inverse(1.0 - alpha[0], mu)
        p = _reference_branch_inverse(alpha[0], mu)
        level = np.array([[1.0 - q, q], [p, 1.0 - p]])
        d_level_max = float(_dispersion_rows_np(level, spec.dispersion).max())
        upper_cap = float(spec.gate(d_level_max + k_disp * 1e-8))
    else:
        off_level = np.abs(losses - mu)
        band_mask = off_level <= 4.0 * k_bound / grid.m
        if not band_mask.any():
            band_mask = off_level <= off_level.min() + 1e-15
        d_band_max = float(grid.dispersion(spec.dispersion)[band_mask].max())
        upper_cap = float(spec.gate(d_band_max + 10.0 * k_disp / grid.m))
    return 3, [
        ClauseResult("minimizer_in_strict_sublevel", result.loss - mu, 0.0,
                     result.loss - mu < 0.0),
        ClauseResult.at_most("confidence_at_least_at_alpha",
                             float(conf_alpha - result.conf), eps_c),
        ClauseResult.at_most("confidence_below_levelset_cap",
                             float(result.conf - upper_cap), 0.0)]


def _reference_rows(problems, grid) -> list:
    """The report rows of _reference_case over problems, as tuples of the
    nine columns, with the alpha cell at 6 significant digits."""
    rows = []
    for problem in problems:
        case, clauses = _reference_case(problem, grid)
        alpha = "/".join(f"{a:.6g}" for a in problem.alpha.tolist())
        rows += [(case, problem.n, alpha, problem.mu, spec_label(problem.spec), *clause)
                 for clause in clauses]
    return rows


@pytest.mark.parametrize("seed", [0, 13])
def test_theorem_suite_rows_equal_per_problem_reference(seed, grid2, grid3):
    want = (_reference_rows(sample_binary_problems(60, seed, 2000), grid2)
            + _reference_rows(sample_ternary_problems(12, seed + 1, 300), grid3))
    got = run_theorem_suite(60, 12, seed).rows
    assert {row[0] for row in got} == {1, 2, 3}
    assert got == want


@pytest.mark.parametrize("seed", [0, 13])
def test_theorem_suite_rows_keep_their_stream_across_blocks(seed, monkeypatch):
    """Blocks of 7 split both grids' problems mid-cycle and give the rows
    of one block per grid."""
    want = run_theorem_suite(10, 20, seed).rows
    monkeypatch.setattr(theory, "_SUITE_BLOCK", 7)
    suite = run_theorem_suite(10, 20, seed)
    assert len(suite.blocks) == 5
    assert suite.rows == want


def test_theorem_suite_rows_equal_reference_at_benchmark_size(grid2, grid3):
    """The benchmark's 2,000 binary and 200 ternary problems, the binary
    ones from the scalar-draw sampler, each verified on its own."""
    want = (_reference_rows(_reference_binary_problems(2000, 0, 2000), grid2)
            + _reference_rows(sample_ternary_problems(200, 1, 300), grid3))
    assert run_theorem_suite(2000, 200, 0).rows == want


def test_suite_report_add_writes_one_case_zero_block():
    """add's pairs are one block whose rows are (0, 0, "", 0.0, label,
    clause, measured, tolerance, passed); a NaN measurement fails, and
    pairs without a clause add no block."""
    nan, inf = float("nan"), float("inf")
    pairs = [("a", [ClauseResult.at_most("x", 0.5, 1.0), ClauseResult.at_most("y", nan, 1.0)]),
             ("b[1]", [ClauseResult.at_most("x", 2.0, 1.0)]),
             ("c", []),
             ("d+e(f=1,g=2)", [ClauseResult("z", -inf, inf, True),
                               ClauseResult.at_most("y", inf, 1.0),
                               ClauseResult.at_most("x", -inf, 0.0)])]
    want = [(0, 0, "", 0.0, label, *clause) for label, clauses in pairs for clause in clauses]
    suite = SuiteReport().add(pairs).add([]).add([("empty", [])])
    assert len(suite.blocks) == 1 and isinstance(suite.blocks[0], _Rows)
    got = suite.rows
    # a NaN equals nothing, so the rows are compared by their reprs
    assert list(map(repr, got)) == list(map(repr, want))
    assert [type(row[-1]) for row in got] == [bool] * 6
    assert [row[-1] for row in got] == [True, False, False, True, False, True]
    assert suite.tally() == (6, 3)


def test_clause_at_most_on_floats_is_a_bool():
    for measured, tolerance, passed in ((1.0, 2.0, True), (2.0, 1.0, False),
                                        (float("nan"), 1.0, False), (-math.inf, 0.0, True)):
        assert ClauseResult.at_most("c", measured, tolerance).passed is passed
    over = ClauseResult.at_most("c", np.array([0.0, np.nan, 2.0]), 1.0).passed
    assert over.tolist() == [True, False, False]


def test_every_suite_report_block_is_columns():
    for suite in (run_theorem_suite(6, 3, 0), SUITES["planted_fault"](0),
                  SUITES["quasiconvexity"](0)):
        assert suite.blocks and all(isinstance(block, _Rows) for block in suite.blocks)


def test_theorem_suite_peak_memory_bounded():
    """The case-3 clauses hold a bounded block of problems x grid points
    at a time, so the benchmark-size suite peaks under 10 MiB of traced
    allocations (9.1 MiB when each problem was verified on its own)."""
    tracemalloc.start()
    try:
        run_theorem_suite(2000, 200, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_theorem_report_memory_bounded_at_20000_problems():
    """20,000 binary problems are drawn and verified a block at a time and
    the report keeps each one's columns, not rows: the traced peak is
    5.2 MiB, where a report of per-row tuples peaks at 26 MiB."""
    tracemalloc.start()
    try:
        run_theorem_suite(20_000, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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
    clauses = verify_binary_corollary(binary_bounds(0.9, 0.6), 0.6, grid2, STEP_VAR)
    assert all(c.passed for c in clauses)
    result = group_min(GroupProblem(2, np.array([0.9, 0.1]), 0.6, STEP_VAR), grid2)
    bounds = binary_bounds(0.9, 0.6)
    assert bounds.lower <= result.point[0] < bounds.upper


@pytest.mark.parametrize("seed", [2, 202])
def test_binary_suite_calls_its_public_verifier(seed, monkeypatch):
    """The suite runs theory.verify_binary_corollary, the name a tracer
    wraps, once per problem."""
    want = binary_suite(seed).rows
    calls = []

    def counting(*args):
        calls.append(args)
        return verify_binary_corollary(*args)

    monkeypatch.setattr(theory, "verify_binary_corollary", counting)
    assert binary_suite(seed).rows == want
    assert len(calls) == 50


def test_quasiconvexity_suite_draws_once_per_simplex(monkeypatch):
    """Each n's draw is scored under all six fixed specs: the mixtures and
    both endpoints get one dispersion pass per kind, 12 in all, where a
    search per spec makes 36."""
    want = SUITES["quasiconvexity"](0).rows
    calls = []

    def counting(rows, kind):
        calls.append(kind)
        return _dispersion_rows_np(rows, kind)

    monkeypatch.setattr(sys.modules["confmix.confidence"], "_dispersion_rows_np", counting)
    assert SUITES["quasiconvexity"](0).rows == want
    assert len(calls) == 12


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
