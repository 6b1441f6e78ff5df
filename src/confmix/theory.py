"""Brute-force and analytic oracles for the optimization theory.

The simplex oracles work on plain numpy arrays, independent of the
differentiation engine, so they can sit on the other side of dual-route
checks. The blindspot check is the exception: it runs the experts and
`training.predict` on the engine, since what it checks is what a
convolution can tell apart. The central tool is exhaustive search over a
rational grid on the probability simplex; tolerances are derived from
the grid spacing via data-driven gradient bounds on the sublevel set
actually explored. The theorem suite runs only that search per problem;
its sampling, clauses and report are whole-array work: problems are
verified _SUITE_BLOCK at a time, with at most _BLOCK_BYTES per (problems
x grid) array, and the report keeps each block's columns, not rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .confidence import (DISPERSION_KINDS, CappedLinearGate, ConfidenceSpec, StepGate,
                         TwoLevelGate, _dispersion_rows_np, _gate_kind, _witness_margins,
                         confidence_batch, on_simplex, spec_from_document)
from .documents import cells, write_csv_cells
from .errors import ConfigError, DomainError, check_range
from .experts import ExpertArch, ExpertModel, Layer, gcn_forward, init_expert
from .graphs import BlindspotInstance, build_blindspot_graph, validate_blindspot
from .mixture import infer_expected
from .training import predict

# ---- simplex grid ----


def _compositions(total: int, parts: int) -> np.ndarray:
    """All int64 rows of `parts` entries >= 0 summing to `total`, lexicographically.

    Built a coordinate at a time: each row is followed by every value from
    0 up to what is left of `total`, in order, and the last coordinate
    takes the rest.
    """
    columns, rest = [], np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        counts = rest + 1
        owner = np.repeat(np.arange(rest.size), counts)
        head = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
        columns = [column[owner] for column in columns] + [head]
        rest = rest[owner] - head
    return np.column_stack(columns + [rest])


@dataclass(frozen=True)
class SimplexGrid:
    """All probability vectors with coordinates k/m, in lexicographic order.

    Integer coordinates are exact (rows sum to m), so every float point
    sums to 1 up to a single division per coordinate; ties in searches
    resolve to the lexicographically smallest point because enumeration
    is lexicographic and argmin takes the first hit.
    """
    n: int
    m: int
    ints: np.ndarray
    points: np.ndarray
    # dispersion tables by kind, step-gated ones by (kind, gate)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, n: int, m: int) -> "SimplexGrid":
        check_range("n", n, 2)
        check_range("m", m, 2)
        ints = _compositions(m, n)
        return cls(n, m, ints, ints / float(m))

    @cached_property
    def neg_logs(self) -> np.ndarray:
        """Clamped -log of every coordinate: the group loss is `neg_logs @ alpha`."""
        return -np.log(np.clip(self.points, T.LOG_FLOOR, 1.0))

    def dispersion(self, kind: str) -> np.ndarray:
        """Every point's dispersion of `kind`, computed once per kind."""
        if kind not in self._tables:
            self._tables[kind] = _dispersion_rows_np(self.points, kind)
        return self._tables[kind]

    def gated(self, spec: ConfidenceSpec) -> np.ndarray:
        """A fixed spec's confidence at every point. A step gate's table is
        kept, one per (kind, threshold), as the bools its 0/1 values are:
        the theorem suite's all-or-nothing problems share it. The other
        shapes' fields are drawn per problem, so their tables are not kept."""
        if not isinstance(spec.gate, StepGate):
            return spec.gate(self.dispersion(spec.dispersion))
        key = (spec.dispersion, spec.gate)
        if key not in self._tables:
            self._tables[key] = spec.gate(self.dispersion(spec.dispersion)) == 1.0
        return self._tables[key]

    @property
    def spacing(self) -> float:
        return 1.0 / self.m


# ---- per-group objective pieces ----

def alpha_loss(p, alpha) -> float:
    """Average cross-entropy of the constant prediction p under label mix
    alpha, with the package-wide clamp floor inside the log."""
    p = np.asarray(p, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if not on_simplex(p):
        raise DomainError(f"prediction off the simplex: {p!r}")
    if not on_simplex(alpha):
        raise DomainError(f"label distribution off the simplex: {alpha!r}")
    return float(_loss_at(p, alpha))


def _loss_at(p: np.ndarray, alpha: np.ndarray):
    """alpha_loss without its simplex checks, for vectors on the simplex or
    stacks of them: one stacked product per pair, the bits of a single dot."""
    neg_logs = -np.log(np.clip(p, T.LOG_FLOOR, 1.0))
    return (neg_logs[..., None, :] @ alpha[..., :, None])[..., 0, 0]


def delta(alpha) -> float:
    """Best achievable loss for the group: attained at p = alpha."""
    return alpha_loss(alpha, alpha)


@dataclass(frozen=True)
class GroupProblem:
    """One decomposed sub-problem: minimize C(p) * (loss_alpha(p) - mu)."""
    n: int
    alpha: np.ndarray
    mu: float
    spec: ConfidenceSpec

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.shape != (self.n,):
            raise ConfigError(f"alpha must have shape ({self.n},), got {alpha.shape}")
        values = alpha.tolist()   # plain floats: the suites build 120
        if not all(0.0 < a < 1.0 for a in values):
            raise ConfigError("alpha must be strictly interior to the simplex")
        if not abs(sum(values) - 1.0) <= 1e-9:
            raise ConfigError("alpha must sum to 1")
        mu = float(self.mu)
        if not math.isfinite(mu):
            raise ConfigError(f"mu must be finite, got {mu}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class GroupMinimum:
    point: np.ndarray
    value: float
    conf: float
    loss: float


class _Problem(NamedTuple):
    """What group_min reads of a GroupProblem, for a problem the theorem
    suite drew valid: it skips GroupProblem's checks."""
    n: int
    alpha: np.ndarray
    mu: float
    spec: ConfidenceSpec


def group_min(problem: GroupProblem, grid: SimplexGrid, losses=None) -> GroupMinimum:
    """Exhaustive minimization over the grid; first (lexicographically
    smallest) point among exact ties. `losses`, when given, is the
    problem's `grid.neg_logs @ alpha`, already computed."""
    if grid.n != problem.n:
        raise ConfigError(f"grid dimension {grid.n} != problem dimension {problem.n}")
    spec = problem.spec
    if losses is None:
        losses = grid.neg_logs @ problem.alpha
    conf = grid.gated(spec) if spec.is_fixed else confidence_batch(grid.points, spec)
    objective = losses - problem.mu
    objective *= conf
    idx = int(objective.argmin())
    return GroupMinimum(grid.points[idx].copy(), float(objective[idx]),
                        float(conf[idx]), float(losses[idx]))


# ---- theorem clause verification ----

class ClauseResult(NamedTuple):
    """One checked clause: a row of the verification report."""
    clause: str
    measured: float
    tolerance: float
    passed: bool

    @classmethod
    def at_most(cls, clause: str, measured, tolerance) -> "ClauseResult":
        """The clause `measured <= tolerance` (over arrays, elementwise), which a NaN fails."""
        return cls(clause, measured, tolerance, measured <= tolerance)


def spec_label(spec: ConfidenceSpec) -> str:
    args = ",".join(f"{name}={value:g}" for name, value in vars(spec.gate).items())
    return f"{spec.dispersion}+{_gate_kind(spec.gate)}({args})"


def _sublevel_floor(grid: SimplexGrid, mask: np.ndarray) -> np.ndarray:
    """Each coordinate's minimum over the grid points a mask row keeps,
    floored at one grid spacing: a masked reduction per coordinate over
    the (rows x grid) mask, which gathers no points."""
    return np.maximum(np.stack([np.min(np.broadcast_to(column, mask.shape), axis=-1, where=mask,
                                       initial=np.inf) for column in grid.points.T], axis=-1),
                      1.0 / grid.m)


def _gates(specs: list, x: np.ndarray) -> np.ndarray:
    """Each fixed spec's gate at its entry of x."""
    return np.array([spec.gate(xi) for spec, xi in zip(specs, x.tolist())])


def verify_theorem_case(problem: GroupProblem, grid: SimplexGrid) -> tuple:
    """(case, clauses): the minimizer clauses of whichever case delta-vs-mu selects.

    Case 1 and 2 checks are exact (the uniform point must be on the grid,
    so m must be divisible by n; case-2 problems must put alpha on the
    grid and mu equal to delta(alpha) as computed by alpha_loss). Case 3
    tolerances are grid-derived: tol = 10 * K / m with K the measured
    gradient bound of the loss over the explored sublevel set.
    """
    rows = _verify_cases(grid, problem.alpha[None], np.array([problem.mu]), [problem.spec])
    return int(rows.case[0]), [ClauseResult(*row[5:]) for row in rows.rows()]


# bytes of each (problems x grid) array of the case-3 clauses: 32 binary
# problems or 1 ternary one at a time
_BLOCK_BYTES = 1 << 19


def _verify_cases(grid: SimplexGrid, alphas: np.ndarray, mus: np.ndarray,
                  specs: list) -> "_Rows":
    """verify_theorem_case of every problem (alphas[i], mus[i], specs[i])
    on one grid, as report rows in problem order.

    Only group_min runs per problem. Every clause is an array expression
    over its case's problems, scattered into the rows. The case-3 sublevel
    floors (and, off the binary grid, the loss bands) read the losses
    group_min searched, in blocks of problems under _BLOCK_BYTES per
    array; one lane-wise bisection solves every binary case-3 level set.
    """
    if grid.m % grid.n != 0:
        raise ConfigError("grid resolution must be divisible by n so the "
                          "uniform vector is a grid point")
    if not all(spec.is_fixed for spec in specs):
        raise ConfigError("theorem verification requires a fixed confidence spec")
    if (np.abs(alphas - 1.0 / alphas.shape[1]).max(axis=1) < 1e-12).any():
        raise ConfigError("theorem requires alpha distinct from uniform")
    gaps = _loss_at(alphas, alphas)   # delta(alpha)
    cases = np.where(gaps > mus, 1, np.where(gaps == mus, 2, 3))
    # each minimum kept as numbers, not as thousands of result objects
    point, minima = np.empty(alphas.shape), np.empty((len(alphas), 3))
    problems = [_Problem(alphas.shape[1], alpha, mu, spec)
                for alpha, mu, spec in zip(alphas, mus.tolist(), specs)]

    def minimize(i, losses=None):
        result = group_min(problems[i], grid, losses)
        point[i], minima[i] = result.point, (result.value, result.conf, result.loss)

    one, two, three = (np.flatnonzero(cases == case) for case in (1, 2, 3))
    for i in np.flatnonzero(cases < 3).tolist():
        minimize(i)
    floors, d_band = np.empty((three.size, grid.n)), np.empty(three.size)
    size = max(1, _BLOCK_BYTES // grid.neg_logs[:, 0].nbytes)
    for start in range(0, three.size, size):
        block, rows = three[start:start + size], slice(start, start + size)
        losses = np.empty((block.size, grid.neg_logs.shape[0]))
        for i, row in zip(block.tolist(), losses):
            minimize(i, np.matmul(grid.neg_logs, alphas[i], out=row))
        floors[rows] = _sublevel_floor(grid, losses <= mus[block, None])
        if (floors[rows] == np.inf).any():
            raise ConfigError("empty sublevel set at mu on this grid")
        if grid.n != 2:
            off_level = np.abs(losses - mus[block, None])
            band = off_level <= (4.0 * (alphas[block] / floors[rows]).max(axis=1) / grid.m)[:, None]
            none = ~band.any(axis=1)
            band[none] = off_level[none] <= off_level[none].min(axis=1, keepdims=True) + 1e-15
            for k, (i, keep) in enumerate(zip(block.tolist(), band), start):
                d_band[k] = grid.dispersion(specs[i].dispersion).max(where=keep, initial=-np.inf)

    value, conf, loss = minima.T
    off_uniform = np.abs(point - 1.0 / grid.n).max(axis=1)
    spec3 = [specs[i] for i in three.tolist()]
    variance = np.array([spec.dispersion == "variance" for spec in spec3], dtype=bool)
    alpha3, mu3, loss3, conf3 = alphas[three], mus[three], loss[three], conf[three]
    tol_obj = 10.0 * (alpha3 / floors).max(axis=1) / grid.m
    k_disp = np.where(variance, 2.0, 1.0 + np.abs(np.log(floors.min(axis=1))))
    if grid.n == 2:
        # exact level set from the independent bisection oracle
        qs, ps = _branch_inverse(np.stack([1.0 - alpha3[:, 0], alpha3[:, 0]]), mu3)
        level = np.array([[1.0 - qs, qs], [ps, 1.0 - ps]]).transpose(0, 2, 1)
        cap = _gates(spec3, _dispersion_of(level, variance).max(axis=0) + k_disp * 1e-8)
    else:
        cap = _gates(spec3, d_band + 10.0 * k_disp / grid.m)
    at_most = ClauseResult.at_most
    columns = {
        1: [at_most("objective_zero", np.abs(value[one]), 0.0),
            at_most("minimizer_uniform", off_uniform[one], 0.0),
            ClauseResult("confidence_zero", conf[one], 0.0, conf[one] == 0.0)],
        # the loss at the alpha grid point and mu = delta(alpha) come
        # from two dot-product kernels that may differ in the last ulp
        2: [at_most("objective_zero", np.abs(value[two]),
                    16.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(mus[two]))),
            at_most("minimizer_alpha_or_uniform", np.minimum(
                np.abs(point[two] - alphas[two]).max(axis=1), off_uniform[two]), grid.spacing)],
        3: [ClauseResult("minimizer_in_strict_sublevel", loss3 - mu3, 0.0, loss3 - mu3 < 0.0),
            at_most("confidence_at_least_at_alpha",
                    _gates(spec3, _dispersion_of(alpha3, variance)) - conf3,
                    tol_obj / np.maximum(mu3 - loss3, tol_obj)),
            at_most("confidence_below_levelset_cap", conf3 - cap, 0.0)]}
    names = tuple(dict.fromkeys(c.clause for case in columns.values() for c in case))
    # a problem's rows are its case's clauses, at `first` on
    counts = np.array([0, *map(len, columns.values())], dtype=np.int8)[cases]
    first = np.cumsum(counts) - counts
    size = int(counts.sum())
    clause, passed = np.empty(size, np.int8), np.empty(size, dtype=bool)
    measured, tolerance = np.empty(size), np.empty(size)
    for index, case in zip((one, two, three), columns.values()):
        for j, (name, m, t, p) in enumerate(case):
            at = first[index] + j
            clause[at], measured[at], tolerance[at], passed[at] = names.index(name), m, t, p
    return _Rows(cases.astype(np.int8), alphas, mus, "\n".join(map(spec_label, specs)), counts,
                 names, clause, measured, tolerance, passed)


def resolvable_mu_cap(alpha, m: int) -> float:
    """Largest mu whose level set keeps every coordinate above 6/m.

    As coordinate j shrinks along the level set the other coordinates
    approach their conditional mix, so the loss there is about
    rest_entropy_j + alpha_j * (-log p_j); inverting at p_j = 6/m
    caps mu per coordinate.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    caps = []
    for j in range(alpha.size):
        others = np.delete(alpha, j)
        rest = -(others * np.log(others / (1.0 - alpha[j]))).sum()
        caps.append(rest + alpha[j] * np.log(m / 6.0))
    return float(min(caps))


def verify_step_tightness(alpha, mu, grid: SimplexGrid,
                          dispersion: str = "variance") -> list:
    """All-or-nothing gate pins the minimizer onto alpha (case 3 only)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if delta(alpha) >= mu:
        raise ConfigError("step tightness needs delta(alpha) < mu")
    spec = ConfidenceSpec(dispersion, StepGate(0.0))
    result = group_min(GroupProblem(alpha.size, alpha, mu, spec), grid)
    return [ClauseResult.at_most("step_minimizer_at_alpha",
                                 float(np.abs(result.point - alpha).max()),
                                 grid.spacing + 1e-15)]


def verify_tightness(alpha, mu: float, eta: float, beta: float,
                     grid: SimplexGrid, dispersion: str = "variance") -> list:
    """Two-level gate forces the minimizer into the loss window [mu-eta, mu).

    The gate's knee sits at the max dispersion over the grid sublevel set
    {loss <= mu - eta}; with beta strictly inside (0, eta/(mu - delta)),
    the grid minimizer's loss must land in the window up to grid error
    (the lower edge gets the grid tolerance; the upper edge is strict).
    A beta outside its bound is allowed through, so its clause records
    the expected failure.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    gap = delta(alpha)
    if eta <= 0.0:
        raise ConfigError(f"eta must be > 0, got {eta}")
    if gap >= mu - eta:
        raise ConfigError(
            f"infeasible window: delta(alpha)={gap:.6g} >= mu-eta={mu - eta:.6g}")
    losses = grid.neg_logs @ alpha
    sub_mask = losses <= mu - eta
    if not sub_mask.any():
        raise ConfigError("empty sublevel set at mu - eta on this grid")
    d_max = float(grid.dispersion(dispersion)[sub_mask].max())
    beta_bound = eta / (mu - gap)
    spec = ConfidenceSpec(dispersion, TwoLevelGate(d_max, beta))
    result = group_min(GroupProblem(alpha.size, alpha, mu, spec), grid)
    k_bound = float((alpha / _sublevel_floor(grid, losses <= mu)).max())
    window_tol = 4.0 * k_bound / grid.m
    return [
        ClauseResult("beta_inside_bound", beta - beta_bound, 0.0, 0.0 < beta < beta_bound),
        ClauseResult("minimizer_in_loss_window", max((mu - eta) - result.loss, 0.0),
                     window_tol, mu - eta - window_tol <= result.loss < mu),
    ]


def sample_tightness_problems(count: int, seed: int, m: int,
                              eta: float = 0.05) -> list:
    """(alpha, mu, dispersion kind) triples whose (mu - eta) level set is
    resolvable at resolution m, so the window construction is testable."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a1 = float(rng.uniform(0.55, 0.95))
        alpha = np.array([a1, 1.0 - a1])
        gap = float(_loss_at(alpha, alpha))
        cap = resolvable_mu_cap(alpha, m)
        if cap - gap < eta + 0.1:
            continue
        mu = gap + float(rng.uniform(eta + 0.05, min(1.0, cap - gap - 0.02)))
        out.append((alpha, mu, ("variance", "neg_entropy")[len(out) % 2]))
    return out


# ---- binary corollary ----

@dataclass(frozen=True)
class BinaryBounds:
    lower: float
    upper: float
    residual: float


_BRANCH_FLOOR = 1e-15


def _binary_loss(p, alpha1):
    """The binary group loss at first coordinate p, unclamped, elementwise.

    Swapping alpha1 for 1 - alpha1 evaluates it at 1 - p instead.
    """
    return -alpha1 * np.log(p) - (1.0 - alpha1) * np.log(1.0 - p)


def _branch_inverse(alpha1, mu) -> np.ndarray:
    """x in [_BRANCH_FLOOR, alpha1] with _binary_loss(x, alpha1) = mu,
    elementwise over the broadcast lanes of alpha1 and mu.

    The loss decreases on (0, alpha1], so this solves the lower branch
    for p directly, and the upper branch for q = 1 - p when given
    1 - alpha1. Bisecting on the distance from the branch's endpoint
    keeps full relative precision where p lies within 1e-9 of 1.
    Converges to the floor when mu exceeds the loss there. A lane is done
    once its midpoint equals an endpoint: a later step can only move the
    other endpoint onto it, which leaves the midpoint where it is. The
    loop stops when every lane is done.
    """
    alpha1, mu = np.broadcast_arrays(np.asarray(alpha1, dtype=np.float64),
                                     np.asarray(mu, dtype=np.float64))
    lo, hi = np.full(alpha1.shape, _BRANCH_FLOOR), alpha1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            break
        below = _binary_loss(mid, alpha1) < mu
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    return 0.5 * (lo + hi)


def binary_bounds(alpha1: float, mu: float) -> BinaryBounds:
    """[alpha1, inverse of the increasing branch at mu) by bisection.

    The inverse is solved on the analytic (unclamped) loss, independent
    of any grid; the residual is the loss minus mu at the solved point.
    """
    return _binary_bounds([(alpha1, mu)])[0]


def _binary_bounds(pairs: list) -> list:
    """binary_bounds of every (alpha1, mu) pair, from one lane-wise bisection."""
    for alpha1, mu in pairs:
        if not (0.5 <= alpha1 < 1.0):
            raise DomainError(f"alpha1 must be in [0.5, 1), got {alpha1}")
        gap = delta(np.array([alpha1, 1.0 - alpha1]))
        if mu <= gap:
            raise DomainError(f"corollary needs mu > delta(alpha) = {gap:.6g}, got {mu}")
        if _binary_loss(_BRANCH_FLOOR, 1.0 - alpha1) < mu:
            raise DomainError(f"mu={mu} beyond the resolvable range of the branch")
    alpha1s, mus = np.array(pairs, dtype=np.float64).T
    qs = _branch_inverse(1.0 - alpha1s, mus).tolist()
    return [BinaryBounds(alpha1, 1.0 - q, float(_binary_loss(q, 1.0 - alpha1) - mu))
            for (alpha1, mu), q in zip(pairs, qs)]


def verify_binary_corollary(bounds: BinaryBounds, mu: float, grid: SimplexGrid,
                            spec: ConfidenceSpec) -> list:
    """Grid minimizer's first coordinate against the bisection bounds of
    (alpha1, mu), as binary_bounds or _binary_bounds solved them."""
    alpha1 = bounds.lower
    problem = GroupProblem(2, np.array([alpha1, 1.0 - alpha1]), mu, spec)
    result = group_min(problem, grid)
    p1 = float(result.point[0])
    return [
        ClauseResult("bisection_residual", abs(bounds.residual), 1e-9,
                     abs(bounds.residual) < 1e-9),
        ClauseResult.at_most("minimizer_not_below_alpha1", alpha1 - p1, 1e-15),
        ClauseResult("minimizer_below_branch_inverse",
                     p1 - (bounds.upper + grid.spacing), 1e-15,
                     p1 <= bounds.upper + grid.spacing + 1e-15),
    ]


# ---- problem samplers ----

# the ranges of the six draws: (factor, beta, slope) for variance, then neg_entropy
_DRAW_LOWS, _DRAW_HIGHS = np.array([(0.3, 0.2, 0.5) * 2, (1.7, 0.8, 3.0) * 2])


def _dispersion_of(rows: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """Each row's dispersion of its kind: variance where `variance` is set."""
    return np.where(variance, *(_dispersion_rows_np(rows, kind) for kind in DISPERSION_KINDS))


def _rotation(index: np.ndarray, draws: np.ndarray, alphas: np.ndarray) -> list:
    """Spec `index` (mod 6) of a rotation of conforming fixed specs, per
    problem, sized to its alpha: step, two-level, then capped-linear gates
    on variance, then on neg_entropy. `draws` are (factor, beta, slope) for
    variance, then for neg_entropy; a two-level gate's knee is its factor
    times the dispersion of alpha of its kind."""
    which, shape = np.divmod(index % 6, 3)
    lane = np.arange(index.size)
    factor, beta, slope = (draws[lane, 3 * which + k] for k in range(3))
    d_max = factor * np.maximum(_dispersion_of(alphas, which == 0), 1e-6)
    return [ConfidenceSpec(DISPERSION_KINDS[w], StepGate(0.0) if s == 0 else
                           TwoLevelGate(d, b) if s == 1 else CappedLinearGate(k))
            for w, s, d, b, k in zip(which.tolist(), shape.tolist(), d_max.tolist(),
                                     beta.tolist(), slope.tolist())]


def _binary_block(rng, start: int, count: int, m: int) -> tuple:
    """Binary problems start to start + count - 1 of the suite's cycle,
    as _verify_cases takes them: (alphas, mus, specs).

    Problem i is case i % 3 + 1 with spec i % 6 of the rotation. It draws
    its alpha, then its mu unless it is case 2, then the six spec draws,
    from one `rng.random` call per block, which continues the stream
    where the last block left it. Each draw is mapped as
    `Generator.uniform` maps it: low + (high - low) * u.
    """
    index = np.arange(start, start + count)
    case = index % 3 + 1
    width = np.where(case == 2, 7, 8)
    first = np.cumsum(width) - width
    u = rng.random(int(width.sum()))
    a1 = 0.55 + (0.95 - 0.55) * u[first]
    k = np.rint(a1 * m)
    alphas = np.where((case == 2)[:, None], np.stack([k, m - k], axis=1) / m,
                      np.stack([a1, 1.0 - a1], axis=1))
    gaps = _loss_at(alphas, alphas)
    mu_draw = u[first + 1]
    mus = np.select([case == 1, case == 3], [gaps * (0.2 + (0.8 - 0.2) * mu_draw),
                                             gaps + (0.08 + (1.0 - 0.08) * mu_draw)], gaps)
    draws = _DRAW_LOWS + (_DRAW_HIGHS - _DRAW_LOWS) * u[(first + width - 6)[:, None]
                                                         + np.arange(6)]
    return alphas, mus, _rotation(index, draws, alphas)


def _ternary_block(rng, start: int, count: int, m: int) -> tuple:
    """Ternary problems start to start + count - 1, as _binary_block gives
    binary ones. Problem i draws alpha until one is far enough from
    uniform (and, in case 3, resolvable), then its mu unless it is case 2,
    then the six spec draws, continuing the stream where i - 1 left it."""
    index = np.arange(start, start + count)
    alphas, mus, draws = np.empty((count, 3)), np.empty(count), np.empty((count, 6))
    for k, i in enumerate(index.tolist()):
        case = i % 3 + 1
        while True:
            raw = rng.exponential(scale=1.0, size=3)
            alpha = raw / raw.sum()
            if alpha.min() < 0.12 or np.abs(alpha - 1.0 / 3).max() < 1e-3:
                continue
            if case != 3 or resolvable_mu_cap(alpha, m) - _loss_at(alpha, alpha) >= 0.1:
                break
        if case == 2:
            ints = np.floor(alpha * m).astype(np.int64)
            ints[0] += m - ints.sum()
            alpha = ints / float(m)
            if alpha.min() <= 0.0 or np.abs(alpha - 1.0 / 3).max() < 1e-3:
                alpha = np.array([m // 2, m // 3, m - m // 2 - m // 3]) / float(m)
        gap = _loss_at(alpha, alpha)
        if case == 1:
            mu = gap * float(rng.uniform(0.2, 0.8))
        elif case == 2:
            mu = gap
        else:
            # keep the level set resolvable on the grid so the
            # dispersion-cap clause checks something real
            hi = min(gap + 1.0, resolvable_mu_cap(alpha, m) - 0.02)
            mu = gap + float(rng.uniform(0.05, hi - gap))
        alphas[k], mus[k], draws[k] = alpha, mu, rng.uniform(_DRAW_LOWS, _DRAW_HIGHS)
    return alphas, mus, _rotation(index, draws, alphas)


# ---- expressivity separation ----

def build_root_separator(instance: BlindspotInstance) -> ExpertModel:
    """Two-layer relu witness: non-uniform exactly on the two roots.

    One hidden unit fires only for u, another only for v (their scores
    along the root axis dominate every other node strictly, so the other
    relu pre-activations are negative and the outputs exactly zero);
    zero logits give exactly uniform rows everywhere else.
    """
    g = instance.graph
    x_u, x_v = g.features[instance.u], g.features[instance.v]
    axis = x_u - x_v
    scores = g.features @ axis
    others = np.delete(scores, [instance.u, instance.v])
    s_u, s_v = scores[instance.u], scores[instance.v]
    if not (s_u > others.max() and s_v < others.min()):
        raise ConfigError("root features do not dominate along the root axis")
    theta_u = 0.5 * (s_u + others.max())
    theta_v = 0.5 * (-s_v + (-others).max())
    w1 = np.stack([axis, -axis], axis=1)
    b1 = np.array([-theta_u, -theta_v])
    scale_u = 20.0 / (s_u - theta_u)
    scale_v = 20.0 / (-s_v - theta_v)
    w2 = np.array([[scale_u, 0.0], [0.0, scale_v]])
    b2 = np.zeros(2)
    return ExpertModel("weak", [
        Layer(T.Tensor(w1, requires_grad=True), T.Tensor(b1, requires_grad=True)),
        Layer(T.Tensor(w2, requires_grad=True), T.Tensor(b2, requires_grad=True)),
    ])


def verify_blindspot(instance: BlindspotInstance, n_weight_draws: int,
                     seed: int) -> list:
    """Three clauses: (a) every random convolution confuses the roots;
    (b) the gated mixture with an all-or-nothing gate tells them apart
    and (c) hands every other node to the strong expert unchanged."""
    check_range("n_weight_draws", n_weight_draws, 1)
    validate_blindspot(instance)
    g, u, v, k = instance.graph, instance.u, instance.v, instance.k
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_weight_draws):
        strong = init_expert(ExpertArch("gcn", layers=k, hidden=max(4, g.num_features)),
                             g.num_features, g.num_classes, int(rng.integers(2 ** 31)))
        for layer in strong.layers:
            layer.bias.values = rng.uniform(-1.0, 1.0, layer.bias.shape)
        probs = gcn_forward(strong, g).values
        worst = max(worst, float(np.abs(probs[u] - probs[v]).max()))

    weak = build_root_separator(instance)
    pw, ps, conf = predict(weak, strong, ConfidenceSpec("variance", StepGate(0.0)), g)
    _, pred = infer_expected(pw, ps, conf)
    strong_pred = ps.argmax(axis=1)
    mask = np.ones(g.num_nodes, dtype=bool)
    mask[[u, v]] = False
    elsewhere = np.array_equal(pred[mask], strong_pred[mask])
    return [
        ClauseResult("conv_output_gap", worst, 1e-9, worst < 1e-9),
        ClauseResult.at_most("mixture_distinguishes_roots", float(pred[u] == pred[v]), 0.0),
        ClauseResult.at_most("mixture_matches_strong_elsewhere", float(not elsewhere), 0.0),
    ]


# ---- suite runner ----

def _alpha_text(alphas: np.ndarray) -> list:
    """The report's alpha cell of each row of alphas: coordinates at 6
    significant digits joined by '/', or empty with no coordinates."""
    if not alphas.shape[1]:
        return [""] * len(alphas)
    return list(map("/".join(["{:.6g}"] * alphas.shape[1]).format, *alphas.T.tolist()))


class _Rows(NamedTuple):
    """Report rows as columns, problem by problem: problem i owns the next
    counts[i] rows. An `add` block's problems are its (label, clauses)
    pairs, of case 0 with no alpha and mu 0."""
    case: np.ndarray        # per problem
    alphas: np.ndarray      # per problem: (problems, n)
    mus: np.ndarray         # per problem
    labels: str             # per problem: a spec_label or a pair's label, one a line
    counts: np.ndarray      # per problem
    names: tuple            # the clause names
    clause: np.ndarray      # per row: an index into names
    measured: np.ndarray
    tolerance: np.ndarray
    passed: np.ndarray

    def _per_problem(self) -> list:
        """The case, n, alpha, mu and spec columns, as values."""
        return [self.case.tolist(), [self.alphas.shape[1]] * len(self.case),
                _alpha_text(self.alphas), self.mus.tolist(), self.labels.split("\n")]

    def rows(self) -> list:
        per_problem = list(zip(*self._per_problem()))
        owner = np.repeat(np.arange(len(self.case)), self.counts).tolist()
        return [(*per_problem[o], self.names[c], m, t, p) for o, c, m, t, p in zip(
            owner, self.clause.tolist(), self.measured.tolist(), self.tolerance.tolist(),
            self.passed.tolist())]

    def cells(self) -> list:
        """The rows as one write_csv_cells block: each problem's cells are
        formatted once for all its rows."""
        owner = np.repeat(np.arange(len(self.case)), self.counts)
        names = np.array(cells(self.names), dtype=object)
        return ([np.array(cells(column), dtype=object)[owner].tolist()
                 for column in self._per_problem()] + [names[self.clause].tolist()]
                + [cells(column) for column in (self.measured, self.tolerance, self.passed)])


_HEADER = ["case", "n", "alpha", "mu", "spec", "clause", "measured", "tolerance", "pass"]


@dataclass
class SuiteReport:
    """Clause rows in blocks of columns (_Rows)."""
    blocks: list = field(default_factory=list)

    def add(self, pairs: list) -> "SuiteReport":
        """One block of a builder's (label, clauses) pairs, a row per clause
        under its pair's label (no clause, no block); returns the report."""
        flat = [c for _, clauses in pairs for c in clauses]
        if flat:
            labels, groups = zip(*pairs)
            names = tuple(dict.fromkeys(c.clause for c in flat))
            clause, measured, tolerance, passed = zip(*flat)
            self.blocks.append(_Rows(
                np.zeros(len(pairs), np.int8), np.empty((len(pairs), 0)), np.zeros(len(pairs)),
                "\n".join(labels), np.array(list(map(len, groups))), names,
                np.array(list(map(names.index, clause))), np.array(measured, dtype=float),
                np.array(tolerance, dtype=float), np.array(passed, dtype=bool)))
        return self

    @property
    def rows(self) -> list:
        """Every row as a tuple of the report's nine columns."""
        return [row for block in self.blocks for row in block.rows()]

    def tally(self) -> tuple:
        """(clauses, failed clauses)."""
        return (sum(block.passed.size for block in self.blocks),
                sum(int(np.count_nonzero(~block.passed)) for block in self.blocks))

    def write_csv(self, path):
        write_csv_cells(path, _HEADER, (block.cells() for block in self.blocks))


# ceilings on the theorem suite's counts, 5,000 times the defaults: the
# report keeps about 0.11 KB of columns per binary problem until it is
# written, and each ternary problem is a Python loop (on one core of a
# 2-vCPU host, `verify --suite theorem --binary-count 1000000
# --ternary-count 0` takes about 26 s at 158 MB peak RSS, and 10**4
# ternary problems take about 3.5 s)
MAX_BINARY_COUNT = 10**6
MAX_TERNARY_COUNT = 10**5
# problems drawn, verified and kept in one report block at a time, on
# either grid
_SUITE_BLOCK = 1 << 12


def run_theorem_suite(binary_count: int = 200, ternary_count: int = 20,
                      seed: int = 0) -> SuiteReport:
    """The three-case minimizer suite: binary problems on the
    resolution-2000 grid, ternary ones on the resolution-300 grid."""
    check_range("binary_count", binary_count, 0, MAX_BINARY_COUNT)
    check_range("ternary_count", ternary_count, 0, MAX_TERNARY_COUNT)
    suite = SuiteReport()
    for count, n, m, sample, stream in ((binary_count, 2, 2000, _binary_block, seed),
                                        (ternary_count, 3, 300, _ternary_block, seed + 1)):
        if count:
            grid, rng = SimplexGrid.build(n, m), np.random.default_rng(stream)
            for start in range(0, count, _SUITE_BLOCK):
                block = sample(rng, start, min(_SUITE_BLOCK, count - start), m)
                suite.blocks.append(_verify_cases(grid, *block))
    return suite


# ---- suite registry ----

def tightness_suite(seed: int) -> SuiteReport:
    """50 step-gate problems drawn from `seed`, then 20 two-level window
    problems (eta = 0.05, resolution 5000) drawn from seed + 1."""
    pairs = []
    rng = np.random.default_rng(seed)
    grid = SimplexGrid.build(2, 2000)
    for i in range(50):
        a1 = float(rng.uniform(0.55, 0.95))
        alpha = np.array([a1, 1.0 - a1])
        mu = float(_loss_at(alpha, alpha)) + float(rng.uniform(0.08, 1.0))
        kind = ("variance", "neg_entropy")[i % 2]
        pairs.append((f"step_tightness[{i}]", verify_step_tightness(alpha, mu, grid, kind)))
    grid5 = SimplexGrid.build(2, 5000)
    eta = 0.05
    problems = sample_tightness_problems(20, seed + 1, m=5000, eta=eta)
    for i, (alpha, mu, kind) in enumerate(problems):
        beta = 0.5 * eta / (mu - float(_loss_at(alpha, alpha)))
        pairs.append((f"window_tightness[{i}]",
                      verify_tightness(alpha, mu, eta, beta, grid5, kind)))
    return SuiteReport().add(pairs)


def binary_suite(seed: int) -> SuiteReport:
    """50 binary corollary problems with alpha1 on the resolution-2000 grid."""
    rng = np.random.default_rng(seed)
    grid = SimplexGrid.build(2, 2000)
    problems, pairs = [], []
    for _ in range(50):
        a1 = int(round(rng.uniform(0.55, 0.95) * grid.m)) / grid.m
        alpha = np.array([a1, 1.0 - a1])
        problems.append((a1, float(_loss_at(alpha, alpha)) + float(rng.uniform(0.08, 1.0))))
    for i, ((_, mu), bounds) in enumerate(zip(problems, _binary_bounds(problems))):
        kind = ("variance", "neg_entropy")[i % 2]
        spec = ConfidenceSpec(kind, CappedLinearGate(1.5 if kind == "variance" else 1.0))
        pairs.append((f"binary_corollary[{i}]", verify_binary_corollary(bounds, mu, grid, spec)))
    return SuiteReport().add(pairs)


def quasiconvexity_suite(seed: int, specs: list) -> SuiteReport:
    """10,000 random mixtures for each n in (2, 3), drawn once and scored
    under every (label, spec)."""
    pairs = []
    for n in (2, 3):
        margins = _witness_margins([spec for _, spec in specs], 10_000, seed, n)
        for (label, _), margin in zip(specs, margins):
            pairs.append((label, [ClauseResult.at_most(f"quasiconvex_margin_n{n}",
                                                       margin, 1e-12)]))
    return SuiteReport().add(pairs)


_FIXED_SPECS = [
    ("variance+step0", ConfidenceSpec("variance", StepGate(0.0))),
    ("neg_entropy+step0", ConfidenceSpec("neg_entropy", StepGate(0.0))),
    ("variance+two_level", ConfidenceSpec("variance", TwoLevelGate(0.1, 0.4))),
    ("neg_entropy+two_level", ConfidenceSpec("neg_entropy", TwoLevelGate(0.2, 0.3))),
    ("variance+capped", ConfidenceSpec("variance", CappedLinearGate(2.0))),
    ("neg_entropy+capped", ConfidenceSpec("neg_entropy", CappedLinearGate(1.0))),
]

# planted bump: confidence rises with variance then falls, a deliberate
# quasiconvexity violation, read like any user's learnable gate
_PLANTED_FAULT = {"dispersion": "variance", "gate": {"kind": "learnable", "weights": [
    [[[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], [-0.05, -0.15, 0.0, 0.0]],
    [[[20.0, 0.0], [-40.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]]]}}


def blindspot_suite(seed: int) -> SuiteReport:
    """Blindspot instances k = 1, 2 built from seed + k, with 50 weight
    draws from seed + 10 + k."""
    pairs = []
    for k in (1, 2):
        instance = build_blindspot_graph(k, 6, seed + k)
        pairs.append((f"blindspot_k{k}", verify_blindspot(instance, 50, seed + 10 + k)))
    return SuiteReport().add(pairs)


# suite name -> builder of the run seed. Each suite draws from its own
# offset of that seed; "all" runs every suite but planted_fault, whose
# clauses are meant to fail.
SUITES = {
    "theorem": lambda seed: run_theorem_suite(seed=seed),
    "tightness": lambda seed: tightness_suite(seed + 101),
    "binary": lambda seed: binary_suite(seed + 202),
    "quasiconvexity": lambda seed: quasiconvexity_suite(seed + 303, _FIXED_SPECS),
    "blindspot": lambda seed: blindspot_suite(seed + 404),
    "planted_fault": lambda seed: quasiconvexity_suite(
        seed + 303, [("corrupted+learnable", spec_from_document(_PLANTED_FAULT))]),
}
