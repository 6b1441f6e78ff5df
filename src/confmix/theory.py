"""Brute-force and analytic oracles for the optimization theory.

The simplex oracles work on plain numpy arrays, independent of the
differentiation engine, so they can sit on the other side of dual-route
checks. The blindspot check is the exception: it runs the experts and
`training.predict` on the engine, since what it checks is what a
convolution can tell apart. The central tool is exhaustive search over a
rational grid on the probability simplex; tolerances are derived from
the grid spacing via data-driven gradient bounds on the sublevel set
actually explored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import tensor as T
from .confidence import (CappedLinearGate, ConfidenceSpec, StepGate, TwoLevelGate,
                         _dispersion_rows_np, _gate_kind, confidence_batch, on_simplex,
                         quasiconvexity_witness_search, spec_from_document)
from .documents import write_csv
from .errors import ConfigError, DomainError
from .experts import ExpertArch, ExpertModel, Layer, gcn_forward, init_expert
from .graphs import BlindspotInstance, build_blindspot_graph, validate_blindspot
from .mixture import infer_expected
from .training import predict

# ---- simplex grid ----


def _compositions(total: int, parts: int) -> np.ndarray:
    """All int64 rows of `parts` entries >= 0 summing to `total`, lexicographically."""
    if parts == 2:
        heads = np.arange(total + 1, dtype=np.int64)
        return np.stack([heads, total - heads], axis=1)
    return np.concatenate([np.insert(_compositions(total - head, parts - 1), 0, head, axis=1)
                           for head in range(total + 1)])


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
    _dispersions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, n: int, m: int) -> "SimplexGrid":
        if n < 2 or m < 2:
            raise ConfigError(f"need n >= 2 and m >= 2, got n={n} m={m}")
        ints = _compositions(m, n)
        return cls(n, m, ints, ints / float(m))

    @cached_property
    def neg_logs(self) -> np.ndarray:
        """Clamped -log of every coordinate: the group loss is `neg_logs @ alpha`."""
        return -np.log(np.clip(self.points, T.LOG_FLOOR, 1.0))

    def dispersion(self, kind: str) -> np.ndarray:
        """Every point's dispersion of `kind`, computed once per kind."""
        if kind not in self._dispersions:
            self._dispersions[kind] = _dispersion_rows_np(self.points, kind)
        return self._dispersions[kind]

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
    return float(-np.log(np.clip(p, T.LOG_FLOOR, 1.0)) @ alpha)


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
        if not (alpha.min() > 0.0 and alpha.max() < 1.0):
            raise ConfigError("alpha must be strictly interior to the simplex")
        if not abs(alpha.sum() - 1.0) <= 1e-9:
            raise ConfigError("alpha must sum to 1")
        mu = float(self.mu)
        if not np.isfinite(mu):
            raise ConfigError(f"mu must be finite, got {mu}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class GroupMinimum:
    point: np.ndarray
    value: float
    conf: float
    loss: float


def group_min(problem: GroupProblem, grid: SimplexGrid) -> GroupMinimum:
    """Exhaustive minimization over the grid; first (lexicographically
    smallest) point among exact ties."""
    if grid.n != problem.n:
        raise ConfigError(f"grid dimension {grid.n} != problem dimension {problem.n}")
    spec = problem.spec
    losses = grid.neg_logs @ problem.alpha
    conf = (spec.gate(grid.dispersion(spec.dispersion)) if spec.is_fixed
            else confidence_batch(grid.points, spec))
    objective = conf * (losses - problem.mu)
    idx = int(np.argmin(objective))
    return GroupMinimum(grid.points[idx].copy(), float(objective[idx]),
                        float(conf[idx]), float(losses[idx]))


# ---- theorem clause verification ----

@dataclass(frozen=True)
class ClauseResult:
    """One checked clause: a row of the verification report."""
    clause: str
    measured: float
    tolerance: float
    passed: bool

    @classmethod
    def at_most(cls, clause: str, measured: float, tolerance: float) -> "ClauseResult":
        """The clause `measured <= tolerance`, which a NaN fails."""
        return cls(clause, measured, tolerance, bool(measured <= tolerance))


def spec_label(spec: ConfidenceSpec) -> str:
    gate = spec.gate
    args = ",".join(f"{name}={value:g}" for name, value in asdict(gate).items())
    return f"{spec.dispersion}+{_gate_kind(gate)}({args})"


def _grad_bound(alpha: np.ndarray, sub_points: np.ndarray, m: int) -> float:
    """Gradient bound of the group loss over the explored sublevel set,
    floored per coordinate at one grid spacing."""
    floor = np.maximum(sub_points.min(axis=0), 1.0 / m)
    return float((alpha / floor).max())


def verify_theorem_case(problem: GroupProblem, grid: SimplexGrid) -> tuple:
    """(case, clauses): the minimizer clauses of whichever case delta-vs-mu selects.

    Case 1 and 2 checks are exact (the uniform point must be on the grid,
    so m must be divisible by n; case-2 problems must put alpha on the
    grid and mu equal to delta(alpha) as computed by alpha_loss). Case 3
    tolerances are grid-derived: tol = 10 * K / m with K the measured
    gradient bound of the loss over the explored sublevel set.
    """
    if not problem.spec.is_fixed:
        raise ConfigError("theorem verification requires a fixed confidence spec")
    if grid.m % grid.n != 0:
        raise ConfigError("grid resolution must be divisible by n so the "
                          "uniform vector is a grid point")
    alpha, mu, spec = problem.alpha, problem.mu, problem.spec
    if np.abs(alpha - 1.0 / problem.n).max() < 1e-12:
        raise ConfigError("theorem requires alpha distinct from uniform")
    gap = delta(alpha)
    result = group_min(problem, grid)
    uniform = np.full(problem.n, 1.0 / problem.n)

    if gap > mu:
        return 1, [
            ClauseResult.at_most("objective_zero", abs(result.value), 0.0),
            ClauseResult.at_most("minimizer_uniform",
                                 float(np.abs(result.point - uniform).max()), 0.0),
            ClauseResult("confidence_zero", result.conf, 0.0, result.conf == 0.0),
        ]

    if gap == mu:
        to_alpha = float(np.abs(result.point - alpha).max())
        to_uniform = float(np.abs(result.point - uniform).max())
        # the loss at the alpha grid point and mu = delta(alpha) come from
        # two dot-product kernels that may differ in the last ulp
        float_tol = 16.0 * np.finfo(float).eps * max(1.0, abs(mu))
        return 2, [
            ClauseResult.at_most("objective_zero", abs(result.value), float_tol),
            ClauseResult.at_most("minimizer_alpha_or_uniform",
                                 min(to_alpha, to_uniform), grid.spacing),
        ]

    losses = grid.neg_logs @ alpha
    sub_points = grid.points[losses <= mu]
    k_bound = _grad_bound(alpha, sub_points, grid.m)
    tol_obj = 10.0 * k_bound / grid.m

    sublevel_slack = result.loss - mu

    conf_alpha = confidence_batch(alpha[None, :], spec)[0]
    eps_c = tol_obj / max(mu - result.loss, tol_obj)
    lower_gap = float(conf_alpha - result.conf)

    sub_floor = max(float(sub_points.min()), 1.0 / grid.m)
    k_disp = 2.0 if spec.dispersion == "variance" else 1.0 + abs(np.log(sub_floor))
    if problem.n == 2:
        # exact level set from the independent bisection oracle
        q = _branch_inverse(1.0 - alpha[0], mu)   # 1 - p on the upper branch
        p = _branch_inverse(alpha[0], mu)         # p on the lower branch
        level = np.array([[1.0 - q, q], [p, 1.0 - p]])
        d_level_max = float(_dispersion_rows_np(level, spec.dispersion).max())
        upper_cap = float(spec.gate(d_level_max + k_disp * 1e-8))
    else:
        band = 4.0 * k_bound / grid.m
        off_level = np.abs(losses - mu)
        band_mask = off_level <= band
        if not band_mask.any():
            band_mask = off_level <= off_level.min() + 1e-15
        d_band_max = float(grid.dispersion(spec.dispersion)[band_mask].max())
        upper_cap = float(spec.gate(d_band_max + 10.0 * k_disp / grid.m))
    upper_gap = float(result.conf - upper_cap)

    return 3, [
        ClauseResult("minimizer_in_strict_sublevel", sublevel_slack, 0.0,
                     sublevel_slack < 0.0),
        ClauseResult.at_most("confidence_at_least_at_alpha", lower_gap, eps_c),
        ClauseResult.at_most("confidence_below_levelset_cap", upper_gap, 0.0),
    ]


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
    k_bound = _grad_bound(alpha, grid.points[losses <= mu], grid.m)
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
        gap = delta(alpha)
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


def _binary_loss(p: float, alpha1: float) -> float:
    """The binary group loss at first coordinate p, unclamped.

    Swapping alpha1 for 1 - alpha1 evaluates it at 1 - p instead.
    """
    return float(-alpha1 * np.log(p) - (1.0 - alpha1) * np.log(1.0 - p))


def _branch_inverse(alpha1: float, mu: float) -> float:
    """x in [_BRANCH_FLOOR, alpha1] with _binary_loss(x, alpha1) = mu.

    The loss decreases on (0, alpha1], so this solves the lower branch
    for p directly, and the upper branch for q = 1 - p when given
    1 - alpha1. Bisecting on the distance from the branch's endpoint
    keeps full relative precision where p lies within 1e-9 of 1.
    Converges to the floor when mu exceeds the loss there. Stops once the
    midpoint equals an endpoint, which no later step can move.
    """
    lo, hi = _BRANCH_FLOOR, alpha1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _binary_loss(mid, alpha1) < mu:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def binary_bounds(alpha1: float, mu: float) -> BinaryBounds:
    """[alpha1, inverse of the increasing branch at mu) by bisection.

    The inverse is solved on the analytic (unclamped) loss, independent
    of any grid; the residual is the loss minus mu at the solved point.
    """
    if not (0.5 <= alpha1 < 1.0):
        raise DomainError(f"alpha1 must be in [0.5, 1), got {alpha1}")
    gap = delta(np.array([alpha1, 1.0 - alpha1]))
    if mu <= gap:
        raise DomainError(f"corollary needs mu > delta(alpha) = {gap:.6g}, got {mu}")
    if _binary_loss(_BRANCH_FLOOR, 1.0 - alpha1) < mu:
        raise DomainError(f"mu={mu} beyond the resolvable range of the branch")
    q = _branch_inverse(1.0 - alpha1, mu)
    return BinaryBounds(alpha1, 1.0 - q, _binary_loss(q, 1.0 - alpha1) - mu)


def verify_binary_corollary(alpha1: float, mu: float, grid: SimplexGrid,
                            spec: ConfidenceSpec) -> list:
    """Grid minimizer's first coordinate against the bisection bounds."""
    bounds = binary_bounds(alpha1, mu)
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

def _fixed_spec_for(alpha: np.ndarray, rng, index: int) -> ConfidenceSpec:
    """Spec `index` (mod 6) of a rotation of conforming fixed specs sized
    to the problem. The draws of all six are made in order, so the random
    stream does not depend on which spec is built."""
    draws = [float(rng.uniform(lo, hi)) for lo, hi in ((0.3, 1.7), (0.2, 0.8), (0.5, 3.0)) * 2]
    which, shape = divmod(index % 6, 3)
    kind = ("variance", "neg_entropy")[which]
    factor, beta, slope = draws[3 * which:3 * which + 3]
    if shape == 1:
        d_alpha = float(_dispersion_rows_np(alpha[None, :], kind)[0])
        return ConfidenceSpec(kind, TwoLevelGate(factor * max(d_alpha, 1e-6), beta))
    return ConfidenceSpec(kind, StepGate(0.0) if shape == 0 else CappedLinearGate(slope))


def sample_binary_problems(count: int, seed: int, m: int) -> list:
    """Random binary problems cycling case 1/2/3 and the fixed specs."""
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
        gap = delta(alpha)
        if case == 1:
            mu = gap * float(rng.uniform(0.2, 0.8))
        elif case == 2:
            mu = gap
        else:
            mu = gap + float(rng.uniform(0.08, 1.0))
        problems.append(GroupProblem(2, alpha, mu, _fixed_spec_for(alpha, rng, i)))
    return problems


def sample_ternary_problems(count: int, seed: int, m: int) -> list:
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
        gap = delta(alpha)
        if case == 1:
            mu = gap * float(rng.uniform(0.2, 0.8))
        elif case == 2:
            mu = gap
        else:
            # keep the level set resolvable on the grid so the
            # dispersion-cap clause checks something real
            hi = min(gap + 1.0, resolvable_mu_cap(alpha, m) - 0.02)
            mu = gap + float(rng.uniform(0.05, hi - gap))
        problems.append(GroupProblem(3, alpha, mu, _fixed_spec_for(alpha, rng, i)))
    return problems


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
    if n_weight_draws < 1:
        raise ConfigError("n_weight_draws must be >= 1")
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

@dataclass
class SuiteReport:
    rows: list = field(default_factory=list)   # CSV-ready tuples

    def add(self, label: str, clauses: list, case: int = 0,
            problem: GroupProblem | None = None):
        """One row per clause; a theorem case also records its case and problem."""
        n, alpha, mu = ((problem.n, "/".join(f"{a:.6g}" for a in problem.alpha), problem.mu)
                        if problem else (0, "", 0.0))
        self.rows += [(case, n, alpha, mu, label, c.clause, c.measured, c.tolerance, c.passed)
                      for c in clauses]

    def write_csv(self, path):
        write_csv(path, ["case", "n", "alpha", "mu", "spec", "clause",
                         "measured", "tolerance", "pass"], self.rows)


def run_theorem_suite(binary_count: int = 200, ternary_count: int = 20,
                      seed: int = 0) -> SuiteReport:
    """The three-case minimizer suite: binary problems on the
    resolution-2000 grid, ternary ones on the resolution-300 grid."""
    if min(binary_count, ternary_count) < 0:
        raise ConfigError(f"counts must be >= 0, got {binary_count} binary, "
                          f"{ternary_count} ternary")
    suite = SuiteReport()
    for n, m, sample, count, problem_seed in (
            (2, 2000, sample_binary_problems, binary_count, seed),
            (3, 300, sample_ternary_problems, ternary_count, seed + 1)):
        grid = SimplexGrid.build(n, m)
        for problem in sample(count, problem_seed, m):
            case, clauses = verify_theorem_case(problem, grid)
            suite.add(spec_label(problem.spec), clauses, case, problem)
    return suite


# ---- suite registry ----

def tightness_suite(seed: int) -> SuiteReport:
    """50 step-gate problems drawn from `seed`, then 20 two-level window
    problems (eta = 0.05, resolution 5000) drawn from seed + 1."""
    suite = SuiteReport()
    rng = np.random.default_rng(seed)
    grid = SimplexGrid.build(2, 2000)
    for i in range(50):
        a1 = float(rng.uniform(0.55, 0.95))
        alpha = np.array([a1, 1.0 - a1])
        mu = delta(alpha) + float(rng.uniform(0.08, 1.0))
        kind = ("variance", "neg_entropy")[i % 2]
        suite.add(f"step_tightness[{i}]", verify_step_tightness(alpha, mu, grid, kind))
    grid5 = SimplexGrid.build(2, 5000)
    eta = 0.05
    problems = sample_tightness_problems(20, seed + 1, m=5000, eta=eta)
    for i, (alpha, mu, kind) in enumerate(problems):
        beta = 0.5 * eta / (mu - delta(alpha))
        suite.add(f"window_tightness[{i}]",
                  verify_tightness(alpha, mu, eta, beta, grid5, kind))
    return suite


def binary_suite(seed: int) -> SuiteReport:
    """50 binary corollary problems with alpha1 on the resolution-2000 grid."""
    suite = SuiteReport()
    rng = np.random.default_rng(seed)
    grid = SimplexGrid.build(2, 2000)
    for i in range(50):
        k = int(round(rng.uniform(0.55, 0.95) * grid.m))
        a1 = k / grid.m
        mu = delta(np.array([a1, 1.0 - a1])) + float(rng.uniform(0.08, 1.0))
        kind = ("variance", "neg_entropy")[i % 2]
        spec = ConfidenceSpec(kind, CappedLinearGate(1.5 if kind == "variance" else 1.0))
        suite.add(f"binary_corollary[{i}]", verify_binary_corollary(a1, mu, grid, spec))
    return suite


def quasiconvexity_suite(seed: int, specs: list) -> SuiteReport:
    """10,000 random mixtures per (label, spec) and n in (2, 3)."""
    suite = SuiteReport()
    for n in (2, 3):
        for label, spec in specs:
            margin = quasiconvexity_witness_search(spec, 10_000, seed, n=n)
            suite.add(label, [ClauseResult.at_most(f"quasiconvex_margin_n{n}",
                                                   margin, 1e-12)])
    return suite


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
    suite = SuiteReport()
    for k in (1, 2):
        instance = build_blindspot_graph(k, 6, seed + k)
        suite.add(f"blindspot_k{k}", verify_blindspot(instance, 50, seed + 10 + k))
    return suite


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
