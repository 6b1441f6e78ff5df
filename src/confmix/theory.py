"""Brute-force and analytic oracles for the optimization theory.

Everything here works on plain numpy arrays, independent of the
differentiation engine, so these oracles can sit on the other side of
dual-route checks. The central tool is exhaustive search over a
rational grid on the probability simplex; tolerances are derived from
the grid spacing via data-driven gradient bounds on the sublevel set
actually explored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .confidence import (CappedLinearGate, ConfidenceSpec, LearnableGate,
                         StepGate, TwoLevelGate, _dispersion_rows_np, _gate_kind,
                         confidence_batch, quasiconvexity_witness_search)
from .errors import ConfigError, DomainError
from .experts import ExpertArch, ExpertModel, Layer, gcn_forward, init_expert
from .graphs import BlindspotInstance, build_blindspot_graph, validate_blindspot
from .mixture import infer_expected
from .training import predict

# ---- simplex grid ----


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


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

    @classmethod
    def build(cls, n: int, m: int) -> "SimplexGrid":
        if n < 2 or m < 2:
            raise ConfigError(f"need n >= 2 and m >= 2, got n={n} m={m}")
        ints = np.array(list(_compositions(m, n)), dtype=np.int64)
        return cls(n, m, ints, ints / float(m))

    @property
    def spacing(self) -> float:
        return 1.0 / self.m

    def __len__(self):
        return self.ints.shape[0]

    def expected_count(self) -> int:
        return math.comb(self.m + self.n - 1, self.n - 1)


# ---- per-group objective pieces ----

def alpha_loss(p, alpha) -> float:
    """Average cross-entropy of the constant prediction p under label mix
    alpha, with the package-wide clamp floor inside the log."""
    p = np.asarray(p, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if abs(p.sum() - 1.0) > 1e-9 or p.min() < -1e-9:
        raise DomainError(f"prediction off the simplex: {p!r}")
    if abs(alpha.sum() - 1.0) > 1e-9 or alpha.min() < -1e-9:
        raise DomainError(f"label distribution off the simplex: {alpha!r}")
    return float(-np.log(np.clip(p, T.LOG_FLOOR, 1.0)) @ alpha)


def alpha_loss_grid(points: np.ndarray, alpha) -> np.ndarray:
    return -np.log(np.clip(points, T.LOG_FLOOR, 1.0)) @ np.asarray(alpha, dtype=np.float64)


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
        if alpha.min() <= 0.0 or alpha.max() >= 1.0:
            raise ConfigError("alpha must be strictly interior to the simplex")
        if abs(alpha.sum() - 1.0) > 1e-9:
            raise ConfigError("alpha must sum to 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mu", float(self.mu))


@dataclass(frozen=True)
class GroupMinimum:
    point: np.ndarray
    value: float
    conf: float
    loss: float
    index: int


def group_min(problem: GroupProblem, grid: SimplexGrid) -> GroupMinimum:
    """Exhaustive minimization over the grid; first (lexicographically
    smallest) point among exact ties."""
    if grid.n != problem.n:
        raise ConfigError(f"grid dimension {grid.n} != problem dimension {problem.n}")
    losses = alpha_loss_grid(grid.points, problem.alpha)
    conf = confidence_batch(grid.points, problem.spec)
    objective = conf * (losses - problem.mu)
    idx = int(np.argmin(objective))
    return GroupMinimum(grid.points[idx].copy(), float(objective[idx]),
                        float(conf[idx]), float(losses[idx]), idx)


# ---- theorem clause verification ----

@dataclass(frozen=True)
class ClauseResult:
    clause: str
    measured: float
    tolerance: float
    passed: bool


@dataclass
class CaseReport:
    case: int
    n: int
    alpha: np.ndarray
    mu: float
    spec_label: str
    clauses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


def spec_label(spec: ConfidenceSpec) -> str:
    gate = spec.gate
    if isinstance(gate, LearnableGate):
        return f"{spec.dispersion}+learnable"
    args = ",".join(f"{name}={value:g}" for name, value in asdict(gate).items())
    return f"{spec.dispersion}+{_gate_kind(gate)}({args})"


def _grad_bound(alpha: np.ndarray, sub_points: np.ndarray, m: int) -> float:
    """Gradient bound of the group loss over the explored sublevel set,
    floored per coordinate at one grid spacing."""
    floor = np.maximum(sub_points.min(axis=0), 1.0 / m)
    return float((alpha / floor).max())


def verify_theorem_case(problem: GroupProblem, grid: SimplexGrid) -> CaseReport:
    """Check the minimizer clauses for whichever case delta-vs-mu selects.

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
    report = CaseReport(0, problem.n, alpha, mu, spec_label(spec))

    if gap > mu:
        report.case = 1
        report.clauses = [
            ClauseResult("objective_zero", abs(result.value), 0.0,
                         result.value == 0.0),
            ClauseResult("minimizer_uniform",
                         float(np.abs(result.point - uniform).max()), 0.0,
                         bool(np.array_equal(result.point, uniform))),
            ClauseResult("confidence_zero", result.conf, 0.0, result.conf == 0.0),
        ]
        return report

    if gap == mu:
        report.case = 2
        to_alpha = float(np.abs(result.point - alpha).max())
        to_uniform = float(np.abs(result.point - uniform).max())
        # the loss at the alpha grid point and mu = delta(alpha) come from
        # two dot-product kernels that may differ in the last ulp
        float_tol = 16.0 * np.finfo(float).eps * max(1.0, abs(mu))
        report.clauses = [
            ClauseResult("objective_zero", abs(result.value), float_tol,
                         abs(result.value) <= float_tol),
            ClauseResult("minimizer_alpha_or_uniform",
                         min(to_alpha, to_uniform), grid.spacing,
                         min(to_alpha, to_uniform) <= grid.spacing),
        ]
        return report

    report.case = 3
    losses = alpha_loss_grid(grid.points, alpha)
    sub_mask = losses <= mu
    k_bound = _grad_bound(alpha, grid.points[sub_mask], grid.m)
    tol_obj = 10.0 * k_bound / grid.m

    sublevel_slack = result.loss - mu

    conf_alpha = confidence_batch(alpha[None, :], spec)[0]
    eps_c = tol_obj / max(mu - result.loss, tol_obj)
    lower_gap = float(conf_alpha - result.conf)

    sub_floor = max(float(grid.points[sub_mask].min()), 1.0 / grid.m)
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
        band_mask = np.abs(losses - mu) <= band
        if not band_mask.any():
            band_mask = np.abs(losses - mu) <= np.abs(losses - mu).min() + 1e-15
        disp = _dispersion_rows_np(grid.points, spec.dispersion)
        d_band_max = float(disp[band_mask].max())
        upper_cap = float(spec.gate(d_band_max + 10.0 * k_disp / grid.m))
    upper_gap = float(result.conf - upper_cap)

    report.clauses = [
        ClauseResult("minimizer_in_strict_sublevel", sublevel_slack, 0.0,
                     sublevel_slack < 0.0),
        ClauseResult("confidence_at_least_at_alpha", lower_gap, eps_c,
                     lower_gap <= eps_c),
        ClauseResult("confidence_below_levelset_cap", upper_gap, 0.0,
                     upper_gap <= 0.0),
    ]
    return report


def resolvable_mu_cap(alpha, m: int, steps: float = 6.0) -> float:
    """Largest mu whose level set keeps every coordinate above steps/m.

    As coordinate j shrinks along the level set the other coordinates
    approach their conditional mix, so the loss there is about
    rest_entropy_j + alpha_j * (-log p_j); inverting at p_j = steps/m
    caps mu per coordinate.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    caps = []
    for j in range(alpha.size):
        others = np.delete(alpha, j)
        rest = -(others * np.log(others / (1.0 - alpha[j]))).sum()
        caps.append(rest + alpha[j] * np.log(m / steps))
    return float(min(caps))


def verify_step_tightness(alpha, mu, grid: SimplexGrid,
                          dispersion: str = "variance") -> ClauseResult:
    """All-or-nothing gate pins the minimizer onto alpha (case 3 only)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if delta(alpha) >= mu:
        raise ConfigError("step tightness needs delta(alpha) < mu")
    spec = ConfidenceSpec(dispersion, StepGate(0.0))
    result = group_min(GroupProblem(alpha.size, alpha, mu, spec), grid)
    measured = float(np.abs(result.point - alpha).max())
    tol = grid.spacing + 1e-15
    return ClauseResult("step_minimizer_at_alpha", measured, tol, measured <= tol)


@dataclass(frozen=True)
class TightnessReport:
    alpha: np.ndarray
    mu: float
    eta: float
    beta: float
    beta_bound: float
    beta_inside_bound: bool
    d_max: float
    minimizer_loss: float
    window_tolerance: float
    in_window: bool


def verify_tightness(alpha, mu: float, eta: float, beta: float,
                     grid: SimplexGrid,
                     dispersion: str = "variance") -> TightnessReport:
    """Two-level gate forces the minimizer into the loss window [mu-eta, mu).

    The gate's knee sits at the max dispersion over the grid sublevel set
    {loss <= mu - eta}; with beta strictly inside (0, eta/(mu - delta)),
    the grid minimizer's loss must land in the window up to grid error
    (the lower edge gets the grid tolerance; the upper edge is strict).
    A beta outside its bound is allowed through so callers can record
    the expected failure.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    gap = delta(alpha)
    if eta <= 0.0:
        raise ConfigError(f"eta must be > 0, got {eta}")
    if gap >= mu - eta:
        raise ConfigError(
            f"infeasible window: delta(alpha)={gap:.6g} >= mu-eta={mu - eta:.6g}")
    losses = alpha_loss_grid(grid.points, alpha)
    sub_mask = losses <= mu - eta
    if not sub_mask.any():
        raise ConfigError("empty sublevel set at mu - eta on this grid")
    disp = _dispersion_rows_np(grid.points, dispersion)
    d_max = float(disp[sub_mask].max())
    beta_bound = eta / (mu - gap)
    spec = ConfidenceSpec(dispersion, TwoLevelGate(d_max, beta))
    result = group_min(GroupProblem(alpha.size, alpha, mu, spec), grid)
    k_bound = _grad_bound(alpha, grid.points[losses <= mu], grid.m)
    window_tol = 4.0 * k_bound / grid.m
    in_window = (mu - eta - window_tol <= result.loss < mu)
    return TightnessReport(alpha, mu, eta, beta, beta_bound,
                           0.0 < beta < beta_bound, d_max, result.loss,
                           window_tol, in_window)


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
    Converges to the floor when mu exceeds the loss there.
    """
    lo, hi = _BRANCH_FLOOR, alpha1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
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
        ClauseResult("minimizer_not_below_alpha1", alpha1 - p1, 1e-15,
                     alpha1 - p1 <= 1e-15),
        ClauseResult("minimizer_below_branch_inverse",
                     p1 - (bounds.upper + grid.spacing), 1e-15,
                     p1 <= bounds.upper + grid.spacing + 1e-15),
    ]


# ---- problem samplers ----

def _fixed_specs_for(alpha: np.ndarray, rng) -> list:
    """A rotation of conforming fixed specs sized to the problem."""
    kinds = ("variance", "neg_entropy")
    specs = []
    for kind in kinds:
        d_alpha = float(_dispersion_rows_np(alpha[None, :], kind)[0])
        specs.append(ConfidenceSpec(kind, StepGate(0.0)))
        specs.append(ConfidenceSpec(kind, TwoLevelGate(
            d_max=float(rng.uniform(0.3, 1.7)) * max(d_alpha, 1e-6),
            beta=float(rng.uniform(0.2, 0.8)))))
        specs.append(ConfidenceSpec(kind, CappedLinearGate(
            slope=float(rng.uniform(0.5, 3.0)))))
    return specs


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
        spec = _fixed_specs_for(alpha, rng)[i % 6]
        problems.append(GroupProblem(2, alpha, mu, spec))
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
        spec = _fixed_specs_for(alpha, rng)[i % 6]
        problems.append(GroupProblem(3, alpha, mu, spec))
    return problems


# ---- expressivity separation ----

@dataclass(frozen=True)
class BlindspotReport:
    max_output_gap: float
    weak_class_u: int
    weak_class_v: int
    distinguishes_roots: bool
    matches_strong_elsewhere: bool


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
                     seed: int) -> BlindspotReport:
    """(a) every random convolution confuses the roots; (b) the gated
    mixture with an all-or-nothing gate tells them apart and hands every
    other node to the strong expert unchanged."""
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
        probs = gcn_forward(strong, g, g.features).values
        worst = max(worst, float(np.abs(probs[u] - probs[v]).max()))

    weak = build_root_separator(instance)
    pw, ps, conf = predict(weak, strong, ConfidenceSpec("variance", StepGate(0.0)), g)
    _, pred = infer_expected(pw, ps, conf)
    strong_pred = ps.argmax(axis=1)
    mask = np.ones(g.num_nodes, dtype=bool)
    mask[[u, v]] = False
    return BlindspotReport(
        max_output_gap=worst,
        weak_class_u=int(pw[u].argmax()),
        weak_class_v=int(pw[v].argmax()),
        distinguishes_roots=bool(pred[u] != pred[v]),
        matches_strong_elsewhere=bool(np.array_equal(pred[mask], strong_pred[mask])),
    )


# ---- suite runner ----

@dataclass
class SuiteReport:
    rows: list = field(default_factory=list)   # CSV-ready tuples

    @property
    def passed(self) -> bool:
        return all(row[-1] for row in self.rows)

    def add_case(self, report: CaseReport):
        alpha_str = "/".join(f"{a:.6g}" for a in report.alpha)
        for c in report.clauses:
            self.rows.append((report.case, report.n, alpha_str,
                              report.mu, report.spec_label, c.clause,
                              c.measured, c.tolerance, c.passed))

    def add_clause(self, label: str, clause: ClauseResult):
        self.rows.append((0, 0, "", 0.0, label, clause.clause,
                          clause.measured, clause.tolerance, clause.passed))

    def write_csv(self, path):
        import csv
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["case", "n", "alpha", "mu", "spec", "clause",
                             "measured", "tolerance", "pass"])
            for row in self.rows:
                out = []
                for x in row:
                    if isinstance(x, float):
                        out.append(f"{x:.12g}")
                    elif isinstance(x, (bool, np.bool_)):
                        out.append("1" if x else "0")
                    else:
                        out.append(str(x))
                writer.writerow(out)


def run_theorem_suite(binary_count: int = 200, ternary_count: int = 20,
                      seed: int = 0, binary_resolution: int = 2000,
                      ternary_resolution: int = 300) -> SuiteReport:
    suite = SuiteReport()
    grid2 = SimplexGrid.build(2, binary_resolution)
    for problem in sample_binary_problems(binary_count, seed, binary_resolution):
        suite.add_case(verify_theorem_case(problem, grid2))
    grid3 = SimplexGrid.build(3, ternary_resolution)
    for problem in sample_ternary_problems(ternary_count, seed + 1,
                                           ternary_resolution):
        suite.add_case(verify_theorem_case(problem, grid3))
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
        suite.add_clause(f"step_tightness[{i}]",
                         verify_step_tightness(alpha, mu, grid, kind))
    grid5 = SimplexGrid.build(2, 5000)
    eta = 0.05
    problems = sample_tightness_problems(20, seed + 1, m=5000, eta=eta)
    for i, (alpha, mu, kind) in enumerate(problems):
        beta = 0.5 * eta / (mu - delta(alpha))
        report = verify_tightness(alpha, mu, eta, beta, grid5, kind)
        suite.add_clause(f"window_tightness[{i}]", ClauseResult(
            "beta_inside_bound", report.beta - report.beta_bound, 0.0,
            report.beta_inside_bound))
        lo_slack = (report.mu - report.eta) - report.minimizer_loss
        suite.add_clause(f"window_tightness[{i}]", ClauseResult(
            "minimizer_in_loss_window", max(lo_slack, 0.0),
            report.window_tolerance, report.in_window))
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
        for clause in verify_binary_corollary(a1, mu, grid, spec):
            suite.add_clause(f"binary_corollary[{i}]", clause)
    return suite


def quasiconvexity_suite(seed: int, corrupt: bool = False) -> SuiteReport:
    """10,000 random mixtures per spec and n in (2, 3): the six fixed
    specs, or with `corrupt` the planted non-monotone learnable gate."""
    specs = [
        ("variance+step0", ConfidenceSpec("variance", StepGate(0.0))),
        ("neg_entropy+step0", ConfidenceSpec("neg_entropy", StepGate(0.0))),
        ("variance+two_level", ConfidenceSpec("variance", TwoLevelGate(0.1, 0.4))),
        ("neg_entropy+two_level", ConfidenceSpec("neg_entropy", TwoLevelGate(0.2, 0.3))),
        ("variance+capped", ConfidenceSpec("variance", CappedLinearGate(2.0))),
        ("neg_entropy+capped", ConfidenceSpec("neg_entropy", CappedLinearGate(1.0))),
    ]
    if corrupt:
        gate = LearnableGate.create(seed=seed, hidden=4)
        # planted bump: confidence rises with dispersion then falls,
        # a deliberate quasiconvexity violation
        gate.weights[0][0].values = np.array([[1.0, 1.0, 0.0, 0.0],
                                              [0.0, 0.0, 0.0, 0.0]])
        gate.weights[0][1].values = np.array([-0.05, -0.15, 0.0, 0.0])
        gate.weights[1][0].values = np.array([[20.0, 0.0], [-40.0, 0.0],
                                              [0.0, 0.0], [0.0, 0.0]])
        gate.weights[1][1].values = np.zeros(2)
        specs = [("corrupted+learnable", ConfidenceSpec("variance", gate))]
    suite = SuiteReport()
    for n in (2, 3):
        for label, spec in specs:
            margin = quasiconvexity_witness_search(spec, 10_000, seed, n=n)
            suite.add_clause(label, ClauseResult(
                f"quasiconvex_margin_n{n}", margin, 1e-12, margin <= 1e-12))
    return suite


def blindspot_suite(seed: int) -> SuiteReport:
    """Blindspot instances k = 1, 2 built from seed + k, with 50 weight
    draws from seed + 10 + k."""
    suite = SuiteReport()
    for k in (1, 2):
        instance = build_blindspot_graph(k, 6, seed + k)
        report = verify_blindspot(instance, 50, seed + 10 + k)
        suite.add_clause(f"blindspot_k{k}", ClauseResult(
            "conv_output_gap", report.max_output_gap, 1e-9,
            report.max_output_gap < 1e-9))
        suite.add_clause(f"blindspot_k{k}", ClauseResult(
            "mixture_distinguishes_roots", float(not report.distinguishes_roots),
            0.0, report.distinguishes_roots))
        suite.add_clause(f"blindspot_k{k}", ClauseResult(
            "mixture_matches_strong_elsewhere",
            float(not report.matches_strong_elsewhere), 0.0,
            report.matches_strong_elsewhere))
    return suite


# suite name -> builder of the run seed. Each suite draws from its own
# offset of that seed; "all" runs every suite but planted_fault, whose
# clauses are meant to fail.
SUITES = {
    "theorem": lambda seed: run_theorem_suite(seed=seed),
    "tightness": lambda seed: tightness_suite(seed + 101),
    "binary": lambda seed: binary_suite(seed + 202),
    "quasiconvexity": lambda seed: quasiconvexity_suite(seed + 303),
    "blindspot": lambda seed: blindspot_suite(seed + 404),
    "planted_fault": lambda seed: quasiconvexity_suite(seed + 303, corrupt=True),
}
