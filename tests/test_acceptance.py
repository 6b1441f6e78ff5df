"""Acceptance suite: one test per headline criterion, at the tolerances
fixed up front. Each test prints a single PASS/FAIL line (visible with
pytest -rA) before asserting."""

import numpy as np

from confmix.confidence import (CappedLinearGate, ConfidenceSpec, StepGate,
                                TwoLevelGate, confidence_batch,
                                confidence_rows, dispersion)
from confmix.experts import ExpertArch, forward, init_expert
from confmix.graphs import (build_blindspot_graph, build_graph, cost_estimate,
                            generate_specialization_graph, khop_sizes,
                            specialization_groups)
from confmix.mixture import blend_loss, infer_stochastic, mixture_loss
from confmix.tensor import check_gradient, nll_rows
from confmix.theory import (binary_suite, delta, quasiconvexity_witness_search,
                            run_theorem_suite, tightness_suite, verify_blindspot)
from confmix.training import TrainConfig, evaluate, single_expert_baseline, train


def report(name: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {state}  {detail}")
    assert ok, f"{name}: {detail}"


def test_minimizer_theorem_suite():
    """200 binary (resolution 2000) + 20 ternary (resolution 300) problems
    across all three cases and the three fixed gate families."""
    suite = run_theorem_suite(200, 20, seed=0)
    cases = {row[0] for row in suite.rows}
    gates = {row[4].split("+")[1].split("(")[0] for row in suite.rows}
    failed = [row for row in suite.rows if not row[-1]]
    detail = (f"{len(suite.rows)} clauses, {len(failed)} failed, "
              f"cases={sorted(cases)}, gates={sorted(gates)}")
    ok = not failed and cases == {1, 2, 3} and \
        gates == {"step", "two_level", "capped_linear"}
    report("minimizer-theorem-suite", ok, detail)


def passed_by_label(suite, prefix: str) -> list:
    """Per problem label starting with prefix: whether all its clauses passed."""
    ok = {}
    for row in suite.rows:
        if row[4].startswith(prefix):
            ok[row[4]] = ok.get(row[4], True) and bool(row[-1])
    return list(ok.values())


def test_tightness_constructions():
    """Step gate pins the minimizer on alpha (50 problems); two-level gate
    with beta inside its bound pins the loss into [mu-eta, mu) (20
    problems, eta=0.05, resolution 5000)."""
    suite = tightness_suite(seed=1)
    step_ok = passed_by_label(suite, "step_tightness")
    window_ok = passed_by_label(suite, "window_tightness")
    ok = all(step_ok) and all(window_ok) and len(step_ok) == 50 \
        and len(window_ok) == 20
    report("tightness-constructions", ok,
           f"step {sum(step_ok)}/50, window {sum(window_ok)}/20")


def test_binary_corollary():
    """50 random (alpha1, mu > delta): grid minimizer's first coordinate in
    [alpha1, branch-inverse + spacing], bisection residual < 1e-9."""
    results = passed_by_label(binary_suite(seed=2), "binary_corollary")
    ok = all(results) and len(results) == 50
    report("binary-corollary", ok, f"{sum(results)}/50 problems")


def test_quasiconvexity():
    """1e4 random mixtures per fixed spec stay within 1e-12 of the
    quasiconvexity bound; strict decrease spot-checked on 1e3 pairs."""
    specs = [
        ConfidenceSpec("variance", StepGate(0.0)),
        ConfidenceSpec("neg_entropy", StepGate(0.0)),
        ConfidenceSpec("variance", TwoLevelGate(0.1, 0.4)),
        ConfidenceSpec("neg_entropy", TwoLevelGate(0.25, 0.6)),
        ConfidenceSpec("variance", CappedLinearGate(2.0)),
        ConfidenceSpec("neg_entropy", CappedLinearGate(1.0)),
    ]
    worst = -np.inf
    for i, spec in enumerate(specs):
        for n in (2, 3):
            worst = max(worst, quasiconvexity_witness_search(spec, 10_000,
                                                             seed=i, n=n))
    rng = np.random.default_rng(3)
    strict_ok = True
    for _ in range(1000):
        p, q = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        lam = rng.uniform(0.05, 0.95)
        mid = lam * p + (1 - lam) * q
        for kind in ("variance", "neg_entropy"):
            top = max(dispersion(p, kind), dispersion(q, kind))
            strict_ok &= dispersion(mid, kind) < top + 1e-15
    ok = worst <= 1e-12 and strict_ok
    report("quasiconvexity", ok, f"worst margin {worst:.3e}")


def test_group_loss_minimizer_and_concavity(grid2, grid3):
    """Grid argmin of the group loss lands within one spacing of alpha on
    100 random draws; the best-loss function is concave on 1e3 triples."""
    rng = np.random.default_rng(4)
    argmin_ok = []
    for i in range(100):
        if i % 5 == 4:
            alpha = rng.dirichlet(np.ones(3))
            while alpha.min() < 0.05:
                alpha = rng.dirichlet(np.ones(3))
            grid = grid3
        else:
            a1 = float(rng.uniform(0.51, 0.97))
            alpha = np.array([a1, 1.0 - a1])
            grid = grid2
        losses = grid.neg_logs @ alpha
        best = grid.points[int(np.argmin(losses))]
        argmin_ok.append(np.abs(best - alpha).max() <= grid.spacing)
    concave_ok = True
    for _ in range(1000):
        a, b = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
        lam = rng.uniform(0.0, 1.0)
        lhs = delta(lam * a + (1 - lam) * b)
        concave_ok &= lhs >= lam * delta(a) + (1 - lam) * delta(b) - 1e-12
    ok = all(argmin_ok) and concave_ok
    report("group-loss-minimizer", ok,
           f"argmin {sum(argmin_ok)}/100, concavity {concave_ok}")


def test_blend_bound():
    """Blend loss never exceeds the mixture loss (+1e-12) on 1e3 random
    instances, with exact equality at gate values 0 and 1."""
    rng = np.random.default_rng(5)
    bound_ok, exact_ok = True, True
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        nodes = int(rng.integers(1, 8))
        pw = rng.dirichlet(np.ones(n), size=nodes)
        ps = rng.dirichlet(np.ones(n), size=nodes)
        c = rng.uniform(0, 1, nodes)
        y = rng.integers(0, n, nodes)
        bound_ok &= (blend_loss(pw, ps, c, y).item()
                     <= mixture_loss(pw, ps, c, y).item() + 1e-12)
        for v in (0.0, 1.0):
            cv = np.full(nodes, v)
            exact_ok &= (blend_loss(pw, ps, cv, y).item()
                         == mixture_loss(pw, ps, cv, y).item())
    report("blend-bound", bound_ok and exact_ok,
           f"bound {bound_ok}, boundary equality {exact_ok}")


def test_gradient_correctness():
    """Reverse-mode gradients of both losses composed with both experts
    match central differences (h=1e-5) within 1e-4 on a 6-node graph,
    over 10 seeds."""
    rng = np.random.default_rng(6)
    g = build_graph(6, 2, rng.standard_normal((6, 3)), [0, 1, 0, 1, 1, 0],
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
                    {"train": [0, 1, 2, 3], "val": [4], "test": [5]})
    spec = ConfidenceSpec("variance", CappedLinearGate(2.0))
    worst = 0.0
    for seed in range(10):
        weak = init_expert(ExpertArch("weak", 2, 5), 3, 2, seed)
        strong = init_expert(ExpertArch("gcn", 2, 5), 3, 2, seed + 100)
        params = list(weak.parameters()) + list(strong.parameters())
        for loss_fn in (mixture_loss, blend_loss):
            def fn(inputs):
                pw = forward(weak, g)
                ps = forward(strong, g)
                return loss_fn(pw, ps, confidence_rows(pw, spec), g.labels)
            worst = max(worst, check_gradient(fn, params, 1e-5))
    report("gradient-correctness", worst < 1e-4, f"max rel err {worst:.3e}")


def test_expressivity_separation():
    """Blindspot instances (k=1,2): 50 random convolutions agree on the two
    roots within 1e-9, while the gated mixture splits them and follows the
    strong expert everywhere else."""
    details = []
    ok = True
    for k in (1, 2):
        instance = build_blindspot_graph(k, 6, seed=7 + k)
        clauses = {c.clause: c for c in verify_blindspot(instance, 50, seed=70 + k)}
        ok &= (clauses["conv_output_gap"].measured < 1e-9
               and clauses["mixture_distinguishes_roots"].passed
               and clauses["mixture_matches_strong_elsewhere"].passed)
        details.append(f"k={k} gap={clauses['conv_output_gap'].measured:.2e}")
    report("expressivity-separation", ok, "; ".join(details))


def test_specialization_dynamics():
    """Seed-7 default run: mean final confidence on the feature-signal
    group beats the structure-signal group by >= 0.2, and the mixture's
    test accuracy is within 0.01 of the best single expert."""
    graph = generate_specialization_graph(100, 8, 0.1, seed=7)
    config = TrainConfig(seed=7)
    result = train(config, graph)
    feature_nodes, structure_nodes = specialization_groups(graph)
    train_ids = graph.splits["train"]
    conf = confidence_batch(forward(result.weak, graph).values, result.spec)
    gap = (conf[train_ids[np.isin(train_ids, feature_nodes)]].mean()
           - conf[train_ids[np.isin(train_ids, structure_nodes)]].mean())
    scores = evaluate(result.weak, result.strong, result.spec, graph, "test",
                      config.gate_seed)
    test_ids = graph.splits["test"]
    bests = []
    for arch, seed in ((config.weak_arch, 7), (config.strong_arch, 8)):
        model = single_expert_baseline(arch, graph, seed=seed)
        pred = forward(model, graph).values.argmax(1)
        bests.append(float((pred[test_ids] == graph.labels[test_ids]).mean()))
    ok = gap >= 0.2 and scores["expected"] >= max(bests) - 0.01
    report("specialization-dynamics", ok,
           f"confidence gap {gap:.3f}, mixture {scores['expected']:.3f} vs "
           f"single-expert best {max(bests):.3f}")


def test_stochastic_gate_consistency():
    """Weak-expert firing frequency tracks the confidence within 0.02 over
    1e4 seeded draws; the mean gated loss sits within 3 standard errors of
    the mixture loss at 1e5 samples."""
    rng = np.random.default_rng(8)
    nodes = 50
    pw = rng.dirichlet(np.ones(2), size=nodes)
    ps = rng.dirichlet(np.ones(2), size=nodes)
    c = rng.uniform(0.0, 1.0, nodes)
    y = rng.integers(0, 2, nodes)
    fired = np.zeros(nodes)
    draws = 10_000
    for t in range(draws):
        _, flags = infer_stochastic(pw, ps, c, seed=t)
        fired += flags
    freq_gap = np.abs(fired / draws - c).max()

    target = mixture_loss(pw, ps, c, y).item()
    ce_w = nll_rows(pw, y).values
    ce_s = nll_rows(ps, y).values
    big = 100_000
    u = np.random.default_rng(9).uniform(size=(big, nodes))
    per_draw = np.where(u < c, ce_w, ce_s).mean(axis=1)
    se = per_draw.std(ddof=1) / np.sqrt(big)
    loss_gap = abs(per_draw.mean() - target)
    ok = freq_gap <= 0.02 and loss_gap <= 3 * se
    report("stochastic-gate-consistency", ok,
           f"max freq gap {freq_gap:.4f}, loss gap {loss_gap:.2e} "
           f"(3se={3 * se:.2e})")


def test_cost_model():
    """Edgeless graphs price the convolution like the feature-only stack;
    the skip variant doubles it; the 3-node path matches hand counting."""
    iso = build_graph(5, 2, np.zeros((5, 2)), [0, 1, 0, 1, 0], [],
                      {"train": [0], "val": [], "test": []})
    edgeless_equal = (cost_estimate(iso, 256, 3, "gcn")
                      == cost_estimate(iso, 256, 3, "weak") == 196608.0)
    spec_graph = generate_specialization_graph(50, 4, 0.1, seed=10)
    skip_double = (cost_estimate(spec_graph, 32, 3, "gcn_skip")
                   == 2 * cost_estimate(spec_graph, 32, 3, "gcn"))
    path = build_graph(3, 2, np.zeros((3, 2)), [0, 1, 0], [(0, 1), (1, 2)],
                       {"train": [0], "val": [], "test": []})
    b = khop_sizes(path, 2)
    hand = 4.0 * (1.0 + 7.0 / 3.0)
    path_exact = (b == [1.0, 7.0 / 3.0]
                  and cost_estimate(path, 2, 2, "gcn") == hand)
    ok = edgeless_equal and skip_double and path_exact
    report("cost-model", ok,
           f"edgeless {edgeless_equal}, skip x2 {skip_double}, path {path_exact}")
