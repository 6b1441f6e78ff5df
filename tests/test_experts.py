"""Expert forward passes: values, locality, equivariance, checkpoints."""

import numpy as np
import pytest

from confmix.errors import ShapeError
from confmix.experts import (ExpertArch, expert_from_document,
                             expert_to_document, gcn_forward, init_expert,
                             load_expert, save_expert, weak_forward)
from confmix.graphs import build_blindspot_graph, build_graph
from confmix import tensor as T


def two_node_graph():
    return build_graph(2, 2, np.array([[1.0, 2.0], [3.0, -1.0]]), [0, 1],
                       [(0, 1)], {"train": [0], "val": [], "test": [1]})


def test_zero_weights_give_uniform_rows():
    model = init_expert(ExpertArch("weak", 2, 4), 3, 2, seed=0)
    for layer in model.layers:
        layer.weight.values = np.zeros_like(layer.weight.values)
    out = weak_forward(model, np.random.default_rng(0).standard_normal((5, 3)))
    assert np.array_equal(out.values, np.full((5, 2), 0.5))


def test_identical_rows_identical_outputs():
    model = init_expert(ExpertArch("weak", 2, 8), 4, 3, seed=1)
    x = np.tile(np.array([0.3, -1.0, 2.0, 0.5]), (6, 1))
    out = weak_forward(model, x).values
    assert np.array_equal(out, np.tile(out[0], (6, 1)))


def test_single_layer_identity_softmax():
    model = init_expert(ExpertArch("weak", 1), 2, 2, seed=0)
    model.layers[0].weight.values = np.eye(2)
    model.layers[0].bias.values = np.zeros(2)
    out = weak_forward(model, np.array([[np.log(3.0), 0.0]]))
    assert np.allclose(out.values, [[0.75, 0.25]], atol=1e-15)


def test_gcn_on_edgeless_equals_weak():
    g = build_graph(4, 2, np.random.default_rng(2).standard_normal((4, 3)),
                    [0, 1, 0, 1], [], {"train": [0], "val": [], "test": []})
    model = init_expert(ExpertArch("gcn", 2, 5), 3, 2, seed=3)
    assert np.array_equal(gcn_forward(model, g, g.features).values,
                          weak_forward(model, g.features).values)


def test_gcn_two_node_hand_computation():
    g = two_node_graph()
    model = init_expert(ExpertArch("gcn", 1), 2, 2, seed=4)
    w = model.layers[0].weight.values
    b = model.layers[0].bias.values
    # both nodes have degree 1: self and neighbor coefficients are 1/2
    agg = 0.5 * g.features + 0.5 * g.features[::-1]
    logits = agg @ w + b
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected = exp / exp.sum(axis=1, keepdims=True)
    got = gcn_forward(model, g, g.features).values
    assert np.abs(got - expected).max() < 1e-12


def test_blindspot_confusion_over_random_draws():
    instance = build_blindspot_graph(1, 4, seed=5)
    g = instance.graph
    rng = np.random.default_rng(0)
    for _ in range(50):
        model = init_expert(ExpertArch("gcn", 1, 4), 4, 2, seed=int(rng.integers(2**31)))
        out = gcn_forward(model, g, g.features).values
        assert np.abs(out[instance.u] - out[instance.v]).max() < 1e-9


def test_locality_outside_receptive_field():
    # path 0-1-2-3-4; a 2-layer conv sees 2 hops: node 0 ignores node 3 and 4
    g = build_graph(5, 2, np.random.default_rng(1).standard_normal((5, 3)),
                    [0, 1, 0, 1, 0], [(0, 1), (1, 2), (2, 3), (3, 4)],
                    {"train": [0], "val": [], "test": []})
    model = init_expert(ExpertArch("gcn", 2, 4), 3, 2, seed=6)
    base = gcn_forward(model, g, g.features).values[0].copy()
    bumped = g.features.copy()
    bumped[3] += 10.0
    bumped[4] -= 5.0
    after = gcn_forward(model, g, bumped).values[0]
    assert np.array_equal(base, after)


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((6, 3))
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]
    g = build_graph(6, 2, feats, [0, 1, 0, 1, 0, 1], edges,
                    {"train": [0], "val": [], "test": []})
    perm = np.array([3, 0, 5, 1, 4, 2])
    inv = np.argsort(perm)
    pedges = [(int(perm[a]), int(perm[b])) for a, b in edges]
    pg = build_graph(6, 2, feats[inv], np.array([0, 1, 0, 1, 0, 1])[inv], pedges,
                     {"train": [0], "val": [], "test": []})
    model = init_expert(ExpertArch("gcn", 2, 4), 3, 2, seed=10)
    base = gcn_forward(model, g, g.features).values
    permuted = gcn_forward(model, pg, pg.features).values
    assert np.allclose(permuted[perm], base, atol=1e-12)


def test_probability_rows_valid():
    rng = np.random.default_rng(11)
    g = build_graph(8, 3, rng.standard_normal((8, 4)), [0, 1, 2, 0, 1, 2, 0, 1],
                    [(i, (i + 1) % 8) for i in range(8)],
                    {"train": [0], "val": [], "test": []})
    for arch in (ExpertArch("weak", 2, 6), ExpertArch("gcn", 2, 6),
                 ExpertArch("gcn_skip", 2, 6)):
        model = init_expert(arch, 4, 3, seed=12)
        out = (weak_forward(model, g.features) if arch.kind == "weak"
               else gcn_forward(model, g, g.features)).values
        assert out.min() >= 0.0
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def test_gcn_skip_changes_output():
    g = two_node_graph()
    skip = init_expert(ExpertArch("gcn_skip", 2, 4), 2, 2, seed=13)
    plain = init_expert(ExpertArch("gcn", 2, 4), 2, 2, seed=13)
    assert not np.array_equal(gcn_forward(skip, g, g.features).values,
                              gcn_forward(plain, g, g.features).values)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    for arch in (ExpertArch("weak", 2, 5), ExpertArch("gcn_skip", 2, 5)):
        model = init_expert(arch, 3, 2, seed=14)
        path = tmp_path / f"{arch.kind}.json"
        save_expert(model, path)
        back = load_expert(path)
        assert back.kind == model.kind
        for mine, loaded in zip(model.layers, back.layers):
            assert np.array_equal(mine.weight.values, loaded.weight.values)
            assert np.array_equal(mine.bias.values, loaded.bias.values)
            if mine.skip_weight is not None:
                assert np.array_equal(mine.skip_weight.values,
                                      loaded.skip_weight.values)


def test_checkpoint_document_shape():
    model = init_expert(ExpertArch("weak", 2, 5), 3, 2, seed=15)
    doc = expert_to_document(model)
    assert doc["kind"] == "weak" and doc["dims"] == [3, 5, 2]
    back = expert_from_document(doc)
    assert np.array_equal(back.layers[0].weight.values,
                          model.layers[0].weight.values)


def test_feature_width_mismatch():
    model = init_expert(ExpertArch("weak", 1), 3, 2, seed=16)
    with pytest.raises(ShapeError):
        weak_forward(model, np.zeros((4, 5)))


def test_init_deterministic():
    a = init_expert(ExpertArch("gcn", 2, 4), 3, 2, seed=17)
    b = init_expert(ExpertArch("gcn", 2, 4), 3, 2, seed=17)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight.values, lb.weight.values)


def test_init_bound_scale():
    model = init_expert(ExpertArch("weak", 2, 64), 16, 4, seed=18)
    first = model.layers[0].weight.values
    assert np.abs(first).max() <= 1.0 / np.sqrt(16)


def test_gcn_backward_gives_constants_no_gradient():
    rng = np.random.default_rng(5)
    g = build_graph(5, 2, rng.standard_normal((5, 3)), [0, 1, 0, 1, 1],
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
                    {"train": [0, 1, 2], "val": [3], "test": [4]})
    model = init_expert(ExpertArch("gcn_skip", 2, 4), 3, 2, seed=6)
    feats = T.Tensor(g.features)
    mask = rng.uniform(-1.0, 1.0, (5, 2))

    def fn(params):
        return T.mean_all(T.log(gcn_forward(model, g, feats)) * mask)

    params = list(model.parameters())
    assert T.check_gradient(fn, params, 1e-5) < 1e-4
    assert g.coefficients.grad is None and feats.grad is None
    assert all(p.grad is not None for p in params)
