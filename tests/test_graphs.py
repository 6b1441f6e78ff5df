"""Graph storage, interchange format, generators, cost model."""

import dataclasses
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confmix import tensor as T
from confmix.errors import (ConfigError, GraphFormatError, GraphValidationError)
from confmix.graphs import (ARCHITECTURES, MAX_FEATURE_ENTRIES, BlindspotInstance,
                            build_blindspot_graph, build_graph, conv_rows, cost_estimate,
                            generate_specialization_graph, graph_from_document,
                            graph_to_document, khop_neighborhood, khop_sizes,
                            load_graph, save_graph, specialization_groups)
from confmix.theory import blindspot_cancellation_gap, validate_blindspot
from helpers import dense_coefficients, same_bits


def tiny_graph(**overrides):
    doc = {
        "num_nodes": 2,
        "num_classes": 2,
        "features": [[0.0, 1.0], [1.0, 0.0]],
        "labels": [0, 1],
        "edges": [[0, 1]],
        "splits": {"train": [0], "val": [], "test": [1]},
    }
    doc.update(overrides)
    return doc


def edge_pairs(g):
    """Graph.edge_arrays as a list of (lo, hi) pairs."""
    return list(zip(*(side.tolist() for side in g.edge_arrays())))


def write_doc(tmp_path, doc, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_smallest_graph_degrees(tmp_path):
    g = load_graph(write_doc(tmp_path, tiny_graph()))
    assert list(g.degrees) == [1, 1]


def test_symmetrization_collapses_duplicates(tmp_path):
    g = load_graph(write_doc(tmp_path, tiny_graph(edges=[[0, 1], [1, 0]])))
    assert edge_pairs(g) == [(0, 1)]
    assert list(g.degrees) == [1, 1]


def test_label_out_of_range_rejected(tmp_path):
    path = write_doc(tmp_path, tiny_graph(labels=[0, 2]))
    with pytest.raises(GraphValidationError) as err:
        load_graph(path)
    assert "node 1" in str(err.value)


def test_edge_endpoint_out_of_range(tmp_path):
    path = write_doc(tmp_path, tiny_graph(edges=[[0, 5]]))
    with pytest.raises(GraphValidationError) as err:
        load_graph(path)
    assert "(0, 5)" in str(err.value)


@pytest.mark.parametrize("edges, message", [
    ([[0, 1], [1, 1], [0, 1], [0, 5]], "edge #1 = (1, 1) is a self-loop"),
    ([[0, 1], [0, 5], [0, 1], [1, 1]], "edge #1 = (0, 5) has endpoint >= 2"),
    ([[0, 1], [-1, -1]], "edge #1 = (-1, -1) has endpoint >= 2"),
])
def test_first_offending_edge_named(tmp_path, edges, message):
    with pytest.raises(GraphValidationError) as err:
        load_graph(write_doc(tmp_path, tiny_graph(edges=edges)))
    assert str(err.value) == message


@pytest.mark.parametrize("edges", [[[0, 1, 1]], [[[0, 1]]], [[0], [1]], [[]], [[0, None]],
                                   [[0, 1e30]]])
def test_malformed_edges_rejected(edges):
    with pytest.raises(GraphValidationError):
        graph_from_document(tiny_graph(edges=edges))


def test_integral_floats_read_as_integers():
    g = graph_from_document(tiny_graph(
        num_nodes=2.0, num_classes=2.0, labels=[0.0, 1.0], edges=[[0.0, 1.0]],
        splits={"train": [0.0], "val": [], "test": [1.0]}))
    assert (g.num_nodes, g.num_classes) == (2, 2) and type(g.num_classes) is int
    assert g.labels.dtype == np.int64 and g.labels.tolist() == [0, 1]
    assert edge_pairs(g) == [(0, 1)] and g.splits["test"].tolist() == [1]


@pytest.mark.parametrize("override", [
    {"labels": [0, 1.5]}, {"labels": [0, True]}, {"labels": [0, "1"]},
    {"edges": [[0, True]]}, {"edges": [[0.0, 0.5]]},
    {"splits": {"train": ["0"], "val": [], "test": [1]}},
    {"splits": {"train": [0], "val": [], "test": [True]}},
    {"num_classes": 2.5}, {"num_classes": True}, {"num_nodes": "2"},
], ids=["label_fraction", "label_bool", "label_string", "endpoint_bool",
        "endpoint_fraction", "split_id_string", "split_id_bool",
        "num_classes_fraction", "num_classes_bool", "num_nodes_string"])
def test_non_integers_rejected(override):
    with pytest.raises(GraphValidationError, match="integer"):
        graph_from_document(tiny_graph(**override))


def test_csr_arrays_read_only():
    g = graph_from_document(tiny_graph())
    for arr in (g.indptr, g.indices):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_split_overlap_names_lowest_node():
    doc = tiny_graph(num_nodes=4, features=[[0.0]] * 4, labels=[0, 1, 0, 1],
                     edges=[], splits={"train": [3, 2, 1, 1], "val": [3], "test": [2]})
    # a repeat inside one split counts as much as one across two
    for splits, lowest in (({"train": [3, 2, 1, 1], "val": [3], "test": [2]}, 1),
                           ({"train": [3, 2, 1], "val": [3], "test": [2]}, 2),
                           ({"train": [3, 1, 1], "val": [], "test": [2]}, 1)):
        doc["splits"] = splits
        with pytest.raises(GraphValidationError) as err:
            graph_from_document(doc)
        assert str(err.value) == f"node {lowest} appears more than once across the splits"
    doc["splits"] = {"train": [3, 1], "val": [], "test": [2]}
    assert graph_from_document(doc).splits["train"].tolist() == [1, 3]


@st.composite
def edge_lists(draw):
    """(n, edges) on n <= 12 nodes with duplicates, both orientations and
    isolated nodes among the draws."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=20))
    flipped = [(b, a) for a, b in draw(st.lists(st.sampled_from(edges), max_size=5))] \
        if edges else []
    return n, draw(st.permutations(edges + flipped + edges[:draw(st.integers(0, 3))]))


@given(case=edge_lists())
@settings(max_examples=200, deadline=None)
def test_csr_matches_python_reference(case):
    n, edges = case
    g = build_graph(n, 1, np.zeros((n, 1)), [0] * n, edges, {})
    undirected = sorted({(min(a, b), max(a, b)) for a, b in edges})
    nbrs = [sorted([b for a, b in undirected if a == v] + [a for a, b in undirected if b == v])
            for v in range(n)]
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert g.indptr.tolist() == [0] + list(itertools.accumulate(len(x) for x in nbrs))
    assert g.indices.tolist() == [w for x in nbrs for w in x]
    assert edge_pairs(g) == undirected
    # a plain breadth-first search over `nbrs`: hop distances from each node
    dist = []
    for v in range(n):
        d, queue = {v: 0}, [v]
        for w in queue:
            for t in nbrs[w]:
                if t not in d:
                    d[t] = d[w] + 1
                    queue.append(t)
        dist.append(d)
    for k in range(n + 1):
        for v in range(n):
            assert khop_neighborhood(g, v, k) == {w for w, h in dist[v].items() if h <= k}
    for layers in range(1, n + 1):
        assert khop_sizes(g, layers) == [
            sum(h <= i for d in dist for h in d.values()) / n for i in range(layers)]


def test_self_loop_rejected(tmp_path):
    with pytest.raises(GraphValidationError):
        load_graph(write_doc(tmp_path, tiny_graph(edges=[[1, 1]])))


def test_ragged_features_rejected(tmp_path):
    doc = tiny_graph(features=[[0.0, 1.0], [1.0]])
    with pytest.raises(GraphValidationError) as err:
        load_graph(write_doc(tmp_path, doc))
    assert "row 1" in str(err.value)


@pytest.mark.parametrize("features, odd", [
    ([[1.0], [0.0, 1.0], [1.0, 0.0]], 0),
    ([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0, 0.0], [1.0]], 2),
])
def test_ragged_features_name_the_odd_row(tmp_path, features, odd):
    doc = tiny_graph(num_nodes=len(features), features=features)
    with pytest.raises(GraphValidationError, match=f"features row {odd} has ragged width"):
        load_graph(write_doc(tmp_path, doc))


def test_unknown_keys_rejected(tmp_path):
    doc = tiny_graph()
    doc["weights"] = [1.0]
    with pytest.raises(GraphValidationError) as err:
        load_graph(write_doc(tmp_path, doc))
    assert "weights" in str(err.value)


def test_overlapping_splits_rejected(tmp_path):
    doc = tiny_graph(splits={"train": [0], "val": [0], "test": [1]})
    with pytest.raises(GraphValidationError):
        load_graph(write_doc(tmp_path, doc))


def test_parse_error_carries_byte_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"num_nodes": 2,,}', encoding="utf-8")
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert "byte" in str(err.value)


def test_save_load_roundtrip(tmp_path):
    g = generate_specialization_graph(20, 3, 0.2, seed=5)
    path = tmp_path / "round.json"
    save_graph(g, path)
    back = load_graph(path)
    assert np.array_equal(back.features, g.features)
    assert np.array_equal(back.labels, g.labels)
    assert edge_pairs(back) == edge_pairs(g)
    for split in ("train", "val", "test"):
        assert np.array_equal(back.splits[split], g.splits[split])


def homophily_ratio(graph, nodes) -> float:
    """Fraction of the edges inside `nodes` whose endpoints share the class."""
    lo, hi = graph.edge_arrays()
    inside = np.isin(lo, nodes) & np.isin(hi, nodes)
    lo, hi = lo[inside], hi[inside]
    return np.count_nonzero(graph.labels[lo] == graph.labels[hi]) / lo.size


def test_specialization_shape_and_homophily():
    g = generate_specialization_graph(100, 8, 0.1, seed=7)
    assert g.num_nodes == 200
    feature_nodes, structure_nodes = specialization_groups(g)
    # structure group: at least 90% of edge endpoints share the class
    assert homophily_ratio(g, structure_nodes) >= 0.9
    # feature group separable by a margin along the anchor axis
    axis = np.zeros(8)
    axis[0], axis[1] = 1.0, -1.0
    scores = g.features[feature_nodes] @ axis
    labels = g.labels[feature_nodes]
    assert scores[labels == 0].min() > scores[labels == 1].max()


def test_specialization_split_stratified():
    g = generate_specialization_graph(100, 8, 0.1, seed=7)
    sizes = {k: len(v) for k, v in g.splits.items()}
    assert sizes["train"] == 100 and sizes["val"] == 48 and sizes["test"] == 52
    union = np.concatenate([g.splits[k] for k in ("train", "val", "test")])
    assert len(set(union.tolist())) == 200


def test_specialization_deterministic():
    a = generate_specialization_graph(50, 4, 0.3, seed=9)
    b = generate_specialization_graph(50, 4, 0.3, seed=9)
    assert np.array_equal(a.features, b.features)
    assert edge_pairs(a) == edge_pairs(b)
    assert all(np.array_equal(a.splits[k], b.splits[k]) for k in a.splits)


def test_specialization_zero_noise_exact():
    g = generate_specialization_graph(30, 4, 0.0, seed=1)
    feature_nodes, _ = specialization_groups(g)
    assert np.unique(g.features[feature_nodes], axis=0).shape[0] == 2


def test_specialization_parameter_bounds():
    with pytest.raises(ConfigError):
        generate_specialization_graph(10, 8, 0.1, seed=0)
    with pytest.raises(ConfigError):
        generate_specialization_graph(30, 1, 0.1, seed=0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_blindspot_cancellation(k):
    instance = build_blindspot_graph(k, 5, seed=4)
    validate_blindspot(instance)
    assert blindspot_cancellation_gap(instance) < 1e-10


@pytest.mark.parametrize("name", ["edgeless", "blindspot_k1", "blindspot_k2"])
def test_operator_and_features_are_unscanned_constants(name, monkeypatch):
    if name == "edgeless":
        g = build_graph(3, 2, [[0.5, -1.0], [2.0, 0.0], [-0.25, 3.0]], [0, 1, 0], [],
                        {"train": [0], "val": [1], "test": [2]})
    else:
        # the depths k = 1 and 2 that the blindspot suite builds
        g = build_blindspot_graph(int(name[-1]), 6, seed=4).graph

    def scanned(self, values, requires_grad=False):
        raise AssertionError("Tensor.__init__ scans for non-finite values")

    monkeypatch.setattr(T.Tensor, "__init__", scanned)
    for t in (g.coefficients, g.feature_tensor):
        assert not t.requires_grad and t._op is None and t._parents == () and t.grad is None
    assert np.isfinite(g.coefficients.values.scale).all()
    assert np.array_equal(g.feature_tensor.values, g.features)
    if name == "edgeless":
        assert np.array_equal(g.coefficients.values.dense, np.eye(3))


# ---- the convolution operator's storage ----

def rebuilt(op):
    """The dense matrix a SymmetricRows's rows and scale describe."""
    n = op.shape[0]
    dense = np.zeros((n, n))
    rows = np.repeat(np.arange(n), np.diff(np.append(op.starts, op.columns.size)))
    dense[rows, op.columns] = op.scale[rows] * op.scale[op.columns]
    return dense


@pytest.fixture(scope="module")
def sparse_graph():
    # n = 2,000 and 1.4% dense: below SPARSE_DENSITY
    g = generate_specialization_graph(1000, 8, 0.1, seed=1)
    return g, dense_coefficients(g)


@pytest.mark.parametrize("width", [1, 2, 8, 33])
def test_sparse_product_matches_the_dense_matrix(sparse_graph, width, monkeypatch):
    g, dense = sparse_graph
    op = g.coefficients.values
    assert isinstance(op, T.SymmetricRows) and op.dense is None
    assert same_bits(rebuilt(op), dense)
    # the rows span more than one tile
    assert len(op.tiles) > 1
    h = np.random.default_rng(width).standard_normal((g.num_nodes, width))
    got, want = T.matmul(g.coefficients, T.constant(h)).values, dense @ h
    assert got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    # one row per tile and every row in one tile sum alike
    for entries, tiles in ((1, g.num_nodes), (1 << 40, 1)):
        monkeypatch.setattr(T, "_TILE_ENTRIES", entries)
        tiled = T.SymmetricRows(op.starts, op.columns, op.scale)
        assert len(tiled.tiles) == tiles and same_bits(tiled.times(h), got)


def test_row_and_dense_kernels_agree_and_differentiate(monkeypatch):
    """The operator's backward reuses its forward product, as Âᵀ = Â: with
    either kernel forced, that gives b its gradient, and the kernels agree."""
    rng = np.random.default_rng(31)
    g = build_graph(6, 2, rng.standard_normal((6, 2)), [0, 1, 0, 1, 0, 1],
                    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)], {})
    h = rng.uniform(-2.0, 2.0, (6, 3))
    mask = rng.uniform(-1.0, 1.0, (6, 3))
    products = []
    for bound, dense in ((np.inf, False), (0.0, True)):
        monkeypatch.setattr(T, "SPARSE_DENSITY", bound)
        coeff = T.constant(conv_rows(g))
        assert (coeff.values.dense is not None) == dense
        b = T.Tensor(h.copy(), requires_grad=True)

        def fn(inputs):
            y = T.matmul(coeff, inputs[0])
            return T.mean_all(y * y * mask)

        assert T.check_gradient(fn, [b], 1e-5) < 1e-8
        assert coeff.grad is None and b.grad is not None
        products.append(T.matmul(coeff, T.constant(h)).values)
    rows, dense = products
    assert np.abs(rows - dense).max() <= 1e-15 * np.abs(dense).max()


def test_sparse_edgeless_graph_returns_its_input():
    n = 100   # 1% dense
    rng = np.random.default_rng(32)
    g = build_graph(n, 2, rng.standard_normal((n, 3)), np.zeros(n, dtype=int), [], {})
    assert g.coefficients.values.dense is None
    h = rng.standard_normal((n, 5))
    assert same_bits(T.matmul(g.coefficients, T.constant(h)).values, h)
    assert same_bits(g.first_aggregation.values, g.features)


@pytest.mark.parametrize("n, edges", [(0, []), (1, []),
                                      (5, [(0, 1), (1, 2), (2, 0), (1, 3)])])
def test_sparse_rows_of_tiny_graphs_and_an_isolated_node(n, edges, monkeypatch):
    rng = np.random.default_rng(n)
    g = build_graph(n, 1, rng.standard_normal((n, 2)), np.zeros(n, dtype=int), edges, {})
    monkeypatch.setattr(T, "SPARSE_DENSITY", np.inf)
    op = conv_rows(g)
    assert op.shape == (n, n) and op.columns.size == g.indices.size + n
    assert op.dense is None and same_bits(rebuilt(op), dense_coefficients(g))
    h = rng.standard_normal((n, 3))
    got = op.times(h)
    assert got.shape == (n, 3)
    assert np.abs(got - dense_coefficients(g) @ h).max(initial=0.0) <= \
        1e-15 * np.abs(h).max(initial=0.0)
    if n == 5:   # node 4 has no neighbors: its row is its own
        assert same_bits(got[4], h[4])
    if n:
        assert same_bits(T.matmul(g.coefficients, T.constant(h)).values, got)


@pytest.mark.parametrize("k", [5, 20, 100])
def test_blindspot_cancels_through_the_sparse_aggregation(k, monkeypatch):
    instance = build_blindspot_graph(k, 5, seed=4)
    if k == 5:
        # at most 62 nodes, over 5% dense: the density keeps it dense
        monkeypatch.setattr(T, "SPARSE_DENSITY", np.inf)
    assert instance.graph.coefficients.values.dense is None
    validate_blindspot(instance)
    assert blindspot_cancellation_gap(instance) < 1e-10


@pytest.fixture(scope="module")
def n4000_operator():
    # gen --seed 7 --n-per-group 2000: n = 4,000, 0.7% dense
    return generate_specialization_graph(2000, 8, 0.1, seed=7).coefficients.values


def test_operator_storage_follows_the_density(n4000_operator):
    # gen --seed 7 (n = 200, 12.9% dense) and the n = 4,000 graph
    g = generate_specialization_graph(100, 8, 0.1, seed=7)
    op = g.coefficients.values
    assert isinstance(op, T.SymmetricRows) and same_bits(op.dense, dense_coefficients(g))
    arrays = [op.dense]
    op = n4000_operator
    assert isinstance(op, T.SymmetricRows) and op.shape == (4000, 4000) and op.ndim == 2
    assert op.dense is None
    for array in arrays + [op.starts, op.columns, op.scale]:
        with pytest.raises(ValueError):
            array[0] = 0


def test_sparse_product_gathers_in_tiles(n4000_operator):
    """A width-32 product holds one row tile's gather at a time, not a
    (width × nnz) block: it peaks below 4 MiB, where the scaled input, the
    sums and the returned rows take 3 MiB."""
    h = np.random.default_rng(7).standard_normal((4000, 32))
    tracemalloc.start()
    try:
        n4000_operator.times(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# sha256 of the JSON of graph_to_document and the sorted node_map of
# build_blindspot_graph(k, f, seed). The features are standard normal draws
# solved with IEEE-exact arithmetic, apart from the root direction's norm,
# whose last bit follows the platform's dot product.
BLINDSPOT_SHA256 = {
    (1, 2, 0): "4951e3c3ab607cd11930d57987b573ebfdb896983aefbf4b37fefcf33a77dd22",
    (1, 2, 5): "89896715d022e8ef479e9f4a6c7f01149ee6f22eddbdceab41e5c776557d8409",
    (1, 6, 0): "73f6493cd05195f90c141dd6555dd4c7cac71a8d4233356a42fabb069e5d4d0f",
    (1, 6, 5): "35634bb3912068183c73f379d26c02479965e543425a74632a5d3bffc5835b78",
    (2, 2, 0): "f8bef8080a1cfd00781d79979511859c6bddddcb276a7fafdb038b45ab6a696b",
    (2, 2, 5): "d4ee0eb978de25ca0bc98fe819b7a6e4aef546db531ed40d75862e3a20b42f16",
    (2, 6, 0): "7ab5aa9a472bd8935f72cbc085721041d9f690e6bce3c765b135dd4508c48162",
    (2, 6, 5): "c89badae8da31f01f2655f233df0f228d93efe3be2fef995e9a4d48f945d2d6f",
    (3, 2, 0): "6c3a075f3fa85457c51b156e69ba7673ee9110ebd720d8d6fa431eb9600d1590",
    (3, 2, 5): "ddc42a29a601ea97078fa4d4e39778bf259c909b1aed76c1de40eb0865e43921",
    (3, 6, 0): "e43c5bead86b6abbeeb31723b73b219fecbb3dd434e732a3f46d615327c4883c",
    (3, 6, 5): "0079e28b01b76af1882a7bb17bcea284159cc6def053fad0f2e2a3070cd0a179",
}


# sha256 of the JSON of graph_to_document(generate_specialization_graph(
# n_per_group, 8, 0.1, seed)), the `gen` defaults, as the generator drew
# them with rng.choice over explicit candidate arrays
SPECIALIZATION_SHA256 = {
    (20, 3): "838805979223c8a25517ab4087009636d2bb16f35467ee72ce68f528d670b727",
    (100, 7): "9e89d6742b0bd07a58fa265f5c17a065271d2a3a6612628a011b7c18503245d4",
    (2000, 1): "7ca5a9018e04b9895a3362529e06d5b457d0d39f856241cc3443a40491653d41",
}


@pytest.mark.parametrize("n_per_group, seed", sorted(SPECIALIZATION_SHA256))
def test_specialization_bytes_are_pinned(n_per_group, seed):
    doc = graph_to_document(generate_specialization_graph(n_per_group, 8, 0.1, seed))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == SPECIALIZATION_SHA256[n_per_group, seed]


@pytest.mark.parametrize("k, f, seed", sorted(BLINDSPOT_SHA256))
def test_blindspot_bytes_are_pinned(k, f, seed):
    instance = build_blindspot_graph(k, f, seed)
    doc = {"graph": graph_to_document(instance.graph),
           "node_map": sorted(instance.node_map.items())}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == BLINDSPOT_SHA256[k, f, seed]


def test_blindspot_required_nodes_cover_both_sides():
    instance = build_blindspot_graph(2, 4, seed=2)
    g = instance.graph
    hood_u = khop_neighborhood(g, instance.u, 1)
    hood_v = khop_neighborhood(g, instance.v, 1)
    assert not (khop_neighborhood(g, instance.u, 2)
                & khop_neighborhood(g, instance.v, 2))
    assert len(hood_u) > 1 and len(hood_v) > 1


def test_blindspot_mapping_is_structural_isomorphism():
    instance = build_blindspot_graph(2, 4, seed=6)
    fmap = instance.node_map
    edges = set(edge_pairs(instance.graph))
    u_side = {(a, b) for a, b in edges if a in fmap and b in fmap}
    mapped = {(min(fmap[a], fmap[b]), max(fmap[a], fmap[b])) for a, b in u_side}
    v_side = edges - u_side
    assert mapped == v_side
    assert fmap[instance.u] == instance.v


def test_blindspot_broken_mapping_rejected():
    instance = build_blindspot_graph(2, 4, seed=6)
    fmap = dict(instance.node_map)
    # root and its solved child swap images: the root's edge to its next
    # child (node 2) maps onto two siblings, which share no edge
    fmap[0], fmap[1] = fmap[1], fmap[0]
    with pytest.raises(GraphValidationError, match=r"mapping breaks edge \(0, 2\)"):
        validate_blindspot(dataclasses.replace(instance, node_map=fmap))


@pytest.mark.parametrize("seed", range(8))
def test_blindspot_mapping_check_matches_edge_set_reference(seed):
    """A map of a few nodes, onto nodes or past the last one, breaks the
    first edge (in edge_arrays order) whose two mapped ends are no edge."""
    instance = build_blindspot_graph(2, 4, seed=6)
    n = instance.graph.num_nodes
    lo, hi = instance.graph.edge_arrays()
    rng = np.random.default_rng(seed)
    mapped = rng.choice(n, size=int(rng.integers(2, 5)), replace=False).tolist()
    fmap = dict(zip(mapped, rng.integers(0, n + 2, len(mapped)).tolist()))
    edges = set(zip(lo.tolist(), hi.tolist()))
    broken = [(x, y) for x, y in edges if x in fmap and y in fmap
              and tuple(sorted((fmap[x], fmap[y]))) not in edges]
    replaced = dataclasses.replace(instance, node_map=fmap)
    if broken:
        with pytest.raises(GraphValidationError,
                           match=r"mapping breaks edge \(%d, %d\)" % min(broken)):
            validate_blindspot(replaced)
    else:
        validate_blindspot(replaced)


def test_blindspot_mapping_check_on_an_edgeless_graph():
    """No edge, nothing to break: the check goes on to the cancellation gap."""
    g = build_graph(2, 2, [[1.0], [2.0]], [0, 1], [], {})
    instance = BlindspotInstance(g, 0, 1, 1, {0: 1})
    with pytest.raises(GraphValidationError, match="cancellation gap"):
        validate_blindspot(instance)


def test_blindspot_roots_distinct():
    instance = build_blindspot_graph(1, 3, seed=8)
    g = instance.graph
    assert not np.array_equal(g.features[instance.u], g.features[instance.v])


def test_khop_sizes_isolated_nodes():
    g = build_graph(4, 2, np.zeros((4, 2)), [0, 1, 0, 1], [],
                    {"train": [0], "val": [], "test": []})
    assert khop_sizes(g, 3) == [1.0, 1.0, 1.0]


def test_khop_sizes_path():
    g = build_graph(3, 2, np.zeros((3, 2)), [0, 1, 0], [(0, 1), (1, 2)],
                    {"train": [0], "val": [], "test": []})
    b = khop_sizes(g, 2)
    assert b[0] == 1.0
    assert np.isclose(b[1], 7.0 / 3.0)


def test_khop_sizes_complete_graph():
    m = 6
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    g = build_graph(m, 2, np.zeros((m, 1)), [0] * m, edges,
                    {"train": [0], "val": [], "test": []})
    assert khop_sizes(g, 2)[1] == float(m)


def test_cost_weak_closed_form():
    g = build_graph(3, 2, np.zeros((3, 1)), [0, 0, 0], [],
                    {"train": [0], "val": [], "test": []})
    assert cost_estimate(g, 256, 3, "weak") == 196608.0


def test_cost_bounds_are_inclusive_for_every_row():
    # the weak row reads no hop sizes, yet its depth is bounded by n too
    g = build_graph(3, 2, np.zeros((3, 1)), [0, 0, 0], [],
                    {"train": [0], "val": [], "test": []})
    for arch in ARCHITECTURES:
        assert cost_estimate(g, MAX_FEATURE_ENTRIES, 3, arch) > 0.0
        for f, layers, named in ((MAX_FEATURE_ENTRIES + 1, 3, "f"), (10**200, 3, "f"),
                                 (1, 4, "num_layers"), (1, 10**400, "num_layers")):
            with pytest.raises(ConfigError, match=f"^{named} must be in"):
                cost_estimate(g, f, layers, arch)


def test_cost_gcn_equals_weak_on_edgeless():
    g = build_graph(5, 2, np.zeros((5, 1)), [0] * 5, [],
                    {"train": [0], "val": [], "test": []})
    assert cost_estimate(g, 256, 3, "gcn") == cost_estimate(g, 256, 3, "weak")


def test_cost_gcn_formula_against_hand_bfs():
    # complete graph on 5 nodes: b_0 = 1, b_1 = 5 -> f^2 * (1 + 5)
    m = 5
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    g = build_graph(m, 2, np.zeros((m, 1)), [0] * m, edges,
                    {"train": [0], "val": [], "test": []})
    assert cost_estimate(g, 2, 2, "gcn") == 24.0


def test_cost_skip_doubles_gcn():
    g = generate_specialization_graph(25, 3, 0.1, seed=3)
    assert cost_estimate(g, 16, 3, "gcn_skip") == 2 * cost_estimate(g, 16, 3, "gcn")


def test_cost_gcn_at_least_weak():
    for seed in range(5):
        g = generate_specialization_graph(25, 3, 0.1, seed=seed)
        for layers in (1, 2, 3):
            gcn = cost_estimate(g, 8, layers, "gcn")
            weak = cost_estimate(g, 8, layers, "weak")
            assert gcn >= weak
            b = khop_sizes(g, layers)
            assert (gcn == weak) == all(x == 1.0 for x in b)


def test_document_roundtrip_structure():
    g = generate_specialization_graph(20, 2, 0.1, seed=0)
    doc = graph_to_document(g)
    assert set(doc) == {"num_nodes", "num_classes", "features", "labels",
                        "edges", "splits"}
