"""Graph storage, interchange format, generators, cost model."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confmix.errors import (ConfigError, GraphFormatError, GraphValidationError)
from confmix.graphs import (blindspot_cancellation_gap, build_blindspot_graph,
                            build_graph, cost_estimate,
                            generate_specialization_graph, graph_from_document,
                            graph_to_document,
                            homophily_ratio, khop_neighborhood, khop_sizes,
                            load_graph, save_graph, specialization_groups,
                            validate_blindspot)


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


def write_doc(tmp_path, doc, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_smallest_graph_degrees(tmp_path):
    g = load_graph(write_doc(tmp_path, tiny_graph()))
    assert list(g.degrees) == [1, 1]


def test_symmetrization_collapses_duplicates(tmp_path):
    g = load_graph(write_doc(tmp_path, tiny_graph(edges=[[0, 1], [1, 0]])))
    assert g.edge_list() == [(0, 1)]
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
    assert g.edge_list() == [(0, 1)] and g.splits["test"].tolist() == [1]


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
    with pytest.raises(GraphValidationError) as err:
        graph_from_document(doc)
    assert str(err.value) == "node 2 appears in more than one split"
    doc["splits"] = {"train": [3, 1, 1], "val": [], "test": [2]}
    assert graph_from_document(doc).splits["train"].tolist() == [1, 1, 3]


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
    assert g.edge_list() == undirected


def test_self_loop_rejected(tmp_path):
    with pytest.raises(GraphValidationError):
        load_graph(write_doc(tmp_path, tiny_graph(edges=[[1, 1]])))


def test_ragged_features_rejected(tmp_path):
    doc = tiny_graph(features=[[0.0, 1.0], [1.0]])
    with pytest.raises(GraphValidationError) as err:
        load_graph(write_doc(tmp_path, doc))
    assert "row 1" in str(err.value)


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
    assert back.edge_list() == g.edge_list()
    for split in ("train", "val", "test"):
        assert np.array_equal(back.splits[split], g.splits[split])


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
    assert a.edge_list() == b.edge_list()
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
    edges = set(instance.graph.edge_list())
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
