"""Graph storage, JSON interchange, synthetic generators, cost model.

Graphs are undirected, unweighted, immutable after construction. The
adjacency is compressed-sparse (indptr/indices over sorted neighbor
lists, read-only) with no stored self-loops; the convolution adds the
self term analytically from degrees. Each graph builds its convolution
operator, its features as a tensor and their first aggregation on first
use and keeps them. The operator D^-1/2 (A+I) D^-1/2 is held as S·B·S:
the closed-neighborhood rows B and the per-node scale S (`conv_rows`),
which `tensor.SymmetricRows` stores by their density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from . import tensor as T
from .documents import read_json, write_json
from .errors import ConfigError, GraphFormatError, GraphValidationError, as_array, check_range

_DOCUMENT_KEYS = {"num_nodes", "num_classes", "features", "labels", "edges", "splits"}
_SPLIT_KEYS = {"train", "val", "test"}
# expert kinds, which the cost model prices as architectures
ARCHITECTURES = ("weak", "gcn", "gcn_skip")


@dataclass(frozen=True)
class Graph:
    num_nodes: int
    num_classes: int
    features: np.ndarray            # (num_nodes, f)
    labels: np.ndarray              # (num_nodes,)
    indptr: np.ndarray
    indices: np.ndarray
    splits: dict = field(default_factory=dict)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def coefficients(self) -> T.Tensor:
        """The convolution operator, conv_rows(self), as a constant tensor
        built on first use. Each entry is a product of 1/sqrt(deg + 1)
        terms, so it is finite, and entry (w, w') equals entry (w', w)."""
        return T.constant(conv_rows(self))

    @cached_property
    def feature_tensor(self) -> T.Tensor:
        """`features` as a constant tensor, wrapped once; `build_graph`
        rejects non-finite features."""
        return T.constant(self.features)

    @cached_property
    def first_aggregation(self) -> T.Tensor:
        """coefficients @ features, a graph convolution's first aggregation.
        Built by T.matmul inside its first reader, a forward or the blindspot
        check, so a trace counts it as that reader's work."""
        return T.matmul(self.coefficients, self.feature_tensor)

    def edge_arrays(self):
        """(lo, hi): each undirected edge once, lo < hi, in sorted order."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees)
        upper = rows < self.indices
        return rows[upper], self.indices[upper]


def build_graph(num_nodes, num_classes, features, labels, edges, splits) -> Graph:
    """Validate parts, symmetrize and deduplicate edges, freeze a Graph."""
    n = int(as_array(num_nodes, int, 0, "num_nodes", GraphValidationError))
    num_classes = int(as_array(num_classes, int, 0, "num_classes", GraphValidationError))
    features = as_array(features, float, 2, "features", GraphValidationError)
    labels = as_array(labels, int, 1, "labels", GraphValidationError)
    if features.shape[0] != n:
        raise GraphValidationError(
            f"features must be {n} rows, got shape {features.shape}")
    if features.shape[1] == 0:
        raise GraphValidationError("features must have at least one column")
    if labels.shape != (n,):
        raise GraphValidationError(f"labels must have length {n}")
    # every class could label a node; more would only size the experts' outputs
    check_range("num_classes", num_classes, 1, max(n, 1), GraphValidationError)
    bad = np.nonzero((labels < 0) | (labels >= num_classes))[0]
    if bad.size:
        raise GraphValidationError(
            f"label {labels[bad[0]]} at node {bad[0]} outside [0, {num_classes})")

    # an empty list would read as shape (0,), not as zero pairs
    edges = as_array(np.zeros((0, 2)) if isinstance(edges, list) and not edges else edges,
                     int, 2, "edges", GraphValidationError)
    if edges.shape[1] != 2:
        raise GraphValidationError("edges must be a list of [a, b] pairs")
    outside = ((edges < 0) | (edges >= n)).any(axis=1)
    bad = outside | (edges[:, 0] == edges[:, 1])
    if bad.any():
        k = int(np.argmax(bad))
        problem = f"has endpoint >= {n}" if outside[k] else "is a self-loop"
        raise GraphValidationError(f"edge #{k} = ({edges[k, 0]}, {edges[k, 1]}) {problem}")
    # both orientations of every edge as row * n + col keys: sorted and
    # deduplicated, they are the CSR entries in order
    a, b = edges.T
    keys = np.sort(np.concatenate([a * n + b, b * n + a]))
    rows, indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    # read-only, so the operator and aggregation a Graph caches cannot go stale
    features.flags.writeable = indptr.flags.writeable = indices.flags.writeable = False

    clean_splits = {name: np.zeros(0, dtype=np.int64) for name in _SPLIT_KEYS}
    for name in sorted(splits):
        if name not in _SPLIT_KEYS:
            raise GraphValidationError(f"unknown split name {name!r}")
        ids = as_array(splits[name], int, 1, f"split {name!r}", GraphValidationError)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise GraphValidationError(f"split {name!r} has node id outside [0, {n})")
        clean_splits[name] = np.sort(ids)
    claims = np.bincount(np.concatenate(list(clean_splits.values())), minlength=n)
    if (claims > 1).any():
        raise GraphValidationError(
            f"node {np.argmax(claims > 1)} appears more than once across the splits")

    return Graph(n, num_classes, features, labels, indptr, indices, clean_splits)


def load_graph(path) -> Graph:
    return graph_from_document(read_json(path, "graph", GraphFormatError))


def graph_from_document(doc) -> Graph:
    if not isinstance(doc, dict):
        raise GraphValidationError("graph document must be a JSON object")
    unknown = set(doc) - _DOCUMENT_KEYS
    if unknown:
        raise GraphValidationError(f"unknown document keys: {sorted(unknown)}")
    missing = _DOCUMENT_KEYS - set(doc)
    if missing:
        raise GraphValidationError(f"missing document keys: {sorted(missing)}")
    splits = doc["splits"]
    if not isinstance(splits, dict) or set(splits) != _SPLIT_KEYS:
        raise GraphValidationError("splits must be an object with train/val/test")
    return build_graph(doc["num_nodes"], doc["num_classes"], doc["features"],
                       doc["labels"], doc["edges"], splits)


def graph_to_document(graph: Graph) -> dict:
    return {
        "num_nodes": graph.num_nodes,
        "num_classes": graph.num_classes,
        "features": graph.features.tolist(),
        "labels": graph.labels.tolist(),
        "edges": np.stack(graph.edge_arrays(), axis=1).tolist(),
        "splits": {k: graph.splits[k].tolist() for k in ("train", "val", "test")},
    }


def save_graph(graph: Graph, path):
    write_json(path, graph_to_document(graph), sort_keys=True)


# ---- synthetic generators ----

# ceilings on what `gen` builds, checked before any array is: a
# specialization graph of 2 x 100,000 nodes, and a feature matrix of 2**21
# entries for either generator. On one core of a 2-vCPU host,
# `gen --n-per-group 100000` takes 9 s at 0.76 GB peak RSS for a 74 MB
# document, and a full feature matrix 1.5-1.8 s at about 0.2 GB for 34-43 MB
MAX_N_PER_GROUP = 100_000
MAX_FEATURE_ENTRIES = 1 << 21


def generate_specialization_graph(n_per_group: int, f: int, noise: float,
                                  seed: int) -> Graph:
    """Two-population benchmark separating feature and structure signal.

    Group A (ids [0, n_per_group)): self-features linearly separable by
    class with gaussian jitter of scale `noise`; neighborhoods wired
    uniformly at random within the group, so structure carries no class
    signal. Group B: self-features drawn from one class-independent
    gaussian; neighborhoods wired homophilously (same-class partner with
    probability 0.95), so only structure carries class signal.
    Stratified 50/25/25 train/val/test split per (group, class) cell.
    """
    check_range("n_per_group", n_per_group, 20, MAX_N_PER_GROUP)
    n = 2 * n_per_group
    # the widest feature matrix the ceiling admits for n rows
    check_range("f", f, 2, MAX_FEATURE_ENTRIES // n)
    check_range("noise", noise, 0)
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    group_a = np.arange(n_per_group)
    group_b = np.arange(n_per_group, n)

    anchors = np.zeros((2, f))
    anchors[0, 0], anchors[0, 1] = 1.0, -1.0
    anchors[1, 0], anchors[1, 1] = -1.0, 1.0
    features = np.zeros((n, f))
    features[group_a] = anchors[labels[group_a]]
    if noise > 0:
        features[group_a] += noise * rng.standard_normal((n_per_group, f))
    features[group_b] = rng.standard_normal((n_per_group, f))

    degree_a, degree_b, p_same = min(20, n_per_group - 1), 8, 0.95
    # edges as drawn: build_graph symmetrizes and deduplicates. Each draw
    # takes the variates of rng.choice over its candidates: node a's are
    # distinct positions in group A less a, shifted past a
    draws = np.array([rng.choice(n_per_group - 1, size=degree_a, replace=False)
                      for _ in group_a])
    targets = [(draws + (draws >= group_a[:, None])).ravel()]
    same_class = {c: group_b[labels[group_b] == c] for c in (0, 1)}
    for b in group_b:
        for _ in range(degree_b):
            pool = same_class[labels[b]] if rng.random() < p_same \
                else same_class[1 - labels[b]]
            t = pool[rng.integers(pool.size)]
            while t == b:
                t = pool[rng.integers(pool.size)]
            targets.append([t])
    sources = np.concatenate([np.repeat(group_a, degree_a), np.repeat(group_b, degree_b)])
    edges = np.stack([sources, np.concatenate(targets)], axis=1)

    splits = {"train": [], "val": [], "test": []}
    for group in (group_a, group_b):
        for c in (0, 1):
            cell = group[labels[group] == c].copy()
            rng.shuffle(cell)
            n_train, n_val = cell.size // 2, cell.size // 4
            splits["train"] += cell[:n_train].tolist()
            splits["val"] += cell[n_train:n_train + n_val].tolist()
            splits["test"] += cell[n_train + n_val:].tolist()

    return build_graph(n, 2, features, labels, edges, splits)


def specialization_groups(graph: Graph):
    """(feature-signal ids, structure-signal ids) for a generated benchmark."""
    half = graph.num_nodes // 2
    return np.arange(half), np.arange(half, graph.num_nodes)


@dataclass(frozen=True)
class BlindspotInstance:
    """Two feature-distinct roots every K-layer convolution must confuse.

    `node_map` is the structural isomorphism from the u-side onto the
    v-side (node_map[u] == v).
    """
    graph: Graph
    u: int
    v: int
    k: int
    node_map: dict


def conv_rows(graph: Graph) -> T.SymmetricRows:
    """The symmetric-normalized closed-neighborhood coefficients
    D^-1/2 (A+I) D^-1/2, by rows: each row's self column first, then its
    CSR neighbors, and the per-node scale 1/sqrt(deg + 1)."""
    n = graph.num_nodes
    # node i goes in front of its CSR run, after every earlier row's columns
    starts = graph.indptr[:-1] + np.arange(n)
    columns = np.insert(graph.indices, graph.indptr[:-1], np.arange(n))
    return T.SymmetricRows(starts, columns,
                           1.0 / np.sqrt(graph.degrees.astype(np.float64) + 1.0))


# the deepest convolution a blindspot instance is built for (the suites
# build k = 1 and 2): at most 2 (1 + 6k) = 1,202 nodes, so at most 1,744
# features. Its operator keeps to its rows, with no dense copy, from
# k = 13, 15 or 19 on (6, 5 or 4 legs); at k = 100 they take 58 KB with
# their tiles, where the dense matrix would take 11.6 MB
MAX_BLINDSPOT_K = 100


def build_blindspot_graph(k: int, f: int, seed: int) -> BlindspotInstance:
    """Mirrored spiders whose normalized feature sums vanish.

    Each side is a root with 4 to 6 legs of k nodes. Every node within
    k-1 hops of either root gets one node further out whose feature is
    solved so its closed-neighborhood sum cancels exactly; the v-side
    mirrors the u-side structure.
    """
    check_range("k", k, 1, MAX_BLINDSPOT_K)
    # a side has at most 6 legs, so the ceiling does not depend on the seed
    check_range("f", f, 2, MAX_FEATURE_ENTRIES // (2 * (1 + 6 * k)))
    rng = np.random.default_rng(seed)

    # the root has random extra fanout; every other node within k-1 hops
    # has exactly one (solved) child. So every leg node but the last has
    # degree 2, and from hop 1 on each leg's features repeat with period 3
    # (between degree-2 nodes every coefficient is 1/3, so
    # x[i + 1] = -(x[i] + x[i - 1])),
    # the last node's scaled by sqrt(6)/3: their size does not grow with k.
    legs = 1 + int(rng.integers(3, 6))
    side_size = 1 + k * legs
    n = 2 * side_size
    u, v = 0, side_size
    # hop[i, j] is leg j's node i hops out, numbered hop by hop on each
    # side; hop[0] is the root, and column legs + j is the v-side's leg j
    hop = np.zeros((k + 1, legs), dtype=np.int64)
    hop[1:] = np.arange(1, side_size).reshape(k, legs)
    hop = np.hstack([hop, hop + side_size])
    edges = np.stack([hop[1:].ravel(), hop[:-1].ravel()], axis=1)
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.float64)

    features = rng.standard_normal((n, f))
    # antipodal large-norm root features: the proof leaves their scale
    # free, and dominance along one axis lets a relu stack isolate the
    # roots with exact dead zones elsewhere
    direction = rng.standard_normal(f)
    direction /= np.linalg.norm(direction)
    features[u] = 50.0 * direction
    features[v] = -features[u]

    def coeff(w, t):   # a column: one coefficient per row of a feature block
        return (1.0 / np.sqrt((deg[w] + 1.0) * (deg[t] + 1.0)))[:, None]

    # each root solves leg 0's first node, adding its other legs in id order
    roots, first = hop[0, ::legs], hop[1, ::legs]
    total = coeff(roots, roots) * features[roots]
    for j in range(1, legs):
        total += coeff(roots, first + j) * features[first + j]
    features[first] = -total / coeff(roots, first)
    # then each hop's nodes solve the next node along their legs
    for i in range(1, k):
        w, parent, child = hop[i], hop[i - 1], hop[i + 1]
        features[child] = -(coeff(w, w) * features[w]
                            + coeff(w, parent) * features[parent]) / coeff(w, child)

    labels = np.zeros(n, dtype=np.int64)
    labels[v] = 1
    graph = build_graph(n, 2, features, labels, edges,
                        {"train": [], "val": [], "test": []})
    node_map = {w: w + side_size for w in range(side_size)}
    return BlindspotInstance(graph, u, v, k, node_map)


def _frontiers(graph: Graph, v: int):
    """Breadth-first search from v over the CSR rows: yields the nodes first
    reached at each hop, starting with {v}, until a hop reaches none."""
    indptr, indices = graph.indptr, graph.indices
    seen, frontier = {v}, {v}
    while frontier:
        yield frontier
        frontier = set().union(*(indices[indptr[w]:indptr[w + 1]].tolist()
                                 for w in frontier)) - seen
        seen |= frontier


def khop_neighborhood(graph: Graph, v: int, k: int) -> set:
    """Nodes reachable from v in at most k hops, including v."""
    return set().union(*islice(_frontiers(graph, v), k + 1))


# ---- neighborhood statistics and cost model ----

def khop_sizes(graph: Graph, num_layers: int):
    """[b_0 .. b_{L-1}]: average count of nodes within i hops (self included).
    L is at most n: no hop beyond n - 1 reaches a new node."""
    check_range("num_layers", num_layers, 1, graph.num_nodes)
    # nodes first reached at each hop, summed over sources; b_i adds hops 0..i
    counts = [0] * num_layers
    for v in range(graph.num_nodes):
        for i, frontier in zip(range(num_layers), _frontiers(graph, v)):
            counts[i] += len(frontier)
    return list(np.cumsum(counts) / graph.num_nodes)


def cost_estimate(graph: Graph, f: int, num_layers: int, architecture: str) -> float:
    """Multiply-accumulate count per inference, from average k-hop sizes.

    weak: f^2 * L. gcn: f^2 * sum(b_0 .. b_{L-1}), since layer i applies
    its transform to every node within L-i hops. gcn_skip doubles the
    per-node transform cost. L is at most n and f at most the generators'
    MAX_FEATURE_ENTRIES, so every count is a finite float.
    """
    if architecture not in ARCHITECTURES:
        raise ConfigError(f"architecture must be one of {ARCHITECTURES}")
    check_range("num_layers", num_layers, 1, graph.num_nodes)
    check_range("f", f, 1, MAX_FEATURE_ENTRIES)
    if architecture == "weak":
        return float(f * f * num_layers)
    total = sum(khop_sizes(graph, num_layers))
    scale = 2.0 if architecture == "gcn_skip" else 1.0
    return float(scale * f * f * total)
