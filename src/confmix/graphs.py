"""Graph storage, JSON interchange, synthetic generators, cost model.

Graphs are undirected, unweighted, immutable after construction. The
adjacency is compressed-sparse (indptr/indices over sorted neighbor
lists, read-only) with no stored self-loops; the convolution adds the
self term analytically from degrees. Each graph builds its convolution
operator, its features as a tensor and their first aggregation on first
use and keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tensor as T
from .documents import read_json, write_json
from .errors import ConfigError, GraphFormatError, GraphValidationError, as_array

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
        """conv_coefficients(self) as a constant tensor, built on first use;
        each entry is a product of 1/sqrt(deg + 1) terms, so it is finite."""
        return T.constant(conv_coefficients(self))

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

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

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
    if labels.shape != (n,):
        raise GraphValidationError(f"labels must have length {n}")
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
    if n_per_group < 20:
        raise ConfigError(f"n_per_group must be >= 20, got {n_per_group}")
    if f < 2:
        raise ConfigError(f"f must be >= 2, got {f}")
    if noise < 0:
        raise ConfigError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    n = 2 * n_per_group
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
    # edges as drawn: build_graph symmetrizes and deduplicates
    targets = [rng.choice(np.delete(group_a, a), size=degree_a, replace=False)
               for a in group_a]
    same_class = {c: group_b[labels[group_b] == c] for c in (0, 1)}
    for b in group_b:
        for _ in range(degree_b):
            pool = same_class[labels[b]] if rng.random() < p_same \
                else same_class[1 - labels[b]]
            t = rng.choice(pool)
            while t == b:
                t = rng.choice(pool)
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


def conv_coefficients(graph: Graph) -> np.ndarray:
    """Dense symmetric-normalized closed-neighborhood coefficients.

    Entry (w, w') is 1/sqrt((deg w + 1)(deg w' + 1)) for neighbors and
    for w' == w; zero elsewhere.
    """
    n = graph.num_nodes
    deg = graph.degrees
    inv = 1.0 / np.sqrt(deg.astype(np.float64) + 1.0)
    coeff = np.zeros((n, n))
    coeff[np.arange(n), np.arange(n)] = inv * inv
    rows = np.repeat(np.arange(n), deg)
    coeff[rows, graph.indices] = inv[rows] * inv[graph.indices]
    return coeff


def build_blindspot_graph(k: int, f: int, seed: int) -> BlindspotInstance:
    """Mirrored random trees whose normalized feature sums vanish.

    Every node within k-1 hops of either root gets a dedicated fresh
    child whose feature is solved so the root-side closed-neighborhood
    sums cancel exactly; the v-side mirrors the u-side structure.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if f < 2:
        raise ConfigError(f"f must be >= 2, got {f}")
    rng = np.random.default_rng(seed)

    # level-by-level tree for one side: node 0 is the root. The root gets
    # random extra fanout; every other constrained node gets exactly one
    # (dedicated) child. Degrees then strictly shrink down each chain,
    # which makes the solved feature magnitudes decay geometrically and
    # keeps the roots dominant along their feature axis.
    parents = {0: None}
    levels = [[0]]
    solved_child = {}
    next_id = 1
    for level in range(k):
        frontier = []
        for w in levels[level]:
            solved_child[w] = next_id
            parents[next_id] = w
            frontier.append(next_id)
            next_id += 1
            if w == 0:
                for _ in range(int(rng.integers(3, 6))):
                    parents[next_id] = w
                    frontier.append(next_id)
                    next_id += 1
        levels.append(frontier)
    side_size = next_id
    side_edges = [(child, parent) for child, parent in parents.items()
                  if parent is not None]

    n = 2 * side_size
    u, v = 0, side_size
    node_map = {w: w + side_size for w in range(side_size)}
    edges = side_edges + [(a + side_size, b + side_size) for a, b in side_edges]

    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    deg = np.array([len(x) for x in adj], dtype=np.float64)

    features = rng.standard_normal((n, f))
    # antipodal large-norm root features: the proof leaves their scale
    # free, and dominance along one axis lets a relu stack isolate the
    # roots with exact dead zones elsewhere
    direction = rng.standard_normal(f)
    direction /= np.linalg.norm(direction)
    features[u] = 50.0 * direction
    features[v] = -features[u]

    def coeff(w, t):
        return 1.0 / np.sqrt((deg[w] + 1.0) * (deg[t] + 1.0))

    for offset in (0, side_size):
        for level in range(k):
            for w0 in levels[level]:
                w = w0 + offset
                child = solved_child[w0] + offset
                total = coeff(w, w) * features[w]
                for t in adj[w]:
                    if t != child:
                        total += coeff(w, t) * features[t]
                features[child] = -total / coeff(w, child)

    labels = np.zeros(n, dtype=np.int64)
    labels[v] = 1
    graph = build_graph(n, 2, features, labels, edges,
                        {"train": [], "val": [], "test": []})
    return BlindspotInstance(graph, u, v, k, node_map)


def _hop(graph: Graph, seen: set, frontier: set) -> set:
    """One breadth-first hop: the unseen neighbors of frontier, which are
    also added to seen."""
    nxt = set()
    for w in frontier:
        nxt.update(int(t) for t in graph.neighbors(w))
    nxt -= seen
    seen |= nxt
    return nxt


def khop_neighborhood(graph: Graph, v: int, k: int) -> set:
    """Nodes reachable from v in at most k hops, including v."""
    seen = {v}
    frontier = {v}
    for _ in range(k):
        frontier = _hop(graph, seen, frontier)
    return seen


def validate_blindspot(instance: BlindspotInstance):
    """Check the construction invariants; raises GraphValidationError."""
    g, u, v, k = instance.graph, instance.u, instance.v, instance.k
    hood_u = khop_neighborhood(g, u, k)
    hood_v = khop_neighborhood(g, v, k)
    if hood_u & hood_v:
        raise GraphValidationError("k-hop neighborhoods of u and v overlap")
    n = g.num_nodes
    image = np.full(n, -1)
    image[list(instance.node_map)] = list(instance.node_map.values())
    lo, hi = g.edge_arrays()
    a, b = np.sort([image[lo], image[hi]], axis=0)
    broken = (a >= 0) & ((b >= n) | ~np.isin(a * n + b, lo * n + hi))
    if broken.any():
        k = int(np.argmax(broken))
        raise GraphValidationError(f"mapping breaks edge ({lo[k]}, {hi[k]})")
    if np.array_equal(g.features[u], g.features[v]):
        raise GraphValidationError("u and v must have distinct features")
    gap = blindspot_cancellation_gap(instance)
    if gap >= 1e-10:
        raise GraphValidationError(f"cancellation gap {gap:.3e} >= 1.0e-10")


def blindspot_cancellation_gap(instance: BlindspotInstance) -> float:
    """Max infinity-norm of the normalized closed-neighborhood sums."""
    g, k = instance.graph, instance.k
    required = sorted(khop_neighborhood(g, instance.u, k - 1)
                      | khop_neighborhood(g, instance.v, k - 1))
    return float(np.abs(g.first_aggregation.values[required]).max())


# ---- neighborhood statistics and cost model ----

def khop_sizes(graph: Graph, num_layers: int):
    """[b_0 .. b_{L-1}]: average count of nodes within i hops (self included).
    L is at most n: no hop beyond n - 1 reaches a new node."""
    if not 1 <= num_layers <= graph.num_nodes:
        raise ConfigError(f"num_layers must be in [1, {graph.num_nodes}], got {num_layers}")
    totals = np.zeros(num_layers)
    for v in range(graph.num_nodes):
        seen = {v}
        frontier = {v}
        totals[0] += 1
        for i in range(1, num_layers):
            frontier = _hop(graph, seen, frontier)
            totals[i] += len(seen)
    return list(totals / graph.num_nodes)


def cost_estimate(graph: Graph, f: int, num_layers: int, architecture: str) -> float:
    """Multiply-accumulate count per inference, from average k-hop sizes.

    weak: f^2 * L. gcn: f^2 * sum(b_0 .. b_{L-1}), since layer i applies
    its transform to every node within L-i hops. gcn_skip doubles the
    per-node transform cost.
    """
    if architecture not in ARCHITECTURES:
        raise ConfigError(f"architecture must be one of {ARCHITECTURES}")
    if num_layers < 1 or f < 1:
        raise ConfigError("num_layers and f must be >= 1")
    if architecture == "weak":
        return float(f * f * num_layers)
    total = sum(khop_sizes(graph, num_layers))
    scale = 2.0 if architecture == "gcn_skip" else 1.0
    return float(scale * f * f * total)
