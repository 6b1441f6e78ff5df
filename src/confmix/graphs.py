"""Graph storage, JSON interchange, synthetic generators, cost model.

Graphs are undirected, unweighted, immutable after construction. The
adjacency is compressed-sparse (indptr/indices over sorted neighbor
lists) with no stored self-loops; the convolution adds the self term
analytically from degrees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GraphFormatError, GraphValidationError

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

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_list(self):
        """Each undirected edge once, as (lo, hi) pairs sorted."""
        out = []
        for v in range(self.num_nodes):
            for w in self.neighbors(v):
                if v < w:
                    out.append((v, int(w)))
        return out


def build_graph(num_nodes, num_classes, features, labels, edges, splits) -> Graph:
    """Validate parts, symmetrize and deduplicate edges, freeze a Graph."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise GraphValidationError(
            f"features must be {num_nodes} rows, got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise GraphValidationError("features contain non-finite values")
    if labels.shape != (num_nodes,):
        raise GraphValidationError(f"labels must have length {num_nodes}")
    bad = np.nonzero((labels < 0) | (labels >= num_classes))[0]
    if bad.size:
        raise GraphValidationError(
            f"label {labels[bad[0]]} at node {bad[0]} outside [0, {num_classes})")

    seen = set()
    for k, (a, b) in enumerate(edges):
        a, b = int(a), int(b)
        if not (0 <= a < num_nodes and 0 <= b < num_nodes):
            raise GraphValidationError(f"edge #{k} = ({a}, {b}) has endpoint >= {num_nodes}")
        if a == b:
            raise GraphValidationError(f"edge #{k} = ({a}, {b}) is a self-loop")
        seen.add((min(a, b), max(a, b)))

    adj = [[] for _ in range(num_nodes)]
    for a, b in seen:
        adj[a].append(b)
        adj[b].append(a)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    chunks = []
    for v in range(num_nodes):
        nbrs = np.sort(np.asarray(adj[v], dtype=np.int64))
        chunks.append(nbrs)
        indptr[v + 1] = indptr[v] + nbrs.size
    indices = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)

    clean_splits = {}
    claimed = set()
    for name in sorted(splits):
        if name not in _SPLIT_KEYS:
            raise GraphValidationError(f"unknown split name {name!r}")
        ids = np.asarray(sorted(int(i) for i in splits[name]), dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
            raise GraphValidationError(f"split {name!r} has node id outside [0, {num_nodes})")
        overlap = claimed.intersection(ids.tolist())
        if overlap:
            raise GraphValidationError(
                f"node {min(overlap)} appears in more than one split")
        claimed.update(ids.tolist())
        clean_splits[name] = ids
    for name in _SPLIT_KEYS:
        clean_splits.setdefault(name, np.zeros(0, dtype=np.int64))

    return Graph(int(num_nodes), int(num_classes), features, labels,
                 indptr, indices, clean_splits)


def load_graph(path) -> Graph:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"malformed graph document at byte {e.pos}: {e.msg}") from e
    return graph_from_document(doc)


def graph_from_document(doc) -> Graph:
    if not isinstance(doc, dict):
        raise GraphValidationError("graph document must be a JSON object")
    unknown = set(doc) - _DOCUMENT_KEYS
    if unknown:
        raise GraphValidationError(f"unknown document keys: {sorted(unknown)}")
    missing = _DOCUMENT_KEYS - set(doc)
    if missing:
        raise GraphValidationError(f"missing document keys: {sorted(missing)}")
    feats = doc["features"]
    try:
        widths = {len(row) for row in feats}
    except TypeError as e:
        raise GraphValidationError("features must be an array of rows") from e
    if len(widths) > 1:
        ragged = next(i for i, row in enumerate(feats) if len(row) != len(feats[0]))
        raise GraphValidationError(f"feature row {ragged} has ragged width")
    splits = doc["splits"]
    if not isinstance(splits, dict) or set(splits) != _SPLIT_KEYS:
        raise GraphValidationError("splits must be an object with train/val/test")
    try:
        return build_graph(doc["num_nodes"], doc["num_classes"], feats,
                           doc["labels"], doc["edges"], splits)
    except (TypeError, ValueError) as e:
        if isinstance(e, GraphValidationError):
            raise
        raise GraphValidationError(f"malformed record in document: {e}") from e


def graph_to_document(graph: Graph) -> dict:
    return {
        "num_nodes": graph.num_nodes,
        "num_classes": graph.num_classes,
        "features": [[float(x) for x in row] for row in graph.features],
        "labels": [int(y) for y in graph.labels],
        "edges": [[a, b] for a, b in graph.edge_list()],
        "splits": {k: [int(i) for i in graph.splits[k]] for k in ("train", "val", "test")},
    }


def save_graph(graph: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        # dumps, not dump: dump streams through the pure-Python encoder
        fh.write(json.dumps(graph_to_document(graph), separators=(",", ":"),
                            sort_keys=True) + "\n")


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
    edges = set()
    for a in group_a:
        others = np.delete(group_a, a)
        for t in rng.choice(others, size=degree_a, replace=False):
            edges.add((min(int(a), int(t)), max(int(a), int(t))))
    same_class = {c: group_b[labels[group_b] == c] for c in (0, 1)}
    for b in group_b:
        for _ in range(degree_b):
            pool = same_class[labels[b]] if rng.random() < p_same \
                else same_class[1 - labels[b]]
            t = int(rng.choice(pool))
            while t == b:
                t = int(rng.choice(pool))
            edges.add((min(int(b), t), max(int(b), t)))

    splits = {"train": [], "val": [], "test": []}
    for group in (group_a, group_b):
        for c in (0, 1):
            cell = group[labels[group] == c].copy()
            rng.shuffle(cell)
            n_train, n_val = cell.size // 2, cell.size // 4
            splits["train"] += cell[:n_train].tolist()
            splits["val"] += cell[n_train:n_train + n_val].tolist()
            splits["test"] += cell[n_train + n_val:].tolist()

    return build_graph(n, 2, features, labels, sorted(edges), splits)


def specialization_groups(graph: Graph):
    """(feature-signal ids, structure-signal ids) for a generated benchmark."""
    half = graph.num_nodes // 2
    return np.arange(half), np.arange(half, graph.num_nodes)


def homophily_ratio(graph: Graph, nodes=None) -> float:
    """Fraction of edge endpoints (within `nodes`, if given) sharing the class."""
    keep = None if nodes is None else set(int(v) for v in nodes)
    same = total = 0
    for a, b in graph.edge_list():
        if keep is not None and (a not in keep or b not in keep):
            continue
        total += 1
        same += graph.labels[a] == graph.labels[b]
    return same / total if total else float("nan")


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


def validate_blindspot(instance: BlindspotInstance, tol: float = 1e-10):
    """Check the construction invariants; raises GraphValidationError."""
    g, u, v, k = instance.graph, instance.u, instance.v, instance.k
    hood_u = khop_neighborhood(g, u, k)
    hood_v = khop_neighborhood(g, v, k)
    if hood_u & hood_v:
        raise GraphValidationError("k-hop neighborhoods of u and v overlap")
    fmap = instance.node_map
    edge_set = set(g.edge_list())
    for a, b in g.edge_list():
        if a in fmap and b in fmap:
            img = (min(fmap[a], fmap[b]), max(fmap[a], fmap[b]))
            if img not in edge_set:
                raise GraphValidationError(f"mapping breaks edge ({a}, {b})")
    if np.array_equal(g.features[u], g.features[v]):
        raise GraphValidationError("u and v must have distinct features")
    gap = blindspot_cancellation_gap(instance)
    if gap >= tol:
        raise GraphValidationError(f"cancellation gap {gap:.3e} >= {tol:.1e}")


def blindspot_cancellation_gap(instance: BlindspotInstance) -> float:
    """Max infinity-norm of the normalized closed-neighborhood sums."""
    g, k = instance.graph, instance.k
    coeff = conv_coefficients(g)
    required = set()
    for root in (instance.u, instance.v):
        required |= khop_neighborhood(g, root, k - 1)
    worst = 0.0
    for w in required:
        worst = max(worst, float(np.abs(coeff[w] @ g.features).max()))
    return worst


# ---- neighborhood statistics and cost model ----

def khop_sizes(graph: Graph, num_layers: int):
    """[b_0 .. b_{L-1}]: average count of nodes within i hops (self included)."""
    if num_layers < 1:
        raise ConfigError(f"num_layers must be >= 1, got {num_layers}")
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
