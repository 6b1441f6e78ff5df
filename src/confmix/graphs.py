"""Graph storage, JSON interchange, synthetic generators, cost model.

Graphs are undirected, unweighted, immutable after construction. The
adjacency is compressed-sparse (indptr/indices over sorted neighbor
lists, read-only) with no stored self-loops; the convolution adds the
self term analytically from degrees. Each graph builds its convolution
operator on first use and keeps it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import tensor as T
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

    @cached_property
    def coefficients(self) -> T.Tensor:
        """conv_coefficients(self) as a constant tensor, built on first use."""
        return T.Tensor(conv_coefficients(self))

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_arrays(self):
        """(lo, hi): each undirected edge once, lo < hi, in sorted order."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees)
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    def edge_list(self):
        """Each undirected edge once, as (lo, hi) pairs sorted."""
        lo, hi = self.edge_arrays()
        return list(zip(lo.tolist(), hi.tolist()))


def _integers(values, ndim: int, what: str) -> np.ndarray:
    """`values` as an int64 array of `ndim` dimensions, or a
    GraphValidationError naming `what`. As in errors.as_type, an integral
    float such as 2.0 reads as its integer; a bool or a string does not."""
    arr = np.asarray(values)
    with np.errstate(invalid="ignore"):
        out = arr.astype(np.int64) if arr.dtype.kind in "iuf" else arr
    # numpy reads [0, true] as int64, so a bool among numbers needs a scan
    items = chain.from_iterable(values) if ndim == 2 else values if ndim else ()
    if (arr.ndim != ndim or out.dtype != np.int64 or not np.array_equal(out, arr)
            or not isinstance(values, np.ndarray) and bool in set(map(type, items))):
        shape = ("an integer", "a list of integers", "a list of integer lists")[ndim]
        raise GraphValidationError(f"{what} must be {shape}")
    return out


def build_graph(num_nodes, num_classes, features, labels, edges, splits) -> Graph:
    """Validate parts, symmetrize and deduplicate edges, freeze a Graph."""
    n = int(_integers(num_nodes, 0, "num_nodes"))
    num_classes = int(_integers(num_classes, 0, "num_classes"))
    features = np.asarray(features, dtype=np.float64)
    labels = _integers(labels, 1, "labels")
    if features.ndim != 2 or features.shape[0] != n:
        raise GraphValidationError(
            f"features must be {n} rows, got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise GraphValidationError("features contain non-finite values")
    if labels.shape != (n,):
        raise GraphValidationError(f"labels must have length {n}")
    bad = np.nonzero((labels < 0) | (labels >= num_classes))[0]
    if bad.size:
        raise GraphValidationError(
            f"label {labels[bad[0]]} at node {bad[0]} outside [0, {num_classes})")

    # an empty list would read as shape (0,), not as zero pairs
    edges = _integers(edges if len(edges) else np.zeros((0, 2)), 2, "edges")
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
    # read-only, so the operator a Graph caches cannot go stale
    indptr.flags.writeable = indices.flags.writeable = False

    clean_splits = {name: np.zeros(0, dtype=np.int64) for name in _SPLIT_KEYS}
    for name in sorted(splits):
        if name not in _SPLIT_KEYS:
            raise GraphValidationError(f"unknown split name {name!r}")
        ids = _integers(splits[name], 1, f"split {name!r}")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise GraphValidationError(f"split {name!r} has node id outside [0, {n})")
        clean_splits[name] = np.sort(ids)
    claims = sum(np.bincount(ids, minlength=n) > 0 for ids in clean_splits.values())
    if (claims > 1).any():
        raise GraphValidationError(
            f"node {np.argmax(claims > 1)} appears in more than one split")

    return Graph(n, num_classes, features, labels, indptr, indices, clean_splits)


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
    if not isinstance(feats, list) or not all(isinstance(row, list) for row in feats):
        raise GraphValidationError("features must be an array of rows")
    widths = {len(row) for row in feats}
    if len(widths) > 1:
        ragged = next(i for i, row in enumerate(feats) if len(row) != len(feats[0]))
        raise GraphValidationError(f"feature row {ragged} has ragged width")
    splits = doc["splits"]
    if not isinstance(splits, dict) or set(splits) != _SPLIT_KEYS:
        raise GraphValidationError("splits must be an object with train/val/test")
    try:
        return build_graph(doc["num_nodes"], doc["num_classes"], feats,
                           doc["labels"], doc["edges"], splits)
    except (TypeError, ValueError, OverflowError) as e:
        if isinstance(e, GraphValidationError):
            raise
        raise GraphValidationError(f"malformed record in document: {e}") from e


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


def homophily_ratio(graph: Graph, nodes=None) -> float:
    """Fraction of edge endpoints (within `nodes`, if given) sharing the class."""
    lo, hi = graph.edge_arrays()
    if nodes is not None:
        inside = np.isin(lo, nodes) & np.isin(hi, nodes)
        lo, hi = lo[inside], hi[inside]
    return np.count_nonzero(graph.labels[lo] == graph.labels[hi]) / lo.size \
        if lo.size else float("nan")


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
    if gap >= tol:
        raise GraphValidationError(f"cancellation gap {gap:.3e} >= {tol:.1e}")


def blindspot_cancellation_gap(instance: BlindspotInstance) -> float:
    """Max infinity-norm of the normalized closed-neighborhood sums."""
    g, k = instance.graph, instance.k
    required = sorted(khop_neighborhood(g, instance.u, k - 1)
                      | khop_neighborhood(g, instance.v, k - 1))
    return float(np.abs(g.coefficients.values[required] @ g.features).max())


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
