"""Mixture losses and both inference modes.

Two objectives over the same pieces: `mixture_loss` is the expected
loss of the stochastic gate (confidence-weighted sum of per-expert
cross-entropies); `blend_loss` is the cross-entropy of the
confidence-blended prediction, which never exceeds it. The multi-expert
form chains gates recursively with the last expert's confidence pinned
to one so the per-node weights form a distribution.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .confidence import SIMPLEX_TOL
from .documents import write_csv
from .errors import ConfigError, DomainError


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, T.Tensor) else np.asarray(x, dtype=np.float64)


def _check_prob_rows(rows: np.ndarray, name: str):
    if rows.ndim != 2:
        raise DomainError(f"{name} must be a matrix of probability rows")
    sums = rows.sum(axis=1)
    if rows.min() < -SIMPLEX_TOL or np.abs(sums - 1.0).max() > SIMPLEX_TOL:
        bad = int(np.abs(sums - 1.0).argmax())
        raise DomainError(f"{name} row {bad} is off the probability simplex")


def _check_conf(c: np.ndarray):
    if c.min() < 0.0 or c.max() > 1.0:
        raise DomainError("confidence values must lie in [0, 1]")


def cross_entropy_rows(probs, labels) -> T.Tensor:
    """Per-row -log p[label], with the package-wide clamp floor. Labels
    outside the classes, or not one per row, are a ShapeError."""
    return -T.log(T.take_rows(probs, np.arange(np.shape(probs)[0]), labels))


def _check_inputs(p_weak, p_strong, conf):
    _check_prob_rows(_values(p_weak), "p_weak")
    _check_prob_rows(_values(p_strong), "p_strong")
    _check_conf(_values(conf))


def _chain_rows(prob_list, confidences, labels) -> T.Tensor:
    """Per-node chained-gate loss, folded from the strongest expert back:
    tail = c_m * CE_m + (1 - c_m) * tail."""
    losses = [cross_entropy_rows(p, labels) for p in prob_list]
    tail = losses[-1]
    for c, loss in zip(reversed(confidences), reversed(losses[:-1])):
        tail = c * loss + (c * (-1.0) + 1.0) * tail
    return tail


def mixture_loss_rows(p_weak, p_strong, conf, labels) -> T.Tensor:
    """Per-node c_v * CE(weak_v) + (1 - c_v) * CE(strong_v)."""
    _check_inputs(p_weak, p_strong, conf)
    return _chain_rows([p_weak, p_strong], [conf], labels)


def mixture_loss(p_weak, p_strong, conf, labels) -> T.Tensor:
    """mean_v [ c_v * CE(weak_v) + (1 - c_v) * CE(strong_v) ].

    Differentiable through every tensor argument; the weights collapse
    the loss to a single expert at c identically 0 or 1.
    """
    return T.mean_all(mixture_loss_rows(p_weak, p_strong, conf, labels))


def blend_rows(p_weak, p_strong, conf) -> T.Tensor:
    """Per-node convex blend c*p + (1-c)*p'; rows stay on the simplex."""
    col = T.stack_columns([conf])
    return col * p_weak + (col * (-1.0) + 1.0) * p_strong


def blend_loss_rows(p_weak, p_strong, conf, labels) -> T.Tensor:
    """Per-node cross-entropy of the blended prediction."""
    _check_inputs(p_weak, p_strong, conf)
    return cross_entropy_rows(blend_rows(p_weak, p_strong, conf), labels)


def blend_loss(p_weak, p_strong, conf, labels) -> T.Tensor:
    """Cross-entropy of the blended prediction; <= mixture_loss pointwise."""
    return T.mean_all(blend_loss_rows(p_weak, p_strong, conf, labels))


def multi_expert_weights(confidences) -> np.ndarray:
    """Per-node gate weights for experts 1..M; rows sum to one.

    `confidences` holds M-1 rows of per-node confidence; the final
    expert's confidence is pinned to 1, which makes the M=2 case
    coincide with the two-expert loss.
    """
    cs = [np.asarray(_values(c), dtype=np.float64) for c in confidences]
    for c in cs:
        _check_conf(c)
    num_nodes = cs[0].shape[0] if cs else None
    if num_nodes is None:
        raise ConfigError("at least one confidence row is required")
    cs = cs + [np.ones(num_nodes)]
    weights = np.zeros((len(cs), num_nodes))
    carry = np.ones(num_nodes)
    for m, c in enumerate(cs):
        weights[m] = carry * c
        carry = carry * (1.0 - c)
    return weights


def multi_expert_loss(prob_list, confidences, labels) -> T.Tensor:
    """Recursive chained-gate loss over progressively stronger experts."""
    if len(prob_list) < 2:
        raise ConfigError(f"need at least 2 experts, got {len(prob_list)}")
    if len(confidences) != len(prob_list) - 1:
        raise ConfigError(
            f"{len(prob_list)} experts need {len(prob_list) - 1} confidence rows, "
            f"got {len(confidences)}")
    for m, p in enumerate(prob_list):
        _check_prob_rows(_values(p), f"expert {m}")
    for c in confidences:
        _check_conf(_values(c))
    return T.mean_all(_chain_rows(prob_list, confidences, labels))


def infer_stochastic(p_weak, p_strong, conf, seed: int):
    """Gate each node independently: weak fires when its uniform draw
    lands below the node's confidence.

    One variate per node in node-id order from the given seed. Returns
    (predicted class, weak-fired flag) arrays. Argmax ties break toward
    the lowest class index.
    """
    pw, ps, c = _values(p_weak), _values(p_strong), _values(conf)
    _check_conf(c)
    rng = np.random.default_rng(seed)
    draws = rng.uniform(0.0, 1.0, size=pw.shape[0])
    weak_fired = draws < c
    pred = np.where(weak_fired, pw.argmax(axis=1), ps.argmax(axis=1))
    return pred.astype(np.int64), weak_fired


def infer_expected(p_weak, p_strong, conf):
    """Deterministic blend prediction: returns (blend rows, argmax class)."""
    q = _values(blend_rows(p_weak, p_strong, conf))
    return q, q.argmax(axis=1).astype(np.int64)


def write_predictions_csv(path, node_ids, expert, conf, pred, true):
    """Dump per-node predictions: expert is 'weak'/'strong'/'expected'."""
    # as Python values, which format faster than numpy scalars
    columns = (np.asarray(c).tolist() for c in (node_ids, expert, conf, pred, true))
    write_csv(path, ["node_id", "expert", "confidence", "pred_class", "true_class"],
              zip(*columns))
