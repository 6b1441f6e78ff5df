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


def _check(conf=None, **rows):
    """DomainError unless each named operand is a matrix of probability
    rows and `conf`, when given, lies in [0, 1]."""
    for name, p in rows.items():
        p = _values(p)
        if p.ndim != 2:
            raise DomainError(f"{name} must be a matrix of probability rows")
        sums = p.sum(axis=1)
        if p.min() < -SIMPLEX_TOL or np.abs(sums - 1.0).max() > SIMPLEX_TOL:
            bad = int(np.abs(sums - 1.0).argmax())
            raise DomainError(f"{name} row {bad} is off the probability simplex")
    if conf is not None and (_values(conf).min() < 0.0 or _values(conf).max() > 1.0):
        raise DomainError("confidence values must lie in [0, 1]")


def cross_entropy_rows(probs, labels) -> T.Tensor:
    """Per-row -log p[label], with the package-wide clamp floor. Labels
    outside the classes, or not one per row, are a ShapeError."""
    return -T.log(T.take_rows(probs, np.arange(np.shape(probs)[0]), labels))


def _links(confidences, losses):
    """Each gate's own term and the weight it leaves the tail: (c * CE, 1 - c)."""
    return [(c * loss, c * (-1.0) + 1.0) for c, loss in zip(confidences, losses)]


def _fold(links, tail) -> T.Tensor:
    """Per-node chained-gate loss, folded from the strongest expert back:
    tail = c_m * CE_m + (1 - c_m) * tail."""
    for own, keep in reversed(links):
        tail = own + keep * tail
    return tail


def mixture_loss_rows(p_weak, p_strong, conf, labels) -> T.Tensor:
    """Per-node c_v * CE(weak_v) + (1 - c_v) * CE(strong_v)."""
    _check(conf, p_weak=p_weak, p_strong=p_strong)
    links = _links([conf], [cross_entropy_rows(p_weak, labels)])
    return _fold(links, cross_entropy_rows(p_strong, labels))


def mixture_loss(p_weak, p_strong, conf, labels) -> T.Tensor:
    """mean_v [ c_v * CE(weak_v) + (1 - c_v) * CE(strong_v) ].

    Differentiable through every tensor argument; the weights collapse
    the loss to a single expert at c identically 0 or 1.
    """
    return T.mean_all(mixture_loss_rows(p_weak, p_strong, conf, labels))


def weak_turn_rows(p_strong, labels):
    """mixture_loss_rows of the live (p_weak, conf) against frozen strong rows."""
    _check(p_strong=p_strong)
    strong_ce = cross_entropy_rows(p_strong, labels)

    def rows(p_weak, conf):
        _check(conf, p_weak=p_weak)
        return _fold(_links([conf], [cross_entropy_rows(p_weak, labels)]), strong_ce)
    return rows


def strong_turn_rows(p_weak, conf, labels):
    """mixture_loss_rows of the live p_strong against frozen weak rows and conf."""
    _check(conf, p_weak=p_weak)
    links = _links([conf], [cross_entropy_rows(p_weak, labels)])

    def rows(p_strong):
        _check(p_strong=p_strong)
        return _fold(links, cross_entropy_rows(p_strong, labels))
    return rows


def blend_rows(p_weak, p_strong, conf) -> T.Tensor:
    """Per-node convex blend c*p + (1-c)*p'; rows stay on the simplex."""
    col = T.stack_columns([conf])
    return col * p_weak + (col * (-1.0) + 1.0) * p_strong


def blend_loss_rows(p_weak, p_strong, conf, labels) -> T.Tensor:
    """Per-node cross-entropy of the blended prediction."""
    _check(conf, p_weak=p_weak, p_strong=p_strong)
    return cross_entropy_rows(blend_rows(p_weak, p_strong, conf), labels)


def blend_loss(p_weak, p_strong, conf, labels) -> T.Tensor:
    """Cross-entropy of the blended prediction; <= mixture_loss pointwise."""
    return T.mean_all(blend_loss_rows(p_weak, p_strong, conf, labels))


def multi_expert_loss(prob_list, confidences, labels) -> T.Tensor:
    """Recursive chained-gate loss over progressively stronger experts."""
    if len(prob_list) < 2:
        raise ConfigError(f"need at least 2 experts, got {len(prob_list)}")
    if len(confidences) != len(prob_list) - 1:
        raise ConfigError(
            f"{len(prob_list)} experts need {len(prob_list) - 1} confidence rows, "
            f"got {len(confidences)}")
    _check(**{f"expert {m}": p for m, p in enumerate(prob_list)})
    for c in confidences:
        _check(c)
    losses = [cross_entropy_rows(p, labels) for p in prob_list]
    return T.mean_all(_fold(_links(confidences, losses), losses[-1]))


def infer_stochastic(p_weak, p_strong, conf, seed: int):
    """Gate each node independently: weak fires when its uniform draw
    lands below the node's confidence.

    One variate per node in node-id order from the given seed. Returns
    (predicted class, weak-fired flag) arrays. Argmax ties break toward
    the lowest class index.
    """
    pw, ps, c = _values(p_weak), _values(p_strong), _values(conf)
    _check(c)
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
