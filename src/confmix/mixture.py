"""Mixture losses and both inference modes.

Two objectives over the same pieces: `mixture_loss` is the expected
loss of the stochastic gate (confidence-weighted sum of per-expert
cross-entropies); `blend_loss` is the cross-entropy of the
confidence-blended prediction, which never exceeds it.

`mixture_rows` is the one per-node mixture objective, the chained gate
over m experts' loss rows; the two-expert loss is its m = 2 case. The
rows may be live or constant, as a training turn's frozen side is.
Neither it nor `blend_rows` checks values; the public losses and
`infer_stochastic` check theirs once, where they enter.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .confidence import on_simplex
from .documents import write_csv
from .errors import ConfigError, DomainError


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, T.Tensor) else np.asarray(x, dtype=np.float64)


def _check(*confs, **rows):
    """DomainError unless each named operand is a matrix of probability
    rows and each of `confs` lies in [0, 1]."""
    for name, p in rows.items():
        p = _values(p)
        if p.ndim != 2:
            raise DomainError(f"{name} must be a matrix of probability rows")
        if not on_simplex(p):
            bad = next(i for i, row in enumerate(p) if not on_simplex(row))
            raise DomainError(f"{name} row {bad} is off the probability simplex")
    for c in confs:
        c = _values(c)
        if not (c.min() >= 0.0 and c.max() <= 1.0):
            raise DomainError("confidence values must lie in [0, 1]")


def mixture_rows(confidences, losses) -> T.Tensor:
    """Per-node chained-gate loss over the experts' loss rows, weakest first.

    Gate m sends a node to expert m with confidence c_m and passes the
    rest on; the last expert's confidence is pinned to one. Folded from
    the last expert back: tail = c_m * L_m + (1 - c_m) * tail, so two
    experts give c * CE(weak) + (1 - c) * CE(strong).
    """
    if len(losses) < 2:
        raise ConfigError(f"need at least 2 experts, got {len(losses)}")
    if len(confidences) != len(losses) - 1:
        raise ConfigError(
            f"{len(losses)} experts need {len(losses) - 1} confidence rows, "
            f"got {len(confidences)}")
    tail = losses[-1]
    for c, loss in reversed(list(zip(confidences, losses))):
        tail = c * loss + (c * (-1.0) + 1.0) * tail
    return tail


def mixture_loss(p_weak, p_strong, conf, labels) -> T.Tensor:
    """mean_v [ c_v * CE(weak_v) + (1 - c_v) * CE(strong_v) ].

    Differentiable through every tensor argument; the weights collapse
    the loss to a single expert at c identically 0 or 1.
    """
    _check(conf, p_weak=p_weak, p_strong=p_strong)
    return T.mean_all(mixture_rows([conf], [T.nll_rows(p_weak, labels),
                                            T.nll_rows(p_strong, labels)]))


def blend_rows(p_weak, p_strong, conf) -> T.Tensor:
    """Per-node convex blend c*p + (1-c)*p'; rows stay on the simplex."""
    col = T.stack_columns([conf])
    return col * p_weak + (col * (-1.0) + 1.0) * p_strong


def blend_loss(p_weak, p_strong, conf, labels) -> T.Tensor:
    """Cross-entropy of the blended prediction; <= mixture_loss pointwise.
    A convex blend of checked probability rows needs no second check."""
    _check(conf, p_weak=p_weak, p_strong=p_strong)
    return T.mean_all(T.nll_rows(blend_rows(p_weak, p_strong, conf), labels))


def multi_expert_loss(prob_list, confidences, labels) -> T.Tensor:
    """Chained-gate loss over progressively stronger experts."""
    _check(*confidences, **{f"expert {m}": p for m, p in enumerate(prob_list)})
    return T.mean_all(mixture_rows(confidences, [T.nll_rows(p, labels) for p in prob_list]))


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
