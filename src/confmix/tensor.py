"""Dense float64 tensors with a reverse-mode tape.

Sized for small perceptron stacks and graph convolutions: eager forward
evaluation, per-primitive backward closures, and a central-difference
oracle (`check_gradient`) that stays independent of the reverse pass.

`Tensor(...)` rejects NaN/Inf when it is built; primitive outputs and
a `constant` are not scanned. A tensor that
neither requires a gradient nor was produced from one that does is a
constant: the reverse pass computes, allocates and stores nothing for it.

Every log argument is clamped to [LOG_FLOOR, 1] so cross-entropy style
losses stay finite at the simplex boundary; the same floor is used by
every loss in the package so oracle comparisons see identical values.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter

import numpy as np

from .errors import ContractError, DomainError, ShapeError, TapeStateError

LOG_FLOOR = 1e-12
LOG_CEIL = 1.0
# creation stamps of records; a record's operands are made before it
_STAMPS = itertools.count()


class Tensor:
    """A dense float64 array plus an optional gradient slot.

    Non-leaf tensors remember the primitive that produced them (name,
    parents, backward closure); that record is what `Tape` walks.
    `requires_grad` holds for a leaf built with it and for every record,
    so it alone says whether the reverse pass reaches a tensor.
    Tensors are confined to one logical thread for the duration of a
    forward/backward pass.
    """

    __slots__ = ("values", "requires_grad", "grad", "_op", "_parents", "_backward",
                 "_stamp")

    # keep numpy from absorbing `ndarray <op> Tensor`; the reflected
    # operator then routes through our primitives
    __array_ufunc__ = None

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("tensor values must be finite (no NaN/Inf)")
        self.requires_grad = bool(requires_grad)
        self.grad = self._op = self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        tag = self._op or ("leaf*" if self.requires_grad else "leaf")
        return f"Tensor({tag}, shape={self.shape})"

    # ---- operator sugar over the primitives below ----

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_coerce(other))


def _coerce(x) -> Tensor:
    if type(x) is float and math.isfinite(x):
        # a Python float operand, such as a loss's -1.0, needs no array scan
        return _make(np.asarray(x), None, (), None)
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(values) -> Tensor:
    """`values` as a constant tensor: no finiteness scan and no record.
    For values finite by construction, or a training turn's frozen
    forward, whose non-finite values surface at the loss check."""
    return _make(np.asarray(values, dtype=np.float64), None, (), None)


def _make(values, op, parents, backward) -> Tensor:
    # a primitive's output is computed from checked operands, so it skips
    # __init__'s finiteness scan; non-finite values surface at the loss
    out = Tensor.__new__(Tensor)
    out.values, out.grad = values, None
    out.requires_grad = any([p.requires_grad for p in parents])
    if out.requires_grad:
        out._op, out._parents, out._backward = op, tuple(parents), backward
        out._stamp = next(_STAMPS)
    else:
        out._op, out._parents, out._backward = None, (), None
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a new array: g may be another node's grad or a view of one.
        # Adding 0.0 turns -0.0 into 0.0, as accumulating onto zeros does.
        t.grad = g + 0.0
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gd, sd) in enumerate(zip(g.shape, shape)):
        if sd == 1 and gd != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---- primitives ----

def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.shape, b.shape
    # equal shapes, a scalar, or a row vector onto every row of a matrix
    if not (sa == sb or () in (sa, sb) or (len(sa) == 2 and sb == sa[1:])
            or (len(sb) == 2 and sa == sb[1:])):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    values = a.values + b.values

    def backward(out):
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad, b.shape))

    return _make(values, "add", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.shape, b.shape
    # equal shapes, a scalar, or a matrix scaled per row by a column
    if not (sa == sb or () in (sa, sb) or (len(sa) == 2 and sb == (sa[0], 1))
            or (len(sb) == 2 and sa == (sb[0], 1))):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    values = a.values * b.values

    def backward(out):
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad * b.values, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad * a.values, b.shape))

    return _make(values, "mul", (a, b), backward)


def matmul(a, b, bias=None) -> Tensor:
    """a @ b, plus `bias` on every row when given: a layer's affine map."""
    a, b = _coerce(a), _coerce(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    values = a.values @ b.values
    parents = (a, b)
    if bias is not None:
        bias = _coerce(bias)
        if bias.shape != b.shape[1:]:
            raise ShapeError(f"matmul: bias {bias.shape} does not fit {values.shape}")
        values += bias.values
        parents = (a, b, bias)

    def backward(out):
        # a constant operand, such as the coefficient matrix, costs no product.
        # b's gradient aᵀg is formed as (gᵀa)ᵀ: BLAS runs a product whose left
        # operand is transposed at about half speed, and with the n×n
        # coefficient matrix as `a` that product is most of a backward pass
        if a.requires_grad:
            _accum(a, out.grad @ b.values.T)
        if b.requires_grad:
            _accum(b, (out.grad.T @ a.values).T)
        if bias is not None and bias.requires_grad:
            _accum(bias, out.grad.sum(axis=0))

    return _make(values, "matmul", parents, backward)


def relu(a) -> Tensor:
    a = _coerce(a)
    values = np.maximum(a.values, 0.0)

    def backward(out):
        _accum(a, out.grad * (a.values > 0.0))

    return _make(values, "relu", (a,), backward)


def log(a) -> Tensor:
    """Natural log of values clamped to [LOG_FLOOR, LOG_CEIL].

    Intended for probabilities; the clamp keeps losses finite at the
    simplex boundary. Gradient is zero wherever the clamp is active.
    """
    a = _coerce(a)
    values = np.log(np.clip(a.values, LOG_FLOOR, LOG_CEIL))

    def backward(out):
        inside = (a.values > LOG_FLOOR) & (a.values < LOG_CEIL)
        _accum(a, out.grad * inside / np.clip(a.values, LOG_FLOOR, LOG_CEIL))

    return _make(values, "log", (a,), backward)


def softmax_rows(a) -> Tensor:
    a = _coerce(a)
    if a.values.ndim != 2:
        raise ShapeError(f"softmax_rows needs a matrix, got shape {a.shape}")
    z = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(z)
    values = e / e.sum(axis=1, keepdims=True)

    def backward(out):
        s = out.values
        g = out.grad
        _accum(a, s * (g - (g * s).sum(axis=1, keepdims=True)))

    return _make(values, "softmax_rows", (a,), backward)


def sum_rows(a) -> Tensor:
    a = _coerce(a)
    if a.values.ndim != 2:
        raise ShapeError(f"sum_rows needs a matrix, got shape {a.shape}")

    def backward(out):
        _accum(a, np.broadcast_to(out.grad[:, None], a.shape))

    return _make(a.values.sum(axis=1), "sum_rows", (a,), backward)


def mean_all(a) -> Tensor:
    a = _coerce(a)
    n = a.values.size

    def backward(out):
        _accum(a, np.broadcast_to(out.grad / n, a.shape))

    return _make(np.asarray(a.values.mean()), "mean_all", (a,), backward)


def mean_rows(a, ids) -> Tensor:
    """Mean of the vector `a` at distinct ids, such as a graph split's,
    which are range-checked when the graph is built, not here."""
    a, ids = _coerce(a), np.asarray(ids, dtype=np.intp)
    if a.values.ndim != 1 or ids.ndim != 1 or not ids.size:
        raise ShapeError(f"mean_rows needs a vector and ids, got {a.shape}, {ids.shape}")

    def backward(out):
        g = np.zeros_like(a.values)
        g[ids] = out.grad / ids.size
        _accum(a, g)

    return _make(np.asarray(a.values[ids].mean()), "mean_rows", (a,), backward)


def nll_rows(p, labels) -> Tensor:
    """Cross-entropy rows -log p[row, label], clamped as `log` clamps; a
    label outside the columns, or not one per row, is a ShapeError."""
    p, labels = _coerce(p), np.asarray(labels, dtype=np.intp)
    if p.values.ndim != 2 or labels.shape != p.shape[:1] or labels.size and (
            labels.min() < 0 or labels.max() >= p.shape[1]):
        raise ShapeError(f"nll_rows needs one label in [0, k) per row, got {labels.shape} "
                         f"for rows {p.shape}")
    rows = np.arange(labels.size)
    picked = np.clip(p.values[rows, labels], LOG_FLOOR, LOG_CEIL)

    def backward(out):
        inside = (picked > LOG_FLOOR) & (picked < LOG_CEIL)
        g = np.zeros_like(p.values)
        g[rows, labels] = out.grad * -1.0 * inside / picked
        _accum(p, g)

    return _make(-np.log(picked), "nll_rows", (p,), backward)


def take_rows(a, index, cols=None) -> Tensor:
    """Gather rows, or with `cols` the matrix entries (index[i], cols[i]);
    the reverse pass scatter-adds back."""
    a = _coerce(a)
    idx = tuple(np.asarray(i, dtype=np.intp) for i in (index, cols) if i is not None)
    if a.values.ndim not in (len(idx), 2) or idx[-1].shape != idx[0].shape:
        raise ShapeError(f"take_rows: index shapes {[i.shape for i in idx]} do not "
                         f"fit a vector or matrix, got shape {a.shape}")
    for axis, i in enumerate(idx):
        if i.size and (i.min() < 0 or i.max() >= a.shape[axis]):
            raise ShapeError(f"take_rows: axis-{axis} index out of range for shape {a.shape}")

    def backward(out):
        g = np.zeros_like(a.values)
        np.add.at(g, idx, out.grad)
        _accum(a, g)

    return _make(a.values[idx], "take_rows", (a,), backward)


def stack_columns(parts) -> Tensor:
    """Stack 1-D tensors of equal length into the columns of a matrix."""
    parts = [_coerce(p) for p in parts]
    if not parts or any(p.values.ndim != 1 or p.shape != parts[0].shape for p in parts):
        raise ShapeError(f"stack_columns needs vectors of one length, got "
                         f"{[p.shape for p in parts]}")

    def backward(out):
        for j, p in enumerate(parts):
            _accum(p, out.grad[:, j])

    return _make(np.stack([p.values for p in parts], axis=1), "stack_columns",
                 tuple(parts), backward)


# ---- tape ----

class Tape:
    """The non-leaf tensors behind one output, in topological order, and
    the tensors they consume but do not hold.

    Every node comes after the nodes it consumes, so the reverse pass
    runs the backward closures from the end of `records`.
    """

    def __init__(self, records, leaves):
        self.records, self._leaves = records, leaves

    @classmethod
    def from_output(cls, out: Tensor) -> "Tape":
        # one walk finds the records and leaves; the stamps order the records
        records, leaves = [], []
        seen, stack = {id(out)}, [out] if out._op is not None else []
        while stack:
            node = stack.pop()
            records.append(node)
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    (stack if p._op is not None else leaves).append(p)
        records.sort(key=attrgetter("_stamp"))
        return cls(records, leaves)

    def leaves(self):
        """The tensors the records consume but do not hold, each once."""
        return self._leaves

    def backward(self, out: Tensor):
        if out.values.size != 1:
            raise ContractError(f"backward needs a scalar output, got shape {out.shape}")
        for node in self.records:
            node.grad = None
        for leaf in self._leaves:
            leaf.grad = None
        out.grad = np.ones_like(out.values)
        for node in reversed(self.records):
            node._backward(node)


def backward(out: Tensor):
    """Populate grad slots of every leaf the scalar `out` depends on."""
    out = _coerce(out)
    if not out.requires_grad:
        raise TapeStateError("output is detached from any recorded tape")
    Tape.from_output(out).backward(out)


def check_gradient(fn, inputs, h: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central differences.

    `fn` must be a pure function of `inputs` returning a scalar Tensor.
    Error for each coordinate is |analytic - fd| / max(1, |analytic|).
    """
    if not (0.0 < h <= 1e-3):
        raise ContractError(f"step size h={h} outside (0, 1e-3]")
    leaves = [t for t in inputs if t.requires_grad]
    out = fn(inputs)
    backward(out)
    analytic = [np.array(t.grad if t.grad is not None else np.zeros_like(t.values))
                for t in leaves]
    worst = 0.0
    for t, grad in zip(leaves, analytic):
        for idx in np.ndindex(t.values.shape):
            keep = t.values[idx]
            t.values[idx] = keep + h
            up = fn(inputs).item()
            t.values[idx] = keep - h
            down = fn(inputs).item()
            t.values[idx] = keep
            fd = (up - down) / (2.0 * h)
            a = grad[idx]
            worst = max(worst, abs(a - fd) / max(1.0, abs(a)))
    return worst
