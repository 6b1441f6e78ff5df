"""Dense float64 tensors with a reverse-mode tape.

Sized for small perceptron stacks and graph convolutions: eager forward
evaluation, per-primitive backward closures, and a central-difference
oracle (`check_gradient`) that stays independent of the reverse pass.

`Tensor(...)` rejects NaN/Inf when it is built; primitive outputs are
not scanned again. A tensor that neither requires a gradient nor was
produced from one that does is a constant: the reverse pass computes,
allocates and stores nothing for it.

Every log argument is clamped to [LOG_FLOOR, 1] so cross-entropy style
losses stay finite at the simplex boundary; the same floor is used by
every loss in the package so oracle comparisons see identical values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DomainError, ShapeError, TapeStateError

LOG_FLOOR = 1e-12
LOG_CEIL = 1.0


class Tensor:
    """A dense float64 array plus an optional gradient slot.

    Non-leaf tensors remember the primitive that produced them (name,
    parents, backward closure); that record is what `Tape` walks.
    Tensors are confined to one logical thread for the duration of a
    forward/backward pass.
    """

    __slots__ = ("values", "requires_grad", "grad", "_op", "_parents", "_backward")

    # keep numpy from absorbing `ndarray <op> Tensor`; the reflected
    # operator then routes through our primitives
    __array_ufunc__ = None

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("tensor values must be finite (no NaN/Inf)")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._op = None
        self._parents = ()
        self._backward = None

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


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._op is not None


def _make(values, op, parents, backward) -> Tensor:
    # a primitive's output is computed from checked operands, so it skips
    # __init__'s finiteness scan; non-finite values surface at the loss
    out = Tensor.__new__(Tensor)
    out.values, out.grad = values, None
    out.requires_grad = any(_needs_grad(p) for p in parents)
    out._op, out._parents, out._backward = (
        (op, tuple(parents), backward) if out.requires_grad else (None, (), None))
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not _needs_grad(t):
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
    if not _add_compatible(a.shape, b.shape):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    values = a.values + b.values

    def backward(out):
        if _needs_grad(a):
            _accum(a, _unbroadcast(out.grad, a.shape))
        if _needs_grad(b):
            _accum(b, _unbroadcast(out.grad, b.shape))

    return _make(values, "add", (a, b), backward)


def _add_compatible(sa, sb) -> bool:
    if sa == sb:
        return True
    # row-vector bias onto a matrix, or scalar onto anything
    if len(sa) == 2 and sb == (sa[1],):
        return True
    if len(sb) == 2 and sa == (sb[1],):
        return True
    return () in (sa, sb)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if not _mul_compatible(a.shape, b.shape):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    values = a.values * b.values

    def backward(out):
        if _needs_grad(a):
            _accum(a, _unbroadcast(out.grad * b.values, a.shape))
        if _needs_grad(b):
            _accum(b, _unbroadcast(out.grad * a.values, b.shape))

    return _make(values, "mul", (a, b), backward)


def _mul_compatible(sa, sb) -> bool:
    if sa == sb or () in (sa, sb):
        return True
    # per-row scaling of a matrix by a column
    if len(sa) == 2 and sb == (sa[0], 1):
        return True
    if len(sb) == 2 and sa == (sb[0], 1):
        return True
    return False


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    values = a.values @ b.values

    def backward(out):
        # a constant operand, such as the coefficient matrix, costs no product
        if _needs_grad(a):
            _accum(a, out.grad @ b.values.T)
        if _needs_grad(b):
            _accum(b, a.values.T @ out.grad)

    return _make(values, "matmul", (a, b), backward)


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

    return _make(np.asarray(a.values.mean()), "mean", (a,), backward)


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
    if not parts or any(p.values.ndim != 1 for p in parts):
        raise ShapeError("stack_columns needs one or more vectors")
    n = parts[0].shape[0]
    if any(p.shape != (n,) for p in parts):
        raise ShapeError(f"stack_columns: lengths differ, {[p.shape for p in parts]}")

    def backward(out):
        for j, p in enumerate(parts):
            _accum(p, out.grad[:, j])

    return _make(np.stack([p.values for p in parts], axis=1), "stack_columns",
                 tuple(parts), backward)


# ---- tape ----

class Tape:
    """The non-leaf tensors behind one output, in topological order.

    Every node comes after the nodes it consumes, so the reverse pass
    runs the backward closures from the end of `records`.
    """

    def __init__(self, records):
        self.records = list(records)

    @classmethod
    def from_output(cls, out: Tensor) -> "Tape":
        order, seen, stack = [], set(), [(out, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or node._op is None:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        return cls(order)

    def leaves(self):
        """The tensors the records consume but do not hold, each once."""
        recorded = {id(node) for node in self.records}
        return list({id(p): p for node in self.records for p in node._parents
                     if id(p) not in recorded}.values())

    def backward(self, out: Tensor):
        if out.values.size != 1:
            raise ContractError(f"backward needs a scalar output, got shape {out.shape}")
        for node in self.records:
            node.grad = None
        for leaf in self.leaves():
            leaf.grad = None
        out.grad = np.ones_like(out.values)
        for node in reversed(self.records):
            node._backward(node)


def backward(out: Tensor):
    """Populate grad slots of every leaf the scalar `out` depends on."""
    out = _coerce(out)
    if out._op is None and not out.requires_grad:
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
