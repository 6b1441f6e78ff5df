"""Float64 tensors with a reverse-mode tape.

Sized for small perceptron stacks and graph convolutions: eager forward
evaluation, per-primitive backward closures, and a central-difference
oracle (`check_gradient`) that stays independent of the reverse pass.
A tensor holds a dense array, except that a constant may hold a
`SymmetricRows` operator, a symmetric S·B·S with a 0/1 pattern B and a
diagonal scale S, which only `matmul` reads.

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
# the most columns a row tile of a SymmetricRows gathers. Among tiles of
# 256-65,536 columns, 4,096 is within 2% of the fastest at n = 4,000 and
# widths 8 and 32, and its width-32 gather of 1 MB keeps that product's
# peak near 3 MB (BENCH_row_tiles.json, "micro")
_TILE_ENTRIES = 4096
# a SymmetricRows operator gathers its rows while their entries fill less
# than this share of the n×n matrix, else multiplies a dense copy. Per
# product, the row tiles break even with the dense matrix at width 32 near
# 2% at n = 500 and near 4% at n = 1,000-4,000, and at width 8 at 5-6% and
# above 6% (BENCH_row_tiles.json, "micro"): 2% is the most that keeps the
# rows no slower at every size scanned
SPARSE_DENSITY = 0.02
# creation stamps of records; a record's operands are made before it
_STAMPS = itertools.count()


class Tensor:
    """A float64 array plus an optional gradient slot.

    The array is dense, or for a constant operator a `SymmetricRows`.

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
    forward, whose non-finite values surface at the loss check.
    A `SymmetricRows` is held as it is."""
    if not isinstance(values, SymmetricRows):
        values = np.asarray(values, dtype=np.float64)
    return _make(values, None, (), None)


class SymmetricRows:
    """A read-only symmetric n×n matrix S·B·S, stored by its density: B
    is a 0/1 pattern given by its rows' columns, and S the diagonal of
    the per-node `scale`.

    Row i's columns are `columns[starts[i]:starts[i + 1]]` (the last
    row's run to the end), and its entry in column j is
    `scale[i] * scale[j]`. Every row holds at least one column, as a
    graph's closed neighborhood holds its own node, so one
    `np.add.reduceat` sums every run. Symmetry is not checked: `T` is
    the operator itself.

    Entries filling SPARSE_DENSITY of the matrix or more are scattered
    once into `dense`, which `times` multiplies instead of the rows.
    Below it, `tiles` cuts the rows once into runs of whole rows whose
    columns fit in _TILE_ENTRIES, one row at least.
    """

    __slots__ = ("shape", "starts", "columns", "scale", "dense", "tiles")
    ndim = 2

    def __init__(self, starts, columns, scale):
        n = starts.size
        self.shape = (n, n)
        self.starts, self.columns, self.scale = starts, columns, scale
        for array in (starts, columns, scale):
            array.flags.writeable = False
        self.dense, self.tiles = None, []
        bounds = np.append(starts, columns.size)
        if columns.size >= SPARSE_DENSITY * n * n:
            rows = np.repeat(np.arange(n), np.diff(bounds))
            self.dense = np.zeros((n, n))
            self.dense[rows, columns] = scale[rows] * scale[columns]
            self.dense.flags.writeable = False
            return
        lo = 0
        while lo < n:
            hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + _TILE_ENTRIES, "right")) - 1)
            # a tile's rows, their columns, and where each row's run starts in them
            self.tiles.append((lo, hi, columns[bounds[lo]:bounds[hi]], starts[lo:hi] - bounds[lo]))
            lo = hi

    @property
    def T(self):
        return self

    def times(self, h: np.ndarray) -> np.ndarray:
        """self @ h for an (n, width) array, as contiguous rows. The rows
        scale h by S once, then for each tile gather the columns of (Sh)ᵀ
        its rows name and sum each row's run in stored order, and scale
        the sums by S once; a tile's gather stays in cache and leaves
        every sum as it is."""
        if self.dense is not None:
            return self.dense @ h
        ht = np.multiply(h.T, self.scale, order="C")
        out = np.empty(ht.shape)
        for lo, hi, columns, offsets in self.tiles:
            np.add.reduceat(np.take(ht, columns, axis=1), offsets, axis=1,
                            out=out[:, lo:hi])
        out *= self.scale
        return np.ascontiguousarray(out.T)

    def __matmul__(self, h):
        # a call, not an alias, so a wrapper set on `times` sees every product
        return self.times(h)


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


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a new array, unless the closure made g (`fresh`, and not a 0-d
        # numpy scalar): else g may be another node's grad or a view of one.
        # Adding 0.0 turns -0.0 into 0.0, as accumulating onto zeros does.
        t.grad = np.add(g, 0.0, out=g) if fresh and g.ndim else g + 0.0
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
            _accum(a, _unbroadcast(out.grad * b.values, a.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad * a.values, b.shape), fresh=True)

    return _make(values, "mul", (a, b), backward)


def matmul(a, b, bias=None) -> Tensor:
    """a @ b, plus `bias` on every row when given: a layer's affine map.
    If a is a record of c @ x, c constant, with no bias, and b narrows
    (fewer columns than rows), x's gradient d/dx (c·x)·b = cᵀ·g·bᵀ is
    taken as (cᵀ·g)·bᵀ, the product by c at b's narrow width, skipping
    a's record; another consumer of a still reaches x through it."""
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
    # a narrow record's first parent x needs a gradient, so it is never skipped
    c, x = a._parents if a._op == "matmul" and len(a._parents) == 2 else (None, None)
    if x is not None and not c.requires_grad and b.shape[1] < b.shape[0]:
        parents = (x, *parents[1:])

    def backward(out):
        # a constant operand, such as the coefficient matrix, costs no product
        if parents[0] is x:
            _accum(x, (c.values.T @ out.grad) @ b.values.T, fresh=True)
        elif a.requires_grad:
            _accum(a, out.grad @ b.values.T, fresh=True)
        if b.requires_grad:
            _accum(b, a.values.T @ out.grad, fresh=True)
        if bias is not None and bias.requires_grad:
            _accum(bias, out.grad.sum(axis=0), fresh=True)

    return _make(values, "matmul", parents, backward)


def relu(a) -> Tensor:
    a = _coerce(a)
    values = np.maximum(a.values, 0.0)

    def backward(out):
        _accum(a, out.grad * (a.values > 0.0), fresh=True)

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
        _accum(a, out.grad * inside / np.clip(a.values, LOG_FLOOR, LOG_CEIL), fresh=True)

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
        _accum(a, s * (g - (g * s).sum(axis=1, keepdims=True)), fresh=True)

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
        _accum(a, g, fresh=True)

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
        _accum(p, g, fresh=True)

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
        _accum(a, g, fresh=True)

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
