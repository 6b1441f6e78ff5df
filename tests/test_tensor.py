"""Engine tests: primitive values, reverse pass vs central differences,
tape invariants, and contract errors."""

import ast
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest

from confmix import tensor as T
from confmix.errors import ContractError, DomainError, ShapeError, TapeStateError
from confmix.graphs import build_blindspot_graph
from helpers import same_bits


def total(t):
    """Sum of every entry: the engine's mean times the entry count."""
    return T.mean_all(t) * t.values.size


def test_matmul_identity_column():
    out = T.matmul(T.Tensor([[1., 2.], [3., 4.]]), T.Tensor([[1.], [0.]]))
    assert np.array_equal(out.values, [[1.], [3.]])


def test_softmax_symmetry():
    out = T.softmax_rows(T.Tensor([[0., 0.]]))
    assert np.array_equal(out.values, [[0.5, 0.5]])


def test_relu_definition():
    out = T.relu(T.Tensor([-1., 2., 0.]))
    assert np.array_equal(out.values, [0., 2., 0.])


def test_square_derivative():
    x = T.Tensor([3.0], requires_grad=True)
    T.backward(total(x * x))
    assert np.allclose(x.grad, [6.0])


def test_softmax_gradient_matches_frozen_value():
    # d(softmax(z)_0)/dz at z=[0,0]: frozen from a central difference run
    z = T.Tensor([[0., 0.]], requires_grad=True)
    picked = total(T.mul(T.softmax_rows(z), np.array([[1.0, 0.0]])))
    T.backward(picked)
    assert np.allclose(z.grad, [[0.25, -0.25]], atol=1e-12)


def test_neg_log_derivative():
    p = T.Tensor([0.5], requires_grad=True)
    T.backward(total(-T.log(p)))
    assert np.allclose(p.grad, [-2.0])


def test_check_gradient_quadratic():
    def quad(inputs):
        (v,) = inputs
        return total(v * v)
    v = T.Tensor(np.linspace(-1.5, 2.0, 7), requires_grad=True)
    assert T.check_gradient(quad, [v], 1e-6) < 1e-7


def test_check_gradient_constant_expression():
    const = T.Tensor([1.0, 2.0])

    def fn(inputs):
        (v,) = inputs
        return total(v * 0.0) + total(const)
    v = T.Tensor([3.0, 4.0], requires_grad=True)
    assert T.check_gradient(fn, [v], 1e-5) == 0.0


def test_check_gradient_step_contract():
    v = T.Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        T.check_gradient(lambda ins: total(ins[0]), [v], 1e-2)


def square_total(t):
    return total(t * t)


M = (2, 3)
# (name, builder, input shapes, box the inputs are drawn from)
PRIMITIVE_CASES = [
    ("add", lambda a, b: total(a + b), [M, M], (-2.0, 2.0)),
    ("mul", lambda a, b: total(a * b), [M, M], (-2.0, 2.0)),
    ("matmul", lambda a, b: total(T.matmul(a, b)), [M, (3, 2)], (-2.0, 2.0)),
    # a layer's affine map, the bias in the product's record
    ("matmul_bias", lambda a, b, c: square_total(T.matmul(a, b, c)), [M, (3, 2), (2,)],
     (-2.0, 2.0)),
    ("relu", lambda a: total(T.relu(a)), [M], (-2.0, 2.0)),
    ("log", lambda a: total(T.log(a)), [M], (0.01, 0.99)),
    ("softmax", lambda a: total(T.mul(T.softmax_rows(a), MASK)), [M], (-2.0, 2.0)),
    ("sum_rows", lambda a: total(
        T.mul(T.stack_columns([T.sum_rows(a)]), COL)), [M], (-2.0, 2.0)),
    ("mean", lambda a: T.mean_all(a * a), [M], (-2.0, 2.0)),
    # entries (row, col), with (1, 0) drawn twice
    ("take_rows_cols", lambda a: total(
        T.mul(T.take_rows(a, [0, 1, 1, 0], [2, 0, 0, 1]), PICKED)), [M], (-2.0, 2.0)),
    # cross-entropy rows, inside the clamp
    ("nll_rows", lambda a: total(T.mul(T.nll_rows(a, [2, 0]), ROW_WEIGHTS)), [M],
     (0.01, 0.99)),
    # a split mean over ids out of order
    ("mean_rows", lambda a: T.mean_rows(a * a, [4, 0, 2]), [(5,)], (-2.0, 2.0)),
]
MASK = np.array([[1.0, -0.5, 0.25], [0.0, 2.0, -1.0]])
COL = np.array([[0.7], [-1.3]])
PICKED = np.array([0.5, -1.0, 2.0, 1.5])
ROW_WEIGHTS = np.array([0.7, -1.3])
# the public functions of confmix.tensor that make no record
NOT_RECORDS = {"backward", "check_gradient", "constant"}


@pytest.mark.parametrize("name,builder,shapes,box", PRIMITIVE_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_central_differences(name, builder, shapes, box):
    # 100 random draws per primitive within its documented domain
    rng = np.random.default_rng(hash(name) % (2 ** 31))
    lo, hi = box
    for _ in range(100):
        inputs = []
        for shape in shapes:
            values = rng.uniform(lo, hi, shape)
            if name == "relu":
                # keep clear of the kink, where subgradients are a choice
                values = np.where(np.abs(values) < 1e-3, 1e-3, values)
            inputs.append(T.Tensor(values, requires_grad=True))

        def fn(ins):
            return builder(*ins)
        assert T.check_gradient(fn, inputs, 1e-5) < 1e-4


def test_every_record_making_function_has_a_gradient_case():
    """Each record's op is its function's name: every public function of
    the engine but NOT_RECORDS must make a record in some case above."""
    public = {name for name, fn in vars(T).items() if inspect.isfunction(fn)
              and fn.__module__ == T.__name__ and not name.startswith("_")}
    assert NOT_RECORDS <= public
    rng = np.random.default_rng(0)
    recorded = set()
    for _, builder, shapes, (lo, hi) in PRIMITIVE_CASES:
        out = builder(*[T.Tensor(rng.uniform(lo, hi, s), requires_grad=True) for s in shapes])
        recorded |= {node._op for node in T.Tape.from_output(out).records}
    assert public - NOT_RECORDS <= recorded


def values_and_grads(build, arrays, weights):
    """build(*inputs)'s values and each input's gradient of the weighted total."""
    inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*inputs)
    T.backward(total(out * weights))
    return [out.values] + [t.grad for t in inputs]


# labels read entries at both clamp edges (0, -0.0, the floor and 1)
# and inside it; -0.0 appears in every operand and weight
LABELS = np.array([0, 1, 2, 1, 0])
FUSED_CASES = {
    "matmul_bias": (
        lambda a, b, c: T.matmul(a, b, c), lambda a, b, c: T.matmul(a, b) + c,
        [np.array([[1.5, -0.0], [0.0, -2.0], [0.25, 3.0]]),
         np.array([[-0.0, 1.0, -1.5, 0.0], [2.0, -0.0, 0.5, 0.0]]),
         np.array([-0.0, 0.0, 1.25, -3.0])],
        np.array([[1.0, -0.0, 0.5, 0.0], [-0.0, -0.0, 2.0, -1.0], [0.0, 3.0, -0.0, 1.0]])),
    "nll_rows": (
        lambda p: T.nll_rows(p, LABELS),
        lambda p: -T.log(T.take_rows(p, np.arange(5), LABELS)),
        [np.array([[0.0, 0.5, 0.5], [0.3, 1.0, 0.0], [0.2, 0.0, -0.0],
                   [0.0, T.LOG_FLOOR, 1.0], [0.75, 0.25, 0.0]])],
        np.array([1.0, -0.0, 2.0, -1.5, 0.5])),
    "mean_rows": (
        lambda t: T.mean_rows(t, [5, 1, 2]),
        lambda t: T.mean_all(T.take_rows(t, [5, 1, 2])),
        [np.array([0.5, -0.0, 0.0, 2.0, -1.0, 3.25])],
        np.array(-1.5)),
}


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
@pytest.mark.parametrize("zero_weights", [False, True], ids=["weighted", "signed_zero"])
def test_fused_record_equals_composed_chain_bit_for_bit(name, zero_weights):
    fused, composed, arrays, weights = FUSED_CASES[name]
    if zero_weights:
        weights = np.full(np.shape(weights), -0.0)
    got = values_and_grads(fused, arrays, weights)
    want = values_and_grads(composed, arrays, weights)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def test_check_gradient_full_gated_loss_five_nodes():
    # the composed training objective on a 5-node graph stays within the
    # oracle's 1e-4 budget at h=1e-5
    from confmix.confidence import CappedLinearGate, ConfidenceSpec, confidence_rows
    from confmix.experts import ExpertArch, forward, init_expert
    from confmix.graphs import build_graph
    from confmix.mixture import mixture_loss

    rng = np.random.default_rng(42)
    g = build_graph(5, 2, rng.standard_normal((5, 3)), [0, 1, 0, 1, 1],
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
                    {"train": [0, 1, 2], "val": [3], "test": [4]})
    spec = ConfidenceSpec("variance", CappedLinearGate(2.0))
    weak = init_expert(ExpertArch("weak", 2, 4), 3, 2, 0)
    strong = init_expert(ExpertArch("gcn", 2, 4), 3, 2, 1)
    params = list(weak.parameters()) + list(strong.parameters())

    def fn(inputs):
        pw = forward(weak, g)
        ps = forward(strong, g)
        return mixture_loss(pw, ps, confidence_rows(pw, spec), g.labels)

    assert T.check_gradient(fn, params, 1e-5) < 1e-4


def test_softmax_rows_on_simplex():
    rng = np.random.default_rng(0)
    out = T.softmax_rows(T.Tensor(rng.uniform(-30, 30, (50, 6)))).values
    assert out.min() >= 0.0
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def test_forward_deterministic_bit_identical():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))

    def run():
        return T.softmax_rows(T.relu(T.matmul(T.Tensor(a), T.Tensor(b)))).values
    assert np.array_equal(run(), run())


def test_tape_topological_order():
    x = T.Tensor([[0.3, 0.7]], requires_grad=True)
    y = T.mean_all(T.log(T.softmax_rows(x)) * np.array([[1.0, 2.0]]))
    tape = T.Tape.from_output(y)
    assert [node._op for node in tape.records] == ["softmax_rows", "log", "mul", "mean_all"]
    assert tape.records[-1] is y
    recorded = {id(node) for node in tape.records}
    seen = set()
    for node in tape.records:
        assert all(id(p) in seen or id(p) not in recorded for p in node._parents)
        seen.add(id(node))


def test_backward_non_scalar_rejected():
    x = T.Tensor([[1.0, 2.0]], requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(x + 1.0)


def test_backward_detached_rejected():
    with pytest.raises(TapeStateError):
        T.backward(T.Tensor([1.0]))


def test_backward_zeroes_previous_grads():
    x = T.Tensor([2.0], requires_grad=True)
    T.backward(total(x * x))
    first = x.grad.copy()
    T.backward(total(x * x))
    assert np.array_equal(x.grad, first)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError) as err:
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(err.value)
    with pytest.raises(ShapeError) as err:
        T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4,))))
    assert "(2, 3)" in str(err.value) and "(4,)" in str(err.value)


def test_non_finite_input_rejected():
    with pytest.raises(DomainError):
        T.Tensor([np.nan])
    with pytest.raises(DomainError):
        T.Tensor([np.inf])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 np.float64("nan"), np.inf])
def test_non_finite_scalar_operand_rejected(bad):
    t = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(DomainError):
        T.add(t, bad)
    with pytest.raises(DomainError):
        t * bad


@pytest.mark.parametrize("scalar", [2.5, -1.0, 3, np.float64(0.25), np.int64(-2)])
def test_scalar_operands_are_constants(scalar):
    x = np.array([[1.0, -2.0], [0.5, 4.0]])
    t = T.Tensor(x, requires_grad=True)
    for out, want in ((T.add(t, scalar), x + float(scalar)),
                      (t * scalar, x * float(scalar)),
                      (scalar * t, float(scalar) * x)):
        assert np.array_equal(out.values, want)
        operand = out._parents[1]
        assert operand.shape == () and operand.values.dtype == np.float64
        assert not operand.requires_grad and operand._op is None
    T.backward(T.mean_all(t * scalar))
    assert np.array_equal(t.grad, np.full((2, 2), float(scalar) / 4))
    assert operand.grad is None


def test_float_operand_skips_tensor_constructor(monkeypatch):
    built = []
    init = T.Tensor.__init__
    t = T.Tensor([1.0, 2.0])

    def counted(self, values, requires_grad=False):
        built.append(values)
        init(self, values, requires_grad)

    monkeypatch.setattr(T.Tensor, "__init__", counted)
    assert np.array_equal((t * -1.0 + 0.5).values, [-0.5, -1.5])
    assert built == []
    T.add(t, 1)
    assert built == [1]


def test_log_clamps_at_floor_and_one():
    out = T.log(T.Tensor([0.0, 1.0, 0.5]))
    assert out.values[0] == np.log(T.LOG_FLOOR)
    assert out.values[1] == 0.0
    assert np.isclose(out.values[2], np.log(0.5))


def test_take_rows_gather_and_scatter():
    x = T.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    picked = T.take_rows(x, [2, 0, 2])
    T.backward(total(picked))
    expected = np.zeros((4, 3))
    expected[2] = 2.0
    expected[0] = 1.0
    assert np.array_equal(x.grad, expected)
    # with cols: one entry per (row, col) pair, the repeated pair twice
    picked = T.take_rows(x, [3, 0, 3], [1, 2, 1])
    assert np.array_equal(picked.values, [10.0, 2.0, 10.0])
    T.backward(total(picked))
    expected = np.zeros((4, 3))
    expected[3, 1] = 2.0
    expected[0, 2] = 1.0
    assert np.array_equal(x.grad, expected)


@pytest.mark.parametrize("shape,index,cols", [
    ((4, 3), [0, 1], [0, 3]), ((4, 3), [0, 1], [0, -1]), ((4, 3), [0, 1], [0]),
    ((4, 3), [0, 4], [0, 0]), ((4,), [0, 1], [0, 0]),
], ids=["col_past_end", "col_negative", "cols_shorter", "row_past_end", "vector"])
def test_take_rows_entries_rejected(shape, index, cols):
    with pytest.raises(ShapeError):
        T.take_rows(T.Tensor(np.zeros(shape)), index, cols)


def test_shared_operand_gets_both_contributions_without_aliasing():
    weights = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = T.Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    doubled = x + x
    T.backward(total(doubled * weights))
    assert np.array_equal(x.grad, 2.0 * weights)
    assert np.array_equal(doubled.grad, weights)
    # a non-leaf node consumed twice
    x = T.Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    h = T.relu(x)
    out = h * weights + h
    T.backward(total(out))
    assert np.array_equal(h.grad, weights + 1.0)
    assert np.array_equal(out.grad, np.ones((2, 2)))


def test_fresh_gradients_are_adopted_without_aliasing(monkeypatch):
    """A closure's own product becomes a node's first gradient in place:
    later contributions add onto it, no two nodes' gradients share memory,
    relu's masked -0.0 still lands as 0.0, and no first gradient that
    relu, matmul, mul or log made is copied."""
    copied = []
    accum = T._accum

    def counted(t, g, fresh=False):
        if t.requires_grad and t.grad is None and not fresh:
            copied.append(t)
        accum(t, g, fresh)

    monkeypatch.setattr(T, "_accum", counted)
    x = T.Tensor([[-1.0, 2.0], [0.5, -3.0]], requires_grad=True)
    w = T.Tensor([[1.0, -2.0], [-0.5, 1.5]], requires_grad=True)
    weights = np.array([[-1.0, 2.0], [3.0, -4.0]])
    h = T.relu(x)
    # h and w feed two products; the one recorded last is accumulated first
    product = T.matmul(h, w)
    loss = total(product * weights + T.matmul(h, w, [0.5, -1.0]))
    tape = T.Tape.from_output(loss)
    T.backward(loss)
    grads = [t.grad for t in tape.records + tape.leaves() if t.grad is not None]
    assert len(grads) == len(tape.records) + 2
    assert not any(np.shares_memory(p, q) for p, q in itertools.combinations(grads, 2))
    want_h = np.ones((2, 2)) @ w.values.T + weights @ w.values.T
    assert same_bits(h.grad, want_h)
    assert same_bits(w.grad, h.values.T @ np.ones((2, 2)) + h.values.T @ weights)
    assert np.signbit(want_h * (x.values > 0.0)).sum() == 2
    assert same_bits(x.grad, want_h * (x.values > 0.0) + 0.0)
    assert not np.signbit(x.grad).any()
    assert not any(t is c for t in (x, w, h, product) for c in copied)

    # a's first gradient is log's, then a * b's adds on; b's and the
    # product's are mul's
    a = T.Tensor([[0.5, 0.125], [0.75, 0.25]], requires_grad=True)
    b = T.Tensor([[-2.0], [3.0]], requires_grad=True)
    scaled = a * b
    loss = total(scaled * weights + T.log(a))
    tape = T.Tape.from_output(loss)
    T.backward(loss)
    grads = [t.grad for t in tape.records + tape.leaves() if t.grad is not None]
    assert not any(np.shares_memory(p, q) for p, q in itertools.combinations(grads, 2))
    assert same_bits(a.grad, 1.0 / a.values + weights * b.values)
    assert same_bits(b.grad, (weights * a.values).sum(axis=1, keepdims=True))
    assert not any(t is c for t in (a, b, scaled) for c in copied)


# the constant left factor c of (c @ x) @ w: the rows kernel cut into
# several tiles, the dense kernel, and a plain (unsymmetric) array
NARROW_KINDS = ("rows", "dense", "array")


def narrow_left(kind, n, rng, monkeypatch):
    """A constant n×n left factor as a tensor."""
    if kind == "array":
        return T.constant(rng.uniform(-1.0, 1.0, (n, n)))
    scale, i = rng.uniform(0.5, 1.5, n), np.arange(n)
    if kind == "dense":
        return T.constant(T.SymmetricRows(i * n, np.tile(i, n), scale))
    # a ring's closed neighbourhoods, two rows to a tile
    monkeypatch.setattr(T, "SPARSE_DENSITY", 1.0)
    monkeypatch.setattr(T, "_TILE_ENTRIES", 6)
    op = T.SymmetricRows(3 * i, np.stack([i, (i - 1) % n, (i + 1) % n], 1).ravel(), scale)
    assert op.dense is None and len(op.tiles) > 1
    return T.constant(op)


@pytest.mark.parametrize("kind", NARROW_KINDS)
def test_narrow_route_gradient_matches_central_differences(kind, monkeypatch):
    """(c @ x) @ w with w narrowing 3 → 2, with and without an outer bias,
    and with c @ x also consumed by a second record."""
    rng = np.random.default_rng(len(kind))
    c = narrow_left(kind, 8, rng, monkeypatch)
    other = rng.uniform(-2.0, 2.0, (8, 3))
    for bias, shared in itertools.product((False, True), repeat=2):
        inputs = [T.Tensor(rng.uniform(-2.0, 2.0, s), requires_grad=True)
                  for s in [(8, 3), (3, 2), (2,)][:2 + bias]]

        def fn(ins):
            agg = T.matmul(c, ins[0])
            out = T.matmul(agg, *ins[1:])
            assert out._parents[0] is ins[0]
            loss = square_total(out)
            return loss + total(agg * other) if shared else loss

        assert T.check_gradient(fn, inputs, 1e-5) < 1e-4


@pytest.mark.parametrize("kind", NARROW_KINDS)
def test_narrow_route_applies_c_at_the_output_width(kind, monkeypatch):
    """x's gradient is (cᵀ·g)·wᵀ bit for bit, w's is aggᵀ·g as for any
    product, and the skipped c @ x record gets no gradient."""
    rng = np.random.default_rng(10 + len(kind))
    c = narrow_left(kind, 8, rng, monkeypatch)
    x = T.Tensor(rng.uniform(-2.0, 2.0, (8, 4)), requires_grad=True)
    w = T.Tensor(rng.uniform(-2.0, 2.0, (4, 2)), requires_grad=True)
    g = rng.uniform(-2.0, 2.0, (8, 2))
    agg = T.matmul(c, x)
    out = T.matmul(agg, w)
    T.backward(total(out * g))
    assert out._parents == (x, w) and agg.grad is None
    assert np.array_equal(x.grad, (c.values.T @ g) @ w.values.T)
    assert np.array_equal(w.grad, agg.values.T @ g)


# (right operand shape, inner bias, c requires a gradient): products of
# c @ x the narrow route leaves to c @ x's own record
KEPT_CASES = {
    "widening": ((4, 6), False, False),
    "square": ((4, 4), False, False),
    "inner_bias": ((4, 2), True, False),
    "variable_c": ((4, 2), False, True),
}


@pytest.mark.parametrize("name", sorted(KEPT_CASES))
def test_narrow_route_keeps_the_record_otherwise(name):
    right, inner_bias, c_grad = KEPT_CASES[name]
    rng = np.random.default_rng(len(name))
    c = T.Tensor(rng.uniform(-1.0, 1.0, (8, 8)), requires_grad=c_grad)
    x = T.Tensor(rng.uniform(-2.0, 2.0, (8, 4)), requires_grad=True)
    w = rng.uniform(-2.0, 2.0, right)
    g = rng.uniform(-2.0, 2.0, (8, right[1]))
    agg = T.matmul(c, x, rng.uniform(-1.0, 1.0, 4) if inner_bias else None)
    out = T.matmul(agg, T.Tensor(w, requires_grad=True))
    T.backward(total(out * g))
    assert out._parents[0] is agg
    assert same_bits(agg.grad, g @ w.T)
    assert same_bits(x.grad, c.values.T @ (g @ w.T))


# right operand shape; the left operand of each product `left @ right`;
# a skip weight for `right @ skip`, or None; whether the lefts need gradients
RIGHT_OPERAND_CASES = {
    # the coefficient matrix: a constant square left operand
    "square_constant_left": ((6, 4), [(6, 6)], None, False),
    # the experts' weights (f_in, f_out) under an activation
    "weight_8x32": ((8, 32), [(5, 8)], None, True),
    "weight_32x2": ((32, 2), [(5, 32)], None, True),
    "weight_8x2": ((8, 2), [(5, 8)], None, True),
    # one right operand in a skip product and two products, as gcn_skip
    # uses h: the later gradients add onto the first, a transposed view
    "shared_right_operand": ((6, 4), [(6, 6), (6, 6)], (4, 3), False),
}


@pytest.mark.parametrize("name", sorted(RIGHT_OPERAND_CASES))
def test_matmul_right_operand_gradient_matches_numpy(name):
    right, lefts, skip, left_grad = RIGHT_OPERAND_CASES[name]
    rng = np.random.default_rng(len(name))
    a = [T.Tensor(rng.uniform(-2.0, 2.0, s), requires_grad=left_grad) for s in lefts]
    g = [rng.uniform(-2.0, 2.0, (s[0], right[1])) for s in lefts]
    b = T.Tensor(rng.uniform(-2.0, 2.0, right), requires_grad=True)
    want = sum(x.values.T @ w for x, w in zip(a, g))
    if skip is not None:
        s, g_skip = rng.uniform(-2.0, 2.0, skip), rng.uniform(-2.0, 2.0, (right[0], skip[1]))
        want = want + g_skip @ s.T

    def fn(ins):
        # total(out * w) hands each product's output exactly w; the skip
        # product is recorded first, so its gradient is accumulated last
        loss = 0.0 if skip is None else total(T.matmul(ins[0], s) * g_skip)
        return sum((total(T.matmul(x, ins[0]) * w) for x, w in zip(a, g)), loss)

    T.backward(fn([b]))
    assert np.abs(b.grad - want).max() <= 1e-12 * np.abs(want).max()
    assert T.check_gradient(fn, [b, *a], 1e-5) < 1e-4


MIXED_CASES = {
    "matmul": (lambda c, v: total(T.matmul(c, v)), lambda c, v: total(T.matmul(v, c))),
    "mul": (lambda c, v: total(c * v * v), lambda c, v: total(v * c)),
    "take_rows": (lambda c, v: total(T.take_rows(c, [2, 0, 2]) * T.take_rows(v, [1, 1, 0])),
                  lambda c, v: total(T.take_rows(T.matmul(c, v), [0, 2]))),
}


@pytest.mark.parametrize("name", sorted(MIXED_CASES))
def test_check_gradient_mixed_constant_and_variable_operands(name):
    rng = np.random.default_rng(len(name))
    for builder in MIXED_CASES[name]:
        const = T.Tensor(rng.uniform(-2.0, 2.0, (3, 3)))
        var = T.Tensor(rng.uniform(-2.0, 2.0, (3, 3)), requires_grad=True)
        assert T.check_gradient(lambda ins: builder(const, ins[0]), [var], 1e-5) < 1e-4
        assert const.grad is None and var.grad is not None


# (n, width): widths at n = 40 and 200 where (bᵀ·sym)ᵀ and sym·b round
# apart (3, 33) and alike (4, 8)
SYMMETRIC_CASES = [(6, 4), (40, 3), (40, 33), (200, 8)]


@pytest.mark.parametrize("n, width", SYMMETRIC_CASES)
def test_symmetric_constant_multiplies_as_transposed_product(n, width):
    """The operator is its own transpose, so b's gradient, the transposed
    product, is the plain product, as the forward is."""
    rng = np.random.default_rng(100 * n + width)
    scale = rng.uniform(-1.0, 1.0, n)
    sym = np.outer(scale, scale)
    # every entry as a row's: dense enough for the dense kernel
    op = T.SymmetricRows(np.arange(n) * n, np.tile(np.arange(n), n), scale)
    assert same_bits(op.dense, sym) and op.T is op
    a = T.constant(op)
    b = T.Tensor(rng.uniform(-2.0, 2.0, (n, width)), requires_grad=True)
    out = T.matmul(a, b)
    assert same_bits(out.values, sym @ b.values)
    assert out.values.flags.c_contiguous
    g = rng.uniform(-2.0, 2.0, (n, width))
    T.backward(total(out * g))
    assert same_bits(b.grad, op.dense @ g)
    if n <= 6:
        assert T.check_gradient(lambda ins: square_total(T.matmul(a, ins[0])), [b],
                                1e-5) < 1e-4


def test_unmarked_square_constant_multiplies_as_given():
    rng = np.random.default_rng(3)
    left = rng.uniform(-2.0, 2.0, (6, 6))
    right = rng.uniform(-2.0, 2.0, (6, 4))
    # a symmetric array takes the plain product too
    for values in (left, left + left.T):
        for a in (T.constant(values), T.Tensor(values)):
            assert same_bits(T.matmul(a, T.Tensor(right)).values, values @ right)


def test_only_the_graph_operator_is_symmetric_rows():
    """A `SymmetricRows`, whose backward assumes its transpose is itself
    without checking, is built in one place in the package: `conv_rows`,
    from a graph's symmetrized edges. Only the engine reads the density
    that picks its kernel."""
    builders, readers = [], set()
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = getattr(node, "id", getattr(node, "attr", None))
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if callee == "SymmetricRows":
                        builders.append((path.name, getattr(top, "name", None)))
                elif name == "SPARSE_DENSITY":
                    readers.add(path.name)
    assert builders == [("graphs.py", "conv_rows")]
    assert readers == {"tensor.py"}
    dense = build_blindspot_graph(2, 3, seed=0).graph.coefficients.values.dense
    assert np.array_equal(dense, dense.T)
