"""Engine tests: primitive values, reverse pass vs central differences,
tape invariants, and contract errors."""

import numpy as np
import pytest

from confmix import tensor as T
from confmix.errors import ContractError, DomainError, ShapeError, TapeStateError


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


PRIMITIVE_CASES = [
    ("add", lambda a, b: total(a + b), 2, (-2.0, 2.0)),
    ("mul", lambda a, b: total(a * b), 2, (-2.0, 2.0)),
    ("matmul", lambda a, b: total(T.matmul(a, b)), 2, (-2.0, 2.0)),
    ("relu", lambda a: total(T.relu(a)), 1, (-2.0, 2.0)),
    ("log", lambda a: total(T.log(a)), 1, (0.01, 0.99)),
    ("softmax", lambda a: total(T.mul(T.softmax_rows(a), MASK)), 1, (-2.0, 2.0)),
    ("sum_rows", lambda a: total(
        T.mul(T.stack_columns([T.sum_rows(a)]), COL)), 1, (-2.0, 2.0)),
    ("mean", lambda a: T.mean_all(a * a), 1, (-2.0, 2.0)),
    # entries (row, col), with (1, 0) drawn twice
    ("take_rows_cols", lambda a: total(
        T.mul(T.take_rows(a, [0, 1, 1, 0], [2, 0, 0, 1]), PICKED)), 1, (-2.0, 2.0)),
]
MASK = np.array([[1.0, -0.5, 0.25], [0.0, 2.0, -1.0]])
COL = np.array([[0.7], [-1.3]])
PICKED = np.array([0.5, -1.0, 2.0, 1.5])


@pytest.mark.parametrize("name,builder,arity,box", PRIMITIVE_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_central_differences(name, builder, arity, box):
    # 100 random draws per primitive within its documented domain
    rng = np.random.default_rng(hash(name) % (2 ** 31))
    lo, hi = box
    for _ in range(100):
        inputs = []
        for _ in range(arity):
            values = rng.uniform(lo, hi, (2, 3))
            if name == "relu":
                # keep clear of the kink, where subgradients are a choice
                values = np.where(np.abs(values) < 1e-3, 1e-3, values)
            inputs.append(T.Tensor(values, requires_grad=True))
        if name == "matmul":
            inputs[1] = T.Tensor(rng.uniform(lo, hi, (3, 2)), requires_grad=True)

        def fn(ins):
            return builder(*ins)
        assert T.check_gradient(fn, inputs, 1e-5) < 1e-4


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
    assert [node._op for node in tape.records] == ["softmax_rows", "log", "mul", "mean"]
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
