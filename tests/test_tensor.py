"""Autodiff core: forward values, tape semantics, gradients vs finite differences."""

import numpy as np
import pytest

from biltrans import tensor as T
from biltrans.tensor import Tape, Tensor, TensorError, backward, finite_diff_gradient


def leaf(arr):
    return T.tensor(arr, requires_grad=True)


def rand(shape, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


# ---------------------------------------------------------------------------
# forward values


def test_add_componentwise():
    out = T.add(T.tensor([1.0, 2.0]), T.tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_conv2d_scaling_kernel():
    x = T.tensor(rand((1, 2, 5, 5), 0))
    k = T.tensor(2.0 * np.eye(2).reshape(2, 2, 1, 1) * np.array([[1, 0], [0, 1]]).reshape(2, 2, 1, 1))
    # identity-per-channel 1x1 kernel scaled by 2
    out = T.conv2d(x, k, stride=1)
    np.testing.assert_allclose(out.data, 2.0 * x.data)


def test_matmul_against_triple_loop():
    a = rand((3, 4), 1)
    b = rand((4, 2), 2)
    out = T.matmul(T.tensor(a), T.tensor(b)).data
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-14)


def test_conv2d_against_direct_loops():
    x = rand((2, 2, 6, 7), 3)
    k = rand((3, 2, 3, 3), 4)
    for stride in (1, 2):
        out = T.conv2d(T.tensor(x), T.tensor(k), stride=stride).data
        oh = (6 - 3) // stride + 1
        ow = (7 - 3) // stride + 1
        expect = np.zeros((2, 3, oh, ow))
        for n in range(2):
            for co in range(3):
                for i in range(oh):
                    for j in range(ow):
                        acc = 0.0
                        for ci in range(2):
                            for a in range(3):
                                for b in range(3):
                                    acc += x[n, ci, i * stride + a, j * stride + b] * k[co, ci, a, b]
                        expect[n, co, i, j] = acc
        np.testing.assert_allclose(out, expect, atol=1e-12)


def test_pad_reflect_matches_numpy():
    x = rand((2, 1, 4, 5), 5)
    out = T.pad_reflect(T.tensor(x), 2).data
    np.testing.assert_array_equal(out, np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2)), mode="reflect"))


def test_shape_mismatch_rejected_with_op_name():
    with pytest.raises(TensorError, match="add"):
        T.add(T.tensor([1.0]), T.tensor([1.0, 2.0]))
    with pytest.raises(TensorError, match="matmul"):
        T.matmul(T.tensor(np.ones((2, 3))), T.tensor(np.ones((2, 3))))


def test_non_finite_output_rejected():
    with pytest.raises(TensorError, match="log"):
        T.log(T.tensor([0.0]))


def test_primitive_dispatch_rejects_unknown_and_internal_names():
    with pytest.raises(TensorError):
        T.primitive("hadamard", [T.tensor([1.0])])
    # internal helper ops are not part of the public primitive surface
    with pytest.raises(TensorError):
        T.primitive("conv2d_dx", [T.tensor([1.0])])


def test_primitive_dispatch_runs_public_ops():
    out = T.primitive("add", [T.tensor([1.0, 2.0]), T.tensor([3.0, 4.0])])
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


# ---------------------------------------------------------------------------
# backward basics


def test_backward_mean_square_closed_form():
    with Tape() as tape:
        x = leaf([1.0, 2.0, 3.0])
        loss = T.reduce_mean(T.square(x))
        grads = backward(loss, [x])
    np.testing.assert_allclose(grads[x].data, [2 / 3, 4 / 3, 6 / 3], atol=1e-15)


def test_backward_relu_subgradient_zero_at_zero():
    with Tape():
        x = leaf([-1.0, 0.0, 2.0])
        loss = T.reduce_sum(T.relu(x))
        grads = backward(loss, [x])
    np.testing.assert_array_equal(grads[x].data, [0.0, 0.0, 1.0])


def test_backward_rejects_nonscalar_loss():
    with Tape():
        x = leaf([1.0, 2.0])
        y = T.square(x)
        with pytest.raises(TensorError, match="scalar"):
            backward(y, [x])


def test_backward_rejects_off_tape_tensor():
    with Tape():
        x = leaf([1.0])
        loss = T.reduce_sum(x)
        stranger = leaf([1.0])
        with pytest.raises(TensorError, match="tape"):
            backward(loss, [stranger])


def test_backward_linearity():
    xv = rand((4,), 11)
    a, b = 2.5, -1.25

    def grad_of(scale_f, scale_g):
        with Tape():
            x = leaf(xv)
            f = T.reduce_mean(T.square(x))
            g = T.reduce_sum(T.mul(x, x))  # same value, separate graph path
            total = T.add(T.scalar_mul(f, scale_f), T.scalar_mul(g, scale_g))
            return backward(total, [x])[x].data

    combined = grad_of(a, b)
    separate = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_tape_replay_bit_identical():
    with Tape() as tape:
        x = leaf(rand((1, 3, 8, 8), 7))
        k = leaf(rand((2, 3, 3, 3), 8))
        y = T.tanh(T.conv2d(x, k, stride=1))
        loss = T.reduce_mean(T.square(y))
    first = tape.replay()
    second = tape.replay()
    for idx in first:
        assert np.array_equal(first[idx], second[idx])
    assert float(first[tape.node_index(loss)]) == loss.item()


def test_single_writer_enforced():
    import threading

    t = Tape()
    with t:
        leaf_x = leaf([1.0])
        T.square(leaf_x)
    err = []

    def other():
        try:
            with t:
                T.square(leaf_x)
        except TensorError as e:
            err.append(e)

    th = threading.Thread(target=other)
    th.start()
    th.join()
    assert len(err) == 1


def test_parallel_tapes_share_parameters():
    import threading

    shared = leaf(rand((4, 4), 21))
    results = {}

    def work(name, seed):
        with Tape():
            x = T.tensor(rand((4, 4), seed))
            loss = T.reduce_mean(T.square(T.matmul(shared, x)))
            results[name] = backward(loss, [shared])[shared].data

    threads = [threading.Thread(target=work, args=(i, 30 + i)) for i in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(results) == 4


# ---------------------------------------------------------------------------
# gradient vs finite differences, every registry op

# input builders keyed by op name: return (inputs, attrs)
def _unary(shape=(1, 2, 6, 6), lo=-1.0, hi=1.0, away_from=None, margin=1e-3):
    def build(seed):
        arr = rand(shape, seed, lo, hi)
        if away_from is not None:
            arr = np.where(np.abs(arr - away_from) < margin, arr + 2 * margin, arr)
        return [arr], None

    return build


def _binary(shape=(1, 2, 6, 6)):
    def build(seed):
        return [rand(shape, seed), rand(shape, seed + 1000)], None

    return build


_CASES = {
    "add": _binary(),
    "sub": _binary(),
    "mul": _binary(),
    "scalar_mul": lambda seed: ([rand((1, 2, 5, 5), seed)], {"c": -1.7}),
    "matmul": lambda seed: ([rand((3, 4), seed), rand((4, 2), seed + 1)], None),
    "transpose": lambda seed: ([rand((3, 5), seed)], None),
    "conv2d": lambda seed: ([rand((1, 2, 7, 8), seed), rand((3, 2, 3, 3), seed + 1)], {"stride": 2}),
    "conv2d_dx": lambda seed: ([rand((1, 3, 3, 3), seed), rand((3, 2, 3, 3), seed + 1)], {"stride": 2, "h": 7, "w": 8}),
    "conv2d_dk": lambda seed: ([rand((1, 2, 7, 8), seed), rand((1, 3, 3, 3), seed + 1)], {"stride": 2, "kh": 3, "kw": 3}),
    "upsample_nearest2": _unary((1, 2, 3, 4)),
    "avg_pool2": _unary((1, 2, 6, 4)),
    "relu": _unary(away_from=0.0),
    "leaky_relu": _unary(away_from=0.0),
    "tanh": _unary(),
    "sigmoid": _unary((1, 2, 6, 6), -3.0, 3.0),
    "log": _unary((1, 2, 6, 6), 0.1, 2.0),
    "square": _unary(),
    "abs": _unary(away_from=0.0),
    "sqrt": _unary((1, 2, 6, 6), 0.1, 2.0),
    "reciprocal": _unary((1, 2, 6, 6), 0.2, 2.0),
    "clamp": lambda seed: ([np.where(np.abs(a := rand((1, 2, 6, 6), seed, -2, 2)) % 0.5 < 1e-3, a + 2e-3, a)], {"lo": -0.5, "hi": 0.5}),
    "reduce_mean": _unary(),
    "reduce_sum": _unary(),
    "broadcast_scalar": lambda seed: ([np.asarray(rand((), seed))], {"shape": (1, 2, 3, 3)}),
    "bias_add": lambda seed: ([rand((1, 3, 4, 5), seed), rand((3, 1, 1), seed + 1)], None),
    "channel_broadcast": lambda seed: ([rand((3, 1, 1), seed)], {"n": 1, "h": 4, "w": 5}),
    "channel_reduce": _unary((1, 3, 4, 5)),
    "channel_sum": _unary((1, 3, 4, 5)),
    "channel_repeat": lambda seed: ([rand((1, 1, 4, 5), seed)], {"c": 3}),
    "concat_channels": lambda seed: ([rand((1, 2, 5, 5), seed), rand((1, 3, 5, 5), seed + 1)], None),
    "slice_channels": lambda seed: ([rand((1, 4, 5, 5), seed)], {"start": 1, "stop": 3}),
    "pad_channels": lambda seed: ([rand((1, 2, 5, 5), seed)], {"before": 1, "after": 2}),
    "pad_reflect": lambda seed: ([rand((1, 2, 5, 5), seed)], {"pad": 2}),
    "pad_reflect_adjoint": lambda seed: ([rand((1, 2, 9, 9), seed)], {"pad": 2}),
}

# N = 2 batches of the image ops: (op name, input builder)
_BATCH_CASES = {
    "conv2d-stride1": ("conv2d", lambda seed: ([rand((2, 2, 6, 7), seed), rand((3, 2, 3, 3), seed + 1)], {"stride": 1})),
    "conv2d-stride2": ("conv2d", lambda seed: ([rand((2, 2, 7, 8), seed), rand((3, 2, 3, 3), seed + 1)], {"stride": 2})),
    "pad_reflect": ("pad_reflect", lambda seed: ([rand((2, 2, 5, 5), seed)], {"pad": 1})),
    "avg_pool2": ("avg_pool2", _unary((2, 2, 6, 4))),
    "upsample_nearest2": ("upsample_nearest2", _unary((2, 2, 3, 4))),
    "concat_channels": ("concat_channels", lambda seed: ([rand((2, 2, 5, 5), seed), rand((2, 3, 5, 5), seed + 1)], None)),
    "bias_add": ("bias_add", lambda seed: ([rand((2, 3, 4, 5), seed), rand((3, 1, 1), seed + 1)], None)),
    "channel_sum": ("channel_sum", _unary((2, 3, 4, 5))),
}


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)]))


def analytic_and_fd(name, build, seed, n_checks=1):
    arrays, attrs = build(seed)
    weights = rand(tuple(), seed + 5000) + 1.5  # fixed projection, keeps loss scalar and generic

    with Tape():
        leaves = [leaf(a) for a in arrays]
        out = T._apply(name, leaves, attrs)
        proj = T.constant(rand(out.shape, seed + 7000))
        loss = T.reduce_sum(T.mul(out, proj)) if out.shape != () else T.mul(out, proj)
        loss = T.scalar_mul(loss, float(weights))
        grads = backward(loss, leaves)

    def f(theta):
        ins = [T.tensor(theta[f"x{i}"]) for i in range(len(arrays))]
        o = T._apply(name, ins, attrs)
        p = T.constant(rand(o.shape, seed + 7000))
        l = T.reduce_sum(T.mul(o, p)) if o.shape != () else T.mul(o, p)
        return float(weights) * l.item()

    fd = finite_diff_gradient(f, {f"x{i}": a for i, a in enumerate(arrays)}, eps=1e-5)
    worst = 0.0
    for i, lf in enumerate(leaves):
        worst = max(worst, rel_err(grads[lf].data, fd[f"x{i}"]))
    return worst


@pytest.mark.parametrize("name", sorted(T.ALL_OP_NAMES))
def test_every_op_gradient_matches_finite_differences(name):
    build = _CASES[name]
    worst = max(analytic_and_fd(name, build, seed) for seed in range(5))
    assert worst < 1e-6, f"{name}: rel err {worst:.3e}"


@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_batched_op_gradient_matches_finite_differences(case):
    name, build = _BATCH_CASES[case]
    worst = max(analytic_and_fd(name, build, seed) for seed in range(5))
    assert worst < 1e-6, f"{case}: rel err {worst:.3e}"


# ---------------------------------------------------------------------------
# finite_diff_gradient contract


def test_fd_quadratic_closed_form():
    g = finite_diff_gradient(lambda th: float(th["t"] ** 2), {"t": np.asarray(3.0)}, eps=1e-5)
    assert abs(g["t"] - 6.0) < 1e-6


def test_fd_sine_at_zero():
    g = finite_diff_gradient(lambda th: float(np.sin(th["t"])), {"t": np.asarray(0.0)}, eps=1e-5)
    assert abs(g["t"] - 1.0) < 1e-9


def test_fd_rejects_nondeterministic_function():
    state = {"n": 0}

    def f(theta):
        state["n"] += 1
        return state["n"] * float(theta["t"])

    with pytest.raises(TensorError, match="deterministic"):
        finite_diff_gradient(f, {"t": np.asarray(1.0)})


def test_fd_agrees_with_backward_on_two_layer_net():
    rng = np.random.default_rng(99)
    w1 = rng.uniform(-1, 1, (4, 3))
    w2 = rng.uniform(-1, 1, (1, 4))
    x = rng.uniform(-1, 1, (3, 2))

    def run(theta):
        h = T.tanh(T.matmul(T.tensor(theta["w1"]), T.tensor(x)))
        out = T.matmul(T.tensor(theta["w2"]), h)
        return T.reduce_mean(T.square(out)).item()

    fd = finite_diff_gradient(run, {"w1": w1, "w2": w2}, eps=1e-5)
    with Tape():
        tw1, tw2 = leaf(w1), leaf(w2)
        h = T.tanh(T.matmul(tw1, T.tensor(x)))
        loss = T.reduce_mean(T.square(T.matmul(tw2, h)))
        grads = backward(loss, [tw1, tw2])
    assert rel_err(grads[tw1].data, fd["w1"]) < 1e-6
    assert rel_err(grads[tw2].data, fd["w2"]) < 1e-6


# ---------------------------------------------------------------------------
# second order


def test_gradient_of_gradient_quartic():
    with Tape(Tape.DIFFERENTIABLE):
        x = leaf(2.0)
        loss = T.square(T.square(x))  # x^4
        g1 = backward(loss, [x])[x]
        assert g1.node is not None  # gradient is itself a tape node
        g2 = backward(g1, [x])[x]
    assert abs(g1.item() - 32.0) < 1e-12
    assert abs(g2.item() - 48.0) < 1e-9


def test_values_mode_gradients_are_not_nodes():
    with Tape(Tape.VALUES):
        x = leaf([1.0, -2.0])
        loss = T.reduce_sum(T.square(x))
        g = backward(loss, [x])[x]
    assert g.node is None


def test_second_order_through_conv_net():
    # d/dtheta of ||dL/dtheta||^2 vs finite differences of the gradient norm
    xv = rand((1, 1, 4, 4), 55)
    kv = rand((1, 1, 3, 3), 56)

    def grad_norm(theta):
        with Tape(Tape.DIFFERENTIABLE):
            k = leaf(theta["k"])
            y = T.tanh(T.conv2d(T.tensor(xv), k))
            loss = T.reduce_mean(T.square(y))
            g = backward(loss, [k])[k]
            return T.reduce_sum(T.square(g)).item()

    fd = finite_diff_gradient(grad_norm, {"k": kv}, eps=1e-5)
    with Tape(Tape.DIFFERENTIABLE):
        k = leaf(kv)
        y = T.tanh(T.conv2d(T.tensor(xv), k))
        loss = T.reduce_mean(T.square(y))
        g = backward(loss, [k])[k]
        norm = T.reduce_sum(T.square(g))
        g2 = backward(norm, [k])[k]
    assert rel_err(g2.data, fd["k"]) < 1e-5


def test_second_order_through_batched_image_ops():
    # every batched image op on one DIFFERENTIABLE path, N = 2: d/dtheta of
    # ||dL/dtheta||^2 against finite differences of the gradient norm
    xv = rand((2, 2, 6, 6), 57)
    theta0 = {"k1": rand((3, 2, 3, 3), 58), "b1": rand((3, 1, 1), 59),
              "k2": rand((2, 5, 3, 3), 60)}

    def grad_norm_sq(leaves):
        x = T.tensor(xv)
        h = T.tanh(T.bias_add(T.conv2d(T.pad_reflect(x, 1), leaves["k1"], stride=2), leaves["b1"]))
        h = T.concat_channels(T.upsample_nearest2(h), x)
        h = T.avg_pool2(T.tanh(T.conv2d(T.pad_reflect(h, 1), leaves["k2"])))
        norm = T.channel_repeat(T.channel_sum(T.square(h)), 2)
        loss = T.reduce_mean(T.mul(h, T.tanh(norm)))
        grads = backward(loss, list(leaves.values()))
        total = None
        for t in leaves.values():
            term = T.reduce_sum(T.square(grads[t]))
            total = term if total is None else T.add(total, term)
        return total

    def f(theta):
        with Tape(Tape.DIFFERENTIABLE):
            return grad_norm_sq({n: leaf(v) for n, v in theta.items()}).item()

    fd = finite_diff_gradient(f, theta0, eps=1e-5)
    with Tape(Tape.DIFFERENTIABLE):
        leaves = {n: leaf(v) for n, v in theta0.items()}
        g2 = backward(grad_norm_sq(leaves), list(leaves.values()))
    for n, t in leaves.items():
        assert rel_err(g2[t].data, fd[n]) < 1e-5, n
