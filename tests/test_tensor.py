"""Autodiff core: forward values, tape semantics, gradients vs finite differences."""

import itertools
import warnings
import weakref

import numpy as np
import pytest

from biltrans import tensor as T
from biltrans.tensor import Tape, Tensor, TensorError, backward


def leaf(arr):
    return T.tensor(arr)


def rand(shape, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


# the reference oracle every gradient test compares against
def finite_diff_gradient(f, theta, eps=1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``f`` over a name -> array mapping.

    ``f`` takes the mapping and returns a float; it must be deterministic
    (checked by evaluating twice at the base point).
    """
    if eps <= 0:
        raise TensorError("finite_diff_gradient: eps must be positive")
    items = list(theta.items())
    base = {k: np.array(v, dtype=np.float64, copy=True) for k, v in items}
    v0, v1 = float(f(base)), float(f(base))
    if v0 != v1:
        raise TensorError("finite_diff_gradient: f is not deterministic")
    grads = {}
    for name, arr in base.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(base))
            flat[i] = orig - eps
            fm = float(f(base))
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * eps)
        grads[name] = g
    return grads


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


def test_conv2d_pad_bias_matches_numpy_pad_and_loops():
    # integer values keep every product and sum exact, so any summation
    # order gives the same bits
    rng = np.random.default_rng(5)
    x = rng.integers(-4, 5, (2, 2, 5, 6)).astype(np.float64)
    k = rng.integers(-4, 5, (3, 2, 3, 3)).astype(np.float64)
    b = rng.integers(-4, 5, (3, 1, 1)).astype(np.float64)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    for stride in (1, 2):
        out = T.conv2d(T.tensor(x), T.tensor(k), stride=stride, pad=1, bias=T.tensor(b)).data
        oh, ow = (7 - 3) // stride + 1, (8 - 3) // stride + 1
        expect = np.zeros((2, 3, oh, ow))
        for n, co, i, j in np.ndindex(expect.shape):
            win = xp[n, :, i * stride : i * stride + 3, j * stride : j * stride + 3]
            expect[n, co, i, j] = sum(win[ci, a, c] * k[co, ci, a, c] for ci, a, c in np.ndindex(2, 3, 3))
        np.testing.assert_array_equal(out, expect + b)
        # at any values, padding inside the op gives the bits of padding outside it
        xr, kr, br = rand(x.shape, 6), rand(k.shape, 7), rand(b.shape, 8)
        fused = T.conv2d(T.tensor(xr), T.tensor(kr), stride=stride, pad=1, bias=T.tensor(br)).data
        xrp = np.pad(xr, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
        np.testing.assert_array_equal(fused, T.conv2d(T.tensor(xrp), T.tensor(kr), stride=stride).data + br)


def test_conv2d_rejects_pad_not_below_input_size():
    x, k = T.tensor(np.ones((1, 2, 4, 6))), T.tensor(np.ones((3, 2, 3, 3)))
    T.conv2d(x, k, pad=3)
    for pad in (4, 5):
        with pytest.raises(TensorError, match="conv2d"):
            T.conv2d(x, k, pad=pad)
    with pytest.raises(TensorError, match="conv2d"):
        T.conv2d(T.tensor(np.ones((1, 2, 6, 2))), k, pad=2)


def test_conv2d_rejects_bias_not_per_output_channel():
    x, k = T.tensor(np.ones((1, 2, 4, 4))), T.tensor(np.ones((3, 2, 3, 3)))
    for shape in ((2, 1, 1), (3,), (3, 1), (1, 3, 1, 1), (3, 4, 4)):
        with pytest.raises(TensorError, match="conv2d"):
            T.conv2d(x, k, pad=1, bias=T.tensor(np.ones(shape)))


def _dilated_conv2d_dx(g, k, stride, pad, h, w):
    # the input adjoint written out: the stride-dilated, zero-padded g
    # correlated with the flipped kernel, then reflect padding's adjoint as
    # 0/1 matrices that fold each padded row and column onto its source
    n, co, oh, ow = g.shape
    _, ci, kh, kw = k.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    gd = np.zeros((n, co, hp + kh - 1, wp + kw - 1))
    gd[:, :, kh - 1 : kh - 1 + (oh - 1) * stride + 1 : stride,
       kw - 1 : kw - 1 + (ow - 1) * stride + 1 : stride] = g
    win = np.lib.stride_tricks.sliding_window_view(gd, (kh, kw), axis=(2, 3))
    gp = np.einsum("ncyxab,cdab->ndyx", win, k[:, :, ::-1, ::-1])

    def fold(size):
        src = np.pad(np.arange(size), pad, mode="reflect")
        return (src[None, :] == np.arange(size)[:, None]).astype(np.float64)

    return np.einsum("yi,ncij,xj->ncyx", fold(h), gp, fold(w))


@pytest.mark.parametrize("x_shape, co", [((5, 8, 16, 16), 16), ((2, 3, 7, 8), 4), ((3, 16, 8, 8), 32),
                                         ((5, 24, 16, 16), 8)])
def test_stride2_conv2d_dx_matches_dilated_formula(x_shape, co):
    # stride 2 always scatters; stride 1 scatters too, except where 24 -> 8
    # channels make correlating the padded gradient move fewer entries
    n, ci, h, w = x_shape
    for stride, pad in itertools.product((1, 2), (0, 1)):
        oh, ow = (h + 2 * pad - 3) // stride + 1, (w + 2 * pad - 3) // stride + 1
        g, k = rand((n, co, oh, ow), 70 + pad), rand((co, ci, 3, 3), 71 + pad)
        attrs = {"stride": stride, "pad": pad, "h": h, "w": w}
        got = T._apply("conv2d_dx", [T.tensor(g), T.tensor(k)], attrs).data
        ref = _dilated_conv2d_dx(g, k, stride, pad, h, w)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_row_lowered_conv_matches_loops_and_im2col(monkeypatch):
    # an 8x9 plane at stride 1 takes the row path of conv2d and conv2d_dk;
    # integer values keep every product and sum exact, so it must give the
    # bits of direct loops over np.pad, and at any values it stays within
    # rounding of the im2col path
    rng = np.random.default_rng(9)
    x = rng.integers(-4, 5, (2, 3, 8, 9)).astype(np.float64)
    k = rng.integers(-4, 5, (4, 3, 3, 3)).astype(np.float64)
    b = rng.integers(-4, 5, (4, 1, 1)).astype(np.float64)
    g = rng.integers(-4, 5, (2, 4, 8, 9)).astype(np.float64)
    assert T._row_path(x.shape, 1, 1)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))  # (n, ci, i, j, a, b)
    fwd, dk = np.zeros((2, 4, 8, 9)), np.zeros((4, 3, 3, 3))
    for n, co, i, j in np.ndindex(fwd.shape):
        fwd[n, co, i, j] = sum(win[n, ci, i, j, a, c] * k[co, ci, a, c] for ci, a, c in np.ndindex(3, 3, 3))
    for co, ci, a, c in np.ndindex(dk.shape):
        dk[co, ci, a, c] = sum(g[n, co, i, j] * win[n, ci, i, j, a, c] for n, i, j in np.ndindex(2, 8, 9))

    def both(x, k, b, g):
        out = T.conv2d(T.tensor(x), T.tensor(k), pad=1, bias=T.tensor(b)).data
        attrs = {"stride": 1, "pad": 1, "kh": 3, "kw": 3}
        return out, T._apply("conv2d_dk", [T.tensor(x), T.tensor(g)], attrs).data

    got = both(x, k, b, g)
    np.testing.assert_array_equal(got[0], fwd + b)
    np.testing.assert_array_equal(got[1], dk)
    xr, kr, br, gr = rand(x.shape, 10), rand(k.shape, 11), rand(b.shape, 12), rand(g.shape, 13)
    rows = both(xr, kr, br, gr)
    monkeypatch.setattr(T, "_row_path", lambda shape, stride, pad: False)
    for got, ref in zip(rows, both(xr, kr, br, gr)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_shape_mismatch_rejected_with_op_name():
    with pytest.raises(TensorError, match="add"):
        T.add(T.tensor([1.0]), T.tensor([1.0, 2.0]))
    with pytest.raises(TensorError, match="conv2d"):
        T.conv2d(T.tensor(np.ones((1, 2, 4, 4))), T.tensor(np.ones((3, 1, 1, 1))))
    with pytest.raises(TensorError, match="sum_to"):
        T.sum_to(T.tensor(np.ones((1, 3, 4, 5))), (3, 2, 1))
    with pytest.raises(TensorError, match="broadcast_to"):
        T.broadcast_to(T.tensor(np.ones((3, 1, 1))), (1, 4, 4, 5))


def test_non_finite_output_rejected():
    with pytest.raises(TensorError, match="log"):
        T.log(T.tensor([0.0]))
    # an overflow reaches the check too, not a numpy warning
    with pytest.raises(TensorError, match="mul"):
        T.mul(T.tensor([1e300]), T.tensor([1e300]))


def _overflow_forward():
    T.mul(T.tensor([1e300]), T.tensor([1e300]))


def _overflow_backward_pair():
    # finite forward (1e200 * 1e-200 * 1e200); d loss / d b = 1e200 * 1e200 overflows
    a, b = leaf([1e200]), leaf([1e-200])
    return T.reduce_mean(T.mul(T.mul(a, b), T.tensor([1e200]))), b


def _overflow_in_tape_block():
    with Tape():
        _overflow_forward()


def _overflow_in_values_backward():
    with Tape() as tape:
        loss, b = _overflow_backward_pair()
    backward(loss, [b], tape)


def _overflow_in_differentiable_backward():
    with Tape(Tape.DIFFERENTIABLE):
        loss, b = _overflow_backward_pair()
        backward(loss, [b])


def _overflow_under_no_tape():
    with Tape(), T.no_tape():
        _overflow_forward()


@pytest.mark.parametrize("place", [_overflow_in_tape_block, _overflow_in_values_backward,
                                   _overflow_in_differentiable_backward, _overflow_under_no_tape,
                                   _overflow_forward])
def test_overflow_raises_without_a_warning_and_restores_the_error_state(place):
    before = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(T.NumericalError, match="mul: non-finite"):
            place()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.geterr() == before and T._tls.scopes == 0


def test_recording_scopes_restore_the_error_state_on_normal_exit():
    before = np.geterr()
    with Tape(Tape.DIFFERENTIABLE) as tape:
        assert np.geterr()["over"] == "ignore"
        with T.no_tape(), tape:  # nested and re-entered scopes
            loss, b = _overflow_backward_pair()
        assert np.geterr()["over"] == "ignore"
    assert np.geterr() == before and T._tls.scopes == 0
    with np.errstate(over="raise"):
        with Tape():
            T.add(leaf([1.0]), leaf([2.0]))
        assert np.geterr()["over"] == "raise"
    assert np.geterr() == before


def _with_signed_zeros(shape, seed):
    x = rand(shape, seed)
    x.flat[::7] = 0.0
    x.flat[3::7] = -0.0
    return x


@pytest.mark.parametrize("slope", [0.0, 0.2])
def test_relu_adjoint_kernel_bits_match_the_where_form(slope):
    g = _with_signed_zeros((5, 8, 16, 16), 1)
    y = np.maximum(_with_signed_zeros((5, 8, 16, 16), 2), 0.0)
    want = np.where(y > 0, g, g * slope)
    assert T._f_relu_adjoint({"slope": slope}, g, y).tobytes() == want.tobytes()


def test_leaky_relu_kernel_bits_match_the_where_form():
    x = _with_signed_zeros((5, 8, 16, 16), 3)
    x.flat[1::11] = 5e-324  # subnormals of both signs
    x.flat[2::11] = -5e-324
    want = np.where(x > 0, x, 0.2 * x)
    assert T._f_leaky_relu({}, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(5, 32, 4, 4), (5, 16, 8, 8), (1, 3, 3, 5)])
def test_upsample_kernel_bits_match_the_broadcast_form(shape):
    x = _with_signed_zeros(shape, 4)
    n, c, h, w = shape
    want = np.broadcast_to(x[:, :, :, None, :, None], (n, c, h, 2, w, 2)).reshape(n, c, 2 * h, 2 * w)
    got = T._f_upsample_nearest2({}, x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
        loss = T.sum_to(T.relu(x), ())
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
        loss = T.sum_to(x, ())
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
            g = T.sum_to(T.mul(x, x), ())  # same value, separate graph path
            total = T.add(T.scalar_mul(f, scale_f), T.scalar_mul(g, scale_g))
            return backward(total, [x])[x].data

    combined = grad_of(a, b)
    separate = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    np.testing.assert_allclose(combined, separate, atol=1e-12)


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

    # a 1x1 convolution over a (1, 4, 4, 1) input multiplies 4x4 matrices
    shared = leaf(rand((4, 4), 21).reshape(4, 4, 1, 1))
    results = {}

    def work(name, seed):
        with Tape():
            x = T.tensor(rand((4, 4), seed).reshape(1, 4, 4, 1))
            loss = T.reduce_mean(T.square(T.conv2d(x, shared)))
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


def _shape_pair(name, small, big):
    # broadcast_to takes a small-shaped input up to big, sum_to a big one down
    def build(seed):
        if name == "broadcast_to":
            return [np.asarray(rand(small, seed))], {"shape": big}
        return [rand(big, seed)], {"shape": small}

    return build


def _broadcast_pair(name, n=1):
    # seed k takes the (k mod 3)-th (small, big) pair: a scalar, a per-channel
    # and a per-location broadcast over an (n, C, H, W) batch
    def build(seed):
        small, big = [((), (1, 2, 3, 3)), ((3, 1, 1), (n, 3, 4, 5)),
                      ((n, 1, 4, 5), (n, 3, 4, 5))][seed % 3]
        return _shape_pair(name, small, big)(seed)

    return build


def _relu_adjoint_case(slope):
    # an output gradient and an activation output kept off zero, where the
    # op steps from slope * g to g
    def build(seed):
        return [_unary()(seed)[0][0], _unary(away_from=0.0)(seed + 1000)[0][0]], {"slope": slope}

    return build


def _conv_case(op, stride, pad, bias=False, n=1, plane=(7, 8), ci=2, co=3):
    # an (n, ci, *plane) input and a (co, ci, 3, 3) kernel: conv2d takes both
    # (and a bias), conv2d_dx an output gradient and the kernel, conv2d_dk the
    # input and an output gradient
    h, w = plane
    oh, ow = (h + 2 * pad - 3) // stride + 1, (w + 2 * pad - 3) // stride + 1

    def build(seed):
        x, k = rand((n, ci, h, w), seed), rand((co, ci, 3, 3), seed + 1)
        g = rand((n, co, oh, ow), seed + 2)
        attrs = {"stride": stride, "pad": pad}
        if op == "conv2d":
            return [x, k] + ([rand((co, 1, 1), seed + 3)] if bias else []), attrs
        if op == "conv2d_dx":
            return [g, k], {**attrs, "h": h, "w": w}
        return [x, g], {**attrs, "kh": 3, "kw": 3}

    return build


# the reflect-padded convolutions, with and without a bias, at both strides
# and batch size n, on a 7x8 plane (im2col) and on an 8x9 plane, whose
# stride-1 convs are row-lowered; conv2d_dx also widening 4 -> 2 channels,
# which correlates at stride 1 instead of scattering: case name -> (op name,
# input builder)
def _padded_conv_cases(n):
    cases = {}
    for plane, tag in (((7, 8), ""), ((8, 9), "-8x9")):
        for op, bias in (("conv2d", False), ("conv2d", True), ("conv2d_dx", False), ("conv2d_dk", False)):
            for s in (1, 2):
                name = f"{op}-pad1{'-bias' if bias else ''}-stride{s}{tag}"
                cases[name] = (op, _conv_case(op, s, 1, bias, n, plane))
    for s in (1, 2):
        cases[f"conv2d_dx-pad1-stride{s}-8x9-4to2"] = ("conv2d_dx", _conv_case("conv2d_dx", s, 1, n=n, plane=(8, 9), ci=4, co=2))
    return cases


_CASES = {
    "add": _binary(),
    "sub": _binary(),
    "mul": _binary(),
    "scalar_mul": lambda seed: ([rand((1, 2, 5, 5), seed)], {"c": -1.7}),
    "conv2d": _conv_case("conv2d", stride=2, pad=0),
    "conv2d_dx": _conv_case("conv2d_dx", stride=2, pad=0),
    "conv2d_dk": _conv_case("conv2d_dk", stride=2, pad=0),
    "upsample_nearest2": _unary((1, 2, 3, 4)),
    "avg_pool2": _unary((1, 2, 6, 4)),
    "relu": _unary(away_from=0.0),
    "leaky_relu": _unary(away_from=0.0),
    "relu_adjoint": _relu_adjoint_case(0.2),
    "tanh": _unary(),
    "sigmoid": _unary((1, 2, 6, 6), -3.0, 3.0),
    "log": _unary((1, 2, 6, 6), 0.1, 2.0),
    "square": _unary(),
    "abs": _unary(away_from=0.0),
    "sqrt": _unary((1, 2, 6, 6), 0.1, 2.0),
    "reciprocal": _unary((1, 2, 6, 6), 0.2, 2.0),
    "clamp": lambda seed: ([np.where(np.abs(a := rand((1, 2, 6, 6), seed, -2, 2)) % 0.5 < 1e-3, a + 2e-3, a)], {"lo": -0.5, "hi": 0.5}),
    "reduce_mean": _unary(),
    "broadcast_to": _broadcast_pair("broadcast_to"),
    "sum_to": _broadcast_pair("sum_to"),
    "concat_channels": lambda seed: ([rand((1, 2, 5, 5), seed), rand((1, 3, 5, 5), seed + 1)], None),
    "slice_channels": lambda seed: ([rand((1, 4, 5, 5), seed)], {"start": 1, "stop": 3}),
    "pad_channels": lambda seed: ([rand((1, 2, 5, 5), seed)], {"before": 1, "after": 2}),
}

# the broadcast and reduction patterns the networks and losses use, each
# checked under its own name through broadcast_to/sum_to, and the padded
# convolutions: (op name, input builder)
_NAMED_CASES = _padded_conv_cases(1) | {"relu_adjoint-slope0": ("relu_adjoint", _relu_adjoint_case(0.0))} | {
    name: (op, _shape_pair(op, small, big))
    for name, op, small, big in [
        ("reduce_sum", "sum_to", (), (1, 2, 6, 6)),
        ("broadcast_scalar", "broadcast_to", (), (1, 2, 3, 3)),
        ("channel_broadcast", "broadcast_to", (3, 1, 1), (1, 3, 4, 5)),
        ("channel_reduce", "sum_to", (3, 1, 1), (1, 3, 4, 5)),
        ("channel_sum", "sum_to", (1, 1, 4, 5), (1, 3, 4, 5)),
        ("channel_repeat", "broadcast_to", (1, 1, 4, 5), (1, 3, 4, 5)),
    ]
}

# N = 2 batches of the image ops: (op name, input builder)
_BATCH_CASES = {
    "conv2d-stride1": ("conv2d", _conv_case("conv2d", 1, 0, n=2)),
    "conv2d-stride2": ("conv2d", _conv_case("conv2d", 2, 0, n=2)),
    **_padded_conv_cases(2),
    "avg_pool2": ("avg_pool2", _unary((2, 2, 6, 4))),
    "upsample_nearest2": ("upsample_nearest2", _unary((2, 2, 3, 4))),
    "concat_channels": ("concat_channels", lambda seed: ([rand((2, 2, 5, 5), seed), rand((2, 3, 5, 5), seed + 1)], None)),
    "broadcast_to": ("broadcast_to", _broadcast_pair("broadcast_to", n=2)),
    "sum_to": ("sum_to", _broadcast_pair("sum_to", n=2)),
}


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)]))


def analytic_and_fd(name, build, seed, n_checks=1):
    arrays, attrs = build(seed)
    weights = rand(tuple(), seed + 5000) + 1.5  # fixed projection, keeps loss scalar and generic

    with Tape():
        leaves = [leaf(a) for a in arrays]
        out = T._apply(name, leaves, attrs)
        proj = T.tensor(rand(out.shape, seed + 7000))
        loss = T.sum_to(T.mul(out, proj), ()) if out.shape != () else T.mul(out, proj)
        loss = T.scalar_mul(loss, float(weights))
        grads = backward(loss, leaves)

    def f(theta):
        ins = [T.tensor(theta[f"x{i}"]) for i in range(len(arrays))]
        o = T._apply(name, ins, attrs)
        p = T.tensor(rand(o.shape, seed + 7000))
        l = T.sum_to(T.mul(o, p), ()) if o.shape != () else T.mul(o, p)
        return float(weights) * l.item()

    fd = finite_diff_gradient(f, {f"x{i}": a for i, a in enumerate(arrays)}, eps=1e-5)
    worst = 0.0
    for i, lf in enumerate(leaves):
        worst = max(worst, rel_err(grads[lf].data, fd[f"x{i}"]))
    return worst


@pytest.mark.parametrize("name", sorted(set(T._OPS).union(_NAMED_CASES)))
def test_every_op_gradient_matches_finite_differences(name):
    op, build = _NAMED_CASES[name] if name in _NAMED_CASES else (name, _CASES[name])
    worst = max(analytic_and_fd(op, build, seed) for seed in range(5))
    assert worst < 1e-6, f"{name}: rel err {worst:.3e}"


@pytest.mark.parametrize("name", sorted(set(T._OPS).union(_NAMED_CASES)))
def test_backward_rules_read_only_the_values_their_op_declares(name):
    # a tape keeps only the inputs and output an _OPS entry declares, and a
    # _Shape of every other one: each rule must give the same adjoints from that
    op, build = _NAMED_CASES[name] if name in _NAMED_CASES else (name, _CASES[name])
    _, rule, keep_in, keep_out = T._OPS[op]
    arrays, attrs = build(0)
    ins = [leaf(a) for a in arrays]
    out = T._apply(op, ins, attrs)
    g = T.tensor(rand(out.shape, 1))
    need = [True] * len(ins)
    full = rule(g, ins, out, attrs, need)
    kept = rule(g, [t if i in keep_in else T._Shape(t.shape) for i, t in enumerate(ins)],
                out if keep_out else T._Shape(out.shape), attrs, need)
    assert len(full) == len(kept) == len(ins)
    for a, b in zip(full, kept):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a.data, b.data)


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


@pytest.mark.parametrize("name", ["conv2d", "conv2d_dx", "conv2d_dk"])
def test_conv_rules_compute_only_needed_adjoints(name):
    arrays, attrs = _CASES[name](0)
    ins = [leaf(a) for a in arrays]
    out = T._apply(name, ins, attrs)
    g = T.tensor(rand(out.shape, 1))
    rule = T._OPS[name][1]
    full = rule(g, ins, out, attrs, [True, True])
    for skip in (0, 1):
        got = rule(g, ins, out, attrs, [i != skip for i in range(2)])
        assert got[skip] is None
        np.testing.assert_array_equal(got[1 - skip].data, full[1 - skip].data)


def test_fd_agrees_with_backward_on_two_layer_net():
    # two dense layers as 1x1 convolutions over a (1, 3, 2, 1) input
    rng = np.random.default_rng(99)
    w1 = rng.uniform(-1, 1, (4, 3)).reshape(4, 3, 1, 1)
    w2 = rng.uniform(-1, 1, (1, 4)).reshape(1, 4, 1, 1)
    x = rng.uniform(-1, 1, (3, 2)).reshape(1, 3, 2, 1)

    def run(theta):
        h = T.tanh(T.conv2d(T.tensor(x), T.tensor(theta["w1"])))
        out = T.conv2d(h, T.tensor(theta["w2"]))
        return T.reduce_mean(T.square(out)).item()

    fd = finite_diff_gradient(run, {"w1": w1, "w2": w2}, eps=1e-5)
    with Tape():
        tw1, tw2 = leaf(w1), leaf(w2)
        h = T.tanh(T.conv2d(T.tensor(x), tw1))
        loss = T.reduce_mean(T.square(T.conv2d(h, tw2)))
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
        loss = T.sum_to(T.square(x), ())
        g = backward(loss, [x])[x]
    assert g.node is None


def test_backward_after_differentiable_block_records_nothing():
    # VJP ops join a DIFFERENTIABLE tape only while it is the active tape
    xv, kv = rand((2, 1, 5, 5), 61), rand((2, 1, 3, 3), 62)
    with Tape(Tape.DIFFERENTIABLE) as tape:
        x, k = leaf(xv), leaf(kv)
        loss = T.reduce_mean(T.square(T.tanh(T.conv2d(x, k))))
        n_forward = len(tape.ops)
        inside = backward(loss, [x, k])
        assert all(g.node is not None for g in inside.values())
        assert len(tape.ops) > n_forward
    n_inside = len(tape.ops)
    after = backward(loss, [x, k])
    assert len(tape.ops) == n_inside
    for t in (x, k):
        assert after[t].node is None
        np.testing.assert_array_equal(after[t].data, inside[t].data)


def test_tape_frees_values_no_backward_rule_reads():
    # relu's adjoint reads its output and conv2d's its inputs, so once the
    # caller drops the conv output nothing holds its array
    xv, kv = rand((1, 2, 6, 6), 70), rand((3, 2, 3, 3), 71)

    def run(drop):
        with Tape():
            x, k = leaf(xv), leaf(kv)
            z = T.conv2d(x, k, pad=1)
            z_data = weakref.ref(z.data)
            loss = T.reduce_mean(T.square(T.relu(z)))
            if drop:
                del z
            freed = z_data() is None
            grads = backward(loss, [x, k])
        return freed, [grads[t].data for t in (x, k)]

    freed, dropped = run(drop=True)
    assert freed
    held, kept = run(drop=False)
    assert not held
    for a, b in zip(dropped, kept):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("act", ["relu", "leaky_relu"])
def test_differentiable_relu_adjoint_records_no_mask(act):
    # the adjoint reads the activation's output, not a recorded float mask
    with Tape(Tape.DIFFERENTIABLE) as tape:
        x = leaf(rand((1, 2, 6, 6), 72))
        y = getattr(T, act)(T.scalar_mul(x, 1.5))
        loss = T.reduce_mean(T.square(y))
        n_leaves = len(tape._leaf_ids)
        backward(loss, [x])
        added = [tape.nodes[i] for i in list(tape._leaf_ids.values())[n_leaves:]]
    assert all(t.shape == () for t in added), [t.shape for t in added]
    assert [op.name for op in tape.ops].count("relu_adjoint") == 1


def test_backward_returns_adjoint_of_requested_op_output():
    # released adjoints must not include one that ``wrt`` names
    xv = rand((3, 4), 63)

    def tail(h):
        return T.reduce_mean(T.mul(T.square(h), T.tanh(h)))

    with Tape():
        x = leaf(xv)
        h = T.tanh(T.scalar_mul(x, 1.5))
        grads = backward(tail(h), [x, h])
        h_leaf = leaf(h.data)
        ref = backward(tail(h_leaf), [h_leaf])[h_leaf]
    assert grads[h].shape == h.shape
    np.testing.assert_array_equal(grads[h].data, ref.data)


def test_second_order_through_conv_net():
    # d/dtheta of ||dL/dtheta||^2 vs finite differences of the gradient norm
    xv = rand((1, 1, 4, 4), 55)
    kv = rand((1, 1, 3, 3), 56)

    def grad_norm(theta):
        with Tape(Tape.DIFFERENTIABLE):
            k = leaf(theta["k"])
            y = T.tanh(T.conv2d(T.tensor(xv), k, pad=1))
            loss = T.reduce_mean(T.square(y))
            g = backward(loss, [k])[k]
            return T.sum_to(T.square(g), ()).item()

    fd = finite_diff_gradient(grad_norm, {"k": kv}, eps=1e-5)
    with Tape(Tape.DIFFERENTIABLE):
        k = leaf(kv)
        y = T.tanh(T.conv2d(T.tensor(xv), k, pad=1))
        loss = T.reduce_mean(T.square(y))
        g = backward(loss, [k])[k]
        norm = T.sum_to(T.square(g), ())
        g2 = backward(norm, [k])[k]
    assert rel_err(g2.data, fd["k"]) < 1e-5


def test_second_order_through_row_lowered_conv():
    # d/dtheta of ||dL/dtheta||^2 vs finite differences, with the input a
    # parameter too, on an 8x9 plane whose stride-1 conv2d, conv2d_dk and
    # their second-order conv2d calls take the row path
    theta0 = {"x": rand((2, 2, 8, 9), 64), "k": rand((3, 2, 3, 3), 65), "b": rand((3, 1, 1), 66)}

    def grad_norm_sq(leaves):
        y = T.tanh(T.conv2d(leaves["x"], leaves["k"], pad=1, bias=leaves["b"]))
        grads = backward(T.reduce_mean(T.square(y)), list(leaves.values()))
        total = None
        for t in leaves.values():
            term = T.sum_to(T.square(grads[t]), ())
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


@pytest.mark.parametrize("act", ["relu", "leaky_relu"])
def test_second_order_through_relu_adjoint(act):
    # d/dtheta of ||dL/dtheta||^2 vs finite differences of the gradient norm,
    # where the recorded relu/leaky_relu adjoint is itself differentiated
    xv = rand((1, 2, 6, 6), 67)
    theta0 = {"k": rand((3, 2, 3, 3), 68), "b": rand((3, 1, 1), 69)}

    def grad_norm_sq(leaves):
        h = getattr(T, act)(T.conv2d(T.tensor(xv), leaves["k"], pad=1, bias=leaves["b"]))
        grads = backward(T.reduce_mean(T.square(h)), list(leaves.values()))
        total = None
        for t in leaves.values():
            term = T.sum_to(T.square(grads[t]), ())
            total = term if total is None else T.add(total, term)
        return total

    def f(theta):
        with Tape(Tape.DIFFERENTIABLE):
            return grad_norm_sq({n: leaf(v) for n, v in theta.items()}).item()

    z = T.conv2d(T.tensor(xv), T.tensor(theta0["k"]), pad=1, bias=T.tensor(theta0["b"]))
    assert np.abs(z.data).min() > 1e-3  # no pre-activation within the FD step of the kink
    fd = finite_diff_gradient(f, theta0, eps=1e-5)
    with Tape(Tape.DIFFERENTIABLE) as tape:
        leaves = {n: leaf(v) for n, v in theta0.items()}
        loss = grad_norm_sq(leaves)
        assert "relu_adjoint" in [op.name for op in tape.ops]
        g2 = backward(loss, list(leaves.values()))
    for n, t in leaves.items():
        assert np.abs(fd[n]).max() > 1e-3  # the second-order term is not zero
        assert rel_err(g2[t].data, fd[n]) < 1e-5, n


def test_second_order_through_batched_image_ops():
    # every batched image op on one DIFFERENTIABLE path, N = 2: d/dtheta of
    # ||dL/dtheta||^2 against finite differences of the gradient norm
    xv = rand((2, 2, 6, 6), 57)
    theta0 = {"k1": rand((3, 2, 3, 3), 58), "b1": rand((3, 1, 1), 59),
              "k2": rand((2, 5, 3, 3), 60)}

    def grad_norm_sq(leaves):
        x = T.tensor(xv)
        h = T.tanh(T.conv2d(x, leaves["k1"], stride=2, pad=1, bias=leaves["b1"]))
        h = T.concat_channels(T.upsample_nearest2(h), x)
        h = T.avg_pool2(T.tanh(T.conv2d(h, leaves["k2"], pad=1)))
        norm = T.broadcast_to(T.sum_to(T.square(h), (2, 1, 3, 3)), h.shape)
        loss = T.reduce_mean(T.mul(h, T.tanh(norm)))
        grads = backward(loss, list(leaves.values()))
        total = None
        for t in leaves.values():
            term = T.sum_to(T.square(grads[t]), ())
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
