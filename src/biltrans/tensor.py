"""Reverse-mode automatic differentiation on an explicit tape.

Values are 64-bit floats; image ops take (N, C, H, W) batches and
convolutions lower each batch to one im2col matmul (Chellapilla, Puri &
Simard 2006). Ops record onto the innermost active ``Tape``;
with no active tape they evaluate eagerly. Every op's backward rule is
itself written in terms of registry ops, so a tape opened in
``Tape.DIFFERENTIABLE`` mode can differentiate through gradients
(unrolled optimizer steps, gradient-of-gradient).
"""

import functools
import threading
import weakref

import numpy as np
from numpy.lib.stride_tricks import as_strided


class TensorError(Exception):
    """Shape mismatch, non-finite value, or tape misuse."""


class Tensor:
    """An n-d float64 value, optionally bound to a node on a tape."""

    __slots__ = ("data", "_tape", "_node_index", "requires_grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self._tape = None
        self.requires_grad = bool(requires_grad)

    @property
    def node(self):
        """(tape, node_index) once recorded, while that tape is alive.

        The tape is held weakly: a tape owns its node tensors, so a strong
        back-reference would make every tape a reference cycle that only
        the cyclic garbage collector frees, with all its arrays.
        """
        tape = self._tape() if self._tape is not None else None
        return None if tape is None else (tape, self._node_index)

    @node.setter
    def node(self, value):
        tape, self._node_index = value
        self._tape = weakref.ref(tape)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != ():
            raise TensorError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class _Op:
    __slots__ = ("name", "input_ids", "output_id", "attrs")

    def __init__(self, name, input_ids, output_id, attrs):
        self.name = name
        self.input_ids = input_ids
        self.output_id = output_id
        self.attrs = attrs


_tls = threading.local()


def _tape_stack():
    if not hasattr(_tls, "stack"):
        _tls.stack = []
    return _tls.stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class no_tape:
    """Context manager that suspends recording on this thread."""

    def __enter__(self):
        stack = _tape_stack()
        self._saved = list(stack)
        stack.clear()
        return self

    def __exit__(self, *exc):
        _tape_stack()[:] = self._saved
        return False


class Tape:
    """Ordered record of primitive ops, topological by construction.

    A tape has exactly one writer thread. ``VALUES`` mode records forward
    ops only; ``DIFFERENTIABLE`` mode additionally records the ops executed
    during ``backward``, making returned gradients tape nodes.
    """

    VALUES = "record-values-only"
    DIFFERENTIABLE = "record-differentiably"

    def __init__(self, mode=VALUES):
        if mode not in (Tape.VALUES, Tape.DIFFERENTIABLE):
            raise TensorError(f"unknown tape mode: {mode!r}")
        self.mode = mode
        self.nodes: list[Tensor] = []
        self.ops: list[_Op] = []
        self._leaf_ids: dict[int, int] = {}  # id(tensor) -> node index
        self._producer: dict[int, int] = {}  # node index -> op index
        self._writer: int | None = None

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def _check_writer(self):
        me = threading.get_ident()
        if self._writer is None:
            self._writer = me
        elif self._writer != me:
            raise TensorError("a Tape is single-writer; record from one thread only")

    def _add_node(self, t: Tensor) -> int:
        idx = len(self.nodes)
        self.nodes.append(t)
        return idx

    def node_index(self, t: Tensor, create=False):
        """Node index of ``t`` on this tape, registering a leaf if asked."""
        idx = self._leaf_ids.get(id(t))
        if idx is not None:
            return idx
        if t.node is not None and t.node[0] is self:
            return t.node[1]
        if not create:
            return None
        self._check_writer()
        idx = self._add_node(t)
        self._leaf_ids[id(t)] = idx
        return idx

    def record(self, name, inputs, output, attrs):
        self._check_writer()
        in_ids = [self.node_index(t, create=True) for t in inputs]
        out_id = self._add_node(output)
        output.node = (self, out_id)
        self._producer[out_id] = len(self.ops)
        self.ops.append(_Op(name, in_ids, out_id, attrs))

    def replay(self, leaf_values=None) -> dict[int, np.ndarray]:
        """Re-execute every recorded op from leaf values; returns node -> value.

        ``leaf_values`` may override leaves by node index. Identical leaves
        reproduce bit-identical outputs.
        """
        values = {}
        for i, t in enumerate(self.nodes):
            if i not in self._producer:
                values[i] = np.asarray(
                    leaf_values.get(i, t.data) if leaf_values else t.data,
                    dtype=np.float64,
                )
        for op in self.ops:
            args = [values[i] for i in op.input_ids]
            values[op.output_id] = _FORWARD[op.name](op.attrs, *args)
        return values


def _shape_err(name, *shapes):
    listed = ", ".join(str(tuple(s)) for s in shapes)
    return TensorError(f"{name}: incompatible shapes {listed}")


def _apply(name, inputs, attrs=None) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = _FORWARD[name](attrs, *[t.data for t in inputs])
    if not np.isfinite(out_data).all():
        raise TensorError(f"{name}: non-finite value in output")
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None:
        tape.record(name, inputs, out, attrs)
    return out


# ---------------------------------------------------------------------------
# forward kernels


def _f_add(attrs, a, b):
    if a.shape != b.shape:
        raise _shape_err("add", a.shape, b.shape)
    return a + b


def _f_sub(attrs, a, b):
    if a.shape != b.shape:
        raise _shape_err("sub", a.shape, b.shape)
    return a - b


def _f_mul(attrs, a, b):
    if a.shape != b.shape:
        raise _shape_err("mul", a.shape, b.shape)
    return a * b


def _f_scalar_mul(attrs, a):
    return a * attrs["c"]


def _f_matmul(attrs, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_err("matmul", a.shape, b.shape)
    return a @ b


def _f_transpose(attrs, a):
    if a.ndim != 2:
        raise _shape_err("transpose", a.shape)
    return np.ascontiguousarray(a.T)


def _im2col(x, kh, kw, stride):
    # (N, C, H, W) -> (N, C*kh*kw, oh*ow) patch matrices, one per sample
    n, c, h, w = x.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    win = as_strided(x, (n, c, kh, kw, oh, ow), (sn, sc, sh, sw, sh * stride, sw * stride),
                     writeable=False)
    return win.reshape(n, c * kh * kw, oh * ow), oh, ow


def _conv_check(name, x, k, stride):
    if x.ndim != 4 or k.ndim != 4 or x.shape[1] != k.shape[1]:
        raise _shape_err(name, x.shape, k.shape)
    kh, kw = k.shape[2], k.shape[3]
    if x.shape[2] < kh or x.shape[3] < kw or stride < 1:
        raise _shape_err(name, x.shape, k.shape)


def _f_conv2d(attrs, x, k):
    s = attrs["stride"]
    _conv_check("conv2d", x, k, s)
    co, ci, kh, kw = k.shape
    cols, oh, ow = _im2col(x, kh, kw, s)
    out = np.matmul(k.reshape(co, ci * kh * kw), cols)
    return out.reshape(x.shape[0], co, oh, ow)


def _f_conv2d_dx(attrs, g, k):
    # adjoint of conv2d in its input: the stride-dilated, zero-padded g
    # correlated with the flipped kernel
    s, h, w = attrs["stride"], attrs["h"], attrs["w"]
    co, ci, kh, kw = k.shape
    if g.ndim != 4 or g.shape[1] != co:
        raise _shape_err("conv2d_dx", g.shape, k.shape)
    n, _, oh, ow = g.shape
    gd_h, gd_w = (oh - 1) * s + 1, (ow - 1) * s + 1
    if gd_h + kh - 1 > h or gd_w + kw - 1 > w:
        raise _shape_err("conv2d_dx", g.shape, k.shape)
    # trailing rows/cols unseen by any window get zero gradient
    gd = np.zeros((n, co, h + kh - 1, w + kw - 1))
    gd[:, :, kh - 1 : kh - 1 + gd_h : s, kw - 1 : kw - 1 + gd_w : s] = g
    k_rot = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * kh * kw)
    cols, _, _ = _im2col(gd, kh, kw, 1)
    return np.matmul(k_rot, cols).reshape(n, ci, h, w)


def _f_conv2d_dk(attrs, x, g):
    # adjoint of conv2d in its kernel, summed over the batch
    s, kh, kw = attrs["stride"], attrs["kh"], attrs["kw"]
    if x.ndim != 4 or g.ndim != 4 or x.shape[0] != g.shape[0]:
        raise _shape_err("conv2d_dk", x.shape, g.shape)
    n, ci = x.shape[:2]
    co, oh, ow = g.shape[1:]
    cols, ch, cw = _im2col(x, kh, kw, s)
    if (ch, cw) != (oh, ow):
        raise _shape_err("conv2d_dk", x.shape, g.shape)
    out = np.matmul(g.reshape(n, co, oh * ow), cols.transpose(0, 2, 1)).sum(axis=0)
    return out.reshape(co, ci, kh, kw)


def _f_upsample_nearest2(attrs, x):
    if x.ndim != 4:
        raise _shape_err("upsample_nearest2", x.shape)
    n, c, h, w = x.shape
    return np.broadcast_to(x[:, :, :, None, :, None], (n, c, h, 2, w, 2)).reshape(n, c, 2 * h, 2 * w)


def _f_avg_pool2(attrs, x):
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise _shape_err("avg_pool2", x.shape)
    return (x[:, :, ::2, ::2] + x[:, :, 1::2, ::2] + x[:, :, ::2, 1::2] + x[:, :, 1::2, 1::2]) * 0.25


def _f_relu(attrs, x):
    return np.maximum(x, 0.0)


def _f_leaky_relu(attrs, x):
    return np.where(x > 0, x, 0.2 * x)


def _f_tanh(attrs, x):
    return np.tanh(x)


def _f_sigmoid(attrs, x):
    return 1.0 / (1.0 + np.exp(-x))


def _f_log(attrs, x):
    return np.log(x)


def _f_square(attrs, x):
    return x * x


def _f_abs(attrs, x):
    return np.abs(x)


def _f_sqrt(attrs, x):
    return np.sqrt(x)


def _f_reciprocal(attrs, x):
    return 1.0 / x


def _f_clamp(attrs, x):
    return np.clip(x, attrs["lo"], attrs["hi"])


def _f_reduce_mean(attrs, x):
    return np.asarray(x.mean())


def _f_reduce_sum(attrs, x):
    return np.asarray(x.sum())


def _f_broadcast_scalar(attrs, x):
    if x.shape != ():
        raise _shape_err("broadcast_scalar", x.shape)
    return np.full(attrs["shape"], float(x))


def _f_bias_add(attrs, x, b):
    # per-channel bias (C, 1, 1) broadcast over an (N, C, H, W) batch
    if x.ndim != 4 or b.shape != (x.shape[1], 1, 1):
        raise _shape_err("bias_add", x.shape, b.shape)
    return x + b


def _f_channel_broadcast(attrs, x):
    if x.ndim != 3 or x.shape[1:] != (1, 1):
        raise _shape_err("channel_broadcast", x.shape)
    return np.broadcast_to(x, (attrs["n"], x.shape[0], attrs["h"], attrs["w"])).copy()


def _f_channel_reduce(attrs, x):
    if x.ndim != 4:
        raise _shape_err("channel_reduce", x.shape)
    return x.sum(axis=(0, 2, 3)).reshape(x.shape[1], 1, 1)


def _f_channel_sum(attrs, x):
    if x.ndim != 4:
        raise _shape_err("channel_sum", x.shape)
    return x.sum(axis=1, keepdims=True)


def _f_channel_repeat(attrs, x):
    if x.ndim != 4 or x.shape[1] != 1:
        raise _shape_err("channel_repeat", x.shape)
    n, _, h, w = x.shape
    return np.broadcast_to(x, (n, attrs["c"], h, w)).copy()


def _f_concat_channels(attrs, a, b):
    if a.ndim != 4 or b.ndim != 4 or a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise _shape_err("concat_channels", a.shape, b.shape)
    return np.concatenate([a, b], axis=1)


def _f_slice_channels(attrs, x):
    lo, hi = attrs["start"], attrs["stop"]
    if x.ndim != 4 or not (0 <= lo < hi <= x.shape[1]):
        raise _shape_err("slice_channels", x.shape)
    return np.ascontiguousarray(x[:, lo:hi])


def _f_pad_channels(attrs, x):
    before, after = attrs["before"], attrs["after"]
    if x.ndim != 4:
        raise _shape_err("pad_channels", x.shape)
    n, c, h, w = x.shape
    out = np.zeros((n, before + c + after, h, w))
    out[:, before : before + c] = x
    return out


@functools.lru_cache(maxsize=None)
def _reflect_gather(h, w, p):
    # flat source index of every pixel of the reflect-padded (h + 2p, w + 2p) plane
    def axis(n):
        idx = np.abs(np.arange(-p, n + p))
        return np.where(idx >= n, 2 * n - 2 - idx, idx)

    return (axis(h)[:, None] * w + axis(w)[None, :]).ravel()


def _f_pad_reflect(attrs, x):
    p = attrs["pad"]
    if x.ndim != 4 or x.shape[2] <= p or x.shape[3] <= p:
        raise _shape_err("pad_reflect", x.shape)
    n, c, h, w = x.shape
    out = np.take(x.reshape(n * c, h * w), _reflect_gather(h, w, p), axis=1)
    return out.reshape(n, c, h + 2 * p, w + 2 * p)


def _f_pad_reflect_adjoint(attrs, g):
    p = attrs["pad"]
    if g.ndim != 4 or g.shape[2] <= 2 * p or g.shape[3] <= 2 * p:
        raise _shape_err("pad_reflect_adjoint", g.shape)
    h, w = g.shape[2] - 2 * p, g.shape[3] - 2 * p
    # fold the reflected border rows back onto their sources, then the columns
    rows = g[:, :, p : p + h].copy()
    rows[:, :, 1 : p + 1][:, :, ::-1] += g[:, :, :p]
    rows[:, :, h - 1 - p : h - 1][:, :, ::-1] += g[:, :, p + h :]
    out = rows[:, :, :, p : p + w].copy()
    out[:, :, :, 1 : p + 1][:, :, :, ::-1] += rows[:, :, :, :p]
    out[:, :, :, w - 1 - p : w - 1][:, :, :, ::-1] += rows[:, :, :, p + w :]
    return out


_FORWARD = {
    "add": _f_add,
    "sub": _f_sub,
    "mul": _f_mul,
    "scalar_mul": _f_scalar_mul,
    "matmul": _f_matmul,
    "transpose": _f_transpose,
    "conv2d": _f_conv2d,
    "conv2d_dx": _f_conv2d_dx,
    "conv2d_dk": _f_conv2d_dk,
    "upsample_nearest2": _f_upsample_nearest2,
    "avg_pool2": _f_avg_pool2,
    "relu": _f_relu,
    "leaky_relu": _f_leaky_relu,
    "tanh": _f_tanh,
    "sigmoid": _f_sigmoid,
    "log": _f_log,
    "square": _f_square,
    "abs": _f_abs,
    "sqrt": _f_sqrt,
    "reciprocal": _f_reciprocal,
    "clamp": _f_clamp,
    "reduce_mean": _f_reduce_mean,
    "reduce_sum": _f_reduce_sum,
    "broadcast_scalar": _f_broadcast_scalar,
    "bias_add": _f_bias_add,
    "channel_broadcast": _f_channel_broadcast,
    "channel_reduce": _f_channel_reduce,
    "channel_sum": _f_channel_sum,
    "channel_repeat": _f_channel_repeat,
    "concat_channels": _f_concat_channels,
    "slice_channels": _f_slice_channels,
    "pad_channels": _f_pad_channels,
    "pad_reflect": _f_pad_reflect,
    "pad_reflect_adjoint": _f_pad_reflect_adjoint,
}


# ---------------------------------------------------------------------------
# functional API


def add(a, b):
    return _apply("add", [a, b])


def sub(a, b):
    return _apply("sub", [a, b])


def mul(a, b):
    return _apply("mul", [a, b])


def scalar_mul(a, c: float):
    return _apply("scalar_mul", [a], {"c": float(c)})


def matmul(a, b):
    return _apply("matmul", [a, b])


def transpose(a):
    return _apply("transpose", [a])


def conv2d(x, k, stride=1):
    return _apply("conv2d", [x, k], {"stride": int(stride)})


def upsample_nearest2(x):
    return _apply("upsample_nearest2", [x])


def avg_pool2(x):
    return _apply("avg_pool2", [x])


def relu(x):
    return _apply("relu", [x])


def leaky_relu(x):
    """Leaky ReLU with fixed negative slope 0.2."""
    return _apply("leaky_relu", [x])


def tanh(x):
    return _apply("tanh", [x])


def sigmoid(x):
    return _apply("sigmoid", [x])


def log(x):
    return _apply("log", [x])


def square(x):
    return _apply("square", [x])


def absolute(x):
    return _apply("abs", [x])


def sqrt(x):
    return _apply("sqrt", [x])


def reciprocal(x):
    return _apply("reciprocal", [x])


def clamp(x, lo, hi):
    return _apply("clamp", [x], {"lo": float(lo), "hi": float(hi)})


def reduce_mean(x):
    return _apply("reduce_mean", [x])


def reduce_sum(x):
    return _apply("reduce_sum", [x])


def broadcast_scalar(x, shape):
    return _apply("broadcast_scalar", [x], {"shape": tuple(shape)})


def bias_add(x, b):
    """``x`` (N, C, H, W) plus a per-channel bias ``b`` of shape (C, 1, 1)."""
    return _apply("bias_add", [x, b])


def channel_broadcast(x, n, h, w):
    return _apply("channel_broadcast", [x], {"n": int(n), "h": int(h), "w": int(w)})


def channel_reduce(x):
    return _apply("channel_reduce", [x])


def channel_sum(x):
    """Sum over the channel axis: (N, C, H, W) -> (N, 1, H, W)."""
    return _apply("channel_sum", [x])


def channel_repeat(x, c):
    return _apply("channel_repeat", [x], {"c": int(c)})


def concat_channels(a, b):
    return _apply("concat_channels", [a, b])


def slice_channels(x, start, stop):
    return _apply("slice_channels", [x], {"start": int(start), "stop": int(stop)})


def pad_channels(x, before, after):
    return _apply("pad_channels", [x], {"before": int(before), "after": int(after)})


def pad_reflect(x, pad=1):
    return _apply("pad_reflect", [x], {"pad": int(pad)})


PRIMITIVE_NAMES = frozenset(
    {
        "add",
        "sub",
        "mul",
        "scalar_mul",
        "matmul",
        "conv2d",
        "upsample_nearest2",
        "avg_pool2",
        "relu",
        "leaky_relu",
        "tanh",
        "sigmoid",
        "log",
        "square",
        "abs",
        "reduce_mean",
        "reduce_sum",
        "concat_channels",
        "pad_reflect",
    }
)


def primitive(name: str, inputs, attrs=None) -> Tensor:
    """Apply a public primitive by name; names outside the set are rejected."""
    if name not in PRIMITIVE_NAMES:
        raise TensorError(f"unknown primitive {name!r}")
    return _apply(name, list(inputs), attrs or _DEFAULT_ATTRS.get(name))


_DEFAULT_ATTRS = {"conv2d": {"stride": 1}, "pad_reflect": {"pad": 1}}


# ---------------------------------------------------------------------------
# backward rules, each written with registry ops so they are differentiable


def _ones_like(t):
    return constant(np.ones_like(t.data))


def _v_add(g, ins, out, attrs):
    return [g, g]


def _v_sub(g, ins, out, attrs):
    return [g, scalar_mul(g, -1.0)]


def _v_mul(g, ins, out, attrs):
    a, b = ins
    return [mul(g, b), mul(g, a)]


def _v_scalar_mul(g, ins, out, attrs):
    return [scalar_mul(g, attrs["c"])]


def _v_matmul(g, ins, out, attrs):
    a, b = ins
    return [matmul(g, transpose(b)), matmul(transpose(a), g)]


def _v_transpose(g, ins, out, attrs):
    return [transpose(g)]


def _v_conv2d(g, ins, out, attrs):
    x, k = ins
    s = attrs["stride"]
    gx = _apply("conv2d_dx", [g, k], {"stride": s, "h": x.shape[2], "w": x.shape[3]})
    gk = _apply("conv2d_dk", [x, g], {"stride": s, "kh": k.shape[2], "kw": k.shape[3]})
    return [gx, gk]


def _v_conv2d_dx(g, ins, out, attrs):
    # bilinear: adjoints swap back through conv2d / conv2d_dk
    gin, k = ins
    s = attrs["stride"]
    gg = _apply("conv2d", [g, k], {"stride": s})
    gk = _apply("conv2d_dk", [g, gin], {"stride": s, "kh": k.shape[2], "kw": k.shape[3]})
    return [gg, gk]


def _v_conv2d_dk(g, ins, out, attrs):
    x, gin = ins
    s = attrs["stride"]
    gx = _apply("conv2d_dx", [gin, g], {"stride": s, "h": x.shape[2], "w": x.shape[3]})
    gg = _apply("conv2d", [x, g], {"stride": s})
    return [gx, gg]


def _v_upsample_nearest2(g, ins, out, attrs):
    return [scalar_mul(avg_pool2(g), 4.0)]


def _v_avg_pool2(g, ins, out, attrs):
    return [scalar_mul(upsample_nearest2(g), 0.25)]


def _v_relu(g, ins, out, attrs):
    mask = constant((ins[0].data > 0).astype(np.float64))
    return [mul(g, mask)]


def _v_leaky_relu(g, ins, out, attrs):
    mask = constant(np.where(ins[0].data > 0, 1.0, 0.2))
    return [mul(g, mask)]


def _v_tanh(g, ins, out, attrs):
    return [mul(g, sub(_ones_like(out), square(out)))]


def _v_sigmoid(g, ins, out, attrs):
    return [mul(g, mul(out, sub(_ones_like(out), out)))]


def _v_log(g, ins, out, attrs):
    return [mul(g, reciprocal(ins[0]))]


def _v_square(g, ins, out, attrs):
    return [scalar_mul(mul(g, ins[0]), 2.0)]


def _v_abs(g, ins, out, attrs):
    return [mul(g, constant(np.sign(ins[0].data)))]


def _v_sqrt(g, ins, out, attrs):
    return [scalar_mul(mul(g, reciprocal(out)), 0.5)]


def _v_reciprocal(g, ins, out, attrs):
    return [scalar_mul(mul(g, square(out)), -1.0)]


def _v_clamp(g, ins, out, attrs):
    x = ins[0].data
    mask = constant(((x > attrs["lo"]) & (x < attrs["hi"])).astype(np.float64))
    return [mul(g, mask)]


def _v_reduce_mean(g, ins, out, attrs):
    n = ins[0].data.size
    return [scalar_mul(broadcast_scalar(g, ins[0].shape), 1.0 / n)]


def _v_reduce_sum(g, ins, out, attrs):
    return [broadcast_scalar(g, ins[0].shape)]


def _v_broadcast_scalar(g, ins, out, attrs):
    return [reduce_sum(g)]


def _v_bias_add(g, ins, out, attrs):
    return [g, channel_reduce(g)]


def _v_channel_broadcast(g, ins, out, attrs):
    return [channel_reduce(g)]


def _v_channel_reduce(g, ins, out, attrs):
    n, _, h, w = ins[0].shape
    return [channel_broadcast(g, n, h, w)]


def _v_channel_sum(g, ins, out, attrs):
    return [channel_repeat(g, ins[0].shape[1])]


def _v_channel_repeat(g, ins, out, attrs):
    return [channel_sum(g)]


def _v_concat_channels(g, ins, out, attrs):
    ca = ins[0].shape[1]
    return [slice_channels(g, 0, ca), slice_channels(g, ca, out.shape[1])]


def _v_slice_channels(g, ins, out, attrs):
    total = ins[0].shape[1]
    return [pad_channels(g, attrs["start"], total - attrs["stop"])]


def _v_pad_channels(g, ins, out, attrs):
    b = attrs["before"]
    return [slice_channels(g, b, b + ins[0].shape[1])]


def _v_pad_reflect(g, ins, out, attrs):
    return [_apply("pad_reflect_adjoint", [g], {"pad": attrs["pad"]})]


def _v_pad_reflect_adjoint(g, ins, out, attrs):
    return [pad_reflect(g, attrs["pad"])]


_VJP = {
    "add": _v_add,
    "sub": _v_sub,
    "mul": _v_mul,
    "scalar_mul": _v_scalar_mul,
    "matmul": _v_matmul,
    "transpose": _v_transpose,
    "conv2d": _v_conv2d,
    "conv2d_dx": _v_conv2d_dx,
    "conv2d_dk": _v_conv2d_dk,
    "upsample_nearest2": _v_upsample_nearest2,
    "avg_pool2": _v_avg_pool2,
    "relu": _v_relu,
    "leaky_relu": _v_leaky_relu,
    "tanh": _v_tanh,
    "sigmoid": _v_sigmoid,
    "log": _v_log,
    "square": _v_square,
    "abs": _v_abs,
    "sqrt": _v_sqrt,
    "reciprocal": _v_reciprocal,
    "clamp": _v_clamp,
    "reduce_mean": _v_reduce_mean,
    "reduce_sum": _v_reduce_sum,
    "broadcast_scalar": _v_broadcast_scalar,
    "bias_add": _v_bias_add,
    "channel_broadcast": _v_channel_broadcast,
    "channel_reduce": _v_channel_reduce,
    "channel_sum": _v_channel_sum,
    "channel_repeat": _v_channel_repeat,
    "concat_channels": _v_concat_channels,
    "slice_channels": _v_slice_channels,
    "pad_channels": _v_pad_channels,
    "pad_reflect": _v_pad_reflect,
    "pad_reflect_adjoint": _v_pad_reflect_adjoint,
}

ALL_OP_NAMES = frozenset(_FORWARD)


def backward(loss: Tensor, wrt, tape: Tape | None = None) -> dict[Tensor, Tensor]:
    """Gradients of a scalar ``loss`` with respect to each tensor in ``wrt``.

    On a DIFFERENTIABLE tape the gradient computation is recorded onto the
    same tape, so the returned tensors are nodes and can be differentiated
    again. Unreached leaves get zero gradients.
    """
    if loss.data.shape != ():
        raise TensorError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    if tape is None:
        if loss.node is None:
            raise TensorError("backward: loss is not on any tape")
        tape = loss.node[0]
    loss_id = tape.node_index(loss)
    if loss_id is None:
        raise TensorError("backward: loss is not on the given tape")
    wrt = list(wrt)
    wrt_ids = []
    for t in wrt:
        idx = tape.node_index(t)
        if idx is None:
            raise TensorError("backward: requested tensor is not on the tape")
        if not t.requires_grad:
            raise TensorError("backward: requested tensor does not require grad")
        wrt_ids.append(idx)

    differentiable = tape.mode == Tape.DIFFERENTIABLE
    n_ops = len(tape.ops)
    adjoints: dict[int, Tensor] = {loss_id: constant(1.0)}

    def run(fn, *args):
        # VJP arithmetic joins the tape only when gradients must stay differentiable
        if differentiable:
            with tape:
                return fn(*args)
        with no_tape():
            return fn(*args)

    for op in reversed(tape.ops[:n_ops]):
        g = adjoints.get(op.output_id)
        if g is None:
            continue
        ins = [tape.nodes[i] for i in op.input_ids]
        if not any(t.requires_grad for t in ins):
            continue
        contribs = run(_VJP[op.name], g, ins, tape.nodes[op.output_id], op.attrs)
        for node_id, t, contrib in zip(op.input_ids, ins, contribs):
            if contrib is None or not t.requires_grad:
                continue
            prev = adjoints.get(node_id)
            adjoints[node_id] = contrib if prev is None else run(add, prev, contrib)

    out = {}
    for t, idx in zip(wrt, wrt_ids):
        g = adjoints.get(idx)
        if g is None:
            g = constant(np.zeros_like(t.data))
        out[t] = g
    return out


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
