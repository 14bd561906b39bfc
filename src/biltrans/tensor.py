"""Reverse-mode automatic differentiation on an explicit tape.

Values are 64-bit floats; image ops take (N, C, H, W) batches. A conv op
reflect-pads its input and adds its bias itself. ``conv2d``, ``conv2d_dk``
and ``conv2d_dx``'s correlation lower through one patch index and one
gather from the unpadded input (im2col, Chellapilla, Puri & Simard 2006).
On a reflect-padded stride-1 input of at least 8 rows the gathered kernel
is 1 x kw: each padded row's horizontal taps, with one matmul per vertical
tap over a view of that row matrix (MEC, Cho & Brand 2017). ``conv2d_dx``
sums ``k^T g`` back onto the input pixels by one bincount (col2im) at every
stride > 1 and wherever that moves fewer entries than correlating the
padded gradient. Ops record onto the innermost active ``Tape``; with no
active tape they evaluate eagerly. Every op's backward rule is itself
written in terms of registry ops, so a tape opened in
``Tape.DIFFERENTIABLE`` mode can differentiate through gradients
(unrolled optimizer steps, gradient-of-gradient). The VJP ops of
``backward`` follow the same rule as every other op: they join a tape
only while it is the active tape, and only if it is DIFFERENTIABLE.
Which nodes get adjoints is decided by ``backward``'s ``wrt`` alone; a
tensor carries no gradient flag. A tape keeps its leaves and, per op,
only the values that op's backward rule reads (``_OPS``); of every other
node it keeps only the shape, so an op output nothing reads is freed with
the caller's last reference to it. The relu and leaky_relu adjoints read
their output (y > 0 exactly where x > 0) through ``relu_adjoint``.

Every op checks its output and raises ``NumericalError`` on a non-finite
value, so numpy's floating-point warnings are silenced once per recording
scope (a ``Tape`` block, a ``no_tape`` block, and with it one ``backward``
pass) rather than per op; an op outside every scope silences them for
itself. Leaving the outermost scope, by exception too, restores numpy's
error state.
"""

import collections
import functools
import math
import threading
import weakref

import numpy as np


class TensorError(Exception):
    """Shape mismatch, non-finite value, or tape misuse."""


class NumericalError(TensorError):
    """A non-finite op output or gradient."""


class Tensor:
    """An n-d float64 value, optionally bound to a node on a tape."""

    __slots__ = ("data", "_tape", "_node_index")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self._tape = None

    @property
    def node(self):
        """(tape, node_index) once recorded, while that tape is alive.

        The tape is held weakly: a tape owns its leaves and the values its
        backward rules read, so a strong back-reference would make every
        tape a reference cycle that only the cyclic garbage collector
        frees, with all its arrays.
        """
        tape = self._tape() if self._tape is not None else None
        return None if tape is None else (tape, self._node_index)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != ():
            raise TensorError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def tensor(data) -> Tensor:
    return Tensor(data)


# one recorded op: its inputs' and output's node indices, and what its
# backward rule is passed, each value it reads or else its node's _Shape
_Op = collections.namedtuple("_Op", "name input_ids output_id attrs ins out")


# what a tape keeps of a node no backward rule reads
_Shape = collections.namedtuple("_Shape", "shape")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # the active tapes, innermost last
        self.scopes = 0  # open recording scopes
        self.errstate = None  # the outermost scope's np.errstate


_tls = _ThreadState()

# numpy's floating-point warnings are off inside a recording scope: _apply
# checks every op output itself
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def _open_scope():
    if not _tls.scopes:
        _tls.errstate = np.errstate(**_QUIET)
        _tls.errstate.__enter__()
    _tls.scopes += 1


def _close_scope():
    _tls.scopes -= 1
    if not _tls.scopes:
        _tls.errstate.__exit__(None, None, None)


def active_tape():
    stack = _tls.stack
    return stack[-1] if stack else None


class no_tape:
    """Context manager that suspends recording on this thread."""

    def __enter__(self):
        _open_scope()
        self._saved = list(_tls.stack)
        _tls.stack.clear()
        return self

    def __exit__(self, *exc):
        _tls.stack[:] = self._saved
        _close_scope()
        return False


class Tape:
    """Ordered record of registry ops, topological by construction.

    A tape has exactly one writer thread. ``VALUES`` mode records forward
    ops only; ``DIFFERENTIABLE`` mode additionally records the ops executed
    by a ``backward`` called while the tape is active, making the returned
    gradients tape nodes. A ``backward`` called after the tape's ``with``
    block records nothing and returns plain tensors.
    """

    VALUES = "record-values-only"
    DIFFERENTIABLE = "record-differentiably"

    def __init__(self, mode=VALUES):
        if mode not in (Tape.VALUES, Tape.DIFFERENTIABLE):
            raise TensorError(f"unknown tape mode: {mode!r}")
        self.mode = mode
        self.nodes: list = []  # a leaf's Tensor, an op output's _Shape
        self.ops: list[_Op] = []
        self._leaf_ids: dict[int, int] = {}  # id(tensor) -> node index
        self._writer: int | None = None
        self._ref = weakref.ref(self)  # the one weak reference its nodes hold

    def __enter__(self):
        _open_scope()
        _tls.stack.append(self)
        return self

    def __exit__(self, *exc):
        popped = _tls.stack.pop()
        _close_scope()
        assert popped is self
        return False

    def _check_writer(self):
        me = threading.get_ident()
        if self._writer is None:
            self._writer = me
        elif self._writer != me:
            raise TensorError("a Tape is single-writer; record from one thread only")

    def _add_node(self, t) -> int:
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
        ref, nodes = self._ref, self.nodes
        in_ids = [t._node_index if t._tape is ref else self.node_index(t, create=True)
                  for t in inputs]
        keep_in, keep_out = _SAVES[name]
        ins = [t if keep else nodes[i] for t, i, keep in zip(inputs, in_ids, keep_in)]
        shape = _Shape(output.data.shape)
        out_id = self._add_node(shape)
        output._tape, output._node_index = ref, out_id
        self.ops.append(_Op(name, in_ids, out_id, attrs, ins, output if keep_out else shape))


def _shape_err(name, *shapes):
    listed = ", ".join(str(tuple(s)) for s in shapes)
    return TensorError(f"{name}: incompatible shapes {listed}")


def _apply(name, inputs, attrs=None) -> Tensor:
    if _tls.scopes:
        out_data = _OPS[name][0](attrs, *[t.data for t in inputs])
    else:  # outside every recording scope, the op is a scope of its own
        with np.errstate(**_QUIET):
            out_data = _OPS[name][0](attrs, *[t.data for t in inputs])
    if not np.isfinite(out_data).all():
        raise NumericalError(f"{name}: non-finite value in output")
    # kernels return float64 arrays (a 0-d result may come back as a scalar)
    out = Tensor.__new__(Tensor)
    out.data = out_data if type(out_data) is np.ndarray else np.asarray(out_data)
    out._tape = None
    stack = _tls.stack
    if stack:
        stack[-1].record(name, inputs, out, attrs)
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


@functools.lru_cache(maxsize=None)
def _reflect_index(n, p):
    # source position of each position of an axis of length n, reflect-padded by p
    idx = np.abs(np.arange(-p, n + p))
    return np.where(idx >= n, 2 * n - 2 - idx, idx)


@functools.lru_cache(maxsize=None)
def _patch_index(h, w, kh, kw, stride, pad):
    # flat source pixel in the unpadded (h, w) plane of patch entry (a, b) of
    # the window at output (i, j), over the reflect-padded plane, (a, b, i, j) order
    oh, ow = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    rows = _reflect_index(h, pad)[np.arange(kh)[:, None] + stride * np.arange(oh)]
    cols = _reflect_index(w, pad)[np.arange(kw)[:, None] + stride * np.arange(ow)]
    return (rows[:, None, :, None] * w + cols[None, :, None, :]).ravel(), oh, ow


# (h, w, kh, kw, stride, pad) -> the col2im index for the most planes seen.
# Threads may race on an entry: each reads the array it built or found, so
# a lost store only means a later rebuild
_scatter_planes = {}


def _scatter_index(planes, h, w, kh, kw, stride, pad):
    # flat source pixel in a stack of unpadded (h, w) planes of every patch
    # entry, (plane, a, b, i, j) order: the col2im target of each entry.
    # Plane r's block is r*h*w + _patch_index, so the index of fewer planes
    # is a prefix of the index of more: one array per plane shape, rebuilt
    # only when more planes arrive. Adding each plane's offset per call
    # instead cost 61-76% of the bincount's own time, and np.add.at in place
    # of the bincount, bitwise equal, 1.3-1.5x the bincount's time.
    key = (h, w, kh, kw, stride, pad)
    idx, _, _ = _patch_index(*key)
    full = _scatter_planes.get(key)
    if full is None or full.size < planes * idx.size:
        full = _scatter_planes[key] = (np.arange(planes)[:, None] * (h * w) + idx).ravel()
    return full[: planes * idx.size]


def _row_path(shape, stride, pad):
    # row lowering measures faster than im2col on stride-1 planes of at least
    # 8 rows. pad > 0 keeps unpadded planes (the correlation's zero-padded
    # gradient, the 1x1 head) on im2col: rows would sum their taps in
    # another order, a rounding change
    return stride == 1 and pad > 0 and shape[2] >= 8


def _gather(x, kh, kw, stride, pad):
    # (N, C, H, W) -> (N, C*kh*kw, oh*ow) patch matrices of x reflect-padded
    # by pad, one per sample, by one gather from the unpadded input (im2col)
    n, c, h, w = x.shape
    idx, oh, ow = _patch_index(h, w, kh, kw, stride, pad)
    cols = np.take(x.reshape(n * c, h * w), idx, axis=1, mode="clip")
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def _lowered(x, kh, kw, stride, pad):
    # [(patch matrix, index of the kernel taps it meets)] whose matmuls sum
    # to the conv, and the output plane. The row path gathers the kw horizontal taps of every
    # padded row once, the im2col of a 1 x kw kernel (MEC, Cho & Brand
    # 2017); vertical tap a's patch matrix is its view [a*ow, (a+oh)*ow).
    if not _row_path(x.shape, stride, pad):
        cols, oh, ow = _gather(x, kh, kw, stride, pad)
        return [(cols, ...)], oh, ow
    rows, hp, ow = _gather(x, 1, kw, 1, pad)
    oh = hp - kh + 1
    return [(rows[:, :, a * ow : (a + oh) * ow], np.s_[:, :, a]) for a in range(kh)], oh, ow


def _correlate(x, k, stride, pad):
    # (N, C, H, W) correlated with k (C_out, C, kh, kw), reflect-padded by
    # pad: out = k_0 R_0, then out += k_a R_a over the lowering's pairs
    co = k.shape[0]
    ((cols, taps), *rest), oh, ow = _lowered(x, k.shape[2], k.shape[3], stride, pad)
    out = np.matmul(k[taps].reshape(co, -1), cols)
    for cols, taps in rest:
        out += np.matmul(k[taps].reshape(co, -1), cols)
    return out.reshape(x.shape[0], co, oh, ow)


def _fold_reflect(g, p):
    # adjoint of reflect padding by p: add the border rows back onto the rows
    # they mirror, then the columns
    h, w = g.shape[2] - 2 * p, g.shape[3] - 2 * p
    rows = g[:, :, p : p + h].copy()
    rows[:, :, 1 : p + 1][:, :, ::-1] += g[:, :, :p]
    rows[:, :, h - 1 - p : h - 1][:, :, ::-1] += g[:, :, p + h :]
    out = rows[:, :, :, p : p + w].copy()
    out[:, :, :, 1 : p + 1][:, :, :, ::-1] += rows[:, :, :, :p]
    out[:, :, :, w - 1 - p : w - 1][:, :, :, ::-1] += rows[:, :, :, p + w :]
    return out


def _check_pad(name, shape, pad):
    # reflect padding mirrors pad pixels, so each side must have more than pad
    if not 0 <= pad < min(shape[2], shape[3]):
        raise TensorError(f"{name}: reflect pad {pad} needs an input larger than it, got {tuple(shape)}")


def _f_conv2d(attrs, x, k, b=None):
    s, p = attrs["stride"], attrs["pad"]
    if x.ndim != 4 or k.ndim != 4 or x.shape[1] != k.shape[1]:
        raise _shape_err("conv2d", x.shape, k.shape)
    _check_pad("conv2d", x.shape, p)
    co, _, kh, kw = k.shape
    if x.shape[2] + 2 * p < kh or x.shape[3] + 2 * p < kw or s < 1:
        raise _shape_err("conv2d", x.shape, k.shape)
    if b is not None and b.shape != (co, 1, 1):
        raise TensorError(f"conv2d: bias shape {b.shape} is not ({co}, 1, 1)")
    out = _correlate(x, k, s, p)
    if b is not None:
        out += b
    return out


def _f_conv2d_dx(attrs, g, k):
    # adjoint of conv2d in its input. Trailing rows/cols unseen by any window
    # get zero gradient.
    s, p, h, w = attrs["stride"], attrs["pad"], attrs["h"], attrs["w"]
    co, ci, kh, kw = k.shape
    if g.ndim != 4 or g.shape[1] != co:
        raise _shape_err("conv2d_dx", g.shape, k.shape)
    _check_pad("conv2d_dx", (0, 0, h, w), p)
    n, _, oh, ow = g.shape
    hp, wp = h + 2 * p, w + 2 * p
    if (oh - 1) * s + kh > hp or (ow - 1) * s + kw > wp:
        raise _shape_err("conv2d_dx", g.shape, k.shape)
    if s > 1 or ci * oh * ow <= co * hp * wp:
        # col2im: k^T g is every patch entry's gradient, summed onto the pixel
        # the forward gathered it from (reflected border included) by one
        # bincount
        cols = np.matmul(k.reshape(co, ci * kh * kw).T, g.reshape(n, co, oh * ow))
        gx = np.bincount(_scatter_index(n * ci, h, w, kh, kw, s, p), cols.ravel(), n * ci * h * w)
        return gx.reshape(n, ci, h, w)
    # where the scatter would move more entries, correlate the zero-padded g
    # with the flipped kernel, then fold the reflected border back
    gd = np.zeros((n, co, hp + kh - 1, wp + kw - 1))
    gd[:, :, kh - 1 : kh - 1 + oh, kw - 1 : kw - 1 + ow] = g
    gp = _correlate(gd, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, 0)
    return _fold_reflect(gp, p) if p else gp


def _f_conv2d_dk(attrs, x, g):
    # adjoint of conv2d in its kernel, summed over the batch
    s, p, kh, kw = attrs["stride"], attrs["pad"], attrs["kh"], attrs["kw"]
    if x.ndim != 4 or g.ndim != 4 or x.shape[0] != g.shape[0]:
        raise _shape_err("conv2d_dk", x.shape, g.shape)
    _check_pad("conv2d_dk", x.shape, p)
    n, ci, h, w = x.shape
    co, oh, ow = g.shape[1:]
    if (oh, ow) != ((h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1):
        raise _shape_err("conv2d_dk", x.shape, g.shape)
    gm = g.reshape(n, co, oh * ow)
    out = np.empty((co, ci, kh, kw))
    for cols, taps in _lowered(x, kh, kw, s, p)[0]:
        out[taps] = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(out[taps].shape)
    return out


def _f_upsample_nearest2(attrs, x):
    if x.ndim != 4:
        raise _shape_err("upsample_nearest2", x.shape)
    return x.repeat(2, axis=2).repeat(2, axis=3)


def _f_avg_pool2(attrs, x):
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise _shape_err("avg_pool2", x.shape)
    return (x[:, :, ::2, ::2] + x[:, :, 1::2, ::2] + x[:, :, ::2, 1::2] + x[:, :, 1::2, 1::2]) * 0.25


def _f_relu(attrs, x):
    return np.maximum(x, 0.0)


def _f_leaky_relu(attrs, x):
    # the larger of x and 0.2 * x is x exactly where x > 0
    return np.maximum(x, 0.2 * x)


def _f_relu_adjoint(attrs, g, y):
    # g where the activation's output y > 0, slope * g elsewhere
    if g.shape != y.shape:
        raise _shape_err("relu_adjoint", g.shape, y.shape)
    if attrs["slope"] == 0.0:  # g * 1.0 and g * 0.0 are the where's two branches
        return g * (y > 0)
    return np.where(y > 0, g, g * attrs["slope"])


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


@functools.lru_cache(maxsize=None)
def _broadcast_axes(name, big, small):
    # the axes of ``big`` that broadcasting ``small`` to it repeats along,
    # shapes aligned from the right as in numpy: every leading axis, and
    # every axis where ``small`` has size 1
    lead = len(big) - len(small)
    if lead < 0 or any(s not in (1, b) for s, b in zip(small, big[lead:])):
        raise _shape_err(name, small, big)
    return tuple(range(lead)) + tuple(lead + i for i, s in enumerate(small) if s == 1)


def _f_broadcast_to(attrs, x):
    shape = attrs["shape"]
    _broadcast_axes("broadcast_to", shape, x.shape)
    return np.broadcast_to(x, shape).copy()


def _f_sum_to(attrs, x):
    shape = attrs["shape"]
    return x.sum(axis=_broadcast_axes("sum_to", x.shape, shape)).reshape(shape)


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


def conv2d(x, k, stride=1, pad=0, bias=None):
    """Correlate ``x`` (N, C, H, W), reflect-padded by ``pad``, with ``k``
    (C_out, C, kh, kw) at ``stride``, plus an optional ``bias`` (C_out, 1, 1)."""
    inputs = [x, k] if bias is None else [x, k, bias]
    return _apply("conv2d", inputs, {"stride": int(stride), "pad": int(pad)})


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


def broadcast_to(x, shape):
    """Repeat ``x`` up to ``shape``, aligned from the right as in numpy."""
    return _apply("broadcast_to", [x], {"shape": tuple(shape)})


def sum_to(x, shape):
    """Sum ``x`` down to ``shape``: the adjoint of ``broadcast_to``."""
    return _apply("sum_to", [x], {"shape": tuple(shape)})


def concat_channels(a, b):
    return _apply("concat_channels", [a, b])


def slice_channels(x, start, stop):
    return _apply("slice_channels", [x], {"start": int(start), "stop": int(stop)})


def pad_channels(x, before, after):
    return _apply("pad_channels", [x], {"before": int(before), "after": int(after)})


# ---------------------------------------------------------------------------
# backward rules, each written with registry ops so they are differentiable.
# ``need`` holds one flag per input, true where it depends on ``wrt``; a
# rule may return None for an input whose flag is false, and the ones with
# a costly adjoint do, and None for an input it contributes nothing to.
# ``ins`` and ``out`` are the values the op's ``_OPS`` entry declares, and
# a _Shape for every other one.


def _ones_like(t):
    return tensor(np.ones_like(t.data))


def _v_add(g, ins, out, attrs, need):
    return [g, g]


def _v_sub(g, ins, out, attrs, need):
    return [g, scalar_mul(g, -1.0) if need[1] else None]


def _v_mul(g, ins, out, attrs, need):
    a, b = ins
    return [mul(g, b) if need[0] else None, mul(g, a) if need[1] else None]


def _v_scalar_mul(g, ins, out, attrs, need):
    return [scalar_mul(g, attrs["c"])]


def _conv_dx(g, k, attrs, h, w):
    return _apply("conv2d_dx", [g, k], {"stride": attrs["stride"], "pad": attrs["pad"], "h": h, "w": w})


def _conv_dk(x, g, attrs, kh, kw):
    return _apply("conv2d_dk", [x, g], {"stride": attrs["stride"], "pad": attrs["pad"], "kh": kh, "kw": kw})


def _v_conv2d(g, ins, out, attrs, need):
    x, k = ins[:2]
    grads = [_conv_dx(g, k, attrs, x.shape[2], x.shape[3]) if need[0] else None,
             _conv_dk(x, g, attrs, k.shape[2], k.shape[3]) if need[1] else None]
    return grads + ([sum_to(g, ins[2].shape) if need[2] else None] if len(ins) == 3 else [])


def _v_conv2d_dx(g, ins, out, attrs, need):
    # bilinear: adjoints swap back through conv2d / conv2d_dk
    gin, k = ins
    return [conv2d(g, k, attrs["stride"], attrs["pad"]) if need[0] else None,
            _conv_dk(g, gin, attrs, k.shape[2], k.shape[3]) if need[1] else None]


def _v_conv2d_dk(g, ins, out, attrs, need):
    x, gin = ins
    return [_conv_dx(gin, g, attrs, x.shape[2], x.shape[3]) if need[0] else None,
            conv2d(x, g, attrs["stride"], attrs["pad"]) if need[1] else None]


def _v_upsample_nearest2(g, ins, out, attrs, need):
    return [scalar_mul(avg_pool2(g), 4.0)]


def _v_avg_pool2(g, ins, out, attrs, need):
    return [scalar_mul(upsample_nearest2(g), 0.25)]


_RELU, _LEAKY_RELU = {"slope": 0.0}, {"slope": 0.2}


def _v_relu(g, ins, out, attrs, need):
    return [_apply("relu_adjoint", [g, out], _RELU)]


def _v_leaky_relu(g, ins, out, attrs, need):
    return [_apply("relu_adjoint", [g, out], _LEAKY_RELU)]


def _v_relu_adjoint(g, ins, out, attrs, need):
    # linear in g; piecewise constant in y, so y gets no adjoint
    return [_apply("relu_adjoint", [g, ins[1]], attrs) if need[0] else None, None]


def _v_tanh(g, ins, out, attrs, need):
    return [mul(g, sub(_ones_like(out), square(out)))]


def _v_sigmoid(g, ins, out, attrs, need):
    return [mul(g, mul(out, sub(_ones_like(out), out)))]


def _v_log(g, ins, out, attrs, need):
    return [mul(g, reciprocal(ins[0]))]


def _v_square(g, ins, out, attrs, need):
    return [scalar_mul(mul(g, ins[0]), 2.0)]


def _v_abs(g, ins, out, attrs, need):
    return [mul(g, tensor(np.sign(ins[0].data)))]


def _v_sqrt(g, ins, out, attrs, need):
    return [scalar_mul(mul(g, reciprocal(out)), 0.5)]


def _v_reciprocal(g, ins, out, attrs, need):
    return [scalar_mul(mul(g, square(out)), -1.0)]


def _v_clamp(g, ins, out, attrs, need):
    x = ins[0].data
    mask = tensor(((x > attrs["lo"]) & (x < attrs["hi"])).astype(np.float64))
    return [mul(g, mask)]


def _v_reduce_mean(g, ins, out, attrs, need):
    n = math.prod(ins[0].shape)
    return [scalar_mul(broadcast_to(g, ins[0].shape), 1.0 / n)]


def _v_broadcast_to(g, ins, out, attrs, need):
    return [sum_to(g, ins[0].shape)]


def _v_sum_to(g, ins, out, attrs, need):
    return [broadcast_to(g, ins[0].shape)]


def _v_concat_channels(g, ins, out, attrs, need):
    ca = ins[0].shape[1]
    return [slice_channels(g, 0, ca) if need[0] else None,
            slice_channels(g, ca, out.shape[1]) if need[1] else None]


def _v_slice_channels(g, ins, out, attrs, need):
    total = ins[0].shape[1]
    return [pad_channels(g, attrs["start"], total - attrs["stop"])]


def _v_pad_channels(g, ins, out, attrs, need):
    b = attrs["before"]
    return [slice_channels(g, b, b + ins[0].shape[1])]


# every registry op: name -> (forward kernel, backward rule, the inputs its
# rule reads, whether it reads the output). A tape keeps only those values
_OPS = {
    "add": (_f_add, _v_add, (), False),
    "sub": (_f_sub, _v_sub, (), False),
    "mul": (_f_mul, _v_mul, (0, 1), False),
    "scalar_mul": (_f_scalar_mul, _v_scalar_mul, (), False),
    "conv2d": (_f_conv2d, _v_conv2d, (0, 1), False),
    "conv2d_dx": (_f_conv2d_dx, _v_conv2d_dx, (0, 1), False),
    "conv2d_dk": (_f_conv2d_dk, _v_conv2d_dk, (0, 1), False),
    "upsample_nearest2": (_f_upsample_nearest2, _v_upsample_nearest2, (), False),
    "avg_pool2": (_f_avg_pool2, _v_avg_pool2, (), False),
    "relu": (_f_relu, _v_relu, (), True),
    "leaky_relu": (_f_leaky_relu, _v_leaky_relu, (), True),
    "relu_adjoint": (_f_relu_adjoint, _v_relu_adjoint, (1,), False),
    "tanh": (_f_tanh, _v_tanh, (), True),
    "sigmoid": (_f_sigmoid, _v_sigmoid, (), True),
    "log": (_f_log, _v_log, (0,), False),
    "square": (_f_square, _v_square, (0,), False),
    "abs": (_f_abs, _v_abs, (0,), False),
    "sqrt": (_f_sqrt, _v_sqrt, (), True),
    "reciprocal": (_f_reciprocal, _v_reciprocal, (), True),
    "clamp": (_f_clamp, _v_clamp, (0,), False),
    "reduce_mean": (_f_reduce_mean, _v_reduce_mean, (), False),
    "broadcast_to": (_f_broadcast_to, _v_broadcast_to, (), False),
    "sum_to": (_f_sum_to, _v_sum_to, (), False),
    "concat_channels": (_f_concat_channels, _v_concat_channels, (), False),
    "slice_channels": (_f_slice_channels, _v_slice_channels, (), False),
    "pad_channels": (_f_pad_channels, _v_pad_channels, (), False),
}

# name -> (a keep flag for each input position, whether to keep the output),
# what Tape.record reads (a conv's bias is its third input)
_SAVES = {name: (tuple(i in keep_in for i in range(3)), keep_out)
          for name, (_, _, keep_in, keep_out) in _OPS.items()}


def backward(loss: Tensor, wrt, tape: Tape | None = None) -> dict[Tensor, Tensor]:
    """Gradients of a scalar ``loss`` with respect to each tensor in ``wrt``.

    Only the ops between a ``wrt`` tensor and ``loss`` are visited, and a
    backward rule is asked only for the adjoints of inputs that depend on
    ``wrt`` (activity analysis, as in Griewank & Walther 2008), and each
    adjoint is released once the op that reads it has run. When ``tape``
    is DIFFERENTIABLE and is the active tape, the gradient computation is
    recorded onto it, so the returned tensors are nodes and can be
    differentiated again; otherwise nothing is recorded. Unreached leaves
    get zero gradients.
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
        wrt_ids.append(idx)

    # mark every node that depends on a wrt tensor, up to the loss
    active = set(wrt_ids)
    live = []
    for op in tape.ops:
        if op.output_id > loss_id:
            break
        if not active.isdisjoint(op.input_ids):
            active.add(op.output_id)
            live.append(op)

    adjoints: dict[int, Tensor] = {loss_id: tensor(1.0)}
    keep = set(wrt_ids)
    # VJP arithmetic joins the tape only when gradients must stay differentiable
    recording = tape.mode == Tape.DIFFERENTIABLE and active_tape() is tape
    with tape if recording else no_tape():
        for op in reversed(live):
            # only this op reads its output's adjoint, unless a wrt tensor is that output
            out_id = op.output_id
            g = adjoints.get(out_id) if out_id in keep else adjoints.pop(out_id, None)
            if g is None:
                continue
            need = [i in active for i in op.input_ids]
            contribs = _OPS[op.name][1](g, op.ins, op.out, op.attrs, need)
            for node_id, wanted, contrib in zip(op.input_ids, need, contribs):
                if wanted and contrib is not None:
                    prev = adjoints.get(node_id)
                    adjoints[node_id] = contrib if prev is None else add(prev, contrib)

    out = {}
    for t, idx in zip(wrt, wrt_ids):
        g = adjoints.get(idx)
        if g is None:
            g = tensor(np.zeros_like(t.data))
        out[t] = g
    return out

