"""Miniaturized residual U-net generator and fully convolutional patch
discriminator.

Both networks take batches in (N, C, H, W) layout. The generator input is
a one-hot structure map, plus a 3-channel reference image in pg2 mode. The
discriminator sees the structure map concatenated with a real or generated
image and emits a grid of patch logits.
"""

import hashlib

import numpy as np

from . import tensor as T
from .config import ExperimentConfig
from .rng import stream
from .tensor import Tensor, TensorError


class ParameterSet:
    """Ordered name -> Tensor map for one network."""

    def __init__(self, mode: str):
        self.mode = mode
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray):
        if name in self._params:
            raise TensorError(f"duplicate parameter name {name!r}")
        self._params[name] = T.tensor(value)

    def __getitem__(self, name) -> Tensor:
        return self._params[name]

    def keys(self):
        return self._params.keys()

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

    def copy(self) -> "ParameterSet":
        out = ParameterSet(self.mode)
        for name, p in self._params.items():
            out.add(name, p.data.copy())
        return out

    def digest(self) -> str:
        """Content hash of all parameter values, order-sensitive."""
        h = hashlib.sha256()
        for name, p in self._params.items():
            h.update(name.encode())
            h.update(p.data.tobytes())
        return h.hexdigest()

    def grads_by_name(self, grad_map) -> dict[str, np.ndarray]:
        """Convert a backward() result keyed by Tensor into name -> ndarray."""
        return {name: grad_map[p].data for name, p in self._params.items()}

    def with_tensors(self, mapping: dict[str, Tensor]) -> "ParameterSet":
        """Same names and mode, values replaced by the given Tensors."""
        if set(mapping) != set(self._params):
            raise TensorError("with_tensors: name mismatch")
        out = ParameterSet(self.mode)
        for name in self._params:
            out._params[name] = mapping[name]
        return out


def _gen_layers(cfg: ExperimentConfig):
    """(name, c_in, c_out, kind) for every generator conv, in forward order."""
    w = cfg.base_width
    layers = [("stem", cfg.classes + (3 if cfg.with_reference else 0), w, "conv3")]
    ch = w
    for i in range(cfg.depth):
        nxt = w * 2 ** (i + 1)
        layers += [
            (f"enc{i}.down", ch, nxt, "conv3s2"),
            (f"enc{i}.res1", nxt, nxt, "conv3"),
            (f"enc{i}.res2", nxt, nxt, "conv3"),
        ]
        ch = nxt
    for i in reversed(range(cfg.depth)):
        skip = w * 2**i
        layers += [
            (f"dec{i}.fuse", ch + skip, skip, "conv3"),
            (f"dec{i}.res1", skip, skip, "conv3"),
            (f"dec{i}.res2", skip, skip, "conv3"),
        ]
        ch = skip
    layers.append(("head", ch, 3, "conv3"))
    return layers


def _disc_layers(cfg: ExperimentConfig):
    w = cfg.base_width
    layers = []
    ch = cfg.classes + 3  # structure map and image
    for i in range(cfg.depth):
        nxt = w * 2**i
        layers.append((f"blk{i}", ch, nxt, "conv3s2"))
        ch = nxt
    layers.append(("head", ch, 1, "conv1"))
    return layers


_KERNEL_HW = {"conv3": 3, "conv3s2": 3, "conv1": 1}


def _init_into(ps: ParameterSet, layers, rng):
    for name, cin, cout, kind in layers:
        k = _KERNEL_HW[kind]
        fan_in = cin * k * k
        std = np.sqrt(2.0 / fan_in)
        # without normalization layers, stacked residual branches and the
        # tanh head need damped gains or deep configs start saturated
        if name.endswith(".res2") or name.endswith("head"):
            std *= 0.2
        ps.add(f"{name}.w", rng.normal(0.0, std, size=(cout, cin, k, k)))
        ps.add(f"{name}.b", np.zeros((cout, 1, 1)))


def init_params(cfg: ExperimentConfig, seed: int):
    """Freshly initialized (generator, discriminator) pair for the network
    settings of ``cfg``, deterministic per seed."""
    g = ParameterSet(cfg.mode)
    _init_into(g, _gen_layers(cfg), stream(seed, "init", "generator"))
    d = ParameterSet(cfg.mode)
    _init_into(d, _disc_layers(cfg), stream(seed, "init", "discriminator"))
    return g, d


def _conv(ps, name, x, stride=1, pad=1):
    return T.conv2d(x, ps[f"{name}.w"], stride=stride, pad=pad, bias=ps[f"{name}.b"])


def _residual_block(ps, prefix, x):
    h = T.relu(_conv(ps, f"{prefix}.res1", x))
    h = _conv(ps, f"{prefix}.res2", h)
    return T.relu(T.add(x, h))


def generator_forward(g: ParameterSet, x_struct: Tensor, x_ref: Tensor | None) -> Tensor:
    """Translate a batch of one-hot structure maps (N, classes, H, W), with
    references (N, 3, H, W) in pg2 mode, to images (N, 3, H, W)."""
    if g.mode == "pg2":
        if x_ref is None:
            raise TensorError("generator_forward: pg2 mode needs a reference image")
        x = T.concat_channels(x_struct, x_ref)
    else:
        if x_ref is not None:
            raise TensorError("generator_forward: pix2pix mode takes no reference image")
        x = x_struct

    depth = _gen_depth(g)
    h = T.relu(_conv(g, "stem", x))
    skips = []
    for i in range(depth):
        skips.append(h)
        h = T.relu(_conv(g, f"enc{i}.down", h, stride=2))
        h = _residual_block(g, f"enc{i}", h)
    for i in reversed(range(depth)):
        h = T.upsample_nearest2(h)
        h = T.concat_channels(h, skips[i])
        h = T.relu(_conv(g, f"dec{i}.fuse", h))
        h = _residual_block(g, f"dec{i}", h)
    return T.tanh(_conv(g, "head", h))


def discriminator_forward(d: ParameterSet, x_struct: Tensor, img: Tensor) -> Tensor:
    """Patch logit maps (N, 1, h, w) for a batch of (structure, image) pairs;
    sigmoid is applied by the losses."""
    xs, im = x_struct.shape, img.shape
    if len(im) != 4 or im[1] != 3 or (im[0], *im[2:]) != (xs[0], *xs[2:]):
        raise TensorError(f"discriminator_forward: image shape {img.shape} does not match structure {x_struct.shape}")
    h = T.concat_channels(x_struct, img)
    for i in range(_disc_depth(d)):
        h = T.leaky_relu(_conv(d, f"blk{i}", h, stride=2))
    return _conv(d, "head", h, pad=0)


def _gen_depth(ps) -> int:
    return 1 + max(int(n.split(".")[0][3:]) for n in ps.keys() if n.startswith("enc"))


def _disc_depth(ps) -> int:
    return 1 + max(int(n.split(".")[0][3:]) for n in ps.keys() if n.startswith("blk"))
