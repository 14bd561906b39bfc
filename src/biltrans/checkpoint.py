"""Versioned binary checkpoints.

Layout: 8-byte magic, u32 version, u64 config length + UTF-8 config text,
then repeated named arrays: u64 name length, name bytes, u64 rank, u64
dims, little-endian float64 values. Counters and seeds ride along as named
1-element arrays so the container stays arrays-only.

Version 2 holds only what a later stage reads: ``g_gp/*``, ``d_gp/*``, the
Adam pair of the stage in progress (``adam_g/{m,v,t}``, ``adam_d/{m,v,t}``)
and ``meta/*`` (counters and seed halves). The header's ``phi_seed`` and
``phi_widths`` rebuild the feature extractor, and ``metatrain`` starts a
fresh Adam pair, so neither phi nor pretraining moments past the hand-over
are stored. A file of another version is rejected.
"""

import os
import struct
from functools import partial

import numpy as np

from .bilevel import BiLevelState, Objective
from .config import ExperimentConfig, parse_config, serialize_config
from .nets import init_params
from .tensor import TensorError

MAGIC = b"BILCKPT\x00"
VERSION = 2
MAX_DIM = 2**32  # any larger single dimension is a corrupt file


def _sections(state: BiLevelState):
    """(name, value, restore) for every array a checkpoint holds, in file
    order. Saving writes each ``value``; loading hands the stored array to
    its ``restore``, so nothing is saved that is not also loaded."""

    def restore(obj, attr):
        return lambda x: setattr(obj, attr, int(x))

    sections = []
    for prefix, ps in (("g_gp", state.g_gp), ("d_gp", state.d_gp)):
        sections += [(f"{prefix}/{n}", p.data, partial(np.copyto, p.data)) for n, p in ps.items()]
    for tag, adam in (("adam_g", state.adam_g), ("adam_d", state.adam_d)):
        for part in ("m", "v"):
            sections += [(f"{tag}/{part}/{n}", a, partial(np.copyto, a))
                         for n, a in getattr(adam, part).items()]
        sections.append((f"{tag}/t", adam.t, restore(adam, "t")))
    return sections + [
        ("meta/pretrain_iteration", state.pretrain_iteration, restore(state, "pretrain_iteration")),
        ("meta/meta_iteration", state.meta_iteration, restore(state, "meta_iteration")),
        # u64 seed split into exact 32-bit halves, restored low half first
        ("meta/seed_lo", state.seed & 0xFFFFFFFF, restore(state, "seed")),
        ("meta/seed_hi", (state.seed >> 32) & 0xFFFFFFFF,
         lambda x: setattr(state, "seed", state.seed | int(x) << 32)),
    ]


def save_checkpoint(state: BiLevelState, cfg: ExperimentConfig, path: str):
    """Serialize the training state; see module docstring for the layout."""
    config_text = serialize_config(cfg).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(config_text)))
        f.write(config_text)
        for name, value, _ in _sections(state):
            arr = np.asarray(value, dtype=np.float64)
            encoded = name.encode()
            f.write(struct.pack("<Q", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<Q", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<Q", d))
            f.write(arr.astype("<f8").tobytes())
    os.replace(tmp, path)


def _read_exact(f, n, what):
    data = f.read(n)
    if len(data) != n:
        raise TensorError(f"checkpoint: truncated while reading {what}")
    return data


def read_checkpoint_arrays(path: str):
    """(config text, name -> ndarray) from a checkpoint file, validated."""
    with open(path, "rb") as f:
        if _read_exact(f, 8, "magic") != MAGIC:
            raise TensorError("checkpoint: bad magic")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise TensorError(f"checkpoint: unsupported version {version}")
        (clen,) = struct.unpack("<Q", _read_exact(f, 8, "config length"))
        config_text = _read_exact(f, clen, "config").decode()
        arrays = {}
        while True:
            head = f.read(8)
            if not head:
                break
            if len(head) != 8:
                raise TensorError("checkpoint: truncated array header")
            (nlen,) = struct.unpack("<Q", head)
            name = _read_exact(f, nlen, "array name").decode()
            (rank,) = struct.unpack("<Q", _read_exact(f, 8, "rank"))
            if rank > 8:
                raise TensorError(f"checkpoint: implausible rank {rank} for {name!r}")
            dims = []
            count = 1
            for _ in range(rank):
                (d,) = struct.unpack("<Q", _read_exact(f, 8, "dims"))
                if d >= MAX_DIM:
                    raise TensorError(f"checkpoint: dimension overflow in {name!r}")
                dims.append(d)
                count *= d
            raw = _read_exact(f, count * 8, f"values of {name!r}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    return config_text, arrays


def build_state(cfg: ExperimentConfig) -> BiLevelState:
    """Fresh training state from an experiment config."""
    g, d = init_params(cfg, cfg.master_seed)
    return BiLevelState(config=cfg, objective=Objective(cfg), g_gp=g, d_gp=d, seed=cfg.master_seed)


def load_checkpoint(path: str):
    """Reconstruct (state, config) exactly as saved; a malformed file raises
    TensorError naming it."""
    try:
        config_text, arrays = read_checkpoint_arrays(path)
        cfg = parse_config(config_text)
    except (TensorError, UnicodeDecodeError) as e:
        raise TensorError(f"{path}: {e}") from e
    state = build_state(cfg)
    sections = _sections(state)
    extra = sorted(arrays.keys() - {key for key, _, _ in sections})
    if extra:
        raise TensorError(f"checkpoint: unexpected arrays {extra} in {path}")
    for key, value, restore in sections:
        if key not in arrays:
            raise TensorError(f"checkpoint: missing array {key!r} in {path}")
        if arrays[key].shape != np.shape(value):
            raise TensorError(f"checkpoint: shape mismatch for {key!r} in {path}")
        restore(arrays[key])
    return state, cfg
