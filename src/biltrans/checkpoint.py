"""Versioned binary checkpoints.

Layout: 8-byte magic, u32 version, u64 config length + UTF-8 config text,
then repeated named arrays: u64 name length, name bytes, u64 rank, u64
dims, little-endian float64 values. Counters and seeds ride along as named
1-element arrays so the container stays arrays-only.
"""

import os
import struct

import numpy as np

from .bilevel import BiLevelState, Objective
from .config import ExperimentConfig, parse_config, serialize_config
from .nets import init_params
from .tensor import TensorError

MAGIC = b"BILCKPT\x00"
VERSION = 1
MAX_DIM = 2**32  # any larger single dimension is a corrupt file


def _pack_arrays(out: dict, prefix: str, arrays):
    for name, value in arrays:
        out[f"{prefix}/{name}"] = np.asarray(value, dtype=np.float64)


def state_to_arrays(state: BiLevelState) -> dict:
    arrays = {}
    _pack_arrays(arrays, "g_gp", [(n, p.data) for n, p in state.g_gp.items()])
    _pack_arrays(arrays, "d_gp", [(n, p.data) for n, p in state.d_gp.items()])
    _pack_arrays(arrays, "phi", [(n, p.data) for n, p in state.objective.phi.params.items()])
    for tag, adam in (("adam_g", state.adam_g), ("adam_d", state.adam_d),
                      ("adam_g_pre", state.adam_g_pre), ("adam_d_pre", state.adam_d_pre)):
        _pack_arrays(arrays, f"{tag}/m", adam.m.items())
        _pack_arrays(arrays, f"{tag}/v", adam.v.items())
        arrays[f"{tag}/t"] = np.asarray(float(adam.t))
    arrays["meta/pretrain_iteration"] = np.asarray(float(state.pretrain_iteration))
    arrays["meta/meta_iteration"] = np.asarray(float(state.meta_iteration))
    # u64 seed split into exact 32-bit halves
    arrays["meta/seed_lo"] = np.asarray(float(state.seed & 0xFFFFFFFF))
    arrays["meta/seed_hi"] = np.asarray(float((state.seed >> 32) & 0xFFFFFFFF))
    return arrays


def save_checkpoint(state: BiLevelState, cfg: ExperimentConfig, path: str):
    """Serialize the training state; see module docstring for the layout."""
    arrays = state_to_arrays(state)
    config_text = serialize_config(cfg).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(config_text)))
        f.write(config_text)
        for name in arrays:  # insertion order is the canonical order
            arr = arrays[name]
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

    def array(key, shape=()):
        if key not in arrays:
            raise TensorError(f"checkpoint: missing array {key!r} in {path}")
        if arrays[key].shape != shape:
            raise TensorError(f"checkpoint: shape mismatch for {key!r} in {path}")
        return arrays[key]

    for prefix, ps in (("g_gp", state.g_gp), ("d_gp", state.d_gp),
                       ("phi", state.objective.phi.params)):
        for name, p in ps.items():
            p.data[...] = array(f"{prefix}/{name}", p.data.shape)
    for tag, adam in (("adam_g", state.adam_g), ("adam_d", state.adam_d),
                      ("adam_g_pre", state.adam_g_pre), ("adam_d_pre", state.adam_d_pre)):
        for name in adam.m:
            adam.m[name][...] = array(f"{tag}/m/{name}", adam.m[name].shape)
            adam.v[name][...] = array(f"{tag}/v/{name}", adam.v[name].shape)
        adam.t = int(array(f"{tag}/t"))
    state.pretrain_iteration = int(array("meta/pretrain_iteration"))
    state.meta_iteration = int(array("meta/meta_iteration"))
    state.seed = int(array("meta/seed_lo")) | (int(array("meta/seed_hi")) << 32)
    return state, cfg
