"""Versioned binary checkpoints.

Layout: 8-byte magic, u32 version, four u64 counters (``pretrain_iteration``,
``meta_iteration``, ``adam_g.t``, ``adam_d.t``), u64 config length + UTF-8
config text; then the body: the state's buffers as raw little-endian float64,
each ``g_gp`` and ``d_gp`` parameter, then ``m_flat`` and ``v_flat`` of
``adam_g`` and of ``adam_d``. The config fixes every buffer's shape, so the
body names none, and a body of another length than the config's state is
rejected.

A checkpoint holds only what a later stage reads. The header's ``phi_seed``
and ``phi_widths`` rebuild the feature extractor, its ``master_seed`` is the
state's seed, and ``metatrain`` starts a fresh Adam pair, so neither phi, a
seed nor pretraining moments past the hand-over are stored. The header holds
``out_dir`` at its default, so a checkpoint's bytes do not depend on where
the run is written, and no Adam constants, which ``optim`` fixes. A file of
another version, such as version 5's named arrays, is rejected.
"""

import os
import struct
import sys
from dataclasses import fields, replace

import numpy as np

from .bilevel import BiLevelState, Objective
from .config import ExperimentConfig, parse_config, serialize_config
from .nets import init_params
from .tensor import TensorError

MAGIC = b"BILCKPT\x00"
VERSION = 6
_HEADER = struct.Struct("<8sI5Q")  # magic, version, the four counters, config length


def _buffers(state: BiLevelState) -> list:
    """The state's float64 buffers in file order; loading reads into the
    same buffers, so nothing is saved that is not also loaded."""
    params = [p.data for ps in (state.g_gp, state.d_gp) for p in ps.tensors()]
    return params + [flat for adam in (state.adam_g, state.adam_d) for flat in (adam.m_flat, adam.v_flat)]


def save_checkpoint(state: BiLevelState, path: str):
    """Serialize the training state under its config; see module docstring
    for the layout."""
    config_text = serialize_config(replace(state.config, out_dir=ExperimentConfig.out_dir)).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, state.pretrain_iteration, state.meta_iteration,
                             state.adam_g.t, state.adam_d.t, len(config_text)))
        f.write(config_text)
        for buf in _buffers(state):
            f.write(np.ascontiguousarray(buf, dtype="<f8"))
    os.replace(tmp, path)


def _read_exact(f, n, what):
    # a length past the end of the file is checked before reading, since
    # ``f.read`` overflows on, or tries to allocate, the huge ones
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise TensorError(f"checkpoint: truncated while reading {what}")
    return f.read(n)


def build_state(cfg: ExperimentConfig) -> BiLevelState:
    """Fresh training state from an experiment config."""
    g, d = init_params(cfg, cfg.master_seed)
    return BiLevelState(config=cfg, objective=Objective(cfg), g_gp=g, d_gp=d, seed=cfg.master_seed)


def _contradictions(saved: ExperimentConfig, given: ExperimentConfig, meta_trained) -> list:
    """Each identity key, and once meta-trained each meta key, on which the
    given config differs from a checkpoint's saved one, with both values."""
    classes = ("identity", "meta") if meta_trained else ("identity",)
    return [f"{f.name} = {getattr(saved, f.name)!r} in the checkpoint, "
            f"{getattr(given, f.name)!r} in the config"
            for f in fields(ExperimentConfig)
            if f.metadata["key_class"] in classes and getattr(saved, f.name) != getattr(given, f.name)]


def load_checkpoint(path: str, cfg: ExperimentConfig | None = None):
    """Reconstruct (state, saved config) from a checkpoint. The state runs
    under ``cfg``, or under the saved config if none is given. A malformed
    file, or a ``cfg`` that contradicts the saved config (see
    ``_contradictions``), raises TensorError naming the file. The header
    is checked against ``cfg`` before the state is built, and the body's
    length against the built state before it is read."""
    with open(path, "rb") as f:
        try:
            magic, version, *counters, clen = _HEADER.unpack(_read_exact(f, _HEADER.size, "header"))
            if magic != MAGIC:
                raise TensorError("checkpoint: bad magic")
            if version != VERSION:
                raise TensorError(f"checkpoint: unsupported version {version}")
            saved = parse_config(_read_exact(f, clen, "config").decode())
        except (TensorError, UnicodeDecodeError) as e:
            raise TensorError(f"{path}: {e}") from e
        cfg = saved if cfg is None else cfg
        wrong = _contradictions(saved, cfg, counters[1])
        if wrong:
            raise TensorError(f"{path} contradicts the given config: {'; '.join(wrong)}")
        state = build_state(cfg)
        buffers = _buffers(state)
        body, want = os.fstat(f.fileno()).st_size - f.tell(), sum(buf.nbytes for buf in buffers)
        if body != want:
            raise TensorError(f"{path}: checkpoint body of {body} bytes, the config's state holds {want}")
        for buf in buffers:
            f.readinto(buf)
            if sys.byteorder == "big":
                buf.byteswap(inplace=True)
    state.pretrain_iteration, state.meta_iteration, state.adam_g.t, state.adam_d.t = counters
    return state, saved
