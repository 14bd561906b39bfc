"""Flat key = value experiment configuration with provenance-tracked defaults."""

import math
from dataclasses import dataclass, field, fields

from .tensor import TensorError


class MetaMode:
    FIRST_ORDER = "first-order"
    FULL_UNROLLED = "full-unrolled"
    ALL = (FIRST_ORDER, FULL_UNROLLED)


# provenance: "recipe" marks values taken from the reference training recipe,
# "repo" marks desk-scale defaults chosen here. The recipe's full-scale
# iteration counts (50000 pretrain / 20000 metatrain) are accepted but the
# shipped defaults are desk-scale.
def _field(default, provenance="repo"):
    return field(default=default, metadata={"provenance": provenance})


@dataclass
class ExperimentConfig:
    mode: str = _field("pg2")
    meta_mode: str = _field(MetaMode.FIRST_ORDER)
    master_seed: int = _field(0)
    out_dir: str = _field("runs/out")
    image_size: int = _field(32)
    classes: int = _field(5)
    base_width: int = _field(16)
    depth: int = _field(3)
    n_shot: int = _field(5)
    n_test: int = _field(5)
    inner_iters: int = _field(20, "recipe")  # test-time adaptation steps per unseen scene
    train_inner_iters: int = _field(2)  # adaptation steps inside meta-training
    inner_batch: int = _field(5, "recipe")
    meta_batch: int = _field(5, "recipe")
    pretrain_iters: int = _field(2000)
    metatrain_iters: int = _field(1000)
    alpha: float = _field(1e-4, "recipe")  # scene-model step size
    beta: float = _field(1e-4, "recipe")  # general-model step size
    adam_beta1: float = _field(0.5, "recipe")
    adam_beta2: float = _field(0.999, "recipe")
    adam_eps: float = _field(1e-8)
    lambda_adv: float = _field(10.0, "recipe")
    lambda_perc: float = _field(2.0, "recipe")
    nonsaturating: bool = _field(False)
    phi_seed: int = _field(1789)
    phi_widths: str = _field("8,16,32")
    n_train_scenes: int = _field(100)
    n_unseen_scenes: int = _field(20)
    clusters: int = _field(0)
    samples_per_scene: int = _field(4)  # accepted and validated; no stage reads it
    shade_amp_max: float = _field(0.3)
    allow_flip: bool = _field(True)
    k_aux: int = _field(5)
    gp_finetune_iters: int = _field(50)
    jobs: int = _field(1)

    def validate(self):
        if self.mode not in ("pg2", "pix2pix"):
            raise TensorError(f"config: mode must be pg2 or pix2pix, got {self.mode!r}")
        if self.meta_mode not in MetaMode.ALL:
            raise TensorError(f"config: meta_mode must be one of {MetaMode.ALL}, got {self.meta_mode!r}")
        if self.n_shot not in (1, 5):
            raise TensorError(f"config: n_shot must be 1 or 5, got {self.n_shot}")
        for name in ("image_size", "depth", "n_test", "inner_batch", "meta_batch",
                     "n_train_scenes", "n_unseen_scenes", "samples_per_scene", "k_aux", "jobs"):
            if getattr(self, name) < 1:
                raise TensorError(f"config: {name} must be positive")
        for name in ("inner_iters", "train_inner_iters", "pretrain_iters", "metatrain_iters",
                     "gp_finetune_iters"):
            if getattr(self, name) < 0:
                raise TensorError(f"config: {name} must be >= 0")
        for name in ("alpha", "beta", "adam_eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise TensorError(f"config: {name} must be finite and positive")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise TensorError(f"config: {name} must be in [0, 1)")
        if self.classes < 2:
            raise TensorError("config: classes must be >= 2")
        if self.base_width < 4:
            raise TensorError("config: base_width must be >= 4")
        for name in ("lambda_adv", "lambda_perc"):
            if not 0 <= getattr(self, name) < math.inf:
                raise TensorError(f"config: {name} must be finite and >= 0")
        if self.image_size % (2**self.depth):
            raise TensorError("config: image_size must be divisible by 2^depth")
        # every reflect pad of the networks and the feature extractor needs a
        # side of at least 2, and SSIM a 7x7 window
        for least, what in ((2 ** (self.depth + 1), "2^(depth + 1)"),
                            (2 ** len(self.phi_width_list()), "2^(number of phi_widths entries)"),
                            (7, "the SSIM window")):
            if self.image_size < least:
                raise TensorError(f"config: image_size must be >= {what} = {least}")
        if not 0 <= self.shade_amp_max <= 0.3:
            raise TensorError("config: shade_amp_max must be in [0, 0.3]")
        for name in ("k_aux", "meta_batch"):
            if getattr(self, name) > self.n_train_scenes:
                raise TensorError(f"config: {name} cannot exceed n_train_scenes")
        if self.clusters < 0:
            raise TensorError("config: clusters must be >= 0")
        if min(self.phi_width_list()) < 1:
            raise TensorError(f"config: every phi_widths entry must be >= 1, got {self.phi_widths!r}")
        return self

    @property
    def with_reference(self) -> bool:
        """pg2 translates with a reference image; pix2pix from structure alone."""
        return self.mode == "pg2"

    def phi_width_list(self):
        try:
            return tuple(int(p) for p in self.phi_widths.split(","))
        except ValueError as e:
            raise TensorError(f"config: bad phi_widths {self.phi_widths!r}") from e

    def provenance(self) -> dict:
        """Per-field origin: 'recipe', 'repo', or 'user' for overridden values."""
        out = {}
        for f in fields(self):
            out[f.name] = f.metadata["provenance"] if getattr(self, f.name) == f.default else "user"
        return out


def default_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**overrides).validate()


_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(name, raw, lineno):
    ftype = _TYPES[name]
    raw = raw.strip()
    try:
        if ftype is bool:
            if raw not in ("true", "false"):
                raise ValueError("expected true/false")
            return raw == "true"
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
        return raw
    except ValueError as e:
        raise TensorError(f"config line {lineno}: bad value for {name!r}: {raw!r} ({e})") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines with # comments; unknown keys are rejected
    with their line number, missing keys fall back to defaults."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise TensorError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _TYPES:
            raise TensorError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
    cfg = ExperimentConfig(**values)
    return cfg.validate()


def serialize_config(cfg: ExperimentConfig, with_provenance: bool = False) -> str:
    prov = cfg.provenance() if with_provenance else {}
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        comment = f"  # {prov[f.name]}" if with_provenance else ""
        lines.append(f"{f.name} = {rendered}{comment}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    """Parse a config file; a malformed one raises TensorError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse_config(f.read())
    except (TensorError, UnicodeDecodeError) as e:
        raise TensorError(f"{path}: {e}") from e
