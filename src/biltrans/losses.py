"""Terms of the training objective, which ``bilevel.Objective`` assembles
with the config's loss weights: L1 + weighted adversarial + weighted
perceptual.

The perceptual term compares channel-unit-normalized activations of a
frozen, randomly initialized conv stack; random features stand in for a
pretrained backbone, so the whole repo stays self-contained. The
extractor seed is part of experiment config.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .nets import ParameterSet
from .rng import stream
from .tensor import Tensor, TensorError

PROB_CLAMP = 1e-7
NORM_EPS = 1e-10


@dataclass
class FeatureExtractor:
    """Frozen 3-stage conv stack with a tap after every stage."""

    seed: int
    widths: tuple = (8, 16, 32)
    params: ParameterSet = field(init=False)

    def __post_init__(self):
        ps = ParameterSet("any")
        rng = stream(self.seed, "feature-extractor")
        cin = 3
        for i, cout in enumerate(self.widths):
            std = np.sqrt(2.0 / (cin * 9))
            ps.add(f"stage{i}.w", rng.normal(0.0, std, size=(cout, cin, 3, 3)))
            cin = cout
        self.params = ps

    def features(self, img: Tensor) -> list[Tensor]:
        taps = []
        h = img
        for i in range(len(self.widths)):
            h = T.relu(T.conv2d(h, self.params[f"stage{i}.w"], stride=2, pad=1))
            taps.append(h)
        return taps


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise TensorError(f"l1_loss: shapes {pred.shape} vs {target.shape}")
    return T.reduce_mean(T.absolute(T.sub(pred, target)))


def _unit_normalize(feat: Tensor) -> Tensor:
    # divide by the per-location channel L2 norm
    n, _, h, w = feat.shape
    sum_sq = T.sum_to(T.square(feat), (n, 1, h, w))
    eps = T.tensor(np.full(sum_sq.shape, NORM_EPS))
    inv_norm = T.reciprocal(T.sqrt(T.add(sum_sq, eps)))
    return T.mul(feat, T.broadcast_to(inv_norm, feat.shape))


def target_features(phi: FeatureExtractor, target: Tensor) -> list[Tensor]:
    """The normalized features of constant target images, computed off the
    tape: nothing differentiates through a target."""
    with T.no_tape():
        return [_unit_normalize(f) for f in phi.features(target)]


def perceptual_loss(phi: FeatureExtractor, pred: Tensor, target_feats: list) -> Tensor:
    """Sum over stages of mean squared distance between normalized features
    of ``pred`` and ``target_feats``, the targets' ``target_features``; on a
    batch, the mean over samples of their distances."""
    total = None
    for fp, ft in zip(phi.features(pred), target_feats):
        d = T.reduce_mean(T.square(T.sub(_unit_normalize(fp), ft)))
        total = d if total is None else T.add(total, d)
    return total
