"""Training objective: L1 + weighted adversarial + weighted perceptual.

The perceptual term compares channel-unit-normalized activations of a
frozen, randomly initialized conv stack; random features stand in for a
pretrained backbone, so the whole repo stays self-contained. The
extractor seed is part of experiment config.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .nets import ParameterSet, discriminator_forward, generator_forward
from .rng import stream
from .tensor import Tensor, TensorError

PROB_CLAMP = 1e-7
NORM_EPS = 1e-10


@dataclass(frozen=True)
class LossWeights:
    adversarial: float = 10.0
    perceptual: float = 2.0
    nonsaturating: bool = False

    def __post_init__(self):
        for v in (self.adversarial, self.perceptual):
            if not (np.isfinite(v) and v >= 0):
                raise TensorError("LossWeights: weights must be finite and >= 0")


@dataclass
class FeatureExtractor:
    """Frozen 3-stage conv stack with a tap after every stage."""

    seed: int
    widths: tuple = (8, 16, 32)
    params: ParameterSet = field(init=False)

    def __post_init__(self):
        ps = ParameterSet("feature", "any")
        rng = stream(self.seed, "feature-extractor")
        cin = 3
        for i, cout in enumerate(self.widths):
            std = np.sqrt(2.0 / (cin * 9))
            ps.add(f"stage{i}.w", rng.normal(0.0, std, size=(cout, cin, 3, 3)))
            cin = cout
        for p in ps.values():
            p.requires_grad = False  # never trained
        self.params = ps

    def features(self, img: Tensor) -> list[Tensor]:
        taps = []
        h = img
        for i in range(len(self.widths)):
            h = T.relu(T.conv2d(T.pad_reflect(h, 1), self.params[f"stage{i}.w"], stride=2))
            taps.append(h)
        return taps

    def digest(self) -> str:
        return self.params.digest()


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise TensorError(f"l1_loss: shapes {pred.shape} vs {target.shape}")
    return T.reduce_mean(T.absolute(T.sub(pred, target)))


def _patch_prob(d, x_struct, img):
    logits = discriminator_forward(d, x_struct, img)
    return T.clamp(T.sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)


def adversarial_losses_from_probs(p_real: Tensor, p_fake: Tensor, nonsaturating: bool = False):
    """(loss_D, loss_G) from already-clamped patch probabilities.

    loss_D = -[mean log p_real + mean log(1 - p_fake)]. loss_G keeps the
    minimax form mean log(1 - p_fake) unless the nonsaturating flag
    rewrites it as -mean log p_fake.
    """
    one = T.constant(np.ones(p_fake.shape))
    log_real = T.reduce_mean(T.log(p_real))
    log_one_minus_fake = T.reduce_mean(T.log(T.sub(one, p_fake)))
    loss_d = T.scalar_mul(T.add(log_real, log_one_minus_fake), -1.0)
    if nonsaturating:
        loss_g = T.scalar_mul(T.reduce_mean(T.log(p_fake)), -1.0)
    else:
        loss_g = log_one_minus_fake
    return loss_d, loss_g


def adversarial_losses(d: ParameterSet, x_struct: Tensor, y_real: Tensor, y_fake: Tensor,
                       nonsaturating: bool = False):
    """(loss_D, loss_G) for a conditional patch discriminator, means over patches."""
    p_real = _patch_prob(d, x_struct, y_real)
    p_fake = _patch_prob(d, x_struct, y_fake)
    return adversarial_losses_from_probs(p_real, p_fake, nonsaturating)


def _unit_normalize(feat: Tensor) -> Tensor:
    # divide by the per-location channel L2 norm
    sum_sq = T.channel_sum(T.square(feat))
    eps = T.constant(np.full(sum_sq.shape, NORM_EPS))
    inv_norm = T.reciprocal(T.sqrt(T.add(sum_sq, eps)))
    return T.mul(feat, T.channel_repeat(inv_norm, feat.shape[1]))


def perceptual_loss(phi: FeatureExtractor, pred: Tensor, target: Tensor) -> Tensor:
    """Sum over stages of mean squared distance between normalized features;
    on a batch, the mean over samples of their distances."""
    if pred.shape != target.shape:
        raise TensorError(f"perceptual_loss: shapes {pred.shape} vs {target.shape}")
    total = None
    for fp, ft in zip(phi.features(pred), phi.features(target)):
        d = T.reduce_mean(T.square(T.sub(_unit_normalize(fp), _unit_normalize(ft))))
        total = d if total is None else T.add(total, d)
    return total


def total_loss(g: ParameterSet, d: ParameterSet, phi: FeatureExtractor,
               weights: LossWeights, sample):
    """(generator total loss, discriminator loss) for one training sample.

    ``sample`` provides x_struct / x_ref / y as batch Tensors (see tasks module).
    The generated image stays on the active tape, so backward against
    either returned scalar reaches the respective network.
    """
    x_struct, x_ref, y = sample.tensors()
    fake = generator_forward(g, x_struct, x_ref)
    loss_d, loss_g = adversarial_losses(d, x_struct, y, fake, weights.nonsaturating)
    parts = l1_loss(fake, y)
    if weights.adversarial != 0.0:
        parts = T.add(parts, T.scalar_mul(loss_g, weights.adversarial))
    if weights.perceptual != 0.0:
        parts = T.add(parts, T.scalar_mul(perceptual_loss(phi, fake, y), weights.perceptual))
    return parts, loss_d
