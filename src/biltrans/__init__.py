"""Bilevel episodic training for few-shot image-to-image translation on
procedurally generated scenes, with a self-contained reverse-mode
autodiff core so meta-gradients are verifiable against finite differences.
"""

from .bilevel import (
    BiLevelState,
    MetaMode,
    Objective,
    inner_adapt,
    meta_gradients,
    meta_update,
    metatrain,
    pretrain,
    test_adapt,
)
from .config import ExperimentConfig, default_config, load_config, parse_config, serialize_config
from .losses import FeatureExtractor, l1_loss, perceptual_loss
from .metrics import MetricReport, mse, proxy_lpips, psnr, ssim
from .nets import ParameterSet, discriminator_forward, generator_forward, init_params
from .optim import AdamState, adam_step, sgd_step_differentiable
from .tasks import (
    SceneSpec,
    SegMap,
    TaskEpisode,
    TranslationSample,
    augment,
    render,
    retrieve_topk,
    sample_episode,
    similarity,
    synth_scene,
)
from .tensor import Tape, Tensor, TensorError, backward, finite_diff_gradient

__version__ = "0.1.0"
