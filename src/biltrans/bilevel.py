"""Alternating two-level training: a general model learned across scenes
initializes a scene model adapted from a handful of samples, and the
post-adaptation test loss drives the general model's update.

Every training loop runs one ``alternating_step`` and differs only in the
update rule. Meta modes: FIRST_ORDER adapts with Adam and applies the
episode-test gradients at the adapted parameters to the general ones;
FULL_UNROLLED records the inner SGD steps on a differentiable tape and
backpropagates the episode-test loss through the whole adaptation.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import ExperimentConfig, MetaMode
from .losses import PROB_CLAMP, FeatureExtractor, l1_loss, perceptual_loss, target_features
from .nets import ParameterSet, discriminator_forward, generator_forward
from .optim import AdamState, adam_step, sgd_step_differentiable
from .rng import stream, substream_seed
from .tasks import (
    Batch,
    SegMap,
    TaskEpisode,
    TranslationSample,
    augment,
    render,
    retrieve_topk,
    sample_episode,
    stack_samples,
)
from .tensor import Tape, TensorError, backward

@dataclass
class Objective:
    """Training losses for a (generator, discriminator) pair over a batch,
    weighted and with the feature extractor that ``config`` names.

    Forward functions are injectable so gradient oracles can run on tiny
    hand-built networks.
    """

    config: ExperimentConfig
    g_forward: callable = None
    d_forward: callable = None
    phi: FeatureExtractor = field(init=False)

    def __post_init__(self):
        self.phi = FeatureExtractor(seed=self.config.phi_seed, widths=self.config.phi_width_list())
        self.g_forward = self.g_forward or generator_forward
        self.d_forward = self.d_forward or discriminator_forward

    def batch(self, samples) -> Batch:
        """The ``Batch`` of a list of samples that the losses read: the
        stacked samples and, with a perceptual term, their targets'
        features, computed here once for every step that reuses the batch."""
        batch = stack_samples(samples)
        if self.config.lambda_perc == 0.0:
            return batch
        return batch._replace(y_feats=target_features(self.phi, batch.y))

    def generate(self, g, batch: Batch):
        """Generated images (N, 3, H, W) of a ``Batch``, recorded on the
        active tape. Only the structure maps and references are read, so a
        ``stack_samples`` batch without target features will do."""
        return self.g_forward(g, batch.xs, batch.xr)

    def pair_losses(self, d, batch: Batch, fake):
        """Mean generator total loss of the generated batch ``fake``: L1 +
        weighted adversarial + weighted perceptual, whose target features
        ``batch`` carries from ``Objective.batch``.

        Every term is one batch mean, which equals the mean of the
        per-sample losses.
        """
        loss_g = l1_loss(fake, batch.y)
        cfg = self.config
        if cfg.lambda_adv != 0.0:
            p_fake = self._prob(d, batch.xs, fake)
            adv_g = (
                T.scalar_mul(T.reduce_mean(T.log(p_fake)), -1.0)
                if cfg.nonsaturating
                else T.reduce_mean(T.log(T.sub(T.tensor(np.ones(p_fake.shape)), p_fake)))
            )
            loss_g = T.add(loss_g, T.scalar_mul(adv_g, cfg.lambda_adv))
        if cfg.lambda_perc != 0.0:
            loss_g = T.add(loss_g, T.scalar_mul(perceptual_loss(self.phi, fake, batch.y_feats), cfg.lambda_perc))
        return loss_g

    def _prob(self, d, xs, img):
        logits = self.d_forward(d, xs, img)
        return T.clamp(T.sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)

    def disc_loss_detached(self, d, batch: Batch, fake):
        """Mean discriminator loss -(log p_real + log(1 - p_fake)) of the
        generated batch ``fake``, which stays attached: ``backward`` visits
        no generator op unless asked about one. (The benchmark's tracer wraps
        this method by name, so a rename waits for a benchmark change.)"""
        p_fake = self._prob(d, batch.xs, fake)
        log_one_minus_fake = T.reduce_mean(T.log(T.sub(T.tensor(np.ones(p_fake.shape)), p_fake)))
        p_real = self._prob(d, batch.xs, batch.y)
        return T.scalar_mul(T.add(T.reduce_mean(T.log(p_real)), log_one_minus_fake), -1.0)


@dataclass
class BiLevelState:
    """General-model parameters, the Adam pair of the stage in progress
    (see ``pretrain`` and ``metatrain``), and counters."""

    config: ExperimentConfig
    objective: Objective
    g_gp: ParameterSet
    d_gp: ParameterSet
    seed: int
    adam_g: AdamState = None
    adam_d: AdamState = None
    pretrain_iteration: int = 0
    meta_iteration: int = 0
    log_fn: callable = None

    def __post_init__(self):
        if self.adam_g is None:
            self.adam_g = AdamState(self.g_gp)
        if self.adam_d is None:
            self.adam_d = AdamState(self.d_gp)

    def emit(self, record: dict):
        if self.log_fn is not None:
            self.log_fn(record)


# ---------------------------------------------------------------------------
# batches


def _batch_for_iteration(samples, config: ExperimentConfig, rng):
    """The ``inner_batch`` samples of one training step from a sample set of
    another size: a draw without replacement from a larger set, a smaller
    one padded with freshly augmented copies."""
    if len(samples) > config.inner_batch:
        idx = rng.choice(len(samples), size=config.inner_batch, replace=False)
        return [samples[i] for i in sorted(idx)]
    out = list(samples)
    while len(out) < config.inner_batch:
        base = samples[int(rng.integers(0, len(samples)))]
        img2, lab2 = augment(base.y, base.x_struct.labels, int(rng.integers(0, 2**62)))
        out.append(TranslationSample(SegMap(lab2, base.x_struct.classes), base.x_ref, img2))
    return out


# ---------------------------------------------------------------------------
# the training step and inner adaptation


def alternating_step(objective: Objective, g, d, batch: Batch, step_g, step_d, tape=None):
    """One GAN training step: a discriminator step on ``batch``, which
    ``objective.batch`` prepares, then a generator step against the updated
    discriminator, both on one generated batch.

    ``step_d(d, grads)``/``step_g(g, grads)`` apply the update rule to a
    parameter set and its ``backward`` result and return the updated set.
    Without ``tape`` the batch is generated on a fresh VALUES tape that the
    generator step reuses, and the discriminator step runs on its own
    fresh tape; with a DIFFERENTIABLE ``tape`` everything is recorded on it.
    Returns (g, d, loss_g, loss_d).
    """
    with tape or Tape() as g_tape:
        fake = objective.generate(g, batch)
    with tape or Tape():
        loss_d = objective.disc_loss_detached(d, batch, fake)
        d = step_d(d, backward(loss_d, d.tensors()))
    with g_tape:
        loss_g = objective.pair_losses(d, batch, fake)
        g = step_g(g, backward(loss_g, g.tensors()))
    return g, d, loss_g, loss_d


def _adam_rule(opt: AdamState, rate: float):
    """Update rule: an Adam step in place on the parameter values."""
    return lambda params, grads: adam_step(opt, params, params.grads_by_name(grads), rate)[1]


def _sgd_rule(rate: float):
    """Update rule: an SGD step that stays connected on the active tape."""
    return lambda params, grads: params.with_tensors(
        sgd_step_differentiable(params, {n: grads[p] for n, p in params.items()}, rate))


def inner_adapt(gp_pair, train_samples, config: ExperimentConfig, mode: str,
                objective: Objective, seed: int, n_iters: int):
    """Adapt a copy of the general pair to one scene's training split with
    ``n_iters`` of ``alternating_step``.

    Returns (g_is, d_is, tape). The general parameters are never touched.
    FIRST_ORDER runs Adam steps eagerly on copies and returns tape=None;
    FULL_UNROLLED runs SGD steps on a differentiable tape and returns it,
    with g_is/d_is holding tape-connected tensors. A split of exactly
    ``inner_batch`` samples is every step's batch, prepared once.
    """
    if not train_samples:
        raise TensorError("inner_adapt: empty training split")
    if mode not in MetaMode.ALL:
        raise TensorError(f"inner_adapt: unknown mode {mode!r}")
    g, d = gp_pair
    if mode == MetaMode.FIRST_ORDER:
        g, d, tape = g.copy(), d.copy(), None
        step_g = _adam_rule(AdamState(g), config.alpha)
        step_d = _adam_rule(AdamState(d), config.alpha)
    else:
        tape = Tape(Tape.DIFFERENTIABLE)
        step_g = step_d = _sgd_rule(config.alpha)
    fixed = objective.batch(train_samples) if len(train_samples) == config.inner_batch else None
    for it in range(n_iters):
        batch = fixed or objective.batch(
            _batch_for_iteration(train_samples, config, stream(seed, "inner-batch", it)))
        g, d, _, _ = alternating_step(objective, g, d, batch, step_g, step_d, tape)
    return g, d, tape


# ---------------------------------------------------------------------------
# training phases


def pretrain(state: BiLevelState, scenes: list, iters: int | None = None) -> BiLevelState:
    """Conventional GAN training on samples pooled across scenes: one
    ``alternating_step`` per iteration, stepping the state's Adam pair at
    rate alpha."""
    if not scenes:
        raise TensorError("pretrain: empty scene pool")
    total = state.config.pretrain_iters if iters is None else iters
    cfg = state.config
    if state.meta_iteration and state.pretrain_iteration < total:
        raise TensorError("pretrain: the state has meta-trained, and its Adam pair is the meta update's")
    step_g, step_d = _adam_rule(state.adam_g, cfg.alpha), _adam_rule(state.adam_d, cfg.alpha)
    while state.pretrain_iteration < total:
        it = state.pretrain_iteration
        rng = stream(state.seed, "pretrain", it)
        samples = []
        for _ in range(cfg.inner_batch):
            scene = scenes[int(rng.integers(0, len(scenes)))]
            samples.append(render(scene, int(rng.integers(0, 2**62)), cfg.with_reference))
        _, _, loss_g, loss_d = alternating_step(state.objective, state.g_gp, state.d_gp,
                                                state.objective.batch(samples), step_g, step_d)
        state.pretrain_iteration += 1
        state.emit(
            {
                "phase": "pretrain",
                "iteration": state.pretrain_iteration,
                "loss_g_total": loss_g.item(),
                "loss_d": loss_d.item(),
            }
        )
    return state


def _add_episode_gradients(state: BiLevelState, ep: TaskEpisode, sum_g: dict, sum_d: dict):
    """Adapt to one episode in the config's ``meta_mode``, take the adapted
    pair's losses on its test split and add their general-model gradients
    to ``sum_g``/``sum_d`` in place.

    Both modes take the test losses on one tape; FIRST_ORDER differentiates
    them at the adapted parameters, FULL_UNROLLED backpropagates them
    through the recorded inner steps. Returns (generator loss,
    discriminator loss) as floats, so the episode's adapted pair, tape,
    batch and gradients are all freed when it returns.
    """
    cfg = state.config
    ep_seed = substream_seed(state.seed, "meta-inner", state.meta_iteration, ep.scene_id)
    g_is, d_is, tape = inner_adapt(
        (state.g_gp, state.d_gp), ep.train, cfg, cfg.meta_mode, state.objective,
        ep_seed, n_iters=cfg.train_inner_iters,
    )
    # first-order: at the adapted pair; unrolled: through the recorded steps
    g_wrt, d_wrt = (g_is, d_is) if tape is None else (state.g_gp, state.d_gp)
    batch = state.objective.batch(ep.test)
    with tape or Tape() as tape:  # the losses' nodes hold the tape weakly
        fake = state.objective.generate(g_is, batch)
        loss_g = state.objective.pair_losses(d_is, batch, fake)
        loss_d = state.objective.disc_loss_detached(d_is, batch, fake)
    # outside the block nothing is recorded: the meta-gradient is never
    # differentiated again
    for loss, wrt, sums in ((loss_g, g_wrt, sum_g), (loss_d, d_wrt, sum_d)):
        grads = wrt.grads_by_name(backward(loss, wrt.tensors()))
        for n in sums:
            sums[n] += grads[n]
    return loss_g.item(), loss_d.item()


def meta_gradients(state: BiLevelState, episodes: list):
    """Episode-averaged general-model gradients after per-episode adaptation
    in the config's ``meta_mode`` (see ``_add_episode_gradients``). One
    episode's working set is alive at a time: each is freed before the next
    episode adapts.
    Returns (g grads, d grads, mean generator loss, mean discriminator loss).
    """
    for ep in episodes:
        if not ep.train or not ep.test:
            raise TensorError("meta_gradients: episode is missing a split")

    sum_g = {n: np.zeros_like(p.data) for n, p in state.g_gp.items()}
    sum_d = {n: np.zeros_like(p.data) for n, p in state.d_gp.items()}
    mean_lg = mean_ld = 0.0
    for ep in episodes:
        loss_g, loss_d = _add_episode_gradients(state, ep, sum_g, sum_d)
        mean_lg += loss_g / len(episodes)
        mean_ld += loss_d / len(episodes)

    k = float(len(episodes))
    return (
        {n: v / k for n, v in sum_g.items()},
        {n: v / k for n, v in sum_d.items()},
        mean_lg,
        mean_ld,
    )


def meta_update(state: BiLevelState, episodes: list) -> BiLevelState:
    """One general-model update from a batch of episodes.

    Each episode is adapted on its training split; the post-adaptation
    losses on the full test split are averaged across the batch and one
    Adam step (rate beta) is applied to each general network.
    """
    avg_g, avg_d, mean_lg, mean_ld = meta_gradients(state, episodes)
    adam_step(state.adam_g, state.g_gp, avg_g, state.config.beta)
    adam_step(state.adam_d, state.d_gp, avg_d, state.config.beta)
    state.meta_iteration += 1
    state.emit(
        {
            "phase": "meta",
            "iteration": state.meta_iteration,
            "loss_g_total": mean_lg,
            "loss_d": mean_ld,
        }
    )
    return state


def metatrain(state: BiLevelState, scenes: list, iters: int | None = None) -> BiLevelState:
    """Alternating learning over episodes sampled from the training scenes,
    in the config's ``meta_mode``; a state that has not meta-trained yet
    first gets a fresh Adam pair."""
    cfg = state.config
    if len(scenes) < cfg.meta_batch:
        raise TensorError(f"metatrain: meta_batch = {cfg.meta_batch} exceeds the "
                          f"{len(scenes)} training scenes")
    total = cfg.metatrain_iters if iters is None else iters
    if state.meta_iteration == 0:
        state.adam_g, state.adam_d = AdamState(state.g_gp), AdamState(state.d_gp)
    while state.meta_iteration < total:
        it = state.meta_iteration
        rng = stream(state.seed, "metatrain-episodes", it)
        picks = rng.choice(len(scenes), size=cfg.meta_batch, replace=False)
        episodes = []
        for idx in sorted(int(i) for i in picks):
            scene = scenes[idx]
            ep_seed = substream_seed(state.seed, "metatrain-episode", it, scene.scene_id)
            episodes.append(sample_episode(scene, cfg.n_shot, cfg.n_test, ep_seed, cfg.with_reference))
        meta_update(state, episodes)
    return state


def gp_finetune_on_aux(state: BiLevelState, aux_tasks: list, seed: int) -> BiLevelState:
    """Continue the alternating loop on retrieved auxiliary tasks, in the
    config's ``meta_mode`` and at most ``meta_batch`` of them per update;
    acts on a copy, the caller's state is untouched."""
    k = len(aux_tasks)
    batch = min(state.config.meta_batch, k)
    tuned = BiLevelState(
        config=state.config, objective=state.objective,
        g_gp=state.g_gp.copy(), d_gp=state.d_gp.copy(), seed=seed,
        adam_g=state.adam_g.copy(), adam_d=state.adam_d.copy(),
    )
    for it in range(state.config.gp_finetune_iters):
        rng = stream(seed, "gp-finetune", it)
        picks = rng.choice(k, size=batch, replace=False)
        episodes = [aux_tasks[int(i)] for i in sorted(picks)]
        meta_update(tuned, episodes)
    return tuned


def test_adapt(state: BiLevelState, episode: TaskEpisode, train_tasks: list):
    """Adapt to an unseen scene and generate its test images.

    With training tasks, the config's ``k_aux`` most similar of them first
    fine-tune a copy of the general pair under its ``meta_mode``; without,
    adaptation starts straight from the general pair. The caller's state is
    bitwise unchanged either way. Returns (g_is, d_is, images).
    """
    if not episode.train:
        raise TensorError("test_adapt: unseen episode has no training split")
    cfg = state.config
    if train_tasks:  # retrieve_topk rejects a k_aux above len(train_tasks)
        aux = retrieve_topk(episode.key, train_tasks, cfg.k_aux)
        tuned = gp_finetune_on_aux(state, aux, substream_seed(state.seed, "aux", episode.scene_id))
        gp_pair = (tuned.g_gp, tuned.d_gp)
    else:
        gp_pair = (state.g_gp, state.d_gp)
    g_is, d_is, _ = inner_adapt(
        gp_pair, episode.train, cfg, MetaMode.FIRST_ORDER,
        state.objective, substream_seed(state.seed, "test-adapt", episode.scene_id),
        n_iters=cfg.inner_iters,
    )
    images = list(state.objective.generate(g_is, stack_samples(episode.test)).data)
    return g_is, d_is, images


test_adapt.__test__ = False  # not a pytest case despite the spec-mandated name
