"""Alternating two-level training: a general model learned across scenes
initializes a scene model adapted from a handful of samples, and the
post-adaptation test loss drives the general model's update.

Every training loop runs one ``alternating_step`` and differs only in the
update rule. Meta modes: FIRST_ORDER adapts with Adam and applies the
episode-test gradients at the adapted parameters to the general ones;
FULL_UNROLLED records the inner SGD steps on a differentiable tape and
backpropagates the episode-test loss through the whole adaptation.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .config import ExperimentConfig, MetaMode
from .losses import PROB_CLAMP, FeatureExtractor, l1_loss, perceptual_loss
from .nets import ParameterSet, discriminator_forward, generator_forward
from .optim import AdamState, adam_step, sgd_step_differentiable
from .rng import stream, substream_seed
from .tasks import (
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

    def generate(self, g, batch):
        """Generated images (N, 3, H, W) for a list of samples or a batch
        triple (see ``stack_samples``), recorded on the active tape."""
        xs, xr, _ = stack_samples(batch)
        return self.g_forward(g, xs, xr)

    def pair_losses(self, d, batch, fake):
        """Mean generator total loss of the generated batch ``fake``: L1 +
        weighted adversarial + weighted perceptual.

        Every term is one batch mean, which equals the mean of the
        per-sample losses.
        """
        xs, _, y = stack_samples(batch)
        loss_g = l1_loss(fake, y)
        cfg = self.config
        if cfg.lambda_adv != 0.0:
            p_fake = self._prob(d, xs, fake)
            adv_g = (
                T.scalar_mul(T.reduce_mean(T.log(p_fake)), -1.0)
                if cfg.nonsaturating
                else T.reduce_mean(T.log(T.sub(T.constant(np.ones(p_fake.shape)), p_fake)))
            )
            loss_g = T.add(loss_g, T.scalar_mul(adv_g, cfg.lambda_adv))
        if cfg.lambda_perc != 0.0:
            loss_g = T.add(loss_g, T.scalar_mul(perceptual_loss(self.phi, fake, y), cfg.lambda_perc))
        return loss_g

    def _prob(self, d, xs, img):
        logits = self.d_forward(d, xs, img)
        return T.clamp(T.sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)

    def disc_loss_detached(self, d, batch, fake):
        """Mean discriminator loss -(log p_real + log(1 - p_fake)) of the
        generated batch ``fake``, which stays attached: ``backward`` visits
        no generator op unless asked about one. (The benchmark's tracer wraps
        this method by name, so a rename waits for a benchmark change.)"""
        xs, _, y = stack_samples(batch)
        p_fake = self._prob(d, xs, fake)
        log_one_minus_fake = T.reduce_mean(T.log(T.sub(T.constant(np.ones(p_fake.shape)), p_fake)))
        p_real = self._prob(d, xs, y)
        return T.scalar_mul(T.add(T.reduce_mean(T.log(p_real)), log_one_minus_fake), -1.0)


def _adam(params, config: ExperimentConfig) -> AdamState:
    return AdamState.for_params(params, config.adam_beta1, config.adam_beta2, config.adam_eps)


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
            self.adam_g = _adam(self.g_gp, self.config)
        if self.adam_d is None:
            self.adam_d = _adam(self.d_gp, self.config)

    def emit(self, record: dict):
        if self.log_fn is not None:
            self.log_fn(record)


# ---------------------------------------------------------------------------
# batches


def _batch_for_iteration(samples, config: ExperimentConfig, rng):
    """One stacked training batch (see ``stack_samples``); short sample sets
    are padded with freshly augmented copies so the batch size stays constant."""
    if len(samples) >= config.inner_batch:
        if len(samples) == config.inner_batch:
            return stack_samples(samples)
        idx = rng.choice(len(samples), size=config.inner_batch, replace=False)
        return stack_samples([samples[i] for i in sorted(idx)])
    out = list(samples)
    while len(out) < config.inner_batch:
        base = samples[int(rng.integers(0, len(samples)))]
        img2, lab2 = augment(base.y, base.x_struct.labels, int(rng.integers(0, 2**62)),
                             flip=config.allow_flip)
        out.append(TranslationSample(SegMap(lab2, base.x_struct.classes), base.x_ref, img2))
    return stack_samples(out)


# ---------------------------------------------------------------------------
# the training step and inner adaptation


def alternating_step(objective: Objective, g, d, batch, step_g, step_d, tape=None):
    """One GAN training step: a discriminator step on ``batch``, then a
    generator step against the updated discriminator, both on one
    generated batch.

    ``step_d(d, grads)``/``step_g(g, grads)`` apply the update rule to a
    parameter set and its ``backward`` result and return the updated set.
    Without ``tape`` the batch is generated on a fresh VALUES tape that the
    generator step reuses, and the discriminator step runs on its own
    fresh tape; with a DIFFERENTIABLE ``tape`` everything is recorded on it.
    Returns (g, d, loss_g, loss_d).
    """
    batch = stack_samples(batch)
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
                objective: Objective, seed: int, n_iters: int | None = None):
    """Adapt a copy of the general pair to one scene's training split with
    ``alternating_step``.

    Returns (g_is, d_is, tape). The general parameters are never touched.
    FIRST_ORDER runs Adam steps eagerly on copies and returns tape=None;
    FULL_UNROLLED runs SGD steps on a differentiable tape and returns it,
    with g_is/d_is holding tape-connected tensors.
    """
    if not train_samples:
        raise TensorError("inner_adapt: empty training split")
    if mode not in MetaMode.ALL:
        raise TensorError(f"inner_adapt: unknown mode {mode!r}")
    g, d = gp_pair
    if mode == MetaMode.FIRST_ORDER:
        g, d, tape = g.copy(), d.copy(), None
        step_g = _adam_rule(_adam(g, config), config.alpha)
        step_d = _adam_rule(_adam(d, config), config.alpha)
    else:
        tape = Tape(Tape.DIFFERENTIABLE)
        step_g = step_d = _sgd_rule(config.alpha)
    for it in range(config.inner_iters if n_iters is None else n_iters):
        batch = _batch_for_iteration(train_samples, config, stream(seed, "inner-batch", it))
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
            samples.append(render(scene, int(rng.integers(0, 2**62)), cfg.with_reference,
                                  cfg.allow_flip))
        t0 = time.perf_counter()
        _, _, loss_g, loss_d = alternating_step(state.objective, state.g_gp, state.d_gp, samples,
                                                step_g, step_d)
        state.pretrain_iteration += 1
        state.emit(
            {
                "phase": "pretrain",
                "iteration": state.pretrain_iteration,
                "loss_g_total": loss_g.item(),
                "loss_d": loss_d.item(),
                "wall": time.perf_counter() - t0,
            }
        )
    return state


def meta_gradients(state: BiLevelState, episodes: list, mode: str):
    """Episode-averaged general-model gradients after per-episode adaptation.

    Both modes take the episode-test losses of the adapted pair on one
    tape; FIRST_ORDER differentiates them at the adapted parameters,
    FULL_UNROLLED backpropagates them through the recorded inner steps.
    Each episode's tape is dropped before the next episode adapts.
    Returns (g grads, d grads, mean generator loss, mean discriminator loss).
    """
    cfg = state.config
    for ep in episodes:
        if not ep.train or not ep.test:
            raise TensorError("meta_gradients: episode is missing a split")

    sum_g = {n: np.zeros_like(p.data) for n, p in state.g_gp.items()}
    sum_d = {n: np.zeros_like(p.data) for n, p in state.d_gp.items()}
    mean_lg = mean_ld = 0.0

    for ep in episodes:
        ep_seed = substream_seed(state.seed, "meta-inner", state.meta_iteration, ep.scene_id)
        g_is, d_is, tape = inner_adapt(
            (state.g_gp, state.d_gp), ep.train, cfg, mode, state.objective,
            ep_seed, n_iters=cfg.train_inner_iters,
        )
        # first-order: at the adapted pair; unrolled: through the recorded steps
        g_wrt, d_wrt = (g_is, d_is) if tape is None else (state.g_gp, state.d_gp)
        with tape or Tape() as tape:
            batch = stack_samples(ep.test)
            fake = state.objective.generate(g_is, batch)
            loss_g = state.objective.pair_losses(d_is, batch, fake)
            loss_d = state.objective.disc_loss_detached(d_is, batch, fake)
        # outside the block nothing is recorded: the meta-gradient is never
        # differentiated again, and the tape is freed before the next episode
        g_by_name = g_wrt.grads_by_name(backward(loss_g, g_wrt.tensors()))
        d_by_name = d_wrt.grads_by_name(backward(loss_d, d_wrt.tensors()))
        del tape
        for n in sum_g:
            sum_g[n] += g_by_name[n]
        for n in sum_d:
            sum_d[n] += d_by_name[n]
        mean_lg += loss_g.item() / len(episodes)
        mean_ld += loss_d.item() / len(episodes)

    k = float(len(episodes))
    return (
        {n: v / k for n, v in sum_g.items()},
        {n: v / k for n, v in sum_d.items()},
        mean_lg,
        mean_ld,
    )


def meta_update(state: BiLevelState, episodes: list, mode: str) -> BiLevelState:
    """One general-model update from a batch of episodes.

    Each episode is adapted on its training split; the post-adaptation
    losses on the full test split are averaged across the batch and one
    Adam step (rate beta) is applied to each general network.
    """
    if len(episodes) != state.config.meta_batch:
        raise TensorError(
            f"meta_update: expected {state.config.meta_batch} episodes, got {len(episodes)}"
        )
    avg_g, avg_d, mean_lg, mean_ld = meta_gradients(state, episodes, mode)
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


def metatrain(state: BiLevelState, scenes: list, mode: str = MetaMode.FIRST_ORDER,
              iters: int | None = None) -> BiLevelState:
    """Alternating learning over episodes sampled from the training scenes;
    a state that has not meta-trained yet first gets a fresh Adam pair."""
    cfg = state.config
    if len(scenes) < cfg.meta_batch:
        raise TensorError(f"metatrain: meta_batch = {cfg.meta_batch} exceeds the "
                          f"{len(scenes)} training scenes")
    total = cfg.metatrain_iters if iters is None else iters
    if state.meta_iteration == 0:
        state.adam_g, state.adam_d = _adam(state.g_gp, cfg), _adam(state.d_gp, cfg)
    while state.meta_iteration < total:
        it = state.meta_iteration
        rng = stream(state.seed, "metatrain-episodes", it)
        picks = rng.choice(len(scenes), size=cfg.meta_batch, replace=False)
        episodes = []
        for idx in sorted(int(i) for i in picks):
            scene = scenes[idx]
            ep_seed = substream_seed(state.seed, "metatrain-episode", it, scene.scene_id)
            episodes.append(
                sample_episode(scene, cfg.n_shot, cfg.n_test, ep_seed, cfg.with_reference,
                               cfg.allow_flip)
            )
        t0 = time.perf_counter()
        meta_update(state, episodes, mode)
        state.emit({"phase": "meta-wall", "iteration": state.meta_iteration,
                    "wall": time.perf_counter() - t0})
    return state


def gp_finetune_on_aux(state: BiLevelState, aux_tasks: list, mode: str,
                       seed: int) -> BiLevelState:
    """Continue the alternating loop on retrieved auxiliary tasks; acts on a
    copy, the caller's state is untouched."""
    k = len(aux_tasks)
    batch = min(state.config.meta_batch, k)
    tuned = BiLevelState(
        config=replace(state.config, meta_batch=batch), objective=state.objective,
        g_gp=state.g_gp.copy(), d_gp=state.d_gp.copy(), seed=seed,
        adam_g=state.adam_g.copy(), adam_d=state.adam_d.copy(),
    )
    for it in range(state.config.gp_finetune_iters):
        rng = stream(seed, "gp-finetune", it)
        picks = rng.choice(k, size=batch, replace=False)
        episodes = [aux_tasks[int(i)] for i in sorted(picks)]
        meta_update(tuned, episodes, mode)
    return tuned


def test_adapt(state: BiLevelState, episode: TaskEpisode, train_tasks: list,
               k: int = 0, seed: int = 0, finetune_mode: str = MetaMode.FIRST_ORDER):
    """Adapt to an unseen scene and generate its test images.

    With k >= 1, the k most similar training tasks first fine-tune a copy
    of the general pair; k = 0 adapts straight from the general pair. The
    caller's state is bitwise unchanged either way. Returns (g_is, d_is, images).
    """
    if not episode.train:
        raise TensorError("test_adapt: unseen episode has no training split")
    if k:  # retrieve_topk rejects a k outside 1..len(train_tasks)
        aux = retrieve_topk(episode.key, train_tasks, k)
        tuned = gp_finetune_on_aux(state, aux, finetune_mode,
                                   substream_seed(seed, "aux", episode.scene_id))
        gp_pair = (tuned.g_gp, tuned.d_gp)
    else:
        gp_pair = (state.g_gp, state.d_gp)
    g_is, d_is, _ = inner_adapt(
        gp_pair, episode.train, state.config, MetaMode.FIRST_ORDER,
        state.objective, substream_seed(seed, "test-adapt", episode.scene_id),
        n_iters=state.config.inner_iters,
    )
    images = list(state.objective.generate(g_is, episode.test).data)
    return g_is, d_is, images


test_adapt.__test__ = False  # not a pytest case despite the spec-mandated name
