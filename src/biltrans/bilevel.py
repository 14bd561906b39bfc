"""Alternating two-level training: a general model learned across scenes
initializes a scene model adapted from a handful of samples, and the
post-adaptation test loss drives the general model's update.

Meta modes: FIRST_ORDER evaluates episode-test gradients at the adapted
parameters and applies them to the general parameters (Adam inner loop);
FULL_UNROLLED records the inner SGD steps on a differentiable tape and
backpropagates the episode-test loss through the whole adaptation.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .config import ExperimentConfig, MetaMode
from .losses import PROB_CLAMP, FeatureExtractor, LossWeights, l1_loss, perceptual_loss
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
    """Training losses for a (generator, discriminator) pair over a batch.

    Forward functions are injectable so gradient oracles can run on tiny
    hand-built networks.
    """

    phi: FeatureExtractor
    weights: LossWeights = field(default_factory=LossWeights)
    g_forward: callable = None
    d_forward: callable = None

    def __post_init__(self):
        self.g_forward = self.g_forward or generator_forward
        self.d_forward = self.d_forward or discriminator_forward

    def pair_losses(self, g, d, samples, want_d=True):
        """(mean generator total loss, mean discriminator loss or None).

        ``samples`` is a list of samples or one stacked batch triple (see
        ``stack_samples``); every term is one batch mean, which equals the
        mean of the per-sample losses.
        """
        xs, xr, y = stack_samples(samples)
        fake = self.g_forward(g, xs, xr)
        loss_g = l1_loss(fake, y)
        if want_d or self.weights.adversarial != 0.0:
            p_fake = self._prob(d, xs, fake)
            one = T.constant(np.ones(p_fake.shape))
            log_one_minus_fake = T.reduce_mean(T.log(T.sub(one, p_fake)))
            if self.weights.adversarial != 0.0:
                adv_g = (
                    T.scalar_mul(T.reduce_mean(T.log(p_fake)), -1.0)
                    if self.weights.nonsaturating
                    else log_one_minus_fake
                )
                loss_g = T.add(loss_g, T.scalar_mul(adv_g, self.weights.adversarial))
        if self.weights.perceptual != 0.0:
            loss_g = T.add(
                loss_g, T.scalar_mul(perceptual_loss(self.phi, fake, y), self.weights.perceptual)
            )
        if not want_d:
            return loss_g, None
        p_real = self._prob(d, xs, y)
        loss_d = T.scalar_mul(T.add(T.reduce_mean(T.log(p_real)), log_one_minus_fake), -1.0)
        return loss_g, loss_d

    def _prob(self, d, xs, img):
        logits = self.d_forward(d, xs, img)
        return T.clamp(T.sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)

    def disc_loss_detached(self, g, d, samples):
        """Discriminator loss with generated images treated as constants."""
        xs, xr, y = stack_samples(samples)
        with T.no_tape():
            fake = T.constant(self.g_forward(g, xs, xr).data)
        p_real = self._prob(d, xs, y)
        p_fake = self._prob(d, xs, fake)
        one = T.constant(np.ones(p_fake.shape))
        return T.scalar_mul(
            T.add(T.reduce_mean(T.log(p_real)), T.reduce_mean(T.log(T.sub(one, p_fake)))), -1.0
        )

    def generate(self, g, samples) -> np.ndarray:
        """Generated images (N, 3, H, W) for a list of samples or a batch triple."""
        xs, xr, _ = stack_samples(samples)
        return self.g_forward(g, xs, xr).data


def _adam(params, rate, config: ExperimentConfig) -> AdamState:
    return AdamState.for_params(params, rate, config.adam_beta1, config.adam_beta2, config.adam_eps)


@dataclass
class BiLevelState:
    """General-model parameters, their optimizer states, and counters."""

    config: ExperimentConfig
    objective: Objective
    g_gp: ParameterSet
    d_gp: ParameterSet
    seed: int
    adam_g: AdamState = None
    adam_d: AdamState = None
    adam_g_pre: AdamState = None
    adam_d_pre: AdamState = None
    pretrain_iteration: int = 0
    meta_iteration: int = 0
    log_fn: callable = None

    def __post_init__(self):
        c = self.config
        if self.adam_g is None:
            self.adam_g = _adam(self.g_gp, c.beta, c)
        if self.adam_d is None:
            self.adam_d = _adam(self.d_gp, c.beta, c)
        if self.adam_g_pre is None:
            self.adam_g_pre = _adam(self.g_gp, c.alpha, c)
        if self.adam_d_pre is None:
            self.adam_d_pre = _adam(self.d_gp, c.alpha, c)

    def emit(self, record: dict):
        if self.log_fn is not None:
            self.log_fn(record)


# ---------------------------------------------------------------------------
# batches


def _batch_for_iteration(samples, inner_batch, rng):
    """One stacked training batch (see ``stack_samples``); short sample sets
    are padded with freshly augmented copies so the batch size stays constant."""
    if len(samples) >= inner_batch:
        if len(samples) == inner_batch:
            return stack_samples(samples)
        idx = rng.choice(len(samples), size=inner_batch, replace=False)
        return stack_samples([samples[i] for i in sorted(idx)])
    out = list(samples)
    while len(out) < inner_batch:
        base = samples[int(rng.integers(0, len(samples)))]
        img2, lab2 = augment(base.y, base.x_struct.labels, int(rng.integers(0, 2**62)))
        out.append(TranslationSample(SegMap(lab2, base.x_struct.classes), base.x_ref, img2))
    return stack_samples(out)


# ---------------------------------------------------------------------------
# inner adaptation


def inner_adapt(gp_pair, train_samples, config: ExperimentConfig, mode: str,
                objective: Objective, seed: int, n_iters: int | None = None):
    """Adapt a copy of the general pair to one scene's training split.

    Returns (g_is, d_is, tape). The general parameters are never touched.
    FIRST_ORDER runs Adam steps eagerly and returns tape=None;
    FULL_UNROLLED runs SGD steps on a differentiable tape and returns it,
    with g_is/d_is holding tape-connected tensors.
    """
    if not train_samples:
        raise TensorError("inner_adapt: empty training split")
    if mode not in MetaMode.ALL:
        raise TensorError(f"inner_adapt: unknown mode {mode!r}")
    g_gp, d_gp = gp_pair
    steps = config.inner_iters if n_iters is None else n_iters

    if mode == MetaMode.FIRST_ORDER:
        g_is, d_is = g_gp.copy(), d_gp.copy()
        adam_g = _adam(g_is, config.alpha, config)
        adam_d = _adam(d_is, config.alpha, config)
        for it in range(steps):
            rng = stream(seed, "inner-batch", it)
            batch = _batch_for_iteration(train_samples, config.inner_batch, rng)
            with Tape():
                loss_d = objective.disc_loss_detached(g_is, d_is, batch)
                gd = backward(loss_d, d_is.tensors())
            adam_step(adam_d, d_is, d_is.grads_by_name(gd))
            with Tape():
                loss_g, _ = objective.pair_losses(g_is, d_is, batch, want_d=False)
                gg = backward(loss_g, g_is.tensors())
            adam_step(adam_g, g_is, g_is.grads_by_name(gg))
        return g_is, d_is, None

    tape = Tape(Tape.DIFFERENTIABLE)
    g_cur = dict(g_gp.items())
    d_cur = dict(d_gp.items())
    with tape:
        for it in range(steps):
            rng = stream(seed, "inner-batch", it)
            batch = _batch_for_iteration(train_samples, config.inner_batch, rng)
            # discriminator step first, computed against the current generator
            _, loss_d = objective.pair_losses(
                g_gp.with_tensors(g_cur), d_gp.with_tensors(d_cur), batch
            )
            gd = backward(loss_d, list(d_cur.values()))
            d_cur = sgd_step_differentiable(d_cur, {n: gd[p] for n, p in d_cur.items()}, config.alpha)
            # generator step against the updated discriminator
            loss_g, _ = objective.pair_losses(
                g_gp.with_tensors(g_cur), d_gp.with_tensors(d_cur), batch, want_d=False
            )
            gg = backward(loss_g, list(g_cur.values()))
            g_cur = sgd_step_differentiable(g_cur, {n: gg[p] for n, p in g_cur.items()}, config.alpha)
    return g_gp.with_tensors(g_cur), d_gp.with_tensors(d_cur), tape


# ---------------------------------------------------------------------------
# training phases


def pretrain(state: BiLevelState, scenes: list, iters: int | None = None) -> BiLevelState:
    """Conventional alternating GAN training on samples pooled across scenes."""
    if not scenes:
        raise TensorError("pretrain: empty scene pool")
    total = state.config.pretrain_iters if iters is None else iters
    cfg = state.config
    while state.pretrain_iteration < total:
        it = state.pretrain_iteration
        rng = stream(state.seed, "pretrain", it)
        samples = []
        for _ in range(cfg.inner_batch):
            scene = scenes[int(rng.integers(0, len(scenes)))]
            samples.append(render(scene, int(rng.integers(0, 2**62))))
        t0 = time.perf_counter()
        with Tape():
            loss_d = state.objective.disc_loss_detached(state.g_gp, state.d_gp, samples)
            gd = backward(loss_d, state.d_gp.tensors())
        # discriminator first, then the generator against the updated critic
        adam_step(state.adam_d_pre, state.d_gp, state.d_gp.grads_by_name(gd))
        with Tape():
            loss_g, _ = state.objective.pair_losses(state.g_gp, state.d_gp, samples, want_d=False)
            gg = backward(loss_g, state.g_gp.tensors())
        adam_step(state.adam_g_pre, state.g_gp, state.g_gp.grads_by_name(gg))
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

    FIRST_ORDER takes the test-loss gradients at the adapted parameters;
    FULL_UNROLLED backpropagates them through the recorded inner steps.
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
        if mode == MetaMode.FIRST_ORDER:
            with Tape():
                loss_g, loss_d = state.objective.pair_losses(g_is, d_is, ep.test)
                gg = backward(loss_g, g_is.tensors())
                gd = backward(loss_d, d_is.tensors())
            g_by_name = g_is.grads_by_name(gg)
            d_by_name = d_is.grads_by_name(gd)
        else:
            with tape:
                loss_g, loss_d = state.objective.pair_losses(g_is, d_is, ep.test)
                gg = backward(loss_g, state.g_gp.tensors())
                gd = backward(loss_d, state.d_gp.tensors())
            g_by_name = state.g_gp.grads_by_name(gg)
            d_by_name = state.d_gp.grads_by_name(gd)
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
    adam_step(state.adam_g, state.g_gp, avg_g)
    adam_step(state.adam_d, state.d_gp, avg_d)
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
              iters: int | None = None, with_reference: bool = True,
              allow_flip: bool = True) -> BiLevelState:
    """Alternating learning over episodes sampled from the training scenes."""
    if not scenes:
        raise TensorError("metatrain: empty scene pool")
    total = state.config.metatrain_iters if iters is None else iters
    cfg = state.config
    while state.meta_iteration < total:
        it = state.meta_iteration
        rng = stream(state.seed, "metatrain-episodes", it)
        picks = rng.choice(len(scenes), size=min(cfg.meta_batch, len(scenes)), replace=False)
        episodes = []
        for idx in sorted(int(i) for i in picks):
            scene = scenes[idx]
            ep_seed = substream_seed(state.seed, "metatrain-episode", it, scene.scene_id)
            episodes.append(
                sample_episode(scene, cfg.n_shot, cfg.n_test, ep_seed, with_reference, allow_flip)
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
               k: int, use_aux: bool, seed: int = 0,
               finetune_mode: str = MetaMode.FIRST_ORDER):
    """Adapt to an unseen scene and generate its test images.

    With use_aux, the top-K most similar training tasks first fine-tune a
    copy of the general pair; the caller's state is bitwise unchanged
    either way. Returns (g_is, d_is, images).
    """
    if not episode.train:
        raise TensorError("test_adapt: unseen episode has no training split")
    if use_aux:
        if k > len(train_tasks):
            raise TensorError(f"test_adapt: k={k} exceeds {len(train_tasks)} train tasks")
        aux = retrieve_topk(episode.train[0].x_struct, train_tasks, k)
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
    images = list(state.objective.generate(g_is, episode.test))
    return g_is, d_is, images


test_adapt.__test__ = False  # not a pytest case despite the spec-mandated name
