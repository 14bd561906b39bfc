"""Bilevel training: inner adaptation, meta updates, unrolled meta-gradients
against end-to-end finite differences, isolation contracts."""

import collections
import hashlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from biltrans import bilevel, tensor as T
from biltrans.bilevel import (
    BiLevelState,
    MetaMode,
    Objective,
    alternating_step,
    inner_adapt,
    meta_gradients,
    meta_update,
    metatrain,
    pretrain,
    test_adapt,
)
from biltrans.config import default_config
from biltrans.nets import ParameterSet, init_params
from biltrans.optim import BETA1, BETA2, EPS, AdamState
from biltrans.tasks import TaskEpisode, render, sample_episode, stack_samples, synth_scene
from biltrans.tensor import TensorError

from test_tensor import finite_diff_gradient

SMALL_NET = default_config(image_size=16, classes=3, mode="pg2", base_width=4, depth=1)


def small_objective(phi_seed=3):
    return Objective(default_config(phi_seed=phi_seed))


def small_state(seed=0, **cfg_kwargs):
    cfg = default_config(**{"inner_batch": 3, "meta_batch": 2, "n_test": 2,
                            "train_inner_iters": 1, "alpha": 1e-3, "beta": 1e-3,
                            **cfg_kwargs})
    g, d = init_params(SMALL_NET, seed)
    return BiLevelState(config=cfg, objective=small_objective(), g_gp=g, d_gp=d, seed=seed)


def small_scene(seed, scene_id=0):
    return synth_scene(seed, scene_id=scene_id, height=16, width=16, classes=3)


def small_episode(seed, scene_id=0, n_shot=5, n_test=2):
    return sample_episode(small_scene(seed, scene_id), n_shot, n_test, seed)


# ---------------------------------------------------------------------------
# tiny hand-built nets (< 200 parameters) for exact meta-gradient oracles


def tiny_g_forward(params, xs, xr):
    x = T.concat_channels(xs, xr) if xr is not None else xs
    h = T.relu(T.conv2d(x, params["g1.w"], pad=1))
    return T.tanh(T.conv2d(h, params["g2.w"]))


def tiny_d_forward(params, xs, img):
    x = T.concat_channels(xs, img)
    h = T.leaky_relu(T.conv2d(x, params["d1.w"], stride=2, pad=1))
    return T.conv2d(h, params["d2.w"])


def tiny_pair(seed):
    rng = np.random.default_rng(seed)
    g = ParameterSet("pg2")
    g.add("g1.w", rng.normal(0, 0.3, (2, 5, 3, 3)))  # structure(2) + reference(3) in
    g.add("g2.w", rng.normal(0, 0.3, (3, 2, 1, 1)))
    d = ParameterSet("pg2")
    d.add("d1.w", rng.normal(0, 0.3, (2, 5, 3, 3)))
    d.add("d2.w", rng.normal(0, 0.3, (1, 2, 1, 1)))
    assert sum(p.data.size for ps in (g, d) for p in ps.tensors()) <= 200
    return g, d


def tiny_objective():
    return Objective(
        default_config(phi_seed=9, phi_widths="4,4", lambda_adv=1.0, lambda_perc=1.0),
        g_forward=tiny_g_forward,
        d_forward=tiny_d_forward,
    )


def tiny_episode(seed):
    scene = synth_scene(seed, scene_id=0, height=8, width=8, classes=2)
    train = [render(scene, 2 * i) for i in range(2)]
    test = [render(scene, 2 * i + 1) for i in range(2)]
    return TaskEpisode(scene=scene, train=train, test=test)


def tiny_state(seed, **cfg_kwargs):
    cfg = default_config(**{"inner_batch": 2, "meta_batch": 1, "n_test": 2,
                            "train_inner_iters": 1, "alpha": 0.05, "beta": 0.05,
                            **cfg_kwargs})
    g, d = tiny_pair(seed)
    return BiLevelState(config=cfg, objective=tiny_objective(), g_gp=g, d_gp=d, seed=seed)


def in_mode(state, mode):
    """``state``, its config's ``meta_mode`` set to ``mode``."""
    state.config = replace(state.config, meta_mode=mode)
    return state


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)]))


# ---------------------------------------------------------------------------
# inner adaptation


def test_inner_adapt_zero_steps_is_identity():
    state = small_state(1)
    ep = small_episode(10)
    g_is, d_is, _ = inner_adapt((state.g_gp, state.d_gp), ep.train, state.config,
                                MetaMode.FIRST_ORDER, state.objective, seed=0, n_iters=0)
    assert g_is.digest() == state.g_gp.digest()
    assert d_is.digest() == state.d_gp.digest()
    assert g_is["stem.w"] is not state.g_gp["stem.w"]  # a copy, not an alias


def test_inner_adapt_rejects_empty_split():
    state = small_state(2)
    with pytest.raises(TensorError, match="empty"):
        inner_adapt((state.g_gp, state.d_gp), [], state.config,
                    MetaMode.FIRST_ORDER, state.objective, seed=0, n_iters=1)


def test_inner_adapt_leaves_general_params_untouched():
    state = small_state(3)
    before_g, before_d = state.g_gp.digest(), state.d_gp.digest()
    ep = small_episode(11)
    inner_adapt((state.g_gp, state.d_gp), ep.train, state.config,
                MetaMode.FIRST_ORDER, state.objective, seed=1, n_iters=4)
    assert state.g_gp.digest() == before_g
    assert state.d_gp.digest() == before_d
    # unrolled path as well
    inner_adapt((state.g_gp, state.d_gp), ep.train, state.config,
                MetaMode.FULL_UNROLLED, state.objective, seed=1, n_iters=1)
    assert state.g_gp.digest() == before_g
    assert state.d_gp.digest() == before_d


def test_inner_adapt_descends_episode_train_l1():
    # adaptation starts from a general-purpose initialization; from there,
    # episode-train L1 must drop within 20 iterations in >= 95% of episodes.
    # The instance-specific model is initialized by a general model "that
    # learns from all the scenes", so the general pair is pretrained to its
    # plateau. Pooled L1 on the held-out renders below reads 0.250 at
    # iteration 100, 0.226 at 200 and 0.219 at 400 (a 9.5% fall, then 3.2%).
    # At 100 iterations the discriminator is still at chance (loss_d ~ 2 ln 2):
    # inner L1 falls for about ten steps, then climbs back past its start once
    # p_fake overtakes p_real, and only 30 of the 40 episodes end below it.
    pretrain_iters = 400
    state = small_state(100)
    scenes = [small_scene(150 + i, i) for i in range(6)]
    held_out = [render(scene, 20_000 + j) for scene in scenes for j in range(8)]
    obj = state.objective

    def mean_l1(g, samples):
        from biltrans.losses import l1_loss

        vals = []
        for s in samples:
            xs, xr, y, _ = stack_samples([s])
            vals.append(l1_loss(obj.g_forward(g, xs, xr), y).item())
        return np.mean(vals)

    pretrain(state, scenes, iters=pretrain_iters // 2)
    l1_half = mean_l1(state.g_gp, held_out)
    pretrain(state, scenes, iters=pretrain_iters)
    l1_full = mean_l1(state.g_gp, held_out)
    assert l1_full > 0.95 * l1_half, (
        f"general pair has not reached its plateau: pooled L1 {l1_half:.4f} at iteration "
        f"{pretrain_iters // 2}, {l1_full:.4f} at {pretrain_iters}"
    )

    wins = trials = 0
    lost = []
    for trial in range(40):
        ep = small_episode(200 + trial, scene_id=trial)
        before = mean_l1(state.g_gp, ep.train)
        g_is, _, _ = inner_adapt((state.g_gp, state.d_gp), ep.train, state.config,
                                 MetaMode.FIRST_ORDER, state.objective, seed=trial, n_iters=20)
        after = mean_l1(g_is, ep.train)
        trials += 1
        wins += after < before
        if not after < before:
            lost.append(f"trial {trial}: {before:.4f} -> {after:.4f}")
    assert wins / trials >= 0.95, f"{wins}/{trials} wins; losing trials: {'; '.join(lost)}"


def test_one_shot_batches_filled_with_augmented_copies():
    state = small_state(4, n_shot=1)
    ep = small_episode(12, n_shot=1)
    assert len(ep.train) == 1
    # adaptation must run with inner_batch=3 batches built from one sample
    g_is, d_is, _ = inner_adapt((state.g_gp, state.d_gp), ep.train, state.config,
                                MetaMode.FIRST_ORDER, state.objective, seed=2, n_iters=2)
    assert g_is.digest() != state.g_gp.digest()


@pytest.mark.parametrize("k", [1, 2])
def test_alternating_step_tape_changes_connectivity_not_values(k):
    # k SGD steps run eagerly and on a DIFFERENTIABLE tape; each taped update
    # is cut from the tape, so every step differentiates the same function
    state = tiny_state(21)
    ep = tiny_episode(501)
    obj, rate = state.objective, state.config.alpha
    taped = bilevel._sgd_rule(rate)

    def run(tape, rule):
        g, d = state.g_gp, state.d_gp
        for _ in range(k):
            g, d, _, _ = alternating_step(obj, g, d, obj.batch(ep.train), rule, rule, tape)
        return g, d

    def eager(params, grads):
        return params.with_tensors({n: T.tensor(p.data - rate * grads[p].data)
                                    for n, p in params.items()})

    def taped_then_cut(params, grads):
        assert all(grads[p].node[0] is tape for p in params.tensors())  # gradients are tape nodes
        return params.with_tensors({n: T.tensor(t.data)
                                    for n, t in taped(params, grads).items()})

    tape = T.Tape(T.Tape.DIFFERENTIABLE)
    g_tape, d_tape = run(tape, taped_then_cut)
    g_eager, d_eager = run(None, eager)
    assert g_tape.digest() == g_eager.digest()
    assert d_tape.digest() == d_eager.digest()


def _count_generator_calls(obj):
    calls = []
    forward = obj.g_forward
    obj.g_forward = lambda g, xs, xr: calls.append(1) or forward(g, xs, xr)
    return calls


@pytest.mark.parametrize("mode", MetaMode.ALL)
def test_one_generator_forward_per_step_and_per_episode(mode):
    inner_steps = 2
    state = tiny_state(22, train_inner_iters=inner_steps)
    obj, rate = state.objective, state.config.alpha
    calls = _count_generator_calls(obj)
    ep = tiny_episode(502)
    g, d = state.g_gp.copy(), state.d_gp.copy()
    if mode == MetaMode.FULL_UNROLLED:
        tape, step_g, step_d = T.Tape(T.Tape.DIFFERENTIABLE), bilevel._sgd_rule(rate), bilevel._sgd_rule(rate)
    else:
        tape = None
        step_g = bilevel._adam_rule(AdamState(g), rate)
        step_d = bilevel._adam_rule(AdamState(d), rate)
    alternating_step(obj, g, d, obj.batch(ep.train), step_g, step_d, tape)
    assert len(calls) == 1
    calls.clear()
    episodes = [ep, tiny_episode(503)]
    meta_gradients(in_mode(state, mode), episodes)
    assert len(calls) == len(episodes) * (inner_steps + 1)


def test_alternating_step_equals_two_forward_step_bitwise():
    # the reference generates twice: a detached forward for the discriminator
    # step, then a fresh taped forward for the generator step
    state = small_state(42)
    obj, cfg = state.objective, state.config
    batch = obj.batch(small_episode(43).train)

    def two_forward_step(g, d, step_g, step_d):
        with T.Tape():
            with T.no_tape():
                fake = T.tensor(obj.generate(g, batch).data)
            loss_d = obj.disc_loss_detached(d, batch, fake)
            d = step_d(d, T.backward(loss_d, d.tensors()))
        with T.Tape():
            loss_g = obj.pair_losses(d, batch, obj.generate(g, batch))
            g = step_g(g, T.backward(loss_g, g.tensors()))
        return g, d, loss_g, loss_d

    def run(step):
        g, d = state.g_gp.copy(), state.d_gp.copy()
        step_g = bilevel._adam_rule(AdamState(g), cfg.alpha)
        step_d = bilevel._adam_rule(AdamState(d), cfg.alpha)
        losses = []
        for _ in range(3):
            g, d, loss_g, loss_d = step(g, d, step_g, step_d)
            losses.append((loss_g.item(), loss_d.item()))
        return g.digest(), d.digest(), losses

    one_forward = run(lambda g, d, step_g, step_d: alternating_step(obj, g, d, batch, step_g, step_d))
    assert one_forward == run(two_forward_step)


@pytest.mark.parametrize("mode", [T.Tape.VALUES, T.Tape.DIFFERENTIABLE])
def test_backward_to_one_network_equals_its_part_of_both(mode):
    g, d = init_params(SMALL_NET, 25)
    obj = small_objective()
    batch = obj.batch(small_episode(3502).train)

    def grads(wrt):
        with T.Tape(mode) as tape:
            loss = obj.pair_losses(d, batch, obj.generate(g, batch))
            n_forward = len(tape.ops)
            out = T.backward(loss, wrt)
        return g.grads_by_name(out), len(tape.ops) - n_forward

    part, added_part = grads(g.tensors())
    full, added_full = grads(g.tensors() + d.tensors())
    for n in part:
        np.testing.assert_array_equal(part[n], full[n], err_msg=n)
    if mode == T.Tape.DIFFERENTIABLE:
        assert 0 < added_part < added_full
    else:
        assert added_part == added_full == 0


def test_generator_step_backward_skips_discriminator_kernels():
    # the discriminator update is cut from the tape, so the generator loss
    # depends on the discriminator's kernels only as constants
    state = small_state(40)
    tape = T.Tape(T.Tape.DIFFERENTIABLE)
    seen = {}

    def step_d(d, grads):
        seen["after_d"] = len(tape.ops)
        return d.with_tensors({n: T.tensor(p.data - 1e-3 * grads[p].data)
                               for n, p in d.items()})

    def step_g(g, grads):
        seen["dk"] = [op.name for op in tape.ops[seen["after_d"]:]].count("conv2d_dk")
        return g

    alternating_step(state.objective, state.g_gp, state.d_gp, state.objective.batch(small_episode(41).train),
                     step_g, step_d, tape)
    assert seen["dk"] == sum(n.endswith(".w") for n in state.g_gp.keys())


# one network layer is one conv2d op (reflect padding and bias included), so
# a step's op count only grows if a layer is split again: 363 ops per eager
# step and 666 on an unrolled episode's tape before padding and bias were fused
DESK_NET = default_config(image_size=16, classes=4, base_width=8, depth=2, inner_batch=5,
                          meta_batch=1, n_test=3, phi_widths="8,16", train_inner_iters=1)


def _desk_state_and_episode():
    g, d = init_params(DESK_NET, 0)
    state = BiLevelState(config=DESK_NET, objective=Objective(DESK_NET), g_gp=g, d_gp=d, seed=0)
    scene = synth_scene(0, scene_id=0, height=16, width=16, classes=4)
    return state, sample_episode(scene, 5, 3, 0)


def test_eager_desk_step_op_count(monkeypatch):
    state, ep = _desk_state_and_episode()
    count = [0]
    apply = T._apply

    def counting(name, inputs, attrs=None):
        count[0] += 1
        return apply(name, inputs, attrs)

    monkeypatch.setattr(T, "_apply", counting)
    step_g = bilevel._adam_rule(AdamState(state.g_gp), DESK_NET.alpha)
    step_d = bilevel._adam_rule(AdamState(state.d_gp), DESK_NET.alpha)
    alternating_step(state.objective, state.g_gp, state.d_gp, state.objective.batch(ep.train), step_g, step_d)
    assert 0 < count[0] <= 297


def test_test_time_loop_prepares_its_fixed_batch_once(monkeypatch):
    # a 20-step test-time loop over a 5-shot split (n_shot = inner_batch):
    # the split is stacked, and phi run on its targets, once for all steps.
    # Those target features are 18 of an eager step's ops.
    state, ep = _desk_state_and_episode()
    seen = collections.Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return counted

    stack = bilevel.stack_samples

    def stacking(samples):
        seen["stacked"] += 1
        return stack(samples)

    monkeypatch.setattr(T, "_apply", counting("ops", T._apply))
    monkeypatch.setattr(bilevel.FeatureExtractor, "features", counting("features", bilevel.FeatureExtractor.features))
    monkeypatch.setattr(bilevel, "stack_samples", stacking)
    g_is, d_is, _ = inner_adapt((state.g_gp, state.d_gp), ep.train, DESK_NET, MetaMode.FIRST_ORDER,
                                state.objective, seed=0, n_iters=20)
    assert seen["features"] == 21 and seen["stacked"] == 1
    assert 0 < seen["ops"] <= 20 * 297 - 19 * 18
    monkeypatch.undo()

    # the reference restacks the split and recomputes its features every step
    g, d = state.g_gp.copy(), state.d_gp.copy()
    step_g = bilevel._adam_rule(AdamState(g), DESK_NET.alpha)
    step_d = bilevel._adam_rule(AdamState(d), DESK_NET.alpha)
    for _ in range(20):
        g, d, _, _ = alternating_step(state.objective, g, d, state.objective.batch(ep.train), step_g, step_d)
    for got, want in ((g_is, g), (d_is, d)):
        assert all(got[n].data.tobytes() == want[n].data.tobytes() for n in want.keys())


def test_test_adapt_generates_its_images_without_target_features(monkeypatch):
    # without auxiliary tasks, test_adapt runs phi only in its 20-step loop:
    # once on the fixed split's targets, then once per step on the generated
    # batch. The test split is stacked once, after the loop, and generating
    # from it computes no feature.
    state, ep = _desk_state_and_episode()
    assert DESK_NET.inner_iters == 20
    features, stacked = [0], []
    real_features, real_stack = bilevel.FeatureExtractor.features, bilevel.stack_samples

    def counting(self, img):
        features[0] += 1
        return real_features(self, img)

    def stacking(samples):
        stacked.append((samples, features[0]))
        return real_stack(samples)

    monkeypatch.setattr(bilevel.FeatureExtractor, "features", counting)
    monkeypatch.setattr(bilevel, "stack_samples", stacking)
    _, _, images = test_adapt(state, ep, [])
    assert features[0] == 21 and len(images) == len(ep.test)
    assert [at for samples, at in stacked if samples is ep.test] == [21]


def test_eager_desk_step_patch_bytes(monkeypatch):
    # the patch and row matrices that the conv kernels gather in one eager
    # desk step: 23.6 MiB when every 3x3 conv copied its input nine times.
    # Each lowering gathers one array; its patch matrices are views of it.
    state, ep = _desk_state_and_episode()
    nbytes = [0]
    lowered = T._lowered

    def counting(*args):
        out = lowered(*args)
        nbytes[0] += out[0][0][0].base.nbytes
        return out

    monkeypatch.setattr(T, "_lowered", counting)
    step_g = bilevel._adam_rule(AdamState(state.g_gp), DESK_NET.alpha)
    step_d = bilevel._adam_rule(AdamState(state.d_gp), DESK_NET.alpha)
    alternating_step(state.objective, state.g_gp, state.d_gp, state.objective.batch(ep.train), step_g, step_d)
    assert 0 < nbytes[0] <= 10 * 2**20


def _desk_steps_then_meta_gradients(modes, steps=3):
    # eager Adam steps on the 5-shot train split, then meta-gradients that
    # adapt a fresh Adam pair and score the 3-image test split
    state, ep = _desk_state_and_episode()
    step_g = bilevel._adam_rule(AdamState(state.g_gp), DESK_NET.alpha)
    step_d = bilevel._adam_rule(AdamState(state.d_gp), DESK_NET.alpha)
    for _ in range(steps):
        alternating_step(state.objective, state.g_gp, state.d_gp, state.objective.batch(ep.train), step_g, step_d)
    return state, [meta_gradients(in_mode(state, mode), [ep]) for mode in modes]


def _grads_digest(grads):
    h = hashlib.sha256()
    for name in sorted(grads):
        h.update(name.encode())
        h.update(grads[name].tobytes())
    return h.hexdigest()


def _per_batch_scatter_index(planes, h, w, kh, kw, stride, pad):
    # the whole flat index of every call, as one index per (batch, channels)
    # held it
    idx, _, _ = T._patch_index(h, w, kh, kw, stride, pad)
    return (np.arange(planes)[:, None] * (h * w) + idx).ravel()


def _adam_step_by_plain_expressions(state, params, grads, rate):
    # adam_step's update as three plain expressions, a temporary per operation
    names = list(state.m)
    g = np.concatenate([np.ravel(grads[name]) for name in names], dtype=np.float64)
    state.t += 1
    b1, b2 = BETA1, BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    m, v = state.m_flat, state.v_flat
    m[:] = b1 * m + (1.0 - b1) * g
    v[:] = b2 * v + (1.0 - b2) * g * g
    update = rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    lo = 0
    for name in names:
        p = params[name].data
        p -= update[lo : lo + p.size].reshape(p.shape)
        lo += p.size
    return state, params


@pytest.mark.parametrize("mode", [MetaMode.FIRST_ORDER, MetaMode.FULL_UNROLLED])
def test_desk_steps_and_meta_gradients_match_reference(monkeypatch, mode):
    # desk steps at batch 5, then meta-gradients at batch 3 that read a
    # prefix of batch 5's col2im index, keep every bit of the per-call index
    # and of Adam by plain expressions
    def run():
        state, [(g_grads, d_grads, loss_g, loss_d)] = _desk_steps_then_meta_gradients([mode])
        return (state.g_gp.digest(), state.d_gp.digest(), _grads_digest(g_grads),
                _grads_digest(d_grads), loss_g, loss_d)

    monkeypatch.setattr(T, "_scatter_planes", {})
    got = run()
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(T, "_scatter_index", counted("scatter", _per_batch_scatter_index))
    monkeypatch.setattr(bilevel, "adam_step", counted("adam", _adam_step_by_plain_expressions))
    assert run() == got
    assert calls["scatter"] > 0 and calls["adam"] > 0


def test_desk_col2im_index_bytes(monkeypatch):
    # the col2im index is held once per plane shape, for the most planes
    # (batch x channels) seen: 1,566,720 bytes in 5 arrays after these calls,
    # where one index per (batch, channels) held 2,949,120 in 16
    monkeypatch.setattr(T, "_scatter_planes", {})
    calls = set()
    scatter_index = T._scatter_index

    def recording(planes, *plane):
        calls.add((planes, *plane))
        return scatter_index(planes, *plane)

    monkeypatch.setattr(T, "_scatter_index", recording)
    _desk_steps_then_meta_gradients(MetaMode.ALL)
    held = sum(index.nbytes for index in T._scatter_planes.values())
    per_batch = sum(planes * T._patch_index(*plane)[0].nbytes for planes, *plane in calls)
    assert 0 < held <= 1.5 * 2**20 < per_batch


def test_unrolled_desk_episode_tape_op_count(monkeypatch):
    # the episode tape is longest when the outer backward passes read it
    state, ep = _desk_state_and_episode()
    sizes = []
    run_backward = bilevel.backward

    def sizing(loss, wrt, tape=None):
        sizes.append(len(loss.node[0].ops))
        return run_backward(loss, wrt, tape)

    monkeypatch.setattr(bilevel, "backward", sizing)
    meta_gradients(in_mode(state, MetaMode.FULL_UNROLLED), [ep])
    assert 0 < max(sizes) <= 560


# ---------------------------------------------------------------------------
# meta update contracts


def _episodes_for(state, base_seed):
    return [small_episode(base_seed + i, scene_id=i) for i in range(state.config.meta_batch)]


def test_meta_update_single_adam_step_per_call():
    state = small_state(5)
    eps = _episodes_for(state, 300)
    t_g, t_d = state.adam_g.t, state.adam_d.t
    meta_update(state, eps)
    assert state.adam_g.t == t_g + 1
    assert state.adam_d.t == t_d + 1
    meta_update(state, eps)
    assert state.adam_g.t == t_g + 2


def test_meta_update_rejects_missing_split():
    state = small_state(7)
    eps = _episodes_for(state, 320)
    eps[0] = TaskEpisode(scene=eps[0].scene, train=[], test=eps[0].test)
    with pytest.raises(TensorError, match="split"):
        meta_update(state, eps)


def test_modes_collapse_at_zero_inner_steps():
    for seed in (8, 9):
        state = tiny_state(seed, train_inner_iters=0)
        eps = [tiny_episode(400 + seed)]
        g_first, d_first, _, _ = meta_gradients(in_mode(state, MetaMode.FIRST_ORDER), eps)
        g_unrolled, d_unrolled, _, _ = meta_gradients(in_mode(state, MetaMode.FULL_UNROLLED), eps)
        for n in g_first:
            assert np.max(np.abs(g_first[n] - g_unrolled[n])) < 1e-10
        for n in d_first:
            assert np.max(np.abs(d_first[n] - d_unrolled[n])) < 1e-10


@pytest.mark.parametrize("inner_steps", [1, 2])
def test_unrolled_meta_gradient_matches_end_to_end_finite_differences(inner_steps):
    state = tiny_state(20, train_inner_iters=inner_steps)
    ep = tiny_episode(500)
    obj = state.objective
    cfg = state.config

    def pipeline(g_values, d_values, want="g"):
        g = ParameterSet("pg2")
        d = ParameterSet("pg2")
        for n, v in g_values.items():
            g.add(n, v)
        for n, v in d_values.items():
            d.add(n, v)
        g_is, d_is, tape = inner_adapt((g, d), ep.train, cfg, MetaMode.FULL_UNROLLED,
                                       obj, seed=77, n_iters=inner_steps)
        batch = obj.batch(ep.test)
        with tape:
            fake = obj.generate(g_is, batch)
            loss_g, loss_d = obj.pair_losses(d_is, batch, fake), obj.disc_loss_detached(d_is, batch, fake)
        return loss_g.item() if want == "g" else loss_d.item()

    g0 = {n: p.data.copy() for n, p in state.g_gp.items()}
    d0 = {n: p.data.copy() for n, p in state.d_gp.items()}

    state.meta_iteration = 0
    state.seed = 0  # meta_gradients derives the same inner seed each call
    # analytic, through the recorded tape
    g_is, d_is, tape = inner_adapt((state.g_gp, state.d_gp), ep.train, cfg,
                                   MetaMode.FULL_UNROLLED, obj, seed=77, n_iters=inner_steps)
    from biltrans.tensor import backward

    batch = obj.batch(ep.test)
    with tape:
        fake = obj.generate(g_is, batch)
        loss_g, loss_d = obj.pair_losses(d_is, batch, fake), obj.disc_loss_detached(d_is, batch, fake)
        gg = state.g_gp.grads_by_name(backward(loss_g, state.g_gp.tensors()))
        gd = state.d_gp.grads_by_name(backward(loss_d, state.d_gp.tensors()))

    fd_g = finite_diff_gradient(lambda th: pipeline(th, d0, "g"), g0, eps=1e-5)
    fd_d = finite_diff_gradient(lambda th: pipeline(g0, th, "d"), d0, eps=1e-5)

    worst_g = max(rel_err(gg[n], fd_g[n]) for n in fd_g)
    worst_d = max(rel_err(gd[n], fd_d[n]) for n in fd_d)
    assert worst_g < 1e-4, f"generator meta-gradient rel err {worst_g:.3e}"
    assert worst_d < 1e-4, f"discriminator meta-gradient rel err {worst_d:.3e}"


def _spy_inner_adapt(monkeypatch, on_start=lambda: None, on_return=lambda tape: None):
    real = bilevel.inner_adapt

    def spy(*args, **kwargs):
        on_start()
        g_is, d_is, tape = real(*args, **kwargs)
        on_return(tape)
        return g_is, d_is, tape

    monkeypatch.setattr(bilevel, "inner_adapt", spy)


def test_unrolled_outer_passes_record_nothing_and_match_recording_reference(monkeypatch):
    state = tiny_state(23, train_inner_iters=2)
    episodes = [tiny_episode(504), tiny_episode(505)]
    obj = state.objective

    # reference: both outer passes inside ``with tape:``, recorded on it
    sum_g = {n: np.zeros_like(p.data) for n, p in state.g_gp.items()}
    sum_d = {n: np.zeros_like(p.data) for n, p in state.d_gp.items()}
    for ep in episodes:
        seed = bilevel.substream_seed(state.seed, "meta-inner", state.meta_iteration, ep.scene_id)
        g_is, d_is, tape = inner_adapt((state.g_gp, state.d_gp), ep.train, state.config,
                                       MetaMode.FULL_UNROLLED, obj, seed, n_iters=2)
        with tape:
            batch = obj.batch(ep.test)
            fake = obj.generate(g_is, batch)
            loss_g, loss_d = obj.pair_losses(d_is, batch, fake), obj.disc_loss_detached(d_is, batch, fake)
            n_forward = len(tape.ops)
            gg = state.g_gp.grads_by_name(T.backward(loss_g, state.g_gp.tensors()))
            gd = state.d_gp.grads_by_name(T.backward(loss_d, state.d_gp.tensors()))
        assert len(tape.ops) > n_forward  # the reference does record its outer passes
        for n in sum_g:
            sum_g[n] += gg[n]
        for n in sum_d:
            sum_d[n] += gd[n]

    tapes = []
    _spy_inner_adapt(monkeypatch, on_return=tapes.append)
    outer = []  # (tape ops when an outer pass starts, when it ends)
    real_backward = bilevel.backward

    def spy_backward(loss, wrt):
        if T.active_tape() is not None:  # an inner step, recorded on its tape
            return real_backward(loss, wrt)
        n = len(loss.node[0].ops)
        out = real_backward(loss, wrt)
        outer.append((n, len(loss.node[0].ops)))
        return out

    monkeypatch.setattr(bilevel, "backward", spy_backward)
    g_grads, d_grads, _, _ = meta_gradients(in_mode(state, MetaMode.FULL_UNROLLED), episodes)
    assert len(tapes) == len(episodes) and len(outer) == 2 * len(episodes)
    for tape, (before_g, after_g), (before_d, after_d) in zip(tapes, outer[::2], outer[1::2]):
        assert before_g == after_g == before_d == after_d == len(tape.ops)
    k = float(len(episodes))
    for n in sum_g:
        np.testing.assert_array_equal(g_grads[n], sum_g[n] / k, err_msg=n)
    for n in sum_d:
        np.testing.assert_array_equal(d_grads[n], sum_d[n] / k, err_msg=n)


@pytest.mark.parametrize("mode", MetaMode.ALL)
def test_each_episode_tape_is_freed_before_the_next_adapts(mode, monkeypatch):
    state = tiny_state(24, train_inner_iters=1)
    episodes = [tiny_episode(506), tiny_episode(507), tiny_episode(508)]
    obj = state.objective
    seen, alive_at_start = [], []

    # every tape an episode's losses are recorded on, inner steps included
    pair_losses = obj.pair_losses
    obj.pair_losses = lambda *args: seen.append(weakref.ref(T.active_tape())) or pair_losses(*args)

    _spy_inner_adapt(monkeypatch, on_start=lambda: alive_at_start.append(
        sum(ref() is not None for ref in seen)))
    meta_gradients(in_mode(state, mode), episodes)
    assert len(alive_at_start) == len(episodes) and len(seen) >= 2 * len(episodes)
    assert alive_at_start == [0] * len(episodes)


@pytest.mark.parametrize("mode", MetaMode.ALL)
def test_meta_gradients_traced_peak_does_not_grow_with_the_episode_count(mode):
    # one episode's working set is alive at a time, so at desk shapes three
    # episodes peak where one does; keeping episode k's adapted pair, batch
    # and gradients alive while episode k + 1 adapts grew the peak by about
    # 0.8 MB first-order and 0.4 MB full-unrolled
    state, _ = _desk_state_and_episode()
    in_mode(state, mode)
    episodes = [sample_episode(synth_scene(i, scene_id=i, height=16, width=16, classes=4), 5, 3, i)
                for i in range(3)]
    meta_gradients(state, episodes[:1])  # fills the per-shape index caches
    peaks = []
    for k in (1, 3):
        tracemalloc.start()
        try:
            meta_gradients(state, episodes[:k])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 0.1 * 2**20, peaks


# ---------------------------------------------------------------------------
# pretrain / metatrain


def test_pretrain_zero_iterations_noop():
    state = small_state(10)
    before = (state.g_gp.digest(), state.d_gp.digest())
    pretrain(state, [small_scene(600)], iters=0)
    assert (state.g_gp.digest(), state.d_gp.digest()) == before


def test_pretrain_rejects_empty_pool():
    state = small_state(11)
    with pytest.raises(TensorError, match="empty"):
        pretrain(state, [])


def test_pretrain_deterministic_per_seed():
    def run():
        state = small_state(12)
        pretrain(state, [small_scene(601, i) for i in range(3)], iters=5)
        return state.g_gp.digest(), state.d_gp.digest()

    assert run() == run()


@pytest.mark.slow
def test_pretrain_loss_trends_down():
    # moving-average (window 100) training loss decreases from start to end
    # of pretraining in at least 4 of 5 seeds
    net = default_config(image_size=16, classes=3, mode="pg2", base_width=8, depth=2)
    drops = 0
    for seed in range(5):
        cfg = default_config(inner_batch=5, meta_batch=2, alpha=3e-4, beta=3e-4)
        g, d = init_params(net, seed)
        state = BiLevelState(config=cfg, objective=small_objective(), g_gp=g, d_gp=d, seed=seed)
        losses = []
        state.log_fn = lambda rec: losses.append(rec["loss_g_total"]) if rec["phase"] == "pretrain" else None
        scenes = [synth_scene(700 + seed * 10 + i, scene_id=i, height=16, width=16, classes=3)
                  for i in range(5)]
        pretrain(state, scenes, iters=300)
        drops += np.mean(losses[-100:]) < np.mean(losses[:100])
    assert drops >= 4


def test_metatrain_interleaving_and_determinism():
    def run():
        state = small_state(13)
        scenes = [small_scene(800 + i, i) for i in range(4)]
        hashes = []
        metatrain(state, scenes, iters=3)
        hashes.append((state.g_gp.digest(), state.d_gp.digest()))
        return hashes[-1]

    assert run() == run()


def test_metatrain_changes_params_only_at_update_boundaries():
    state = small_state(14)
    scenes = [small_scene(900 + i, i) for i in range(4)]
    seen = []
    orig_emit = state.emit

    def spy(rec):
        if rec["phase"] == "meta":
            seen.append((rec["iteration"], state.g_gp.digest()))

    state.log_fn = spy
    metatrain(state, scenes, iters=3)
    # hash recorded right after each update differs across updates
    assert len({h for _, h in seen}) == len(seen) == 3


# ---------------------------------------------------------------------------
# test-time adaptation


def _trained_tiny_world(seed=15):
    state = small_state(seed, k_aux=2, gp_finetune_iters=2)
    train_tasks = [small_episode(1000 + i, scene_id=i) for i in range(4)]
    unseen = small_episode(2000, scene_id=99)
    return state, train_tasks, unseen


def test_test_adapt_without_aux_skips_finetune():
    state, train_tasks, unseen = _trained_tiny_world()
    g1, _, imgs1 = test_adapt(state, unseen, [])
    # no-aux path equals adapting straight from the general parameters
    g2, _, _ = inner_adapt((state.g_gp, state.d_gp), unseen.train, state.config,
                           MetaMode.FIRST_ORDER, state.objective,
                           bilevel.substream_seed(state.seed, "test-adapt", unseen.scene_id),
                           n_iters=state.config.inner_iters)
    assert g1.digest() == g2.digest()
    assert len(imgs1) == len(unseen.test)


def test_test_adapt_leaves_state_bitwise_unchanged():
    state, train_tasks, unseen = _trained_tiny_world(16)
    before = (state.g_gp.digest(), state.d_gp.digest(), state.adam_g.t, state.adam_d.t)
    test_adapt(state, unseen, train_tasks)
    after = (state.g_gp.digest(), state.d_gp.digest(), state.adam_g.t, state.adam_d.t)
    assert before == after


def test_test_adapt_aux_changes_initialization():
    state, train_tasks, unseen = _trained_tiny_world(17)
    g_no, _, _ = test_adapt(state, unseen, [])
    g_yes, _, _ = test_adapt(state, unseen, train_tasks)
    assert g_no.digest() != g_yes.digest()


def test_gp_finetune_runs_under_the_states_config_with_fewer_tasks_than_meta_batch():
    state, train_tasks, _ = _trained_tiny_world(19)
    assert state.config.meta_batch == 2
    tuned = bilevel.gp_finetune_on_aux(state, train_tasks[:1], seed=3)
    assert tuned.config is state.config
    assert tuned.meta_iteration == tuned.adam_g.t == state.config.gp_finetune_iters
    assert tuned.g_gp.digest() != state.g_gp.digest()


@pytest.mark.parametrize("mode", MetaMode.ALL)
def test_meta_training_adapts_in_the_configs_meta_mode(mode, monkeypatch):
    state, train_tasks, _ = _trained_tiny_world(20)
    in_mode(state, mode)
    adapted_in = []
    real = bilevel.inner_adapt

    def spy(pair, samples, config, adapt_mode, *rest, **kwargs):
        adapted_in.append(adapt_mode)
        return real(pair, samples, config, adapt_mode, *rest, **kwargs)

    monkeypatch.setattr(bilevel, "inner_adapt", spy)
    metatrain(state, [small_scene(3190 + i, i) for i in range(2)], iters=1)
    assert adapted_in == [mode] * state.config.meta_batch
    adapted_in.clear()
    bilevel.gp_finetune_on_aux(state, train_tasks[:2], seed=4)
    assert adapted_in == [mode] * state.config.meta_batch * state.config.gp_finetune_iters


def test_test_adapt_rejects_bad_k_and_empty_split():
    state, train_tasks, unseen = _trained_tiny_world(18)
    state.config = replace(state.config, k_aux=10)
    with pytest.raises(TensorError, match="k="):
        test_adapt(state, unseen, train_tasks)
    hollow = TaskEpisode(scene=unseen.scene, train=[], test=unseen.test)
    with pytest.raises(TensorError, match="training split"):
        test_adapt(state, hollow, train_tasks)


def _moves(state, run):
    """Absolute change of every general parameter entry across ``run()``."""
    params = [p for ps in (state.g_gp, state.d_gp) for _, p in ps.items()]
    before = [p.data.copy() for p in params]
    run()
    return np.concatenate([np.abs(p.data - b).ravel() for p, b in zip(params, before)])


def test_pretrain_steps_at_alpha_and_the_first_meta_update_at_beta():
    # a first Adam step moves each entry by at most its rate, and about that far
    alpha, beta = 1e-2, 1e-4
    state = small_state(31, alpha=alpha, beta=beta)
    scenes = [small_scene(3150 + i, i) for i in range(3)]
    first = _moves(state, lambda: pretrain(state, scenes, iters=1))
    assert alpha / 2 < first.max() <= alpha * (1 + 1e-9)
    pretrain(state, scenes, iters=3)
    meta = _moves(state, lambda: metatrain(state, scenes, iters=1))
    assert beta / 2 < meta.max() <= beta * (1 + 1e-9)


def test_metatrain_hands_over_a_fresh_adam_pair_even_at_zero_iterations():
    state = small_state(32)
    scenes = [small_scene(3160 + i, i) for i in range(3)]
    pretrain(state, scenes, iters=2)
    assert state.adam_g.t == state.adam_d.t == 2  # pretraining steps the one pair
    metatrain(state, scenes, iters=0)
    for adam in (state.adam_g, state.adam_d):
        assert adam.t == 0
        assert not any(a.any() for a in (*adam.m.values(), *adam.v.values()))


def test_pretrain_refuses_a_state_that_has_meta_trained():
    state = small_state(33)
    scenes = [small_scene(3170 + i, i) for i in range(3)]
    metatrain(state, scenes, iters=1)
    with pytest.raises(TensorError, match="meta-trained"):
        pretrain(state, scenes, iters=1)


def test_metatrain_rejects_fewer_scenes_than_meta_batch():
    state = small_state(34)
    with pytest.raises(TensorError, match="meta_batch = 2 exceeds the 1 training scenes"):
        metatrain(state, [small_scene(3180)], iters=1)


def test_feature_extractor_untouched_by_training():
    state = small_state(30, k_aux=2)
    phi_digest = state.objective.phi.params.digest()
    scenes = [small_scene(3100 + i, i) for i in range(3)]
    pretrain(state, scenes, iters=3)
    metatrain(state, scenes, iters=2)
    unseen = small_episode(3200, scene_id=50)
    pool = [small_episode(3300 + i, scene_id=i) for i in range(3)]
    test_adapt(state, unseen, pool)
    assert state.objective.phi.params.digest() == phi_digest


# ---------------------------------------------------------------------------
# batched objective


def _objective_terms(obj, g, d, samples):
    """name -> (loss value, {param name: gradient}) for each objective scalar."""
    batch = obj.batch(samples)
    terms = {}
    # the discriminator loss reads ``fake`` itself, so it has a generator gradient too
    for key, fn, mode in (("pair_g", obj.pair_losses, T.Tape.VALUES),
                          ("disc_connected", obj.disc_loss_detached, T.Tape.DIFFERENTIABLE)):
        with T.Tape(mode):
            loss = fn(d, batch, obj.generate(g, batch))
            grads = T.backward(loss, g.tensors() + d.tensors())
            terms[key] = (loss.item(), {**{f"g.{n}": grads[p].data for n, p in g.items()},
                                        **{f"d.{n}": grads[p].data for n, p in d.items()}})
    with T.Tape():
        loss = obj.disc_loss_detached(d, batch, obj.generate(g, batch))
        grads = T.backward(loss, d.tensors())
        terms["disc_detached"] = (loss.item(), {f"d.{n}": grads[p].data for n, p in d.items()})
    return terms


def test_batched_objective_matches_mean_of_single_sample_calls():
    g, d = init_params(SMALL_NET, 23)
    obj = small_objective()
    batch = small_episode(3500, n_shot=5).train
    batched = _objective_terms(obj, g, d, batch)
    singles = [_objective_terms(obj, g, d, [s]) for s in batch]
    assert set(batched) == {"pair_g", "disc_connected", "disc_detached"}
    for key, (value, grads) in batched.items():
        mean_value = np.mean([s[key][0] for s in singles])
        assert value == pytest.approx(mean_value, rel=1e-12), key
        for n, grad in grads.items():
            mean_grad = np.mean([s[key][1][n] for s in singles], axis=0)
            np.testing.assert_allclose(grad, mean_grad, rtol=1e-12, atol=1e-12 * np.max(np.abs(mean_grad)),
                                       err_msg=f"{key} d/d{n}")


def test_objective_tape_size_does_not_grow_with_batch():
    g, d = init_params(SMALL_NET, 24)
    obj = small_objective()
    batch = small_episode(3501, n_shot=5).train

    def ops(fn, samples):
        with T.Tape() as tape:
            fn(samples)
        return len(tape.ops)

    for fn in (lambda b: obj.pair_losses(d, b, obj.generate(g, b)),
               lambda b: obj.disc_loss_detached(d, b, obj.generate(g, b))):
        assert ops(fn, obj.batch(batch)) == ops(fn, obj.batch(batch[:1]))
