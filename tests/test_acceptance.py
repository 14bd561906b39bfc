"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1, 2, 3, 6, 7 and 8 are implemented here and run in seconds to
minutes. Criteria 4 and 5 (the multi-seed trend experiments: bilevel beats
n-shot fine-tuning, auxiliary fine-tuning helps) are not implemented yet.
"""

import math
import os
import shutil
import time

import numpy as np
import pytest

from biltrans import tensor as T
from biltrans.bilevel import (
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
from biltrans.config import default_config
from biltrans.metrics import mse, psnr, ssim
from biltrans.nets import ParameterSet, init_params
from biltrans.optim import AdamState, adam_step
from biltrans.rng import substream_seed
from biltrans.tasks import SegMap, TaskEpisode, render, retrieve_topk, sample_episode, similarity, synth_scene
from biltrans.tensor import Tape, backward, finite_diff_gradient

from test_tensor import _CASES, analytic_and_fd


def report(criterion, passed, detail=""):
    mark = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion}] {mark} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)]))


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst_by_op = {}
    for name in sorted(T.ALL_OP_NAMES):
        build = _CASES[name]
        worst_by_op[name] = max(analytic_and_fd(name, build, seed) for seed in range(50))
    worst_primitive = max(worst_by_op.values())

    # full network gradients, every weight, on a small configuration
    cfg = default_config(image_size=8, classes=2, mode="pg2", base_width=4, depth=1)
    g, d = init_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    xs = np.eye(2)[rng.integers(0, 2, (8, 8))].transpose(2, 0, 1)[None]
    rv = rng.uniform(-0.9, 0.9, (1, 3, 8, 8))
    iv = rng.uniform(-0.9, 0.9, (1, 3, 8, 8))

    from biltrans.nets import discriminator_forward, generator_forward

    def run_g(theta):
        ps = g.copy()
        for n in theta:
            ps[n].data[...] = theta[n]
        return T.reduce_mean(generator_forward(ps, T.tensor(xs), T.tensor(rv))).item()

    def run_d(theta):
        ps = d.copy()
        for n in theta:
            ps[n].data[...] = theta[n]
        return T.reduce_mean(T.tanh(discriminator_forward(ps, T.tensor(xs), T.tensor(iv)))).item()

    fd_g = finite_diff_gradient(run_g, {n: p.data for n, p in g.items()}, eps=1e-5)
    with Tape():
        loss = T.reduce_mean(generator_forward(g, T.tensor(xs), T.tensor(rv)))
        an_g = g.grads_by_name(backward(loss, g.tensors()))
    worst_gen = max(rel_err(an_g[n], fd_g[n]) for n in fd_g)

    fd_d = finite_diff_gradient(run_d, {n: p.data for n, p in d.items()}, eps=1e-5)
    with Tape():
        loss = T.reduce_mean(T.tanh(discriminator_forward(d, T.tensor(xs), T.tensor(iv))))
        an_d = d.grads_by_name(backward(loss, d.tensors()))
    worst_disc = max(rel_err(an_d[n], fd_d[n]) for n in fd_d)

    elapsed = time.perf_counter() - t0
    ok = worst_primitive < 1e-6 and worst_gen < 1e-5 and worst_disc < 1e-5 and elapsed < 120
    report(
        1,
        ok,
        f"primitive rel err {worst_primitive:.2e} (<1e-6), generator {worst_gen:.2e} "
        f"and discriminator {worst_disc:.2e} (<1e-5), {elapsed:.0f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: meta-gradient correctness


def tiny_g_forward(params, xs, xr):
    x = T.concat_channels(xs, xr) if xr is not None else xs
    h = T.relu(T.conv2d(T.pad_reflect(x, 1), params["g1.w"]))
    return T.tanh(T.conv2d(h, params["g2.w"]))


def tiny_d_forward(params, xs, img):
    x = T.concat_channels(xs, img)
    h = T.leaky_relu(T.conv2d(T.pad_reflect(x, 1), params["d1.w"], stride=2))
    return T.conv2d(h, params["d2.w"])


def tiny_world(seed, inner_steps):
    rng = np.random.default_rng(seed)
    g = ParameterSet("pg2")
    g.add("g1.w", rng.normal(0, 0.3, (2, 5, 3, 3)))
    g.add("g2.w", rng.normal(0, 0.3, (3, 2, 1, 1)))
    d = ParameterSet("pg2")
    d.add("d1.w", rng.normal(0, 0.3, (2, 5, 3, 3)))
    d.add("d2.w", rng.normal(0, 0.3, (1, 2, 1, 1)))
    assert sum(p.data.size for ps in (g, d) for p in ps.values()) <= 200
    obj = Objective(
        default_config(phi_seed=9, phi_widths="4,4", lambda_adv=1.0, lambda_perc=1.0),
        g_forward=tiny_g_forward,
        d_forward=tiny_d_forward,
    )
    cfg = default_config(inner_batch=2, meta_batch=1, n_test=2,
                         train_inner_iters=inner_steps, alpha=0.05, beta=0.05)
    state = BiLevelState(config=cfg, objective=obj, g_gp=g, d_gp=d, seed=0)
    scene = synth_scene(seed + 100, scene_id=0, height=8, width=8, classes=2)
    ep = TaskEpisode(scene=scene, train=[render(scene, 0), render(scene, 2)],
                     test=[render(scene, 1), render(scene, 3)])
    return state, ep


def test_criterion_2_meta_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for inner_steps in (1, 2):
        state, ep = tiny_world(20 + inner_steps, inner_steps)
        obj, cfg = state.objective, state.config

        def pipeline(g_values, d_values, want):
            g = ParameterSet("pg2")
            d = ParameterSet("pg2")
            for n, v in g_values.items():
                g.add(n, v)
            for n, v in d_values.items():
                d.add(n, v)
            g_is, d_is, tape = inner_adapt((g, d), ep.train, cfg, MetaMode.FULL_UNROLLED,
                                           obj, seed=77, n_iters=inner_steps)
            with tape:
                fake = obj.generate(g_is, ep.test)
                lg, ld = obj.pair_losses(d_is, ep.test, fake), obj.disc_loss_detached(d_is, ep.test, fake)
            return lg.item() if want == "g" else ld.item()

        g0 = {n: p.data.copy() for n, p in state.g_gp.items()}
        d0 = {n: p.data.copy() for n, p in state.d_gp.items()}
        g_is, d_is, tape = inner_adapt((state.g_gp, state.d_gp), ep.train, cfg,
                                       MetaMode.FULL_UNROLLED, obj, seed=77,
                                       n_iters=inner_steps)
        with tape:
            fake = obj.generate(g_is, ep.test)
            lg, ld = obj.pair_losses(d_is, ep.test, fake), obj.disc_loss_detached(d_is, ep.test, fake)
            an_g = state.g_gp.grads_by_name(backward(lg, state.g_gp.tensors()))
            an_d = state.d_gp.grads_by_name(backward(ld, state.d_gp.tensors()))
        fd_g = finite_diff_gradient(lambda th: pipeline(th, d0, "g"), g0, eps=1e-5)
        fd_d = finite_diff_gradient(lambda th: pipeline(g0, th, "d"), d0, eps=1e-5)
        worst = max(worst, max(rel_err(an_g[n], fd_g[n]) for n in fd_g))
        worst = max(worst, max(rel_err(an_d[n], fd_d[n]) for n in fd_d))

    # mode equivalence at zero inner steps
    state, ep = tiny_world(40, 0)
    g_f, d_f, _, _ = meta_gradients(state, [ep], MetaMode.FIRST_ORDER)
    g_u, d_u, _, _ = meta_gradients(state, [ep], MetaMode.FULL_UNROLLED)
    mode_gap = max(
        max(np.max(np.abs(g_f[n] - g_u[n])) for n in g_f),
        max(np.max(np.abs(d_f[n] - d_u[n])) for n in d_f),
    )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and mode_gap < 1e-10 and elapsed < 120
    report(
        2,
        ok,
        f"unrolled meta-gradient rel err {worst:.2e} (<1e-4), zero-step mode gap "
        f"{mode_gap:.2e} (<1e-10), {elapsed:.0f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: retrieval exactness


def test_criterion_3_retrieval_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    exact = True
    for _ in range(1000):
        la = rng.integers(0, 5, (8, 8))
        lb = rng.integers(0, 5, (8, 8))
        got = similarity(SegMap(la, 5), SegMap(lb, 5))
        expect = 0.0
        for c in range(5):
            ma, mb = la == c, lb == c
            union = int(np.logical_or(ma, mb).sum())
            inter = int(np.logical_and(ma, mb).sum())
            if union:
                expect += inter / union
        exact &= got == expect

    topk_ok = True
    for trial in range(200):
        pool = []
        for i in range(int(rng.integers(3, 9))):
            scene = synth_scene(100000 + 100 * trial + i, scene_id=i, height=8, width=8)
            pool.append(sample_episode(scene, 1, 1, seed=trial * 10 + i))
        query = SegMap(rng.integers(0, 5, (8, 8)), 5)
        k = int(rng.integers(1, len(pool) + 1))
        got = [e.scene_id for e in retrieve_topk(query, pool, k)]
        ranked = sorted(pool, key=lambda t: (-similarity(query, t.train[0].x_struct), t.scene_id))
        topk_ok &= got == [e.scene_id for e in ranked[:k]]

    elapsed = time.perf_counter() - t0
    ok = exact and topk_ok and elapsed < 30
    report(
        3,
        ok,
        f"similarity exact on 1000 pairs: {exact}, top-k equals sort oracle on 200 pools: "
        f"{topk_ok}, {elapsed:.0f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# criterion 7: optimizer and metric oracles


def test_criterion_7_optimizer_and_metric_oracles():
    ps = ParameterSet("pg2")
    ps.add("w", np.asarray(0.0))
    state = AdamState.for_params(ps)
    for _ in range(5):
        g = 2.0 * (float(ps["w"].data) - 2.0)
        adam_step(state, ps, {"w": np.asarray(g)}, 0.1)
    theta, m, v = 0.0, 0.0, 0.0
    for t in range(1, 6):
        g = 2.0 * (theta - 2.0)
        m = 0.5 * m + 0.5 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.1 * (m / (1 - 0.5**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
    adam_gap = abs(float(ps["w"].data) - theta)

    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, (3, 16, 16))
    b = rng.uniform(-1, 1, (3, 16, 16))
    got = ssim(a, b)

    def luma01(img):
        u = (img + 1) / 2
        return 0.299 * u[0] + 0.587 * u[1] + 0.114 * u[2]

    x, y = luma01(a), luma01(b)
    ax = np.arange(7) - 3.0
    gk = np.exp(-(ax**2) / (2 * 1.5**2))
    w = np.outer(gk, gk)
    w /= w.sum()
    c1, c2 = 0.01**2, 0.03**2
    vals = []
    for i in range(x.shape[0] - 6):
        for j in range(x.shape[1] - 6):
            px, py = x[i : i + 7, j : j + 7], y[i : i + 7, j : j + 7]
            mx, my = (px * w).sum(), (py * w).sum()
            vx = (px * px * w).sum() - mx * mx
            vy = (py * py * w).sum() - my * my
            cxy = (px * py * w).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx**2 + my**2 + c1) * (vx + vy + c2)))
    ssim_gap = abs(got - float(np.mean(vals)))

    p = np.full((3, 8, 8), -0.5)
    q = np.full((3, 8, 8), -0.3)  # unit-scale mse exactly 0.01
    psnr_exact = psnr(p, q) == 10.0 * math.log10(1.0 / mse(p, q)) and abs(psnr(p, q) - 20.0) < 1e-12

    ok = adam_gap < 1e-12 and ssim_gap < 1e-10 and psnr_exact
    report(
        7,
        ok,
        f"adam vs independent recomputation {adam_gap:.1e} (<1e-12), ssim vs window oracle "
        f"{ssim_gap:.1e} (<1e-10), psnr(mse=0.01)=20dB: {psnr_exact}",
    )


# ---------------------------------------------------------------------------
# criterion 6: alternation contracts (also asserted inside criterion 4's run)


def test_criterion_8_reproducibility(tmp_path):
    from biltrans import cli

    smoke = """
image_size = 16
classes = 3
base_width = 4
depth = 1
n_train_scenes = 4
n_unseen_scenes = 2
samples_per_scene = 2
pretrain_iters = 6
metatrain_iters = 4
train_inner_iters = 1
inner_iters = 3
inner_batch = 2
meta_batch = 2
n_test = 2
k_aux = 2
gp_finetune_iters = 1
alpha = 0.001
beta = 0.001
phi_widths = 4,4
"""
    cfg_file = tmp_path / "smoke.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(smoke + f"\nout_dir = {out}\n")

    def full_run():
        assert cli.main(["full-run", "--config", str(cfg_file)]) == 0
        artifacts = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                artifacts[str(path.relative_to(out))] = path.read_bytes()
        return artifacts

    first = full_run()
    shutil.rmtree(out)
    second = full_run()
    same_keys = set(first) == set(second)
    byte_identical = same_keys and all(first[k] == second[k] for k in first)

    # interrupted metatrain resumed from its checkpoint equals the straight run
    shutil.rmtree(out)
    assert cli.main(["gen-data", "--config", str(cfg_file)]) == 0
    assert cli.main(["pretrain", "--config", str(cfg_file)]) == 0
    assert cli.main(["metatrain", "--config", str(cfg_file), "--iters", "2"]) == 0
    assert cli.main(["metatrain", "--config", str(cfg_file)]) == 0
    resumed_ckpt = (out / "checkpoints" / "metatrain.ckpt").read_bytes()
    resume_identical = resumed_ckpt == second["checkpoints/metatrain.ckpt"]

    ok = byte_identical and resume_identical
    report(
        8,
        ok,
        f"two full runs byte-identical across {len(first)} artifacts: {byte_identical}, "
        f"checkpoint-resume equals uninterrupted run: {resume_identical}",
    )


def test_criterion_6_alternation_contracts():
    cfg = default_config(image_size=16, classes=3, base_width=4, depth=1, inner_batch=3,
                         meta_batch=2, n_test=2, train_inner_iters=1, alpha=1e-3, beta=1e-3,
                         k_aux=2, gp_finetune_iters=2, phi_seed=5, phi_widths="4,4")
    g, d = init_params(cfg, 0)
    obj = Objective(cfg)
    state = BiLevelState(config=cfg, objective=obj, g_gp=g, d_gp=d, seed=0)

    scenes = [synth_scene(900 + i, scene_id=i, height=16, width=16, classes=3) for i in range(4)]
    episodes = [sample_episode(s, 5, 2, seed=i) for i, s in enumerate(scenes[:2])]

    one_step_ok = True
    for _ in range(3):
        t_g, t_d = state.adam_g.t, state.adam_d.t
        meta_update(state, episodes, MetaMode.FIRST_ORDER)
        one_step_ok &= state.adam_g.t == t_g + 1 and state.adam_d.t == t_d + 1

    digest_before = (state.g_gp.digest(), state.d_gp.digest())
    inner_adapt((state.g_gp, state.d_gp), episodes[0].train, cfg, MetaMode.FIRST_ORDER,
                obj, seed=3, n_iters=5)
    inner_adapt((state.g_gp, state.d_gp), episodes[0].train, cfg, MetaMode.FULL_UNROLLED,
                obj, seed=3, n_iters=1)
    pool = [sample_episode(s, 5, 2, seed=50 + i) for i, s in enumerate(scenes)]
    unseen = sample_episode(synth_scene(999, scene_id=99, height=16, width=16, classes=3), 5, 2, seed=9)
    test_adapt(state, unseen, pool, k=2, seed=4)
    test_adapt(state, unseen, pool, seed=4)
    isolation_ok = (state.g_gp.digest(), state.d_gp.digest()) == digest_before

    ok = one_step_ok and isolation_ok
    report(
        6,
        ok,
        f"adam.t advances once per meta_update: {one_step_ok}, general params bitwise "
        f"unchanged across inner_adapt/test_adapt: {isolation_ok}",
    )
