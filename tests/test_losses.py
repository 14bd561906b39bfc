"""Loss components against closed forms and independent recomputations."""

import numpy as np
import pytest

from biltrans import losses, tensor as T
from biltrans.losses import FeatureExtractor, LossWeights, adversarial_losses, l1_loss, perceptual_loss, total_loss
from biltrans.nets import NetConfig, init_params, discriminator_forward
from biltrans.tasks import synth_scene, render
from biltrans.tensor import Tape, TensorError, backward, finite_diff_gradient

CFG = NetConfig(height=8, width=8, classes=2, mode="pg2", base_width=4, depth=1)


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def test_l1_identity_is_zero():
    x = T.tensor(rand((1, 3, 4, 4), 0))
    assert l1_loss(x, x).item() == 0.0


def test_l1_constant_field():
    a = T.tensor(np.full((1, 3, 4, 4), 0.5))
    b = T.tensor(np.zeros((1, 3, 4, 4)))
    assert abs(l1_loss(a, b).item() - 0.5) < 1e-15


def test_l1_matches_elementwise_oracle():
    a, b = rand((1, 3, 5, 5), 1), rand((1, 3, 5, 5), 2)
    expect = float(np.mean([abs(x - y) for x, y in zip(a.ravel(), b.ravel())]))
    assert l1_loss(T.tensor(a), T.tensor(b)).item() == pytest.approx(expect, abs=1e-15)


def test_l1_shape_mismatch():
    with pytest.raises(TensorError):
        l1_loss(T.tensor(np.zeros((1, 3, 4, 4))), T.tensor(np.zeros((1, 3, 4, 5))))


def test_adversarial_symmetric_uncertainty():
    probs = T.tensor(np.full((1, 1, 2, 2), 0.5))
    loss_d, loss_g = losses.adversarial_losses_from_probs(probs, probs)
    assert loss_d.item() == pytest.approx(2 * np.log(2), abs=1e-12)
    assert loss_g.item() == pytest.approx(-np.log(2), abs=1e-12)


def test_adversarial_perfect_discriminator_limit():
    p_real = T.tensor(np.full((1, 1, 2, 2), 1 - 1e-7))
    p_fake = T.tensor(np.full((1, 1, 2, 2), 1e-7))
    loss_d, _ = losses.adversarial_losses_from_probs(p_real, p_fake)
    assert abs(loss_d.item()) < 1e-6


def test_adversarial_constant_disc_through_network_path():
    # a zeroed discriminator with a bias-only head emits one probability everywhere
    _, d = init_params(CFG, seed=0)
    for _, p in d.items():
        p.data[...] = 0.0
    xs = T.tensor(np.eye(2)[np.zeros((8, 8), dtype=int)].transpose(2, 0, 1)[None])
    y = T.tensor(rand((1, 3, 8, 8), 0))
    fake = T.tensor(rand((1, 3, 8, 8), 1))
    loss_d, loss_g = adversarial_losses(d, xs, y, fake)  # bias 0 -> p = 0.5
    assert loss_d.item() == pytest.approx(2 * np.log(2), abs=1e-12)
    assert loss_g.item() == pytest.approx(-np.log(2), abs=1e-12)


def test_adversarial_generator_gradient_vs_finite_differences():
    g, d = init_params(CFG, seed=1)
    xs = rand((1, 2, 8, 8), 3, 0, 1)
    yv = rand((1, 3, 8, 8), 4)
    rv = rand((1, 3, 8, 8), 5)

    def f(theta):
        ps = g.copy()
        for name in theta:
            ps[name].data[...] = theta[name]
        from biltrans.nets import generator_forward

        fake = generator_forward(ps, T.tensor(xs), T.tensor(rv))
        _, loss_g = adversarial_losses(d, T.tensor(xs), T.tensor(yv), fake)
        return loss_g.item()

    fd = finite_diff_gradient(f, {n: p.data for n, p in g.items()}, eps=1e-5)
    with Tape():
        from biltrans.nets import generator_forward

        fake = generator_forward(g, T.tensor(xs), T.tensor(rv))
        _, loss_g = adversarial_losses(d, T.tensor(xs), T.tensor(yv), fake)
        grads = g.grads_by_name(backward(loss_g, g.tensors()))
    worst = max(
        np.max(np.abs(grads[n] - fd[n]) / np.maximum.reduce([np.abs(grads[n]), np.abs(fd[n]), np.ones_like(fd[n])]))
        for n in fd
    )
    assert worst < 1e-5


def test_perceptual_identity_zero_and_positive_otherwise():
    phi = FeatureExtractor(seed=11)
    x = T.tensor(rand((1, 3, 8, 8), 6))
    assert perceptual_loss(phi, x, x).item() == 0.0
    hits = 0
    for s in range(100):
        a = T.tensor(rand((1, 3, 8, 8), 100 + s))
        b = T.tensor(rand((1, 3, 8, 8), 500 + s))
        if perceptual_loss(phi, a, b).item() > 0:
            hits += 1
    assert hits == 100


def test_perceptual_matches_naive_recomputation():
    phi = FeatureExtractor(seed=12)
    a, b = rand((3, 8, 8), 7), rand((3, 8, 8), 8)
    got = perceptual_loss(phi, T.tensor(a[None]), T.tensor(b[None])).item()

    def stages(img):
        h = img
        outs = []
        for i in range(3):
            w = phi.params[f"stage{i}.w"].data
            hp = np.pad(h, ((0, 0), (1, 1), (1, 1)), mode="reflect")
            co = w.shape[0]
            oh = (hp.shape[1] - 3) // 2 + 1
            ow = (hp.shape[2] - 3) // 2 + 1
            out = np.zeros((co, oh, ow))
            for c in range(co):
                for i2 in range(oh):
                    for j2 in range(ow):
                        out[c, i2, j2] = np.sum(hp[:, 2 * i2 : 2 * i2 + 3, 2 * j2 : 2 * j2 + 3] * w[c])
            h = np.maximum(out, 0)
            outs.append(h)
        return outs

    def normalize(f):
        norm = np.sqrt((f**2).sum(axis=0, keepdims=True) + losses.NORM_EPS)
        return f / norm

    expect = sum(
        np.mean((normalize(fa) - normalize(fb)) ** 2) for fa, fb in zip(stages(a), stages(b))
    )
    assert got == pytest.approx(expect, rel=1e-10)


def test_feature_extractor_frozen_and_seeded():
    before = FeatureExtractor(seed=13)
    digest = before.digest()
    assert FeatureExtractor(seed=13).digest() == digest
    assert FeatureExtractor(seed=14).digest() != digest
    assert all(not p.requires_grad for p in before.params.values())


def _sample(seed, with_reference=True):
    scene = synth_scene(seed, scene_id=0, height=8, width=8, classes=2)
    return render(scene, 0, with_reference=with_reference)


def test_total_loss_degenerate_weights_equal_l1():
    g, d = init_params(CFG, seed=2)
    phi = FeatureExtractor(seed=15)
    sample = _sample(21)
    lg, _ = total_loss(g, d, phi, LossWeights(adversarial=0.0, perceptual=0.0), sample)
    from biltrans.nets import generator_forward

    xs, xr, y = sample.tensors()
    expect = l1_loss(generator_forward(g, xs, xr), y).item()
    assert lg.item() == expect


def test_total_loss_weighted_sum_arithmetic():
    # component values (0.3, 0.7, 0.05) with recipe weights 10 and 2
    assert 0.3 + 10 * 0.7 + 2 * 0.05 == pytest.approx(7.4)
    g, d = init_params(CFG, seed=3)
    phi = FeatureExtractor(seed=16)
    sample = _sample(22)
    from biltrans.nets import generator_forward

    xs, xr, y = sample.tensors()
    fake = generator_forward(g, xs, xr)
    l1 = l1_loss(fake, y).item()
    _, lg_adv = adversarial_losses(d, xs, y, fake)
    lp = perceptual_loss(phi, fake, y).item()
    got, _ = total_loss(g, d, phi, LossWeights(adversarial=10.0, perceptual=2.0), sample)
    assert got.item() == pytest.approx(l1 + 10 * lg_adv.item() + 2 * lp, rel=1e-14)


def test_total_loss_linear_in_weights():
    g, d = init_params(CFG, seed=4)
    phi = FeatureExtractor(seed=17)
    sample = _sample(23)

    def at(wa, wb):
        lg, _ = total_loss(g, d, phi, LossWeights(adversarial=wa, perceptual=wb), sample)
        return lg.item()

    v00, v10, v01 = at(0, 0), at(1, 0), at(0, 1)
    mixed = at(3.0, 4.0)
    interp = v00 + 3.0 * (v10 - v00) + 4.0 * (v01 - v00)
    assert mixed == pytest.approx(interp, rel=1e-12)


def test_loss_d_nonnegative_after_clamp():
    for s in range(10):
        g, d = init_params(CFG, seed=s)
        phi = FeatureExtractor(seed=1)
        sample = _sample(40 + s)
        _, ld = total_loss(g, d, phi, LossWeights(), sample)
        assert ld.item() >= 0.0


def test_total_loss_differentiable_wrt_generator():
    g, d = init_params(CFG, seed=5)
    phi = FeatureExtractor(seed=18)
    sample = _sample(24)
    with Tape(Tape.DIFFERENTIABLE):
        lg, _ = total_loss(g, d, phi, LossWeights(), sample)
        grads = backward(lg, g.tensors())
    assert all(np.all(np.isfinite(grads[p].data)) for p in g.tensors())
    assert any(np.any(grads[p].data != 0) for p in g.tensors())


def test_invalid_weights_rejected():
    with pytest.raises(TensorError):
        LossWeights(adversarial=-1.0)
    with pytest.raises(TensorError):
        LossWeights(perceptual=float("nan"))
