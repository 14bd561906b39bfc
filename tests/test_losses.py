"""Loss components and the assembled objective against closed forms and
independent recomputations."""

import numpy as np
import pytest

from biltrans import losses, tensor as T
from biltrans.bilevel import Objective
from biltrans.losses import FeatureExtractor, LossWeights, l1_loss, perceptual_loss
from biltrans.nets import NetConfig, init_params, discriminator_forward, generator_forward
from biltrans.tasks import synth_scene, render
from biltrans.tensor import Tape, TensorError, backward, finite_diff_gradient

CFG = NetConfig(height=8, width=8, classes=2, mode="pg2", base_width=4, depth=1)
ADV_ONLY = LossWeights(adversarial=1.0, perceptual=0.0)


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


def _fixed_batch(seed):
    """(structure, reference, target) batch of one 8x8 sample, as Tensors."""
    xs = np.eye(2)[np.random.default_rng(seed).integers(0, 2, (8, 8))].transpose(2, 0, 1)[None]
    return T.tensor(xs), T.tensor(rand((1, 3, 8, 8), seed + 1)), T.tensor(rand((1, 3, 8, 8), seed + 2))


def _emit(img):
    """A generator forward that ignores its parameters and returns ``img``."""
    return lambda g, xs, xr: T.tensor(img.data)


def test_adversarial_symmetric_uncertainty():
    # p = 0.5 on every patch; the generator reproduces its target, so L1 is 0
    batch = _fixed_batch(0)
    obj = Objective(phi=FeatureExtractor(seed=10), weights=ADV_ONLY, g_forward=_emit(batch[2]),
                    d_forward=lambda d, xs, img: T.constant(np.zeros((1, 1, 2, 2))))
    loss_g, loss_d = obj.pair_losses(None, None, batch), obj.disc_loss_detached(None, None, batch)
    assert loss_d.item() == pytest.approx(2 * np.log(2), abs=1e-12)
    assert loss_g.item() == pytest.approx(-np.log(2), abs=1e-12)


def test_adversarial_perfect_discriminator_limit():
    # saturated logits: p_real and 1 - p_fake clamp to 1 - 1e-7
    batch = _fixed_batch(1)
    y = batch[2]
    obj = Objective(phi=FeatureExtractor(seed=10), weights=ADV_ONLY, g_forward=_emit(batch[1]),
                    d_forward=lambda d, xs, img: T.constant(np.full((1, 1, 2, 2), 30.0 if img is y else -30.0)))
    with Tape(Tape.DIFFERENTIABLE):  # generated images stay connected
        loss_d = obj.disc_loss_detached(None, None, batch)
    assert abs(loss_d.item()) < 1e-6
    assert abs(obj.disc_loss_detached(None, None, batch).item()) < 1e-6


def test_adversarial_constant_disc_through_network_path():
    # a zeroed discriminator with a bias-only head emits one probability everywhere
    _, d = init_params(CFG, seed=0)
    for _, p in d.items():
        p.data[...] = 0.0
    xs, xr, y = _fixed_batch(2)
    fake = T.tensor(rand((1, 3, 8, 8), 1))
    obj = Objective(phi=FeatureExtractor(seed=10), weights=ADV_ONLY, g_forward=_emit(fake))
    loss_g = obj.pair_losses(None, d, (xs, xr, y))
    loss_d = obj.disc_loss_detached(None, d, (xs, xr, y))  # bias 0 -> p = 0.5
    l1 = np.mean(np.abs(fake.data - y.data))
    assert loss_d.item() == pytest.approx(2 * np.log(2), abs=1e-12)
    assert loss_g.item() - l1 == pytest.approx(-np.log(2), abs=1e-12)


def test_adversarial_generator_gradient_vs_finite_differences():
    g, d = init_params(CFG, seed=1)
    batch = _fixed_batch(3)
    obj = Objective(phi=FeatureExtractor(seed=10), weights=ADV_ONLY)

    def f(theta):
        ps = g.copy()
        for name in theta:
            ps[name].data[...] = theta[name]
        return obj.pair_losses(ps, d, batch).item()

    fd = finite_diff_gradient(f, {n: p.data for n, p in g.items()}, eps=1e-5)
    with Tape():
        loss_g = obj.pair_losses(g, d, batch)
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


def _gen_losses(g, d, phi, weights, sample):
    """(generator total loss, discriminator loss) of the objective on one sample."""
    obj = Objective(phi=phi, weights=weights)
    return obj.pair_losses(g, d, [sample]), obj.disc_loss_detached(g, d, [sample])


def test_total_loss_degenerate_weights_equal_l1():
    g, d = init_params(CFG, seed=2)
    phi = FeatureExtractor(seed=15)
    sample = _sample(21)
    lg, _ = _gen_losses(g, d, phi, LossWeights(adversarial=0.0, perceptual=0.0), sample)
    xs, xr, y = sample.tensors()
    expect = l1_loss(generator_forward(g, xs, xr), y).item()
    assert lg.item() == expect


@pytest.mark.parametrize("nonsaturating", [False, True])
def test_total_loss_weighted_sum_arithmetic(nonsaturating):
    # component values (0.3, 0.7, 0.05) with recipe weights 10 and 2
    assert 0.3 + 10 * 0.7 + 2 * 0.05 == pytest.approx(7.4)
    _, d = init_params(CFG, seed=3)
    phi = FeatureExtractor(seed=16)
    xs, xr, y = _sample(22).tensors()
    fake = T.tensor(rand((1, 3, 8, 8), 9, -0.9, 0.9))
    weights = LossWeights(adversarial=10.0, perceptual=2.0, nonsaturating=nonsaturating)
    obj = Objective(phi=phi, weights=weights, g_forward=_emit(fake))
    got_g, got_d = obj.pair_losses(None, d, (xs, xr, y)), obj.disc_loss_detached(None, d, (xs, xr, y))

    # adversarial terms recomputed in numpy from the discriminator's logits
    def prob(img):
        logits = discriminator_forward(d, xs, img).data
        return np.clip(1.0 / (1.0 + np.exp(-logits)), losses.PROB_CLAMP, 1.0 - losses.PROB_CLAMP)

    p_real, p_fake = prob(y), prob(fake)
    log_one_minus_fake = np.mean(np.log(1.0 - p_fake))
    adv_g = -np.mean(np.log(p_fake)) if nonsaturating else log_one_minus_fake
    l1 = np.mean(np.abs(fake.data - y.data))
    lp = perceptual_loss(phi, fake, y).item()
    assert got_g.item() == pytest.approx(l1 + 10 * adv_g + 2 * lp, rel=1e-14)
    # the discriminator keeps the minimax log(1 - p_fake) term in both cases
    assert got_d.item() == pytest.approx(-(np.mean(np.log(p_real)) + log_one_minus_fake), rel=1e-14)


def test_total_loss_linear_in_weights():
    g, d = init_params(CFG, seed=4)
    phi = FeatureExtractor(seed=17)
    sample = _sample(23)

    def at(wa, wb):
        lg, _ = _gen_losses(g, d, phi, LossWeights(adversarial=wa, perceptual=wb), sample)
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
        _, ld = _gen_losses(g, d, phi, LossWeights(), sample)
        assert ld.item() >= 0.0


def test_total_loss_differentiable_wrt_generator():
    g, d = init_params(CFG, seed=5)
    phi = FeatureExtractor(seed=18)
    sample = _sample(24)
    with Tape(Tape.DIFFERENTIABLE):
        lg, _ = _gen_losses(g, d, phi, LossWeights(), sample)
        grads = backward(lg, g.tensors())
    assert all(np.all(np.isfinite(grads[p].data)) for p in g.tensors())
    assert any(np.any(grads[p].data != 0) for p in g.tensors())


def test_invalid_weights_rejected():
    with pytest.raises(TensorError):
        LossWeights(adversarial=-1.0)
    with pytest.raises(TensorError):
        LossWeights(perceptual=float("nan"))
