"""Generator/discriminator: shapes, determinism, parameter counts, gradients."""

import numpy as np
import pytest

from biltrans import tensor as T
from biltrans.nets import NetConfig, generator_forward, discriminator_forward, init_params
from biltrans.tensor import Tape, TensorError, backward, finite_diff_gradient

TINY = NetConfig(height=8, width=8, classes=2, mode="pg2", base_width=4, depth=1)
TINY_PIX = NetConfig(height=8, width=8, classes=2, mode="pix2pix", base_width=4, depth=1)
DEFAULT = NetConfig()


def onehot(classes, h, w, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=(h, w))
    return np.eye(classes)[labels].transpose(2, 0, 1)[None]


def rand_img(h, w, seed):
    return np.random.default_rng(seed).uniform(-0.9, 0.9, size=(1, 3, h, w))


def test_init_deterministic_per_seed():
    g1, d1 = init_params(TINY, seed=5)
    g2, d2 = init_params(TINY, seed=5)
    assert g1.digest() == g2.digest()
    assert d1.digest() == d2.digest()


def test_init_differs_across_seeds():
    g1, _ = init_params(TINY, seed=5)
    g2, _ = init_params(TINY, seed=6)
    assert g1.digest() != g2.digest()


def test_biases_start_at_zero_and_weights_zero_mean():
    g, d = init_params(DEFAULT, seed=0)
    for ps in (g, d):
        for name, p in ps.items():
            if name.endswith(".b"):
                assert np.all(p.data == 0.0)
    w = np.concatenate([p.data.ravel() for n, p in g.items() if n.endswith(".w")])
    assert abs(w.mean()) < 0.01


def test_parameter_count_matches_layerwise_oracle():
    cfg = NetConfig(height=32, width=32, classes=5, mode="pg2", base_width=16, depth=3)
    g, d = init_params(cfg, seed=1)

    # independent recount: walk the architecture definition from first principles
    def conv_params(cin, cout, k):
        return cout * cin * k * k + cout

    w, depth = cfg.base_width, cfg.depth
    expected_g = conv_params(cfg.classes + 3, w, 3)  # stem
    ch = w
    for i in range(depth):
        nxt = w * 2 ** (i + 1)
        expected_g += conv_params(ch, nxt, 3)           # downsample
        expected_g += 2 * conv_params(nxt, nxt, 3)      # residual pair
        ch = nxt
    for i in reversed(range(depth)):
        skip = w * 2**i
        expected_g += conv_params(ch + skip, skip, 3)   # fuse after skip concat
        expected_g += 2 * conv_params(skip, skip, 3)
        ch = skip
    expected_g += conv_params(ch, 3, 3)                 # head

    expected_d = 0
    ch = cfg.classes + 3
    for i in range(depth):
        nxt = w * 2**i
        expected_d += conv_params(ch, nxt, 3)
        ch = nxt
    expected_d += conv_params(ch, 1, 1)

    assert g.count() == expected_g
    assert d.count() == expected_d


def test_parameter_count_invariant_across_seeds():
    counts = set()
    for seed in range(3):
        g, d = init_params(TINY, seed)
        counts.add((g.count(), d.count()))
    assert len(counts) == 1


def test_invalid_config_rejected():
    with pytest.raises(TensorError):
        NetConfig(height=30, width=32, depth=3)
    with pytest.raises(TensorError):
        NetConfig(base_width=2)
    with pytest.raises(TensorError):
        NetConfig(mode="cycle")


def test_generator_output_shape_and_range():
    g, _ = init_params(DEFAULT, seed=2)
    out = generator_forward(g, T.tensor(onehot(5, 32, 32, 0)), T.tensor(rand_img(32, 32, 1)))
    assert out.shape == (1, 3, 32, 32)
    assert np.all(out.data > -1.0) and np.all(out.data < 1.0)


def test_generator_mode_input_contract():
    g, _ = init_params(TINY, seed=3)
    x = T.tensor(onehot(2, 8, 8, 0))
    with pytest.raises(TensorError, match="reference"):
        generator_forward(g, x, None)
    g2, _ = init_params(TINY_PIX, seed=3)
    with pytest.raises(TensorError, match="reference"):
        generator_forward(g2, x, T.tensor(rand_img(8, 8, 1)))
    out = generator_forward(g2, x, None)
    assert out.shape == (1, 3, 8, 8)


def test_generator_forward_deterministic():
    g, _ = init_params(TINY, seed=4)
    x = T.tensor(onehot(2, 8, 8, 5))
    r = T.tensor(rand_img(8, 8, 6))
    a = generator_forward(g, x, r).data
    b = generator_forward(g, x, r).data
    assert np.array_equal(a, b)


def test_discriminator_logit_map_shape():
    _, d = init_params(DEFAULT, seed=7)
    out = discriminator_forward(d, T.tensor(onehot(5, 32, 32, 0)), T.tensor(rand_img(32, 32, 1)))
    assert out.shape == (1, 1, 4, 4)


def test_discriminator_shape_mismatch_rejected():
    _, d = init_params(TINY, seed=8)
    with pytest.raises(TensorError, match="discriminator"):
        discriminator_forward(d, T.tensor(onehot(2, 8, 8, 0)), T.tensor(rand_img(16, 16, 1)))


def test_discriminator_receptive_field_locality():
    _, d = init_params(DEFAULT, seed=9)
    x = T.tensor(onehot(5, 32, 32, 2))
    img = rand_img(32, 32, 3)
    base = discriminator_forward(d, x, T.tensor(img)).data
    bumped = img.copy()
    bumped[:, :, :3, :3] += 0.5  # local patch in the top-left corner
    pert = discriminator_forward(d, x, T.tensor(bumped)).data
    assert abs(pert[0, 0, 0, 0] - base[0, 0, 0, 0]) > 0  # nearby logit reacts
    assert pert[0, 0, 3, 3] == base[0, 0, 3, 3]  # far logit is outside the receptive field


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)]))


def test_generator_gradients_match_finite_differences():
    g, _ = init_params(TINY, seed=10)
    xv = onehot(2, 8, 8, 11)
    rv = rand_img(8, 8, 12)

    def f(theta):
        ps = g.copy()
        for name in theta:
            ps[name].data[...] = theta[name]
        return T.reduce_mean(generator_forward(ps, T.tensor(xv), T.tensor(rv))).item()

    fd = finite_diff_gradient(f, {n: p.data for n, p in g.items()}, eps=1e-5)
    with Tape():
        loss = T.reduce_mean(generator_forward(g, T.tensor(xv), T.tensor(rv)))
        grads = backward(loss, g.tensors())
    by_name = g.grads_by_name(grads)
    worst = max(rel_err(by_name[n], fd[n]) for n in fd)
    assert worst < 1e-5, f"worst rel err {worst:.3e}"


def test_discriminator_gradients_match_finite_differences():
    _, d = init_params(TINY, seed=13)
    xv = onehot(2, 8, 8, 14)
    iv = rand_img(8, 8, 15)

    def f(theta):
        ps = d.copy()
        for name in theta:
            ps[name].data[...] = theta[name]
        return T.reduce_mean(T.tanh(discriminator_forward(ps, T.tensor(xv), T.tensor(iv)))).item()

    fd = finite_diff_gradient(f, {n: p.data for n, p in d.items()}, eps=1e-5)
    with Tape():
        loss = T.reduce_mean(T.tanh(discriminator_forward(d, T.tensor(xv), T.tensor(iv))))
        grads = backward(loss, d.tensors())
    by_name = d.grads_by_name(grads)
    worst = max(rel_err(by_name[n], fd[n]) for n in fd)
    assert worst < 1e-5, f"worst rel err {worst:.3e}"


def test_generator_differentiable_under_second_order_tape():
    g, _ = init_params(TINY, seed=16)
    x = T.tensor(onehot(2, 8, 8, 17))
    r = T.tensor(rand_img(8, 8, 18))
    with Tape(Tape.DIFFERENTIABLE):
        loss = T.reduce_mean(T.square(generator_forward(g, x, r)))
        grads = backward(loss, g.tensors())
        gnorm = T.reduce_sum(T.square(grads[g["head.w"]]))
        second = backward(gnorm, [g["head.w"]])
    assert np.all(np.isfinite(second[g["head.w"]].data))
