"""Metric values against closed forms and naive sliding-window recomputation."""

import csv
import math

import numpy as np
import pytest

from biltrans import metrics
from biltrans.losses import FeatureExtractor, perceptual_loss, target_features
from biltrans import tensor as T
from biltrans.metrics import MetricReport, mse, proxy_lpips, psnr, ssim
from biltrans.tasks import sample_episode, synth_scene
from biltrans.tensor import TensorError


def rand_img(seed, h=16, w=16):
    return np.random.default_rng(seed).uniform(-1, 1, (3, h, w))


def test_mse_identity_and_offset():
    x = rand_img(0)
    assert mse(x, x) == 0.0
    y = np.full((3, 4, 4), -0.5)
    z = np.full((3, 4, 4), -0.3)  # offset 0.2 in [-1,1] is 0.1 on the unit scale
    assert mse(y, z) == pytest.approx(0.01, abs=1e-15)


def test_mse_matches_naive_loop():
    a, b = rand_img(1, 6, 6), rand_img(2, 6, 6)
    acc = 0.0
    for c in range(3):
        for i in range(6):
            for j in range(6):
                d = (a[c, i, j] + 1) / 2 - (b[c, i, j] + 1) / 2
                acc += d * d
    assert mse(a, b) == pytest.approx(acc / (3 * 6 * 6), abs=1e-15)


def test_mse_shape_mismatch():
    with pytest.raises(TensorError):
        mse(np.zeros((3, 4, 4)), np.zeros((3, 4, 5)))


def test_psnr_closed_forms():
    y = np.full((3, 8, 8), -0.5)
    z = np.full((3, 8, 8), -0.3)  # mse 0.01
    assert psnr(y, z) == pytest.approx(20.0, abs=1e-12)
    a = np.full((3, 8, 8), -1.0)
    b = np.full((3, 8, 8), 1.0)  # mse 1.0
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_psnr_identity_is_infinite_sentinel():
    x = rand_img(3)
    assert psnr(x, x) == math.inf


def test_psnr_monotone_in_mse():
    x = rand_img(4)
    values = []
    for lvl in np.linspace(0.01, 0.5, 12):
        noisy = np.clip(x + lvl, -1, 1)
        values.append(psnr(x, noisy))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ssim_identity_is_one():
    x = rand_img(5)
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ssim_anticorrelated_binary_is_negative():
    rng = np.random.default_rng(6)
    binary = np.where(rng.random((1, 16, 16)) > 0.5, 1.0, -1.0)
    img = np.repeat(binary, 3, axis=0)
    assert ssim(img, -img) < 0


def test_ssim_rejects_too_small_images():
    with pytest.raises(TensorError):
        ssim(np.zeros((3, 6, 6)), np.zeros((3, 6, 6)))


def test_ssim_matches_naive_window_recomputation():
    a, b = rand_img(7), rand_img(8)
    got = ssim(a, b)

    def luma01(img):
        u = (img + 1) / 2
        return 0.299 * u[0] + 0.587 * u[1] + 0.114 * u[2]

    x, y = luma01(a), luma01(b)
    ax = np.arange(7) - 3.0
    g = np.exp(-(ax**2) / (2 * 1.5**2))
    w = np.outer(g, g)
    w /= w.sum()
    c1, c2 = 0.01**2, 0.03**2
    vals = []
    for i in range(x.shape[0] - 6):
        for j in range(x.shape[1] - 6):
            px = x[i : i + 7, j : j + 7]
            py = y[i : i + 7, j : j + 7]
            mx = (px * w).sum()
            my = (py * w).sum()
            vx = (px * px * w).sum() - mx * mx
            vy = (py * py * w).sum() - my * my
            cxy = (px * py * w).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx**2 + my**2 + c1) * (vx + vy + c2)))
    assert got == pytest.approx(np.mean(vals), abs=1e-10)


def test_proxy_lpips_identity_symmetry_and_single_source():
    phi = FeatureExtractor(seed=21)
    a, b = rand_img(9), rand_img(10)
    assert proxy_lpips(phi, a, a) == 0.0
    assert proxy_lpips(phi, a, b) == proxy_lpips(phi, b, a)
    direct = perceptual_loss(phi, T.tensor(a[None]), target_features(phi, T.tensor(b[None]))).item()
    assert proxy_lpips(phi, a, b) == direct  # bit-for-bit, same definition


def test_direction_conventions_under_noise_sweep():
    phi = FeatureExtractor(seed=22)
    rng = np.random.default_rng(11)
    for trial in range(10):
        clean = rng.uniform(-0.6, 0.6, (3, 16, 16))
        noise = rng.standard_normal((3, 16, 16))
        ms, ps, ss, lp = [], [], [], []
        for lvl in np.linspace(0.0, 0.4, 20):
            noisy = np.clip(clean + lvl * noise, -1, 1)
            ms.append(mse(clean, noisy))
            ps.append(psnr(clean, noisy))
            ss.append(ssim(clean, noisy))
            lp.append(proxy_lpips(phi, clean, noisy))
        assert all(a <= b + 1e-12 for a, b in zip(ms, ms[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))
        # ssim/lpips monotone in the aggregate, allow tiny local wiggles
        assert ss[0] > ss[-1] and np.mean(np.diff(ss) <= 1e-6) > 0.8
        assert lp[-1] > lp[0]


def test_report_identity_suite_and_mean():
    phi = FeatureExtractor(seed=23)
    report = MetricReport(phi_seed=23)
    x = rand_img(12)
    report.add(0, 0, **metrics.score_pair(phi, x, x))
    assert report.rows[0]["mse"] == 0.0
    assert report.rows[0]["psnr"] == math.inf
    assert report.rows[0]["ssim"] == pytest.approx(1.0, abs=1e-12)
    assert report.rows[0]["proxy_lpips"] == 0.0

    report.add(0, 1, mse=0.02, psnr=16.9897, ssim=0.5, proxy_lpips=0.1)
    assert report.mean("mse") == pytest.approx((0.0 + 0.02) / 2, abs=1e-15)
    # infinite psnr is excluded, counted separately
    assert report.mean("psnr") == pytest.approx(16.9897)
    assert report.finite_count("psnr") == 1


def test_report_csv_round_trip(tmp_path):
    phi = FeatureExtractor(seed=24)
    scene = synth_scene(600, scene_id=0, height=16, width=16)
    ep = sample_episode(scene, n_shot=1, n_test=3, seed=0)
    rng = np.random.default_rng(13)

    def generate(sample):
        return np.clip(sample.y + 0.05 * rng.standard_normal(sample.y.shape), -1, 1)

    report = MetricReport(phi_seed=24)
    for idx, sample in enumerate(ep.test):
        report.add(ep.scene_id, idx, **metrics.score_pair(phi, generate(sample), sample.y))
    path = tmp_path / "per_sample.csv"
    report.write_csv(str(path))
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == report.count
    assert list(rows[0]) == ["scene_id", "sample_idx", *MetricReport.METRICS]
    for a, b in zip(report.rows, rows):
        assert a == {"scene_id": int(b["scene_id"]), "sample_idx": int(b["sample_idx"]),
                     **{m: float(b[m]) for m in MetricReport.METRICS}}


def test_mean_matches_hand_average():
    report = MetricReport(phi_seed=0)
    report.add(0, 0, mse=0.1, psnr=10.0, ssim=0.9, proxy_lpips=0.3)
    report.add(1, 0, mse=0.3, psnr=5.2288, ssim=0.7, proxy_lpips=0.5)
    assert report.mean("mse") == pytest.approx(0.2, abs=1e-12)
    assert report.mean("ssim") == pytest.approx(0.8, abs=1e-12)
