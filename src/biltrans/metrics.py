"""Evaluation metrics: MSE, PSNR, SSIM and the proxy perceptual distance.

Inputs are channels-first images in [-1, 1]; MSE/PSNR/SSIM are computed on
the rescaled [0, 1] range. The proxy perceptual distance is the losses
module's perceptual loss evaluated with a shared frozen extractor, one
definition with two call sites.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .losses import FeatureExtractor, perceptual_loss
from .tensor import TensorError

SSIM_WINDOW = 7
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
LUMA = np.array([0.299, 0.587, 0.114])


def _to_unit(img):
    return (np.asarray(img, dtype=np.float64) + 1.0) / 2.0


def _check_pair(name, a, b):
    if a.shape != b.shape:
        raise TensorError(f"{name}: shapes {a.shape} vs {b.shape}")


def mse(pred, target) -> float:
    _check_pair("mse", pred, target)
    d = _to_unit(pred) - _to_unit(target)
    return float(np.mean(d * d))


def psnr(pred, target) -> float:
    """Peak 1.0 on the [0, 1] scale; identical images give math.inf."""
    m = mse(pred, target)
    if m == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / m)


def _gaussian_kernel(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def _luma(img):
    return np.tensordot(LUMA, _to_unit(img), axes=(0, 0))


def _windows(x, size):
    from numpy.lib.stride_tricks import sliding_window_view

    return sliding_window_view(x, (size, size))


def ssim(pred, target) -> float:
    """Mean local SSIM over valid Gaussian windows of the luma channel."""
    _check_pair("ssim", pred, target)
    x = _luma(pred)
    y = _luma(target)
    if x.shape[0] < SSIM_WINDOW or x.shape[1] < SSIM_WINDOW:
        raise TensorError(f"ssim: image {x.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    w = _gaussian_kernel()
    wx = _windows(x, SSIM_WINDOW)
    wy = _windows(y, SSIM_WINDOW)
    mu_x = np.einsum("ijkl,kl->ij", wx, w)
    mu_y = np.einsum("ijkl,kl->ij", wy, w)
    xx = np.einsum("ijkl,kl->ij", wx * wx, w)
    yy = np.einsum("ijkl,kl->ij", wy * wy, w)
    xy = np.einsum("ijkl,kl->ij", wx * wy, w)
    var_x = xx - mu_x * mu_x
    var_y = yy - mu_y * mu_y
    cov = xy - mu_x * mu_y
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def proxy_lpips(phi: FeatureExtractor, pred, target) -> float:
    """Perceptual distance under the shared frozen extractor."""
    return perceptual_loss(phi, T.constant(pred[None]), T.constant(target[None])).item()


@dataclass
class MetricReport:
    phi_seed: int
    rows: list = field(default_factory=list)  # dicts: scene_id, sample_idx, mse, psnr, ssim, proxy_lpips

    METRICS = ("mse", "psnr", "ssim", "proxy_lpips")

    def add(self, scene_id, sample_idx, **values):
        row = {"scene_id": int(scene_id), "sample_idx": int(sample_idx)}
        row.update({k: float(values[k]) for k in self.METRICS})
        self.rows.append(row)

    @property
    def count(self) -> int:
        return len(self.rows)

    def mean(self, metric: str) -> float:
        """Arithmetic mean over samples; infinite PSNR entries are excluded."""
        vals = [r[metric] for r in self.rows]
        finite = [v for v in vals if math.isfinite(v)]
        if not finite:
            return math.inf if metric == "psnr" else float("nan")
        return sum(finite) / len(finite)

    def finite_count(self, metric: str) -> int:
        return sum(1 for r in self.rows if math.isfinite(r[metric]))

    def summary(self) -> dict:
        out = {"phi_seed": self.phi_seed, "count": self.count}
        for m in self.METRICS:
            out[f"mean_{m}"] = self.mean(m)
            if self.finite_count(m) != self.count:
                out[f"finite_{m}"] = self.finite_count(m)
        return out

    def write_csv(self, path: str):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["scene_id", "sample_idx", *self.METRICS])
            for r in self.rows:
                w.writerow([r["scene_id"], r["sample_idx"], *(repr(r[m]) for m in self.METRICS)])

    def write_json(self, path: str):
        with open(path, "w") as f:
            json.dump(self.summary(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def read_csv(cls, path: str, phi_seed: int) -> "MetricReport":
        report = cls(phi_seed=phi_seed)
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                report.add(
                    row["scene_id"], row["sample_idx"],
                    **{m: float(row[m]) for m in cls.METRICS},
                )
        return report


def score_pair(phi: FeatureExtractor, pred, target) -> dict:
    return {
        "mse": mse(pred, target),
        "psnr": psnr(pred, target),
        "ssim": ssim(pred, target),
        "proxy_lpips": proxy_lpips(phi, pred, target),
    }


def evaluate_suite(generate, episodes, phi: FeatureExtractor) -> MetricReport:
    """Score ``generate(sample) -> image`` on every test sample of every episode."""
    report = MetricReport(phi_seed=phi.seed)
    for ep in episodes:
        for idx, sample in enumerate(ep.test):
            pred = generate(sample)
            report.add(ep.scene_id, idx, **score_pair(phi, pred, sample.y))
    return report
