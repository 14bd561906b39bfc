"""Procedural scene-translation tasks.

A scene is a palette plus sinusoidal shading plus a layout style; a sample
is (structure map, optional reference image, target image) where the
target is the exact deterministic render of the structure map under the
scene. Scenes can be drawn near cluster centroids so that structurally
similar scenes also look similar, which is what makes retrieval-based
auxiliary fine-tuning meaningful.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .rng import stream
from .tensor import TensorError

COLOR_BOUND = 0.65  # palette values stay inside +-0.65 so shading never clips
COLOR_MIN_DIST = 0.2  # required pairwise L-inf distance between class colors
CLUSTER_JITTER = 0.1


@dataclass(frozen=True)
class SegMap:
    labels: np.ndarray  # (H, W) int class indices
    classes: int

    def __post_init__(self):
        if self.labels.min() < 0 or self.labels.max() >= self.classes:
            raise TensorError("SegMap: class index out of range")

    @property
    def shape(self):
        return self.labels.shape

    def one_hot(self) -> np.ndarray:
        return np.eye(self.classes, dtype=np.float64)[self.labels].transpose(2, 0, 1)


@dataclass(frozen=True)
class SceneSpec:
    scene_id: int
    seed: int
    height: int
    width: int
    colors: np.ndarray  # (classes, 3) in [-COLOR_BOUND, COLOR_BOUND]
    shade_freq: tuple  # cycles across the image, (fx, fy)
    shade_phase: float
    shade_amp: float
    cluster: int | None = None
    anchors: np.ndarray | None = None  # (classes-1, 2) normalized shape centers
    n_shapes_range: tuple = (2, 5)
    size_range: tuple = (0.12, 0.3)

    @property
    def classes(self) -> int:
        return len(self.colors)


@dataclass
class TranslationSample:
    x_struct: SegMap
    x_ref: np.ndarray | None  # (3, H, W) or None in structure-only mode
    y: np.ndarray  # (3, H, W)
    _cache: tuple = field(default=None, repr=False, compare=False)

    def tensors(self):
        """(one-hot structure, reference, target) as read-only batch-of-one
        Tensors, each (1, C, H, W)."""
        if self._cache is None:
            ref = None if self.x_ref is None else T.constant(self.x_ref[None])
            self._cache = (T.constant(self.x_struct.one_hot()[None]), ref, T.constant(self.y[None]))
        return self._cache


def stack_samples(samples):
    """One (structure, reference or None, target) batch of Tensors, the
    samples of a list stacked along the leading axis; a batch triple passes
    through unchanged."""
    if isinstance(samples, tuple):
        return samples
    xs, xr, y = zip(*(s.tensors() for s in samples))

    def cat(ts):
        return T.constant(np.concatenate([t.data for t in ts]))

    return cat(xs), None if xr[0] is None else cat(xr), cat(y)


@dataclass
class TaskEpisode:
    scene: SceneSpec
    train: list  # TranslationSample
    test: list

    @property
    def scene_id(self) -> int:
        return self.scene.scene_id


def _draw_distinct_colors(rng, classes, bound, min_dist):
    for _ in range(1000):
        colors = rng.uniform(-bound, bound, size=(classes, 3))
        ok = True
        for i in range(classes):
            for j in range(i + 1, classes):
                if np.max(np.abs(colors[i] - colors[j])) < min_dist:
                    ok = False
        if ok:
            return colors
    raise TensorError("could not draw a distinct palette")


def cluster_centroids(cluster_space_seed: int, cluster: int, classes: int):
    """Shared palette centroid and layout anchors for one cluster."""
    rng = stream(cluster_space_seed, "cluster", cluster)
    centroid = _draw_distinct_colors(rng, classes, COLOR_BOUND - CLUSTER_JITTER, 0.45)
    anchors = rng.uniform(0.2, 0.8, size=(classes - 1, 2))
    lo = int(rng.integers(2, 4))
    n_range = (lo, lo + 1)
    size_lo = float(rng.uniform(0.12, 0.18))
    return centroid, anchors, n_range, (size_lo, size_lo + 0.1)


def synth_scene(seed: int, cluster: int | None = None, *, scene_id: int = 0,
                height: int = 32, width: int = 32, classes: int = 5,
                shade_amp_max: float = 0.3, cluster_space_seed: int = 0) -> SceneSpec:
    """Deterministic scene from a seed, optionally near a cluster centroid."""
    rng = stream(seed, "scene")
    if cluster is None:
        colors = _draw_distinct_colors(rng, classes, COLOR_BOUND, COLOR_MIN_DIST)
        anchors = None
        n_range, size_range = (2, 5), (0.12, 0.3)
    else:
        centroid, anchors, n_range, size_range = cluster_centroids(cluster_space_seed, cluster, classes)
        colors = np.clip(centroid + rng.uniform(-CLUSTER_JITTER, CLUSTER_JITTER, size=centroid.shape),
                         -COLOR_BOUND, COLOR_BOUND)
        anchors = np.clip(anchors + rng.uniform(-0.05, 0.05, size=anchors.shape), 0.1, 0.9)
    return SceneSpec(
        scene_id=scene_id,
        seed=int(seed),
        height=height,
        width=width,
        colors=colors,
        shade_freq=(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))),
        shade_phase=float(rng.uniform(0, 2 * np.pi)),
        shade_amp=float(rng.uniform(0.05, shade_amp_max)),
        cluster=cluster,
        anchors=anchors,
        n_shapes_range=n_range,
        size_range=size_range,
    )


def _paint_layout(scene: SceneSpec, rng) -> np.ndarray:
    h, w = scene.height, scene.width
    labels = np.zeros((h, w), dtype=np.int64)
    yy, xx = np.mgrid[0:h, 0:w]
    lo, hi = scene.n_shapes_range
    n_shapes = int(rng.integers(lo, hi + 1))
    for _ in range(n_shapes):
        cls = int(rng.integers(1, scene.classes))
        if scene.anchors is None:
            cy, cx = rng.uniform(0.15, 0.85, size=2)
        else:
            ay, ax = scene.anchors[cls - 1]
            cy = float(np.clip(ay + rng.uniform(-0.08, 0.08), 0.05, 0.95))
            cx = float(np.clip(ax + rng.uniform(-0.08, 0.08), 0.05, 0.95))
        ry = rng.uniform(*scene.size_range) * h
        rx = rng.uniform(*scene.size_range) * w
        cy, cx = cy * h, cx * w
        if rng.random() < 0.5:  # rectangle
            mask = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
        else:  # ellipse
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        labels[mask] = cls
    return labels


def _shading(scene: SceneSpec) -> np.ndarray:
    h, w = scene.height, scene.width
    v = np.arange(h)[:, None] / h
    u = np.arange(w)[None, :] / w
    fx, fy = scene.shade_freq
    return scene.shade_amp * np.sin(2 * np.pi * (fx * u + fy * v) + scene.shade_phase)


def render_target(scene: SceneSpec, labels: np.ndarray) -> np.ndarray:
    """Exact target image: per-pixel class color plus scene shading."""
    img = scene.colors[labels].transpose(2, 0, 1)
    return img + _shading(scene)[None, :, :]


def render(scene: SceneSpec, layout_seed: int, with_reference: bool = True,
           allow_flip: bool = True) -> TranslationSample:
    """One deterministic sample of the scene: structure, reference, target."""
    rng = stream(scene.seed, "render", layout_seed)
    labels = _paint_layout(scene, rng)
    y = render_target(scene, labels)
    x_ref = None
    if with_reference:
        ref_seed = int(rng.integers(0, 2**63 - 1))
        x_ref, _ = augment(y, labels, ref_seed, flip=allow_flip)
    return TranslationSample(x_struct=SegMap(labels, scene.classes), x_ref=x_ref, y=y)


# ---------------------------------------------------------------------------
# geometric augmentation (identical transform for image and labels)


def flip_horizontal(img: np.ndarray, labels: np.ndarray):
    return img[:, :, ::-1].copy(), labels[:, ::-1].copy()


def _rotate_nn(img, labels, degrees):
    h, w = labels.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = np.deg2rad(degrees)
    cos, sin = np.cos(rad), np.sin(rad)
    yy, xx = np.mgrid[0:h, 0:w]
    # inverse map: sample source coordinates for each output pixel
    sy = cos * (yy - cy) + sin * (xx - cx) + cy
    sx = -sin * (yy - cy) + cos * (xx - cx) + cx
    sy = np.clip(np.rint(sy).astype(np.int64), 0, h - 1)
    sx = np.clip(np.rint(sx).astype(np.int64), 0, w - 1)
    return img[:, sy, sx], labels[sy, sx]


def _crop_repad(img, labels, rng, min_scale=0.75):
    h, w = labels.shape
    ch = int(round(h * rng.uniform(min_scale, 1.0)))
    cw = int(round(w * rng.uniform(min_scale, 1.0)))
    r0 = int(rng.integers(0, h - ch + 1))
    c0 = int(rng.integers(0, w - cw + 1))
    pad_img = ((0, 0), (r0, h - ch - r0), (c0, w - cw - c0))
    pad_lab = ((r0, h - ch - r0), (c0, w - cw - c0))
    img2 = np.pad(img[:, r0 : r0 + ch, c0 : c0 + cw], pad_img, mode="edge")
    lab2 = np.pad(labels[r0 : r0 + ch, c0 : c0 + cw], pad_lab, mode="edge")
    return img2, lab2


def augment(img: np.ndarray, labels: np.ndarray, seed: int, *,
            flip: bool = True, rotate: bool = True, crop: bool = True):
    """Random horizontal flip, small rotation and crop-repad, applied
    identically to the image and its structure map (nearest neighbor)."""
    if img.shape[1:] != labels.shape:
        raise TensorError(f"augment: image {img.shape} does not align with labels {labels.shape}")
    rng = stream(seed, "augment")
    out_img, out_lab = img, labels
    if flip and rng.random() < 0.5:
        out_img, out_lab = flip_horizontal(out_img, out_lab)
    if rotate:
        degrees = float(rng.choice([-10.0, 0.0, 10.0]))
        if degrees != 0.0:
            out_img, out_lab = _rotate_nn(out_img, out_lab, degrees)
    if crop:
        out_img, out_lab = _crop_repad(out_img, out_lab, rng)
    return np.ascontiguousarray(out_img), np.ascontiguousarray(out_lab)


# ---------------------------------------------------------------------------
# episodes


def sample_episode(scene: SceneSpec, n_shot: int, n_test: int, seed: int,
                   with_reference: bool = True, allow_flip: bool = True) -> TaskEpisode:
    """Disjoint train/test renders of one scene."""
    if n_shot not in (1, 5):
        raise TensorError(f"sample_episode: n_shot must be 1 or 5, got {n_shot}")
    if n_test < 1:
        raise TensorError("sample_episode: n_test must be >= 1")
    base = int(stream(seed, "episode", scene.scene_id).integers(0, 2**62))
    train = [render(scene, base + 2 * i, with_reference, allow_flip) for i in range(n_shot)]
    test = [render(scene, base + 2 * j + 1, with_reference, allow_flip) for j in range(n_test)]
    return TaskEpisode(scene=scene, train=train, test=test)


# ---------------------------------------------------------------------------
# structure similarity and retrieval


def similarity(a: SegMap, b: SegMap) -> float:
    """Summed per-class IoU; classes absent from both maps contribute 0."""
    if a.shape != b.shape:
        raise TensorError(f"similarity: shapes {a.shape} vs {b.shape}")
    if a.classes != b.classes:
        raise TensorError(f"similarity: class counts {a.classes} vs {b.classes}")
    score = 0.0
    for c in range(a.classes):
        ma = a.labels == c
        mb = b.labels == c
        union = np.logical_or(ma, mb).sum()
        if union:
            score += float(np.logical_and(ma, mb).sum()) / float(union)
    return score


def retrieve_topk(x_uns: SegMap, train_tasks: list, k: int) -> list:
    """The K train episodes most similar to the query structure map.

    Each task is keyed by its first training sample's structure map; ties
    break by ascending scene id.
    """
    if not (1 <= k <= len(train_tasks)):
        raise TensorError(f"retrieve_topk: k={k} out of range for {len(train_tasks)} tasks")
    scored = [
        (-similarity(x_uns, task.train[0].x_struct), task.scene_id, task)
        for task in train_tasks
    ]
    scored.sort(key=lambda item: (item[0], item[1]))
    return [task for _, _, task in scored[:k]]


# ---------------------------------------------------------------------------
# result images (8-bit P6) and the dataset manifest


def write_ppm(path: str, img: np.ndarray):
    """Image in [-1, 1], channels-first, stored as 8-bit P6."""
    arr = np.clip(np.rint((img.transpose(1, 2, 0) + 1.0) * 127.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        f.write(arr.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """8-bit P6 file as a channels-first image in [-1, 1]; a malformed
    header, another magic or a truncated payload raises TensorError naming
    the file."""
    with open(path, "rb") as f:
        data = f.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        # skip whitespace and comments
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P6":
        raise TensorError(f"{path}: expected NetPBM magic b'P6', found {fields[0]!r}")
    try:
        w, h, maxval = (int(f) for f in fields[1:])
        if min(w, h) < 1 or maxval != 255:
            raise ValueError(f"size {w}x{h}, maxval {maxval}")
    except ValueError as e:
        raise TensorError(f"{path}: malformed NetPBM header ({e})") from e
    raw = data[pos + 1 :]  # one whitespace byte after maxval
    count = h * w * 3
    if len(raw) < count:
        raise TensorError(f"{path}: truncated NetPBM payload, {len(raw)} of {count} bytes")
    arr = np.frombuffer(raw, dtype=np.uint8, count=count).reshape(h, w, 3)
    return arr.astype(np.float64).transpose(2, 0, 1) / 127.5 - 1.0


def export_dataset(out_dir: str, scenes: list, shade_amp_max: float = 0.3,
                   cluster_space_seed: int = 0) -> str:
    """Write the manifest that defines a split: the shared scene knobs, then
    one row per scene with the seed and cluster it is synthesized from."""
    os.makedirs(out_dir, exist_ok=True)
    lines = ["# scene translation dataset, format v2"]
    first = scenes[0]
    lines.append(f"classes = {first.classes}")
    lines.append(f"height = {first.height}")
    lines.append(f"width = {first.width}")
    lines.append(f"shade_amp_max = {shade_amp_max!r}")
    lines.append(f"cluster_space_seed = {cluster_space_seed}")
    for scene in scenes:
        cluster = "none" if scene.cluster is None else str(scene.cluster)
        lines.append(f"scene {scene.scene_id} seed={scene.seed} cluster={cluster}")
    manifest = os.path.join(out_dir, "dataset.manifest")
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    return manifest


def load_manifest(data_dir: str) -> list:
    """The scenes of a split, re-synthesized from its manifest; unknown keys
    are ignored, a missing or malformed one raises TensorError naming the file."""
    path = os.path.join(data_dir, "dataset.manifest")
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    header = {}
    scene_rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("scene "):
                scene_rows.append(line)
            else:
                key, _, value = line.partition("=")
                header[key.strip()] = value.strip()
    try:
        classes = int(header["classes"])
        height, width = int(header["height"]), int(header["width"])
        amp = float(header["shade_amp_max"])
        cseed = int(header["cluster_space_seed"])
        scenes = []
        for row in scene_rows:
            parts = row.split()
            scene_id = int(parts[1])
            kv = dict(p.split("=", 1) for p in parts[2:])
            cluster = None if kv["cluster"] == "none" else int(kv["cluster"])
            scenes.append(
                synth_scene(
                    int(kv["seed"]), cluster, scene_id=scene_id, height=height, width=width,
                    classes=classes, shade_amp_max=amp, cluster_space_seed=cseed,
                )
            )
    except KeyError as e:
        raise TensorError(f"{path}: missing key {e.args[0]!r}") from e
    except (IndexError, ValueError) as e:
        raise TensorError(f"{path}: malformed manifest ({e})") from e
    return scenes
