"""Scene synthesis, rendering, augmentation, episodes, retrieval, result
images and the dataset manifest."""

import hashlib

import numpy as np
import pytest

from biltrans import tasks
from biltrans.tasks import (
    COLOR_MIN_DIST,
    SegMap,
    augment,
    flip_horizontal,
    render,
    render_target,
    retrieve_topk,
    sample_episode,
    similarity,
    synth_scene,
)
from biltrans.tensor import TensorError


def test_synth_scene_deterministic():
    a = synth_scene(42, scene_id=3)
    b = synth_scene(42, scene_id=3)
    assert np.array_equal(a.colors, b.colors)
    assert a.shade_freq == b.shade_freq and a.shade_phase == b.shade_phase


def test_color_distinctness_invariant_sweep():
    for seed in range(100):
        scene = synth_scene(seed)
        c = scene.colors
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                assert np.max(np.abs(c[i] - c[j])) >= COLOR_MIN_DIST
        assert scene.shade_amp <= 0.3


def test_cluster_palettes_closer_within_than_across():
    within, across = [], []
    for s in range(50):
        a = synth_scene(1000 + s, cluster=0, cluster_space_seed=9)
        b = synth_scene(2000 + s, cluster=0, cluster_space_seed=9)
        c = synth_scene(3000 + s, cluster=1, cluster_space_seed=9)
        within.append(np.linalg.norm(a.colors - b.colors))
        across.append(np.linalg.norm(a.colors - c.colors))
    assert np.mean(within) < np.mean(across)


def _pairwise_draw_distinct_colors(rng, classes, bound, min_dist):
    # the palette draw checked pair by pair, as the oracle of the vectorised one
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


def _scene_bytes(scene):
    anchors = b"" if scene.anchors is None else scene.anchors.tobytes()
    knobs = (scene.shade_freq, scene.shade_phase, scene.shade_amp, scene.n_shapes_range, scene.size_range)
    return scene.colors.tobytes() + anchors + repr(knobs).encode()


def test_memoised_vectorised_synthesis_matches_pairwise_loop(monkeypatch):
    # 300 scenes over 20 clusters (and unclustered ones), at 3 to 6 classes
    def args(i):
        return 500 + i, (None if i % 5 == 0 else i % 20), 3 + i % 4

    new = [synth_scene(seed, cluster, scene_id=i, classes=classes, cluster_space_seed=4)
           for i, (seed, cluster, classes) in enumerate(map(args, range(300)))]
    monkeypatch.setattr(tasks, "_draw_distinct_colors", _pairwise_draw_distinct_colors)
    monkeypatch.setattr(tasks, "cluster_centroids", tasks.cluster_centroids.__wrapped__)
    old = [synth_scene(seed, cluster, scene_id=i, classes=classes, cluster_space_seed=4)
           for i, (seed, cluster, classes) in enumerate(map(args, range(300)))]
    assert [_scene_bytes(s) for s in new] == [_scene_bytes(s) for s in old]


def test_cluster_centroids_are_shared_and_read_only():
    first = tasks.cluster_centroids(4, 2, 5)
    assert tasks.cluster_centroids(4, 2, 5) is first
    for arr in first[:2]:
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def test_render_deterministic():
    scene = synth_scene(7, scene_id=1)
    s1 = render(scene, layout_seed=5)
    s2 = render(scene, layout_seed=5)
    assert np.array_equal(s1.x_struct.labels, s2.x_struct.labels)
    assert np.array_equal(s1.y, s2.y)
    assert np.array_equal(s1.x_ref, s2.x_ref)


def test_render_pixel_values_match_palette_plus_shading():
    scene = synth_scene(8, scene_id=2)
    sample = render(scene, layout_seed=1)
    labels = sample.x_struct.labels
    for c in range(scene.classes):
        mask = labels == c
        if not mask.any():
            continue
        diff = sample.y[:, mask] - scene.colors[c][:, None]
        assert np.all(np.abs(diff) <= scene.shade_amp + 1e-12)


def test_render_histogram_support_oracle():
    # every pixel value must lie inside the palette +- amplitude support
    for seed in range(100):
        scene = synth_scene(300 + seed, scene_id=seed, height=16, width=16)
        sample = render(scene, layout_seed=0, with_reference=False)
        support_lo = scene.colors.min() - scene.shade_amp
        support_hi = scene.colors.max() + scene.shade_amp
        assert sample.y.min() >= support_lo - 1e-12
        assert sample.y.max() <= support_hi + 1e-12


def test_reference_is_same_scene_augmentation():
    scene = synth_scene(9, scene_id=0)
    sample = render(scene, layout_seed=2)
    # reference pixels come from the rendered target, so they live in the
    # same palette support
    lo = scene.colors.min() - scene.shade_amp
    hi = scene.colors.max() + scene.shade_amp
    assert sample.x_ref.min() >= lo - 1e-12 and sample.x_ref.max() <= hi + 1e-12


# sha256 prefixes of augment's (image, labels) output for seeds 0-19; they pin
# its draws (flip, then rotation, then crop) and so every reference image
AUGMENT_DIGESTS = [
    "982f494261740ac5", "8b7773895af056b9", "9eb802ed0f9b1644", "47f4f5018ff31ae4",
    "93c8fcf3eeebd323", "30cb1c09e8c8ddfd", "1bb130c4f55921ef", "bb0d5dc5c5e7761f",
    "f3d4d28c37aa83c1", "ad2df5addfa1b268", "42114eaa7f0851e4", "226d1530544366fb",
    "f3d4d28c37aa83c1", "0462d761a0111f13", "4ba5c833444070a4", "5c79a8ae5ba27e9e",
    "d4440058524cdbf5", "7d4183b5b7fdb7a7", "7aff1b52193eaf81", "f663b2f0e58c5c4c",
]


def test_augment_golden_digests():
    img = np.random.default_rng(0).uniform(-1, 1, (3, 12, 16))
    labels = np.random.default_rng(1).integers(0, 5, (12, 16))
    got = []
    for seed in range(len(AUGMENT_DIGESTS)):
        out_img, out_lab = augment(img, labels, seed)
        blob = out_img.astype("<f8").tobytes() + out_lab.astype("<i8").tobytes()
        got.append(hashlib.sha256(blob).hexdigest()[:16])
    assert got == AUGMENT_DIGESTS


def test_double_flip_is_identity():
    img = np.random.default_rng(2).uniform(-1, 1, (3, 8, 8))
    labels = np.random.default_rng(3).integers(0, 5, (8, 8))
    i2, l2 = flip_horizontal(*flip_horizontal(img, labels))
    assert np.array_equal(i2, img)
    assert np.array_equal(l2, labels)


def test_flip_preserves_class_histogram():
    labels = np.random.default_rng(4).integers(0, 5, (16, 16))
    img = np.zeros((3, 16, 16))
    _, flipped = flip_horizontal(img, labels)
    assert np.array_equal(np.bincount(labels.ravel(), minlength=5),
                          np.bincount(flipped.ravel(), minlength=5))


def test_augment_misaligned_shapes_rejected():
    with pytest.raises(TensorError):
        augment(np.zeros((3, 8, 8)), np.zeros((9, 8), dtype=int), seed=0)


def test_episode_cardinality_and_disjoint_layouts():
    scene = synth_scene(11, scene_id=4)
    ep = sample_episode(scene, n_shot=1, n_test=3, seed=10)
    assert len(ep.train) == 1 and len(ep.test) == 3
    ep5 = sample_episode(scene, n_shot=5, n_test=2, seed=10)
    assert len(ep5.train) == 5
    # same scene, same seed: train and test layouts never coincide
    tr = {s.x_struct.labels.tobytes() for s in ep5.train}
    te = {s.x_struct.labels.tobytes() for s in ep5.test}
    assert not (tr & te)


def test_episode_invalid_shots_rejected():
    scene = synth_scene(12)
    with pytest.raises(TensorError):
        sample_episode(scene, n_shot=3, n_test=1, seed=0)
    with pytest.raises(TensorError):
        sample_episode(scene, n_shot=1, n_test=0, seed=0)


def test_episode_samples_rerender_identically():
    scene = synth_scene(13, scene_id=6)
    ep = sample_episode(scene, n_shot=5, n_test=2, seed=20)
    for sample in ep.train + ep.test:
        again = render_target(scene, sample.x_struct.labels)
        assert np.array_equal(again, sample.y)


def seg(labels, classes=5):
    return SegMap(np.asarray(labels, dtype=np.int64), classes)


def test_similarity_identical_maps_counts_present_classes():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, (8, 8))  # classes 0..2 present (almost surely)
    m = seg(labels)
    k = len(np.unique(labels))
    assert similarity(m, m) == pytest.approx(k)


def test_similarity_fully_disjoint_is_zero():
    a = seg(np.zeros((4, 4), dtype=int), classes=2)
    b = seg(np.ones((4, 4), dtype=int), classes=2)
    assert similarity(a, b) == 0.0


def test_similarity_matches_set_counting_oracle():
    rng = np.random.default_rng(6)
    for _ in range(200):
        la = rng.integers(0, 5, (8, 8))
        lb = rng.integers(0, 5, (8, 8))
        got = similarity(seg(la), seg(lb))
        expect = 0.0
        for c in range(5):
            inter = sum(1 for p in range(64) if la.ravel()[p] == c and lb.ravel()[p] == c)
            union = sum(1 for p in range(64) if la.ravel()[p] == c or lb.ravel()[p] == c)
            if union:
                expect += inter / union
        assert got == pytest.approx(expect, abs=0)


def test_similarity_symmetric_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = seg(rng.integers(0, 5, (8, 8)))
        b = seg(rng.integers(0, 5, (8, 8)))
        assert similarity(a, b) == similarity(b, a)
        assert 0.0 <= similarity(a, b) <= 5.0


def test_similarity_shape_and_class_mismatch_rejected():
    with pytest.raises(TensorError):
        similarity(seg(np.zeros((4, 4), dtype=int)), seg(np.zeros((5, 4), dtype=int)))
    with pytest.raises(TensorError):
        similarity(seg(np.zeros((4, 4), dtype=int), 5), seg(np.zeros((4, 4), dtype=int), 4))


def _episode_pool(n, seed, height=8, width=8):
    eps = []
    for i in range(n):
        scene = synth_scene(seed + i, scene_id=i, height=height, width=width)
        eps.append(sample_episode(scene, n_shot=1, n_test=1, seed=seed + i))
    return eps


def test_retrieve_all_returns_everything():
    pool = _episode_pool(6, 100)
    query = pool[2].train[0].x_struct
    got = retrieve_topk(query, pool, k=6)
    assert {e.scene_id for e in got} == {e.scene_id for e in pool}


def test_retrieve_planted_duplicate_ranks_first():
    pool = _episode_pool(8, 200)
    query = pool[5].train[0].x_struct
    got = retrieve_topk(query, pool, k=3)
    assert got[0].scene_id == pool[5].scene_id


def test_retrieve_matches_full_sort_oracle():
    rng = np.random.default_rng(8)
    for trial in range(200):
        pool = _episode_pool(7, 1000 + 10 * trial)
        query = seg(rng.integers(0, 5, (8, 8)))
        k = int(rng.integers(1, 8))
        got = retrieve_topk(query, pool, k)
        ranked = sorted(pool, key=lambda t: (-similarity(query, t.train[0].x_struct), t.scene_id))
        assert [t.scene_id for t in got] == [t.scene_id for t in ranked[:k]]


def test_retrieve_invalid_k_rejected():
    pool = _episode_pool(3, 300)
    query = pool[0].train[0].x_struct
    with pytest.raises(TensorError):
        retrieve_topk(query, pool, 0)
    with pytest.raises(TensorError):
        retrieve_topk(query, pool, 4)


def test_netpbm_round_trip(tmp_path):
    scene = synth_scene(14, scene_id=0, height=16, width=16)
    sample = render(scene, 0)
    img_path = tmp_path / "m.ppm"
    tasks.write_ppm(str(img_path), sample.y)
    img_back = tasks.read_ppm(str(img_path), 16)
    assert np.max(np.abs(img_back - sample.y)) <= 1.0 / 255.0 + 1e-12
    # a second export of the loaded image is byte-identical
    img_path2 = tmp_path / "m2.ppm"
    tasks.write_ppm(str(img_path2), img_back)
    assert img_path.read_bytes() == img_path2.read_bytes()


def test_dataset_export_and_manifest_reload(tmp_path):
    knobs = dict(classes=4, height=16, width=24, shade_amp_max=0.2, cluster_space_seed=77)
    rows = [(3, 500, None), (10_004, 501, 2)]
    text = tasks.manifest_text(knobs, rows)
    assert text == (
        b"# scene translation dataset, format v2\n"
        b"classes = 4\nheight = 16\nwidth = 24\nshade_amp_max = 0.2\ncluster_space_seed = 77\n"
        b"scene 3 seed=500 cluster=none\nscene 10004 seed=501 cluster=2\n")
    tasks.export_dataset(str(tmp_path), knobs, rows)
    assert (tmp_path / "dataset.manifest").read_bytes() == text
    assert tasks.load_manifest(str(tmp_path)) == text
