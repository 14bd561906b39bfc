"""Scene synthesis, rendering, augmentation, episodes, retrieval, result
images and the dataset manifest."""

import dataclasses

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


def test_augment_identity_path():
    img = np.random.default_rng(0).uniform(-1, 1, (3, 16, 16))
    labels = np.random.default_rng(1).integers(0, 5, (16, 16))
    out_img, out_lab = augment(img, labels, seed=3, flip=False, rotate=False, crop=False)
    assert np.array_equal(out_img, img)
    assert np.array_equal(out_lab, labels)


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
    img_back = tasks.read_ppm(str(img_path))
    assert np.max(np.abs(img_back - sample.y)) <= 1.0 / 255.0 + 1e-12
    # a second export of the loaded image is byte-identical
    img_path2 = tmp_path / "m2.ppm"
    tasks.write_ppm(str(img_path2), img_back)
    assert img_path.read_bytes() == img_path2.read_bytes()


def _assert_same_scenes(expect, got):
    assert len(got) == len(expect)
    for a, b in zip(expect, got):
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), f.name
            else:
                assert va == vb, f.name


def test_dataset_export_and_manifest_reload(tmp_path):
    kw = dict(height=16, width=24, classes=4, shade_amp_max=0.2, cluster_space_seed=77)
    scenes = [synth_scene(500, None, scene_id=3, **kw), synth_scene(501, 2, scene_id=10_004, **kw)]
    assert scenes[0].anchors is None and scenes[1].anchors is not None
    tasks.export_dataset(str(tmp_path / "new"), scenes, shade_amp_max=0.2, cluster_space_seed=77)
    _assert_same_scenes(scenes, tasks.load_manifest(str(tmp_path / "new")))

    # a manifest in the earlier format, which listed exported sample files
    # and three more header keys, loads to the same scenes
    old = tmp_path / "old"
    old.mkdir()
    (old / "dataset.manifest").write_text(
        "# scene translation dataset, format v1\n"
        "classes = 4\nheight = 16\nwidth = 24\nsamples_per_scene = 1\n"
        "with_reference = true\nallow_flip = true\nshade_amp_max = 0.2\n"
        "cluster_space_seed = 77\n"
        "scene 3 seed=500 cluster=none files=scene_00003/s000.seg.pgm,"
        "scene_00003/s000.tgt.ppm,scene_00003/s000.ref.ppm\n"
        "scene 10004 seed=501 cluster=2 files=scene_10004/s000.seg.pgm,"
        "scene_10004/s000.tgt.ppm,scene_10004/s000.ref.ppm\n"
    )
    _assert_same_scenes(scenes, tasks.load_manifest(str(old)))
