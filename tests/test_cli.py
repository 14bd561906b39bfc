"""Config parsing, checkpoint format, and pipeline orchestration."""

import os
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from biltrans import cli, tasks
from biltrans.checkpoint import (
    MAGIC,
    VERSION,
    build_state,
    load_checkpoint,
    read_checkpoint_arrays,
    save_checkpoint,
)
from biltrans.config import default_config, parse_config, serialize_config
from biltrans.bilevel import metatrain, pretrain
from biltrans.rng import substream_seed
from biltrans.tasks import render, retrieve_topk, sample_episode, similarity
from biltrans.tensor import TensorError

SMOKE = """
# five-minute smoke settings
image_size = 16
classes = 3
base_width = 4
depth = 1
n_train_scenes = 4
n_unseen_scenes = 2
samples_per_scene = 2
pretrain_iters = 6
metatrain_iters = 2
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


# ---------------------------------------------------------------------------
# config


def test_empty_config_gives_recipe_defaults():
    cfg = parse_config("")
    assert cfg.lambda_adv == 10.0
    assert cfg.lambda_perc == 2.0
    assert cfg.alpha == 1e-4
    assert cfg.inner_iters == 20
    assert cfg.meta_batch == 5
    assert cfg.adam_beta1 == 0.5


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(TensorError, match="line 3"):
        parse_config("# comment\nmode = pg2\nwibble = 7\n")


def test_bad_value_rejected_with_line_number():
    with pytest.raises(TensorError, match="line 1"):
        parse_config("pretrain_iters = soon\n")


def test_invalid_n_shot_rejected():
    with pytest.raises(TensorError, match="n_shot"):
        parse_config("n_shot = 3\n")


def test_config_round_trip():
    cfg = parse_config(SMOKE)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_provenance_labels():
    cfg = parse_config("alpha = 0.5\n")
    prov = cfg.provenance()
    assert prov["alpha"] == "user"
    assert prov["lambda_adv"] == "recipe"
    assert prov["out_dir"] == "repo"
    assert "# recipe" in serialize_config(cfg, with_provenance=True)


# every checkpoint and config.resolved embeds this rendering, so any change
# to field order, defaults, provenance or number formatting shows here
DEFAULT_CONFIG_TEXT = """\
mode = pg2  # repo
meta_mode = first-order  # repo
master_seed = 0  # repo
out_dir = runs/out  # repo
image_size = 32  # repo
classes = 5  # repo
base_width = 16  # repo
depth = 3  # repo
n_shot = 5  # repo
n_test = 5  # repo
inner_iters = 20  # recipe
train_inner_iters = 2  # repo
inner_batch = 5  # recipe
meta_batch = 5  # recipe
pretrain_iters = 2000  # repo
metatrain_iters = 1000  # repo
alpha = 0.0001  # recipe
beta = 0.0001  # recipe
adam_beta1 = 0.5  # recipe
adam_beta2 = 0.999  # recipe
adam_eps = 1e-08  # repo
lambda_adv = 10.0  # recipe
lambda_perc = 2.0  # recipe
nonsaturating = false  # repo
phi_seed = 1789  # repo
phi_widths = 8,16,32  # repo
n_train_scenes = 100  # repo
n_unseen_scenes = 20  # repo
clusters = 0  # repo
samples_per_scene = 4  # repo
shade_amp_max = 0.3  # repo
allow_flip = true  # repo
k_aux = 5  # repo
gp_finetune_iters = 50  # repo
jobs = 1  # repo
"""


def test_default_config_serializes_byte_for_byte():
    assert serialize_config(default_config(), with_provenance=True) == DEFAULT_CONFIG_TEXT


# ---------------------------------------------------------------------------
# checkpoints


def smoke_cfg(tmp_path, **over):
    cfg = parse_config(SMOKE)
    from dataclasses import replace

    return replace(cfg, out_dir=str(tmp_path / "run"), **over).validate()


def test_checkpoint_round_trip_bit_identical(tmp_path):
    cfg = smoke_cfg(tmp_path)
    state = build_state(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(state, cfg, path)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert loaded.g_gp.digest() == state.g_gp.digest()
    assert loaded.d_gp.digest() == state.d_gp.digest()
    assert loaded.objective.phi.digest() == state.objective.phi.digest()
    # save -> load -> save produces byte-identical files
    path2 = str(tmp_path / "b.ckpt")
    save_checkpoint(loaded, cfg2, path2)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_corrupted_magic_rejected(tmp_path):
    cfg = smoke_cfg(tmp_path)
    state = build_state(cfg)
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(state, cfg, path)
    blob = bytearray((tmp_path / "c.ckpt").read_bytes())
    blob[:8] = b"NOTCKPT\x00"
    (tmp_path / "c.ckpt").write_bytes(bytes(blob))
    with pytest.raises(TensorError, match="magic"):
        read_checkpoint_arrays(path)


def test_checkpoint_truncation_rejected(tmp_path):
    cfg = smoke_cfg(tmp_path)
    state = build_state(cfg)
    path = str(tmp_path / "d.ckpt")
    save_checkpoint(state, cfg, path)
    blob = (tmp_path / "d.ckpt").read_bytes()
    (tmp_path / "d.ckpt").write_bytes(blob[: len(blob) - 17])
    with pytest.raises(TensorError, match="truncated"):
        read_checkpoint_arrays(path)


def test_checkpoint_with_an_unexpected_array_rejected(tmp_path):
    # a v1 pretraining moment in a v2 file: loading restores every array it holds
    cfg = smoke_cfg(tmp_path)
    path = tmp_path / "extra.ckpt"
    save_checkpoint(build_state(cfg), cfg, str(path))
    name = b"adam_g_pre/t"
    with open(path, "ab") as f:
        f.write(struct.pack("<Q", len(name)) + name + struct.pack("<Q", 0) + struct.pack("<d", 0.0))
    with pytest.raises(TensorError, match="unexpected arrays.*adam_g_pre/t"):
        load_checkpoint(str(path))


def test_checkpoint_dimension_overflow_rejected(tmp_path):
    path = str(tmp_path / "e.ckpt")
    cfg_text = serialize_config(default_config()).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(cfg_text)))
        f.write(cfg_text)
        f.write(struct.pack("<Q", 4))
        f.write(b"evil")
        f.write(struct.pack("<Q", 1))
        f.write(struct.pack("<Q", 2**40))
    with pytest.raises(TensorError, match="overflow"):
        read_checkpoint_arrays(path)


def test_resume_equals_uninterrupted_training(tmp_path):
    cfg = smoke_cfg(tmp_path)
    scenes = cli._scenes(cfg, "train")

    straight = build_state(cfg)
    pretrain(straight, scenes, iters=4)
    metatrain(straight, scenes, cfg.meta_mode, iters=2)

    resumed = build_state(cfg)
    pretrain(resumed, scenes, iters=2)
    path = str(tmp_path / "mid.ckpt")
    save_checkpoint(resumed, cfg, path)
    resumed2, _ = load_checkpoint(path)
    pretrain(resumed2, scenes, iters=4)
    metatrain(resumed2, scenes, cfg.meta_mode, iters=1)
    path2 = str(tmp_path / "mid2.ckpt")
    save_checkpoint(resumed2, cfg, path2)
    resumed3, _ = load_checkpoint(path2)
    metatrain(resumed3, scenes, cfg.meta_mode, iters=2)

    assert resumed3.g_gp.digest() == straight.g_gp.digest()
    assert resumed3.d_gp.digest() == straight.d_gp.digest()
    assert resumed3.adam_g.t == straight.adam_g.t


# ---------------------------------------------------------------------------
# CLI pipeline


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope = 1\n")
    assert run_cli("pretrain", "--config", str(bad)) == 2


BAD_VALUES = [
    ("adam_eps", "0"), ("adam_eps", "nan"), ("adam_beta1", "1.0"), ("adam_beta1", "-0.1"),
    ("adam_beta2", "1.0"), ("alpha", "0"), ("beta", "-1"), ("pretrain_iters", "-1"),
    ("gp_finetune_iters", "-3"), ("classes", "1"), ("base_width", "2"), ("lambda_adv", "nan"),
    ("lambda_perc", "-1"), ("alpha", "inf"), ("beta", "inf"), ("adam_eps", "inf"),
    ("phi_widths", "-4"), ("phi_widths", "8,0"), ("clusters", "-1"), ("depth", "4"),
    ("phi_widths", "4,4,4,4,4"), ("image_size", "6"), ("meta_batch", "5"),
]


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_cli_rejects_invalid_value_at_config_time(key, value, tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {tmp_path / 'run'}\n{key} = {value}\n")
    assert run_cli("gen-data", "--config", str(cfg_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("stage", ["pretrain", "metatrain"])
def test_cli_rejects_negative_iters(stage, tmp_path, capsys):
    out = tmp_path / "run"
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {out}\n")
    assert run_cli("gen-data", "--config", str(cfg_file)) == 0
    if stage == "metatrain":
        assert run_cli("pretrain", "--config", str(cfg_file), "--iters", "0") == 0
    before = sorted(p for p in out.rglob("*"))
    capsys.readouterr()
    assert run_cli(stage, "--config", str(cfg_file), "--iters", "-2") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--iters" in err, err
    assert sorted(p for p in out.rglob("*")) == before


def test_cli_config_not_utf8_exits_2_naming_it(tmp_path, capsys):
    cfg_file = tmp_path / "latin1.cfg"
    cfg_file.write_bytes(SMOKE.encode() + b"# caf\xe9\n" + f"out_dir = {tmp_path / 'run'}\n".encode())
    assert run_cli("gen-data", "--config", str(cfg_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg_file) in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_cli_gen_data_out_is_a_file_exits_2_naming_it(tmp_path, capsys):
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert run_cli("gen-data", "--config", str(cfg_file), "--out", str(taken)) == 2
    err = capsys.readouterr().err
    assert str(taken) in err and "Traceback" not in err, err
    assert taken.read_text() == "not a directory\n"


def test_cli_import_leaves_the_process_pool_unloaded():
    # ``adapt`` imports the pool only for jobs > 1; every other stage skips its cost
    code = ("import sys, biltrans.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_cli_missing_prerequisite_exit_code(tmp_path):
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {tmp_path / 'run'}\n")
    assert run_cli("pretrain", "--config", str(cfg_file)) == 3
    assert run_cli("adapt", "--config", str(cfg_file)) == 3


@pytest.mark.parametrize("mode", ["pg2", "pix2pix"])
def test_cli_full_run_smoke_emits_all_rows(mode, tmp_path, capsys):
    cfg_file = tmp_path / "smoke.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(SMOKE + f"\nout_dir = {out}\n")
    assert run_cli("full-run", "--config", str(cfg_file), "--mode", mode) == 0
    results = out / "results"
    for row in ("baseline", "baseline_shot", "bilevel_noaux", "bilevel"):
        assert (results / f"metrics_{row}.csv").exists()
        assert (results / f"summary_{row}.json").exists()
    table = (results / "comparison.txt").read_text()
    assert all(row in table for row in cli.ROWS)
    assert (out / "checkpoints" / "pretrain.ckpt").exists()
    assert (out / "checkpoints" / "metatrain.ckpt").exists()
    # generated images exist for every unseen scene and test sample
    ppms = list((results / "bilevel").rglob("img_*.ppm"))
    assert len(ppms) == 2 * 2


def test_cli_gen_data_writes_only_the_scene_manifests(tmp_path):
    out = tmp_path / "run"
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {out}\n")
    assert run_cli("gen-data", "--config", str(cfg_file)) == 0
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == ["config.resolved", "data/train/dataset.manifest",
                       "data/unseen/dataset.manifest"]


def test_cli_retrieve_ranks_duplicate_first(tmp_path, capsys):
    cfg_file = tmp_path / "smoke.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(SMOKE + f"\nout_dir = {out}\n")
    assert run_cli("gen-data", "--config", str(cfg_file)) == 0
    capsys.readouterr()
    assert run_cli("retrieve", "--config", str(cfg_file), "--scene", "0") == 0
    printed = capsys.readouterr().out
    assert "rank 1" in printed


@pytest.mark.parametrize("mode", ["pg2", "pix2pix"])
def test_lazy_task_pool_retrieves_and_renders_like_the_eager_pool(mode, monkeypatch):
    cfg = replace(parse_config(SMOKE), mode=mode, n_train_scenes=12, n_unseen_scenes=4,
                  clusters=3, k_aux=3)
    scenes = cli._scenes(cfg, "train")
    eager = [sample_episode(s, cfg.n_shot, cfg.n_test,
                            substream_seed(cfg.master_seed, "train-task", s.scene_id),
                            cfg.with_reference, cfg.allow_flip) for s in scenes]
    train_ids = {s.scene_id for s in scenes}
    rendered = []  # scene ids of training-scene renders
    monkeypatch.setattr(tasks, "render", lambda scene, *a: (
        rendered.append(scene.scene_id) if scene.scene_id in train_ids else None) or render(scene, *a))
    lazy = cli.train_task_pool(cfg, scenes)
    assert rendered == []  # building the pool renders nothing
    retrieved = set()
    for scene in cli._scenes(cfg, "unseen"):
        query = cli.unseen_episode(cfg, scene).key
        got = retrieve_topk(query, lazy, cfg.k_aux)
        retrieved |= {t.scene_id for t in got}
        want = retrieve_topk(query, eager, cfg.k_aux)
        assert [t.scene_id for t in got] == [t.scene_id for t in want]
        assert [similarity(query, t.key) for t in got] == [similarity(query, t.key) for t in want]
        for a, b in zip(got, want):
            for sa, sb in zip(a.train + a.test, b.train + b.test):
                assert np.array_equal(sa.x_struct.labels, sb.x_struct.labels)
                assert np.array_equal(sa.y, sb.y)
                assert (sa.x_ref is None and sb.x_ref is None) or np.array_equal(sa.x_ref, sb.x_ref)
    # only the retrieved tasks were rendered, each once
    assert sorted(rendered) == sorted(i for i in retrieved for _ in range(cfg.n_shot + cfg.n_test))


@pytest.mark.parametrize("scene", ["2", "3", "-1"])
def test_cli_retrieve_rejects_scene_out_of_range(scene, tmp_path, capsys):
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {tmp_path / 'run'}\n")  # 2 unseen scenes
    assert run_cli("gen-data", "--config", str(cfg_file)) == 0
    capsys.readouterr()
    assert run_cli("retrieve", "--config", str(cfg_file), "--scene", scene) == 2
    err = capsys.readouterr().err
    assert "--scene" in err and "Traceback" not in err, err


def test_cli_adapt_before_metatrain_fails_cleanly(tmp_path):
    cfg_file = tmp_path / "smoke.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(SMOKE + f"\nout_dir = {out}\n")
    assert run_cli("gen-data", "--config", str(cfg_file)) == 0
    assert run_cli("pretrain", "--config", str(cfg_file)) == 0
    assert run_cli("adapt", "--config", str(cfg_file)) == 3  # metatrain missing


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {tmp_path / 'run'}\n")

    def explode(cfg, iters=None):
        raise TensorError("conv2d: non-finite value in output")

    monkeypatch.setattr(cli, "cmd_pretrain", explode)
    assert run_cli("pretrain", "--config", str(cfg_file)) == 4


def test_cli_parallel_adapt_matches_serial(tmp_path):
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    for out, jobs in ((serial, "1"), (parallel, "2")):
        argv = ["--config", str(cfg_file), "--out", str(out), "--jobs", jobs]
        for sub in ("gen-data", "pretrain", "metatrain", "adapt"):
            assert run_cli(sub, *argv) == 0
    for ppm in sorted((serial / "results").rglob("*.ppm")):
        rel = ppm.relative_to(serial)
        assert ppm.read_bytes() == (parallel / rel).read_bytes(), rel


def test_cli_meta_mode_override_full_unrolled(tmp_path):
    cfg_file = tmp_path / "smoke.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(SMOKE + f"\nout_dir = {out}\n")
    argv = ["--config", str(cfg_file), "--meta-mode", "full-unrolled"]
    assert run_cli("gen-data", *argv) == 0
    assert run_cli("pretrain", *argv) == 0
    assert run_cli("metatrain", *argv) == 0
    text, _ = read_checkpoint_arrays(str(out / "checkpoints" / "metatrain.ckpt"))
    assert "meta_mode = full-unrolled" in text


def test_cli_interrupt_and_resume_adapt_identical(tmp_path):
    cfg_file = tmp_path / "smoke.cfg"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_file.write_text(SMOKE)

    def run_all(out, split_metatrain):
        argv = ["--config", str(cfg_file), "--out", str(out)]
        assert run_cli("gen-data", *argv) == 0
        assert run_cli("pretrain", *argv) == 0
        if split_metatrain:
            assert run_cli("metatrain", *argv, "--iters", "1") == 0
            assert run_cli("metatrain", *argv) == 0  # resume to target
        else:
            assert run_cli("metatrain", *argv) == 0
        assert run_cli("adapt", *argv) == 0
        assert run_cli("eval", *argv) == 0

    run_all(out_a, split_metatrain=False)
    run_all(out_b, split_metatrain=True)

    for rel in ("results/metrics_bilevel.csv", "results/metrics_baseline.csv",
                "results/comparison.txt"):
        a = (out_a / rel).read_bytes()
        b = (out_b / rel).read_bytes()
        assert a == b, f"{rel} differs between interrupted and straight runs"

    # checkpoints match exactly except for the embedded out_dir line
    text_a, arrays_a = read_checkpoint_arrays(str(out_a / "checkpoints/metatrain.ckpt"))
    text_b, arrays_b = read_checkpoint_arrays(str(out_b / "checkpoints/metatrain.ckpt"))
    strip = lambda t: [l for l in t.splitlines() if not l.startswith("out_dir")]
    assert strip(text_a) == strip(text_b)
    assert list(arrays_a) == list(arrays_b)
    for name in arrays_a:
        assert np.array_equal(arrays_a[name], arrays_b[name]), name

# ---------------------------------------------------------------------------
# malformed inputs end with an exit code and a message naming the file


@pytest.fixture(scope="module")
def adapted_run(tmp_path_factory):
    """A smoke run through `adapt`, shared read-only by the cases below."""
    root = tmp_path_factory.mktemp("adapted")
    cfg_file = root / "smoke.cfg"
    cfg_file.write_text(SMOKE)
    for sub in ("gen-data", "pretrain", "metatrain", "adapt"):
        assert run_cli(sub, "--config", str(cfg_file), "--out", str(root / "run")) == 0
    return cfg_file, root / "run"


def _delete(path):
    path.unlink()


def _drop_manifest_key(path, key="classes"):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(l for l in lines if not l.startswith(f"{key} =")) + "\n")


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-10])


def _resize_manifest_scenes(path):
    text = path.read_text().replace("height = 16", "height = 32").replace("width = 16", "width = 32")
    path.write_text(text)


def _ppm_magic_p5(path):
    path.write_bytes(b"P5" + path.read_bytes()[2:])


def _ppm_maxval_16_bit(path):
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"\n255\n", b"\n65535\n", 1))


def _ppm_width(width):
    def damage(path):
        magic, dims, rest = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join([magic, width + dims[dims.index(b" "):], rest]))
    return damage


def _cut_before_meta_arrays(path):
    # a u64 name length precedes each array name
    blob = path.read_bytes()
    path.write_bytes(blob[: blob.index(b"meta/pretrain_iteration") - 8])


def _manifest_not_utf8(path):
    path.write_bytes(b"# \xff\xfe\n" + path.read_bytes())


def _checkpoint_header_not_utf8(path):
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", 2) + b"\xff\xfe")


def _checkpoint_version_1(path):
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + struct.pack("<I", 1) + blob[12:])


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


BAD_INPUTS = {
    # case: (subcommand, file under the run directory, how it is damaged, exit code)
    "eval-missing-image": ("eval", "results/bilevel/scene_10000/img_001.ppm", _delete, 3),
    "manifest-missing-header-key": ("pretrain", "data/train/dataset.manifest", _drop_manifest_key, 2),
    "unseen-manifest-missing": ("adapt", "data/unseen/dataset.manifest", _delete, 3),
    "truncated-ppm-payload": ("eval", "results/baseline/scene_10001/img_000.ppm", _truncate, 2),
    "checkpoint-cut-at-array-boundary": ("pretrain", "checkpoints/pretrain.ckpt", _cut_before_meta_arrays, 2),
    "manifest-shape-mismatch": ("pretrain", "data/train/dataset.manifest", _resize_manifest_scenes, 2),
    "ppm-wrong-magic": ("eval", "results/baseline/scene_10001/img_001.ppm", _ppm_magic_p5, 2),
    "ppm-malformed-header": ("eval", "results/bilevel/scene_10000/img_000.ppm", _ppm_width(b"w"), 2),
    "ppm-negative-width": ("eval", "results/bilevel/scene_10001/img_000.ppm", _ppm_width(b"-16"), 2),
    "ppm-16-bit-maxval": ("eval", "results/baseline_shot/scene_10000/img_001.ppm", _ppm_maxval_16_bit, 2),
    "manifest-not-utf8": ("pretrain", "data/train/dataset.manifest", _manifest_not_utf8, 2),
    "checkpoint-config-not-utf8": ("pretrain", "checkpoints/pretrain.ckpt", _checkpoint_header_not_utf8, 2),
    "checkpoint-is-directory": ("pretrain", "checkpoints/pretrain.ckpt", _replace_with_directory, 2),
    "checkpoint-v1": ("metatrain", "checkpoints/metatrain.ckpt", _checkpoint_version_1, 2),
}
# what stderr must say besides the path, where a case names it
BAD_INPUT_MESSAGES = {"checkpoint-v1": "unsupported version 1"}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_malformed_input_exit_codes(case, adapted_run, tmp_path, capsys):
    import shutil

    subcommand, rel, damage, code = BAD_INPUTS[case]
    cfg_file, source = adapted_run
    out = tmp_path / "run"
    shutil.copytree(source, out)
    damage(out / rel)
    capsys.readouterr()
    assert run_cli(subcommand, "--config", str(cfg_file), "--out", str(out)) == code
    err = capsys.readouterr().err
    assert str(out / rel) in err and "Traceback" not in err, err
    assert BAD_INPUT_MESSAGES.get(case, "") in err, err


@pytest.mark.parametrize("stage", ["pretrain", "metatrain"])
def test_checkpoint_holds_only_what_the_next_stage_reads(stage, adapted_run):
    _, run = adapted_run
    _, arrays = read_checkpoint_arrays(str(run / "checkpoints" / f"{stage}.ckpt"))
    assert {name.split("/")[0] for name in arrays} == {"g_gp", "d_gp", "adam_g", "adam_d", "meta"}
