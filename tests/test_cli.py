"""Config parsing, checkpoint format, and pipeline orchestration."""

import ast
import dataclasses
import os
import pathlib
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from biltrans import cli, tasks
from biltrans.checkpoint import MAGIC, VERSION, build_state, load_checkpoint, save_checkpoint
from biltrans.config import ExperimentConfig, default_config, parse_config, serialize_config
from biltrans.bilevel import metatrain, pretrain
from biltrans.rng import substream_seed
from biltrans.tasks import render, retrieve_topk, sample_episode, similarity, synth_scene
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
k_aux = 5  # repo
gp_finetune_iters = 50  # repo
"""


def test_default_config_serializes_byte_for_byte():
    assert serialize_config(default_config(), with_provenance=True) == DEFAULT_CONFIG_TEXT


def test_every_config_key_is_read_outside_config():
    # a key that no stage reads changes nothing. A read is an attribute load
    # outside config.py, or one inside a config method that is itself read
    # there (phi_width_list, with_reference); validating a key is not a read.
    def loads(tree):
        return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load)}

    src = pathlib.Path(cli.__file__).parent
    read = set().union(*(loads(ast.parse(p.read_text())) for p in src.glob("*.py")
                         if p.name != "config.py"))
    config_tree = ast.parse((src / "config.py").read_text())
    cls = next(n for n in ast.walk(config_tree)
               if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig")
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name in read and method.name != "validate":
            read |= loads(method)
    # the benchmark's generated config still writes samples_per_scene; the key
    # goes with the next change to the benchmark (ROADMAP item 6)
    unread = {f.name for f in dataclasses.fields(ExperimentConfig)} - read - {"samples_per_scene"}
    assert not unread, f"config keys that no stage reads: {sorted(unread)}"


def test_every_config_key_declares_its_class():
    # a stage that reads a checkpoint requires identity keys to agree with it,
    # meta keys too once it has meta-trained, and takes free keys as given
    classes = {f.name: f.metadata.get("key_class") for f in dataclasses.fields(ExperimentConfig)}
    undeclared = sorted(k for k, c in classes.items() if c not in ("identity", "meta", "free"))
    assert not undeclared, f"config keys without a key class: {undeclared}"
    assert {k for k, c in classes.items() if c == "identity"} == {
        "mode", "master_seed", "image_size", "classes", "base_width", "depth", "n_train_scenes",
        "clusters", "shade_amp_max", "phi_seed", "phi_widths", "lambda_adv", "lambda_perc",
        "nonsaturating"}
    assert {k for k, c in classes.items() if c == "meta"} == {
        "meta_mode", "beta", "meta_batch", "train_inner_iters"}


def test_knobs_are_pinned():
    # a new config key or CLI option is a decision, made by editing this list
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == {
        "mode", "meta_mode", "master_seed", "out_dir", "image_size", "classes", "base_width",
        "depth", "n_shot", "n_test", "inner_iters", "train_inner_iters", "inner_batch",
        "meta_batch", "pretrain_iters", "metatrain_iters", "alpha", "beta", "lambda_adv",
        "lambda_perc", "nonsaturating", "phi_seed", "phi_widths", "n_train_scenes",
        "n_unseen_scenes", "clusters", "samples_per_scene", "shade_amp_max", "k_aux",
        "gp_finetune_iters"}
    options = {o for action in cli.build_parser()._actions for o in action.option_strings}
    assert options - {"-h", "--help"} == {
        "--config", "--seed", "--out", "--mode", "--meta-mode", "--aux", "--iters", "--scene"}


def test_every_module_level_definition_is_used_in_src():
    # a function or class that nothing in src/ names is dead code. A use is a
    # Name, an Attribute or an import alias outside the definition itself;
    # __init__.py's re-exports are not uses.
    src = pathlib.Path(cli.__file__).parent
    defined, used = set(), set()
    for path in src.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.add(own)
            elif path.name == "__init__.py" and isinstance(stmt, ast.ImportFrom):
                continue
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name):
                    name = n.id
                elif isinstance(n, ast.Attribute):
                    name = n.attr
                elif isinstance(n, ast.alias):
                    name = n.name
                else:
                    continue
                if name != own:
                    used.add(name)
    unused = defined - used
    assert not unused, f"definitions that nothing in src/ names: {sorted(unused)}"


def test_every_name_imported_in_src_is_read():
    # no linter runs on this repo: a name that a module imports and never
    # reads is what a move or a deletion left behind
    src = pathlib.Path(cli.__file__).parent
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, f"imported names that their module never reads: {unread}"


def test_every_module_level_name_in_src_is_read():
    # a function, class or constant at a module's top level that no file of
    # src/ or perfbench/ reads is a leftover, or API that only tests use. A
    # read is a loaded Name, an Attribute or an import alias outside the
    # definition itself; dunders are exempt.
    root = pathlib.Path(cli.__file__).parents[2]
    files = sorted((root / "src" / "biltrans").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    defined, read = {}, set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            own = set()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            if path.parent.name == "biltrans":
                defined.update({name: f"{path.name}:{stmt.lineno} {name}" for name in own
                                if not (name.startswith("__") and name.endswith("__"))})
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    name = n.id
                elif isinstance(n, ast.Attribute):
                    name = n.attr
                elif isinstance(n, ast.alias):
                    name = n.name
                else:
                    continue
                if name not in own:
                    read.add(name)
    unread = [where for name, where in sorted(defined.items()) if name not in read]
    assert not unread, f"module-level names that nothing in src/ or perfbench/ reads: {unread}"


# ---------------------------------------------------------------------------
# checkpoints


def smoke_cfg(tmp_path, **over):
    cfg = parse_config(SMOKE)
    from dataclasses import replace

    return replace(cfg, out_dir=str(tmp_path / "run"), **over).validate()


def manifest_scenes(cfg, split):
    # the scenes of a split, synthesized from the config's manifest rows
    knobs, rows = cli._manifest(cfg, split)
    return [synth_scene(seed, cluster, scene_id=scene_id, **knobs) for scene_id, seed, cluster in rows]


def test_checkpoint_round_trip_bit_identical(tmp_path):
    cfg = smoke_cfg(tmp_path)
    state = build_state(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(state, path)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == replace(cfg, out_dir=ExperimentConfig.out_dir)  # a checkpoint holds no path
    assert loaded.g_gp.digest() == state.g_gp.digest()
    assert loaded.d_gp.digest() == state.d_gp.digest()
    assert loaded.objective.phi.params.digest() == state.objective.phi.params.digest()
    # save -> load -> save produces byte-identical files
    path2 = str(tmp_path / "b.ckpt")
    save_checkpoint(loaded, path2)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


# byte offsets in a checkpoint header: the magic, the u32 version, the four
# u64 counters, then the u64 config length
VERSION_AT = len(MAGIC)
CONFIG_LENGTH_AT = VERSION_AT + struct.calcsize("<I4Q")
BODY_MESSAGE = "checkpoint body of"


def test_checkpoint_corrupted_magic_rejected(tmp_path):
    cfg = smoke_cfg(tmp_path)
    state = build_state(cfg)
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(state, path)
    blob = bytearray((tmp_path / "c.ckpt").read_bytes())
    blob[:8] = b"NOTCKPT\x00"
    (tmp_path / "c.ckpt").write_bytes(bytes(blob))
    with pytest.raises(TensorError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    cfg = smoke_cfg(tmp_path)
    state = build_state(cfg)
    path = str(tmp_path / "d.ckpt")
    save_checkpoint(state, path)
    blob = (tmp_path / "d.ckpt").read_bytes()
    (tmp_path / "d.ckpt").write_bytes(blob[: len(blob) - 17])
    with pytest.raises(TensorError, match=BODY_MESSAGE):
        load_checkpoint(path)


def test_checkpoint_with_an_appended_buffer_rejected(tmp_path):
    # one float64 more than the config's state: loading reads every byte it holds
    cfg = smoke_cfg(tmp_path)
    path = tmp_path / "extra.ckpt"
    save_checkpoint(build_state(cfg), str(path))
    with open(path, "ab") as f:
        f.write(struct.pack("<d", 0.0))
    with pytest.raises(TensorError, match=BODY_MESSAGE):
        load_checkpoint(str(path))


def test_checkpoint_load_holds_one_copy(tmp_path):
    # each buffer is read into the built state in place: a load's peak
    # over what it keeps is the state's build, not a second copy of the file
    import tracemalloc

    cfg = parse_config((pathlib.Path(__file__).parents[1] / "configs" / "desk.cfg").read_text())
    state = build_state(replace(cfg, out_dir=str(tmp_path)))
    state.pretrain_iteration, state.meta_iteration = cfg.pretrain_iters, cfg.metatrain_iters
    path = str(tmp_path / "metatrain.ckpt")
    save_checkpoint(state, path)
    del state
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 10**6  # a desk-shape state is over 1 MB
    assert loaded[0].meta_iteration == cfg.metatrain_iters
    assert peak - kept <= 500_000, (kept, peak)


def test_resume_equals_uninterrupted_training(tmp_path):
    cfg = smoke_cfg(tmp_path)
    scenes = manifest_scenes(cfg, "train")

    straight = build_state(cfg)
    pretrain(straight, scenes, iters=4)
    metatrain(straight, scenes, iters=2)

    resumed = build_state(cfg)
    pretrain(resumed, scenes, iters=2)
    path = str(tmp_path / "mid.ckpt")
    save_checkpoint(resumed, path)
    resumed2, _ = load_checkpoint(path)
    pretrain(resumed2, scenes, iters=4)
    metatrain(resumed2, scenes, iters=1)
    path2 = str(tmp_path / "mid2.ckpt")
    save_checkpoint(resumed2, path2)
    resumed3, _ = load_checkpoint(path2)
    metatrain(resumed3, scenes, iters=2)

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
    ("alpha", "0"), ("beta", "-1"), ("pretrain_iters", "-1"),
    ("gp_finetune_iters", "-3"), ("classes", "1"), ("base_width", "2"), ("lambda_adv", "nan"),
    ("lambda_perc", "-1"), ("alpha", "inf"), ("beta", "inf"),
    ("phi_widths", "-4"), ("phi_widths", "8,0"), ("clusters", "-1"), ("depth", "4"),
    ("phi_widths", "4,4,4,4,4"), ("image_size", "6"), ("meta_batch", "5"),
    ("master_seed", "-1"), ("master_seed", str(2**64)), ("phi_seed", "-1"), ("phi_seed", str(2**64)),
]


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_cli_rejects_invalid_value_at_config_time(key, value, tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {tmp_path / 'run'}\n{key} = {value}\n")
    assert run_cli("gen-data", "--config", str(cfg_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_rejects_a_seed_outside_64_bits(seed, tmp_path, capsys):
    # the random streams read a seed's low 64 bits: -1 would reproduce
    # 2**64 - 1 and 2**64 would reproduce 0
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {tmp_path / 'run'}\n")
    assert run_cli("gen-data", "--config", str(cfg_file), "--seed", seed) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "master_seed" in err, err
    assert not (tmp_path / "run").exists()
    assert default_config(master_seed=2**64 - 1, phi_seed=2**64 - 1).master_seed == 2**64 - 1


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


@pytest.mark.parametrize("stage,option", [("full-run", "--iters"), ("adapt", "--scene"), ("gen-data", "--aux")])
def test_cli_rejects_an_option_its_stage_does_not_read(stage, option, tmp_path, capsys):
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {tmp_path / 'run'}\n")
    value = "off" if option == "--aux" else "1"
    assert run_cli(stage, "--config", str(cfg_file), option, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and option in err and stage in err, err
    assert not (tmp_path / "run").exists()


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
    # ``adapt`` imports the pool only when it starts one; every other stage skips its cost
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


def test_cli_gen_data_synthesizes_no_scene(tmp_path, monkeypatch):
    # a split is its config's manifest rows; scenes are synthesized by the
    # stages that read them
    calls = []
    spy = lambda *a, **kw: calls.append(a) or synth_scene(*a, **kw)
    monkeypatch.setattr(cli, "synth_scene", spy)
    monkeypatch.setattr(tasks, "synth_scene", spy)
    assert cli.cmd_gen_data(smoke_cfg(tmp_path)) == 0
    assert calls == []
    assert len(cli._load_scenes(smoke_cfg(tmp_path), "train")) == 4 and len(calls) == 4


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
    scenes = manifest_scenes(cfg, "train")
    eager = [sample_episode(s, cfg.n_shot, cfg.n_test,
                            substream_seed(cfg.master_seed, "train-task", s.scene_id),
                            cfg.with_reference) for s in scenes]
    train_ids = {s.scene_id for s in scenes}
    rendered = []  # scene ids of training-scene renders
    monkeypatch.setattr(tasks, "render", lambda scene, *a: (
        rendered.append(scene.scene_id) if scene.scene_id in train_ids else None) or render(scene, *a))
    lazy = cli.train_task_pool(cfg, scenes)
    assert rendered == []  # building the pool renders nothing
    retrieved = set()
    for scene in manifest_scenes(cfg, "unseen"):
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


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # a step size this large sends the weights past float64 range within a few steps
    cfg_file = tmp_path / "smoke.cfg"
    cfg_file.write_text(SMOKE + f"\nout_dir = {tmp_path / 'run'}\nalpha = 1e300\n")
    assert run_cli("gen-data", "--config", str(cfg_file)) == 0
    capsys.readouterr()
    assert run_cli("pretrain", "--config", str(cfg_file)) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "non-finite" in err and "Traceback" not in err, err


def _cpus(monkeypatch, n):
    # the CPUs adapt may run on, which set its worker count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _fresh_copy(adapted_run, out):
    # the adapted run without its results
    import shutil

    shutil.copytree(adapted_run[1], out, ignore=shutil.ignore_patterns("results"))
    return out


def test_cli_parallel_adapt_matches_serial(adapted_run, tmp_path, monkeypatch):
    import multiprocessing

    serial, parallel = (_fresh_copy(adapted_run, tmp_path / name) for name in ("serial", "parallel"))
    for out, cpus in ((serial, 1), (parallel, 2)):
        _cpus(monkeypatch, cpus)
        assert run_cli("adapt", "--config", str(adapted_run[0]), "--out", str(out)) == 0
    assert multiprocessing.active_children() == []  # the pool's workers are gone
    ppms = sorted(p.relative_to(serial) for p in (serial / "results").rglob("*.ppm"))
    assert len(ppms) == 4 * 2 * 2  # rows x unseen scenes x test samples
    assert ppms == sorted(p.relative_to(parallel) for p in (parallel / "results").rglob("*.ppm"))
    for rel in ppms:
        assert (serial / rel).read_bytes() == (parallel / rel).read_bytes(), rel


def _stand_in_pool(monkeypatch):
    # in place of ProcessPoolExecutor: records the worker count of each pool
    # started, then runs its initializer and jobs in-process
    import concurrent.futures

    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli, "_worker_payload", None)
    return started


def test_cli_adapt_starts_one_worker_per_unseen_scene_at_most(adapted_run, tmp_path, monkeypatch):
    started = _stand_in_pool(monkeypatch)
    _cpus(monkeypatch, 64)
    out = _fresh_copy(adapted_run, tmp_path / "run")
    assert run_cli("adapt", "--config", str(adapted_run[0]), "--out", str(out)) == 0
    assert started == [2]  # the run's two unseen scenes


def test_cli_adapt_on_one_cpu_starts_no_pool(adapted_run, tmp_path):
    # the benchmark's path: a process pinned to one CPU adapts in-process and
    # never imports the pool
    out = _fresh_copy(adapted_run, tmp_path / "run")
    code = ("import os, sys; from biltrans import cli; "
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            f"rc = cli.main(['adapt', '--config', {str(adapted_run[0])!r}, '--out', {str(out)!r}]); "
            "print(rc, sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert got.stdout.strip().splitlines()[-1] == "0 []", got.stdout
    assert len(list((out / "results").rglob("*.ppm"))) == 4 * 2 * 2


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_adapt_loads_each_checkpoint_once(cpus, adapted_run, tmp_path, monkeypatch):
    # the parent loads the inputs and the workers inherit them; forked
    # workers run the spy too, so a load in one would show in the file
    loads = tmp_path / "loads"
    loads.write_text("")

    def spy(path, cfg):
        with open(loads, "a") as f:
            f.write(os.path.basename(path) + "\n")
        return load_checkpoint(path, cfg)

    monkeypatch.setattr(cli, "load_checkpoint", spy)
    _cpus(monkeypatch, cpus)
    out = _fresh_copy(adapted_run, tmp_path / "run")
    assert run_cli("adapt", "--config", str(adapted_run[0]), "--out", str(out)) == 0
    assert sorted(loads.read_text().split()) == ["metatrain.ckpt", "pretrain.ckpt"]


def test_adapt_worker_payload_survives_pickling(adapted_run, monkeypatch):
    # a forkserver or spawn pool pickles the initializer's arguments and each scene
    import pickle

    cfg = replace(parse_config(adapted_run[0].read_text()), out_dir=str(adapted_run[1]))
    rows = cli._rows_for(True)
    inputs = cli._adapt_inputs(cfg, rows)
    scene = cli._load_scenes(cfg, "unseen")[1]
    want = cli.adapt_one_scene(cfg, scene, rows, inputs)
    monkeypatch.setattr(cli, "_worker_payload", None)
    cli._init_worker(*pickle.loads(pickle.dumps((cfg, rows, inputs))))
    got = cli._adapt_in_worker(pickle.loads(pickle.dumps(scene)))
    assert list(got) == rows
    for row in rows:
        assert [img.tobytes() for img in got[row]] == [img.tobytes() for img in want[row]], row


@pytest.mark.parametrize("aux_on", [True, False])
def test_adapt_inputs_hold_only_the_adam_pairs_a_row_continues(aux_on, adapted_run):
    # only the bilevel row's auxiliary fine-tuning continues an Adam pair, the
    # meta-trained one; every row adapts as it does from states that keep both
    cfg = replace(parse_config(adapted_run[0].read_text()), out_dir=str(adapted_run[1]))
    rows = cli._rows_for(aux_on)
    state_pre, state_meta, pool = inputs = cli._adapt_inputs(cfg, rows)
    assert state_pre.adam_g is None and state_pre.adam_d is None
    kept = "bilevel" in rows
    assert (state_meta.adam_g is not None, state_meta.adam_d is not None) == (kept, kept)
    paths = cli._paths(cfg)
    full = (load_checkpoint(paths["pretrain_ckpt"], cfg)[0], load_checkpoint(paths["metatrain_ckpt"], cfg)[0], pool)
    for scene in cli._load_scenes(cfg, "unseen"):
        got, want = cli.adapt_one_scene(cfg, scene, rows, inputs), cli.adapt_one_scene(cfg, scene, rows, full)
        assert list(got) == rows
        for row in rows:
            assert [img.tobytes() for img in got[row]] == [img.tobytes() for img in want[row]], row


def test_cli_resumed_stage_trains_to_the_given_config_target(tmp_path, capsys):
    # a stage resumed under a config with a higher iteration target trains on
    # to that target, not to the one saved in its checkpoint, and ends where
    # a run straight to it ends
    short, full = tmp_path / "short.cfg", tmp_path / "full.cfg"
    short.write_text(SMOKE.replace("pretrain_iters = 6", "pretrain_iters = 2")
                     .replace("metatrain_iters = 2", "metatrain_iters = 1"))
    full.write_text(SMOKE.replace("pretrain_iters = 6", "pretrain_iters = 4"))
    resumed, straight = tmp_path / "resumed", tmp_path / "straight"
    assert run_cli("gen-data", "--config", str(full), "--out", str(resumed)) == 0
    for stage, done, targets in (("pretrain", "pretrained to iteration", (2, 4)),
                                 ("metatrain", "meta-trained to iteration", (1, 2))):
        printed = []
        for cfg_file in (short, full):
            capsys.readouterr()
            assert run_cli(stage, "--config", str(cfg_file), "--out", str(resumed)) == 0
            printed.append(capsys.readouterr().out.strip())
        assert printed == [f"{done} {n}" for n in targets]
    for stage in ("gen-data", "pretrain", "metatrain"):
        assert run_cli(stage, "--config", str(full), "--out", str(straight)) == 0
    for name in ("pretrain.ckpt", "metatrain.ckpt"):
        ckpt = pathlib.Path("checkpoints") / name
        assert (resumed / ckpt).read_bytes() == (straight / ckpt).read_bytes(), name


def test_cli_adapt_runs_under_the_config_it_is_given(tmp_path):
    # after a run at inner_iters = 3, adapt given inner_iters = 1 writes what a
    # run straight at 1 writes, not the images of the run at 3
    base = (SMOKE.replace("pretrain_iters = 6", "pretrain_iters = 4")
            .replace("metatrain_iters = 2", "metatrain_iters = 1"))
    at3, at1 = tmp_path / "at3.cfg", tmp_path / "at1.cfg"
    at3.write_text(base)
    at1.write_text(base.replace("\ninner_iters = 3", "\ninner_iters = 1"))
    changed, straight = tmp_path / "changed", tmp_path / "straight"
    assert run_cli("full-run", "--config", str(at3), "--out", str(changed)) == 0
    images = sorted(p.relative_to(changed) for p in (changed / "results").rglob("*.ppm"))
    at_3 = {rel: (changed / rel).read_bytes() for rel in images}
    assert run_cli("adapt", "--config", str(at1), "--out", str(changed)) == 0
    assert run_cli("full-run", "--config", str(at1), "--out", str(straight)) == 0
    assert images == sorted(p.relative_to(straight) for p in (straight / "results").rglob("*.ppm"))
    for rel in images:
        assert (changed / rel).read_bytes() == (straight / rel).read_bytes(), rel
    for row in ("baseline_shot", "bilevel_noaux", "bilevel"):
        assert any(at_3[rel] != (changed / rel).read_bytes() for rel in images if rel.parts[1] == row)


def test_cli_adapts_a_trained_pair_on_more_unseen_scenes(adapted_run, tmp_path, monkeypatch, capsys):
    # n_unseen_scenes is a free key: no checkpoint array depends on it. A pair
    # trained with 2 unseen scenes adapts and evaluates 3 once gen-data has
    # written their manifest, and the first 2 scenes keep their images.
    import shutil

    _cpus(monkeypatch, 1)
    cfg_file, source = adapted_run
    out = tmp_path / "run"
    shutil.copytree(source, out)
    at3 = tmp_path / "at3.cfg"
    at3.write_text(SMOKE.replace("n_unseen_scenes = 2", "n_unseen_scenes = 3"))
    argv = ["--config", str(at3), "--out", str(out)]
    capsys.readouterr()
    assert run_cli("adapt", *argv) == 2  # the 2-scene manifest still contradicts the config
    err = capsys.readouterr().err
    assert "2 scenes in the manifest, n_unseen_scenes = 3 in the config" in err and "Traceback" not in err, err
    seed = substream_seed(0, "data", "unseen", 2)
    assert f"line 9 reads b'' in the manifest, b'scene 10002 seed={seed} cluster=none" in err, err
    for sub in ("gen-data", "adapt", "eval"):
        assert run_cli(sub, *argv) == 0
    for name in ("pretrain.ckpt", "metatrain.ckpt"):
        ckpt = pathlib.Path("checkpoints") / name
        assert (out / ckpt).read_bytes() == (source / ckpt).read_bytes(), name
    at_2 = sorted(p.relative_to(source) for p in (source / "results").rglob("*.ppm"))
    assert len(at_2) == 4 * 2 * 2  # rows x unseen scenes x test samples
    for rel in at_2:
        assert (out / rel).read_bytes() == (source / rel).read_bytes(), rel
    assert len(list((out / "results").rglob("*.ppm"))) == 4 * 3 * 2


def test_cli_stage_given_another_seed_than_its_checkpoint_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "smoke.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(SMOKE + f"\nout_dir = {out}\n")
    for sub in ("gen-data", "pretrain"):
        assert run_cli(sub, "--config", str(cfg_file), "--seed", "0") == 0
    capsys.readouterr()
    # the seed-0 manifest contradicts the seed first
    assert run_cli("metatrain", "--config", str(cfg_file), "--seed", "1") == 2
    err = capsys.readouterr().err
    assert str(out / "data" / "train" / "dataset.manifest") in err and "Traceback" not in err, err
    # and on data generated at seed 1, the checkpoint does
    assert run_cli("gen-data", "--config", str(cfg_file), "--seed", "1") == 0
    capsys.readouterr()
    assert run_cli("metatrain", "--config", str(cfg_file), "--seed", "1") == 2
    err = capsys.readouterr().err
    assert str(out / "checkpoints" / "pretrain.ckpt") in err and "Traceback" not in err, err
    assert "master_seed = 0 in the checkpoint, 1 in the config" in err, err
    assert not (out / "checkpoints" / "metatrain.ckpt").exists()


def test_cli_meta_keys_are_free_at_the_hand_over_and_fixed_after_it(tmp_path, capsys):
    # metatrain may start under another beta than pretrain ran with, but a
    # resumed metatrain must keep the beta it meta-trained under
    pre, meta = tmp_path / "pre.cfg", tmp_path / "meta.cfg"
    pre.write_text(SMOKE)
    meta.write_text(SMOKE.replace("beta = 0.001", "beta = 0.002"))
    out = str(tmp_path / "run")
    assert run_cli("gen-data", "--config", str(pre), "--out", out) == 0
    for sub, cfg_file in (("pretrain", pre), ("metatrain", meta)):
        assert run_cli(sub, "--config", str(cfg_file), "--out", out, "--iters", "1") == 0
    capsys.readouterr()
    assert run_cli("metatrain", "--config", str(pre), "--out", out) == 2
    err = capsys.readouterr().err
    assert os.path.join(out, "checkpoints", "metatrain.ckpt") in err, err
    assert "beta = 0.002 in the checkpoint, 0.001 in the config" in err and "Traceback" not in err, err


def test_cli_parallel_adapt_contradiction_exits_2_before_any_worker(adapted_run, tmp_path, capsys,
                                                                   monkeypatch):
    import shutil

    started = _stand_in_pool(monkeypatch)
    _cpus(monkeypatch, 2)
    cfg_file, source = adapted_run
    out = tmp_path / "run"
    shutil.copytree(source, out)
    # data that matches the seed, so the checkpoints are what contradicts it
    assert run_cli("gen-data", "--config", str(cfg_file), "--out", str(out), "--seed", "1") == 0
    capsys.readouterr()
    argv = ["adapt", "--config", str(cfg_file), "--out", str(out), "--seed", "1"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "master_seed = 0 in the checkpoint, 1 in the config" in err and "Traceback" not in err, err
    assert started == []


def test_cli_meta_mode_override_full_unrolled(tmp_path, capsys):
    # metatrain may start in another meta mode than pretrain ran under; the
    # meta-trained checkpoint then fixes it
    cfg_file = tmp_path / "smoke.cfg"
    out = tmp_path / "run"
    cfg_file.write_text(SMOKE + f"\nout_dir = {out}\n")
    assert run_cli("gen-data", "--config", str(cfg_file)) == 0
    assert run_cli("pretrain", "--config", str(cfg_file)) == 0
    assert run_cli("metatrain", "--config", str(cfg_file), "--meta-mode", "full-unrolled") == 0
    assert load_checkpoint(str(out / "checkpoints" / "metatrain.ckpt"))[1].meta_mode == "full-unrolled"
    capsys.readouterr()
    assert run_cli("adapt", "--config", str(cfg_file), "--aux", "off") == 2
    err = capsys.readouterr().err
    assert "meta_mode = 'full-unrolled' in the checkpoint, 'first-order' in the config" in err, err


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

    # the two runs write to different directories, yet their checkpoints are the same bytes
    rel = "checkpoints/metatrain.ckpt"
    assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

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


def _truncate_by(count):
    def damage(path):
        path.write_bytes(path.read_bytes()[:-count])
    return damage


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


def _ppm_of_size(size):
    def damage(path):
        tasks.write_ppm(str(path), np.zeros((3, size, size)))
    return damage


def _cut_before_last_buffer(path):
    # the last buffer is the discriminator's second Adam moment, one float64
    # per discriminator parameter
    d_gp = load_checkpoint(str(path))[0].d_gp
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 8 * sum(p.data.size for p in d_gp.tensors())])


def _manifest_not_utf8(path):
    path.write_bytes(b"# \xff\xfe\n" + path.read_bytes())


def _checkpoint_header_not_utf8(path):
    path.write_bytes(MAGIC + struct.pack("<I4QQ", VERSION, 0, 0, 0, 0, 2) + b"\xff\xfe")


def _checkpoint_version(version):
    def damage(path):
        blob = path.read_bytes()
        path.write_bytes(blob[:VERSION_AT] + struct.pack("<I", version) + blob[VERSION_AT + 4:])
    return damage


def _checkpoint_config_length(length):
    def damage(path):
        blob = path.read_bytes()
        path.write_bytes(blob[:CONFIG_LENGTH_AT] + struct.pack("<Q", length) + blob[CONFIG_LENGTH_AT + 8:])
    return damage


def _appends(extra):
    def damage(path):
        with open(path, "ab") as f:
            f.write(extra)
    return damage


def _checkpoint_header_says_seed_7(path):
    # a same-length edit keeps the header's length prefix valid
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"\nmaster_seed = 0\n", b"\nmaster_seed = 7\n", 1))


def _manifest_replaces(old, new):
    def damage(path):
        text = path.read_text()
        assert old in text, old
        path.write_text(text.replace(old, new))
    return damage


def _manifest_gen_data_writes(*argv, config=SMOKE):
    # the train manifest that gen-data writes with these flags and config,
    # in place of the run's own
    def damage(path):
        import shutil

        cfg_file, other = path.parent / "other.cfg", path.parent / "other"
        cfg_file.write_text(config)
        assert run_cli("gen-data", "--config", str(cfg_file), "--out", str(other), *argv) == 0
        shutil.copyfile(other / "data" / "train" / "dataset.manifest", path)
    return damage


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


BAD_INPUTS = {
    # case: (subcommand, file under the run directory, how it is damaged, exit code)
    "eval-missing-image": ("eval", "results/bilevel/scene_10000/img_001.ppm", _delete, 3),
    "manifest-missing-header-key": ("pretrain", "data/train/dataset.manifest",
                                    _manifest_replaces("classes = 3\n", ""), 2),
    "unseen-manifest-missing": ("adapt", "data/unseen/dataset.manifest", _delete, 3),
    "truncated-ppm-payload": ("eval", "results/baseline/scene_10001/img_000.ppm", _truncate_by(10), 2),
    "checkpoint-cut-at-buffer-boundary": ("pretrain", "checkpoints/pretrain.ckpt", _cut_before_last_buffer, 2),
    "manifest-shape-mismatch": ("pretrain", "data/train/dataset.manifest",
                                _manifest_replaces("height = 16\nwidth = 16\n", "height = 32\nwidth = 32\n"), 2),
    # checked before any scene is synthesized: a palette of this many classes
    # is far too large to allocate
    "manifest-of-a-billion-classes": ("pretrain", "data/train/dataset.manifest",
                                      _manifest_replaces("classes = 3\n", "classes = 1000000000\n"), 2),
    "manifest-of-another-seed": ("pretrain", "data/train/dataset.manifest",
                                 _manifest_gen_data_writes("--seed", "1"), 2),
    "manifest-of-another-shade-amp": ("pretrain", "data/train/dataset.manifest",
                                      _manifest_gen_data_writes(config=SMOKE + "shade_amp_max = 0.1\n"), 2),
    "manifest-of-other-scene-counts": ("pretrain", "data/train/dataset.manifest", _manifest_gen_data_writes(
        config=SMOKE.replace("n_train_scenes = 4", "n_train_scenes = 7") + "clusters = 3\n"), 2),
    "ppm-wrong-magic": ("eval", "results/baseline/scene_10001/img_001.ppm", _ppm_magic_p5, 2),
    "ppm-malformed-header": ("eval", "results/bilevel/scene_10000/img_000.ppm", _ppm_width(b"w"), 2),
    "ppm-negative-width": ("eval", "results/bilevel/scene_10001/img_000.ppm", _ppm_width(b"-16"), 2),
    "ppm-16-bit-maxval": ("eval", "results/baseline_shot/scene_10000/img_001.ppm", _ppm_maxval_16_bit, 2),
    "manifest-not-utf8": ("pretrain", "data/train/dataset.manifest", _manifest_not_utf8, 2),
    "ppm-trailing-bytes": ("eval", "results/bilevel_noaux/scene_10000/img_000.ppm",
                           _appends(b"trailing data"), 2),
    "ppm-of-another-size": ("eval", "results/bilevel/scene_10001/img_001.ppm", _ppm_of_size(32), 2),
    # the same value, written as no config writes it
    "manifest-reformatted": ("adapt", "data/unseen/dataset.manifest",
                             _manifest_replaces("shade_amp_max = 0.3\n", "shade_amp_max = 0.30\n"), 2),
    "manifest-cut-final-newline": ("pretrain", "data/train/dataset.manifest", _truncate_by(1), 2),
    "checkpoint-config-not-utf8": ("pretrain", "checkpoints/pretrain.ckpt", _checkpoint_header_not_utf8, 2),
    "checkpoint-is-directory": ("pretrain", "checkpoints/pretrain.ckpt", _replace_with_directory, 2),
    "checkpoint-v1": ("metatrain", "checkpoints/metatrain.ckpt", _checkpoint_version(1), 2),
    "checkpoint-v2": ("adapt", "checkpoints/pretrain.ckpt", _checkpoint_version(2), 2),
    "checkpoint-v3": ("pretrain", "checkpoints/pretrain.ckpt", _checkpoint_version(3), 2),
    "checkpoint-v4": ("pretrain", "checkpoints/pretrain.ckpt", _checkpoint_version(4), 2),
    "checkpoint-v5": ("metatrain", "checkpoints/metatrain.ckpt", _checkpoint_version(5), 2),
    # lengths past the end of the file, too large for one read
    "checkpoint-config-length-overflow": ("pretrain", "checkpoints/pretrain.ckpt",
                                          _checkpoint_config_length(2**63), 2),
    # what v5 read as an array header claiming 2**31 x 2**31 values
    "checkpoint-bytes-appended": ("metatrain", "checkpoints/metatrain.ckpt", _appends(
        struct.pack("<Q", 4) + b"huge" + struct.pack("<3Q", 2, 2**31, 2**31)), 2),
    "checkpoint-contradicts-config": ("adapt", "checkpoints/pretrain.ckpt",
                                      _checkpoint_header_says_seed_7, 2),
    # the run directory is named after the case: a path that says "non-finite"
    # is still a malformed file, not a numerical failure
    "non-finite": ("pretrain", "data/train/dataset.manifest",
                   _manifest_replaces("classes = 3\n", "classes = four\n"), 2),
}
# what stderr must say besides the path
BAD_INPUT_MESSAGES = {
    "eval-missing-image": "run `biltrans adapt` first",
    "unseen-manifest-missing": "run `biltrans gen-data` first",
    "checkpoint-v1": "unsupported version 1",
    "checkpoint-v2": "unsupported version 2",
    "checkpoint-v3": "unsupported version 3",
    "checkpoint-v4": "unsupported version 4",
    "checkpoint-v5": "unsupported version 5",
    "checkpoint-config-not-utf8": "can't decode byte 0xff",
    "checkpoint-is-directory": "Is a directory",
    "checkpoint-config-length-overflow": "truncated while reading config",
    "checkpoint-cut-at-buffer-boundary": BODY_MESSAGE,
    "checkpoint-bytes-appended": BODY_MESSAGE,
    "checkpoint-contradicts-config": "master_seed = 7 in the checkpoint, 0 in the config",
    "truncated-ppm-payload": r"771 bytes starting b'P6\n16 16\n255\n', not the 781 bytes",
    "ppm-trailing-bytes": r"794 bytes starting b'P6\n16 16\n255\n', not the 781 bytes",
    "ppm-wrong-magic": r"781 bytes starting b'P5\n16 16\n255\n', not the 781 bytes starting b'P6\n16 16\n255\n'",
    "ppm-malformed-header": r"780 bytes starting b'P6\nw 16\n255\n",
    "ppm-negative-width": r"782 bytes starting b'P6\n-16 16\n255'",
    "ppm-16-bit-maxval": r"783 bytes starting b'P6\n16 16\n6553'",
    "ppm-of-another-size": r"3085 bytes starting b'P6\n32 32\n255\n', not the 781 bytes starting "
                           r"b'P6\n16 16\n255\n' of a 16x16 image",
    "manifest-not-utf8": r"line 1 reads b'# \xff\xfe\n' in the manifest",
    "manifest-missing-header-key": r"line 2 reads b'height = 16\n' in the manifest, b'classes = 3\n' for the config",
    "manifest-shape-mismatch": r"line 3 reads b'height = 32\n' in the manifest, b'height = 16\n' for the config",
    "manifest-of-a-billion-classes": r"b'classes = 1000000000\n' in the manifest, b'classes = 3\n' for the config",
    "non-finite": r"b'classes = four\n' in the manifest, b'classes = 3\n' for the config",
    "manifest-of-another-seed": (rf"line 6 reads b'cluster_space_seed = {substream_seed(1, 'cluster-space')}\n' "
                                 rf"in the manifest, b'cluster_space_seed = {substream_seed(0, 'cluster-space')}\n' "
                                 "for the config"),
    "manifest-of-another-shade-amp": r"b'shade_amp_max = 0.1\n' in the manifest, b'shade_amp_max = 0.3\n' for the config",
    "manifest-reformatted": r"b'shade_amp_max = 0.30\n' in the manifest, b'shade_amp_max = 0.3\n' for the config",
    "manifest-of-other-scene-counts": "7 scenes in the manifest, n_train_scenes = 4 in the config",
    # the last row without its newline, against the row with it
    "manifest-cut-final-newline": r"line 10 reads b'{0}' in the manifest, b'{0}\n' for the config".format(
        f"scene 3 seed={substream_seed(0, 'data', 'train', 3)} cluster=none"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_malformed_input_exit_codes(case, adapted_run, tmp_path, capsys):
    import shutil

    subcommand, rel, damage, code = BAD_INPUTS[case]
    cfg_file, source = adapted_run
    out = tmp_path / case
    shutil.copytree(source, out)
    damage(out / rel)
    capsys.readouterr()
    assert run_cli(subcommand, "--config", str(cfg_file), "--out", str(out)) == code
    err = capsys.readouterr().err
    assert str(out / rel) in err and "Traceback" not in err, err
    assert BAD_INPUT_MESSAGES[case] in err, err


def test_every_malformed_input_case_names_its_message():
    assert sorted(BAD_INPUT_MESSAGES) == sorted(BAD_INPUTS)


@pytest.mark.parametrize("stage", ["pretrain", "metatrain"])
def test_checkpoint_holds_only_what_the_next_stage_reads(stage, adapted_run):
    # the header, then each parameter of the general pair and its two Adam
    # moments, one float64 each: no phi, seed or pretraining moments
    _, run = adapted_run
    path = run / "checkpoints" / f"{stage}.ckpt"
    state, saved = load_checkpoint(str(path))
    header = CONFIG_LENGTH_AT + 8 + len(serialize_config(saved).encode())
    params = sum(p.data.size for ps in (state.g_gp, state.d_gp) for p in ps.tensors())
    assert path.stat().st_size == header + 8 * 3 * params


def test_cli_stage_given_another_base_width_than_its_checkpoint_exits_2(adapted_run, tmp_path, capsys):
    # base_width sets every array's shape: the header's keys are checked
    # before the body's length is compared with the state the config builds
    import shutil

    cfg_file, source = adapted_run
    out = tmp_path / "run"
    shutil.copytree(source, out)
    wide = tmp_path / "wide.cfg"
    wide.write_text(cfg_file.read_text().replace("base_width = 4", "base_width = 8"))
    capsys.readouterr()
    assert run_cli("pretrain", "--config", str(wide), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert str(out / "checkpoints" / "pretrain.ckpt") in err and "Traceback" not in err, err
    assert "base_width = 4 in the checkpoint, 8 in the config" in err and BODY_MESSAGE not in err, err
