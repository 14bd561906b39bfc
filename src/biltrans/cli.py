"""Experiment harness: data generation, training, adaptation, evaluation.

Pipeline stages are pure functions of (config, master seed, input
checkpoints); re-running a stage reproduces its outputs byte-identically.
Exit codes: 0 success, 2 config error, 3 missing prerequisite, 4 numerical
failure.
"""

import argparse
import csv
import itertools
import json
import os
import sys

from .bilevel import MetaMode, metatrain, pretrain, test_adapt
from .checkpoint import build_state, load_checkpoint, save_checkpoint
from .config import default_config, load_config, serialize_config
from .metrics import MetricReport, score_pair
from .rng import substream_seed
from .tasks import (
    LazyEpisode,
    export_dataset,
    load_manifest,
    manifest_text,
    read_ppm,
    retrieve_topk,
    sample_episode,
    similarity,
    stack_samples,
    synth_scene,
    write_ppm,
)
from .tensor import NumericalError, TensorError

ROWS = ("baseline", "baseline_shot", "bilevel_noaux", "bilevel")


class MissingPrerequisite(Exception):
    pass


def _paths(cfg):
    out = cfg.out_dir
    return {
        "out": out,
        "config": os.path.join(out, "config.resolved"),
        "train_data": os.path.join(out, "data", "train"),
        "unseen_data": os.path.join(out, "data", "unseen"),
        "pretrain_ckpt": os.path.join(out, "checkpoints", "pretrain.ckpt"),
        "metatrain_ckpt": os.path.join(out, "checkpoints", "metatrain.ckpt"),
        "logs": os.path.join(out, "logs"),
        "results": os.path.join(out, "results"),
    }


def _require(path, hint):
    if not os.path.exists(path):
        raise MissingPrerequisite(f"missing {path}; run `{hint}` first")


def _manifest(cfg, split):
    """(shared scene knobs, (scene id, seed, cluster) rows) of the "train" or
    "unseen" manifest that ``gen-data`` writes for a config."""
    n, first_id = (cfg.n_train_scenes, 0) if split == "train" else (cfg.n_unseen_scenes, 10_000)
    knobs = {"classes": cfg.classes, "height": cfg.image_size, "width": cfg.image_size,
             "shade_amp_max": cfg.shade_amp_max,
             "cluster_space_seed": substream_seed(cfg.master_seed, "cluster-space")}
    rows = [(first_id + i, substream_seed(cfg.master_seed, "data", split, i),
             i % cfg.clusters if cfg.clusters > 0 else None) for i in range(n)]
    return knobs, rows


def train_task_pool(cfg, scenes):
    """One fixed episode per training scene, used for retrieval and as
    auxiliary fine-tuning data; only the retrieved ones are ever rendered."""
    return [
        LazyEpisode(
            s, cfg.n_shot, cfg.n_test,
            substream_seed(cfg.master_seed, "train-task", s.scene_id),
            cfg.with_reference,
        )
        for s in scenes
    ]


def unseen_episode(cfg, scene):
    return sample_episode(
        scene, cfg.n_shot, cfg.n_test,
        substream_seed(cfg.master_seed, "unseen-episode", scene.scene_id),
        cfg.with_reference,
    )


def cmd_gen_data(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(_paths(cfg)["config"], "w") as f:
        f.write(serialize_config(cfg, with_provenance=True))
    p = _paths(cfg)
    for split in ("train", "unseen"):
        export_dataset(p[f"{split}_data"], *_manifest(cfg, split))
    print(f"wrote scene manifests under {os.path.join(cfg.out_dir, 'data')}")
    return 0


def _load_scenes(cfg, split):
    """The "train" or "unseen" scenes of the config, once the split's
    manifest is checked: a manifest other than the bytes ``gen-data`` writes
    for the config is a config error that quotes the first differing line."""
    data_dir = _paths(cfg)[f"{split}_data"]
    path = os.path.join(data_dir, "dataset.manifest")
    _require(path, "biltrans gen-data")
    knobs, rows = _manifest(cfg, split)
    got, want = load_manifest(data_dir), manifest_text(knobs, rows)
    if got != want:
        lines = itertools.zip_longest(got.splitlines(True), want.splitlines(True), fillvalue=b"")
        n, (line, want_line) = next((n, pair) for n, pair in enumerate(lines, 1) if pair[0] != pair[1])
        wrong = [f"line {n} reads {line!r} in the manifest, {want_line!r} for the config"]
        scenes = got.count(b"\nscene ")
        if scenes != len(rows):
            wrong.append(f"{scenes} scenes in the manifest, n_{split}_scenes = {len(rows)} in the config")
        raise TensorError(f"{path} contradicts the given config: {'; '.join(wrong)}")
    return [synth_scene(seed, cluster, scene_id=scene_id, **knobs) for scene_id, seed, cluster in rows]


def _attach_logger(state, records):
    def log(rec):
        records.append(rec)
        if rec["iteration"] % 100 == 0:
            print(
                f"[{rec['phase']}] iter {rec['iteration']} "
                f"loss_g={rec['loss_g_total']:.4f} loss_d={rec['loss_d']:.4f}",
                file=sys.stderr,
            )

    state.log_fn = log


def cmd_pretrain(cfg, iters=None):
    p = _paths(cfg)
    scenes = _load_scenes(cfg, "train")
    os.makedirs(os.path.dirname(p["pretrain_ckpt"]), exist_ok=True)
    os.makedirs(p["logs"], exist_ok=True)
    if os.path.exists(p["pretrain_ckpt"]):
        state, _ = load_checkpoint(p["pretrain_ckpt"], cfg)  # resume
    else:
        state = build_state(cfg)
    records = []
    _attach_logger(state, records)
    pretrain(state, scenes, iters=iters)
    save_checkpoint(state, p["pretrain_ckpt"])
    log_path = os.path.join(p["logs"], "pretrain_losses.csv")
    _append_loss_log(log_path, records)
    print(f"pretrained to iteration {state.pretrain_iteration}")
    return 0


def cmd_metatrain(cfg, iters=None):
    p = _paths(cfg)
    scenes = _load_scenes(cfg, "train")
    if os.path.exists(p["metatrain_ckpt"]):
        state, _ = load_checkpoint(p["metatrain_ckpt"], cfg)  # resume
    else:
        _require(p["pretrain_ckpt"], "biltrans pretrain")
        state, _ = load_checkpoint(p["pretrain_ckpt"], cfg)
    os.makedirs(p["logs"], exist_ok=True)
    records = []
    _attach_logger(state, records)
    metatrain(state, scenes, iters=iters)
    save_checkpoint(state, p["metatrain_ckpt"])
    _append_loss_log(os.path.join(p["logs"], "metatrain_losses.csv"), records)
    print(f"meta-trained to iteration {state.meta_iteration}")
    return 0


def _append_loss_log(path, records):
    exists = os.path.exists(path)
    with open(path, "a", newline="") as f:
        w = csv.writer(f)
        if not exists:
            w.writerow(["iteration", "loss_g_total", "loss_d"])
        for r in records:
            w.writerow([r["iteration"], repr(r["loss_g_total"]), repr(r["loss_d"])])


def _rows_for(aux_on):
    return [r for r in ROWS if aux_on or r != "bilevel"]


def _adapt_inputs(cfg, rows):
    """What every scene's adaptation reads: (pretrained state, meta-trained
    state or None, auxiliary task pool or None). Adaptation leaves them
    unchanged, so one copy serves every scene. Of their Adam pairs only the
    meta-trained one is kept, for the ``bilevel`` row's auxiliary
    fine-tuning to continue; every other row starts fresh moments."""
    p = _paths(cfg)
    state_pre, _ = load_checkpoint(p["pretrain_ckpt"], cfg)
    state_pre.adam_g = state_pre.adam_d = None
    state_meta = None
    if any(r.startswith("bilevel") for r in rows):
        state_meta, _ = load_checkpoint(p["metatrain_ckpt"], cfg)
        if "bilevel" not in rows:
            state_meta.adam_g = state_meta.adam_d = None
    pool = train_task_pool(cfg, _load_scenes(cfg, "train")) if "bilevel" in rows else None
    return state_pre, state_meta, pool


def adapt_one_scene(cfg, scene, rows, inputs):
    """Generate test images for one unseen scene under every requested row;
    ``inputs`` comes from ``_adapt_inputs``."""
    state_pre, state_meta, pool = inputs
    episode = unseen_episode(cfg, scene)
    out = {}
    for row in rows:
        if row == "baseline":
            images = list(state_pre.objective.generate(state_pre.g_gp, stack_samples(episode.test)).data)
        elif row == "baseline_shot":
            _, _, images = test_adapt(state_pre, episode, [])
        elif row == "bilevel_noaux":
            _, _, images = test_adapt(state_meta, episode, [])
        else:
            _, _, images = test_adapt(state_meta, episode, pool)
        out[row] = images
    return out


_worker_payload = None  # (cfg, rows, inputs) of an adapt pool worker


def _init_worker(*payload):
    global _worker_payload
    _worker_payload = payload


def _adapt_in_worker(scene):
    cfg, rows, inputs = _worker_payload
    return adapt_one_scene(cfg, scene, rows, inputs)


def cmd_adapt(cfg, aux_on=True):
    """Adapt every unseen scene, one worker per CPU this process may run on
    and at most one per scene; with one worker no pool is started."""
    p = _paths(cfg)
    _require(p["pretrain_ckpt"], "biltrans pretrain")
    rows = _rows_for(aux_on)
    if any(r.startswith("bilevel") for r in rows):
        _require(p["metatrain_ckpt"], "biltrans metatrain")
    scenes = _load_scenes(cfg, "unseen")
    inputs = _adapt_inputs(cfg, rows)
    os.makedirs(p["results"], exist_ok=True)
    workers = min(len(os.sched_getaffinity(0)), len(scenes))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for its import

        with ProcessPoolExecutor(workers, initializer=_init_worker,
                                 initargs=(cfg, rows, inputs)) as ex:
            results = list(ex.map(_adapt_in_worker, scenes))
    else:
        results = [adapt_one_scene(cfg, scene, rows, inputs) for scene in scenes]
    for scene, images_by_row in zip(scenes, results):
        for row, images in images_by_row.items():
            row_dir = os.path.join(p["results"], row, f"scene_{scene.scene_id:05d}")
            os.makedirs(row_dir, exist_ok=True)
            for j, img in enumerate(images):
                write_ppm(os.path.join(row_dir, f"img_{j:03d}.ppm"), img)
    print(f"adapted {len(scenes)} unseen scenes for rows: {', '.join(rows)}")
    return 0


def cmd_eval(cfg, aux_on=True):
    p = _paths(cfg)
    from .losses import FeatureExtractor

    phi = FeatureExtractor(seed=cfg.phi_seed, widths=cfg.phi_width_list())
    episodes = [unseen_episode(cfg, s) for s in _load_scenes(cfg, "unseen")]
    rows = _rows_for(aux_on)
    summaries = {}
    for row in rows:
        report = MetricReport(phi_seed=cfg.phi_seed)
        for ep in episodes:
            row_dir = os.path.join(p["results"], row, f"scene_{ep.scene_id:05d}")
            _require(row_dir, "biltrans adapt")
            for j, sample in enumerate(ep.test):
                img_path = os.path.join(row_dir, f"img_{j:03d}.ppm")
                _require(img_path, "biltrans adapt")
                pred = read_ppm(img_path, cfg.image_size)
                report.add(ep.scene_id, j, **score_pair(phi, pred, sample.y))
        report.write_csv(os.path.join(p["results"], f"metrics_{row}.csv"))
        report.write_json(os.path.join(p["results"], f"summary_{row}.json"))
        summaries[row] = report.summary()
    _write_comparison(p["results"], summaries)
    with open(os.path.join(p["results"], "comparison.txt")) as f:
        print(f.read())
    return 0


def _write_comparison(results_dir, summaries):
    headers = ["row", "mse", "psnr", "ssim", "proxy_lpips", "samples"]
    lines = ["  ".join(f"{h:<14}" for h in headers)]
    for row, s in summaries.items():
        lines.append(
            "  ".join(
                [
                    f"{row:<14}",
                    f"{s['mean_mse']:<14.6f}",
                    f"{s['mean_psnr']:<14.4f}",
                    f"{s['mean_ssim']:<14.6f}",
                    f"{s['mean_proxy_lpips']:<14.6f}",
                    f"{s['count']:<14d}",
                ]
            )
        )
    with open(os.path.join(results_dir, "comparison.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(os.path.join(results_dir, "comparison.json"), "w") as f:
        json.dump(summaries, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_retrieve(cfg, scene_index):
    unseen = _load_scenes(cfg, "unseen")
    if not 0 <= scene_index < len(unseen):
        raise TensorError(f"--scene {scene_index} is out of range: there are {len(unseen)} "
                          f"unseen scenes (0..{len(unseen) - 1})")
    pool = train_task_pool(cfg, _load_scenes(cfg, "train"))
    episode = unseen_episode(cfg, unseen[scene_index])
    top = retrieve_topk(episode.key, pool, cfg.k_aux)
    print(f"query: unseen scene {episode.scene_id}")
    for rank, task in enumerate(top, start=1):
        score = similarity(episode.key, task.key)
        print(f"  rank {rank}: train scene {task.scene_id} similarity {score:.4f}")
    return 0


def cmd_full_run(cfg, aux_on=True):
    cmd_gen_data(cfg)
    cmd_pretrain(cfg)
    cmd_metatrain(cfg)
    cmd_adapt(cfg, aux_on)
    cmd_eval(cfg, aux_on)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="biltrans",
                                description="bilevel few-shot scene translation")
    p.add_argument("subcommand", choices=["gen-data", "pretrain", "metatrain",
                                          "adapt", "eval", "retrieve", "full-run"])
    p.add_argument("--config", help="path to a key = value config file")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--mode", choices=["pg2", "pix2pix"])
    p.add_argument("--meta-mode", choices=list(MetaMode.ALL), dest="meta_mode")
    p.add_argument("--aux", choices=["on", "off"], help="auxiliary fine-tuning rows for adapt/eval/full-run (default on)")
    p.add_argument("--iters", type=int, help="iteration target for pretrain/metatrain")
    p.add_argument("--scene", type=int, help="unseen scene index for retrieve (default 0)")
    return p


def resolve_config(args):
    if args.iters is not None and args.iters < 0:
        raise ConfigError(f"--iters must be >= 0, got {args.iters}")
    for option, value, readers in (("--iters", args.iters, ("pretrain", "metatrain")),
                                   ("--scene", args.scene, ("retrieve",)),
                                   ("--aux", args.aux, ("adapt", "eval", "full-run"))):
        if value is not None and args.subcommand not in readers:
            raise ConfigError(f"{option} is read only by {' and '.join(readers)}, not by {args.subcommand}")
    try:
        cfg = load_config(args.config) if args.config else default_config()
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.mode is not None:
            overrides["mode"] = args.mode
        if args.meta_mode is not None:
            overrides["meta_mode"] = args.meta_mode
        if overrides:
            from dataclasses import replace

            cfg = replace(cfg, **overrides).validate()
        return cfg
    except (OSError, TensorError) as e:
        raise ConfigError(str(e)) from e


class ConfigError(Exception):
    pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    aux_on = args.aux != "off"
    try:
        if args.subcommand == "gen-data":
            return cmd_gen_data(cfg)
        if args.subcommand == "pretrain":
            return cmd_pretrain(cfg, iters=args.iters)
        if args.subcommand == "metatrain":
            return cmd_metatrain(cfg, iters=args.iters)
        if args.subcommand == "adapt":
            return cmd_adapt(cfg, aux_on)
        if args.subcommand == "eval":
            return cmd_eval(cfg, aux_on)
        if args.subcommand == "retrieve":
            return cmd_retrieve(cfg, args.scene or 0)
        return cmd_full_run(cfg, aux_on)
    except MissingPrerequisite as e:
        print(f"missing prerequisite: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except TensorError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # a path of the wrong kind, e.g. a directory where a file belongs
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
