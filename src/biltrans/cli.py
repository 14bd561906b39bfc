"""Experiment harness: data generation, training, adaptation, evaluation.

Pipeline stages are pure functions of (config, master seed, input
checkpoints); re-running a stage reproduces its outputs byte-identically.
Exit codes: 0 success, 2 config error, 3 missing prerequisite, 4 numerical
failure.
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .bilevel import MetaMode, metatrain, pretrain, test_adapt
from .checkpoint import build_state, load_checkpoint, save_checkpoint
from .config import default_config, load_config, parse_config, serialize_config
from .metrics import MetricReport, score_pair
from .rng import substream_seed
from .tasks import (
    export_dataset,
    load_manifest,
    read_ppm,
    retrieve_topk,
    sample_episode,
    similarity,
    synth_scene,
    write_ppm,
)
from .tensor import TensorError

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


def _scenes(cfg, split):
    """The "train" or "unseen" scenes of a config, synthesized from their
    seeds; only ``gen-data`` calls this, every later stage reads the manifest."""
    n, first_id = (cfg.n_train_scenes, 0) if split == "train" else (cfg.n_unseen_scenes, 10_000)
    return [
        synth_scene(
            substream_seed(cfg.master_seed, "data", split, i),
            i % cfg.clusters if cfg.clusters > 0 else None,
            scene_id=first_id + i, height=cfg.image_size, width=cfg.image_size,
            classes=cfg.classes, shade_amp_max=cfg.shade_amp_max,
            cluster_space_seed=substream_seed(cfg.master_seed, "cluster-space"),
        )
        for i in range(n)
    ]


def train_task_pool(cfg, scenes):
    """One fixed episode per training scene, used for retrieval and as
    auxiliary fine-tuning data."""
    return [
        sample_episode(
            s, cfg.n_shot, cfg.n_test,
            substream_seed(cfg.master_seed, "train-task", s.scene_id),
            cfg.with_reference, cfg.allow_flip,
        )
        for s in scenes
    ]


def unseen_episode(cfg, scene):
    return sample_episode(
        scene, cfg.n_shot, cfg.n_test,
        substream_seed(cfg.master_seed, "unseen-episode", scene.scene_id),
        cfg.with_reference, cfg.allow_flip,
    )


def unseen_episodes(cfg, scenes):
    return [unseen_episode(cfg, s) for s in scenes]


def cmd_gen_data(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(_paths(cfg)["config"], "w") as f:
        f.write(serialize_config(cfg, with_provenance=True))
    p = _paths(cfg)
    for split in ("train", "unseen"):
        export_dataset(p[f"{split}_data"], _scenes(cfg, split), cfg.shade_amp_max,
                       substream_seed(cfg.master_seed, "cluster-space"))
    print(f"wrote scene manifests under {os.path.join(cfg.out_dir, 'data')}")
    return 0


def _load_scenes(cfg, split):
    """The "train" or "unseen" scenes that ``gen-data`` wrote to the split's
    manifest; scenes of another shape than the config's are a config error."""
    data_dir = _paths(cfg)[f"{split}_data"]
    path = os.path.join(data_dir, "dataset.manifest")
    _require(path, "biltrans gen-data")
    scenes = load_manifest(data_dir)
    want = (cfg.classes, cfg.image_size, cfg.image_size)
    for got in {(s.classes, s.height, s.width) for s in scenes} - {want}:
        raise TensorError(f"{path}: scenes are (classes, height, width) = {got}, "
                          f"the config says {want}")
    return scenes


def _attach_logger(state, records):
    def log(rec):
        if "loss_g_total" in rec:
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
        state, _ = load_checkpoint(p["pretrain_ckpt"])  # resume
    else:
        state = build_state(cfg)
    records = []
    _attach_logger(state, records)
    pretrain(state, scenes, iters=iters)
    save_checkpoint(state, cfg, p["pretrain_ckpt"])
    log_path = os.path.join(p["logs"], "pretrain_losses.csv")
    _append_loss_log(log_path, records)
    print(f"pretrained to iteration {state.pretrain_iteration}")
    return 0


def cmd_metatrain(cfg, iters=None):
    p = _paths(cfg)
    scenes = _load_scenes(cfg, "train")
    if os.path.exists(p["metatrain_ckpt"]):
        state, _ = load_checkpoint(p["metatrain_ckpt"])  # resume
    else:
        _require(p["pretrain_ckpt"], "biltrans pretrain")
        state, _ = load_checkpoint(p["pretrain_ckpt"])
    os.makedirs(p["logs"], exist_ok=True)
    records = []
    _attach_logger(state, records)
    metatrain(state, scenes, cfg.meta_mode, iters=iters)
    save_checkpoint(state, cfg, p["metatrain_ckpt"])
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


def _rows_for(cfg, aux_on):
    return [r for r in ROWS if aux_on or r != "bilevel"]


def _adapt_inputs(cfg, rows):
    """What every scene's adaptation reads: (pretrained state, meta-trained
    state or None, auxiliary task pool or None). Adaptation leaves them
    unchanged, so one copy serves every scene."""
    p = _paths(cfg)
    state_pre, _ = load_checkpoint(p["pretrain_ckpt"])
    state_meta = None
    if any(r.startswith("bilevel") for r in rows):
        state_meta, _ = load_checkpoint(p["metatrain_ckpt"])
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
            images = list(state_pre.objective.generate(state_pre.g_gp, episode.test))
        elif row == "baseline_shot":
            _, _, images = test_adapt(state_pre, episode, [], k=1, use_aux=False,
                                      seed=cfg.master_seed)
        elif row == "bilevel_noaux":
            _, _, images = test_adapt(state_meta, episode, [], k=1, use_aux=False,
                                      seed=cfg.master_seed)
        else:
            _, _, images = test_adapt(state_meta, episode, pool, k=cfg.k_aux,
                                      use_aux=True, seed=cfg.master_seed,
                                      finetune_mode=cfg.meta_mode)
        out[row] = images
    return out


def _adapt_job(args):
    # runs in a worker process, which loads its own inputs
    cfg_text, scene_index, rows = args
    cfg = parse_config(cfg_text)
    scene = _load_scenes(cfg, "unseen")[scene_index]
    return scene_index, adapt_one_scene(cfg, scene, rows, _adapt_inputs(cfg, rows))


def cmd_adapt(cfg, aux_on=True):
    p = _paths(cfg)
    _require(p["pretrain_ckpt"], "biltrans pretrain")
    rows = _rows_for(cfg, aux_on)
    if any(r.startswith("bilevel") for r in rows):
        _require(p["metatrain_ckpt"], "biltrans metatrain")
    scenes = _load_scenes(cfg, "unseen")
    n = len(scenes)
    os.makedirs(p["results"], exist_ok=True)
    if cfg.jobs > 1:
        payload = [(serialize_config(cfg), i, rows) for i in range(n)]
        with ProcessPoolExecutor(max_workers=cfg.jobs) as ex:
            results = dict(ex.map(_adapt_job, payload))
    else:
        inputs = _adapt_inputs(cfg, rows)
        results = {i: adapt_one_scene(cfg, scenes[i], rows, inputs) for i in range(n)}
    for i in range(n):
        for row, images in results[i].items():
            row_dir = os.path.join(p["results"], row, f"scene_{scenes[i].scene_id:05d}")
            os.makedirs(row_dir, exist_ok=True)
            for j, img in enumerate(images):
                write_ppm(os.path.join(row_dir, f"img_{j:03d}.ppm"), img)
    print(f"adapted {n} unseen scenes for rows: {', '.join(rows)}")
    return 0


def cmd_eval(cfg, aux_on=True):
    p = _paths(cfg)
    from .losses import FeatureExtractor

    phi = FeatureExtractor(seed=cfg.phi_seed, widths=cfg.phi_width_list())
    episodes = unseen_episodes(cfg, _load_scenes(cfg, "unseen"))
    rows = _rows_for(cfg, aux_on)
    summaries = {}
    for row in rows:
        report = MetricReport(phi_seed=cfg.phi_seed)
        for ep in episodes:
            row_dir = os.path.join(p["results"], row, f"scene_{ep.scene_id:05d}")
            _require(row_dir, "biltrans adapt")
            for j, sample in enumerate(ep.test):
                img_path = os.path.join(row_dir, f"img_{j:03d}.ppm")
                _require(img_path, "biltrans adapt")
                pred = read_ppm(img_path)
                report.add(ep.scene_id, j, **score_pair(phi, pred, sample.y))
        report.write_csv(os.path.join(p["results"], f"metrics_{row}.csv"))
        report.write_json(os.path.join(p["results"], f"summary_{row}.json"))
        summaries[row] = report.summary()
    seeds = {s["phi_seed"] for s in summaries.values()}
    if len(seeds) != 1:
        raise TensorError(f"eval: mixed feature-extractor seeds in one comparison: {seeds}")
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


def cmd_retrieve(cfg, scene_index=0):
    scenes = _load_scenes(cfg, "train")
    pool = train_task_pool(cfg, scenes)
    episode = unseen_episode(cfg, _load_scenes(cfg, "unseen")[scene_index])
    query = episode.train[0].x_struct
    top = retrieve_topk(query, pool, cfg.k_aux)
    print(f"query: unseen scene {episode.scene_id}")
    for rank, task in enumerate(top, start=1):
        score = similarity(query, task.train[0].x_struct)
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
    p.add_argument("--shots", type=int, choices=[1, 5])
    p.add_argument("--aux", choices=["on", "off"], default="on")
    p.add_argument("--k", type=int, help="auxiliary task count override")
    p.add_argument("--jobs", type=int, help="parallel per-scene adapt workers")
    p.add_argument("--iters", type=int, help="iteration target for pretrain/metatrain")
    p.add_argument("--scene", type=int, default=0, help="unseen scene index for retrieve")
    return p


def resolve_config(args):
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
        if args.shots is not None:
            overrides["n_shot"] = args.shots
        if args.k is not None:
            overrides["k_aux"] = args.k
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
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
    aux_on = args.aux == "on"
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
            return cmd_retrieve(cfg, args.scene)
        return cmd_full_run(cfg, aux_on)
    except MissingPrerequisite as e:
        print(f"missing prerequisite: {e}", file=sys.stderr)
        return 3
    except TensorError as e:
        if "non-finite" in str(e):
            print(f"numerical failure: {e}", file=sys.stderr)
            return 4
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
