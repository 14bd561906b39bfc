"""Benchmark of the biltrans CLI stages at configs/desk.cfg shapes.

Run from the repository root:

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 36 --trace 0

Each stage runs as ``python -m biltrans.cli <stage>`` in a fresh process
against the sources under ``src/``, the way a user runs the pipeline. A
run sets the workload up several times and, interleaved with that,
repeats the workload's timed stages, each time in a fresh output
directory, as often as fits in ``--seconds``; a host probe between them
puts the times at a reference speed. Every stage's outputs are checked.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run
(``perfbench/tracer.py``) with ``--trace 1``.
Everything else (environment, per-stage walls, digests, spans) goes to
``.perfbench_out/results/``. See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, BENCH)
import tracer  # noqa: E402

SETUPS_PER_RUN = 3
RUN_DEADLINE_S = 170  # a stage still running then is killed and fails
TRACEBACK = "Traceback (most recent call last)"
PROBE_STEPS = 550
PROBE_REF_S = 1.0  # host_probe() seconds at the reference speed (see README)

# configs/desk.cfg network and scene shapes, copied so that the benchmark
# does not move when the shipped config does.
DESK = {
    "image_size": 16, "classes": 4, "base_width": 8, "depth": 2,
    "n_train_scenes": 100, "n_unseen_scenes": 20, "clusters": 20, "samples_per_scene": 4,
    "pretrain_iters": 800, "metatrain_iters": 150, "train_inner_iters": 1,
    "inner_batch": 5, "meta_batch": 5, "n_shot": 5, "n_test": 3, "inner_iters": 20,
    "alpha": 0.0004, "beta": 0.0004, "k_aux": 3, "gp_finetune_iters": 6, "phi_widths": "8,16",
}


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict  # overrides of DESK
    setup: tuple  # (subcommand, *flags) run while setting up
    timed: tuple  # (subcommand, *flags) measured, in order


WORKLOADS = {
    "desk-train": Workload(
        why="eager training path: gen-data, pretrain and first-order metatrain on a VALUES tape",
        config={"pretrain_iters": 20, "metatrain_iters": 2},
        setup=(),
        timed=(("gen-data",), ("pretrain",), ("metatrain", "--meta-mode", "first-order")),
    ),
    "desk-unrolled": Workload(
        why="metatrain --meta-mode full-unrolled: backward writes VJP ops onto a DIFFERENTIABLE tape",
        config={"n_unseen_scenes": 1, "pretrain_iters": 1, "metatrain_iters": 1},
        setup=(("gen-data",), ("pretrain",)),
        timed=(("metatrain", "--meta-mode", "full-unrolled"),),
    ),
    "desk-adapt": Workload(
        why="test-time path: adapt --aux on (four rows) against the 100-scene pool, then eval",
        # two scenes, so per-scene checkpoint reloads and pool rebuilds repeat
        config={"n_unseen_scenes": 2, "pretrain_iters": 1, "metatrain_iters": 1},
        setup=(("gen-data",), ("pretrain",), ("metatrain", "--meta-mode", "first-order")),
        timed=(("adapt", "--aux", "on"), ("eval", "--aux", "on")),
    ),
}

# (name, unit) of the gated metrics: the ones every workload has
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# reported for the workloads that time the stage, not gated:
# name -> (stage, config key of the units its wall is divided by)
STAGE_RATES = {
    "gen_data_s": ("gen-data", None),
    "pretrain_s_per_it": ("pretrain", "pretrain_iters"),
    "meta_s_per_it": ("metatrain", "metatrain_iters"),
    "adapt_s_per_scene": ("adapt", "n_unseen_scenes"),
    "eval_s": ("eval", None),
}


@dataclass
class Stage:
    name: str
    wall_s: float
    rss_mb: float
    problems: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.problems


def host_probe():
    """Seconds taken by fixed work shaped like the program's: two 3x3
    convolutions over a batch of five 8-channel 16x16 images and a pass back
    through them, op by op from Python (reflect padding, im2col matmuls,
    ReLU masks, elementwise arithmetic). It runs no biltrans code, so its
    time follows only the speed the host gives this CPU at the moment.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    rng = np.random.default_rng(0)
    x = rng.random((5, 8, 16, 16))
    weights = [rng.standard_normal((8, 72)) * 0.1 for _ in range(2)]
    start = time.perf_counter()
    for _ in range(PROBE_STEPS):
        h, saved = x, []
        for k in weights:
            p = np.pad(h, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
            cols = sliding_window_view(p, (3, 3), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3).reshape(72, -1)
            y = k @ cols
            saved.append((cols, y > 0))
            h = np.maximum(y, 0.0).reshape(8, 5, 16, 16).transpose(1, 0, 2, 3)
        g = ((h - x) * (2.0 / h.size)).transpose(1, 0, 2, 3).reshape(8, -1)
        for k, (cols, mask) in zip(reversed(weights), reversed(saved)):
            g = g * mask
            k -= 1e-4 * (g @ cols.T)
            g = (k.T @ g).reshape(8, 9, -1).sum(axis=1)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# running and checking stages


def run_process(cmd, env, log_prefix, timeout):
    """(wall seconds, max RSS in MB, exit code, stderr text) of one child."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    with open(log_prefix + ".err", errors="replace") as f:
        stderr = f.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr


def run_stage(name, cmd, env, log_prefix, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    wall, rss, code, stderr = run_process(cmd, env, log_prefix, timeout)
    stage = Stage(name, wall, rss)
    if code != 0:
        stage.problems.append(f"{name}: exit code {code}")
    if TRACEBACK in stderr:
        stage.problems.append(f"{name}: traceback on stderr")
    return stage


def _read_back(stage, out, key, counter, target):
    """Check the iteration counter of the checkpoint a training stage wrote
    and record its parameter digests."""
    from biltrans.checkpoint import load_checkpoint

    state, _ = load_checkpoint(os.path.join(out, "checkpoints", f"{key}.ckpt"))
    got = getattr(state, counter)
    if got != target:
        stage.problems.append(f"{key}: {counter} {got} != target {target}")
    stage.fingerprint.update({f"{key}.g_gp": state.g_gp.digest(), f"{key}.d_gp": state.d_gp.digest()})


def _tree_sha256(top, suffix):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(suffix):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _all_finite(value):
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return True


def check_outputs(stage, cfg, out):
    """Stage-specific output checks; fills ``stage.problems`` and ``stage.fingerprint``."""
    results = os.path.join(out, "results")
    try:
        if stage.name == "gen-data":
            for split in ("train", "unseen"):
                if not os.path.isfile(os.path.join(out, "data", split, "dataset.manifest")):
                    stage.problems.append(f"gen-data: no {split} manifest")
        elif stage.name == "pretrain":
            _read_back(stage, out, "pretrain", "pretrain_iteration", cfg["pretrain_iters"])
        elif stage.name == "metatrain":
            _read_back(stage, out, "metatrain", "meta_iteration", cfg["metatrain_iters"])
        elif stage.name == "adapt":
            stage.fingerprint["results.ppm_sha256"] = _tree_sha256(results, ".ppm")
        elif stage.name == "eval":
            with open(os.path.join(results, "comparison.json")) as f:
                comparison = json.load(f)
            if set(comparison) != {"baseline", "baseline_shot", "bilevel_noaux", "bilevel"}:
                stage.problems.append(f"eval: comparison rows {sorted(comparison)}")
            if not _all_finite(comparison):
                stage.problems.append("eval: non-finite value in comparison.json")
            for row, summary in comparison.items():
                stage.fingerprint[f"{row}.mean_mse"] = summary.get("mean_mse")
    except Exception as e:  # an unreadable output is a failed stage, not a crashed benchmark
        stage.problems.append(f"{stage.name}: output check raised {type(e).__name__}: {e}")


class Runner:
    """One workload at one seed, in a private work directory."""

    def __init__(self, workload, seed, work):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.cfg = {**DESK, **workload.config}
        os.makedirs(work, exist_ok=True)
        self.cfg_path = os.path.join(work, "bench.cfg")
        with open(self.cfg_path, "w") as f:
            f.write("".join(f"{k} = {v}\n" for k, v in self.cfg.items()))
        self.env = {**os.environ, "PYTHONPATH": SRC}
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.trace_dumps = []

    def _stage(self, sub, flags, out, traced=False):
        tag = f"{os.path.basename(out)}-{sub}"
        args = [sub, "--config", self.cfg_path, "--out", out, "--seed", str(self.seed), *flags]
        if traced:
            dump = os.path.join(self.work, f"{tag}.trace.json")
            self.trace_dumps.append(dump)
            cmd = [sys.executable, os.path.join(BENCH, "tracer.py"), "--dump", dump,
                   "--stage-id", tag, "--", *args]
        else:
            cmd = [sys.executable, "-m", "biltrans.cli", *args]
        stage = run_stage(sub, cmd, self.env, os.path.join(self.work, tag), self.deadline)
        if stage.ok:
            check_outputs(stage, self.cfg, out)
        return stage

    def set_up(self, k, keep):
        """Build from source, import-check, then run the set-up stages.

        Outputs are deleted at once unless ``keep``: files left to pile up
        make later file creation slower and noisier on this kind of disk.
        """
        out = os.path.join(self.work, f"setup{k}")
        stages = [
            run_stage("build", [sys.executable, "-m", "compileall", "-q", "-f", SRC],
                      self.env, os.path.join(self.work, f"setup{k}-build"), self.deadline),
            run_stage("import", [sys.executable, "-c", "import biltrans.cli"],
                      self.env, os.path.join(self.work, f"setup{k}-import"), self.deadline),
        ]
        for sub, *flags in self.wl.setup:
            if all(s.ok for s in stages):
                stages.append(self._stage(sub, flags, out))
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return out, stages

    def round(self, k, source, traced=False):
        """The timed stages once, in a fresh output directory that holds a
        copy of the set-up's checkpoints and a link to its read-only data."""
        out = os.path.join(self.work, f"round{k}" + ("-traced" if traced else ""))
        if source is not None:
            shutil.copytree(source, out, ignore=shutil.ignore_patterns("logs", "data"))
            os.symlink(os.path.join(source, "data"), os.path.join(out, "data"))
        stages = []
        for sub, *flags in self.wl.timed:
            stages.append(self._stage(sub, flags, out, traced))
            if not stages[-1].ok:
                break
        shutil.rmtree(out, ignore_errors=True)
        return stages


def fingerprint(stages):
    fp = {}
    for s in stages:
        fp.update(s.fingerprint)
    return fp


def require_same(reference, stages, what):
    """Mark the first stage whose fingerprint differs from the reference."""
    for s in stages:
        for key, value in s.fingerprint.items():
            if reference.get(key) != value:
                s.problems.append(f"{s.name}: {key} differs from {what}")
                break


# ---------------------------------------------------------------------------
# measurement modes


def measure(runner, seconds):
    """Set up SETUPS_PER_RUN times and repeat timed rounds within ``seconds``;
    returns (set-ups, rounds, host probe times).

    A host probe runs before the first set-up and after every set-up and
    round, so the probes sample the host's speed across the whole run. The
    later set-ups are interleaved with the first rounds for the same reason.
    Another round is started only while it is expected to end within
    ``seconds`` (there is always one).
    """
    start = time.perf_counter()
    setups, rounds, round_walls = [], [], []
    probes = [host_probe()]

    def probed(stages):
        probes.append(host_probe())
        return stages

    def set_up():
        out, stages = runner.set_up(len(setups), keep=not setups)
        if setups:
            require_same(fingerprint(setups[0][1]), stages, "the first set-up")
        setups.append((out, probed(stages)))
        return all(s.ok for s in stages)

    if not set_up():
        return setups, rounds, probes
    source = setups[0][0] if runner.wl.setup else None
    while True:
        t0 = time.perf_counter()
        stages = probed(runner.round(len(rounds), source))
        round_walls.append(time.perf_counter() - t0)
        if rounds:
            require_same(fingerprint(rounds[0]), stages, "the first round")
        rounds.append(stages)
        if not all(s.ok for s in stages) or len(stages) < len(runner.wl.timed):
            return setups, rounds, probes
        if len(setups) < SETUPS_PER_RUN and not set_up():
            return setups, rounds, probes
        if time.perf_counter() - start + statistics.median(round_walls) > seconds:
            break
    while len(setups) < SETUPS_PER_RUN and set_up():
        pass
    return setups, rounds, probes


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end_metrics(runner, setups, rounds, probes):
    """(gated metric values, reported-only (value, unit) pairs).

    Times are medians over the run's set-ups or rounds, at the reference
    speed: multiplied by PROBE_REF_S over the run's median host probe. The
    raw medians are reported beside them.
    """
    ok_rounds = [r for r in rounds if all(s.ok for s in r)]
    ok_setups = [st for _, st in setups if all(s.ok for s in st)]
    raw_setup = _median(sum(s.wall_s for s in st) for st in ok_setups)
    raw_wall = _median(sum(s.wall_s for s in r) for r in ok_rounds)
    speed = PROBE_REF_S / statistics.median(probes)
    values = {
        "setup_s": raw_setup and raw_setup * speed,
        "wall_s": raw_wall and raw_wall * speed,
        "peak_rss_mb": max((s.rss_mb for r in rounds for s in r), default=None),
    }
    extra = {"raw_setup_s": (raw_setup, "s"), "raw_wall_s": (raw_wall, "s"),
             "host_probe_s": (statistics.median(probes), "s")}
    timed = {t[0] for t in runner.wl.timed}
    for name, (sub, per) in STAGE_RATES.items():
        if sub in timed:
            units = runner.cfg[per] if per else 1
            rate = _median(s.wall_s / units for r in ok_rounds for s in r if s.name == sub)
            extra[name] = (rate and rate * speed, "s")
    if "eval" in timed:
        fp = fingerprint(ok_rounds[0]) if ok_rounds else {}
        extra["bilevel_mse"] = (fp.get("bilevel.mean_mse"), "mse")
        extra["baseline_shot_mse"] = (fp.get("baseline_shot.mean_mse"), "mse")
    return values, extra


def trace_run(runner):
    """One set-up, one untraced round and one traced round of the same seed."""
    out, setup_stages = runner.set_up(0, keep=True)
    if not all(s.ok for s in setup_stages):
        return setup_stages, [], [], None
    source = out if runner.wl.setup else None
    plain = runner.round(0, source)
    traced = runner.round(0, source, traced=True) if all(s.ok for s in plain) else []
    require_same(fingerprint(plain), traced, "the untraced round")
    return setup_stages, plain, traced, fingerprint(plain)


def layer_values(runner, plain, traced):
    """Per-layer metric values summed over the traced stages, and their dumps."""
    totals, repeats = {}, {}
    backward_ops = [0, 0]
    stage_spans = []
    for path in runner.trace_dumps:
        if not os.path.exists(path):  # the stage died before dumping; it already failed
            continue
        with open(path) as f:
            dump = json.load(f)
        for name, (n, incl, self_s) in dump["totals"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += n
            t[1] += incl
            t[2] += self_s
        for name, r in dump["repeats"].items():
            repeats[name] = repeats.get(name, 0) + r
        backward_ops[0] += dump["backward_ops"][0]
        backward_ops[1] += dump["backward_ops"][1]
        stage_spans.append(dump)
    calls = {name: t[0] for name, t in totals.items()}
    n_backward = calls.get("tensor.backward", 0)
    untraced_s = sum(s.wall_s for s in plain)
    traced_s = sum(s.wall_s for s in traced)
    values = {}
    for metric, _ in tracer.layer_metrics():
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = totals.get(base, [0])[0]
        elif kind == "s":
            values[metric] = totals.get(base, [0, 0.0])[1]
        elif kind == "self_s":
            values[metric] = totals.get(base, [0, 0.0, 0.0])[2]
        elif kind == "repeat_ratio":
            values[metric] = repeats.get(base, 0) / calls[base] if calls.get(base) else 0.0
        elif metric == "tensor.tape.ops_at_backward":
            values[metric] = backward_ops[0] / n_backward if n_backward else 0.0
        elif metric == "tensor.tape.ops_added_by_backward":
            values[metric] = backward_ops[1] / n_backward if n_backward else 0.0
        elif metric == "trace.overhead_s":
            values[metric] = traced_s - untraced_s
        elif metric == "trace.overhead_ratio":
            values[metric] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    return values, stage_spans


# ---------------------------------------------------------------------------
# reporting


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed):
    import numpy

    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_commit": git_commit(),
        "source_sha256": _tree_sha256(SRC, ".py"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in blas_vars},
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def stage_records(stages):
    return [{"stage": s.name, "wall_s": s.wall_s, "rss_mb": s.rss_mb,
             "problems": s.problems, "fingerprint": s.fingerprint} for s in stages]


def run(workload_name, seed, seconds, trace, out_root=OUT_ROOT, workload=None):
    """Run one benchmark; returns (result line, full result record)."""
    wl = workload or WORKLOADS[workload_name]
    env = environment(seed)
    stamp = f"{workload_name}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = os.path.join(out_root, "work", stamp)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    runner = Runner(wl, seed, work)
    try:
        if trace:
            setup_stages, plain, traced, digests = trace_run(runner)
            all_stages = setup_stages + plain + traced
            metrics, spans = layer_values(runner, plain, traced)
            units = dict(tracer.layer_metrics())
            detail = {"setup": stage_records(setup_stages), "untraced_round": stage_records(plain),
                      "traced_round": stage_records(traced), "digests": digests}
            extra = {}
        else:
            setups, rounds, probes = measure(runner, seconds)
            all_stages = [s for _, st in setups for s in st] + [s for r in rounds for s in r]
            metrics, extra = end_to_end_metrics(runner, setups, rounds, probes)
            units = dict(END_TO_END)
            spans = None
            detail = {"setups": [stage_records(st) for _, st in setups],
                      "rounds": [stage_records(r) for r in rounds], "host_probes_s": probes,
                      "digests": fingerprint(rounds[0]) if rounds else {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # timed stages that never ran because an earlier one failed count as failed
    rounds_run = [plain, traced] if trace else rounds or [[]]
    missing = sum(len(wl.timed) - len(r) for r in rounds_run)
    attempted = len(all_stages) + missing
    failed = sum(not s.ok for s in all_stages) + missing
    correct = failed == 0 and all(v is not None for v in metrics.values())
    extra["failed_ratio"] = (failed / attempted, "ratio")
    env["loadavg_end"] = list(os.getloadavg())
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload_name,
        "why": wl.why,
        "seconds": seconds,
        "trace": trace,
        "config": {**DESK, **wl.config},
        "environment": env,
        "result": line,
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "problems": [p for s in all_stages for p in s.problems],
        **detail,
    }
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    with open(os.path.join(out_root, "results", stamp + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if spans is not None:
        with open(os.path.join(out_root, "results", stamp + ".spans.json"), "w") as f:
            json.dump(span_records(spans), f)
    return line, record


def span_records(stage_dumps):
    """Every span as {stage, id, parent, name, start, end}; ids are per stage."""
    return [
        {"stage": d["stage_id"], "id": i, "parent": p, "name": n, "start": a, "end": b}
        for d in stage_dumps for i, p, n, a, b in d["spans"]
    ]


def print_summary(record):
    line = record["result"]
    print(f"{record['workload']} seed {record['environment']['seed']} trace {record['trace']}: "
          f"{line['attempted']} stages, {line['failed']} failed")
    for p in record["problems"]:
        print(f"  problem: {p}")
    shown = {**line["metrics"], **record["reported"]}
    for name, m in shown.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<44} {value:>12} {m['unit']}")


def main(argv=None):
    p = argparse.ArgumentParser(description="biltrans CLI-stage benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="master seed of the generated inputs")
    p.add_argument("--seconds", type=float, required=True, help="time budget of the set-ups and timed rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "biltrans", "cli.py")):
        print(f"error: no biltrans sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process, the host probes and every stage (children
    # inherit it): the host's speed drifts per CPU, so a probe only tells the
    # speed a stage saw if both ran on the same CPU. numpy's BLAS then starts
    # one thread, as it does on a one-CPU machine.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    line, record = run(args.workload, args.seed, args.seconds, args.trace)
    print_summary(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
