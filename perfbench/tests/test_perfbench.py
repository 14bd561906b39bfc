"""Schema and fidelity tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They run every CLI stage at tiny shapes, so they take well under a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402
import tracer  # noqa: E402

TINY = run.Workload(
    why="every stage at tiny shapes",
    config={
        "image_size": 8, "classes": 3, "base_width": 4, "depth": 1, "n_train_scenes": 4,
        "n_unseen_scenes": 1, "clusters": 2, "samples_per_scene": 2, "pretrain_iters": 1,
        "metatrain_iters": 1, "n_shot": 1, "inner_batch": 2, "meta_batch": 2, "n_test": 1,
        "inner_iters": 1, "k_aux": 2, "gp_finetune_iters": 1, "phi_widths": "4",
    },
    setup=(("gen-data",), ("pretrain",)),
    timed=(("metatrain", "--meta-mode", "first-order"), ("adapt", "--aux", "on"),
           ("eval", "--aux", "on")),
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV_KEYS = {"git_commit", "source_sha256", "python", "numpy", "platform", "nproc",
            "cpus", "blas_threads_env", "loadavg_start", "loadavg_end", "seed"}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run.run("tiny", 3, 0, 0, out_root=str(tmp_path_factory.mktemp("plain")), workload=TINY)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    line, record = run.run("tiny", 3, 0, 1, out_root=str(out), workload=TINY)
    (spans_file,) = (out / "results").glob("*.spans.json")
    return line, record, json.loads(spans_file.read_text())


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, w.why) for name, w in run.WORKLOADS.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.layer_metrics()
    assert len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_untraced_result_schema(untraced):
    line, record = untraced
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert [(k, m["unit"]) for k, m in line["metrics"].items()] == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert set(record["environment"]) == ENV_KEYS
    assert set(record["reported"]) == {"meta_s_per_it", "adapt_s_per_scene", "eval_s",
                                       "bilevel_mse", "baseline_shot_mse", "failed_ratio",
                                       "raw_setup_s", "raw_wall_s", "host_probe_s"}
    # a host probe before the first set-up and after every set-up and round
    assert len(record["host_probes_s"]) == run.SETUPS_PER_RUN + len(record["rounds"]) + 1
    assert record["reported"]["failed_ratio"]["value"] == 0
    digests = record["digests"]
    assert {"metatrain.g_gp", "metatrain.d_gp", "bilevel.mean_mse"} <= set(digests)
    # every set-up repeats the seed, so their checkpoints must agree
    setup_digests = [{k: v for s in st for k, v in s["fingerprint"].items()} for st in record["setups"]]
    assert len(setup_digests) == run.SETUPS_PER_RUN
    assert all(d == setup_digests[0] and "pretrain.g_gp" in d for d in setup_digests)


def test_traced_run_reports_layers_and_keeps_digests(traced, untraced):
    line, record, spans = traced
    assert line["correct"] is True and line["failed"] == 0
    assert [(k, m["unit"]) for k, m in line["metrics"].items()] == tracer.layer_metrics()
    # the wrappers leave every number unchanged
    plain = {k: v for s in record["untraced_round"] for k, v in s["fingerprint"].items()}
    with_trace = {k: v for s in record["traced_round"] for k, v in s["fingerprint"].items()}
    assert plain == with_trace == untraced[1]["digests"]
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    for name in ("bilevel.test_adapt.calls", "cli.adapt_one_scene.calls", "tensor.op.conv2d.calls",
                 "metrics.score_pair.calls", "checkpoint.load_checkpoint.calls"):
        assert metrics[name] > 0, name
    assert metrics["tensor.tape.ops_at_backward"] > 0


def test_span_records(traced):
    _, record, spans = traced
    traced_names = {f"{m}.{a}" for m, a, _ in tracer.TARGETS}
    stages = {s["stage"] for s in spans}
    assert len(stages) == len(TINY.timed)
    by_id = {(s["stage"], s["id"]): s for s in spans}
    for s in spans:
        assert set(s) == {"stage", "id", "parent", "name", "start", "end"}
        assert s["name"] in traced_names and s["start"] <= s["end"]
        if s["parent"]:
            parent = by_id[(s["stage"], s["parent"])]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
