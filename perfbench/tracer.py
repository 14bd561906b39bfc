"""Run one biltrans CLI stage in this process with its layer functions traced.

    python3 perfbench/tracer.py --dump OUT.json --stage-id ID -- <biltrans arguments>

The tracer replaces each traced function at every name its callers look
up (module globals of every loaded ``biltrans`` module, or the class
attribute for methods), runs ``biltrans.cli.main`` and writes what it saw
to ``OUT.json`` when the stage ends, even if the stage raised.

Two kinds of record come out:

* spans ``[id, parent_id, name, start_s, end_s]`` for every call of a
  traced function, in memory until the stage ends. Tensor ops are too many
  to keep one span each (hundreds of thousands per stage), so they are
  only aggregated; they still count as child spans when self time is
  computed.
* per-name totals ``[calls, inclusive_s, self_s]`` and counters.

Self time is a call's duration minus the time covered by its traced
children (ops included).
"""

import argparse
import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# op kinds named individually; every other op kind is folded into "other"
OP_KINDS = ("conv2d", "pad_reflect", "channel_broadcast", "add", "mul", "sub",
            "scalar_mul", "concat_channels", "relu", "reduce_mean", "other")

# (module, attribute path, leaf). A leaf calls no other traced function, so
# its inclusive time equals its self time and only the self time is reported.
TARGETS = (
    ("tensor", "backward", False),
    ("nets", "generator_forward", False),
    ("nets", "discriminator_forward", False),
    ("nets", "ParameterSet.copy", True),
    ("losses", "perceptual_loss", False),
    ("losses", "l1_loss", False),
    ("losses", "FeatureExtractor.features", False),
    ("optim", "adam_step", True),
    ("optim", "sgd_step_differentiable", False),
    ("bilevel", "pretrain", False),
    ("bilevel", "metatrain", False),
    ("bilevel", "meta_update", False),
    ("bilevel", "meta_gradients", False),
    ("bilevel", "inner_adapt", False),
    ("bilevel", "gp_finetune_on_aux", False),
    ("bilevel", "test_adapt", False),
    ("bilevel", "Objective.pair_losses", False),
    ("bilevel", "Objective.disc_loss_detached", False),
    ("bilevel", "Objective.generate", False),
    ("cli", "train_task_pool", False),
    ("cli", "adapt_one_scene", False),
    ("tasks", "render", False),
    ("tasks", "sample_episode", False),
    ("tasks", "augment", True),
    ("tasks", "retrieve_topk", False),
    ("tasks", "similarity", True),
    ("tasks", "load_manifest", False),
    ("tasks", "synth_scene", True),
    ("tasks", "export_dataset", False),
    ("tasks", "write_ppm", True),
    ("tasks", "read_ppm", True),
    ("metrics", "score_pair", False),
    ("checkpoint", "save_checkpoint", True),
    ("checkpoint", "build_state", True),
    ("checkpoint", "load_checkpoint", False),
)

# functions whose repeated work is counted: name -> key of one unit of work
REPEAT_KEYS = {
    # a render is fully determined by (scene, layout seed)
    "tasks.render": lambda args, kwargs: (
        args[0].scene_id, args[1] if len(args) > 1 else kwargs["layout_seed"]),
    # the same file content read again
    "checkpoint.load_checkpoint": lambda args, kwargs: _file_key(args[0]),
}


def _file_key(path):
    st = os.stat(path)
    return os.path.abspath(path), st.st_mtime_ns, st.st_size


def layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, attr, leaf in TARGETS:
        name = f"{module}.{attr}"
        out.append((f"{name}.calls", "count"))
        if not leaf:
            out.append((f"{name}.s", "s"))
        out.append((f"{name}.self_s", "s"))
        if name == "tensor.backward":
            for kind in OP_KINDS:
                out += [(f"tensor.op.{kind}.calls", "count"), (f"tensor.op.{kind}.self_s", "s")]
            out += [("tensor.tape.ops_at_backward", "count"),
                    ("tensor.tape.ops_added_by_backward", "count")]
        if name in REPEAT_KEYS:
            out.append((f"{name}.repeat_ratio", "ratio"))
    return out + [("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent_id, name, start, end]
        self.stack = []  # open calls: [child_s, span_id]; span_id 0 for ops
        self.totals = {}  # name -> [calls, inclusive_s, self_s]
        self.seen = {name: set() for name in REPEAT_KEYS}
        self.repeats = {name: 0 for name in REPEAT_KEYS}
        self.backward_ops = [0, 0]  # summed ops at entry, summed ops added

    def _close(self, name, frame, start):
        end = perf_counter()
        dur = end - start
        self.stack.pop()
        t = self.totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += dur
        t[2] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur
        return end

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        repeat_key = REPEAT_KEYS.get(name)

        def traced(*args, **kwargs):
            if repeat_key is not None:
                key = repeat_key(args, kwargs)
                if key in self.seen[name]:
                    self.repeats[name] += 1
                self.seen[name].add(key)
            span_id = len(spans) + 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            span = [span_id, parent, name, 0.0, 0.0]
            spans.append(span)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3], span[4] = start, self._close(name, frame, start)

        return traced

    def wrap_apply(self, fn):
        stack = self.stack
        names = {k: f"tensor.op.{k}" for k in OP_KINDS}

        def _apply(name, inputs, attrs=None):
            frame = [0.0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(name, inputs, attrs)
            finally:
                self._close(names.get(name, "tensor.op.other"), frame, start)

        return _apply

    def wrap_backward(self, fn):
        traced = self.wrap("tensor.backward", fn)

        def backward(loss, wrt, tape=None):
            on = tape if tape is not None else (loss.node[0] if loss.node else None)
            before = len(on.ops) if on is not None else 0
            try:
                return traced(loss, wrt, tape)
            finally:
                self.backward_ops[0] += before
                self.backward_ops[1] += (len(on.ops) if on is not None else 0) - before

        return backward

    def install(self):
        """Wrap every target at each name under which biltrans code finds it."""
        import biltrans.cli  # noqa: F401  (loads every biltrans module)

        modules = [m for n, m in sys.modules.items() if n == "biltrans" or n.startswith("biltrans.")]
        tensor = sys.modules["biltrans.tensor"]
        tensor._apply = self.wrap_apply(tensor._apply)
        for module, attr, _ in TARGETS:
            owner = sys.modules[f"biltrans.{module}"]
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap_backward(orig) if name == "tensor.backward" else self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def dump(self, path, stage_id):
        record = {
            "stage_id": stage_id,
            "totals": self.totals,
            "repeats": self.repeats,
            "backward_ops": self.backward_ops,
            "spans": self.spans,
        }
        with open(path, "w") as f:
            json.dump(record, f)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dump", required=True, help="where to write the stage's trace record")
    p.add_argument("--stage-id", required=True, help="id shared by every span of this stage")
    p.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then biltrans CLI arguments")
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = Tracer()
    tracer.install()
    from biltrans import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(args.dump, args.stage_id)


if __name__ == "__main__":
    sys.exit(main())
