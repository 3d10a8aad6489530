"""Span tracer for feadapter, installed from outside the package.

``Tracer.install`` replaces the public functions of each feadapter
module with timing wrappers in every namespace that holds them (module
globals and module-level dicts such as ``adapter.ACTIVATIONS``), and
``uninstall`` puts the originals back. Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, tag)``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``tag`` carries a span-kind
detail: ``"n"`` on a tensor op whose result is a graph node, the
creating component on a backward (VJP) span, or the byte count on a
checkpoint span. Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import numpy as np

perf = time.perf_counter

# Every tensor function that creates a graph node. The completeness
# check fails the traced run if a node appears that none of these made.
TENSOR_OPS = ("add", "sub", "mul", "neg", "matmul", "reshape", "transpose", "getitem",
              "concat", "broadcast_to", "sum_axis", "mean_axis", "softmax_lastdim",
              "layer_norm", "gelu", "relu", "softplus", "cross_entropy", "depthwise_conv3d")

REPORTED_OPS = ("matmul", "depthwise_conv3d", "gelu", "layer_norm", "add", "mul",
                "softmax_lastdim", "reshape", "transpose", "getitem", "concat", "mean_axis",
                "softplus", "cross_entropy")

# Per-layer metrics, in the order BENCHMARK.json lists them. Each is a
# per-operation total, except data.synth_s and config.load_ms, which are
# per set-up, and the two trace.* ratios.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    *((f"tensor.{op}.{half}_ms", "ms") for op in REPORTED_OPS for half in ("fwd", "bwd")),
    ("tensor.backward.self_ms", "ms"), ("tensor.op_calls", "count"),
    ("tensor.graph_nodes", "count"),
    ("backbone.patchify_ms", "ms"), ("backbone.embed_ms", "ms"), ("backbone.mhsa_ms", "ms"),
    ("backbone.block_self_ms", "ms"), ("backbone.encode_ms", "ms"),
    ("backbone.block_calls", "count"), ("backbone.mhsa.bwd_ms", "ms"),
    ("backbone.block.bwd_ms", "ms"),
    ("adapter.apply_ms", "ms"), ("adapter.dilation_rates_ms", "ms"), ("adapter.grid_ms", "ms"),
    ("adapter.calls", "count"), ("adapter.bwd_ms", "ms"),
    ("training.optimizer_ms", "ms"), ("training.evaluate_ms", "ms"),
    ("training.steps", "count"), ("training.evals", "count"),
    ("checkpoint.save_ms", "ms"), ("checkpoint.load_ms", "ms"), ("checkpoint.bytes", "bytes"),
    ("data.synth_s", "s"), ("data.batch_ms", "ms"), ("config.load_ms", "ms"),
    ("metrics.uar_war_ms", "ms"),
    ("gradcheck.loss_evals", "count"), ("gradcheck.loss_eval_ms", "ms"),
    ("gradcheck.backward_ms", "ms"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
)

# (module, function, span name); component spans also scope the
# backward time of the nodes created inside them.
_PLAIN = (
    ("backbone", "patchify_clips", "backbone.patchify"),
    ("backbone", "embed_tokens", "backbone.embed"),
    ("adapter", "tokens_to_grid", "adapter.grid"),
    ("adapter", "grid_to_tokens", "adapter.grid"),
    ("training", "train", "training.train"),
    ("data", "synth_dataset", "data.synth"),
    ("config", "load_experiment_config", "config.load"),
    ("config", "experiment_from_values", "config.load"),
    ("gradcheck", "gradcheck_model", "gradcheck.gradcheck_model"),
)
_COMPONENTS = (
    ("backbone", "mhsa", "backbone.mhsa"),
    ("adapter", "apply_adapter", "adapter.apply"),
    ("adapter", "dilation_rates", "adapter.dilation_rates"),
)


class TraceIncomplete(RuntimeError):
    """A graph node was created by a tensor function the tracer does not wrap."""


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.spans: list[tuple] = []
        self.stack = [-1]          # indices of the open spans
        self.scope = [""]          # innermost open component span
        self.check_s = 0.0         # time spent in completeness checks
        self.nodes_since_forward = 0
        self.eval_start = None     # start of a train()-internal eval pass
        self.in_evaluate_model = 0
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, name: str, start: float, tag=None) -> None:
        self.stack.pop()
        self.spans[idx] = (name, start, perf(), self.stack[-1], tag)

    def _span(self, name, fn, component=False):
        tr = self

        def wrapper(*args, **kwargs):
            idx = tr.open(name)
            if component:
                tr.scope.append(name)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                if component:
                    tr.scope.pop()
                tr.close(idx, name, t0)
        return wrapper

    def _tensor_op(self, op, fn):
        tr, name, bwd_name = self, f"tensor.{op}", f"tensor.{op}.bwd"
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = tr.open(name)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tr.close(idx, name, t0)
                raise
            vjp = out._vjp
            if vjp is None:
                tr.close(idx, name, t0)
                return out
            scope = tr.scope[-1]

            def timed_vjp(g):
                s0 = perf()
                grads = vjp(g)
                spans.append((bwd_name, s0, perf(), stack[-1], scope))
                return grads
            out._vjp = timed_vjp
            tr.nodes_since_forward += 1
            tr.close(idx, name, t0, "n")
            return out
        return wrapper

    def _check_complete(self, root) -> None:
        """Wrapped op calls since the forward began, plus leaves, must
        account for every node of the graph under ``root``."""
        t0 = perf()
        nodes = self._trace_graph(root)
        leaves = sum(1 for n in nodes if n._vjp is None)
        if self.nodes_since_forward + leaves != len(nodes):
            raise TraceIncomplete(
                f"graph has {len(nodes)} nodes but the tracer saw {self.nodes_since_forward} "
                f"op results and {leaves} leaves: a tensor op is not wrapped")
        t1 = perf()
        self.check_s += t1 - t0
        self.spans.append(("trace.check", t0, t1, self.stack[-1], None))

    def _forward(self, fn):
        tr, name = self, "backbone.forward"

        def wrapper(*args, **kwargs):
            tr.nodes_since_forward = 0
            idx = tr.open(name)
            t0 = perf()
            if tr.eval_start is None:
                tr.eval_start = t0
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(idx, name, t0)
            if out.requires_grad:
                tr._check_complete(out)
            return out
        return wrapper

    def _backward(self, fn):
        tr, name = self, "tensor.backward"

        def wrapper(loss):
            tr._check_complete(loss)
            idx = tr.open(name)
            t0 = perf()
            try:
                return fn(loss)
            finally:
                tr.close(idx, name, t0)
        return wrapper

    def _optimizer(self, fn):
        inner = self._span("training.optimizer", fn)
        tr = self

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                tr.eval_start = None
        return wrapper

    def _evaluate_model(self, fn):
        inner = self._span("training.evaluate", fn)
        tr = self

        def wrapper(*args, **kwargs):
            tr.in_evaluate_model += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tr.in_evaluate_model -= 1
        return wrapper

    def _uar_war(self, fn):
        inner = self._span("metrics.uar_war", fn)
        tr = self

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                # train() evaluates in a closure the tracer cannot wrap; its
                # pass runs from the first forward after the last optimizer
                # step until uar_war returns
                if not tr.in_evaluate_model and tr.eval_start is not None:
                    tr.spans.append(("training.evaluate", tr.eval_start, perf(),
                                     tr.stack[-1], None))
                tr.eval_start = None
        return wrapper

    def _checkpoint(self, name, fn, path_arg):
        tr = self

        def wrapper(*args, **kwargs):
            idx = tr.open(name)
            t0 = perf()
            size = None
            try:
                out = fn(*args, **kwargs)
                size = os.path.getsize(args[path_arg])
                return out
            finally:
                tr.close(idx, name, t0, size)
        return wrapper

    # -- installation -------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` wherever a feadapter module
        or one of its module-level dicts holds it."""
        prefix = self.pkg.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((vars(mod), key, original))
                    setattr(mod, key, wrapper)
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k2, v2 in list(val.items()):
                        if v2 is original:
                            self._undo.append((val, k2, original))
                            val[k2] = wrapper

    def _set_method(self, cls, attr, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def install(self) -> None:
        pkg = self.pkg
        mod = {name: importlib.import_module(f"{pkg.__name__}.{name}")
               for name in ("tensor", "backbone", "adapter", "training", "checkpoint",
                            "data", "config", "metrics", "gradcheck")}
        tensor = mod["tensor"]
        self._trace_graph = tensor.trace_graph
        for op in TENSOR_OPS:
            fn = getattr(tensor, op)
            self._replace(fn, self._tensor_op(op, fn))
        self._replace(tensor.backward, self._backward(tensor.backward))
        for m, attr, name in _PLAIN:
            fn = getattr(mod[m], attr)
            self._replace(fn, self._span(name, fn))
        for m, attr, name in _COMPONENTS:
            fn = getattr(mod[m], attr)
            self._replace(fn, self._span(name, fn, component=True))
        fn = mod["training"].evaluate_model
        self._replace(fn, self._evaluate_model(fn))
        fn = mod["metrics"].uar_war
        self._replace(fn, self._uar_war(fn))
        ckpt = mod["checkpoint"]
        self._replace(ckpt.save_checkpoint,
                      self._checkpoint("checkpoint.save", ckpt.save_checkpoint, 1))
        self._replace(ckpt.load_checkpoint,
                      self._checkpoint("checkpoint.load", ckpt.load_checkpoint, 0))
        vit = mod["backbone"].VideoViT
        self._set_method(vit, "forward", self._forward)
        self._set_method(vit, "encode", lambda fn: self._span("backbone.encode", fn))
        self._set_method(vit, "_block",
                         lambda fn: self._span("backbone.block", fn, component=True))
        self._set_method(mod["training"].AdamW, "step", self._optimizer)

    def time_clips(self, batch) -> None:
        """Record slicing of ``batch.clips`` (the wait for data) as
        ``data.batch`` spans, inside or outside the program."""
        tr = self

        class TimedClips(np.ndarray):
            def __getitem__(self, key):
                idx = tr.open("data.batch")
                t0 = perf()
                try:
                    return np.ndarray.__getitem__(self.view(np.ndarray), key)
                finally:
                    tr.close(idx, "data.batch", t0)

        self._undo.append((batch, "clips", batch.clips))
        batch.clips = batch.clips.view(TimedClips)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    # -- output -------------------------------------------------------

    def dump(self, path: str, facts: dict) -> None:
        """Write every span, times in microseconds from the first."""
        base = min((s[1] for s in self.spans if s is not None), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"facts": facts,
                                 "columns": ["name", "start_us", "end_us", "parent", "tag"]}))
            fh.write("\n")
            for name, t0, t1, parent, tag in self.spans:
                fh.write(json.dumps([name, round((t0 - base) * 1e6, 1),
                                     round((t1 - base) * 1e6, 1), parent, tag]))
                fh.write("\n")


def layer_metrics(spans: list[tuple], root: int) -> dict[str, float]:
    """Per-layer totals for one root span (an operation or a set-up).

    ``spans[root:]`` must hold exactly the spans recorded under it.
    Time spent in completeness checks (``trace.check`` spans) is left
    out of every figure.
    """
    ms = 1e3
    dur: dict[str, float] = {}
    count: dict[str, int] = {}
    own = spans[root + 1:]
    nodes = bwd_total = 0
    bwd_scope = {"adapter": 0.0, "backbone.mhsa": 0.0, "backbone.block": 0.0}
    for name, t0, t1, parent, tag in own:
        d = t1 - t0
        dur[name] = dur.get(name, 0.0) + d
        count[name] = count.get(name, 0) + 1
        if name.endswith(".bwd"):
            bwd_total += d
            key = "adapter" if tag.startswith("adapter.") else tag
            if key in bwd_scope:
                bwd_scope[key] += d
        elif tag == "n":
            nodes += 1
    _, r0, r1, _, _ = spans[root]
    checks = [(t0, t1) for name, t0, t1, _, _ in own if name == "trace.check"]
    covered = sum(t1 - t0 for _, t0, t1, parent, _ in own if parent == root)
    wall = r1 - r0 - dur.get("trace.check", 0.0)

    def total(name):
        return dur.get(name, 0.0) * ms

    out = {}
    for op in REPORTED_OPS:
        out[f"tensor.{op}.fwd_ms"] = total(f"tensor.{op}")
        out[f"tensor.{op}.bwd_ms"] = total(f"tensor.{op}.bwd")
    out["tensor.backward.self_ms"] = total("tensor.backward") - bwd_total * ms
    out["tensor.op_calls"] = sum(count.get(f"tensor.{op}", 0) for op in TENSOR_OPS)
    out["tensor.graph_nodes"] = nodes
    out["backbone.patchify_ms"] = total("backbone.patchify")
    out["backbone.embed_ms"] = total("backbone.embed")
    out["backbone.mhsa_ms"] = total("backbone.mhsa")
    out["backbone.block_self_ms"] = (total("backbone.block") - total("backbone.mhsa")
                                     - total("adapter.apply"))
    out["backbone.encode_ms"] = total("backbone.encode")
    out["backbone.block_calls"] = count.get("backbone.block", 0)
    out["backbone.mhsa.bwd_ms"] = bwd_scope["backbone.mhsa"] * ms
    out["backbone.block.bwd_ms"] = bwd_scope["backbone.block"] * ms
    out["adapter.apply_ms"] = total("adapter.apply")
    out["adapter.dilation_rates_ms"] = total("adapter.dilation_rates")
    out["adapter.grid_ms"] = total("adapter.grid")
    out["adapter.calls"] = count.get("adapter.apply", 0)
    out["adapter.bwd_ms"] = bwd_scope["adapter"] * ms
    out["training.optimizer_ms"] = total("training.optimizer")
    out["training.evaluate_ms"] = (total("training.evaluate") - ms * sum(
        c1 - c0 for name, t0, t1, _, _ in own if name == "training.evaluate"
        for c0, c1 in checks if t0 <= c0 and c1 <= t1))
    out["training.steps"] = count.get("training.optimizer", 0)
    out["training.evals"] = count.get("training.evaluate", 0)
    out["checkpoint.save_ms"] = total("checkpoint.save")
    out["checkpoint.load_ms"] = total("checkpoint.load")
    out["checkpoint.bytes"] = sum(tag for name, *_, tag in own
                                  if name.startswith("checkpoint.") and tag)
    out["data.synth_s"] = dur.get("data.synth", 0.0)
    out["data.batch_ms"] = total("data.batch")
    out["config.load_ms"] = sum(
        t1 - t0 for name, t0, t1, parent, _ in own
        if name == "config.load" and (parent < 0 or spans[parent][0] != "config.load")) * ms
    out["metrics.uar_war_ms"] = total("metrics.uar_war")
    out.update(_gradcheck_metrics(own))
    out["trace.coverage"] = (covered - dur.get("trace.check", 0.0)) / wall if wall > 0 else 0.0
    return out


def _gradcheck_metrics(own: list[tuple]) -> dict[str, float]:
    """Loss evaluations are the forwards (and their cross-entropies)
    inside gradcheck_model after the first, analytic one."""
    evals = eval_s = backward_s = 0.0
    for name, g0, g1, _, _ in own:
        if name != "gradcheck.gradcheck_model":
            continue
        inside = sorted((s for s in own if g0 <= s[1] and s[2] <= g1), key=lambda s: s[1])
        fwd = [s for s in inside if s[0] == "backbone.forward"]
        ce = [s for s in inside if s[0] == "tensor.cross_entropy"]
        evals += max(len(fwd) - 1, 0)
        eval_s += sum(s[2] - s[1] for s in fwd[1:] + ce[1:])
        backward_s += sum(s[2] - s[1] for s in inside if s[0] == "tensor.backward")
    return {"gradcheck.loss_evals": evals, "gradcheck.loss_eval_ms": eval_s * 1e3,
            "gradcheck.backward_ms": backward_s * 1e3}
