"""Span tracing of the draftflow package from outside it.

`Tracer.install` swaps the module functions and methods listed in TARGETS
for wrappers that record one span per call (name, start, end, parent span,
operation index) into in-memory arrays; `uninstall` puts the originals
back. The package source is never edited.

Backward passes are traced by wrapping `tensor._node`, which every tape op
calls to build its output: the backward closure handed to it is replaced by
a wrapper that records a `tensor.<op>.bwd` span, so forward and backward
time are separate. `Tensor.__init__` is wrapped to count tensors.

A span's self time is its duration minus the time its child spans cover.
Per-layer metrics are totals over the traced operations divided by the
number of operations, so runs of different length compare directly.
"""

from __future__ import annotations

import array
import collections
import os
import sys
import time

import numpy as np

from draftflow import tensor as T


def _rows(tracer, span, args, kwargs, out, dur):
    # args[1] is the (B, ...) ids or latents; a single 1-D row counts as one
    shape = args[1].shape
    tracer.count(f"{span}.rows", shape[0] if len(shape) > 1 else 1)


def _file_bytes(tracer, span, args, kwargs, out, dur):
    tracer.count(f"{span}.bytes", os.path.getsize(args[0]))


def _per_variant(tracer, span, args, kwargs, out, dur):
    variant = kwargs.get("variant", args[3] if len(args) > 3 else None)
    tracer.count(f"{span}.{variant}.s", dur)


def _sinkhorn(tracer, span, args, kwargs, out, dur):
    tracer.count(f"{span}.iters", out.iters)
    tracer.count(f"{span}.converged", int(out.converged))


def _probe_steps(tracer, span, args, kwargs, out, dur):
    tracer.count(f"{span}.steps", int(out["steps_used"].sum()))


# (span name, module, attribute path, hook run after the call)
TARGETS = [
    ("tensor.affine", "tensor", "affine", None),
    ("tensor.attention_core", "tensor", "attention_core", None),
    ("tensor.layer_norm", "tensor", "layer_norm", None),
    ("tensor.dwconv1d", "tensor", "dwconv1d", None),
    ("tensor.transpose", "tensor", "transpose", None),
    ("tensor.reshape", "tensor", "reshape", None),
    ("tensor.add", "tensor", "add", None),
    ("tensor.logsumexp", "tensor", "logsumexp", None),
    ("tensor.backward", "tensor", "Tensor.backward", None),
    ("nn.AdamW.step", "nn", "AdamW.step", None),
    ("nn.clip_grad_norm", "nn", "clip_grad_norm", None),
    ("nn.ParamStore.add", "nn", "ParamStore.add", None),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint",
     _file_bytes),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint", None),
    ("corpus.generate_corpus", "corpus", "generate_corpus", None),
    ("corpus.corrupt_draft", "corpus", "corrupt_draft", None),
    ("autoencoder.encode_array", "autoencoder", "Autoencoder.encode_array",
     _rows),
    ("autoencoder.decode_array", "autoencoder", "Autoencoder.decode_array",
     _rows),
    ("draftprior.start_latents", "draftprior", "start_latents", None),
    ("draftprior.predict_start_array", "draftprior",
     "DraftPrior.predict_start_array", None),
    ("flowfield.FlowNet", "flowfield", "FlowNet.__call__", None),
    ("flowfield.integrate", "flowfield", "integrate", None),
    ("flowfield.refine", "flowfield", "refine", None),
    ("flowfield.bounded_residual", "flowfield", "bounded_residual", None),
    ("flowfield.train_stage2", "flowfield", "train_stage2", _per_variant),
    ("metricnet.metric_diag", "metricnet", "MetricNet.metric_diag", None),
    ("alignment.sinkhorn_cost", "alignment", "sinkhorn_cost", _sinkhorn),
    ("alignment.ot_regularized_loss", "alignment", "ot_regularized_loss",
     None),
    ("diagnostics.recoverability", "diagnostics", "recoverability", None),
    ("diagnostics.quality_speed_sweep", "diagnostics", "quality_speed_sweep",
     None),
    ("diagnostics.dissociation_probe", "diagnostics", "dissociation_probe",
     _probe_steps),
    ("pipeline.cmd_infer", "pipeline", "cmd_infer", None),
    ("pipeline.cmd_eval", "pipeline", "cmd_eval", None),
    ("pipeline.cmd_train", "pipeline", "cmd_train", None),
]

BWD_OPS = ("affine", "attention_core", "layer_norm", "tanh")
VARIANTS = ("raw", "fused", "metric_ot", "residual")
SETUP_SPANS = ("corpus.generate_corpus", "checkpoint.load_checkpoint")


def _self_metric(span):
    return [(f"{span}.self_s", "s", ("self", span))]


def _calls_metric(span):
    return [(f"{span}.calls", "count", ("calls", span))]


def _count_metric(key, unit="count"):
    return [(key, unit, ("count", key))]


# (metric name, unit, how it is computed); all values are per operation
PER_LAYER = (
    _count_metric("tensor.tensors_per_op")
    + [m for op in ("affine", "attention_core", "layer_norm", "dwconv1d",
                    "transpose", "reshape", "add")
       for m in _self_metric(f"tensor.{op}") + _calls_metric(f"tensor.{op}")]
    + _self_metric("tensor.logsumexp")
    + [(f"tensor.{op}.bwd_s", "s", ("self", f"tensor.{op}.bwd"))
       for op in BWD_OPS]
    + _self_metric("tensor.backward")
    + _self_metric("nn.AdamW.step") + _self_metric("nn.clip_grad_norm")
    + _self_metric("nn.ParamStore.add") + _calls_metric("nn.ParamStore.add")
    + _self_metric("checkpoint.load_checkpoint")
    + _calls_metric("checkpoint.load_checkpoint")
    + _count_metric("checkpoint.load_checkpoint.bytes", "bytes")
    + _self_metric("checkpoint.save_checkpoint")
    + _self_metric("corpus.generate_corpus")
    + _self_metric("corpus.corrupt_draft")
    + _self_metric("autoencoder.encode_array")
    + _count_metric("autoencoder.encode_array.rows")
    + _self_metric("autoencoder.decode_array")
    + _count_metric("autoencoder.decode_array.rows")
    + _self_metric("draftprior.start_latents")
    + _self_metric("draftprior.predict_start_array")
    + _calls_metric("flowfield.FlowNet") + _self_metric("flowfield.FlowNet")
    + _self_metric("flowfield.integrate") + _self_metric("flowfield.refine")
    + _self_metric("flowfield.bounded_residual")
    + [(f"flowfield.train_stage2.{v}.s", "s",
        ("count", f"flowfield.train_stage2.{v}.s")) for v in VARIANTS]
    + _self_metric("metricnet.metric_diag")
    + _self_metric("alignment.sinkhorn_cost")
    + _count_metric("alignment.sinkhorn_cost.iters")
    + [("alignment.sinkhorn_cost.converged_share", "share",
        ("share", "alignment.sinkhorn_cost"))]
    + _self_metric("alignment.ot_regularized_loss")
    + _self_metric("diagnostics.recoverability")
    + _self_metric("diagnostics.quality_speed_sweep")
    + _self_metric("diagnostics.dissociation_probe")
    + _count_metric("diagnostics.dissociation_probe.steps")
    + _self_metric("pipeline.cmd_infer") + _self_metric("pipeline.cmd_eval")
    + _self_metric("pipeline.cmd_train")
    + [(f"{span}.setup_s", "s", ("setup", span)) for span in SETUP_SPANS]
    + [("trace.overhead_s", "s", ("overhead_s",)),
       ("trace.overhead_share", "share", ("overhead_share",))]
)


class Tracer:
    """In-memory span recorder. `op` is -1 while the workload sets up."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n):
        if self.op >= 0:
            self.counts[key] += n

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.t0)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.t1[idx] = time.perf_counter()
            self._stack.pop()

    # -- patching -----------------------------------------------------------

    def _wrap(self, span: str, fn, hook):
        nid = self._name_id(span)
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is None:
                return tracer.call(nid, fn, args, kwargs)
            t0 = time.perf_counter()
            out = tracer.call(nid, fn, args, kwargs)
            hook(tracer, span, args, kwargs, out, time.perf_counter() - t0)
            return out

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target, wherever the package bound it by name."""
        modules = [m for k, m in sys.modules.items()
                   if k == "draftflow" or k.startswith("draftflow.")]
        for span, module, path, hook in TARGETS:
            owner = sys.modules[f"draftflow.{module}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._set(owner, attr, self._wrap(span, getattr(owner, attr),
                                                  hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)

        original_node = T._node
        tracer = self

        def node(data, parents, backward):
            out = original_node(data, parents, backward)
            if out._backward is backward:
                out._backward = tracer._wrap_backward(backward)
            return out

        self._set(T, "_node", node)

        original_init = T.Tensor.__init__

        def init(t, *args, **kwargs):
            if tracer.op >= 0:
                tracer.counts["tensor.tensors_per_op"] += 1
            original_init(t, *args, **kwargs)

        self._set(T.Tensor, "__init__", init)

    def _wrap_backward(self, backward):
        # closures are named `<op>.<locals>.backward`, e.g. affine's
        op = backward.__qualname__.split(".", 1)[0]
        nid = self._name_id(f"tensor.{op}.bwd")
        return lambda g: self.call(nid, backward, (g,), {})

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def spans(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.span_name, dtype=np.int32),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32),
                "op": np.frombuffer(self.span_op, dtype=np.int32),
                "t0": np.frombuffer(self.t0, dtype=np.float64),
                "t1": np.frombuffer(self.t1, dtype=np.float64)}

    def save(self, path):
        """Write every span to an `.npz` file (arrays named as in `spans`)."""
        np.savez(path, **self.spans())

    def _totals(self):
        """Per (phase, span name): self seconds and calls."""
        s = self.spans()
        dur = s["t1"] - s["t0"]
        child = np.zeros_like(dur)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        own = dur - child
        phase = (s["op"] >= 0).astype(np.int64)
        key = phase * len(self.names) + s["name"]
        size = 2 * len(self.names)
        self_s = np.bincount(key, weights=own, minlength=size)
        calls = np.bincount(key, minlength=size)
        out = {}
        for nid, name in enumerate(self.names):
            for ph, label in ((0, "setup"), (1, "ops")):
                k = ph * len(self.names) + nid
                out[(label, name)] = (float(self_s[k]), int(calls[k]))
        return out

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict:
        """PER_LAYER metrics, each per operation: name -> (value, unit)."""
        totals = self._totals()
        out = {}
        for name, unit, how in PER_LAYER:
            kind = how[0]
            if kind == "self":
                value = totals.get(("ops", how[1]), (0.0, 0))[0] / ops
            elif kind == "calls":
                value = totals.get(("ops", how[1]), (0.0, 0))[1] / ops
            elif kind == "setup":
                value = totals.get(("setup", how[1]), (0.0, 0))[0]
            elif kind == "count":
                value = self.counts[how[1]] / ops
            elif kind == "share":
                calls = totals.get(("ops", how[1]), (0.0, 0))[1]
                value = self.counts[f"{how[1]}.converged"] / calls if calls \
                    else 0.0
            elif kind == "overhead_s":
                value = (traced_s - untraced_s) / ops
            else:
                value = traced_s / untraced_s - 1.0
            out[name] = (value, unit)
        return out
