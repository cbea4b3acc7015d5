"""Span tracer wrapped around the public callables of each ``xdvae`` module.

The tracer patches functions where callers look them up: module attributes
(including names other modules imported with ``from ... import``) and class
attributes. Each call records a span ``[name, start, end, parent, run, meta]``
in memory; ``meta`` holds counts derived from argument and result shapes
(FLOPs, bytes, cells), never from timers. ``restore()`` undoes every patch,
so untraced code measured later in the same process runs unwrapped.

Layers are the package modules: data, nn, losses, model, train, evaluate, cli.
"""

from __future__ import annotations

import functools
import json
import time
import weakref

import numpy as np

N_CANDIDATES = 100   # held-out item plus 99 negatives per ranked case


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = 0
        self.missing = []
        self._stack = []
        self._undo = []
        # First dense layers of encoders and sub-encoders: their input-gradient
        # is computed by backward and then dropped by every caller.
        self._input_layers = weakref.WeakSet()

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, out)
            return out

        return traced

    def patch(self, owner, attr, name, hook=None):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        own = vars(owner)
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr), hook))

    def restore(self):
        while self._undo:
            owner, attr, original, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self):
        """Patch every traced callable of the package."""
        from xdvae import cli, data, evaluate, losses, model, nn, train

        for fn in ("load_ratings", "load_item_labels", "split_domains",
                   "binarize_and_filter", "build_loo_split", "save_bundle",
                   "sample_negatives", "load_bundle", "training_bundle",
                   "degrade_target_rows", "cold_start_split", "restrict_users"):
            self.patch(data, fn, f"data.{fn}")
        # names other modules bound at import time
        self.patch(evaluate, "sample_negatives", "data.sample_negatives")
        self.patch(evaluate, "degrade_target_rows", "data.degrade_target_rows")
        self.patch(train, "assert_all_finite", "nn.assert_all_finite")
        self.patch(nn, "assert_all_finite", "nn.assert_all_finite")
        self.patch(data.DomainMatrix, "to_dense", "data.to_dense", _dense_cells)

        self.patch(nn.Adam, "step", "nn.Adam.step", _adam_bytes)
        self.patch(nn.DenseLayer, "forward", "nn.dense.forward", _forward_flops)
        self.patch(nn.DenseLayer, "backward", "nn.dense.backward")
        self.patch(nn.DenseLayer, "backward_from_preact", "nn.dense.backward_from_preact",
                   self._backward_flops)

        for fn in ("masked_recon", "kl_divergence", "l2_reg", "mmd_linear",
                   "mapping_loss", "compose_total"):
            self.patch(losses, fn, f"losses.{fn}")

        for cls in (model.LinkedVAE, model.SingleVAE):
            self.patch(cls, "forward", "model.forward", self._register_inputs)
            self.patch(cls, "loss_breakdown", "model.loss_breakdown")
            self.patch(cls, "backward", "model.backward")
            self.patch(cls, "zero_grads", "model.zero_grads")
            self.patch(cls, "predict_scores", "model.predict_scores", _score_cells)

        self.patch(train, "train", "train.train", _train_meta)
        self.patch(train, "_batch_inputs", "train.batch")
        self.patch(train, "save_checkpoint", "train.save_checkpoint")
        self.patch(train, "load_checkpoint", "train.load_checkpoint", _loaded_meta)

        for fn in ("evaluate", "evaluate_degraded", "evaluate_cold_start"):
            self.patch(evaluate, fn, f"evaluate.{fn}", _ranked_cases)
        for fn in ("write_reports_json", "write_reports_csv"):
            self.patch(evaluate, fn, "evaluate.write_reports")

        self.patch(cli, "main", "cli.main")

    # -- hooks that need tracer state ------------------------------------

    def _register_inputs(self, args, out):
        m = args[0]
        for attr in ("enc_s", "enc_t", "enc"):
            enc = getattr(m, attr, None)
            if enc is not None:
                self._input_layers.add(enc.hidden.layers[0])
        if getattr(m, "sub_encoder", None) is not None:
            self._input_layers.add(m.sub_encoder.layers[0])
        return _model_meta(m)

    def _backward_flops(self, args, out):
        layer, grad_a = args[0], args[1]
        mac = grad_a.shape[0] * layer.w.shape[0] * layer.w.shape[1]
        # grad_w and grad_x are one matmul each; grad_x is wasted at input layers
        return {"flops": 4 * mac, "discarded": 2 * mac if layer in self._input_layers else 0}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run", "meta"],
                       "spans": self.spans}, fh)


def _model_meta(m):
    return {"variant": m.config.variant,
            "n_params": int(sum(p.size for p in m.params().values()))}


def _dense_cells(args, out):
    return {"ones": int(np.count_nonzero(out)), "cells": int(out.size)}


def _adam_bytes(args, out):
    # params, grads and both moments, 8 bytes each, one pass per step
    return {"bytes": 32 * int(sum(p.size for p in args[1].values()))}


def _forward_flops(args, out):
    layer, x = args[0], args[1]
    return {"flops": 2 * x.shape[0] * layer.w.shape[0] * layer.w.shape[1]}


def _score_cells(args, out):
    return {"cells": int(np.asarray(out).size)}


def _train_meta(args, out):
    model, history = out
    return dict(_model_meta(model), epoch_wall=float(sum(history.wall_times)))


def _loaded_meta(args, out):
    return _model_meta(out[0])


def _ranked_cases(args, out):
    reports = out if isinstance(out, list) else [out]
    return {"candidates": N_CANDIDATES * sum(r.m_evaluated for r in reports)}


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_tail(steps_ms):
    """Highest of p50..p99 with at least ten steps above it (p50 if none)."""
    n = len(steps_ms)
    pct = 50.0
    for q in (99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            pct = q
            break
    return pct, float(np.percentile(steps_ms, pct)) if n else 0.0


def layer_metrics(spans):
    """Per-layer table: inclusive and self seconds, calls and derived counts."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_train = [False] * n
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            child[p] += dur[i]
            in_train[i] = in_train[p]
        if s[0] == "train.train":
            in_train[i] = True
    self_time = [dur[i] - child[i] for i in range(n)]
    name = [s[0] for s in spans]
    parent_name = [spans[s[3]][0] if s[3] >= 0 else "" for s in spans]

    def total(key, pick=dur, where=None):
        return float(sum(pick[i] for i in range(n)
                         if name[i] == key and (where is None or where(i))))

    def calls(key):
        return sum(1 for x in name if x == key)

    def meta_sum(key, field, where=None):
        return sum(spans[i][5][field] for i in range(n)
                   if name[i] == key and spans[i][5] and (where is None or where(i)))

    out = {}
    for fn in ("load_ratings", "load_item_labels", "split_domains", "binarize_and_filter",
               "build_loo_split", "save_bundle", "sample_negatives", "load_bundle",
               "training_bundle", "to_dense", "degrade_target_rows"):
        out[f"data.{fn}_s"] = total(f"data.{fn}")
    out["data.sample_negatives_calls"] = calls("data.sample_negatives")
    out["data.to_dense_calls"] = calls("data.to_dense")
    ones, cells = meta_sum("data.to_dense", "ones"), meta_sum("data.to_dense", "cells")
    out["data.dense_input_ones"] = ones
    out["data.dense_input_cells"] = cells
    out["data.dense_input_fill"] = _ratio(ones, cells)

    steps = calls("nn.Adam.step")
    adam_s = total("nn.Adam.step")
    adam_bytes = meta_sum("nn.Adam.step", "bytes")
    out["nn.adam_step_s"] = adam_s
    out["nn.adam_step_calls"] = steps
    out["nn.adam_bytes_per_step"] = _ratio(adam_bytes, steps)
    out["nn.adam_gbps"] = _ratio(adam_bytes, adam_s) / 1e9
    out["nn.assert_all_finite_s"] = total("nn.assert_all_finite")
    fwd_s = total("nn.dense.forward")
    # backward_from_preact nested in backward is already inside backward's span
    top_bwd = lambda i: parent_name[i] != "nn.dense.backward"  # noqa: E731
    bwd_s = total("nn.dense.backward") + total("nn.dense.backward_from_preact", where=top_bwd)
    fwd_flops = meta_sum("nn.dense.forward", "flops")
    bwd_flops = meta_sum("nn.dense.backward_from_preact", "flops")
    wasted = meta_sum("nn.dense.backward_from_preact", "discarded")
    train_flops = (meta_sum("nn.dense.forward", "flops", lambda i: in_train[i])
                   + meta_sum("nn.dense.backward_from_preact", "flops", lambda i: in_train[i]))
    out["nn.dense_forward_s"] = fwd_s
    out["nn.dense_backward_s"] = bwd_s
    out["nn.dense_forward_flops"] = fwd_flops
    out["nn.dense_backward_flops"] = bwd_flops
    out["nn.dense_gflops"] = _ratio(fwd_flops + bwd_flops, fwd_s + bwd_s) / 1e9
    out["nn.dense_flops_per_step"] = _ratio(train_flops, steps)
    out["nn.discarded_flops"] = wasted
    out["nn.discarded_flop_frac"] = _ratio(wasted, bwd_flops)

    for fn in ("masked_recon", "kl_divergence", "l2_reg", "mmd_linear"):
        out[f"losses.{fn}_s"] = total(f"losses.{fn}")

    out["model.forward_self_s"] = total("model.forward", self_time)
    out["model.loss_breakdown_self_s"] = total("model.loss_breakdown", self_time)
    out["model.backward_self_s"] = total("model.backward", self_time)
    out["model.zero_grads_s"] = total("model.zero_grads")
    out["model.predict_scores_s"] = total("model.predict_scores")
    generic = [s[5]["n_params"] for s in spans
               if s[0] in ("train.train", "train.load_checkpoint", "model.forward")
               and s[5] and s[5]["variant"] == "generic"]
    out["model.n_params"] = generic[0] if generic else 0

    under_train = lambda i: parent_name[i] == "train.train"  # noqa: E731
    phases = {
        "batch": total("train.batch", where=under_train),
        "forward": total("model.forward", where=under_train)
        + total("model.loss_breakdown", where=under_train),
        "backward": total("model.backward", where=under_train),
        "optimizer": total("nn.Adam.step", where=under_train),
        "checks": total("nn.assert_all_finite", where=under_train),
    }
    for phase, seconds in phases.items():
        out[f"train.phase.{phase}_s"] = seconds
    out["train.loop_self_s"] = total("train.train", self_time)
    epoch_wall = meta_sum("train.train", "epoch_wall")
    out["train.epoch_wall_s"] = epoch_wall
    out["train.accounted_frac"] = _ratio(sum(phases.values()) + out["train.loop_self_s"],
                                         epoch_wall)
    step_ms = _step_times_ms(spans, name)
    pct, tail = _percentile_tail(step_ms)
    out["train.steps"] = len(step_ms)
    out["train.step_ms_p50"] = float(np.median(step_ms)) if step_ms else 0.0
    out["train.step_ms_tail"] = tail
    out["train.step_tail_pct"] = pct if step_ms else 0.0
    out["train.save_checkpoint_s"] = total("train.save_checkpoint")
    out["train.load_checkpoint_s"] = total("train.load_checkpoint")

    out["evaluate.rank_self_s"] = sum(
        total(f"evaluate.{fn}", self_time)
        for fn in ("evaluate", "evaluate_degraded", "evaluate_cold_start"))
    out["evaluate.write_reports_s"] = total("evaluate.write_reports")
    full_rank = ("evaluate.evaluate", "evaluate.evaluate_degraded")
    ranked = sum(meta_sum(k, "candidates") for k in full_rank)
    scored = meta_sum("model.predict_scores", "cells", lambda i: parent_name[i] in full_rank)
    out["evaluate.candidates_ranked"] = ranked
    out["evaluate.score_cells"] = scored
    out["evaluate.scored_cells_used_frac"] = _ratio(ranked, scored)

    out["cli.self_s"] = total("cli.main", self_time)
    out["trace.spans"] = n
    return out


def _step_times_ms(spans, name):
    """One step runs from its batch build to the end of its optimizer update."""
    steps, start = [], {}
    for i, s in enumerate(spans):
        if name[i] == "train.batch":
            start[s[3]] = s[1]
        elif name[i] == "nn.Adam.step" and s[3] in start:
            steps.append(1e3 * (s[2] - start.pop(s[3])))
    return steps
