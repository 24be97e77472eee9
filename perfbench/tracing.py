"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` wraps the layer-boundary functions of each ``oat`` module
and patches every module attribute that names one of them, so a call made as
``oat.trainer.pgd_attack`` is traced as well as one made as
``oat.adversary.pgd_attack``. A span's self time is its duration minus the
time covered by the spans it encloses; time covered by no span is ``other``.
Counting work (graph nodes, rows, label precision) runs in a span of its own,
``trace``, so that it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function or Class.method) -> the per-layer metric its self time goes to
SPANS = {
    ("autodiff", "backward"): "autodiff.backward_s",
    ("autodiff", "SgdOptimizer.step"): "autodiff.sgd_step_s",
    ("models", "forward_features"): "models.forward_s",
    ("models", "forward_logits"): "models.forward_s",
    ("models", "project_predict"): "models.forward_s",
    ("models", "save_model"): "models.checkpoint_s",
    ("models", "load_model"): "models.checkpoint_s",
    ("oracle", "knn_split"): "oracle.knn_split_s",
    ("oracle", "refurbish"): "oracle.refurbish_s",
    ("oracle", "embed"): "oracle.embed_s",
    ("oracle", "oracle_contrastive_loss"): "oracle.loss_s",
    ("oracle", "oracle_supervised_loss"): "oracle.loss_s",
    ("oracle", "oracle_interaction_loss"): "oracle.loss_s",
    ("oracle", "oracle_epoch"): "oracle.epoch_s",
    ("oracle", "predict_probs"): "oracle.predict_probs_s",
    ("adversary", "pgd_attack"): "adversary.pgd_s",
    ("trainer", "train"): "trainer.self_s",
    ("trainer", "accuracy"): "trainer.eval_s",
    ("trainer", "robust_accuracy"): "trainer.eval_s",
    ("trainer", "at_model_loss"): "trainer.loss_s",
    ("trainer", "hard_label_loss"): "trainer.loss_s",
    ("trainer", "estimate_label_distribution"): "trainer.distribution_s",
    ("evalcli", "evaluate"): "evalcli.evaluate_s",
    ("dataio", "load_idx"): "dataio.load_idx_s",
    ("dataio", "save_dataset"): "dataio.save_dataset_s",
    ("dataio", "load_dataset"): "dataio.load_dataset_s",
    ("corruption", "corrupt"): "corruption.corrupt_s",
    ("corruption", "balanced_oversample"): "corruption.oversample_s",
    ("rng", "SplitMix64.permutation"): "rng.permutation_s",
    ("rng", "SplitMix64.sample"): "rng.sample_s",
}

COUNTS = ("autodiff.backward_calls", "autodiff.graph_nodes", "autodiff.sgd_step_calls",
          "models.forward_rows", "oracle.knn_split_calls", "oracle.predict_probs_rows",
          "oracle.trusted_rows", "oracle.trusted_correct", "oracle.refurbished_rows",
          "oracle.refurbished_correct", "adversary.pgd_steps", "evalcli.batches",
          "dataio.bytes_written", "dataio.bytes_read", "corruption.flipped_rows")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _graph_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).is_file())


class Tracer:
    """Accumulates span time and counts while installed; snapshot() reads them."""

    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.covered: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top = 0.0            # time inside outermost spans
        self.stack: list[str] = []
        self.epoch_s: list[float] = []     # between successive ends of robust_accuracy
        self._last_eval_end: float | None = None
        self._gt = None           # hidden labels of the set the oracle last refurbished
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _close(self, name: str, dt: float) -> None:
        self.inclusive[name] += dt
        if self.stack:
            self.covered[self.stack[-1]] += dt
        else:
            self.top += dt

    def _hook(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        self._close("trace", time.perf_counter() - t0)

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.split(".")[-1], None)
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            self.stack.append(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self._close(name, dt)
            if after is not None:
                self._hook(after, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "oat" or n.startswith("oat.")]
        for (mod_name, qualname), _ in SPANS.items():
            module = sys.modules["oat." + mod_name]
            span = f"{mod_name}.{qualname.split('.')[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self._wrap(span, owner.__dict__[attr]))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(span, original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    self._patch(m, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- counting hooks (named after the span they attach to) ----------------

    def _before_backward(self, args, kwargs):
        self.counts["autodiff.backward_calls"] += 1
        self.counts["autodiff.graph_nodes"] += _graph_nodes(_arg(args, kwargs, 0, "root"))

    def _before_step(self, args, kwargs):
        self.counts["autodiff.sgd_step_calls"] += 1

    def _before_forward_features(self, args, kwargs):
        x = _arg(args, kwargs, 1, "x")
        self.counts["models.forward_rows"] += len(getattr(x, "data", x))

    def _before_predict_probs(self, args, kwargs):
        self.counts["oracle.predict_probs_rows"] += len(_arg(args, kwargs, 1, "x"))

    def _after_refurbish(self, args, kwargs, result):
        gt = _arg(args, kwargs, 1, "ds").gt_labels
        self._gt = gt
        mask = result.refurbished_mask
        self.counts["oracle.refurbished_rows"] += int(mask.sum())
        if gt is not None:
            self.counts["oracle.refurbished_correct"] += int(np.sum(result.labels[mask] == gt[mask]))

    def _after_knn_split(self, args, kwargs, result):
        labels = np.asarray(_arg(args, kwargs, 2, "labels"))
        clean = result.clean_idx
        self.counts["oracle.knn_split_calls"] += 1
        self.counts["oracle.trusted_rows"] += len(clean)
        if self._gt is not None and len(self._gt) == len(labels):
            self.counts["oracle.trusted_correct"] += int(np.sum(labels[clean] == self._gt[clean]))

    def _before_pgd_attack(self, args, kwargs):
        self.counts["adversary.pgd_steps"] += _arg(args, kwargs, 3, "spec").steps

    def _before_train(self, args, kwargs):
        self._last_eval_end = None

    def _after_robust_accuracy(self, args, kwargs, result):
        now = time.perf_counter()
        if self._last_eval_end is not None:
            self.epoch_s.append(now - self._last_eval_end)
        self._last_eval_end = now

    def _before_evaluate(self, args, kwargs):
        test = _arg(args, kwargs, 1, "test")
        attacks = _arg(args, kwargs, 2, "attacks")
        batch = kwargs.get("batch_size", args[4] if len(args) > 4 else 256)
        self.counts["evalcli.batches"] += math.ceil(len(test) / batch) * (1 + len(attacks))

    def _after_save_dataset(self, args, kwargs, result):
        path = Path(_arg(args, kwargs, 1, "path"))
        self.counts["dataio.bytes_written"] += _file_bytes(
            path / "meta.json", path / "samples.csv", path / "labels.csv")

    def _before_load_dataset(self, args, kwargs):
        path = Path(_arg(args, kwargs, 0, "path"))
        self.counts["dataio.bytes_read"] += _file_bytes(
            path / "meta.json", path / "samples.csv", path / "labels.csv")

    def _before_load_idx(self, args, kwargs):
        self.counts["dataio.bytes_read"] += _file_bytes(
            _arg(args, kwargs, 0, "image_path"), _arg(args, kwargs, 1, "label_path"))

    def _after_corrupt(self, args, kwargs, result):
        source = _arg(args, kwargs, 0, "ds")
        nr = result[1]["realized_nr"]
        if nr is not None:
            self.counts["corruption.flipped_rows"] += round(nr * len(source))

    # -- readout -------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Self time per metric, counts, ``trace`` and top-level span time."""
        out = defaultdict(float)
        for (mod_name, qualname), metric in SPANS.items():
            span = f"{mod_name}.{qualname.split('.')[-1]}"
            out[metric] += self.inclusive[span] - self.covered[span]
        out["adversary.pgd_inclusive_s"] = self.inclusive["adversary.pgd_attack"]
        out["trace.self_s"] = self.inclusive["trace"] - self.covered["trace"]
        out["spans_s"] = self.top
        for name in COUNTS:
            out[name] = self.counts[name]
        return dict(out)


def per_layer(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit of work (one set-up plus one round);
    ``traced_wall`` and ``untraced_wall`` are that unit's wall time with and
    without tracing."""
    unit = tracer.snapshot()
    m = {k: v for k, v in unit.items()
         if k not in ("spans_s", "adversary.pgd_inclusive_s", "oracle.trusted_correct",
                      "oracle.refurbished_correct")}
    steps = unit["adversary.pgd_steps"]
    m["adversary.pgd_step_us"] = 1e6 * unit["adversary.pgd_inclusive_s"] / steps if steps else 0.0
    m["oracle.trusted_precision"] = (unit["oracle.trusted_correct"] / unit["oracle.trusted_rows"]
                                     if unit["oracle.trusted_rows"] else 0.0)
    m["oracle.refurbish_precision"] = (
        unit["oracle.refurbished_correct"] / unit["oracle.refurbished_rows"]
        if unit["oracle.refurbished_rows"] else 0.0)
    m["trainer.epoch_s"] = statistics.median(tracer.epoch_s) if tracer.epoch_s else 0.0
    m["other_s"] = traced_wall - unit["spans_s"]
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m
