"""Per-layer metrics of the traced run, and the call hooks that count work.

``LAYERS`` maps each per-layer metric name in BENCHMARK.json (except the two
``run.py`` measures itself, ``trace.overhead_frac`` and
``model.sweep_speedup``) to ``(kind, getter)``. A getter reads one traced
repetition: the tracer's span stats and counters. ``time`` metrics are
seconds per repetition and vary run to run; ``count`` metrics are exact and
must repeat for a given seed. A layer the workload never calls reads 0.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import specs
from bandcert import model, smoothing
from tracer import Tracer

AUTODIFF_OPS = ("matmul", "add", "mul", "layer_norm", "gelu", "softmax_lastdim",
                "concat", "slice_axis", "embedding_lookup", "reshape",
                "cross_entropy", "l2_distance")


def _matmul_flop(tracer: Tracer, args, kwargs, out) -> None:
    transpose_a = kwargs.get("transpose_a", args[2] if len(args) > 2 else False)
    a = args[0]
    inner = a.shape[-2] if transpose_a else a.shape[-1]
    tracer.count("autodiff.matmul.flop", 2 * inner * math.prod(out.shape))


def _tape_entries(tracer: Tracer, args, kwargs, out) -> None:
    tape = kwargs.get("tape", args[0] if args else None)
    tracer.count("autodiff.backward.tape_entries", len(tape.entries))


def _windows(tracer: Tracer, args, kwargs, out) -> None:
    logits, forwards = out
    tracer.count("model.batched_certify_forward.windows", logits.shape[0] * logits.shape[1])
    tracer.count("model.forwards_planned", int(forwards))


def _output_bytes(name: str):
    def hook(tracer: Tracer, args, kwargs, out) -> None:
        tracer.count(name, out.nbytes)
    return hook


def _rescored(tracer: Tracer, args, kwargs, out) -> None:
    plan = kwargs.get("plan", args[2] if len(args) > 2 else None)
    tracer.count("oracles.positions_rescored", out.positions_rescored)
    tracer.count("oracles.band_positions", plan.image_width)


HOOKS = {
    "autodiff.matmul": _matmul_flop,
    "autodiff.backward": _tape_entries,
    "model.batched_certify_forward": _windows,
    "model.patchify": _output_bytes("model.patchify.bytes"),
    "smoothing.ablate_batch": _output_bytes("smoothing.ablate_batch.bytes"),
    "oracles.empirical_patch_attack": _rescored,
}

def _seconds(span: str):
    return "time", lambda st, c: st[span].seconds if span in st else 0.0


def _self_seconds(span: str):
    return "time", lambda st, c: st[span].self_seconds if span in st else 0.0


def _calls(span: str):
    return "count", lambda st, c: st[span].calls if span in st else 0


def _counter(name: str, scale: float | None = None):
    if scale is None:
        return "count", lambda st, c: c.get(name, 0)
    return "count", lambda st, c: c.get(name, 0) / scale


def _share(num: str, den: str):
    return "count", lambda st, c: c[num] / c[den] if c.get(den) else 0.0


LAYERS: dict[str, tuple] = {}
for _op in AUTODIFF_OPS:
    LAYERS[f"autodiff.{_op}.s"] = _seconds(f"autodiff.{_op}")
    LAYERS[f"autodiff.{_op}.calls"] = _calls(f"autodiff.{_op}")
LAYERS.update({
    "autodiff.matmul.gflop": _counter("autodiff.matmul.flop", 1e9),
    "autodiff.backward.s": _seconds("autodiff.backward"),
    "autodiff.backward.tape_entries": _counter("autodiff.backward.tape_entries"),
    "autodiff.adamw_step.s": _seconds("autodiff.AdamW.step"),
    "model.batched_certify_forward.self_s": _self_seconds("model.batched_certify_forward"),
    "model.batched_certify_forward.calls": _calls("model.batched_certify_forward"),
    "model.batched_certify_forward.windows": _counter("model.batched_certify_forward.windows"),
    "model.window_token_ids.calls": _calls("model.window_token_ids"),
    "model.forwards_planned": _counter("model.forwards_planned"),
    "model.forward_global.self_s": _self_seconds("model.forward_global"),
    "model.forward_global.calls": _calls("model.forward_global"),
    "model.forward_band_rows.self_s": _self_seconds("model.forward_band_rows"),
    "model.forward_band_rows.calls": _calls("model.forward_band_rows"),
    "model.patchify.s": _seconds("model.patchify"),
    "model.patchify.calls": _calls("model.patchify"),
    "model.patchify.mb": _counter("model.patchify.bytes", 1e6),
    "smoothing.ablate_batch.s": _seconds("smoothing.ablate_batch"),
    "smoothing.ablate_batch.calls": _calls("smoothing.ablate_batch"),
    "smoothing.ablate_batch.mb": _counter("smoothing.ablate_batch.bytes", 1e6),
    "smoothing.stage_masks.s": _seconds("smoothing.stage_masks"),
    "smoothing.stage_masks.calls": _calls("smoothing.stage_masks"),
    "training.run_stage.self_s": _self_seconds("training.run_stage"),
    "training.finetune_band.self_s": _self_seconds("training.finetune_band"),
    "certification.evaluate.self_s": _self_seconds("certification.evaluate"),
    "certification.per_band_scores.self_s": _self_seconds("certification.per_band_scores"),
    "certification.softmax_scores.s": _seconds("certification.softmax_scores"),
    "certification.vote.s": _seconds("certification.vote"),
    "certification.vote.calls": _calls("certification.vote"),
    "certification.affected_positions.s": _seconds("certification.affected_positions"),
    "certification.affected_positions.calls": _calls("certification.affected_positions"),
    "oracles.empirical_patch_attack.self_s": _self_seconds("oracles.empirical_patch_attack"),
    "oracles.rescored_share": _share("oracles.positions_rescored", "oracles.band_positions"),
    "tokenizer.fit_codebook.s": _seconds("tokenizer.fit_codebook"),
    "tokenizer.tokenize_images.s": _seconds("tokenizer.tokenize_images"),
    "data.load_dataset.s": _seconds("data.load_dataset"),
    "model.load_checkpoint.s": _seconds("model.load_checkpoint"),
    "model.plan_windows.s": _seconds("model.plan_windows"),
})

SWEEP_IMAGES = 8
SWEEP_REPEATS = 5
SWEEP_ROUNDS = 5


def sweep_speedup() -> float:
    """Gate 6's measurement, taken ``SWEEP_ROUNDS`` times: the naive sweep
    (one masked global forward per band position) over the windowed band
    sweep, best of five after a warm run each, on 8 random images with the
    untrained toy model. Returns the median of the rounds' ratios, since one
    round alone moves by tens of percent from run to run."""
    cfg = specs.toy_config()
    params = model.ModelParams.init(cfg, seed=0).cast(np.float32)
    plan = model.plan_windows(cfg, specs.BAND_WIDTH)
    images = np.random.default_rng(0).random(
        (SWEEP_IMAGES, 3, cfg.image_side, cfg.image_side), dtype=np.float32)

    def run_global():
        for p in range(cfg.image_side):
            abl = smoothing.ablate_batch(images, np.full(SWEEP_IMAGES, p),
                                         specs.BAND_WIDTH)
            model.forward_global(abl, params)

    def run_band():
        model.batched_certify_forward(images, params, plan)

    def best(fn) -> float:
        fn()
        times = []
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return statistics.median(best(run_global) / best(run_band)
                             for _ in range(SWEEP_ROUNDS))
