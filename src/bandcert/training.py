"""Progressive self-supervised pretraining and band-restricted fine-tuning.

The schedule has two phases:

1. Curriculum stages with global attention. Each stage ablates inputs to a
   keep band (wide early, shrinking to the certification width), and the
   loss couples classification with reconstruction of masked patch content:
   ``ce + lambda_rec * rec``. The reconstruction target is the discrete
   codebook id of each clean patch, predicted through the ``recon_vocab``
   head. Reconstructed positions always include the keep band's tokens,
   widened to a per-stage share of the grid. Each stage builds its
   flag table once, one row per band position, and ``rec`` is the mean over
   every flagged token of the batch, taken in one gather.

2. Band-unit fine-tuning. The encoder now only sees the tokens a
   certification window would gather, with a fresh random band per sample,
   trained with plain cross entropy. The reconstruction head is stage-only
   state, never saved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tape, Tensor, record
from .errors import ContractError
from .model import (ModelConfig, ModelParams, forward_global, forward_windows,
                    plan_windows)
from .smoothing import ablate_batch, stage_masks
from .tokenizer import Codebook, fit_codebook, image_patches, tokenize_images


def _check_rates(owner: str, **values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise ContractError(f"{owner}: {name} {value} is not a finite value >= 0")


@dataclass
class StageConfig:
    keep_width: int          # ablation band width during this stage
    reconstruct_ratio: float  # share of patch tokens to reconstruct
    epochs: int
    lr: float

    def __post_init__(self):
        if self.keep_width < 1:
            raise ContractError(f"StageConfig: keep_width {self.keep_width} < 1")
        if not (0.0 < self.reconstruct_ratio <= 1.0):
            raise ContractError(f"StageConfig: reconstruct_ratio {self.reconstruct_ratio} "
                                f"outside (0, 1]")
        if self.epochs < 0:
            raise ContractError("StageConfig: negative epochs")
        _check_rates("StageConfig", lr=self.lr)


@dataclass
class TrainPlan:
    stages: list[StageConfig]
    band_width: int                # final certification band width
    lambda_rec: float = 1000.0
    batch_size: int = 16
    finetune_epochs: int = 6
    finetune_lr: float = 1e-3
    weight_decay: float = 0.01
    warmup_epochs: int = 1         # linear lr ramp at the start of each phase

    def __post_init__(self):
        if self.batch_size < 1:
            raise ContractError("TrainPlan: batch_size < 1")
        _check_rates("TrainPlan", lambda_rec=self.lambda_rec, finetune_lr=self.finetune_lr,
                     weight_decay=self.weight_decay)
        for name in ("finetune_epochs", "warmup_epochs"):
            if getattr(self, name) < 0:
                raise ContractError(f"TrainPlan: {name} {getattr(self, name)} < 0")


KEEP_RATIOS = (0.6, 0.3)
RECONSTRUCT_RATIOS = (1.0, 0.6, 0.3)


def build_default_plan(cfg: ModelConfig, band_width: int, epochs_per_stage: int = 8,
                       lr: float = 1e-3, **overrides) -> TrainPlan:
    """Three-stage schedule: keep width 0.6w, then 0.3w, then the
    certification band itself, with reconstruction shrinking 1.0/0.6/0.3.
    The narrowing only makes sense when the band is strictly inside the
    middle stage's keep width."""
    w = cfg.image_side
    if not (1 <= band_width <= w):
        raise ContractError(f"build_default_plan: band width {band_width} outside [1, {w}]")
    if band_width >= KEEP_RATIOS[1] * w:
        raise ContractError(f"build_default_plan: band width {band_width} is not "
                            f"below {KEEP_RATIOS[1]:.0%} of image width {w}; the "
                            f"curriculum would not narrow")
    widths = [round(KEEP_RATIOS[0] * w), round(KEEP_RATIOS[1] * w), band_width]
    stages = [StageConfig(keep_width=kw, reconstruct_ratio=rr,
                          epochs=epochs_per_stage, lr=lr)
              for kw, rr in zip(widths, RECONSTRUCT_RATIOS)]
    return TrainPlan(stages=stages, band_width=band_width, **overrides)


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def _warmup_scale(step: int, steps_per_epoch: int, warmup_epochs: int) -> float:
    total = warmup_epochs * steps_per_epoch
    if total <= 0 or step >= total:
        return 1.0
    return (step + 1) / total


def _optimise(trained: tuple[dict[str, Tensor], ...], plan: TrainPlan, batch_loss,
              rng: np.random.Generator, *, n: int, epochs: int, lr: float,
              tags: dict) -> list[dict]:
    """The one training loop: shuffled batches of ``n`` samples, a tape per
    batch, backward, one AdamW step that replaces every tensor of the dicts
    in ``trained``. Batch size, weight decay and warmup come from ``plan``.

    ``batch_loss(batch)`` runs while the tape records and returns the scalar
    loss plus per-batch sums (already scaled by the batch size where they
    are means). Each epoch appends ``tags`` with the epoch number and every
    sum divided by ``n``.
    """
    opt = AdamW(lr=lr, weight_decay=plan.weight_decay)
    steps_per_epoch = math.ceil(n / plan.batch_size)
    records = []
    step = 0
    for epoch in range(epochs):
        sums: dict[str, float] = {}
        for batch in _epoch_batches(n, plan.batch_size, rng):
            tape = Tape()
            with record(tape):
                loss, batch_sums = batch_loss(batch)
            grads = ad.backward(tape, loss)
            scale = _warmup_scale(step, steps_per_epoch, plan.warmup_epochs)
            fresh = opt.step({name: t for part in trained for name, t in part.items()},
                             grads, lr_scale=scale)
            for part in trained:
                part.update((name, fresh[name]) for name in part)
            for key, value in batch_sums.items():
                sums[key] = sums.get(key, 0.0) + value
            step += 1
        records.append({**tags, "epoch": epoch, **{k: v / n for k, v in sums.items()}})
    return records


def run_stage(params: ModelParams, head: dict[str, Tensor], stage: StageConfig,
              plan: TrainPlan, images: np.ndarray, labels: np.ndarray,
              recon_targets: np.ndarray, stage_index: int,
              seed: int) -> list[dict]:
    """One curriculum stage, training the classifier and the reconstruction
    ``head``. ``recon_targets`` is (B, N) int codebook ids."""
    cfg = params.cfg
    rng = np.random.default_rng([int(seed), 0xA, stage_index])
    lam = Tensor(np.asarray(plan.lambda_rec, dtype=ad.TRAIN_DTYPE))
    flags = stage_masks(stage.reconstruct_ratio, stage.keep_width, cfg.patch_size,
                        cfg.image_side, wrap=cfg.band_wrap)

    def batch_loss(batch):
        positions = rng.integers(0, cfg.image_side, size=batch.size)
        abl = ablate_batch(images[batch], positions, stage.keep_width, wrap=cfg.band_wrap)
        acts = forward_global(abl, params, tokens=True)
        ce = ad.cross_entropy(acts.logits, labels[batch])
        # One flat gather over the batch's (B*N, d) patch rows; the mean over
        # all flagged tokens is the reconstruction term.
        seq = acts.tokens_out.shape[1]
        patch_rows = ad.reshape(ad.slice_axis(acts.tokens_out, 1, 1, seq),
                                (-1, cfg.embed_dim))
        picked = np.flatnonzero(flags[positions])
        gathered = ad.embedding_lookup(patch_rows, picked)
        logits = ad.linear(gathered, head["recon_vocab.weight"], head["recon_vocab.bias"])
        rec = ad.cross_entropy(logits, recon_targets[batch].reshape(-1)[picked])
        loss = ad.add(ce, ad.mul(rec, lam))
        return loss, {"loss": loss.item() * batch.size, "ce": ce.item() * batch.size,
                      "rec": rec.item() * batch.size}

    return _optimise((params.tensors, head), plan, batch_loss, rng, n=images.shape[0],
                     epochs=stage.epochs, lr=stage.lr,
                     tags={"phase": "stage", "stage": stage_index,
                           "keep_width": stage.keep_width})


def finetune_band(params: ModelParams, plan: TrainPlan,
                  images: np.ndarray, labels: np.ndarray, seed: int) -> list[dict]:
    """Band-unit fine-tuning: every sample sees only one random window's
    tokens; cross entropy only."""
    cfg = params.cfg
    rng = np.random.default_rng([int(seed), 0xB])
    windows = plan_windows(cfg, plan.band_width)

    def batch_loss(batch):
        ys = labels[batch]
        positions = rng.integers(0, cfg.image_side, size=batch.size)
        loss = None
        hits = 0
        for rows, logits in forward_windows(images[batch], positions[:, None], params,
                                            windows):
            term = ad.cross_entropy(logits, ys[rows])
            term = ad.mul(term, Tensor(np.asarray(len(rows) / batch.size,
                                                  dtype=ad.TRAIN_DTYPE)))
            loss = term if loss is None else ad.add(loss, term)
            hits += int((np.argmax(logits.data, axis=1) == ys[rows]).sum())
        return loss, {"loss": loss.item() * batch.size, "band_accuracy": float(hits)}

    return _optimise((params.tensors,), plan, batch_loss, rng, n=images.shape[0],
                     epochs=plan.finetune_epochs, lr=plan.finetune_lr,
                     tags={"phase": "finetune", "band_width": plan.band_width})


def train_full(cfg: ModelConfig, plan: TrainPlan, images: np.ndarray,
               labels: np.ndarray, seed: int,
               ) -> tuple[ModelParams, list[dict], Codebook]:
    """Runs the whole schedule and returns (params, metric records, the
    k-means codebook whose ids are the reconstruction targets)."""
    params, head = ModelParams.init_with_recon_head(cfg, seed=seed)
    codebook = fit_codebook(image_patches(images, cfg.patch_size),
                            cfg.codebook_size, seed=seed)
    recon_targets = tokenize_images(codebook, images, cfg.patch_size)
    records: list[dict] = []
    for si, stage in enumerate(plan.stages):
        records.extend(run_stage(params, head, stage, plan, images, labels,
                                 recon_targets, stage_index=si, seed=seed))
    records.extend(finetune_band(params, plan, images, labels, seed=seed))
    return params, records, codebook


def train_baseline(cfg: ModelConfig, plan: TrainPlan, images: np.ndarray,
                   labels: np.ndarray, seed: int) -> tuple[ModelParams, list[dict]]:
    """Ablation control: same epochs budget and the same fine-tuning phase,
    but pretraining is plain cross entropy on band-ablated inputs at the
    certification width, with no reconstruction loss."""
    params = ModelParams.init(cfg, seed=seed)
    rng = np.random.default_rng([int(seed), 0xD])

    def batch_loss(batch):
        positions = rng.integers(0, cfg.image_side, size=batch.size)
        abl = ablate_batch(images[batch], positions, plan.band_width, wrap=cfg.band_wrap)
        loss = ad.cross_entropy(forward_global(abl, params).logits, labels[batch])
        return loss, {"loss": loss.item() * batch.size}

    records = _optimise((params.tensors,), plan, batch_loss, rng, n=images.shape[0],
                        epochs=sum(s.epochs for s in plan.stages),
                        lr=plan.stages[0].lr if plan.stages else plan.finetune_lr,
                        tags={"phase": "baseline"})
    records.extend(finetune_band(params, plan, images, labels, seed=seed))
    return params, records
