"""Voting and certification over column-band ablations.

Every band position p in [0, w) yields one prediction distribution for the
window that sees only that band. A class collects a vote at p when its
score clears a fixed threshold, so one position can vote for several
classes or none. A width-m adversarial patch intersects at most
delta = m + b - 1 bands, each of which can at worst both remove a vote
from the top class and add one to a rival, hence the certificate:

    certified(m)  iff  n_top > max_other + 2 * (m + b - 1)

with argmax ties broken toward the lowest class id and tied tables never
certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import ContractError
from .model import ModelParams, WindowPlan, batched_certify_forward

VOTE_THRESHOLD_DEFAULT = 0.2
SIMPLEX_ATOL = 1e-4


@dataclass
class CertifyConfig:
    band_width: int
    threshold: float = VOTE_THRESHOLD_DEFAULT
    threshold_on: str = "probs"  # "probs" thresholds softmax mass, "logits" raw scores
    patch_shapes: tuple[tuple[int, int], ...] = ((2, 2),)

    def __post_init__(self):
        if self.band_width < 1:
            raise ContractError("CertifyConfig: band_width < 1")
        if self.threshold_on not in ("probs", "logits"):
            raise ContractError(f"CertifyConfig: unknown threshold_on "
                                f"'{self.threshold_on}'")
        if not math.isfinite(self.threshold):
            raise ContractError(f"CertifyConfig: threshold {self.threshold} is not finite")
        if self.threshold_on == "probs" and not (0.0 < self.threshold < 1.0):
            raise ContractError(f"CertifyConfig: probability threshold "
                                f"{self.threshold} outside (0, 1)")
        for shape in self.patch_shapes:
            if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
                raise ContractError(f"CertifyConfig: bad patch shape {shape}")
            if self.patch_shapes.count(shape) > 1:  # evaluate counts by shape_key
                raise ContractError(f"CertifyConfig: patch shape {self.shape_key(shape)} "
                                    f"is listed twice")

    def shape_key(self, shape: tuple[int, int]) -> str:
        return f"{shape[0]}x{shape[1]}"


@dataclass
class VoteTable:
    scores: np.ndarray   # (w, C) per-position distributions (or raw scores)
    votes: np.ndarray    # (C,) int counts
    predicted: int
    runner_up: int
    margin: int
    tied: bool


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    """Row-stable softmax over the last axis, in the array's own dtype."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def vote(scores: np.ndarray, cfg: CertifyConfig) -> VoteTable:
    """Tally strict-threshold votes for one image's (w, C) score table."""
    s = np.asarray(scores)
    if s.ndim != 2 or s.shape[1] < 2:
        raise ContractError(f"vote: expected (positions, classes), got {s.shape}")
    if not np.isfinite(s).all():
        raise ContractError("vote: non-finite score")
    if cfg.threshold_on == "probs":
        if (s < -SIMPLEX_ATOL).any() or \
           np.abs(s.sum(axis=1) - 1.0).max() > SIMPLEX_ATOL:
            raise ContractError("vote: rows are not probability distributions; "
                                "pass softmax outputs or use threshold_on 'logits'")
    counts = (s > cfg.threshold).sum(axis=0).astype(np.int64)
    order = np.argsort(-counts, kind="stable")  # ties keep lowest class first
    top, second = int(order[0]), int(order[1])
    margin = int(counts[top] - counts[second])
    return VoteTable(scores=s, votes=counts, predicted=top, runner_up=second,
                     margin=margin, tied=margin == 0)


def affected_positions(patch_col: int, patch_width: int, band_width: int,
                       image_width: int, wrap: bool) -> np.ndarray:
    """Band positions, ascending, whose columns meet a patch on pixel columns
    [q, q + m): the bands at q - b + 1 .. q + m - 1, taken mod w with wrap
    (min(w, m + b - 1) of them) and clipped to [0, w) without."""
    if patch_width < 1 or not (0 <= patch_col < image_width):
        raise ContractError("affected_positions: patch outside the image")
    if band_width < 1:
        raise ContractError(f"affected_positions: band width {band_width} < 1")
    first = patch_col - band_width + 1
    if wrap:
        return np.unique(np.arange(first, patch_col + patch_width) % image_width)
    return np.arange(max(0, first), min(patch_col + patch_width, image_width))


def certified_against(table: VoteTable, patch_width: int, band_width: int) -> bool:
    """The margin test: a width-m patch touches at most m + b - 1 bands and
    each touched band can move the margin by 2."""
    if table.tied:
        return False
    delta = patch_width + band_width - 1
    return table.margin > 2 * delta


def max_certified_patch_width(table: VoteTable, band_width: int,
                              image_width: int) -> int:
    """Largest m with margin > 2 (m + b - 1); 0 when nothing is certified.
    Capped at w - b + 1, beyond which a patch shares columns with every
    band placement anyway."""
    if table.tied:
        return 0
    m = (table.margin - 2 * band_width + 1) // 2
    return int(np.clip(m, 0, image_width - band_width + 1))


def per_band_scores(images: np.ndarray, params: ModelParams, plan: WindowPlan,
                    cfg: CertifyConfig) -> np.ndarray:
    """(n_images, w, C) voting scores, one row per band position. Softmax is
    applied unless the config thresholds raw logits."""
    logits, _ = batched_certify_forward(images, params, plan)
    if cfg.threshold_on == "logits":
        return logits
    return softmax_scores(logits)


@dataclass
class EvaluationResult:
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    # wall time of the "score" (window forwards) and "vote" phases; it varies
    # run to run, so it stays out of records and summary
    seconds: dict = field(default_factory=dict)


def evaluate(images: np.ndarray, labels: np.ndarray, params: ModelParams,
             plan: WindowPlan, cfg: CertifyConfig) -> EvaluationResult:
    """Vote and certify every image on its ``per_band_scores``. ``labels``
    is a 1-D integer array, one class id in [0, num_classes) per image."""
    if plan.band_width != cfg.band_width:
        raise ContractError(f"evaluate: plan band width {plan.band_width} != "
                            f"config band width {cfg.band_width}")
    imgs = np.asarray(images)
    ys = np.asarray(labels)
    if imgs.size == 0:
        raise ContractError("evaluate: no images to certify")
    n = imgs.shape[0]
    if ys.ndim != 1 or not np.issubdtype(ys.dtype, np.integer):
        raise ContractError(f"evaluate: labels must be a 1-D integer array, got "
                            f"shape {ys.shape} of {ys.dtype}")
    if ys.shape[0] != n:
        raise ContractError(f"evaluate: {ys.shape[0]} labels for {n} images")
    classes = params.cfg.num_classes
    if ys.min() < 0 or ys.max() >= classes:
        raise ContractError(f"evaluate: label outside [0, {classes})")
    start = perf_counter()
    scores = per_band_scores(imgs, params, plan, cfg)
    scored = perf_counter()
    w = plan.image_width

    records = []
    correct = 0
    abstained = 0
    margins = []
    certified_counts = {cfg.shape_key(s): 0 for s in cfg.patch_shapes}
    for i in range(n):
        table = vote(scores[i], cfg)
        is_correct = (not table.tied) and table.predicted == int(ys[i])
        correct += is_correct
        abstained += table.tied
        margins.append(table.margin)
        cert = {}
        for shape in cfg.patch_shapes:
            ok = certified_against(table, shape[1], cfg.band_width)
            cert[cfg.shape_key(shape)] = bool(ok)
            certified_counts[cfg.shape_key(shape)] += bool(ok) and is_correct
        records.append({
            "image_id": int(i),
            "label": int(ys[i]),
            "predicted": int(table.predicted),
            "abstained": bool(table.tied),
            "votes": table.votes.tolist(),
            "margin": int(table.margin),
            "certified": cert,
            "max_certified_m": max_certified_patch_width(table, cfg.band_width, w),
        })
    summary = {
        "num_images": int(n),
        "band_width": int(cfg.band_width),
        "threshold": float(cfg.threshold),
        "clean_accuracy": correct / n,
        "abstain_rate": abstained / n,
        "mean_margin": float(np.mean(margins)),
        "certified_accuracy": {k: v / n for k, v in certified_counts.items()},
        "forwards_per_image": int(plan.num_forwards),
    }
    return EvaluationResult(records=records, summary=summary,
                            seconds={"score": scored - start,
                                     "vote": perf_counter() - scored})
