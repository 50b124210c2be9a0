"""Voting and certification over column-band ablations.

Every band position p in [0, w) yields the logits of the window that sees
only that band. ``vote`` is the one per-position rule: it scores the
classes at p by the softmax of those logits, or by the logits themselves
when the config thresholds them, and a class collects a vote at p when its
score is strictly above a fixed threshold, so one position can vote for
several classes or none. ``tally`` counts the votes: the prediction is the
lowest-id class with the most votes, and a table whose top two classes tie
abstains. A width-m adversarial patch intersects at most delta = m + b - 1
bands, each of which can at worst both remove a vote from the top class and
add one to a rival, hence the one bound, ``certified_against``:

    certified(m)  iff  n_top > n_runner_up + 2 * (m + b - 1)

which a tie (margin 0) never meets. All of them work on arrays, so
``evaluate`` votes and certifies a whole batch of window logits at once,
the patch attack re-votes its trials with the same ``vote``, and the
oracles check the same bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import ContractError
from .model import ModelParams, WindowPlan, batched_certify_forward

VOTE_THRESHOLD_DEFAULT = 0.2


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
    """Vote tables of leading shape S (0-d for one table): ``votes`` is the
    (*S, C) vote counts, ``predicted`` the lowest-id top class and
    ``margin`` its lead over the runner-up, both of shape S."""
    votes: np.ndarray
    predicted: np.ndarray
    margin: np.ndarray

    @property
    def tied(self) -> np.ndarray:
        return self.margin == 0

    @property
    def decision(self) -> np.ndarray:
        """The prediction, or -1 where the table is tied: a tie abstains."""
        return np.where(self.tied, -1, self.predicted)


def tally(counts: np.ndarray) -> VoteTable:
    """The vote rule on (..., C) integer vote counts."""
    top2 = np.sort(counts, axis=-1)[..., -2:]
    return VoteTable(votes=counts, predicted=np.argmax(counts, axis=-1),
                     margin=top2[..., 1] - top2[..., 0])


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    """Row-stable softmax over the last axis, in the array's own dtype."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def vote(logits: np.ndarray, cfg: CertifyConfig) -> VoteTable:
    """The per-position rule on a (..., w, C) stack of window logits, one
    (w, C) table per image. A position's scores are the softmax of its
    logits, or the logits themselves with ``threshold_on`` 'logits'; it
    votes for every class scoring strictly above the threshold, and
    ``tally`` counts the votes."""
    x = np.asarray(logits)
    if x.ndim < 2 or x.shape[-2] < 1 or x.shape[-1] < 2:
        raise ContractError(f"vote: expected (positions, classes), got {x.shape}")
    if not np.isfinite(x).all():
        raise ContractError("vote: non-finite logit")
    scores = x if cfg.threshold_on == "logits" else softmax_scores(x)
    return tally((scores > cfg.threshold).sum(axis=-2))


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


def certified_against(margin, patch_width: int, band_width: int):
    """The paper's bound, elementwise over margins: a width-m patch touches
    at most m + b - 1 bands and each touched band can move the margin by 2.
    m, b >= 1, so a tie is never certified."""
    return margin > 2 * (patch_width + band_width - 1)


def max_certified_patch_width(margin, band_width: int, image_width: int):
    """Largest m that ``certified_against`` certifies, elementwise over
    margins; 0 when it certifies none. Capped at w - b + 1, beyond which a
    patch shares columns with every band placement anyway."""
    return np.clip((margin - 2 * band_width + 1) // 2, 0, image_width - band_width + 1)


@dataclass
class EvaluationResult:
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    # wall time of the "score" (window forwards) and "vote" phases; it varies
    # run to run, so it stays out of records and summary
    seconds: dict = field(default_factory=dict)


def evaluate(images: np.ndarray, labels: np.ndarray, params: ModelParams,
             plan: WindowPlan, cfg: CertifyConfig) -> EvaluationResult:
    """Vote and certify every image on its window logits, one ``vote``
    call for the batch. ``labels`` is a 1-D integer array, one class id in
    [0, num_classes) per image."""
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
    logits, _ = batched_certify_forward(imgs, params, plan)
    scored = perf_counter()

    tables = vote(logits, cfg)
    tied = tables.tied
    correct = ~tied & (tables.predicted == ys)
    certified = {cfg.shape_key(s): certified_against(tables.margin, s[1], cfg.band_width)
                 for s in cfg.patch_shapes}
    max_m = max_certified_patch_width(tables.margin, cfg.band_width, plan.image_width)
    records = [{
        "image_id": i,
        "label": int(ys[i]),
        "predicted": int(tables.predicted[i]),
        "abstained": bool(tied[i]),
        "votes": tables.votes[i].tolist(),
        "margin": int(tables.margin[i]),
        "certified": {k: bool(ok[i]) for k, ok in certified.items()},
        "max_certified_m": int(max_m[i]),
    } for i in range(n)]
    summary = {
        "num_images": int(n),
        "band_width": int(cfg.band_width),
        "threshold": float(cfg.threshold),
        "clean_accuracy": int(correct.sum()) / n,
        "abstain_rate": int(tied.sum()) / n,
        "mean_margin": float(np.mean(tables.margin)),
        "certified_accuracy": {k: int((ok & correct).sum()) / n
                               for k, ok in certified.items()},
        "forwards_per_image": int(plan.num_forwards),
    }
    return EvaluationResult(records=records, summary=summary,
                            seconds={"score": scored - start,
                                     "vote": perf_counter() - scored})
