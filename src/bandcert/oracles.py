"""Independent checks for the quantities the certificate leans on.

Everything here recomputes a claim by brute force or a second method:

* geometry: how many band placements a patch can actually intersect,
  enumerated column by column, against the m + b - 1 closed form;
* vote arithmetic: exhaustive adversarial re-voting of corrupted positions,
  against the margin test;
* attacks: concrete randomized patches on certified images, re-scoring
  only the bands the patch touches;
* attention: the isolated window forward against the masked global one;
* gradients: finite differences against the tape for every primitive and
  for a whole encoder block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .certification import (CertifyConfig, VoteTable, affected_positions,
                            certified_against, per_band_scores, vote)
from .errors import ContractError
from .model import (ModelConfig, ModelParams, WindowPlan,
                    forward_band_unit, forward_global, window_token_ids)
from .smoothing import BandSpec, ablate_batch


# ---------------------------------------------------------------------------
# geometry


def intersection_sweep(max_width: int = 64,
                       wrap: bool = True) -> tuple[int, list[tuple[int, int, int]]]:
    """Enumerate every (w, m, b) with w <= max_width, m, b >= 1 and
    m + b - 1 <= w, and compare the brute-forced worst-case intersection
    count against m + b - 1.

    Returns (cases checked, disagreeing (w, m, b) triples). One coverage
    matrix is built per (w, b); sliding each patch width over its column
    cumsum keeps the full grid fast enough to run on every test pass.
    """
    failures: list[tuple[int, int, int]] = []
    cases = 0
    for w in range(1, max_width + 1):
        cols = np.arange(w)
        for b in range(1, w + 1):
            if wrap:
                covered = (cols[None, :] - cols[:, None]) % w < b
            else:
                covered = (cols[None, :] >= cols[:, None]) & \
                          (cols[None, :] < cols[:, None] + b)
            span = np.zeros((w, w + 1), dtype=np.int64)
            np.cumsum(covered, axis=1, out=span[:, 1:])
            for m in range(1, w - b + 2):
                cases += 1
                overlap = span[:, m:] - span[:, :w - m + 1]  # (p, q) column hits
                counts = (overlap > 0).sum(axis=0)
                if counts.max() != m + b - 1:
                    failures.append((w, m, b))
    return cases, failures


# ---------------------------------------------------------------------------
# adversarial re-voting


_ABSTAIN = -1  # the prediction of a tied vote table


def _vote_rule(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``vote``'s rule on (..., C) vote counts: the top-two margins and the
    predictions, the lowest-id top class or ``_ABSTAIN`` where the top two
    tie."""
    top2 = np.sort(counts, axis=-1)[..., -2:]
    margins = top2[..., 1] - top2[..., 0]
    return margins, np.where(margins == 0, _ABSTAIN, np.argmax(counts, axis=-1))


def worst_case_flip(vote_sets: np.ndarray, patch_width: int, band_width: int,
                    wrap: bool = True) -> bool:
    """Can a width-m patch change the voted prediction of this table?

    ``vote_sets`` is (w, C) bool: which classes cleared the threshold at
    each band position. The adversary owns every affected position and may
    set its votes to any subset of classes. A trial flips when its
    prediction under ``vote``'s rule, a tie abstaining, differs from the
    table's. Voting for class r alone at every affected position is the
    adversary's best move towards r winning outright, and towards a tie
    with the top class, so scanning each class alone is exhaustive.
    """
    vs = np.asarray(vote_sets, dtype=bool)
    w, c = vs.shape
    counts = vs.sum(axis=0).astype(np.int64)
    _, base = _vote_rule(counts)
    for q in range(w):
        hit = affected_positions(q, patch_width, band_width, w, wrap)
        trials = np.tile(counts - vs[hit].sum(axis=0), (c, 1))  # row r: only r at hit
        trials[np.arange(c), np.arange(c)] += hit.size
        if (_vote_rule(trials)[1] != base).any():
            return True
    return False


def exhaustive_flip_bitmask(vote_sets: np.ndarray, patch_width: int,
                            band_width: int, wrap: bool = True) -> bool:
    """Ground-truth flip check that literally tries every vote pattern at
    every corrupted position. Exponential; only for tiny tables."""
    vs = np.asarray(vote_sets, dtype=bool)
    w, c = vs.shape
    if (2 ** c) ** min(w, patch_width + band_width - 1) > 2_000_000:
        raise ContractError("exhaustive_flip_bitmask: table too large to enumerate")
    counts = vs.sum(axis=0).astype(np.int64)
    _, base_predicted = _vote_rule(counts)
    patterns = [np.array(bits, dtype=bool)
                for bits in itertools.product((False, True), repeat=c)]
    for q in range(w):
        hit = affected_positions(q, patch_width, band_width, w, wrap)
        base = counts - vs[hit].sum(axis=0)
        for combo in itertools.product(patterns, repeat=hit.size):
            trial = base + np.sum(combo, axis=0, dtype=np.int64) if combo \
                else base
            if _vote_rule(trial)[1] != base_predicted:
                return True
    return False


def check_certificate_soundness(vote_sets: np.ndarray, patch_width: int,
                                band_width: int, wrap: bool = True,
                                delta_fn=None) -> dict:
    """Certified tables must be unflippable. ``delta_fn(m, b)`` overrides
    the intersection bound so tests can verify a wrong bound gets caught."""
    vs = np.asarray(vote_sets, dtype=bool)
    margin = int(_vote_rule(vs.sum(axis=0).astype(np.int64))[0])
    delta = (delta_fn(patch_width, band_width) if delta_fn is not None
             else patch_width + band_width - 1)
    certified = margin > 0 and margin > 2 * delta
    flippable = worst_case_flip(vs, patch_width, band_width, wrap=wrap)
    return {
        "margin": margin,
        "certified": bool(certified),
        "flippable": bool(flippable),
        "sound": (not certified) or (not flippable),
    }


def random_vote_tables(num: int, image_width: int, num_classes: int, seed: int,
                       near_boundary_margin: int | None = None) -> np.ndarray:
    """(num, w, C) random vote sets. When ``near_boundary_margin`` is given,
    tables are rejection-shaped so the top-two margin lands within 2 of it,
    where soundness errors would actually show up."""
    rng = np.random.default_rng([int(seed), 0xF11])
    out = np.zeros((num, image_width, num_classes), dtype=bool)
    made = 0
    while made < num:
        density = rng.uniform(0.1, 0.9)
        vs = rng.random((image_width, num_classes)) < density
        if near_boundary_margin is not None:
            counts = vs.sum(axis=0)
            top2 = np.sort(counts)[-2:]
            if abs(int(top2[1] - top2[0]) - near_boundary_margin) > 2:
                continue
        out[made] = vs
        made += 1
    return out


# ---------------------------------------------------------------------------
# concrete randomized patch attacks


@dataclass
class AttackReport:
    image_id: int
    patch_shape: tuple[int, int]
    locations: int
    trials_per_location: int
    certified: bool
    flips: int
    min_margin_seen: int
    positions_rescored: int


def _recount_votes(base_table: VoteTable, base_scores: np.ndarray,
                   new_scores: np.ndarray, hit: np.ndarray,
                   cfg: CertifyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Top-two margins and predictions for T trials that replace rows
    ``hit`` of the base score table. Returns (margins (T,), predicted (T,));
    as in ``vote``, a tied trial predicts nothing, ``_ABSTAIN``."""
    thr = cfg.threshold
    base_votes_hit = (base_scores[hit] > thr).sum(axis=0).astype(np.int64)
    new_votes = (new_scores > thr).sum(axis=1).astype(np.int64)  # (T, C)
    return _vote_rule(base_table.votes[None, :] - base_votes_hit[None, :] + new_votes)


def patch_locations(image_side: int, shape: tuple[int, int], count: int) -> list[tuple[int, int]]:
    """Deterministic spread of patch anchors over the valid placement grid."""
    max_r = image_side - shape[0]
    max_c = image_side - shape[1]
    side = int(np.ceil(np.sqrt(count)))
    rs = np.unique(np.linspace(0, max_r, side).round().astype(int))
    cs = np.unique(np.linspace(0, max_c, side).round().astype(int))
    locs = [(int(r), int(c)) for r in rs for c in cs]
    return locs[:count]


def empirical_patch_attack(image: np.ndarray, params: ModelParams,
                           plan: WindowPlan, cfg: CertifyConfig,
                           patch_shape: tuple[int, int], locations: list[tuple[int, int]],
                           trials: int, seed: int,
                           image_id: int = 0) -> AttackReport:
    """Randomized patch contents at fixed anchors. Only the band positions
    whose columns meet the patch are re-scored; the rest of the vote table
    cannot change, which is exactly the structure the certificate uses.

    Every (row, col) anchor must place the whole patch inside the image, and
    ``trials`` is at least 1."""
    img = np.asarray(image, dtype=ad.INFER_DTYPE)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ContractError(f"empirical_patch_attack: expected (3, h, w), got {img.shape}")
    _, rows, cols = img.shape
    ph, pw = patch_shape
    if not (1 <= ph <= rows and 1 <= pw <= cols):
        raise ContractError(f"empirical_patch_attack: patch {ph}x{pw} does not fit "
                            f"a {rows}x{cols} image")
    outside = [(r, c) for r, c in locations
               if not (0 <= r <= rows - ph and 0 <= c <= cols - pw)]
    if outside:
        raise ContractError(f"empirical_patch_attack: a {ph}x{pw} patch at anchors "
                            f"{outside[:3]} leaves the {rows}x{cols} image")
    if trials < 1:
        raise ContractError(f"empirical_patch_attack: trials {trials} < 1")
    w = plan.image_width
    base_scores = per_band_scores(img[None], params, plan, cfg)
    base_table = vote(base_scores[0], cfg)
    certified = certified_against(base_table, patch_shape[1], cfg.band_width)
    rng = np.random.default_rng([int(seed), 0xA77, image_id])

    base_predicted = _ABSTAIN if base_table.tied else base_table.predicted
    flips = 0
    min_margin = base_table.margin
    rescored = 0
    # one batch of trial images for every location: each location restores
    # the previous patch region from the clean image before drawing its own
    patched = np.repeat(img[None], trials, axis=0)
    region = (slice(None), slice(None), slice(0, 0), slice(0, 0))
    for (r0, c0) in locations:
        hit = affected_positions(c0, patch_shape[1], cfg.band_width, w,
                                 wrap=params.cfg.band_wrap)
        rescored = max(rescored, hit.size)
        patched[region] = img[region[1:]]
        region = (slice(None), slice(None), slice(r0, r0 + ph), slice(c0, c0 + pw))
        patched[region] = rng.random((trials, 3, ph, pw), dtype=np.float32)
        new_scores = per_band_scores(patched, params, plan, cfg, positions=hit.tolist())
        margins, preds = _recount_votes(base_table, base_scores[0], new_scores,
                                        hit, cfg)
        min_margin = min(min_margin, int(margins.min()))
        flips += int((preds != base_predicted).sum())
    return AttackReport(
        image_id=image_id,
        patch_shape=tuple(patch_shape),
        locations=len(locations),
        trials_per_location=trials,
        certified=bool(certified),
        flips=flips,
        min_margin_seen=min_margin,
        positions_rescored=rescored,
    )


# ---------------------------------------------------------------------------
# attention restriction


def attention_equivalence(params: ModelParams, images: np.ndarray,
                          band: BandSpec) -> dict[str, float]:
    """Max |difference| between the isolated window forward and the masked
    global forward, over the shared token rows and the logits."""
    cfg = params.cfg
    abl = ablate_batch(images, np.full(images.shape[0], band.position),
                       band.width, wrap=cfg.band_wrap)
    abl = abl.astype(params.dtype)
    iso = forward_band_unit(abl, params, band, tokens=True)
    ids = window_token_ids(cfg, band)
    allowed = np.zeros(cfg.seq_len, dtype=bool)
    allowed[0] = True
    allowed[ids + 1] = True
    masked = forward_global(abl, params, allowed_tokens=allowed, tokens=True)
    rows = np.concatenate([[0], ids + 1])
    token_diff = np.abs(masked.tokens_out.data[:, rows, :] - iso.tokens_out.data).max()
    logit_diff = np.abs(masked.logits.data - iso.logits.data).max()
    return {"tokens": float(token_diff), "logits": float(logit_diff)}


# ---------------------------------------------------------------------------
# gradient spot checks


def _primitive_cases(rng: np.random.Generator):
    a34 = rng.normal(size=(3, 4))
    b45 = rng.normal(size=(4, 5))
    b54 = rng.normal(size=(5, 4))
    x24 = rng.normal(size=(2, 4))
    y24 = rng.normal(size=(2, 4))
    tab = rng.normal(size=(6, 3))
    idx2 = rng.integers(0, 6, size=(2, 5))
    targets = rng.integers(0, 5, size=(3,))
    cases = {
        "matmul": (lambda t: ad.mean(ad.matmul(t, Tensor(b45))), a34),
        "matmul_tb": (lambda t: ad.mean(ad.matmul(t, Tensor(b54), transpose_b=True)), a34),
        "add": (lambda t: ad.mean(ad.add(t, Tensor(y24[0]))), x24),
        "mul": (lambda t: ad.mean(ad.mul(t, Tensor(y24))), x24),
        "softmax_lastdim": (lambda t: ad.mean(ad.mul(ad.softmax_lastdim(t),
                                                     Tensor(y24))), x24),
        "layer_norm": (lambda t: ad.mean(ad.mul(ad.layer_norm(t), Tensor(y24))), x24),
        "gelu": (lambda t: ad.mean(ad.gelu(t)), x24),
        "embedding_lookup": (lambda t: ad.mean(ad.embedding_lookup(t, idx2)), tab),
        "reshape": (lambda t: ad.mean(ad.mul(ad.reshape(t, (4, 2)),
                                             Tensor(y24.reshape(4, 2)))), x24),
        "concat": (lambda t: ad.mean(ad.mul(ad.concat([t, Tensor(y24)], axis=0),
                                            Tensor(np.vstack([y24, x24])))), x24),
        "slice": (lambda t: ad.mean(ad.mul(ad.slice_axis(t, 1, 1, 3),
                                           Tensor(y24[:, 1:3]))), x24),
        "split_heads": (lambda t: ad.mean(ad.mul(ad.split_heads(t, 2),
                                                 Tensor(y24.reshape(1, 2, 2, 2)))),
                        x24.reshape(1, 2, 4)),
        "merge_heads": (lambda t: ad.mean(ad.mul(ad.merge_heads(t),
                                                 Tensor(y24.reshape(1, 2, 4)))),
                        x24.reshape(1, 2, 2, 2)),
        "mean": (lambda t: ad.mean(t), x24),
        "cross_entropy": (lambda t: ad.cross_entropy(t, targets), rng.normal(size=(3, 5))),
    }
    # the fused encoder ops: embed probes its weight, linear one square
    # tensor as input and weight, attention one tensor as queries, keys and
    # values, so every gradient path of each op is probed
    patches = rng.normal(size=(2, 3, 5))
    pos_table = rng.normal(size=(6, 4))
    pos_ids = rng.integers(0, 6, size=(2, 4))
    x234 = rng.normal(size=(2, 3, 4))
    w234 = rng.normal(size=(2, 3, 4))
    w244 = rng.normal(size=(2, 4, 4))
    sq = rng.normal(size=(2, 4, 4))
    mask = np.where([True, False, True], 0.0, ad.MASK_OFF)
    cases |= {
        "embed": (lambda t: ad.mean(ad.mul(ad.embed(patches, t, Tensor(y24[0]),
                                                    Tensor(pos_table), pos_ids),
                                           Tensor(w244))), b54),
        "linear": (lambda t: ad.mean(ad.mul(ad.linear(t, t, Tensor(y24[1])), Tensor(sq[1]))),
                   sq[0]),
        "affine_layer_norm": (lambda t: ad.mean(ad.mul(
            ad.affine_layer_norm(t, Tensor(y24[0]), Tensor(y24[1])), Tensor(w234))), x234),
        "attention": (lambda t: ad.mean(ad.mul(ad.attention(t, t, t, 2), Tensor(w234))),
                      x234),
        "attention_masked": (lambda t: ad.mean(ad.mul(ad.attention(t, t, t, 2, mask),
                                                      Tensor(w234))), x234),
    }
    return cases


def fd_gradient_report(seed: int = 0, probes: int = 4, h: float = 1e-5) -> dict[str, float]:
    """Max relative tape-vs-finite-difference error for every primitive, the
    fused encoder ops (attention masked and unmasked) included, and
    for a full encoder block driven end to end, once through the class
    logits (``encoder_block``) and once through every output token
    (``encoder_tokens``, the path the reconstruction loss trains). The
    finite differences run without a tape, on the plain-array encoder."""
    rng = np.random.default_rng([int(seed), 0xFD])
    report = {}
    for name, (fn, x) in _primitive_cases(rng).items():
        report[name] = ad.check_gradient(fn, x, probes=probes, seed=seed + 1, h=h)

    cfg = ModelConfig(image_side=8, patch_size=4, embed_dim=8, num_layers=1,
                      num_heads=2, mlp_ratio=2.0, num_classes=3, codebook_size=4)
    sp = ModelParams.init(cfg, seed=seed + 2)
    x = rng.random((2, 4, 8, 8))
    y = np.array([0, 2])
    token_weights = Tensor(rng.normal(size=(2, cfg.seq_len, cfg.embed_dim)))

    # Probe the patch embedding: its gradient flows through every op in the
    # block (attention softmax, both norms, the MLP, the residuals, the
    # head), and its coordinates are large enough that the finite-difference
    # quotient is not roundoff-dominated. Query/key weights at random init
    # have gradients near the FD noise floor (~1e-11 absolute for h=1e-5),
    # which makes per-coordinate relative error meaningless there.
    def loss_with_embedding(loss_of):
        def loss(t):
            old = sp.tensors["patch_embed.weight"]
            sp.tensors["patch_embed.weight"] = t
            try:
                return loss_of()
            finally:
                sp.tensors["patch_embed.weight"] = old
        return loss

    losses = {
        "encoder_block": lambda: ad.cross_entropy(forward_global(x, sp).logits, y),
        "encoder_tokens": lambda: ad.mean(ad.mul(
            forward_global(x, sp, tokens=True).tokens_out, token_weights)),
    }
    for k, (name, loss_of) in enumerate(losses.items()):
        report[name] = ad.check_gradient(
            loss_with_embedding(loss_of), sp.tensors["patch_embed.weight"].data,
            probes=probes, seed=seed + 3 + k, h=h)
    return report
