"""Independent checks for the quantities the certificate leans on.

Everything here recomputes a claim by brute force or a second method:

* geometry: how many band placements a patch can actually intersect,
  enumerated column by column, against the m + b - 1 closed form;
* vote arithmetic: exhaustive adversarial re-voting of corrupted positions,
  against the margin test;
* attacks: concrete randomized patches on certified images, re-scoring
  only the bands the patch touches;
* attention: the isolated window forward against the masked global one;
* gradients: finite differences against the tape for every primitive the
  program runs and for a whole encoder block. The unfused chain the fused
  encoder ops replace is checked by the tests that hold it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model
from .autodiff import Tensor
from .certification import (CertifyConfig, VoteTable, affected_positions,
                            certified_against, softmax_scores, vote)
from .errors import ContractError
from .model import (ModelConfig, ModelParams, WindowPlan, forward_band_unit,
                    forward_global, patchify, window_token_ids)
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


def _attack_scores(img: np.ndarray, params: ModelParams, plan: WindowPlan,
                   cfg: CertifyConfig, patch_shape: tuple[int, int],
                   locations: list[tuple[int, int]], hits: list[np.ndarray],
                   trials: int, rng: np.random.Generator
                   ) -> tuple[np.ndarray, list[np.ndarray]]:
    """The attack's voting scores, from one window sweep: the clean image's
    (w, C) scores, and per location the (trials, hits, C) scores of its
    trials at its hit band positions ``hits[i]``.

    The sweep reads a shared token table, not trial images. The table is
    the clean image's patch tokens, then, location by location and trial by
    trial, only the tokens the trial's patch touches: ``patchify`` of the
    token-aligned crop around the patch with the trial's pixels written in.
    Virtual image 0 is the clean image; virtual image 1 + i * trials + t is
    trial t at location i, the clean tokens but for the touched ones. Each
    location draws its (trials, 3, ph, pw) float32 pixels from ``rng`` in
    location order."""
    mcfg = params.cfg
    ps, tokens = mcfg.patch_size, mcfg.num_tokens
    _, n_cols = mcfg.grid
    dim = 3 * ps * ps
    ph, pw = patch_shape
    w = plan.image_width
    # token rows [tr0, tr1) and columns [tc0, tc1) each patch touches
    boxes = [(r0 // ps, (r0 + ph - 1) // ps + 1, c0 // ps, (c0 + pw - 1) // ps + 1)
             for r0, c0 in locations]
    touched = [(tr1 - tr0) * (tc1 - tc0) for tr0, tr1, tc0, tc1 in boxes]
    table = np.empty((tokens + trials * sum(touched), dim), dtype=img.dtype)
    patchify(img[None], ps, out=table[:tokens].reshape(1, tokens, dim))
    image_tokens = np.tile(np.arange(tokens), (1 + len(locations) * trials, 1))
    start = tokens
    for i, ((r0, c0), (tr0, tr1, tc0, tc1), nt) in enumerate(zip(locations, boxes, touched)):
        crop = np.repeat(img[None, :, tr0 * ps:tr1 * ps, tc0 * ps:tc1 * ps], trials, axis=0)
        dr, dc = r0 - tr0 * ps, c0 - tc0 * ps
        crop[:, :, dr:dr + ph, dc:dc + pw] = rng.random((trials, 3, ph, pw), dtype=np.float32)
        stop = start + trials * nt
        patchify(crop, ps, out=table[start:stop].reshape(trials, nt, dim))
        grid = (np.arange(tr0, tr1)[:, None] * n_cols + np.arange(tc0, tc1)).ravel()
        image_tokens[1 + i * trials:1 + (i + 1) * trials, grid] = \
            np.arange(start, stop).reshape(trials, nt)
        start = stop
    # rows: the clean image at every band position, then each location's
    # trials, trial-major, at its hit positions
    images = np.concatenate([np.zeros(w, dtype=np.int64)] + [
        np.repeat(1 + i * trials + np.arange(trials), hit.size) for i, hit in enumerate(hits)])
    positions = np.concatenate([np.arange(w)] + [np.tile(hit, trials) for hit in hits])
    sweep = model._TokenSweep(table=table, image_tokens=image_tokens, images=images,
                              positions=positions)
    logits = np.empty((images.size, mcfg.num_classes), dtype=params.dtype)
    for rows, out in model._sweep_windows(params, plan, sweep):
        logits[rows] = out.data
    scores = logits if cfg.threshold_on == "logits" else softmax_scores(logits)
    base, *per_location = np.split(scores, np.cumsum([w] + [trials * hit.size
                                                            for hit in hits])[:-1])
    return base, [s.reshape(trials, hit.size, -1) for s, hit in zip(per_location, hits)]


def empirical_patch_attack(image: np.ndarray, params: ModelParams,
                           plan: WindowPlan, cfg: CertifyConfig,
                           patch_shape: tuple[int, int], locations: list[tuple[int, int]],
                           trials: int, seed: int,
                           image_id: int = 0) -> AttackReport:
    """Randomized patch contents at fixed anchors. Only the band positions
    whose columns meet the patch are re-scored; the rest of the vote table
    cannot change, which is exactly the structure the certificate uses.
    The clean image and every trial are scored in one window sweep over a
    shared token table (``_attack_scores``), and each trial's votes are its
    location's base votes with the hit rows replaced.

    ``image`` is (3, h, w) at the model's side, every (row, col) anchor
    must place the whole patch inside it, ``trials`` is at least 1, and the
    plan's band width is the config's."""
    if plan.band_width != cfg.band_width:
        raise ContractError(f"empirical_patch_attack: plan band width {plan.band_width} != "
                            f"config band width {cfg.band_width}")
    img = np.asarray(image, dtype=params.dtype)
    side = params.cfg.image_side
    if img.shape != (3, side, side):
        raise ContractError(f"empirical_patch_attack: expected (3, {side}, {side}), "
                            f"got {img.shape}")
    ph, pw = patch_shape
    if not (1 <= ph <= side and 1 <= pw <= side):
        raise ContractError(f"empirical_patch_attack: patch {ph}x{pw} does not fit "
                            f"a {side}x{side} image")
    outside = [(r, c) for r, c in locations
               if not (0 <= r <= side - ph and 0 <= c <= side - pw)]
    if outside:
        raise ContractError(f"empirical_patch_attack: a {ph}x{pw} patch at anchors "
                            f"{outside[:3]} leaves the {side}x{side} image")
    if trials < 1:
        raise ContractError(f"empirical_patch_attack: trials {trials} < 1")
    hits = [affected_positions(c0, pw, cfg.band_width, plan.image_width,
                               wrap=params.cfg.band_wrap) for _, c0 in locations]
    rng = np.random.default_rng([int(seed), 0xA77, image_id])
    base_scores, trial_scores = _attack_scores(img, params, plan, cfg, patch_shape,
                                               locations, hits, trials, rng)
    base_table = vote(base_scores, cfg)
    certified = certified_against(base_table, pw, cfg.band_width)

    base_predicted = _ABSTAIN if base_table.tied else base_table.predicted
    flips = 0
    min_margin = base_table.margin
    for hit, scores in zip(hits, trial_scores):
        margins, preds = _recount_votes(base_table, base_scores, scores, hit, cfg)
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
        positions_rescored=max((hit.size for hit in hits), default=0),
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
    # two unread draws: they keep every later draw, and so each case's
    # inputs and value, as they were when matmul's cases read them
    rng.normal(size=(3, 4))
    rng.normal(size=(4, 5))
    b54 = rng.normal(size=(5, 4))
    x24 = rng.normal(size=(2, 4))
    y24 = rng.normal(size=(2, 4))
    tab = rng.normal(size=(6, 3))
    idx2 = rng.integers(0, 6, size=(2, 5))
    targets = rng.integers(0, 5, size=(3,))
    cases = {
        "add": (lambda t: ad.mean(ad.add(t, Tensor(y24[0]))), x24),
        "mul": (lambda t: ad.mean(ad.mul(t, Tensor(y24))), x24),
        "gelu": (lambda t: ad.mean(ad.gelu(t)), x24),
        "embedding_lookup": (lambda t: ad.mean(ad.embedding_lookup(t, idx2)), tab),
        "reshape": (lambda t: ad.mean(ad.mul(ad.reshape(t, (4, 2)),
                                             Tensor(y24.reshape(4, 2)))), x24),
        "slice": (lambda t: ad.mean(ad.mul(ad.slice_axis(t, 1, 1, 3),
                                           Tensor(y24[:, 1:3]))), x24),
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
    """Max relative tape-vs-finite-difference error for every primitive in
    ``autodiff``, the fused encoder ops (attention masked and unmasked)
    included, and for a full encoder block driven end to end, once through
    the class logits (``encoder_block``) and once through every output token
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
