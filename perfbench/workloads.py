"""The benchmark's three workloads.

Each workload has a set-up, one repeatable operation ("op") that ``run.py``
runs closed-loop and times, and a correctness check over the outputs of the
ops it ran. Ops call the program through module attributes
(``certification.evaluate``, not a name imported from it), so the traced run
sees every call once the tracer has rebound those attributes.

* certify32: op = ``certification.evaluate`` on one batch of 16 seeded 32x32
  test images with the command line's default model (512 windows per call).
* attack16: op = gate 3's ``oracles.empirical_patch_attack`` on one seeded
  16x16 test image with the stored toy model: one base sweep, then 16 patch
  locations x 200 random 2x2 patches. Every image is attacked, certified or
  not, so each op does the same work.
* train16: op = ``training.train_full`` on 150 seeded 16x16 images with the
  toy model and the schedule ``bandcert train`` runs by default (8 epochs
  per curriculum stage, 6 of fine-tuning, batch 16): k-means codebook,
  tokenization, three curriculum stages, band fine-tuning.

A workload that runs on a stored checkpoint names it in ``checkpoint``;
``run.py`` checks its digest once, before the first (timed) set-up.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import specs
from bandcert import certification, data, model, oracles, smoothing, training

BATCH = 16
CERTIFY_BATCHES = 4          # certify32 cycles over 4 x 16 seeded test images
ATTACK_IMAGES = 8            # attack16 cycles over 8 seeded test images
ATTACK_LOCATIONS = 16
ATTACK_TRIALS = 200
PATCH = (2, 2)


@dataclass
class CheckResult:
    """Outcome of a workload's checks. ``expect(ok, message, n)`` marks the
    n-th output as failed; without ``n`` it is a check of its own."""
    failed_ops: set[int] = field(default_factory=set)
    failed_checks: int = 0
    checks: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str, op: int | None = None) -> None:
        if op is None:
            self.checks += 1
            self.failed_checks += not ok
        elif not ok:
            self.failed_ops.add(op)
        if not ok:
            self.messages.append(message)


@dataclass
class Workload:
    name: str
    op_kind: str                 # what one op is: batch, image or pass
    images_per_op: int
    setup: Callable[[int], dict]
    run_op: Callable[[dict, int], object]
    check: Callable[[dict, list[tuple[int, object]], CheckResult], None]
    trace_ops: tuple[int, ...]   # ops of one traced repetition
    checkpoint: str | None = None  # stored input whose digest run.py checks


def _stored_model(name: str, cfg) -> tuple:
    params = model.load_checkpoint(str(specs.checkpoint_path(name)), cfg,
                                   dtype=np.float32)
    cert_cfg = specs.certify_config()
    plan = model.plan_windows(cfg, cert_cfg.band_width)
    return params, cert_cfg, plan


def _test_images(side: int, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, y = data.stack_images(data.load_dataset(specs.dataset(side, seed, test_size=n),
                                               "test"))
    return x.astype(np.float32), y


# --------------------------------------------------------------------------
# certify32


def _certify_setup(seed: int) -> dict:
    cfg = specs.default32_config()
    params, cert_cfg, plan = _stored_model("default32", cfg)
    x, y = _test_images(cfg.image_side, seed, BATCH * CERTIFY_BATCHES)
    return {"seed": seed, "cfg": cfg, "params": params, "cert_cfg": cert_cfg,
            "plan": plan, "x": x, "y": y}


def _certify_batch(op: int) -> slice:
    b = op % CERTIFY_BATCHES
    return slice(b * BATCH, (b + 1) * BATCH)


def _certify_op(st: dict, op: int):
    rows = _certify_batch(op)
    return certification.evaluate(st["x"][rows], st["y"][rows], st["params"],
                                  st["plan"], st["cert_cfg"])


def _certify_check(st: dict, outputs, res: CheckResult) -> None:
    first = {}
    for n, (op, out) in enumerate(outputs):
        slot = op % CERTIFY_BATCHES
        first.setdefault(slot, out)
        res.expect(out.records == first[slot].records
                   and out.summary == first[slot].summary,
                   f"batch {slot}: records differ between repetitions", n)
        res.expect(len(out.records) == BATCH, f"batch {slot}: wrong record count", n)

    if not outputs:
        return
    # A sampled batch that a timed op ran: one of its images' logits at every
    # band position from lone forward_band_unit calls must equal the batched
    # sweep bit for bit (gate 4), and voting the batched sweep by the paper's
    # rule, written out in _voted, must give the records the timed op produced.
    cfg, params, cert_cfg = st["cfg"], st["params"], st["cert_cfg"]
    b = cert_cfg.band_width
    rng = np.random.default_rng([st["seed"], 0xCE11])
    n = int(rng.integers(len(outputs)))
    op, out = outputs[n]
    slot = op % CERTIFY_BATCHES
    imgs = st["x"][_certify_batch(op)]
    batched, _ = model.batched_certify_forward(imgs, params, st["plan"])
    i = int(rng.integers(BATCH))
    lone = np.concatenate([
        model.forward_band_unit(
            smoothing.ablate_batch(imgs[i:i + 1], np.array([p]), b, wrap=cfg.band_wrap)
            .astype(params.dtype), params, smoothing.BandSpec(p, b)).logits.data
        for p in range(cfg.image_side)])
    res.expect(np.array_equal(batched[i], lone),
               f"batch {slot} image {i}: batched logits differ from the lone forwards")

    if cert_cfg.threshold_on == "logits":
        scores = batched
    else:
        scores = certification.softmax_scores(batched)
        e = np.exp(batched.astype(np.float64) - batched.max(axis=-1, keepdims=True))
        res.expect(np.allclose(scores, e / e.sum(axis=-1, keepdims=True),
                               rtol=0, atol=1e-6),
                   f"batch {slot}: softmax scores are wrong")
    for j, rec in enumerate(out.records):
        want = _voted(scores[j], cert_cfg, cfg.image_side)
        got = {k: rec[k] for k in want}
        res.expect(got == want, f"batch {slot} image {j}: record {got} differs "
                   f"from voting the window logits {want}", n)


def _voted(scores: np.ndarray, cert_cfg, w: int) -> dict:
    """Record fields for one (w, C) score table: each position votes for
    every class scoring above the threshold; the image is certified against
    a width-m patch iff it is not tied and margin > 2 (m + b - 1)."""
    b = cert_cfg.band_width
    counts = (scores > cert_cfg.threshold).sum(axis=0)
    top, second = sorted(range(len(counts)), key=lambda c: (-counts[c], c))[:2]
    margin = int(counts[top] - counts[second])
    tied = margin == 0
    return {"predicted": top, "abstained": tied, "votes": counts.tolist(),
            "margin": margin,
            "certified": {cert_cfg.shape_key(s): not tied and margin > 2 * (s[1] + b - 1)
                          for s in cert_cfg.patch_shapes},
            "max_certified_m": 0 if tied else max(
                [0] + [m for m in range(1, w - b + 2) if margin > 2 * (m + b - 1)])}


CERTIFY32 = Workload("certify32", "batch", BATCH, _certify_setup, _certify_op,
                     _certify_check, trace_ops=tuple(range(CERTIFY_BATCHES)),
                     checkpoint="default32")


# --------------------------------------------------------------------------
# attack16


def _attack_setup(seed: int) -> dict:
    cfg = specs.toy_config()
    params, cert_cfg, plan = _stored_model("toy16", cfg)
    x, y = _test_images(cfg.image_side, seed, ATTACK_IMAGES)
    locations = oracles.patch_locations(cfg.image_side, PATCH, ATTACK_LOCATIONS)
    return {"seed": seed, "cfg": cfg, "params": params, "cert_cfg": cert_cfg,
            "plan": plan, "x": x, "y": y, "locations": locations}


def _attack_op(st: dict, op: int):
    k = op % ATTACK_IMAGES
    return oracles.empirical_patch_attack(
        st["x"][k], st["params"], st["plan"], st["cert_cfg"], patch_shape=PATCH,
        locations=st["locations"], trials=ATTACK_TRIALS, seed=st["seed"], image_id=k)


def _attack_check(st: dict, outputs, res: CheckResult) -> None:
    # gate 3: evaluate's certificate agrees with the attack's, and no
    # certified image flips
    result = certification.evaluate(st["x"], st["y"], st["params"], st["plan"],
                                    st["cert_cfg"])
    key = st["cert_cfg"].shape_key(PATCH)
    certified = [r["certified"][key] for r in result.records]
    first = {}
    for n, (op, rep) in enumerate(outputs):
        k = op % ATTACK_IMAGES
        first.setdefault(k, rep)
        res.expect(rep == first[k], f"image {k}: attack report differs between repetitions", n)
        res.expect(rep.certified == certified[k],
                   f"image {k}: attack says certified={rep.certified}, evaluate "
                   f"says {certified[k]}", n)
        res.expect(not rep.certified or rep.flips == 0,
                   f"image {k}: certified but {rep.flips} patches flipped it", n)


ATTACK16 = Workload("attack16", "image", 1, _attack_setup, _attack_op,
                    _attack_check, trace_ops=(0,), checkpoint="toy16")


# --------------------------------------------------------------------------
# train16


def _train_setup(seed: int) -> dict:
    cfg = specs.toy_config()
    images = data.load_dataset(specs.dataset(cfg.image_side, seed), "train")
    x, y = data.stack_images(images)
    plan = specs.cli_schedule(cfg)
    return {"seed": seed, "cfg": cfg, "plan": plan, "x": x, "y": y}


def _train_op(st: dict, op: int):
    params, records, codebook = training.train_full(st["cfg"], st["plan"], st["x"],
                                                    st["y"], seed=st["seed"])
    digest = hashlib.sha256()
    for t in params.tensors.values():
        digest.update(t.data.tobytes())
    digest.update(codebook.centroids.tobytes())
    return records, digest.hexdigest()


def _train_check(st: dict, outputs, res: CheckResult) -> None:
    # gate 8: reruns of one seed give identical records and weights
    plan = st["plan"]
    expected = sum(s.epochs for s in plan.stages) + plan.finetune_epochs
    first = None
    for n, (_, (records, digest)) in enumerate(outputs):
        first = first or (records, digest)
        res.expect(len(records) == expected,
                   f"pass {n}: {len(records)} epoch records, expected {expected}", n)
        finite = all(math.isfinite(v) for r in records for v in r.values()
                     if isinstance(v, float))
        res.expect(finite, f"pass {n}: non-finite loss", n)
        res.expect((records, digest) == first,
                   f"pass {n}: records or weights differ from the first pass", n)


TRAIN16 = Workload("train16", "pass", specs.TRAIN_SIZE, _train_setup, _train_op,
                   _train_check, trace_ops=(0,))


WORKLOADS = {w.name: w for w in (CERTIFY32, ATTACK16, TRAIN16)}
