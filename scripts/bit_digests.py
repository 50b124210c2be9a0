"""SHA-256 digests of everything a bit-exact change must leave alone.

Prints one ``name  digest`` line per artifact, so two checkouts compare
with one run each and a ``diff`` of the outputs:

* ``train16 seed S``: ``train_full`` on 150 synthetic 16x16 images of data
  seed S with the toy model and the schedule ``bandcert train`` runs by
  default, training seed S (the benchmark's train16 op): the weights in
  checkpoint order, then the codebook centroids. The tape entries its
  backward passes walked are printed beside it.
* ``evaluate <checkpoint>`` and ``logits <checkpoint>``: ``evaluate``'s
  records and summary, and the raw window logits of every (image, band
  position), for the 60 seed-0 test images on each stored benchmark
  checkpoint, in float64 as ``data.stack_images`` returns them. The
  checkpoints are only read.
* ``attack16 image K``: the empirical patch attack report on seed-0 test
  image K of the toy checkpoint, 16 locations x 200 random 2x2 patches
  (the benchmark's attack16 op), for K = 0..7.
* ``attack <variant> image K``: attack reports on what attack16 does not
  cover, for K = 0..7: 3x3 patches at anchors that straddle token edges
  (touching 1, 2 or 4 tokens), band wrap off (the toy checkpoint with
  ``band_wrap=False``, where patches near an edge meet fewer bands), and
  float64 weights. Each line digests the report of every anchor at once
  and of each anchor alone, 200 trials per location.
* ``gradient <case>``: each case of ``fd_gradient_report(seed=0,
  probes=100, h=1e-5)``, gate 5's call, as ``float.hex()``.

BLAS runs on one thread unless the thread variables are already set.

Usage:
    python scripts/bit_digests.py
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bandcert import autodiff  # noqa: E402
from bandcert.certification import evaluate  # noqa: E402
from bandcert.config import (build_certify_config, build_model_config,  # noqa: E402
                             build_train_plan, load_config)
from bandcert.data import DatasetSpec, load_dataset, stack_images  # noqa: E402
from bandcert.model import (ModelConfig, batched_certify_forward,  # noqa: E402
                            load_checkpoint, plan_windows)
from bandcert.oracles import (empirical_patch_attack, fd_gradient_report,  # noqa: E402
                               patch_locations)
from bandcert.training import train_full  # noqa: E402

CHECKPOINTS = ROOT / "perfbench" / "checkpoints"
TRAIN_SEEDS = (0, 1)
TRAIN_SIZE = 150
TEST_SIZE = 60
ATTACK_IMAGES = 8
ATTACK_LOCATIONS = 16
ATTACK_TRIALS = 200
PATCH = (2, 2)
VARIANT_IMAGES = 8
# 3x3 anchors on 4x4-pixel tokens: (2, 2) and (6, 3) touch 4 tokens, (1, 6)
# and (13, 10) 2, (5, 5) one
STRADDLING = [(2, 2), (1, 6), (6, 3), (13, 10), (5, 5)]


def toy_config() -> ModelConfig:
    return ModelConfig(image_side=16, patch_size=4, embed_dim=32, num_layers=3,
                       num_heads=4, mlp_ratio=2.0, num_classes=3, codebook_size=32)


def dataset(side: int, seed: int, test_size: int = TEST_SIZE) -> DatasetSpec:
    return DatasetSpec(source="synthetic", path="", num_classes=3, image_side=side,
                       upsample_factor=1, train_size=TRAIN_SIZE, test_size=test_size,
                       seed=seed)


def sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def train_digests() -> None:
    cfg = toy_config()
    plan = build_train_plan(load_config(), cfg)
    real_backward = autodiff.backward
    entries = 0

    def counting_backward(tape, loss):
        nonlocal entries
        entries += len(tape.entries)
        return real_backward(tape, loss)

    autodiff.backward = counting_backward
    try:
        for seed in TRAIN_SEEDS:
            entries = 0
            x, y = stack_images(load_dataset(dataset(cfg.image_side, seed), "train"))
            params, _, codebook = train_full(cfg, plan, x, y, seed=seed)
            weights = [t.data.tobytes() for t in params.tensors.values()]
            print(f"train16 seed {seed}  {sha256(*weights, codebook.centroids.tobytes())}"
                  f"  tape_entries={entries}")
    finally:
        autodiff.backward = real_backward


def certify_digests() -> None:
    cert_cfg = build_certify_config(load_config())
    configs = {"toy16": toy_config(),
               "default32": build_model_config(load_config(overrides=["data.image_side=32"]))}
    for name, cfg in configs.items():
        params = load_checkpoint(str(CHECKPOINTS / f"{name}.ecvt"), cfg, dtype=np.float32)
        plan = plan_windows(cfg, cert_cfg.band_width)
        x, y = stack_images(load_dataset(dataset(cfg.image_side, 0), "test"))
        result = evaluate(x, y, params, plan, cert_cfg)
        print(f"evaluate {name}  "
              f"{sha256(json.dumps([result.records, result.summary], sort_keys=True).encode())}")
        logits, _ = batched_certify_forward(x, params, plan)
        print(f"logits {name}  {sha256(logits.tobytes())}")


def attack_digests() -> None:
    cfg = toy_config()
    cert_cfg = build_certify_config(load_config())
    params = load_checkpoint(str(CHECKPOINTS / "toy16.ecvt"), cfg, dtype=np.float32)
    plan = plan_windows(cfg, cert_cfg.band_width)
    x, _ = stack_images(load_dataset(dataset(cfg.image_side, 0, ATTACK_IMAGES), "test"))
    locations = patch_locations(cfg.image_side, PATCH, ATTACK_LOCATIONS)
    for k in range(ATTACK_IMAGES):
        report = empirical_patch_attack(x[k].astype(np.float32), params, plan, cert_cfg,
                                        patch_shape=PATCH, locations=locations,
                                        trials=ATTACK_TRIALS, seed=0, image_id=k)
        fields = json.dumps(dataclasses.asdict(report), sort_keys=True)
        print(f"attack16 image {k}  {sha256(fields.encode())}")


def attack_variant_digests() -> None:
    cfg = toy_config()
    cert_cfg = build_certify_config(load_config())
    x, _ = stack_images(load_dataset(dataset(cfg.image_side, 0, VARIANT_IMAGES), "test"))
    attack16 = patch_locations(cfg.image_side, PATCH, ATTACK_LOCATIONS)
    unwrapped = dataclasses.replace(cfg, band_wrap=False)
    variants = {  # name: (model config, dtype, patch, anchors)
        "3x3 straddling": (cfg, np.float32, (3, 3), STRADDLING),
        "2x2 nowrap": (unwrapped, np.float32, PATCH, attack16),
        "3x3 straddling nowrap": (unwrapped, np.float32, (3, 3), STRADDLING),
        "2x2 float64": (cfg, np.float64, PATCH, attack16),
        "3x3 straddling float64": (cfg, np.float64, (3, 3), STRADDLING),
    }
    for name, (model_cfg, dtype, patch, locations) in variants.items():
        params = load_checkpoint(str(CHECKPOINTS / "toy16.ecvt"), model_cfg, dtype=dtype)
        plan = plan_windows(model_cfg, cert_cfg.band_width)
        for k in range(VARIANT_IMAGES):
            reports = [dataclasses.asdict(empirical_patch_attack(
                x[k], params, plan, cert_cfg, patch_shape=patch, locations=anchors,
                trials=ATTACK_TRIALS, seed=0, image_id=k))
                for anchors in [locations] + [[anchor] for anchor in locations]]
            print(f"attack {name} image {k}  "
                  f"{sha256(json.dumps(reports, sort_keys=True).encode())}")


def gradient_values() -> None:
    for name, err in fd_gradient_report(seed=0, probes=100, h=1e-5).items():
        print(f"gradient {name}  {err.hex()}")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    train_digests()
    certify_digests()
    attack_digests()
    attack_variant_digests()
    gradient_values()
    return 0


if __name__ == "__main__":
    sys.exit(main())
