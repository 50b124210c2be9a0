"""End-to-end toy run: train the staged model and a plain baseline on the
synthetic striped set, certify both against 2x2 patches, then try to break
the certificates with random patch attacks.

Usage:
    python scripts/toy_pipeline.py [--seed 0] [--epochs-per-stage 16] [--attack]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bandcert.certification import CertifyConfig, evaluate
from bandcert.data import DatasetSpec, load_dataset, stack_images
from bandcert.model import ModelConfig, plan_windows
from bandcert.oracles import empirical_patch_attack, patch_locations
from bandcert.training import build_default_plan, train_baseline, train_full

BAND_WIDTH = 4


def toy_model_config() -> ModelConfig:
    return ModelConfig(image_side=16, patch_size=4, embed_dim=32, num_layers=3,
                       num_heads=4, mlp_ratio=2.0, num_classes=3, codebook_size=32)


def summarize(tag: str, summary: dict) -> None:
    cert = summary["certified_accuracy"]["2x2"]
    print(f"{tag:9s} clean {summary['clean_accuracy']:.3f}  "
          f"certified(2x2) {cert:.3f}  abstain {summary['abstain_rate']:.3f}  "
          f"mean margin {summary['mean_margin']:.1f}  "
          f"forwards/image {summary['forwards_per_image']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs-per-stage", type=int, default=16)
    ap.add_argument("--finetune-epochs", type=int, default=30)
    ap.add_argument("--attack", action="store_true",
                    help="also run 200-trial random patch attacks on every "
                         "certified test image")
    args = ap.parse_args()

    cfg = toy_model_config()
    spec = DatasetSpec(source="synthetic", path=None, num_classes=3, image_side=16,
                       upsample_factor=1, train_size=150, test_size=60, seed=args.seed)
    train_x, train_y = stack_images(load_dataset(spec, "train"))
    test_x, test_y = stack_images(load_dataset(spec, "test"))
    plan = build_default_plan(cfg, BAND_WIDTH, epochs_per_stage=args.epochs_per_stage,
                              lr=1e-3, finetune_epochs=args.finetune_epochs,
                              finetune_lr=2e-3, batch_size=16)
    wplan = plan_windows(cfg, BAND_WIDTH)
    cert_cfg = CertifyConfig(band_width=BAND_WIDTH)

    t0 = time.time()
    params, records, _ = train_full(cfg, plan, train_x, train_y, seed=args.seed)
    print(f"staged training done in {time.time() - t0:.1f}s "
          f"({len(records)} epoch records)")
    staged = evaluate(test_x, test_y, params, wplan, cert_cfg)
    summarize("staged", staged.summary)

    t0 = time.time()
    base_params, _ = train_baseline(cfg, plan, train_x, train_y, seed=args.seed)
    print(f"baseline training done in {time.time() - t0:.1f}s")
    baseline = evaluate(test_x, test_y, base_params, wplan, cert_cfg)
    summarize("baseline", baseline.summary)

    if args.attack:
        locations = patch_locations(cfg.image_side, (2, 2), 16)
        flips = tried = 0
        t0 = time.time()
        for rec in staged.records:
            if not rec["certified"]["2x2"] or rec["abstained"]:
                continue
            tried += 1
            rep = empirical_patch_attack(test_x[rec["image_id"]], params, wplan,
                                         cert_cfg, (2, 2), locations, trials=200,
                                         seed=args.seed, image_id=rec["image_id"])
            flips += rep.flips
        print(f"attacked {tried} certified images x {len(locations)} locations "
              f"x 200 trials: {flips} flips in {time.time() - t0:.1f}s")
        return 1 if flips else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
