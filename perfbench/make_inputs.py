"""Rebuild the checkpoints the benchmark runs on.

    python3 perfbench/make_inputs.py

Each model is trained with the acceptance gates' toy schedule on the seed-0
synthetic training split (150 images), written as ``checkpoints/<name>.ecvt``,
and certified on the seed-0 test split (60 images). The checkpoint's sha256,
clean and certified accuracy, training time and the machine facts go into
``checkpoints/manifest.json``; the benchmark refuses a checkpoint whose bytes
do not match that digest. Training runs in float64 with one BLAS thread, so
the bytes repeat on the same numpy and BLAS build; another build may round
differently, which is why the checkpoints are stored rather than rebuilt on
every benchmark run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

import boot

boot.bootstrap()

import numpy as np  # noqa: E402

import specs  # noqa: E402
from bandcert.certification import evaluate  # noqa: E402
from bandcert.data import load_dataset, stack_images  # noqa: E402
from bandcert.model import load_checkpoint, plan_windows, save_checkpoint  # noqa: E402
from bandcert.training import train_full  # noqa: E402


def build(name: str) -> dict:
    cfg = specs.CHECKPOINTS[name]()
    plan = specs.toy_schedule(cfg)
    data = specs.dataset(cfg.image_side, specs.CHECKPOINT_SEED)
    train_x, train_y = stack_images(load_dataset(data, "train"))
    test_x, test_y = stack_images(load_dataset(data, "test"))

    start = time.perf_counter()
    params, _, _ = train_full(cfg, plan, train_x, train_y, seed=specs.CHECKPOINT_SEED)
    train_seconds = time.perf_counter() - start
    path = specs.checkpoint_path(name)
    specs.CHECKPOINT_DIR.mkdir(exist_ok=True)
    save_checkpoint(params, str(path))

    cert_cfg = specs.certify_config()
    stored = load_checkpoint(str(path), cfg, dtype=np.float32)
    result = evaluate(test_x.astype(np.float32), test_y, stored,
                      plan_windows(cfg, cert_cfg.band_width), cert_cfg)
    return {
        "sha256": specs.sha256_file(path),
        "model": dataclasses.asdict(cfg),
        "schedule": {"epochs_per_stage": plan.stages[0].epochs,
                     "finetune_epochs": plan.finetune_epochs,
                     "lr": plan.stages[0].lr, "finetune_lr": plan.finetune_lr,
                     "batch_size": plan.batch_size, "band_width": plan.band_width,
                     "train_size": specs.TRAIN_SIZE, "seed": specs.CHECKPOINT_SEED},
        "test_size": specs.TEST_SIZE,
        "clean_accuracy": result.summary["clean_accuracy"],
        "certified_accuracy": result.summary["certified_accuracy"],
        "train_seconds": round(train_seconds, 1),
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    try:
        old = specs.read_manifest()
    except specs.InputError:
        old = {}
    manifest = {}
    env = specs.environment()
    for name in sorted(specs.CHECKPOINTS):
        entry = build(name)
        entry["built_with"] = {k: env[k] for k in
                               ("python", "numpy", "scipy", "blas", "cpu", "threads")}
        before = old.get(name, {}).get("sha256")
        if before is not None and before != entry["sha256"]:
            print(f"note: {name} digest changed from {before}")
        manifest[name] = entry
        print(json.dumps({name: entry}, sort_keys=True))
    with open(specs.MANIFEST, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
