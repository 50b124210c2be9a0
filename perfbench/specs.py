"""What the benchmark runs on: model shapes, schedules, stored checkpoints,
and the machine facts every result records.

Import only after ``boot.bootstrap()``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys

import numpy as np
import scipy

from boot import BENCH_DIR, ROOT, SRC, THREAD_VARS, THREADS

from bandcert.certification import CertifyConfig
from bandcert.config import (build_certify_config, build_model_config,
                             build_train_plan, load_config)
from bandcert.data import DatasetSpec
from bandcert.model import ModelConfig
from bandcert.training import TrainPlan, build_default_plan

CHECKPOINT_DIR = BENCH_DIR / "checkpoints"
MANIFEST = CHECKPOINT_DIR / "manifest.json"

BAND_WIDTH = 4
TRAIN_SIZE = 150
TEST_SIZE = 60       # images the generator scores each checkpoint on
CHECKPOINT_SEED = 0  # data and training seed of the stored checkpoints


class InputError(Exception):
    """A stored benchmark input is missing or does not match its digest."""


def toy_config() -> ModelConfig:
    """The 16x16 toy model of the acceptance gates."""
    return ModelConfig(image_side=16, patch_size=4, embed_dim=32, num_layers=3,
                       num_heads=4, mlp_ratio=2.0, num_classes=3, codebook_size=32)


def default32_config() -> ModelConfig:
    """The command line's default model on 32x32 images."""
    return build_model_config(load_config(overrides=["data.image_side=32"]))


def certify_config() -> CertifyConfig:
    """The command line's default certification settings."""
    return build_certify_config(load_config())


def toy_schedule(cfg: ModelConfig) -> TrainPlan:
    """The toy training schedule of the acceptance gates (16 epochs per
    stage, 30 of fine-tuning); the stored checkpoints are trained with it."""
    return build_default_plan(cfg, BAND_WIDTH, epochs_per_stage=16, lr=1e-3,
                              finetune_epochs=30, finetune_lr=2e-3, batch_size=16)


def cli_schedule(cfg: ModelConfig) -> TrainPlan:
    """The schedule ``bandcert train`` runs by default (8 epochs per stage,
    6 of fine-tuning)."""
    return build_train_plan(load_config(), cfg)


def dataset(side: int, seed: int, train_size: int = TRAIN_SIZE,
            test_size: int = TEST_SIZE) -> DatasetSpec:
    return DatasetSpec(source="synthetic", path="", num_classes=3,
                       image_side=side, upsample_factor=1,
                       train_size=train_size, test_size=test_size, seed=seed)


# name -> model config of each stored checkpoint
CHECKPOINTS = {"toy16": toy_config, "default32": default32_config}


def checkpoint_path(name: str):
    return CHECKPOINT_DIR / f"{name}.ecvt"


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_manifest() -> dict:
    try:
        with open(MANIFEST) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read {MANIFEST}: {e}") from e


def verify_checkpoint(name: str) -> None:
    """Raise ``InputError`` unless the stored checkpoint's bytes match the
    manifest digest."""
    path = checkpoint_path(name)
    want = read_manifest().get(name, {}).get("sha256")
    if want is None:
        raise InputError(f"{MANIFEST} has no digest for '{name}'")
    try:
        got = sha256_file(path)
    except OSError as e:
        raise InputError(f"cannot read checkpoint {path}: {e}") from e
    if got != want:
        raise InputError(f"{path}: sha256 {got} does not match the manifest "
                         f"({want}); rebuild with perfbench/make_inputs.py")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the program's Python sources, so a result names the code
    it measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "threads": THREADS,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "argv": sys.argv[1:],
    }
