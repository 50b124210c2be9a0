"""Shared fixtures. The expensive one trains the toy model once per session."""

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from bandcert.certification import CertifyConfig, EvaluationResult, evaluate
from bandcert.data import DatasetSpec, load_dataset, stack_images
from bandcert.model import ModelConfig, ModelParams, WindowPlan, plan_windows
from bandcert.training import TrainPlan, build_default_plan, train_baseline, train_full

TOY_BAND_WIDTH = 4
TOY_SEED = 0
SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_pythonpath():
    """The CLI tests run ``python -m bandcert.cli`` in a subprocess, which
    finds the package through PYTHONPATH when it is not installed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield


def toy_model_config() -> ModelConfig:
    return ModelConfig(image_side=16, patch_size=4, embed_dim=32, num_layers=3,
                       num_heads=4, mlp_ratio=2.0, num_classes=3, codebook_size=32)


def toy_train_plan(cfg: ModelConfig) -> TrainPlan:
    return build_default_plan(cfg, TOY_BAND_WIDTH, epochs_per_stage=16, lr=1e-3,
                              finetune_epochs=30, finetune_lr=2e-3, batch_size=16)


@dataclass
class ToyBundle:
    cfg: ModelConfig
    plan: TrainPlan
    window_plan: WindowPlan
    cert_cfg: CertifyConfig
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    params: "ModelParams"
    baseline_params: "ModelParams"
    staged_eval: EvaluationResult
    baseline_eval: EvaluationResult
    train_seconds: float
    records: list = field(default_factory=list)


@pytest.fixture(scope="session")
def toy_bundle() -> ToyBundle:
    cfg = toy_model_config()
    spec = DatasetSpec(source="synthetic", path=None, num_classes=3, image_side=16,
                       upsample_factor=1, train_size=150, test_size=60, seed=TOY_SEED)
    train_x, train_y = stack_images(load_dataset(spec, "train"))
    test_x, test_y = stack_images(load_dataset(spec, "test"))
    plan = toy_train_plan(cfg)
    window_plan = plan_windows(cfg, TOY_BAND_WIDTH)
    cert_cfg = CertifyConfig(band_width=TOY_BAND_WIDTH)

    t0 = time.perf_counter()
    params, records, _ = train_full(cfg, plan, train_x, train_y, seed=TOY_SEED)
    baseline_params, _ = train_baseline(cfg, plan, train_x, train_y, seed=TOY_SEED)
    train_seconds = time.perf_counter() - t0

    staged_eval = evaluate(test_x, test_y, params, window_plan, cert_cfg)
    baseline_eval = evaluate(test_x, test_y, baseline_params, window_plan, cert_cfg)
    return ToyBundle(cfg=cfg, plan=plan, window_plan=window_plan, cert_cfg=cert_cfg,
                     train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y,
                     params=params, baseline_params=baseline_params,
                     staged_eval=staged_eval, baseline_eval=baseline_eval,
                     train_seconds=train_seconds, records=records)


@pytest.fixture()
def small_params():
    cfg = ModelConfig(image_side=8, patch_size=4, embed_dim=16, num_layers=2,
                      num_heads=2, mlp_ratio=2.0, num_classes=3, codebook_size=8)
    return ModelParams.init(cfg, seed=11)
