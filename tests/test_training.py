import math

import numpy as np
import pytest

from bandcert.data import DatasetSpec, load_dataset, stack_images
from bandcert.errors import ContractError
from bandcert.model import ModelConfig, ModelParams, forward_global
from bandcert.smoothing import ablate_batch, stage_masks
from bandcert.tokenizer import Codebook, fit_codebook, image_patches
from bandcert.training import (StageConfig, TrainPlan, build_default_plan,
                               finetune_band, run_stage, train_baseline,
                               train_full)


def small_cfg():
    return ModelConfig(image_side=8, patch_size=4, embed_dim=16, num_layers=1,
                       num_heads=2, mlp_ratio=2.0, num_classes=3, codebook_size=8)


def small_data(n=24, seed=3):
    spec = DatasetSpec(source="synthetic", num_classes=3, image_side=8,
                       train_size=n, test_size=4, seed=seed)
    train = load_dataset(spec, "train")
    imgs = np.stack([ex.image for ex in train])
    ys = np.asarray([ex.label for ex in train])
    return imgs, ys


def test_default_plan_widths_narrow_toward_band():
    cfg = ModelConfig(image_side=16, patch_size=4, embed_dim=16, num_layers=1,
                      num_heads=2, mlp_ratio=2.0, num_classes=3, codebook_size=8)
    plan = build_default_plan(cfg, band_width=4)
    widths = [s.keep_width for s in plan.stages]
    assert widths == [10, 5, 4]
    assert widths[0] > widths[1] > widths[2] or widths[1] >= widths[2]
    ratios = [s.reconstruct_ratio for s in plan.stages]
    assert ratios == [1.0, 0.6, 0.3]


def test_default_plan_rejects_wide_band():
    cfg = small_cfg()
    # 0.3 * 8 = 2.4, so any band of width >= 3 cannot narrow
    with pytest.raises(ContractError):
        build_default_plan(cfg, band_width=4)
    with pytest.raises(ContractError):
        build_default_plan(cfg, band_width=0)


def test_stage_config_validation():
    with pytest.raises(ContractError):
        StageConfig(keep_width=0, reconstruct_ratio=0.5, epochs=1, lr=1e-3)
    with pytest.raises(ContractError):
        StageConfig(keep_width=4, reconstruct_ratio=0.0, epochs=1, lr=1e-3)
    with pytest.raises(ContractError):
        StageConfig(keep_width=4, reconstruct_ratio=1.5, epochs=1, lr=1e-3)


def test_plan_validation():
    with pytest.raises(ContractError):
        TrainPlan(stages=[], band_width=2, batch_size=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0])
@pytest.mark.parametrize("key", ["lambda_rec", "finetune_lr", "weight_decay", "lr"])
def test_plan_rejects_bad_rates(key, value):
    with pytest.raises(ContractError, match=key):
        if key == "lr":
            StageConfig(keep_width=4, reconstruct_ratio=0.5, epochs=1, lr=value)
        else:
            TrainPlan(stages=[], band_width=2, **{key: value})


@pytest.mark.parametrize("key", ["finetune_epochs", "warmup_epochs"])
def test_plan_rejects_negative_epochs(key):
    with pytest.raises(ContractError, match=key):
        TrainPlan(stages=[], band_width=2, **{key: -1})
    TrainPlan(stages=[], band_width=2, **{key: 0})


def tiny_plan(**kw):
    stages = [StageConfig(keep_width=5, reconstruct_ratio=1.0, epochs=2, lr=1e-3),
              StageConfig(keep_width=2, reconstruct_ratio=0.5, epochs=2, lr=1e-3)]
    base = dict(stages=stages, band_width=2, batch_size=8,
                finetune_epochs=2, finetune_lr=1e-3)
    base.update(kw)
    return TrainPlan(**base)


def test_stage_loss_decreases_and_trains_head():
    cfg = small_cfg()
    imgs, ys = small_data()
    plan = tiny_plan()
    cb = fit_codebook(image_patches(imgs, 4), cfg.codebook_size, seed=0)
    targets = cb.tokenize(image_patches(imgs, 4)).reshape(imgs.shape[0], -1)
    params, head = ModelParams.init_with_recon_head(cfg, seed=0)
    head_before = {name: t.data.copy() for name, t in head.items()}
    stage = StageConfig(keep_width=5, reconstruct_ratio=1.0, epochs=4, lr=2e-3)
    records = run_stage(params, head, stage, plan, imgs, ys, targets,
                        stage_index=0, seed=0)
    assert len(records) == 4
    assert records[-1]["loss"] < records[0]["loss"]
    assert {"phase", "stage", "epoch", "keep_width", "loss", "ce", "rec"} <= set(records[0])
    # the stage stepped the head it was handed, in place
    assert list(head) == ["recon_vocab.weight", "recon_vocab.bias"]
    for name, before in head_before.items():
        assert not np.array_equal(head[name].data, before), name
    assert not any(name.startswith("recon_") for name in params.tensors)


def test_stage_reconstruction_term_matches_per_sample_reference():
    cfg = ModelConfig(image_side=16, patch_size=4, embed_dim=16, num_layers=1,
                      num_heads=2, mlp_ratio=2.0, num_classes=3, codebook_size=8)
    n = 8
    spec = DatasetSpec(source="synthetic", num_classes=3, image_side=16,
                       train_size=n, test_size=4, seed=3)
    imgs, ys = stack_images(load_dataset(spec, "train"))
    draw = np.random.default_rng(1)
    targets = draw.integers(0, cfg.codebook_size, size=(n, cfg.num_tokens))
    # a keep width and ratio that leave partial columns and unequal counts
    stage = StageConfig(keep_width=5, reconstruct_ratio=0.6, epochs=1, lr=1e-3)
    plan = tiny_plan(batch_size=n)
    params, head = ModelParams.init_with_recon_head(cfg, seed=0)

    # The stage's own draws: the batch permutation, then one band position
    # per sample. With one batch, the recorded ``rec`` is the term at the
    # initial weights.
    stage_rng = np.random.default_rng([7, 0xA, 0])
    order = stage_rng.permutation(n)
    positions = stage_rng.integers(0, cfg.image_side, size=n)
    flags = stage_masks(stage.reconstruct_ratio, stage.keep_width, cfg.patch_size,
                        cfg.image_side)
    weight, bias = head["recon_vocab.weight"].data, head["recon_vocab.bias"].data
    terms = []
    for j, p in zip(order, positions):
        abl = ablate_batch(imgs[j:j + 1], np.array([p]), stage.keep_width)
        tokens = forward_global(abl, params, tokens=True).tokens_out.data[0, 1:]
        for t in np.flatnonzero(flags[p]):
            z = tokens[t] @ weight + bias
            terms.append(z.max() + np.log(np.exp(z - z.max()).sum()) - z[targets[j, t]])
    want = math.fsum(terms) / len(terms)

    record = run_stage(params, head, stage, plan, imgs, ys, targets, stage_index=0,
                       seed=7)[0]
    assert abs(record["rec"] - want) <= 1e-12 * abs(want)


def test_stage_is_seed_deterministic():
    cfg = small_cfg()
    imgs, ys = small_data()
    plan = tiny_plan()
    cb = fit_codebook(image_patches(imgs, 4), cfg.codebook_size, seed=0)
    targets = cb.tokenize(image_patches(imgs, 4)).reshape(imgs.shape[0], -1)
    stage = plan.stages[0]
    outs = []
    for _ in range(2):
        params, head = ModelParams.init_with_recon_head(cfg, seed=0)
        run_stage(params, head, stage, plan, imgs, ys, targets, stage_index=0, seed=5)
        outs.append({n: t.data.copy() for n, t in {**params.tensors, **head}.items()})
    for name in outs[0]:
        np.testing.assert_array_equal(outs[0][name], outs[1][name])


def test_finetune_steps_every_classifier_tensor():
    cfg = small_cfg()
    imgs, ys = small_data()
    plan = tiny_plan()
    params = ModelParams.init(cfg, seed=1)
    assert not any(name.startswith("recon_") for name in params.tensors)
    before = dict(params.tensors)
    head_before = params["head.weight"].data.copy()
    records = finetune_band(params, plan, imgs, ys, seed=1)
    assert len(records) == plan.finetune_epochs
    assert {"phase", "epoch", "band_width", "loss", "band_accuracy"} <= set(records[0])
    assert 0.0 <= records[-1]["band_accuracy"] <= 1.0
    # nothing is frozen: AdamW replaced every tensor, in the same order
    assert list(params.tensors) == list(before)
    assert all(params[name] is not t for name, t in before.items())
    assert not np.array_equal(params["head.weight"].data, head_before)


def test_train_full_vae_returns_codebook_artifact():
    cfg = small_cfg()
    imgs, ys = small_data()
    plan = tiny_plan()
    params, records, artifact = train_full(cfg, plan, imgs, ys, seed=0)
    assert isinstance(artifact, Codebook)
    assert artifact.size == cfg.codebook_size
    phases = {r["phase"] for r in records}
    assert phases == {"stage", "finetune"}
    assert params.dtype == np.float64


def test_train_baseline_matches_epoch_budget():
    cfg = small_cfg()
    imgs, ys = small_data(n=16)
    plan = tiny_plan()
    params, records = train_baseline(cfg, plan, imgs, ys, seed=0)
    n_pre = sum(1 for r in records if r["phase"] == "baseline")
    assert n_pre == sum(s.epochs for s in plan.stages)
    assert sum(1 for r in records if r["phase"] == "finetune") == plan.finetune_epochs
