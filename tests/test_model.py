import functools
import gc
import importlib
import inspect
import multiprocessing
import pkgutil
import struct
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert import autodiff as ad
from bandcert import model
from bandcert.autodiff import Tape, Tensor, record
from bandcert.certification import CertifyConfig
from bandcert.config import build_model_config, load_config
from bandcert.errors import ContractError, DataFormatError, NumericError
from bandcert.model import (CHECKPOINT_MAGIC, ModelConfig, ModelParams,
                            batched_certify_forward, count_flops,
                            forward_band_unit, forward_global, forward_windows,
                            load_checkpoint, patchify, plan_windows,
                            save_checkpoint, window_token_ids)
from bandcert.oracles import empirical_patch_attack
from bandcert.smoothing import BandSpec, ablate_batch


def tiny_cfg(**kw):
    base = dict(image_side=8, patch_size=4, embed_dim=16, num_layers=2,
                num_heads=2, mlp_ratio=2.0, num_classes=3, codebook_size=8)
    base.update(kw)
    return ModelConfig(**base)


def test_config_rejects_bad_divisibility():
    with pytest.raises(ContractError):
        tiny_cfg(image_side=10)     # patch does not divide side
    with pytest.raises(ContractError):
        tiny_cfg(embed_dim=18, num_heads=4)  # heads do not divide dim


def test_config_range_bounds():
    with pytest.raises(ContractError):
        tiny_cfg(codebook_size=1)
    tiny_cfg(codebook_size=2)
    # a zero-width MLP is legal: each block's MLP then adds only its bias
    params = ModelParams.init(tiny_cfg(mlp_ratio=0.0), seed=0)
    assert params["blocks.0.mlp.w1"].shape == (16, 0)
    assert forward_global(np.ones((1, 4, 8, 8)), params).logits.shape == (1, 3)


def test_param_inventory_and_shapes():
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=0)
    named = params.tensors
    assert named["patch_embed.weight"].shape == (cfg.patch_dim, cfg.embed_dim)
    assert named["pos_embed"].shape == (cfg.seq_len, cfg.embed_dim)
    assert named["head.weight"].shape == (cfg.embed_dim, cfg.num_classes)
    # the classifier alone: the reconstruction head is training state
    assert not any(name.startswith("recon_") for name in named)
    with_head, head = ModelParams.init_with_recon_head(cfg, seed=0)
    for name, t in named.items():  # the head is drawn after the classifier
        np.testing.assert_array_equal(with_head[name].data, t.data)
    assert [(n, t.shape) for n, t in head.items()] == [
        ("recon_vocab.weight", (cfg.embed_dim, cfg.codebook_size)),
        ("recon_vocab.bias", (cfg.codebook_size,))]
    for i in range(cfg.num_layers):
        assert f"blocks.{i}.attn.wq" in named
        assert f"blocks.{i}.mlp.w2" in named
    # biases start at zero, layer norm gains at one
    np.testing.assert_array_equal(named["blocks.0.attn.bq"].data, 0.0)
    np.testing.assert_array_equal(named["blocks.0.ln1.gamma"].data, 1.0)


def test_init_is_seed_deterministic():
    a = ModelParams.init(tiny_cfg(), seed=7).tensors
    b = ModelParams.init(tiny_cfg(), seed=7).tensors
    c = ModelParams.init(tiny_cfg(), seed=8).tensors
    for name, ta in a.items():
        np.testing.assert_array_equal(ta.data, b[name].data)
    assert any(not np.array_equal(ta.data, c[name].data)
               for name, ta in a.items())


def test_patchify_is_row_major_over_the_token_grid():
    cfg = tiny_cfg()
    img = np.arange(3 * 8 * 8, dtype=np.float64).reshape(1, 3, 8, 8)
    patches = patchify(img, 4)
    assert patches.shape == (1, 4, 48)
    # token 1 is the top-right patch; its first channel block is rows 0..3,
    # cols 4..7 of channel 0
    manual = img[0, :, 0:4, 4:8].reshape(-1)
    np.testing.assert_array_equal(patches[0, 1], manual)


def test_forward_global_shapes_and_mask_channel_requirement():
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=1)
    abl = ablate_batch(np.random.default_rng(0).random((2, 3, 8, 8)),
                       np.array([0, 3]), 4)
    acts = forward_global(abl, params, tokens=True)
    assert acts.logits.data.shape == (2, 3)
    assert acts.tokens_out.data.shape == (2, cfg.seq_len, cfg.embed_dim)


def test_window_token_ids_match_band_columns():
    cfg = tiny_cfg()
    rows, n_cols = cfg.grid
    for position in range(cfg.image_side):
        for width in range(1, cfg.image_side + 1):
            ids = window_token_ids(cfg, BandSpec(position, width))
            cols = {(position + j) % cfg.image_side // cfg.patch_size for j in range(width)}
            want = sorted(r * n_cols + c for r in range(rows) for c in cols)
            assert ids.tolist() == want
    with pytest.raises(ContractError):
        window_token_ids(cfg, BandSpec(cfg.image_side, 4))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(16, 4, 4), (16, 4, 2), (32, 4, 4), (32, 4, 8), (64, 8, 8)]))
def test_plan_windows_partitions_and_respects_bound(geometry):
    side, patch, band = geometry
    cfg = ModelConfig(image_side=side, patch_size=patch, embed_dim=16,
                      num_layers=1, num_heads=2, mlp_ratio=1.0, num_classes=2,
                      codebook_size=4)
    plan = plan_windows(cfg, band)
    everything = [p for g in plan.groups for p in g]
    assert sorted(everything) == list(range(side))
    for group in plan.groups:
        used: set[int] = set()
        for p in group:
            ids = set(plan.window_ids[p].tolist())
            assert not (ids & used), "windows inside a group must not share tokens"
            used |= ids
    assert plan.num_forwards <= band + patch


def test_plan_toy_geometry_forward_count():
    cfg = ModelConfig(image_side=16, patch_size=4, embed_dim=16, num_layers=1,
                      num_heads=2, mlp_ratio=1.0, num_classes=2, codebook_size=4)
    assert plan_windows(cfg, 4).num_forwards <= 8


def _every_plan():
    """(w, p, b, wrap, plan) over every side, patch, band width and wrap the
    plan tests sweep."""
    for w in (8, 12, 16, 24, 32, 40, 48, 64):
        for p in (d for d in range(1, w + 1) if w % d == 0):
            for wrap in (True, False):
                cfg = ModelConfig(image_side=w, patch_size=p, embed_dim=4, num_layers=1,
                                  num_heads=1, mlp_ratio=1.0, num_classes=2,
                                  codebook_size=2, band_wrap=wrap)
                for b in range(1, w + 1):
                    yield w, p, b, wrap, plan_windows(cfg, b)


def test_forwards_lower_bound_holds_for_every_plan():
    # the largest column load bounds every packing from below, so it must
    # never exceed what the packer plans; unwrapped, the packer meets it
    for w, p, b, wrap, plan in _every_plan():
        if wrap:
            assert plan.forwards_lower_bound <= plan.num_forwards, (w, p, b)
        else:
            assert plan.forwards_lower_bound == plan.num_forwards, (w, p, b)


def test_plan_tables_reproduce_the_window_ids():
    # forward_windows gathers and ablates by the plan's tables alone, so at
    # every geometry row p must start with p's window ids, and 0 then those
    # ids + 1 for the position-table rows, and keep the band at p
    for w, p, b, wrap, plan in _every_plan():
        geometry = (w, p, b, wrap)
        sizes = np.array([ids.size for ids in plan.window_ids])
        assert plan.sizes.tolist() == sizes.tolist(), geometry
        assert (plan.image_width, plan.patch_size, plan.band_wrap) == (w, p, wrap), geometry
        assert plan.token_ids.dtype == plan.position_ids.dtype == np.int64, geometry
        assert plan.token_ids.shape == (w, sizes.max()), geometry
        assert plan.position_ids.shape == (w, sizes.max() + 1), geometry
        filled = np.arange(sizes.max()) < sizes[:, None]  # (w, widest), row-major
        ids = np.concatenate(plan.window_ids)
        assert (plan.token_ids[filled] == ids).all(), geometry
        assert (plan.position_ids[:, 0] == 0).all(), geometry
        assert (plan.position_ids[:, 1:][filled] == ids + 1).all(), geometry
        offset = np.arange(w)[None, :] - np.arange(w)[:, None]  # column - position
        if wrap:
            offset %= w
        assert plan.keep.dtype == bool, geometry
        assert (plan.keep == ((offset >= 0) & (offset < b))).all(), geometry


def test_batched_forward_is_bit_identical_to_lone_forwards():
    cfg = tiny_cfg()
    plan = plan_windows(cfg, 4)
    imgs = np.random.default_rng(2).random((3, 3, 8, 8))
    for dtype in (np.float32, np.float64):
        params = ModelParams.init(cfg, seed=3).cast(dtype)
        table, forwards = batched_certify_forward(imgs, params, plan)
        assert forwards == plan.num_forwards
        for p in range(cfg.image_side):
            abl = ablate_batch(imgs, np.full(3, p), 4)
            lone = forward_band_unit(abl, params, BandSpec(p, 4)).logits.data
            np.testing.assert_array_equal(table[:, p, :], lone)


def test_a_sweep_of_no_rows_returns_no_logits():
    # on a plan that has not swept yet too
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    imgs = np.random.default_rng(2).random((2, 3, 8, 8))
    fresh = plan_windows(cfg, 4)
    assert batched_certify_forward(imgs[:0], params, fresh)[0].shape == (0, 8, 3)
    assert list(forward_windows(imgs, np.zeros((2, 0), dtype=int), params, fresh)) == []


def test_windowed_forward_equals_band_unit():
    # fine-tuning and certification share forward_windows; each row must get
    # exactly the logits of a lone forward_band_unit call on its own band
    cfg = tiny_cfg()
    plan = plan_windows(cfg, 3)
    imgs = np.random.default_rng(7).random((6, 3, 8, 8))
    positions = np.array([5, 0, 7, 2, 0, 6])
    for dtype in (np.float32, np.float64):
        params = ModelParams.init(cfg, seed=5).cast(dtype)
        seen = []
        widths = []
        for rows, logits in forward_windows(imgs, positions[:, None], params, plan):
            assert rows.tolist() == sorted(rows.tolist())
            widths.append(plan.window_ids[positions[rows[0]]].size)
            for r, row_logits in zip(rows, logits.data):
                p = int(positions[r])
                abl = ablate_batch(imgs[r:r + 1], np.array([p]), 3).astype(dtype)
                unit = forward_band_unit(abl, params, BandSpec(p, 3)).logits.data
                np.testing.assert_array_equal(row_logits, unit[0])
            seen.extend(rows.tolist())
        assert sorted(seen) == list(range(len(positions)))
        assert widths == sorted(set(widths)) and len(widths) > 1


@pytest.mark.parametrize("wrap", [True, False])
def test_window_patches_equal_ablate_patchify_gather(wrap, monkeypatch):
    # forward_windows ablates after the gather; the patch vectors it encodes
    # must equal ablate_batch -> patchify -> gather bit for bit, in every
    # block of every width, whichever worker runs it
    cfg = tiny_cfg(image_side=16, band_wrap=wrap)
    imgs = np.random.default_rng(11).random((3, 3, 16, 16))
    positions = np.array([[0, 5, 15, 9], [3, 3, 14, 1], [7, 12, 2, 10]])
    encoded = {}  # flat row -> (patch vectors, position ids) it was encoded with
    block = threading.local()  # the rows of the block this thread is building
    real_gather, real_encode = model._window_vectors, model._encode

    def gather_spy(sweep, rows, *args):
        block.rows = rows.copy()
        return real_gather(sweep, rows, *args)

    def encode_spy(params, patches, pos_ids=None, *args, **kwargs):
        assert len(block.rows) == len(patches) == len(pos_ids)
        for r, got, got_ids in zip(block.rows, patches, pos_ids):
            encoded[int(r)] = (got.copy(), got_ids.copy())
        return real_encode(params, patches, pos_ids, *args, **kwargs)

    monkeypatch.setattr(model, "_window_vectors", gather_spy)
    monkeypatch.setattr(model, "_encode", encode_spy)
    for dtype in (np.float32, np.float64):
        params = ModelParams.init(cfg, seed=2).cast(dtype)
        for b in (1, 3, 4, 6, 16):
            plan = plan_windows(cfg, b)
            encoded.clear()
            seen = []
            for rows, _ in forward_windows(imgs.astype(dtype), positions, params, plan):
                for r in rows:
                    got, got_ids = encoded[int(r)]
                    i, p = r // positions.shape[1], int(positions.flat[r])
                    abl = ablate_batch(imgs[i:i + 1].astype(dtype), np.array([p]), b,
                                       wrap=wrap)
                    ids = plan.window_ids[p]
                    want = patchify(abl, cfg.patch_size)[0, ids]
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
                    np.testing.assert_array_equal(got_ids, np.concatenate([[0], ids + 1]))
                seen.extend(rows.tolist())
            assert sorted(seen) == sorted(encoded) == list(range(positions.size))


def test_forward_windows_rejects_bad_inputs():
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3)
    plan = plan_windows(cfg, 2)
    imgs = np.random.default_rng(2).random((2, 3, 8, 8))
    cases = [
        (imgs[:, :2], np.zeros((2, 1), dtype=int)),          # not RGB
        (np.ones((2, 4, 8, 8)), np.zeros((2, 1), dtype=int)),  # already ablated
        (imgs[0], np.zeros((3, 1), dtype=int)),                # no batch axis
        (imgs, np.array([[0], [8]])),                          # position >= w
        (imgs, np.array([[0, -1], [1, 2]])),                   # position < 0
        (imgs, np.array([0, 1])),                              # not (n, k)
        (imgs, np.zeros((3, 1), dtype=int)),                   # rows != images
    ]
    for bad_imgs, bad_pos in cases:
        with pytest.raises(ContractError):
            list(forward_windows(bad_imgs, bad_pos, params, plan))


@pytest.mark.parametrize("params_kw, plan_kw", [
    ({"patch_size": 2}, {"patch_size": 4}),
    ({"patch_size": 4}, {"patch_size": 2}),
    ({"band_wrap": False}, {"band_wrap": True}),
], ids=["patch2_params_patch4_plan", "patch4_params_patch2_plan", "unwrapped_params"])
def test_a_sweep_refuses_a_plan_made_for_another_geometry(params_kw, plan_kw):
    # the plan's tables index the token grid, and its keep flags the bands,
    # of the geometry it was made for; every path to the sweep refuses one
    # made for another, rather than gather the wrong tokens or fail inside
    params = ModelParams.init(tiny_cfg(image_side=16, **params_kw), seed=0)
    plan = plan_windows(tiny_cfg(image_side=16, **plan_kw), 3)
    imgs = np.random.default_rng(4).random((2, 3, 16, 16))
    for sweep in (
            lambda: forward_windows(imgs, np.array([[0], [9]]), params, plan),
            lambda: batched_certify_forward(imgs, params, plan),
            lambda: empirical_patch_attack(imgs[0], params, plan, CertifyConfig(band_width=3),
                                           patch_shape=(2, 2), locations=[(0, 0)], trials=1,
                                           seed=0)):
        with pytest.raises(ContractError, match="^window sweep: the plan is for"):
            sweep()


def _sweeps(imgs, positions, params, plan):
    """One batched sweep of every band position and one forward_windows
    sweep of ``positions``, as plain arrays."""
    table, _ = batched_certify_forward(imgs, params, plan)
    return [table] + [a for rows, logits in forward_windows(imgs, positions, params, plan)
                      for a in (rows, logits.data)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_blocks_give_the_bits_of_one_block(dtype, monkeypatch):
    cfg = tiny_cfg(image_side=16)
    params = _scaled_params(cfg, dtype)
    plan = plan_windows(cfg, 3)
    rng = np.random.default_rng(4)
    imgs = rng.random((5, 3, 16, 16)).astype(dtype)
    positions = rng.integers(0, 16, size=(5, 3))
    whole = _sweeps(imgs, positions, params, plan)
    block_rows = []
    real_encode = model._encode

    def spy(params, patches, *args, **kwargs):
        block_rows.append(len(patches))
        return real_encode(params, patches, *args, **kwargs)

    monkeypatch.setattr(model, "_encode", spy)
    # two workers on any host, so each width still has rows for 3-row
    # blocks; the budget is shared by the workers, so it scales with them
    monkeypatch.setattr(model, "WORKERS", 2)
    widest = max(ids.size for ids in plan.window_ids)
    for budget, rows in ((1, 1),
                         (3 * model.WORKERS * model._row_bytes(cfg, widest, dtype), 3)):
        monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", budget)
        block_rows.clear()
        blocked = _sweeps(imgs, positions, params, plan)
        assert rows in block_rows and max(block_rows) < 5 * 16
        assert len(blocked) == len(whole)
        for got, want in zip(blocked, whole):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_repeated_sweep_reuses_the_plan_workspace(monkeypatch):
    # on one worker the calling thread runs every block, so the blocks that
    # grow its workspace do not depend on which thread takes which block
    monkeypatch.setattr(model, "WORKERS", 1)
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    plan = plan_windows(cfg, 3)
    rng = np.random.default_rng(1)
    batched_certify_forward(rng.random((4, 3, 8, 8)), params, plan)
    # the caller's workspace also holds the patchified images
    (ws,) = plan.spaces.values()
    assert plan.spaces.keys() == {threading.get_ident()}
    before = dict(ws.buffers)
    assert {"patches", "row_max"} <= before.keys()  # row_max: the softmax's
    batched_certify_forward(rng.random((4, 3, 8, 8)), params, plan)
    assert plan.spaces == {threading.get_ident(): ws}
    assert ws.buffers.keys() == before.keys()
    assert all(ws.buffers[slot] is buf for slot, buf in before.items())


def test_windows_are_gathered_and_encoded_in_the_params_dtype(monkeypatch):
    # float64 images are cast once, so every block reaches _encode in the
    # params' dtype and contiguous, the buffers the plan gives the gathered
    # and ablated windows stay within the worker's share of the block
    # budget, and the logits are those of float32 copies
    cfg = tiny_cfg(image_side=16)
    plan = plan_windows(cfg, 4)
    imgs = np.random.default_rng(7).random((3, 3, 16, 16))
    blocks = []
    real_encode = model._encode

    def encode_spy(params, patches, *args, **kwargs):
        blocks.append((patches.dtype, patches.flags.c_contiguous))
        return real_encode(params, patches, *args, **kwargs)

    monkeypatch.setattr(model, "_encode", encode_spy)
    share = 3 * model._row_bytes(cfg, 8, np.float64)  # a few rows a block
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", model.WORKERS * share)
    for dtype in (np.float32, np.float64):
        params = ModelParams.init(cfg, seed=3).cast(dtype)
        blocks.clear()
        batched_certify_forward(imgs, params, plan)
        assert len(blocks) > len(np.unique(plan.sizes))
        assert set(blocks) == {(np.dtype(dtype), True)}
        for ws in plan.spaces.values():
            for slot in ("gather", "windows"):
                assert ws.buffers[model._SHARED_BUFFERS.get(slot, slot)].nbytes <= share
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    wide, _ = batched_certify_forward(imgs, params, plan)
    narrow, _ = batched_certify_forward(imgs.astype(np.float32), params, plan)
    assert wide.tobytes() == narrow.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["toy16", "default32"])
def test_row_bytes_bounds_what_a_block_holds(name, dtype, monkeypatch):
    # one block of n rows on one worker: its workspace, the patchified
    # images aside, holds at most n * _row_bytes and at least 90% of that
    cfg = {"toy16": tiny_cfg(image_side=16, embed_dim=32, num_layers=3, num_heads=4,
                             codebook_size=32),
           "default32": build_model_config(load_config(overrides=["data.image_side=32"])),
           }[name]
    params = ModelParams.init(cfg, seed=0).cast(dtype)
    monkeypatch.setattr(model, "WORKERS", 1)
    n = 5
    imgs = np.random.default_rng(3).random((n, 3, cfg.image_side, cfg.image_side))
    for k in np.unique(plan_windows(cfg, 4).sizes).tolist():
        plan = plan_windows(cfg, 4)
        position = int(np.flatnonzero(plan.sizes == k)[0])
        (rows, _), = forward_windows(imgs, np.full((n, 1), position), params, plan)
        assert len(rows) == n
        (ws,) = plan.spaces.values()
        held = sum(buf.nbytes for slot, buf in ws.buffers.items() if slot != "patches")
        bound = n * model._row_bytes(cfg, k, dtype)
        assert 0.9 * bound <= held <= bound, (k, held, bound)


class _PoisonedWorkspace(model._Workspace):
    """Fills a buffer with NaN whenever it is taken under another slot than
    the last one, so an array whose buffer the plan hands on while it is
    still live turns to NaN; repeated takes of one slot keep their memory."""

    def __init__(self):
        super().__init__()
        self.last: dict[str, str] = {}

    def take(self, slot, shape, dtype):
        out = super().take(slot, shape, dtype)
        name = model._SHARED_BUFFERS.get(slot, slot)
        if self.last.get(name) != slot:
            self.buffers[name].fill(0xFF)  # all bits set: NaN in float32 and float64
            self.last[name] = slot
        return out


def test_the_workspace_plan_never_hands_one_buffer_to_two_live_arrays(monkeypatch):
    monkeypatch.setattr(model, "_Workspace", _PoisonedWorkspace)
    test_plain_encoder_is_bit_identical_to_the_tape()
    # the check has teeth: an entry that gives the MLP's second linear the
    # buffer of its input poisons that input
    monkeypatch.setitem(model._SHARED_BUFFERS, "w2", "w1")
    with pytest.raises(NumericError, match="encoder block 0"):
        forward_global(np.ones((1, 4, 8, 8)), ModelParams.init(tiny_cfg(), seed=0))


# 1 MiB holds every row of the tiny model's widths in one block per worker
@pytest.mark.parametrize("budget", [1 << 20, 1])
def test_results_do_not_alias_the_workspace(budget, monkeypatch):
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    plan = plan_windows(cfg, 3)
    rng = np.random.default_rng(2)
    positions = rng.integers(0, 8, size=(4, 2))
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", budget)  # one block or many
    first = _sweeps(rng.random((4, 3, 8, 8)), positions, params, plan)
    held = [a.copy() for a in first]
    _sweeps(rng.random((4, 3, 8, 8)), positions, params, plan)
    for got, want in zip(first, held):
        np.testing.assert_array_equal(got, want)


def test_a_plain_sweep_before_backward_leaves_the_gradients_alone():
    # the tape holds each width's inputs until backward; a plain sweep on
    # the same plan in between must not touch them
    cfg = tiny_cfg()
    plan = plan_windows(cfg, 3)
    rng = np.random.default_rng(6)
    imgs = rng.random((4, 3, 8, 8))
    positions = rng.integers(0, 8, size=(4, 2))
    labels = rng.integers(0, 3, size=8)

    def gradients(sweep_between: bool):
        params = _scaled_params(cfg, np.float64, trainable=True)
        tape = Tape()
        with record(tape):
            terms = [ad.cross_entropy(logits, labels[rows])
                     for rows, logits in forward_windows(imgs, positions, params, plan)]
            loss = ad.add(*terms)
        assert len(terms) == 2
        if sweep_between:
            batched_certify_forward(rng.random((4, 3, 8, 8)), params, plan)
        grads = ad.backward(tape, loss)
        return {name: grads[t].data for name, t in params.tensors.items() if t in grads}

    alone, swept = gradients(False), gradients(True)
    assert alone.keys() == swept.keys() and "patch_embed.weight" in alone
    for name, g in alone.items():
        assert g.tobytes() == swept[name].tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_worker_count_gives_the_bits_of_one_worker(dtype, monkeypatch):
    cfg = tiny_cfg(image_side=16)
    params = _scaled_params(cfg, dtype)
    plan = plan_windows(cfg, 3)
    rng = np.random.default_rng(8)
    imgs = rng.random((7, 3, 16, 16)).astype(dtype)
    # every band position of each image, in its own order: like the table,
    # 56 rows of each of the two window widths
    positions = rng.permuted(np.tile(np.arange(16), (7, 1)), axis=1)
    blocks = []  # thread of every encoded block
    block_threads = set()  # every thread that encoded a block of this plan
    real_encode = model._encode
    # Blocks are cut by the budget share alone, and the two widths' rows
    # differ 1.9x in bytes, so no one budget cuts both into three blocks.
    # At one byte a row the budget counts rows, and cuts both alike.
    monkeypatch.setattr(model, "_row_bytes", lambda cfg, k, dtype: 1)

    def spy(*args, **kwargs):
        blocks.append(threading.get_ident())
        block_threads.add(threading.get_ident())
        return real_encode(*args, **kwargs)

    def split(sweep):
        # each of the sweep's two widths is split into one block per worker,
        # whichever threads take them
        blocks.clear()
        out = sweep()
        assert len(blocks) == 2 * model.WORKERS
        return out

    monkeypatch.setattr(model, "_encode", spy)
    sweeps = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(model, "WORKERS", workers)
            monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", workers * -(-56 // workers))
            table = split(lambda: batched_certify_forward(imgs, params, plan)[0])
            windowed = split(lambda: list(forward_windows(imgs, positions, params, plan)))
            sweeps[workers] = [table] + [a for rows, logits in windowed
                                         for a in (rows, logits.data)]
    finally:
        sys.setswitchinterval(interval)
    for workers in (2, 3):
        assert len(sweeps[workers]) == len(sweeps[1])
        for got, want in zip(sweeps[workers], sweeps[1]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # each thread that ran a block has its own workspace, and no other does
    assert plan.spaces.keys() == block_threads
    assert all("row_max" in ws.buffers for ws in plan.spaces.values())


def test_the_calling_thread_takes_the_blocks_a_held_worker_leaves(monkeypatch):
    # every worker takes the next block off one shared queue, so while the
    # pool thread is held in its first block, the calling thread runs the
    # rest; the bits are those of one worker
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", 1)  # one row per block
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    imgs = np.random.default_rng(9).random((3, 3, 8, 8))
    monkeypatch.setattr(model, "WORKERS", 1)
    lone, _ = batched_certify_forward(imgs, params, plan_windows(cfg, 3))
    caller = threading.get_ident()
    blocks = []  # thread of every encoded block
    rest_done = threading.Event()  # the caller has run every block but one
    real_encode = model._encode

    def held(*args, **kwargs):
        blocks.append(threading.get_ident())
        if threading.get_ident() != caller:
            rest_done.wait(0.5)
        elif blocks.count(caller) == 3 * 8 - 1:
            rest_done.set()
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(model, "_encode", held)
    monkeypatch.setattr(model, "WORKERS", 2)
    table, _ = batched_certify_forward(imgs, params, plan_windows(cfg, 3))
    assert len(blocks) == 3 * 8
    assert blocks.count(caller) >= len(blocks) - 1
    assert table.tobytes() == lone.tobytes()


def test_an_interrupt_in_the_calling_thread_ends_the_sweep(monkeypatch):
    monkeypatch.setattr(model, "WORKERS", 2)
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", 1)  # one row per block
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    plan = plan_windows(cfg, 3)
    rng = np.random.default_rng(10)
    imgs = rng.random((3, 3, 8, 8))
    positions = rng.integers(0, 8, size=(3, 4))
    clean = _sweeps(imgs, positions, params, plan_windows(cfg, 3))
    caller = threading.get_ident()
    started = []  # thread of every _encode call
    third = threading.Event()  # the caller has reached its third block
    real_encode = model._encode

    def interrupted(*args, **kwargs):
        started.append(threading.get_ident())
        if threading.get_ident() != caller:
            third.wait(0.5)  # hold the pool thread, so the caller gets three blocks
        elif started.count(caller) == 3:
            third.set()
            raise KeyboardInterrupt
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(model, "_encode", interrupted)
    with pytest.raises(KeyboardInterrupt):
        forward_windows(imgs, positions, params, plan)
    calls = len(started)
    time.sleep(0.1)
    assert len(started) == calls  # every worker returned and took no new block
    monkeypatch.setattr(model, "_encode", real_encode)
    after = _sweeps(imgs, positions, params, plan)
    assert [a.tobytes() for a in after] == [a.tobytes() for a in clean]


def test_an_error_that_ends_a_pool_worker_is_raised(monkeypatch):
    # a worker records only an Exception; anything else ends its loop with
    # its block unencoded, and the sweep raises it rather than return the
    # block's unset logits
    monkeypatch.setattr(model, "WORKERS", 2)
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", 1)  # one row per block
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    imgs = np.random.default_rng(11).random((3, 3, 8, 8))
    caller = threading.get_ident()
    pool_took = threading.Event()
    real_encode = model._encode

    def spy(*args, **kwargs):
        if threading.get_ident() != caller:
            pool_took.set()
            raise SystemExit(3)
        pool_took.wait(5)  # so the pool thread takes a block
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(model, "_encode", spy)
    with pytest.raises(SystemExit):
        batched_certify_forward(imgs, params, plan_windows(cfg, 3))


def test_threads_share_one_plan(monkeypatch):
    # any number of threads may sweep one plan at once: each keeps its own
    # workspace in the plan, so every sweep gets the bits of a lone sweep
    monkeypatch.setattr(model, "WORKERS", 2)
    cfg = tiny_cfg(image_side=16)
    params = _scaled_params(cfg, np.float32)
    widest = max(ids.size for ids in plan_windows(cfg, 3).window_ids)
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES",  # two rows a block
                        2 * model.WORKERS * model._row_bytes(cfg, widest, np.float32))
    rng = np.random.default_rng(12)
    callers, rounds = 4, 5
    imgs = [rng.random((5, 3, 16, 16)) for _ in range(callers)]
    positions = [rng.integers(0, 16, size=(5, 3)) for _ in range(callers)]
    lone = [_sweeps(i, p, params, plan_windows(cfg, 3)) for i, p in zip(imgs, positions)]
    plan = plan_windows(cfg, 3)
    results = [[] for _ in range(callers)]  # a caller that raised stops short
    idents = [None] * callers
    start = threading.Barrier(callers)

    def caller(c):
        idents[c] = threading.get_ident()
        start.wait()
        for _ in range(rounds):
            results[c].append(_sweeps(imgs[c], positions[c], params, plan))

    threads = [threading.Thread(target=caller, args=(c,)) for c in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a sweep did not finish"
    for c in range(callers):
        assert len(results[c]) == rounds, f"caller {c} raised"
        want = [(a.dtype, a.tobytes()) for a in lone[c]]
        for got in results[c]:
            assert [(a.dtype, a.tobytes()) for a in got] == want
    assert set(idents) <= plan.spaces.keys()


def test_dropping_a_plan_frees_its_workspaces():
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    plan = plan_windows(cfg, 3)
    batched_certify_forward(np.random.default_rng(4).random((4, 3, 8, 8)), params, plan)
    buffers = [weakref.ref(buf) for ws in plan.spaces.values()
               for buf in ws.buffers.values()]
    assert buffers
    del plan
    gc.collect()
    assert all(ref() is None for ref in buffers)


def test_blocks_are_queued_largest_first(monkeypatch):
    # one worker takes the blocks in queue order: rows x tokens never grows
    # along the queue, so the last block taken is a small one
    monkeypatch.setattr(model, "WORKERS", 1)
    cfg = tiny_cfg(image_side=16)
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    plan = plan_windows(cfg, 3)
    widest = max(ids.size for ids in plan.window_ids)
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", 5 * model._row_bytes(cfg, widest, np.float32))
    sizes = []  # rows x tokens of every encoded block, in the order taken
    real_encode = model._encode

    def spy(params, patches, *args, **kwargs):
        sizes.append(patches.shape[0] * patches.shape[1])
        return real_encode(params, patches, *args, **kwargs)

    monkeypatch.setattr(model, "_encode", spy)
    batched_certify_forward(np.random.default_rng(6).random((7, 3, 16, 16)), params, plan)
    assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) > 2


def test_a_sweep_that_fits_the_budget_share_runs_one_block_a_width(monkeypatch):
    # blocks are cut by the budget share alone: at the default budget gate
    # 6's sweep (toy model, 8 images, b = 4) is one block a width, and a
    # one-width sweep runs on the calling thread and never wakes the pool
    monkeypatch.setattr(model, "WORKERS", 2)
    cfg = tiny_cfg(image_side=16, embed_dim=32, num_layers=3, num_heads=4, codebook_size=32)
    params = ModelParams.init(cfg, seed=0).cast(np.float32)
    plan = plan_windows(cfg, 4)
    images = np.random.default_rng(0).random((8, 3, 16, 16), dtype=np.float32)
    blocks = []  # thread of every encoded block
    woken = []  # every time a sweep asked for the pool
    real_encode, real_pool = model._encode, model._worker_pool

    def spy(*args, **kwargs):
        blocks.append(threading.get_ident())
        return real_encode(*args, **kwargs)

    def pool():
        woken.append(threading.get_ident())
        return real_pool()

    monkeypatch.setattr(model, "_encode", spy)
    monkeypatch.setattr(model, "_worker_pool", pool)
    batched_certify_forward(images, params, plan)
    assert len(blocks) == 2 == len(np.unique(plan.sizes))
    blocks.clear()
    woken.clear()
    widths = forward_windows(images, np.tile([1, 6, 11], (8, 1)), params, plan)
    assert len(widths) == 1 and widths[0][0].size == 24
    assert blocks == [threading.get_ident()] and woken == []


# the budget in rows of the sweep's one width (8 tokens): one-row blocks at
# every worker count, or one block a worker
@pytest.mark.parametrize("rows", [1, 6])
def test_a_failing_block_raises_what_one_worker_raises(rows, monkeypatch):
    cfg = tiny_cfg(image_side=16)
    dtype = np.float32
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", rows * model._row_bytes(cfg, 8, dtype))
    params = _scaled_params(cfg, dtype)
    # finite position rows whose layer-norm mean overflows: every window that
    # holds token column 0 turns non-finite in block 0
    pos_embed = params["pos_embed"].data.copy()
    pos_embed[1::4] = 0.5 * np.finfo(dtype).max
    failing = ModelParams(cfg, {**params.tensors, "pos_embed": Tensor(pos_embed)})
    plan = plan_windows(cfg, 4)
    imgs = np.random.default_rng(3).random((6, 3, 16, 16)).astype(dtype)
    # one width, token columns {0, 1} on rows 0, 2, 4 and {1, 2} on 1, 3, 5
    positions = np.array([[1], [5], [2], [6], [3], [7]])
    if rows == 1:
        # One-row blocks are the same at every worker count. Rows 1-5 fail at
        # the embedding, in time before row 0, whose worker is held back; row
        # 0, the first failing block, still names the stage.
        imgs[1:, 0, 0, 5] = np.nan
        caller = threading.get_ident()
        real_encode = model._encode

        def held_back(params, *args, **kwargs):
            if params is failing and threading.get_ident() == caller:
                time.sleep(0.05)
            return real_encode(params, *args, **kwargs)

        monkeypatch.setattr(model, "_encode", held_back)
    # Larger blocks depend on the worker count, so there the failing rows,
    # 0, 2 and 4, are in blocks of different workers but fail at one stage.
    clean = None
    for workers in (1, 2, 3):
        monkeypatch.setattr(model, "WORKERS", workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="^encoder block 0: produced non-finite values$"):
                list(forward_windows(imgs, positions, failing, plan))
        # every worker has returned, and the plan is free for the next sweep
        after = _sweeps(np.nan_to_num(imgs), positions, params, plan)
        clean = clean or after
        assert [a.tobytes() for a in after] == [a.tobytes() for a in clean]


def test_a_forked_child_sweeps_with_its_own_pool(monkeypatch):
    monkeypatch.setattr(model, "WORKERS", 2)
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    plan = plan_windows(cfg, 3)
    imgs = np.random.default_rng(5).random((4, 3, 8, 8))
    table, _ = batched_certify_forward(imgs, params, plan)
    assert model._pool is not None  # the parent's pool threads exist
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send((model._pool is None,
                   batched_certify_forward(imgs, params, plan)[0].tobytes()))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        # without the fork hook the child waits forever on the parent's pool
        assert receive.poll(60), "the child's sweep did not finish"
        fresh_pool, child_bytes = receive.recv()
        proc.join(60)
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert proc.exitcode == 0
    assert fresh_pool and child_bytes == table.tobytes()


def test_worker_threads_call_no_public_function(monkeypatch):
    # A profiler that wraps every public function and method of the package
    # keeps one span stack, so only the calling thread may call them. Wrap
    # them as such a profiler does: each module's public functions, rebound
    # wherever a module holds them, and the public methods of its classes.
    calls = []  # (thread, name) of every public call

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls.append((threading.get_ident(), name))
            return fn(*args, **kwargs)
        return traced

    root = importlib.import_module("bandcert")
    for info in pkgutil.walk_packages(root.__path__, "bandcert."):
        importlib.import_module(info.name)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "bandcert" or n.startswith("bandcert.")]
    wrapped = {}
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                wrapped[id(value)] = wrap(f"{mod.__name__}.{attr}", value)
            elif inspect.isclass(value):
                for meth, fn in list(vars(value).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        monkeypatch.setattr(value, meth,
                                            wrap(f"{mod.__name__}.{attr}.{meth}", fn))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                monkeypatch.setattr(mod, attr, wrapped[id(value)])

    caller = threading.get_ident()
    blocks = []  # thread of every encoded block
    pool_ran = threading.Event()
    real_encode = model._encode

    def spy(*args, **kwargs):
        blocks.append(threading.get_ident())
        if threading.get_ident() == caller:
            pool_ran.wait(5)  # so a pool thread takes a block too
        else:
            pool_ran.set()
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(model, "_encode", spy)
    monkeypatch.setattr(model, "WORKERS", 2)
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", 1)  # one row per block
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    imgs = np.random.default_rng(7).random((3, 3, 8, 8))
    model.batched_certify_forward(imgs, params, plan_windows(cfg, 3))
    assert len(blocks) == 3 * 8 and set(blocks) - {caller}, "no pool thread ran a block"
    names = {name for _, name in calls}
    assert {"bandcert.model.forward_windows", "bandcert.model.patchify"} <= names
    assert all(thread == caller for thread, _ in calls), \
        sorted({name for thread, name in calls if thread != caller})


def _scaled_params(cfg, dtype, seed=9, trainable=False):
    # weights ten times the init scale, so logits are O(1) and a rounding
    # difference would show
    params = ModelParams.init(cfg, seed=seed)
    return ModelParams(cfg, {n: Tensor(t.data * 10.0) for n, t in params.tensors.items()}
                       ).cast(dtype, trainable=trainable)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
def test_class_row_logits_match_full_token_logits(dtype, tol):
    cfg = tiny_cfg(image_side=16, num_layers=3)
    params = _scaled_params(cfg, dtype)
    imgs = np.random.default_rng(12).random((4, 3, 16, 16))
    for p in (0, 6, 13):
        band = BandSpec(p, 5)
        abl = ablate_batch(imgs, np.full(4, p), 5).astype(dtype)
        allowed = np.zeros(cfg.seq_len, dtype=bool)
        allowed[0] = True
        allowed[window_token_ids(cfg, band) + 1] = True
        runs = {
            "global": lambda **kw: forward_global(abl, params, **kw),
            "masked": lambda **kw: forward_global(abl, params, allowed_tokens=allowed, **kw),
            "band_unit": lambda **kw: forward_band_unit(abl, params, band, **kw),
        }
        for name, run in runs.items():
            full, cut = run(tokens=True), run()
            assert cut.tokens_out is None and full.tokens_out is not None
            assert np.abs(full.logits.data).max() > 0.1, name
            diff = np.abs(full.logits.data - cut.logits.data).max()
            assert diff <= tol, (name, p, diff)


def test_band_restriction_matches_masked_global_f64():
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=4)  # float64 by default
    imgs = np.random.default_rng(5).random((2, 3, 8, 8))
    for p in range(8):
        band = BandSpec(p, 3)
        abl = ablate_batch(imgs, np.full(2, p), 3)
        ids = window_token_ids(cfg, band)
        allowed = np.zeros(cfg.seq_len, dtype=bool)
        allowed[0] = True
        allowed[ids + 1] = True
        g = forward_global(abl, params, allowed_tokens=allowed).logits.data
        u = forward_band_unit(abl, params, band).logits.data
        assert np.abs(g - u).max() < 1e-10


def _on_tape(fn):
    """Run ``fn`` while a tape records, so the encoder takes the tape path.
    Returns (fn's result, the tape)."""
    tape = Tape()
    with record(tape):
        return fn(), tape


def _same_bytes(a: Tensor, b: Tensor) -> bool:
    return a.data.dtype == b.data.dtype and a.shape == b.shape and \
        a.data.tobytes() == b.data.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), wrap=st.booleans(), width=st.integers(1, 8),
       position=st.integers(0, 7), dtype=st.sampled_from([np.float32, np.float64]))
def test_plain_encoder_is_bit_identical_to_the_tape(seed, wrap, width, position, dtype):
    # Without a tape the encoder runs on plain arrays; its logits and tokens
    # must be the tape's byte for byte, on every entry point
    cfg = tiny_cfg(band_wrap=wrap)
    params = _scaled_params(cfg, dtype, seed=seed % 7, trainable=True)
    rng = np.random.default_rng(seed)
    imgs = rng.random((3, 3, 8, 8)).astype(dtype)
    band = BandSpec(position, width)
    abl = ablate_batch(imgs, np.full(3, position), width, wrap=wrap).astype(dtype)
    allowed = rng.random(cfg.seq_len) < 0.5
    allowed[0] = True
    runs = {
        "global": lambda **kw: forward_global(abl, params, **kw),
        "masked": lambda **kw: forward_global(abl, params, allowed_tokens=allowed, **kw),
        "band_unit": lambda **kw: forward_band_unit(abl, params, band, **kw),
    }
    for name, run in runs.items():
        for tokens in (False, True):
            plain = run(tokens=tokens)
            taped, tape = _on_tape(lambda: run(tokens=tokens))
            assert tape.entries
            assert _same_bytes(plain.logits, taped.logits), (name, tokens)
            if tokens:
                assert _same_bytes(plain.tokens_out, taped.tokens_out), name

    plan = plan_windows(cfg, width)
    positions = rng.integers(0, 8, size=(3, 2))
    plain = list(forward_windows(imgs, positions, params, plan))
    taped, tape = _on_tape(lambda: list(forward_windows(imgs, positions, params, plan)))
    assert tape.entries and len(plain) == len(taped)
    for (rows, logits), (taped_rows, taped_logits) in zip(plain, taped):
        np.testing.assert_array_equal(rows, taped_rows)
        assert _same_bytes(logits, taped_logits)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_non_finite_values_name_the_encoder_stage_on_both_paths(dtype):
    cfg = tiny_cfg()  # two blocks
    params = ModelParams.init(cfg, seed=1).cast(dtype)
    imgs = np.random.default_rng(0).random((2, 3, 8, 8)).astype(dtype)
    abl = ablate_batch(imgs, np.array([0, 3]), 4).astype(dtype)
    nan_abl = abl.copy()
    nan_abl[0, 0, 0, 0] = np.nan
    nan_imgs = imgs.copy()
    nan_imgs[1, 2, 3, 0] = np.nan
    # finite weights whose products overflow in block 1's second layer norm
    overflowing = ModelParams(cfg, {**params.tensors, "blocks.1.ln2.gamma": Tensor(
        np.full(cfg.embed_dim, np.finfo(dtype).max, dtype=dtype))})
    plan = plan_windows(cfg, 4)
    cases = [
        ("encoder embedding", lambda: forward_global(nan_abl, params)),
        ("encoder embedding", lambda: batched_certify_forward(nan_imgs, params, plan)),
        ("encoder block 1", lambda: forward_global(abl, overflowing, tokens=True)),
        ("encoder block 1", lambda: forward_band_unit(abl, overflowing, BandSpec(0, 4))),
        ("encoder block 1", lambda: batched_certify_forward(imgs, overflowing, plan)),
    ]
    for stage, run in cases:
        # the tape names the op that overflowed; the plain path checks once
        # per stage
        for path, op in ((run, ""), (lambda: _on_tape(run), r"\w+: ")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the error is the only report
                with pytest.raises(NumericError,
                                   match=f"^{stage}: {op}produced non-finite values$"):
                    path()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_non_finite_row_in_the_last_block_names_its_stage(dtype, monkeypatch):
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", 1)  # one row per block
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=1).cast(dtype)
    plan = plan_windows(cfg, 4)
    imgs = np.random.default_rng(0).random((3, 3, 8, 8)).astype(dtype)
    positions = np.zeros((3, 1), dtype=int)  # one width: token column 0
    imgs[2, 1, 5, 2] = np.nan  # image 2's row is the last of three blocks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError,
                           match="^encoder embedding: produced non-finite values$"):
            list(forward_windows(imgs, positions, params, plan))
    # the plan sweeps again after a failed sweep
    assert len(list(forward_windows(imgs[:2], positions[:2], params, plan))) == 1


def test_checkpoint_roundtrip_is_exact(tmp_path):
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=6).cast(np.float32)
    path = tmp_path / "model.ecvt"
    save_checkpoint(params, str(path))
    assert path.read_bytes()[:8] == CHECKPOINT_MAGIC + struct.pack("<I", 2)
    back = load_checkpoint(str(path), cfg, dtype=np.float32)
    assert list(back.tensors) == list(params.tensors)
    for name, t in params.tensors.items():
        np.testing.assert_array_equal(t.data, back[name].data)
    save_checkpoint(back, str(tmp_path / "again.ecvt"))
    assert (tmp_path / "again.ecvt").read_bytes() == path.read_bytes()


def write_ecvt(path, version: int, tensors: dict) -> None:
    """The container layout written by hand, for any version and tensors."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", version))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(struct.pack("<I", len(name)) + name.encode())
            fh.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


def read_ecvt(blob: bytes) -> tuple[int, dict]:
    """(version, name -> float32 array) of a well-formed container."""
    (version,) = struct.unpack_from("<I", blob, 4)
    tensors, off = {}, 8
    while off < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, off)
        name = blob[off + 4:off + 4 + nlen].decode()
        off += 4 + nlen
        (rank,) = struct.unpack_from("<I", blob, off)
        dims = struct.unpack_from(f"<{rank}Q", blob, off + 4)
        off += 4 + 8 * rank
        size = 4 * int(np.prod(dims))
        tensors[name] = np.frombuffer(blob[off:off + size], dtype="<f4").reshape(dims)
        off += size
    return version, tensors


V1_ONLY = ("recon_vocab.weight", "recon_vocab.bias", "recon_proj.weight", "recon_proj.bias")


def v1_tensors(cfg: ModelConfig) -> dict:
    """A version 1 layout: the classifier, the head, then recon_proj.*."""
    params, head = ModelParams.init_with_recon_head(cfg, seed=6)
    d = cfg.embed_dim
    return {**{n: t.data for n, t in {**params.tensors, **head}.items()},
            "recon_proj.weight": np.full((d, d), 0.5), "recon_proj.bias": np.zeros(d)}


STORED = Path(__file__).resolve().parent.parent / "perfbench" / "checkpoints"
STORED_CONFIGS = {
    "toy16": dict(image_side=16, patch_size=4, embed_dim=32, num_layers=3, num_heads=4,
                  mlp_ratio=2.0, num_classes=3, codebook_size=32),
    "default32": dict(image_side=32),
}


@pytest.mark.parametrize("name", sorted(STORED_CONFIGS))
def test_stored_version_1_checkpoints_load_their_classifier_bytes(name, tmp_path):
    cfg = ModelConfig(**STORED_CONFIGS[name])
    blob = (STORED / f"{name}.ecvt").read_bytes()
    version, stored = read_ecvt(blob)
    assert version == 1 and list(stored)[-4:] == list(V1_ONLY)
    loaded = load_checkpoint(str(STORED / f"{name}.ecvt"), cfg, dtype=np.float32)
    assert list(loaded.tensors) == list(stored)[:-4]
    for tensor_name, t in loaded.tensors.items():
        assert t.data.tobytes() == stored[tensor_name].tobytes(), tensor_name
    # re-saved, it is the version 1 file with a new version word and
    # without its last four tensors
    save_checkpoint(loaded, str(tmp_path / "v2.ecvt"))
    cut = blob.index(b"recon_vocab.weight") - 4
    assert (tmp_path / "v2.ecvt").read_bytes() == \
        CHECKPOINT_MAGIC + struct.pack("<I", 2) + blob[8:cut]


def test_version_1_reconstruction_tensors_are_checked_then_dropped(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "v1.ecvt"
    good = v1_tensors(cfg)
    write_ecvt(path, 1, good)
    loaded = load_checkpoint(str(path), cfg, dtype=np.float32)
    assert list(loaded.tensors) == list(ModelParams.init(cfg, seed=0).tensors)

    nan = dict(good)
    nan["recon_proj.weight"] = good["recon_proj.weight"].copy()
    nan["recon_proj.weight"][1, 2] = np.nan
    write_ecvt(path, 1, nan)
    with pytest.raises(DataFormatError, match=r"'recon_proj\.weight' holds NaN"):
        load_checkpoint(str(path), cfg)

    write_ecvt(path, 1, {n: a for n, a in good.items() if n != "recon_vocab.bias"})
    with pytest.raises(DataFormatError, match=r"missing \['recon_vocab\.bias'\]"):
        load_checkpoint(str(path), cfg)

    write_ecvt(path, 1, {**good, "recon_vocab.weight": np.zeros((cfg.embed_dim, 3))})
    with pytest.raises(DataFormatError, match=r"'recon_vocab\.weight' stored as"):
        load_checkpoint(str(path), cfg)


def test_version_2_holds_the_classifier_alone(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "v2.ecvt"
    classifier = {n: t.data for n, t in ModelParams.init(cfg, seed=6).tensors.items()}
    for extra in ("recon_vocab.weight", "recon_proj.bias"):
        write_ecvt(path, 2, {**classifier, extra: v1_tensors(cfg)[extra]})
        with pytest.raises(DataFormatError, match=rf"extra \['{extra}'\]"):
            load_checkpoint(str(path), cfg)
    for version in (0, 3):
        write_ecvt(path, version, classifier)
        with pytest.raises(DataFormatError, match=f"checkpoint version {version}"):
            load_checkpoint(str(path), cfg)


def test_checkpoint_corruption_is_detected(tmp_path):
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=6)
    path = tmp_path / "model.ecvt"
    save_checkpoint(params, str(path))
    blob = path.read_bytes()
    name = b"patch_embed.weight"
    start = blob.index(name)
    rank_at = start + len(name)
    cases = {
        "bad magic": b"XXXX" + blob[4:],
        "truncated": blob[:len(blob) // 2],
        "version cut short": blob[:6],
        "undecodable name": blob[:start] + b"\xff" + blob[start + 1:],
        "rank cut short": blob[:rank_at + 2],
        "huge rank": blob[:rank_at] + (0x7FFFFFFF).to_bytes(4, "little") + blob[rank_at + 4:],
        # a second copy of the first tensor after the last one
        "duplicate name": blob + blob[8:blob.index(b"cls_token") - 4],
    }
    for what, bad in cases.items():
        (tmp_path / "bad.ecvt").write_bytes(bad)
        try:
            load_checkpoint(str(tmp_path / "bad.ecvt"), cfg)
        except DataFormatError:
            continue
        pytest.fail(f"{what}: loaded without a DataFormatError")


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """(bytes, config) of a small saved float32 checkpoint."""
    cfg = ModelConfig(image_side=4, patch_size=4, embed_dim=2, num_layers=1,
                      num_heads=1, mlp_ratio=1.0, num_classes=2, codebook_size=2)
    path = tmp_path_factory.mktemp("ecvt") / "valid.ecvt"
    save_checkpoint(ModelParams.init(cfg, seed=6).cast(np.float32), str(path))
    return path.read_bytes(), cfg


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_damage_loads_exactly_or_raises(valid_checkpoint, tmp_path_factory, data):
    # A cut or a one-byte flip either raises DataFormatError or loads the
    # file's own tensors: the original's names and shapes, holding exactly
    # the damaged file's float32 bytes. A flip inside tensor data cannot be
    # detected (the format has no checksum), so that is all "loads" can mean.
    blob, cfg = valid_checkpoint
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        mask = data.draw(st.integers(1, 255), label="xor")
        bad = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
    folder = tmp_path_factory.mktemp("damaged")
    (folder / "bad.ecvt").write_bytes(bad)
    try:
        loaded = load_checkpoint(str(folder / "bad.ecvt"), cfg)
    except DataFormatError:
        return
    assert [(n, t.shape) for n, t in loaded.tensors.items()] == \
        [(n, t.shape) for n, t in ModelParams.init(cfg, seed=0).tensors.items()]
    save_checkpoint(loaded, str(folder / "resaved.ecvt"))
    assert (folder / "resaved.ecvt").read_bytes() == bad


def test_checkpoint_config_mismatch_is_detected(tmp_path):
    params = ModelParams.init(tiny_cfg(), seed=6)
    path = tmp_path / "model.ecvt"
    save_checkpoint(params, str(path))
    other = tiny_cfg(embed_dim=32)
    with pytest.raises(DataFormatError):
        load_checkpoint(str(path), other)


def test_count_flops_band_unit_is_cheaper_and_quadratic_in_seq():
    cfg = ModelConfig(image_side=32, patch_size=4, embed_dim=64, num_layers=2,
                      num_heads=4, mlp_ratio=4.0, num_classes=10, codebook_size=16)
    full = count_flops(cfg, "global")
    band = count_flops(cfg, "band_unit", band_width=4)
    assert band.total < full.total
    rows, _ = cfg.grid
    seq_band = (4 // 4 + 1) * rows + 1
    assert band.attention / full.attention == pytest.approx(
        (seq_band / cfg.seq_len) ** 2)


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("side", [16, 32])
def test_count_flops_band_unit_is_the_widest_planned_window(side, wrap):
    cfg = ModelConfig(image_side=side, patch_size=4, embed_dim=16, num_layers=1,
                      num_heads=2, mlp_ratio=2.0, num_classes=3, codebook_size=8,
                      band_wrap=wrap)
    full = count_flops(cfg, "global")
    for b in range(1, side + 1):
        seq = max(ids.size for ids in plan_windows(cfg, b).window_ids) + 1
        band = count_flops(cfg, "band_unit", band_width=b)
        # attention grows with the square of the sequence, the rest linearly
        assert band.attention * cfg.seq_len ** 2 == full.attention * seq ** 2, b
        assert band.fully_connected * cfg.seq_len == full.fully_connected * seq, b
        assert band.total <= full.total, b


def test_count_flops_needs_band_width_in_band_mode():
    with pytest.raises(ContractError):
        count_flops(tiny_cfg(), "band_unit")
