import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert import model
from bandcert.autodiff import Tape, Tensor, record
from bandcert.errors import ContractError, DataFormatError, NumericError
from bandcert.model import (CHECKPOINT_MAGIC, ModelConfig, ModelParams,
                            batched_certify_forward, count_flops,
                            forward_band_unit, forward_global, forward_windows,
                            load_checkpoint, patchify, plan_windows,
                            save_checkpoint, window_token_ids)
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
    assert named["recon_vocab.weight"].shape == (cfg.embed_dim, cfg.codebook_size)
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


def test_batched_forward_position_subset():
    cfg = tiny_cfg()
    plan = plan_windows(cfg, 4)
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    imgs = np.random.default_rng(2).random((2, 3, 8, 8))
    full, _ = batched_certify_forward(imgs, params, plan)
    sub, forwards = batched_certify_forward(imgs, params, plan, positions=[1, 6])
    assert forwards <= plan.num_forwards
    np.testing.assert_array_equal(sub[:, 0], full[:, 1])
    np.testing.assert_array_equal(sub[:, 1], full[:, 6])


def test_batched_forward_rejects_bad_positions_and_repeats_slots():
    cfg = tiny_cfg()
    plan = plan_windows(cfg, 4)
    params = ModelParams.init(cfg, seed=3).cast(np.float32)
    imgs = np.random.default_rng(2).random((2, 3, 8, 8))
    full, _ = batched_certify_forward(imgs, params, plan)
    twice, forwards = batched_certify_forward(imgs, params, plan, positions=[1, 1])
    assert forwards == 1
    np.testing.assert_array_equal(twice[:, 0], full[:, 1])
    np.testing.assert_array_equal(twice[:, 1], full[:, 1])
    for bad in ([99, -1], [8], [0, -1]):
        with pytest.raises(ContractError):
            batched_certify_forward(imgs, params, plan, positions=bad)


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
    # must equal ablate_batch -> patchify -> gather bit for bit
    cfg = tiny_cfg(image_side=16, band_wrap=wrap)
    imgs = np.random.default_rng(11).random((3, 3, 16, 16))
    positions = np.array([[0, 5, 15, 9], [3, 3, 14, 1], [7, 12, 2, 10]])
    encoded = []
    real_encode = model._encode

    def spy(params, patches, pos_ids=None, *args, **kwargs):
        encoded.append((patches, pos_ids))
        return real_encode(params, patches, pos_ids, *args, **kwargs)

    monkeypatch.setattr(model, "_encode", spy)
    for dtype in (np.float32, np.float64):
        params = ModelParams.init(cfg, seed=2).cast(dtype)
        for b in (1, 3, 4, 6, 16):
            plan = plan_windows(cfg, b)
            encoded.clear()
            seen = []
            for rows, _ in forward_windows(imgs.astype(dtype), positions, params, plan):
                patches, pos_ids = encoded[-1]
                for r, got, got_ids in zip(rows, patches, pos_ids):
                    i, p = r // positions.shape[1], int(positions.flat[r])
                    abl = ablate_batch(imgs[i:i + 1].astype(dtype), np.array([p]), b,
                                       wrap=wrap)
                    ids = plan.window_ids[p]
                    want = patchify(abl, cfg.patch_size)[0, ids]
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
                    np.testing.assert_array_equal(got_ids, np.concatenate([[0], ids + 1]))
                seen.extend(rows.tolist())
            assert sorted(seen) == list(range(positions.size))


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


def test_checkpoint_roundtrip_is_exact(tmp_path):
    cfg = tiny_cfg()
    params = ModelParams.init(cfg, seed=6).cast(np.float32)
    path = tmp_path / "model.ecvt"
    save_checkpoint(params, str(path))
    assert path.read_bytes()[:4] == CHECKPOINT_MAGIC
    back = load_checkpoint(str(path), cfg)
    loaded = back.tensors
    for name, t in params.tensors.items():
        np.testing.assert_array_equal(t.data, loaded[name].data.astype(np.float32))


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
