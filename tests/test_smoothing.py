import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert.errors import ContractError
from bandcert.smoothing import (BandSpec, ablate_batch, band_token_columns,
                                stage_masks)


def test_band_spec_validation():
    with pytest.raises(ContractError):
        BandSpec(position=-1, width=4)
    with pytest.raises(ContractError):
        BandSpec(position=0, width=0)


def test_retained_columns_wraps():
    cols = BandSpec(position=14, width=4).retained_columns(16, wrap=True)
    np.testing.assert_array_equal(cols, [14, 15, 0, 1])
    cols = BandSpec(position=14, width=4).retained_columns(16, wrap=False)
    np.testing.assert_array_equal(cols, [14, 15])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(1, 8), st.booleans())
def test_ablation_keeps_exactly_the_band(position, width, wrap):
    rng = np.random.default_rng(position * 31 + width)
    imgs = rng.random((2, 3, 16, 16))
    out = ablate_batch(imgs, np.array([position, position]), width, wrap=wrap)
    assert out.shape == (2, 4, 16, 16)
    kept = set(BandSpec(position, width).retained_columns(16, wrap=wrap).tolist())
    for c in range(16):
        if c in kept:
            np.testing.assert_array_equal(out[:, :3, :, c], imgs[:, :, :, c])
            np.testing.assert_array_equal(out[:, 3, :, c], 1.0)
        else:
            np.testing.assert_array_equal(out[:, :3, :, c], 0.0)
            np.testing.assert_array_equal(out[:, 3, :, c], 0.0)


def test_ablate_batch_positions_vary_per_sample():
    imgs = np.ones((3, 3, 8, 8))
    out = ablate_batch(imgs, np.array([0, 2, 6]), 2, wrap=True)
    for i, p in enumerate([0, 2, 6]):
        np.testing.assert_array_equal(np.nonzero(out[i, 3, 0])[0],
                                      BandSpec(p, 2).retained_columns(8))


def test_band_token_columns_misaligned_band():
    # pixels 3..6 with patch 4 touch token columns 0 and 1
    assert band_token_columns(BandSpec(3, 4), 4, 16) == [0, 1]
    # aligned band stays in one column
    assert band_token_columns(BandSpec(4, 4), 4, 16) == [1]
    # wrapped band touches last and first columns
    assert band_token_columns(BandSpec(14, 4), 4, 16) == [3, 0]


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 15), st.integers(1, 6))
def test_stage_masks_count_and_cover(ratio, position, width):
    band = BandSpec(position, width)
    mask = stage_masks(ratio, band, 4, 16)
    flags = mask.flags.reshape(4, 4)
    assert int(mask.flags.sum()) == mask.target_count
    # every band token column is fully flagged
    for c in mask.band_columns:
        assert flags[:, c].all()
    import math
    assert mask.target_count >= min(16, math.ceil(ratio * 16))


def test_stage_masks_exact_quota_partial_column():
    # ratio forces a partial extra column: 0.6 * 16 -> ceil 10 tokens
    mask = stage_masks(0.6, BandSpec(4, 4), 4, 16)
    assert mask.target_count == 10
    grid = mask.flags.reshape(4, 4)
    assert grid[:, 1].all()  # band column itself
    assert grid.sum() == 10


def test_stage_masks_rejects_bad_ratio():
    with pytest.raises(ContractError):
        stage_masks(1.5, BandSpec(0, 4), 4, 16)
