import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert.errors import ContractError
from bandcert.smoothing import (BandSpec, ablate_batch, band_keep, band_token_span,
                                stage_masks)


def brute_band_columns(position, width, patch_size, side, wrap=True):
    """Token columns a band's pixels touch, in band order, pixel by pixel."""
    pixels = [(position + j) % side if wrap else position + j for j in range(width)]
    cols = []
    for px in pixels:
        if px < side and px // patch_size not in cols:
            cols.append(px // patch_size)
    return cols


def kept_columns(position, width, side, wrap=True):
    return np.flatnonzero(band_keep(side, [position], width, wrap=wrap)[0])


def test_band_spec_validation():
    with pytest.raises(ContractError):
        BandSpec(position=-1, width=4)
    with pytest.raises(ContractError):
        BandSpec(position=0, width=0)


def test_band_keep_wraps():
    np.testing.assert_array_equal(kept_columns(14, 4, 16, wrap=True), [0, 1, 14, 15])
    np.testing.assert_array_equal(kept_columns(14, 4, 16, wrap=False), [14, 15])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(1, 8), st.booleans())
def test_ablation_keeps_exactly_the_band(position, width, wrap):
    rng = np.random.default_rng(position * 31 + width)
    imgs = rng.random((2, 3, 16, 16))
    out = ablate_batch(imgs, np.array([position, position]), width, wrap=wrap)
    assert out.shape == (2, 4, 16, 16)
    kept = set(kept_columns(position, width, 16, wrap=wrap).tolist())
    assert kept == set(brute_band_columns(position, width, 1, 16, wrap))
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
        np.testing.assert_array_equal(np.nonzero(out[i, 3, 0])[0], kept_columns(p, 2, 8))


@pytest.mark.parametrize("positions", [[99], [-1], [0, 16], [3, -2]])
@pytest.mark.parametrize("wrap", [True, False])
def test_ablate_batch_rejects_positions_outside_image(positions, wrap):
    imgs = np.ones((len(positions), 3, 16, 16))
    with pytest.raises(ContractError):
        ablate_batch(imgs, np.array(positions), 4, wrap=wrap)


def test_ablate_batch_rejects_a_position_count_unlike_the_image_count():
    for positions in ([0], [0, 1, 2]):
        with pytest.raises(ContractError):
            ablate_batch(np.ones((2, 3, 8, 8)), np.array(positions), 2)


def test_band_token_span_misaligned_band():
    # pixels 3..6 with patch 4 touch token columns 0 and 1
    assert band_token_span(3, 4, 4, 16) == (0, 2)
    # aligned band stays in one column
    assert band_token_span(4, 4, 4, 16) == (1, 1)
    # wrapped band touches last and first columns; unwrapped, only the last
    assert band_token_span(14, 4, 4, 16) == (3, 2)
    assert band_token_span(14, 4, 4, 16, wrap=False) == (3, 1)


@pytest.mark.parametrize("side", [8, 16, 24])
@pytest.mark.parametrize("patch_size", [1, 2, 4, 8])
@pytest.mark.parametrize("wrap", [True, False])
def test_band_token_span_matches_brute_force(side, patch_size, wrap):
    n_cols = side // patch_size
    positions = np.arange(side)
    for width in range(1, 2 * side + 1):
        first, span = band_token_span(positions, width, patch_size, side, wrap=wrap)
        for p in positions:
            arc = [(first[p] + k) % n_cols for k in range(span[p])]
            assert arc == brute_band_columns(p, width, patch_size, side, wrap), \
                (side, patch_size, wrap, width, p)
    for bad in ([side], [-1], [0, side + 3]):
        with pytest.raises(ContractError):
            band_token_span(bad, 4, patch_size, side, wrap=wrap)
    with pytest.raises(ContractError):
        band_token_span(positions, 0, patch_size, side, wrap=wrap)


def reference_flags(ratio, band, patch_size, side, wrap=True):
    """One band's flags by the step-by-step rule: band columns, then whole
    columns alternately right and left, the last one partial from row 0."""
    rows = cols = side // patch_size
    band_cols = brute_band_columns(band.position, band.width, patch_size, side, wrap)
    target = min(max(math.ceil(ratio * rows * cols), len(band_cols) * rows), rows * cols)
    grid = np.zeros((rows, cols), dtype=bool)
    grid[:, band_cols] = True
    count = len(band_cols) * rows
    right, left, go_right = band_cols[-1], band_cols[0], True
    while count < target:
        if go_right:
            right = (right + 1) % cols
            col = right
        else:
            left = (left - 1) % cols
            col = left
        go_right = not go_right
        if grid[:, col].all():
            continue
        fresh = np.nonzero(~grid[:, col])[0][:min(rows, target - count)]
        grid[fresh, col] = True
        count += len(fresh)
    return grid.reshape(-1)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(1, 6), st.booleans())
def test_stage_masks_count_and_cover(ratio, width, wrap):
    table = stage_masks(ratio, width, 4, 16, wrap=wrap)
    assert table.shape == (16, 16) and table.dtype == bool
    for position in range(16):
        flags = table[position].reshape(4, 4)
        band_cols = brute_band_columns(position, width, 4, 16, wrap)
        # every band token column is fully flagged
        assert flags[:, band_cols].all()
        # the count is the target: the ratio's ceiling, raised to the band
        want = min(16, max(math.ceil(ratio * 16), 4 * len(band_cols)))
        assert int(flags.sum()) == want


def test_stage_masks_exact_quota_partial_column():
    # ratio forces a partial extra column: 0.6 * 16 -> ceil 10 tokens
    grid = stage_masks(0.6, 4, 4, 16)[4].reshape(4, 4)
    assert grid[:, 1].all()  # band column itself
    assert grid[:, 2].all()  # first column to the right
    assert grid[:, 0].tolist() == [True, True, False, False]  # partial, lowest rows
    assert grid.sum() == 10


def test_stage_masks_rejects_bad_ratio():
    with pytest.raises(ContractError):
        stage_masks(1.5, 4, 4, 16)


def test_stage_masks_rejects_bad_width_and_patch():
    with pytest.raises(ContractError):
        stage_masks(0.5, 0, 4, 16)
    with pytest.raises(ContractError):
        stage_masks(0.5, 4, 3, 16)


def test_stage_masks_table_matches_per_position_rule():
    for side, patch_sizes in {8: (2, 4), 16: (4,), 32: (4, 8), 64: (8,)}.items():
        for patch_size in patch_sizes:
            for width in range(1, side + 1):
                for ratio in (0.0, 0.3, 0.6, 1.0):
                    for wrap in (True, False):
                        table = stage_masks(ratio, width, patch_size, side, wrap=wrap)
                        for p in range(side):
                            ref = reference_flags(ratio, BandSpec(p, width),
                                                  patch_size, side, wrap)
                            assert np.array_equal(table[p], ref), \
                                (side, patch_size, width, ratio, wrap, p)
