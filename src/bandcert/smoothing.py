"""Column-band ablation, band geometry and reconstruction-target masks.

A band keeps ``width`` consecutive pixel columns (cyclic by default) and
zeroes the rest; a separate 0/1 mask plane records which columns survived so
the model can tell "ablated" from "genuinely black". ``band_token_span`` alone
says which token columns a band covers. A stage's reconstruction flags are one
table with a row per band position, built once per stage: each row flags the
band's own token columns, grown symmetrically until the target count is met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class BandSpec:
    """A retained column band: pixel columns position .. position+width-1."""

    position: int
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ContractError(f"BandSpec: width must be >= 1, got {self.width}")
        if self.position < 0:
            raise ContractError(f"BandSpec: position must be >= 0, got {self.position}")


def band_keep(image_width: int, positions, width: int, wrap: bool = True) -> np.ndarray:
    """Per-pixel-column keep flags of bands over ``image_width`` columns: a
    (positions.size, image_width) bool array whose row i keeps the
    width-``width`` band at the i-th entry of the flattened positions. A
    position outside [0, image_width) is an error."""
    w = image_width
    pos = np.asarray(positions, dtype=np.int64).reshape(-1)
    if pos.size and (pos.min() < 0 or pos.max() >= w):
        raise ContractError(f"band ablation: band positions must lie in [0, {w}), "
                            f"got {pos.min()}..{pos.max()}")
    offsets = pos[:, None] + np.arange(width)[None, :]
    keep = np.zeros((pos.size, w), dtype=bool)
    if wrap:
        keep[np.arange(pos.size)[:, None], offsets % w] = True
    else:
        valid = offsets < w
        keep[np.repeat(np.arange(pos.size), valid.sum(axis=1)), offsets[valid]] = True
    return keep


def ablate_batch(images: np.ndarray, positions: np.ndarray, width: int,
                 wrap: bool = True) -> np.ndarray:
    """Vectorized per-sample ablation: (n,3,h,w) + (n,) positions ->
    (n,4,h,w) model inputs in the images' dtype."""
    imgs = np.asarray(images)
    if imgs.ndim != 4 or imgs.shape[1] != 3:
        raise ContractError(f"band ablation: expected (n, 3, h, w), got {imgs.shape}")
    n, _, h, w = imgs.shape
    keep = band_keep(w, positions, width, wrap=wrap).astype(imgs.dtype)
    if keep.shape[0] != n:
        raise ContractError(f"ablate_batch: {keep.shape[0]} band positions for {n} images")
    pixels = imgs * keep[:, None, None, :]
    mask = np.broadcast_to(keep[:, None, None, :], (n, 1, h, w))
    return np.concatenate([pixels, mask], axis=1)


def band_token_span(positions, width: int, patch_size: int, image_width: int,
                    wrap: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(first, span) arrays for width-``width`` bands at ``positions``: the band
    at p covers token columns (first + k) mod (w // patch_size) for k < span,
    in band order; without wrap it stops at the last pixel column. A position
    outside [0, w) or a width below 1 is an error."""
    pos = np.asarray(positions, dtype=np.int64)
    if width < 1:
        raise ContractError(f"band width must be >= 1, got {width}")
    if pos.size and (pos.min() < 0 or pos.max() >= image_width):
        raise ContractError(f"band positions must lie in [0, {image_width}), "
                            f"got {pos.min()}..{pos.max()}")
    last_px = pos + width - 1 if wrap else np.minimum(pos + width, image_width) - 1
    first = pos // patch_size
    return first, np.minimum(last_px // patch_size - first + 1, image_width // patch_size)


def stage_masks(reconstruct_ratio: float, keep_width: int, patch_size: int,
                image_side: int, wrap: bool = True) -> np.ndarray:
    """The stage's reconstruction flags for every band position: a (w, N)
    bool table whose row p flags, in row-major token order, the tokens to
    reconstruct under the width-``keep_width`` band at pixel column p.

    The band's own token columns are always flagged. Remaining quota,
    ceil(ratio * N) tokens total, grows the flag set alternately right then
    left by whole token columns; the final column may be partial (lowest rows
    first) so the count is exact. If the ceiling target is smaller than the
    band itself the target is raised to the band's token count, keeping the
    cover invariant.
    """
    if not (0.0 <= reconstruct_ratio <= 1.0):
        raise ContractError(f"stage_masks: ratio {reconstruct_ratio} outside [0, 1]")
    if image_side % patch_size != 0:
        raise ContractError(f"stage_masks: patch {patch_size} does not divide side {image_side}")
    rows = cols = image_side // patch_size
    n = rows * cols
    first, span = band_token_span(np.arange(image_side), keep_width, patch_size,
                                  image_side, wrap=wrap)
    last = (first + span - 1) % cols
    extra = np.clip(math.ceil(reconstruct_ratio * n), span * rows, n) - span * rows

    # Growth order of the other columns: the i-th to the right comes at
    # step 2(i-1), the i-th to the left at step 2(i-1)+1. Column rank r
    # gets extra - r * rows rows, clipped to [0, rows]; band columns rank -1.
    c = np.arange(cols)[None, :]
    rank = np.minimum(2 * ((c - last[:, None]) % cols) - 2,
                      2 * ((first[:, None] - c) % cols) - 1)
    rank[(c - first[:, None]) % cols < span[:, None]] = -1
    filled = np.clip(extra[:, None] - rank * rows, 0, rows)  # (w, cols)
    flags = np.arange(rows)[None, :, None] < filled[:, None, :]
    return flags.reshape(image_side, n)
