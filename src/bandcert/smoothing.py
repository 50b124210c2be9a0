"""Column-band ablation and reconstruction-target masks.

A band keeps ``width`` consecutive pixel columns (cyclic by default) and
zeroes the rest; a separate 0/1 mask plane records which columns survived so
the model can tell "ablated" from "genuinely black". Reconstruction masks
flag which tokens of the token grid a training stage must reconstruct:
always the band's own token columns, grown symmetrically until the target
count is met.
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

    def retained_columns(self, image_width: int, wrap: bool = True) -> np.ndarray:
        """Pixel columns the band keeps, in band order."""
        if self.position >= image_width:
            raise ContractError(f"BandSpec: position {self.position} outside width {image_width}")
        cols = self.position + np.arange(self.width)
        if wrap:
            return cols % image_width
        return cols[cols < image_width]


def ablate_batch(images: np.ndarray, positions: np.ndarray, width: int,
                 wrap: bool = True) -> np.ndarray:
    """Vectorized per-sample ablation: (n,3,h,w) + (n,) positions ->
    (n,4,h,w) model inputs."""
    imgs = np.asarray(images)
    if imgs.ndim != 4 or imgs.shape[1] != 3:
        raise ContractError(f"ablate_batch: expected (n, 3, h, w), got {imgs.shape}")
    n, _, h, w = imgs.shape
    pos = np.asarray(positions, dtype=np.int64)
    offsets = pos[:, None] + np.arange(width)[None, :]
    keep = np.zeros((n, w), dtype=imgs.dtype)
    if wrap:
        cols = offsets % w
        keep[np.arange(n)[:, None], cols] = 1.0
    else:
        valid = offsets < w
        keep[np.repeat(np.arange(n), valid.sum(axis=1)), offsets[valid]] = 1.0
    pixels = imgs * keep[:, None, None, :]
    mask = np.broadcast_to(keep[:, None, None, :], (n, 1, h, w))
    return np.concatenate([pixels, mask], axis=1)


def band_token_columns(band: BandSpec, patch_size: int, image_width: int,
                       wrap: bool = True) -> list[int]:
    """Token-grid columns the band's pixels touch, in cyclic order from the
    band's first column."""
    cols = band.retained_columns(image_width, wrap=wrap)
    n_cols = image_width // patch_size
    toks = cols // patch_size
    seen: list[int] = []
    for t in toks:
        t = int(t)
        if t not in seen:
            seen.append(t)
    assert len(seen) <= n_cols
    return seen


@dataclass
class ReconstructionMask:
    """Per-token reconstruction flags for one (stage, band) pair."""

    flags: np.ndarray  # (rows * cols,) bool, row-major token order
    target_count: int
    band_columns: tuple[int, ...]

    def indices(self) -> np.ndarray:
        return np.nonzero(self.flags)[0]


def stage_masks(reconstruct_ratio: float, band: BandSpec, patch_size: int,
                image_side: int, wrap: bool = True) -> ReconstructionMask:
    """Build the stage's reconstruction flags for one band.

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
    band_cols = band_token_columns(band, patch_size, image_side, wrap=wrap)
    target = max(math.ceil(reconstruct_ratio * n), len(band_cols) * rows)
    target = min(target, n)

    grid = np.zeros((rows, cols), dtype=bool)
    for c in band_cols:
        grid[:, c] = True
    count = len(band_cols) * rows

    right = band_cols[-1]
    left = band_cols[0]
    go_right = True
    while count < target:
        if go_right:
            right = (right + 1) % cols
            col = right
        else:
            left = (left - 1) % cols
            col = left
        go_right = not go_right
        if grid[:, col].all():
            # wrapped all the way around; nothing new on this side
            if grid.all():
                break
            continue
        room = min(rows, target - count)
        fresh = np.nonzero(~grid[:, col])[0][:room]
        grid[fresh, col] = True
        count += len(fresh)

    flags = grid.reshape(-1)
    assert int(flags.sum()) == target
    return ReconstructionMask(flags=flags, target_count=target,
                              band_columns=tuple(band_cols))
