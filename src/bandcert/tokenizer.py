"""The patch tokenizer that gives the reconstruction targets.

A discrete codebook fit with k-means on clean pixel patches gives each
patch an integer token id (``fit_codebook`` / ``Codebook.tokenize``); the
curriculum stages predict those ids for the masked patches.

The codebook serializes to a small binary container: magic "ECCB", u32
version, u32 entry count, u32 entry dim, then float32 little-endian
centroid rows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import patchify

CODEBOOK_MAGIC = b"ECCB"
CODEBOOK_VERSION = 1
LLOYD_ITERS = 50  # a cap: the fit stops once an assignment repeats
SQ_DIST_ROWS = 256  # rows per block in _sq_dists


@dataclass
class Codebook:
    centroids: np.ndarray  # (K, dim) float64

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 2:
            raise ContractError(f"Codebook: centroids must be (K>=2, dim), got {c.shape}")
        if not np.isfinite(c).all():
            raise ContractError("Codebook: non-finite centroid")
        self.centroids = np.ascontiguousarray(c)

    @property
    def size(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def tokenize(self, patches: np.ndarray) -> np.ndarray:
        """Nearest-centroid ids for (..., dim) patch vectors; ties go to the
        lowest id (np.argmin's convention)."""
        pts = np.asarray(patches, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise ContractError(f"Codebook.tokenize: patch dim {pts.shape[-1]} "
                                f"!= codebook dim {self.dim}")
        flat = pts.reshape(-1, self.dim)
        d2 = _sq_dists(flat, self.centroids)
        return np.argmin(d2, axis=1).reshape(pts.shape[:-1]).astype(np.int64)


def _sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact squared distances (M, K), summed over the differences (the
    expanded x2 - 2xc + c2 form can go slightly negative from cancellation,
    which would break argmin ties). ``SQ_DIST_ROWS`` rows at a time go
    through one reused (rows, K, dim) difference block into the (M, K)
    output, so no (M, K, dim) array is built; each row's sums come out as
    the same bits as in one whole-array pass."""
    m, k = x.shape[0], c.shape[0]
    dtype = np.result_type(x, c)
    out = np.empty((m, k), dtype=dtype)
    block = np.empty((min(m, SQ_DIST_ROWS), k, x.shape[1]), dtype=dtype)
    for start in range(0, m, SQ_DIST_ROWS):
        stop = min(start + SQ_DIST_ROWS, m)
        diff = np.subtract(x[start:stop, None, :], c[None, :, :], out=block[:stop - start])
        np.einsum("mkd,mkd->mk", diff, diff, out=out[start:stop])
    return out


def fit_codebook(patches: np.ndarray, k: int, seed: int) -> Codebook:
    """Seeded k-means++ then at most ``LLOYD_ITERS`` Lloyd iterations.

    The iterations stop early once an assignment repeats the one before
    it: the cluster means would come out as the same bits, so every later
    iteration would change nothing. Empty clusters keep their previous
    centroid. Asking for more entries than there are distinct patches
    cannot produce k meaningful centroids and raises instead of silently
    duplicating; so does a non-finite patch value.
    """
    pts = np.asarray(patches, dtype=np.float64)
    if pts.ndim != 2:
        raise ContractError(f"fit_codebook: patches must be (M, dim), got {pts.shape}")
    if k < 2:
        raise ContractError(f"fit_codebook: k={k} is too small")
    if not np.isfinite(pts).all():
        raise ContractError("fit_codebook: non-finite patch value")
    distinct = np.unique(pts, axis=0)
    if k > distinct.shape[0]:
        raise ContractError(f"fit_codebook: k={k} exceeds {distinct.shape[0]} "
                            f"distinct patches")
    rng = np.random.default_rng([int(seed), 0xC0DE])

    centroids = np.empty((k, pts.shape[1]), dtype=np.float64)
    centroids[0] = pts[rng.integers(pts.shape[0])]
    best_d2 = _sq_dists(pts, centroids[:1])[:, 0]
    for i in range(1, k):
        total = best_d2.sum()
        if total <= 0.0:
            # all mass sits on chosen centroids; fall back to uniform choice
            centroids[i] = pts[rng.integers(pts.shape[0])]
        else:
            probs = best_d2 / total
            centroids[i] = pts[rng.choice(pts.shape[0], p=probs)]
        best_d2 = np.minimum(best_d2, _sq_dists(pts, centroids[i:i + 1])[:, 0])

    prev = None
    for _ in range(LLOYD_ITERS):
        assign = np.argmin(_sq_dists(pts, centroids), axis=1)
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        for ci in range(k):
            members = pts[assign == ci]
            if members.shape[0]:
                centroids[ci] = members.mean(axis=0)
    return Codebook(centroids)


def image_patches(images: np.ndarray, patch_size: int) -> np.ndarray:
    """Flatten clean (B, 3, H, W) images into (B*N, 3*P*P) patch vectors in
    the same row-major patch order the encoder uses."""
    return patchify(images, patch_size).reshape(-1, 3 * patch_size * patch_size)


def tokenize_images(codebook: Codebook, images: np.ndarray,
                    patch_size: int) -> np.ndarray:
    """(B, N) int64 token ids for clean images."""
    patches = patchify(images, patch_size)
    return codebook.tokenize(patches)


def save_codebook(codebook: Codebook, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(CODEBOOK_MAGIC)
        fh.write(struct.pack("<III", CODEBOOK_VERSION, codebook.size, codebook.dim))
        fh.write(np.ascontiguousarray(codebook.centroids, dtype="<f4").tobytes())
