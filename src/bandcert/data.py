"""Dataset loading: CIFAR-10 binary records, synthetic shapes, upsampling.

Images are float arrays of shape (3, side, side) with values in [0, 1],
channel-first, row-major. The synthetic generator is fully deterministic
under its seed and draws class-dependent full-width shapes, so every column
band carries class evidence (a requirement for band-smoothed training to
make sense at all).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataFormatError

CIFAR_SIDE = 32
CIFAR_CLASSES = 10
CIFAR_RECORD_BYTES = 1 + 3 * CIFAR_SIDE * CIFAR_SIDE  # 3073

CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]


@dataclass
class LabeledImage:
    image: np.ndarray  # (3, side, side) float64 in [0, 1]
    label: int

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.float64)
        if img.ndim != 3 or img.shape[0] != 3 or img.shape[1] != img.shape[2]:
            raise ContractError(f"LabeledImage: expected (3, s, s), got {img.shape}")
        if img.min() < 0.0 or img.max() > 1.0:
            raise ContractError("LabeledImage: pixel values must lie in [0, 1]")
        self.image = img
        self.label = int(self.label)

    @property
    def side(self) -> int:
        return self.image.shape[1]


@dataclass
class DatasetSpec:
    """What to load or generate. ``source`` is 'synthetic' or 'cifar10'.

    ``train_size``/``test_size`` cap a cifar10 split, where 0 means the whole
    split; for synthetic they are the number of images to generate, and 0
    is an error (an empty split). Neither may be negative.
    """

    source: str = "synthetic"
    path: str = ""
    num_classes: int = 3
    image_side: int = 16
    upsample_factor: int = 1
    train_size: int = 150
    test_size: int = 60
    seed: int = 0

    def __post_init__(self):
        if self.source not in ("synthetic", "cifar10"):
            raise ContractError(f"DatasetSpec: unknown source '{self.source}'")
        if self.image_side < 4:
            raise ContractError("DatasetSpec: image_side must be >= 4")
        if self.upsample_factor < 1:
            raise ContractError("DatasetSpec: upsample_factor must be >= 1")
        for name in ("train_size", "test_size"):
            if getattr(self, name) < 0:
                raise ContractError(f"DatasetSpec: {name} {getattr(self, name)} < 0")
        if self.source == "synthetic" and not (2 <= self.num_classes <= 8):
            raise ContractError("DatasetSpec: synthetic supports 2..8 classes")


# ---------------------------------------------------------------------------
# CIFAR-10 binary format: per record 1 label byte then 3072 pixel bytes
# (R plane, G plane, B plane, each 32x32 row-major). pixel = byte / 255.


def _parse_cifar_blob(blob: bytes, origin: str) -> list[LabeledImage]:
    if not blob:
        raise DataFormatError(f"{origin}: holds no records")
    if len(blob) % CIFAR_RECORD_BYTES != 0:
        raise DataFormatError(
            f"{origin}: size {len(blob)} is not a multiple of {CIFAR_RECORD_BYTES}")
    n = len(blob) // CIFAR_RECORD_BYTES
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    labels = raw[:, 0]
    bad = np.nonzero(labels >= CIFAR_CLASSES)[0]
    if bad.size:
        raise DataFormatError(
            f"{origin}: record {int(bad[0])} has label {int(labels[bad[0]])} >= {CIFAR_CLASSES}")
    pixels = raw[:, 1:].reshape(n, 3, CIFAR_SIDE, CIFAR_SIDE)
    out = []
    for i in range(n):
        out.append(LabeledImage(pixels[i].astype(np.float64) / 255.0, int(labels[i])))
    return out


def load_cifar10(path: str, split: str = "train") -> list[LabeledImage]:
    """Read CIFAR-10 binary batches. ``path`` is the batches directory or a
    single .bin file; record order is preserved."""
    if split not in ("train", "test"):
        raise ContractError(f"load_cifar10: split must be train/test, got '{split}'")
    if os.path.isfile(path):
        files = [path]
    elif os.path.isdir(path):
        names = CIFAR_TRAIN_FILES if split == "train" else CIFAR_TEST_FILES
        files = [os.path.join(path, n) for n in names]
        missing = [f for f in files if not os.path.isfile(f)]
        if missing:
            raise DataFormatError(f"load_cifar10: missing batch file {missing[0]}")
    else:
        raise DataFormatError(f"load_cifar10: no such file or directory: {path}")
    out: list[LabeledImage] = []
    for f in files:
        with open(f, "rb") as fh:
            out.extend(_parse_cifar_blob(fh.read(), os.path.basename(f)))
    return out


def write_cifar10(images: list[LabeledImage], path: str) -> None:
    """Write records in the binary batch layout (quantizes pixels to bytes)."""
    chunks = []
    for im in images:
        if im.side != CIFAR_SIDE:
            raise ContractError(f"write_cifar10: images must be {CIFAR_SIDE}x{CIFAR_SIDE}")
        if not (0 <= im.label < CIFAR_CLASSES):
            raise ContractError(f"write_cifar10: label {im.label} out of range")
        quant = np.round(im.image * 255.0).astype(np.uint8)
        chunks.append(bytes([im.label]) + quant.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


# ---------------------------------------------------------------------------
# synthetic shapes


def _render_shape(rng: np.random.Generator, side: int, label: int) -> np.ndarray:
    """One image of class ``label``. Classes 0..2 have full-width structure
    visible inside any narrow column band; classes 3+ are best-effort extras."""
    img = rng.uniform(0.0, 0.1, size=(3, side, side))
    amp = rng.uniform(0.55, 0.95)
    tint = 1.0 - rng.uniform(0.0, 0.25, size=3)
    mask = np.zeros((side, side), dtype=bool)
    yy, xx = np.ogrid[0:side, 0:side]  # broadcast grids, for classes 3, 6 and 7

    if label == 0:
        # one horizontal bar, thickness 2-3
        t = int(rng.integers(2, 4))
        r = int(rng.integers(0, side - t))
        mask[r:r + t, :] = True
    elif label == 1:
        # two separated horizontal bars, thickness 1-2
        t = int(rng.integers(1, 3))
        gap = int(rng.integers(3, max(4, side // 3)))
        r = int(rng.integers(0, side - (2 * t + gap)))
        mask[r:r + t, :] = True
        mask[r + t + gap:r + 2 * t + gap, :] = True
    elif label == 2:
        # wrapped diagonal stripe, thickness 2: row varies with column
        r0 = int(rng.integers(0, side))
        slope = int(rng.choice([1, -1]))
        cols = np.arange(side)
        rows = (r0 + slope * cols) % side
        mask[rows, cols] = True
        mask[(rows + 1) % side, cols] = True
    elif label == 3:
        # filled disk
        r = side // 4
        cy = int(rng.integers(r, side - r))
        cx = int(rng.integers(r, side - r))
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    elif label == 4:
        # full cross through a random center
        cy = int(rng.integers(2, side - 2))
        cx = int(rng.integers(2, side - 2))
        mask[cy, :] = True
        mask[:, cx] = True
    elif label == 5:
        # vertical bar
        t = int(rng.integers(2, 4))
        c = int(rng.integers(0, side - t))
        mask[:, c:c + t] = True
    elif label == 6:
        # 2px checkerboard with random phase
        ph = int(rng.integers(0, 2))
        mask = ((yy // 2 + xx // 2 + ph) % 2).astype(bool)
    elif label == 7:
        # ring
        r = side // 3
        cy = int(rng.integers(r, side - r))
        cx = int(rng.integers(r, side - r))
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        mask = (d2 <= r * r) & (d2 >= (r - 2) ** 2)
    else:
        raise ContractError(f"synthetic: no shape for class {label}")
    img[:, mask] = (amp * tint)[:, None]
    return np.clip(img, 0.0, 1.0)


def gen_synthetic(spec: DatasetSpec, n: int, split: str = "train") -> list[LabeledImage]:
    """Deterministic shape dataset: labels cycle 0..C-1 so classes are
    balanced within one; train and test use disjoint seed streams."""
    if split not in ("train", "test"):
        raise ContractError(f"gen_synthetic: split must be train/test, got '{split}'")
    stream = 1 if split == "train" else 2
    rng = np.random.default_rng([int(spec.seed), stream])
    out = []
    for i in range(n):
        label = i % spec.num_classes
        out.append(LabeledImage(_render_shape(rng, spec.image_side, label), label))
    return out


def load_dataset(spec: DatasetSpec, split: str) -> list[LabeledImage]:
    """Loader dispatch plus optional nearest-neighbor upsampling."""
    n = spec.train_size if split == "train" else spec.test_size
    if spec.source == "synthetic":
        images = gen_synthetic(spec, n, split)
    else:
        images = load_cifar10(spec.path, split)[:n or None]
    if not images:
        raise ContractError(f"load_dataset: the {split} split has no images")
    if spec.upsample_factor > 1:
        images = [LabeledImage(upsample_nearest(im.image, spec.upsample_factor), im.label)
                  for im in images]
    return images


def upsample_nearest(image: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor upsampling: each pixel becomes a factor x factor block."""
    if factor < 1 or int(factor) != factor:
        raise ContractError(f"upsample_nearest: factor must be a positive int, got {factor}")
    if factor == 1:
        return np.array(image, copy=True)
    return np.repeat(np.repeat(image, factor, axis=-2), factor, axis=-1)


def stack_images(images: list[LabeledImage]) -> tuple[np.ndarray, np.ndarray]:
    """Convenience: list -> ((n, 3, s, s) float64, (n,) int64)."""
    if not images:
        raise ContractError("stack_images: no images to stack")
    x = np.stack([im.image for im in images]).astype(np.float64, copy=False)
    y = np.array([im.label for im in images], dtype=np.int64)
    return x, y
