import numpy as np
import pytest

from bandcert.data import (CIFAR_CLASSES, CIFAR_SIDE, DatasetSpec, LabeledImage, load_cifar10,
                           load_dataset, stack_images, upsample_nearest)
from bandcert.errors import ContractError, DataFormatError


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


def synth_spec(**kw):
    base = dict(source="synthetic", path=None, num_classes=3, image_side=16,
                upsample_factor=1, train_size=24, test_size=12, seed=5)
    base.update(kw)
    return DatasetSpec(**base)


def test_synthetic_is_deterministic_per_split():
    spec = synth_spec()
    a = load_dataset(spec, "train")
    b = load_dataset(spec, "train")
    assert len(a) == 24
    for ia, ib in zip(a, b):
        assert ia.label == ib.label
        np.testing.assert_array_equal(ia.image, ib.image)


def test_synthetic_splits_differ():
    spec = synth_spec()
    tr = stack_images(load_dataset(spec, "train"))[0]
    te = stack_images(load_dataset(spec, "test"))[0]
    assert not np.array_equal(tr[: len(te)], te)


def test_synthetic_labels_cover_every_class():
    spec = synth_spec()
    _, ys = stack_images(load_dataset(spec, "train"))
    assert set(ys.tolist()) == {0, 1, 2}


def test_stack_images_shapes_and_ranges():
    spec = synth_spec()
    xs, ys = stack_images(load_dataset(spec, "train"))
    assert xs.shape == (24, 3, 16, 16)
    assert ys.shape == (24,)
    assert ys.dtype == np.int64
    assert xs.min() >= 0.0 and xs.max() <= 1.0


def test_empty_split_is_rejected():
    with pytest.raises(ContractError):
        load_dataset(synth_spec(test_size=0), "test")
    with pytest.raises(ContractError):
        stack_images([])


def test_zero_size_means_whole_split_for_cifar10_only(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "batch.bin"
    write_cifar10([LabeledImage(image=rng.random((3, 32, 32)), label=1)
                   for _ in range(3)], str(path))
    spec = DatasetSpec(source="cifar10", path=str(path), num_classes=10,
                       image_side=32, train_size=0, test_size=0)
    assert len(load_dataset(spec, "train")) == 3
    assert len(load_dataset(spec, "test")) == 3
    assert len(load_dataset(DatasetSpec(**{**vars(spec), "test_size": 2}), "test")) == 2
    with pytest.raises(ContractError):
        load_dataset(synth_spec(train_size=0), "train")


def test_upsample_factor_scales_side():
    spec = synth_spec(image_side=8, upsample_factor=2)
    xs, _ = stack_images(load_dataset(spec, "train"))
    assert xs.shape[-1] == 16


def test_upsample_nearest_repeats_blocks():
    img = np.arange(12, dtype=np.float64).reshape(3, 2, 2)
    up = upsample_nearest(img, 2)
    assert up.shape == (3, 4, 4)
    np.testing.assert_array_equal(up[:, :2, :2],
                                  np.repeat(img[:, :1, :1], 2, 1).repeat(2, 2))


def test_cifar_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    imgs = [LabeledImage(image=rng.random((3, 32, 32)), label=int(rng.integers(10)))
            for _ in range(6)]
    path = tmp_path / "batch.bin"
    write_cifar10(imgs, str(path))
    back = load_cifar10(str(path), split="train")
    assert len(back) == 6
    for orig, got in zip(imgs, back):
        assert got.label == orig.label
        # bytes quantize to 1/255 steps
        assert np.abs(got.image - orig.image).max() < 1 / 254


def test_cifar_truncated_blob_raises(tmp_path):
    bad = tmp_path / "batch.bin"
    bad.write_bytes(b"\x01" * 100)
    with pytest.raises(DataFormatError):
        load_cifar10(str(bad), split="train")


def test_cifar_empty_blob_raises(tmp_path):
    # a 0-byte file is a multiple of the record size, but no batch file
    empty = tmp_path / "batch.bin"
    empty.write_bytes(b"")
    with pytest.raises(DataFormatError, match="batch.bin: holds no records"):
        load_cifar10(str(empty), split="train")


def test_cifar_directory_needs_every_train_batch(tmp_path):
    batch_dir = tmp_path / "cifar"
    batch_dir.mkdir()
    rng = np.random.default_rng(1)
    imgs = [LabeledImage(image=rng.random((3, 32, 32)), label=0)]
    write_cifar10(imgs, str(batch_dir / "data_batch_1.bin"))
    with pytest.raises(DataFormatError):
        load_cifar10(str(batch_dir), split="train")


def test_cifar_missing_directory_raises(tmp_path):
    with pytest.raises((DataFormatError, FileNotFoundError)):
        load_cifar10(str(tmp_path / "nope"), split="train")


def test_spec_validation():
    with pytest.raises(ContractError):
        synth_spec(num_classes=1)
    with pytest.raises(ContractError):
        synth_spec(image_side=0)
    with pytest.raises(ContractError):
        synth_spec(upsample_factor=0)


def test_unknown_source_rejected():
    with pytest.raises(ContractError):
        synth_spec(source="imagenet")


@pytest.mark.parametrize("key", ["train_size", "test_size"])
@pytest.mark.parametrize("source", ["synthetic", "cifar10"])
def test_negative_split_size_is_rejected(source, key, tmp_path):
    # cifar10 used to slice records off the end, synthetic to report "no images"
    with pytest.raises(ContractError, match=f"{key} -1 < 0"):
        DatasetSpec(source=source, path=str(tmp_path / "batch.bin"),
                    num_classes=3, image_side=32, **{key: -1})
