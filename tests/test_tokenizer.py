import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert import tokenizer
from bandcert.errors import ContractError, DataFormatError
from bandcert.tokenizer import (CODEBOOK_MAGIC, LLOYD_ITERS, SQ_DIST_ROWS, Codebook,
                                fit_codebook, image_patches, load_codebook,
                                save_codebook, tokenize_images)


def blobs(n_per_cluster=20, seed=0):
    """Three well-separated gaussian clusters in 6-d."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0] * 6, [10.0] * 6, [-10.0, 10.0] * 3])
    pts = np.concatenate([c + 0.1 * rng.standard_normal((n_per_cluster, 6))
                          for c in centers])
    return pts, centers


def test_fit_recovers_separated_clusters():
    pts, centers = blobs()
    cb = fit_codebook(pts, k=3, seed=0)
    # each true center should sit within noise range of some centroid
    for c in centers:
        d = np.linalg.norm(cb.centroids - c, axis=1).min()
        assert d < 0.5


def test_fit_is_seed_deterministic():
    pts, _ = blobs()
    a = fit_codebook(pts, k=3, seed=4)
    b = fit_codebook(pts, k=3, seed=4)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_fit_rejects_degenerate_requests():
    pts, _ = blobs()
    with pytest.raises(ContractError):
        fit_codebook(pts, k=1, seed=0)
    dup = np.zeros((50, 6))
    with pytest.raises(ContractError):
        fit_codebook(dup, k=3, seed=0)
    with pytest.raises(ContractError):
        fit_codebook(pts.reshape(-1), k=3, seed=0)


def test_fit_rejects_non_finite_patches():
    pts, _ = blobs()
    for bad in (np.nan, np.inf, -np.inf):
        dirty = pts.copy()
        dirty[7, 2] = bad
        with pytest.raises(ContractError, match="non-finite"):
            fit_codebook(dirty, k=3, seed=0)


def _one_shot_sq_dists(x, c):
    diff = x[:, None, :] - c[None, :, :]
    return np.einsum("mkd,mkd->mk", diff, diff)


def _reference_fit(pts, k, seed):
    """fit_codebook as it was before the early stop: k-means++ seeding, then
    all LLOYD_ITERS Lloyd iterations on one-shot distances."""
    pts = np.asarray(pts, dtype=np.float64)
    rng = np.random.default_rng([int(seed), 0xC0DE])
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(pts.shape[0])]
    best_d2 = _one_shot_sq_dists(pts, centroids[:1])[:, 0]
    for i in range(1, k):
        total = best_d2.sum()
        if total <= 0.0:
            centroids[i] = pts[rng.integers(pts.shape[0])]
        else:
            centroids[i] = pts[rng.choice(pts.shape[0], p=best_d2 / total)]
        best_d2 = np.minimum(best_d2, _one_shot_sq_dists(pts, centroids[i:i + 1])[:, 0])
    for _ in range(LLOYD_ITERS):
        assign = np.argmin(_one_shot_sq_dists(pts, centroids), axis=1)
        for ci in range(k):
            members = pts[assign == ci]
            if members.shape[0]:
                centroids[ci] = members.mean(axis=0)
    return centroids


@pytest.mark.parametrize("source", ["blobs", "images"])
def test_fit_matches_full_lloyd_reference_bytes(source):
    # stopping at a repeated assignment must leave the centroids that all
    # LLOYD_ITERS iterations reach, to the byte
    for seed in (0, 1, 2):
        if source == "blobs":
            pts, _ = blobs(n_per_cluster=40, seed=seed)
        else:
            rng = np.random.default_rng(seed)
            pts = image_patches(rng.random((24, 3, 8, 8)), 4)
        for k in (2, 3, 7):
            got = fit_codebook(pts, k=k, seed=seed).centroids
            assert got.tobytes() == _reference_fit(pts, k, seed).tobytes(), (seed, k)


@pytest.mark.parametrize("m", [0, 1, SQ_DIST_ROWS - 1, SQ_DIST_ROWS, SQ_DIST_ROWS + 1,
                               3 * SQ_DIST_ROWS + 17])
def test_chunked_sq_dists_match_one_shot_bytes(m):
    rng = np.random.default_rng(m)
    x = rng.standard_normal((m, 12))
    c = rng.standard_normal((5, 12))
    got = tokenizer._sq_dists(x, c)
    assert got.shape == (m, 5)
    assert got.tobytes() == _one_shot_sq_dists(x, c).tobytes()


def test_tokenize_ties_go_to_lowest_id():
    cb = Codebook(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))
    # (1, 0) is equidistant from centroids 0 and 1
    ids = cb.tokenize(np.array([[1.0, 0.0]]))
    assert ids.tolist() == [0]


def test_tokenize_rejects_dim_mismatch():
    cb = Codebook(np.zeros((2, 4)) + np.arange(2)[:, None])
    with pytest.raises(ContractError):
        cb.tokenize(np.zeros((3, 5)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_centroids_tokenize_to_themselves(seed):
    rng = np.random.default_rng(seed)
    cent = rng.standard_normal((5, 3)) * 3.0
    # nudge apart any near-duplicates so self-assignment is well defined
    cent += np.arange(5)[:, None] * 1e-3
    cb = Codebook(cent)
    assert cb.tokenize(cent).tolist() == [0, 1, 2, 3, 4]


def test_image_patches_matches_token_grid_order():
    imgs = np.arange(2 * 3 * 8 * 8, dtype=np.float64).reshape(2, 3, 8, 8) / 400.0
    flat = image_patches(imgs, 4)
    assert flat.shape == (2 * 4, 48)
    manual = imgs[1, :, 4:8, 0:4].reshape(-1)  # image 1, bottom-left patch
    np.testing.assert_array_equal(flat[4 + 2], manual)


def test_tokenize_images_shape():
    rng = np.random.default_rng(1)
    imgs = rng.random((3, 3, 8, 8))
    cb = fit_codebook(image_patches(imgs, 4), k=4, seed=0)
    toks = tokenize_images(cb, imgs, 4)
    assert toks.shape == (3, 4)
    assert toks.dtype == np.int64
    assert toks.min() >= 0 and toks.max() < 4


def test_codebook_roundtrip(tmp_path):
    pts, _ = blobs()
    cb = fit_codebook(pts, k=3, seed=0)
    path = tmp_path / "codebook.eccb"
    save_codebook(cb, str(path))
    assert path.read_bytes()[:4] == CODEBOOK_MAGIC
    back = load_codebook(str(path))
    assert back.size == cb.size and back.dim == cb.dim
    # storage is float32, so roundtrip is exact only at that precision
    np.testing.assert_array_equal(
        back.centroids, cb.centroids.astype(np.float32).astype(np.float64))


def test_codebook_corruption_detected(tmp_path):
    pts, _ = blobs()
    cb = fit_codebook(pts, k=3, seed=0)
    path = tmp_path / "codebook.eccb"
    save_codebook(cb, str(path))
    blob = path.read_bytes()

    bad = tmp_path / "bad.eccb"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(DataFormatError):
        load_codebook(str(bad))

    short = tmp_path / "short.eccb"
    short.write_bytes(blob[:-8])
    with pytest.raises(DataFormatError):
        load_codebook(str(short))

    vers = tmp_path / "vers.eccb"
    import struct
    vers.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(DataFormatError):
        load_codebook(str(vers))


def test_codebook_bad_header_count_or_nan_names_the_file(tmp_path):
    import struct
    cb = Codebook(np.array([[0.0, 1.0], [2.0, 3.0]]))
    path = tmp_path / "codebook.eccb"
    save_codebook(cb, str(path))
    blob = path.read_bytes()
    cases = {
        "one.eccb": blob[:8] + struct.pack("<I", 1) + blob[12:16] + blob[16:24],
        "zero.eccb": blob[:8] + struct.pack("<I", 0) + blob[12:16],
        "nan.eccb": blob[:16] + struct.pack("<f", float("nan")) + blob[20:],
        "inf.eccb": blob[:-4] + struct.pack("<f", float("inf")),
    }
    for name, bad in cases.items():
        (tmp_path / name).write_bytes(bad)
        with pytest.raises(DataFormatError, match=name):
            load_codebook(str(tmp_path / name))


@pytest.fixture(scope="module")
def valid_codebook(tmp_path_factory):
    """Bytes of a small saved codebook. With k = 2, small xor masks on the
    count byte give k = 0 or 1; the float32 maximum is one flip from Inf/NaN."""
    big = float(np.finfo(np.float32).max)
    path = tmp_path_factory.mktemp("eccb") / "valid.eccb"
    save_codebook(Codebook(np.array([[big, -1.5], [0.25, -big]])), str(path))
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_codebook_damage_loads_exactly_or_raises(valid_codebook, tmp_path_factory, data):
    # A cut or a one-byte flip either raises DataFormatError or loads a
    # codebook that saves back to exactly the damaged bytes. A flip inside
    # a finite centroid cannot be detected (the format has no checksum).
    blob = valid_codebook
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        mask = data.draw(st.integers(1, 255), label="xor")
        bad = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
    folder = tmp_path_factory.mktemp("damaged")
    (folder / "bad.eccb").write_bytes(bad)
    try:
        loaded = load_codebook(str(folder / "bad.eccb"))
    except DataFormatError:
        return
    save_codebook(loaded, str(folder / "resaved.eccb"))
    assert (folder / "resaved.eccb").read_bytes() == bad
