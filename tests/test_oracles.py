import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert import oracles
from bandcert.certification import CertifyConfig
from bandcert.errors import ContractError
from bandcert.model import plan_windows
from bandcert.oracles import (attention_equivalence,
                              check_certificate_soundness,
                              empirical_patch_attack, exhaustive_flip_bitmask,
                              fd_gradient_report, intersection_sweep,
                              patch_locations,
                              random_vote_tables, worst_case_flip)
from bandcert.smoothing import BandSpec


def test_intersection_sweep_small():
    cases, failures = intersection_sweep(max_width=16)
    assert failures == []
    assert cases == sum(w * (w + 1) // 2 for w in range(1, 17))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 6), st.integers(2, 3), st.integers(1, 2),
       st.integers(1, 2), st.integers(0, 10_000), st.booleans(), st.booleans())
def test_worst_case_flip_matches_exhaustive(w, c, m, b, seed, tied, wrap):
    rng = np.random.default_rng(seed)
    vs = rng.random((w, c)) < 0.5
    if tied:  # classes 0 and 1 share the top count, so the table abstains
        vs[:, 1] = vs[::-1, 0]
        vs[:, 2:] &= vs[:, :1]
    fast = worst_case_flip(vs, m, b, wrap=wrap)
    slow = exhaustive_flip_bitmask(vs, m, b, wrap=wrap)
    assert fast == slow


def test_intersection_sweep_unwrapped():
    # with bands clipped at the image edge, the worst patch still meets
    # exactly m + b - 1 of them
    cases, failures = intersection_sweep(max_width=24, wrap=False)
    assert failures == []
    assert cases == sum(w * (w + 1) // 2 for w in range(1, 25))


def test_exhaustive_guard_refuses_large_tables():
    vs = np.zeros((32, 10), dtype=bool)
    with pytest.raises(ContractError):
        exhaustive_flip_bitmask(vs, 4, 4)


def test_soundness_on_seeded_tables():
    tables = random_vote_tables(50, image_width=16, num_classes=4, seed=0)
    for vs in tables:
        for delta in range(1, 9):
            res = check_certificate_soundness(vs, patch_width=1, band_width=delta)
            assert res["sound"]


def test_soundness_on_unwrapped_tables():
    tables = random_vote_tables(300, image_width=16, num_classes=4, seed=2)
    for vs in tables:
        assert check_certificate_soundness(vs, patch_width=2, band_width=4,
                                           wrap=False)["sound"]
    # near the boundary, an understated bound is caught without wrap too
    tables = random_vote_tables(300, image_width=16, num_classes=3, seed=1,
                                near_boundary_margin=4)
    assert not all(check_certificate_soundness(vs, patch_width=2, band_width=2, wrap=False,
                                               delta_fn=lambda m, b: 1)["sound"]
                   for vs in tables)


def test_soundness_check_catches_a_too_generous_bound():
    """With a deliberately understated delta, some near-boundary table must
    certify yet flip, proving the checker can fail at all."""
    tables = random_vote_tables(300, image_width=16, num_classes=3, seed=1,
                                near_boundary_margin=4)
    bad = 0
    for vs in tables:
        res = check_certificate_soundness(vs, patch_width=2, band_width=2,
                                          delta_fn=lambda m, b: 1)
        bad += not res["sound"]
    assert bad > 0


def test_margin_exactly_two_delta_is_overturnable():
    """Sharpness: margin == 2 delta certifies nothing, and the adversary can
    actually reach a tie that flips the argmax."""
    for delta in (1, 2, 3):
        w = 4 * delta
        vs = np.zeros((w, 3), dtype=bool)
        vs[:2 * delta, 1] = True  # class 1 wins by exactly 2 delta
        res = check_certificate_soundness(vs, patch_width=1, band_width=delta)
        assert res["margin"] == 2 * delta
        assert not res["certified"]
        assert res["flippable"]


@pytest.mark.parametrize("classes", [[0, 1], [1, 0]])
def test_a_reachable_tie_is_a_flip(classes):
    """5 votes to 3 on 8 positions: one corrupted band (m = b = 1) reaches
    4 to 4, and ``vote`` abstains on a tie. That is a flip whichever class
    id holds the top, so a bound of 0.99 bands per patch must be unsound."""
    vs = np.zeros((8, 2), dtype=bool)
    vs[:5, classes[0]] = True
    vs[5:, classes[1]] = True
    assert worst_case_flip(vs, 1, 1)
    assert exhaustive_flip_bitmask(vs, 1, 1)
    res = check_certificate_soundness(vs, 1, 1, delta_fn=lambda m, b: 0.99)
    assert res["certified"] and res["flippable"] and not res["sound"]


def test_a_three_way_tie_can_be_broken():
    """Every class votes at every position. Two corrupted bands that vote
    for one class alone make it win 3 to 1 to 1; dropping only the
    lowest-id class would leave the other two tied."""
    vs = np.ones((3, 3), dtype=bool)
    assert worst_case_flip(vs, 1, 2) and exhaustive_flip_bitmask(vs, 1, 2)


def test_patch_locations_grid():
    locs = patch_locations(16, (2, 2), 16)
    assert len(locs) == 16
    assert len(set(locs)) == 16
    for r, c in locs:
        assert 0 <= r <= 14 and 0 <= c <= 14
    assert (0, 0) in locs and (14, 14) in locs


def test_patch_locations_caps_at_requested_count():
    locs = patch_locations(8, (3, 3), 5)
    assert len(locs) <= 5


def test_attention_equivalence_tight_in_f64(small_params):
    params = small_params
    rng = np.random.default_rng(7)
    imgs = rng.random((3, 3, 8, 8))
    for pos in (0, 5):
        diffs = attention_equivalence(params, imgs, BandSpec(pos, 3))
        assert diffs["tokens"] < 1e-10
        assert diffs["logits"] < 1e-10


def test_attention_equivalence_f32(small_params):
    params = small_params.cast(np.float32)
    imgs = np.random.default_rng(8).random((2, 3, 8, 8))
    diffs = attention_equivalence(params, imgs, BandSpec(2, 4))
    assert diffs["logits"] < 1e-5


def test_fd_gradient_report_probes_everything():
    report = fd_gradient_report(seed=0, probes=2)
    assert set(report) == {
        "matmul", "matmul_tb", "add", "mul", "softmax_lastdim", "layer_norm", "gelu",
        "embedding_lookup", "reshape", "concat", "slice", "split_heads",
        "merge_heads", "mean", "cross_entropy", "embed", "linear", "affine_layer_norm",
        "attention", "attention_masked", "encoder_block", "encoder_tokens"}
    for name, err in report.items():
        assert err < 1e-4, f"{name}: relative error {err}"


def test_empirical_attack_smoke(small_params):
    params = small_params.cast(np.float32)
    cfg = params.cfg
    plan = plan_windows(cfg, 2)
    ccfg = CertifyConfig(band_width=2)
    rng = np.random.default_rng(9)
    img = rng.random((3, 8, 8))
    before = img.copy()
    report = empirical_patch_attack(img, params, plan, ccfg,
                                    patch_shape=(2, 2),
                                    locations=[(0, 0), (3, 3)],
                                    trials=5, seed=0, image_id=3)
    np.testing.assert_array_equal(img, before)  # input left untouched
    assert report.image_id == 3
    assert report.locations == 2 and report.trials_per_location == 5
    assert report.positions_rescored <= min(8, 2 + 2 - 1)
    assert report.flips >= 0
    assert report.min_margin_seen <= 8


def test_empirical_attack_patches_only_the_current_location(small_params, monkeypatch):
    # each location's trial images equal the clean image outside that
    # location's patch, whatever the locations before it patched
    params = small_params.cast(np.float32)
    plan = plan_windows(params.cfg, 2)
    img = np.random.default_rng(9).random((3, 8, 8)).astype(np.float32)
    scored = []

    def spy(images, params, plan, cfg, positions=None):
        if positions is not None:
            scored.append(np.array(images))
        return real_scores(images, params, plan, cfg, positions=positions)

    real_scores = oracles.per_band_scores
    monkeypatch.setattr(oracles, "per_band_scores", spy)
    locations = [(0, 0), (3, 3), (5, 1), (3, 3)]
    empirical_patch_attack(img, params, plan, CertifyConfig(band_width=2),
                           patch_shape=(2, 3), locations=locations, trials=4, seed=0)
    assert len(scored) == len(locations)
    for (r0, c0), trials in zip(locations, scored):
        inside = np.zeros((8, 8), dtype=bool)
        inside[r0:r0 + 2, c0:c0 + 3] = True
        np.testing.assert_array_equal(trials[:, :, ~inside],
                                      np.broadcast_to(img[:, ~inside], (4, 3, 64 - 6)))
        assert (trials[:, :, inside] != img[:, inside]).all()


@pytest.mark.parametrize("patch_shape, locations, trials", [
    ((9, 2), [(0, 0)], 5),
    ((2, 9), [(0, 0)], 5),
    ((2, 0), [(0, 0)], 5),
    ((2, 2), [(0, 0), (7, 7)], 5),
    ((2, 2), [(-1, 0)], 5),
    ((2, 2), [(0, 0)], 0),
], ids=["taller", "wider", "empty", "anchor_7_7", "anchor_-1_0", "no_trials"])
def test_empirical_attack_rejects_bad_patches_and_trials(small_params, monkeypatch,
                                                         patch_shape, locations, trials):
    params = small_params.cast(np.float32)
    plan = plan_windows(params.cfg, 2)

    def no_sweep(*args, **kwargs):
        raise AssertionError("scored before the arguments were checked")

    monkeypatch.setattr(oracles, "per_band_scores", no_sweep)
    img = np.random.default_rng(4).random((3, 8, 8))
    with pytest.raises(ContractError, match="^empirical_patch_attack: "):
        empirical_patch_attack(img, params, plan, CertifyConfig(band_width=2),
                               patch_shape=patch_shape, locations=locations,
                               trials=trials, seed=0)


def test_empirical_attack_certified_image_never_flips(small_params):
    """Hand a synthetic scorer to force a hugely certified table, then check
    the attack bookkeeping honors it."""
    params = small_params.cast(np.float32)
    cfg = params.cfg
    plan = plan_windows(cfg, 2)
    ccfg = CertifyConfig(band_width=2)
    img = np.random.default_rng(10).random((3, 8, 8))
    report = empirical_patch_attack(img, params, plan, ccfg,
                                    patch_shape=(1, 1),
                                    locations=[(0, 0)], trials=3, seed=1)
    if report.certified:
        assert report.flips == 0


def test_empirical_attack_counts_a_tied_vote_as_a_flip(small_params, monkeypatch):
    """A patch that ties the top class with a rival makes the vote abstain,
    so it changes the prediction even though the tie's argmax is the base
    class."""
    params = small_params.cast(np.float32)
    plan = plan_windows(params.cfg, 2)
    ccfg = CertifyConfig(band_width=2)
    both = [0.5, 0.1, 0.4]  # votes for classes 0 and 2
    # A 1x1 patch at column 0 meets the bands at positions 7 and 0. Those
    # vote for class 0 alone, the other six for both: 8 votes to 6.
    base = np.array([[0.8, 0.1, 0.1]] + [both] * 6 + [[0.8, 0.1, 0.1]])

    def fake_scores(images, params, plan, cfg, positions=None):
        if positions is None:
            return np.repeat(base[None], len(images), axis=0)
        assert sorted(positions) == [0, 7]
        return np.tile(np.array(both), (len(images), len(positions), 1))

    monkeypatch.setattr(oracles, "per_band_scores", fake_scores)
    img = np.random.default_rng(12).random((3, 8, 8))
    report = empirical_patch_attack(img, params, plan, ccfg, patch_shape=(1, 1),
                                    locations=[(0, 0), (4, 0)], trials=5, seed=0)
    assert not report.certified
    assert report.min_margin_seen == 0
    assert report.flips == 2 * 5
