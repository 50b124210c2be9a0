import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert import model, oracles
from bandcert.autodiff import Tensor
from bandcert.certification import (CertifyConfig, affected_positions, certified_against,
                                    evaluate, per_band_scores, softmax_scores, vote)
from bandcert.errors import ContractError
from bandcert.model import (ModelConfig, ModelParams, batched_certify_forward, forward_windows,
                            plan_windows)
from bandcert.oracles import (AttackReport, attention_equivalence,
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
        "add", "mul", "gelu", "embedding_lookup", "reshape", "slice", "mean",
        "cross_entropy", "embed", "linear", "affine_layer_norm", "attention",
        "attention_masked", "encoder_block", "encoder_tokens"}
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


def _unpatchify(tokens, cfg):
    """(num_tokens, 3 * p * p) patch vectors -> the (3, h, w) pixels."""
    rows, cols = cfg.grid
    ps = cfg.patch_size
    return tokens.reshape(rows, cols, 3, ps, ps).transpose(2, 0, 3, 1, 4).reshape(
        3, rows * ps, cols * ps)


def test_empirical_attack_patches_only_the_current_location(small_params, monkeypatch):
    # each location's trial images equal the clean image outside that
    # location's patch, whatever the locations before it patched: read the
    # virtual images back from the sweep's token table
    params = small_params.cast(np.float32)
    plan = plan_windows(params.cfg, 2)
    img = np.random.default_rng(9).random((3, 8, 8)).astype(np.float32)
    swept = []

    def spy(params, plan, sweep):
        swept.append(sweep)
        return real_sweep(params, plan, sweep)

    real_sweep = model._sweep_windows
    monkeypatch.setattr(model, "_sweep_windows", spy)
    locations = [(0, 0), (3, 3), (5, 1), (3, 3)]
    trials = 4
    empirical_patch_attack(img, params, plan, CertifyConfig(band_width=2),
                           patch_shape=(2, 3), locations=locations, trials=trials, seed=0)
    (sweep,) = swept
    images = [_unpatchify(sweep.table[ids], params.cfg) for ids in sweep.image_tokens]
    assert len(images) == 1 + len(locations) * trials
    np.testing.assert_array_equal(images[0], img)
    for i, (r0, c0) in enumerate(locations):
        inside = np.zeros((8, 8), dtype=bool)
        inside[r0:r0 + 2, c0:c0 + 3] = True
        patched = np.stack(images[1 + i * trials:1 + (i + 1) * trials])
        np.testing.assert_array_equal(patched[:, :, ~inside],
                                      np.broadcast_to(img[:, ~inside], (4, 3, 64 - 6)))
        assert (patched[:, :, inside] != img[:, inside]).all()


def _reference_attack(image, params, plan, cfg, patch_shape, locations, trials, seed,
                      image_id=0):
    """The attack as a loop over locations: one batch of materialised trial
    images, each location restoring the previous patch region from the clean
    image before drawing its own, and one ``forward_windows`` sweep of the
    trials at the location's hit positions. Returns the base scores, each
    location's (trials, hits, C) scores, margins and predictions, and the
    report."""
    img = np.asarray(image, dtype=params.dtype)
    ph, pw = patch_shape
    w = plan.image_width
    base_scores = per_band_scores(img[None], params, plan, cfg)[0]
    base_table = vote(base_scores, cfg)
    rng = np.random.default_rng([int(seed), 0xA77, image_id])
    base_predicted = -1 if base_table.tied else base_table.predicted
    flips, min_margin, rescored = 0, base_table.margin, 0
    per_location = []
    patched = np.repeat(img[None], trials, axis=0)
    region = (slice(None), slice(None), slice(0, 0), slice(0, 0))
    for r0, c0 in locations:
        hit = affected_positions(c0, pw, cfg.band_width, w, wrap=params.cfg.band_wrap)
        rescored = max(rescored, hit.size)
        patched[region] = img[region[1:]]
        region = (slice(None), slice(None), slice(r0, r0 + ph), slice(c0, c0 + pw))
        patched[region] = rng.random((trials, 3, ph, pw), dtype=np.float32)
        logits = np.zeros((trials, hit.size, params.cfg.num_classes), dtype=params.dtype)
        for rows, out in forward_windows(patched, np.tile(hit, (trials, 1)), params, plan):
            logits[rows // hit.size, rows % hit.size] = out.data
        scores = logits if cfg.threshold_on == "logits" else softmax_scores(logits)
        margins, preds = oracles._recount_votes(base_table, base_scores, scores, hit, cfg)
        per_location.append((scores, margins, preds))
        min_margin = min(min_margin, int(margins.min()))
        flips += int((preds != base_predicted).sum())
    report = AttackReport(image_id=image_id, patch_shape=tuple(patch_shape),
                          locations=len(locations), trials_per_location=trials,
                          certified=certified_against(base_table, pw, cfg.band_width),
                          flips=flips, min_margin_seen=min_margin,
                          positions_rescored=rescored)
    return base_scores, per_location, report


# 3x3 patches on 4x4 tokens: (0, 0) and (5, 5) touch one token, (0, 2) two
# side by side, (2, 1) two one above the other, (2, 2) four; (2, 2) repeats
STRADDLING = [(0, 0), (0, 2), (2, 2), (5, 5), (2, 1), (2, 2)]


@pytest.mark.parametrize("threshold_on, threshold", [("probs", 0.34), ("logits", 0.0)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("locations", [STRADDLING, []], ids=["straddling", "none"])
def test_one_sweep_attack_gives_the_bits_of_the_location_loop(small_params, locations, wrap,
                                                             dtype, threshold_on, threshold):
    cfg = dataclasses.replace(small_params.cfg, band_wrap=wrap)
    params = ModelParams(cfg, {n: Tensor(t.data * 10.0) for n, t in small_params.tensors.items()}
                         ).cast(dtype)
    plan = plan_windows(cfg, 3)
    ccfg = CertifyConfig(band_width=3, threshold=threshold, threshold_on=threshold_on)
    img = np.random.default_rng(13).random((3, 8, 8))
    trials, seed, image_id = 6, 4, 2
    base, per_location, report = _reference_attack(img, params, plan, ccfg, (3, 3),
                                                   locations, trials, seed, image_id)
    hits = [affected_positions(c0, 3, 3, 8, wrap=wrap) for _, c0 in locations]
    # without wrap a patch near an edge meets fewer bands
    assert {hit.size for hit in hits} <= ({5} if wrap else {3, 4, 5})
    rng = np.random.default_rng([seed, 0xA77, image_id])
    got_base, got = oracles._attack_scores(img.astype(dtype), params, plan, ccfg, (3, 3),
                                           locations, hits, trials, rng)
    assert got_base.dtype == base.dtype and got_base.tobytes() == base.tobytes()
    assert len(got) == len(per_location)
    table = vote(base, ccfg)
    for hit, scores, (want, margins, preds) in zip(hits, got, per_location):
        assert scores.dtype == want.dtype and scores.shape == want.shape
        assert scores.tobytes() == want.tobytes()
        got_margins, got_preds = oracles._recount_votes(table, got_base, scores, hit, ccfg)
        assert got_margins.tobytes() == margins.tobytes()
        assert got_preds.tobytes() == preds.tobytes()
    assert empirical_patch_attack(img, params, plan, ccfg, (3, 3), locations, trials,
                                  seed, image_id) == report


def test_an_attack_runs_one_encoder_sweep(small_params, monkeypatch):
    params = small_params.cast(np.float32)
    plan = plan_windows(params.cfg, 2)
    sweeps = []
    real_blocks = model._encode_blocks

    def spy(*args, **kwargs):
        sweeps.append(args)
        return real_blocks(*args, **kwargs)

    monkeypatch.setattr(model, "_encode_blocks", spy)
    img = np.random.default_rng(3).random((3, 8, 8))
    for locations in (STRADDLING, []):
        sweeps.clear()
        empirical_patch_attack(img, params, plan, CertifyConfig(band_width=2),
                               patch_shape=(3, 3), locations=locations, trials=7, seed=0)
        assert len(sweeps) == 1


def test_an_attack_holds_no_trial_images(monkeypatch):
    # A location's trials as images would take trials * 3 * h * w values,
    # and its patchified copy as many again. The token table holds only the
    # one token each 2x2 patch touches, of 16.
    cfg = ModelConfig(image_side=16, patch_size=4, embed_dim=16, num_layers=1,
                      num_heads=2, mlp_ratio=2.0, num_classes=3, codebook_size=8)
    params = ModelParams.init(cfg, seed=1)
    plan = plan_windows(cfg, 2)
    img = np.random.default_rng(5).random((3, 16, 16))
    monkeypatch.setattr(model, "WINDOW_BLOCK_BYTES", 1 << 18)  # small blocks
    trials, locations = 2000, [(5, 9)]
    images_bytes = trials * len(locations) * img.size * params.dtype.itemsize
    tracemalloc.start()
    try:
        empirical_patch_attack(img, params, plan, CertifyConfig(band_width=2),
                               patch_shape=(2, 2), locations=locations, trials=trials, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < images_bytes, (peak, images_bytes)


def test_empirical_attack_rejects_an_image_of_another_side(small_params, monkeypatch):
    params = small_params.cast(np.float32)
    plan = plan_windows(params.cfg, 2)
    monkeypatch.setattr(model, "_sweep_windows", _no_sweep)
    for shape in ((3, 8, 6), (3, 6, 8), (4, 8, 8), (8, 8)):
        with pytest.raises(ContractError, match="^empirical_patch_attack: expected"):
            empirical_patch_attack(np.zeros(shape), params, plan, CertifyConfig(band_width=2),
                                   patch_shape=(1, 1), locations=[(0, 0)], trials=1, seed=0)


def _no_sweep(*args, **kwargs):
    raise AssertionError("scored before the arguments were checked")


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
    monkeypatch.setattr(model, "_sweep_windows", _no_sweep)
    img = np.random.default_rng(4).random((3, 8, 8))
    with pytest.raises(ContractError, match="^empirical_patch_attack: "):
        empirical_patch_attack(img, params, plan, CertifyConfig(band_width=2),
                               patch_shape=patch_shape, locations=locations,
                               trials=trials, seed=0)


def test_empirical_attack_refuses_a_plan_of_another_band_width(small_params, monkeypatch):
    # a 2-wide patch meets 5 of the plan's 4-wide windows, where a band-2
    # certificate counts 3; evaluate refuses such a plan too
    params = small_params.cast(np.float32)
    plan = plan_windows(params.cfg, 4)
    monkeypatch.setattr(model, "_sweep_windows", _no_sweep)
    img = np.random.default_rng(4).random((3, 8, 8))
    with pytest.raises(ContractError, match="^empirical_patch_attack: plan band width 4 "
                                            "!= config band width 2$"):
        empirical_patch_attack(img, params, plan, CertifyConfig(band_width=2),
                               patch_shape=(2, 2), locations=[(0, 0)], trials=1, seed=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_empirical_attack_scores_the_image_evaluate_certifies(small_params, dtype):
    # The attack's base vote table is evaluate's, in the params' dtype. With
    # each window logit as the threshold, the votes at that window turn on
    # any rounding of the image, and in float64 the logits of the image's
    # float32 copy lie above some of them.
    cfg = small_params.cfg
    seeded = ModelParams.init(cfg, seed=9)
    params = ModelParams(cfg, {n: Tensor(t.data * 10.0) for n, t in seeded.tensors.items()}
                         ).cast(dtype)
    plan = plan_windows(cfg, 2)
    img = np.random.default_rng(9).random((3, 8, 8))
    logits, _ = batched_certify_forward(img, params, plan)
    rounded, _ = batched_certify_forward(img.astype(np.float32), params, plan)
    assert (rounded > logits).any() == (dtype == np.float64)
    for threshold in np.unique(logits).tolist():
        ccfg = CertifyConfig(band_width=2, threshold=threshold, threshold_on="logits",
                             patch_shapes=((1, 1),))
        record = evaluate(img[None], np.zeros(1, dtype=int), params, plan, ccfg).records[0]
        report = empirical_patch_attack(img, params, plan, ccfg, patch_shape=(1, 1),
                                        locations=[], trials=1, seed=0)
        assert (report.min_margin_seen, report.certified) == \
            (record["margin"], record["certified"]["1x1"]), threshold


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

    def fake_scores(img, params, plan, cfg, patch_shape, locations, hits, trials, rng):
        assert [hit.tolist() for hit in hits] == [[0, 7]] * len(locations)
        return base, [np.tile(np.array(both), (trials, hit.size, 1)) for hit in hits]

    monkeypatch.setattr(oracles, "_attack_scores", fake_scores)
    img = np.random.default_rng(12).random((3, 8, 8))
    report = empirical_patch_attack(img, params, plan, ccfg, patch_shape=(1, 1),
                                    locations=[(0, 0), (4, 0)], trials=5, seed=0)
    assert not report.certified
    assert report.min_margin_seen == 0
    assert report.flips == 2 * 5
