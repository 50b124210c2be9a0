import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert.certification import (CertifyConfig, VoteTable,
                                    affected_positions, certified_against,
                                    evaluate, max_certified_patch_width,
                                    softmax_scores, vote)
from bandcert.errors import ContractError
from bandcert.model import ModelParams, plan_windows
from bandcert.smoothing import BandSpec


def cfg_for(w=8, **kw):
    base = dict(band_width=2, threshold=0.2)
    base.update(kw)
    return CertifyConfig(**base)


def table_from_counts(counts, w):
    """Build a (w, C) prob table whose strict-threshold votes match counts."""
    counts = np.asarray(counts)
    c = counts.size
    scores = np.full((w, c), 0.01)
    row = 0
    for cls, k in enumerate(counts):
        for _ in range(k):
            scores[row] = 0.01
            scores[row, cls] = 0.9
            row += 1
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def test_vote_threshold_is_strict():
    cfg = cfg_for(threshold=0.5, threshold_on="logits")
    scores = np.array([[0.5, 0.5], [0.51, 0.49], [0.4, 0.6]])
    t = vote(scores, cfg)
    # exactly 0.5 never votes
    assert t.votes.tolist() == [1, 1]
    assert t.tied


def test_vote_allows_zero_or_multiple_votes_per_position():
    cfg = cfg_for(threshold=0.2, threshold_on="logits")
    scores = np.array([[0.3, 0.3, 0.4],    # votes for all three
                       [0.1, 0.1, 0.1],    # votes for none
                       [0.9, 0.05, 0.05]])
    t = vote(scores, cfg)
    assert t.votes.tolist() == [2, 1, 1]


def test_vote_tie_goes_to_lowest_class_id():
    cfg = cfg_for()
    scores = table_from_counts([3, 3, 0], w=8)
    t = vote(scores, cfg)
    assert t.predicted == 0 and t.runner_up == 1
    assert t.tied and t.margin == 0


def test_vote_rejects_non_simplex_rows():
    cfg = cfg_for()
    bad = np.full((4, 3), 0.5)
    with pytest.raises(ContractError):
        vote(bad, cfg)
    # same rows pass when raw scores are thresholded
    vote(bad, cfg_for(threshold_on="logits"))


def test_vote_rejects_non_finite():
    cfg = cfg_for(threshold_on="logits")
    bad = np.zeros((4, 2))
    bad[1, 0] = np.nan
    with pytest.raises(ContractError):
        vote(bad, cfg)


def test_certified_against_boundary_is_strict():
    cfg = cfg_for()
    # delta = m + b - 1 = 2 + 2 - 1 = 3, so margin must exceed 6
    at_bound = vote(table_from_counts([7, 1], w=8), cfg)     # margin 6
    above = vote(table_from_counts([8, 1], w=9), cfg)        # margin 7
    assert at_bound.margin == 6
    assert not certified_against(at_bound, 2, 2)
    assert above.margin == 7
    assert certified_against(above, 2, 2)


def test_tied_tables_are_never_certified():
    t = VoteTable(scores=np.zeros((4, 2)), votes=np.array([2, 2]),
                  predicted=0, runner_up=1, margin=0, tied=True)
    assert not certified_against(t, 1, 1)
    assert max_certified_patch_width(t, 1, 4) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 32), st.integers(1, 4), st.data())
def test_max_certified_width_agrees_with_the_predicate(w, b, data):
    c = data.draw(st.integers(2, 5))
    counts = data.draw(st.lists(st.integers(0, w), min_size=c, max_size=c))
    if sum(counts) > 0:
        counts[0] = max(counts)  # keep a deterministic argmax winner
    t = vote(table_from_counts_padded(counts, w), cfg_for(band_width=b))
    m_star = max_certified_patch_width(t, b, w)
    if m_star > 0:
        assert certified_against(t, m_star, b)
    if m_star < w - b + 1:
        assert not certified_against(t, m_star + 1, b)


def table_from_counts_padded(counts, w):
    counts = list(counts)
    total = sum(counts)
    if total > w:
        # trim overflow from the largest entries
        while sum(counts) > w:
            counts[int(np.argmax(counts))] -= 1
    return table_from_counts(counts, w)


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 24), st.integers(1, 24), st.integers(1, 5),
       st.integers(0, 23), st.booleans())
def test_affected_positions_match_brute_force(w, b, m, col, wrap):
    """The closed form against column-by-column intersection, band widths
    up to w so that m + b - 1 >= w saturates."""
    b = (b - 1) % w + 1
    col = col % w
    got = affected_positions(col, m, b, w, wrap).tolist()
    patch = {(col + j) % w if wrap else col + j for j in range(m)}
    patch = {c for c in patch if c < w}
    brute = set()
    for p in range(w):
        cols = {(p + j) % w for j in range(b)} if wrap else \
               set(range(p, min(p + b, w)))
        if cols & patch:
            brute.add(p)
    assert got == sorted(brute)  # ascending, each position once
    if wrap:
        assert len(got) == min(w, m + b - 1)


def test_evaluate_records_and_summary(small_params):
    params = small_params
    cfg = params.cfg
    plan = plan_windows(cfg, 2)
    ccfg = CertifyConfig(band_width=2, patch_shapes=((1, 1), (2, 2)))
    rng = np.random.default_rng(0)
    imgs = rng.random((5, 3, cfg.image_side, cfg.image_side))
    ys = rng.integers(0, cfg.num_classes, 5)
    res = evaluate(imgs, ys, params, plan, ccfg)
    assert len(res.records) == 5
    rec = res.records[0]
    assert set(rec) == {"image_id", "label", "predicted", "abstained", "votes",
                        "margin", "certified", "max_certified_m"}
    assert set(rec["certified"]) == {"1x1", "2x2"}
    s = res.summary
    assert s["num_images"] == 5
    assert 0.0 <= s["clean_accuracy"] <= 1.0
    assert set(s["certified_accuracy"]) == {"1x1", "2x2"}
    # a wider patch can never certify more images than a narrower one
    assert s["certified_accuracy"]["2x2"] <= s["certified_accuracy"]["1x1"]
    assert s["forwards_per_image"] == plan.num_forwards
    assert set(res.seconds) == {"score", "vote"}


def test_evaluate_rejects_plan_config_mismatch(small_params):
    params = small_params
    plan = plan_windows(params.cfg, 2)
    with pytest.raises(ContractError):
        evaluate(np.zeros((1, 3, 8, 8)), np.zeros(1, dtype=int), params, plan,
                 CertifyConfig(band_width=3))


def test_evaluate_rejects_zero_images(small_params):
    plan = plan_windows(small_params.cfg, 2)
    with pytest.raises(ContractError):
        evaluate(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int), small_params, plan,
                 CertifyConfig(band_width=2))


@pytest.mark.parametrize("labels", [
    np.zeros(2, dtype=int),
    np.zeros(4, dtype=int),
    np.zeros((3, 2), dtype=int),
    np.zeros((3, 1), dtype=int),
    np.zeros(3),
    np.array([True, False, True]),
    np.array([0, 1, 3]),
    np.array([0, -1, 2]),
], ids=["short", "extra", "2d", "column", "float", "bool", "class_3_of_3", "negative"])
def test_evaluate_rejects_malformed_labels(small_params, labels):
    plan = plan_windows(small_params.cfg, 2)
    imgs = np.random.default_rng(1).random((3, 3, 8, 8))
    with pytest.raises(ContractError, match="^evaluate: "):
        evaluate(imgs, labels, small_params, plan, CertifyConfig(band_width=2))


def test_softmax_scores_rows_are_distributions():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((6, 4)) * 30
    probs = softmax_scores(logits)
    assert (probs > 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_config_rejects_a_repeated_patch_shape():
    # evaluate keys its counters by shape, so a repeat would count twice
    with pytest.raises(ContractError, match="patch shape 1x1 is listed twice"):
        cfg_for(patch_shapes=((1, 1), (2, 2), (1, 1)))
    assert cfg_for(patch_shapes=((1, 1), (2, 2))).patch_shapes == ((1, 1), (2, 2))
