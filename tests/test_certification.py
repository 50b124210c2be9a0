import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert.certification import (CertifyConfig, affected_positions,
                                    certified_against, evaluate,
                                    max_certified_patch_width, softmax_scores,
                                    tally, vote)
from bandcert.errors import ContractError
from bandcert.model import ModelParams, batched_certify_forward, plan_windows
from bandcert.smoothing import BandSpec


def cfg_for(w=8, **kw):
    base = dict(band_width=2, threshold=0.2)
    base.update(kw)
    return CertifyConfig(**base)


def counts_cfg(**kw):
    """Thresholds logits at 0.5, the config ``table_from_counts`` is voted by."""
    return cfg_for(threshold=0.5, threshold_on="logits", **kw)


def table_from_counts(counts, w):
    """Build a (w, C) logit table whose votes under ``counts_cfg`` match
    counts: one position per vote, positions left over voting for none."""
    counts = np.asarray(counts)
    logits = np.zeros((w, counts.size))
    logits[np.arange(counts.sum()), np.repeat(np.arange(counts.size), counts)] = 1.0
    return logits


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
    t = vote(table_from_counts([3, 3, 0], w=8), counts_cfg())
    assert t.votes.tolist() == [3, 3, 0]
    assert t.predicted == 0
    assert t.tied and t.margin == 0 and t.decision == -1


def test_vote_rejects_non_finite():
    cfg = cfg_for(threshold_on="logits")
    bad = np.zeros((4, 2))
    bad[1, 0] = np.nan
    with pytest.raises(ContractError):
        vote(bad, cfg)


def test_vote_refuses_a_table_without_positions():
    for threshold_on in ("probs", "logits"):
        cfg = cfg_for(threshold_on=threshold_on)
        for shape in [(0, 3), (2, 0, 3)]:
            with pytest.raises(ContractError, match=r"^vote: expected \(positions, classes\)"):
                vote(np.zeros(shape), cfg)
        # a stack of no tables votes no tables
        t = vote(np.zeros((0, 4, 3)), cfg)
        assert t.votes.shape == (0, 3) and t.margin.shape == t.decision.shape == (0,)


def test_certified_against_boundary_is_strict():
    cfg = counts_cfg()
    # delta = m + b - 1 = 2 + 2 - 1 = 3, so margin must exceed 6
    at_bound = vote(table_from_counts([7, 1], w=8), cfg)     # margin 6
    above = vote(table_from_counts([8, 1], w=9), cfg)        # margin 7
    assert at_bound.margin == 6
    assert not certified_against(at_bound.margin, 2, 2)
    assert above.margin == 7
    assert certified_against(above.margin, 2, 2)


def test_tied_tables_are_never_certified():
    t = tally(np.array([2, 2]))
    assert t.tied and t.decision == -1
    assert not certified_against(t.margin, 1, 1)
    assert max_certified_patch_width(t.margin, 1, 4) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 32), st.integers(1, 4), st.data())
def test_max_certified_width_agrees_with_the_predicate(w, b, data):
    c = data.draw(st.integers(2, 5))
    counts = data.draw(st.lists(st.integers(0, w), min_size=c, max_size=c))
    if sum(counts) > 0:
        counts[0] = max(counts)  # keep a deterministic argmax winner
    t = vote(table_from_counts_padded(counts, w), counts_cfg(band_width=b))
    m_star = max_certified_patch_width(t.margin, b, w)
    if m_star > 0:
        assert certified_against(t.margin, m_star, b)
    if m_star < w - b + 1:
        assert not certified_against(t.margin, m_star + 1, b)


def reference_vote(logits, cfg):
    """The rule written out position by position: each position's scores
    are ``softmax_scores`` of its logits, or the logits in 'logits' mode;
    it votes for each class strictly above the threshold. Returns the
    counts, the lowest-id class with the most votes and its margin."""
    counts = [0] * logits.shape[-1]
    for row in logits:
        scores = row if cfg.threshold_on == "logits" else softmax_scores(row)
        for cls, score in enumerate(scores.tolist()):
            counts[cls] += score > cfg.threshold
    top, second = sorted(range(len(counts)), key=lambda cls: (-counts[cls], cls))[:2]
    return counts, top, counts[top] - counts[second]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 12), st.integers(2, 7),
       st.sampled_from(["probs", "logits"]), st.integers(0, 2**32 - 1))
def test_a_stack_votes_as_its_tables_do(n, w, c, threshold_on, seed):
    """``vote`` on an (n, w, C) stack of logits gives, table by table, what
    it gives on each (w, C) table, and what the rule written out position
    by position gives: ties, positions with no vote or several, and scores
    exactly at the threshold included."""
    rng = np.random.default_rng(seed)
    if threshold_on == "logits":
        # small integers put many logits on the threshold and many rows tie
        logits = rng.integers(-2, 3, size=(n, w, c)).astype(float)
        cfg = cfg_for(threshold=0.0, threshold_on="logits")
    else:
        # equal logits score exactly 1 / C; past five classes a position
        # can stay below 0.2 everywhere
        logits = rng.normal(size=(n, w, c)) * rng.choice([0.0, 1.0, 4.0])
        cfg = cfg_for(threshold=rng.choice([0.05, 1 / c, 0.2, 0.9]))
    stack = vote(logits, cfg)
    assert stack.votes.shape == (n, c)
    assert stack.predicted.shape == stack.margin.shape == (n,)
    for i in range(n):
        one = vote(logits[i], cfg)
        assert np.ndim(one.predicted) == np.ndim(one.margin) == 0
        assert stack.votes[i].tolist() == one.votes.tolist()
        for name in ("predicted", "margin", "tied", "decision"):
            assert getattr(stack, name)[i] == getattr(one, name), name
        counts, top, margin = reference_vote(logits[i], cfg)
        assert (one.votes.tolist(), one.predicted, one.margin) == (counts, top, margin)


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
    # every record, key order included, is what one table's vote and the
    # bound give
    logits, _ = batched_certify_forward(imgs, params, plan)
    for i, rec in enumerate(res.records):
        t = vote(logits[i], ccfg)
        want = {
            "image_id": i, "label": int(ys[i]), "predicted": int(t.predicted),
            "abstained": bool(t.tied), "votes": t.votes.tolist(), "margin": int(t.margin),
            "certified": {"1x1": bool(certified_against(t.margin, 1, 2)),
                          "2x2": bool(certified_against(t.margin, 2, 2))},
            "max_certified_m": int(max_certified_patch_width(t.margin, 2, cfg.image_side))}
        assert list(rec.items()) == list(want.items())
        assert all(type(rec[k]) is int for k in ("image_id", "label", "predicted",
                                                  "margin", "max_certified_m"))
        assert type(rec["abstained"]) is bool
        assert all(type(ok) is bool for ok in rec["certified"].values())
    assert type(s["mean_margin"]) is float
    assert s["mean_margin"] == np.mean([rec["margin"] for rec in res.records])


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
