"""The fused encoder primitives against the unfused chains they replace.

Each chain below is composed on a tape from the primitives that survive as
the reference (matmul, add, mul, layer_norm, softmax_lastdim, split_heads,
merge_heads, concat, reshape, embedding_lookup). A fused primitive must give
the same output and the same gradient for every input, byte for byte, and a
tape that uses one weight several times must accumulate its gradient in the
same order.
"""

import math

import numpy as np
import pytest

from bandcert import autodiff as ad
from bandcert import model
from bandcert.autodiff import Tape, Tensor, record
from bandcert.errors import NumericError
from bandcert.model import ModelConfig, ModelParams, forward_global, forward_windows, plan_windows


def chain_embed(patches, weight, cls_token, pos_embed, pos_ids=None):
    d = weight.shape[1]
    proj = ad.matmul(Tensor(patches), weight)
    cls = ad.reshape(cls_token, (1, 1, d))
    zeros = Tensor(np.zeros((patches.shape[0], 1, d), dtype=patches.dtype))
    h = ad.concat([ad.add(zeros, cls), proj], axis=1)
    rows = pos_embed if pos_ids is None else ad.embedding_lookup(pos_embed, pos_ids)
    return ad.add(h, rows)


def chain_linear(x, weight, bias):
    return ad.add(ad.matmul(x, weight), bias)


def chain_affine_layer_norm(x, gamma, beta):
    return ad.add(ad.mul(ad.layer_norm(x), gamma), beta)


def chain_attention(q, k, v, num_heads, bias=None):
    scale = Tensor(np.asarray(1.0 / math.sqrt(q.shape[-1] // num_heads), dtype=q.dtype))
    q, k, v = (ad.split_heads(t, num_heads) for t in (q, k, v))
    scores = ad.mul(ad.matmul(q, k, transpose_b=True), scale)
    if bias is not None:
        scores = ad.add(scores, Tensor(bias))
    return ad.merge_heads(ad.matmul(ad.softmax_lastdim(scores), v))


def leaf(rng, shape, dtype):
    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


def taped(build, leaves, weights):
    """``build()`` on a tape, then backward from mean(output * weights):
    the output and the gradient of every leaf."""
    tape = Tape()
    with record(tape):
        out = build()
        loss = ad.mean(ad.mul(out, Tensor(weights.astype(out.dtype))))
    grads = ad.backward(tape, loss)
    return [out.data] + [grads[t].data for t in leaves]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), i
        assert a.tobytes() == b.tobytes(), f"array {i} differs"


def compare(fused, chain, leaves, out_shape, rng):
    weights = rng.standard_normal(out_shape)
    assert_same_bytes(taped(fused, leaves, weights), taped(chain, leaves, weights))


DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("ids", ["none", "shared", "per-sample"])
def test_embed_matches_its_chain(dtype, batch, ids):
    rng = np.random.default_rng([batch, len(ids)])
    k, p, d = 4, 6, 8
    patches = rng.standard_normal((batch, k, p)).astype(dtype)
    table_rows = k + 1 if ids == "none" else 9
    leaves = [leaf(rng, (p, d), dtype), leaf(rng, (d,), dtype),
              leaf(rng, (table_rows, d), dtype)]
    pos_ids = {"none": None,
               "shared": np.array([0, 3, 1, 8, 3]),  # repeats scatter-add twice
               "per-sample": rng.integers(0, 9, size=(batch, k + 1))}[ids]
    compare(lambda: ad.embed(patches, *leaves, pos_ids),
            lambda: chain_embed(patches, *leaves, pos_ids), leaves, (batch, k + 1, d), rng)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lead", [(1, 7), (5, 7), (5, 1), (13,)],
                         ids=["batch1", "batch5", "class-row", "flat-rows"])
def test_linear_matches_its_chain(dtype, lead):
    rng = np.random.default_rng(len(lead) + lead[0])
    leaves = [leaf(rng, lead + (8,), dtype), leaf(rng, (8, 6), dtype), leaf(rng, (6,), dtype)]
    compare(lambda: ad.linear(*leaves), lambda: chain_linear(*leaves), leaves,
            lead + (6,), rng)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lead", [(1, 7), (5, 7), (5, 1)], ids=["batch1", "batch5", "class-row"])
def test_affine_layer_norm_matches_its_chain(dtype, lead):
    rng = np.random.default_rng(lead[0] * 10 + lead[1])
    leaves = [leaf(rng, lead + (8,), dtype), leaf(rng, (8,), dtype), leaf(rng, (8,), dtype)]
    leaves[0] = Tensor(leaves[0].data * 3 + 1, requires_grad=True)
    compare(lambda: ad.affine_layer_norm(*leaves), lambda: chain_affine_layer_norm(*leaves),
            leaves, lead + (8,), rng)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("queries", ["every-row", "class-row"])
def test_attention_matches_its_chain(dtype, batch, masked, queries):
    rng = np.random.default_rng([batch, masked, len(queries)])
    rows, d, heads = 6, 12, 2  # 1/sqrt(6) rounds, so where it multiplies shows
    lq = rows if queries == "every-row" else 1
    leaves = [leaf(rng, (batch, lq, d), dtype), leaf(rng, (batch, rows, d), dtype),
              leaf(rng, (batch, rows, d), dtype)]
    bias = None
    if masked:
        bias = np.where([1, 0, 1, 1, 0, 1], 0.0, ad.MASK_OFF).astype(dtype)
    compare(lambda: ad.attention(*leaves, heads, bias),
            lambda: chain_attention(*leaves, heads, bias), leaves, (batch, lq, d), rng)


class _ChainOps(model._TapeOps):
    """The encoder's tape vocabulary as the unfused chains."""

    def embed(self, patches, pos_ids):
        return chain_embed(np.ascontiguousarray(patches, dtype=self.params.dtype),
                           self.params["patch_embed.weight"], self.params["cls_token"],
                           self.params["pos_embed"], pos_ids)

    def affine_ln(self, x, prefix):
        return chain_affine_layer_norm(x, self.params[prefix + ".gamma"],
                                       self.params[prefix + ".beta"])

    def linear(self, x, weight, bias):
        return chain_linear(x, self.params[weight], self.params[bias])

    def attention(self, q, k, v):
        return chain_attention(q, k, v, self.params.cfg.num_heads, self.bias)


@pytest.mark.parametrize("dtype", DTYPES)
def test_one_tape_reusing_every_weight_accumulates_like_the_chain(dtype, monkeypatch):
    # Per encoder call, `pre` fans out into q/k/v and `h` into a layer norm
    # and the residual; across the calls every weight is used four times
    # (a masked global forward with every row, an unmasked one, and two
    # window widths), so the order its gradients sum in shows.
    cfg = ModelConfig(image_side=12, patch_size=4, embed_dim=12, num_layers=2,
                      num_heads=2, mlp_ratio=2.0, num_classes=3, codebook_size=4)
    params = ModelParams.init(cfg, seed=3).cast(dtype, trainable=True)
    rng = np.random.default_rng(4)
    inputs = rng.random((3, 4, 12, 12)).astype(dtype)
    images = rng.random((3, 3, 12, 12)).astype(dtype)
    positions = np.array([[0, 3], [3, 5], [7, 10]])  # windows of 1 and 2 columns
    plan = plan_windows(cfg, 2)
    allowed = np.ones(cfg.seq_len, dtype=bool)
    allowed[[2, 5]] = False
    targets = rng.standard_normal((3, cfg.seq_len, cfg.embed_dim))

    def run():
        tape = Tape()
        with record(tape):
            acts = forward_global(inputs, params, allowed, tokens=True)
            loss = ad.mean(ad.mul(acts.tokens_out, Tensor(targets.astype(dtype))))
            loss = ad.add(loss, ad.mean(forward_global(inputs, params).logits))
            for rows, logits in forward_windows(images, positions, params, plan):
                loss = ad.add(loss, ad.cross_entropy(logits, rows % 3))
        grads = ad.backward(tape, loss)
        return [loss.data] + [grads[t].data for t in params.tensors.values()]

    fused = run()
    monkeypatch.setattr(model, "_TapeOps", _ChainOps)
    assert_same_bytes(fused, run())


def test_a_minus_inf_score_raises_though_softmax_would_hide_it():
    # softmax turns a -inf score into a finite 0, so the chain's softmax
    # output alone would pass; the fused op scans the scores themselves
    assert np.isfinite(ad.softmax_lastdim(Tensor(np.array([[-np.inf, 0.0]]))).data).all()
    q = Tensor(np.full((1, 1, 2), 1e200), requires_grad=True)
    k = Tensor(np.array([[[-1e200, -1e200], [0.0, 0.0]]]), requires_grad=True)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="^attention: produced non-finite values$"):
            ad.attention(q, k, k, 1)
    finite = Tensor(np.zeros((1, 2, 2)), requires_grad=True)
    with pytest.raises(NumericError, match="^attention: produced non-finite values$"):
        ad.attention(finite, finite, finite, 2, np.array([-np.inf, 0.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("op", ["embed", "linear", "affine_layer_norm"])
def test_a_non_finite_output_names_the_fused_op(op):
    big = np.finfo(np.float64).max
    ones = Tensor(np.ones(2), requires_grad=True)
    run = {
        "embed": lambda: ad.embed(np.full((1, 1, 2), big), Tensor(np.full((2, 2), big)),
                                  ones, Tensor(np.zeros((2, 2)))),
        "linear": lambda: ad.linear(Tensor(np.full((1, 2), big)), Tensor(np.eye(2) * big),
                                    ones),
        "affine_layer_norm": lambda: ad.affine_layer_norm(
            Tensor(np.array([[0.0, 1.0]])), Tensor(np.full(2, big)), Tensor(np.full(2, big))),
    }[op]
    with pytest.raises(NumericError, match=f"^{op}: produced non-finite values$"):
        run()
