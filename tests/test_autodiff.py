import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandcert import autodiff as ad
from bandcert.autodiff import AdamW, Tape, Tensor, record
from bandcert.errors import ContractError, NumericError, ShapeError

import chain_ops as co


def grad_of(fn, x):
    """Tape gradient of a scalar-valued fn at x."""
    t = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    tape = Tape()
    with record(tape):
        loss = fn(t)
    grads = ad.backward(tape, loss)
    return grads[t].data


def test_matmul_transpose_flags_match_explicit_transpose():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((5, 4)))
    out = co.matmul(a, b, transpose_b=True)
    np.testing.assert_array_equal(out.data, a.data @ b.data.T)


def test_matmul_inner_dim_mismatch_raises():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        co.matmul(a, b)


def test_softmax_rows_are_distributions():
    x = Tensor(np.random.default_rng(1).standard_normal((6, 9)))
    s = co.softmax_lastdim(x).data
    assert (s > 0).all()
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_norm_centers_and_scales_rows():
    x = Tensor(np.random.default_rng(2).standard_normal((4, 7, 16)) * 3 + 5)
    y = co.layer_norm(x).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-2)


def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((5, 4))
    targets = rng.integers(0, 4, size=5)
    got = ad.cross_entropy(Tensor(logits), targets).item()
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    want = -logp[np.arange(5), targets].mean()
    assert abs(got - want) < 1e-12


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_output_raises_numeric_error():
    x = Tensor(np.array([1e308, 1e308]))
    with pytest.raises(NumericError):
        ad.mul(x, x)


def test_backward_composed_graph_matches_finite_difference():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((6, 3))

    def fn(t):
        h = co.matmul(t, Tensor(w))
        h = ad.gelu(h)
        return ad.mean(ad.mul(h, h))

    x = rng.standard_normal((2, 6))
    g = grad_of(fn, x)
    err = ad.check_gradient(fn, x, probes=10, seed=5)
    assert err < 1e-6
    assert g.shape == x.shape


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_add_unbroadcasts_gradients(n, m, k):
    rng = np.random.default_rng(n * 16 + m * 4 + k)
    a = Tensor(rng.standard_normal((n, m, k)), requires_grad=True)
    b = Tensor(rng.standard_normal((m, k)), requires_grad=True)
    tape = Tape()
    with record(tape):
        loss = ad.mean(ad.add(a, b))
    grads = ad.backward(tape, loss)
    assert grads[a].data.shape == (n, m, k)
    assert grads[b].data.shape == (m, k)
    # every element feeds the mean exactly once per broadcast copy
    np.testing.assert_allclose(grads[b].data, n / (n * m * k), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6))
def test_embedding_lookup_gathers_rows(rows, picks):
    rng = np.random.default_rng(rows * 7 + picks)
    table = Tensor(rng.standard_normal((rows, 3)))
    idx = rng.integers(0, rows, size=picks)
    out = ad.embedding_lookup(table, idx)
    np.testing.assert_array_equal(out.data, table.data[idx])


def test_embedding_lookup_gradient_accumulates_repeats():
    table = np.zeros((3, 2))
    idx = np.array([1, 1, 2])

    def fn(t):
        return ad.mean(ad.embedding_lookup(t, idx))

    g = grad_of(fn, table)
    # row 1 is picked twice, row 2 once, row 0 never
    np.testing.assert_allclose(g[1], 2 / 6)
    np.testing.assert_allclose(g[2], 1 / 6)
    np.testing.assert_allclose(g[0], 0.0)


def test_concat_slice_roundtrip_and_grads():
    rng = np.random.default_rng(6)
    parts = [rng.standard_normal((2, k, 3)) for k in (1, 2, 4)]

    def fn(t):
        whole = co.concat([t, Tensor(parts[1]), Tensor(parts[2])], axis=1)
        piece = ad.slice_axis(whole, 1, 0, 1)
        return ad.mean(piece)

    err = ad.check_gradient(fn, parts[0], probes=6, seed=7)
    assert err < 1e-7


def test_split_merge_heads_match_per_head_slices():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((2, 5, 6)))
    heads = co.split_heads(x, 3)
    assert heads.shape == (2, 3, 5, 2) and heads.data.flags.c_contiguous
    for j in range(3):
        np.testing.assert_array_equal(heads.data[:, j], x.data[..., 2 * j:2 * j + 2])
    np.testing.assert_array_equal(co.merge_heads(heads).data, x.data)
    with pytest.raises(ShapeError):
        co.split_heads(x, 4)  # 4 does not divide 6
    with pytest.raises(ShapeError):
        co.split_heads(Tensor(np.zeros((5, 6))), 3)
    with pytest.raises(ShapeError):
        co.merge_heads(x)


def test_adamw_requires_exact_gradient_coverage():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    opt = AdamW(lr=0.1)
    with pytest.raises(ContractError):
        opt.step({"p": p, "q": q}, {p: Tensor(np.ones(3))})
    with pytest.raises(ContractError):
        opt.step({"p": p}, {p: Tensor(np.ones(3)), q: Tensor(np.ones(3))})


def test_adamw_decoupled_decay_shrinks_without_gradient_signal():
    p = Tensor(np.full(4, 10.0), requires_grad=True)
    opt = AdamW(lr=0.5, weight_decay=0.1)
    fresh = opt.step({"p": p}, {p: Tensor(np.zeros(4))})
    assert (np.abs(fresh["p"].data) < 10.0).all()


def test_adamw_is_deterministic_and_respects_lr_scale():
    def run(scale):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW(lr=0.2)
        out = opt.step({"p": p}, {p: Tensor(np.full(3, 0.7))}, lr_scale=scale)
        return out["p"].data
    a, b = run(1.0), run(1.0)
    np.testing.assert_array_equal(a, b)
    half = run(0.5)
    np.testing.assert_allclose(np.ones(3) - half, (np.ones(3) - a) * 0.5, atol=1e-12)


def _per_tensor_adamw(params, grad_steps, lr, weight_decay, lr_scales):
    """AdamW as a loop over the tensors, one moment pair each."""
    b1, b2 = ad.ADAM_BETAS
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    for t, (grads, scale) in enumerate(zip(grad_steps, lr_scales), start=1):
        fresh = {}
        for name, p in params.items():
            g = grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
            mhat = m[name] / (1.0 - b1 ** t)
            vhat = v[name] / (1.0 - b2 ** t)
            fresh[name] = p - lr * scale * (mhat / (np.sqrt(vhat) + ad.ADAM_EPS)
                                            + weight_decay * p)
        params = fresh
    return params


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_flat_adamw_matches_per_tensor_reference_bytes(dtype):
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 3), "b": (3,), "s": (), "k": (2, 1, 5)}
    params = {n: np.asarray(rng.standard_normal(s), dtype=dtype) for n, s in shapes.items()}
    grad_steps = [{n: np.asarray(rng.standard_normal(s) * 10.0 ** rng.integers(-4, 3),
                                 dtype=dtype)
                   for n, s in shapes.items()} for _ in range(5)]
    scales = [0.2, 0.6, 1.0, 1.0, 0.35]
    want = _per_tensor_adamw(params, grad_steps, 0.05, 0.1, scales)

    opt = AdamW(lr=0.05, weight_decay=0.1)
    cur = {n: Tensor(p, requires_grad=True) for n, p in params.items()}
    for grads, scale in zip(grad_steps, scales):
        cur = opt.step(cur, {cur[n]: Tensor(g) for n, g in grads.items()}, lr_scale=scale)
    assert list(cur) == list(shapes)
    for name in shapes:
        got = cur[name].data
        assert got.dtype == dtype and got.shape == shapes[name]
        assert got.tobytes() == want[name].tobytes(), name


def test_adamw_names_the_tensor_with_a_non_finite_update():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones((2, 2)), requires_grad=True)
    r = Tensor(np.ones(2), requires_grad=True)
    opt = AdamW(lr=0.1)
    bad = np.ones((2, 2))
    bad[1, 0] = np.inf
    with pytest.raises(NumericError, match="'q'"), np.errstate(invalid="ignore"):
        opt.step({"p": p, "q": q, "r": r},
                 {p: Tensor(np.ones(3)), q: Tensor(bad), r: Tensor(np.full(2, np.nan))})


def test_adamw_parameter_set_is_fixed_by_the_first_step():
    def fresh(*shapes):
        return [Tensor(np.ones(s), requires_grad=True) for s in shapes]

    def grads_for(*ts):
        return {t: Tensor(np.ones(t.shape, dtype=t.dtype)) for t in ts}

    opt = AdamW(lr=0.1)
    p, q = fresh(3, 2)
    out = opt.step({"p": p, "q": q}, grads_for(p, q))
    out = opt.step(out, grads_for(*out.values()))  # the same set again is fine
    changed = [
        {"q": out["q"], "p": out["p"]},                  # order
        {"p": out["p"], "r": out["q"]},                  # a name
        {"p": out["p"]},                                 # a dropped tensor
        dict(zip("pq", fresh(3, (1, 2)))),               # a shape
    ]
    for params in changed:
        with pytest.raises(ContractError, match="first step"):
            opt.step(params, grads_for(*params.values()))
    p32, q32 = (Tensor(t.data.astype(np.float32), requires_grad=True)
                for t in out.values())
    with pytest.raises(ContractError, match="first step"):
        opt.step({"p": p32, "q": q32}, grads_for(p32, q32))
    assert opt.step_count == 2


def test_adamw_rejects_mixed_dtypes():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ContractError, match="mix dtypes"):
        AdamW(lr=0.1).step({"p": p, "q": q}, {p: Tensor(np.ones(3)),
                                              q: Tensor(np.ones(2, dtype=np.float32))})
    with pytest.raises(ContractError, match="mix dtypes"):
        AdamW(lr=0.1).step({"p": p}, {p: Tensor(np.ones(3, dtype=np.float32))})


@pytest.mark.parametrize("case", ["matmul", "softmax", "layer_norm", "gelu",
                                  "cross_entropy", "mean"])
def test_primitive_gradients_quick(case):
    rng = np.random.default_rng(8)
    if case == "matmul":
        w = rng.standard_normal((5, 2))
        fn = lambda t: ad.mean(co.matmul(t, Tensor(w)))
        x = rng.standard_normal((3, 5))
    elif case == "softmax":
        w = rng.standard_normal((2, 6))
        fn = lambda t: ad.mean(ad.mul(co.softmax_lastdim(t), Tensor(w)))
        x = rng.standard_normal((2, 6))
    elif case == "layer_norm":
        w = rng.standard_normal((3, 8))
        fn = lambda t: ad.mean(ad.mul(co.layer_norm(t), Tensor(w)))
        x = rng.standard_normal((3, 8))
    elif case == "gelu":
        fn = lambda t: ad.mean(ad.gelu(t))
        x = rng.standard_normal((4, 4))
    elif case == "cross_entropy":
        ys = rng.integers(0, 3, size=4)
        fn = lambda t: ad.cross_entropy(t, ys)
        x = rng.standard_normal((4, 3))
    else:
        fn = ad.mean
        x = rng.standard_normal((3, 3))
    assert ad.check_gradient(fn, x, probes=8, seed=9) < 1e-5


def _chain_cases():
    """The chain primitives' gradient cases on the inputs the
    finite-difference oracle draws first from its seed-0 generator."""
    rng = np.random.default_rng([0, 0xFD])
    a34 = rng.normal(size=(3, 4))
    b45 = rng.normal(size=(4, 5))
    b54 = rng.normal(size=(5, 4))
    x24 = rng.normal(size=(2, 4))
    y24 = rng.normal(size=(2, 4))
    return {
        "matmul": (lambda t: ad.mean(co.matmul(t, Tensor(b45))), a34),
        "matmul_tb": (lambda t: ad.mean(co.matmul(t, Tensor(b54), transpose_b=True)), a34),
        "softmax_lastdim": (lambda t: ad.mean(ad.mul(co.softmax_lastdim(t),
                                                     Tensor(y24))), x24),
        "layer_norm": (lambda t: ad.mean(ad.mul(co.layer_norm(t), Tensor(y24))), x24),
        "concat": (lambda t: ad.mean(ad.mul(co.concat([t, Tensor(y24)], axis=0),
                                            Tensor(np.vstack([y24, x24])))), x24),
        "split_heads": (lambda t: ad.mean(ad.mul(co.split_heads(t, 2),
                                                 Tensor(y24.reshape(1, 2, 2, 2)))),
                        x24.reshape(1, 2, 4)),
        "merge_heads": (lambda t: ad.mean(ad.mul(co.merge_heads(t),
                                                 Tensor(y24.reshape(1, 2, 4)))),
                        x24.reshape(1, 2, 2, 2)),
    }


@pytest.mark.parametrize("case", list(_chain_cases()))
def test_chain_op_gradients_at_gate_5_strength(case):
    # gate 5's probe count, step and bound, on the oracle's inputs and
    # probe seed
    fn, x = _chain_cases()[case]
    assert ad.check_gradient(fn, x, probes=100, seed=1, h=1e-5) < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", ["embed", "linear", "affine_layer_norm", "attention", "gelu"])
def test_fused_ops_leave_their_operands_and_output_alone(op, dtype):
    # The forward kernels compute in place. One that wrote into an operand
    # on the tape would corrupt what backward reads, and a backward that
    # wrote into the output would corrupt what later ops read.
    rng = np.random.default_rng(len(op))

    def t(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    patches = rng.standard_normal((2, 3, 5)).astype(dtype)
    bias = np.where([1, 0, 1, 1], 0.0, ad.MASK_OFF).astype(dtype)
    x = t(2, 4, 6)
    inputs, run = {
        "embed": ([t(5, 6), t(6), t(9, 6)],
                  lambda w, c, p: ad.embed(patches, w, c, p, np.array([0, 3, 1, 8]))),
        "linear": ([x, t(6, 4), t(4)], ad.linear),
        "affine_layer_norm": ([x, t(6), t(6)], ad.affine_layer_norm),
        "attention": ([x, t(2, 4, 6), t(2, 4, 6)],
                      lambda q, k, v: ad.attention(q, k, v, 2, bias)),
        "gelu": ([x], ad.gelu),
    }[op]
    arrays = [a.data for a in inputs] + [patches, bias]
    before = [a.copy() for a in arrays]
    tape = Tape()
    with record(tape):
        out = run(*inputs)
        loss = ad.mean(ad.mul(out, Tensor(rng.standard_normal(out.shape).astype(dtype))))
    forward = out.data.copy()
    grads = ad.backward(tape, loss)
    assert all(grads[a].shape == a.shape for a in inputs)
    for i, (a, b) in enumerate(zip(arrays, before)):
        assert a.tobytes() == b.tobytes(), f"operand {i} changed"
    assert out.data.tobytes() == forward.tobytes()
