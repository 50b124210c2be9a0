"""Dense-tensor engine with tape-based reverse-mode differentiation.

Deliberately small: exactly the primitives a compact transformer needs. Arrays
are numpy, float64 for training (so finite-difference checks are meaningful)
and float32 for inference. A Tensor is immutable once created; recording
happens on an explicitly activated Tape, and ``backward`` walks the tape in
reverse to return a gradient map for the leaves.

The primitive set is what the program runs. The model's encoder
vocabulary is ``embed``, ``linear``, ``affine_layer_norm`` and
``attention``, each one fused tape entry with a hand-written backward,
beside ``gelu``, ``add``, ``reshape`` and ``slice_axis``. Training's losses
add ``mul``, ``embedding_lookup`` and ``cross_entropy``, and the gradient
oracle's add ``mean``. The fused ops and ``gelu`` run one private forward
kernel each, shared with the model's plain path. A fused op makes the
numpy calls of the chain of small primitives it replaces (matmul, add,
mul, layer_norm, softmax_lastdim, split_heads, merge_heads, concat,
reshape, embedding_lookup), forward and backward, so its gradients are
that chain's bit for bit. The chain's primitives that nothing here calls
live in ``tests/chain_ops.py``, as the reference the tests compare the
fused ops against.

Every primitive validates operand shapes up front and checks its output for
NaN/Inf, so a numerical blow-up surfaces at the op that produced it instead
of three modules later. A fused op scans only its output, because with
finite parameters a non-finite intermediate stays non-finite up to there;
``attention`` also scans its pre-softmax scores, since softmax maps a -inf
score to a finite 0. The model's encoder calls these primitives only
while a tape is recording (``recording()``), so the per-op checks apply
only then; without a tape it runs the same kernels on plain arrays and
checks once per encoder stage: the embedding, each block, the head (see
``model``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError, ShapeError

TRAIN_DTYPE = np.float64
INFER_DTYPE = np.float32

# Additive attention-mask value: finite (keeps the all-finite invariant),
# but exp(x - max) underflows to exactly 0.0 for masked columns.
MASK_OFF = -1.0e30

LN_EPS = 1e-8

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Tensor:
    """Immutable dense array plus a requires_grad flag."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if not isinstance(data, np.ndarray):
            raise ShapeError(f"Tensor wants an ndarray, got {type(data).__name__}")
        if data.dtype not in (np.float32, np.float64):
            raise ShapeError(f"Tensor dtype must be float32/float64, got {data.dtype}")
        self.data = data
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"


class TapeEntry:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor,
                 backward_fn: Callable[[np.ndarray], tuple]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Append-only op record. Entries are in execution (topological) order."""

    def __init__(self):
        self.entries: list[TapeEntry] = []


_ACTIVE_TAPE: Tape | None = None


@contextmanager
def record(tape: Tape):
    """Activate ``tape`` so primitives append their entries to it."""
    global _ACTIVE_TAPE
    if _ACTIVE_TAPE is not None:
        raise ContractError("record: a tape is already active (single-writer rule)")
    _ACTIVE_TAPE = tape
    try:
        yield tape
    finally:
        _ACTIVE_TAPE = None


def recording() -> bool:
    """True while a tape is active, i.e. while primitives record for backward."""
    return _ACTIVE_TAPE is not None


def _emit(op: str, out: np.ndarray, inputs: tuple[Tensor, ...],
          backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    out = np.asarray(out)  # 0-d results come back as numpy scalars
    if not np.isfinite(out).all():
        raise NumericError(f"{op}: produced non-finite values")
    needs = any(t.requires_grad for t in inputs)
    result = Tensor(out, requires_grad=needs)
    if needs and _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.entries.append(TapeEntry(op, inputs, result, backward_fn))
    return result


def _same_dtype(op: str, *ts: Tensor) -> None:
    d0 = ts[0].dtype
    for t in ts[1:]:
        if t.dtype != d0:
            raise ShapeError(f"{op}: mixed dtypes {d0} vs {t.dtype}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _row_ids(op: str, indices, n: int) -> np.ndarray:
    """``indices`` as an integer array of row ids in [0, n)."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"{op}: indices must be integers, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(f"{op}: index out of range [0, {n})")
    return idx


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    _same_dtype("add", a, b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    out = a.data + b.data

    def backward_fn(g: np.ndarray):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit("add", out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    _same_dtype("mul", a, b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    out = a.data * b.data

    def backward_fn(g: np.ndarray):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _emit("mul", out, (a, b), backward_fn)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x), no tanh approximation."""
    out, cdf = _gelu_fwd(_fresh(x.dtype), x.data)

    def backward_fn(g: np.ndarray):
        pdf = np.exp(-0.5 * x.data * x.data) / np.sqrt(np.asarray(2.0 * np.pi, dtype=x.dtype))
        return (g * (cdf + x.data * pdf),)

    return _emit("gelu", out, (x,), backward_fn)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of ``table`` (axis 0) with any-rank integer indices.

    Covers classic table lookup, per-sample position-row gathers and the
    flat gather of flagged patch rows in training. Gradients scatter-add
    into the table.
    """
    idx = _row_ids("embedding_lookup", indices, table.shape[0])
    out = table.data[idx]
    tail = table.shape[1:]

    def backward_fn(g: np.ndarray):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape((-1,) + tail))
        return (gt,)

    return _emit("embedding_lookup", out, (table,), backward_fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size and -1 not in shape:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = x.data.reshape(shape)

    def backward_fn(g: np.ndarray):
        return (g.reshape(x.shape),)

    return _emit("reshape", out, (x,), backward_fn)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis (the ``slice`` op)."""
    nd = x.data.ndim
    ax = axis % nd
    n = x.shape[ax]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice: [{start}, {stop}) out of bounds for axis {ax} of {x.shape}")
    key = tuple(slice(None) if i != ax else slice(start, stop) for i in range(nd))
    out = x.data[key].copy()

    def backward_fn(g: np.ndarray):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return _emit("slice", out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# fused encoder ops: one tape entry for each op of the model's vocabulary.
# Each forward is one private kernel, shared with the model's plain path,
# that computes in place in arrays from ``take(slot, shape)``: fresh on the
# tape, workspace slots off it, where the takes of one slot share memory and
# so do those of the slots the model's workspace plan gives one buffer
# (``model._SHARED_BUFFERS``). That plan rests on the order in which these
# kernels take their slots and last read their arrays, so a change to that
# order must keep its entries true. A kernel writes into no operand but
# ``out``, since backward reads them. Forward and backward make the numpy
# calls of the unfused chain each op names, on the same layouts (the bias
# rows' repeated sum(axis=0) of _unbroadcast included), so outputs and
# gradients are the chain's bit for bit; ``tests/chain_ops.py`` holds the
# chain's primitives, and the tests compare each op against it. Two
# forward steps take another route to the same bits: the softmax's row max
# is a running np.maximum over the key columns, not a reduce, and the layer
# norm's means skip np.mean's wrapper (``_row_mean``). No gradient is
# computed for the patches, the attention scale or its bias.


def _fresh(dtype) -> Callable[[str, tuple[int, ...]], np.ndarray]:
    return lambda slot, shape: np.empty(shape, dtype)


def _embed_fwd(take, patches, weight, cls_token, pos_embed, pos_ids) -> np.ndarray:
    """[0 + cls; patches @ weight] + position rows, in slot ``h``; the
    in-range ``pos_ids`` pick the rows, None adds the whole table."""
    n, k, _ = patches.shape
    d = weight.shape[1]
    h = take("h", (n, k + 1, d))
    h[:, :1] = 0
    h[:, :1] += cls_token
    np.matmul(patches, weight, out=h[:, 1:])
    if pos_ids is not None:
        # "clip" lets take write into out directly, where "raise" fills a
        # temporary first
        pos_embed = np.take(pos_embed, pos_ids, axis=0, mode="clip",
                            out=take("scratch", np.shape(pos_ids) + (d,)))
    h += pos_embed
    return h


def _linear_fwd(take, x, weight, bias, slot: str) -> np.ndarray:
    """x @ weight + bias, in ``slot``."""
    y = np.matmul(x, weight, out=take(slot, x.shape[:-1] + weight.shape[-1:]))
    y += bias
    return y


def _row_mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True) without np.mean's Python wrapper: the
    same sum, divided in place by the same intp count."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(x.shape[-1]), out=total, casting="unsafe")


def _affine_ln_fwd(take, x, gamma, beta) -> tuple[np.ndarray, ...]:
    """(layer_norm(x) * gamma + beta, the normalised rows, 1 / their std),
    both arrays from slot ``ln``, so off the tape the output overwrites the rows."""
    y = np.subtract(x, _row_mean(x), out=take("ln", x.shape))
    var = _row_mean(np.multiply(y, y, out=take("scratch", x.shape)))
    inv = 1.0 / np.sqrt(var + np.asarray(LN_EPS, dtype=x.dtype))
    y *= inv
    out = np.multiply(y, gamma, out=take("ln", x.shape))
    out += beta
    return out, y, inv


def _attention_scores_fwd(take, q, k, v, num_heads: int, bias) -> tuple[np.ndarray, ...]:
    """Attention up to the pre-softmax scores: (q k^T * scale + bias, then the
    (B, num_heads, L, d / num_heads) value, query and key heads, scale)."""
    def split(x, slot):
        n, rows, d = x.shape
        out = take(slot, (n, num_heads, rows, d // num_heads))
        np.copyto(out, x.reshape(n, rows, num_heads, d // num_heads).transpose(0, 2, 1, 3))
        return out

    qh, kh, vh = split(q, "q_heads"), split(k, "k_heads"), split(v, "v_heads")
    scale = np.asarray(1.0 / math.sqrt(qh.shape[-1]), dtype=q.dtype)
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2),
                       out=take("scores", qh.shape[:-1] + kh.shape[-2:-1]))
    scores *= scale
    if bias is not None:
        scores += bias
    return scores, vh, qh, kh, scale


def _attention_out_fwd(take, scores, vh) -> np.ndarray:
    """The second half: softmax of ``scores`` over the last axis, in place,
    times the value heads, the heads merged back to (B, L, d).

    The row max is a running maximum over the key columns, in slot
    ``row_max``: far cheaper than a reduce over a few columns, and the same
    bits, since a maximum has one value in any order and NaN propagates
    either way; a +0/-0 tie changes only the sign of a zero exp maps to 1."""
    row_max = take("row_max", scores.shape[:-1] + (1,))
    np.copyto(row_max, scores[..., :1])
    for j in range(1, scores.shape[-1]):
        np.maximum(row_max, scores[..., j:j + 1], out=row_max)
    scores -= row_max
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    o = np.matmul(scores, vh, out=take("heads_out", scores.shape[:-1] + vh.shape[-1:]))
    n, heads, rows, dh = o.shape
    merged = take("merged", (n, rows, heads * dh))
    np.copyto(merged.reshape(n, rows, heads, dh), o.transpose(0, 2, 1, 3))
    return merged


def _gelu_fwd(take, x, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(x * Phi(x) into ``out``, fresh when None; Phi, in slot ``scratch``)."""
    cdf = np.divide(x, np.sqrt(np.asarray(2.0, dtype=x.dtype)), out=take("scratch", x.shape))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return np.multiply(x, cdf, out=out), cdf


def embed(patches: np.ndarray, weight: Tensor, cls_token: Tensor, pos_embed: Tensor,
          pos_ids=None) -> Tensor:
    """[0 + cls; patches @ weight] + position rows: matmul, reshape, add,
    concat, ``embedding_lookup`` (when ``pos_ids`` is given), add.

    ``patches`` is a (B, K, P) array of the weight's dtype and ``weight``
    (P, d). ``pos_ids`` picks the position rows, (K+1,) shared by the batch
    or (B, K+1) per sample; None adds the whole (K+1, d) table.
    """
    _same_dtype("embed", weight, cls_token, pos_embed)
    if (patches.ndim != 3 or weight.data.ndim != 2 or pos_embed.data.ndim != 2
            or patches.dtype != weight.dtype or patches.shape[2] != weight.shape[0]
            or cls_token.shape != weight.shape[1:] or pos_embed.shape[1:] != weight.shape[1:]):
        raise ShapeError(f"embed: patches {patches.shape} ({patches.dtype}), weight "
                         f"{weight.shape}, cls {cls_token.shape} and positions "
                         f"{pos_embed.shape} ({weight.dtype}) do not fit")
    b, k, _ = patches.shape
    d = weight.shape[1]
    idx = None if pos_ids is None else _row_ids("embed", pos_ids, pos_embed.shape[0])
    rows = pos_embed.shape if idx is None else idx.shape + (d,)
    if rows not in ((k + 1, d), (b, k + 1, d)):
        raise ShapeError(f"embed: position rows {rows} do not fit {k + 1} tokens")
    out = _embed_fwd(_fresh(weight.dtype), patches, weight.data, cls_token.data,
                     pos_embed.data, idx)

    def backward_fn(g: np.ndarray):
        gpos = _unbroadcast(g, rows)
        if idx is not None:  # embedding_lookup's scatter-add into the table
            grows, gpos = gpos, np.zeros_like(pos_embed.data)
            np.add.at(gpos, idx.reshape(-1), grows.reshape((-1, d)))
        gcls = _unbroadcast(g[:, :1], (1, 1, d)).reshape((d,))
        gw = _unbroadcast(np.matmul(np.swapaxes(patches, -1, -2), g[:, 1:]), weight.shape)
        return gw, gcls, gpos

    return _emit("embed", out, (weight, cls_token, pos_embed), backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias: matmul, then add. ``weight`` is (d, e) and
    ``bias`` (e,)."""
    _same_dtype("linear", x, weight, bias)
    if (x.data.ndim < 2 or weight.data.ndim != 2 or x.shape[-1] != weight.shape[0]
            or bias.shape != weight.shape[1:]):
        raise ShapeError(f"linear: shapes {x.shape} @ {weight.shape} + {bias.shape} "
                         f"do not fit")
    out = _linear_fwd(_fresh(x.dtype), x.data, weight.data, bias.data, "linear")

    def backward_fn(g: np.ndarray):
        gb = _unbroadcast(g, bias.shape)
        gx = _unbroadcast(np.matmul(g, np.swapaxes(weight.data, -1, -2)), x.shape)
        gw = _unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), g), weight.shape)
        return gx, gw, gb

    return _emit("linear", out, (x, weight, bias), backward_fn)


def affine_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """layer_norm(x) * gamma + beta over the last axis: ``layer_norm``, mul,
    add. ``gamma`` and ``beta`` are (d,)."""
    _same_dtype("affine_layer_norm", x, gamma, beta)
    if (x.data.ndim < 1 or x.shape[-1] < 1 or gamma.shape != x.shape[-1:]
            or beta.shape != x.shape[-1:]):
        raise ShapeError(f"affine_layer_norm: shapes {x.shape}, {gamma.shape} and "
                         f"{beta.shape} do not fit")
    out, y, inv = _affine_ln_fwd(_fresh(x.dtype), x.data, gamma.data, beta.data)

    def backward_fn(g: np.ndarray):
        gbeta = _unbroadcast(g, beta.shape)
        ggamma = _unbroadcast(g * y, gamma.shape)
        gy = g * gamma.data
        gy_mean = gy.mean(axis=-1, keepdims=True)
        proj = (gy * y).mean(axis=-1, keepdims=True)
        return inv * (gy - gy_mean - y * proj), ggamma, gbeta

    return _emit("affine_layer_norm", out, (x, gamma, beta), backward_fn)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
              bias: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention, (B, Lq, d) queries against
    (B, Lk, d) keys and values: ``split_heads`` of each, matmul against the
    keys' transpose, mul by 1/sqrt(d / num_heads), add ``bias`` (an
    additive score bias of the inputs' dtype, when given), softmax,
    matmul by the values, ``merge_heads``. The pre-softmax scores are
    scanned too: softmax maps a -inf score to a finite 0."""
    _same_dtype("attention", q, k, v)
    if (q.data.ndim != 3 or k.shape != v.shape or k.data.ndim != 3
            or (q.shape[0], q.shape[2]) != (k.shape[0], k.shape[2])
            or num_heads < 1 or q.shape[2] % num_heads):
        raise ShapeError(f"attention: cannot attend {q.shape} to {k.shape} / {v.shape} "
                         f"with {num_heads} heads")
    b, lq, d = q.shape
    if bias is not None:
        scores = (b, num_heads, lq, k.shape[1])
        if bias.dtype != q.dtype:
            raise ShapeError(f"attention: mixed dtypes {q.dtype} vs {bias.dtype}")
        try:
            np.broadcast_to(bias, scores)
        except ValueError:
            raise ShapeError(f"attention: bias {bias.shape} does not broadcast to "
                             f"scores {scores}") from None
    take = _fresh(q.dtype)
    # p holds the scores until _attention_out_fwd softmaxes them in place
    p, vh, qh, kh, scale = _attention_scores_fwd(take, q.data, k.data, v.data, num_heads, bias)
    if not np.isfinite(p).all():
        raise NumericError("attention: produced non-finite values")
    out = _attention_out_fwd(take, p, vh)

    def merge(x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, -1, d)

    def backward_fn(g: np.ndarray):
        go = np.ascontiguousarray(g.reshape(b, lq, num_heads, -1).transpose(0, 2, 1, 3))
        gp = np.matmul(go, np.swapaxes(vh, -1, -2))
        gv = merge(np.matmul(np.swapaxes(p, -1, -2), go))
        inner = (gp * p).sum(axis=-1, keepdims=True)
        gs = p * (gp - inner) * scale
        gq = merge(np.matmul(gs, kh))
        gk = merge(np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gs), -1, -2))
        return gq, gk, gv

    return _emit("attention", out, (q, k, v), backward_fn)


def mean(x: Tensor) -> Tensor:
    """Full reduction to a scalar mean."""
    out = np.asarray(x.data.mean(), dtype=x.dtype)

    def backward_fn(g: np.ndarray):
        return (np.broadcast_to(g / x.size, x.shape).astype(x.dtype, copy=True),)

    return _emit("mean", out, (x,), backward_fn)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean softmax cross-entropy of integer class targets.

    ``logits`` is (..., C) and ``targets`` an integer array of the leading
    shape; the result averages over every leading position.
    """
    t = np.asarray(targets)
    if not np.issubdtype(t.dtype, np.integer):
        raise ShapeError(f"cross_entropy: targets must be integers, got {t.dtype}")
    if logits.data.ndim < 1:
        raise ShapeError("cross_entropy: logits need a class axis")
    c = logits.shape[-1]
    lead = logits.shape[:-1]
    if t.shape != lead:
        raise ShapeError(f"cross_entropy: targets shape {t.shape} does not match "
                         f"logits leading shape {lead}")
    if t.size and (t.min() < 0 or t.max() >= c):
        raise ContractError(f"cross_entropy: target class out of range [0, {c})")

    flat = logits.data.reshape(-1, c)
    tf = t.reshape(-1)
    m = flat.max(axis=-1, keepdims=True)
    z = flat - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[:, 0]
    picked = flat[np.arange(flat.shape[0]), tf]
    out = np.asarray((lse - picked).mean(), dtype=logits.dtype)

    def backward_fn(g: np.ndarray):
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(flat.shape[0]), tf] -= 1.0
        gx = (g / flat.shape[0]) * p
        return (gx.reshape(logits.shape).astype(logits.dtype, copy=False),)

    return _emit("cross_entropy", out, (logits,), backward_fn)


# ---------------------------------------------------------------------------
# reverse pass


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Walk ``tape`` in reverse from scalar ``loss``.

    Returns gradients for leaf tensors only (tensors that require grad and
    were not produced by a tape entry). Fan-out accumulates by summation.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward: loss must be a scalar, got shape {loss.shape}")
    produced = {id(e.output) for e in tape.entries}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}

    for entry in reversed(tape.entries):
        g = grads.pop(id(entry.output), None)
        if g is None:
            continue
        input_grads = entry.backward_fn(g)
        if len(input_grads) != len(entry.inputs):
            raise ContractError(f"backward: op '{entry.op}' returned "
                                f"{len(input_grads)} grads for {len(entry.inputs)} inputs")
        for t, gi in zip(entry.inputs, input_grads):
            if not t.requires_grad and id(t) not in produced:
                continue
            key = id(t)
            holders[key] = t
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi

    out: dict[Tensor, Tensor] = {}
    for key, g in grads.items():
        t = holders[key]
        if t.requires_grad and id(t) not in produced:
            out[t] = Tensor(np.ascontiguousarray(g, dtype=t.dtype))
    return out


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Adam with decoupled weight decay (Loshchilov & Hutter, ICLR 2019).

    The parameter set is fixed by the first step: its names, their order,
    shapes and one dtype. The moments persist across steps as one flat
    array each over that set, and every step updates all of it at once.
    The update is elementwise, so this gives the same bits as a loop over
    the tensors.
    """

    def __init__(self, lr: float, weight_decay: float = 0.0):
        if lr < 0 or weight_decay < 0:
            raise ContractError("AdamW: lr and weight_decay must be non-negative")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._layout: tuple[tuple[str, tuple[int, ...]], ...] | None = None
        # flat m, v, then the gradient and two scratch buffers
        self._bufs: tuple[np.ndarray, ...] = ()

    def step(self, params: dict[str, Tensor], grads: dict[Tensor, Tensor],
             lr_scale: float = 1.0) -> dict[str, Tensor]:
        """One update over a named parameter dict.

        ``grads`` must cover exactly the given parameters (a missing or
        surplus gradient is a caller bug, not a silent skip), and the
        parameters must match the first step's. Returns fresh leaf tensors,
        views into one new flat array; the inputs are never mutated.
        """
        if not params:
            raise ContractError("AdamW.step: empty parameter set")
        missing = [name for name, t in params.items() if t not in grads]
        if missing:
            raise ContractError(f"AdamW.step: no gradient for parameters {missing}")
        param_ids = {id(t) for t in params.values()}
        surplus = [t for t in grads if id(t) not in param_ids]
        if surplus:
            raise ContractError(f"AdamW.step: gradients for {len(surplus)} tensors "
                                f"that are not in the parameter set")
        for name, p in params.items():
            if grads[p].shape != p.shape:
                raise ShapeError(f"AdamW.step: grad shape {grads[p].shape} != param "
                                 f"shape {p.shape} for '{name}'")
        # one shared buffer would promote float32 and change its bits
        dtypes = {t.dtype for p in params.values() for t in (p, grads[p])}
        if len(dtypes) != 1:
            raise ContractError(f"AdamW.step: parameters and gradients mix dtypes "
                                f"{sorted(d.name for d in dtypes)}")
        (dtype,) = dtypes
        layout = tuple((name, p.shape) for name, p in params.items())
        if self._layout is None:
            self._layout = layout
            size = sum(p.size for p in params.values())
            self._bufs = tuple(np.zeros(size, dtype=dtype) for _ in range(5))
        elif layout != self._layout or dtype != self._bufs[0].dtype:
            raise ContractError("AdamW.step: the parameter names, order, shapes or "
                                "dtype differ from the first step's")

        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETAS
        lr = self.lr * lr_scale
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        m, v, g, a, b = self._bufs
        flat = np.concatenate([p.data.reshape(-1) for p in params.values()])
        np.concatenate([grads[p].data.reshape(-1) for p in params.values()], out=g)
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;  then
        # new = p - lr (m/bias1 / (sqrt(v/bias2) + eps) + wd p), op by op
        # in that order, into the preallocated buffers
        np.multiply(m, b1, out=m)
        np.add(m, np.multiply(g, 1.0 - b1, out=a), out=m)
        np.multiply(v, b2, out=v)
        np.add(v, np.multiply(np.multiply(g, g, out=a), 1.0 - b2, out=a), out=v)
        np.divide(m, bias1, out=a)
        np.add(np.sqrt(np.divide(v, bias2, out=b), out=b), ADAM_EPS, out=b)
        np.divide(a, b, out=a)
        np.add(a, np.multiply(flat, self.weight_decay, out=b), out=a)
        new = np.subtract(flat, np.multiply(a, lr, out=a))

        fresh: dict[str, Tensor] = {}
        offset = 0
        for name, shape in layout:
            size = math.prod(shape)
            fresh[name] = Tensor(new[offset:offset + size].reshape(shape),
                                 requires_grad=True)
            offset += size
        if not np.isfinite(new).all():
            bad = next(name for name, f in fresh.items() if not np.isfinite(f.data).all())
            raise NumericError(f"AdamW.step: non-finite update for '{bad}'")
        return fresh


# ---------------------------------------------------------------------------
# finite-difference oracle (used by tests and the oracle CLI check)


def finite_difference_grad(fn: Callable[[Tensor], Tensor], x: np.ndarray,
                           index: tuple[int, ...], h: float = 1e-5) -> float:
    """Central finite difference of scalar ``fn`` at one coordinate of x."""
    hi = x.copy()
    lo = x.copy()
    hi[index] += h
    lo[index] -= h
    f_hi = fn(Tensor(hi)).item()
    f_lo = fn(Tensor(lo)).item()
    return (f_hi - f_lo) / (2.0 * h)


def check_gradient(fn: Callable[[Tensor], Tensor], x: np.ndarray,
                   probes: int, seed: int, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and finite differences.

    ``fn`` maps one Tensor to a scalar Tensor built from primitives. Each
    probe perturbs one random coordinate of ``x``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    leaf = Tensor(x, requires_grad=True)
    tape = Tape()
    with record(tape):
        loss = fn(leaf)
    grad = backward(tape, loss)[leaf].data

    rng = np.random.default_rng(seed)
    flat_index = rng.integers(0, x.size, size=probes)
    worst = 0.0
    for k in flat_index:
        idx = np.unravel_index(int(k), x.shape)
        fd = finite_difference_grad(fn, x, idx, h=h)
        an = float(grad[idx])
        denom = max(abs(fd), abs(an), 1e-8)
        worst = max(worst, abs(fd - an) / denom)
    return worst
