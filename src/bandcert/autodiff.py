"""Dense-tensor engine with tape-based reverse-mode differentiation.

Deliberately small: exactly the primitives a compact transformer needs. Arrays
are numpy, float64 for training (so finite-difference checks are meaningful)
and float32 for inference. A Tensor is immutable once created; recording
happens on an explicitly activated Tape, and ``backward`` walks the tape in
reverse to return a gradient map for the leaves.

Every primitive validates operand shapes up front and checks its output for
NaN/Inf, so a numerical blow-up surfaces at the op that produced it instead
of three modules later. The model's encoder calls these primitives only
while a tape is recording (``recording()``), so the per-op checks apply
only then; without a tape it runs the same arithmetic on plain arrays and
checks once per encoder stage: the embedding, each block, the head (see
``model``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

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


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor, *, transpose_b: bool = False) -> Tensor:
    """Batched matrix product, optionally against the transpose of ``b``.

    The flag exists because attention needs Q K^T and the op set has no
    standalone transpose; it applies to the last two axes only.
    """
    _same_dtype("matmul", a, b)
    bd = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    if a.data.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: operands must have rank >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} @ {b.shape} "
                         f"(transpose_b={transpose_b})")
    out = np.matmul(a.data, bd)

    def backward_fn(g: np.ndarray):
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        if transpose_b:
            gb = np.swapaxes(gb, -1, -2)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _emit("matmul", out, (a, b), backward_fn)


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


def softmax_lastdim(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g: np.ndarray):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _emit("softmax_lastdim", s, (x,), backward_fn)


def layer_norm(x: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine).

    Scale and shift, when wanted, are separate mul/add ops so this primitive
    keeps a clean contract: per-row mean ~ 0, variance ~ 1.
    """
    if x.data.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"layer_norm: needs a non-empty last axis, got {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(LN_EPS, dtype=x.dtype))
    y = centered * inv

    def backward_fn(g: np.ndarray):
        n = x.shape[-1]
        gy_mean = g.mean(axis=-1, keepdims=True)
        proj = (g * y).mean(axis=-1, keepdims=True)
        gx = inv * (g - gy_mean - y * proj)
        return (gx,)

    return _emit("layer_norm", y, (x,), backward_fn)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x), no tanh approximation."""
    cdf = 0.5 * (1.0 + erf(x.data / np.sqrt(np.asarray(2.0, dtype=x.dtype))))
    out = x.data * cdf

    def backward_fn(g: np.ndarray):
        pdf = np.exp(-0.5 * x.data * x.data) / np.sqrt(np.asarray(2.0 * np.pi, dtype=x.dtype))
        return (g * (cdf + x.data * pdf),)

    return _emit("gelu", out.astype(x.dtype, copy=False), (x,), backward_fn)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of ``table`` (axis 0) with any-rank integer indices.

    Covers classic table lookup, per-sample position-row gathers and the
    flat gather of flagged patch rows in training. Gradients scatter-add
    into the table.
    """
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"embedding_lookup: indices must be integers, got {idx.dtype}")
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(f"embedding_lookup: index out of range [0, {n})")
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


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat: needs at least one operand")
    _same_dtype("concat", *parts)
    nd = parts[0].data.ndim
    ax = axis % nd
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != nd or [s for i, s in enumerate(other) if i != ax] != \
           [s for i, s in enumerate(base) if i != ax]:
            raise ShapeError(f"concat: shapes {parts[0].shape} and {p.shape} "
                             f"disagree off axis {ax}")
    out = np.concatenate([p.data for p in parts], axis=ax)
    sizes = [p.shape[ax] for p in parts]

    def backward_fn(g: np.ndarray):
        splits = np.split(g, np.cumsum(sizes)[:-1], axis=ax)
        return tuple(splits)

    return _emit("concat", out, parts, backward_fn)


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


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(B, L, d) -> contiguous (B, num_heads, L, d / num_heads): head j holds
    columns [j * d / num_heads, (j + 1) * d / num_heads) of the last axis."""
    if x.data.ndim != 3 or num_heads < 1 or x.shape[-1] % num_heads:
        raise ShapeError(f"split_heads: cannot split {x.shape} into {num_heads} heads")
    b, length, d = x.shape
    out = np.ascontiguousarray(
        x.data.reshape(b, length, num_heads, d // num_heads).transpose(0, 2, 1, 3))

    def backward_fn(g: np.ndarray):
        # C-contiguous on purpose: the bias gradients sum this array, and a
        # strided view would be summed in another order and round differently
        return (np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(b, length, d),)

    return _emit("split_heads", out, (x,), backward_fn)


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, L, dh) -> (B, L, H * dh), the inverse of ``split_heads``."""
    if x.data.ndim != 4:
        raise ShapeError(f"merge_heads: expected (B, H, L, dh), got {x.shape}")
    b, heads, length, dh = x.shape
    out = x.data.transpose(0, 2, 1, 3).reshape(b, length, heads * dh)

    def backward_fn(g: np.ndarray):
        return (np.ascontiguousarray(g.reshape(b, length, heads, dh).transpose(0, 2, 1, 3)),)

    return _emit("merge_heads", out, (x,), backward_fn)


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
    """Adam with decoupled weight decay. Moment state persists across steps."""

    def __init__(self, lr: float, weight_decay: float = 0.0):
        if lr < 0 or weight_decay < 0:
            raise ContractError("AdamW: lr and weight_decay must be non-negative")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], grads: dict[Tensor, Tensor],
             lr_scale: float = 1.0) -> dict[str, Tensor]:
        """One update over a named parameter dict.

        ``grads`` must cover exactly the given parameters (a missing or
        surplus gradient is a caller bug, not a silent skip). Returns fresh
        leaf tensors; the inputs are never mutated.
        """
        grad_ids = {id(t) for t in grads}
        param_ids = {id(t) for t in params.values()}
        missing = [name for name, t in params.items() if id(t) not in grad_ids]
        if missing:
            raise ContractError(f"AdamW.step: no gradient for parameters {missing}")
        surplus = [t for t in grads if id(t) not in param_ids]
        if surplus:
            raise ContractError(f"AdamW.step: gradients for {len(surplus)} tensors "
                                f"that are not in the parameter set")

        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETAS
        lr = self.lr * lr_scale
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        fresh: dict[str, Tensor] = {}
        for name, p in params.items():
            g = grads[p].data
            if g.shape != p.shape:
                raise ShapeError(f"AdamW.step: grad shape {g.shape} != param "
                                 f"shape {p.shape} for '{name}'")
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            mhat = m / bias1
            vhat = v / bias2
            new = p.data - lr * (mhat / (np.sqrt(vhat) + ADAM_EPS)
                                 + self.weight_decay * p.data)
            if not np.isfinite(new).all():
                raise NumericError(f"AdamW.step: non-finite update for '{name}'")
            fresh[name] = Tensor(new, requires_grad=True)
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
