"""The unfused tape primitives the fused encoder ops replace, kept as references.

``autodiff.embed``, ``linear``, ``affine_layer_norm`` and ``attention`` each
make the numpy calls of a chain of small primitives, forward and backward,
so their outputs and gradients are that chain's bit for bit. The program
runs only the fused ops; the six primitives of those chains that nothing
else uses live here, for the tests that compare against them. Each records
on the active tape through ``autodiff._emit`` and checks its output for NaN
or Inf, like a library primitive.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from bandcert import autodiff as ad
from bandcert.autodiff import Tensor
from bandcert.errors import ShapeError


def matmul(a: Tensor, b: Tensor, *, transpose_b: bool = False) -> Tensor:
    """Batched matrix product, optionally against the transpose of ``b``.

    The flag exists because attention needs Q K^T and the op set has no
    standalone transpose; it applies to the last two axes only.
    """
    ad._same_dtype("matmul", a, b)
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
        return ad._unbroadcast(ga, a.shape), ad._unbroadcast(gb, b.shape)

    return ad._emit("matmul", out, (a, b), backward_fn)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g: np.ndarray):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return ad._emit("softmax_lastdim", s, (x,), backward_fn)


def layer_norm(x: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine): the
    first op of ``affine_layer_norm``'s chain."""
    if x.data.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"layer_norm: needs a non-empty last axis, got {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(ad.LN_EPS, dtype=x.dtype))
    y = centered * inv

    def backward_fn(g: np.ndarray):
        gy_mean = g.mean(axis=-1, keepdims=True)
        proj = (g * y).mean(axis=-1, keepdims=True)
        gx = inv * (g - gy_mean - y * proj)
        return (gx,)

    return ad._emit("layer_norm", y, (x,), backward_fn)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat: needs at least one operand")
    ad._same_dtype("concat", *parts)
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

    return ad._emit("concat", out, parts, backward_fn)


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

    return ad._emit("split_heads", out, (x,), backward_fn)


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, L, dh) -> (B, L, H * dh), the inverse of ``split_heads``."""
    if x.data.ndim != 4:
        raise ShapeError(f"merge_heads: expected (B, H, L, dh), got {x.shape}")
    b, heads, length, dh = x.shape
    out = x.data.transpose(0, 2, 1, 3).reshape(b, length, heads * dh)

    def backward_fn(g: np.ndarray):
        return (np.ascontiguousarray(g.reshape(b, length, heads, dh).transpose(0, 2, 1, 3)),)

    return ad._emit("merge_heads", out, (x,), backward_fn)
