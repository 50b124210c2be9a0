"""Compact vision transformer with band-restricted attention.

One encoder entry point, ``_encode``, takes gathered patch vectors, the
position-table rows to add to them (or none, for the full sequence) and an
optional additive attention bias. It projects the patches, prepends the
class token, adds the position rows, runs the blocks and the final layer
norm, and reads the class logits. Attention runs all heads at once on
(batch, heads, rows, head_dim) stacks. By default only the class row
reaches the output: the last block computes keys and values for every row
but its query, attention, out-projection, MLP and the final norm for the
class row alone. ``tokens=True`` keeps every row through every block and
returns them as ``tokens_out``, for the reconstruction loss and the
restriction oracle.

``_encoder`` writes that arithmetic once, over a small op vocabulary
(embedding, linear, affine layer norm, attention, GELU, residual add,
class-row slice) with two implementations that share one private forward
kernel per op (``autodiff._embed_fwd`` and the like). While a tape records
(``autodiff.recording()``), ``_TapeOps`` runs each op as one tape entry
that checks its output for NaN/Inf, so training can differentiate them.
Otherwise, in certification, the attack and ``bench``, ``_PlainOps`` runs
the kernels on plain arrays in the slots of a ``_Workspace``, reusing
memory a repeated call has already faulted in, and checks once per stage
(the embedding, each block, the head). Either way a non-finite value
raises NumericError naming that stage.

* ``forward_global``: the full token sequence, optionally with an additive
  attention mask restricting which tokens may be attended to.
* ``forward_band_unit``: one window for a whole batch of already ablated
  inputs: the class token plus exactly the tokens whose patch columns
  intersect the retained pixel band, keeping their original position rows.
  By the restriction argument (attention is the only token-mixing op) this
  equals the masked global forward on the gathered rows.
* ``forward_windows``: the windowed path fine-tuning and certification
  share, logits only. It takes k band positions per image, patchifies each
  image once into a token table, gathers each window's tokens by the
  ``WindowPlan``'s tables, one row per band position, ablates only those by
  the plan's keep flags, and encodes each window width. Its
  sweep, ``_sweep_windows``, reads each row's tokens through the row's
  virtual image, a row of table-row ids per grid token, so the patch
  attack scores its clean image and every trial in one sweep over a table
  that holds the clean tokens and only the tokens each trial's patch
  touches. Off the tape the sweep cuts every width into row blocks and
  puts all of them in one queue, largest first, which ``WORKERS`` workers
  empty, the calling thread and ``WORKERS - 1`` threads of one module
  pool, each thread in its own workspace in the
  ``WindowPlan``, so any number of threads may sweep one plan at once.
  Within a workspace, slots whose arrays are never live together in one
  row block share one buffer (``_SHARED_BUFFERS``). Each block's rows
  need at most ``WINDOW_BLOCK_BYTES / WORKERS`` of workspace, but a
  workspace keeps each buffer at its widest request over the sweep's
  widths, so it can hold a little more than that share. Every row's
  logits are the same bytes at any worker count.
  ``finetune_band`` takes a loss term per width, and
  ``batched_certify_forward`` places the logits per (image, position) and
  counts forwards from the plan's groups of token-disjoint windows.

The checkpoint format is a little-endian binary container: magic "ECVT",
u32 version, then per tensor u32 name length, UTF-8 name, u32 rank, u64
dims, raw float32 data. Version 2 holds the classifier, as ``ModelParams``
does; ``load_checkpoint`` checks and drops version 1's four ``recon_*`` tensors.
"""

from __future__ import annotations

import contextvars
import math
import os
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataFormatError, NumericError
from .smoothing import BandSpec, band_keep, band_token_span

CHECKPOINT_MAGIC = b"ECVT"
CHECKPOINT_VERSION = 2
INPUT_CHANNELS = 4  # RGB + ablation mask plane, as ablate_batch emits them
# Off the tape, forward_windows encodes as many rows at a time as keep the
# workspace bytes (``_row_bytes`` a row) of the blocks all workers run at
# once within this many bytes together.
WINDOW_BLOCK_BYTES = 8 << 20


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Off the tape, forward_windows runs its row blocks on this many workers: the
# calling thread and WORKERS - 1 threads of the module pool. BLAS threads
# (--threads) are separate; each BLAS call keeps to them.
WORKERS = _usable_cpus()

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker_pool() -> ThreadPoolExecutor:
    """The module's pool of WORKERS - 1 threads, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, WORKERS - 1),
                                       thread_name_prefix="bandcert-windows")
        return _pool


def _forget_pool() -> None:
    # A forked child holds none of its parent's threads, so work queued on
    # the inherited pool would never run; the child makes its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


@dataclass
class ModelConfig:
    image_side: int = 16
    patch_size: int = 4
    embed_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4
    mlp_ratio: float = 4.0
    num_classes: int = 3
    codebook_size: int = 64
    band_wrap: bool = True

    def __post_init__(self):
        for name in ("image_side", "patch_size", "embed_dim", "num_layers", "num_heads"):
            if getattr(self, name) < 1:
                raise ContractError(f"ModelConfig: {name} {getattr(self, name)} < 1")
        if self.codebook_size < 2:
            raise ContractError(f"ModelConfig: codebook_size {self.codebook_size} < 2")
        if not (math.isfinite(self.mlp_ratio) and self.mlp_ratio >= 0):
            raise ContractError(f"ModelConfig: mlp_ratio {self.mlp_ratio} is not a "
                                f"finite value >= 0")
        if self.image_side % self.patch_size != 0:
            raise ContractError(f"ModelConfig: patch {self.patch_size} does not divide "
                                f"side {self.image_side}")
        if self.embed_dim % self.num_heads != 0:
            raise ContractError(f"ModelConfig: heads {self.num_heads} do not divide "
                                f"dim {self.embed_dim}")
        if self.num_classes < 2:
            raise ContractError("ModelConfig: need at least 2 classes")

    @property
    def grid(self) -> tuple[int, int]:
        s = self.image_side // self.patch_size
        return (s, s)

    @property
    def num_tokens(self) -> int:
        r, c = self.grid
        return r * c

    @property
    def seq_len(self) -> int:
        return self.num_tokens + 1

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * INPUT_CHANNELS


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d = cfg.embed_dim
    mlp = int(round(cfg.mlp_ratio * d))
    shapes: dict[str, tuple[int, ...]] = {
        "patch_embed.weight": (cfg.patch_dim, d),
        "cls_token": (d,),
        "pos_embed": (cfg.seq_len, d),
    }
    for i in range(cfg.num_layers):
        p = f"blocks.{i}."
        shapes[p + "ln1.gamma"] = (d,)
        shapes[p + "ln1.beta"] = (d,)
        for nm in ("q", "k", "v", "o"):
            shapes[p + f"attn.w{nm}"] = (d, d)
            shapes[p + f"attn.b{nm}"] = (d,)
        shapes[p + "ln2.gamma"] = (d,)
        shapes[p + "ln2.beta"] = (d,)
        shapes[p + "mlp.w1"] = (d, mlp)
        shapes[p + "mlp.b1"] = (mlp,)
        shapes[p + "mlp.w2"] = (mlp, d)
        shapes[p + "mlp.b2"] = (d,)
    shapes["final_ln.gamma"] = (d,)
    shapes["final_ln.beta"] = (d,)
    shapes["head.weight"] = (d, cfg.num_classes)
    shapes["head.bias"] = (cfg.num_classes,)
    return shapes


def _recon_head_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    return {"recon_vocab.weight": (cfg.embed_dim, cfg.codebook_size),
            "recon_vocab.bias": (cfg.codebook_size,)}


class ModelParams:
    """The classifier's named tensors in a fixed order (the checkpoint order)."""

    def __init__(self, cfg: ModelConfig, tensors: dict[str, Tensor]):
        expected = _param_shapes(cfg)
        if list(tensors.keys()) != list(expected.keys()):
            raise ContractError("ModelParams: tensor names do not match the config's layout")
        for name, t in tensors.items():
            if t.shape != expected[name]:
                raise ContractError(f"ModelParams: '{name}' has shape {t.shape}, "
                                    f"config wants {expected[name]}")
        self.cfg = cfg
        self.tensors = tensors

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int) -> "ModelParams":
        return cls.init_with_recon_head(cfg, seed)[0]

    @classmethod
    def init_with_recon_head(cls, cfg: ModelConfig,
                             seed: int) -> tuple["ModelParams", dict[str, Tensor]]:
        """The classifier, then the curriculum's reconstruction head
        (``recon_vocab.*``, training state), drawn from one seeded stream."""
        rng = np.random.default_rng([int(seed), 0x5eed])
        tensors: dict[str, Tensor] = {}
        for name, shape in {**_param_shapes(cfg), **_recon_head_shapes(cfg)}.items():
            leaf = name.split(".")[-1]
            if leaf in ("beta", "bias", "bq", "bk", "bv", "bo", "b1", "b2"):
                arr = np.zeros(shape)
            elif leaf == "gamma":
                arr = np.ones(shape)
            else:
                arr = rng.normal(0.0, 0.02, size=shape)
            tensors[name] = Tensor(np.ascontiguousarray(arr, dtype=ad.TRAIN_DTYPE),
                                   requires_grad=True)
        head = {name: tensors.pop(name) for name in _recon_head_shapes(cfg)}
        return cls(cfg, tensors), head

    @property
    def dtype(self):
        return next(iter(self.tensors.values())).dtype

    def cast(self, dtype, trainable: bool = False) -> "ModelParams":
        return ModelParams(self.cfg, {
            name: Tensor(np.ascontiguousarray(t.data, dtype=dtype),
                         requires_grad=trainable)
            for name, t in self.tensors.items()})

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


# ---------------------------------------------------------------------------
# tokenization of the pixel grid


def patchify(inputs: np.ndarray, patch_size: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """(B, C, H, W) -> (B, N, C*P*P) patch vectors, row-major patch order,
    in the inputs' dtype; written into ``out``, a C-contiguous array of that
    shape, when it is given."""
    x = np.asarray(inputs)
    if x.ndim != 4:
        raise ContractError(f"patchify: expected (B, C, H, W), got {x.shape}")
    b, c, h, w = x.shape
    if h % patch_size or w % patch_size:
        raise ContractError(f"patchify: patch {patch_size} does not divide {h}x{w}")
    rows, cols = h // patch_size, w // patch_size
    x = x.reshape(b, c, rows, patch_size, cols, patch_size)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    if out is None:
        return np.ascontiguousarray(x.reshape(b, rows * cols, c * patch_size * patch_size))
    np.copyto(out.reshape(x.shape), x)
    return out


# The workspace plan: slot -> the slot whose buffer it takes. These slots'
# arrays are never live together inside one row block, in the order in which
# ``_window_vectors`` and the encoder's kernels take and read them; every
# other slot has a buffer of its own. Each entry's comment says why.
_SHARED_BUFFERS = {
    # the gathered pixels are last read by the ablation that fills
    # ``windows``; ``scratch`` is first taken by the embedding, after it
    "gather": "scratch",
    # the ablated windows are last read by the embedding's matmul; ``w1`` is
    # first taken by block 0's MLP, and ``scores`` by its attention
    "windows": "w1",
    # a block's scores are last read by its attention's value matmul, before
    # its MLP takes ``w1``; that MLP output is last read by the second
    # linear, before the next block takes ``scores``
    "scores": "w1",
    # the query projection is last read when it is split into heads, before
    # the attention merges its heads; the merged heads are last read by the
    # out-projection, before the next block projects the query
    "merged": "wq",
    # the key projection is last read when it is split into heads, before the
    # value matmul; that matmul's output is last read when the heads are
    # merged, before the next block projects the keys
    "heads_out": "wk",
    # the value projection is last read when it is split into heads, before
    # the out-projection; that output is last read by the residual add,
    # before the next block projects the values
    "wo": "wv",
    # the second layer norm's output is last read by the MLP's first linear,
    # before its second linear; that output is last read by the residual
    # add, before the next layer norm
    "w2": "ln",
}


class _Workspace:
    """Scratch memory that outlives one call, the way an FFT plan owns its
    work area: one flat byte buffer per buffer name, a slot's own name
    unless ``_SHARED_BUFFERS`` hands the slot another slot's buffer.
    ``take`` returns a C-contiguous view at the front of the slot's buffer
    and reallocates only when a larger request comes, so a repeated call of
    the same shapes touches only memory it has already faulted in. A view
    stays valid until the next ``take`` of a slot with the same buffer,
    which returns the same memory when it fits. Not thread-safe: a
    ``WindowPlan`` keeps one per thread."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        name = _SHARED_BUFFERS.get(slot, slot)
        buf = self.buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self.buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


@dataclass
class EncoderActivations:
    tokens_out: Tensor | None  # H_O after the final layer norm; None unless asked for
    logits: Tensor             # class logits read from the class token


class _TapeOps:
    """The encoder's op vocabulary as tape primitives, one fused primitive
    (one tape entry) per op. Every op builds a Tensor, records itself while
    a tape is active and checks its own output for NaN/Inf (attention its
    pre-softmax scores too), so ``check`` has nothing left to do."""

    def __init__(self, params: ModelParams, attn_bias: np.ndarray | None):
        self.params = params
        self.bias = attn_bias

    def embed(self, patches: np.ndarray, pos_ids: np.ndarray | None) -> Tensor:
        return ad.embed(patches, self.params["patch_embed.weight"], self.params["cls_token"],
                        self.params["pos_embed"], pos_ids)

    def affine_ln(self, x: Tensor, prefix: str) -> Tensor:
        return ad.affine_layer_norm(x, self.params[prefix + ".gamma"],
                                    self.params[prefix + ".beta"])

    def linear(self, x: Tensor, weight: str, bias: str) -> Tensor:
        return ad.linear(x, self.params[weight], self.params[bias])

    def attention(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        return ad.attention(q, k, v, self.params.cfg.num_heads, self.bias)

    def gelu(self, x: Tensor) -> Tensor:
        return ad.gelu(x)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        return ad.add(a, b)

    def class_row(self, x: Tensor) -> Tensor:
        return ad.slice_axis(x, 1, 0, 1)

    def reshape(self, x: Tensor, shape: tuple[int, ...]) -> Tensor:
        return ad.reshape(x, shape)

    def check(self, x: Tensor) -> None:
        pass

    def tensor(self, x: Tensor) -> Tensor:
        return x


class _PlainOps:
    """The same vocabulary on plain ndarrays, for inference: no Tensor, no
    tape and no per-op scan. Each op is one call of its tape twin's kernel
    on slots of the workspace, so the results are the tape's bit for bit;
    each linear's output is keyed by its weight's name within the block.
    ``check`` is the one NaN/Inf scan, taken once per encoder stage, and
    ``tensor`` copies its array out of the workspace."""

    def __init__(self, params: ModelParams, attn_bias: np.ndarray | None,
                 workspace: _Workspace):
        self.params = params
        self.bias = attn_bias
        self.ws = workspace
        self.dtype = params.dtype

    def _p(self, name: str) -> np.ndarray:
        return self.params[name].data

    def _take(self, slot: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.ws.take(slot, shape, self.dtype)

    def embed(self, patches: np.ndarray, pos_ids: np.ndarray | None) -> np.ndarray:
        return ad._embed_fwd(self._take, patches, self._p("patch_embed.weight"),
                             self._p("cls_token"), self._p("pos_embed"), pos_ids)

    def affine_ln(self, x: np.ndarray, prefix: str) -> np.ndarray:
        return ad._affine_ln_fwd(self._take, x, self._p(prefix + ".gamma"),
                                 self._p(prefix + ".beta"))[0]

    def linear(self, x: np.ndarray, weight: str, bias: str) -> np.ndarray:
        return ad._linear_fwd(self._take, x, self._p(weight), self._p(bias),
                              weight.rsplit(".", 1)[-1])

    def attention(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        scores, vh = ad._attention_scores_fwd(self._take, q, k, v, self.params.cfg.num_heads,
                                              self.bias)[:2]
        return ad._attention_out_fwd(self._take, scores, vh)

    def gelu(self, x: np.ndarray) -> np.ndarray:
        return ad._gelu_fwd(self._take, x, out=x)[0]  # x is the MLP's own slot

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a is the residual stream, which nothing else reads
        a += b
        return a

    def class_row(self, x: np.ndarray) -> np.ndarray:
        return x[:, 0:1].copy()

    def reshape(self, x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        return x.reshape(shape)

    def check(self, x: np.ndarray) -> None:
        if not np.isfinite(x, out=self.ws.take("finite", x.shape, np.bool_)).all():
            raise NumericError("produced non-finite values")

    def tensor(self, x: np.ndarray) -> Tensor:
        return Tensor(x.copy())


def _encoder(ops, patches: np.ndarray, pos_ids: np.ndarray | None,
             tokens: bool) -> tuple:
    """Embedding, blocks, final layer norm and class logits, written once
    over the op vocabulary ``ops``. Returns (H_O, logits) in the ops' own
    array type. A non-finite value raises NumericError naming the stage:
    ``encoder embedding``, ``encoder block i`` or ``encoder head``."""
    cfg = ops.params.cfg
    stage = "embedding"
    try:
        h = ops.embed(patches, pos_ids)
        ops.check(h)
        for i in range(cfg.num_layers):
            stage = f"block {i}"
            p = f"blocks.{i}"
            pre = ops.affine_ln(h, p + ".ln1")
            query = pre
            if i == cfg.num_layers - 1 and not tokens:
                # Only the class row reaches the logits: the last block keys
                # and values every row but queries, mixes and norms row 0.
                h = ops.class_row(h)
                query = ops.class_row(pre)
            q = ops.linear(query, p + ".attn.wq", p + ".attn.bq")
            k = ops.linear(pre, p + ".attn.wk", p + ".attn.bk")
            v = ops.linear(pre, p + ".attn.wv", p + ".attn.bv")
            o = ops.linear(ops.attention(q, k, v), p + ".attn.wo", p + ".attn.bo")
            h = ops.add(h, o)
            m = ops.linear(ops.affine_ln(h, p + ".ln2"), p + ".mlp.w1", p + ".mlp.b1")
            m = ops.linear(ops.gelu(m), p + ".mlp.w2", p + ".mlp.b2")
            h = ops.add(h, m)
            ops.check(h)
        stage = "head"
        h_out = ops.affine_ln(h, "final_ln")
        # Keep the class row 3-d so the head matmul runs as a per-slice
        # gufunc. A 2-d (batch, dim) gemm picks different BLAS kernels at
        # different row counts, which breaks bit-identity between batched
        # and lone forwards.
        logits = ops.linear(ops.class_row(h_out), "head.weight", "head.bias")
        logits = ops.reshape(logits, (h_out.shape[0], cfg.num_classes))
        ops.check(h_out)
        ops.check(logits)
    except NumericError as e:
        raise NumericError(f"encoder {stage}: {e}") from e
    return h_out, logits


def _encode(params: ModelParams, patches: np.ndarray, pos_ids: np.ndarray | None = None,
            attn_bias: np.ndarray | None = None, *, tokens: bool = False,
            workspace: _Workspace | None = None) -> EncoderActivations:
    """The one encoder entry point: H_I = [cls; E x_1; ...; E x_K] + pos rows,
    then the blocks, the final layer norm and the class logits.

    ``patches`` is (B, K, patch_dim). ``pos_ids`` are the position-table
    rows to add, (K+1,) shared by the batch or (B, K+1) per sample: 0 for
    the class token, then patch-token id + 1 for each patch. ``None`` means
    the full sequence in grid order, which adds the whole table.
    ``attn_bias`` is an additive attention bias of the params' dtype.

    With ``tokens`` every row runs through every block and ``tokens_out``
    holds all of them. Without it the last block runs its query, attention,
    out-projection, MLP and the final norm on the class row alone (keys and
    values still come from every row), and ``tokens_out`` is None.

    Given a ``workspace``, the ops run on plain arrays in it: the caller has
    checked that no tape records, so a worker thread never asks. Without
    one they are tape primitives while a tape records, so training can
    differentiate them, and otherwise plain arrays in a fresh workspace.
    Nothing returned points into the workspace.
    The window sweep calls this once per row block, so when rows fail at
    different stages its error names the first failing stage of the
    failing block first in the sweep's queue.
    """
    patches = np.ascontiguousarray(patches, dtype=params.dtype)
    if workspace is None and ad.recording():
        ops = _TapeOps(params, attn_bias)
    else:
        ops = _PlainOps(params, attn_bias, workspace or _Workspace())
    # overflow and inf - inf surface as one NumericError from the stage
    # checks, so numpy's warnings about them would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        h_out, logits = _encoder(ops, patches, pos_ids, tokens)
    return EncoderActivations(tokens_out=ops.tensor(h_out) if tokens else None,
                              logits=ops.tensor(logits))


def forward_global(inputs: np.ndarray, params: ModelParams,
                   allowed_tokens: np.ndarray | None = None, *,
                   tokens: bool = False) -> EncoderActivations:
    """Full-sequence forward on 4-channel inputs (B, 4, H, W).

    ``allowed_tokens`` is an optional boolean (seq_len,) mask; when given,
    every token's attention is restricted to the allowed set via a large
    negative additive bias (used by the restriction-identity oracle).
    ``tokens`` asks for every output row as well as the logits (see
    ``_encode``).
    """
    cfg = params.cfg
    patches = patchify(inputs, cfg.patch_size)
    if patches.shape[1] != cfg.num_tokens or patches.shape[2] != cfg.patch_dim:
        raise ContractError(f"forward_global: input grid {patches.shape} does not match config")
    bias = None
    if allowed_tokens is not None:
        allowed = np.asarray(allowed_tokens, dtype=bool)
        if allowed.shape != (cfg.seq_len,):
            raise ContractError(f"forward_global: allowed mask shape {allowed.shape} "
                                f"!= ({cfg.seq_len},)")
        if not allowed.any():
            raise ContractError("forward_global: allowed mask is empty")
        bias = np.where(allowed, 0.0, ad.MASK_OFF).astype(params.dtype)
    return _encode(params, patches, attn_bias=bias, tokens=tokens)


def window_token_ids(cfg: ModelConfig, band: BandSpec) -> np.ndarray:
    """Patch-token ids (0-based, class token excluded) whose columns intersect
    the band, ascending."""
    return _column_token_ids(cfg, _band_arcs(cfg, [band.position], band.width)[0])


def _band_arcs(cfg: ModelConfig, positions, band_width: int) -> list[tuple[int, ...]]:
    """Token columns of the band at each position, in band order."""
    first, span = band_token_span(positions, band_width, cfg.patch_size,
                                  cfg.image_side, wrap=cfg.band_wrap)
    return [tuple((f + k) % cfg.grid[1] for k in range(s))
            for f, s in zip(first.tolist(), span.tolist())]


def _column_token_ids(cfg: ModelConfig, cols) -> np.ndarray:
    rows, ncols = cfg.grid
    return np.asarray(sorted(r * ncols + c for r in range(rows) for c in cols), dtype=np.int64)


def forward_band_unit(inputs: np.ndarray, params: ModelParams,
                      band: BandSpec, *, tokens: bool = False) -> EncoderActivations:
    """Isolated band forward: encoder runs only on [cls] + the band's tokens.

    ``inputs`` must already be ablated 4-channel images for this band.
    Projection happens after the gather, so nothing is spent embedding
    tokens that are dropped anyway. ``tokens`` is as in ``forward_global``.
    """
    ids = window_token_ids(params.cfg, band)
    return _encode(params, patchify(inputs, params.cfg.patch_size)[:, ids, :],
                   np.concatenate([[0], ids + 1]), tokens=tokens)


# ---------------------------------------------------------------------------
# window planning: pack token-disjoint windows into shared forwards


@dataclass
class WindowPlan:
    """Each band position's window tokens, the tables ``forward_windows``
    indexes to gather them, and the windows packed into forwards of
    token-disjoint windows, for one model geometry: ``image_width``,
    ``patch_size`` and ``band_wrap`` are those of the ``ModelConfig`` it was
    planned for, and a sweep refuses params of any other.

    The tables are built once, by ``plan_windows``, with one row per band
    position p: ``sizes[p]`` is the number of tokens in p's window, row p
    of ``token_ids`` starts with ``window_ids[p]`` and row p of
    ``position_ids`` with its position-table rows, 0 for the class token
    and then each token id + 1. Entries past a row's size are padding. Row
    p of ``keep`` holds the per-pixel-column keep flags of the band at p.

    A plan also owns the workspaces its plain-array sweeps run in, the way
    an FFT plan owns its work area, so a repeated sweep reuses memory it has
    already faulted in: ``spaces`` maps each thread that ran a sweep or a
    row block to its own workspace (a thread that reuses a finished thread's
    id takes its workspace over). A caller runs one sweep at a time and a
    pool thread one worker's blocks at a time, so no workspace serves two
    sweeps at once, and any number of threads may sweep one plan together.
    """
    band_width: int
    image_width: int
    patch_size: int
    band_wrap: bool
    window_ids: list[np.ndarray]     # per band position: window_token_ids
    groups: list[list[int]]          # band positions packed per forward
    sizes: np.ndarray                # (w,) tokens in each position's window
    token_ids: np.ndarray            # (w, widest) each position's window ids
    position_ids: np.ndarray         # (w, widest + 1) their position-table rows
    keep: np.ndarray                 # (w, w) keep flags of every band position
    spaces: dict[int, _Workspace] = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_forwards(self) -> int:
        return len(self.groups)

    @property
    def forwards_lower_bound(self) -> int:
        """The largest column load: the most windows that cover any one
        token column. Windows in one forward are token-disjoint, so every
        packing of these windows needs at least this many forwards."""
        return int(np.bincount(np.concatenate(self.window_ids)).max())

    @property
    def workspace_bytes(self) -> int:
        """Bytes of every buffer in every thread's workspace of the plan."""
        return sum(buf.nbytes for ws in self.spaces.values() for buf in ws.buffers.values())


def _thread_space(plan: WindowPlan) -> _Workspace:
    """The calling thread's workspace in ``plan``, made on its first use."""
    return plan.spaces.setdefault(threading.get_ident(), _Workspace())


def _template_groups(arcs: list[tuple[int, ...]], n_cols: int) -> list[list[int]]:
    """Rotational chain packing. Window arcs are cyclic column spans whose
    length depends only on position mod patch_size, so the supply of spans
    is (nearly) identical at every start column. Repeatedly builds a chain
    of span lengths that saturates the scarcest length's per-group capacity,
    pads it with other lengths, and stamps it at every rotation that still
    has supply."""
    spans: dict[tuple[int, int], list[int]] = {}
    for p, cols in enumerate(arcs):
        spans.setdefault((cols[0], len(cols)), []).append(p)

    def supplies() -> dict[int, int]:
        out: dict[int, int] = {}
        for (_, length), ps in spans.items():
            if ps:
                out[length] = out.get(length, 0) + len(ps)
        return out

    def build_chain(supply: dict[int, int]) -> list[int]:
        # A group hosts at most floor(n_cols / length) spans of one length,
        # so supply / that cap lower-bounds the groups the length forces.
        # Start from the most demanding length and try every copy count,
        # filling the slack with the other lengths; densest chain wins.
        demand = {length: k / (n_cols // length) for length, k in supply.items()}
        order = sorted(demand, key=lambda length: (-demand[length], -length))
        binding = order[0]
        best: list[int] = []
        for copies in range(min(n_cols // binding, supply[binding]), 0, -1):
            chain = [binding] * copies
            space = n_cols - binding * copies
            for length in order[1:]:
                extra = min(n_cols // length, supply[length], space // length)
                chain.extend([length] * extra)
                space -= extra * length
            if sum(chain) > sum(best):
                best = chain
        return best

    groups: list[list[int]] = []
    while True:
        supply = supplies()
        if not supply:
            break
        chain = build_chain(supply)
        # spread the unused columns between consecutive spans so rotated
        # copies interleave (e.g. two len-3 spans on 8 columns sit at 0, 4)
        slack, k = n_cols - sum(chain), len(chain)
        extras = [slack // k + (1 if i < slack % k else 0) for i in range(k)]
        offsets = [0]
        for length, extra in zip(chain[:-1], extras[:-1]):
            offsets.append(offsets[-1] + length + extra)
        placed_any = False
        for s in range(n_cols):
            slots = [((s + o) % n_cols, length) for o, length in zip(offsets, chain)]
            if all(spans.get(slot) for slot in slots):
                groups.append([spans[slot].pop() for slot in slots])
                placed_any = True
        if not placed_any:
            break
    # asymmetric remainders: first-fit into any group with room
    leftover = sorted(p for ps in spans.values() for p in ps)
    if leftover:
        occupied = [set().union(*(arcs[p] for p in g)) for g in groups]
        for p in leftover:
            cols = set(arcs[p])
            for gi in range(len(groups)):
                if occupied[gi].isdisjoint(cols):
                    groups[gi].append(p)
                    occupied[gi] |= cols
                    break
            else:
                groups.append([p])
                occupied.append(cols)
    return groups


def plan_windows(cfg: ModelConfig, band_width: int) -> WindowPlan:
    """Assign every band position to one forward so that windows inside a
    forward are pairwise token-disjoint, by rotational chain packing."""
    w = cfg.image_side
    if not (1 <= band_width <= w):
        raise ContractError(f"plan_windows: band width {band_width} outside [1, {w}]")
    _, n_cols = cfg.grid
    arcs = _band_arcs(cfg, np.arange(w), band_width)
    groups = sorted(sorted(g) for g in _template_groups(arcs, n_cols))

    flat = sorted(p for g in groups for p in g)
    if flat != list(range(w)):
        raise ContractError("plan_windows: positions are not partitioned exactly once")
    for g in groups:
        seen: set[int] = set()
        for p in g:
            s = set(arcs[p])
            if not seen.isdisjoint(s):
                raise ContractError("plan_windows: overlapping windows inside one forward")
            seen |= s

    window_ids = [_column_token_ids(cfg, cols) for cols in arcs]
    sizes = np.array([ids.size for ids in window_ids])
    token_ids = np.zeros((w, sizes.max()), dtype=np.int64)
    for p, ids in enumerate(window_ids):
        token_ids[p, :ids.size] = ids
    position_ids = np.concatenate([np.zeros((w, 1), dtype=np.int64), token_ids + 1], axis=1)
    return WindowPlan(band_width=band_width, image_width=w, patch_size=cfg.patch_size,
                      band_wrap=cfg.band_wrap, window_ids=window_ids, groups=groups,
                      sizes=sizes, token_ids=token_ids, position_ids=position_ids,
                      keep=band_keep(w, np.arange(w), band_width, wrap=cfg.band_wrap))


def _row_bytes(cfg: ModelConfig, k: int, dtype) -> int:
    """Workspace bytes per row of a block of k-token windows in ``dtype``:
    each buffer of the workspace plan at the widest per-row request of its
    slots, summed. The token table's ``patches`` slot is not counted."""
    d, seq = cfg.embed_dim, k + 1
    mlp = int(round(cfg.mlp_ratio * d))
    per_row = {  # elements each slot holds per row, widest request
        "gather": k * 3 * cfg.patch_size ** 2, "windows": k * cfg.patch_dim,
        "h": seq * d, "scratch": seq * max(d, mlp), "ln": seq * d,
        "wq": seq * d, "wk": seq * d, "wv": seq * d,
        "q_heads": seq * d, "k_heads": seq * d, "v_heads": seq * d,
        "scores": cfg.num_heads * seq * seq, "row_max": cfg.num_heads * seq,
        "heads_out": seq * d, "merged": seq * d, "wo": seq * d,
        "w1": seq * mlp, "w2": seq * d, "weight": cfg.num_classes,
    }
    widest: dict[str, int] = {}
    for slot, n in per_row.items():
        name = _SHARED_BUFFERS.get(slot, slot)
        widest[name] = max(widest.get(name, 0), n)
    # plus the bool ``finite`` slot of the NaN/Inf scan, at its widest: h's shape
    return sum(widest.values()) * np.dtype(dtype).itemsize + seq * d


@dataclass(frozen=True)
class _TokenSweep:
    """The rows of one window sweep over a shared token table. Row r is the
    window at band position ``positions[r]`` of virtual image ``images[r]``,
    whose grid token t is row ``image_tokens[images[r], t]`` of ``table``."""
    table: np.ndarray         # (M, 3 * patch_size**2) patch vectors
    image_tokens: np.ndarray  # (V, num_tokens) table row of each grid token
    images: np.ndarray        # (R,) each row's virtual image
    positions: np.ndarray     # (R,) each row's band position


def _window_vectors(sweep: _TokenSweep, rows: np.ndarray, k: int, keep: np.ndarray,
                    plan: WindowPlan, workspace: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Gather, then ablate: the (n, k, patch_dim) patch vectors of the
    sweep's k-token windows on ``rows``, built in the workspace's ``gather``
    and ``windows`` slots in the table's dtype, and their (n, k + 1)
    position-table rows, both read from the plan's tables by the rows' band
    positions. ``keep`` is the plan's keep flags in the table's dtype."""
    ps, table, n = plan.patch_size, sweep.table, rows.size
    positions = sweep.positions[rows]
    ids = plan.token_ids[positions, :k]
    # keep flag of each pixel column of each gathered token: (n, k, ps)
    col_keep = keep.reshape(plan.image_width, -1, ps)[positions[:, None],
                                                      ids % (plan.image_width // ps)]
    flags = col_keep[:, :, None, None, :]
    pixels = np.take(table, sweep.image_tokens[sweep.images[rows][:, None], ids], axis=0,
                     mode="clip", out=workspace.take("gather", (n, k, table.shape[1]),
                                                     table.dtype))
    windows = workspace.take("windows", (n, k, INPUT_CHANNELS, ps, ps), table.dtype)
    np.multiply(pixels.reshape(n, k, 3, ps, ps), flags, out=windows[:, :, :3])
    windows[:, :, 3:] = flags
    return windows.reshape(n, k, INPUT_CHANNELS * ps * ps), plan.position_ids[positions, :k + 1]


def _encode_blocks(params: ModelParams, sweep: _TokenSweep, keep: np.ndarray,
                   widths: list[tuple[int, np.ndarray]],
                   plan: WindowPlan) -> list[np.ndarray]:
    """Off the tape: the logits of every width of ``widths``, (window size,
    rows) each, encoded in row blocks on up to ``WORKERS`` workers.

    All blocks of the call are listed first and put in one shared queue,
    largest first (rows x tokens, ties in width then row order), so the
    last block a worker takes is a small one. Each worker takes the next
    block off the queue until it is empty, gathers its windows
    (``_window_vectors``), runs it in its thread's workspace in the plan
    and writes its logits into the width's output array. Blocks are
    cut by the budget share alone: a block holds as many of its width's rows
    as keep its workspace bytes (``_row_bytes`` a row) within
    ``WINDOW_BLOCK_BYTES / W``, so the blocks of all workers together stay
    within the one budget, and a call whose widths each fit in one share
    runs one block a width and only as many workers as it has blocks.
    Worker 0 is the calling thread; the others run in the module pool, in a
    copy of the caller's context (numpy's error state included), and call
    no public function.

    Returns once every worker has returned. A worker whose block fails
    empties the queue, and then the error of the failing block first in
    the queue is raised: every block before it was taken before the
    failure, so it is the one a single worker, which takes the blocks in
    queue order, would have met first. An interrupt in the calling thread
    also empties the queue, waits for the other workers and is raised, and
    so is a BaseException that ends a pool worker's loop.
    """
    cfg = params.cfg
    workers = WORKERS
    tasks: list[tuple[int, slice]] = []
    outs = []
    for w, (size, rows) in enumerate(widths):
        n = rows.size
        step = max(1, WINDOW_BLOCK_BYTES // workers // _row_bytes(cfg, size, params.dtype))
        tasks += [(w, slice(start, min(start + step, n))) for start in range(0, n, step)]
        outs.append(np.empty((n, cfg.num_classes), dtype=params.dtype))
    tasks.sort(key=lambda task: -(task[1].stop - task[1].start) * widths[task[0]][0])
    queue = deque(enumerate(tasks))  # popleft is atomic, so the workers share it
    errors: dict[int, Exception] = {}  # failed block -> its error

    def work() -> None:
        while True:
            try:
                t, (w, b) = queue.popleft()
            except IndexError:
                return
            size, rows = widths[w]
            ws = _thread_space(plan)
            try:
                windows, pos_ids = _window_vectors(sweep, rows[b], size, keep, plan, ws)
                outs[w][b] = _encode(params, windows, pos_ids, workspace=ws).logits.data
            except Exception as e:
                errors[t] = e
                queue.clear()
                return

    futures = [_worker_pool().submit(contextvars.copy_context().run, work)
               for _ in range(1, min(workers, len(tasks)))]
    try:
        work()
    finally:
        queue.clear()  # interrupted: the other workers take no new block
        wait(futures)
    for f in futures:  # an error that ended a pool worker's loop
        f.result()
    if errors:
        raise errors[min(errors)]
    return outs


def _sweep_windows(params: ModelParams, plan: WindowPlan,
                   sweep: _TokenSweep) -> list[tuple[np.ndarray, Tensor]]:
    """Gather -> ablate -> window encoder over the sweep's rows, logits
    only: ``forward_windows`` and the patch attack both run this. Returns
    (rows, logits) per window width, narrowest first: the ascending rows of
    that width and their (len(rows), num_classes) logits Tensor.

    The plan's keep flags are cast once to the table's dtype. A plan made
    for another side, patch size or band wrap than the params' raises
    ContractError. Off the tape every width runs in row blocks on
    ``WORKERS`` workers (``_encode_blocks``) and each logits array is fresh.
    Which worker runs a block and how many rows it holds change no bit.
    While a tape records, the tape keeps every op's inputs until backward
    and splitting a width would reorder its gradient sums, so each width
    runs as one block of fresh arrays in the calling thread.
    """
    cfg = params.cfg
    made_for = (plan.image_width, plan.patch_size, plan.band_wrap)
    if made_for != (cfg.image_side, cfg.patch_size, cfg.band_wrap):
        raise ContractError(f"window sweep: the plan is for (side, patch, wrap) {made_for}, "
                            f"the params for {(cfg.image_side, cfg.patch_size, cfg.band_wrap)}")
    keep = plan.keep.astype(sweep.table.dtype)
    sizes = plan.sizes[sweep.positions]
    widths = [(size, np.flatnonzero(sizes == size)) for size in np.unique(sizes).tolist()]
    if ad.recording():
        return [(rows, _encode(params, *_window_vectors(sweep, rows, size, keep, plan,
                                                        _Workspace())).logits)
                for size, rows in widths]
    outs = _encode_blocks(params, sweep, keep, widths, plan)
    return [(rows, Tensor(logits)) for (_, rows), logits in zip(widths, outs)]


def forward_windows(images: np.ndarray, positions: np.ndarray, params: ModelParams,
                    plan: WindowPlan) -> list[tuple[np.ndarray, Tensor]]:
    """Patchify -> gather -> ablate -> window encoder, logits only.

    ``images`` is (n, 3, h, w) and ``positions`` an (n, k) array of band
    positions in [0, w): flat row r = i * k + j runs image i at band
    position positions[i, j]. Returns (rows, logits) per window width,
    narrowest first: the ascending flat rows of that width and their
    (len(rows), num_classes) logits Tensor.

    The images are patchified once, cast to the params' dtype, into the
    token table of one ``_sweep_windows`` call (off the tape, in the calling
    thread's workspace in the plan): image i's grid token t is table row
    i * num_tokens + t. The sweep casts the plan's keep flags to that dtype
    too, so every window is gathered, ablated and encoded in it.
    A window gathers its tokens and only then is ablated: its pixels are
    multiplied by the band's per-pixel-column keep flags and the keep plane
    is appended as the fourth channel. Those are the multiplications
    ``ablate_batch`` does, and the flags are 0 or 1, so the window's patch
    vectors equal ablate_batch -> cast -> patchify -> gather bit for bit.
    Every encoder op is row-local or a per-slice gufunc, so a row's logits
    do not depend on the rows stacked with it.
    """
    cfg = params.cfg
    ps, side, tokens = cfg.patch_size, cfg.image_side, cfg.num_tokens
    imgs = np.asarray(images)
    pos = np.asarray(positions, dtype=np.int64)
    if imgs.ndim != 4 or imgs.shape[1:] != (3, side, side):
        raise ContractError(f"forward_windows: images {imgs.shape} are not "
                            f"(n, 3, {side}, {side})")
    if pos.ndim != 2 or pos.shape[0] != imgs.shape[0]:
        raise ContractError(f"forward_windows: positions {pos.shape} are not "
                            f"(n_images={imgs.shape[0]}, k)")
    if pos.size and (pos.min() < 0 or pos.max() >= side):
        raise ContractError(f"forward_windows: band positions must lie in [0, {side}), "
                            f"got {pos.min()}..{pos.max()}")
    n, k = pos.shape
    shape = (n, tokens, 3 * ps * ps)
    table = patchify(imgs, ps, out=np.empty(shape, params.dtype) if ad.recording()
                     else _thread_space(plan).take("patches", shape, params.dtype))
    sweep = _TokenSweep(table=table.reshape(n * tokens, shape[2]),
                        image_tokens=np.arange(n * tokens).reshape(n, tokens),
                        images=np.repeat(np.arange(n), k), positions=pos.reshape(-1))
    return _sweep_windows(params, plan, sweep)


def batched_certify_forward(images: np.ndarray, params: ModelParams,
                            plan: WindowPlan) -> tuple[np.ndarray, int]:
    """Class logits for every (image, band position) pair.

    Returns ((n_images, w, num_classes) array, ``plan.num_forwards``). Every
    image is asked for every band position in one ``forward_windows`` call,
    which patchifies each image once and ablates only the gathered window
    tokens, so each row's logits are bit-identical to a lone
    forward_band_unit call on that image and band.

    The forwards count follows the plan: one per group of token-disjoint
    windows. No packing of the plan's windows takes fewer than
    ``plan.forwards_lower_bound`` forwards. No upper bound is claimed:
    band_width + patch_size holds at the geometries gate 6 checks, but not
    for wrapped bands in general (w=16, p=4, b=7 plans 12 forwards against
    11).
    """
    imgs = np.asarray(images)
    if imgs.ndim == 3:
        imgs = imgs[None]
    if imgs.ndim != 4 or imgs.shape[1] != 3:
        raise ContractError(f"batched_certify_forward: expected (n, 3, h, w), got {imgs.shape}")
    n_img, w = imgs.shape[0], plan.image_width
    out = np.zeros((n_img, w, params.cfg.num_classes), dtype=params.dtype)
    grid = np.broadcast_to(np.arange(w), (n_img, w))
    for rows, logits in forward_windows(imgs, grid, params, plan):
        out[rows // w, rows % w] = logits.data
    return out, plan.num_forwards


# ---------------------------------------------------------------------------
# analytic cost model


@dataclass
class FlopCount:
    attention: int        # score and value matmuls, 2*L*L*d MACs each -> flops
    fully_connected: int  # qkv/out projections and the MLP

    @property
    def total(self) -> int:
        return self.attention + self.fully_connected


def widest_window_columns(cfg: ModelConfig, band_width: int) -> int:
    """Token columns of the widest window ``plan_windows`` builds: the longest
    ``band_token_span`` over every band position."""
    return max(map(len, _band_arcs(cfg, range(cfg.image_side), band_width)))


def count_flops(cfg: ModelConfig, mode: str, band_width: int | None = None) -> FlopCount:
    """FLOPs of one encoder forward (multiply-adds counted as 2).

    ``global`` uses the full sequence; ``band_unit`` uses the widest window
    the plan builds (``widest_window_columns`` token columns on every grid
    row) plus the class token. The count is for the full-token forward
    (``tokens=True``), every row through every block; the logits-only
    forward that certification runs does less in its last block, so this
    is an upper bound on it.
    """
    if mode == "global":
        seq = cfg.seq_len
    elif mode == "band_unit":
        if band_width is None:
            raise ContractError("count_flops: band_unit mode needs band_width")
        rows, _ = cfg.grid
        seq = widest_window_columns(cfg, band_width) * rows + 1
    else:
        raise ContractError(f"count_flops: unknown mode '{mode}'")
    d = cfg.embed_dim
    mlp = int(round(cfg.mlp_ratio * d))
    attn = cfg.num_layers * 4 * seq * seq * d
    fc = cfg.num_layers * (8 * seq * d * d + 4 * seq * d * mlp)
    return FlopCount(attention=attn, fully_connected=fc)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Write tensors as float32 in the documented container layout."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name, t in params.tensors.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", t.data.ndim))
            fh.write(struct.pack(f"<{t.data.ndim}Q", *t.shape))
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def load_checkpoint(path: str, cfg: ModelConfig, dtype=ad.INFER_DTYPE) -> ModelParams:
    """Read a checkpoint and validate it against the config's geometry.
    Any file that does not follow the layout raises DataFormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    off = 4

    def take(size: int, what: str) -> bytes:
        nonlocal off
        if off + size > len(blob):
            raise DataFormatError(f"{path}: truncated {what} at byte {off}")
        off += size
        return blob[off - size:off]

    (version,) = struct.unpack("<I", take(4, "version"))
    if version not in (1, CHECKPOINT_VERSION):
        raise DataFormatError(f"{path}: checkpoint version {version}, this build "
                              f"reads versions 1 and {CHECKPOINT_VERSION}")
    tensors: dict[str, np.ndarray] = {}
    while off < len(blob):
        (nlen,) = struct.unpack("<I", take(4, "tensor header"))
        try:
            name = take(nlen, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: tensor name ending at byte {off} "
                                  f"is not UTF-8") from None
        if name in tensors:
            raise DataFormatError(f"{path}: tensor '{name}' is stored twice")
        (rank,) = struct.unpack("<I", take(4, f"rank of '{name}'"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"dims of '{name}'"))
        data = take(4 * math.prod(dims), f"data for tensor '{name}'")
        try:
            tensors[name] = np.frombuffer(data, dtype="<f4").reshape(dims)
        except ValueError as e:
            raise DataFormatError(f"{path}: tensor '{name}' has dims {dims}: {e}") from None

    expected = _param_shapes(cfg)
    if version == 1:  # the reconstruction head, then an unused d x d projection
        d = cfg.embed_dim
        expected |= _recon_head_shapes(cfg)
        expected |= {"recon_proj.weight": (d, d), "recon_proj.bias": (d,)}
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise DataFormatError(f"{path}: tensor names do not match the config "
                              f"(missing {missing[:3]}, extra {extra[:3]})")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise DataFormatError(f"{path}: '{name}' stored as {tensors[name].shape}, "
                                  f"config wants {shape}")
        if not np.isfinite(tensors[name]).all():
            raise DataFormatError(f"{path}: tensor '{name}' holds NaN or Inf")
    return ModelParams(cfg, {
        name: Tensor(np.ascontiguousarray(tensors[name], dtype=dtype), requires_grad=False)
        for name in _param_shapes(cfg)})
