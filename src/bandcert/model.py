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
class-row slice) with two implementations. While a tape records
(``autodiff.recording()``), ``_TapeOps`` runs each op as one tape
primitive (``autodiff.embed``, ``linear``, ``affine_layer_norm``,
``attention``, ``gelu``, ``add``, ``slice_axis``), one tape entry per op,
each checking its output for NaN/Inf, so training can differentiate them.
Otherwise, in certification, the attack and ``bench``, ``_PlainOps`` makes
the same numpy calls on plain arrays, bit-identical to the tape, and checks
once per stage (the embedding, each block, the head). It writes every
intermediate the size of its input batch into a ``_Workspace`` through
``out=``, so a repeated call reuses memory it has already faulted in
instead of allocating it afresh. Either way a non-finite value raises
NumericError naming that stage.

* ``forward_global``: the full token sequence, optionally with an additive
  attention mask restricting which tokens may be attended to.
* ``forward_band_unit``: one window for a whole batch of already ablated
  inputs: the class token plus exactly the tokens whose patch columns
  intersect the retained pixel band, keeping their original position rows.
  By the restriction argument (attention is the only token-mixing op) this
  equals the masked global forward on the gathered rows.
* ``forward_windows``: the windowed path fine-tuning and certification
  share, logits only. It takes k band positions per image, patchifies each
  image once, gathers each window's tokens by the ``WindowPlan``, ablates
  only those, and encodes each window width. Off the tape it runs a width
  in row blocks whose widest intermediate stays within
  ``WINDOW_BLOCK_BYTES``, through the workspace the ``WindowPlan`` owns.
  ``finetune_band`` takes a loss term per width, and
  ``batched_certify_forward`` places the logits per (image, position) and
  counts forwards from the plan's groups of token-disjoint windows.

The checkpoint format is a little-endian binary container: magic "ECVT",
u32 version, then per tensor u32 name length, UTF-8 name, u32 rank, u64
dims, raw float32 data. Version 2 holds the classifier, as ``ModelParams``
does; ``load_checkpoint`` checks and drops version 1's four ``recon_*`` tensors.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataFormatError, NumericError
from .smoothing import BandSpec, band_keep, band_token_span

CHECKPOINT_MAGIC = b"ECVT"
CHECKPOINT_VERSION = 2
INPUT_CHANNELS = 4  # RGB + ablation mask plane, as ablate_batch emits them
# Off the tape, forward_windows encodes as many rows at a time as keep the
# block's widest intermediate within this many bytes.
WINDOW_BLOCK_BYTES = 1 << 20


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

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


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


class _Workspace:
    """Scratch memory that outlives one call, the way an FFT plan owns its
    work area: one flat byte buffer per named slot. ``take`` returns a
    C-contiguous view at the front of a slot's buffer and reallocates only
    when a larger request comes, so a repeated call of the same shapes
    touches only memory it has already faulted in. A view stays valid until
    the next ``take`` of its slot. Not thread-safe."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.lease = threading.Lock()  # held while a forward_windows sweep runs

    def take(self, slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self.buffers.get(slot)
        if buf is None or buf.size < nbytes:
            buf = self.buffers[slot] = np.empty(nbytes, dtype=np.uint8)
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
        return ad.embed(np.ascontiguousarray(patches, dtype=self.params.dtype),
                        self.params["patch_embed.weight"], self.params["cls_token"],
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
    tape and no per-op scan. Each op makes the numpy calls of its tape twin
    in the same order on operands of the same dtype and layout, so the
    results are the tape's bit for bit. Where the twin makes a fresh array
    the size of the batch, this op writes into a slot of the workspace
    through ``out=``, or runs in place; only per-row arrays (means, maxima,
    the class row) are allocated. Slots whose lifetimes do not overlap
    share a buffer: ``scratch`` holds one op's temporary (the embedding's
    position rows, the layer norm's squares, the GELU's Phi), ``ln`` every
    layer norm's output, and each linear's output is keyed by its weight's
    name within the block. ``check`` is the one NaN/Inf scan, taken once per
    encoder stage, and ``tensor`` copies its array out of the workspace."""

    def __init__(self, params: ModelParams, attn_bias: np.ndarray | None,
                 workspace: _Workspace):
        self.params = params
        self.bias = attn_bias
        self.scale = np.asarray(1.0 / math.sqrt(params.cfg.head_dim), dtype=params.dtype)
        self.ws = workspace

    def _p(self, name: str) -> np.ndarray:
        return self.params[name].data

    def _take(self, slot: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.ws.take(slot, shape, self.params.dtype)

    def embed(self, patches: np.ndarray, pos_ids: np.ndarray | None) -> np.ndarray:
        d = self.params.cfg.embed_dim
        patches = np.ascontiguousarray(patches, dtype=self.params.dtype)
        n, k, _ = patches.shape
        # [0 + cls; patches @ E], the tape's concatenation, built in place
        h = self._take("h", (n, k + 1, d))
        h[:, :1] = 0
        h[:, :1] += self._p("cls_token")
        np.matmul(patches, self._p("patch_embed.weight"), out=h[:, 1:])
        pos_rows = self._p("pos_embed")
        if pos_ids is not None:
            # ids are in range by construction; "clip" lets take write into
            # out directly, where "raise" fills a temporary first
            pos_rows = np.take(pos_rows, pos_ids, axis=0, mode="clip",
                               out=self._take("scratch", np.shape(pos_ids) + (d,)))
        h += pos_rows
        return h

    def affine_ln(self, x: np.ndarray, prefix: str) -> np.ndarray:
        y = np.subtract(x, x.mean(axis=-1, keepdims=True), out=self._take("ln", x.shape))
        var = np.multiply(y, y, out=self._take("scratch", x.shape)).mean(axis=-1,
                                                                         keepdims=True)
        y *= 1.0 / np.sqrt(var + np.asarray(ad.LN_EPS, dtype=x.dtype))
        y *= self._p(prefix + ".gamma")
        y += self._p(prefix + ".beta")
        return y

    def linear(self, x: np.ndarray, weight: str, bias: str) -> np.ndarray:
        w = self._p(weight)
        y = np.matmul(x, w, out=self._take(weight.rsplit(".", 1)[-1],
                                           x.shape[:-1] + w.shape[-1:]))
        y += self._p(bias)
        return y

    def attention(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        heads = self.params.cfg.num_heads

        def split_heads(t, slot):
            n, rows, d = t.shape
            out = self._take(slot, (n, heads, rows, d // heads))
            np.copyto(out, t.reshape(n, rows, heads, d // heads).transpose(0, 2, 1, 3))
            return out

        q, k, v = (split_heads(t, slot) for t, slot in
                   ((q, "q_heads"), (k, "k_heads"), (v, "v_heads")))
        scores = np.matmul(q, np.swapaxes(k, -1, -2),
                           out=self._take("scores", q.shape[:-1] + k.shape[-2:-1]))
        scores *= self.scale
        if self.bias is not None:
            scores += self.bias
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        o = np.matmul(scores, v, out=self._take("heads_out", q.shape))
        n, _, rows, dh = o.shape
        merged = self._take("merged", (n, rows, heads * dh))
        np.copyto(merged.reshape(n, rows, heads, dh), o.transpose(0, 2, 1, 3))
        return merged

    def gelu(self, x: np.ndarray) -> np.ndarray:
        # x * Phi(x) into x, the MLP's own slot; Phi is built in scratch
        cdf = np.divide(x, np.sqrt(np.asarray(2.0, dtype=x.dtype)),
                        out=self._take("scratch", x.shape))
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        x *= cdf
        return x

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

    While a tape records, the ops are tape primitives, so training can
    differentiate them; otherwise they run on plain arrays, with the same
    bits and one NaN/Inf check per stage instead of one per op, in the
    given ``workspace`` (a fresh one when None). Nothing returned points
    into the workspace. ``forward_windows`` calls this once per row block,
    so when rows fail at different stages its error names the first failing
    stage of the first failing block.
    """
    if ad.recording():
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
    """Each band position's window tokens, and the windows packed into
    forwards of token-disjoint windows.

    A plan also owns the workspace its plain-array sweeps run in (see
    ``forward_windows``), the way an FFT plan owns its work area, so a
    repeated sweep reuses memory it has already faulted in. Hence a plan
    must not run from two threads at once: it runs one sweep at a time, and
    a sweep started while another on the same plan is still being iterated,
    in this thread or another, raises ContractError.
    """
    band_width: int
    image_width: int
    window_ids: list[np.ndarray]     # per band position: window_token_ids
    groups: list[list[int]]          # band positions packed per forward
    workspace: _Workspace = field(default_factory=_Workspace, repr=False, compare=False)

    @property
    def num_forwards(self) -> int:
        return len(self.groups)

    @property
    def forwards_lower_bound(self) -> int:
        """The largest column load: the most windows that cover any one
        token column. Windows in one forward are token-disjoint, so every
        packing of these windows needs at least this many forwards."""
        return int(np.bincount(np.concatenate(self.window_ids)).max())


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
        if not chain:
            break
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

    return WindowPlan(
        band_width=band_width,
        image_width=w,
        window_ids=[_column_token_ids(cfg, cols) for cols in arcs],
        groups=groups,
    )


def _row_bytes(cfg: ModelConfig, k: int, dtype) -> int:
    """Bytes per row of the widest encoder intermediate for k-token windows:
    k + 1 sequence rows by the widest of the embedding, MLP, patch-vector
    and attention-score widths."""
    mlp = int(round(cfg.mlp_ratio * cfg.embed_dim))
    width = max(cfg.embed_dim, mlp, cfg.patch_dim, cfg.num_heads * (k + 1))
    return (k + 1) * width * np.dtype(dtype).itemsize


def _window_vectors(patches: np.ndarray, keep: np.ndarray, rows: np.ndarray,
                    per_image: int, ids: np.ndarray, cfg: ModelConfig,
                    workspace: _Workspace) -> np.ndarray:
    """Gather, then ablate: the (n, k, patch_dim) patch vectors of the
    windows on flat ``rows``, whose tokens are ``ids`` (n, k), built in the
    workspace's ``gather`` and ``windows`` slots."""
    ps = cfg.patch_size
    n, k = ids.shape
    _, n_cols = cfg.grid
    # keep flag of each pixel column of each gathered token: (n, k, ps)
    col_keep = keep.reshape(keep.shape[0], n_cols, ps)[rows[:, None], ids % n_cols]
    flags = col_keep[:, :, None, None, :]
    pixels = np.take(patches.reshape(-1, patches.shape[2]),
                     (rows // per_image)[:, None] * cfg.num_tokens + ids, axis=0,
                     mode="clip", out=workspace.take("gather", (n, k, patches.shape[2]),
                                                     patches.dtype))
    windows = workspace.take("windows", (n, k, INPUT_CHANNELS, ps, ps),
                             np.result_type(patches, keep))
    np.multiply(pixels.reshape(n, k, 3, ps, ps), flags, out=windows[:, :, :3])
    windows[:, :, 3:] = flags
    return windows.reshape(n, k, cfg.patch_dim)


def forward_windows(images: np.ndarray, positions: np.ndarray, params: ModelParams,
                    plan: WindowPlan):
    """Patchify -> gather -> ablate -> window encoder, logits only.

    ``images`` is (n, 3, h, w) and ``positions`` an (n, k) array of band
    positions in [0, w): flat row r = i * k + j runs image i at band
    position positions[i, j]. Yields (rows, logits) per window width,
    narrowest first: the ascending flat rows of that width and their
    (len(rows), num_classes) logits Tensor.

    Each image is patchified once. A window gathers its tokens and only
    then is ablated: its pixels are multiplied by the band's per-pixel-
    column keep flags and the keep plane is appended as the fourth
    channel. Those are the multiplications ``ablate_batch`` does, so the
    window's patch vectors equal ablate_batch -> patchify -> gather bit for
    bit. Every encoder op is row-local or a per-slice gufunc, so a row's
    logits do not depend on the rows stacked with it.

    Off the tape, a width runs in row blocks, gather -> ablate -> encode,
    each holding as many rows as keep its widest intermediate within
    ``WINDOW_BLOCK_BYTES``, all of them in the plan's workspace; the logits
    of a width are a fresh array. While a tape records, the tape keeps
    every op's inputs until backward and splitting a width would reorder
    its gradient sums, so each width runs as one block of fresh arrays.
    """
    cfg = params.cfg
    ps = cfg.patch_size
    imgs = np.asarray(images)
    keep = band_keep(imgs, positions, plan.band_width, wrap=cfg.band_wrap)
    pos = np.asarray(positions, dtype=np.int64)
    if pos.ndim != 2 or pos.shape[0] != imgs.shape[0]:
        raise ContractError(f"forward_windows: positions {pos.shape} are not "
                            f"(n_images={imgs.shape[0]}, k)")
    if imgs.shape[2:] != (cfg.image_side, cfg.image_side):
        raise ContractError(f"forward_windows: images {imgs.shape} do not match side "
                            f"{cfg.image_side}")
    per_image = pos.shape[1]
    pos = pos.reshape(-1)
    taped = ad.recording()
    if not plan.workspace.lease.acquire(blocking=False):
        raise ContractError("forward_windows: this plan is already running a sweep")
    try:
        patches = patchify(imgs, ps, out=None if taped else plan.workspace.take(
            "patches", (imgs.shape[0], cfg.num_tokens, 3 * ps * ps), imgs.dtype))
        sizes = np.array([ids.size for ids in plan.window_ids])[pos]
        for size in np.unique(sizes):
            rows = np.flatnonzero(sizes == size)
            ids = np.stack([plan.window_ids[p] for p in pos[rows]])
            n, k = ids.shape
            with_cls = np.concatenate([np.zeros((n, 1), dtype=np.int64), ids + 1], axis=1)
            # the tape keeps every op's inputs until backward, so a taped
            # width runs as one block of fresh arrays
            ws = _Workspace() if taped else plan.workspace
            step = n if taped else max(1, WINDOW_BLOCK_BYTES
                                       // _row_bytes(cfg, k, params.dtype))
            blocks = []
            for start in range(0, n, step):
                b = slice(start, start + step)
                windows = _window_vectors(patches, keep, rows[b], per_image, ids[b], cfg, ws)
                blocks.append(_encode(params, windows, with_cls[b], workspace=ws).logits)
            yield rows, blocks[0] if taped else Tensor(np.concatenate([t.data for t in blocks]))
    finally:
        plan.workspace.lease.release()


def batched_certify_forward(images: np.ndarray, params: ModelParams, plan: WindowPlan,
                            positions: list[int] | None = None) -> tuple[np.ndarray, int]:
    """Class logits for every (image, band position) pair.

    Returns ((n_images, n_positions, num_classes) array, forwards used).
    ``positions`` defaults to every band position; each entry, repeats
    included, gets its own logits, and one outside [0, w) is an error.
    Every image is asked for every wanted position in one
    ``forward_windows`` call, which patchifies each image once and ablates
    only the gathered window tokens, so each row's logits are bit-identical
    to a lone forward_band_unit call on that image and band.

    The forwards count follows the plan: one per group of token-disjoint
    windows that holds a wanted position. No packing of the full plan's
    windows takes fewer than ``plan.forwards_lower_bound`` forwards. The
    plan stays within band_width + patch_size forwards at the wrapped-band
    (w, p, b) the tests check: (16, 4, 2), (16, 4, 4), (32, 4, 4),
    (32, 4, 8) and (64, 8, 8). That is no general bound for wrapped
    bands: w=16, p=4, b=7 plans 12 forwards against 11. With unwrapped
    bands it held at every geometry tried (w from 16 to 224, p in
    {4, 8, 14, 16}, b up to 32 plus w/2 and w), which is a measurement,
    not a proof.
    """
    cfg = params.cfg
    imgs = np.asarray(images)
    if imgs.ndim == 3:
        imgs = imgs[None]
    if imgs.ndim != 4 or imgs.shape[1] != 3:
        raise ContractError(f"batched_certify_forward: expected (n, 3, h, w), got {imgs.shape}")
    n_img = imgs.shape[0]
    wanted = list(range(plan.image_width)) if positions is None else list(positions)
    bad = [p for p in wanted if not 0 <= p < plan.image_width]
    if bad:
        raise ContractError(f"batched_certify_forward: band positions {bad[:3]} "
                            f"outside [0, {plan.image_width})")
    wanted_set = set(wanted)
    forwards = sum(1 for group in plan.groups if wanted_set.intersection(group))
    out = np.zeros((n_img, len(wanted), cfg.num_classes), dtype=params.dtype)
    if not wanted:
        return out, forwards
    k = len(wanted)
    grid = np.broadcast_to(np.asarray(wanted, dtype=np.int64), (n_img, k))
    for rows, logits in forward_windows(imgs, grid, params, plan):
        out[rows // k, rows % k] = logits.data
    return out, forwards


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
