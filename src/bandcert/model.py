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
  only those, and runs one encoder call per window width.
  ``finetune_band`` takes a loss term per width, and
  ``batched_certify_forward`` places the logits per (image, position) and
  counts forwards from the plan's groups of token-disjoint windows.

The checkpoint format is a little-endian binary container: magic "ECVT",
u32 version, then per tensor u32 name length, UTF-8 name, u32 rank, u64
dims, raw float32 data.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataFormatError, NumericError
from .smoothing import BandSpec, band_keep, band_token_span

CHECKPOINT_MAGIC = b"ECVT"
CHECKPOINT_VERSION = 1
INPUT_CHANNELS = 4  # RGB + ablation mask plane, as ablate_batch emits them


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
    shapes["recon_vocab.weight"] = (d, cfg.codebook_size)
    shapes["recon_vocab.bias"] = (cfg.codebook_size,)
    shapes["recon_proj.weight"] = (d, d)
    shapes["recon_proj.bias"] = (d,)
    return shapes

RECON_PREFIXES = ("recon_vocab.", "recon_proj.")


class ModelParams:
    """Named parameter tensors in a fixed order (the checkpoint order)."""

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
        rng = np.random.default_rng([int(seed), 0x5eed])
        tensors: dict[str, Tensor] = {}
        for name, shape in _param_shapes(cfg).items():
            leaf = name.split(".")[-1]
            if leaf in ("beta", "bias", "bq", "bk", "bv", "bo", "b1", "b2"):
                arr = np.zeros(shape)
            elif leaf == "gamma":
                arr = np.ones(shape)
            else:
                arr = rng.normal(0.0, 0.02, size=shape)
            tensors[name] = Tensor(np.ascontiguousarray(arr, dtype=ad.TRAIN_DTYPE),
                                   requires_grad=True)
        return cls(cfg, tensors)

    @property
    def dtype(self):
        return next(iter(self.tensors.values())).dtype

    def cast(self, dtype, trainable: bool = False) -> "ModelParams":
        return ModelParams(self.cfg, {
            name: Tensor(np.ascontiguousarray(t.data, dtype=dtype),
                         requires_grad=trainable)
            for name, t in self.tensors.items()})

    def update(self, fresh: dict[str, Tensor]) -> None:
        for name, t in fresh.items():
            if name not in self.tensors:
                raise ContractError(f"ModelParams.update: unknown parameter '{name}'")
            if t.shape != self.tensors[name].shape:
                raise ContractError(f"ModelParams.update: shape change for '{name}'")
            self.tensors[name] = t

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


# ---------------------------------------------------------------------------
# tokenization of the pixel grid


def patchify(inputs: np.ndarray, patch_size: int) -> np.ndarray:
    """(B, C, H, W) -> (B, N, C*P*P) patch vectors, row-major patch order."""
    x = np.asarray(inputs)
    if x.ndim != 4:
        raise ContractError(f"patchify: expected (B, C, H, W), got {x.shape}")
    b, c, h, w = x.shape
    if h % patch_size or w % patch_size:
        raise ContractError(f"patchify: patch {patch_size} does not divide {h}x{w}")
    rows, cols = h // patch_size, w // patch_size
    x = x.reshape(b, c, rows, patch_size, cols, patch_size)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(x.reshape(b, rows * cols, c * patch_size * patch_size))


@dataclass
class EncoderActivations:
    tokens_out: Tensor | None  # H_O after the final layer norm; None unless asked for
    logits: Tensor             # class logits read from the class token


def _affine_ln(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    y = ad.layer_norm(x)
    return ad.add(ad.mul(y, params[prefix + ".gamma"]), params[prefix + ".beta"])


def _linear(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    return ad.add(ad.matmul(x, params[prefix + ".weight"]), params[prefix + ".bias"])


def _encoder(params: ModelParams, h: Tensor, attn_bias: Tensor | None,
             tokens: bool) -> Tensor:
    cfg = params.cfg
    heads = cfg.num_heads
    scale = Tensor(np.asarray(1.0 / math.sqrt(cfg.head_dim), dtype=h.dtype))
    for i in range(cfg.num_layers):
        p = f"blocks.{i}"
        try:
            pre = _affine_ln(h, params, p + ".ln1")
            query = pre
            if i == cfg.num_layers - 1 and not tokens:
                # Only the class row reaches the logits: the last block keys
                # and values every row but queries, mixes and norms row 0.
                h = ad.slice_axis(h, 1, 0, 1)
                query = ad.slice_axis(pre, 1, 0, 1)
            q = ad.add(ad.matmul(query, params[p + ".attn.wq"]), params[p + ".attn.bq"])
            k = ad.add(ad.matmul(pre, params[p + ".attn.wk"]), params[p + ".attn.bk"])
            v = ad.add(ad.matmul(pre, params[p + ".attn.wv"]), params[p + ".attn.bv"])
            q, k, v = (ad.split_heads(t, heads) for t in (q, k, v))
            scores = ad.mul(ad.matmul(q, k, transpose_b=True), scale)
            if attn_bias is not None:
                scores = ad.add(scores, attn_bias)
            o = ad.merge_heads(ad.matmul(ad.softmax_lastdim(scores), v))
            o = ad.add(ad.matmul(o, params[p + ".attn.wo"]), params[p + ".attn.bo"])
            h = ad.add(h, o)
            pre2 = _affine_ln(h, params, p + ".ln2")
            m = ad.add(ad.matmul(pre2, params[p + ".mlp.w1"]), params[p + ".mlp.b1"])
            m = ad.gelu(m)
            m = ad.add(ad.matmul(m, params[p + ".mlp.w2"]), params[p + ".mlp.b2"])
            h = ad.add(h, m)
        except NumericError as e:
            raise NumericError(f"encoder block {i}: {e}") from e
    return _affine_ln(h, params, "final_ln")


def _class_logits(params: ModelParams, h_out: Tensor) -> Tensor:
    # Keep the class row 3-d so the head matmul runs as a per-slice gufunc.
    # A 2-d (batch, dim) gemm picks different BLAS kernels at different row
    # counts, which breaks bit-identity between batched and lone forwards.
    cls = ad.slice_axis(h_out, 1, 0, 1)
    logits = _linear(cls, params, "head")
    return ad.reshape(logits, (h_out.shape[0], params.cfg.num_classes))


def _encode(params: ModelParams, patches: np.ndarray, pos_ids: np.ndarray | None = None,
            attn_bias: Tensor | None = None, *, tokens: bool = False) -> EncoderActivations:
    """The one encoder entry point: H_I = [cls; E x_1; ...; E x_K] + pos rows,
    then the blocks, the final layer norm and the class logits.

    ``patches`` is (B, K, patch_dim). ``pos_ids`` are the position-table
    rows to add, (K+1,) shared by the batch or (B, K+1) per sample: 0 for
    the class token, then patch-token id + 1 for each patch. ``None`` means
    the full sequence in grid order, which adds the whole table.

    With ``tokens`` every row runs through every block and ``tokens_out``
    holds all of them. Without it the last block runs its query, attention,
    out-projection, MLP and the final norm on the class row alone (keys and
    values still come from every row), and ``tokens_out`` is None.
    """
    cfg = params.cfg
    x = Tensor(np.ascontiguousarray(patches, dtype=params.dtype))
    proj = ad.matmul(x, params["patch_embed.weight"])
    b = proj.shape[0]
    cls = ad.reshape(params["cls_token"], (1, 1, cfg.embed_dim))
    zeros = Tensor(np.zeros((b, 1, cfg.embed_dim), dtype=params.dtype))
    h = ad.concat([ad.add(zeros, cls), proj], axis=1)
    if pos_ids is None:
        pos_rows = params["pos_embed"]
    else:
        pos_rows = ad.embedding_lookup(params["pos_embed"], pos_ids)
    h_out = _encoder(params, ad.add(h, pos_rows), attn_bias, tokens)
    return EncoderActivations(tokens_out=h_out if tokens else None,
                              logits=_class_logits(params, h_out))


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
        bias = Tensor(np.where(allowed, 0.0, ad.MASK_OFF).astype(params.dtype))
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
    band_width: int
    image_width: int
    window_ids: list[np.ndarray]     # per band position: window_token_ids
    groups: list[list[int]]          # band positions packed per forward

    @property
    def num_forwards(self) -> int:
        return len(self.groups)


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
    patches = patchify(imgs, ps)
    _, n_cols = cfg.grid
    sizes = np.array([ids.size for ids in plan.window_ids])[pos]
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        ids = np.stack([plan.window_ids[p] for p in pos[rows]])
        n, k = ids.shape
        # keep flag of each pixel column of each gathered token: (n, k, ps)
        col_keep = keep[rows[:, None, None], (ids % n_cols)[:, :, None] * ps + np.arange(ps)]
        flags = col_keep[:, :, None, None, :]
        pixels = patches[(rows // per_image)[:, None], ids].reshape(n, k, 3, ps, ps) * flags
        windows = np.concatenate([pixels, np.broadcast_to(flags, (n, k, 1, ps, ps))], axis=2)
        with_cls = np.concatenate([np.zeros((n, 1), dtype=np.int64), ids + 1], axis=1)
        yield rows, _encode(params, windows.reshape(n, k, cfg.patch_dim), with_cls).logits


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
    windows that holds a wanted position. The full plan stays within
    band_width + patch_size forwards at the wrapped-band (w, p, b) the
    tests check: (16, 4, 2), (16, 4, 4), (32, 4, 4), (32, 4, 8) and
    (64, 8, 8). That is no general bound for wrapped bands: w=16, p=4, b=7
    plans 12 forwards against 11. With unwrapped bands it held at every
    geometry tried (w from 16 to 224, p in {4, 8, 14, 16}, b up to 32 plus
    w/2 and w), which is a measurement, not a proof.
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
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: checkpoint version {version}, this build "
                              f"reads version {CHECKPOINT_VERSION}")
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
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise DataFormatError(f"{path}: tensor names do not match the config "
                              f"(missing {missing[:3]}, extra {extra[:3]})")
    out: dict[str, Tensor] = {}
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise DataFormatError(f"{path}: '{name}' stored as {tensors[name].shape}, "
                                  f"config wants {shape}")
        if not np.isfinite(tensors[name]).all():
            raise DataFormatError(f"{path}: tensor '{name}' holds NaN or Inf")
        out[name] = Tensor(np.ascontiguousarray(tensors[name], dtype=dtype),
                           requires_grad=False)
    return ModelParams(cfg, out)
