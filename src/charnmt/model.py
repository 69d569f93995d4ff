"""Transformer and convtransformer encoder/decoder models.

Both share embeddings, sinusoidal positions, multi-head attention,
post-norm residual sub-layers, and the decoder. The "conv" encoder kind
prepends a convolutional sub-block to every encoder layer: three parallel
same-padded 1D convolutions with windows 3/5/7, concatenated and fused by
a window-3 convolution, added back to the input through a residual
connection. The convolutions are purely linear and keep the temporal
resolution unchanged.

All forward functions are batched: ids are [B, T] integer arrays and
activations are [B, T, d_model] tensors; the single-sentence case is B=1.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tensor import (
    ParameterSet,
    ShapeError,
    Tensor,
    attention,
    concat,
    conv1d_same,
    dropout,
    embedding,
    init_param,
    layer_norm,
    linear,
    matmul,  # noqa: F401  (unused; perfbench's tracer test wraps charnmt.model.matmul)
    relu,
    require_finite,
    rerun_checked,
    seed_for_name,
)

ENCODER_KINDS = ("standard", "conv")
CONV_WINDOWS = (3, 5, 7)  # the conv block's parallel branches, concatenated in this order
FUSE_WINDOW = 3  # the convolution that fuses them

# what a config field declared with each scalar type accepts, and its name in errors
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                "str": (str, "a string"), "str | None": ((str, type(None)), "a string or null")}


def check_field_types(config) -> None:
    """Reject the first field of a config dataclass whose value is not of its
    declared scalar type (an integer is a number; a bool is neither), naming
    the field, so a run config with ``"epochs": "2"`` fails before any work."""
    for f in dataclasses.fields(config):
        kind = _FIELD_KINDS.get(f.type)
        value = getattr(config, f.name)
        if kind is not None and (isinstance(value, bool) or not isinstance(value, kind[0])):
            raise ValueError(f"{f.name} must be {kind[1]}, got {value!r}")


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by both encoder kinds."""

    vocab_size: int
    d_model: int = 512
    n_layers: int = 6
    n_heads: int = 8
    d_ff: int = 0  # 0 resolves to 4 * d_model
    encoder_kind: str = "standard"
    dropout: float = 0.1
    max_len: int = 512

    def __post_init__(self):
        check_field_types(self)
        for name, least in (("vocab_size", 1), ("d_model", 1), ("n_layers", 1), ("n_heads", 1),
                            ("d_ff", 0), ("max_len", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_model
        if self.encoder_kind not in ENCODER_KINDS:
            raise ValueError(f"encoder_kind must be one of {ENCODER_KINDS}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even for sinusoidal positions")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


# ---------------------------------------------------------------------------
# parameter skeleton
# ---------------------------------------------------------------------------

def _attn_shapes(prefix: str, d: int) -> dict[str, tuple[int, ...]]:
    shapes = {}
    for proj in ("q_proj", "k_proj", "v_proj", "out_proj"):
        shapes[f"{prefix}.{proj}.weight"] = (d, d)
        shapes[f"{prefix}.{proj}.bias"] = (d,)
    return shapes


def _ff_shapes(prefix: str, d: int, d_ff: int) -> dict[str, tuple[int, ...]]:
    return {
        f"{prefix}.w1.weight": (d, d_ff),
        f"{prefix}.w1.bias": (d_ff,),
        f"{prefix}.w2.weight": (d_ff, d),
        f"{prefix}.w2.bias": (d,),
    }


def _norm_shapes(prefix: str, d: int) -> dict[str, tuple[int, ...]]:
    return {f"{prefix}.gain": (d,), f"{prefix}.bias": (d,)}


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name and shape for a model of this configuration."""
    d, v = config.d_model, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "src_embed.weight": (v, d),
        "tgt_embed.weight": (v, d),
        "out.weight": (d, v),
        "out.bias": (v,),
    }
    for i in range(config.n_layers):
        if config.encoder_kind == "conv":
            for w in CONV_WINDOWS:
                shapes[f"enc.{i}.conv.w{w}.weight"] = (w, d, d)
                shapes[f"enc.{i}.conv.w{w}.bias"] = (d,)
            shapes[f"enc.{i}.conv.fuse.weight"] = (FUSE_WINDOW, len(CONV_WINDOWS) * d, d)
            shapes[f"enc.{i}.conv.fuse.bias"] = (d,)
        shapes.update(_attn_shapes(f"enc.{i}.attn", d))
        shapes.update(_norm_shapes(f"enc.{i}.attn_norm", d))
        shapes.update(_ff_shapes(f"enc.{i}.ff", d, config.d_ff))
        shapes.update(_norm_shapes(f"enc.{i}.ff_norm", d))
        shapes.update(_attn_shapes(f"dec.{i}.self_attn", d))
        shapes.update(_norm_shapes(f"dec.{i}.self_norm", d))
        shapes.update(_attn_shapes(f"dec.{i}.cross_attn", d))
        shapes.update(_norm_shapes(f"dec.{i}.cross_norm", d))
        shapes.update(_ff_shapes(f"dec.{i}.ff", d, config.d_ff))
        shapes.update(_norm_shapes(f"dec.{i}.ff_norm", d))
    return shapes


def _init_scheme(name: str) -> str:
    if name.endswith(".gain"):
        return "ones"
    if name.endswith(".bias"):
        return "zeros"
    return "uniform-scaled"


def build_params(config: ModelConfig, seed: int) -> ParameterSet:
    """Initialize a full parameter set.

    Each parameter is seeded from (seed, name), so the weights shared
    between the standard and conv encoder kinds are identical for the
    same root seed.
    """
    return ParameterSet({name: init_param(shape, _init_scheme(name), seed_for_name(seed, name))
                         for name, shape in param_shapes(config).items()})


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def sinusoidal_positions(max_len: int, d_model: int) -> np.ndarray:
    """Sinusoidal position table [max_len, d_model]: sin on even dims, cos
    on odd dims, wavelengths 10000^(2i/d_model). Cached per shape, so the
    array is read-only."""
    if d_model % 2 != 0:
        raise ShapeError("d_model must be even for sinusoidal positions")
    pos = np.arange(max_len)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    enc = np.zeros((max_len, d_model))
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle)
    enc.setflags(write=False)
    return enc


def _linear(x: Tensor, params: ParameterSet, prefix: str) -> Tensor:
    return linear(x, params[f"{prefix}.weight"], params[f"{prefix}.bias"])


def _keys_values(x_kv: Tensor, params: ParameterSet, prefix: str) -> tuple[Tensor, Tensor]:
    """Project ``x_kv`` [B, T_k, d_model] to keys and values [B, T_k, d_model]."""
    return _linear(x_kv, params, f"{prefix}.k_proj"), _linear(x_kv, params, f"{prefix}.v_proj")


def _attend(x_q: Tensor, kv: tuple[Tensor, Tensor], params: ParameterSet, prefix: str,
            n_heads: int, mask: np.ndarray | None) -> tuple[Tensor, Tensor]:
    """Attention of the projected queries of ``x_q`` over projected keys and values."""
    ctx, attn = attention(_linear(x_q, params, f"{prefix}.q_proj"), *kv, n_heads, mask)
    return _linear(ctx, params, f"{prefix}.out_proj"), attn


def multi_head_attention(x_q: Tensor, x_kv: Tensor, params: ParameterSet, prefix: str,
                         n_heads: int, mask: np.ndarray | None = None
                         ) -> tuple[Tensor, Tensor]:
    """Multi-head attention with learned per-head Q/K/V and output projections.

    ``x_q`` is [B, T_q, d_model], ``x_kv`` is [B, T_k, d_model]; ``mask`` must
    broadcast to [B, n_heads, T_q, T_k]. Returns the projected output
    [B, T_q, d_model] and the per-head attention matrices
    [B, n_heads, T_q, T_k], untaped.
    """
    return _attend(x_q, _keys_values(x_kv, params, prefix), params, prefix, n_heads, mask)


def conv_sub_block(m: Tensor, params: ParameterSet, prefix: str, pad_mask: np.ndarray) -> Tensor:
    """Convolutional sub-block: m + fuse(concat(conv_w(m) for each window)).

    All convolutions are same-padded, linear, and map d_model channels to
    d_model (the fusion sees the concatenated 3*d_model channels). With
    every conv weight and bias zero this is exactly the identity. Pad
    positions of the conv input are zeroed (``pad_mask`` [B, T], True =
    real) so outputs at real positions do not depend on how much trailing
    padding a batch carries; the residual keeps ``m`` untouched. The
    branches are concatenated in the order of ``CONV_WINDOWS``.
    """
    keep = Tensor(pad_mask[..., None].astype(float))
    x = m * keep
    branches = [conv1d_same(x, params[f"{prefix}.w{w}.weight"], params[f"{prefix}.w{w}.bias"])
                for w in CONV_WINDOWS]
    fused_in = concat(branches, axis=-1) * keep
    fused = conv1d_same(fused_in, params[f"{prefix}.fuse.weight"], params[f"{prefix}.fuse.bias"])
    return m + fused


def _ffn(x: Tensor, params: ParameterSet, prefix: str) -> Tensor:
    return _linear(relu(_linear(x, params, f"{prefix}.w1")), params, f"{prefix}.w2")


def _sublayer(x: Tensor, sub_out: Tensor, params: ParameterSet, norm_prefix: str,
              config: ModelConfig, rng: np.random.Generator | None) -> Tensor:
    """Post-norm residual wrapper: LayerNorm(x + Dropout(sub_out))."""
    if rng is not None:
        sub_out = dropout(sub_out, config.dropout, rng)
    return layer_norm(x + sub_out, params[f"{norm_prefix}.gain"], params[f"{norm_prefix}.bias"])


def _embed(ids: np.ndarray, params: ParameterSet, which: str, config: ModelConfig,
           rng: np.random.Generator | None, start: int = 0) -> Tensor:
    t = start + ids.shape[-1]
    if t > config.max_len:
        raise ShapeError(f"sequence length {t} exceeds max_len {config.max_len}")
    x = embedding(params[f"{which}.weight"], ids) * math.sqrt(config.d_model)
    x = x + Tensor(sinusoidal_positions(config.max_len, config.d_model)[start:t])
    if rng is not None:
        x = dropout(x, config.dropout, rng)
    return x


# ---------------------------------------------------------------------------
# encoder / decoder
# ---------------------------------------------------------------------------

def _unless_all_true(mask: np.ndarray) -> np.ndarray | None:
    """``mask``, or None when it keeps every position: an all-True mask gives
    the softmax of no mask bit for bit, so it is not worth passing."""
    return None if mask.all() else mask


def encoder_forward(batch, params: ParameterSet, config: ModelConfig,
                    rng: np.random.Generator | None = None) -> Tensor:
    """Run the encoder stack over ``batch.src_ids`` -> [B, T_s, d_model].

    Conv kind runs the conv sub-block first in every layer, then the
    self-attention and feed-forward sub-layers, each as
    LayerNorm(x + Dropout(sub(x))). Source pad positions are masked out of
    the attention keys. Dropout runs if and only if ``rng`` is given.
    """
    ids, src_mask = batch.src_ids, batch.src_mask
    if ids.shape[0] == 0 or ids.shape[1] == 0 or not src_mask.any(axis=1).all():
        raise ShapeError("encoder requires a non-empty source in every row")
    x = _embed(ids, params, "src_embed", config, rng)
    key_mask = _unless_all_true(src_mask[:, None, None, :])  # [B,1,1,T_s]
    for i in range(config.n_layers):
        if config.encoder_kind == "conv":
            x = conv_sub_block(x, params, f"enc.{i}.conv", src_mask)
        a, _ = multi_head_attention(x, x, params, f"enc.{i}.attn", config.n_heads, key_mask)
        x = _sublayer(x, a, params, f"enc.{i}.attn_norm", config, rng)
        f = _ffn(x, params, f"enc.{i}.ff")
        x = _sublayer(x, f, params, f"enc.{i}.ff_norm", config, rng)
    return x


class DecoderState:
    """The keys and values the decoder attends over, beside its new positions' own.

    ``cross`` holds each layer's cross-attention keys and values
    [B, T_s, d_model], projected once per source row from the encoder
    output, ``cross_mask`` the source key mask [B, 1, 1, T_s] (True =
    real), or None when no row has source padding, and ``src_rows`` the
    source row of each row. ``past`` holds each layer's self-attention keys
    and values of the ``length`` positions run so far, [B, length, d_model]
    with each call's positions concatenated along time; a fresh state has
    none. Keys and values stay unsplit: ``attention`` splits the heads as
    views. Target padding needs no mask here: it is right padding, so the
    causal mask hides it from every real position. Every array has one row
    per row of the last call; without ``reorder``, row i continues row i. A
    reorder that moves rows copies them, so it cuts any tape through the
    past.
    """

    def __init__(self, enc_out: Tensor, src_mask: np.ndarray, params: ParameterSet,
                 config: ModelConfig):
        self.cross = [_keys_values(enc_out, params, f"dec.{i}.cross_attn")
                      for i in range(config.n_layers)]
        self.cross_mask = _unless_all_true(src_mask[:, None, None, :])
        self.src_rows = np.arange(len(src_mask))
        self.past: list[tuple[Tensor, Tensor] | None] = [None] * config.n_layers
        self.length = 0

    def reorder(self, parents: np.ndarray) -> None:
        """Row j of the next call continues row ``parents[j]`` of the last
        call: its source row as well as its past. Identity parents change
        nothing, and the cross-attention arrays are gathered only when some
        row's source row changes."""
        if np.array_equal(parents, np.arange(len(self.src_rows))):
            return

        def take(kv: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
            return Tensor(kv[0].data[parents]), Tensor(kv[1].data[parents])

        rows = self.src_rows[parents]
        if not np.array_equal(rows, self.src_rows):
            self.cross = [take(kv) for kv in self.cross]
            if self.cross_mask is not None:
                self.cross_mask = _unless_all_true(self.cross_mask[parents])
            self.src_rows = rows
        self.past = [None if kv is None else take(kv) for kv in self.past]

    def _extend(self, layer: int, kv: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        past = self.past[layer]
        if past is not None:
            kv = (concat([past[0], kv[0]], axis=1), concat([past[1], kv[1]], axis=1))
        self.past[layer] = kv
        return kv


def decoder_forward(batch, state: DecoderState, params: ParameterSet, config: ModelConfig,
                    rng: np.random.Generator | None = None) -> tuple[Tensor, list[Tensor]]:
    """Run the decoder over ``batch.tgt_in_ids``, the positions that follow
    the ``state.length`` positions ``state`` already holds.

    Each layer appends its self-attention keys and values to the state and
    attends causally over all of them: a position sees only itself and
    those before it, so right padding, which follows every real position,
    is hidden by the causal mask alone. Cross-attention reads the state's
    keys and values of the encoder output and hides the source pad keys
    its mask marks. Only ``batch.tgt_in_ids`` is read. Teacher forcing is
    one call on a fresh state. Returns logits [B, T_t, vocab] and the
    per-layer cross-attention tensors [B, n_heads, T_t, T_s].
    """
    ids = batch.tgt_in_ids
    start, t = state.length, ids.shape[1]
    x = _embed(ids, params, "tgt_embed", config, rng, start)
    # one new position sees every key, so only a longer call needs the causal mask
    self_mask = None if t == 1 else np.tri(t, start + t, start, dtype=bool)
    cross_maps: list[Tensor] = []
    for i in range(config.n_layers):
        prefix = f"dec.{i}.self_attn"
        kv = state._extend(i, _keys_values(x, params, prefix))
        a, _ = _attend(x, kv, params, prefix, config.n_heads, self_mask)
        x = _sublayer(x, a, params, f"dec.{i}.self_norm", config, rng)
        c, attn = _attend(x, state.cross[i], params, f"dec.{i}.cross_attn", config.n_heads,
                          state.cross_mask)
        cross_maps.append(attn)
        x = _sublayer(x, c, params, f"dec.{i}.cross_norm", config, rng)
        f = _ffn(x, params, f"dec.{i}.ff")
        x = _sublayer(x, f, params, f"dec.{i}.ff_norm", config, rng)
    state.length += t
    logits = _linear(x, params, "out")
    return logits, cross_maps


def model_forward(batch, params: ParameterSet, config: ModelConfig,
                  rng: np.random.Generator | None = None) -> tuple[Tensor, list[Tensor]]:
    """Teacher-forced forward pass: encoder, then one decoder call over the
    BOS-shifted target on a fresh state. Returns decoder logits and per-layer
    cross-attention."""
    state = DecoderState(encoder_forward(batch, params, config, rng), batch.src_mask, params,
                         config)
    return decoder_forward(batch, state, params, config, rng)


@rerun_checked
def extract_cross_attention(batch, params: ParameterSet, config: ModelConfig
                            ) -> list[np.ndarray]:
    """Last-layer cross-attention per sentence, averaged over heads.

    Each matrix is [target_len x source_len]: rows cover every target
    position (the EOS-producing one included), columns cover real source
    positions only; rows are renormalized to sum to 1 after the head
    average.
    """
    logits, cross_maps = model_forward(batch, params, config)
    require_finite("the teacher-forced logits and cross-attention", logits.data,
                   *(m.data for m in cross_maps))
    last = cross_maps[-1].data.mean(axis=1)  # [B, T_t, T_s]
    out = []
    for row in range(last.shape[0]):
        t_len = int(batch.tgt_mask[row].sum())
        s_len = int(batch.src_mask[row].sum())
        m = last[row, :t_len, :s_len]
        out.append(m / m.sum(axis=-1, keepdims=True))
    return out
