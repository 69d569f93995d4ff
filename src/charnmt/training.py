"""Teacher-forced training: smoothed cross-entropy, Adam with a warmup
schedule, the epoch loop with per-epoch validation, and checkpoint I/O.

Everything is deterministic given the root seed: batch order and dropout
draw from per-epoch child seeds, so resuming from an epoch-boundary
checkpoint reproduces the uninterrupted trajectory bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bleu import DEFAULT_TOKENIZER, TOKENIZERS, corpus_bleu
from .data import Batch, ParallelCorpus, Vocabulary, make_batches, overlong_pair, write_lines
from .decoding import greedy_decode_batch
from .model import (
    CONV_WINDOWS,
    FUSE_WINDOW,
    ModelConfig,
    check_field_types,
    model_forward,
    param_shapes,
)
from .tensor import (
    MaskError,
    NonFiniteError,
    ParameterSet,
    Tensor,
    log_softmax_lastdim,
    mul,
    require_finite,
    rerun_checked,
    seed_for_name,
    tsum,
)


def masked_cross_entropy(logits: Tensor, tgt_out: np.ndarray, tgt_mask: np.ndarray,
                         smoothing: float) -> Tensor:
    """Mean negative log-likelihood over non-pad target positions.

    With label smoothing alpha, the per-position target distribution is
    (1-alpha) on the gold id plus alpha/V spread uniformly: so the loss is
    the cross-entropy against that mixture. alpha=0 recovers plain NLL.
    """
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("smoothing must be in [0, 1)")
    b, t, v = logits.shape
    if tgt_out.shape != (b, t) or tgt_mask.shape != (b, t):
        raise ValueError("targets and mask must both be [B, T]")
    if tgt_out.min() < 0 or tgt_out.max() >= v:
        raise ValueError("target id out of range")
    n_real = int(tgt_mask.sum())
    if n_real == 0:
        raise MaskError("every target position is padding")
    q = np.full((b, t, v), smoothing / v)
    np.put_along_axis(q, tgt_out[..., None], smoothing / v + (1.0 - smoothing), axis=-1)
    q *= tgt_mask[..., None]
    logp = log_softmax_lastdim(logits)
    return tsum(mul(logp, Tensor(q))) * (-1.0 / n_real)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.98, 1e-9  # the Transformer's Adam
CLIP_NORM = 1.0  # the gradient's global L2 norm is clipped to this


@dataclass
class AdamState:
    """First and second moment estimates, flat in the layout of the
    parameter arena (``ParameterSet.data``), plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: ParameterSet) -> "AdamState":
        return cls(m=np.zeros_like(params.data), v=np.zeros_like(params.data))


def adam_step(params: ParameterSet, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the whole parameter buffer from the
    gradient buffer, in place.

    A non-finite gradient aborts, naming the first parameter that holds
    one, before any parameter or moment is touched.
    """
    if lr <= 0.0:
        raise ValueError("lr must be positive")
    g = params.grad
    if not np.isfinite(g).all():
        name = next(n for n, view in params.views(g).items() if not np.isfinite(view).all())
        raise NonFiniteError(f"non-finite gradient for '{name}'")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * g * g
    params.data -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)


def lr_at_step(step: int, d_model: int, warmup: int) -> float:
    """Inverse-sqrt schedule: linear ramp to the peak at step == warmup,
    then decay as step^-0.5, the whole curve scaled by d_model^-0.5."""
    if step < 1 or warmup < 1:
        raise ValueError("step and warmup must be >= 1")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


def clip_grad_norm(params: ParameterSet) -> float:
    """Scale the gradient buffer so its global L2 norm is at most CLIP_NORM.
    Returns the pre-clip norm."""
    # per-parameter sums added in name order: one sum over the whole buffer
    # rounds differently and would move every training trajectory
    total = 0.0
    for g in params.views(params.grad).values():
        total += float((g * g).sum())
    norm = total ** 0.5
    if np.isfinite(norm) and norm > CLIP_NORM:
        params.grad *= CLIP_NORM / norm
    return norm


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int = 10
    max_tokens: int = 4096
    warmup: int = 400
    seed: int = 0
    label_smoothing: float = 0.1
    bleu_mode: str = DEFAULT_TOKENIZER
    early_stop_bleu: float = 0.0   # > 0: stop once every val set clears it

    def __post_init__(self):
        check_field_types(self)
        for name, least in (("epochs", 0), ("seed", 0), ("warmup", 1), ("max_tokens", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if not 0.0 <= self.early_stop_bleu <= 100.0:
            raise ValueError(f"early_stop_bleu must be in [0, 100], got {self.early_stop_bleu}")
        if self.bleu_mode not in TOKENIZERS:
            raise ValueError(f"bleu_mode must be one of {TOKENIZERS}")


@dataclass
class StepRecord:
    step: int
    epoch: int
    loss: float
    seconds: float
    lr: float
    grad_norm: float  # before clipping
    tokens: int  # target tokens of the step's batch
    tokens_per_s: float  # tokens over the step's wall time


@dataclass
class EpochRecord:
    step: int
    epoch: int
    val_loss: float
    val_bleu: dict[str, float]
    seconds: float
    eval_seconds: float  # wall time of the epoch's validation


@dataclass
class TrainLog:
    """Append-only record of per-step losses and per-epoch validation."""

    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)

    def write_csv(self, path) -> None:
        """step,epoch,loss,val_loss,val_bleu,seconds,lr,grad_norm,tokens,
        tokens_per_s,eval_seconds with one row per step and one validation
        row per epoch (first validation set's BLEU)."""
        rows = ["step,epoch,loss,val_loss,val_bleu,seconds,lr,grad_norm,tokens,tokens_per_s,"
                "eval_seconds"]
        merged = [(s.step, 0, s) for s in self.steps] + [(e.step, 1, e) for e in self.epochs]
        merged.sort(key=lambda r: (r[0], r[1]))
        for _, kind, rec in merged:
            if kind == 0:
                rows.append(f"{rec.step},{rec.epoch},{rec.loss:.6f},,,{rec.seconds:.3f},"
                            f"{rec.lr:.6g},{rec.grad_norm:.6g},{rec.tokens},"
                            f"{rec.tokens_per_s:.6g},")
            else:
                bleu = next(iter(rec.val_bleu.values()), float("nan"))
                rows.append(f"{rec.step},{rec.epoch},,{rec.val_loss:.6f},"
                            f"{bleu:.4f},{rec.seconds:.3f},,,,,{rec.eval_seconds:.3f}")
        write_lines(path, rows)

    def write_curves_csv(self, path) -> None:
        """Per-epoch BLEU curves, one column per validation set."""
        names = list(self.epochs[0].val_bleu) if self.epochs else []
        rows = ["epoch," + ",".join(names)]
        for e in self.epochs:
            rows.append(f"{e.epoch}," + ",".join(f"{e.val_bleu[n]:.4f}" for n in names))
        write_lines(path, rows)


@rerun_checked
def evaluate(params: ParameterSet, config: ModelConfig, val_sets: dict[str, ParallelCorpus],
             vocab: Vocabulary, train_config: TrainConfig) -> tuple[float, dict[str, float]]:
    """Teacher-forced loss over all validation pairs and greedy-decoding
    BLEU per validation set."""
    losses, weights = [], []
    bleus: dict[str, float] = {}
    for name, corpus in val_sets.items():
        for batch in make_batches(corpus, vocab, train_config.max_tokens, seed=0):
            logits, cross_maps = model_forward(batch, params, config)
            require_finite("the teacher-forced logits and cross-attention", logits.data,
                           *(m.data for m in cross_maps))
            loss = masked_cross_entropy(logits, batch.tgt_out_ids, batch.tgt_mask,
                                        train_config.label_smoothing)
            losses.append(loss.item())
            weights.append(batch.n_target_tokens)
        hyps = greedy_decode_batch(params, config, [s for s, _ in corpus.pairs], vocab)
        bleus[name] = corpus_bleu(hyps, [t for _, t in corpus.pairs],
                                  tokenizer=train_config.bleu_mode)
    val_loss = float(np.average(losses, weights=weights)) if losses else float("nan")
    return val_loss, bleus


def _check_fits(corpus: ParallelCorpus, val_sets: dict[str, ParallelCorpus],
                limit: int) -> None:
    named = [("training corpus", corpus)] + [(f"validation set '{name}'", val)
                                             for name, val in val_sets.items()]
    for what, subset in named:
        if not subset.pairs:
            raise ValueError(f"{what} is empty")
        overlong = overlong_pair(subset.pairs, limit)
        if overlong is not None:
            raise ValueError(f"{what}: pair {overlong[0]} needs {overlong[1]} tokens, "
                             f"over min(max_len, max_tokens) = {limit}")


def train(params: ParameterSet, config: ModelConfig, train_config: TrainConfig,
          corpus: ParallelCorpus, vocab: Vocabulary,
          val_sets: dict[str, ParallelCorpus] | None = None,
          out_dir=None, adam: AdamState | None = None,
          start_epoch: int = 0, log: TrainLog | None = None) -> TrainLog:
    """Run the epoch loop: shuffle, batch, forward, loss, backward, clip,
    Adam step; validate once per epoch.

    Before the first step, an empty training corpus or validation set and
    any pair of either that needs more than min(max_len, max_tokens) tokens
    (see ``data.overlong_pair``) are rejected, naming the set and the
    pair's 1-based position.

    Batch order and dropout are drawn from child seeds of
    (train_config.seed, epoch), so a run resumed from an epoch-boundary
    checkpoint (pass ``start_epoch``, ``adam``) continues the exact
    uninterrupted trajectory and keeps the ``best.ckpt`` in ``out_dir``
    until an epoch scores at least as well. A non-finite loss or gradient
    aborts with the parameters and ``adam`` restored to the last completed
    epoch, the pair ``latest.ckpt`` holds; checkpoints already on disk are
    left in place.
    """
    _check_fits(corpus, val_sets or {}, min(config.max_len, train_config.max_tokens))
    adam = adam if adam is not None else AdamState.for_params(params)
    log = log if log is not None else TrainLog()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    best_bleu = -1.0
    if start_epoch > 0 and val_sets and out_dir is not None and (out_dir / "best.ckpt").exists():
        # evaluate is deterministic: this is the score best.ckpt was saved with
        _, bleus = evaluate(checkpoint_load(out_dir / "best.ckpt").params, config, val_sets,
                            vocab, train_config)
        best_bleu = float(np.mean(list(bleus.values())))
    try:
        for epoch in range(start_epoch, train_config.epochs):
            # what an abort restores: the state after the last completed epoch
            saved = params.data.copy(), adam.m.copy(), adam.v.copy(), adam.t
            batches = make_batches(corpus, vocab, train_config.max_tokens,
                                   seed=seed_for_name(train_config.seed, f"batches.{epoch}"))
            drop_rng = np.random.Generator(np.random.PCG64(
                seed_for_name(train_config.seed, f"dropout.{epoch}")))
            for batch in batches:
                step_start = time.perf_counter()
                lr = lr_at_step(adam.t + 1, config.d_model, train_config.warmup)
                params.zero_grad()
                logits, _ = model_forward(batch, params, config, rng=drop_rng)
                loss = masked_cross_entropy(logits, batch.tgt_out_ids, batch.tgt_mask,
                                            train_config.label_smoothing)
                loss.backward()
                grad_norm = clip_grad_norm(params)
                adam_step(params, adam, lr)
                now, tokens = time.perf_counter(), batch.n_target_tokens
                log.steps.append(StepRecord(adam.t, epoch, loss.item(), now - t0, lr, grad_norm,
                                            tokens, tokens / (now - step_start)))
            eval_start = time.perf_counter()
            val_loss, val_bleu = (evaluate(params, config, val_sets, vocab, train_config)
                                  if val_sets else (float("nan"), {}))
            now = time.perf_counter()
            log.epochs.append(EpochRecord(adam.t, epoch, val_loss, val_bleu, now - t0,
                                          now - eval_start))
            if out_dir is not None:
                checkpoint_save(params, config, vocab, adam, out_dir / "latest.ckpt",
                                step=adam.t, epoch=epoch + 1)
                mean_bleu = float(np.mean(list(val_bleu.values()))) if val_bleu else 0.0
                if not val_bleu or mean_bleu >= best_bleu:
                    best_bleu = mean_bleu
                    checkpoint_save(params, config, vocab, adam, out_dir / "best.ckpt",
                                    step=adam.t, epoch=epoch + 1)
            if (train_config.early_stop_bleu > 0 and val_bleu
                    and all(b >= train_config.early_stop_bleu for b in val_bleu.values())):
                break
    except NonFiniteError as e:
        for live, snapshot in zip((params.data, adam.m, adam.v), saved):
            np.copyto(live, snapshot)
        adam.t = saved[3]
        raise RuntimeError(f"training aborted: {e}; parameters and Adam state restored to "
                           f"the last completed epoch") from e
    if out_dir is not None and not (out_dir / "latest.ckpt").exists():
        checkpoint_save(params, config, vocab, adam, out_dir / "latest.ckpt",
                        step=adam.t, epoch=start_epoch)
    return log


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"CXF1"
CKPT_VERSION = 1
_F64_TAG = 0  # the record dtype tag of little-endian float64, the only one written
_F64 = np.dtype("<f8")
# model config keys that headers written before the conv block's windows
# became constants carry, each at the one value such a header can hold
_FORMER_CONFIG_KEYS = {"conv_windows": list(CONV_WINDOWS), "fuse_window": FUSE_WINDOW}


@dataclass
class CheckpointBundle:
    params: ParameterSet
    config: ModelConfig
    vocab: Vocabulary
    adam: AdamState | None
    step: int
    epoch: int


def _write_record(f, name: str, arr: np.ndarray) -> None:
    raw_name = name.encode("utf-8")
    f.write(struct.pack("<H", len(raw_name)))
    f.write(raw_name)
    f.write(struct.pack("<BB", _F64_TAG, arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype=_F64).tobytes())


def _read_exact(f, n: int) -> bytes:
    """Read n bytes; a count that is negative or runs past the file's end is
    rejected before reading, so a damaged length cannot allocate or wrap."""
    if not 0 <= n <= os.fstat(f.fileno()).st_size - f.tell():
        raise ValueError("truncated or damaged checkpoint")
    return f.read(n)


def _read_record(f) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(f, 2))
    name = _read_exact(f, name_len).decode("utf-8")
    tag, ndim = struct.unpack("<BB", _read_exact(f, 2))
    if tag != _F64_TAG:
        raise ValueError(f"unknown dtype tag {tag} in checkpoint")
    shape = struct.unpack(f"<{ndim}q", _read_exact(f, 8 * ndim))
    count = math.prod(shape)
    arr = np.frombuffer(_read_exact(f, count * _F64.itemsize), dtype=_F64)
    return name, arr.astype(np.float64).reshape(shape)


def checkpoint_save(params: ParameterSet, config: ModelConfig, vocab: Vocabulary,
                    adam: AdamState | None, path, step: int, epoch: int) -> None:
    """Binary checkpoint: magic, version byte, JSON header, then one float64
    record per array, sorted by record name (``adam.m/...`` and
    ``adam.v/...`` before ``param/...``).

    The file is written next to ``path`` under a temporary name, synced,
    and renamed over ``path``, so a crash leaves the old file or the new
    one, never a torn one.
    """
    header = {
        "config": asdict(config),
        "vocab_chars": "".join(vocab.chars),
        "step": int(step),
        "epoch": int(epoch),
        "adam": None if adam is None else {"t": adam.t},
    }
    records: list[tuple[str, np.ndarray]] = [(f"param/{n}", p.data) for n, p in params.items()]
    if adam is not None:
        records += [(f"adam.m/{n}", m) for n, m in params.views(adam.m).items()]
        records += [(f"adam.v/{n}", v) for n, v in params.views(adam.v).items()]
    records.sort(key=lambda r: r[0])
    raw_header = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<B", CKPT_VERSION))
            f.write(struct.pack("<I", len(raw_header)))
            f.write(raw_header)
            f.write(struct.pack("<I", len(records)))
            for name, arr in records:
                _write_record(f, name, arr)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def checkpoint_load(path) -> CheckpointBundle:
    """Restore a checkpoint_save file; rejects wrong magic or version, a
    missing or invalid header field, a truncated or damaged body, a
    duplicate record, bytes after the last record, and records or shapes
    that disagree with the header's architecture, naming the file."""
    try:
        return _checkpoint_read(path)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _checkpoint_read(path) -> CheckpointBundle:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CKPT_MAGIC:
            raise ValueError("not a checkpoint file")
        (version,) = struct.unpack("<B", _read_exact(f, 1))
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<I", _read_exact(f, 4))
        text = _read_exact(f, header_len).decode("utf-8")
        try:
            header = json.loads(text)
        except RecursionError:
            raise ValueError("checkpoint header is nested too deeply") from None
        if not isinstance(header, dict):
            raise ValueError(f"checkpoint header must be a JSON object, not "
                             f"{type(header).__name__}")
        (n_records,) = struct.unpack("<I", _read_exact(f, 4))
        records: dict[str, np.ndarray] = {}
        for _ in range(n_records):
            name, arr = _read_record(f)
            if name in records:
                raise ValueError(f"checkpoint holds record '{name}' twice")
            records[name] = arr
        trailing = len(f.read())
        if trailing:
            raise ValueError(f"checkpoint has {trailing} bytes after its last record")
    for key in ("config", "vocab_chars", "step", "epoch", "adam"):
        if key not in header:
            raise ValueError(f"checkpoint header has no '{key}'")
    try:
        fields = {**header["config"]}
        for key, value in _FORMER_CONFIG_KEYS.items():
            if json.dumps(fields.pop(key, value)) != json.dumps(value):
                raise ValueError(f"'{key}' must be {value}, the conv block's")
        config = ModelConfig(**fields)
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad model config in the checkpoint header: {e}") from None
    if not isinstance(header["vocab_chars"], str):
        raise ValueError(f"checkpoint header 'vocab_chars' must be a string, "
                         f"got {header['vocab_chars']!r}")
    vocab = Vocabulary(chars=tuple(header["vocab_chars"]))
    if vocab.size != config.vocab_size:
        raise ValueError(f"checkpoint header 'vocab_chars' gives {vocab.size} ids, "
                         f"the model config's vocab_size is {config.vocab_size}")
    adam_header = header["adam"]
    if not (adam_header is None or isinstance(adam_header, dict) and "t" in adam_header):
        raise ValueError(f"checkpoint header 'adam' must be null or an object with 't', "
                         f"got {adam_header!r}")
    counts = {"step": header["step"], "epoch": header["epoch"],
              "adam.t": 0 if adam_header is None else adam_header["t"]}
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"checkpoint header '{name}' must be an integer >= 0, got {value!r}")
    expected = param_shapes(config)
    named = {f"{kind}/{n}" for n in expected
             for kind in (("param",) if adam_header is None else ("param", "adam.m", "adam.v"))}
    extra = next((key for key in records if key not in named), None)
    if extra is not None:
        raise ValueError(f"checkpoint holds record '{extra}', which its header's model "
                         f"and Adam state do not name")

    def record(kind: str, name: str) -> np.ndarray:
        key = f"{kind}/{name}"
        what = f"parameter '{name}'" if kind == "param" else f"Adam moment '{key}'"
        if key not in records:
            raise ValueError(f"checkpoint is missing {what}")
        arr = records[key]
        if arr.shape != expected[name]:
            raise ValueError(f"checkpoint {what} has shape {arr.shape}, "
                             f"model wants {expected[name]}")
        return arr

    params = ParameterSet({name: Tensor(record("param", name)) for name in expected})
    adam = None
    if adam_header is not None:
        m, v = (np.concatenate([record(kind, n).reshape(-1) for n in params.names()])
                for kind in ("adam.m", "adam.v"))
        adam = AdamState(m=m, v=v, t=adam_header["t"])
    return CheckpointBundle(params=params, config=config, vocab=vocab, adam=adam,
                            step=header["step"], epoch=header["epoch"])
