"""Decoding: one batched beam search; greedy is beam width 1.

Each step runs the decoder on the new position only: a ``DecoderState``
keeps every layer's keys and values of the positions before it, and the
cross-attention keys and values of each source row, projected once,
with the row's key mask.
The search is deterministic: hypotheses are ranked by (score desc, ids
asc), so equal scores resolve lexicographically and a greedy step's ties
go to the lowest token id. A hard length cap guarantees termination on
arbitrary (e.g. untrained) models: a source of n characters (n + 1 ids
with EOS) gets int(max_len_ratio * (n + 1)) + 10 tokens, at most max_len - 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    Batch,
    Vocabulary,
    batch_from_rows,
    decode,
    encode_pair,
)
from .model import (
    DecoderState,
    ModelConfig,
    check_field_types,
    decoder_forward,
    encoder_forward,
)
from .tensor import ParameterSet, Tensor, log_softmax_lastdim, no_grad


@dataclass
class DecodeConfig:
    """Search settings; ``beam_size`` 1 is greedy decoding."""

    beam_size: int = 1
    max_len_ratio: float = 3.0    # cap = ratio * (characters + 1 for EOS) + 10, <= max_len - 1
    length_penalty: float = 0.0   # score = logP / length^penalty

    def __post_init__(self):
        check_field_types(self)
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_len_ratio <= 0:
            raise ValueError("max_len_ratio must be positive")
        if self.length_penalty < 0:
            raise ValueError("length_penalty must be >= 0")


def _length_cap(src_len: int, cfg: DecodeConfig, config: ModelConfig) -> int:
    cap = int(cfg.max_len_ratio * src_len) + 10
    return max(1, min(cap, config.max_len - 1))


def _search(params: ParameterSet, config: ModelConfig, srcs: list[str],
            vocab: Vocabulary, cfg: DecodeConfig, width: int) -> list[str]:
    """Beam search of width ``width`` over a batch of sources.

    A hypothesis is (-score, ids, logP, finished, parent), so tuple order
    is the ranking (ids are distinct within a row, so ``parent`` never
    decides it). Every step runs the decoder on the last token of each
    live hypothesis of the rows still searching, after reordering the
    decoder state so that each continues its parent's keys and values; a
    row leaves once all of its kept hypotheses have emitted EOS or reached
    its cap. Finished hypotheses keep competing for beam slots with frozen
    scores.
    """
    if not srcs:
        return []
    rows = [encode_pair(s, "", vocab) for s in srcs]
    caps = [_length_cap(len(r[0]), cfg, config) for r in rows]
    src = batch_from_rows(rows)
    # the last field is the hypothesis's row in the previous decoder call
    beams = [[(0.0, (), 0.0, False, r)] for r in range(len(rows))]
    with no_grad():
        state = DecoderState(encoder_forward(src, params, config), src.src_ids != PAD_ID,
                             params, config)
        for step in itertools.count(1):
            live = [(r, h) for r, beam in enumerate(beams) for h in beam if not h[3]]
            if not live:
                break
            owner = np.asarray([r for r, _ in live])
            state.reorder(owner, np.asarray([h[4] for _, h in live]))
            tgt_in = np.asarray([h[1][-1:] or (BOS_ID,) for _, h in live], dtype=np.int64)
            # the source lives in the state, so the step batch's source fields are zero-width
            real = np.ones_like(tgt_in, dtype=bool)
            logits, _ = decoder_forward(Batch(tgt_in[:, :0], tgt_in, tgt_in, real[:, :0], real),
                                        state, params, config)
            logp_tok = log_softmax_lastdim(Tensor(logits.data[:, -1, :])).data
            # every live hypothesis has step - 1 ids, so its expansions all have step
            logp = np.asarray([h[2] for _, h in live])[:, None] + logp_tok
            neg_score = -(logp / step ** cfg.length_penalty)
            # a hypothesis can place only its own top `width` in the beam; keep ties too
            k = min(width, neg_score.shape[1])
            top = np.argpartition(neg_score, k - 1, axis=1)[:, k - 1:k]
            kth = np.take_along_axis(neg_score, top, axis=1)
            cands = {r: [h for h in beams[r] if h[3]] for r in set(owner.tolist())}
            for j, tok in zip(*np.nonzero(neg_score <= kth)):
                r, (_, ids, _, _, _) = live[j]
                tok = int(tok)
                cands[r].append((float(neg_score[j, tok]), ids + (tok,), float(logp[j, tok]),
                                 tok == EOS_ID or step >= caps[r], int(j)))
            for r, cand in cands.items():
                beams[r] = sorted(cand)[:width]
    return [decode(beam[0][1], vocab) for beam in beams]


def greedy_decode_batch(params: ParameterSet, config: ModelConfig, srcs: list[str],
                        vocab: Vocabulary, cfg: DecodeConfig) -> list[str]:
    """Greedy-decode many sources at once; equivalent to sentence-by-sentence
    decoding because padded positions are masked out of every sub-layer.
    ``cfg.beam_size`` is not read: greedy is width 1."""
    return _search(params, config, srcs, vocab, cfg, 1)


def beam_decode(params: ParameterSet, config: ModelConfig, src: str,
                vocab: Vocabulary, cfg: DecodeConfig) -> str:
    """Length-normalized beam search of width ``cfg.beam_size`` over one sentence.

    Hypotheses are scored by logP / length^penalty; finished hypotheses
    keep competing for beam slots with frozen scores. beam_size=1 is
    greedy decoding.
    """
    return _search(params, config, [src], vocab, cfg, cfg.beam_size)[0]
