"""Decoding: one batched beam search; greedy is beam width 1.

Each step runs the decoder on the new position only: a ``DecoderState``
keeps every layer's keys and values of the positions before it, and the
cross-attention keys and values of each source row, projected once,
with the row's key mask.
A batch of sources is padded once and its rows are searched in parts, on
up to ``tensor.UNTAPED_THREADS`` threads; a part keeps the batch's
padding, so every row decodes bit for bit as in one search over the
batch. A single source is one part, in the calling thread.
The search is deterministic: hypotheses are ranked by (log-probability
desc, ids asc), so equal scores resolve lexicographically and a greedy
step's ties go to the lowest token id. A hard length cap guarantees
termination on arbitrary (e.g. untrained) models: a source of n characters
(n + 1 ids with EOS) gets int(DecodeConfig.max_len_ratio * (n + 1)) + 10
tokens, at most max_len - 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import tensor
from .data import (
    BOS_ID,
    EOS_ID,
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
from .tensor import (
    ParameterSet,
    Tensor,
    _map_untaped,
    log_softmax_lastdim,
    require_finite,
    rerun_checked,
)


@dataclass
class DecodeConfig:
    """The beam width, the one search setting; ``beam_size`` 1 is greedy decoding."""

    beam_size: int = 1
    max_len_ratio: ClassVar[float] = 3.0  # cap = ratio * (characters + 1 for EOS) + 10

    def __post_init__(self):
        check_field_types(self)
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")


def _length_cap(src_len: int, config: ModelConfig) -> int:
    cap = int(DecodeConfig.max_len_ratio * src_len) + 10
    return max(1, min(cap, config.max_len - 1))


def _search_rows(params: ParameterSet, config: ModelConfig, src: Batch, caps: list[int],
                 vocab: Vocabulary, width: int) -> list[str]:
    """Beam search of width ``width`` over the padded sources of ``src``.

    A hypothesis is (-logP, ids, finished, parent), so tuple order
    is the ranking (ids are distinct within a row, so ``parent`` never
    decides it). Every step runs the decoder on the last token of each
    live hypothesis of the rows still searching, after reordering the
    decoder state by each one's parent, whose source row and keys and
    values it continues; a row leaves once all of its kept hypotheses have
    emitted EOS or reached its cap. Finished hypotheses keep competing for
    beam slots with frozen log-probabilities.
    """
    # the last field is the hypothesis's row in the previous decoder call
    beams = [[(0.0, (), False, r)] for r in range(len(caps))]
    state = DecoderState(encoder_forward(src, params, config), src.src_mask, params, config)
    for step in itertools.count(1):
        live = [(r, h) for r, beam in enumerate(beams) for h in beam if not h[2]]
        if not live:
            break
        state.reorder(np.asarray([h[3] for _, h in live]))
        tgt_in = np.asarray([h[1][-1:] or (BOS_ID,) for _, h in live], dtype=np.int64)
        # the source lives in the state, so the step batch's source is zero-width
        logits, _ = decoder_forward(Batch(tgt_in[:, :0], tgt_in, tgt_in), state, params, config)
        logp_tok = log_softmax_lastdim(Tensor(logits.data[:, -1, :])).data
        require_finite("a decoding step's log-probabilities", logp_tok)
        neg_score = np.asarray([h[0] for _, h in live])[:, None] - logp_tok
        # a hypothesis can place only its own top `width` in the beam; keep ties too
        k = min(width, neg_score.shape[1])
        top = np.argpartition(neg_score, k - 1, axis=1)[:, k - 1:k]
        kth = np.take_along_axis(neg_score, top, axis=1)
        cands = {r: [h for h in beams[r] if h[2]] for r, _ in live}
        for j, tok in zip(*np.nonzero(neg_score <= kth)):
            r, (_, ids, _, _) = live[j]
            tok = int(tok)
            cands[r].append((float(neg_score[j, tok]), ids + (tok,),
                             tok == EOS_ID or step >= caps[r], int(j)))
        for r, cand in cands.items():
            beams[r] = sorted(cand)[:width]
    return [decode(beam[0][1], vocab) for beam in beams]


@rerun_checked
def _search(params: ParameterSet, config: ModelConfig, srcs: list[str],
            vocab: Vocabulary, width: int) -> list[str]:
    """Beam search of width ``width`` over a batch of sources.

    The sources are padded together once. Their rows are then dealt out,
    row i to part i mod P, into P = min(UNTAPED_THREADS, rows) parts that
    search side by side through ``_map_untaped``. A part keeps the whole
    batch's padding, and every op computes each row alone, so each row's
    encoder output and step logits are the ones one search over the whole
    batch gives, bit for bit.
    """
    if not srcs:
        return []
    rows = [encode_pair(s, "", vocab) for s in srcs]
    caps = [_length_cap(len(r[0]), config) for r in rows]
    src = batch_from_rows(rows)
    n_parts = min(tensor.UNTAPED_THREADS, len(rows))

    def search(first: int) -> list[str]:
        part = slice(first, None, n_parts)
        return _search_rows(params, config, Batch(src.src_ids[part], src.tgt_in_ids[part],
                                                  src.tgt_out_ids[part]),
                            caps[part], vocab, width)

    hyps: list[str] = [""] * len(rows)
    for first, part_hyps in enumerate(_map_untaped(search, list(range(n_parts)))):
        hyps[first::n_parts] = part_hyps
    return hyps


def greedy_decode_batch(params: ParameterSet, config: ModelConfig, srcs: list[str],
                        vocab: Vocabulary) -> list[str]:
    """Greedy-decode many sources at once; equivalent to sentence-by-sentence
    decoding because source pad positions are masked out of every sub-layer.
    The rows are searched in interleaved parts on up to
    ``tensor.UNTAPED_THREADS`` threads, with the same ids as one part."""
    return _search(params, config, srcs, vocab, 1)


def beam_decode(params: ParameterSet, config: ModelConfig, src: str,
                vocab: Vocabulary, cfg: DecodeConfig) -> str:
    """Beam search of width ``cfg.beam_size`` over one sentence, ranking
    hypotheses by log-probability; beam_size=1 is greedy decoding."""
    return _search(params, config, [src], vocab, cfg.beam_size)[0]
