"""Greedy and beam decoding plus corpus BLEU."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import charnmt.decoding
import charnmt.tensor
from charnmt.alignment import cross_attention_maps
from charnmt.bleu import corpus_bleu
from charnmt.data import BOS_ID, EOS_ID, ParallelCorpus, build_vocab, read_lines
from charnmt.decoding import DecodeConfig, beam_decode, greedy_decode_batch
from charnmt.model import ModelConfig, build_params
from charnmt.tensor import NonFiniteError
from charnmt.training import TrainConfig, checkpoint_load, evaluate
from oracles import brute_bleu, exhaustive_best_sequence, uncached_search

from conftest import rand_rng


def _toy_model(seed=0, d_model=16, n_layers=1, max_len=64, chars="abcd", kind="standard"):
    corpus = ParallelCorpus(pairs=[(chars, chars)])
    vocab = build_vocab([corpus], 1)
    config = ModelConfig(vocab_size=vocab.size, d_model=d_model, n_layers=n_layers,
                         n_heads=2, d_ff=32, max_len=max_len, dropout=0.0,
                         encoder_kind=kind)
    return build_params(config, seed=seed), config, vocab


# ---------------------------------------------------------------------------
# decode config
# ---------------------------------------------------------------------------

def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=0)
    for value in (2.5, True, "4"):
        with pytest.raises(ValueError) as err:
            DecodeConfig(beam_size=value)
        assert str(err.value) == f"beam_size must be an integer, got {value!r}"
    for removed in ("max_len_ratio", "length_penalty"):
        with pytest.raises(TypeError):
            DecodeConfig(**{removed: 1.0})


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------

def _zeroed(params):
    for _, t in params.items():
        t.data[:] = 0.0
    return params


def test_greedy_immediate_eos_gives_empty_string():
    params, config, vocab = _toy_model()
    _zeroed(params)
    params["out.bias"].data[EOS_ID] = 10.0
    out = greedy_decode_batch(params, config, ["abc"], vocab)[0]
    maps = cross_attention_maps(params, config, [("abc", out)], vocab)
    assert out == ""
    # one map for the sentence: a single EOS-producing row over src + EOS
    assert maps[0].shape == (1, 4)


def test_greedy_tie_breaks_to_lowest_id():
    params, config, vocab = _toy_model()
    _zeroed(params)
    # two char ids tied at the top: the lower one must win every step
    params["out.bias"].data[5] = 10.0
    params["out.bias"].data[7] = 10.0
    out = greedy_decode_batch(params, config, ["ab"], vocab)[0]
    assert set(out) == {vocab.chars[5 - 4]}


def test_greedy_respects_length_cap():
    params, config, vocab = _toy_model()
    _zeroed(params)
    params["out.bias"].data[5] = 10.0  # never emits EOS
    src = "abcd"
    out = greedy_decode_batch(params, config, [src], vocab)[0]
    assert len(out) == int(3.0 * (len(src) + 1)) + 10


def test_greedy_never_emits_reserved_characters():
    params, config, vocab = _toy_model(seed=11)
    for src in ("a", "ab", "abcd", "dcba"):
        out = greedy_decode_batch(params, config, [src], vocab)[0]
        assert all(c in "abcd" for c in out)


@pytest.mark.invariant
def test_greedy_batch_equals_single():
    """Batched decoding with its padding must reproduce one-by-one decoding."""
    params, config, vocab = _toy_model(seed=12)
    srcs = ["a", "abcd", "ba", "dcab", "abc"]
    batched = greedy_decode_batch(params, config, srcs, vocab)
    single = [greedy_decode_batch(params, config, [s], vocab)[0] for s in srcs]
    assert batched == single


def test_greedy_deterministic():
    params, config, vocab = _toy_model(seed=13)
    a = greedy_decode_batch(params, config, ["abcd"], vocab)
    b = greedy_decode_batch(params, config, ["abcd"], vocab)
    assert a == b


def test_greedy_attention_maps_cover_output():
    params, config, vocab = _toy_model(seed=14)
    out = greedy_decode_batch(params, config, ["abcd"], vocab)[0]
    maps = cross_attention_maps(params, config, [("abcd", out)], vocab)
    assert maps[0].shape == (len(out) + 1, 5)  # +1 EOS row, src+EOS cols
    assert np.allclose(maps[0].sum(axis=-1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# beam
# ---------------------------------------------------------------------------

def test_beam_size_one_equals_greedy():
    params, config, vocab = _toy_model(seed=15)
    cfg = DecodeConfig(beam_size=1)
    for src in ("ab", "abcd", "dc"):
        assert beam_decode(params, config, src, vocab, cfg) == \
            greedy_decode_batch(params, config, [src], vocab)[0]


def test_beam_single_step_equals_exhaustive():
    # cap of 1 via max_len=2: every candidate finishes after one token, so
    # a beam as wide as the vocabulary IS exhaustive search
    params, config, vocab = _toy_model(seed=16, max_len=2)
    cfg = DecodeConfig(beam_size=config.vocab_size)
    out = beam_decode(params, config, "a", vocab, cfg)
    ref, _ = exhaustive_best_sequence(params, config, "a", vocab)
    assert out == ref


def test_beam_matches_exhaustive_on_short_horizon():
    # cap of 4 via max_len=5; enumerate every possible output sequence
    params, config, vocab = _toy_model(seed=17, max_len=5)
    cfg = DecodeConfig(beam_size=config.vocab_size)
    out = beam_decode(params, config, "ab", vocab, cfg)
    ref, _ = exhaustive_best_sequence(params, config, "ab", vocab)
    assert out == ref


def test_beam_deterministic():
    params, config, vocab = _toy_model(seed=19)
    cfg = DecodeConfig(beam_size=4)
    assert beam_decode(params, config, "abcd", vocab, cfg) == \
        beam_decode(params, config, "abcd", vocab, cfg)


@pytest.mark.invariant
@pytest.mark.parametrize("width", [1, 2, 4])
def test_cached_search_emits_the_uncached_tokens(monkeypatch, width):
    """The search through the decoder state emits, token for token, what a
    search that re-runs every prefix emits; the wider beams include steps
    whose hypotheses continue another slot's hypothesis."""
    monkeypatch.setattr(charnmt.decoding, "decode", lambda ids, vocab: tuple(ids))
    cfg = DecodeConfig(beam_size=width)
    srcs = ["a", "abcd", "dcab", "bb"]
    reparented = 0
    for seed in (40, 50, 51, 53):
        params, config, vocab = _toy_model(seed=seed, n_layers=2, max_len=20)
        got = ([beam_decode(params, config, src, vocab, cfg) for src in srcs] if width > 1
               else greedy_decode_batch(params, config, srcs, vocab))
        for src, ids in zip(srcs, got):
            want, moved = uncached_search(params, config, src, vocab, width)
            assert ids == want, (seed, src)
            reparented += moved
    assert reparented > 0 or width == 1


@pytest.mark.parametrize("kind", ["standard", "conv"])
@pytest.mark.parametrize("width", [1, 2, 4])
@settings(max_examples=40)
@given(srcs=st.lists(st.text("abcd", min_size=1, max_size=6), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_search_over_many_lines_equals_one_search_per_line(kind, width, srcs, seed):
    """One search over a batch of lines emits, token for token, what one
    search per line emits: rows of unequal length and cap, finishing at
    different steps, do not disturb one another. The batch split over two
    threads emits what it emits on one, and so do the attention maps of
    more than one chunk of pairs."""
    params, config, vocab = _toy_model(seed=seed, n_layers=2, max_len=20, kind=kind)
    with mock.patch.object(charnmt.decoding, "decode", lambda ids, vocab: tuple(ids)):
        with mock.patch.object(charnmt.tensor, "UNTAPED_THREADS", 2):
            together = charnmt.decoding._search(params, config, srcs, vocab, width)
        with mock.patch.object(charnmt.tensor, "UNTAPED_THREADS", 1):
            one_thread = charnmt.decoding._search(params, config, srcs, vocab, width)
        alone = [charnmt.decoding._search(params, config, [s], vocab, width)[0] for s in srcs]
    assert together == one_thread == alone
    if width == 1:  # the maps do not depend on the width
        pairs = [(s, s[::-1]) for s in srcs] * (32 // len(srcs) + 1)
        with mock.patch.object(charnmt.tensor, "UNTAPED_THREADS", 2):
            split = cross_attention_maps(params, config, pairs, vocab)
        with mock.patch.object(charnmt.tensor, "UNTAPED_THREADS", 1):
            serial = cross_attention_maps(params, config, pairs, vocab)
        assert len(pairs) > 32 and len(split) == len(pairs)
        assert all(np.array_equal(a, b) for a, b in zip(split, serial))


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"


@pytest.mark.invariant
def test_greedy_reproduces_fixture_hypotheses():
    bundle = checkpoint_load(FIXTURE / "standard.ckpt")
    hyps = greedy_decode_batch(bundle.params, bundle.config, read_lines(FIXTURE / "val.src"),
                               bundle.vocab)
    assert hyps == read_lines(FIXTURE / "greedy.hyp")


def test_beam_reproduces_fixture_hypotheses():
    bundle = checkpoint_load(FIXTURE / "standard.ckpt")
    cfg = DecodeConfig(beam_size=4)
    hyps = [beam_decode(bundle.params, bundle.config, line, bundle.vocab, cfg)
            for line in read_lines(FIXTURE / "val.src")]
    assert hyps == read_lines(FIXTURE / "beam.hyp")


@pytest.mark.invariant
def test_nan_embedding_weight_stops_decoding():
    """Embedding lookups skip the finite check; the scaling mul after it
    catches a NaN row."""
    params, config, vocab = _toy_model(seed=20)
    params["tgt_embed.weight"].data[BOS_ID] = np.nan
    with pytest.raises(NonFiniteError, match="'mul'"):
        greedy_decode_batch(params, config, ["ab"], vocab)


@pytest.mark.invariant
def test_nan_cross_attention_key_weight_stops_every_decoder_use():
    """The cross-attention keys are projected once, when the decoder state is
    built; greedy, beam and teacher-forced attention maps all go through it."""
    params, config, vocab = _toy_model(seed=21)
    params["dec.0.cross_attn.k_proj.weight"].data[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match="'linear'"):
        greedy_decode_batch(params, config, ["ab"], vocab)
    with pytest.raises(NonFiniteError, match="'linear'"):
        beam_decode(params, config, "ab", vocab, DecodeConfig(beam_size=2))
    with pytest.raises(NonFiniteError, match="'linear'"):
        cross_attention_maps(params, config, [("ab", "ba")], vocab)


@pytest.mark.invariant
@pytest.mark.parametrize("weight,op", [
    ("enc.0.attn.q_proj", "linear"), ("enc.0.ff.w1", "linear"),
    ("enc.0.conv.w5", "conv1d_same"), ("dec.0.self_attn.v_proj", "linear"),
    ("dec.1.cross_attn.q_proj", "linear"), ("dec.1.ff.w2", "linear"), ("out", "linear"),
])
def test_nan_weight_error_names_the_op_in_every_untaped_use(monkeypatch, weight, op):
    """Untaped ops skip the per-op check; each caller checks its outputs
    once and, finding a NaN, runs again with every op checked, so the error
    still names the op that made it, also where it arises on a helper thread
    (greedy over three lines, two validation batches, two chunks of pairs)."""
    monkeypatch.setattr(charnmt.tensor, "UNTAPED_THREADS", 2)
    params, config, vocab = _toy_model(seed=22, n_layers=2, kind="conv")
    params[f"{weight}.weight"].data.reshape(-1)[0] = np.nan
    match = f"op '{op}'"
    with pytest.raises(NonFiniteError, match=match):
        greedy_decode_batch(params, config, ["ab", "dcba", "c"], vocab)
    with pytest.raises(NonFiniteError, match=match):
        beam_decode(params, config, "ab", vocab, DecodeConfig(beam_size=2))
    val = ParallelCorpus(pairs=[("ab", "ba"), ("dcba", "abcd")])
    with pytest.raises(NonFiniteError, match=match):
        evaluate(params, config, {"val": val}, vocab, TrainConfig(bleu_mode="char", max_tokens=5))
    with pytest.raises(NonFiniteError, match=match):
        cross_attention_maps(params, config, [("ab", "ba")] * 33, vocab)


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def test_bleu_identical_corpora():
    hyps = ["the cat sat on the mat", "a b c d"]
    assert corpus_bleu(hyps, list(hyps)) == 100.0


def test_bleu_disjoint_corpora():
    assert corpus_bleu(["x y z"], ["a b c"]) == 0.0


def test_bleu_identical_short_sentences_still_100():
    # corpora too short for 4-grams drop those orders instead of zeroing
    assert corpus_bleu(["ab"], ["ab"], tokenizer="char") == 100.0
    assert corpus_bleu(["a b"], ["a b"]) == 100.0


def test_bleu_brevity_penalty_hand_computed():
    # hyp 3 tokens vs ref 4: precisions 3/3, 2/2, 1/1 (4-grams dropped),
    # brevity penalty exp(1 - 4/3)
    score = corpus_bleu(["a b c"], ["a b c d"])
    assert abs(score - 100.0 * np.exp(1.0 - 4.0 / 3.0)) < 1e-9


def test_bleu_rejects_length_mismatch():
    with pytest.raises(ValueError):
        corpus_bleu(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        corpus_bleu([], [])


def _random_corpus(rng, tokenizer):
    n = int(rng.integers(1, 10))
    words = ["the", "cat", "dog", "sat", "mat", "on", "a", "ran"]
    hyps, refs = [], []
    for _ in range(n):
        def sentence():
            k = int(rng.integers(0, 12))
            toks = [words[i] for i in rng.integers(0, len(words), size=k)]
            return " ".join(toks) if tokenizer == "whitespace" else "".join(
                t[0] for t in toks)
        hyps.append(sentence())
        # half the time score against a related sentence for partial overlap
        refs.append(sentence() if rng.random() < 0.5 else hyps[-1])
    return hyps, refs


@pytest.mark.parametrize("tokenizer", ["whitespace", "char"])
@pytest.mark.parametrize("smooth", [False, True])
def test_bleu_matches_brute_oracle(tokenizer, smooth):
    rng = rand_rng(70)
    for trial in range(20):
        hyps, refs = _random_corpus(rng, tokenizer)
        got = corpus_bleu(hyps, refs, tokenizer=tokenizer, smooth=smooth)
        want = brute_bleu(hyps, refs, tokenizer=tokenizer, smooth=smooth)
        assert abs(got - want) < 1e-9, (trial, hyps, refs)


def test_bleu_order_invariant():
    hyps = ["a b c", "d e f g", "x y"]
    refs = ["a b d", "d e f g", "x z"]
    perm = [2, 0, 1]
    assert abs(corpus_bleu(hyps, refs) -
               corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm])) < 1e-12


def test_bleu_100_only_when_identical():
    rng = rand_rng(71)
    for _ in range(10):
        hyps, refs = _random_corpus(rng, "whitespace")
        score = corpus_bleu(hyps, refs)
        if hyps == refs:
            assert score == 100.0
        elif any(h.split() != r.split() for h, r in zip(hyps, refs)):
            assert score < 100.0
