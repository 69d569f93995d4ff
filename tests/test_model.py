"""Model architecture: attention, conv sub-block, stacks, and extraction."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from charnmt.data import BOS_ID, PAD_ID, Batch, ParallelCorpus, build_vocab
from charnmt.model import (DecoderState, ModelConfig, build_params, conv_sub_block,
                           decoder_forward, encoder_forward,
                           extract_cross_attention, model_forward,
                           multi_head_attention, param_shapes, sinusoidal_positions)
from charnmt.tensor import ParameterSet, ShapeError, Tensor, attention, grad_check, no_grad, tsum
from oracles import (closed_form_param_count, positions_closed_form,
                     stable_softmax, straight_line_decoder,
                     straight_line_encoder)

from conftest import make_batch, rand_rng


def weights_of(params):
    return {name: t.data for name, t in params.items()}


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_defaults_resolve():
    cfg = ModelConfig(vocab_size=10)
    assert cfg.d_ff == 4 * cfg.d_model


def test_config_round_trips_through_dict():
    cfg = ModelConfig(vocab_size=9, d_model=32, n_layers=2, n_heads=4,
                      encoder_kind="conv", max_len=100)
    assert ModelConfig(**asdict(cfg)) == cfg


@pytest.mark.invariant
def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d_model=30, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, dropout=1.0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, encoder_kind="recurrent")
    for field, value in (("d_model", 0), ("d_model", -2), ("d_ff", -1), ("d_model", "64")):
        with pytest.raises(ValueError) as err:
            ModelConfig(vocab_size=10, n_heads=1, **{field: value})
        assert str(err.value).startswith(f"{field} must be an integer")


# ---------------------------------------------------------------------------
# positions
# ---------------------------------------------------------------------------

def test_positions_start_row_alternates_zero_one():
    pos = sinusoidal_positions(8, 6)
    assert np.allclose(pos[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_positions_bounded():
    pos = sinusoidal_positions(64, 16)
    assert pos.max() <= 1.0 and pos.min() >= -1.0


def test_positions_first_dim_is_plain_sine():
    pos = sinusoidal_positions(4, 4)
    assert abs(pos[1, 0] - math.sin(1.0)) < 1e-12


def test_positions_match_closed_form():
    assert np.allclose(sinusoidal_positions(20, 10),
                       positions_closed_form(20, 10), atol=1e-12)


def test_positions_reject_odd_dim():
    with pytest.raises(ShapeError):
        sinusoidal_positions(8, 5)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attention_single_key_returns_its_value():
    rng = rand_rng(20)
    q = Tensor(rng.normal(size=(1, 3, 4)))
    k = Tensor(rng.normal(size=(1, 1, 4)))
    v = Tensor(rng.normal(size=(1, 1, 4)))
    out, attn = attention(q, k, v, 2)
    assert np.allclose(out.data, np.repeat(v.data, 3, axis=1))
    assert attn.shape == (1, 2, 3, 1) and np.allclose(attn.data, 1.0)


def test_attention_uniform_when_logits_equal():
    v = Tensor(rand_rng(21).normal(size=(1, 4, 3)))
    out, _ = attention(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 4, 3))), v, 1)
    assert np.allclose(out.data, np.repeat(v.data.mean(axis=1, keepdims=True), 2, axis=1))


def test_attention_large_margin_selects_row():
    d = 4
    k = np.zeros((1, 3, d))
    k[0, 1] = 1.0
    q = np.full((1, 1, d), 20.0 * math.sqrt(d) / d)  # logit margin 20 for row 1
    v = rand_rng(22).normal(size=(1, 3, d))
    out, _ = attention(Tensor(q), Tensor(k), Tensor(v), 1)
    assert np.allclose(out.data[0, 0], v[0, 1], atol=1e-6)


def test_attention_rejects_depth_mismatch():
    with pytest.raises(ShapeError):
        attention(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((1, 2, 4))),
                  Tensor(np.ones((1, 2, 4))), 1)


def _mha_params(d, seed):
    rng = rand_rng(seed)
    tensors = {}
    for proj in ("q_proj", "k_proj", "v_proj", "out_proj"):
        tensors[f"attn.{proj}.weight"] = Tensor(rng.normal(size=(d, d)), requires_grad=True)
        tensors[f"attn.{proj}.bias"] = Tensor(rng.normal(size=(d,)), requires_grad=True)
    return ParameterSet(tensors)


def test_multi_head_single_head_composes_projections():
    d = 6
    params = _mha_params(d, 23)
    x = rand_rng(24).normal(size=(1, 5, d))
    out, _ = multi_head_attention(Tensor(x), Tensor(x), params, "attn", 1)
    w = weights_of(params)
    q = x[0] @ w["attn.q_proj.weight"] + w["attn.q_proj.bias"]
    k = x[0] @ w["attn.k_proj.weight"] + w["attn.k_proj.bias"]
    v = x[0] @ w["attn.v_proj.weight"] + w["attn.v_proj.bias"]
    ref = stable_softmax(q @ k.T / math.sqrt(d)) @ v
    ref = ref @ w["attn.out_proj.weight"] + w["attn.out_proj.bias"]
    assert np.allclose(out.data[0], ref, atol=1e-12)


def test_multi_head_output_shape():
    d = 8
    params = _mha_params(d, 25)
    x_q = Tensor(rand_rng(26).normal(size=(2, 3, d)))
    x_kv = Tensor(rand_rng(27).normal(size=(2, 7, d)))
    out, attn = multi_head_attention(x_q, x_kv, params, "attn", 4)
    assert out.shape == (2, 3, d)
    assert attn.shape == (2, 4, 3, 7)


def test_multi_head_zero_output_projection():
    d = 4
    params = _mha_params(d, 28)
    params["attn.out_proj.weight"].data[:] = 0.0
    params["attn.out_proj.bias"].data[:] = 0.0
    x = Tensor(rand_rng(29).normal(size=(1, 4, d)))
    out, attn = multi_head_attention(x, x, params, "attn", 2)
    assert not out.data.any()
    assert attn.data.any()
    assert np.allclose(attn.data.sum(axis=-1), 1.0)


# ---------------------------------------------------------------------------
# conv sub-block
# ---------------------------------------------------------------------------

def _conv_params(d, seed, zero=False):
    rng = rand_rng(seed)
    tensors = {}
    for w in (3, 5, 7):
        shape = (w, d, d)
        data = np.zeros(shape) if zero else rng.normal(size=shape) * 0.3
        tensors[f"conv.w{w}.weight"] = Tensor(data, requires_grad=True)
        tensors[f"conv.w{w}.bias"] = Tensor(np.zeros(d) if zero else rng.normal(size=d),
                                            requires_grad=True)
    fuse_shape = (3, 3 * d, d)
    fuse = np.zeros(fuse_shape) if zero else rng.normal(size=fuse_shape) * 0.3
    tensors["conv.fuse.weight"] = Tensor(fuse, requires_grad=True)
    tensors["conv.fuse.bias"] = Tensor(np.zeros(d) if zero else rng.normal(size=d),
                                       requires_grad=True)
    return ParameterSet(tensors)


def test_conv_block_zero_weights_is_identity():
    m = Tensor(rand_rng(30).normal(size=(2, 5, 8)))
    params = _conv_params(8, 0, zero=True)
    out = conv_sub_block(m, params, "conv", np.ones((2, 5), dtype=bool))
    assert np.array_equal(out.data, m.data)


def test_conv_block_single_position():
    m = Tensor(rand_rng(31).normal(size=(1, 1, 8)))
    out = conv_sub_block(m, _conv_params(8, 32), "conv", np.ones((1, 1), dtype=bool))
    assert out.shape == (1, 1, 8)


def test_conv_block_matches_straight_line_oracle():
    from oracles import _sl_conv_block

    d, t = 8, 5
    params = _conv_params(d, 33)
    m = rand_rng(34).normal(size=(1, t, d))
    real = np.ones((1, t), dtype=bool)
    out = conv_sub_block(Tensor(m), params, "conv", real)
    ref = _sl_conv_block(m[0], weights_of(params), "conv", real[0])
    assert np.allclose(out.data[0], ref, atol=1e-12)


def test_conv_block_gradients():
    params = _conv_params(4, 35)
    m = Tensor(rand_rng(36).normal(size=(1, 4, 4)), requires_grad=False)
    real = np.ones((1, 4), dtype=bool)
    report = grad_check(lambda p: tsum(conv_sub_block(m, p, "conv", real) *
                                       conv_sub_block(m, p, "conv", real))
                        * (1.0 / m.size),
                        params, tol=1e-4)
    assert report.passed, report.per_param


# ---------------------------------------------------------------------------
# encoder / decoder stacks
# ---------------------------------------------------------------------------

def test_encoder_matches_straight_line_oracle(tiny_vocab):
    config = ModelConfig(vocab_size=tiny_vocab.size, d_model=8, n_layers=1,
                         n_heads=2, d_ff=16, max_len=32, dropout=0.0)
    params = build_params(config, seed=4)
    batch = make_batch([("abcd", "dcba")], tiny_vocab)
    enc = encoder_forward(batch, params, config)
    ref = straight_line_encoder(batch.src_ids[0], batch.src_mask[0],
                                weights_of(params), config)
    assert np.allclose(enc.data[0], ref, atol=1e-12)


def test_conv_encoder_matches_straight_line_oracle(tiny_vocab):
    config = ModelConfig(vocab_size=tiny_vocab.size, d_model=8, n_layers=2,
                         n_heads=2, d_ff=16, max_len=32, dropout=0.0, encoder_kind="conv")
    params = build_params(config, seed=5)
    batch = make_batch([("abcd", "dcba")], tiny_vocab)
    enc = encoder_forward(batch, params, config)
    ref = straight_line_encoder(batch.src_ids[0], batch.src_mask[0],
                                weights_of(params), config)
    assert np.allclose(enc.data[0], ref, atol=1e-12)


def _both_kinds(tiny_setup):
    """``tiny_setup``'s model, then the conv model of the same shape and seed."""
    params, config, vocab = tiny_setup
    conv = replace(config, encoder_kind="conv")
    return [(params, config, vocab), (build_params(conv, seed=3), conv, vocab)]


@pytest.mark.invariant
def test_decoder_matches_straight_line_oracle(tiny_setup):
    """Both encoder kinds feed the decoder; each pass matches the oracle."""
    for params, config, vocab in _both_kinds(tiny_setup):
        batch = make_batch([("abcd", "dcba")], vocab)
        logits, _ = model_forward(batch, params, config)
        w = weights_of(params)
        enc_ref = straight_line_encoder(batch.src_ids[0], batch.src_mask[0], w, config)
        ref, _ = straight_line_decoder(batch.tgt_in_ids[0], enc_ref,
                                       batch.src_mask[0], w, config)
        assert np.allclose(logits.data[0], ref, atol=1e-12), config.encoder_kind


def _cache_model(tiny_vocab, kind, seed):
    config = ModelConfig(vocab_size=tiny_vocab.size, d_model=16, n_layers=2, n_heads=2,
                         d_ff=32, max_len=32, dropout=0.0, encoder_kind=kind)
    return build_params(config, seed=seed), config


def _columns(batch, start, stop):
    return Batch(batch.src_ids, batch.tgt_in_ids[:, start:stop],
                 batch.tgt_out_ids[:, start:stop])


@pytest.mark.invariant
@pytest.mark.parametrize("kind", ["standard", "conv"])
def test_chunked_decoding_through_a_state_equals_one_call(tiny_vocab, kind):
    """Teacher forcing a few positions at a time through a DecoderState gives
    the logits and cross-attention of one call over all positions, pad
    positions of padded source and target rows included."""
    params, config = _cache_model(tiny_vocab, kind, seed=31)
    batch = make_batch([("abcd", "dcbaab"), ("ab", "ba"), ("abc", "cabdd")], tiny_vocab)
    assert not batch.src_mask.all() and not batch.tgt_mask.all()
    full, full_cross = model_forward(batch, params, config)
    state = DecoderState(encoder_forward(batch, params, config), batch.src_mask, params,
                         config)
    bounds = [0, 3, 4, batch.tgt_in_ids.shape[1]]
    chunks = [decoder_forward(_columns(batch, a, b), state, params, config)
              for a, b in zip(bounds, bounds[1:])]
    assert state.length == bounds[-1]
    logits = np.concatenate([c[0].data for c in chunks], axis=1)
    assert np.allclose(logits, full.data, rtol=0.0, atol=1e-12)
    for layer, want in enumerate(full_cross):
        got = np.concatenate([c[1][layer].data for c in chunks], axis=2)
        assert np.allclose(got, want.data, rtol=0.0, atol=1e-12)


@pytest.mark.invariant
@pytest.mark.parametrize("kind", ["standard", "conv"])
def test_cached_steps_match_straight_line_decoder(tiny_vocab, kind):
    """Each one-position step through a DecoderState gives the last-position
    logits of the straight-line decoder over the whole prefix."""
    params, config = _cache_model(tiny_vocab, kind, seed=32)
    batch = make_batch([("abcd", "a"), ("ba", "a")], tiny_vocab)
    w = weights_of(params)
    enc_ref = [straight_line_encoder(batch.src_ids[r], batch.src_mask[r], w, config)
               for r in range(2)]
    rng = rand_rng(33)
    prefixes = np.full((2, 1), BOS_ID, dtype=np.int64)
    with no_grad():
        state = DecoderState(encoder_forward(batch, params, config), batch.src_mask, params,
                             config)
        for _ in range(12):
            step = prefixes[:, -1:]
            logits, _ = decoder_forward(Batch(batch.src_ids, step, step),
                                        state, params, config)
            for r in range(2):
                ref, _ = straight_line_decoder(prefixes[r], enc_ref[r], batch.src_mask[r],
                                               w, config)
                assert np.allclose(logits.data[r, 0], ref[-1], rtol=0.0, atol=1e-12)
            prefixes = np.concatenate(
                [prefixes, rng.integers(0, config.vocab_size, size=(2, 1))], axis=1)


@pytest.mark.invariant
@pytest.mark.parametrize("kind", ["standard", "conv"])
def test_reorder_carries_each_rows_source_mask(tiny_vocab, kind):
    """A state reordered onto rows with different source padding attends as
    a teacher-forced pass over those rows does, and never onto pad keys,
    after every later reorder too: each row keeps its parent's source row.
    Only a reorder onto other source rows gathers the cross-attention keys,
    values and mask; one that keeps every row's source row, or the identity,
    keeps the state's arrays themselves."""
    params, config = _cache_model(tiny_vocab, kind, seed=35)
    pairs = [("abcd", "dcba"), ("ab", "ba")]
    batch = make_batch(pairs, tiny_vocab)
    assert not batch.src_mask.all()
    state = DecoderState(encoder_forward(batch, params, config), batch.src_mask, params,
                         config)
    # the BOS step on source rows [1, 0, 1], position 1 on the same source rows
    # with rows 0 and 2 swapped, position 2 unmoved, position 3 continuing rows
    # 2 and 1, then position 4 with those two swapped:
    # (position, parents, source rows, whether cross is gathered)
    for pos, parents, rows, gathers in ((0, [1, 0, 1], [1, 0, 1], True),
                                        (1, [2, 1, 0], [1, 0, 1], False),
                                        (2, [0, 1, 2], [1, 0, 1], False),
                                        (3, [2, 1], [1, 0], True),
                                        (4, [1, 0], [0, 1], True)):
        forced = make_batch([pairs[r] for r in rows], tiny_vocab)
        full, full_cross = model_forward(forced, params, config)
        before = [state.cross_mask, *(a for kv in state.cross for a in kv)]
        past = list(state.past)
        state.reorder(np.asarray(parents))
        after = [state.cross_mask, *(a for kv in state.cross for a in kv)]
        assert [a is b for a, b in zip(before, after)] == [not gathers] * len(before)
        assert np.array_equal(state.src_rows, rows)
        if parents == list(range(len(parents))):
            assert all(a is b for a, b in zip(past, state.past))
        tok = forced.tgt_in_ids[:, pos:pos + 1]
        logits, cross = decoder_forward(Batch(tok[:, :0], tok, tok),
                                        state, params, config)
        assert np.allclose(logits.data[:, 0], full.data[:, pos], rtol=0.0, atol=1e-12)
        pad = ~batch.src_mask[rows]
        for got, want in zip(cross, full_cross):
            assert np.allclose(got.data[:, :, 0], want.data[:, :, pos], rtol=0.0, atol=1e-12)
            assert np.all(got.data[np.broadcast_to(pad[:, None, None, :], got.shape)] == 0.0)


def test_decoder_state_rejects_positions_past_max_len(tiny_vocab):
    params, config = _cache_model(tiny_vocab, "standard", seed=34)
    batch = make_batch([("ab", "ab")], tiny_vocab)
    state = DecoderState(encoder_forward(batch, params, config), batch.src_mask, params,
                         config)
    state.length = config.max_len
    with pytest.raises(ShapeError):
        decoder_forward(_columns(batch, 0, 1), state, params, config)


def test_encoder_rejects_overlong_sequence(tiny_vocab):
    config = ModelConfig(vocab_size=tiny_vocab.size, d_model=8, n_layers=1,
                         n_heads=2, max_len=4, dropout=0.0)
    params = build_params(config, seed=6)
    batch = make_batch([("abcdabcd", "ab")], tiny_vocab)
    with pytest.raises(ShapeError):
        encoder_forward(batch, params, config)


def test_encoder_rejects_empty_source(tiny_setup):
    params, config, _ = tiny_setup
    empty = Batch(np.zeros((1, 0), dtype=np.int64), np.ones((1, 2), dtype=np.int64),
                  np.ones((1, 2), dtype=np.int64))
    with pytest.raises(ShapeError):
        model_forward(empty, params, config)


def test_out_of_range_ids_are_named_by_the_embedding(tiny_setup):
    """The embedding lookup is the one range check on token ids: a source
    id >= V, a target id >= V and a negative id each raise a ShapeError
    naming the id and the table's row count."""
    params, config, vocab = tiny_setup
    batch = make_batch([("ab", "ab")], vocab)
    v = config.vocab_size
    for field, bad in (("src_ids", v), ("tgt_in_ids", v + 3), ("tgt_in_ids", -2)):
        ids = {f: getattr(batch, f).copy() for f in ("src_ids", "tgt_in_ids", "tgt_out_ids")}
        ids[field][0, 1] = bad
        with pytest.raises(ShapeError, match=rf"^embedding id {bad} out of range for {v} rows$"):
            model_forward(Batch(**ids), params, config)


def test_encoder_is_position_sensitive(tiny_setup):
    params, config, vocab = tiny_setup
    out_ab = encoder_forward(make_batch([("abca", "a")], vocab), params, config)
    out_ba = encoder_forward(make_batch([("baca", "a")], vocab), params, config)
    assert not np.allclose(out_ab.data, out_ba.data)


@pytest.mark.invariant
def test_residual_identity_between_encoder_kinds(tiny_vocab):
    """Zeroed conv parameters make the conv model equal the standard one
    bit for bit, logits and attention maps alike."""
    kw = dict(vocab_size=tiny_vocab.size, d_model=16, n_layers=2, n_heads=2,
              d_ff=32, max_len=32, dropout=0.0)
    conv_cfg = ModelConfig(encoder_kind="conv", **kw)
    std_cfg = ModelConfig(encoder_kind="standard", **kw)
    conv_params = build_params(conv_cfg, seed=7)
    std_params = build_params(std_cfg, seed=7)
    for name, t in conv_params.items():
        if ".conv." in name:
            t.data[:] = 0.0
    batch = make_batch([("abcd", "dcba"), ("ab", "ba")], tiny_vocab)
    conv_logits, _ = model_forward(batch, conv_params, conv_cfg)
    std_logits, _ = model_forward(batch, std_params, std_cfg)
    assert np.array_equal(conv_logits.data, std_logits.data)
    conv_maps = extract_cross_attention(batch, conv_params, conv_cfg)
    std_maps = extract_cross_attention(batch, std_params, std_cfg)
    for a, b in zip(conv_maps, std_maps):
        assert np.array_equal(a, b)


def _padded_copy(batch, extra_src, extra_tgt):
    def pad(a, n):
        return np.pad(a, [(0, 0), (0, n)], constant_values=PAD_ID)

    return Batch(pad(batch.src_ids, extra_src), pad(batch.tgt_in_ids, extra_tgt),
                 pad(batch.tgt_out_ids, extra_tgt))


_ABCD = st.text("abcd", max_size=6)


@pytest.mark.invariant
@pytest.mark.parametrize("kind", ["standard", "conv"])
@given(pairs=st.lists(st.tuples(_ABCD, _ABCD), min_size=1, max_size=4),
       extra_src=st.integers(0, 3), extra_tgt=st.integers(0, 3))
@example(pairs=[("abcd", "dcba"), ("abc", "cab")], extra_src=3, extra_tgt=2)
def test_padding_invariance(kind, pairs, extra_src, extra_tgt):
    """Encoder outputs and logits at every position of a batch do not depend
    on how many trailing pad columns it carries."""
    vocab = build_vocab([ParallelCorpus(pairs=[("abcd", "abcd")])], 1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_layers=2,
                         n_heads=2, d_ff=32, max_len=64, dropout=0.0,
                         encoder_kind=kind)
    params = build_params(config, seed=8)
    batch = make_batch(pairs, vocab)
    padded = _padded_copy(batch, extra_src, extra_tgt)
    enc = encoder_forward(batch, params, config).data
    enc_p = encoder_forward(padded, params, config).data
    t_s = batch.src_ids.shape[1]
    assert np.allclose(enc, enc_p[:, :t_s], atol=1e-9)
    logits, _ = model_forward(batch, params, config)
    logits_p, _ = model_forward(padded, params, config)
    t_t = batch.tgt_in_ids.shape[1]
    assert np.allclose(logits.data, logits_p.data[:, :t_t], atol=1e-9)


@pytest.mark.invariant
def test_decoder_causality(tiny_setup):
    """Exhaustive perturbation: logits before position p ignore position p."""
    params, config, vocab = tiny_setup
    batch = make_batch([("abcd", "abcdabc")], vocab)  # tgt_in length 8
    base, _ = model_forward(batch, params, config)
    t = batch.tgt_in_ids.shape[1]
    for p in range(1, t):
        for replacement in range(4, config.vocab_size):
            if replacement == batch.tgt_in_ids[0, p]:
                continue
            perturbed = Batch(batch.src_ids, batch.tgt_in_ids.copy(), batch.tgt_out_ids)
            perturbed.tgt_in_ids[0, p] = replacement
            logits, _ = model_forward(perturbed, params, config)
            assert np.array_equal(base.data[0, :p], logits.data[0, :p])


@pytest.mark.invariant
def test_cross_attention_masks_pad_keys(tiny_setup):
    params, config, vocab = tiny_setup
    batch = make_batch([("abcd", "dc"), ("ab", "dcba")], vocab)
    _, cross = model_forward(batch, params, config)
    pad_cols = ~batch.src_mask  # row 1 has trailing source pads
    assert pad_cols.any()
    for layer_attn in cross:
        masked = layer_attn.data * pad_cols[:, None, None, :]
        assert not masked.any()


@pytest.mark.invariant
def test_end_to_end_gradients(tiny_setup):
    """Every parameter of both encoder kinds, attention's included."""
    for params, config, vocab in _both_kinds(tiny_setup):
        batch = make_batch([("abcd", "dcba")], vocab)

        def f(p):
            logits, _ = model_forward(batch, p, config)
            return tsum(logits * logits) * (1.0 / logits.size)

        report = grad_check(f, params, tol=1e-4, sample=2)
        assert report.passed, (config.encoder_kind, report.max_rel_error)


# ---------------------------------------------------------------------------
# attention extraction
# ---------------------------------------------------------------------------

def test_extraction_shapes_and_normalization(tiny_setup):
    params, config, vocab = tiny_setup
    batch = make_batch([("abcd", "dc"), ("ab", "dcba")], vocab)
    maps = extract_cross_attention(batch, params, config)
    _, cross = model_forward(batch, params, config)
    assert len(maps) == 2
    for i, m in enumerate(maps):
        src_len = int(batch.src_mask[i].sum())
        tgt_len = int(batch.tgt_mask[i].sum())
        assert m.shape == (tgt_len, src_len)
        assert np.allclose(m.sum(axis=-1), 1.0, atol=1e-6)
        # the mean over the model's 2 heads of the last layer, renormalized
        head_mean = cross[-1].data[i].mean(axis=0)[:tgt_len, :src_len]
        assert np.allclose(m, head_mean / head_mean.sum(axis=-1, keepdims=True), atol=1e-12)


def test_extraction_single_head_equals_that_head(tiny_vocab):
    config = ModelConfig(vocab_size=tiny_vocab.size, d_model=16, n_layers=1,
                         n_heads=1, d_ff=32, max_len=32, dropout=0.0)
    params = build_params(config, seed=9)
    batch = make_batch([("abcd", "dcba")], tiny_vocab)
    _, cross = model_forward(batch, params, config)
    maps = extract_cross_attention(batch, params, config)
    raw = cross[-1].data[0, 0]
    assert np.allclose(maps[0], raw / raw.sum(axis=-1, keepdims=True),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["standard", "conv"])
def test_param_count_matches_closed_form(kind):
    config = ModelConfig(vocab_size=30, d_model=32, n_layers=3, n_heads=4,
                         encoder_kind=kind, max_len=64)
    shapes = param_shapes(config)
    enumerated = sum(int(np.prod(s)) for s in shapes.values())
    assert enumerated == closed_form_param_count(config)


def test_conv_excess_formula():
    kw = dict(vocab_size=30, d_model=32, n_layers=3, n_heads=4, max_len=64)
    std = sum(int(np.prod(s)) for s in param_shapes(ModelConfig(**kw)).values())
    conv = sum(int(np.prod(s))
               for s in param_shapes(ModelConfig(encoder_kind="conv", **kw)).values())
    d = 32
    assert conv - std == 3 * (24 * d * d + 4 * d)


def test_build_params_schemes(tiny_setup):
    params, _, _ = tiny_setup
    assert np.array_equal(params["enc.0.attn_norm.gain"].data, np.ones(16))
    assert not params["enc.0.attn_norm.bias"].data.any()
    assert params["src_embed.weight"].data.any()
