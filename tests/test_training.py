"""Loss, optimizer, schedule, the train loop, and checkpointing."""

import dataclasses
import io
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from charnmt.data import (BOS_ID, ParallelCorpus, batch_from_rows, build_vocab, encode_pair,
                          make_batches)
from charnmt.model import ModelConfig, build_params, model_forward
from charnmt.tensor import (MaskError, NonFiniteError, ParameterSet, Tensor, mul, seed_for_name,
                            tsum)
import charnmt.training
from charnmt.training import (AdamState, TrainConfig, TrainLog, adam_step,
                              checkpoint_load, checkpoint_save, clip_grad_norm,
                              evaluate, lr_at_step, masked_cross_entropy, train)
from charnmt.training import _read_record, _write_record
from oracles import adam_and_clip, brute_cross_entropy

from conftest import NESTED_HEADER, make_batch, rand_rng, with_first_extent, with_header_text


# ---------------------------------------------------------------------------
# masked cross-entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_perfect_prediction():
    tgt = np.array([[1, 2, 0]])
    mask = np.array([[True, True, False]])
    logits = np.zeros((1, 3, 4))
    logits[0, 0, 1] = 60.0
    logits[0, 1, 2] = 60.0
    loss = masked_cross_entropy(Tensor(logits), tgt, mask, smoothing=0.0)
    assert loss.item() < 1e-10


def test_cross_entropy_uniform_logits():
    v = 7
    logits = Tensor(np.zeros((2, 3, v)))
    tgt = np.ones((2, 3), dtype=np.int64)
    mask = np.ones((2, 3), dtype=bool)
    loss = masked_cross_entropy(logits, tgt, mask, smoothing=0.0)
    assert abs(loss.item() - np.log(v)) < 1e-12


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_cross_entropy_matches_brute_oracle(smoothing):
    rng = rand_rng(50)
    logits = rng.normal(size=(3, 5, 9))
    tgt = rng.integers(0, 9, size=(3, 5))
    mask = rng.random((3, 5)) < 0.8
    mask[:, 0] = True
    loss = masked_cross_entropy(Tensor(logits), tgt, mask, smoothing=smoothing)
    assert abs(loss.item() - brute_cross_entropy(logits, tgt, mask, smoothing)) < 1e-10


def test_cross_entropy_all_pad_is_error():
    with pytest.raises(MaskError):
        masked_cross_entropy(Tensor(np.zeros((1, 2, 4))),
                             np.zeros((1, 2), dtype=np.int64),
                             np.zeros((1, 2), dtype=bool), smoothing=0.1)


def test_cross_entropy_gradient():
    from charnmt.tensor import grad_check

    rng = rand_rng(51)
    params = ParameterSet({"z": Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)})
    tgt = rng.integers(0, 6, size=(2, 4))
    mask = np.ones((2, 4), dtype=bool)
    report = grad_check(
        lambda p: masked_cross_entropy(p["z"], tgt, mask, smoothing=0.1),
        params, tol=1e-5)
    assert report.passed, report.per_param


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _scalar_params(value):
    return ParameterSet({"x": Tensor(np.array([value]), requires_grad=True)})


def test_adam_zero_gradient_is_identity():
    params = _scalar_params(1.5)
    params["x"].grad[:] = 0.0
    state = AdamState.for_params(params)
    adam_step(params, state, lr=0.1)
    assert params["x"].data[0] == 1.5
    assert state.t == 1


def test_adam_first_step_magnitude_is_lr():
    params = _scalar_params(0.0)
    params["x"].grad[:] = 42.0
    state = AdamState.for_params(params)
    adam_step(params, state, lr=0.01)
    assert abs(abs(params["x"].data[0]) - 0.01) < 1e-9


def test_adam_descends_quadratic():
    params = _scalar_params(1.0)
    state = AdamState.for_params(params)
    history = [1.0]
    for _ in range(10):
        params.zero_grad()
        tsum(mul(params["x"], params["x"])).backward()
        adam_step(params, state, lr=0.1)
        history.append(abs(float(params["x"].data[0])))
    assert all(b < a for a, b in zip(history, history[1:]))


def test_adam_rejects_non_finite_gradient():
    params = _scalar_params(1.0)
    params["x"].grad[:] = np.nan
    state = AdamState.for_params(params)
    with pytest.raises(NonFiniteError):
        adam_step(params, state, lr=0.1)
    assert params["x"].data[0] == 1.0 and state.t == 0


@pytest.mark.invariant
def test_clip_and_adam_match_per_name_oracle():
    """Clipping and Adam on the flat buffers equal the per-name loops bit for
    bit, on the 438,312 values of the lab conv model (vocabulary 40)."""
    config = ModelConfig(vocab_size=40, d_model=64, n_layers=2, n_heads=4, max_len=128,
                         encoder_kind="conv", dropout=0.0)
    params = build_params(config, seed=5)
    assert params.data.size == 438_312
    adam = AdamState.for_params(params)
    weights = {name: t.data.copy() for name, t in params.items()}
    m = {name: np.zeros_like(w) for name, w in weights.items()}
    v = {name: np.zeros_like(w) for name, w in weights.items()}
    t, norms = 0, []
    rng = rand_rng(77)
    for step in range(1, 21):
        scale = 10.0 ** rng.uniform(-4.0, 0.0)  # norms on both sides of the clip norm
        grads = {name: rng.normal(size=w.shape) * scale for name, w in weights.items()}
        for name, g in grads.items():
            params[name].grad[...] = g
        lr = lr_at_step(step, config.d_model, warmup=8)
        norm = clip_grad_norm(params)
        adam_step(params, adam, lr)
        weights, m, v, t, ref_norm = adam_and_clip(weights, m, v, t, grads, lr, 1.0)
        assert norm == ref_norm and adam.t == t
        norms.append(norm)
        flat_m, flat_v = params.views(adam.m), params.views(adam.v)
        for name in weights:
            assert np.array_equal(params[name].data, weights[name]), (step, name)
            assert np.array_equal(flat_m[name], m[name]), (step, name)
            assert np.array_equal(flat_v[name], v[name]), (step, name)
    assert min(norms) < 1.0 < max(norms)


@pytest.mark.invariant
def test_nan_embedding_weight_stops_a_training_step(tiny_setup):
    """Embedding lookups skip the finite check; the scaling mul after it
    catches a NaN row before any parameter moves."""
    params, config, vocab = tiny_setup
    params["tgt_embed.weight"].data[BOS_ID] = np.nan
    before = params.data.copy()
    with pytest.raises(RuntimeError, match="'mul'") as err:
        train(params, config, TrainConfig(epochs=1, max_tokens=64, warmup=10),
              ParallelCorpus(pairs=[("abcd", "dcba")]), vocab)
    assert isinstance(err.value.__cause__, NonFiniteError)
    assert np.array_equal(params.data, before, equal_nan=True)


def test_adam_names_first_non_finite_parameter():
    params = ParameterSet({name: Tensor(np.ones(3), requires_grad=True) for name in "cab"})
    params["b"].grad[1] = np.inf
    params["c"].grad[0] = np.nan
    state = AdamState.for_params(params)
    with pytest.raises(NonFiniteError) as err:
        adam_step(params, state, lr=0.1)
    assert "'b'" in str(err.value)
    assert np.array_equal(params.data, np.ones(9)) and state.t == 0
    assert not state.m.any() and not state.v.any()


# ---------------------------------------------------------------------------
# schedule and clipping
# ---------------------------------------------------------------------------

def test_lr_peak_at_warmup():
    assert abs(lr_at_step(400, 512, 400) - 512 ** -0.5 * 400 ** -0.5) < 1e-15


def test_lr_linear_ramp():
    assert abs(lr_at_step(200, 64, 400) - 0.5 * lr_at_step(400, 64, 400)) < 1e-15


def test_lr_inverse_sqrt_decay():
    assert abs(lr_at_step(1600, 64, 400) - 0.5 * lr_at_step(400, 64, 400)) < 1e-15


def test_lr_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        lr_at_step(0, 64, 400)


def test_clip_grad_norm_scales_to_max():
    params = ParameterSet({"a": Tensor(np.zeros(3), requires_grad=True),
                           "b": Tensor(np.zeros(4), requires_grad=True)})
    params["a"].grad[:] = 2.0
    params["b"].grad[:] = -2.0
    before = np.sqrt((params["a"].grad ** 2).sum() + (params["b"].grad ** 2).sum())
    returned = clip_grad_norm(params)
    assert abs(returned - before) < 1e-12
    after = np.sqrt((params["a"].grad ** 2).sum() + (params["b"].grad ** 2).sum())
    assert abs(after - 1.0) < 1e-12


def test_clip_grad_norm_leaves_small_gradients_alone():
    params = ParameterSet({"a": Tensor(np.zeros(2), requires_grad=True)})
    params["a"].grad[:] = [0.3, 0.4]
    clip_grad_norm(params)
    assert np.allclose(params["a"].grad, [0.3, 0.4])


@pytest.mark.invariant
@pytest.mark.parametrize("name, value", [("seed", -1), ("early_stop_bleu", 150.0),
                                         ("early_stop_bleu", -5.0),
                                         ("early_stop_bleu", float("nan"))])
def test_train_config_rejects_out_of_range_value(name, value):
    """numpy rejects a negative seed only once the corpora are mixed, naming
    no field; a BLEU bound above 100 can never be met, and a negative one
    silently turns early stopping off."""
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------

def _micro_task(n_pairs=24, seed=60):
    rng = rand_rng(seed)
    alphabet = "abcdef"
    pairs = []
    for _ in range(n_pairs):
        s = "".join(alphabet[i] for i in rng.integers(0, 6, size=rng.integers(3, 9)))
        pairs.append((s, s))
    corpus = ParallelCorpus(pairs=pairs)
    vocab = build_vocab([corpus], 1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_layers=1,
                         n_heads=2, d_ff=32, max_len=32, dropout=0.0)
    return corpus, vocab, config


def test_train_zero_epochs_is_noop(tmp_path):
    corpus, vocab, config = _micro_task()
    params = build_params(config, seed=0)
    before = params.copy()
    tc = TrainConfig(epochs=0, max_tokens=256, warmup=10, seed=0)
    log = train(params, config, tc, corpus, vocab, out_dir=tmp_path)
    assert not log.steps and not log.epochs
    for name, t in params.items():
        assert np.array_equal(t.data, before[name].data)
    assert (tmp_path / "latest.ckpt").exists()


def test_train_same_seed_is_bit_identical():
    corpus, vocab, config = _micro_task()
    tc = TrainConfig(epochs=2, max_tokens=64, warmup=20, seed=4)
    for rate in (0.0, 0.1):
        config = dataclasses.replace(config, dropout=rate)
        runs = []
        for _ in range(2):
            params = build_params(config, seed=0)
            log = train(params, config, tc, corpus, vocab)
            runs.append([s.loss for s in log.steps])
        assert runs[0] == runs[1], rate


def test_train_lowers_validation_loss():
    corpus, vocab, config = _micro_task()
    val = {"val": ParallelCorpus(pairs=corpus.pairs[:8])}
    tc = TrainConfig(epochs=1, max_tokens=256, warmup=10, seed=0,
                     label_smoothing=0.0, bleu_mode="char")
    params = build_params(config, seed=0)
    loss_before, _ = evaluate(params, config, val, vocab, tc)
    log = train(params, config, tc, corpus, vocab, val_sets=val)
    assert log.epochs[0].val_loss < loss_before


def test_train_single_batch_loss_decreases():
    """Smoke property: on one memorizable batch the loss trends down."""
    corpus, vocab, config = _micro_task(n_pairs=6)
    tc = TrainConfig(epochs=50, max_tokens=512, warmup=400, seed=1,
                     label_smoothing=0.0)
    params = build_params(config, seed=1)
    log = train(params, config, tc, corpus, vocab)
    losses = [s.loss for s in log.steps]
    assert len(losses) == 50
    decreases = sum(b < a for a, b in zip(losses, losses[1:]))
    assert decreases >= 45
    assert losses[-1] < 0.5 * losses[0]


@pytest.mark.parametrize("max_len,train_pair,val_pairs,message", [
    (128, "empty", [("abc", "abc")], "training corpus is empty"),
    (128, None, [], "validation set 'v' is empty"),
    (128, None, [("abc", "abc"), ("a" * 70, "b" * 70)],
     "validation set 'v': pair 2 needs 71 tokens, over min(max_len, max_tokens) = 64"),
    (32, None, [("abc", "a" * 40)], "validation set 'v': pair 1 needs 41 tokens"),
    (32, ("a" * 40, "a" * 40), [("abc", "abc")], "training corpus: pair 6 needs 41 tokens"),
], ids=["empty-train", "empty-val", "val-over-budget", "val-over-max-len",
        "train-over-max-len"])
def test_train_checks_its_inputs_before_the_first_step(max_len, train_pair, val_pairs,
                                                       message):
    """An empty set and a pair over min(max_len, max_tokens) fail before any
    step, naming the set and the pair's position, with the parameters
    untouched."""
    corpus, vocab, config = _micro_task(n_pairs=40)
    config = dataclasses.replace(config, max_len=max_len)
    if train_pair == "empty":
        corpus.pairs.clear()
    elif train_pair is not None:
        corpus.pairs[5] = train_pair
    params = build_params(config, seed=0)
    before = params.data.copy()
    log = TrainLog()
    tc = TrainConfig(epochs=1, max_tokens=64, warmup=10, seed=0)
    with pytest.raises(ValueError, match=re.escape(message)):
        train(params, config, tc, corpus, vocab, val_sets={"v": ParallelCorpus(val_pairs)},
              log=log)
    assert not log.steps
    assert params.data.tobytes() == before.tobytes()


def test_train_aborts_on_non_finite_with_restore():
    corpus, vocab, config = _micro_task()
    params = build_params(config, seed=0)
    params["src_embed.weight"].data[:] = 1e200  # forward will overflow
    tc = TrainConfig(epochs=1, max_tokens=256, warmup=10, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError) as err:
            train(params, config, tc, corpus, vocab)
    assert "restored" in str(err.value)


def test_train_abort_restores_adam_state_with_parameters(tmp_path, monkeypatch):
    """A failure in the middle of an epoch leaves the caller's parameters and
    Adam state both as ``latest.ckpt`` holds them, so a resume from that
    pair follows the uninterrupted trajectory."""
    corpus, vocab, config = _micro_task()
    tc = TrainConfig(epochs=3, max_tokens=64, warmup=10, seed=0)
    params = build_params(config, seed=0)
    adam = AdamState.for_params(params)
    log = TrainLog()
    real = charnmt.training.masked_cross_entropy
    calls_after_epoch_0 = []

    def failing(*args):
        if log.epochs:  # epoch 0 is complete and checkpointed
            calls_after_epoch_0.append(1)
            if len(calls_after_epoch_0) == 2:
                raise NonFiniteError("injected")
        return real(*args)

    monkeypatch.setattr(charnmt.training, "masked_cross_entropy", failing)
    with pytest.raises(RuntimeError, match="restored"):
        train(params, config, tc, corpus, vocab, out_dir=tmp_path, adam=adam, log=log)
    assert log.steps[-1].epoch == 1  # one Adam step of epoch 1 ran before the failure
    saved = checkpoint_load(tmp_path / "latest.ckpt")
    assert saved.epoch == 1 and saved.adam.t == log.steps[-1].step - 1
    for name, t in params.items():
        assert np.array_equal(t.data, saved.params[name].data), name
    assert adam.t == saved.adam.t
    assert np.array_equal(adam.m, saved.adam.m)
    assert np.array_equal(adam.v, saved.adam.v)


def test_train_log_csv_layout(tmp_path):
    corpus, vocab, config = _micro_task()
    val = {"val": ParallelCorpus(pairs=corpus.pairs[:4])}
    tc = TrainConfig(epochs=1, max_tokens=256, warmup=10, seed=0, bleu_mode="char")
    params = build_params(config, seed=0)
    log = train(params, config, tc, corpus, vocab, val_sets=val)
    path = tmp_path / "train_log.csv"
    log.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("step,epoch,loss,val_loss,val_bleu,seconds,lr,grad_norm,tokens,"
                        "tokens_per_s,eval_seconds")
    step_rows = [l.split(",") for l in lines[1:] if l.split(",")[2]]
    val_rows = [l.split(",") for l in lines[1:] if l.split(",")[3]]
    assert len(step_rows) == len(log.steps)
    assert len(val_rows) == 1 and val_rows[0][6:10] == ["", "", "", ""]
    epoch = log.epochs[0]
    assert float(val_rows[0][10]) == pytest.approx(epoch.eval_seconds, abs=1e-3)
    # validation is the tail of the epoch: it starts after the last step ends
    assert 0.0 < epoch.eval_seconds <= epoch.seconds - log.steps[-1].seconds
    batches = make_batches(corpus, vocab, tc.max_tokens, seed=seed_for_name(tc.seed, "batches.0"))
    for row, rec, batch in zip(step_rows, log.steps, batches, strict=True):
        assert len(row) == 11 and row[10] == ""
        assert rec.lr == lr_at_step(rec.step, config.d_model, tc.warmup)
        assert float(row[6]) == pytest.approx(rec.lr, rel=1e-5)
        assert float(row[7]) == pytest.approx(rec.grad_norm, rel=1e-5)
        assert int(row[8]) == rec.tokens == batch.n_target_tokens
        assert float(row[9]) == pytest.approx(rec.tokens_per_s, rel=1e-5)
        assert rec.tokens_per_s > 0.0
    # the norm before clipping: an untrained model's first gradients exceed the clip norm
    assert log.steps[0].grad_norm > charnmt.training.CLIP_NORM
    curves = tmp_path / "curves.csv"
    log.write_curves_csv(curves)
    assert curves.read_text().splitlines()[0] == "epoch,val"


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _ckpt_fixture(tmp_path):
    corpus, vocab, config = _micro_task()
    params = build_params(config, seed=2)
    adam = AdamState.for_params(params)
    adam.t = 17
    params.views(adam.m)["out.bias"][:] = 0.25
    path = tmp_path / "model.ckpt"
    checkpoint_save(params, config, vocab, adam, path, step=17, epoch=3)
    return params, config, vocab, adam, path


def test_checkpoint_round_trip_exact(tmp_path):
    params, config, vocab, adam, path = _ckpt_fixture(tmp_path)
    bundle = checkpoint_load(path)
    assert bundle.config == config
    assert bundle.vocab.chars == vocab.chars
    assert bundle.step == 17 and bundle.epoch == 3
    for name, t in params.items():
        assert np.array_equal(bundle.params[name].data, t.data)
    assert bundle.adam.t == 17
    assert np.array_equal(bundle.params.views(bundle.adam.m)["out.bias"],
                          params.views(adam.m)["out.bias"])


def test_checkpoint_round_trip_forward_equivalence(tmp_path):
    params, config, vocab, _, path = _ckpt_fixture(tmp_path)
    bundle = checkpoint_load(path)
    batch = make_batch([("abc", "cba")], vocab)
    a, _ = model_forward(batch, params, config)
    b, _ = model_forward(batch, bundle.params, bundle.config)
    assert np.array_equal(a.data, b.data)


def test_checkpoint_rejects_non_float64_record(tmp_path):
    *_, path = _ckpt_fixture(tmp_path)
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<I", raw[5:9])
    (name_len,) = struct.unpack("<H", raw[13 + header_len:15 + header_len])
    raw[15 + header_len + name_len] = 1  # the first record's dtype tag
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert "unknown dtype tag 1" in str(err.value)


def test_checkpoint_loads_header_with_old_optimizer_keys(tmp_path):
    """Headers once also stored the record dtype and the constant Adam
    hyperparameters; such files still load to the same optimizer state."""
    params, _, _, adam, path = _ckpt_fixture(tmp_path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[5:9])
    header = json.loads(raw[9:9 + header_len])
    header["dtype"] = "float64"
    header["adam"].update(beta1=0.9, beta2=0.98, eps=1e-9, scale=1.0)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:5] + struct.pack("<I", len(new)) + new + raw[9 + header_len:])
    bundle = checkpoint_load(path)
    assert bundle.adam.t == adam.t
    for name in params.names():
        assert np.array_equal(bundle.params.views(bundle.adam.m)[name], params.views(adam.m)[name])
        assert np.array_equal(bundle.params.views(bundle.adam.v)[name], params.views(adam.v)[name])


def test_checkpoint_save_failure_keeps_old_file(tmp_path, monkeypatch):
    params, config, vocab, adam, path = _ckpt_fixture(tmp_path)
    written = []

    def failing_write(f, name, *rest):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(name)
        _write_record(f, name, *rest)

    monkeypatch.setattr(charnmt.training, "_write_record", failing_write)
    changed = params.copy()
    for _, t in changed.items():
        t.data += 1.0
    with pytest.raises(OSError):
        checkpoint_save(changed, config, vocab, adam, path, step=18, epoch=4)
    assert written and sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    bundle = checkpoint_load(path)
    assert bundle.step == 17
    for name, t in params.items():
        assert np.array_equal(bundle.params[name].data, t.data)


def test_checkpoint_rejects_tampered_magic(tmp_path):
    _, _, _, _, path = _ckpt_fixture(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert "not a checkpoint" in str(err.value)


def test_checkpoint_rejects_truncation(tmp_path):
    _, _, _, _, path = _ckpt_fixture(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert "truncated" in str(err.value)


# each once escaped checkpoint_load as MemoryError, OverflowError, an
# unnamed read error, TypeError or RecursionError: (damage, fragment of the error)
_READ_DAMAGES = {
    "extent-2**40": (lambda raw: with_first_extent(raw, 2**40), "truncated or damaged"),
    "extent-2**61": (lambda raw: with_first_extent(raw, 2**61), "truncated or damaged"),
    "extent--5": (lambda raw: with_first_extent(raw, -5), "truncated or damaged"),
    "header-5": (lambda raw: with_header_text(raw, b"5"), "must be a JSON object"),
    "header-null": (lambda raw: with_header_text(raw, b"null"), "must be a JSON object"),
    "header-nested": (lambda raw: with_header_text(raw, NESTED_HEADER), "nested too deeply"),
}


@pytest.mark.invariant
@pytest.mark.parametrize("damage", sorted(_READ_DAMAGES))
def test_checkpoint_damaged_extent_or_header_type_is_a_named_value_error(tmp_path, damage):
    change, fragment = _READ_DAMAGES[damage]
    *_, path = _ckpt_fixture(tmp_path)
    path.write_bytes(change(path.read_bytes()))
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value).startswith(f"{path}: ") and fragment in str(err.value)


def _rewrite_records(path, change):
    """Pass a float64 checkpoint's records through ``change`` and write them back."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[5:9])
    with open(path, "rb") as body:  # _read_record sizes its reads from the file
        body.seek(9 + header_len)
        (n_records,) = struct.unpack("<I", body.read(4))
        records = change([_read_record(body) for _ in range(n_records)])
    out = io.BytesIO()
    out.write(raw[:9 + header_len])
    out.write(struct.pack("<I", len(records)))
    for name, arr in records:
        _write_record(out, name, arr)
    path.write_bytes(out.getvalue())


@pytest.mark.parametrize("damage", ["missing", "misshapen"])
@pytest.mark.parametrize("moment", ["adam.m", "adam.v"])
def test_checkpoint_rejects_damaged_adam_moment(tmp_path, moment, damage):
    *_, path = _ckpt_fixture(tmp_path)
    key = f"{moment}/out.bias"
    if damage == "missing":
        _rewrite_records(path, lambda recs: [r for r in recs if r[0] != key])
    else:
        _rewrite_records(path, lambda recs: [(n, a[:-1] if n == key else a) for n, a in recs])
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert key in str(err.value)


def _rewrite_header(path, change):
    """Pass a checkpoint's JSON header through ``change`` and write it back."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[5:9])
    header = json.loads(raw[9:9 + header_len])
    change(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:5] + struct.pack("<I", len(new)) + new + raw[9 + header_len:])


_HEADER_DAMAGES = {
    "unknown-config-key": (lambda h: h["config"].update(extra=1), "'extra'"),
    "string-d-model": (lambda h: h["config"].update(d_model=str(h["config"]["d_model"])),
                       "d_model must be an integer"),
    "no-config": (lambda h: h.pop("config"), "no 'config'"),
    "no-adam": (lambda h: h.pop("adam"), "no 'adam'"),
    "int-vocab-chars": (lambda h: h.update(vocab_chars=5), "'vocab_chars'"),
    "short-vocab-chars": (lambda h: h.update(vocab_chars=h["vocab_chars"][:-1]),
                          "'vocab_chars'"),
    "empty-adam": (lambda h: h.update(adam={}), "'adam'"),
    "list-adam": (lambda h: h.update(adam=[1]), "'adam'"),
    "string-adam-t": (lambda h: h["adam"].update(t="x"), "'adam.t'"),
    "negative-adam-t": (lambda h: h["adam"].update(t=-4), "'adam.t'"),
    "string-step": (lambda h: h.update(step="17"), "'step'"),
    "float-step": (lambda h: h.update(step=17.5), "'step'"),
    "negative-epoch": (lambda h: h.update(epoch=-1), "'epoch'"),
    "other-conv-windows": (lambda h: h["config"].update(conv_windows=[3, 5]),
                           "'conv_windows' must be [3, 5, 7]"),
    "float-fuse-window": (lambda h: h["config"].update(fuse_window=3.0),
                          "'fuse_window' must be 3"),
}


@pytest.mark.invariant
@pytest.mark.parametrize("damage", sorted(_HEADER_DAMAGES))
def test_checkpoint_rejects_damaged_header(tmp_path, damage):
    change, fragment = _HEADER_DAMAGES[damage]
    *_, path = _ckpt_fixture(tmp_path)
    _rewrite_header(path, change)
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value).startswith(f"{path}: ") and fragment in str(err.value)


def test_checkpoint_loads_a_header_naming_the_conv_windows(tmp_path):
    """Headers written while the windows were config fields name them, at
    the one value they could hold."""
    _, config, _, _, path = _ckpt_fixture(tmp_path)
    _rewrite_header(path, lambda h: h["config"].update(conv_windows=[3, 5, 7], fuse_window=3))
    assert checkpoint_load(path).config == config


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"

# each leaves a header that parses and records that read, but a body the
# header does not describe: (damage, fragment of the error)
_BODY_DAMAGES = {
    "relabelled-header": (
        lambda path: _rewrite_header(path, lambda h: h["config"].update(encoder_kind="standard")),
        "record 'param/enc.0.conv.fuse.bias', which its header's model"),
    "trailing-bytes": (lambda path: path.write_bytes(path.read_bytes() + bytes(7)),
                       "7 bytes after its last record"),
    "duplicate-record": (lambda path: _rewrite_records(path, lambda recs: recs[:1] + recs),
                         "record 'param/dec.0.cross_attn.k_proj.bias' twice"),
}


@pytest.mark.invariant
@pytest.mark.parametrize("damage", sorted(_BODY_DAMAGES))
def test_checkpoint_rejects_body_that_disagrees_with_header(tmp_path, damage):
    change, fragment = _BODY_DAMAGES[damage]
    path = tmp_path / "conv.ckpt"
    shutil.copyfile(FIXTURE / "conv.ckpt", path)
    change(path)
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value).startswith(f"{path}: ") and fragment in str(err.value)


@pytest.mark.invariant
def test_checkpoint_resume_equivalence(tmp_path):
    """Stopping at an epoch boundary and resuming reproduces the
    uninterrupted run bit for bit."""
    corpus, vocab, config = _micro_task()
    tc = TrainConfig(epochs=2, max_tokens=64, warmup=20, seed=7)
    tc_first = TrainConfig(epochs=1, max_tokens=64, warmup=20, seed=7)
    for rate in (0.0, 0.1):
        config = dataclasses.replace(config, dropout=rate)
        straight = build_params(config, seed=3)
        train(straight, config, tc, corpus, vocab)

        resumed = build_params(config, seed=3)
        out_dir = tmp_path / f"dropout{rate}"
        train(resumed, config, tc_first, corpus, vocab, out_dir=out_dir)
        bundle = checkpoint_load(out_dir / "latest.ckpt")
        assert bundle.epoch == 1
        train(bundle.params, bundle.config, tc, corpus, vocab,
              adam=bundle.adam, start_epoch=bundle.epoch)

        for name, t in straight.items():
            assert np.array_equal(t.data, bundle.params[name].data), (rate, name)


def test_resumed_run_keeps_its_best_checkpoint(tmp_path, monkeypatch):
    """A run stopped after epoch 1 and resumed leaves the ``best.ckpt`` of
    the uninterrupted run: a later epoch that scores lower overwrites it
    in neither."""
    corpus, vocab, config = _micro_task()
    val = {"val": ParallelCorpus(pairs=corpus.pairs[:4])}
    tc = TrainConfig(epochs=2, max_tokens=64, warmup=20, seed=7)
    tc_first = dataclasses.replace(tc, epochs=1)
    epoch1 = build_params(config, seed=3)
    train(epoch1, config, tc_first, corpus, vocab)

    def scored(params, config, val_sets, vocab, train_config):
        first = all(np.array_equal(t.data, epoch1[n].data) for n, t in params.items())
        return 0.0, {"val": 50.0 if first else 10.0}

    monkeypatch.setattr(charnmt.training, "evaluate", scored)
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    train(build_params(config, seed=3), config, tc, corpus, vocab, val_sets=val,
          out_dir=straight)
    train(build_params(config, seed=3), config, tc_first, corpus, vocab, val_sets=val,
          out_dir=resumed)
    bundle = checkpoint_load(resumed / "latest.ckpt")
    train(bundle.params, bundle.config, tc, corpus, vocab, val_sets=val, out_dir=resumed,
          adam=bundle.adam, start_epoch=bundle.epoch)
    assert checkpoint_load(straight / "best.ckpt").epoch == 1
    assert checkpoint_load(resumed / "latest.ckpt").epoch == 2
    assert (resumed / "best.ckpt").read_bytes() == (straight / "best.ckpt").read_bytes()
