"""End-to-end command-line behavior, driven in-process through main()."""

import json
import subprocess
import sys
import unicodedata

import numpy as np
import pytest

from charnmt.alignment import cross_attention_maps
from charnmt.cli import main, resolve_run_config
from charnmt.data import ParallelCorpus, build_vocab
from charnmt.decoding import DecodeConfig, greedy_decode_batch
from charnmt.model import ModelConfig, build_params
from charnmt.training import checkpoint_load, checkpoint_save

SRC_LINES = ["ab", "ba", "aab", "bba", "abab", "baba", "aa", "bb"]
TGT_LINES = ["ab", "ab", "aab", "aab", "abab", "abab", "aa", "aa"]


@pytest.fixture
def corpus_files(tmp_path):
    src = tmp_path / "train.src"
    tgt = tmp_path / "train.tgt"
    src.write_text("\n".join(SRC_LINES) + "\n")
    tgt.write_text("\n".join(TGT_LINES) + "\n")
    return src, tgt


def _tiny_config(src, tgt, epochs=0, val=None, **train_extra):
    cfg = {
        "model": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
                  "max_len": 64, "dropout": 0.0},
        "train": {"epochs": epochs, "max_tokens": 64, "warmup": 10,
                  "label_smoothing": 0.0, **train_extra},
        "data": {"corpora": [{"src": str(src), "tgt": str(tgt)}]},
    }
    if val is not None:
        cfg["data"]["val"] = val
    return cfg


def _write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _tiny_checkpoint(tmp_path, name="model.ckpt", seed=0):
    vocab = build_vocab([ParallelCorpus(pairs=list(zip(SRC_LINES, TGT_LINES)))], 1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_layers=1,
                         n_heads=2, d_ff=32, max_len=64, dropout=0.0)
    params = build_params(config, seed=seed)
    path = tmp_path / name
    checkpoint_save(params, config, vocab, None, path, step=0, epoch=0)
    return path, params, config, vocab


# ---------------------------------------------------------------------------
# build-vocab
# ---------------------------------------------------------------------------

def test_build_vocab_reports_size(corpus_files, tmp_path, capsys):
    src, tgt = corpus_files
    out = tmp_path / "vocab.txt"
    code = main(["build-vocab", "--src", str(src), "--tgt", str(tgt),
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "vocab size 6\n"
    assert out.read_text() == "a\nb\n"


def test_build_vocab_is_reproducible(corpus_files, tmp_path):
    src, tgt = corpus_files
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["build-vocab", "--src", str(src), "--tgt", str(tgt), "--out", str(a)]) == 0
    assert main(["build-vocab", "--src", str(tgt), "--tgt", str(src), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_vocab_missing_file_fails(tmp_path, capsys):
    missing = tmp_path / "nope.src"
    code = main(["build-vocab", "--src", str(missing), "--tgt", str(missing),
                 "--out", str(tmp_path / "v.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.src" in err


@pytest.mark.parametrize("table, message", [
    (b"\xef\xbb\xbf\xc3\xa9\te\n", "byte-order mark not allowed"),
    (b"\xc3\xa9\te\r\n", "line 1 holds a CR"),
], ids=["bom", "crlf"])
def test_build_vocab_rejects_translit_table(corpus_files, tmp_path, capsys, table, message):
    src, tgt = corpus_files
    path, out = tmp_path / "table.tsv", tmp_path / "v.txt"
    path.write_bytes(table)
    code = main(["build-vocab", "--src", str(src), "--tgt", str(tgt), "--out", str(out),
                 "--translit", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not out.exists()


def test_build_vocab_mismatched_file_counts(corpus_files, tmp_path, capsys):
    src, tgt = corpus_files
    code = main(["build-vocab", "--src", str(src), str(tgt), "--tgt", str(tgt),
                 "--out", str(tmp_path / "v.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run-config resolution
# ---------------------------------------------------------------------------

def test_resolve_config_fills_defaults():
    resolved = resolve_run_config({"model": {"d_model": 16}})
    assert resolved["model"]["d_model"] == 16
    assert resolved["model"]["n_layers"] == 6
    assert resolved["train"]["warmup"] == 400
    with pytest.raises(ValueError, match="unknown config keys: eval"):
        resolve_run_config({"eval": {"beam_size": 1}})


def test_resolve_config_rejects_all_unknown_keys_at_once():
    doc = {"model": {"d_modell": 1, "colour": 2},
           "extra_section": {},
           "data": {"corpora": [{"src": "s", "tgt": "t", "bad_key": 1}]}}
    with pytest.raises(ValueError) as exc:
        resolve_run_config(doc)
    msg = str(exc.value)
    for key in ("model.d_modell", "model.colour", "extra_section",
                "data.corpora[0].bad_key"):
        assert key in msg


def test_resolve_config_rejects_non_object_sections():
    with pytest.raises(ValueError):
        resolve_run_config({"model": 5})
    with pytest.raises(ValueError):
        resolve_run_config([1, 2])


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_zero_epochs_writes_skeleton(corpus_files, tmp_path):
    src, tgt = corpus_files
    cfg_path = _write_config(tmp_path, _tiny_config(src, tgt, epochs=0))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["model"]["d_model"] == 16
    assert resolved["train"]["epochs"] == 0
    assert (out / "vocab.txt").read_text() == "a\nb\n"
    assert (out / "latest.ckpt").exists()
    assert (out / "train_log.csv").read_text() == "step,epoch,loss,val_loss,val_bleu,seconds\n"
    assert not (out / "bleu_curves.csv").exists()


def _strip_seconds(csv_text):
    rows = csv_text.splitlines()
    return [",".join(r.split(",")[:-1]) for r in rows]


def test_train_runs_are_deterministic(corpus_files, tmp_path):
    src, tgt = corpus_files
    cfg_path = _write_config(tmp_path, _tiny_config(src, tgt, epochs=2))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    log_a = _strip_seconds((outs[0] / "train_log.csv").read_text())
    log_b = _strip_seconds((outs[1] / "train_log.csv").read_text())
    assert log_a == log_b and len(log_a) > 1
    assert (outs[0] / "latest.ckpt").read_bytes() == (outs[1] / "latest.ckpt").read_bytes()


def test_train_with_validation_writes_curves(corpus_files, tmp_path):
    src, tgt = corpus_files
    val = [{"src": str(src), "tgt": str(tgt), "lang": "toy"}]
    cfg_path = _write_config(
        tmp_path, _tiny_config(src, tgt, epochs=1, val=val, bleu_mode="char"))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    curves = (out / "bleu_curves.csv").read_text().splitlines()
    assert curves[0] == "epoch,toy"
    assert len(curves) == 2
    assert (out / "best.ckpt").exists()


def test_train_empty_corpora_fails(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"train": {"epochs": 1}})
    code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "corpora" in capsys.readouterr().err


@pytest.mark.invariant
@pytest.mark.parametrize("listname", ["corpora", "val"])
def test_train_empty_pair_file_fails_before_training(corpus_files, tmp_path, capsys, listname):
    src, tgt = corpus_files
    empty_src, empty_tgt = tmp_path / "empty.src", tmp_path / "empty.tgt"
    empty_src.write_text("")
    empty_tgt.write_text("")
    cfg = _tiny_config(src, tgt, epochs=1, val=[])
    cfg["data"][listname].append({"src": str(empty_src), "tgt": str(empty_tgt)})
    out = tmp_path / "run"
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {empty_src}: no lines\n"
    assert not (out / "latest.ckpt").exists()


def test_train_unknown_config_key_fails(corpus_files, tmp_path, capsys):
    src, tgt = corpus_files
    cfg = _tiny_config(src, tgt)
    cfg["train"]["optimizer"] = "sgd"
    cfg_path = _write_config(tmp_path, cfg)
    code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "train.optimizer" in capsys.readouterr().err


@pytest.mark.invariant
def test_train_corpus_lang_is_an_unknown_key(corpus_files, tmp_path, capsys):
    """Only a validation entry's ``lang`` is read: it names the BLEU column."""
    cfg = _tiny_config(*corpus_files)
    cfg["data"]["corpora"][0]["lang"] = "toy"
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown config keys: data.corpora[0].lang\n"


@pytest.mark.invariant
@pytest.mark.parametrize("section, key, value, kind", [
    ("train", "epochs", "2", "an integer"),
    ("model", "dropout", "0.1", "a number"),
    ("train", "early_stop_bleu", "5", "a number"),
])
def test_train_config_value_of_wrong_type_fails_before_training(corpus_files, tmp_path, capsys,
                                                                section, key, value, kind):
    cfg = _tiny_config(*corpus_files, epochs=1)
    cfg[section][key] = value
    out = tmp_path / "run"
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {key} must be {kind}, got '{value}'\n"
    assert not (out / "latest.ckpt").exists()


@pytest.mark.invariant
def test_train_negative_seed_fails_before_writing_anything(corpus_files, tmp_path, capsys):
    cfg = _tiny_config(*corpus_files, epochs=1)
    cfg["train"]["seed"] = -1
    out = tmp_path / "run"
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.invariant
@pytest.mark.parametrize("case", ["bad_model", "overlong_line", "duplicate_val",
                                  "missing_corpus", "min_count_str", "min_count_bool",
                                  "vocab_int", "translit_int", "corpus_src_int",
                                  "val_lang_int"])
def test_train_bad_input_writes_nothing(corpus_files, tmp_path, capsys, case):
    """Every input is checked before the run directory is made."""
    src, tgt = corpus_files
    cfg = _tiny_config(src, tgt, epochs=1)
    if case == "bad_model":
        cfg["model"]["d_model"] = 0
        want = "d_model must be an integer >= 1, got 0"
    elif case == "overlong_line":
        src, tgt = _overlong_files(tmp_path, "long", 2, "src", 8)
        cfg["data"]["corpora"] = [{"src": str(src), "tgt": str(tgt)}]
        cfg["model"]["max_len"] = 8
        want = f"{src}: line 2 needs 9 tokens, over min(max_len, max_tokens) = 8"
    elif case == "duplicate_val":
        cfg["data"]["val"] = [{"src": str(src), "tgt": str(tgt), "lang": "toy"}] * 2
        want = "data.val[0] and data.val[1] both name the validation set 'toy'"
    elif case.startswith("min_count"):
        cfg["data"]["min_count"] = "2" if case == "min_count_str" else True
        want = f"min_count must be an integer, got {cfg['data']['min_count']!r}"
    elif case in ("vocab_int", "translit_int"):
        key = case.split("_")[0]
        cfg["data"][key] = 7
        want = f"{key} must be a string or null, got 7"
    elif case == "corpus_src_int":
        cfg["data"]["corpora"][0]["src"] = 5
        want = "data.corpora[0].src must be a string, got 5"
    elif case == "val_lang_int":
        cfg["data"]["val"] = [{"src": str(src), "tgt": str(tgt), "lang": 3}]
        want = "data.val[0].lang must be a string, got 3"
    else:
        missing = tmp_path / "missing.src"
        cfg["data"]["corpora"][0]["src"] = str(missing)
        want = f"[Errno 2] No such file or directory: '{missing}'"
    out = tmp_path / "run"
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


def test_train_corpus_entry_without_src_fails(corpus_files, tmp_path, capsys):
    _, tgt = corpus_files
    cfg = _tiny_config(tmp_path / "unused.src", tgt)
    del cfg["data"]["corpora"][0]["src"]
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "data.corpora[0]" in err


def test_train_non_object_val_entry_fails(corpus_files, tmp_path, capsys):
    cfg = _tiny_config(*corpus_files, val=[5])
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "data.val[0]" in err


@pytest.mark.parametrize("langs", [("toy", "toy"), ("val1", None)])
def test_train_duplicate_val_names_fail_before_training(corpus_files, tmp_path, capsys, langs):
    src, tgt = corpus_files
    val = [{"src": str(src), "tgt": str(tgt)} for _ in langs]
    for entry, lang in zip(val, langs):
        if lang is not None:
            entry["lang"] = lang
    cfg = _tiny_config(src, tgt, epochs=1, val=val)
    out = tmp_path / "run"
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "data.val[0] and data.val[1]" in err and f"'{langs[0]}'" in err
    assert not (out / "latest.ckpt").exists()


def _overlong_files(tmp_path, stem, lineno, side, length):
    """Copies of the toy corpus whose ``side`` ("src" or "tgt") holds a run
    of ``length`` characters on 1-based line ``lineno``."""
    lines = {"src": list(SRC_LINES), "tgt": list(TGT_LINES)}
    lines[side][lineno - 1] = "a" * length
    paths = {k: tmp_path / f"{stem}.{k}" for k in lines}
    for k, path in paths.items():
        path.write_text("\n".join(lines[k]) + "\n")
    return paths["src"], paths["tgt"]


def test_train_overlong_corpus_line_names_file_and_line(tmp_path, capsys):
    src, tgt = _overlong_files(tmp_path, "train", 3, "tgt", 20)
    cfg = _tiny_config(src, tgt, epochs=1)
    cfg["model"]["max_len"] = 16
    out = tmp_path / "run"
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    assert f"{tgt}: line 3 needs 21 tokens" in capsys.readouterr().err
    assert not (out / "latest.ckpt").exists()


def test_train_overlong_val_line_fails_before_training(corpus_files, tmp_path, capsys):
    val_src, val_tgt = _overlong_files(tmp_path, "val", 2, "src", 70)
    val = [{"src": str(val_src), "tgt": str(val_tgt)}]
    cfg = _tiny_config(*corpus_files, epochs=1, val=val)
    out = tmp_path / "run"
    code = main(["train", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    assert f"{val_src}: line 2 needs 71 tokens" in capsys.readouterr().err
    assert not (out / "latest.ckpt").exists()


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------

def test_translate_empty_input(tmp_path):
    ckpt, *_ = _tiny_checkpoint(tmp_path)
    infile = tmp_path / "in.txt"
    outfile = tmp_path / "out.txt"
    infile.write_text("")
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile)]) == 0
    assert outfile.read_text() == ""


def test_translate_matches_library_greedy(tmp_path):
    ckpt, params, config, vocab = _tiny_checkpoint(tmp_path)
    infile = tmp_path / "in.txt"
    outfile = tmp_path / "out.txt"
    srcs = ["ab", "baab", "a"]
    infile.write_text("\n".join(srcs) + "\n")
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile)]) == 0
    got = outfile.read_text().splitlines()
    assert got == greedy_decode_batch(params, config, srcs, vocab, DecodeConfig())


def test_translit_table_runs_through_vocab_train_and_translate(tmp_path):
    """A valid table latinizes the sources for build-vocab, a run config's
    training data and translate alike."""
    table = tmp_path / "table.tsv"
    table.write_text("\u03b1\tqa\n\u03b2\tqb\n", encoding="utf-8")
    src, tgt = tmp_path / "train.src", tmp_path / "train.tgt"
    src.write_text("\n".join(line.translate({ord("a"): "\u03b1", ord("b"): "\u03b2"})
                             for line in SRC_LINES) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(TGT_LINES) + "\n")
    vocab_path = tmp_path / "vocab.txt"
    assert main(["build-vocab", "--src", str(src), "--tgt", str(tgt), "--out", str(vocab_path),
                 "--translit", str(table)]) == 0
    chars = vocab_path.read_text(encoding="utf-8").splitlines()
    assert chars == sorted("abq|")
    cfg = _tiny_config(src, tgt, epochs=1)
    cfg["data"]["translit"] = str(table)
    run = tmp_path / "run"
    assert main(["train", "--config", str(_write_config(tmp_path, cfg)), "--out", str(run)]) == 0
    assert (run / "vocab.txt").read_bytes() == vocab_path.read_bytes()
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_text("\u03b1\u03b2\n\u03b2\u03b2\u03b1\n", encoding="utf-8")
    assert main(["translate", "--ckpt", str(run / "latest.ckpt"), "--in", str(infile),
                 "--out", str(outfile), "--translit", str(table)]) == 0
    bundle = checkpoint_load(run / "latest.ckpt")
    want = greedy_decode_batch(bundle.params, bundle.config, ["qa|qb|", "qb|qb|qa|"],
                               bundle.vocab, DecodeConfig())
    assert outfile.read_text(encoding="utf-8").splitlines() == want


def test_translate_beam_flag(tmp_path):
    ckpt, *_ = _tiny_checkpoint(tmp_path, seed=5)
    infile = tmp_path / "in.txt"
    infile.write_text("ab\nba\n")
    out_greedy = tmp_path / "g.txt"
    out_beam = tmp_path / "b.txt"
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(out_greedy), "--beam", "1"]) == 0
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(out_beam), "--beam", "3"]) == 0
    assert len(out_beam.read_text().splitlines()) == 2


@pytest.mark.parametrize("beam", ["0", "-2"])
def test_translate_rejects_beam_below_one(tmp_path, capsys, beam):
    ckpt, *_ = _tiny_checkpoint(tmp_path)
    infile = tmp_path / "in.txt"
    infile.write_text("ab\n")
    outfile = tmp_path / "out.txt"
    code = main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile), "--beam", beam])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not outfile.exists()


def test_translate_normalizes_input_to_nfc(tmp_path):
    vocab = build_vocab([ParallelCorpus(pairs=[("abé", "abé")])], 1)
    config = ModelConfig(vocab_size=vocab.size, d_model=16, n_layers=1,
                         n_heads=2, d_ff=32, max_len=64, dropout=0.0)
    ckpt = tmp_path / "model.ckpt"
    checkpoint_save(build_params(config, seed=3), config, vocab, None, ckpt, step=0, epoch=0)
    outputs = []
    for form in ("NFC", "NFD"):
        infile = tmp_path / f"{form}.txt"
        outfile = tmp_path / f"{form}.out"
        dump = tmp_path / f"{form}.attn"
        infile.write_text(unicodedata.normalize(form, "abé\nébé\n"), encoding="utf-8")
        assert main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                     "--out", str(outfile), "--dump-attn", str(dump)]) == 0
        # the attention dumps record the source length the model saw
        outputs.append([outfile.read_bytes()] +
                       [(dump / f"line{i}.txt").read_bytes() for i in (1, 2)])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("beam", ["1", "4"])
def test_translate_overlong_line_names_it(tmp_path, capsys, beam):
    ckpt, _, config, _ = _tiny_checkpoint(tmp_path)
    infile = tmp_path / "in.txt"
    infile.write_text("ab\n" + "a" * config.max_len + "\nba\n")
    code = main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(tmp_path / "out.txt"), "--beam", beam])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_translate_notes_unknown_characters(tmp_path, capsys):
    ckpt, *_ = _tiny_checkpoint(tmp_path)
    infile = tmp_path / "in.txt"
    outfile = tmp_path / "out.txt"
    infile.write_text("xyz\n")
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile)]) == 0
    assert "UNK" in capsys.readouterr().err


def test_translate_dumps_attention(tmp_path):
    ckpt, *_ = _tiny_checkpoint(tmp_path)
    infile = tmp_path / "in.txt"
    outfile = tmp_path / "out.txt"
    infile.write_text("ab\nbaab\n")
    dump = tmp_path / "attn"
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile), "--dump-attn", str(dump)]) == 0
    hyps = outfile.read_text().splitlines()
    for i, (src, hyp) in enumerate(zip(["ab", "baab"], hyps), start=1):
        header = (dump / f"line{i}.txt").read_text().splitlines()[0].split()
        assert [int(v) for v in header] == [len(hyp) + 1, len(src) + 1]


def test_translate_dumps_attention_values_past_one_chunk(tmp_path):
    ckpt, params, config, vocab = _tiny_checkpoint(tmp_path, seed=2)
    srcs = [SRC_LINES[i % len(SRC_LINES)] * (1 + i % 3) for i in range(37)]
    infile = tmp_path / "in.txt"
    outfile = tmp_path / "out.txt"
    infile.write_text("\n".join(srcs) + "\n")
    dump = tmp_path / "attn"
    assert main(["translate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile), "--dump-attn", str(dump)]) == 0
    hyps = outfile.read_text().split("\n")[:-1]
    maps = cross_attention_maps(params, config, list(zip(srcs, hyps)), vocab)
    assert len(maps) == len(srcs) == len(list(dump.iterdir()))
    for i, m in enumerate(maps, start=1):
        back = np.loadtxt(dump / f"line{i}.txt", skiprows=1, ndmin=2)
        assert back.shape == m.shape
        assert np.allclose(back, m, rtol=1e-7, atol=0.0)


def test_translate_missing_checkpoint(tmp_path, capsys):
    code = main(["translate", "--ckpt", str(tmp_path / "no.ckpt"),
                 "--in", str(tmp_path / "no.txt"), "--out", str(tmp_path / "o.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_translate_truncated_checkpoint_names_it(tmp_path, capsys):
    path, *_ = _tiny_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:5000])
    src = tmp_path / "in.txt"
    src.write_text("ab\n")
    code = main(["translate", "--ckpt", str(path), "--in", str(src),
                 "--out", str(tmp_path / "o.txt")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: truncated checkpoint\n"


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_identical_files(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("the cat sat\non the mat\n")
    assert main(["score", "--hyp", str(hyp), "--ref", str(hyp)]) == 0
    assert capsys.readouterr().out == "BLEU 100.00\n"


def test_score_char_tokenizer(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("abcd\n")
    ref.write_text("abcd\n")
    assert main(["score", "--hyp", str(hyp), "--ref", str(ref),
                 "--tokenizer", "char"]) == 0
    assert capsys.readouterr().out == "BLEU 100.00\n"


def test_score_length_mismatch_fails(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a\n")
    ref.write_text("a\nb\n")
    assert main(["score", "--hyp", str(hyp), "--ref", str(ref)]) == 1
    assert capsys.readouterr().err == f"error: {hyp} has 1 lines but {ref} has 2\n"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_same_model_gives_unit_correlation(tmp_path, capsys):
    ckpt_a, params, config, vocab = _tiny_checkpoint(tmp_path, name="a.ckpt")
    ckpt_b = tmp_path / "b.ckpt"
    checkpoint_save(params, config, vocab, None, ckpt_b, step=0, epoch=0)
    src = tmp_path / "test.src"
    ref = tmp_path / "test.ref"
    src.write_text("\n".join(SRC_LINES + ["abba", "baab", "aaab", "babb"]) + "\n")
    ref.write_text("\n".join(TGT_LINES + ["abab", "abab", "aaab", "abab"]) + "\n")
    out = tmp_path / "report.csv"
    dump = tmp_path / "heat"
    code = main(["analyze", "--ckpt-a", str(ckpt_a), "--ckpt-b", str(ckpt_b),
                 "--src", str(src), "--ref", str(ref), "--n", "12",
                 "--grid", "8", "--k", "5", "--out", str(out),
                 "--lang", "toy", "--dump-attn", str(dump)])
    assert code == 0
    assert capsys.readouterr().out == "rho_mean 1.000000\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "model_a,model_b,test_lang,n,grid,k,rho_mean"
    assert lines[1] == "a,b,toy,12,8x8,5,1.000000"
    assert sorted(p.name for p in dump.iterdir()) == ["a", "b"]


def test_analyze_line_count_mismatch_fails(tmp_path, capsys):
    ckpt, *_ = _tiny_checkpoint(tmp_path)
    src = tmp_path / "s.txt"
    ref = tmp_path / "r.txt"
    src.write_text("ab\n")
    ref.write_text("ab\nba\n")
    code = main(["analyze", "--ckpt-a", str(ckpt), "--ckpt-b", str(ckpt),
                 "--src", str(src), "--ref", str(ref),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {src} has 1 lines but {ref} has 2\n"


def test_analyze_dump_rejects_checkpoints_with_one_stem(tmp_path, capsys):
    # the dumps go under DIR/<stem>/, so a/best.ckpt and b/best.ckpt would
    # write one directory and the second model's maps would replace the first's
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    ckpt_a, *_ = _tiny_checkpoint(tmp_path / "a", name="best.ckpt", seed=0)
    ckpt_b, *_ = _tiny_checkpoint(tmp_path / "b", name="best.ckpt", seed=1)
    src, ref = tmp_path / "s.txt", tmp_path / "r.txt"
    src.write_text("\n".join(SRC_LINES) + "\n")
    ref.write_text("\n".join(TGT_LINES) + "\n")
    out, dump = tmp_path / "o.csv", tmp_path / "heat"
    argv = ["analyze", "--ckpt-a", str(ckpt_a), "--ckpt-b", str(ckpt_b), "--src", str(src),
            "--ref", str(ref), "--n", "5", "--grid", "4", "--k", "2", "--out", str(out)]
    assert main([*argv, "--dump-attn", str(dump)]) == 1
    err = capsys.readouterr().err
    assert str(ckpt_a) in err and str(ckpt_b) in err and "'best'" in err
    assert not out.exists() and not dump.exists()
    assert main(argv) == 0  # without dumps, equal stems are only labels
    assert out.read_text().splitlines()[1].startswith("best,best,,5,4x4,2,")


def test_analyze_overlong_line_names_file_and_line(tmp_path, capsys):
    ckpt, _, config, _ = _tiny_checkpoint(tmp_path)
    src, ref = _overlong_files(tmp_path, "test", 6, "src", config.max_len)
    code = main(["analyze", "--ckpt-a", str(ckpt), "--ckpt-b", str(ckpt),
                 "--src", str(src), "--ref", str(ref), "--grid", "8", "--k", "2",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert f"{src}: line 6 needs {config.max_len + 1} tokens" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input files are read as training reads them
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("raw, message", [
    (b"\xef\xbb\xbfab\nba\naab\n", "byte-order mark not allowed"),
    (b"ab\nb\ra\naab\n", "line 2 holds a CR"),
], ids=["bom", "cr"])
@pytest.mark.parametrize("command", ["translate", "score", "analyze"])
def test_inference_rejects_bom_and_cr(tmp_path, capsys, command, raw, message):
    ckpt, *_ = _tiny_checkpoint(tmp_path)
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("ab\nba\naab\n")
    bad.write_bytes(raw)
    argv = {"translate": ["--ckpt", ckpt, "--in", bad, "--out", tmp_path / "out.txt"],
            "score": ["--hyp", bad, "--ref", good],
            "analyze": ["--ckpt-a", ckpt, "--ckpt-b", ckpt, "--src", bad, "--ref", good,
                        "--grid", "8", "--k", "2", "--out", tmp_path / "o.csv"]}[command]
    assert main([command, *map(str, argv)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: {message}") and captured.out == ""
    assert not (tmp_path / "out.txt").exists() and not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_console_script_runs(tmp_path):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a b c\n")
    proc = subprocess.run([sys.executable, "-m", "charnmt.cli", "score",
                           "--hyp", str(hyp), "--ref", str(hyp)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "BLEU 100.00\n"
