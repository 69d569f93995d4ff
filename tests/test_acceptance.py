"""Acceptance checklist for the lab as a whole.

One test per shipping criterion. Each prints a single line

    acceptance N: PASS - <what was measured>

so the captured output of a full run doubles as the release checklist.
The two training criteria really train models (a few minutes of CPU); all
seeds are fixed, so reruns reproduce the same numbers.
"""

import re
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import numpy as np
import pytest

from charnmt.alignment import cca_mean_correlation
from charnmt.bleu import corpus_bleu
from charnmt.cli import main
from charnmt.data import Vocabulary, batch_from_rows, build_vocab, encode_pair, mix_corpora
from charnmt.model import (ModelConfig, build_params, extract_cross_attention,
                           model_forward, param_shapes)
from charnmt.synthetic import cipher_corpus, copy_corpus
from charnmt.tensor import grad_check
from charnmt.training import TrainConfig, masked_cross_entropy, train
from oracles import brute_bleu, closed_form_param_count, conv_excess_per_layer

REPO_ROOT = Path(__file__).resolve().parents[1]


def _verdict(n, ok, detail):
    print(f"acceptance {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {n} failed: {detail}"


def _lab_model(kind, vocab_size):
    return ModelConfig(vocab_size=vocab_size, encoder_kind=kind, d_model=64,
                       n_layers=2, n_heads=4, max_len=128, dropout=0.0)


def _lab_schedule(epochs, early_stop):
    return TrainConfig(epochs=epochs, max_tokens=384, warmup=300, seed=0,
                       label_smoothing=0.0, bleu_mode="char",
                       early_stop_bleu=early_stop)


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients of the conv model
# ---------------------------------------------------------------------------

def test_01_gradient_check_conv_model():
    started = time.monotonic()
    vocab = Vocabulary(chars=tuple("abcdefgh"))
    config = ModelConfig(vocab_size=vocab.size, encoder_kind="conv", d_model=16,
                         n_layers=2, n_heads=2, d_ff=32, max_len=16, dropout=0.0)
    params = build_params(config, seed=0)
    batch = batch_from_rows([encode_pair("abcdef", "ghabcd", vocab)])

    def loss(p):
        logits, _ = model_forward(batch, p, config)
        return masked_cross_entropy(logits, batch.tgt_out_ids, batch.tgt_mask, 0.0)

    report = grad_check(loss, params, sample=4, seed=0)
    elapsed = time.monotonic() - started
    ok = report.passed and report.max_rel_error < 1e-4 and elapsed < 120
    _verdict(1, ok, f"conv-encoder grad check over {len(report.per_param)} "
                    f"parameters, max rel err {report.max_rel_error:.2e} "
                    f"(< 1e-4) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: conv model at zero conv weights == standard model, bit for bit
# ---------------------------------------------------------------------------

def test_02_residual_identity():
    vocab = Vocabulary(chars=tuple("abcdefgh"))
    kw = dict(vocab_size=vocab.size, d_model=16, n_layers=2, n_heads=2,
              d_ff=32, max_len=32, dropout=0.0)
    conv_cfg = ModelConfig(encoder_kind="conv", **kw)
    std_cfg = ModelConfig(encoder_kind="standard", **kw)
    conv_params = build_params(conv_cfg, seed=7)
    std_params = build_params(std_cfg, seed=7)
    for name, t in conv_params.items():
        if ".conv." in name:
            t.data[:] = 0.0
    batch = batch_from_rows([encode_pair("abcdef", "fedcba", vocab),
                             encode_pair("abc", "cba", vocab)])
    conv_logits, _ = model_forward(batch, conv_params, conv_cfg)
    std_logits, _ = model_forward(batch, std_params, std_cfg)
    logits_equal = np.array_equal(conv_logits.data, std_logits.data)
    maps_equal = all(
        np.array_equal(a, b)
        for a, b in zip(extract_cross_attention(batch, conv_params, conv_cfg),
                        extract_cross_attention(batch, std_params, std_cfg)))
    _verdict(2, logits_equal and maps_equal,
             "zeroed conv parameters reproduce the standard encoder exactly "
             "(float64 logits and attention maps bit-equal)")


# ---------------------------------------------------------------------------
# criterion 3: full-scale results are documented as out of scope
# ---------------------------------------------------------------------------

def test_03_scope_documented():
    readme = REPO_ROOT / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    ok = "desk-scale" in text and "non-goal" in text and "CPU" in text
    _verdict(3, ok, "README states the desk-scale scope and lists full-scale "
                    "benchmark reproduction as a non-goal")


# ---------------------------------------------------------------------------
# criterion 4: both encoders master the copy task
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def copy_runs(tmp_path_factory):
    corpus = copy_corpus(5000, seed=11)
    val = {"copy": copy_corpus(200, seed=12)}
    vocab = build_vocab([corpus], 1)
    runs = {}
    for kind in ("standard", "conv"):
        out = tmp_path_factory.mktemp(f"copy_{kind}")
        config = _lab_model(kind, vocab.size)
        params = build_params(config, seed=0)
        started = time.monotonic()
        log = train(params, config, _lab_schedule(10, 99.01), corpus, vocab,
                    val_sets=val, out_dir=out)
        runs[kind] = {
            "bleu": log.epochs[-1].val_bleu["copy"],
            "epochs": len(log.epochs),
            "seconds": time.monotonic() - started,
        }
    return runs


def test_04_copy_task(copy_runs):
    total = sum(r["seconds"] for r in copy_runs.values())
    ok = all(r["bleu"] > 99.0 and r["epochs"] <= 10 for r in copy_runs.values())
    ok = ok and total < 900
    detail = ", ".join(
        f"{kind} BLEU {r['bleu']:.2f} in {r['epochs']} epochs"
        for kind, r in copy_runs.items())
    _verdict(4, ok, f"copy task (5000 pairs): {detail}; {total:.0f}s total (< 900)")


# ---------------------------------------------------------------------------
# criterion 5: one model, two mixed cipher languages, no language tags
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def cipher_runs(tmp_path_factory):
    corpus_a = cipher_corpus(2500, seed=21, cipher_name="lang_a")
    corpus_b = cipher_corpus(2500, seed=22, cipher_name="lang_b")
    mixed = mix_corpora([corpus_a, corpus_b], seed=5)
    val = {"lang_a": cipher_corpus(150, seed=23, cipher_name="lang_a"),
           "lang_b": cipher_corpus(150, seed=24, cipher_name="lang_b")}
    vocab = build_vocab([corpus_a, corpus_b], 1)
    runs = {}
    for kind in ("standard", "conv"):
        out = tmp_path_factory.mktemp(f"cipher_{kind}")
        config = _lab_model(kind, vocab.size)
        params = build_params(config, seed=0)
        started = time.monotonic()
        log = train(params, config, _lab_schedule(15, 90.01), mixed, vocab,
                    val_sets=val, out_dir=out)
        log.write_curves_csv(out / "bleu_curves.csv")
        reached = next((i + 1 for i, e in enumerate(log.epochs)
                        if min(e.val_bleu.values()) > 90.0), None)
        runs[kind] = {
            "bleu": dict(log.epochs[-1].val_bleu),
            "epochs": len(log.epochs),
            "to_90": reached,
            "seconds": time.monotonic() - started,
            "out": out,
        }
    # analysis inputs for criterion 7: the lang_a test set as text files
    text_dir = tmp_path_factory.mktemp("cipher_text")
    src_path = text_dir / "lang_a.src"
    ref_path = text_dir / "lang_a.ref"
    pairs = val["lang_a"].pairs
    src_path.write_text("\n".join(s for s, _ in pairs) + "\n", encoding="utf-8")
    ref_path.write_text("\n".join(t for _, t in pairs) + "\n", encoding="utf-8")
    runs["analysis_src"] = src_path
    runs["analysis_ref"] = ref_path
    return runs


def test_05_mixed_cipher_task(cipher_runs):
    runs = {k: cipher_runs[k] for k in ("standard", "conv")}
    ok = True
    for r in runs.values():
        ok = ok and r["epochs"] <= 15 and r["to_90"] is not None
        ok = ok and all(b > 90.0 for b in r["bleu"].values())
        ok = ok and (r["out"] / "bleu_curves.csv").exists()
        curves = (r["out"] / "bleu_curves.csv").read_text().splitlines()
        ok = ok and curves[0] == "epoch,lang_a,lang_b"
        ok = ok and len(curves) == r["epochs"] + 1
    detail = ", ".join(
        f"{kind} lang_a {r['bleu']['lang_a']:.2f} / lang_b {r['bleu']['lang_b']:.2f} "
        f"(>90 at epoch {r['to_90']})" for kind, r in runs.items())
    _verdict(5, ok, f"mixed-cipher model with no language tags: {detail}; "
                    f"per-epoch curves written for both encoders")


# ---------------------------------------------------------------------------
# criterion 6: BLEU against an independent implementation
# ---------------------------------------------------------------------------

def test_06_bleu_oracle():
    rng = np.random.Generator(np.random.PCG64(600))
    words = ["the", "cat", "dog", "sat", "mat", "on", "a", "ran", "big"]

    def sentence():
        k = int(rng.integers(0, 12))
        return " ".join(words[i] for i in rng.integers(0, len(words), size=k))

    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 9))
        hyps, refs = [], []
        for _ in range(n):
            hyps.append(sentence())
            refs.append(hyps[-1] if rng.random() < 0.5 else sentence())
        tokenizer = "char" if trial % 2 else "whitespace"
        smooth = trial % 3 == 0
        got = corpus_bleu(hyps, refs, tokenizer=tokenizer, smooth=smooth)
        want = brute_bleu(hyps, refs, tokenizer=tokenizer, smooth=smooth)
        worst = max(worst, abs(got - want))
    anchors = (corpus_bleu(["a b c", "d e"], ["a b c", "d e"]) == 100.0
               and corpus_bleu(["x y z"], ["a b c"]) == 0.0)
    ok = worst <= 1e-9 and anchors
    _verdict(6, ok, f"corpus BLEU matches the counting oracle on 20 random "
                    f"corpora (worst gap {worst:.1e}) and hits the 100/0 anchors")


# ---------------------------------------------------------------------------
# criterion 7: the CCA comparison behaves like a similarity measure
# ---------------------------------------------------------------------------

def test_07_cca_validity(cipher_runs, tmp_path):
    rng = np.random.Generator(np.random.PCG64(700))
    x = rng.normal(size=(200, 30))
    self_rho = cca_mean_correlation(x, x.copy(), k=10).rho_mean
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    rot_rho = cca_mean_correlation(x, x @ q, k=10).rho_mean
    ordering = 0
    for seed in range(10):
        srng = np.random.Generator(np.random.PCG64(1000 + seed))
        base = srng.normal(size=(500, 64))
        noisy = base + 0.5 * srng.normal(size=(500, 64))
        indep = srng.normal(size=(500, 64))
        if (cca_mean_correlation(base, noisy, k=10).rho_mean
                > cca_mean_correlation(base, indep, k=10).rho_mean):
            ordering += 1

    std_out = cipher_runs["standard"]["out"]
    report_csv = tmp_path / "self_report.csv"
    code = main(["analyze",
                 "--ckpt-a", str(std_out / "best.ckpt"),
                 "--ckpt-b", str(std_out / "latest.ckpt"),
                 "--src", str(cipher_runs["analysis_src"]),
                 "--ref", str(cipher_runs["analysis_ref"]),
                 "--n", "150", "--grid", "32", "--k", "10",
                 "--lang", "lang_a", "--out", str(report_csv)])
    ckpt_rho = float(report_csv.read_text().splitlines()[1].split(",")[-1])

    ok = (abs(self_rho - 1.0) < 1e-6 and abs(rot_rho - 1.0) < 1e-4
          and ordering == 10 and code == 0 and ckpt_rho >= 0.999)
    _verdict(7, ok, f"CCA: self {self_rho:.8f}, orthonormal rotation "
                    f"{rot_rho:.6f}, ordering {ordering}/10, same-model "
                    f"checkpoints rho_mean {ckpt_rho:.6f} (>= 0.999)")


# ---------------------------------------------------------------------------
# criterion 8: the structural invariants run standalone, fast
# ---------------------------------------------------------------------------

def test_08_invariant_suite_standalone():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "invariant", "-q",
         "-p", "no:cacheprovider"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    match = re.search(r"(\d+) passed", proc.stdout)
    n_passed = int(match.group(1)) if match else 0
    ok = (proc.returncode == 0 and n_passed >= 10
          and "failed" not in proc.stdout and elapsed < 300)
    _verdict(8, ok, f"invariant suite standalone: {n_passed} tests in "
                    f"{elapsed:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# criterion 9: parameter accounting at reference size
# ---------------------------------------------------------------------------

def test_09_parameter_accounting():
    totals = {}
    for kind in ("standard", "conv"):
        config = ModelConfig(vocab_size=64, encoder_kind=kind, d_model=512,
                             n_layers=6, n_heads=8, d_ff=2048, max_len=512)
        enumerated = sum(prod(s) for s in param_shapes(config).values())
        totals[kind] = enumerated
        assert enumerated == closed_form_param_count(config), kind
    excess = totals["conv"] - totals["standard"]
    d = 512
    expected_excess = 6 * (24 * d * d + 4 * d)
    ok = excess == expected_excess
    _verdict(9, ok, f"enumerated parameters match the closed form for both "
                    f"encoders; conv excess {excess:,} == 6*(24*512^2 + 4*512)")
