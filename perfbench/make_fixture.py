"""Rebuild the infer-cipher fixture from the acceptance-5 recipe.

    python3 perfbench/make_fixture.py

Trains the standard and the conv encoder on the mixed-cipher corpus
(2,500 lang_a + 2,500 lang_b pairs, lab config, early stop at 90.01 BLEU
on both validation sets, at most 15 epochs), saves both as params-only
checkpoints, writes the 300 validation lines, records the outputs the
benchmark checks against, and writes SHA256SUMS over every file. Every
seed is fixed, so a rerun on the same numpy/BLAS build reproduces the
files byte for byte; another build may differ in the last bits, and the
benchmark then stops on the hash check until the new files are committed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import bootstrap
from workloads import FIXTURE, FIXTURE_FILES

TINY_LINES = 100  # lines the tiny-size smoke run translates and analyzes


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(charnmt, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = charnmt.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"charnmt {' '.join(argv)} exited with {code}")


def _rho(report: Path) -> float:
    return float(report.read_text(encoding="utf-8").splitlines()[1].split(",")[-1])


def main() -> None:
    charnmt = bootstrap.import_charnmt()
    import charnmt.cli
    from charnmt.data import build_vocab, mix_corpora
    from charnmt.model import ModelConfig, build_params
    from charnmt.synthetic import cipher_corpus
    from charnmt.training import TrainConfig, checkpoint_save, train

    FIXTURE.mkdir(exist_ok=True)
    corpus_a = cipher_corpus(2500, seed=21, cipher_name="lang_a")
    corpus_b = cipher_corpus(2500, seed=22, cipher_name="lang_b")
    mixed = mix_corpora([corpus_a, corpus_b], seed=5)
    val = {"lang_a": cipher_corpus(150, seed=23, cipher_name="lang_a"),
           "lang_b": cipher_corpus(150, seed=24, cipher_name="lang_b")}
    vocab = build_vocab([corpus_a, corpus_b], 1)
    schedule = TrainConfig(epochs=15, max_tokens=384, warmup=300, seed=0,
                           label_smoothing=0.0, bleu_mode="char", early_stop_bleu=90.01)
    trained = {}
    for kind in ("standard", "conv"):
        config = ModelConfig(vocab_size=vocab.size, encoder_kind=kind, d_model=64,
                             n_layers=2, n_heads=4, max_len=128, dropout=0.0)
        params = build_params(config, seed=0)
        started = time.perf_counter()
        log = train(params, config, schedule, mixed, vocab, val_sets=val)
        last = log.epochs[-1]
        print(f"{kind}: {len(log.epochs)} epochs in {time.perf_counter() - started:.0f}s, "
              f"val BLEU {last.val_bleu}", file=sys.stderr)
        checkpoint_save(params, config, vocab, None, FIXTURE / f"{kind}.ckpt",
                        step=last.step, epoch=len(log.epochs))
        trained[kind] = {"epochs": len(log.epochs), "val_bleu": last.val_bleu}

    pairs = val["lang_a"].pairs + val["lang_b"].pairs
    (FIXTURE / "val.src").write_text("".join(s + "\n" for s, _ in pairs), encoding="utf-8")
    (FIXTURE / "val.ref").write_text("".join(t + "\n" for _, t in pairs), encoding="utf-8")
    std, conv = str(FIXTURE / "standard.ckpt"), str(FIXTURE / "conv.ckpt")
    src, ref = str(FIXTURE / "val.src"), str(FIXTURE / "val.ref")
    _cli(charnmt, ["translate", "--ckpt", std, "--in", src, "--out", str(FIXTURE / "greedy.hyp")])
    _cli(charnmt, ["translate", "--ckpt", std, "--in", src, "--out", str(FIXTURE / "beam.hyp"),
                   "--beam", "4"])
    scratch = FIXTURE / "report.csv"
    _cli(charnmt, ["analyze", "--ckpt-a", std, "--ckpt-b", conv, "--src", src, "--ref", ref,
                   "--n", str(len(pairs)), "--grid", "32", "--k", "10", "--out", str(scratch)])
    rho = _rho(scratch)
    tiny_src, tiny_ref = FIXTURE / "tiny.src", FIXTURE / "tiny.ref"
    tiny_src.write_text("".join(s + "\n" for s, _ in pairs[:TINY_LINES]), encoding="utf-8")
    tiny_ref.write_text("".join(t + "\n" for _, t in pairs[:TINY_LINES]), encoding="utf-8")
    _cli(charnmt, ["analyze", "--ckpt-a", std, "--ckpt-b", conv, "--src", str(tiny_src),
                   "--ref", str(tiny_ref), "--n", str(TINY_LINES), "--grid", "32", "--k", "10",
                   "--out", str(scratch)])
    rho_tiny = _rho(scratch)
    for path in (scratch, tiny_src, tiny_ref):
        path.unlink()
    expected = {"recipe": "acceptance 5: cipher_corpus seeds 21/22, mix seed 5, val seeds "
                          "23/24, params seed 0, lab config, early stop 90.01",
                "trained": trained, "rho_mean": rho, "rho_mean_tiny": rho_tiny,
                "tiny_lines": TINY_LINES}
    (FIXTURE / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n",
                                           encoding="utf-8")
    (FIXTURE / "SHA256SUMS").write_text(
        "".join(f"{sha256_of(FIXTURE / name)}  {name}\n" for name in FIXTURE_FILES),
        encoding="utf-8")
    print(f"fixture written to {FIXTURE}: rho_mean {rho:.6f}, tiny {rho_tiny:.6f}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
