"""Command-line surface: build-vocab, train, translate, score, analyze.

Every command is batch-oriented and deterministic given the seeds in its
inputs; diagnostics go to stderr and the exit code is 0 exactly when all
declared outputs were written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .alignment import (
    DEFAULT_GRID,
    DEFAULT_K,
    DEFAULT_REG,
    alignment_report,
    collect_alignments,
    cross_attention_maps,
    dump_matrix,
)
from .bleu import DEFAULT_TOKENIZER, TOKENIZERS, corpus_bleu
from .data import (
    ParallelCorpus,
    TransliterationTable,
    UNK_ID,
    Vocabulary,
    build_vocab,
    load_parallel,
    mix_corpora,
    read_lines,
    transliterate,
    write_lines,
)
from .decoding import DecodeConfig, beam_decode, greedy_decode_batch
from .model import ModelConfig, build_params
from .training import TrainConfig, checkpoint_load, checkpoint_save, train

_MODEL_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ModelConfig)
                   if f.name != "vocab_size"}
_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
_DATA_DEFAULTS = {
    "corpora": [],   # [{"src": path, "tgt": path}, ...]
    "val": [],       # as corpora, plus an optional "lang" naming the set
    "vocab": None,   # path to an existing vocabulary file, else built
    "translit": None,
    "min_count": 1,
}
_ENTRY_KEYS = {"corpora": ("src", "tgt"), "val": ("src", "tgt", "lang")}


def resolve_run_config(doc: dict) -> dict:
    """Merge a run-config document over the documented defaults.

    Unknown keys anywhere in the document are collected and rejected in a
    single error so every typo surfaces at once.
    """
    sections = {"model": _MODEL_DEFAULTS, "train": _TRAIN_DEFAULTS,
                "data": _DATA_DEFAULTS}
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    for name in doc:
        if name in sections and not isinstance(doc[name], dict):
            raise ValueError(f"config section '{name}' must be an object")
    offenders = [name for name in doc if name not in sections]
    resolved = {}
    for name, defaults in sections.items():
        given = doc.get(name, {})
        offenders += [f"{name}.{key}" for key in given if key not in defaults]
        resolved[name] = {**defaults, **{k: v for k, v in given.items() if k in defaults}}
    for listname, keys in _ENTRY_KEYS.items():
        entries = resolved["data"][listname]
        if not isinstance(entries, list):
            raise ValueError(f"data.{listname} must be a list of corpus entries")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "src" not in entry or "tgt" not in entry:
                raise ValueError(f"data.{listname}[{i}] must be an object with "
                                 f"'src' and 'tgt' paths")
            offenders += [f"data.{listname}[{i}].{key}" for key in entry if key not in keys]
    if offenders:
        raise ValueError("unknown config keys: " + ", ".join(sorted(offenders)))
    _check_data_types(resolved["data"])
    return resolved


def _check_data_types(data: dict) -> None:
    """Reject the first ``data`` value of the wrong type, naming its key:
    ``min_count`` is an integer (not a bool), ``vocab`` and ``translit`` a
    path or null, and every corpus or validation entry value a string."""
    count = data["min_count"]
    if isinstance(count, bool) or not isinstance(count, int):
        raise ValueError(f"min_count must be an integer, got {count!r}")
    for key in ("vocab", "translit"):
        if not isinstance(data[key], (str, type(None))):
            raise ValueError(f"{key} must be a string or null, got {data[key]!r}")
    for listname in _ENTRY_KEYS:
        for i, entry in enumerate(data[listname]):
            for key, value in entry.items():
                if not isinstance(value, str):
                    raise ValueError(f"data.{listname}[{i}].{key} must be a string, "
                                     f"got {value!r}")


def _load_table(path) -> TransliterationTable | None:
    return TransliterationTable.from_tsv(path) if path else None


def _load_entry(entry: dict, table: TransliterationTable | None) -> ParallelCorpus:
    corpus = load_parallel(entry["src"], entry["tgt"])
    if table is not None:
        corpus.pairs = [(transliterate(src, table), tgt) for src, tgt in corpus.pairs]
    return corpus


def _check_fits(pairs: list[tuple[str, str]], src_path, tgt_path, limit: int,
                what: str) -> None:
    """Reject the first pair that needs more than ``limit`` tokens, naming
    the file of its longer side and its 1-based line. A pair needs its
    longer side plus one token: EOS ends the source, BOS starts the target."""
    for i, (src, tgt) in enumerate(pairs, start=1):
        need = max(len(src), len(tgt)) + 1
        if need > limit:
            path = src_path if len(src) >= len(tgt) else tgt_path
            raise ValueError(f"{path}: line {i} needs {need} tokens, over {what}")


def cmd_build_vocab(args) -> None:
    if len(args.src) != len(args.tgt):
        raise ValueError(f"{len(args.src)} source files vs {len(args.tgt)} target files")
    table = _load_table(args.translit)
    corpora = [_load_entry({"src": s, "tgt": t}, table)
               for s, t in zip(args.src, args.tgt)]
    vocab = build_vocab(corpora, args.min_count)
    vocab.save(args.out)
    print(f"vocab size {vocab.size}")


def cmd_train(args) -> None:
    """Check every input, then write the run directory and train."""
    cfg = resolve_run_config(json.loads(Path(args.config).read_text(encoding="utf-8")))
    train_cfg = TrainConfig(**cfg["train"])
    data = cfg["data"]
    val_names = [e.get("lang") or f"val{i}" for i, e in enumerate(data["val"])]
    for i, name in enumerate(val_names):
        if val_names.index(name) != i:
            raise ValueError(f"data.val[{val_names.index(name)}] and data.val[{i}] "
                             f"both name the validation set '{name}'")
    table = _load_table(data["translit"])
    corpora = [_load_entry(e, table) for e in data["corpora"]]
    if not corpora:
        raise ValueError("data.corpora is empty; nothing to train on")
    vals = [_load_entry(e, table) for e in data["val"]]
    vocab = (Vocabulary.load(data["vocab"]) if data["vocab"]
             else build_vocab(corpora, data["min_count"]))
    model_cfg = ModelConfig(vocab_size=vocab.size, **cfg["model"])
    limit = min(model_cfg.max_len, train_cfg.max_tokens)
    for entry, corpus in zip(data["corpora"] + data["val"], corpora + vals):
        _check_fits(corpus.pairs, entry["src"], entry["tgt"], limit,
                    f"min(max_len, max_tokens) = {limit}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    vocab.save(out / "vocab.txt")
    mixed = mix_corpora(corpora, train_cfg.seed)
    params = build_params(model_cfg, train_cfg.seed)
    val_sets = dict(zip(val_names, vals))
    log = train(params, model_cfg, train_cfg, mixed, vocab,
                val_sets=val_sets or None, out_dir=out)
    log.write_csv(out / "train_log.csv")
    if val_sets:
        log.write_curves_csv(out / "bleu_curves.csv")


def cmd_translate(args) -> None:
    dcfg = DecodeConfig(beam_size=args.beam)
    bundle = checkpoint_load(args.ckpt)
    table = _load_table(args.translit)
    lines = read_lines(args.infile)
    if table is not None:
        lines = [transliterate(line, table) for line in lines]
    unknown = sum(1 for line in lines for ch in line
                  if bundle.vocab.id_for(ch) == UNK_ID)
    if unknown:
        print(f"note: {unknown} characters outside the checkpoint vocabulary "
              f"were encoded as UNK", file=sys.stderr)
    _check_fits([(line, "") for line in lines], args.infile, None, bundle.config.max_len,
                f"the model's max_len {bundle.config.max_len}")
    if dcfg.beam_size >= 2:
        hyps = [beam_decode(bundle.params, bundle.config, line, bundle.vocab, dcfg)
                for line in lines]
    else:
        hyps = greedy_decode_batch(bundle.params, bundle.config, lines, bundle.vocab, dcfg)
    write_lines(args.out, hyps)
    if args.dump_attn:
        dump_dir = Path(args.dump_attn)
        dump_dir.mkdir(parents=True, exist_ok=True)
        maps = cross_attention_maps(bundle.params, bundle.config, list(zip(lines, hyps)),
                                    bundle.vocab)
        for i, matrix in enumerate(maps, start=1):
            dump_matrix(matrix, dump_dir / f"line{i}.txt")


def _read_paired(path_a, path_b) -> tuple[list[str], list[str]]:
    """Read two files that pair line for line; a count mismatch names both."""
    a, b = read_lines(path_a), read_lines(path_b)
    if len(a) != len(b):
        raise ValueError(f"{path_a} has {len(a)} lines but {path_b} has {len(b)}")
    return a, b


def cmd_score(args) -> None:
    hyps, refs = _read_paired(args.hyp, args.ref)
    score = corpus_bleu(hyps, refs, tokenizer=args.tokenizer, smooth=args.smooth)
    print(f"BLEU {score:.2f}")


def cmd_analyze(args) -> None:
    stems = [Path(path).stem for path in (args.ckpt_a, args.ckpt_b)]
    if args.dump_attn and stems[0] == stems[1]:
        raise ValueError(f"--dump-attn writes each model's maps under its checkpoint's "
                         f"stem, but {args.ckpt_a} and {args.ckpt_b} share the stem "
                         f"'{stems[0]}'")
    pairs = list(zip(*_read_paired(args.src, args.ref)))
    bundles = [(path, checkpoint_load(path)) for path in (args.ckpt_a, args.ckpt_b)]
    for path, bundle in bundles:
        _check_fits(pairs, args.src, args.ref, bundle.config.max_len,
                    f"the max_len {bundle.config.max_len} of {path}")
    sets = [collect_alignments(bundle.params, bundle.config, pairs, bundle.vocab, n=args.n,
                               seed=args.seed)
            for _, bundle in bundles]
    report = alignment_report(sets[0], sets[1], grid=(args.grid, args.grid),
                              k=args.k, reg=args.reg)
    write_lines(args.out, ["model_a,model_b,test_lang,n,grid,k,rho_mean",
                           f"{stems[0]},{stems[1]},{args.lang},{report.n},"
                           f"{args.grid}x{args.grid},{report.k},{report.rho_mean:.6f}"])
    if args.dump_attn:
        for stem, aset in zip(stems, sets):
            sub = Path(args.dump_attn) / stem
            sub.mkdir(parents=True, exist_ok=True)
            for sid, matrix in zip(aset.ids, aset.maps):
                dump_matrix(matrix, sub / f"sent{sid}.txt")
    print(f"rho_mean {report.rho_mean:.6f}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="charnmt",
        description="Character-level NMT lab: train, translate, score, and "
                    "compare attention alignments.")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("build-vocab", help="build a shared character vocabulary")
    pv.add_argument("--src", nargs="+", required=True)
    pv.add_argument("--tgt", nargs="+", required=True)
    pv.add_argument("--out", required=True)
    pv.add_argument("--translit", default=None, help="TSV latinization table for sources")
    pv.add_argument("--min-count", type=int, default=_DATA_DEFAULTS["min_count"],
                    dest="min_count")
    pv.set_defaults(func=cmd_build_vocab)

    pt = sub.add_parser("train", help="train a model from a JSON run config")
    pt.add_argument("--config", required=True)
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=cmd_train)

    px = sub.add_parser("translate", help="decode a file line by line")
    px.add_argument("--ckpt", required=True)
    px.add_argument("--in", required=True, dest="infile")
    px.add_argument("--out", required=True)
    px.add_argument("--beam", type=int, default=DecodeConfig.beam_size,
                    help="beam size; 1 means greedy")
    px.add_argument("--translit", default=None)
    px.add_argument("--dump-attn", default=None, dest="dump_attn")
    px.set_defaults(func=cmd_translate)

    ps = sub.add_parser("score", help="corpus BLEU of a hypothesis file")
    ps.add_argument("--hyp", required=True)
    ps.add_argument("--ref", required=True)
    ps.add_argument("--tokenizer", choices=TOKENIZERS, default=DEFAULT_TOKENIZER)
    ps.add_argument("--smooth", action="store_true")
    ps.set_defaults(func=cmd_score)

    pa = sub.add_parser("analyze", help="CCA between two models' attention alignments")
    pa.add_argument("--ckpt-a", required=True, dest="ckpt_a")
    pa.add_argument("--ckpt-b", required=True, dest="ckpt_b")
    pa.add_argument("--src", required=True)
    pa.add_argument("--ref", required=True)
    pa.add_argument("--n", type=int, default=500)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--grid", type=int, default=DEFAULT_GRID)
    pa.add_argument("--k", type=int, default=DEFAULT_K)
    pa.add_argument("--reg", type=float, default=DEFAULT_REG)
    pa.add_argument("--lang", default="")
    pa.add_argument("--out", required=True)
    pa.add_argument("--dump-attn", default=None, dest="dump_attn")
    pa.set_defaults(func=cmd_analyze)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
