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
from collections.abc import Callable
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
    overlong_pair,
    read_lines,
    read_paired,
    read_text,
    transliterate,
    write_lines,
)
from .decoding import DecodeConfig, beam_decode, greedy_decode_batch
from .model import ModelConfig, build_params, check_field_types
from .training import CheckpointBundle, TrainConfig, checkpoint_load, train

_ENTRY_KEYS = {"corpora": ("src", "tgt"), "val": ("src", "tgt", "lang")}


@dataclasses.dataclass
class DataConfig:
    """The run config's data section; every entry value is a string."""

    corpora: list = dataclasses.field(default_factory=list)  # [{"src": path, "tgt": path}, ...]
    val: list = dataclasses.field(default_factory=list)  # as corpora, plus an optional "lang"
    vocab: str | None = None  # path to an existing vocabulary file, else built
    translit: str | None = None  # the sources' latinization table
    min_count: int = 1

    def __post_init__(self):
        check_field_types(self)
        for listname in _ENTRY_KEYS:
            for i, entry in enumerate(getattr(self, listname)):
                for key, value in entry.items():
                    if not isinstance(value, str):
                        raise ValueError(f"data.{listname}[{i}].{key} must be a string, "
                                         f"got {value!r}")


def resolve_run_config(doc: dict) -> dict:
    """Merge a run-config document over the documented defaults; unknown keys
    anywhere in it are rejected in one error, so every typo surfaces at once."""
    sections = {"model": {f.name: f.default for f in dataclasses.fields(ModelConfig)
                          if f.name != "vocab_size"},
                "train": dataclasses.asdict(TrainConfig()),
                "data": dataclasses.asdict(DataConfig())}
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    offenders = [name for name in doc if name not in sections]
    resolved = {}
    for name, defaults in sections.items():
        given = doc.get(name, {})
        if not isinstance(given, dict):
            raise ValueError(f"config section '{name}' must be an object")
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
    DataConfig(**resolved["data"])  # rejects the first data value of the wrong type
    return resolved


def _latinizer(table_path) -> Callable[[str], str]:
    """How every command prepares a source line: through the ``--translit`` or
    ``data.translit`` table, loaded once, or as it is; inference sees what training saw."""
    table = TransliterationTable.from_tsv(table_path) if table_path else None
    return lambda line: line if table is None else transliterate(line, table)


def _load_corpus(src_path, tgt_path, latinize) -> ParallelCorpus:
    pairs = load_parallel(src_path, tgt_path).pairs
    return ParallelCorpus([(latinize(src), tgt) for src, tgt in pairs])


def _check_fits(pairs: list[tuple[str, str]], src_path, tgt_path, limit: int,
                what: str) -> None:
    """Reject the first pair that needs more than ``limit`` tokens (``overlong_pair``),
    naming the file of its longer side and its 1-based line."""
    overlong = overlong_pair(pairs, limit)
    if overlong is not None:
        i, need = overlong
        src, tgt = pairs[i - 1]
        path = src_path if len(src) >= len(tgt) else tgt_path
        raise ValueError(f"{path}: line {i} needs {need} tokens, over {what}")


def _load_checked(ckpt_path, pairs, src_path, tgt_path) -> CheckpointBundle:
    """Load a checkpoint for translate or analyze and check input pairs against it: one
    stderr note counting characters outside its vocabulary (encoded as UNK), then the fit."""
    bundle = checkpoint_load(ckpt_path)
    unknown = sum(1 for pair in pairs for text in pair for ch in text
                  if bundle.vocab.id_for(ch) == UNK_ID)
    if unknown:
        print(f"note: {unknown} characters outside the vocabulary of {ckpt_path} "
              f"were encoded as UNK", file=sys.stderr)
    limit = bundle.config.max_len
    _check_fits(pairs, src_path, tgt_path, limit, f"the max_len {limit} of {ckpt_path}")
    return bundle


def cmd_build_vocab(args) -> None:
    if len(args.src) != len(args.tgt):
        raise ValueError(f"{len(args.src)} source files vs {len(args.tgt)} target files")
    latinize = _latinizer(args.translit)
    corpora = [_load_corpus(s, t, latinize) for s, t in zip(args.src, args.tgt)]
    vocab = build_vocab(corpora, args.min_count)
    vocab.save(args.out)
    print(f"vocab size {vocab.size}")


def cmd_train(args) -> None:
    """Check every input, then write the run directory and train."""
    def unique_keys(pairs: list) -> dict:  # plain json.loads keeps the last of two equal keys
        for i, (key, _) in enumerate(pairs):
            if any(key == k for k, _ in pairs[:i]):
                raise ValueError(f"{args.config}: key '{key}' appears twice in one object")
        return dict(pairs)

    try:
        doc = json.loads(read_text(args.config), object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"{args.config}: not readable as JSON ({e})") from None
    cfg = resolve_run_config(doc)
    train_cfg = TrainConfig(**cfg["train"])
    data = cfg["data"]
    val_names = [e.get("lang") or f"val{i}" for i, e in enumerate(data["val"])]
    for i, name in enumerate(val_names):
        if val_names.index(name) != i:
            raise ValueError(f"data.val[{val_names.index(name)}] and data.val[{i}] "
                             f"both name the validation set '{name}'")
    latinize = _latinizer(data["translit"])
    corpora = [_load_corpus(e["src"], e["tgt"], latinize) for e in data["corpora"]]
    if not corpora:
        raise ValueError("data.corpora is empty; nothing to train on")
    vals = [_load_corpus(e["src"], e["tgt"], latinize) for e in data["val"]]
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
    lines = list(map(_latinizer(args.translit), read_lines(args.infile)))
    bundle = _load_checked(args.ckpt, [(line, "") for line in lines], args.infile, None)
    if dcfg.beam_size >= 2:
        hyps = [beam_decode(bundle.params, bundle.config, line, bundle.vocab, dcfg)
                for line in lines]
    else:
        hyps = greedy_decode_batch(bundle.params, bundle.config, lines, bundle.vocab)
    write_lines(args.out, hyps)
    if args.dump_attn:
        dump_dir = Path(args.dump_attn)
        dump_dir.mkdir(parents=True, exist_ok=True)
        maps = cross_attention_maps(bundle.params, bundle.config, list(zip(lines, hyps)),
                                    bundle.vocab)
        for i, matrix in enumerate(maps, start=1):
            dump_matrix(matrix, dump_dir / f"line{i}.txt")


def cmd_score(args) -> None:
    hyps, refs = read_paired(args.hyp, args.ref)
    score = corpus_bleu(hyps, refs, tokenizer=args.tokenizer, smooth=args.smooth)
    print(f"BLEU {score:.2f}")


def cmd_analyze(args) -> None:
    ckpts = (args.ckpt_a, args.ckpt_b)
    stems = [Path(path).stem for path in ckpts]
    if args.dump_attn and stems[0] == stems[1]:
        raise ValueError(f"--dump-attn writes each model's maps under its checkpoint's "
                         f"stem, but {args.ckpt_a} and {args.ckpt_b} share the stem "
                         f"'{stems[0]}'")
    srcs, refs = read_paired(args.src, args.ref)
    pairs = list(zip(map(_latinizer(args.translit), srcs), refs))
    bundles = [_load_checked(path, pairs, args.src, args.ref) for path in ckpts]
    ids, maps = collect_alignments([(b.params, b.config, b.vocab) for b in bundles],
                                   pairs, n=args.n, seed=args.seed)
    report = alignment_report(*maps, grid=(args.grid, args.grid), k=args.k, reg=args.reg)
    write_lines(args.out, ["model_a,model_b,test_lang,n,grid,k,rho_mean",
                           f"{stems[0]},{stems[1]},{args.lang},{report.n},"
                           f"{args.grid}x{args.grid},{report.k},{report.rho_mean:.6f}"])
    if args.dump_attn:
        for stem, model_maps in zip(stems, maps):
            sub = Path(args.dump_attn) / stem
            sub.mkdir(parents=True, exist_ok=True)
            for sid, matrix in zip(ids, model_maps):
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
    pv.add_argument("--min-count", type=int, default=DataConfig.min_count)
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
    px.add_argument("--dump-attn", default=None)
    px.set_defaults(func=cmd_translate)

    ps = sub.add_parser("score", help="corpus BLEU of a hypothesis file")
    ps.add_argument("--hyp", required=True)
    ps.add_argument("--ref", required=True)
    ps.add_argument("--tokenizer", choices=TOKENIZERS, default=DEFAULT_TOKENIZER)
    ps.add_argument("--smooth", action="store_true")
    ps.set_defaults(func=cmd_score)

    pa = sub.add_parser("analyze", help="CCA between two models' attention alignments")
    pa.add_argument("--ckpt-a", required=True)
    pa.add_argument("--ckpt-b", required=True)
    pa.add_argument("--src", required=True)
    pa.add_argument("--ref", required=True)
    pa.add_argument("--n", type=int, default=500)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--grid", type=int, default=DEFAULT_GRID)
    pa.add_argument("--k", type=int, default=DEFAULT_K)
    pa.add_argument("--reg", type=float, default=DEFAULT_REG)
    pa.add_argument("--lang", default="")
    pa.add_argument("--translit", default=None, help="TSV latinization table for --src")
    pa.add_argument("--out", required=True)
    pa.add_argument("--dump-attn", default=None)
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
