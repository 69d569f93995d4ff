"""The three workloads: set-up, one timed job, and the output checks.

Every workload is a closed loop with one caller: the benchmark starts the
next job only after the previous one returned. A job calls only public
functions of charnmt (``training.train`` or ``cli.main``) on inputs made
from the workload seed.

train-conv draws its corpora and initial weights from the seed: seed 0 is
the acceptance-5 recipe, seed n shifts its corpus and mixing seeds by
1000 * n and is its init and batch-order seed.
epoch-copy always trains the acceptance-4 model and infer-cipher always
loads the fixture; both use the seed to permute their evaluation lines
(see ``EpochCopy`` for why).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).resolve().parent / "fixture"
FIXTURE_FILES = ("standard.ckpt", "conv.ckpt", "val.src", "val.ref", "greedy.hyp", "beam.hyp",
                 "expected.json")
SEED_STRIDE = 1000
LOSS_WINDOW = 20        # train_loss is the mean of this many final steps
MATCH_RATE_MIN = 0.99   # share of hypothesis characters equal to the recorded ones
RHO_TOL = 1e-3          # |rho_mean - recorded rho_mean| allowed for the analyze call

LAB_MODEL = dict(d_model=64, n_layers=2, n_heads=4, max_len=128, dropout=0.0)
TINY_MODEL = dict(d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=128, dropout=0.0)


class FixtureError(RuntimeError):
    """A fixture file is missing or differs from its recorded SHA-256."""


@dataclass(eq=False)
class Job:
    """What one job did: its wall time, named figures, outputs and check results."""

    wall_s: float
    figures: dict[str, float]
    op_latencies_ms: list[float]
    outputs: dict[str, bytes]
    attempted: int
    state: dict = field(default_factory=dict, repr=False)  # what the checks read
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0

    def fail(self, what: str, ops: int = 1) -> None:
        self.failures.append(what)
        self.failed_ops += ops


class Workload:
    """``setup`` makes the inputs, ``run`` is the timed job, ``check`` the
    output checks; only ``run`` is traced.

    ``throughput`` names the figure reported as ``throughput_per_s`` and
    ``op`` the unit whose latencies give ``op_ms_p50``/``op_ms_p90``;
    ``layers`` says which end-to-end figure each layer should move here.
    """

    name = ""
    throughput = ""
    op = ""
    layers: dict[str, str] = {}

    def __init__(self, charnmt, seed: int, tiny: bool, workdir: Path):
        self.nmt, self.seed, self.tiny, self.workdir = charnmt, seed, tiny, workdir


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

@dataclass
class TrainInputs:
    config: object
    train_config: object
    corpus: object
    vocab: object
    params: object
    val_sets: dict | None
    out_dir: Path | None


class TrainWorkload(Workload):
    """One ``training.train`` epoch from initialisation."""

    throughput = "train_tokens_per_s"
    op = "step"

    def _schedule(self):
        return self.nmt.training.TrainConfig(
            epochs=1, max_tokens=64 if self.tiny else 384, warmup=300,
            seed=self.seed, label_smoothing=0.0, bleu_mode="char")

    def _model(self, vocab, kind: str):
        shape = TINY_MODEL if self.tiny else LAB_MODEL
        return self.nmt.model.ModelConfig(vocab_size=vocab.size, encoder_kind=kind, **shape)

    def run(self, inputs: TrainInputs, probe: bool = True) -> Job:
        nmt = self.nmt
        params = inputs.params.copy()
        if inputs.out_dir is not None:
            inputs.out_dir.mkdir(parents=True, exist_ok=True)
        log = nmt.training.TrainLog()
        start = time.perf_counter()
        nmt.training.train(params, inputs.config, inputs.train_config, inputs.corpus,
                           inputs.vocab, val_sets=inputs.val_sets, out_dir=inputs.out_dir,
                           log=log)
        wall = time.perf_counter() - start
        stamps = np.array([s.seconds for s in log.steps])
        step_ms = np.diff(stamps, prepend=0.0) * 1e3
        losses = np.array([s.loss for s in log.steps])
        tokens = sum(len(tgt) + 1 for _, tgt in inputs.corpus.pairs)
        figures = {
            "train_tokens_per_s": tokens / stamps[-1],
            "train_loss": float(losses[-LOSS_WINDOW:].mean()),
            "epoch_s": wall,
            "steps": float(len(losses)),
        }
        outputs = {"losses": losses.tobytes()}
        val_sentences = 0
        if inputs.val_sets:
            figures["eval_s"] = log.epochs[0].seconds - stamps[-1]
            outputs["val_bleu"] = json.dumps(log.epochs[0].val_bleu, sort_keys=True).encode()
            val_sentences = sum(len(c) for c in inputs.val_sets.values())
        for ckpt in ("latest.ckpt", "best.ckpt") if inputs.out_dir is not None else ():
            outputs[ckpt] = (inputs.out_dir / ckpt).read_bytes()
        return Job(wall, figures, step_ms.tolist(), outputs, len(losses) + val_sentences,
                   state={"params": params, "log": log, "losses": losses})

    def check(self, inputs: TrainInputs, job: Job) -> None:
        params, log, losses = job.state["params"], job.state["log"], job.state["losses"]
        bad = int((~np.isfinite(losses)).sum())
        if bad:
            job.fail(f"{bad} non-finite step losses", bad)
        window = min(LOSS_WINDOW, len(losses) // 2)
        if not losses[-window:].mean() < losses[:window].mean():
            job.fail("loss did not fall over the epoch")
        for name, bleu in (log.epochs[0].val_bleu.items() if log.epochs else ()):
            if not 0.0 <= bleu <= 100.0:
                job.fail(f"validation BLEU {name} = {bleu}")
        if inputs.out_dir is None:
            return
        for ckpt in ("latest.ckpt", "best.ckpt"):
            loaded = self.nmt.training.checkpoint_load(inputs.out_dir / ckpt).params
            same = loaded.names() == params.names() and all(
                np.array_equal(loaded[n].data, params[n].data) for n in params.names())
            if not same:
                job.fail(f"{ckpt} does not reload to the trained parameters")


class TrainConv(TrainWorkload):
    name = "train-conv"
    layers = {
        "tensor": "step_ms_p50, train_tokens_per_s (conv1d_same backward runs only here)",
        "model": "step_ms_p50 (conv_sub_block is trained only here)",
        "training": "train_tokens_per_s",
        "data": "train_tokens_per_s (under 1% of a step)",
        "decoding": "no change predicted: no decoding",
        "bleu": "no change predicted: no validation",
        "alignment": "no change predicted: no analyze",
        "cli": "no change predicted: no CLI call",
    }

    def setup(self) -> TrainInputs:
        syn, data = self.nmt.synthetic, self.nmt.data
        shift = SEED_STRIDE * self.seed
        half = 300 if self.tiny else 2500
        corpus_a = syn.cipher_corpus(half, seed=21 + shift, cipher_name="lang_a")
        corpus_b = syn.cipher_corpus(half, seed=22 + shift, cipher_name="lang_b")
        mixed = data.mix_corpora([corpus_a, corpus_b], seed=5 + shift)
        vocab = data.build_vocab([corpus_a, corpus_b], 1)
        config = self._model(vocab, "conv")
        params = self.nmt.model.build_params(config, seed=self.seed)
        return TrainInputs(config, self._schedule(), mixed, vocab, params, None, None)


class EpochCopy(TrainWorkload):
    """The acceptance-4 model, corpus and validation set for every seed; the
    seed only permutes the validation pairs. Eval time depends on whether a
    row of the epoch-0 model runs to its length cap, which is a property of
    one trained model on one validation set: drawing them from the seed
    would make eval time swing by a third from seed to seed."""

    name = "epoch-copy"
    layers = {
        "tensor": "step_ms_p50, train_tokens_per_s, and eval_s through the forward ops",
        "model": "step_ms_p50; conv_sub_block: no change predicted (no conv block)",
        "training": "train_tokens_per_s; checkpoint_save_s -> epoch_s",
        "data": "train_tokens_per_s (under 1% of a step)",
        "decoding": "eval_s, epoch_s: the length-cap regime",
        "bleu": "eval_s",
        "alignment": "no change predicted: no analyze",
        "cli": "no change predicted: no CLI call",
    }

    def _schedule(self):
        return dataclasses.replace(super()._schedule(), seed=0)

    def setup(self) -> TrainInputs:
        syn, data = self.nmt.synthetic, self.nmt.data
        corpus = syn.copy_corpus(600 if self.tiny else 5000, seed=11)
        val = syn.copy_corpus(20 if self.tiny else 200, seed=12)
        order = np.random.Generator(np.random.PCG64(self.seed)).permutation(len(val))
        val.pairs = [val.pairs[i] for i in order]
        vocab = data.build_vocab([corpus], 1)
        config = self._model(vocab, "standard")
        params = self.nmt.model.build_params(config, seed=0)
        return TrainInputs(config, self._schedule(), corpus, vocab, params, {"copy": val},
                           self.workdir / "run")


# ---------------------------------------------------------------------------
# inference workload
# ---------------------------------------------------------------------------

def verify_fixture() -> dict[str, Path]:
    """Check every file named in fixture/SHA256SUMS; raise naming the first
    file that is missing or whose hash differs."""
    sums = FIXTURE / "SHA256SUMS"
    if not sums.is_file():
        raise FixtureError(f"{sums} is missing; rebuild with perfbench/make_fixture.py")
    files = {}
    for line in sums.read_text(encoding="utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        path = FIXTURE / name
        if not path.is_file():
            raise FixtureError(f"fixture file {path} is missing")
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            raise FixtureError(f"fixture file {path} does not match its SHA-256 in {sums}; "
                               f"rebuild with perfbench/make_fixture.py and commit the result")
        files[name] = path
    missing = [name for name in FIXTURE_FILES if name not in files]
    if missing:
        raise FixtureError(f"{sums} lists no hash for {', '.join(missing)}")
    return files


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def match_rate(hyps: list[str], recorded: list[str]) -> float:
    """Share of character positions where two hypothesis lists agree,
    over the longer of each pair of lines."""
    same = total = 0
    for a, b in zip(hyps, recorded):
        same += sum(x == y for x, y in zip(a, b))
        total += max(len(a), len(b))
    return same / total if total else 1.0


@dataclass
class InferInputs:
    standard_ckpt: str
    conv_ckpt: str
    src: Path
    ref: Path
    refs: list[str]
    recorded: dict[str, list[str]]
    rho_mean: float


class InferCipher(Workload):
    """Three ``cli.main`` calls over the fixture's validation lines: greedy
    translate, beam-4 translate, and analyze of standard against conv."""

    name = "infer-cipher"
    throughput = "greedy_sents_per_s"
    op = "beam_sentence"
    layers = {
        "tensor": "greedy_sents_per_s through the forward ops; no backward runs",
        "model": "greedy_sents_per_s, beam_sents_per_s",
        "training": "no change predicted: no backward or Adam (checkpoint_load only)",
        "data": "no change predicted",
        "decoding": "greedy_sents_per_s, beam_sents_per_s: the stop-at-EOS regime",
        "bleu": "no change predicted: BLEU is scored by the benchmark, untimed",
        "alignment": "analyze_s",
        "cli": "greedy_sents_per_s, analyze_s",
    }

    def setup(self) -> InferInputs:
        files = verify_fixture()
        expected = json.loads(files["expected.json"].read_text(encoding="utf-8"))
        n = expected["tiny_lines"] if self.tiny else len(_lines(files["val.src"]))
        columns = [_lines(files[name])[:n] for name in ("val.src", "val.ref", "greedy.hyp",
                                                         "beam.hyp")]
        order = np.random.Generator(np.random.PCG64(self.seed)).permutation(n)
        src, ref, greedy, beam = ([column[i] for i in order] for column in columns)
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = self.workdir / "val.src", self.workdir / "val.ref"
        for path, lines in zip(paths, (src, ref)):
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        rho = expected["rho_mean_tiny" if self.tiny else "rho_mean"]
        return InferInputs(str(files["standard.ckpt"]), str(files["conv.ckpt"]), paths[0],
                           paths[1], ref, {"greedy": greedy, "beam": beam}, rho)

    def _cli(self, argv: list[str]) -> tuple[float, int]:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.nmt.cli.main(argv)
            return time.perf_counter() - start, code

    def run(self, inputs: InferInputs, probe: bool = True) -> Job:
        n = len(inputs.refs)
        out = {k: self.workdir / f"{k}.out" for k in ("greedy", "beam", "report")}
        common = ["--ckpt", inputs.standard_ckpt, "--in", str(inputs.src)]
        latencies: list[float] = []
        greedy_s, greedy_code = self._cli(["translate", *common, "--out", str(out["greedy"])])
        with beam_latency_probe(self.nmt.cli, latencies, probe):
            beam_s, beam_code = self._cli(["translate", *common, "--out", str(out["beam"]),
                                           "--beam", "4"])
        analyze_s, analyze_code = self._cli(
            ["analyze", "--ckpt-a", inputs.standard_ckpt, "--ckpt-b", inputs.conv_ckpt,
             "--src", str(inputs.src),
             "--ref", str(inputs.ref), "--n", str(n), "--grid", "32", "--k", "10",
             "--seed", str(self.seed), "--lang", "cipher", "--out", str(out["report"])])
        figures = {"greedy_sents_per_s": n / greedy_s, "beam_sents_per_s": n / beam_s,
                   "analyze_s": analyze_s}
        outputs = {k: p.read_bytes() if p.exists() else b"" for k, p in out.items()}
        codes = {"greedy": greedy_code, "beam": beam_code, "analyze": analyze_code}
        return Job(greedy_s + beam_s + analyze_s, figures, [s * 1e3 for s in latencies],
                   outputs, 2 * n + 1, state={"codes": codes})

    def check(self, inputs: InferInputs, job: Job) -> None:
        n, figures, outputs, codes = len(inputs.refs), job.figures, job.outputs, job.state["codes"]
        for kind in ("greedy", "beam"):
            code = codes[kind]
            hyps = outputs[kind].decode("utf-8").splitlines()
            if code != 0 or len(hyps) != n:
                job.fail(f"{kind} translate exited {code} with {len(hyps)} of {n} lines", n)
                continue
            figures[f"{kind}_bleu"] = self.nmt.bleu.corpus_bleu(hyps, inputs.refs, "char")
            rate = match_rate(hyps, inputs.recorded[kind])
            figures[f"{kind}_match_rate"] = rate
            if rate < MATCH_RATE_MIN:
                wrong = sum(h != r for h, r in zip(hyps, inputs.recorded[kind]))
                job.fail(f"{kind} hypotheses match the recorded ones at {rate:.4f} "
                         f"(< {MATCH_RATE_MIN})", wrong)
        report = outputs["report"].decode("utf-8").splitlines()
        ok = codes["analyze"] == 0 and len(report) == 2
        rho = float(report[1].split(",")[-1]) if ok else math.nan
        figures["rho_mean"] = rho
        if not abs(rho - inputs.rho_mean) <= RHO_TOL:
            job.fail(f"analyze rho_mean {rho} is not within {RHO_TOL} of the recorded "
                     f"{inputs.rho_mean}")


@contextlib.contextmanager
def beam_latency_probe(cli_module, samples: list[float], enabled: bool):
    """Time each sentence the CLI hands to ``beam_decode``: two clock reads
    per sentence, so a beam sentence's latency can be reported without the
    tracer. Disabled in traced runs, which measure the same call as a span."""
    if not enabled:
        yield
        return
    original = cli_module.beam_decode

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)

    cli_module.beam_decode = timed
    try:
        yield
    finally:
        cli_module.beam_decode = original


WORKLOADS = {w.name: w for w in (TrainConv, EpochCopy, InferCipher)}
