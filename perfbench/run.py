"""The charnmt lab benchmark.

    python3 perfbench/run.py --workload train-conv --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Runs one workload (see ``workloads.py`` and BENCHMARK.json) in this process
against the source tree of the checkout it sits in, with one BLAS pool of
at most ``nproc`` threads. The inputs are set up SETUP_REPS times (the
median is ``setup_s``); then jobs run back to back until ``--seconds`` have
passed, at least one. Every job's outputs are checked, and every job of a
run must produce the same bytes as the first.

With ``--trace 0`` the result carries the end-to-end metrics, measured with
no tracing. With ``--trace 1`` the jobs run under the per-layer tracer
(``layertrace.py``) and are then replayed untraced; the result carries the
per-layer metrics, the traced run's outputs must equal the replay's bit for
bit, and the tracing overhead is the traced minus the untraced wall time.

Human-readable lines come first; the last line of standard output is the
result as one JSON object. ``--workload all`` runs each workload in its own
process and ends with one JSON object per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap  # pins the BLAS pool; must precede numpy

import numpy as np

from layertrace import Tracer
from workloads import WORKLOADS, FixtureError

SETUP_REPS = 11
SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKDIR = bootstrap.ROOT / ".perfbench_work"

# Figures printed by name for the reader, with their units.
FIGURE_UNITS = {
    "train_tokens_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p90": "ms", "train_loss": "nats",
    "epoch_s": "s", "eval_s": "s", "greedy_sents_per_s": "1/s", "greedy_bleu": "BLEU",
    "greedy_match_rate": "ratio", "beam_sents_per_s": "1/s", "beam_bleu": "BLEU",
    "beam_match_rate": "ratio", "beam_sentence_ms_p50": "ms", "beam_sentence_ms_p90": "ms",
    "analyze_s": "s", "rho_mean": "rho", "steps": "count",
}


def percentile(samples, q: int) -> float:
    """The q-th percentile, only when at least ten samples lie beyond it."""
    n = len(samples)
    if n * (100 - q) < 10 * 100:
        need = -(-1000 // (100 - q))
        raise ValueError(f"p{q} needs at least {need} samples (ten beyond it), got {n}")
    return float(np.percentile(samples, q))


def _openblas_call(symbols: tuple[str, ...], restype):
    """Call the first exported OpenBLAS query function found in this process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in symbols:
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype, fn.argtypes = restype, []
                return fn()
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _openblas_call(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                              "openblas_get_num_threads"), ctypes.c_int)
    config = _openblas_call(("scipy_openblas_get_config64_", "openblas_get_config64_",
                             "openblas_get_config"), ctypes.c_char_p)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": config.decode() if config else None, "blas_threads": threads,
            "nproc": bootstrap.NPROC, "machine": platform.machine(), "seed": seed}


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(charnmt, name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 workdir: Path) -> dict:
    workload = WORKLOADS[name](charnmt, seed, tiny, workdir)
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = workload.setup()
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer(charnmt) if trace else None
    jobs = []
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        if tracer:
            tracer.install()
        try:
            jobs.append(workload.run(inputs, probe=not trace))
        finally:
            if tracer:
                tracer.uninstall()
    replays = [workload.run(inputs, probe=False) for _ in jobs] if trace else []
    for job in jobs + replays:
        workload.check(inputs, job)
    for label, others in (("the first job's", jobs[1:]), ("the traced job's", replays)):
        for job in others:
            differing = sorted(k for k, v in jobs[0].outputs.items() if job.outputs.get(k) != v)
            if differing:
                job.fail(f"outputs {', '.join(differing)} differ from {label}", job.attempted)

    every = jobs + replays
    attempted = sum(j.attempted for j in every)
    failed = sum(j.failed_ops for j in every)
    failures = [f for j in every for f in j.failures]
    figures = {k: _median(j.figures[k] for j in jobs) for k in jobs[0].figures
               if all(k in j.figures for j in jobs)}
    op = workload.op
    if not trace:  # the beam latency probe is off in traced runs
        latencies = [ms for j in jobs for ms in j.op_latencies_ms]
        figures[f"{op}_ms_p50"] = percentile(latencies, 50)
        figures[f"{op}_ms_p90"] = percentile(latencies, 90)
    figures["setup_s"] = _median(setup_times)

    if trace:
        k = len(jobs)
        metrics = {m: v if m.endswith("_ratio") else v / k
                   for m, v in tracer.layer_metrics().items()}
        metrics["trace.traced_s"] = sum(j.wall_s for j in jobs) / k
        metrics["trace.untraced_s"] = sum(j.wall_s for j in replays) / k
        metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
        declared = SPEC["per_layer"]
        spans = tracer.top_self_times()
    else:
        metrics = {
            "setup_s": figures["setup_s"],
            "job_s": _median(j.wall_s for j in jobs),
            "throughput_per_s": figures[workload.throughput],
            "op_ms_p50": figures[f"{op}_ms_p50"],
            "op_ms_p90": figures[f"{op}_ms_p90"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = SPEC["end_to_end"]
        spans = []
    mismatch = {d["name"] for d in declared} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    if not all(np.isfinite(v) for v in metrics.values()):
        raise RuntimeError(f"non-finite metric in {metrics}")

    _report(workload, trace, len(jobs), figures, attempted, failed, failures, spans)
    return {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }


def _report(workload, trace, n_jobs, figures, attempted, failed, failures, spans):
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == workload.name)
    print(f"# perfbench {workload.name}: seed {workload.seed}, trace {int(trace)}, "
          f"{'tiny' if workload.tiny else 'lab'} size, {n_jobs} job(s)")
    print("env " + json.dumps(environment(workload.seed), sort_keys=True))
    print("workload " + json.dumps({"name": workload.name, "why": why,
                                    "loop": "closed, one caller", "layers": workload.layers}))
    print(f"  {'setup_s':24} {figures['setup_s']:14.6f} s  (median of {SETUP_REPS} set-ups)")
    for key, unit in FIGURE_UNITS.items():
        if key in figures:
            print(f"  {key:24} {figures[key]:14.6f} {unit}")
    print(f"  {'ops_attempted':24} {attempted:14d} count")
    print(f"  {'ops_failed':24} {failed:14d} count")
    for span, secs, calls in spans:
        print(f"  span {span:40} self {secs:10.4f} s  {calls:9d} calls")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small corpora and model, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        charnmt = bootstrap.import_charnmt()
        import charnmt.cli  # noqa: F401  (not imported by the package itself)
        import charnmt.synthetic  # noqa: F401
        result = run_workload(charnmt, args.workload, args.seed, args.seconds,
                              bool(args.trace), args.tiny, workdir)
    except (bootstrap.MissingSourceError, FixtureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORKDIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
