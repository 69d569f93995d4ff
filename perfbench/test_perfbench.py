"""Self-tests for the benchmark.

    python3 -m pytest perfbench -q

They check the rules the benchmark's own contract sets (percentiles, metric
names, the result line), run every workload at tiny size with and without
the tracer, and make sure a damaged fixture or a checkout without sources
stops the benchmark before it prints a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy  # noqa: F401  (before run: the pool bootstrap pins is for benchmark processes)
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

_environ = dict(os.environ)
import run  # noqa: E402  (after the path insert)
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

# Importing bootstrap sets the benchmark's BLAS and hugepage variables; keep
# them out of this process, the other tests it runs and their subprocesses.
os.environ.clear()
os.environ.update(_environ)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args: str, cwd: Path | None = None, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          timeout=600, cwd=cwd, check=False)


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert run.percentile(list(range(20)), 50) == 9.5
    for n, q in ((99, 90), (19, 50), (999, 99)):
        with pytest.raises(ValueError, match=f"p{q} needs at least"):
            run.percentile(list(range(n)), q)


def test_benchmark_json_follows_the_contract():
    spec = run.SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perfbench"] and spec["command"][1] == "perfbench/run.py"
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            names.append(metric["name"])
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
        keys = {"name", "unit", "better", "bound"} if group == "end_to_end" else \
            {"name", "unit", "better"}
        assert all(set(m) == keys for m in spec[group])
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_passes_its_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    declared = run.SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    exercised = {"train-conv": ("tensor.bwd_s.conv1d_same", "model.conv_sub_block_s",
                                "training.adam_s", "data.make_batches_s"),
                 "epoch-copy": ("training.evaluate_s", "decoding.decoder_calls",
                                "bleu.corpus_bleu_s", "training.checkpoint_save_s"),
                 "infer-cipher": ("decoding.beam_s", "alignment.cca_s", "cli.self_s",
                                  "training.checkpoint_load_s")}[workload]
    assert all(values[m] > 0 for m in exercised), values
    idle = {"train-conv": "decoding.greedy_s", "epoch-copy": "tensor.fwd_s.conv1d_same",
            "infer-cipher": "training.adam_s"}[workload]
    assert values[idle] == 0.0


def test_tracer_restores_every_function():
    charnmt = run.bootstrap.import_charnmt()
    import charnmt.cli  # noqa: F401
    import charnmt.synthetic  # noqa: F401

    modules = [getattr(charnmt, name) for name in ("tensor", "model", "data", "training",
                                                   "decoding", "bleu", "alignment", "cli")]
    before = [dict(vars(m)) for m in modules]
    backward = charnmt.tensor.Tensor.backward
    tracer = Tracer(charnmt)
    tracer.install()
    assert charnmt.model.matmul is not before[1]["matmul"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert charnmt.tensor.Tensor.backward is backward


def test_match_rate_counts_characters():
    assert workloads.match_rate(["abc", "de"], ["abc", "de"]) == 1.0
    assert workloads.match_rate(["abx", ""], ["abc", "d"]) == pytest.approx(2 / 4)


def test_damaged_fixture_is_named(tmp_path, monkeypatch):
    copy = tmp_path / "fixture"
    shutil.copytree(workloads.FIXTURE, copy)
    with open(copy / "val.ref", "a", encoding="utf-8") as f:
        f.write("x\n")
    monkeypatch.setattr(workloads, "FIXTURE", copy)
    with pytest.raises(workloads.FixtureError, match="val.ref"):
        workloads.verify_fixture()


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "train-conv", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
    assert "no charnmt sources" in proc.stderr
