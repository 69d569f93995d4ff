"""Process set-up shared by the benchmark's entry scripts.

Importing this module sizes the BLAS pool and puts the checkout's ``src``
directory first on ``sys.path``, so the benchmark always measures the
source tree it sits in, never an installed copy. It must be imported
before numpy.

The pool has one thread, whatever ``nproc`` is. At the lab config the GEMMs
are too small to split: on a 2-vCPU x86-64 VM (OpenBLAS 0.3.31) a second
thread left a train-conv epoch at 20.2-20.7 s against 20.6-21.0 s with one,
while its spin-waiting doubled the process's CPU time (39-40 s against
20-21 s) and so its exposure to whatever else runs on the host.

numpy's transparent-huge-page advice is off. With it on, a kernel that
compacts memory on demand stalls the allocation at a moment set by the
rest of the machine: over three alternating pairs of train-conv runs on
that VM, the job took 19.9-22.1 s with p90 steps of 125-166 ms with the
advice, against 19.6-20.7 s and 123-130 ms without it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)

BLAS_THREADS = 1

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


class MissingSourceError(RuntimeError):
    """The checkout holds no charnmt source tree to measure."""


def import_charnmt():
    """Import charnmt from ``ROOT/src`` and refuse any other copy."""
    if not (SRC / "charnmt" / "__init__.py").is_file():
        raise MissingSourceError(f"no charnmt sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import charnmt

    if Path(charnmt.__file__).resolve().parent != SRC / "charnmt":
        raise MissingSourceError(f"charnmt was imported from {charnmt.__file__}, not {SRC}")
    return charnmt
