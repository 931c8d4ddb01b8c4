"""Process environment shared by run.py, the workers and the workloads."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"  # inputs written at set-up, spans, results

# One BLAS thread in every process: the runs are single-threaded, the count
# is at most nproc, and it is the same on every commit compared.
BLAS_THREADS = "1"


def child_env():
    """Environment of every process the benchmark starts: the library from
    the checkout's source tree, one BLAS thread, a fixed hash seed and no
    LINCAT_SEED override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("LINCAT_SEED", None)
    return env
