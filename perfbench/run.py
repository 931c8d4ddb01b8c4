"""lincat benchmark entry point.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs all four workloads in turn.  Every workload runs
in fresh interpreters (``worker.py``), so the library's module-level irrep
cache starts cold, as it does for every command-line user.

--trace 0 measures the end-to-end metrics, with no wrapper installed:

  wall_s       median seconds of one pass
  cpu_s        median user+system CPU seconds of one pass, children included
  setup_s      median, over several fresh interpreters, of the time from
               interpreter start to the first timed operation
  peak_rss_mb  peak resident memory of the measuring process (or of its
               largest command process)
  cmd_p50_ms, cmd_p90_ms
               latency percentiles of the commands a pass issues: one CLI
               process (cli-fixtures), one library call (suite-composite,
               verify-default) or one group's five steps (groups-large)

fail_frac (failed / attempted operations) is printed with them; it is 0 when
every gate passes, so it is reported through ``attempted`` and ``failed``.

--trace 1 runs the same passes twice, once plain and once with the library
wrapped by ``tracing.Tracer``, and reports the per-layer metrics of set-up
plus the first traced pass, and the tracing overhead (traced minus plain
median pass seconds).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of a
run, with its environment and every sample, goes to
``.perfbench_work/result-<workload>-<seed>-trace<t>.json``.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import tracing  # stdlib only; the library is wrapped in the workers
from environment import BLAS_THREADS, ROOT, SRC, WORKDIR, child_env

HERE = Path(__file__).resolve().parent

# Seconds of one pass on the reference machine.  A run does
# round(seconds / NOMINAL_PASS_S) passes (at least one), so it measures about
# --seconds there and does the same work on every commit compared.
NOMINAL_PASS_S = {
    "suite-composite": 10.5,
    "verify-default": 2.0,
    "groups-large": 10.3,
    "cli-fixtures": 4.0,
}
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("cmd_p50_ms", "ms"), ("cmd_p90_ms", "ms")]


class BenchError(Exception):
    pass


def median(values):
    return percentile(values, 0.5)


def percentile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise BenchError("no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def passes_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def run_worker(workload, seed, passes, traced):
    """Start one fresh interpreter, wait for it, return its result object."""
    t0 = time.monotonic()
    # a process group of its own, so that a timeout also stops its command processes
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(passes),
         "1" if traced else "0", repr(t0), str(WORKDIR)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
        cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker took over {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def environment(seed, seconds, worker):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT)
        commit = out.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "blas": worker["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
    }


def end_to_end(workload, seed, seconds):
    probes = [run_worker(workload, seed, 0, False)["setup_s"] for _ in range(SETUP_PROBES)]
    main = run_worker(workload, seed, passes_for(workload, seconds), False)
    if main["wrappers"]:
        raise BenchError(f"untraced run found {main['wrappers']} wrapped functions")
    cmd = main["command_s"]
    metrics = {
        "wall_s": median(main["pass_wall_s"]),
        "cpu_s": median(main["pass_cpu_s"]),
        "setup_s": median(probes + [main["setup_s"]]),
        "peak_rss_mb": main["peak_rss_mb"],
        "cmd_p50_ms": 1000 * percentile(cmd, 0.5),
        "cmd_p90_ms": 1000 * percentile(cmd, 0.9),
    }
    units = dict(END_TO_END)
    samples = {
        "passes": len(main["pass_wall_s"]),
        "commands": len(cmd),
        "setup_samples": len(probes) + 1,
        "pass_wall_s": main["pass_wall_s"],
        "pass_cpu_s": main["pass_cpu_s"],
        "command_s": cmd,
        "setup_s": probes + [main["setup_s"]],
        "wrappers_installed": main["wrappers"],
    }
    return metrics, units, [main], samples


def traced(workload, seed, seconds):
    passes = passes_for(workload, seconds / 2)
    plain = run_worker(workload, seed, passes, False)
    traced_run = run_worker(workload, seed, passes, True)
    metrics = dict(traced_run["layers"])
    metrics["trace.wall_s"] = median(traced_run["pass_wall_s"])
    metrics["trace.untraced_wall_s"] = median(plain["pass_wall_s"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    units = dict(tracing.METRICS)
    metrics = {name: metrics[name] for name in units}
    samples = {"passes": passes, "traced_pass_wall_s": traced_run["pass_wall_s"],
               "untraced_pass_wall_s": plain["pass_wall_s"]}
    return metrics, units, [plain, traced_run], samples


def run_one(workload, seed, seconds, trace):
    measure = traced if trace else end_to_end
    metrics, units, workers, samples = measure(workload, seed, seconds)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    mismatches = [m for w in workers for m in w["mismatches"]]
    env = environment(seed, seconds, workers[0])
    record = {"workload": workload, "trace": trace, "environment": env,
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "mismatches": mismatches,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "samples": samples}
    (WORKDIR / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {workload}  seed {seed}  trace {int(trace)}  environment {json.dumps(env)}")
    width = max(len(k) for k in metrics)
    for k, v in metrics.items():
        print(f"  {k:<{width}}  {v:>14.6g} {units[k]}")
    print(f"  {'fail_frac':<{width}}  {record['fail_frac']:>14.6g} ({failed}/{attempted})"
          f"  samples: {samples['passes']} passes"
          + (f", {samples['commands']} commands, {samples['setup_samples']} set-ups"
             if not trace else ""))
    for m in mismatches:
        print(f"  mismatch: {m}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def build():
    """Byte-compile the library and the benchmark, so that no measured
    interpreter pays for compilation."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "lincat"), str(HERE)],
                   check=True, capture_output=True, env=child_env(), timeout=WORKER_TIMEOUT_S)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(NOMINAL_PASS_S))
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "lincat" / "__init__.py").is_file():
        sys.stderr.write(f"error: no lincat sources under {SRC}\n")
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        build()
        names = [args.workload] if args.workload else list(NOMINAL_PASS_S)
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
