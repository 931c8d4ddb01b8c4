"""One benchmark process: set up a workload, run its passes, report as JSON.

    python3 perfbench/worker.py WORKLOAD SEED PASSES TRACE T0 WORKDIR

T0 is the parent's ``time.monotonic()`` just before it started this
interpreter, so ``setup_s`` covers interpreter start, imports and input
generation up to the first timed operation.  With PASSES = 0 the process only
sets up (a set-up probe).  With TRACE = 1 the library is wrapped by
``tracing.Tracer`` before set-up; the per-layer metrics cover set-up and the
first pass, and the spans are written to WORKDIR when the run ends.

The last line of standard output is the result object.
"""

import json
import resource
import sys
import time
from pathlib import Path

import tracing


def cpu_seconds():
    """User plus system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def numpy_info():
    """numpy's version and the BLAS it was built against (already imported)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, f"{blas['name']} {blas['version']}"


def main(argv):
    name, seed, passes, traced, t0, workdir = argv
    seed, passes, traced, t0 = int(seed), int(passes), traced == "1", float(t0)
    workdir = Path(workdir)

    start = time.perf_counter()
    import workloads  # imports lincat
    import_s = time.perf_counter() - start

    tracer = None
    if traced:
        tracer = tracing.Tracer(run_id=f"{name}-{seed}")
        tracer.install()
        workload = workloads.WORKLOADS[name](**(
            {"traced_spans_dir": workdir} if name == "cli-fixtures" else {}))
    else:
        workload = workloads.WORKLOADS[name]()
    workload.setup(seed, workdir)
    setup_s = time.monotonic() - t0

    walls, cpus, commands = [], [], []
    attempted = failed = 0
    mismatches = []
    first_pass_end = None
    for index in range(passes):
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        res = workload.run_pass(index)
        walls.append(time.perf_counter() - wall0)
        cpus.append(cpu_seconds() - cpu0)
        if first_pass_end is None and tracer is not None:
            first_pass_end = len(tracer.spans)
        commands += res.command_s
        attempted += res.attempted
        failed += res.failed
        mismatches += res.mismatches[: 5 - len(mismatches)]

    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "command_s": commands,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "peak_rss_mb": peak_rss_mb(),
    }
    result["numpy"], result["blas"] = numpy_info()
    if tracer is None:
        result["wrappers"] = tracing.count_wrappers()
    else:
        tracer.uninstall()
        result["layers"] = layers_of(tracer, workload, import_s, first_pass_end)
        tracer.write(workdir / f"spans-{name}-{seed}.jsonl")
    print(json.dumps(result))


def layers_of(tracer, workload, import_s, stop):
    """Per-layer metrics of set-up plus the first pass.  For cli-fixtures the
    library runs in the command processes, which report their own metrics;
    those of the first pass are combined here: sums, and maxima for max_*."""
    if not getattr(workload, "child_reports", None):
        rows = tracing.aggregate(tracer.spans, tracer.child_ns, 0, stop)
        return tracing.layer_metrics(rows, import_s, stop)
    reports = [json.loads(p.read_text()) for p in workload.child_reports[0]]
    combined = {}
    for rep in reports:
        for key, value in rep["metrics"].items():
            if key.split(".")[-1].startswith("max_"):
                combined[key] = max(combined.get(key, 0), value)
            else:
                combined[key] = combined.get(key, 0) + value
    # import time per command process, not summed over the pass
    combined["cli.import_s"] = sum(r["metrics"]["cli.import_s"] for r in reports) / len(reports)
    return combined


if __name__ == "__main__":
    main(sys.argv[1:])
