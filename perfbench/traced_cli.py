"""``python -m lincat.cli`` with the library wrapped by the span tracer.

    python3 perfbench/traced_cli.py REPORT.json [lincat arguments...]

Runs ``lincat.cli.main`` on the arguments, then writes the per-layer metrics
of this process to REPORT.json and its spans next to it (``.jsonl``).  The
exit code and output are those of the command.
"""

import json
import sys
import time
from pathlib import Path


def main():
    report = Path(sys.argv[1])
    start = time.perf_counter()
    import lincat.cli
    import_s = time.perf_counter() - start

    import tracing

    tracer = tracing.Tracer(run_id=report.stem)
    tracer.install()
    try:
        rc = lincat.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        rows = tracing.aggregate(tracer.spans, tracer.child_ns)
        metrics = tracing.layer_metrics(rows, import_s, len(tracer.spans))
        report.write_text(json.dumps({"metrics": metrics}))
        tracer.write(report.with_suffix(".jsonl"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
