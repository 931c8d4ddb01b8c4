"""Record the exact outputs the workload gates compare against.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json`` from the library as it is now.  Run it
only when a change is meant to alter the exact outputs (dims, rational
coefficients, check names, exit codes), and say so in the change.
"""

import json
import os
import sys

from environment import SRC, WORKDIR, child_env

# the library from this checkout, one BLAS thread, as in the measured runs
os.environ.update(child_env())
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main():
    expected = {}
    WORKDIR.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workload.setup(5, WORKDIR)
        expected[name] = workload.record()
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
