"""One measurement in a fresh interpreter, started by run.py.

    python3 perfbench/child.py setup <workload> <seed> <tmpdir>
    python3 perfbench/child.py pass  <workload> <seed> <tmpdir>

``setup`` times import, config load, grid and problem construction and one
resolvent application; ``pass`` runs one cold pass.  Prints one JSON object
with ``setup_s`` or the pass ``outputs``, plus this process's ``maxrss_kb``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    mode, name, seed, tmp = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    import workloads  # imports numpy and helmdual: part of the timed set-up

    workload = workloads.WORKLOADS[name]
    if mode == "setup":
        workload.setup(seed)
        result = {"setup_s": time.perf_counter() - START}
    elif mode == "pass":
        result = {"outputs": workload.run(seed, tmp)}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
