"""One set-up measurement in a fresh interpreter.

Imports ``noisynet`` from the given source tree, generates the workload's
inputs, and prints one JSON line: the time since ``--started`` (the
caller's clock just before it started this interpreter) and the import and
input-generation times.  ``run.py`` starts it; by hand:

    python3 perfbench/probe.py --src src --workload chain --seed 1 \
        --started "$(python3 -c 'import time; print(time.time())')"
"""

import argparse
import json
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    t0 = time.perf_counter()
    import noisynet  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    workloads.INPUTS[args.workload](args.seed)
    t2 = time.perf_counter()
    setup_s = time.time() - args.started
    print(json.dumps({"setup_s": setup_s, "import_s": t1 - t0, "inputs_s": t2 - t1}))


if __name__ == "__main__":
    main()
