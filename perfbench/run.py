"""Benchmark of noisynet's four user-facing workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 15 --trace 0

One process, one thread.  In order, a run

1. measures set-up (``import noisynet`` plus input generation) in fresh
   interpreters, see ``probe.py``;
2. generates the workload's inputs from ``--seed``;
3. runs whole rounds of operations, one operation per input, as many
   rounds as bring the timed phase closest to ``--seconds``;
4. with ``--trace 1``, runs the same rounds again with wrappers at the
   layer boundaries (``tracing.py``) and writes the spans to
   ``perfbench/out/spans-<workload>.jsonl``;
5. checks every output (``checks.py``) and prints the metrics, then one
   JSON object as the last line.

The timed phase is the sum of the operations' wall times; summarising an
output for its check happens between operations, off the clock.
"""

import os

# One thread: set before numpy is imported, here and in the probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("chain", "decompose", "connectivity", "montecarlo")

#: Set-up is repeated in fresh interpreters until the quartile spread of
#: the samples is within a tenth of their median, between these counts.
SETUP_MIN, SETUP_MAX, SETUP_SPREAD = 3, 5, 0.1
PROBE_TIMEOUT_S = 120


def quartile_spread(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def probe_setup(src: Path, workload: str, seed: int) -> dict:
    """Start a fresh interpreter and time it until its inputs are ready.

    Wall-clock time, because the start and the end are read in two
    processes."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--src", str(src),
           "--workload", workload, "--seed", str(seed),
           "--started", repr(time.time())]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return json.loads(done.stdout)


def measure_setup(src: Path, workload: str, seed: int) -> dict:
    samples = []
    while len(samples) < SETUP_MAX:
        samples.append(probe_setup(src, workload, seed))
        if len(samples) >= SETUP_MIN and (
            quartile_spread([s["setup_s"] for s in samples]) <= SETUP_SPREAD
        ):
            break
    return {
        key: statistics.median(s[key] for s in samples)
        for key in ("setup_s", "import_s", "inputs_s")
    } | {"samples": [round(s["setup_s"], 4) for s in samples]}


class Ledger:
    """Every operation's outcome, keyed by (input index, output digest).

    The first output seen for a key is kept for checking after the timed
    phases; a repeat of an identical output shares its verdict.
    """

    def __init__(self, workload: str, inputs):
        self.workload = workload
        self.inputs = inputs
        self.pending: dict = {}
        self.seen: Counter = Counter()

    def record(self, i: int, out) -> None:
        summary = checks.summarize(self.workload, out)
        key = (i, checks.digest(summary))
        self.pending.setdefault(key, summary)
        self.seen[key] += 1

    def verdicts(self) -> dict:
        return {
            key: checks.check(self.workload, self.inputs[key[0]], summary)
            for key, summary in self.pending.items()
        }


def run_phase(workload: str, inputs, seconds: float, ledger: Ledger, tracer=None) -> dict:
    """Whole rounds over ``inputs``; stop when another round would end
    farther from ``seconds`` than stopping now does."""
    op = workloads.OPS[workload]
    clock = time.perf_counter
    durations: list = []
    elapsed, rounds = 0.0, 0
    while True:
        round_s = 0.0
        for i, inp in enumerate(inputs):
            if tracer is not None:
                tracer.op = len(durations)
            start = clock()
            try:
                out = op(inp)
            except Exception as exc:  # counted as a failed operation
                out = exc
            dt = clock() - start
            durations.append(dt)
            round_s += dt
            ledger.record(i, out)
            del out
        elapsed += round_s
        rounds += 1
        if elapsed + round_s / 2 >= seconds:
            return {"durations": durations, "elapsed": elapsed, "rounds": rounds}


def latency_summary(durations) -> dict:
    p90 = durations[0]
    if len(durations) > 1:
        p90 = statistics.quantiles(durations, n=10, method="inclusive")[-1]
    return {"p50": statistics.median(durations), "p90": p90,
            "max": max(durations), "n": len(durations)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "noisynet" / "__init__.py").is_file():
        print(f"error: no noisynet sources under {src}; run from the root "
              "of a noisynet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    global checks, tracing, workloads
    import checks
    import tracing
    import workloads

    w = args.workload
    setup = measure_setup(src, w, args.seed)
    inputs = workloads.INPUTS[w](args.seed)
    ledger = Ledger(w, inputs)

    timed = run_phase(w, inputs, args.seconds, ledger)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    throughput = len(timed["durations"]) / timed["elapsed"]
    lat = latency_summary(timed["durations"])

    traced = None
    if args.trace:
        with tracing.Tracer() as tracer:
            traced = run_phase(w, inputs, args.seconds, ledger, tracer=tracer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{w}.jsonl"
        tracer.write(spans_path)

    verdicts = ledger.verdicts()
    attempted = sum(ledger.seen.values())
    failed = sum(n for key, n in ledger.seen.items() if not verdicts[key][0])
    unexpected = any(
        not ok and getattr(inputs[key[0]], "known_fault", None) is None
        for key, (ok, _detail) in verdicts.items()
    )
    round_ok, round_detail = checks.check_round(w, ledger.pending.values())
    correct = not unexpected and round_ok

    print(f"workload {w}: seed {args.seed}, {len(inputs)} operations per round, "
          f"{timed['rounds']} round(s) in {timed['elapsed']:.3f} s")
    print(f"attempted {attempted}, failed {failed}")
    for key, (ok, detail) in sorted(verdicts.items()):
        if not ok:
            fault = getattr(inputs[key[0]], "known_fault", None)
            label = f"known fault: {fault}" if fault else "UNEXPECTED"
            print(f"  failed: operation {key[0]} ({label}): {detail}")
    if not round_ok:
        print(f"  round check failed: {round_detail}")
    print(f"correct {correct}")
    print(f"setup_s {setup['setup_s']:.4f} s (median of fresh interpreters "
          f"{setup['samples']}; import {setup['import_s']:.4f} s, "
          f"inputs {setup['inputs_s']:.4f} s)")
    print(f"throughput_ops_s {throughput:.4f} ops/s")
    print(f"latency_p50_s {lat['p50']:.6f} s  (info: p90 {lat['p90']:.6f} s, "
          f"max {lat['max']:.6f} s, n={lat['n']})")
    print(f"peak_rss_mb {peak_rss_mb:.2f} MB")

    if traced is None:
        metrics = {
            "throughput_ops_s": (throughput, "ops/s"),
            "latency_p50_s": (lat["p50"], "s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        ops = len(traced["durations"])
        traced_tp = ops / traced["elapsed"]
        overhead_pct = 100.0 * (throughput - traced_tp) / throughput
        print(f"traced: {ops} operations in {traced['elapsed']:.3f} s, "
              f"{traced_tp:.4f} ops/s against {throughput:.4f} untraced "
              f"(overhead {overhead_pct:.1f}%); spans in {spans_path}")
        metrics = tracer.metrics(ops) | {
            "setup.import_s": (setup["import_s"], "s"),
            "setup.inputs_s": (setup["inputs_s"], "s"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
        print("per-layer metrics (per operation, except setup.* and trace.*):")
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
