"""Show that every check accepts a correct output and refuses a wrong one.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For each workload it runs real operations, checks their outputs, then
checks copies that each carry one deliberately wrong value, and expects
every copy to be refused.  It also builds a network with a deliberately
thinned cell, so that the ``UndersizedCell`` outcome is confirmed by the
benchmark's own count, and a false claim about it is refused.  Finally it
compares the metric names the run prints with ``BENCHMARK.json``.  Exits 1
on any surprise.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from noisynet import planar  # noqa: E402
from noisynet.errors import UndersizedCell  # noqa: E402

SEED = 1


def wrong_values(workload, inp, s):
    """(label, summary with one deliberately wrong value) pairs."""
    if workload == "chain":
        advs = list(s["advantages"])
        yield "fidelity TV of 1e-9", {**s, "tv": 1e-9}
        yield "read-once advantage below the ordered tree's", {
            **s, "advantages": tuple(advs[:-1] + [advs[-2] - 1e-6])}
        if inp.star is not None:
            yield "general advantage off the closed form by 1e-9", {
                **s, "advantages": tuple([advs[0] + 1e-9] + advs[1:])}
        yield "chain reporting monotone=False", {**s, "monotone": False}
    elif workload == "decompose":
        blocks = [list(b) for b in s["input_blocks"]]
        yield "a node in two blocks", {**s, "aux0": s["aux0"] + [blocks[0][0]]}
        yield "an input block one node short", {
            **s, "input_blocks": [blocks[0][:-1]] + blocks[1:],
            "aux0": s["aux0"] + [blocks[0][-1]]}
        yield "two selected cells sharing a neighbourhood", {
            **s, "cells": [s["cells"][0], s["cells"][0]] + s["cells"][2:]}
        yield "D off by a relative 1e-9", {**s, "D": s["D"] * (1 + 1e-9)}
        yield "verify_decomposition reporting ok=False", {**s, "verified": False}
    elif workload == "connectivity":
        yield "the connectivity bit flipped", {**s, "connected": not s["connected"]}
    elif workload == "montecarlo":
        shifted = {k: (e, (lo + 0.05, hi + 0.05)) for k, (e, (lo, hi)) in s["per_input"].items()}
        yield "every error interval shifted up by 0.05", {**s, "per_input": shifted}
        yield "advantage_mc value raised by 0.5", {**s, "adv": s["adv"] + 0.5}


def thinned_network():
    """N = 20000 points with cell (2, 2) left holding 20 of them."""
    N = workloads.DECOMPOSE_N
    R = math.sqrt(10 * math.log(N) / N)
    m = int(math.floor(1.0 / R))
    gen = np.random.default_rng(SEED)
    pos = gen.random((N, 2))
    row, col = checks._cells(pos, m)
    inside = np.flatnonzero((row == 2) & (col == 2))
    pos[inside[20:]] = [0.5 / m + 3.0 / m, 0.5 / m]  # moved into cell (1, 4)
    return planar.PlanarNetwork(pos, R)


def main() -> int:
    surprises = []

    def expect(ok, want, label):
        print(f"  {'ok  ' if ok == want else 'FAIL'} {label}: check says {ok}")
        if ok != want:
            surprises.append(label)

    picks = {
        "chain": [sum(workloads.CHAIN_MIX.values()), 0],  # a star-XOR and a random instance
        "decompose": [0],
        "connectivity": [0, len(workloads.CONNECTIVITY_FACTORS) - 1],
        "montecarlo": [0],
    }
    for workload, indices in picks.items():
        inputs = workloads.INPUTS[workload](SEED)
        for i in indices:
            print(f"{workload} operation {i}")
            s = checks.summarize(workload, workloads.OPS[workload](inputs[i]))
            ok, detail = checks.check(workload, inputs[i], s)
            expect(ok, True, f"correct output {detail}")
            for label, bad in wrong_values(workload, inputs[i], s):
                expect(checks.check(workload, inputs[i], bad)[0], False, label)

    print("decompose on a network with a thinned cell")
    net = thinned_network()
    try:
        planar.decompose_for_uniform_counts(net)
        surprises.append("the thinned network did not raise UndersizedCell")
    except UndersizedCell as exc:
        s = checks.summarize("decompose", (net, exc, None, None, None))
        expect(checks.check("decompose", None, s)[0], True, f"raised claim {exc}")
        lie = str(exc).replace("cell (2, 2)", "cell (3, 3)")
        expect(checks.check("decompose", None, {**s, "raised": ("UndersizedCell", lie)})[0],
               False, "the claim moved to a full cell")

    print("metric names against BENCHMARK.json")
    declared = json.loads(Path("BENCHMARK.json").read_text())
    per_layer = set(tracing.Tracer().metrics(1)) | {
        "setup.import_s", "setup.inputs_s", "trace.overhead_pct"}
    end_to_end = {"throughput_ops_s", "latency_p50_s", "setup_s", "peak_rss_mb"}
    expect({m["name"] for m in declared["per_layer"]} == per_layer, True, "per-layer names")
    expect({m["name"] for m in declared["end_to_end"]} == end_to_end, True, "end-to-end names")

    print("all checks behaved as expected" if not surprises else f"surprises: {surprises}")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main())
