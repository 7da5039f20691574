"""Spans and counts at the program's layer boundaries, for the traced run.

A wrapper is installed on the attribute a caller looks up -- a module
attribute such as ``planar.tessellate`` or a class attribute such as
``PlanarNetwork.neighbors`` -- so calls made from inside the package are
caught too.  Each wrapped call appends a span [name, op, start, end, parent]
to an in-memory list; ``exprs.evaluate`` is only counted, because it runs
over a million times per chain round and a span each would swamp the run.
Nothing here is installed during the timed (untraced) runs.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

from noisynet import advantage, engine, exprs, planar, protocol, reductions, rng, trees

#: (owner, attribute, span name, item counter or None).  The item counter
#: maps the call's return value to a count recorded as ``<name>.<label>``.
SPANS = [
    (reductions, "to_semi_noisy", "reductions.to_semi_noisy", None),
    (reductions, "check_simulation_fidelity", "reductions.check_simulation_fidelity", None),
    (reductions, "to_noisy_copy", "reductions.to_noisy_copy", None),
    (reductions, "fix_randomness", "reductions.fix_randomness", None),
    (reductions, "to_xnd_tree", "reductions.to_xnd_tree", None),
    (reductions, "protocol_to_read_once", "reductions.protocol_to_read_once", None),
    (engine, "exact_channel", "engine.exact_channel", None),
    (engine, "execute", "engine.execute", None),
    (engine, "sampled_channel", "engine.sampled_channel", None),
    (engine, "error_probability", "engine.error_probability", None),
    (advantage, "advantage_exact", "advantage.advantage_exact", None),
    (advantage, "advantage_mc", "advantage.advantage_mc", None),
    (trees, "tree_advantage", "trees.tree_advantage", None),
    (trees, "reorder", "trees.reorder", ("steps", lambda out: len(out[1]))),
    (trees, "collapse_to_read_once", "trees.collapse_to_read_once", None),
    (trees, "readonce_advantage", "trees.readonce_advantage", None),
    (planar, "sample_network", "planar.sample_network", None),
    (planar, "decompose", "planar.decompose", None),
    (planar, "tessellate", "planar.tessellate", None),
    (planar, "verify_decomposition", "planar.verify_decomposition", None),
    (planar, "s1_neighborhoods_disjoint", "planar.s1_neighborhoods_disjoint", None),
    (planar, "is_connected", "planar.is_connected", None),
    (planar.PlanarNetwork, "neighbors", "planar.PlanarNetwork.neighbors", None),
    (planar.PlanarNetwork, "edge_pairs", "planar.PlanarNetwork.edge_pairs", ("items", len)),
    (protocol, "check_bounded_counts", "protocol.check_bounded_counts", None),
    (rng.RngStream, "spawn", "rng.RngStream.spawn", None),
]
COUNTS = [(exprs, "evaluate", "exprs.evaluate")]
#: Counts reported per operation besides every span's self time.
REPORTED_COUNTS = [
    "engine.exact_channel.calls",
    "engine.execute.calls",
    "exprs.evaluate.calls",
    "trees.reorder.steps",
    "planar.tessellate.calls",
    "planar.PlanarNetwork.neighbors.calls",
    "planar.PlanarNetwork.edge_pairs.items",
    "rng.RngStream.spawn.calls",
]


class Tracer:
    """Installs the wrappers, keeps spans in memory, removes the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1  # index of the operation running, set by the caller
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        for owner, attr, name, items in SPANS:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, items))
        for owner, attr, name in COUNTS:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, items):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, tracer.op, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if items is not None:
                counts[f"{name}.{items[0]}"] += items[1](out)
            return out

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> tuple:
        """(self seconds per span name, counts including span calls).

        A span's self time is its duration minus the durations of its
        child spans; in a single thread children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _name, _op, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        counts = Counter(self.counts)
        for i, (name, _op, start, end, _parent) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            counts[f"{name}.calls"] += 1
        return self_s, counts

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics per operation: every span's self time, then
        the reported counts, as name -> (value, unit)."""
        self_s, counts = self.totals()
        out = {f"{name}.self_s": (self_s[name] / ops, "s") for _o, _a, name, _i in SPANS}
        out.update((name, (counts[name] / ops, "count")) for name in REPORTED_COUNTS)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, op, start, end, parent id."""
        with open(path, "w") as fh:
            for i, (name, op, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "op": op, "start": start,
                     "end": end, "parent": parent}
                ) + "\n")
