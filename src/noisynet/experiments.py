"""Experiment scenarios E1-E8 with deterministic CSV output.

Every scenario is a pure function of its configuration (including the
seed), so reruns with the same config produce byte-identical files.
Wall-clock timing is therefore not written by default; the column exists
but stays empty unless ``timing`` is requested, in which case the
determinism contract is explicitly waived for that file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import advantage as adv_mod
from . import planar, random_instances, reductions, trees
from .engine import error_probability, parity_of_inputs
from .errors import EmptyS2, UndersizedCell
from .noise import MAX_REGEN_T, iid_noisy_law, regen_output_law, regen_table
from .protocol import star_xor
from .rng import RngStream

SCHEMA_VERSION = 1

CSV_HEADER = [
    "schema",
    "experiment",
    "params",
    "value",
    "reference",
    "ci_lo",
    "ci_hi",
    "seed",
    "ok",
    "wall_time",
]


@dataclass
class ResultRow:
    experiment: str
    params: dict
    value: float | None
    reference: float | None = None
    ci: tuple | None = None
    seed: int | None = None
    ok: bool | None = None
    wall_time: float | None = None

    def to_csv(self) -> list:
        return [
            str(SCHEMA_VERSION),
            self.experiment,
            json.dumps(self.params, sort_keys=True, separators=(",", ":")),
            _fmt(self.value),
            _fmt(self.reference),
            _fmt(self.ci[0]) if self.ci else "",
            _fmt(self.ci[1]) if self.ci else "",
            "" if self.seed is None else str(self.seed),
            "" if self.ok is None else str(int(self.ok)),
            _fmt(self.wall_time),
        ]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"


def render_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for row in rows:
        w.writerow(row.to_csv())
    return buf.getvalue()


# -- configuration -----------------------------------------------------------


#: Per experiment: parameter -> (default, the interval that the value, or
#: each item of a list, must lie in for the runner to work)
_PARAM_SCHEMAS = {
    "E1": {"N": (2000, "[1, inf)"), "radius_factors": ([0.0, 0.5, 0.8, 1.0, 1.25, 1.5, 2.0], "[0, inf)"),
           "seeds": (list(range(10)), "(-inf, inf)")},
    # the tessellation needs R = sqrt(10 ln N / N) <= 1
    "E2": {"N": (20000, "[36, inf)"), "seeds": (list(range(20)), "(-inf, inf)")},
    "E3": {"mus": ([20, 50, 100, 200], "[0, inf)"), "N": (1000, "[1, inf)")},
    "E4": {"ts": ([1, 2, 3, 4], f"[1, {MAX_REGEN_T}]"), "epses": ([0.05, 0.1, 0.2, 0.3, 0.45], "(0, 0.5)"),
           "bits": ([0, 1], "[0, 1]")},
    "E5": {"instances": (200, "[0, inf)")},
    # a random tree has up to 2^max_depth paths (2^k in E7), at most trees.MAX_TREE_PATHS
    "E6": {"instances": (200, "[0, inf)"), "max_depth": (6, "[1, 16]"), "k": (3, "[1, inf)")},
    "E7": {"instances": (100, "[0, inf)"), "k": (4, "[1, 16]")},
    # N = 2^(2^m) is a finite float for m <= 9
    "E8": {"n": (3, "[1, inf)"), "reps": ([1, 3, 5], "[1, inf)"), "eps": (0.1, "[0, 1]"),
           "ms": ([3, 4, 5, 6], "[0, 9]"), "minS_eps": (0.1, "(0, 0.5)"), "c_pp": (1.0, "(0, inf)")},
}


def _fits(value, like, interval: str) -> bool:
    """Whether a JSON value has the type of its default ``like`` (a float
    takes an int, a bool is no int, a list's items fit its first item) and
    lies, or each of its items lies, in ``interval``."""
    if isinstance(like, list):
        return isinstance(value, list) and all(_fits(v, like[0], interval) for v in value)
    if type(value) not in {int, type(like)}:
        return False
    lo, hi = (float(b) for b in interval[1:-1].split(","))
    return (lo < value if interval[0] == "(" else lo <= value) and (
        value < hi if interval[-1] == ")" else value <= hi)


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    out: str | None = None
    timing: bool = False

    def __post_init__(self):
        if type(self.experiment) is not str or self.experiment not in _PARAM_SCHEMAS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for key, kinds in (("seed", (int,)), ("params", (dict,)), ("out", (str, type(None))), ("timing", (bool,))):
            if type(value := getattr(self, key)) not in kinds:
                names = " or ".join(k.__name__ for k in kinds)
                raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
        schema = _PARAM_SCHEMAS[self.experiment]
        for key, value in self.params.items():
            if key not in schema:
                raise ValueError(f"unknown parameter {key!r} for {self.experiment}")
            like, interval = schema[key]
            if not _fits(value, like, interval):
                raise ValueError(f"{self.experiment} param {key!r} must be like {like!r} and lie in "
                                 f"{interval}, got {value!r}")
        self.params = {key: like for key, (like, _i) in schema.items()} | self.params
        if self.experiment == "E3" and max(self.params["mus"], default=0) > self.params["N"]:
            raise ValueError(f"E3 param 'mus' must lie in [0, N] for N = {self.params['N']}, "
                             f"got {self.params['mus']!r}")  # p = mu / N is a probability

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(obj, dict) or "experiment" not in obj:
            raise ValueError("config must be a JSON object with an 'experiment' key")
        allowed = {"experiment", "seed", "params", "out", "timing"}
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown config key(s): {sorted(unknown)}")
        return cls(
            experiment=obj["experiment"],
            seed=obj.get("seed", 0),
            params=obj.get("params", {}),
            out=obj.get("out"),
            timing=obj.get("timing", False),
        )


def run_experiment(cfg: ExperimentConfig) -> list:
    runner = _RUNNERS[cfg.experiment]
    rng = RngStream(cfg.seed, ("experiment", cfg.experiment))
    start = time.perf_counter()
    rows = runner(cfg, rng)
    if cfg.timing:
        elapsed = time.perf_counter() - start
        for row in rows:
            row.wall_time = elapsed / max(1, len(rows))
    return rows


# -- scenarios ---------------------------------------------------------------


def _e1_connectivity(cfg, rng):
    N = cfg.params["N"]
    threshold = math.sqrt(math.log(N) / N)
    rows = []
    for factor in cfg.params["radius_factors"]:
        R = factor * threshold
        for seed in cfg.params["seeds"]:
            net = planar.sample_network(N, R, rng.spawn("net", seed, str(factor)))
            rows.append(
                ResultRow(
                    "E1",
                    {"N": N, "factor": factor, "R": R},
                    value=int(planar.is_connected(net)),
                    reference=threshold,
                    seed=seed,
                )
            )
    return rows


def _e2_decomposition(cfg, rng):
    N = cfg.params["N"]
    R = math.sqrt(10 * math.log(N) / N)
    m = int(math.floor(1.0 / R))
    M = m * m
    rows = []
    for seed in cfg.params["seeds"]:
        net = planar.sample_network(N, R, rng.spawn("net", seed))
        params = {"N": N, "R": R, "M": M}
        try:
            dec = planar.decompose_for_uniform_counts(net)
        except (UndersizedCell, EmptyS2) as exc:
            rows.append(
                ResultRow("E2", {**params, "error": type(exc).__name__},
                          value=None, seed=seed, ok=False)
            )
            continue
        rep = planar.verify_decomposition(net, dec)
        ok = (
            rep["ok"]
            and planar.s1_neighborhoods_disjoint(net, dec)
            and dec.n == math.ceil(N / (4 * M))
            and dec.D == 18 * N / M
            and dec.d <= 72.0  # d <= 72 T/N, and T = N under uniform counts
        )
        rows.append(
            ResultRow(
                "E2",
                {**params, "n": dec.n, "D": dec.D, "d": dec.d},
                value=dec.k,
                reference=M / 18,
                seed=seed,
                ok=ok,
            )
        )
    return rows


def _e3_chernoff(cfg, rng):
    # imported here: scipy.stats alone doubles the cost of ``import noisynet``
    from scipy.stats import binom

    N = cfg.params["N"]
    rows = []
    for mu in cfg.params["mus"]:
        p = mu / N
        tail = float(binom.cdf(math.floor(mu / 2), N, p))
        bound = planar.chernoff_bound(mu)
        rows.append(
            ResultRow(
                "E3",
                {"N": N, "p": p, "mu": mu},
                value=tail,
                reference=bound,
                ok=tail <= bound,
            )
        )
    return rows


def _e4_regeneration(cfg, rng):
    rows = []
    for t in cfg.params["ts"]:
        for eps in cfg.params["epses"]:
            table = regen_table(t, eps)
            for b in cfg.params["bits"]:
                gamma = eps**t
                c_law = {b: 1 - gamma, 1 - b: gamma}
                got = regen_output_law(c_law, table)
                want = iid_noisy_law(b, eps, t)
                tv = float(0.5 * np.abs(got - want).sum())
                rows.append(
                    ResultRow(
                        "E4",
                        {"t": t, "eps": eps, "b": b},
                        value=tv,
                        reference=1e-12,
                        ok=tv <= 1e-12,
                    )
                )
    return rows


def _e5_chain(cfg, rng):
    rows = []
    for i in range(cfg.params["instances"]):
        p = random_instances.random_tiny_protocol(rng, i)
        d = random_instances.max_input_sends(p)
        _tree, _art, report = reductions.protocol_to_read_once(p, d)
        p1, _p2 = report["protocols"]
        tv = reductions.check_simulation_fidelity(p, p1, report["semi_noisy"])
        advs = report["advantages"]
        ok = report["monotone"] and tv <= 1e-12
        rows.append(
            ResultRow(
                "E5",
                {
                    "instance": i,
                    "d": d,
                    "tv": tv,
                    "chain": [advs[s] for s in reductions.STAGES if s != "ordered"],
                },
                value=advs["read_once"],
                reference=advs["general"],
                seed=cfg.seed,
                ok=ok,
            )
        )
    return rows


def _e6_rearrangement(cfg, rng):
    rows = []
    for i in range(cfg.params["instances"]):
        r = rng.spawn("inst", i)
        k = 1 + int(r.spawn("k").integers(cfg.params["k"]))
        depth = 1 + int(r.spawn("d").integers(cfg.params["max_depth"]))
        spaces = random_instances.random_spaces(r, k, max_size=2)
        tree, levels = random_instances.random_oblivious_tree(r, spaces, depth)
        adv_in, _w = trees.tree_advantage(tree, spaces)
        out, cert = trees.reorder(tree, spaces)
        adv_out, _w = trees.tree_advantage(out, spaces)
        ok = (
            not trees.alternations(out)
            and trees.query_multiset(out) == trees.query_multiset(tree)
            and adv_out >= adv_in - 1e-9
        )
        rows.append(
            ResultRow(
                "E6",
                {"instance": i, "k": k, "depth": depth, "levels": levels,
                 "steps": len(cert)},
                value=adv_out,
                reference=adv_in,
                seed=cfg.seed,
                ok=ok,
            )
        )
    return rows


def _e7_product(cfg, rng):
    rows = []
    for i in range(cfg.params["instances"]):
        r = rng.spawn("inst", i)
        k = 1 + int(r.spawn("k").integers(cfg.params["k"]))
        spaces = random_instances.random_spaces(r, k)
        tree, order = random_instances.random_readonce_tree(r, spaces)
        adv, _w, alphas = trees.readonce_advantage(tree, spaces)
        bound = max(alphas.values()) ** len(alphas) if alphas else 1.0
        rows.append(
            ResultRow(
                "E7",
                {"instance": i, "k": k, "order": order,
                 "alphas": sorted(alphas.values())},
                value=adv,
                reference=bound,
                seed=cfg.seed,
                ok=adv <= bound + 1e-9,
            )
        )
    return rows


def _e8_budget(cfg, rng):
    rows = []
    n, eps = cfg.params["n"], cfg.params["eps"]
    for r in cfg.params["reps"]:
        p = star_xor(n, reps=r, eps=eps)
        est = error_probability(p, parity_of_inputs, method="exact")
        rows.append(
            ResultRow(
                "E8",
                {"protocol": "star_xor", "n": n, "reps": r, "eps": eps,
                 "budget": p.T},
                value=est.value,
                reference=None,
                ok=None,
            )
        )
    prev = None
    for m in cfg.params["ms"]:
        N = 2.0 ** (2**m)
        S = adv_mod.min_transmission_ratio(
            N, cfg.params["minS_eps"], c_pp=cfg.params["c_pp"]
        )
        rows.append(
            ResultRow(
                "E8",
                {"quantity": "min_transmission_ratio", "m": m,
                 "log2N": 2**m, "eps": cfg.params["minS_eps"]},
                value=S,
                reference=prev,
                ok=(prev is None or S >= prev),
            )
        )
        prev = S
    return rows


_RUNNERS = {
    "E1": _e1_connectivity,
    "E2": _e2_decomposition,
    "E3": _e3_chernoff,
    "E4": _e4_regeneration,
    "E5": _e5_chain,
    "E6": _e6_rearrangement,
    "E7": _e7_product,
    "E8": _e8_budget,
}
