"""Checks of every operation's output against computations made here.

``summarize`` keeps what a check needs from an operation's output;
``digest`` reduces a summary to a string that a later round must repeat;
``check`` returns (ok, detail).  Apart from the fidelity TV and the
stage advantages, which the chain reports about itself, every reference
value is computed in this module with numpy and scipy, not by the program.
All of this runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import re
import traceback

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.stats import binom

FIDELITY_TV = 1e-12  # the ROADMAP's law-preservation contract
MONOTONE_SLACK = 1e-9  # the chain's own slack for advantage monotonicity
CLOSED_FORM_TOL = 1e-12
D_REL_TOL = 1e-12
#: Per-outcome probability that a correct advantage_mc value lands outside
#: the Bernstein tolerance.
MC_DELTA = 1e-9

STAGES = ("general", "semi_noisy", "noisy_copy", "xnd_tree", "ordered", "read_once")


def _positions_digest(positions) -> str:
    return hashlib.sha1(np.ascontiguousarray(positions).tobytes()).hexdigest()


# -- summaries --------------------------------------------------------------


def summarize(workload: str, out):
    if isinstance(out, Exception):
        return {"error": "".join(traceback.format_exception(out)).strip()}
    return _SUMMARIZE[workload](out)


def _summarize_chain(out):
    tv, report = out
    return {
        "tv": float(tv),
        "advantages": tuple(float(report["advantages"][s]) for s in STAGES),
        "monotone": bool(report["monotone"]),
    }


def _summarize_decompose(out):
    net, dec, report, disjoint, bounded = out
    s = {"positions": net.positions, "R": net.radius}
    if isinstance(dec, Exception):
        s["raised"] = (type(dec).__name__, str(dec))
        return s
    s.update(
        n=dec.n, k=dec.k, D=dec.D, cells=[tuple(c) for c in dec.cells],
        input_blocks=dec.input_blocks, aux_blocks=dec.aux_blocks, aux0=dec.aux0,
        verified=bool(report["ok"]), disjoint=bool(disjoint),
        bounded=bool(bounded["ok"]),
    )
    return s


def _summarize_connectivity(out):
    net, connected = out
    return {"positions": net.positions, "R": net.radius, "connected": bool(connected)}


def _summarize_montecarlo(out):
    adv, err = out
    per_input = {
        tuple(int(b) for b in key): (float(e), (float(lo), float(hi)))
        for key, (e, (lo, hi)) in err.per_input.items()
    }
    return {"adv": float(adv.value), "adv_ci": tuple(map(float, adv.ci)),
            "err": float(err.value), "per_input": per_input}


_SUMMARIZE = {
    "chain": _summarize_chain,
    "decompose": _summarize_decompose,
    "connectivity": _summarize_connectivity,
    "montecarlo": _summarize_montecarlo,
}


def digest(summary: dict) -> str:
    """A string that changes whenever the summarised output changes."""
    parts = []
    for key in sorted(summary):
        value = summary[key]
        if key == "positions":
            value = _positions_digest(value)
        parts.append(f"{key}={value!r}")
    return hashlib.sha1(";".join(parts).encode()).hexdigest()


# -- checks -----------------------------------------------------------------


def check(workload: str, inp, summary: dict):
    if "error" in summary:
        return False, f"raised {summary['error']}"
    return _CHECK[workload](inp, summary)


def star_leaf_errors(reps: int, eps: float):
    """(q0, q1): majority decoding error of one leaf for input bit 0 and 1,
    ties decoding to 0."""
    q0 = float(binom.sf(math.floor(reps / 2), reps, eps))
    q1 = float(binom.sf(math.ceil(reps / 2) - 1, reps, eps))
    return q0, q1


def star_input_error(key, reps: int, eps: float) -> float:
    """Exact probability that star-XOR's output differs from the parity."""
    q = star_leaf_errors(reps, eps)
    prod = 1.0
    for b in key:
        prod *= 1.0 - 2.0 * q[b]
    return (1.0 - prod) / 2.0


def _check_chain(inp, s):
    problems = []
    if not s["tv"] <= FIDELITY_TV:
        problems.append(f"fidelity TV {s['tv']:.3g} > {FIDELITY_TV:g}")
    advs = s["advantages"]
    for a, b, name in zip(advs, advs[1:], STAGES[1:]):
        if not a <= b + MONOTONE_SLACK:
            problems.append(f"advantage drops to {b!r} at {name} from {a!r}")
    if not s["monotone"]:
        problems.append("the chain reports monotone=False")
    if inp.star is not None:
        n, reps, eps = inp.star
        q0, q1 = star_leaf_errors(reps, eps)
        want = (1.0 - q0 - q1) ** n
        if not abs(advs[0] - want) <= CLOSED_FORM_TOL:
            problems.append(f"general advantage {advs[0]!r} != closed form {want!r}")
    return not problems, "; ".join(problems)


def _cells(positions, m: int):
    """1-based (row, col) per node; a point on a gridline belongs to the
    lower-index cell, as in the program's tessellation."""
    side = 1.0 / m
    col = np.clip(np.ceil(positions[:, 0] / side).astype(np.int64), 1, m)
    row = np.clip(np.ceil(positions[:, 1] / side).astype(np.int64), 1, m)
    return row, col


def _check_decompose(inp, s):
    pos, R = s["positions"], s["R"]
    N = len(pos)
    m = int(math.floor(1.0 / R))
    M = m * m
    mu = N / M
    D_want = 18 * N / M  # every node transmits once, so T = N
    row, col = _cells(pos, m)
    counts = np.zeros((m + 1, m + 1), dtype=np.int64)
    np.add.at(counts, (row, col), 1)

    if "raised" in s:
        kind, msg = s["raised"]
        if kind == "UndersizedCell":
            got = re.search(r"cell \((\d+), (\d+)\) holds (\d+) nodes", msg)
            if got is None:
                return False, f"unparsable UndersizedCell message {msg!r}"
            r, c, held = map(int, got.groups())
            ok = counts[r, c] == held and held < mu / 2
            return ok, "" if ok else f"cell ({r}, {c}) holds {counts[r, c]}, claim {msg!r}"
        return False, f"raised {kind}: {msg}"

    problems = []
    for name in ("verified", "disjoint", "bounded"):
        if not s[name]:
            problems.append(f"program reports {name}=False")
    blocks = s["input_blocks"] + s["aux_blocks"] + [s["aux0"]]
    members = np.concatenate([np.asarray(b, dtype=np.int64) for b in blocks])
    if len(members) != N or np.bincount(members, minlength=N).max(initial=0) != 1:
        problems.append("blocks do not partition the nodes")
    n_want = math.ceil(N / (4 * M))
    if s["n"] != n_want or any(len(b) != n_want for b in s["input_blocks"]):
        problems.append(f"input block sizes differ from n = {n_want}")
    cells = np.asarray(s["cells"], dtype=np.int64).reshape(-1, 2)
    if s["k"] != len(cells) or len(cells) != len(s["input_blocks"]) or not len(cells):
        problems.append("k, cells and input blocks disagree")
    if len(cells) and ((cells - 1) % 3).any():
        problems.append("a selected cell is not in the (1 mod 3) family")
    cheb = np.abs(cells[:, None, :] - cells[None, :, :]).max(axis=2)
    np.fill_diagonal(cheb, 3)
    if len(cells) and cheb.min() < 3:
        problems.append("selected cells have overlapping 3x3 neighbourhoods")
    for (r, c), blk in zip(cells, s["input_blocks"]):
        idx = np.asarray(blk, dtype=np.int64)
        if ((row[idx] != r) | (col[idx] != c)).any():
            problems.append(f"input block of cell ({r}, {c}) leaves its cell")
            break
    if not abs(s["D"] - D_want) <= D_REL_TOL * D_want:
        problems.append(f"D = {s['D']!r}, expected 18N/M = {D_want!r}")
    return not problems, "; ".join(problems)


def reference_connected(positions, R: float) -> bool:
    """Connectivity of the strict-< radius graph, built here with cKDTree
    and solved with scipy's connected_components."""
    N = len(positions)
    pairs = cKDTree(positions).query_pairs(R, output_type="ndarray")
    diff = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    pairs = pairs[np.hypot(diff[:, 0], diff[:, 1]) < R]
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(N, N)
    )
    n_comp, _labels = connected_components(graph, directed=False)
    return n_comp == 1


def _check_connectivity(inp, s):
    want = reference_connected(s["positions"], s["R"])
    ok = s["connected"] == want
    return ok, "" if ok else f"is_connected={s['connected']}, reference {want}"


def bernstein_tolerance(variance: float, trials: int, delta: float = MC_DELTA) -> float:
    """t with Pr[|mean - E| >= t] <= delta for the mean of ``trials`` iid
    values that lie within 2 of their expectation (Bernstein)."""
    L = math.log(2.0 / delta)
    a = 4.0 * L / 3.0
    return (a + math.sqrt(a * a + 8.0 * trials * L * variance)) / (2.0 * trials)


def star_advantage_terms(n: int, reps: int, eps: float):
    """Per output bit c: (E[f 1{out=c}], Pr[out=c]) under the uniform law,
    for f the parity sign."""
    corr, prob = [0.0, 0.0], [0.0, 0.0]
    for x in range(2**n):
        key = tuple((x >> (n - 1 - i)) & 1 for i in range(n))
        par = sum(key) % 2
        err = star_input_error(key, reps, eps)
        f = -1.0 if par else 1.0
        for c, pc in ((par, 1.0 - err), (1 - par, err)):
            corr[c] += f * pc / 2**n
            prob[c] += pc / 2**n
    return corr, prob


def _check_montecarlo(inp, s):
    n, reps, eps = inp.star
    problems = []
    for key, (_e, (lo, hi)) in s["per_input"].items():
        want = star_input_error(key, reps, eps)
        if not lo - 1e-12 <= want <= hi + 1e-12:
            problems.append(
                f"exact error {want:.3g} of input {key} outside [{lo:.3g}, {hi:.3g}]"
            )
    corr, prob = star_advantage_terms(n, reps, eps)
    adv = sum(abs(a) for a in corr)
    tol = sum(
        bernstein_tolerance(max(pc - a * a, 0.0), inp.scalar_trials)
        for a, pc in zip(corr, prob)
    )
    if not abs(s["adv"] - adv) <= tol:
        problems.append(f"advantage_mc {s['adv']:.4f}, exact {adv:.4f}, tolerance {tol:.4f}")
    return not problems, "; ".join(problems)


_CHECK = {
    "chain": _check_chain,
    "decompose": _check_decompose,
    "connectivity": _check_connectivity,
    "montecarlo": _check_montecarlo,
}


def check_round(workload: str, summaries) -> tuple:
    """Properties of a whole round rather than of one output.  Each
    ``connected`` bit has been checked against the reference on its own."""
    if workload == "connectivity":
        seen = {s.get("connected") for s in summaries} - {None}
        if seen != {True, False}:
            return False, f"the round holds only connected={seen} networks"
    return True, ""
