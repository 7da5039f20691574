"""Acceptance gate: the eight headline criteria, each printing a
pass/fail line with its runtime.  Run with ``pytest -s`` to see the
lines as the criteria complete."""

import math
import time

import numpy as np
from scipy.stats import binom

from noisynet import advantage as adv
from noisynet import engine, planar, random_instances as ri, reductions, trees
from noisynet.noise import iid_noisy_law, regen_output_law, regen_table
from noisynet.protocol import check_bounded_counts, star_xor
from noisynet.rng import RngStream
from tree_helpers import (
    functions_covered,
    line_tree,
    random_move_to_root_levels,
    random_tree_for_levels,
)

# Frozen regression values for criterion 8, computed once by the grid
# search on S * log2(1/eps^(72 S))^2 / eps^(144 S) >= log2 N at eps=0.1,
# grid ratio 2^(1/16), and cross-checked against a left-to-right scan.
MIN_RATIO_TABLE = {
    3: 0.01313900648833926,
    4: 0.014328188175072953,
    5: 0.015624999999999958,
    6: 0.017039183322894603,
}


def report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[{status}] criterion {number}: {name} ({elapsed:.2f}s){extra}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_regeneration_exactness():
    start = time.perf_counter()
    worst = 0.0
    for t in (1, 2, 3, 4):
        for eps in (0.05, 0.1, 0.2, 0.3, 0.45):
            table = regen_table(t, eps)
            gamma = eps**t
            for b in (0, 1):
                got = regen_output_law({b: 1 - gamma, 1 - b: gamma}, table)
                tv = 0.5 * np.abs(got - iid_noisy_law(b, eps, t)).sum()
                worst = max(worst, tv)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "regeneration exactness", ok, elapsed, f"max TV {worst:.2e}")


def test_criterion_2_reduction_chain_monotonicity():
    start = time.perf_counter()
    rng = RngStream(2024, ("acceptance", "chain"))
    violations = []
    worst_tv = 0.0
    for i in range(200):
        p = ri.random_tiny_protocol(rng, i)
        d = ri.max_input_sends(p)
        p1, rep1 = reductions.to_semi_noisy(p)
        tv = reductions.check_simulation_fidelity(p, p1, rep1)
        worst_tv = max(worst_tv, tv)
        if tv > 1e-12:
            violations.append((i, "fidelity", tv))
        _ro, _art, rep = reductions.protocol_to_read_once(p, d)
        if not rep["monotone"]:
            violations.append((i, "monotone", rep["advantages"]))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 300.0
    report(
        2,
        "reduction-chain monotonicity (200 instances)",
        ok,
        elapsed,
        f"max fidelity TV {worst_tv:.2e}, violations {violations[:3]}",
    )


def test_criterion_3_rearrangement():
    start = time.perf_counter()
    rng = RngStream(2024, ("acceptance", "rearrange"))
    violations = []
    for i in range(200):
        r = rng.spawn("case", i)
        k = 1 + int(r.spawn("k").integers(3))
        d = 1 + int(r.spawn("d").integers(6))
        spaces = ri.random_spaces(r, k, max_size=2)

        # a last block queried nowhere else moves to the root in reorder's
        # first step, when the tree has an alternation
        mlevels = random_move_to_root_levels(r, k, min(d, 4))
        mt = random_tree_for_levels(r, spaces, mlevels)
        a0, _ = trees.tree_advantage(mt, spaces)
        moved, mcert = trees.reorder(mt, spaces)
        a_m, _ = trees.tree_advantage(moved, spaces)
        if len(mcert) > 1 and (mcert[0]["cut_level"] != 0
                               or mcert[0]["advantage_after"] < a0 - 1e-9):
            violations.append((i, "move_to_root"))
        if a_m < a0 - 1e-9 or not functions_covered(moved, mt):
            violations.append((i, "advantage or functions"))

        # reorder on a fully random oblivious tree
        t, _levels = ri.random_oblivious_tree(r, spaces, d)
        b0, _ = trees.tree_advantage(t, spaces)
        out, _cert = trees.reorder(t, spaces)
        b1, _ = trees.tree_advantage(out, spaces)
        if trees.alternations(out):
            violations.append((i, "alternations"))
        if trees.query_multiset(out) != trees.query_multiset(t):
            violations.append((i, "query counts"))
        if b1 < b0 - 1e-9:
            violations.append((i, "advantage", b0, b1))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 300.0
    report(3, "rearrangement (200 trees)", ok, elapsed, str(violations[:3]))


def test_criterion_4_product_property():
    start = time.perf_counter()
    rng = RngStream(2024, ("acceptance", "product"))
    violations = []
    for i in range(100):
        r = rng.spawn("case", i)
        k = 1 + int(r.spawn("k").integers(4))
        spaces = ri.random_spaces(r, k)
        t, _order = ri.random_readonce_tree(r, spaces)
        value, _w, alphas = trees.readonce_advantage(t, spaces)
        cap = (max(alphas.values()) ** len(alphas)) if alphas else 1.0
        if value > cap + 1e-9:
            violations.append((i, value, cap))

    # noisy single-bit queries at eps = 0.1: advantage 0.8^2 = 0.64
    sp = trees.BlockSpace(
        values=((0, 0), (0, 1), (1, 0), (1, 1)),
        probs=(0.45, 0.05, 0.45, 0.05),
        h=(1, 1, -1, -1),
    )
    branch = tuple(x ^ z for x, z in sp.values)
    pair = line_tree([(0, branch), (1, branch)])
    value, _w, alphas = trees.readonce_advantage(pair, [sp, sp])
    achieved = abs(value - 0.64) <= 1e-9 and all(
        abs(a - 0.8) <= 1e-9 for a in alphas.values()
    )
    elapsed = time.perf_counter() - start
    ok = not violations and achieved and elapsed < 60.0
    report(
        4,
        "read-once product property",
        ok,
        elapsed,
        f"0.8^2 case value {value:.6f}, violations {violations[:3]}",
    )


def test_criterion_5_decomposition():
    start = time.perf_counter()
    N = 20000
    R = math.sqrt(10 * math.log(N) / N)
    m = int(math.floor(1.0 / R))
    M = m * m
    rng = RngStream(2024, ("acceptance", "decompose"))
    successes = 0
    problems = []
    for seed in range(20):
        net = planar.sample_network(N, R, rng.spawn("net", seed))
        try:
            dec = planar.decompose_for_uniform_counts(net)
        except Exception as exc:  # a rare bad draw is tolerated below
            problems.append((seed, type(exc).__name__))
            continue
        rep = planar.verify_decomposition(net, dec)
        counts = {v: 1 for v in range(N)}
        bounded = check_bounded_counts(counts, dec, d=dec.d, D=dec.D)
        good = (
            rep["ok"]
            and bounded["ok"]
            and planar.s1_neighborhoods_disjoint(net, dec)
            and dec.n == 26
            and dec.k >= 13
            and dec.D == 18 * N / 196
            and dec.d <= 72.0
            and M == 196
        )
        if good:
            successes += 1
        else:
            problems.append((seed, "properties"))
    elapsed = time.perf_counter() - start
    ok = successes >= 19 and elapsed < 30.0
    report(
        5,
        "decomposition certification (N=20000, 20 seeds)",
        ok,
        elapsed,
        f"{successes}/20 succeeded, problems {problems[:3]}",
    )


def test_criterion_6_chernoff():
    start = time.perf_counter()
    N = 1000
    violations = []
    for mu in (20, 50, 100, 200):
        p = mu / N
        tail = float(binom.cdf(math.floor(mu / 2), N, p))
        bound = planar.chernoff_bound(mu)
        if tail > bound:
            violations.append((mu, tail, bound))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 1.0
    report(6, "binomial tails below exp(-0.15 mu)", ok, elapsed, str(violations))


def test_criterion_7_engine_validation():
    start = time.perf_counter()
    eps = 0.1
    problems = []

    # star-XOR: exact error 2 eps (1 - eps)
    p = star_xor(2, reps=1, eps=eps)
    exact = engine.error_probability(p, engine.parity_of_inputs, method="exact")
    if abs(exact.value - 2 * eps * (1 - eps)) > 1e-12:
        problems.append(("star-xor", exact.value))

    # repetition-majority: Pr[Bin(r, eps) > r/2], ties decoding to 0
    for r in (3, 4):
        pr = star_xor(1, reps=r, eps=eps)
        est = engine.error_probability(pr, engine.parity_of_inputs, method="exact")
        want0 = float(binom.sf(math.floor(r / 2), r, eps))
        want1 = float(binom.sf(math.ceil(r / 2) - 1, r, eps))
        if abs(est.per_input[(0,)] - want0) > 1e-12:
            problems.append((f"rep{r} bit0", est.per_input[(0,)], want0))
        if abs(est.per_input[(1,)] - want1) > 1e-12:
            problems.append((f"rep{r} bit1", est.per_input[(1,)], want1))

    # Monte Carlo at 1e5 trials: 3-sigma agreement per input
    mc = engine.error_probability(
        p,
        engine.parity_of_inputs,
        method="mc",
        trials=100_000,
        rng=RngStream(2024, ("acceptance", "mc")),
        z=3.0,
    )
    truth = 2 * eps * (1 - eps)
    for key, (err, (lo, hi)) in mc.per_input.items():
        if not lo - 1e-12 <= truth <= hi + 1e-12:
            problems.append(("mc", key, (lo, hi)))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    report(7, "engine vs closed-form errors", ok, elapsed, str(problems[:3]))


def test_criterion_8_bound_evaluators():
    start = time.perf_counter()
    problems = []
    if adv.alpha_bound(10, 0.0, 0.1, c=1.0) != 7 / 8:
        problems.append("alpha floor")
    vals = [adv.alpha_bound(10, D, 0.1, c=1.0) for D in (0, 0.01, 0.05, 0.1, 1.0)]
    if any(b < a for a, b in zip(vals, vals[1:])):
        problems.append("alpha monotonicity")
    ratios = []
    for m, frozen in MIN_RATIO_TABLE.items():
        got = adv.min_transmission_ratio(2.0 ** (2**m), 0.1)
        ratios.append(got)
        if abs(got - frozen) > 1e-15:
            problems.append((m, got, frozen))
    if ratios != sorted(ratios):
        problems.append("ratio not nondecreasing in N")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    report(8, "bound evaluators and frozen table", ok, elapsed, str(problems))
