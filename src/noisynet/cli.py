"""Command-line harness.

Exit codes: 0 on success, 1 on invalid input (bad flags, unreadable or
malformed files, out-of-range parameters), 2 when a requested property or
certification check fails on valid input.
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import advantage as adv_mod
from . import engine, experiments, planar, reductions, trees
from .errors import NoisyNetError
from .protocol import protocol_from_text, star_xor
from .rng import RngStream


class CheckFailure(Exception):
    """A property/certification check failed on otherwise valid input."""


def _require_law(what: str, tv: float):
    """A check failure when the law check ``what`` reads a TV above 1e-12."""
    if tv > 1e-12:
        raise CheckFailure(f"{what} TV {tv:g} exceeds 1e-12")


def _emit(text: str, out=None):
    """Write ``text`` to the file ``out``, or to stdout when none is given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _echo_json(obj, out=None):
    _emit(json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n", out)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _reject_given(ctx, names, reason: str):
    """Invalid input when the command line sets any of the options ``names``
    (parameter names), which ``reason`` says are not read."""
    given = [o.opts[0] for o in ctx.command.params if o.name in names
             and ctx.get_parameter_source(o.name) is not click.core.ParameterSource.DEFAULT]
    if given:
        raise click.ClickException(f"{', '.join(given)} cannot be given {reason}")


@click.group()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON config file (used by the experiment subcommand).")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output file; stdout when omitted.")
@click.pass_context
def cli(ctx, seed, config_path, out_path):
    """Noisy broadcast networks: sampling, protocols, reductions, trees."""
    ctx.obj = {
        "seed": seed,
        "config": config_path,
        "out": out_path,
    }


@cli.command("gen-network")
@click.option("--n", "n_nodes", type=int, required=True)
@click.option("--radius", type=float, default=None,
              help="Transmission radius; defaults to sqrt(10 ln N / N).")
@click.pass_context
def gen_network(ctx, n_nodes, radius):
    """Sample a random planar network and write it as JSON."""
    if n_nodes < 1:
        raise click.ClickException("--n must be >= 1")
    if radius is None:
        radius = math.sqrt(10 * math.log(n_nodes) / n_nodes)
    rng = RngStream(ctx.obj["seed"], ("cli", "gen-network"))
    net = planar.sample_network(n_nodes, radius, rng)
    _emit(net.to_json() + "\n", ctx.obj["out"])
    click.echo(
        f"N={n_nodes} R={radius:.6g} connected={planar.is_connected(net)}",
        err=True,
    )


@cli.command("decompose")
@click.option("--network", "network_path", type=click.Path(), default=None,
              help="Network JSON; sampled fresh when omitted.")
@click.option("--n", "n_nodes", type=int, default=20000, show_default=True)
@click.pass_context
def decompose_cmd(ctx, network_path, n_nodes):
    """Decompose a network into certified input blocks (uniform counts)."""
    if network_path is None and n_nodes < 1:
        raise click.ClickException("--n must be >= 1")
    if network_path:
        net = planar.PlanarNetwork.from_json(_read(network_path))
    else:
        radius = math.sqrt(10 * math.log(n_nodes) / n_nodes)
        rng = RngStream(ctx.obj["seed"], ("cli", "decompose"))
        net = planar.sample_network(n_nodes, radius, rng)
    dec = planar.decompose_for_uniform_counts(net)
    report = planar.verify_decomposition(net, dec)
    if not (report["ok"] and planar.s1_neighborhoods_disjoint(net, dec)):
        raise CheckFailure(f"decomposition certification failed: {report}")
    out = ctx.obj["out"]
    if out:
        with open(out, "w") as fh:
            fh.write(dec.to_json() + "\n")
    click.echo(
        f"n={dec.n} k={dec.k} d={dec.d:.6g} D={dec.D:.6g} certified=True"
    )


@cli.command("run-protocol")
@click.option("--protocol-file", type=click.Path(), default=None,
              help="Protocol text; star_xor(--n, --reps, --eps) when omitted.")
@click.option("--n", "n_inputs", type=int, default=3, show_default=True)
@click.option("--reps", type=int, default=1, show_default=True)
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--method", type=click.Choice(["exact", "mc"]),
              default="exact", show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=100_000, show_default=True)
@click.pass_context
def run_protocol(ctx, protocol_file, n_inputs, reps, eps, method, trials):
    """Report a protocol's worst-case parity error probability."""
    if method == "exact":
        _reject_given(ctx, ("trials",), "with --method exact")
    if protocol_file:
        _reject_given(ctx, ("n_inputs", "reps", "eps"), "with --protocol-file")
        p = protocol_from_text(_read(protocol_file))
    else:
        p = star_xor(n_inputs, reps=reps, eps=eps)
    rng = RngStream(ctx.obj["seed"], ("cli", "run-protocol"))
    est = engine.error_probability(
        p, engine.parity_of_inputs, method=method, trials=trials, rng=rng
    )
    _echo_json(
        {
            "T": p.T,
            "eps": p.eps,
            "method": est.method,
            "error": est.value,
            "ci": est.ci,
        },
        ctx.obj["out"],
    )


@cli.command("reduce")
@click.option("--protocol-file", type=click.Path(), default=None,
              help="Protocol text; a seeded tiny instance when omitted.")
@click.option("--stage", type=click.Choice(["semi", "copy", "xnd", "readonce"]),
              default="readonce", show_default=True)
@click.option("--d", "d_max", type=int, default=None,
              help="Per-input send cap; inferred from the schedule by default.")
@click.pass_context
def reduce_cmd(ctx, protocol_file, stage, d_max):
    """Run the reduction chain and print its certification report."""
    from . import random_instances

    if protocol_file:
        p = protocol_from_text(_read(protocol_file))
    else:
        rng = RngStream(ctx.obj["seed"], ("cli", "reduce"))
        p = random_instances.random_tiny_protocol(rng, 0)
    if d_max is None:
        d_max = random_instances.max_input_sends(p)

    out = ctx.obj["out"]
    if stage == "readonce":
        _readonce, art, report = reductions.protocol_to_read_once(p, d_max)
        # the chain checks no law; check its own semi-noisy and tree stages
        p1, p2 = report["protocols"]
        fidelity_tv = reductions.check_simulation_fidelity(p, p1, report["semi_noisy"])
        leaf_law_tv = reductions.check_leaf_law(p2, art)
        _echo_json(
            {"stage": "readonce", "advantages": report["advantages"],
             "monotone": report["monotone"], "alphas": report["alphas"],
             "fidelity_tv": fidelity_tv, "leaf_law_tv": leaf_law_tv},
            out,
        )
        _require_law("simulation fidelity", fidelity_tv)
        _require_law("leaf-law", leaf_law_tv)
        if not report["monotone"]:
            raise CheckFailure("advantage chain is not monotone")
        return
    # the chain's prefix up to ``stage``: semi -> copy -> fix -> xnd
    p1, report = reductions.to_semi_noisy(p)
    if stage == "semi":
        tv = reductions.check_simulation_fidelity(p, p1, report)
        _echo_json({"stage": "semi", "T": p1.T, "fidelity_tv": tv}, out)
        _require_law("simulation fidelity", tv)
        return
    p2, report = reductions.to_noisy_copy(p1, d_max)
    p2, report["fixed"] = reductions.fix_randomness(p2)
    if stage == "copy":
        _echo_json({"stage": "copy", "T": p2.T, "report": report}, out)
        return
    art = reductions.to_xnd_tree(p2)
    tv = reductions.check_leaf_law(p2, art)
    _echo_json(
        {"stage": "xnd", "depth": trees.depth(art.root),
         "leaf_law_tv": tv, "report": art.report},
        out,
    )
    _require_law("leaf-law", tv)


@cli.command("tree")
@click.argument("tree_file", type=click.Path())
@click.option("--reorder", "do_reorder", is_flag=True)
@click.option("--collapse", "do_collapse", is_flag=True)
@click.option("--advantage", "do_advantage", is_flag=True)
@click.pass_context
def tree_cmd(ctx, tree_file, do_reorder, do_collapse, do_advantage):
    """Rearrange a decision tree (JSON in, JSON out) or score it."""
    root, spaces, meta = trees.tree_from_json(_read(tree_file))
    if not (do_reorder or do_collapse or do_advantage):
        raise click.ClickException(
            "choose at least one of --reorder/--collapse/--advantage"
        )
    info = {}
    if do_reorder:
        root, cert = trees.reorder(root, spaces)
        info["reorder_steps"] = len(cert)
        if trees.alternations(root):
            raise CheckFailure("reorder left alternations in the tree")
    if do_collapse:
        if not trees.is_ordered(root):
            raise CheckFailure("--collapse needs an ordered tree (try --reorder)")
        root, record = trees.collapse_to_read_once(root)
        info["collapsed_levels"] = len(record)
    if do_advantage:
        value, _w = trees.tree_advantage(root, spaces)
        info["advantage"] = value
    out = ctx.obj["out"]
    if out and (do_reorder or do_collapse):
        with open(out, "w") as fh:
            fh.write(trees.tree_to_json(root, spaces, meta) + "\n")
    _echo_json({"depth": trees.depth(root), **info})


@cli.command("advantage")
@click.option("--protocol-file", type=click.Path(), required=True)
@click.option("--method", type=click.Choice(["exact", "mc"]),
              default="exact", show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=100_000, show_default=True)
@click.pass_context
def advantage_cmd(ctx, protocol_file, method, trials):
    """Exact or Monte-Carlo parity advantage of a protocol's output bit."""
    if method == "exact":
        _reject_given(ctx, ("trials",), "with --method exact")
    p = protocol_from_text(_read(protocol_file))
    mu = adv_mod.uniform_distribution(len(p.input_nodes()))
    if method == "exact":
        ch = engine.exact_channel(p)
        est = adv_mod.advantage_exact(ch, adv_mod.parity_sign, mu)
    else:
        rng = RngStream(ctx.obj["seed"], ("cli", "advantage"))

        def evaluator(x_key, r):
            x_bits = dict(zip(engine.input_order(p), x_key))
            return engine.execute(p, x_bits, r).output

        est = adv_mod.advantage_mc(
            evaluator, adv_mod.parity_sign, mu, trials, rng
        )
    _echo_json(
        {"method": est.method, "advantage": est.value, "ci": est.ci,
         "level": est.level, "interval": est.interval},
        ctx.obj["out"],
    )


@cli.command("bounds")
@click.option("--gks", nargs=3, type=float, default=None,
              metavar="EPS DELTA S", help="Depth lower bound evaluator.")
@click.option("--alpha", nargs=4, type=float, default=None,
              metavar="N D EPS C", help="Single-block advantage bound.")
@click.option("--min-s", "min_s", nargs=2, type=float, default=None,
              metavar="N EPS", help="Minimum transmission ratio.")
@click.pass_context
def bounds_cmd(ctx, gks, alpha, min_s):
    """Evaluate closed-form bounds; prints CSV rows (bound,args,value)."""
    rows = []
    if gks:
        eps, delta, s = gks
        rows.append(("gks_depth_bound", gks, adv_mod.gks_depth_bound(eps, delta, s)))
    if alpha:
        n, D, eps, c = alpha
        if not n.is_integer():
            raise ValueError(f"N must be a whole number, got {n:g}")
        rows.append(("alpha_bound", alpha, adv_mod.alpha_bound(int(n), D, eps, c)))
    if min_s:
        N, eps = min_s
        rows.append(
            ("min_transmission_ratio", min_s, adv_mod.min_transmission_ratio(N, eps))
        )
    if not rows:
        raise click.ClickException("choose at least one of --gks/--alpha/--min-s")
    lines = ["bound,args,value"]
    for name, args, value in rows:
        arg_text = ";".join(f"{a:.12g}" for a in args)
        lines.append(f"{name},{arg_text},{value:.12g}")
    _emit("\n".join(lines) + "\n", ctx.obj["out"])


@cli.command("experiment")
@click.option("--experiment", "exp_id", default=None,
              help="Run a scenario with default parameters (e.g. E3).")
@click.pass_context
def experiment_cmd(ctx, exp_id):
    """Run an experiment scenario and emit its CSV."""
    if ctx.obj["config"]:
        cfg = experiments.ExperimentConfig.from_json(_read(ctx.obj["config"]))
        if ctx.parent.get_parameter_source("seed") is not click.core.ParameterSource.DEFAULT:
            cfg.seed = ctx.obj["seed"]
    elif exp_id:
        cfg = experiments.ExperimentConfig(experiment=exp_id, seed=ctx.obj["seed"])
    else:
        raise click.ClickException("provide --config or --experiment")
    rows = experiments.run_experiment(cfg)
    _emit(experiments.render_csv(rows), ctx.obj["out"] or cfg.out)
    bad = [r for r in rows if r.ok is False]
    if bad:
        raise CheckFailure(
            f"{len(bad)} of {len(rows)} rows failed their checks"
        )


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.Abort:
        return 1
    except CheckFailure as exc:
        click.echo(f"check failed: {exc}", err=True)
        return 2
    except (click.ClickException, NoisyNetError, ValueError, OSError) as exc:
        text = exc.format_message() if isinstance(exc, click.ClickException) else exc
        click.echo(f"error: {text}", err=True)
        return 1
    except SystemExit as exc:
        code = exc.code or 0
        return 1 if code else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
