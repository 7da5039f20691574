"""Command-line harness: subcommands and exit-code contract."""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noisynet import experiments, exprs, random_instances as ri, reductions, trees
from noisynet.cli import cli, main
from noisynet.noise import regen_table
from noisynet.planar import Decomposition
from noisynet.protocol import (
    _LINES,
    cluster_sum,
    protocol_from_text,
    protocol_to_text,
    repetition_majority_parity,
    star_xor,
)
from noisynet.rng import RngStream
from tree_helpers import BAD_TREE_TEXTS, bit_tree, uniform_bit_space


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_outputs_csv(capsys):
    code, out, _err = run(
        capsys, "bounds", "--gks", "0.25", "0.015625", "1.0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bound,args,value"
    assert lines[1].startswith("gks_depth_bound,")
    assert lines[1].endswith("0.00125")


def test_bounds_needs_a_flag(capsys):
    code, _out, err = run(capsys, "bounds")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--gks", "0.1", "0.01", "nan"],
        ["--gks", "0.1", "0.01", "inf"],
        ["--gks", "0.1", "0.01", "-5"],
        ["--min-s", "nan", "0.1"],
        ["--min-s", "inf", "0.1"],
        ["--alpha", "5", "nan", "0.1", "1"],
        ["--alpha", "5", "1", "0.1", "nan"],
        ["--alpha", "5", "inf", "0.1", "1"],
        ["--alpha", "inf", "1", "0.1", "1"],
        ["--alpha", "nan", "1", "0.1", "1"],
        ["--alpha", "5.7", "1", "0.1", "1"],
        ["--gks", "0.1", "x", "1"],  # rejected by click
    ],
)
def test_bounds_rejects_non_finite_and_out_of_range_arguments(capsys, argv):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_command_is_invalid_input(capsys):
    code, _out, _err = run(capsys, "frobnicate")
    assert code == 1


def test_experiment_runs_and_prints_csv(capsys):
    code, out, _err = run(capsys, "--seed", "2", "experiment", "--experiment", "E3")
    assert code == 0
    assert out.splitlines()[0].startswith("schema,experiment,")
    assert len(out.splitlines()) == 5


def test_experiment_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"experiment": "E4", "params": {"ts": [1], "epses": [0.1]}})
    )
    out_path = tmp_path / "rows.csv"
    code, _out, _err = run(
        capsys, "--config", str(cfg), "--out", str(out_path), "experiment"
    )
    assert code == 0
    assert out_path.read_text().startswith("schema,experiment,")


def test_experiment_bad_config_is_invalid_input(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "E4", "typo_key": 1}))
    code, _out, err = run(capsys, "--config", str(cfg), "experiment")
    assert code == 1


@pytest.mark.parametrize(
    "config, key",
    [
        ({"experiment": "E4", "params": {"ts": "abc"}}, "'ts'"),
        ({"experiment": "E1", "params": {"N": "5"}}, "'N'"),
        ({"experiment": "E2", "params": {"N": 1}}, "'N'"),  # R > 1
        ({"experiment": "E3", "params": {"N": 0}}, "'N'"),
        ({"experiment": "E8", "params": {"ms": [40]}}, "'ms'"),  # 2^(2^40) overflows
        ({"experiment": "E3", "seed": 1.7}, "'seed'"),
        ({"experiment": "E3", "timing": "no"}, "'timing'"),
        ({"experiment": "E5", "params": {"instances": -3}}, "'instances'"),
        ({"experiment": "E6", "params": {"k": 0}}, "'k'"),
        ({"experiment": "E3", "params": {"mus": [2000]}}, "'mus' must lie in [0, N]"),
    ],
)
def test_experiment_config_rejects_bad_values(tmp_path, capsys, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(path), "experiment")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and key in err and err.count("\n") == 1


def test_experiment_config_takes_mu_equal_to_n(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "E3", "params": {"N": 10, "mus": [10]}}))
    code, out, _err = run(capsys, "--config", str(path), "experiment")
    assert code == 0
    [row] = list(csv.DictReader(io.StringIO(out)))
    assert (row["params"], row["value"], row["ok"]) == ('{"N":10,"mu":10,"p":1.0}', "0", "1")


@pytest.mark.parametrize("seed", ["0", "7"])
def test_seed_flag_overrides_config_seed(tmp_path, capsys, seed):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "E6", "seed": 5, "params": {"instances": 1}}))
    code, out, _err = run(capsys, "--seed", seed, "--config", str(path), "experiment")
    assert code == 0
    assert out.splitlines()[1].split(",")[-3] == seed


def test_gen_network_and_decompose(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    code, _out, err = run(
        capsys, "--seed", "3", "--out", str(net_path), "gen-network", "--n", "900"
    )
    assert code == 0 and net_path.exists()
    code, out, _err = run(
        capsys, "decompose", "--network", str(net_path)
    )
    assert code == 0
    assert "certified=True" in out


def test_run_protocol_exact(capsys):
    code, out, _err = run(
        capsys, "run-protocol", "--n", "2", "--eps", "0.1"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["error"] - 0.18) < 1e-9


def test_advantage_exact(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(protocol_to_text(star_xor(2, reps=1, eps=0.1)))
    code, out, _err = run(capsys, "advantage", "--protocol-file", str(path))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["advantage"] - 0.64) < 1e-9


def test_advantage_mc_repeats_under_a_seed(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(protocol_to_text(star_xor(2, reps=1, eps=0.1)))
    argv = ("--seed", "3", "advantage", "--protocol-file", str(path),
            "--method", "mc", "--trials", "4000")
    code, out, _err = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv)[1] == out
    doc = json.loads(out)
    assert doc["method"] == "monte-carlo"
    # one trial's sign has variance 1 - 0.64^2, so 0.05 is about 4 standard
    # deviations at 4000 trials
    assert abs(doc["advantage"] - 0.64) < 0.05


def test_advantage_mc_output_is_pinned(tmp_path, capsys):
    """sha256 of the stdout under RNG_VERSION philox4x64-sha256-v4: one
    eval stream for all trials and a Clopper-Pearson interval."""
    path = tmp_path / "p.txt"
    path.write_text(protocol_to_text(star_xor(2, reps=1, eps=0.1)))
    code, out, _err = run(capsys, "--seed", "3", "advantage", "--protocol-file", str(path),
                          "--method", "mc", "--trials", "4000")
    assert code == 0
    doc = json.loads(out)
    assert (doc["interval"], doc["level"]) == ("clopper-pearson", 0.95)
    assert doc["ci"][0] <= 0.64 <= doc["ci"][1]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "08877a8840c7689a2b828ac07dc2e8fcb705fac96ae956506a4fd3ba4abb7ecf"
    )


@pytest.mark.parametrize("command", ["run-protocol", "advantage"])
def test_trials_beside_the_exact_method_is_invalid_input(tmp_path, capsys, command):
    """The exact method reads no trials, so an explicit --trials is
    rejected, as --n is beside --protocol-file."""
    path = tmp_path / "p.txt"
    path.write_text(protocol_to_text(star_xor(2, reps=1, eps=0.1)))
    argv = (command, "--protocol-file", str(path), "--trials", "500")
    for extra in ((), ("--method", "exact")):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (1, "")
        assert err == "error: --trials cannot be given with --method exact\n"
    assert run(capsys, *argv, "--method", "mc")[0] == 0


def test_run_protocol_mc_zero_trials_is_invalid_input(capsys):
    code, _out, err = run(capsys, "run-protocol", "--method", "mc", "--trials", "0")
    assert code == 1
    assert "trials" in err


def test_advantage_mc_zero_trials_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(protocol_to_text(star_xor(2, reps=1, eps=0.1)))
    code, _out, err = run(
        capsys, "advantage", "--protocol-file", str(path),
        "--method", "mc", "--trials", "0",
    )
    assert code == 1
    assert "trials" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("method", ["exact", "mc"])
@pytest.mark.parametrize("command", ["run-protocol", "advantage"])
def test_trials_below_one_are_invalid_input_for_every_method(
    tmp_path, capsys, command, method, trials
):
    """The exact methods read no trials, yet a count below 1 is rejected."""
    path = tmp_path / "p.txt"
    path.write_text(protocol_to_text(star_xor(2, reps=1, eps=0.1)))
    code, out, err = run(
        capsys, command, "--protocol-file", str(path),
        "--method", method, "--trials", trials,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--trials" in err


def test_advantage_missing_file_is_invalid_input(capsys):
    code, _out, err = run(
        capsys, "advantage", "--protocol-file", "/nonexistent/p.txt"
    )
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reduce_default_instance(capsys):
    code, out, _err = run(capsys, "--seed", "7", "reduce", "--stage", "readonce")
    assert code == 0
    doc = json.loads(out)
    assert doc["monotone"] is True


@pytest.mark.parametrize("seed", ["0", "1"])
def test_reduce_copy_default_instance(capsys, seed):
    code, out, _err = run(capsys, "--seed", seed, "reduce", "--stage", "copy")
    assert code == 0
    doc = json.loads(out)
    assert doc["stage"] == "copy" and doc["report"]["fixed"] is not None


@pytest.mark.parametrize("seed", ["0", "1"])
def test_reduce_xnd_default_instance(capsys, seed):
    code, out, _err = run(capsys, "--seed", seed, "reduce", "--stage", "xnd")
    assert code == 0
    assert json.loads(out)["leaf_law_tv"] <= 1e-12


def test_reduce_copy_fixes_randomness_as_the_chain_does(capsys):
    code, out, _err = run(capsys, "--seed", "0", "reduce", "--stage", "copy")
    assert code == 0
    p = ri.random_tiny_protocol(RngStream(0, ("cli", "reduce")), 0)
    _ro, _art, report = reductions.protocol_to_read_once(p, ri.max_input_sends(p))
    assert json.loads(out)["report"]["fixed"] == report["noisy_copy"]["fixed"]


#: sha256 of ``reduce`` stdout on the seeded default instance, per seed and
#: stage; an edit to the chain or to ``reduce`` must leave these bytes
_REDUCE_SHA256 = {
    ("0", "semi"): "ad84c5db3414e47a7a5f65d0b3ff64df3b66aea2eb807fcf8eff4aa12092232c",
    ("0", "copy"): "c89aa22e8adfdcae0b090f79d6ce151009632a0454dfbb0da9392f9c5c3de6f5",
    ("0", "xnd"): "05ee41862f4cf90389250133ea3d78c3c92c9fb8f54a60a84f3805f51577d43b",
    ("0", "readonce"): "6a0fb48af0e9717ac823352e33dd6f17129b6197b8f5b4ccd5e1ac30e92d0556",
    ("1", "semi"): "d8ae8a2824dc4cc17dedd4dd35878e333543bdcd08fb81f7f8ff84311ca95c7e",
    ("1", "copy"): "a85cc9b8188124ec48df271780ba6d16a799d75fa88226401cd29a2e8ae427b5",
    ("1", "xnd"): "43df08939e06aebf1aa4699b9e5ceea21b889de4aafa35d3b468d831dcccb9f9",
    ("1", "readonce"): "7f57cb81e8bd558385881289e43ee42ea8df8150bf250c40966a4d4d53d2a9c4",
}


@pytest.mark.parametrize("seed, stage", sorted(_REDUCE_SHA256))
def test_reduce_output_is_pinned(capsys, seed, stage):
    code, out, _err = run(capsys, "--seed", seed, "reduce", "--stage", stage)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _REDUCE_SHA256[seed, stage]


def _count_stage_calls(monkeypatch):
    """Counts of the calls to each chain stage builder, through ``reductions``."""
    calls = dict.fromkeys(("to_semi_noisy", "to_noisy_copy", "fix_randomness"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(reductions, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(reductions, name, counted)
    return calls


@pytest.mark.parametrize("stage", ["semi", "copy", "xnd", "readonce"])
def test_reduce_builds_each_stage_once(capsys, monkeypatch, stage):
    calls = _count_stage_calls(monkeypatch)
    code, _out, err = run(capsys, "reduce", "--stage", stage)
    assert code == 0, err
    built = 0 if stage == "semi" else 1
    assert calls == {"to_semi_noisy": 1, "to_noisy_copy": built, "fix_randomness": built}


def test_e5_builds_the_semi_noisy_stage_once_per_instance(monkeypatch):
    calls = _count_stage_calls(monkeypatch)
    cfg = experiments.ExperimentConfig(experiment="E5", params={"instances": 3})
    assert len(experiments.run_experiment(cfg)) == 3
    assert calls == {"to_semi_noisy": 3, "to_noisy_copy": 3, "fix_randomness": 3}


#: Tokens a mutation puts in place of one token of a protocol text line.
_MUTANT_TOKENS = [
    "0", "1", "2", "-1", "99", "0.5", "nan", "inf", "in", "rx[0]", "rx[99]",
    "rand[0]", "not(in)", "xor()", "eps=0.0", "eps=1.0", "noiseless",
    "block=3", "fix=1", ":=", "?",
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 999), data=st.data())
def test_protocol_commands_keep_the_exit_contract_on_mutated_text(
    tmp_path, capsys, seed, index, data
):
    """A tiny protocol's text with one line deleted, duplicated or given
    another token, through every command that reads a protocol file: the
    exit code is 0, 1 or 2, exit 1 prints exactly one ``error:`` line, and
    no exception escapes."""
    lines = protocol_to_text(ri.random_tiny_protocol(RngStream(seed), index)).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["delete", "duplicate", "token"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        toks = lines[i].split()
        toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(st.sampled_from(_MUTANT_TOKENS))
        lines[i] = " ".join(toks)
    path = tmp_path / "p.txt"
    path.write_text("\n".join(lines) + "\n")
    stages = (["reduce", "--stage", s] for s in ("semi", "copy", "xnd", "readonce"))
    for argv in (["advantage"], ["run-protocol"], *stages):
        code, out, err = run(capsys, *argv, "--protocol-file", str(path))
        assert code in (0, 1, 2), (argv, code)
        assert code != 1 or (err.startswith("error: ") and err.count("\n") == 1), (argv, err)
        assert "Traceback" not in out + err


@pytest.mark.parametrize("d", [[], ["--d", "1"]], ids=["inferred-d", "d-1"])
@pytest.mark.parametrize("stage", ["semi", "copy", "xnd", "readonce"])
def test_reduce_of_a_protocol_without_input_nodes_is_invalid_input(
    tmp_path, capsys, stage, d
):
    path = tmp_path / "p.txt"
    path.write_text(
        "nodes 2\nnode 0 aux fix=0\nnode 1 aux fix=1\nedge 0 1\n"
        "tx 0 := in\ntx 1 := rx[0]\nout 1 := rx[0]\n"
    )
    code, out, err = run(
        capsys, "reduce", "--stage", stage, "--protocol-file", str(path), *d
    )
    assert (code, out) == (1, "")
    assert err == "error: the protocol has no input node\n"


@pytest.mark.parametrize("stage", ["copy", "xnd", "readonce"])
def test_reduce_of_a_protocol_whose_inputs_never_send_names_them(tmp_path, capsys, stage):
    path = tmp_path / "p.txt"
    path.write_text(
        "nodes 2\nnode 0 input block=1\nnode 1 aux fix=0\nedge 0 1\n"
        "tx 1 := in\nout 1 := in\n"
    )
    code, out, err = run(capsys, "reduce", "--stage", stage, "--protocol-file", str(path))
    assert (code, out) == (1, "")
    assert err == "error: d must be at least 1, got 0: no input node broadcasts\n"


#: A relay of the star's XOR over one auxiliary link whose ε is ``EPS``.
_RELAY_TEXT = """nodes 4
eps 0.1
node 0 input block=1
node 1 input block=1
node 2 aux fix=0
node 3 aux fix=0
edge 0 2
edge 1 2
edge 2 3
tx 0 := in
tx 1 := in
tx 2 eps=EPS := xor(rx[0],rx[1])
tx 3 := rx[2]
out 3 := rx[2]
"""


@pytest.mark.parametrize("eps", ["0.0", "1.0"])
def test_reduce_hears_an_edge_auxiliary_link(tmp_path, capsys, eps):
    # an ε = 1 link flips the bit, and the semi-noisy stage must flip it too
    path = tmp_path / "p.txt"
    path.write_text(_RELAY_TEXT.replace("EPS", eps))
    for stage, key in (("semi", "fidelity_tv"), ("xnd", "leaf_law_tv")):
        code, out, err = run(capsys, "reduce", "--stage", stage, "--protocol-file", str(path))
        assert code == 0, err
        assert json.loads(out)[key] <= 1e-12
    code, out, err = run(capsys, "reduce", "--protocol-file", str(path))
    assert code == 0 and json.loads(out)["monotone"] is True, err


def _flip_last_transmission(real):
    """A semi-noisy stage that negates the last transmission and the output:
    no advantage moves, but every copy of that bit is flipped."""
    def stage(p):
        p1, report = real(p)
        last = p1.schedule[-1]
        flipped = dataclasses.replace(last, expr=exprs.Not(last.expr))
        schedule = [*p1.schedule[:-1], flipped]
        return dataclasses.replace(p1, schedule=schedule, output_expr=flipped.expr), report
    return stage


def _flip_last_level(real):
    """A tree stage whose last level takes the other branch: no advantage
    moves, but every leaf's last bit is flipped."""
    def stage(p2):
        art = real(p2)
        t = art.root
        root = trees.Tree(t.blocks, (*t.rows[:-1], 1 - t.rows[-1]), t.row_of, t.children)
        return dataclasses.replace(art, root=root)
    return stage


@pytest.mark.parametrize(
    "name, breaker, key",
    [("to_semi_noisy", _flip_last_transmission, "fidelity_tv"),
     ("to_xnd_tree", _flip_last_level, "leaf_law_tv")],
)
def test_reduce_readonce_checks_both_laws(tmp_path, capsys, monkeypatch, name, breaker, key):
    path = tmp_path / "p.txt"
    path.write_text(protocol_to_text(star_xor(2, reps=1, eps=0.1)))
    code, out, _err = run(capsys, "reduce", "--protocol-file", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity_tv"] <= 1e-12 and doc["leaf_law_tv"] <= 1e-12
    monkeypatch.setattr(reductions, name, breaker(getattr(reductions, name)))
    code, out, err = run(capsys, "reduce", "--protocol-file", str(path))
    doc = json.loads(out)
    assert code == 2 and err.startswith("check failed: ")
    assert doc[key] > 0.5 and doc["monotone"] is True
    assert {round(a, 9) for a in doc["advantages"].values()} == {0.64}


def test_run_protocol_reads_the_given_file(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(_RELAY_TEXT.replace("EPS", "1.0"))
    code, out, err = run(capsys, "run-protocol", "--protocol-file", str(path))
    assert code == 0, err
    # the flipped relay errs unless the XOR of two 0.1-noisy bits is wrong;
    # star_xor(3), which run-protocol builds without a file, errs 0.244
    assert abs(json.loads(out)["error"] - (1 - 0.18)) < 1e-9


@pytest.mark.parametrize("flag", [["--n", "3"], ["--reps", "2"], ["--eps", "0.2"]])
def test_run_protocol_rejects_star_options_beside_a_file(tmp_path, capsys, flag):
    path = tmp_path / "p.txt"
    path.write_text(_RELAY_TEXT.replace("EPS", "0.0"))
    code, out, err = run(capsys, "run-protocol", "--protocol-file", str(path), *flag)
    assert (code, out) == (1, "")
    assert err == f"error: {flag[0]} cannot be given with --protocol-file\n"


def test_protocol_text_keeps_every_digit_of_eps():
    p1, _ = reductions.to_semi_noisy(star_xor(2, reps=1, eps=0.123456789))
    p2, _ = reductions.to_noisy_copy(p1, 1)
    for p in (p1, p2):
        q = protocol_from_text(protocol_to_text(p))
        assert q.eps == p.eps
        assert [tr.eps for tr in q.schedule] == [tr.eps for tr in p.schedule]
        assert [tr.expr for tr in q.schedule] == [tr.expr for tr in p.schedule]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 999))
def test_protocol_text_round_trips(seed, index):
    # the unfixed noisy-copy stage has masksrc lines and eps= broadcasts,
    # the semi-noisy stage noiseless transmissions
    p = ri.random_tiny_protocol(RngStream(seed), index)
    p1, _ = reductions.to_semi_noisy(p)
    p2, _ = reductions.to_noisy_copy(p1, ri.max_input_sends(p))
    for q in (p1, p2):
        text = protocol_to_text(q)
        back = protocol_from_text(text)
        assert protocol_to_text(back) == text
        assert back.schedule == q.schedule


def test_protocol_text_round_trip_gives_an_equal_protocol():
    """The text carries every field a builder or the semi-noisy stage sets."""
    rng = RngStream(0, ("experiment", "E5"))
    protocols = [star_xor(3, reps=2, eps=0.15)]
    for i in range(20):
        p = ri.random_tiny_protocol(rng, i)
        protocols += [p, reductions.to_semi_noisy(p)[0]]
    assert len(protocols) == 41
    for p in protocols:
        assert protocol_from_text(protocol_to_text(p)) == p


def _builder_protocols():
    """Star-XORs, a three-block cluster sum whose leaders are three hops
    apart, and repetition-majority parities on a complete graph."""
    for n in range(1, 6):
        for reps in range(1, 5):
            yield star_xor(n, reps=reps, eps=0.1)
    # inputs {0,1}, {2,3}, {4,5} under leaders 6, 7, 8; relays 6-9-10-7 and
    # 7-11-12-8; 6-13-11-7 ties the first path, and 12 is adjacent to input 4
    edges = [(0, 6), (1, 6), (2, 7), (3, 7), (4, 8), (5, 8), (6, 9), (9, 10),
             (10, 7), (7, 11), (11, 12), (12, 8), (6, 13), (13, 11), (4, 12)]
    adjacency = {v: set() for v in range(14)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    net = SimpleNamespace(n_nodes=14, adjacency=adjacency)
    dec = Decomposition(
        n=2, k=3, d=3, D=30, input_blocks=[[0, 1], [2, 3], [4, 5]],
        aux_blocks=[[6, 9, 13], [7, 10, 11], [8, 12]], aux0=[], fixed_bit=1,
    )
    for r_local in range(1, 4):
        for r_up in range(1, 4):
            yield cluster_sum(net, dec, r_local, r_up, eps=0.05)
    for r in range(1, 5):
        yield repetition_majority_parity(None, dec, r, eps=0.2)


def _e5_stage_protocols():
    """E5's seed-0 instances 0-19 with their semi-noisy stages and their
    unfixed noisy-copy stages (noise atoms, mask atoms, masksrc lines)."""
    rng = RngStream(0, ("experiment", "E5"))
    for i in range(20):
        p = ri.random_tiny_protocol(rng, i)
        p1, _ = reductions.to_semi_noisy(p)
        p2, _ = reductions.to_noisy_copy(p1, ri.max_input_sends(p))
        yield from (p, p1, p2)


#: sha256 of the protocol text of the builders' and the reduction stages'
#: protocols; a change to the text of any expression form fails here
_PROTOCOL_TEXT_SHA256 = {
    "builders": "9b9d5622bcb9f4e6a402aa7ff3f0b5fc13804532d57eab23e87edc7ab68f8338",
    "e5-seed-0": "2019b238eedc440e82e9763edc8b13a65a2587f9c0cc010ccb0ba5f852ac575b",
}


@pytest.mark.parametrize("case", sorted(_PROTOCOL_TEXT_SHA256))
def test_protocol_text_is_pinned(case):
    protocols = _builder_protocols() if case == "builders" else _e5_stage_protocols()
    text = "\n".join(protocol_to_text(p) for p in protocols)
    assert hashlib.sha256(text.encode()).hexdigest() == _PROTOCOL_TEXT_SHA256[case]


_NOISY_TEXT = """nodes 2
eps 0.1
node 0 input block=1
node 1 aux fix=0
edge 0 1
tx 0 eps=0.2 := in
tx 1 := xor(rx[0],noise[0,0.3])
out 1 := xor(rx[0],noise[0,0.3])
"""


@pytest.mark.parametrize(
    "good, bad",
    [("eps 0.1", "eps 1.5"), ("eps=0.2", "eps=-0.1"), ("0,0.3]", "0,2.0]")],
    ids=["protocol", "transmission", "noise_atom"],
)
def test_protocol_text_rejects_noise_outside_unit_interval(good, bad):
    protocol_from_text(_NOISY_TEXT)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        protocol_from_text(_NOISY_TEXT.replace(good, bad))


@pytest.mark.parametrize("eps", ["1.5", "-0.1"])
def test_run_protocol_eps_outside_unit_interval_is_invalid_input(capsys, eps):
    code, out, err = run(capsys, "run-protocol", "--eps", eps)
    assert code == 1 and out == ""
    assert "outside [0, 1]" in err


def test_own_input_index_other_than_zero_is_invalid_input(tmp_path, capsys):
    # a node holds one input bit: the engine and the tree read in[0] only
    text = _NOISY_TEXT.replace("tx 0 eps=0.2 := in", "tx 0 eps=0.2 := in[1]")
    with pytest.raises(ValueError, match=r"in\[1\]"):
        protocol_from_text(text)
    path = tmp_path / "p.txt"
    for body, want in ((_NOISY_TEXT, 0), (text, 1)):
        path.write_text(body)
        code, _out, err = run(
            capsys, "run-protocol", "--protocol-file", str(path)
        )
        assert code == want, err


def test_conflicting_noise_eps_is_invalid_input(tmp_path, capsys):
    # node 1 reads noise[0] in transmission 1 and in the output expression
    out_04 = _NOISY_TEXT.replace("out 1 := xor(rx[0],noise[0,0.3])", "out 1 := noise[0,0.4]")
    tx_04 = _NOISY_TEXT.replace("xor(rx[0],noise[0,0.3])\nout", "xor(noise[0,0.4],rx[0])\nout")
    twice = _NOISY_TEXT.replace("tx 1 := xor(rx[0],", "tx 1 := xor(noise[0,0.2],rx[0],")
    cases = [
        (out_04, r"the output expression reads noise\[0,0\.4\], but node 1 already"),
        (tx_04, r"the output expression reads noise\[0,0\.3\], but node 1 already"),
        (twice, r"transmission 1 reads noise\[0,0\.3\], but .* eps 0\.2$"),
    ]
    for text, want in cases:
        with pytest.raises(ValueError, match="^" + want):
            protocol_from_text(text)
    # another node's noise[0] is another bit, free to take its own eps
    protocol_from_text(_NOISY_TEXT.replace("tx 0 eps=0.2 := in", "tx 0 := xor(in,noise[0,0.4])"))
    path = tmp_path / "p.txt"
    for body, want in ((_NOISY_TEXT, 0), (out_04, 1)):
        path.write_text(body)
        code, _out, err = run(
            capsys, "run-protocol", "--protocol-file", str(path)
        )
        assert code == want, err
        assert want == 0 or "the output expression reads noise[0,0.4]" in err


_XOR_TEXT = """nodes 3
eps 0.1
node 0 input block=1
node 1 input block=1
node 2 aux fix=0
edge 0 2
edge 1 2
tx 0 := in
tx 1 := in
tx 2 := xor(rx[0],rx[1])
out 2 := xor(rx[0],rx[1])
"""


@pytest.mark.parametrize(
    "old, new, want",
    [
        ("edge 1 2\n", "edge 1 2\nedge 0 7\n", "node 7 is not one of the 3 nodes"),
        ("tx 2 :=", "tx 9 := in\ntx 2 :=", "node 9 is not one of the 3 nodes"),
        ("node 2 aux", "node 5 input block=1\nnode 2 aux", "node 5 is not one of the 3 nodes"),
        ("fix=0", "fix=2", "node 2 has fixed bit 2, not 0 or 1"),
    ],
    ids=["edge_end", "sender", "role", "fixed_bit"],
)
def test_node_outside_the_network_is_invalid_input(tmp_path, capsys, old, new, want):
    text = _XOR_TEXT.replace(old, new)
    with pytest.raises(ValueError, match=want):
        protocol_from_text(text)
    path = tmp_path / "p.txt"
    for body, code_want in ((_XOR_TEXT, 0), (text, 1)):
        path.write_text(body)
        for argv in (
            ("run-protocol", "--protocol-file", str(path)),
            ("reduce", "--stage", "xnd", "--protocol-file", str(path)),
        ):
            code, _out, err = run(capsys, *argv)
            assert code == code_want, err
            assert code_want == 0 or f"error: {want}" in err


@pytest.mark.parametrize("line", ["node 2 aux noiseless", "node 2 aux", "node 2"])
def test_role_line_without_its_setting_is_invalid_input(tmp_path, capsys, line):
    path = tmp_path / "p.txt"
    path.write_text(_XOR_TEXT.replace("node 2 aux fix=0", line))
    code, out, err = run(capsys, "run-protocol", "--protocol-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 5: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "old, new, lineno",
    [
        ("node 1 input block=1", "node 1 aux block=1", 4),
        ("node 0 input block=1", "node 0 input fix=1", 3),
        ("node 0 input block=1", "node 0 input block=1 junk", 3),
        ("node 0 input block=1", "node 0 input block=-1", 3),
        ("tx 0 := in", "tx 0 junk := in", 8),
        ("tx 0 := in", "tx 0 eps=0.2 noiseless eps=0.3 := in", 8),
        ("tx 0 := in", "tx 0 eps=0.2 noiseless := in", 8),
        ("eps 0.1", "eps 0.1\nclass bogus", 3),
        ("nodes 3", "nodes 3\nnodes 3", 2),
        ("eps 0.1", "eps 0.1\neps 0.2", 3),
        ("eps 0.1", "eps 0.1\nclass general\nclass general", 4),
        ("node 2 aux fix=0", "node 2 aux fix=0\nnode 2 aux fix=0", 6),
        ("node 2 aux fix=0", "node 2 aux fix=0\nnode 02 input block=1", 6),
        ("out 2 :=", "out 2 := rx[0]\nout 2 :=", 12),
    ],
    ids=["aux_block", "input_fix", "trailing_token", "negative_block", "tx_token",
         "tx_two_eps", "tx_eps_before_noiseless", "unknown_class", "second_nodes",
         "second_eps", "second_class", "second_role", "second_role_padded", "second_out"],
)
def test_line_matching_no_form_is_invalid_input(tmp_path, capsys, old, new, lineno):
    """Each line is read by one pattern in full, and nodes, eps, class, out
    and each node's role line come at most once."""
    path = tmp_path / "p.txt"
    path.write_text(_XOR_TEXT.replace(old, new))
    code, out, err = run(capsys, "run-protocol", "--protocol-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: line {lineno}: ") and err.count("\n") == 1


def test_every_written_line_matches_its_pattern():
    """The writer and the reader keep one grammar: each line of the pinned
    protocols' text is its directive and a full match of its pattern."""
    for p in itertools.chain(_builder_protocols(), _e5_stage_protocols()):
        for line in protocol_to_text(p).splitlines():
            head, rest = line.split(" ", 1)
            assert _LINES[head].fullmatch(rest), line


def _mask_text(j):
    return f"""nodes 2
eps 0.1
node 0 input block=1
node 1 aux fix=0
edge 0 1
masksrc 1 {regen_table(2, 0.1).to_json()}
tx 0 := in
tx 1 := xor(rx[0],mask[0,{j}])
out 1 := xor(rx[0],mask[0,{j}])
"""


def test_mask_bit_outside_its_mask_is_invalid_input(tmp_path, capsys):
    protocol_from_text(_mask_text(1))
    with pytest.raises(ValueError, match="mask bit 7 of a 2-bit mask"):
        protocol_from_text(_mask_text(7))
    path = tmp_path / "p.txt"
    for j, want in ((1, 0), (7, 1)):
        path.write_text(_mask_text(j))
        code, _out, err = run(
            capsys, "run-protocol", "--protocol-file", str(path)
        )
        assert code == want, err


def test_decompose_single_node_is_invalid_input(capsys):
    # the default radius sqrt(10 ln N / N) is 0 at N = 1
    code, _out, err = run(capsys, "decompose", "--n", "1")
    assert code == 1
    assert err.startswith("error:") and "R" in err


def test_decompose_zero_nodes_is_invalid_input(capsys):
    code, _out, err = run(capsys, "decompose", "--n", "0")
    assert code == 1
    assert "--n must be >= 1" in err


def test_nan_radius_is_invalid_input(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    for radius in ("nan", "inf"):
        code, _out, err = run(
            capsys, "--out", str(net_path), "gen-network", "--n", "10", "--radius", radius
        )
        assert code == 1 and "radius" in err
        assert not net_path.exists()
    # a network file carrying NaN or Infinity (json accepts both) fails the
    # same check
    code, _out, err = run(capsys, "--out", str(net_path), "gen-network", "--n", "10")
    assert code == 0
    text = net_path.read_text()
    for radius in ("NaN", "Infinity"):
        net_path.write_text(text.replace('"radius": ', f'"radius": {radius}, "r": '))
        code, _out, err = run(capsys, "decompose", "--network", str(net_path))
        assert code == 1 and "radius" in err


@pytest.mark.parametrize("coord", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_position_is_invalid_input(tmp_path, coord):
    """A NaN position passes both unit-square bounds.  Unchecked, it
    reaches ``np.bincount`` as cell 2^63 - 1, which writes out of bounds
    and can abort the interpreter, so the command runs in a subprocess."""
    net_path = tmp_path / "net.json"
    net_path.write_text(
        f'{{"positions": [[0.5, {coord}], [0.2, 0.3], [0.4, 0.4]], "radius": 0.9, "n": 3}}'
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; from noisynet.cli import main; "
        f"sys.exit(main(['decompose', '--network', {str(net_path)!r}]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 1, out.stderr
    assert out.stdout == ""
    assert out.stderr == "error: positions must be finite\n"


_DEEP_JSON = "[" * 100_000


@pytest.mark.parametrize(
    "argv, text",
    [
        (["tree", "{}"], _DEEP_JSON),
        (["decompose", "--network", "{}"], _DEEP_JSON),
        (["--config", "{}", "experiment"], _DEEP_JSON),
        (["run-protocol", "--protocol-file", "{}"], f"nodes 1\nmasksrc 0 {_DEEP_JSON}\n"),
        (["run-protocol", "--protocol-file", "{}"],
         "nodes 1\ntx 0 := " + "not(" * 5000 + "in" + ")" * 5000 + "\n"),
    ],
    ids=["tree", "network", "config", "masksrc", "tx"],
)
def test_deeply_nested_file_is_invalid_input(tmp_path, argv, text):
    """A file nested deeper than the readers recurse exits 1 with one
    ``error:`` line, not a ``RecursionError`` traceback; the command runs in
    a subprocess, with the interpreter's own recursion limit."""
    path = tmp_path / "deep.txt"
    path.write_text(text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [a.format(path) for a in argv]
    code = f"import sys; from noisynet.cli import main; sys.exit(main({argv!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 1, out.stderr[-300:]
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1, out.stderr[-300:]
    assert "nested too deeply" in out.stderr


@pytest.mark.parametrize(
    "text, key",
    [
        ("[[0.5, 0.5]]", "object"),
        ('{"positions": [[0.5, 0.5]], "radius": "0.3", "n": 1}', "'radius'"),
        ('{"positions": [[0.5, 0.5]], "radius": null, "n": 1}', "'radius'"),
        ('{"radius": 0.3, "n": 1}', "'positions'"),
        ('{"positions": [[0.5, 0.5]], "radius": 0.3}', "'n'"),
    ],
)
def test_malformed_network_file_is_invalid_input(tmp_path, capsys, text, key):
    net_path = tmp_path / "net.json"
    net_path.write_text(text)
    code, out, err = run(capsys, "decompose", "--network", str(net_path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and key in err
    assert "Traceback" not in err


def test_tree_collapse_on_unordered_is_check_failure(tmp_path, capsys):
    spaces = [uniform_bit_space(), uniform_bit_space()]
    t = bit_tree([0, 1, 0])
    path = tmp_path / "t.json"
    path.write_text(trees.tree_to_json(t, spaces))
    code, _out, err = run(capsys, "tree", str(path), "--collapse")
    assert code == 2
    code, out, _err = run(capsys, "tree", str(path), "--reorder", "--advantage")
    assert code == 0


#: sha256 of ``tree --reorder --collapse --out`` on tests/data/alternating_tree.json
_REORDER_COLLAPSE_SHA256 = "4334a7a9b12c178a68223f20b4cc1e4dfb83e7a0c6c7ee34cb5eb35757613bda"


def test_tree_reorder_collapse_writes_pinned_bytes(tmp_path, capsys):
    src = Path(__file__).parent / "data" / "alternating_tree.json"
    out = tmp_path / "out.json"
    code, stdout, _err = run(
        capsys, "--out", str(out), "tree", str(src), "--reorder", "--collapse"
    )
    assert code == 0
    assert json.loads(stdout) == {
        "collapsed_levels": 3, "depth": 3, "reorder_steps": 4
    }
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _REORDER_COLLAPSE_SHA256


@pytest.mark.parametrize("case", sorted(BAD_TREE_TEXTS))
def test_tree_advantage_rejects_malformed_file(tmp_path, capsys, case):
    path = tmp_path / "t.json"
    path.write_text(BAD_TREE_TEXTS[case])
    code, _out, err = run(capsys, "tree", str(path), "--advantage")
    assert code == 1 and err


_ALTERNATING_TREE = Path(__file__).parent / "data" / "alternating_tree.json"


def _edited_tree(edit) -> str:
    doc = json.loads(_ALTERNATING_TREE.read_text())
    return json.dumps(edit(doc))


@pytest.mark.parametrize("edit, error", [
    (lambda doc: [doc], "tree file must be a JSON object, got [{"),
    (lambda doc: {k: v for k, v in doc.items() if k != "spaces"},
     "tree file key 'spaces' is missing"),
    (lambda doc: doc["nodes"][0].update(children=5) or doc,
     "tree node key 'children' must be like [0] in [-1, inf), got 5"),
    (lambda doc: doc | {"root": len(doc["nodes"])}, "tree file key 'root' must name a node, got 31"),
], ids=["top-level-list", "no-spaces", "children-a-number", "root-past-nodes"])
def test_tree_names_the_key_of_a_malformed_file(tmp_path, capsys, edit, error):
    path = tmp_path / "t.json"
    path.write_text(_edited_tree(edit))
    code, out, err = run(capsys, "tree", str(path), "--advantage")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


def _json_paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, path + (key,))


#: Values a mutation puts in place of one value of a tree file
_MUTANT_VALUES = [None, True, -2, -1, 0, 1, 5, 99, 0.5, float("nan"), "x", [], [1], [[0]], {}]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tree_keeps_the_exit_contract_on_mutated_files(tmp_path, capsys, data):
    """A tree file with one value deleted or replaced: the exit code is 0,
    1 or 2, exit 1 prints exactly one ``error:`` line, and no exception
    escapes."""
    doc = json.loads(_ALTERNATING_TREE.read_text())
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    value = data.draw(st.sampled_from(_MUTANT_VALUES))
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    tree_path = tmp_path / "t.json"
    tree_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "tree", str(tree_path), "--reorder", "--collapse", "--advantage")
    assert code in (0, 1, 2)
    assert code != 1 or (err.startswith("error: ") and err.count("\n") == 1), err
    assert "Traceback" not in out + err


def test_tree_requires_an_action(tmp_path, capsys):
    spaces = [uniform_bit_space()]
    t = bit_tree([0])
    path = tmp_path / "t.json"
    path.write_text(trees.tree_to_json(t, spaces))
    code, _out, _err = run(capsys, "tree", str(path))
    assert code == 1


# -- the README's examples ---------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``section``."""
    body = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return body.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_commands_run(tmp_path, monkeypatch):
    """Every line of the "Command line" block exits 0, in order, with the
    "Protocol text" example as its ``p.txt``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.txt").write_text(_readme_block("Protocol text", "text"))
    lines = _readme_block("Command line", "sh").splitlines()
    assert len(lines) == 5
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "noisynet"
        result = CliRunner().invoke(cli, argv[1:])
        assert result.exit_code == 0, (line, result.output)
    assert (tmp_path / "net.json").exists() and (tmp_path / "regen.csv").exists()


def test_readme_quick_start_runs():
    exec(_readme_block("Library quick start", "python"), {})
