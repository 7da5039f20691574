"""Command-line harness: subcommands and exit-code contract."""

import hashlib
import json
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from noisynet import random_instances as ri, reductions, trees
from noisynet.cli import cli, main
from noisynet.noise import regen_table
from noisynet.planar import Decomposition
from noisynet.protocol import (
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


def test_advantage_missing_file_is_invalid_input(capsys):
    code, _out, err = run(
        capsys, "advantage", "--protocol-file", "/nonexistent/p.txt"
    )
    assert code == 1


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


def test_protocol_text_keeps_every_digit_of_eps():
    p1, _ = reductions.to_semi_noisy(star_xor(2, reps=1, eps=0.123456789))
    p2, _ = reductions.to_noisy_copy(p1, 1, fix=False)
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
    p2, _ = reductions.to_noisy_copy(p1, ri.max_input_sends(p), fix=False)
    for q in (p1, p2):
        text = protocol_to_text(q)
        back = protocol_from_text(text)
        assert protocol_to_text(back) == text
        assert back.schedule == q.schedule


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
        p2, _ = reductions.to_noisy_copy(p1, ri.max_input_sends(p), fix=False)
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
            capsys, "run-protocol", "--builder", "file", "--protocol-file", str(path)
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
            capsys, "run-protocol", "--builder", "file", "--protocol-file", str(path)
        )
        assert code == want, err
        assert want == 0 or "the output expression reads noise[0,0.4]" in err


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
            capsys, "run-protocol", "--builder", "file", "--protocol-file", str(path)
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
    code, _out, err = run(
        capsys, "--out", str(net_path), "gen-network", "--n", "10", "--radius", "nan"
    )
    assert code == 1 and "radius" in err
    assert not net_path.exists()
    # a network file carrying NaN (json accepts it) fails the same check
    code, _out, err = run(capsys, "--out", str(net_path), "gen-network", "--n", "10")
    assert code == 0
    net_path.write_text(net_path.read_text().replace('"radius": ', '"radius": NaN, "r": '))
    code, _out, err = run(capsys, "decompose", "--network", str(net_path))
    assert code == 1 and "radius" in err


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
