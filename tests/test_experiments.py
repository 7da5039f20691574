"""Experiment configs, CSV round trips, and scenario determinism."""

import csv
import hashlib
import io
import json

import pytest

from noisynet import experiments as ex
from noisynet import random_instances as ri
from noisynet import reductions, trees
from noisynet.rng import RngStream


def cfg(eid, seed=0, **params):
    return ex.ExperimentConfig(experiment=eid, seed=seed, params=params)


# -- configuration -----------------------------------------------------------


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        ex.ExperimentConfig(experiment="E99")


def test_unknown_param_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        cfg("E3", mus_grid=[1])


def test_unknown_top_level_key_rejected():
    text = json.dumps({"experiment": "E3", "bogus": 1})
    with pytest.raises(ValueError, match="unknown config key"):
        ex.ExperimentConfig.from_json(text)


def test_config_defaults_merge():
    c = cfg("E3", mus=[10])
    assert c.params["mus"] == [10]
    assert c.params["N"] == 1000  # default preserved


def test_config_from_json():
    c = ex.ExperimentConfig.from_json(
        json.dumps({"experiment": "E4", "seed": 9, "params": {"ts": [1]}})
    )
    assert c.experiment == "E4" and c.seed == 9 and c.params["ts"] == [1]


def test_config_bad_json_reports_line():
    with pytest.raises(ValueError, match="line"):
        ex.ExperimentConfig.from_json("{not json")


# -- CSV ---------------------------------------------------------------------


def parse_csv(text: str) -> list:
    """The rows of an experiment CSV as dicts; the header must be ours."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ex.CSV_HEADER:
        raise ValueError("unexpected CSV header")
    return [dict(zip(header, row)) for row in reader]


def test_emit_empty_is_header_only():
    assert ex.render_csv([]) == ",".join(ex.CSV_HEADER) + "\n"


def test_csv_round_trip():
    rows = ex.run_experiment(cfg("E3"))
    parsed = parse_csv(ex.render_csv(rows))
    assert len(parsed) == len(rows)
    for row, rec in zip(rows, parsed):
        assert rec["experiment"] == "E3"
        assert rec["value"] == f"{row.value:.12g}"
        assert json.loads(rec["params"]) == row.params


def test_floats_use_12_significant_digits():
    row = ex.ResultRow("E3", {}, value=1 / 3)
    assert row.to_csv()[3] == "0.333333333333"


def test_rerun_byte_identical():
    a = ex.render_csv(ex.run_experiment(cfg("E4", seed=5)))
    b = ex.render_csv(ex.run_experiment(cfg("E4", seed=5)))
    assert a == b


#: sha256 of the seed-0 CSV text; a change that moves a byte of an
#: experiment's output (a float's summation order included) fails here
_CSV_SHA256 = {
    "E1": "309e043091bac572869d3a4b9b7fab4af9181997f6a1e2c6e33878e838e855b5",
    "E2": "5812f75f2d23da17f2c75d2dac44d3287520a13d60dd32c9e6c95cbc1239234c",
    "E3": "5b7e45ee6cd472ed4c6bcd379cf5a189efc236589aff5ec5f3d92330d6e48f5e",
    "E4": "ad3aa64c33b612d1417dd05a5848fe98cf275e85c2551f5a631f83b124b75838",
    "E5": "7dbc0bc022f5b7158342d473562c62462dc7510a336862239686a15c95f8a6b2",
    "E6": "869e5bc3b1baad4cf19647a10ccebcba74247d36a94d39bf857b86597721a6c8",
    "E7": "5a02e7cca807e4090ffee5e47bc1426b5847bd2f9efacf5cc43b0f6c0baa4e37",
    "E8": "615ecd6dbf358e868ab9d86ec51233738274221bc6662bbdb4587a4a6704518d",
}


@pytest.mark.parametrize("eid", sorted(_CSV_SHA256))
def test_csv_bytes_are_pinned_at_seed_0(eid):
    params = {"instances": 40} if eid == "E5" else {}
    text = ex.render_csv(ex.run_experiment(cfg(eid, **params)))
    assert hashlib.sha256(text.encode()).hexdigest() == _CSV_SHA256[eid]


def _tree_texts(root, spaces):
    """The text of a tree and of its reordered and collapsed forms."""
    ordered, _cert = trees.reorder(root, spaces)
    readonce, _rec = trees.collapse_to_read_once(ordered)
    return [trees.tree_to_json(t, spaces) for t in (root, ordered, readonce)]


def _tiny_tree_texts(index):
    p = ri.random_tiny_protocol(RngStream(0, ("tree-text",)), index)
    _ro, art, _report = reductions.protocol_to_read_once(p, ri.max_input_sends(p))
    return _tree_texts(art.root, art.spaces)


def _e6_tree_texts():
    """E6's seed-0 input trees, rebuilt from its streams and default
    parameters (200 instances, k = 3, depth up to 6)."""
    rng = RngStream(0, ("experiment", "E6"))
    texts = []
    for i in range(200):
        r = rng.spawn("inst", i)
        k = 1 + int(r.spawn("k").integers(3))
        depth = 1 + int(r.spawn("d").integers(6))
        spaces = ri.random_spaces(r, k, max_size=2)
        tree, _levels = ri.random_oblivious_tree(r, spaces, depth)
        texts.extend(_tree_texts(tree, spaces))
    return texts


#: sha256 of the tree text (``to_xnd_tree`` output, reordered, collapsed)
#: of tiny protocols, some of whose reordered trees share nodes, and of all
#: of E6's seed-0 trees; a change to node sharing or order fails here
_TREE_TEXT_SHA256 = {
    "tiny-0": "83a2ac0e2f4575854ff9017e6b8d7e4c1d651708d3e26e2caea6f7e69b2c4559",
    "tiny-1": "e031b2a59ad90f874c33f22f70998f5e83463dccb65523fbc577a2b43f892f31",
    "tiny-9": "4a114eda532ed721ebf082e68e78927f160c78f6bf810803893584c0921e6a24",
    "tiny-19": "ecc285a84874251c6ab46016f6f6065ee1052b6e39e89899c21a852dd1c1eab2",
    "tiny-21": "229c79dd3844cc44e9dfdd88391c5f5ccbff0d3f8e1619bd4cfa5253bb5bf631",
    "e6-seed-0": "94ab9f5d73b8c9591632c398acfd28eadfe08175b93c74fcfc590821ca1650b2",
}


@pytest.mark.parametrize("case", sorted(_TREE_TEXT_SHA256))
def test_tree_text_is_pinned(case):
    if case.startswith("tiny-"):
        texts = _tiny_tree_texts(int(case.split("-")[1]))
    else:
        texts = _e6_tree_texts()
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == _TREE_TEXT_SHA256[case]


def test_parse_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_csv("a,b,c\n1,2,3\n")


# -- scenarios ---------------------------------------------------------------


def test_e3_exact_tail_below_bound():
    rows = ex.run_experiment(cfg("E3"))
    assert len(rows) == 4
    for row in rows:
        assert row.ok and row.value <= row.reference


def test_e4_regeneration_grid():
    rows = ex.run_experiment(cfg("E4"))
    assert len(rows) == 40
    assert all(row.ok for row in rows)


def test_e1_zero_radius_disconnected():
    rows = ex.run_experiment(
        cfg("E1", N=200, radius_factors=[0.0], seeds=[0, 1, 2])
    )
    assert len(rows) == 3
    assert all(row.value == 0 for row in rows)


def test_e7_product_bound_holds():
    rows = ex.run_experiment(cfg("E7", instances=15))
    assert all(row.ok for row in rows)
    assert all(row.value <= row.reference + 1e-9 for row in rows)


def test_e8_min_ratio_nondecreasing():
    rows = [
        r for r in ex.run_experiment(cfg("E8"))
        if r.params.get("quantity") == "min_transmission_ratio"
    ]
    vals = [r.value for r in rows]
    assert vals == sorted(vals)
    assert all(r.ok for r in rows)


def test_wall_time_blank_by_default_and_filled_with_timing():
    rows = ex.run_experiment(cfg("E3"))
    assert all(r.wall_time is None for r in rows)
    timed = ex.ExperimentConfig(experiment="E3", timing=True)
    rows_t = ex.run_experiment(timed)
    assert all(r.wall_time is not None for r in rows_t)
