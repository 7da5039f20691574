"""Determinism and independence of the keyed random streams."""

import numpy as np
import pytest

from noisynet.rng import RNG_VERSION, RngStream


def test_same_seed_and_key_reproduce():
    a = RngStream(42, ("suite", 1))
    b = RngStream(42, ("suite", 1))
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]
    assert a.integers(1000) == b.integers(1000)


def test_distinct_keys_differ():
    a = RngStream(42, ("x",))
    b = RngStream(42, ("y",))
    assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]


def test_spawn_does_not_disturb_parent():
    parent = RngStream(7)
    ref = RngStream(7)
    _ = ref.random()
    first = parent.random()
    child = parent.spawn("sub", 3)
    _ = [child.random() for _ in range(100)]
    follower = RngStream(7)
    assert follower.random() == first
    # the parent continues exactly where it left off
    assert parent.random() == [ref.random() for _ in range(1)][0]


def test_spawn_key_extends():
    s = RngStream(1, ("a",)).spawn("b", 2)
    assert s.key == ("a", "b", 2)
    assert s.seed == 1


def test_version_tag():
    assert RNG_VERSION.startswith("philox")


def test_numpy_scalar_key_parts_name_the_python_stream():
    assert RngStream(0, (np.int64(3),)).random() == RngStream(0, (3,)).random()
    assert RngStream(0, (np.float64(0.4),)).random() == RngStream(0, (0.4,)).random()
    assert RngStream(0, (np.str_("a"),)).random() == RngStream(0, ("a",)).random()
    assert RngStream(0, (3,)).random() != RngStream(0, ("3",)).random()


def test_other_key_part_types_are_rejected():
    for bad in [(1, 2), None, b"x"]:
        with pytest.raises(TypeError):
            RngStream(0, ("k", bad))
