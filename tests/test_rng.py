"""Determinism and independence of the keyed random streams."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noisynet
from noisynet.rng import MAX_BLOCK, RNG_VERSION, RngStream


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


def _stream_cases():
    """Streams named by each kind of key part, and by spawn chains."""
    return {
        "root": RngStream(0),
        "str": RngStream(1, ("suite", "x")),
        "int": RngStream(2, (7, -3, 2**70)),
        "float": RngStream(3, (0.25, "x", -1e-300)),
        "np-int64": RngStream(4, (np.int64(5), "y")),
        "seeds": RngStream(-1, ("neg",)).spawn(2**64 - 1),
        "spawn-3": RngStream(5, ("a",)).spawn("b", 1).spawn(2.5).spawn(np.int64(9), "c"),
        "spawn-eval": RngStream(6).spawn("eval", 0).spawn("x").spawn(12345, 0.5),
    }


def _draws(case: str, kind: str) -> bytes:
    s = _stream_cases()[case]
    if kind == "raw":
        return s.numpy_generator().bit_generator.random_raw(64).tobytes()
    if kind == "random":
        return s.random(8).tobytes()
    if kind == "integers":
        return s.integers(0, 1000, size=8).tobytes() + s.integers(2**40, size=3).tobytes()
    p = np.array([0.1, 0.2, 0.3, 0.4])
    return s.numpy_generator().choice(4, size=16, p=p).tobytes()


#: sha256 of each stream's first draws of each kind, each from a fresh
#: stream; a (seed, key) pair must name these draws on every numpy version
_STREAM_SHA256 = {
    ("float", "raw"): "c4b9c83a1f5a8e5d9daea8860c6de288d77156554aad9b097c6c88d716fc1d90",
    ("float", "random"): "9ec3573b8f945013772536bc15941cbfd4c4bf4ea94170f620e7c67c757352ba",
    ("float", "integers"): "b903bc33c6ef5e8dfa406ea661904d16f21afbbc42620150bb9801498c9c18d9",
    ("float", "choice"): "13b3ffaade7cf04f5226c981dd609baa23166c5dafc050cbc255860337b92573",
    ("int", "raw"): "f6d9dd0584c891959663029be6267919f0981e3739b305925240cf9c012ce55e",
    ("int", "random"): "d184dc0dac59876f77054fb913956b92842bc75c4d27e6083416a814ecf8298c",
    ("int", "integers"): "f14538cf01a675c429712af8a6786056586114200f1162942e59c250d6271390",
    ("int", "choice"): "5292aa9aaee7c4bb7aba417298419b3d349e6dc57f83a15d4eeb8c7a7a8e91df",
    ("np-int64", "raw"): "01fcd505dbce4390f01ea1958e537bf766e79a2e3b98535980656c9d23c1caaa",
    ("np-int64", "random"): "7454964a75dc2159e90c5dd9b1a9d5fd1f4d0079126477a73757c820cb9c5e12",
    ("np-int64", "integers"): "b765ae2cca569f7f123a5d088d8b5d4d132d7d49f0c882d0b5b3a53e26bde7e0",
    ("np-int64", "choice"): "3c60712fa754187100135564e2d8d0edcb1531bb6696bd2817f602d1f3cc7832",
    ("root", "raw"): "d459078c693d5484dd8a6daf2aa65938e8d411b00663a9b60dae2e3055847bb2",
    ("root", "random"): "2accd6ec005da3790ff11c61e508dbf3304648c053ba48d2f7c46e10b286727d",
    ("root", "integers"): "da0a288aa4746d61b47e62b49037ce89bae68f5249f53662d8d76c8de75dfbf4",
    ("root", "choice"): "b9e3170aa8361418a72da1eb4931e0c1236a7db3057d4cc1754b294a3ecbca80",
    ("seeds", "raw"): "21b1189f2f7d00a0f26fc8174b55c23bf69d0726a1f3df838a12501976cfc3cb",
    ("seeds", "random"): "698732f4c1df7aa9ab73b306156dc75636a8d68f9ea382c2c60c4ba08ad390d0",
    ("seeds", "integers"): "7434d1b2f600666fde58e4948c48a8ecbab13db2c55516d417f876e463aa8d3a",
    ("seeds", "choice"): "bf587265dc039e7ccbc1197f0323634e748e9a5a7f4bacaa9e2a797f2c652ddd",
    ("spawn-3", "raw"): "34d49d95d8085384f4d01faddc6b54420ecf95194419176de76fb8bd176e3d7d",
    ("spawn-3", "random"): "89fca52086405477a9c28385bc1147fbe44c423f58ebbb4c80b7cfa2b735f31b",
    ("spawn-3", "integers"): "05639e2e589152b19a6f47bff13aa5b82d25b9481441f1f0a9643fb1a6052c1c",
    ("spawn-3", "choice"): "d432680144d244806239c5abfa7936d877b994cbb88effb2719309eecf2d1797",
    ("spawn-eval", "raw"): "252709ac92a3ee49457a0ea31de9cbe58f6e8c1af461b0e47fd63cf9f1cd091a",
    ("spawn-eval", "random"): "bdc42cd0959dcdbcc2b94124f5d375472f24cdd7e1ef29e747c22ef30018d0ff",
    ("spawn-eval", "integers"): "ad07bd3724d5e89ef19a0e2773c49a964fd3d786e71d0056fd56dcedf7c94531",
    ("spawn-eval", "choice"): "e8b37fd94d74465039070ca0afecf282badc806de8eb5b291392552dc5e03b5d",
    ("str", "raw"): "d56f596a9dc0db44bb6310596c08d266b0112605d878943783676bb4b842119a",
    ("str", "random"): "53eca1a985a82348c908fbfc8b8a1fa89306570aa418120b3cfed8ae4693b33a",
    ("str", "integers"): "a2d044d7a1cbda39772f3faf673714465acb37f2f8efaa600d67bc73e997473a",
    ("str", "choice"): "d2a6cad89f755d47a0a354bd0d60aadf09ba24edd2f04cb4f99a2cd6a89fb2ee",
}


@pytest.mark.parametrize("kind", ["raw", "random", "integers", "choice"])
@pytest.mark.parametrize("case", sorted(_stream_cases()))
def test_stream_draws_are_pinned(case, kind):
    digest = hashlib.sha256(_draws(case, kind)).hexdigest()
    assert digest == _STREAM_SHA256[case, kind]


def test_import_loads_neither_numpy_random_nor_scipy():
    """Importing the package stays cheap: streams and the planar geometry
    load their libraries on first use."""
    src = os.path.dirname(os.path.dirname(noisynet.__file__))
    code = (
        "import sys, noisynet; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


#: One read of a stream: ``uniforms(k)``, ``random(n)``, ``integers(0, hi,
#: n)``, ``random_raw(n)`` on its generator, or a ``spawn`` and two reads
#: of the child
_READS = st.one_of(
    st.tuples(st.just("uniforms"), st.integers(0, 40)),
    st.tuples(st.just("random"), st.none() | st.integers(0, 8)),
    st.tuples(st.just("integers"), st.integers(1, 2**40), st.integers(0, 5)),
    st.tuples(st.just("raw"), st.integers(0, 8)),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
)


def _read(stream, op, buffered: bool) -> list:
    """The values of one read; unbuffered, ``uniforms(k)`` is ``random(k)``."""
    kind, *args = op
    if kind == "uniforms":
        return stream.uniforms(args[0]) if buffered else stream.random(args[0]).tolist()
    if kind == "random":
        return np.asarray(stream.random(args[0])).tolist()
    if kind == "integers":
        return stream.integers(0, args[0], size=args[1]).tolist()
    if kind == "raw":
        return stream.numpy_generator().bit_generator.random_raw(args[0]).tolist()
    child = stream.spawn("child", args[0])
    return [_read(child, ("uniforms", 2), buffered), child.random(1).tolist()]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), reads=st.lists(_READS, max_size=30))
# blocks of 3 and 6 used up at once, one of 12 used up by two requests
@example(seed=1, reads=[("uniforms", 3), ("uniforms", 6), ("uniforms", 5),
                        ("uniforms", 7), ("random", 2), ("uniforms", 4)])
# a request crossing into a block of 12, which a raw read rewinds; then a
# block of 2 half served, which an integers read rewinds
@example(seed=2, reads=[("uniforms", 3), ("uniforms", 2), ("uniforms", 7), ("raw", 5),
                        ("uniforms", 1), ("uniforms", 1), ("integers", 10, 3), ("uniforms", 9)])
def test_uniforms_serve_the_draws_of_an_unbuffered_stream(seed, reads):
    """Any interleaving of reads gives the values the same reads give on a
    fresh stream that never buffers: a seed names the same draws."""
    s, ref = RngStream(seed, ("blocks",)), RngStream(seed, ("blocks",))
    for op in reads:
        assert _read(s, op, True) == _read(ref, op, False), op
    assert s.random(3).tolist() == ref.random(3).tolist()


def test_uniforms_blocks_grow_to_max_block():
    """Blocks double from the first request up to MAX_BLOCK; a larger
    request is one block of its own size."""
    s, ref = RngStream(3), RngStream(3)
    assert s.uniforms(9) == ref.random(9).tolist() and len(s._block) == 9
    got = [u for _ in range(999) for u in s.uniforms(9)]
    assert got == ref.random(9 * 999).tolist()
    assert len(s._block) == MAX_BLOCK
    assert s.uniforms(MAX_BLOCK + 5) == ref.random(MAX_BLOCK + 5).tolist()
    assert s.integers(2**40, size=3).tolist() == ref.integers(2**40, size=3).tolist()
