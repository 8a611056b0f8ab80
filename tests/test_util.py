"""Tests for repro.util: RNG determinism, tables, timers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util import Table, TimerRegistry, format_seconds
from repro.util.rng import (
    keyed_rngs,
    make_rng,
    spawn_keyed,
    spawn_rngs,
)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).random(16)
        b = make_rng(42).random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).random(16)
        b = make_rng(2).random(16)
        assert not np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(7)
        assert make_rng(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        rng = make_rng(seq)
        assert isinstance(rng, np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_streams_independent(self):
        rngs = spawn_rngs(0, 3)
        draws = [r.random(8) for r in rngs]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_deterministic(self):
        a = [r.random(4) for r in spawn_rngs(9, 2)]
        b = [r.random(4) for r in spawn_rngs(9, 2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_ok(self):
        assert spawn_rngs(0, 0) == []


def _seedseq_rng(seed, namespace, key):
    """The oracle: NumPy's own SeedSequence spawn-key stream."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(namespace, key))
    )


class TestKeyedRngs:
    """`keyed_rngs` is a batched twin of NumPy's SeedSequence seeding;
    these tests recheck it against the installed NumPy on every run."""

    @given(
        seed=st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=2**32, max_value=2**64 - 1),
            st.integers(min_value=2**64, max_value=2**160),
        ),
        namespace=st.integers(min_value=0, max_value=2),
        keys=st.lists(
            st.one_of(st.just(0), st.just(2**32 - 1),
                      st.integers(min_value=0, max_value=2**32 - 1)),
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_seed_sequence(self, seed, namespace, keys):
        rngs = keyed_rngs(seed, namespace, keys)
        assert len(rngs) == len(keys)
        for key, rng in zip(keys, rngs):
            assert rng.bit_generator.state \
                == _seedseq_rng(seed, namespace, key).bit_generator.state

    def test_duplicate_unsorted_keys_and_array_input(self):
        keys = [7, 2**32 - 1, 0, 7, 3, 0]
        for batch in (keys, np.array(keys, dtype=np.uint32),
                      np.array(keys, dtype=np.int64)):
            rngs = keyed_rngs(2**64 + 11, 1, batch)
            draws = [rng.random(3) for rng in rngs]
            for key, got in zip(keys, draws):
                np.testing.assert_array_equal(
                    got, _seedseq_rng(2**64 + 11, 1, key).random(3))
            assert rngs[0] is not rngs[3]  # duplicates get their own stream

    def test_empty(self):
        assert keyed_rngs(5, 2, []) == []

    @pytest.mark.parametrize("keys", [
        [-1], [0, 2**32], [2**64], [1.5], [True], [[1, 2]],
    ])
    def test_key_wider_than_one_word_raises(self, keys):
        with pytest.raises(ValueError):
            keyed_rngs(0, 1, keys)

    def test_negative_seed_or_namespace_raises(self):
        with pytest.raises(ValueError):
            keyed_rngs(-1, 1, [0])
        with pytest.raises(ValueError):
            keyed_rngs(0, -1, [0])


class TestSpawnKeyed:
    """`spawn_keyed` stands in for ``seq.spawn(n)`` + ``default_rng``."""

    @pytest.mark.parametrize("seed", [0, 11, 2**70 + 3, None])
    def test_matches_spawned_children_over_calls(self, seed):
        seq = np.random.SeedSequence(seed).spawn(3)[2]
        shadow = np.random.SeedSequence(seq.entropy,
                                        spawn_key=seq.spawn_key)
        for n in (5, 0, 1, 24):
            rngs, advanced = spawn_keyed(seq, n)
            want = [np.random.default_rng(c) for c in shadow.spawn(n)]
            assert [r.bit_generator.state for r in rngs] \
                == [w.bit_generator.state for w in want]
            assert seq.n_children_spawned \
                == shadow.n_children_spawned - n  # input left as it was
            seq = advanced
            assert (seq.entropy, seq.spawn_key, seq.n_children_spawned) \
                == (shadow.entropy, shadow.spawn_key,
                    shadow.n_children_spawned)
            assert type(seq.n_children_spawned) is int

    @pytest.mark.parametrize("seq", [
        np.random.SeedSequence(1),  # a root: no namespace entry
        np.random.SeedSequence(1).spawn(1)[0].spawn(1)[0],  # grandchild
        np.random.SeedSequence(1, spawn_key=(0,), pool_size=8),
    ], ids=["root", "grandchild", "pool8"])
    def test_other_shapes_raise(self, seq):
        with pytest.raises(ValueError):
            spawn_keyed(seq, 2)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_keyed(np.random.SeedSequence(1).spawn(1)[0], -1)


class TestFormatters:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (2.31e-3, "2.31 ms"),
            (0.0, "0 s"),
            (1.5, "1.5 s"),
            (3600.0, "60 min"),
            (8000.0, "2.22 h"),
            (5e-7, "500 ns"),
        ],
    )
    def test_format_seconds(self, value, expected):
        assert format_seconds(value) == expected

    def test_format_seconds_negative(self):
        assert format_seconds(-1.5).startswith("-")


class TestTable:
    def test_render_contains_cells(self):
        t = Table(["machine", "GTEPs"], title="Table 2")
        t.add_row("sierra", 67.258)
        t.add_row("catalyst", 4.175)
        text = str(t)
        assert "Table 2" in text
        assert "sierra" in text
        assert "67.26" in text

    def test_wrong_arity(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_alignment_numeric_right(self):
        t = Table(["name", "n"])
        t.add_row("x", 1)
        t.add_row("longer", 100)
        lines = str(t).splitlines()
        # numeric column is right aligned: '1' ends the cell
        assert lines[-2].rstrip().endswith("1")


class TestTimerRegistry:
    def test_phase_accumulates(self):
        t = TimerRegistry()
        with t.phase("a"):
            pass
        with t.phase("a"):
            pass
        assert t.count("a") == 2
        assert t.total("a") >= 0

    def test_add_modeled_time(self):
        t = TimerRegistry()
        t.add("solve", 1.5)
        t.add("solve", 0.5)
        assert t.total("solve") == pytest.approx(2.0)

    def test_missing_phase_zero(self):
        t = TimerRegistry()
        assert t.total("nope") == 0.0
        assert t.count("nope") == 0

    def test_merge(self):
        a, b = TimerRegistry(), TimerRegistry()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.total("x") == pytest.approx(3.0)
        assert a.total("y") == pytest.approx(3.0)

    def test_as_dict(self):
        t = TimerRegistry()
        t.add("p", 1.0)
        assert t.as_dict() == {"p": 1.0}
