"""Deterministic random-number-generation helpers.

All stochastic components in :mod:`repro` accept an integer seed (or an
already-constructed :class:`numpy.random.Generator`).  Centralizing the
construction here guarantees that two runs with the same seed produce
bitwise-identical streams, which the test suite relies on, and gives
distributed simulations a principled way to derive independent
per-worker streams (:func:`spawn_rngs`) instead of the classic
``seed + rank`` anti-pattern, whose streams can overlap.
:func:`keyed_rngs` builds many keyed ``SeedSequence`` streams at once,
and :func:`spawn_keyed` uses it to build a ``SeedSequence``'s next
spawned children without spawning them.
"""

from __future__ import annotations

import functools
import operator
from typing import List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts ``None`` (non-deterministic), an ``int``, a
    :class:`~numpy.random.SeedSequence`, or an existing generator
    (returned unchanged so call sites can be seed-or-generator
    polymorphic).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive *n* statistically independent generators from one seed.

    Used by the distributed-training and scheduler simulators so every
    simulated worker draws from its own stream.  Independence comes from
    :meth:`numpy.random.SeedSequence.spawn`, which partitions the
    underlying entropy rather than offsetting a single stream.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.Generator):
        # Derive a SeedSequence from the generator's bit stream.
        seq = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def spawn_seqs(seed: SeedLike, n: int) -> List[np.random.SeedSequence]:
    """Derive *n* independent :class:`~numpy.random.SeedSequence`\\ s.

    The transport-friendly sibling of :func:`spawn_rngs`: a
    ``SeedSequence`` is a tiny picklable value, so fan-out call sites
    (``repro.par``) pre-spawn one per task in the parent and ship it to
    whichever worker runs the task — the stream is a function of the
    task, not of the backend, which is what makes process results
    bit-exact against serial.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} sequences")
    if isinstance(seed, np.random.Generator):
        seq = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return seq.spawn(n)


#: SeedSequence's hash constants (numpy/random/bit_generator.pyx).  NEP 19
#: keeps SeedSequence output and PCG64 seeding stable across NumPy
#: versions; tests/test_util.py rechecks :func:`keyed_rngs` against
#: NumPy's own SeedSequence on every run.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _uint32_words(value: int) -> List[int]:
    """*value* as little-endian uint32 words, as SeedSequence coerces it."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


# The two hash steps take Python ints or uint32 arrays: every constant fits
# one uint32 word, so array arithmetic wraps mod 2**32 exactly where the
# masks do for Python ints.

def _hashmix(value, const, mult: int = _MULT_A):
    """SeedSequence's ``hashmix``: ``(mixed value, next hash constant)``."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> _XSHIFT, const


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _hash_consts(const: int, mult: int, n: int) -> np.ndarray:
    """The next *n* hash constants from *const*, side by side."""
    consts = []
    for _ in range(n):
        consts.append(const)
        const = const * mult & _MASK32
    return np.array(consts, dtype=np.uint32)


#: ``generate_state(4, uint64)`` hashes eight uint32 words: the pool, twice
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


class _Seeded(ISeedSequence):
    """Hands PCG64 a precomputed ``generate_state(4, uint64)`` row."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.lru_cache(maxsize=32)
def _pool_prefix(seed: int, namespace: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """SeedSequence's pool after mixing in the seed and namespace words,
    and the four hash constants the key word mixes with, as uint32
    arrays (read-only: every call with the pair shares them).

    They depend only on ``(seed, namespace)``, and a campaign builds
    every batch of its run from one pair, so they are computed once
    per pair, as Python ints.
    """
    entropy = _uint32_words(seed)
    # a spawn key pads the run entropy out to the pool size with zeros
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += _uint32_words(namespace)
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    pool = np.array(pool, dtype=np.uint32)
    consts = _hash_consts(const, _MULT_A, _POOL_SIZE)
    pool.flags.writeable = consts.flags.writeable = False
    return pool, consts


def keyed_rngs(seed: int, namespace: int,
               keys: Sequence[int]) -> List[np.random.Generator]:
    """One generator per key, bit-identical to
    ``default_rng(SeedSequence(seed, spawn_key=(namespace, key)))``.

    Builds the whole batch at once.  The seed and namespace words are the
    same for every key, so their share of SeedSequence's entropy pool is
    mixed once per ``(seed, namespace)`` pair and cached
    (:func:`_pool_prefix`); only the last entropy word (the key) and the
    ``generate_state(4, uint64)`` output hash run in NumPy, over all keys
    together.  Each key must fit one uint32 word; anything else raises
    :class:`ValueError` (it is never truncated).
    """
    words = np.asarray(keys)
    if words.size == 0:
        return []
    if words.ndim != 1 or words.dtype.kind not in "iu" \
            or words.min() < 0 or words.max() > _MASK32:
        raise ValueError("keys must be integers in [0, 2**32)")
    pool, consts = _pool_prefix(operator.index(seed),
                                operator.index(namespace))
    # the key word's four mixing steps, one pool word per column
    mixed, _ = _hashmix(words.astype(np.uint32)[:, None], consts)
    pool = _mix(pool, mixed)
    halves, _ = _hashmix(np.tile(pool, 2), _STATE_CONSTS, _MULT_B)
    # little-endian pairs of uint32 words make the uint64 state words;
    # PCG64 reads each row's raw memory, so the rows must be contiguous
    halves = halves.astype(np.uint64)
    state = np.ascontiguousarray(halves[:, 0::2] | halves[:, 1::2] << 32)
    return [np.random.Generator(np.random.PCG64(_Seeded(row)))
            for row in state]


def spawn_keyed(seq: np.random.SeedSequence, n: int
                ) -> Tuple[List[np.random.Generator], np.random.SeedSequence]:
    """``[default_rng(child) for child in seq.spawn(n)]``, built by
    :func:`keyed_rngs` in one batch.

    Returns the generators and a copy of *seq* advanced past them
    (``n_children_spawned`` is read-only, so *seq* itself is left as
    it was).  *seq* must be a first-generation child with the default
    pool size, as ``SeedSequence(seed).spawn(k)`` makes: its spawn key
    is one namespace entry, and its children's keys are
    ``(namespace, i)``.  Any other shape raises :class:`ValueError`
    rather than compute a different stream.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    key = tuple(seq.spawn_key)
    if len(key) != 1 or seq.pool_size != _POOL_SIZE:
        raise ValueError(
            f"spawn_keyed needs a one-entry spawn key and pool size "
            f"{_POOL_SIZE}, got spawn_key={key}, "
            f"pool_size={seq.pool_size}"
        )
    start = seq.n_children_spawned
    rngs = keyed_rngs(seq.entropy, key[0], range(start, start + n))
    return rngs, np.random.SeedSequence(
        seq.entropy, spawn_key=key, n_children_spawned=start + n,
    )

