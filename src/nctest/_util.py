"""Small shared helpers: RNG streams, seed and count checks, distinct values, JSON float lists, NCTEST_THREADS."""

from __future__ import annotations

import numbers
import os

import numpy as np

from .errors import DataError


def thread_count() -> int:
    """The thread count that the NCTEST_THREADS environment variable names.

    Nothing in nctest runs threads of its own; bench/run.py records this
    value with its environment.  Unset means one per available CPU; a
    set value must be an integer of at least 1, otherwise ValueError is
    raised.
    """
    raw = os.environ.get("NCTEST_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"NCTEST_THREADS must be an integer of at least 1, got {raw!r}")
    return int(raw)


def check_integer(value, name: str, minimum: int = 0) -> int:
    """Return value as a Python int; raise DataError unless it is an integer >= minimum.

    Seeds (minimum 0, what numpy's SeedSequence accepts) and counts
    pass through here; numpy integers pass.  A bool is refused although
    Python counts it as an integer: a record of seed True would say
    true where seed 1's streams ran.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise DataError(f"{name} must be {bound}")
    return int(value)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4


def _hash(value, const, mult: int):
    """(hashed value, next constant): SeedSequence's hashmix and output hash.

    const may be a column of successive constants, which hashes value
    under each of them at once.
    """
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _column(const: int, mult: int, count: int):
    """(column, next constant): count successive hash constants from const, as uint64 rows."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], dtype=np.uint64)[:, None], consts[-1]


def _absorb(pool: np.ndarray, word, const: int):
    """(pool, const) after SeedSequence mixes one entropy word past the pool into each of its rows."""
    column, const = _column(const, _MULT_A, _POOL)
    value, _ = _hash(word, column, _MULT_A)
    return _mix(pool, value), const


def stream_states(seed: int, reps: range) -> list:
    """The PCG64 state of stream (seed, rep) for each rep, to assign to a bit_generator.state.

    Stream (seed, rep) is numpy's PCG64 seeded by the SeedSequence of
    entropy seed and spawn_key (rep,); this is that seeding, done for a
    block of reps at once.  numpy's SeedSequence of the seed alone fills
    and mixes the pool once.  Each rep's spawn words are mixed in, and
    the pool is hashed into four uint64 words, with uint32 arithmetic
    held in a (pool row, rep) uint64 array.  PCG64 reads the words, high half
    first, as the 128-bit initstate and initseq and sets
    inc = 2 initseq + 1, state = ((inc + initstate) MULT + inc) mod
    2**128, in Python ints.
    """
    seed = check_integer(seed, "seed")
    if len(reps) and min(reps[0], reps[-1]) < 0:
        raise DataError("rep must be non-negative")
    # the pool before any spawn word; filling it ran one hashmix per pool row
    # for each of the seed's uint32 words, padded to the pool, so the hash
    # constant has advanced that many times
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    const = _INIT_A * pow(_MULT_A, _POOL * max(-(-seed.bit_length() // 32), _POOL), 1 << 32)
    const &= _MASK32
    top = max(reps[0], reps[-1]) if len(reps) else 0
    for shift in range(0, max(top.bit_length(), 1), 32):
        word = np.array([rep >> shift & _MASK32 for rep in reps], dtype=np.uint64)
        mixed, const = _absorb(pool, word, const)
        if shift:  # a rep of fewer words takes no part
            mixed = np.where(np.array([rep >> shift > 0 for rep in reps], dtype=bool), mixed, pool)
        pool = mixed
    column, _ = _column(_INIT_B, _MULT_B, 8)
    # generate_state(4, uint64): eight uint32 words from the cycled pool, low one first
    words, _ = _hash(np.tile(pool, (2, 1)), column, _MULT_B)
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*(words[0::2] | words[1::2] << 32).tolist()):
        initstate, initseq = state_hi << 64 | state_lo, seq_hi << 64 | seq_lo
        inc = (initseq << 1 | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent generator for replication `rep` of a run seeded by `seed`.

    Streams depend only on (seed, rep); stream_states derives them.
    """
    rep = check_integer(rep, "rep")
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = stream_states(seed, range(rep, rep + 1))[0]
    return rng


def distinct(values):
    """(t, at_or_below): the distinct values ascending, and #{values <= t}, where the next run starts.

    Each run keeps its first value, as numpy's unique keeps it, so the same
    one of -0.0 and 0.0 stands for a tie, without the numpy.ma unique loads.
    """
    s = np.sort(values, axis=None)
    first = np.empty(s.shape, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return s[starts], np.append(starts[1:], s.size)


def float_list(values) -> list:
    """The array as a (nested) list of Python floats, NaN and inf as None.

    One .tolist() does the conversion.  Only when np.isfinite finds a
    non-finite value does the array pass through an object array that
    holds None in their places.
    """
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    if finite.all():
        return arr.tolist()
    return np.where(finite, arr, None).tolist()
