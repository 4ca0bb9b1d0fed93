"""Small shared helpers: RNG streams, JSON float lists, the NCTEST_THREADS setting."""

import os

import numpy as np


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


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent generator for replication `rep` of a run seeded by `seed`.

    Streams depend only on (seed, rep).
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


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
