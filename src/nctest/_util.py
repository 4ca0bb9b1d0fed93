"""Small shared helpers: RNG streams, thread budget, JSON float lists."""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def thread_count() -> int:
    """Worker threads for embarrassingly parallel sweeps.

    Controlled by the NCTEST_THREADS environment variable: unset means
    one thread per available CPU; a set value must be an integer of at
    least 1, otherwise ValueError is raised.
    """
    raw = os.environ.get("NCTEST_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"NCTEST_THREADS must be an integer of at least 1, got {raw!r}")
    return int(raw)


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent generator for replication `rep` of a run seeded by `seed`.

    Streams depend only on (seed, rep), never on scheduling, so results
    are identical for any thread count.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def map_reps(worker, n_reps: int) -> list:
    """Run worker(rep) for rep in range(n_reps) on thread_count() threads,
    results ordered by rep."""
    threads = thread_count()
    if threads <= 1 or n_reps <= 1:
        return [worker(r) for r in range(n_reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(n_reps)))


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
