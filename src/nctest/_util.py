"""Small shared helpers: RNG streams and their seeds, JSON float lists, the NCTEST_THREADS setting."""

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


def check_seed(seed: int, name: str = "seed") -> None:
    """Raise DataError for a seed that numpy's SeedSequence refuses.

    That is anything but a non-negative integer; numpy integers pass.
    A bool is refused although Python counts it as an integer: a
    record of the seed would say true where seed 1's streams ran.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {seed!r}")
    if seed < 0:
        raise DataError(f"{name} must be non-negative")


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
