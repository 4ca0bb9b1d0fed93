"""Small shared helpers: RNG streams, seed and count checks, JSON float lists, NCTEST_THREADS."""

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
