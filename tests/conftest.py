"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from nctest.procedures import _count_extreme, _mask_blocks, _mask_pvalues, simes_statistic
from nctest.ranc import ranc_values


def _enumerate_simes(statistics):
    """(p, samples, observed) of the exact Simes permutation test, by enumerating
    every relabeling in lexicographic order: the oracle of the library's count.

    The tie ends of the sorted pool make controls tied with a test count as
    below it, as in ranc_values, which gives the observed statistic.
    """
    tests, controls = statistics.investigation, statistics.negative_controls
    pool = np.sort(np.concatenate([tests, controls]))
    tie_end = np.searchsorted(pool, pool, side="right") - 1
    samples = np.concatenate([simes_statistic(_mask_pvalues(masks, tie_end))
                              for masks in _mask_blocks(pool.size, tests.size)])
    observed = simes_statistic(ranc_values(tests, controls))
    return int(_count_extreme(samples, observed, "small")) / samples.size, samples, observed


@pytest.fixture(scope="session")
def enumerate_simes():
    return _enumerate_simes
