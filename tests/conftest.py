"""Fixtures shared by several test modules: oracles and input files."""

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


def _pool_csv(path, tests, controls):
    lines = ["id,value,role"]
    lines += [f"t{k},{float(v)!r},test" for k, v in enumerate(tests)]
    lines += [f"c{k},{float(v)!r},nc" for k, v in enumerate(controls)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.normal(size=12)
    values[:4] -= 50.0
    return _pool_csv(tmp_path / "toy.csv", values, rng.normal(size=15))


@pytest.fixture
def rich_csv(tmp_path):
    # subgroups and paired columns so null-fit and falsify have inputs
    rng = np.random.default_rng(9)
    lines = ["id,value,role,subgroup,treatment,control"]
    for k in range(120):
        t = rng.normal()
        c = rng.normal()
        lines.append(f"t{k},{float(t - c)!r},test,,{float(t)!r},{float(c)!r}")
    for k in range(60):
        t = rng.normal()
        c = rng.normal()
        label = "east" if k % 2 else "west"
        lines.append(f"c{k},{float(t - c)!r},nc,{label},{float(t)!r},{float(c)!r}")
    path = tmp_path / "rich.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def tied_csv(tmp_path):
    # one-decimal values tie within and across roles; -0.0 and 0.0 both occur
    rng = np.random.default_rng(17)
    tests = np.round(rng.normal(size=40), 1)
    tests[:8] -= 3.0
    controls = np.round(rng.normal(size=60), 1)
    return _pool_csv(tmp_path / "tied.csv", [*tests, -0.0, 0.0], [*controls, 0.0, -0.0])


@pytest.fixture
def zero_mad_csv(tmp_path):
    # seven of ten differences in each role are exactly zero, so every MAD is zero
    # and seven tests tie a control
    lines = ["id,value,role,treatment,control"]
    for role, prefix, step in (("test", "t", 0.5), ("nc", "c", 0.3)):
        for k in range(10):
            t = 1.0 if k < 7 else 1.0 + step * k
            lines.append(f"{prefix}{k},{t - 1.0!r},{role},{t!r},1.0")
    path = tmp_path / "zero_mad.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="session")
def pool_csv():
    """Writer of an id,value,role file from test and control values."""
    return _pool_csv


@pytest.fixture
def counted_pool_csv(tmp_path):
    # 5 tests and 20 controls at one decimal: C(25, 5) relabelings are within the
    # enumeration cap, so the Simes p-value is counted
    rng = np.random.default_rng(31)
    tests, controls = np.round(rng.normal(size=5) - 1.0, 1), np.round(rng.normal(size=20), 1)
    return _pool_csv(tmp_path / "pool.csv", tests, controls)
