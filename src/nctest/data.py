"""Data model: statistics under investigation plus negative controls.

Every downstream routine in this package assumes that a small statistic
is evidence against its null hypothesis.  Ingestion is the single place
where that convention is enforced: when the caller declares
``orientation="large_is_significant"`` all statistic values are negated
once, and everything after that may rely on "small = evidence".
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import check_integer
from .errors import DataError

ORIENTATIONS = ("small_is_significant", "large_is_significant")

TRUTH_NULL = "null"
TRUTH_NONNULL = "nonnull"


def _as_float_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"{what} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"non-finite value in {what}")
    return arr


@dataclass(frozen=True)
class StatisticSet:
    """Test statistics under investigation plus negative controls.

    Values are stored on the internal scale (small = evidence).  The
    ``orientation`` field records what the caller supplied so results
    can be reported back on the original scale via :meth:`to_original`.

    Optional side information is keyed by statistic id: ``subgroup``
    labels for falsification checks, ``paired_raw`` (treatment, control)
    measurements for scale estimation from raw data, and ``truth``
    labels ("null" / "nonnull") carried through simulations.
    """

    investigation_ids: tuple
    investigation: np.ndarray
    nc_ids: tuple
    negative_controls: np.ndarray
    orientation: str = "small_is_significant"
    subgroup: dict = field(default_factory=dict)
    paired_raw: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise DataError(f"unknown orientation {self.orientation!r}")
        inv = _as_float_array(self.investigation, "investigation values")
        nc = _as_float_array(self.negative_controls, "negative control values")
        if inv.size < 1:
            raise DataError("no investigation statistics")
        if nc.size < 1:
            raise DataError("no negative controls")
        ids_inv = tuple(map(str, self.investigation_ids))
        ids_nc = tuple(map(str, self.nc_ids))
        if len(ids_inv) != inv.size or len(ids_nc) != nc.size:
            raise DataError("id list and value list lengths differ")
        if len(set(ids_inv + ids_nc)) != inv.size + nc.size:
            seen = set()
            for i in ids_inv + ids_nc:
                if i in seen:
                    raise DataError(f"duplicate id {i!r}")
                seen.add(i)
        for key, label in self.truth.items():
            if label not in (TRUTH_NULL, TRUTH_NONNULL):
                raise DataError(f"unknown truth label {label!r} for id {key!r}")
        inv.flags.writeable = False
        nc.flags.writeable = False
        object.__setattr__(self, "investigation_ids", ids_inv)
        object.__setattr__(self, "nc_ids", ids_nc)
        object.__setattr__(self, "investigation", inv)
        object.__setattr__(self, "negative_controls", nc)

    @property
    def n(self) -> int:
        return self.investigation.size

    @property
    def m(self) -> int:
        return self.negative_controls.size

    def to_original(self, values):
        """Map internal-scale values back to the scale the caller supplied."""
        arr = np.asarray(values, dtype=float)
        if self.orientation == "large_is_significant":
            return -arr
        return arr

    def truth_mask(self) -> np.ndarray:
        """Boolean array over investigation ids, True where truth is nonnull.

        Requires a truth label for every investigation id.
        """
        if not self.truth:
            raise DataError("statistic set has no truth labels")
        try:
            return np.array(
                [self.truth[i] == TRUTH_NONNULL for i in self.investigation_ids]
            )
        except KeyError as missing:
            raise DataError(f"missing truth label for id {missing.args[0]!r}") from None


def make_statistic_set(
    investigation_values,
    nc_values,
    orientation: str = "small_is_significant",
    investigation_ids=None,
    nc_ids=None,
    subgroup=None,
    paired_raw=None,
    truth=None,
) -> StatisticSet:
    """Build a StatisticSet from arrays, applying orientation once.

    Ids default to t1..tn and c1..cm.  Values are given on the caller's
    scale; they are negated here when orientation is large_is_significant.
    """
    inv = _as_float_array(investigation_values, "investigation values")
    nc = _as_float_array(nc_values, "negative control values")
    if orientation == "large_is_significant":
        inv = -inv
        nc = -nc
    elif orientation != "small_is_significant":
        raise DataError(f"unknown orientation {orientation!r}")
    if investigation_ids is None:
        investigation_ids = tuple(f"t{k}" for k in range(1, inv.size + 1))
    if nc_ids is None:
        nc_ids = tuple(f"c{k}" for k in range(1, nc.size + 1))
    return StatisticSet(
        investigation_ids=tuple(investigation_ids),
        investigation=inv,
        nc_ids=tuple(nc_ids),
        negative_controls=nc,
        orientation=orientation,
        subgroup=dict(subgroup or {}),
        paired_raw=dict(paired_raw or {}),
        truth=dict(truth or {}),
    )


_CANONICAL_COLUMNS = ("id", "value", "role", "subgroup", "treatment", "control", "truth")


def load_csv(source, orientation: str = "small_is_significant") -> StatisticSet:
    """Read a statistic set from CSV.

    Parameters
    ----------
    source : path, text stream, or byte stream
        CSV with header.  Required columns: id, value, role (role is
        "test" or "nc").  Optional: subgroup, treatment, control, truth
        (truth is "null" or "nonnull").
    orientation : str
        Which tail of the input values carries evidence.

    Row order is preserved within each role.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_csv(fh, orientation=orientation)
    if isinstance(source, io.BufferedIOBase) or (
        hasattr(source, "read") and isinstance(getattr(source, "mode", ""), str) and "b" in getattr(source, "mode", "")
    ):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")

    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise DataError("empty CSV: missing header")
    # a repeated header name means its last column, as with csv.DictReader
    index = {name: k for k, name in enumerate(header)}
    for required in ("id", "value", "role"):
        if required not in index:
            raise DataError(f"missing required column {required!r}")
    col = {name: index.get(name) for name in _CANONICAL_COLUMNS}
    i_id, i_value, i_role = col["id"], col["value"], col["role"]
    i_subgroup, i_treatment, i_control, i_truth = (
        col[name] for name in ("subgroup", "treatment", "control", "truth")
    )
    optional = any(k is not None for k in (i_subgroup, i_treatment, i_control, i_truth))
    # short rows read as empty fields; pad them out to every column used
    pad = [""] * (1 + max(k for k in col.values() if k is not None))

    inv_ids, inv_vals, nc_ids, nc_vals = [], [], [], []
    subgroup, paired_raw, truth = {}, {}, {}
    end = reader.line_num
    for row in reader:
        # errors name the file line where the record starts; blank lines count
        lineno, end = end + 1, reader.line_num
        if not row:
            continue
        if len(row) < len(pad):
            row += pad[len(row):]
        rid = row[i_id].strip()
        if not rid:
            raise DataError(f"line {lineno}: empty id")
        raw = row[i_value].strip()
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"line {lineno}: bad value {raw!r}") from None
        if not math.isfinite(value):
            raise DataError(f"line {lineno}: non-finite value {raw!r}")
        role = row[i_role].strip()
        if role == "test":
            inv_ids.append(rid)
            inv_vals.append(value)
        elif role == "nc":
            nc_ids.append(rid)
            nc_vals.append(value)
        else:
            raise DataError(f"line {lineno}: unknown role {role!r}")
        if not optional:
            continue
        if i_subgroup is not None:
            label = row[i_subgroup].strip()
            if label:
                subgroup[rid] = label
        t_raw = row[i_treatment].strip() if i_treatment is not None else ""
        c_raw = row[i_control].strip() if i_control is not None else ""
        if t_raw or c_raw:
            if not (t_raw and c_raw):
                raise DataError(f"line {lineno}: treatment and control must both be present")
            try:
                pair = (float(t_raw), float(c_raw))
            except ValueError:
                raise DataError(f"line {lineno}: bad treatment/control pair") from None
            if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
                raise DataError(f"line {lineno}: non-finite treatment/control pair")
            paired_raw[rid] = pair
        if i_truth is not None:
            label = row[i_truth].strip()
            if label:
                truth[rid] = label

    if not inv_ids:
        raise DataError("no investigation statistics (role=test)")
    if not nc_ids:
        raise DataError("no negative controls (role=nc)")
    return make_statistic_set(
        inv_vals,
        nc_vals,
        orientation=orientation,
        investigation_ids=inv_ids,
        nc_ids=nc_ids,
        subgroup=subgroup,
        paired_raw=paired_raw,
        truth=truth,
    )


def with_jitter(statistics: StatisticSet, seed: int) -> StatisticSet:
    """Random tie-break: perturb every value by less than the smallest gap.

    Jitter amplitude is a quarter of the smallest nonzero gap between
    pooled values, so the relative order of distinct values cannot
    change while exact ties split uniformly at random.
    """
    check_integer(seed, "seed")
    values = np.concatenate([statistics.investigation, statistics.negative_controls])
    distinct = np.unique(values)
    if distinct.size > 1:
        gap = np.min(np.diff(distinct))
    else:
        gap = 1.0
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-0.25 * gap, 0.25 * gap, size=values.size)
    inv = statistics.investigation + noise[: statistics.n]
    nc = statistics.negative_controls + noise[statistics.n :]
    return StatisticSet(
        investigation_ids=statistics.investigation_ids,
        investigation=inv,
        nc_ids=statistics.nc_ids,
        negative_controls=nc,
        orientation=statistics.orientation,
        subgroup=dict(statistics.subgroup),
        paired_raw=dict(statistics.paired_raw),
        truth=dict(statistics.truth),
    )
