"""Data model: statistics under investigation plus negative controls.

Every downstream routine in this package assumes that a small statistic
is evidence against its null hypothesis.  Ingestion is the single place
where that convention is enforced: when the caller declares
``orientation="large_is_significant"`` all statistic values are negated
once, and everything after that may rely on "small = evidence".
"""

from __future__ import annotations

import copy
import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import check_integer, distinct
from .errors import DataError

ORIENTATIONS = ("small_is_significant", "large_is_significant")

TRUTH_NULL = "null"
TRUTH_NONNULL = "nonnull"


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, frozen in place; only for an array no caller holds."""
    arr.flags.writeable = False
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr if it is read-only, else a read-only copy, so a caller's array stays writeable."""
    return _read_only(arr.copy()) if arr.flags.writeable else arr


def _float_array(values) -> np.ndarray:
    """np.asarray(values, dtype=float), frozen in place when it is a new
    array built from a list or tuple, which no caller holds."""
    arr = np.asarray(values, dtype=float)
    return _read_only(arr) if isinstance(values, (list, tuple)) else arr


def _as_float_array(values, what: str) -> np.ndarray:
    """values as a read-only float array that the caller cannot change;
    only a writeable array that the caller holds is copied."""
    arr = _float_array(values)
    if arr.ndim != 1:
        raise DataError(f"{what} must be one-dimensional")
    _check_finite(arr, what)
    return _frozen(arr)


def _check_finite(arr: np.ndarray, what: str) -> None:
    # the extremes reach every NaN and infinity without a mask the size of
    # arr; the initial value lets an empty array through to its caller's check
    if not (math.isfinite(arr.min(initial=0.0)) and math.isfinite(arr.max(initial=0.0))):
        raise DataError(f"non-finite value in {what}")


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
        unique_ids = set(ids_inv)
        unique_ids.update(ids_nc)
        if len(unique_ids) != inv.size + nc.size:
            seen = set()
            for i in ids_inv + ids_nc:
                if i in seen:
                    raise DataError(f"duplicate id {i!r}")
                seen.add(i)
        for key, label in self.truth.items():
            if label not in (TRUTH_NULL, TRUTH_NONNULL):
                raise DataError(f"unknown truth label {label!r} for id {key!r}")
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
    inv = _float_array(investigation_values)
    nc = _float_array(nc_values)
    if orientation == "large_is_significant":
        inv, nc = _read_only(-inv), _read_only(-nc)
    if investigation_ids is None:
        investigation_ids = [f"t{k}" for k in range(1, inv.size + 1)]
    if nc_ids is None:
        nc_ids = [f"c{k}" for k in range(1, nc.size + 1)]
    return StatisticSet(
        investigation_ids=investigation_ids,
        investigation=inv,
        nc_ids=nc_ids,
        negative_controls=nc,
        orientation=orientation,
        subgroup=dict(subgroup or {}),
        paired_raw=dict(paired_raw or {}),
        truth=dict(truth or {}),
    )


_CANONICAL_COLUMNS = ("id", "value", "role", "subgroup", "treatment", "control", "truth")
# the required fields of a record as np.loadtxt reads them: the id stripped,
# the value as a float and the role as a code
_RECORD = np.dtype([("id", object), ("value", float), ("role", np.int8)])


class _RoleCodes(dict):
    """Role text to code; a padded role is looked up stripped, an unknown one is -1."""

    def __missing__(self, text):
        return self.get(text.strip(), -1)


_ROLE_CODES = _RoleCodes(nc=0, test=1)


def _record_error(row: list, i_id: int, i_value: int, i_role: int):
    """What is wrong with the required fields of a record, or None if nothing is."""
    if not row[i_id].strip():
        return "empty id"
    raw = row[i_value].strip()
    try:
        if "_" in raw or not raw.isascii():  # float() reads these; numpy's parser does not
            raise ValueError
        value = float(raw)
    except ValueError:
        return f"bad value {raw!r}"
    if not math.isfinite(value):
        return f"non-finite value {raw!r}"
    role = row[i_role].strip()
    if role not in ("test", "nc"):
        return f"unknown role {role!r}"
    return None


def _records(fh, start: int, lines_before: int, width: int):
    """(file line, fields) of each record after start, short rows padded to width."""
    fh.seek(start)
    reader = csv.reader(fh)
    pad = [""] * width
    line = lines_before
    for row in reader:
        # a record starts on the line after the previous one ends; blank lines count
        first, line = line + 1, lines_before + reader.line_num
        if row:
            yield first, row if len(row) >= width else row + pad[len(row):]


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

    Fields may be quoted; blank lines are skipped, missing trailing
    fields read as empty and fields beyond the header are ignored.
    There are no comment lines, and a byte-order mark before the header
    is dropped.  Row order is preserved within each role.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_csv(fh, orientation=orientation)
    if isinstance(source, io.BufferedIOBase) or (
        hasattr(source, "read") and isinstance(getattr(source, "mode", ""), str) and "b" in getattr(source, "mode", "")
    ):
        text = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            return load_csv(text, orientation=orientation)
        finally:
            text.detach()  # the caller's stream stays open
    if not source.seekable():
        # records are read again to place an error or to read the optional columns
        source = io.StringIO(source.read(), newline="")

    # the header is read line by line, so the stream can tell where the records start
    reader = csv.reader(iter(source.readline, ""))
    header = next(reader, None)
    if header is None:
        raise DataError("empty CSV: missing header")
    if header:
        header[0] = header[0].removeprefix("\ufeff")  # the byte-order mark Excel writes
    # a repeated header name means its last column, as with csv.DictReader
    index = {name: k for k, name in enumerate(header)}
    for required in ("id", "value", "role"):
        if required not in index:
            raise DataError(f"missing required column {required!r}")
    col = [index.get(name) for name in _CANONICAL_COLUMNS]
    i_id, i_value, i_role, i_subgroup, i_treatment, i_control, i_truth = col
    optional = any(k is not None for k in col[3:])
    start, header_lines = source.tell(), reader.line_num

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns of an input without records
            records = np.loadtxt(source, dtype=_RECORD, delimiter=",", quotechar='"', comments=None,
                                 usecols=(i_id, i_value, i_role), ndmin=1,
                                 converters={i_id: str.strip, i_role: _ROLE_CODES.__getitem__})
    except ValueError as error:
        # a value the parser cannot read or a row that lacks a used column: check every record
        refused, first_bad = error, 0
    else:
        refused = None
        ids, values, roles = records["id"], records["value"], records["role"]
        is_test, is_nc = roles == _ROLE_CODES["test"], roles == _ROLE_CODES["nc"]
        bad = (ids == "") | ~np.isfinite(values) | ~(is_test | is_nc)
        first_bad = int(np.argmax(bad)) if bad.any() else math.inf

    subgroup, paired_raw, truth = {}, {}, {}
    if optional or first_bad < math.inf:
        # errors name the file line where the first bad record starts
        width = 1 + max(k for k in col if k is not None)
        for k, (lineno, row) in enumerate(_records(source, start, header_lines, width)):
            if k >= first_bad:
                problem = _record_error(row, i_id, i_value, i_role)
                if problem:
                    raise DataError(f"line {lineno}: {problem}")
            if not optional:
                continue
            rid = row[i_id].strip()
            label = row[i_subgroup].strip() if i_subgroup is not None else ""
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
            label = row[i_truth].strip() if i_truth is not None else ""
            if label:
                truth[rid] = label
    if refused is not None:
        raise DataError(f"unreadable record: {refused}")

    if not is_test.any():
        raise DataError("no investigation statistics (role=test)")
    if not is_nc.any():
        raise DataError("no negative controls (role=nc)")
    return make_statistic_set(
        _read_only(values[is_test]),
        _read_only(values[is_nc]),
        orientation=orientation,
        investigation_ids=ids[is_test].tolist(),
        nc_ids=ids[is_nc].tolist(),
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
    t, _ = distinct(values)
    gap = np.min(np.diff(t)) if t.size > 1 else 1.0
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-0.25 * gap, 0.25 * gap, size=values.size)
    inv = statistics.investigation + noise[: statistics.n]
    nc = statistics.negative_controls + noise[statistics.n :]
    _check_finite(inv, "investigation values")  # a jitter can overflow the float range
    _check_finite(nc, "negative control values")
    # a copy with new values and its own side dicts; dataclasses.replace
    # would check the unchanged ids again
    jittered = copy.copy(statistics)
    for name, value in (("investigation", _read_only(inv)), ("negative_controls", _read_only(nc)),
                        ("subgroup", dict(statistics.subgroup)),
                        ("paired_raw", dict(statistics.paired_raw)), ("truth", dict(statistics.truth))):
        object.__setattr__(jittered, name, value)
    return jittered
