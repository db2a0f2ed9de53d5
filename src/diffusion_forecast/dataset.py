"""Time-series containers, file ingestion and output, delay embedding,
neighbor queries, and the periodic wrap of angular coordinates.

The neighbour search imports scipy's ``cdist`` on its first call and keeps
it, so that importing the package loads no scipy. An import statement in
the search itself would cost about 0.8 us a call, and the local-linear
baselines make thousands of searches of a few tens of us each."""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Values at or below this are treated as missing-data sentinels (-99.9, -999, ...).
SENTINEL_THRESHOLD = -99.0

# Entries of one working block (rows_per_block): 5e5 doubles is 4 MB. The
# kNN search, the package's one all-pairs sweep, and every pass over the
# N x cap neighbour table work in blocks of this size, so their working
# memory is a few such blocks whatever N is, and no result depends on it.
# The size was measured when the kernel sums and the density estimate still
# swept all pairs: on a 2-core x86-64 VM with one BLAS thread, the kNN
# search, one kernel-sum histogram, the density estimate and the kernel
# assembly took together 925, 612, 530 and 535 ms at 4e6, 1e6, 5e5 and
# 2.5e5 entries on a 3000-point circle, and 428, 339, 316 and 376 ms on 2000
# Lorenz-63 points (best of 5).
BLOCK_ENTRIES = 500_000

# The largest int32; np.iinfo costs about 1 us a call, and the neighbour
# search of the local-linear baselines asks for an index dtype each call.
_INT32_MAX = 2**31 - 1

_DATE_RE = re.compile(r"^\s*(\d{4})-(\d{1,2})\s*$")


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled trajectory in ambient space.

    Attributes
    ----------
    points : ndarray, shape (N, n)
        Row i is the state at time t_0 + i * tau.
    tau : float
        Sampling interval, in time units.
    origin_label : str
        Read by nothing, and left ``""`` by the package; it stays a field
        only because ``bench/workloads.py`` still passes it.

    ``points`` is a read-only copy of the array given for it: the caller's
    array stays writable, and a write into ``points`` raises. The direct
    local-linear forecasts keep the neighbour ranking of their last query
    on the series (see :func:`~diffusion_forecast.baselines.fit_local_affine`),
    which a write would leave stale; the iterated walk keeps none.
    """

    points: np.ndarray
    tau: float
    origin_label: str = ""

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"time series points must be an (N, dim) array, got shape {pts.shape}")
        # a single point is allowed so a split can leave a one-point
        # verification block; operations needing pairs check N themselves
        if pts.shape[0] < 1:
            raise ValueError(f"time series needs at least 1 point, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("time series contains non-finite entries")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"sampling interval must be positive and finite, got {self.tau}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class NeighborList:
    """Exact k-nearest-neighbor table (self included at rank 0).

    ``distances`` rows are ascending; ties are broken by lower point index.
    ``indices`` has the dtype :func:`index_dtype` gives for twice the
    table's entry count, the most entries its symmetrized kernel can have:
    int32 up to 2^31 - 1 of them. The table is mutable:
    :func:`~diffusion_forecast.basis.build_vb_kernel` consumes it, resizing
    its two arrays into the kernel's.
    """

    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        if self.indices.shape != self.distances.shape:
            raise ValueError("indices and distances must have the same shape")


def load_series(path, format: str, tau: float = 1.0) -> tuple[TimeSeries, tuple[int, int] | None]:
    """Read a series file: the package's one series reader.

    ``format`` is one of:

    - ``csv``: a header row, then one row of comma-separated values per
      sample, as :func:`write_series_csv` writes; a first line of numbers
      alone is no header and is rejected;
    - ``single-column``: one value per line;
    - ``two-column-dated``: "YYYY-MM,value" lines, after an optional header
      row on the first line;
    - ``noaa-monthly-grid``: "year v1 ... v12" rows, one per calendar year.

    Returns ``(series, start)``, the series sampled every ``tau`` (monthly
    data uses 1.0 month units) and the (year, month) of its first sample in
    the two dated formats, or None in the others. The three text formats skip
    blank lines and read a value at or below -99 as a missing-data sentinel:
    the series ends before it, also partway through a grid row. A ``csv``
    file has no sentinel, and every value in it is kept. A line that does not
    parse is a ValueError naming ``path:line``.
    """
    if format == "csv":
        return TimeSeries(read_csv(path)[1], tau=tau), None
    if format not in _ROW_PARSERS:
        raise ValueError(f"unknown series format: {format!r}")
    parse_row = _ROW_PARSERS[format]
    try:
        lines = Path(path).read_text().splitlines()
    except FileNotFoundError:
        raise FileNotFoundError(f"series file not found: {path}") from None
    values: list[float] = []
    start = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = parse_row(line, line_no)
        except ValueError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from None
        if row is None:
            continue
        date, row_values = row
        start = start or date
        kept = next((i for i, v in enumerate(row_values) if v <= SENTINEL_THRESHOLD), None)
        values.extend(row_values[:kept])
        if kept is not None:
            break
    if len(values) < 2:
        raise ValueError(f"{path}: empty or single-point series after parsing")
    return TimeSeries(np.asarray(values, dtype=float)[:, None], tau=tau), start


# A row parser takes one stripped, non-blank line and its line number, and
# returns the row's (year, month) date, or None in an undated format, and
# its values in time order; or None for a header row, which it skips.
def _single_column(line: str, line_no: int):
    return None, [float(line)]


def _two_column_dated(line: str, line_no: int):
    parts = line.split(",")
    m = _DATE_RE.match(parts[0]) if len(parts) == 2 else None
    if m is None:
        if line_no == 1:
            return None
        raise ValueError(f"expected 'YYYY-MM,value', got {line!r}")
    return (int(m.group(1)), int(m.group(2))), [float(parts[1])]


def _noaa_monthly_grid(line: str, line_no: int):
    tokens = line.split()
    if len(tokens) != 13:
        raise ValueError(f"expected 'year v1 ... v12' (13 fields), got {len(tokens)}")
    return (int(tokens[0]), 1), [float(tok) for tok in tokens[1:]]


_DATED_PARSERS = {
    "two-column-dated": _two_column_dated,
    "noaa-monthly-grid": _noaa_monthly_grid,
}
_ROW_PARSERS = {"single-column": _single_column, **_DATED_PARSERS}

# The formats load_series reads, and those of them whose rows carry a date.
SERIES_FORMATS = ("csv", *_ROW_PARSERS)
DATED_FORMATS = tuple(_DATED_PARSERS)


def delay_embed(ts: TimeSeries, lags: int) -> TimeSeries:
    """Stack ``lags`` consecutive samples into each row (newest block first).

    Row i of the result is (x_{i+L-1}, x_{i+L-2}, ..., x_i), so the rows
    remain chronological and the leading n coordinates of row i recover
    x_{i+L-1} exactly; at ``lags == 1`` that is ``ts`` itself.
    """
    if lags < 1:
        raise ValueError(f"lags must be >= 1, got {lags}")
    n = ts.n_points
    if lags > n:
        raise ValueError(f"lags={lags} exceeds series length {n}")
    if lags == 1:
        return ts
    pts = ts.points
    return TimeSeries(np.hstack([pts[lags - 1 - j : n - j] for j in range(lags)]), ts.tau)


def knn(ts: TimeSeries, k: int) -> NeighborList:
    """Exact Euclidean k-nearest neighbors for every point, self at rank 0.

    Ties are broken by lower point index. Brute force, chunked over query
    rows; fine up to a few 10^4 points. See :func:`knn_points` for the
    index dtype and for the table's use by the kernel.
    """
    pts = np.ascontiguousarray(ts.points)
    return knn_points(pts, k)


def knn_points(pts: np.ndarray, k: int, query: np.ndarray | None = None) -> NeighborList:
    """kNN over a raw point array; ``query`` defaults to the points themselves.

    When ``query`` is the dataset itself, self-matches are forced to rank 0.
    The squared distances from the query rows to every point are taken with
    ``cdist`` in blocks of :func:`rows_per_block` rows: the package's one
    all-pairs sweep, which every later stage of the fit reads through the
    table it returns.

    The indices are stored in :func:`index_dtype` of ``2 * m * k``: int32,
    12 bytes an entry with its distance, unless the symmetrized kernel of
    the table, which has at most twice its entries, could have more than
    2^31 - 1. That is the rule of the kernel's CSR indices, so
    :func:`~diffusion_forecast.basis.build_vb_kernel` resizes the table's
    own buffers into the kernel's and consumes the table.

    A small query, such as the one state of a local-linear step, is one
    block: one ``cdist`` row and one ``argpartition`` over the n points,
    then the ordering of k + 1 candidates (see :func:`_smallest_k`). On
    2000 Lorenz-63 points and k = 15, one row costs about 25 us on one core
    of a 2-core x86-64 VM, of which ``cdist`` and ``argpartition`` take
    about 6 us each; the rest is the fixed cost of a dozen small numpy
    calls, the same at every size.
    """
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    self_query = query is None
    q = pts if self_query else np.asarray(query, dtype=float)
    m = q.shape[0]
    out_idx = np.empty((m, k), dtype=index_dtype(2 * m * k))
    out_d2 = np.empty((m, k))
    cdist = _cdist()
    step = rows_per_block(n)
    for s in range(0, m, step):
        e = min(s + step, m)
        d2 = cdist(q[s:e], pts, metric="sqeuclidean")
        if self_query:
            rows = np.arange(e - s)
            d2[rows, np.arange(s, e)] = -1.0  # pin self strictly first
        idx, dist = _smallest_k(d2, k)
        out_idx[s:e] = idx
        out_d2[s:e] = dist
    if self_query:
        out_d2[:, 0] = 0.0
    return NeighborList(indices=out_idx, distances=np.sqrt(out_d2, out=out_d2))


@functools.cache
def _cdist():
    """scipy's ``cdist``, imported on the first call and kept."""
    from scipy.spatial.distance import cdist

    return cdist


def index_dtype(entries: int) -> type:
    """Integer dtype of the indices of a table or CSR matrix of ``entries``
    stored entries: int32 up to 2^31 - 1 entries, int64 past them. Every
    index and row pointer such an array holds is then representable."""
    return np.int32 if entries <= _INT32_MAX else np.int64


def rows_per_block(width: int) -> int:
    """Rows of a ``width``-wide array in one working block of about
    BLOCK_ENTRIES entries (at least one row): the package's one block rule."""
    return max(1, BLOCK_ENTRIES // max(1, width))


def wrap_period(values: np.ndarray, period: float) -> np.ndarray:
    """Wrap a float array into [0, period) in place and return it: the
    package's one periodic wrap.

    The result equals ``np.remainder(values, period)`` bit for bit, for
    every value and period. When the period is positive and finite and every
    value lies in [-period, 2 * period), the wrap compares and shifts instead
    of calling fmod (on 3000 values about 11 us against 36 us, one core of a
    2-core x86-64 VM): x - period is exact on [period, 2 * period)
    (Sterbenz's lemma), x + period on [-period, 0) is the one rounded sum
    ``remainder`` makes (a tiny negative x gives period itself), and -0.0
    becomes +0.0. Any other input, NaN and infinities included, goes to
    ``np.remainder`` itself.
    """
    if (values.size and 0 < period < np.inf
            and -period <= values.min() and values.max() < 2 * period):
        # +1 below 0, -1 at or past the period, 0 elsewhere; x + 0.0 leaves
        # every x but -0.0, which becomes +0.0
        shift = (values < 0).view(np.int8) - (values >= period).view(np.int8)
        values += period * shift
    else:
        np.remainder(values, period, out=values)
    return values


def _smallest_k(d2: np.ndarray, k: int):
    """Per-row k smallest entries of d2, ordered by (value, column index).

    The k + 1 ``argpartition`` candidates of each row are ordered by value
    with one ``argsort``; that is already the (value, index) order unless
    two candidates are exactly equal. One equality mask between neighbours
    in that order finds such rows: their candidates are put in (value,
    index) order again by one ``lexsort`` over those rows together, and a
    row whose tie straddles the cut, where ``argpartition`` may have left
    out a lower-index equal entry, is ordered again over its whole row.

    The one rule is cheap at both sizes the package asks for. A ``lexsort``
    of every row would give the (value, index) order at once, but on the
    fit's 166-row blocks of 1025 candidates it costs about 16 ms against
    2.3 ms for the ``argsort``, and on the 16 candidates of a local-linear
    step it saves no call, since the mask is one comparison and one count.
    """
    n = d2.shape[1]
    rows = np.arange(d2.shape[0])[:, None]
    # the k + 1 smallest entries of each row, or all n when k = n
    cand_idx = d2.argpartition(min(k, n - 1), axis=1)[:, : k + 1]
    cand_d = d2[rows, cand_idx]
    order = cand_d.argsort(axis=1)
    cand_idx = cand_idx[rows, order]
    cand_d = cand_d[rows, order]
    tie = cand_d[:, 1:] == cand_d[:, :-1]
    if np.count_nonzero(tie):
        tied = np.flatnonzero(tie.any(axis=1))
        tied_idx, tied_d = cand_idx[tied], cand_d[tied]
        sub = np.lexsort((tied_idx, tied_d), axis=-1)
        cand_idx[tied] = np.take_along_axis(tied_idx, sub, axis=1)
        cand_d[tied] = np.take_along_axis(tied_d, sub, axis=1)
        if k < n:
            cut = tied[tie[tied, k - 1]]
            cut_d2 = d2[cut]
            full = cut_d2.argsort(axis=1, kind="stable")[:, :k]
            cand_idx[cut, :k] = full
            cand_d[cut, :k] = np.take_along_axis(cut_d2, full, axis=1)
    return cand_idx[:, :k], cand_d[:, :k]


def split(ts: TimeSeries, n_train: int) -> tuple[TimeSeries, TimeSeries]:
    """Split into the first ``n_train`` points and the remainder."""
    n = ts.n_points
    if not 1 <= n_train < n:
        raise ValueError(f"n_train={n_train} out of range [1, {n - 1}]")
    return TimeSeries(ts.points[:n_train], ts.tau), TimeSeries(ts.points[n_train:], ts.tau)


def write_csv(path, header, rows) -> None:
    """Write a header row and one line per row as CSV, making the file's
    directory first if it is missing.

    Integer cells are written as integers; every other cell as
    ``repr(float(v))``, which reads back bit for bit.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_json(path, obj) -> None:
    """Write ``obj`` as strict JSON, indented and with sorted keys, making
    the file's directory first if it is missing; a NaN or infinity in it is
    a ValueError, raised before anything is made."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_series_csv(ts: TimeSeries, path) -> None:
    """Write points as CSV with an x0,...,x{n-1} header row."""
    write_csv(path, [f"x{j}" for j in range(ts.dim)], ts.points)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """The header cells and the (rows, columns) float array of a CSV file
    such as :func:`write_csv` writes; blank lines are skipped. A first line
    whose cells are all numbers is no header, and would lose a sample if read
    as one; it, a row whose cell count differs from the header's, and a cell
    that is not a number are each a ValueError naming ``path:line``."""
    with Path(path).open() as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        header = first.strip().split(",")
        if all(_is_number(cell) for cell in header):
            raise ValueError(f"{path}:1: expected a header row, got the numbers {first.strip()!r}")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path}:{line_no}: {len(cells)} cells, the header has {len(header)}")
            try:
                rows.append([float(tok) for tok in cells])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: unparseable number in {line!r}") from None
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
