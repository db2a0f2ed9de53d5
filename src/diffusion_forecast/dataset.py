"""Time-series containers, file ingestion, delay embedding, and neighbor queries."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

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
        Provenance tag (file name, simulator name, ...).
    """

    points: np.ndarray
    tau: float
    origin_label: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        # a single point is allowed so a split can leave a one-point
        # verification block; operations needing pairs check N themselves
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"time series needs at least 1 point, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("time series contains non-finite entries")
        if not self.tau > 0:
            raise ValueError(f"sampling interval must be positive, got {self.tau}")
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
    """

    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        if self.indices.shape != self.distances.shape:
            raise ValueError("indices and distances must have the same shape")


def load_series(path, format: str, tau: float = 1.0) -> TimeSeries:
    """Read a scalar time series from one of the supported text formats.

    Parameters
    ----------
    path : str or Path
        Input file.
    format : {"single-column", "two-column-dated", "noaa-monthly-grid"}
        Layout of the file. ``single-column`` is one value per line,
        ``two-column-dated`` is "YYYY-MM,value" CSV, ``noaa-monthly-grid``
        is whitespace-separated rows of "year v1 ... v12".
    tau : float
        Sampling interval to attach (monthly data uses 1.0 month units).

    Values at or below -99 are missing-data sentinels and truncate the
    series at their first occurrence.
    """
    if format in ("two-column-dated", "noaa-monthly-grid"):
        ts, _ = load_monthly_series(path, format, tau=tau)
        return ts
    if format != "single-column":
        raise ValueError(f"unknown series format: {format!r}")

    path = Path(path)
    values = []
    for line_no, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: unparseable value {line!r}") from None
        if v <= SENTINEL_THRESHOLD:
            break
        values.append(v)
    return _finish_scalar_series(values, tau, str(path))


def load_monthly_series(path, format: str, tau: float = 1.0) -> tuple[TimeSeries, tuple[int, int]]:
    """Read a dated monthly series; also return its (year, month) start.

    The start date lets experiment drivers slice calendar windows without
    re-parsing. Only the dated formats are supported here.
    """
    path = Path(path)
    if format == "two-column-dated":
        values, start = _parse_two_column(path)
    elif format == "noaa-monthly-grid":
        values, start = _parse_noaa_grid(path)
    else:
        raise ValueError(f"unknown dated series format: {format!r}")
    return _finish_scalar_series(values, tau, str(path)), start


def _read_lines(path: Path) -> list[str]:
    try:
        return path.read_text().splitlines()
    except FileNotFoundError:
        raise FileNotFoundError(f"series file not found: {path}") from None


def _finish_scalar_series(values: list[float], tau: float, label: str) -> TimeSeries:
    if len(values) < 2:
        raise ValueError(f"{label}: empty or single-point series after parsing")
    return TimeSeries(np.asarray(values, dtype=float)[:, None], tau=tau, origin_label=label)


def _parse_two_column(path: Path) -> tuple[list[float], tuple[int, int]]:
    values: list[float] = []
    start = None
    for line_no, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        m = _DATE_RE.match(parts[0]) if len(parts) == 2 else None
        if m is None:
            if line_no == 1:
                continue  # header row
            raise ValueError(f"{path}:{line_no}: expected 'YYYY-MM,value', got {line!r}")
        try:
            v = float(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{line_no}: unparseable value {parts[1]!r}") from None
        if v <= SENTINEL_THRESHOLD:
            break
        if start is None:
            start = (int(m.group(1)), int(m.group(2)))
        values.append(v)
    if start is None:
        raise ValueError(f"{path}: no data rows found")
    return values, start


def _parse_noaa_grid(path: Path) -> tuple[list[float], tuple[int, int]]:
    values: list[float] = []
    start = None
    stop = False
    for line_no, raw in enumerate(_read_lines(path), start=1):
        if stop:
            break
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 13:
            raise ValueError(
                f"{path}:{line_no}: expected 'year v1 ... v12' (13 fields), got {len(tokens)}"
            )
        try:
            year = int(tokens[0])
            row = [float(t) for t in tokens[1:]]
        except ValueError:
            raise ValueError(f"{path}:{line_no}: unparseable numeric field") from None
        if start is None:
            start = (year, 1)
        for v in row:
            if v <= SENTINEL_THRESHOLD:
                stop = True
                break
            values.append(v)
    if start is None:
        raise ValueError(f"{path}: no data rows found")
    return values, start


def delay_embed(ts: TimeSeries, lags: int) -> TimeSeries:
    """Stack ``lags`` consecutive samples into each row (newest block first).

    Row i of the result is (x_{i+L-1}, x_{i+L-2}, ..., x_i), so the rows
    remain chronological and the leading n coordinates of row i recover
    x_{i+L-1} exactly.
    """
    if lags < 1:
        raise ValueError(f"lags must be >= 1, got {lags}")
    n = ts.n_points
    if lags > n:
        raise ValueError(f"lags={lags} exceeds series length {n}")
    if lags == 1:
        return TimeSeries(ts.points.copy(), ts.tau, ts.origin_label)
    pts = ts.points
    blocks = [pts[lags - 1 - j : n - j] for j in range(lags)]
    emb = np.hstack(blocks)
    return TimeSeries(emb, ts.tau, origin_label=f"{ts.origin_label}|embed(L={lags})")


def knn(ts: TimeSeries, k: int) -> NeighborList:
    """Exact Euclidean k-nearest neighbors for every point, self at rank 0.

    Ties are broken by lower point index. Brute force, chunked over query
    rows; fine up to a few 10^4 points.
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
    """
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    self_query = query is None
    q = pts if self_query else np.asarray(query, dtype=float)
    m = q.shape[0]
    out_idx = np.empty((m, k), dtype=np.int64)
    out_d2 = np.empty((m, k))
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


def rows_per_block(width: int) -> int:
    """Rows of a ``width``-wide array in one working block of about
    BLOCK_ENTRIES entries (at least one row): the package's one block rule."""
    return max(1, BLOCK_ENTRIES // max(1, width))


def _smallest_k(d2: np.ndarray, k: int):
    """Per-row k smallest entries of d2, ordered by (value, column index).

    The k + 1 ``argpartition`` candidates of each row are ordered by value
    with one ``argsort``; that is already the (value, index) order unless
    two candidates are exactly equal. One equality mask between neighbours
    in that order finds such rows: their candidates are put in (value,
    index) order again by one ``lexsort`` over those rows together, and a
    row whose tie straddles the cut, where ``argpartition`` may have left
    out a lower-index equal entry, is ordered again over its whole row.
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
    if tie.any():
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
    head = TimeSeries(ts.points[:n_train].copy(), ts.tau, f"{ts.origin_label}|train")
    tail = TimeSeries(ts.points[n_train:].copy(), ts.tau, f"{ts.origin_label}|verify")
    return head, tail


def write_csv(path, header, rows) -> None:
    """Write a header row and one line per row as CSV.

    Integer cells are written as integers; every other cell as
    ``repr(float(v))``, which reads back bit for bit.
    """
    with Path(path).open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_series_csv(ts: TimeSeries, path) -> None:
    """Write points as CSV with an x0,...,x{n-1} header row."""
    write_csv(path, [f"x{j}" for j in range(ts.dim)], ts.points)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """The header cells and the (rows, columns) float array of a CSV file
    such as :func:`write_csv` writes; blank lines are skipped. A row whose
    cell count differs from the header's, or a cell that is not a number, is
    a ValueError naming ``path:line``."""
    with Path(path).open() as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        header = first.strip().split(",")
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


def read_series_csv(path, tau: float, origin_label: str = "") -> TimeSeries:
    """Read a CSV written by :func:`write_series_csv`."""
    return TimeSeries(read_csv(path)[1], tau=tau, origin_label=origin_label or str(path))
