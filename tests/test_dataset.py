import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusion_forecast.dataset import (
    NeighborList,
    TimeSeries,
    delay_embed,
    index_dtype,
    knn,
    knn_points,
    load_series,
    split,
    write_csv,
    write_json,
    write_series_csv,
    wrap_period,
)

from _oracles import TWO_PI, brute_force_knn, lexsort_knn


def make_series(values, tau=1.0):
    return TimeSeries(np.asarray(values, dtype=float), tau=tau)


class TestTimeSeries:
    def test_scalar_input_becomes_column(self):
        ts = make_series([1.0, 2.0, 3.0])
        assert ts.points.shape == (3, 1)
        assert ts.dim == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((0, 2)), tau=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            make_series([1.0, np.nan])

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="positive"):
            TimeSeries(np.zeros((3, 1)), tau=0.0)

    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_rejects_a_nonfinite_tau(self, tau):
        with pytest.raises(ValueError, match=f"sampling interval must be positive and finite, "
                                             f"got {tau}"):
            TimeSeries(np.zeros((3, 1)), tau=tau)

    @pytest.mark.parametrize("shape", [(4,), (4, 2)])
    def test_points_are_a_read_only_copy(self, shape):
        given = np.arange(float(np.prod(shape))).reshape(shape)
        ts = TimeSeries(given, tau=1.0)
        with pytest.raises(ValueError, match="read-only"):
            ts.points[0, 0] = 7.0
        given[0] = 7.0  # the caller's array stays writable and apart
        assert ts.points[0, 0] == 0.0


class TestLoadSeries:
    def test_single_column(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1.0\n2.0\n3.0\n")
        ts, _ = load_series(f, "single-column")
        assert np.array_equal(ts.points, [[1.0], [2.0], [3.0]])

    def test_single_column_bad_line_names_line_number(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1.0\nnope\n3.0\n")
        with pytest.raises(ValueError, match="s.txt:2"):
            load_series(f, "single-column")

    def test_sentinel_truncates(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1.0\n2.0\n-99.9\n4.0\n")
        ts, _ = load_series(f, "single-column")
        assert ts.n_points == 2

    def test_two_column_dated(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("date,value\n1950-01,0.5\n1950-02,-0.25\n")
        ts, start = load_series(f, "two-column-dated")
        assert start == (1950, 1)
        assert np.allclose(ts.points[:, 0], [0.5, -0.25])

    def test_noaa_grid_unrolls_rows(self, tmp_path):
        f = tmp_path / "n.txt"
        row1 = "1950 " + " ".join(str(-1.5 + 0.1 * i) for i in range(12))
        row2 = "1951 " + " ".join(str(0.2 * i) for i in range(12))
        f.write_text(row1 + "\n" + row2 + "\n")
        ts, start = load_series(f, "noaa-monthly-grid")
        assert start == (1950, 1)
        assert ts.n_points == 24
        assert ts.points[0, 0] == pytest.approx(-1.5)
        assert ts.points[12, 0] == pytest.approx(0.0)

    def test_noaa_grid_sentinel_stops_midrow(self, tmp_path):
        f = tmp_path / "n.txt"
        f.write_text("2013 0.1 0.2 0.3 -99.9 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2\n")
        ts, _ = load_series(f, "noaa-monthly-grid")
        assert ts.n_points == 3

    def test_noaa_grid_wrong_field_count(self, tmp_path):
        f = tmp_path / "n.txt"
        f.write_text("1950 1 2 3\n")
        with pytest.raises(ValueError, match="n.txt:1"):
            load_series(f, "noaa-monthly-grid")

    def test_empty_series_errors(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("-999\n")
        with pytest.raises(ValueError, match="empty"):
            load_series(f, "single-column")

    def test_unknown_format(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1\n2\n")
        with pytest.raises(ValueError, match="format"):
            load_series(f, "fancy")

    @pytest.mark.parametrize("fmt, text", [
        ("single-column", "1.0\nnope\n"),
        ("two-column-dated", "date,value\n1950-01,x\n"),
        ("noaa-monthly-grid", "1950 1 2 3\n"),
    ])
    def test_errors_name_the_path_as_given(self, tmp_path, fmt, text):
        f = tmp_path / "data" / "nino" / "series.txt"
        f.parent.mkdir(parents=True)
        f.write_text(text)
        with pytest.raises(ValueError) as err:
            load_series(f, fmt)
        assert str(err.value).startswith(f"{f}:")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_series("/nonexistent/file.txt", "single-column")

    @pytest.mark.parametrize("fmt, start", [
        ("csv", None),
        ("single-column", None),
        ("two-column-dated", (1987, 1)),
        ("noaa-monthly-grid", (1987, 1)),
    ])
    def test_every_format_reads_the_same_values(self, tmp_path, fmt, start):
        values = np.random.default_rng(4).normal(size=24).tolist()
        lines = {
            "csv": ["x0"] + [repr(v) for v in values],
            "single-column": [repr(v) for v in values],
            "two-column-dated": ["date,value"] + [f"{1987 + i // 12}-{i % 12 + 1:02d},{v!r}"
                                                  for i, v in enumerate(values)],
            "noaa-monthly-grid": [f"{1987 + r} " + " ".join(repr(v) for v in row)
                                  for r, row in enumerate((values[:12], values[12:]))],
        }[fmt]
        f = tmp_path / "series.txt"
        f.write_text("\n".join(lines) + "\n")
        ts, got_start = load_series(f, fmt, tau=0.5)
        assert ts.points.shape == (24, 1) and ts.tau == 0.5
        assert np.array_equal(ts.points[:, 0], values)
        assert got_start == start

    @pytest.mark.parametrize("fmt, text, kept", [
        ("two-column-dated", "date,value\n1950-01,0.5\n1950-02,0.25\n1950-03,-99.9\n1950-04,1.0\n",
         [0.5, 0.25]),
        ("noaa-monthly-grid", "1950 " + " ".join(["0.5"] * 12) + "\n"
         "1951 0.25 -999 0.75 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n1952 nope\n",
         [0.5] * 12 + [0.25]),
        # a csv file has no sentinel
        ("csv", "x0\n0.5\n-150\n0.25\n", [0.5, -150.0, 0.25]),
    ], ids=["two-column-stops", "noaa-stops-midrow", "csv-keeps"])
    def test_sentinel_rule(self, tmp_path, fmt, text, kept):
        f = tmp_path / "series.txt"
        f.write_text(text)
        ts, _ = load_series(f, fmt)
        assert np.array_equal(ts.points[:, 0], kept)


class TestDelayEmbed:
    def test_lag_stacking_definition(self):
        ts = make_series([1.0, 2.0, 3.0, 4.0])
        emb = delay_embed(ts, 2)
        assert np.array_equal(emb.points, [[2, 1], [3, 2], [4, 3]])

    def test_identity_case(self):
        ts = make_series([1.0, 2.0, 3.0])
        emb = delay_embed(ts, 1)
        assert np.array_equal(emb.points, ts.points)

    def test_count_for_nino_shape(self):
        ts = make_series(np.arange(600, dtype=float))
        emb = delay_embed(ts, 5)
        assert emb.points.shape == (596, 5)

    def test_too_many_lags(self):
        ts = make_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="exceeds"):
            delay_embed(ts, 4)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_leading_block_recovers_newest_sample(self, lags, seed):
        rng = np.random.default_rng(seed)
        n, dim = 12, 2
        pts = rng.normal(size=(n, dim))
        ts = TimeSeries(pts, tau=0.5)
        emb = delay_embed(ts, lags)
        assert emb.tau == ts.tau
        for i in range(emb.n_points):
            assert np.array_equal(emb.points[i, :dim], pts[i + lags - 1])


class TestKnn:
    def test_collinear_example(self):
        ts = make_series([0.0, 1.0, 3.0])
        nl = knn(ts, 2)
        assert nl.indices[0].tolist() == [0, 1]
        assert nl.distances[0].tolist() == [0.0, 1.0]

    def test_k_equals_n_full_rows(self):
        ts = make_series([0.0, 1.0, 3.0])
        nl = knn(ts, 3)
        assert nl.indices[2].tolist() == [2, 1, 0]
        assert np.allclose(nl.distances[2], [0.0, 2.0, 3.0])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(100, 3))
        ts = TimeSeries(pts, tau=1.0)
        nl = knn(ts, 7)
        idx, dist = brute_force_knn(pts, 7)
        assert np.array_equal(nl.indices, idx)
        assert np.allclose(nl.distances, dist)

    def test_duplicate_points_self_first(self):
        pts = np.array([[0.0], [0.0], [1.0]])
        nl = knn(TimeSeries(pts, tau=1.0), 2)
        assert nl.indices[1, 0] == 1  # self outranks the lower-index duplicate
        assert nl.indices[1, 1] == 0

    def test_tie_break_by_lower_index(self):
        pts = np.array([[0.0], [1.0], [-1.0], [2.0]])
        nl = knn(TimeSeries(pts, tau=1.0), 3)
        # points 1 and 2 are both at distance 1 from point 0
        assert nl.indices[0].tolist() == [0, 1, 2]

    def test_indices_are_int32_up_to_2_31_minus_1_entries(self):
        # the rule alone: a table at the boundary would take 24 GiB
        assert index_dtype(2**31 - 1) is np.int32
        assert index_dtype(2**31) is np.int64

    def test_benchmark_size_tables_have_int32_indices(self, circle_series_3000):
        # the fit's tables on the circle (3000 x 1024) and on Lorenz
        # (2000 x 1024), and a local-linear ranking from one query
        assert knn(circle_series_3000, 1024).indices.dtype == np.int32
        pts = np.random.default_rng(0).normal(size=(2000, 3))
        assert knn_points(pts, 1024).indices.dtype == np.int32
        assert knn_points(pts, 90, query=pts[:1]).indices.dtype == np.int32

    def test_k_out_of_range(self):
        ts = make_series([0.0, 1.0])
        with pytest.raises(ValueError, match="out of range"):
            knn(ts, 3)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(30, 2))
        k = 5
        perm = rng.permutation(30)
        nl = knn(TimeSeries(pts, tau=1.0), k)
        nl_p = knn(TimeSeries(pts[perm], tau=1.0), k)
        # distances are permutation-invariant; indices map through the
        # relabeling (position j of the permuted array holds point perm[j]);
        # exact ties could reorder, but generic data has none
        assert np.allclose(nl_p.distances, nl.distances[perm])
        assert np.array_equal(perm[nl_p.indices], nl.indices[perm])


    @pytest.mark.parametrize("n_query", [None, 1, 6], ids=["self", "one-row", "many-row"])
    @pytest.mark.parametrize("k_is_n", [False, True], ids=["k<n", "k=n"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_grid_ties_match_the_lexsort_oracle(self, n_query, k_is_n, data):
        # on a small integer grid squared distances are exact and ties at
        # the k-th neighbour are common, so the (distance, index) order is
        # checked exactly where argpartition alone would pick arbitrarily
        dim = data.draw(st.integers(1, 3))
        coords = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        pts = np.array(data.draw(st.lists(coords, min_size=2, max_size=20)), dtype=float)
        n = pts.shape[0]
        k = n if k_is_n else data.draw(st.integers(1, n - 1))
        query = None
        if n_query is not None:
            query = np.array(data.draw(st.lists(coords, min_size=n_query, max_size=n_query)),
                             dtype=float)
        nl = knn_points(pts, k, query=query)
        idx, dist = lexsort_knn(pts, k, query)
        assert np.array_equal(nl.indices, idx)
        assert np.array_equal(nl.distances, dist)

    @pytest.mark.parametrize("self_query", [False, True], ids=["query", "self"])
    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_symmetric_ties_match_the_lexsort_oracle(self, self_query, k, seed):
        # the origin and rings of four points (+-r, 0), (0, +-r), in a
        # shuffled index order: seen from the origin, the candidates are tied
        # in fours, and the cut falls between two rings for k = 5, 9 and
        # inside one for k = 3, 7, where the k + 1 candidates cannot hold the
        # whole ring; the other rows see ties of their own. In these two
        # orders argpartition leaves a lower-index ring point out of the
        # candidates (seed 4 at k = 3, seed 0 at k = 7)
        rng = np.random.default_rng(seed)
        r = np.arange(1.0, 6.0)[:, None]
        zero = np.zeros_like(r)
        rings = np.vstack([np.hstack(c) for c in ((r, zero), (-r, zero), (zero, r), (zero, -r))])
        pts = rng.permutation(np.vstack([[[0.0, 0.0]], rings]))
        query = None if self_query else np.zeros((1, 2))
        nl = knn_points(pts, k, query=query)
        idx, dist = lexsort_knn(pts, k, query)
        assert np.array_equal(nl.indices, idx)
        assert np.array_equal(nl.distances, dist)


class TestSplit:
    def test_basic_split(self):
        ts = make_series(np.arange(10, dtype=float))
        train, verify = split(ts, 5)
        assert train.n_points == 5 and verify.n_points == 5

    def test_boundary_single_verification_point(self):
        ts = make_series(np.arange(10, dtype=float))
        train, verify = split(ts, 9)
        assert verify.n_points == 1
        with pytest.raises(ValueError):
            split(ts, 10)
        with pytest.raises(ValueError):
            split(ts, 0)

    def test_lorenz_style_split_counts(self):
        ts = make_series(np.arange(10000, dtype=float))
        train, verify = split(ts, 5000)
        assert verify.n_points == 5000

    @given(st.integers(min_value=2, max_value=18))
    @settings(max_examples=20, deadline=None)
    def test_concatenation_roundtrip(self, n_train):
        rng = np.random.default_rng(n_train)
        pts = rng.normal(size=(20, 3))
        ts = TimeSeries(pts, tau=0.25)
        train, verify = split(ts, n_train)
        assert np.array_equal(np.vstack([train.points, verify.points]), pts)
        assert train.tau == verify.tau == ts.tau


class TestCsvRoundTrip:
    def test_write_read_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ts = TimeSeries(rng.normal(size=(17, 3)), tau=0.1)
        path = tmp_path / "series.csv"
        write_series_csv(ts, path)
        back, _ = load_series(path, "csv", tau=0.1)
        assert np.array_equal(back.points, ts.points)

    @pytest.mark.parametrize("text, first", [("1.5\n2.5\n3.5\n", "1.5"),
                                             ("1,2\n3,4\n", "1,2")], ids=["one-column", "two-column"])
    def test_headerless_file_is_rejected(self, tmp_path, text, first):
        # read with its first line as the header, the file lost a sample
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_series(path, "csv")
        assert str(err.value) == f"{path}:1: expected a header row, got the numbers {first!r}"

    def test_header_present(self, tmp_path):
        ts = make_series([1.0, 2.0])
        path = tmp_path / "s.csv"
        write_series_csv(ts, path)
        assert path.read_text().splitlines()[0] == "x0"


class TestWriters:
    def test_write_csv_makes_a_missing_nested_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "t.csv"
        write_csv(path, ["lead", "value"], [[0, 1.5], [np.int64(1), 0.1]])
        assert path.read_text() == "lead,value\n0,1.5\n1,0.1\n"

    def test_write_json_makes_a_missing_nested_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "manifest.json"
        obj = {"b": [1, 0.5], "a": {"z": None, "y": True}}
        write_json(path, obj)
        assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_write_json_refuses_nan_before_making_anything(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(tmp_path / "a" / "manifest.json", {"x": float("nan")})
        assert not (tmp_path / "a").exists()


# the package's period and others, a subnormal one, and one whose double
# overflows, so that every finite value up to the largest lies below 2p
PERIODS = [TWO_PI, 1.0, 0.1, 3.0, np.pi / 3, 7.25, 1e-300, 5e-324, 1e300, 1e308]


def _wrap_anchors(p):
    """0, p/2, p and 2p of both signs, each with its two nextafter
    neighbours, and negatives so tiny that x + p rounds to p."""
    base = [0.0, -0.0, p / 2, -p / 2, p, -p, 2 * p, -2 * p]
    near = [float(np.nextafter(a, to)) for a in base for to in (-np.inf, np.inf)]
    return base + near + [-5e-324, -1e-300, -p * 2.0**-60]


@st.composite
def _wrap_inputs(draw):
    p = draw(st.sampled_from(PERIODS))
    inside = st.one_of(st.sampled_from(_wrap_anchors(p)),
                       st.floats(-p, 2 * p, allow_nan=False, allow_infinity=False))
    outside = st.one_of(st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 1e308, -1e308]),
                        st.floats(allow_nan=True, allow_infinity=True))
    # most draws stay in [-p, 2p], where the wrap shifts instead of calling fmod
    element = draw(st.sampled_from([inside, inside, st.one_of(inside, outside)]))
    return p, np.array(draw(st.lists(element, min_size=1, max_size=40)), dtype=float)


class TestWrapPeriod:
    @given(_wrap_inputs())
    @settings(max_examples=400, deadline=None)
    def test_equals_remainder_bitwise(self, case):
        p, values = case
        with np.errstate(invalid="ignore"):
            want = np.remainder(values, p)
            got = wrap_period(values.copy(), p)
        assert got.tobytes() == want.tobytes()

    @given(_wrap_inputs())
    @settings(max_examples=50, deadline=None)
    def test_wraps_a_strided_column_in_place(self, case):
        # the callers wrap one coordinate of a (rows, dim) array as a view
        p, values = case
        table = np.column_stack([values, values])
        column = table[:, 1]
        with np.errstate(invalid="ignore"):
            assert wrap_period(column, p) is column
            want = np.remainder(values, p)
        assert table[:, 1].tobytes() == want.tobytes()
        assert table[:, 0].tobytes() == values.tobytes()

    @pytest.mark.parametrize("period", [0.0, -TWO_PI, np.inf, np.nan])
    def test_a_period_not_positive_and_finite_goes_to_remainder(self, period):
        values = np.array([-7.0, -0.0, 0.5, 3.0, 20.0])
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.remainder(values, period)
            got = wrap_period(values.copy(), period)
        assert got.tobytes() == want.tobytes()

    def test_an_empty_array_is_left_as_it_is(self):
        assert wrap_period(np.empty((0, 3)), TWO_PI).shape == (0, 3)


def test_neighbor_list_shape_validation():
    with pytest.raises(ValueError, match="same shape"):
        NeighborList(indices=np.zeros((3, 2), dtype=int), distances=np.zeros((3, 3)))
