"""cli._write_csv, whose columns go through the C writer _csv.c, gives the
bytes of the row writer it replaced, tests/oracles.write_rows, on every kind
of column the C writer takes: float64 and int64 arrays read in place, and
lists of str; its floats, by Schubfach, are those of repr.  Any other cell,
a bool or a number included, is refused by row and column."""

import ctypes
import io
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from dualsync import _native, cli
from dualsync.nodes import Scenario

B = cli.CSV_BATCH


def names(columns):
    return [f"c{j}" for j in range(len(columns))]


def oracle_bytes(comment, header, columns):
    """The oracle's file: its rows are zip(*columns), arrays as Python values."""
    fh = io.StringIO()
    fh.write(f"# {comment}\n" + ",".join(header) + "\n")
    oracles.write_rows(fh, zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                 for c in columns)))
    return fh.getvalue().encode()


def check_same_bytes(path, columns):
    """Write `columns` with _write_csv (given as a generator, as a tracer
    passes them) and with the oracle; on a difference, fail on the first
    line that differs rather than on the whole file."""
    header = names(columns)
    cli._write_csv(str(path), "c", header, (c for c in columns))
    expected, got = oracle_bytes("c", header, columns), path.read_bytes()
    if got != expected:
        lines = zip(got.split(b"\n"), expected.split(b"\n"))
        pytest.fail(f"first differing line (got, oracle): "
                    f"{next(((g, e) for g, e in lines if g != e), 'a longer file')}")


def neighbours(values):
    """Each value with the doubles just below and just above it."""
    return [y for x in values
            for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


def edge_values():
    # 2^-1074..2^1023 have the closer lower boundary (but 2^-1074 and
    # 2^-1022); 1e-5/1e-4 and 1e16/1e17 sit where repr switches between
    # fixed and exponent form; below 2^53 an integer is its own digits
    values = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    values += [float(2**k + d) for k in range(54) for d in (-1, 1)]
    values = neighbours(values)
    values += [math.ldexp(float(m), -1074) for m in (3, 7, 2**51 + 1, 2**52 - 1)]
    values += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0]
    values = values + [-v for v in values]
    return np.array(values + [math.inf, -math.inf, math.nan])


def test_edge_values_as_an_array(tmp_path):
    check_same_bytes(tmp_path / "out.csv", [edge_values()])


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(22).integers(0, 2**64, size=10**6, dtype=np.uint64,
                                              endpoint=False)
    check_same_bytes(tmp_path / "out.csv", list(bits.view(np.float64).reshape(8, -1)))


TICK_RATE_HZ = Scenario().tick_rate_hz


@pytest.mark.parametrize("values", [
    pytest.param(lambda rng: 0.07 * rng.standard_normal(300_000), id="phase-errors"),
    pytest.param(lambda rng: 1e3 * rng.standard_normal(300_000), id="1e3-normal"),
    pytest.param(lambda rng: rng.integers(0, 2**64, size=300_000, dtype=np.uint64,
                                          endpoint=False).view(np.float64), id="bit-patterns"),
    pytest.param(lambda rng: np.arange(300_000) / TICK_RATE_HZ, id="t_s-grid"),
])
def test_value_sets(tmp_path, values):
    check_same_bytes(tmp_path / "out.csv",
                     list(values(np.random.default_rng(7)).reshape(4, -1)))


COLUMN_KINDS = st.lists(st.sampled_from(["float64", "int64", "str"]), min_size=1, max_size=5)


def column(kind, n, rng, cells):
    if kind == "float64":
        return rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False).view(np.float64)
    if kind == "int64":
        return rng.integers(-2**63, 2**63, size=n, dtype=np.int64, endpoint=False)
    return [cells[i % len(cells)] for i in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=COLUMN_KINDS, cells=st.lists(st.text(), min_size=1, max_size=12),
       n=st.sampled_from([0, 1, 2, B - 1, B, B + 1, 2 * B + 1]) | st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_mixed_columns_have_the_oracle_bytes(tmp_path, kinds, cells, n, seed):
    rng = np.random.default_rng(seed)
    check_same_bytes(tmp_path / "out.csv", [column(k, n, rng, cells) for k in kinds])


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.tuples(COLUMN_KINDS, COLUMN_KINDS),
       cells=st.lists(st.text(), min_size=1, max_size=12),
       n=st.sampled_from([B + 1, 3 * B]) | st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_two_threads_writing_at_once_get_the_oracle_bytes(tmp_path, kinds, cells, n, seed):
    # csv_text formats without the GIL, reading cells the other thread
    # cannot reach; each thread's file must still be the oracle's
    rng = np.random.default_rng(seed)
    sets = [[column(k, n, rng, cells) for k in ks] for ks in kinds]
    paths = [str(tmp_path / f"out{i}.csv") for i in range(2)]
    barrier = threading.Barrier(2, timeout=60)

    def write(i):
        barrier.wait()
        cli._write_csv(paths[i], "c", names(sets[i]), sets[i])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(write, i) for i in range(2)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for path, columns in zip(paths, sets):
        with open(path, "rb") as fh:
            assert fh.read() == oracle_bytes("c", names(columns), columns)


@pytest.mark.parametrize("n_rows", [0, 1, B - 1, B, B + 1])
def test_batch_boundaries(tmp_path, n_rows):
    i = np.arange(n_rows)
    check_same_bytes(tmp_path / "out.csv", [i, i / TICK_RATE_HZ, ["é" * (k % 3) for k in i],
                                            -i * 0.1])


def test_int64_extremes(tmp_path):
    ints = np.array([0, 1, -1, 2**63 - 1, -2**63, 10**18, -10**18], dtype=np.int64)
    check_same_bytes(tmp_path / "out.csv", [ints])


def g_by_fractions(k):
    """g(k) = floor(10^k * 2^(127 - floor(log2 10^k))) + 1, from exact rationals."""
    x = Fraction(10) ** k
    r = math.floor(k * math.log2(10))
    while Fraction(2) ** r > x:
        r -= 1
    while Fraction(2) ** (r + 1) <= x:
        r += 1
    return math.floor(x * Fraction(2) ** (127 - r)) + 1


def test_loaded_g_table_is_the_formula():
    ks = range(_native.G_K_MIN, _native.G_K_MAX + 1)
    loaded = (ctypes.c_uint64 * (2 * len(ks))).in_dll(_native.library(), "g_table")
    for i, k in enumerate(ks):
        g = g_by_fractions(k)
        assert 2**127 < g <= 2**128 - 1, k
        assert (loaded[2 * i], loaded[2 * i + 1]) == (g >> 64, g % 2**64), k


def leaves_the_target(tmp_path, existing, write):
    path = tmp_path / "out.csv"
    if existing:
        path.write_bytes(b"before")
    write(str(path))
    assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if existing else [])
    if existing:
        assert path.read_bytes() == b"before"


@pytest.mark.parametrize("existing", [False, True])
class TestRefusedColumns:
    def test_unequal_lengths_name_the_column(self, tmp_path, existing):
        def write(path):
            with pytest.raises(ValueError, match=r"column 'b' has 2 rows, column 'a' 3"):
                cli._write_csv(path, "c", ["a", "b", "c"],
                               [np.zeros(3), [1, 2], np.arange(3)])
        leaves_the_target(tmp_path, existing, write)

    def test_a_column_per_name(self, tmp_path, existing):
        def write(path):
            with pytest.raises(ValueError, match=r"1 columns for the 2 names"):
                cli._write_csv(path, "c", ["a", "b"], [np.zeros(3)])
        leaves_the_target(tmp_path, existing, write)

    # a number must come in an array and a bool as 1/0: str(True) would write True
    @pytest.mark.parametrize("cell", [True, 1, 0.5, np.float64(0.5), None])
    def test_a_cell_that_is_not_a_str_raises_naming_row_and_column(self, tmp_path, existing,
                                                                   cell):
        cells = ["x"] * (B + 3)
        cells[B + 2] = cell

        def write(path):
            with pytest.raises(TypeError, match=rf"row {B + 2}, column 1 \('b'\) holds a "
                                                rf"\S*{type(cell).__name__}, not a str"):
                cli._write_csv(path, "c", ["a", "b"], [np.arange(B + 3), cells])
        leaves_the_target(tmp_path, existing, write)

    @pytest.mark.parametrize("array", [np.ones(3, dtype=np.int32), np.ones((3, 1)),
                                       np.ones(6)[::2]])
    def test_an_array_of_another_kind_raises(self, tmp_path, existing, array):
        def write(path):
            with pytest.raises(TypeError, match=r"column 1 \('b'\) is not a C-contiguous"):
                cli._write_csv(path, "c", ["a", "b"], [np.arange(3), array])
        leaves_the_target(tmp_path, existing, write)

    def test_a_bool_array_names_its_column(self, tmp_path, existing):
        def write(path):
            with pytest.raises(TypeError, match=r"column 1 \('b'\) is not a C-contiguous 1-D "
                                                r"float64 or int64 array \(format '\?', 1-D\)"):
                cli._write_csv(path, "c", ["a", "b"], [np.arange(3), np.ones(3, dtype=bool)])
        leaves_the_target(tmp_path, existing, write)
