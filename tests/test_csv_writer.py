"""cli._write_csv, whose rows go through the C writer _csv.c, gives the bytes
of the row writer it replaced, tests/oracles.write_rows, on every kind of
cell the C writer treats apart: floats on its Grisu3 fast path and on the
fallback it declines to, ints within and beyond int64, str and anything
else."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from dualsync import _native, cli
from dualsync.nodes import Scenario

HEADER = ["a", "b"]


def check_same_bytes(path, rows):
    """Write `rows` with _write_csv and with the oracle; on a difference,
    fail on the first line that differs rather than on the whole file."""
    rows = list(rows)
    cli._write_csv(str(path), "c", HEADER, iter(rows))
    fh = io.StringIO()
    fh.write("# c\n" + ",".join(HEADER) + "\n")
    oracles.write_rows(fh, rows)
    expected, got = fh.getvalue().encode(), path.read_bytes()
    if got != expected:
        lines = zip(got.split(b"\n"), expected.split(b"\n"))
        pytest.fail(f"first differing line (got, oracle): "
                    f"{next(((g, e) for g, e in lines if g != e), 'a longer file')}")


def float_rows(values, width=8):
    values = list(values)
    return [values[i:i + width] for i in range(0, len(values), width)]


INT64 = [2**63 - 1, -2**63, 2**63, -2**63 - 1, 2**64, -2**64, 10**30, -10**30]
CELLS = st.one_of(
    st.floats(), st.floats(width=32), st.integers(), st.sampled_from(INT64),
    st.integers(-2**80, 2**80), st.text(), st.builds(np.float64, st.floats()),
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(CELLS, max_size=6) | st.tuples(CELLS, CELLS), max_size=8))
def test_mixed_cells_have_the_oracle_bytes(tmp_path, rows):
    check_same_bytes(tmp_path / "out.csv", rows)


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(22).integers(0, 2**64, size=10**6, dtype=np.uint64,
                                              endpoint=False)
    check_same_bytes(tmp_path / "out.csv", float_rows(bits.view(np.float64).tolist()))


def neighbours(x, steps=3):
    below, above, out = x, x, [x]
    for _ in range(steps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def test_powers_of_two_extremes_and_format_switches(tmp_path):
    # 2^-1074..2^1023 have the closer lower boundary (but 2^-1074 and
    # 2^-1022), and 1e-4/1e-5 and 1e16/1e17 sit where repr switches between
    # fixed and exponent form
    values = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values += [5e-324, math.ulp(0.0), 2.2250738585072014e-308, 1.7976931348623157e308]
    for x in (1e-4, 1e-5, 1e16, 1e17, 1e15, 1e-3, 1.0, 0.1, 9007199254740993.0):
        values += neighbours(x)
    values += [0.0, math.inf, math.nan]
    check_same_bytes(tmp_path / "out.csv", float_rows(values + [-v for v in values]))


TICK_RATE_HZ = Scenario().tick_rate_hz


@pytest.mark.parametrize("values", [
    pytest.param(lambda rng: 0.07 * rng.standard_normal(300_000), id="phase-errors"),
    pytest.param(lambda rng: 1e3 * rng.standard_normal(300_000), id="1e3-normal"),
    pytest.param(lambda rng: rng.integers(0, 2**64, size=300_000, dtype=np.uint64,
                                          endpoint=False).view(np.float64), id="bit-patterns"),
    pytest.param(lambda rng: np.arange(300_000) / TICK_RATE_HZ, id="t_s-grid"),
])
def test_value_sets(tmp_path, values):
    check_same_bytes(tmp_path / "out.csv", float_rows(values(np.random.default_rng(7)).tolist()))


@pytest.mark.parametrize("n_rows", [0, 1, cli.CSV_BATCH - 1, cli.CSV_BATCH, cli.CSV_BATCH + 1])
def test_batch_boundaries(tmp_path, n_rows):
    rows = ((i, i / TICK_RATE_HZ, "é" * (i % 3), -i * 0.1) for i in range(n_rows))
    check_same_bytes(tmp_path / "out.csv", rows)


def test_cached_powers_are_exact():
    # entry i of the fast path's table is 10^(8i - 348) as a 64-bit
    # significand f and exponent e, 2^63 <= f < 2^64, rounded to nearest
    source = next(s for s in _native.SOURCES if s.name == "_csv.c").read_text()

    def table(name):
        body = re.search(name + r"\[CACHED_POWERS_N\] = \{(.*?)\};", source, re.S).group(1)
        return [int(v, 0) for v in body.replace(",", " ").split()]

    fs, es = table("cached_powers_f"), table("cached_powers_e")
    ks = range(-348, 341, 8)
    assert len(fs) == len(es) == len(ks)
    for f, e, k in zip(fs, es, ks):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        q, r = divmod(num, den)
        assert 2**63 <= q < 2**64 and 2 * r != den, k
        assert f == q + (2 * r > den), k


class TestBoolCells:
    # the documented precondition: a bool must come as 1/0; str(True) wrote True
    @pytest.mark.parametrize("existing", [False, True])
    def test_a_bool_raises_naming_row_and_column_and_leaves_the_target(self, tmp_path, existing):
        path = tmp_path / "out.csv"
        if existing:
            path.write_bytes(b"before")
        rows = [(i, 0.5) for i in range(cli.CSV_BATCH + 3)]
        rows[cli.CSV_BATCH + 2] = (7, True)
        with pytest.raises(TypeError, match=rf"row {cli.CSV_BATCH + 2}, column 1 \('b'\)"):
            cli._write_csv(str(path), "c", HEADER, rows)
        assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if existing else [])
        if existing:
            assert path.read_bytes() == b"before"
