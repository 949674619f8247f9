"""oscillator.standard_normal, whose draws come from the C ziggurat
_normal.c, gives numpy's bytes: numpy's own Generator.standard_normal is
the oracle, on the package's streams and on plain seeds, for the buffer and
for the draws the generator makes after it."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsync import _native, nodes
from dualsync.oscillator import standard_normal

# numpy's ziggurat_nor_r: a draw beyond it came from the tail of layer 0
ZIGGURAT_NOR_R = 3.6541528853610088
AFTER = 7
# three 2^16-sample blocks and one more draw
LONGEST = 3 * 2**16 + 1


def same_as_numpy(seed, n):
    """The helper's buffer and next draws against numpy's from the same seed."""
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = standard_normal(ours, np.empty(n))
    assert got.tobytes() == numpys.standard_normal(n).tobytes()
    assert ours.standard_normal(AFTER).tobytes() == numpys.standard_normal(AFTER).tobytes()
    return got


SEEDS = st.integers(0, 2**64 - 1) | st.builds(
    nodes._stream, st.integers(0, 2**32), st.integers(0, 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.integers(0, LONGEST))
@example(seed=0, n=0)
@example(seed=nodes._stream(1, 5), n=LONGEST)
def test_same_bytes_as_numpy(seed, n):
    same_as_numpy(seed, n)


# scales: negative, +-0.0, 1.0, subnormal, overflowing and any finite value
SCALES = st.sampled_from([-1.5, 0.0, -0.0, 1.0, 5e-324, -2.2e-308, 1e308, -1e308]) | st.floats(
    allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.sampled_from([0, 1, 7, 4097]) | st.integers(0, 2**12 + 1),
       scale=SCALES)
@example(seed=nodes._stream(1, 2), n=2 * 131381, scale=1e308)
def test_scale_is_numpys_multiply_after_the_draws(seed, n, scale):
    # nodes.run_scenario scales each leg's rows as they are drawn, where it
    # multiplied the drawn rows by sigma / sqrt(2) before
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = standard_normal(ours, np.empty(n), scale)
    with np.errstate(over="ignore"):
        want = numpys.standard_normal(out=np.empty(n)) * scale
    assert got.tobytes() == want.tobytes()
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_reaches_the_tail():
    # 2^20 draws take layer 0's tail branch (log1p) about 280 times
    draws = same_as_numpy(20, 2**20)
    assert np.sum(np.abs(draws) > ZIGGURAT_NOR_R) > 0


def test_fills_a_contiguous_block_in_order():
    # nodes.run_scenario fills each leg's (2, n) rows of one (8, n) array
    draws = np.zeros((8, 100))
    standard_normal(np.random.default_rng(3), draws[2:4])
    want = np.zeros((8, 100))
    np.random.default_rng(3).standard_normal(out=want[2:4])
    assert draws.tobytes() == want.tobytes()


def test_advances_only_the_state():
    rng = np.random.default_rng(4)
    rng.integers(0, 2**32, dtype=np.uint32)  # leaves half an output buffered
    before = rng.bit_generator.state
    standard_normal(rng, np.empty(10))
    after = rng.bit_generator.state
    assert after["state"]["inc"] == before["state"]["inc"]
    assert after["state"]["state"] != before["state"]["state"]
    assert (after["has_uint32"], after["uinteger"]) == (before["has_uint32"], before["uinteger"])


@pytest.mark.parametrize("rng", [
    np.random.Generator(np.random.MT19937(0)),
    np.random.Generator(np.random.PCG64DXSM(0)),
    np.random.Generator(np.random.Philox(0)),
    np.random.RandomState(0),
], ids=["MT19937", "PCG64DXSM", "Philox", "RandomState"])
def test_other_generators_are_refused(rng):
    with pytest.raises(TypeError, match="PCG64 bit generator"):
        standard_normal(rng, np.empty(4))


@pytest.mark.parametrize("out", [np.empty(8)[::2], np.empty(4, dtype=np.float32),
                                 np.empty((4, 4)).T, [0.0] * 4],
                         ids=["strided", "float32", "fortran", "list"])
def test_other_buffers_are_refused(out):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="C-contiguous float64"):
        standard_normal(rng, out)
    assert rng.bit_generator.state == before


def ar_member(archive: bytes, wanted: str) -> bytes:
    """The bytes of the member ``wanted`` of a System V (GNU) ar archive."""
    assert archive.startswith(b"!<arch>\n")
    pos, long_names = 8, b""
    while pos < len(archive):
        header = archive[pos:pos + 60]
        name, size = header[:16].decode().rstrip(), int(header[48:58])
        data = archive[pos + 60:pos + 60 + size]
        if name == "//":
            long_names = data
        elif name.startswith("/") and name[1:].isdigit():
            start = int(name[1:])
            name = long_names[start:long_names.index(b"/\n", start)].decode() + "/"
        if name == wanted + "/":
            return data
        pos += 60 + size + size % 2
    raise KeyError(wanted)


def elf_symbols(obj: bytes, names) -> tuple[str, dict]:
    """The byte order ("<" or ">") of an ELF64 object and the bytes of each
    named symbol, read from its section through the symbol table."""
    assert obj[:5] == b"\x7fELF\x02", "not an ELF64 object"
    order = "<>"[obj[5] - 1]

    def section(i):
        return struct.unpack_from(f"{order}IIQQQQII", obj, shoff + i * shentsize)

    shoff, = struct.unpack_from(f"{order}Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from(f"{order}HH", obj, 0x3A)
    found = {}
    for i in range(shnum):
        _, kind, _, _, offset, size, link, _ = section(i)
        if kind != 2:  # SHT_SYMTAB
            continue
        strtab = section(link)[4]
        for entry in range(offset, offset + size, 24):
            name_at, _, _, shndx, value, length = struct.unpack_from(f"{order}IBBHQQ", obj,
                                                                     entry)
            name = obj[strtab + name_at:obj.index(b"\0", strtab + name_at)].decode()
            if name in names:
                data_at = section(shndx)[4] + value
                found[name] = obj[data_at:data_at + length]
    return order, found


def test_tables_are_numpys():
    # the three ziggurat tables of _normal.c, byte for byte those of numpy's
    # own distributions.c as compiled into its libnpyrandom.a: a low-bit
    # error changes an accept decision only about once in 2^52 draws, which
    # the draw tests above cannot see
    archive = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    if not archive.is_file():
        pytest.skip(f"numpy ships no {archive}")
    tables = ("ki_double", "wi_double", "fi_double")
    obj = ar_member(archive.read_bytes(), "src_distributions_distributions.c.o")
    order, numpys = elf_symbols(obj, tables)
    source = next(s for s in _native.SOURCES if s.name == "_normal.c").read_text()
    for name in tables:
        body = re.search(rf"\b{name}\[256\] = \{{(.*?)\}};", source, re.S).group(1)
        values = body.replace(",", " ").split()
        assert len(values) == 256, name
        if name == "ki_double":
            ours = struct.pack(f"{order}256Q", *(int(v.removesuffix("ULL"), 16) for v in values))
        else:
            ours = struct.pack(f"{order}256d", *map(float.fromhex, values))
        assert ours == numpys[name], name
