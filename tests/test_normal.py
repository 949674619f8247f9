"""oscillator.standard_normal, whose draws come from the C ziggurat
_normal.c, gives numpy's bytes: numpy's own Generator.standard_normal is
the oracle, on the package's streams and on plain seeds, for the buffer and
for the draws the generator makes after it."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsync import nodes
from dualsync.oscillator import SYNTH_CHUNK, standard_normal

# numpy's ziggurat_nor_r: a draw beyond it came from the tail of layer 0
ZIGGURAT_NOR_R = 3.6541528853610088
AFTER = 7


def same_as_numpy(seed, n):
    """The helper's buffer and next draws against numpy's from the same seed."""
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = standard_normal(ours, np.empty(n))
    assert got.tobytes() == numpys.standard_normal(n).tobytes()
    assert ours.standard_normal(AFTER).tobytes() == numpys.standard_normal(AFTER).tobytes()
    return got


SEEDS = st.integers(0, 2**64 - 1) | st.builds(
    lambda seed, child: nodes._streams(seed)[child], st.integers(0, 2**32), st.integers(0, 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.integers(0, 3 * SYNTH_CHUNK + 1))
@example(seed=0, n=0)
@example(seed=nodes._streams(1)[5], n=3 * SYNTH_CHUNK + 1)
def test_same_bytes_as_numpy(seed, n):
    same_as_numpy(seed, n)


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
