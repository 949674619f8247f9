import ctypes
import functools
import hashlib
import math
import os
import pathlib
import pickle
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from dualsync import _native, nodes
from dualsync.channel import CarrierPlan, prop_phase, sigma_from_snr
from dualsync.cli import RECIPES
from dualsync.config import _PSD_SOURCES, CLOCK_SOURCES
from dualsync.nodes import (
    DivergenceError,
    Scenario,
    _tick_loop_fast,
    detect_ambiguity_jumps,
    run_scenario,
)
from dualsync.oscillator import NoiseMask, fit_two_state
from dualsync.pll import LoopConfig, wrap_phase
from dualsync.spectral import cheb_window, psd_estimate
from oracles import reference_loop, run_reference, tick_loop

TWO_PI = 2.0 * math.pi
TICK = 956 / 8e6
SERIES = ("theta_bf_minus_theta0", "theta_out", "alpha", "r1", "r2", "r3", "r4")


def run_kernel(n, phi, loop=_tick_loop_fast, theta_offset=0.0, dual=True):
    """Noiseless, ideal-clock ring of n ticks at latency 1 with 100 Hz loops,
    run by ``loop`` (the kernel or its phasor-form oracle)."""
    out = [np.empty(n) for _ in range(7)]
    cfg = LoopConfig(1.0, 100.0, TICK)
    bad = loop(n, cfg, cfg, np.zeros(n), np.zeros(n), phi[0], phi[1], phi[2], phi[3],
               0.0, None, theta_offset, 1, dual, True, *out)
    assert bad == -1
    return out


class TestScenarioEquilibria:
    # the ring's fixed points, on the kernel here and on its phasor-form
    # oracle in the subclass below
    loop = staticmethod(_tick_loop_fast)

    def test_static_channel_zero_error(self):
        phi = Scenario(tau_s=1.7e-10).prop_phases()
        n = int(5.0 / TICK)
        bf0, _, al = run_kernel(n, phi, self.loop)[:3]
        assert abs(wrap_phase(bf0[-1])) < 1e-3
        # alpha converges to minus the round-trip mean (mod 2*pi)
        target = 0.5 * (phi[0] + phi[1]) + 0.5 * (phi[2] + phi[3])
        assert abs(wrap_phase(al[-1] + target)) < 1e-3

    def test_setpoint_shifts_by_half(self):
        phi = [0.3, 0.5, 0.45, 0.35]
        n = int(4.0 / TICK)
        base = run_kernel(n, phi, self.loop)[0]
        shifted = run_kernel(n, phi, self.loop, theta_offset=0.1)[0]
        assert shifted[-1] - base[-1] == pytest.approx(0.05, abs=1e-6)

    def test_constant_added_to_all_legs_is_invisible(self):
        phi = [0.3, 0.5, 0.45, 0.35]
        n = int(4.0 / TICK)
        base = run_kernel(n, phi, self.loop)[0]
        moved = run_kernel(n, [p + 0.4 for p in phi], self.loop)[0]
        assert moved[-1] == pytest.approx(base[-1], abs=1e-3)

    def test_single_carrier_residual_is_pair_asymmetry(self):
        phi = Scenario(tau_s=1.7e-10).prop_phases()
        n = int(5.0 / TICK)
        bf0 = run_kernel(n, phi, self.loop, dual=False)[0]
        expected = wrap_phase(0.5 * (phi[0] - phi[2]))
        assert wrap_phase(bf0[-1]) == pytest.approx(expected, abs=1e-3)

    def test_symmetric_split_matches_common_pair(self):
        # each end averages its pair's discriminators, so carriers at
        # phi +- delta act as a pair at phi
        n = int(4.0 / TICK)
        common = run_kernel(n, [0.3, 0.3, 0.45, 0.45], self.loop)
        split = run_kernel(n, [0.55, 0.05, 0.6, 0.3], self.loop)
        for name, a, b in zip(SERIES[:3], common, split):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12, err_msg=name)

    def test_pre_distortion_applies_half_alpha(self):
        # at latency 1 the follower's first-but-one forward carrier left the
        # master at tick 0 pre-distorted by half the compensation
        phi = [0.3, 0.5, 0.45, 0.35]
        _, _, al, r1 = run_kernel(2, phi, self.loop)[:4]
        assert al[0] != 0.0
        assert r1[1] == pytest.approx(wrap_phase(phi[0] + al[0] / 2), abs=1e-15)


class TestScenarioEquilibriaReference(TestScenarioEquilibria):
    loop = staticmethod(reference_loop)


# the ring's settings the engines are compared over
RING_FIELDS = dict(
    loop_latency_ticks=st.integers(1, 3),
    dual_carrier=st.booleans(),
    wrap_compensation=st.booleans(),
    snr_db=st.one_of(st.just(math.inf), st.floats(0.0, 30.0)),
    # 0.0, the default, is the delay at which both carrier pairs share their phasors
    tau_s=st.just(0.0) | st.floats(0.0, 1e-6),
    doppler_hz=st.floats(-5.0, 5.0),
    ideal_clocks=st.booleans(),
    theta_offset=st.floats(-math.pi, math.pi),
    initial_follower_phase_rad=st.floats(-math.pi, math.pi),
    follower_freq_offset_hz=st.floats(-50.0, 50.0),
)
# 0.1 s rings
SCENARIOS = st.builds(Scenario, duration_s=st.just(0.1), **RING_FIELDS)


# each example runs whole rings, so shrinking a failure would take minutes:
# the first failing example is reported as found
RING_PROPERTY = settings(max_examples=20, deadline=None, derandomize=True,
                         phases=[p for p in Phase if p is not Phase.shrink])


class TestKernelMatchesReference:
    @pytest.mark.parametrize("dual", [True, False])
    @pytest.mark.parametrize("wrap_comp", [True, False])
    def test_engines_agree(self, dual, wrap_comp):
        scn = Scenario(duration_s=0.25, ideal_clocks=True, tau_s=1.7e-10,
                       snr_db=10.0, doppler_hz=0.5, dual_carrier=dual,
                       wrap_compensation=wrap_comp)
        fast = run_scenario(scn, seed=5)
        slow = run_reference(scn, seed=5)
        for name in ("theta_bf_minus_theta0", "theta_out", "alpha", "r1", "r3"):
            np.testing.assert_allclose(
                getattr(fast, name), getattr(slow, name), atol=1e-10
            )

    @RING_PROPERTY
    @given(scn=SCENARIOS, seed=st.integers(0, 2**16))
    def test_engines_agree_on_every_series(self, scn, seed):
        fast = run_scenario(scn, seed=seed)
        slow = run_reference(scn, seed=seed)
        for name in SERIES:
            np.testing.assert_allclose(
                getattr(fast, name), getattr(slow, name), atol=1e-10, err_msg=name
            )


class TestKernelArguments:
    # the C kernel reads n float64 elements through every pointer it gets,
    # so the wrapper refuses any buffer that does not hold them
    @pytest.mark.parametrize("bad, match", [
        (dict(th0=np.zeros(10, np.float32)), "float64"),
        (dict(thx=np.zeros(9)), "at least 10"),
        (dict(th0=np.zeros(20)[::2]), "contiguous"),
        (dict(noise=np.zeros((7, 10))), "eight noise rows"),
        (dict(noise=np.zeros((8, 9))), "at least 10"),
        (dict(latency=0), "latency >= 1"),
    ])
    def test_rejects_what_it_cannot_read(self, bad, match):
        args = dict(th0=np.zeros(10), thx=np.zeros(10), noise=None, latency=1)
        args.update(bad)
        cfg = LoopConfig(1.0, 100.0, TICK)
        with pytest.raises(ValueError, match=match):
            _tick_loop_fast(10, cfg, cfg, args["th0"], args["thx"], 0.0, 0.0, 0.0, 0.0, 0.0,
                            args["noise"], 0.0, args["latency"], True, True,
                            *[np.empty(10) for _ in range(3)], None, None, None, None)


# the functions the package's one C library exports, each with its case id
FUNCTIONS = {"tick_loop": "tick", "normal_fill": "normal", "synth_phase": "synth",
             "cheb_main_lobe": "window", "csv_text": "csv"}
PER_FUNCTION = pytest.mark.parametrize("name", FUNCTIONS, ids=list(FUNCTIONS.values()))


def test_package_data_ships_every_source():
    # an installed package builds its library from the sources it ships
    import tomllib

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    package_data = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "tool"]["setuptools"]["package-data"]["dualsync"]
    assert sorted(package_data) == sorted(source.name for source in _native.SOURCES)


class TestKernelBuild:
    # _native.build on copies of the four sources and a fresh cache directory

    @pytest.fixture
    def sources(self, tmp_path):
        (tmp_path / "src").mkdir()
        copies = [tmp_path / "src" / source.name for source in _native.SOURCES]
        for copy, source in zip(copies, _native.SOURCES):
            copy.write_bytes(source.read_bytes())
        return copies

    def test_builds_once_per_source_flags_and_abi(self, sources, tmp_path, monkeypatch):
        # seven builds: the library, one with each source edited in turn,
        # one with other flags and one for another ABI
        flags = _native.flags()
        calls = []
        real_run = subprocess.run

        def run(*args, **kwargs):
            calls.append(args[0])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", run)
        cache = tmp_path / "cache"
        lib = _native.build(sources, cache, flags)
        assert len(calls) == 1
        assert list(cache.iterdir()) == [lib]  # no temporary left behind
        assert all(getattr(ctypes.CDLL(str(lib)), name) for name in FUNCTIONS)
        assert _native.build(sources, cache, flags) == lib
        assert len(calls) == 1
        edited = []
        for source in sources:
            text = source.read_bytes()
            source.write_bytes(text + b"/* edited */\n")
            edited.append(_native.build(sources, cache, flags))
            source.write_bytes(text)
        assert len(set(edited)) == len(sources) == 4
        other_flags = _native.build(sources, cache, (*flags, "-DNDEBUG"))
        real_var = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda var: "other-abi" if var == "SOABI" else real_var(var))
        other_abi = _native.build(sources, cache, flags)
        assert len({lib, *edited, other_flags, other_abi}) == 7
        assert len(calls) == 7
        assert all(getattr(ctypes.CDLL(str(other_abi)), name) for name in FUNCTIONS)

    def test_a_new_build_unlinks_the_one_it_supersedes(self, sources, tmp_path, monkeypatch):
        flags = _native.flags()
        cache = tmp_path / "cache"
        real_var = sysconfig.get_config_var
        abi = real_var("SOABI")
        others = []
        # another interpreter's library, also one whose SOABI begins with this one's
        for other in ("other-abi", f"{abi}-other"):
            monkeypatch.setattr(sysconfig, "get_config_var",
                                lambda var, other=other: other if var == "SOABI" else real_var(var))
            others.append(_native.build(sources, cache, flags))
        monkeypatch.setattr(sysconfig, "get_config_var", real_var)
        first = _native.build(sources, cache, flags)
        second = _native.build(sources, cache, (*flags, "-DNDEBUG"))
        assert sorted(cache.iterdir()) == sorted([*others, second])
        # a library that a concurrent build unlinked between listing and unlinking
        gone = cache / f"_native-{abi}-{'0' * 16}.so"
        real_glob = pathlib.Path.glob
        monkeypatch.setattr(pathlib.Path, "glob",
                            lambda self, pattern: [*real_glob(self, pattern), gone])
        assert _native.build(sources, cache, flags) == first
        assert sorted(cache.iterdir()) == sorted([*others, first])

    def test_a_new_build_unlinks_retired_libraries(self, sources, tmp_path):
        # the library each source once had, named with this interpreter's
        # SOABI, another's or none, is loaded by nothing; another
        # interpreter's _native library is kept
        abi = sysconfig.get_config_var("SOABI")
        cache = tmp_path / "cache"
        cache.mkdir()
        key = "0123456789abcdef"
        retired = [cache / name for stem in (source.stem for source in sources)
                   for name in (f"{stem}-{abi}-{key}.so", f"{stem}-other-abi-{key}.so",
                                f"{stem}-{key}.so")]
        assert len(retired) == 12
        other = cache / f"_native-other-abi-{key}.so"
        for path in (*retired, other):
            path.write_bytes(b"")
        lib = _native.build(sources, cache, _native.flags())
        assert sorted(cache.iterdir()) == sorted([other, lib])

    def test_the_key_hashes_the_sources_names(self, sources, tmp_path):
        flags = _native.flags()
        cache = tmp_path / "cache"
        lib = _native.build(sources, cache, flags)
        renamed = sources[1].with_name("_renamed.c")
        sources[1].rename(renamed)
        sources[1] = renamed
        assert _native.build(sources, cache, flags) != lib

    def test_sources_are_separate_translation_units(self, sources, tmp_path):
        # a static name in every source is each source's own
        for source in sources:
            source.write_bytes(source.read_bytes() + b"static int clash(void) { return 0; }\n")
        lib = _native.build(sources, tmp_path / "cache", _native.flags())
        assert all(getattr(ctypes.CDLL(str(lib)), name) for name in FUNCTIONS)

    def test_missing_compiler_is_named(self, sources, tmp_path, monkeypatch):
        flags = _native.flags()
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.raises(FileNotFoundError, match="C compiler gcc is not on PATH"):
            _native.build(sources, tmp_path / "cache", flags)

    def test_unwritable_cache_is_named(self, sources, tmp_path):
        cache = tmp_path / "not-a-directory" / "cache"
        cache.parent.write_text("")
        with pytest.raises(OSError, match=f"cache directory {cache}"):
            _native.build(sources, cache, _native.flags())

    def test_world_writable_cache_is_refused(self, sources, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o777)
        with pytest.raises(PermissionError, match="every user can write"):
            _native.build(sources, cache, _native.flags())
        assert list(cache.iterdir()) == []

    def test_missing_python_headers_are_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(tmp_path)})
        with pytest.raises(FileNotFoundError, match=rf"Python.h\) are not in {tmp_path}"):
            _native.flags()

    @PER_FUNCTION
    def test_second_load_runs_no_subprocess(self, name, monkeypatch):
        _native.library()  # built by now, in this process or an earlier one

        def run(*args, **kwargs):
            raise AssertionError(f"ran {args[0]}")

        _native.library.cache_clear()
        monkeypatch.setattr(subprocess, "run", run)
        assert all(getattr(_native.library(), function) for function in FUNCTIONS)
        assert getattr(_native.library(), name).argtypes  # declared again

    @PER_FUNCTION
    def test_only_csv_text_holds_the_interpreter_lock(self, name):
        # csv_text builds Python objects; the loops release the lock
        holds = type(getattr(_native.library(), name))._flags_ & ctypes._FUNCFLAG_PYTHONAPI
        assert bool(holds) == (name == "csv_text")

    def test_import_builds_and_loads_nothing(self):
        # the first ring, draw and write pay for the library, not every
        # command's import
        code = ("import dualsync.cli\nfrom dualsync import _native\n"
                "print(_native.library.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(_native.SOURCES[0].parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "0\n"

    def test_threads_build_and_load_once(self, tmp_path):
        # four threads released at once, in a fresh process on a copy of the
        # package with no library built: one build, one library, one load
        # of scipy's solver
        package = tmp_path / "dualsync"
        shutil.copytree(_native.SOURCES[0].parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code = (
            "import sys, threading\n"
            "from dualsync import _native, oscillator\n"
            "sys.setswitchinterval(1e-6)\n"
            "builds, loads, got = [], [], []\n"
            "build, load = _native.build, oscillator._load_nnls\n"
            "_native.build = lambda *args: builds.append(args) or build(*args)\n"
            "oscillator._load_nnls = lambda path: loads.append(path) or load(path)\n"
            "barrier = threading.Barrier(4, timeout=60)\n"
            "def call():\n"
            "    barrier.wait()\n"
            "    solver = oscillator._nnls_extension()\n"
            "    barrier.wait()\n"
            "    got.append((solver, _native.library()))\n"
            "threads = [threading.Thread(target=call) for _ in range(4)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(120)\n"
            "module = sys.modules[oscillator._NNLS_MODULE]\n"
            "print(len(got), len(builds), len({id(lib) for _, lib in got}), len(loads),\n"
            "     all(solver is module.nnls for solver, _ in got))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(tmp_path)), check=True,
                              timeout=240)
        assert proc.stdout == "4 1 1 1 True\n"


# run_scenario runs the kernel, run_reference the oracle in its place
RUNS = pytest.mark.parametrize("run", [pytest.param(run_scenario, id="kernel"),
                                       pytest.param(run_reference, id="reference")])


def outcome(run, scn, seed, discriminators):
    """The run's result, or the tick it diverged at."""
    try:
        return run(scn, seed, discriminators=discriminators)
    except DivergenceError as exc:
        return exc.tick


def ring(loop, scn, seed, discriminators=True, inject=None):
    """The result of ``run_scenario`` with ``loop`` as its kernel, or the
    tick it diverged at.  ``inject`` = (input, tick, value) first writes
    value into an input series: 0 the master clock, 1 the follower clock,
    2-9 the noise rows, taken modulo the series there are."""
    def run(*args):
        if inject is not None:
            series, tick, value = inject
            inputs = [args[3], args[4], *(args[10] or ())]
            inputs[series % len(inputs)][tick % args[0]] = value
        return loop(*args)

    return outcome(functools.partial(run_reference, loop=run), scn, seed, discriminators)


# rings up to 0.3 s whose loops reach 4 kHz, where noisy rings diverge after
# about 0.15 s
KERNEL_SCENARIOS = st.builds(
    Scenario, duration_s=st.sampled_from([0.1, 0.3]),
    omega_m_hz=st.sampled_from([10.0, 100.0, 4000.0]),
    omega_s_hz=st.sampled_from([10.0, 100.0, 4000.0]), **RING_FIELDS)
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.filterwarnings("ignore:omega_n")
class TestKernelMatchesByteOracle:
    # the C kernel is a transcription of the byte oracle: the same bits on
    # every series, the same divergence tick
    @settings(RING_PROPERTY, max_examples=40)
    @given(scn=KERNEL_SCENARIOS, seed=st.integers(0, 2**16), discriminators=st.booleans(),
           inject=st.none() | st.tuples(st.integers(0, 9), st.integers(0, 10**4),
                                        st.sampled_from(NON_FINITE)))
    def test_same_bytes_and_divergence_tick(self, scn, seed, discriminators, inject):
        kernel = ring(_tick_loop_fast, scn, seed, discriminators, inject)
        oracle = ring(tick_loop, scn, seed, discriminators, inject)
        assert type(kernel) is type(oracle)
        if isinstance(kernel, int):
            assert kernel == oracle
            return
        for name in SERIES:
            a, b = getattr(kernel, name), getattr(oracle, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("loop", [
        pytest.param(_tick_loop_fast, id="kernel"), pytest.param(tick_loop, id="byte-oracle"),
        pytest.param(reference_loop, id="reference")])
    @pytest.mark.parametrize("value", NON_FINITE[:2], ids=["nan", "inf"])
    @pytest.mark.parametrize("series", range(10))
    def test_non_finite_input_diverges_at_its_tick(self, loop, value, series):
        # without the guard a NaN reached math.floor and raised ValueError
        scn = Scenario(duration_s=0.2, snr_db=10.0)
        assert ring(loop, scn, 1, inject=(series, 500, value)) == 500


# the propagation phase sets of the kernel's sharing branches: a pair whose
# two phases have the same bits shares its second carrier's phasor
PHI_SETS = {
    "all-equal": (0.3, 0.3, 0.3, 0.3),
    "forward-pair": (0.3, 0.3, -1.1, 2.0),
    "return-pair": (0.3, -1.1, 2.0, 2.0),
    "none-equal": (0.3, -1.1, 2.0, -2.9),
    "signed-zeros": (0.0, -0.0, 0.0, -0.0),
}


def sharing_ring(loop, phi, noisy, dual, wrap_comp, discriminators, n=1000):
    """The seven series of an n-tick, latency-2 ring with random-walk clocks
    run by ``loop`` on the phase set ``phi``, and the tick it returned.

    Both clocks start at -0.0 then +0.0, and a phase set of signed zeros
    runs at a Doppler of -0.0, so that at tick 1 each pair's second carrier
    (phase -0.0) reaches its far end as a -0.0 angle and its first (+0.0)
    as +0.0: the oracle's r2 and r4 there are -0.0 and its r1 and r3 +0.0."""
    rng = np.random.default_rng(32)
    th0, thx = np.cumsum(rng.standard_normal((2, n)) * 0.01, axis=1)
    th0[:2] = thx[:2] = -0.0, 0.0
    noise = list(rng.standard_normal((8, n)) * 0.1) if noisy else None
    dopp = -0.0 if phi == PHI_SETS["signed-zeros"] else 0.004
    out = [np.empty(n) for _ in range(7 if discriminators else 3)]
    cfg = LoopConfig(1.0, 100.0, TICK)
    views = [memoryview(a) for a in (th0, thx, *out)]
    bad = loop(n, cfg, cfg, *views[:2], *phi, dopp,
               None if noise is None else [memoryview(row) for row in noise],
               0.2, 2, dual, wrap_comp, *views[2:], *[None] * (7 - len(out)))
    return out, bad


class TestSharedPairs:
    # where a pair's phases have the same bits the kernel computes the
    # second carrier's phasor (and, noiseless, its discriminators) once;
    # the byte oracle still computes every carrier

    @pytest.mark.parametrize("discriminators", [True, False], ids=["full", "lean"])
    @pytest.mark.parametrize("wrap_comp", [True, False], ids=["wrap", "raw"])
    @pytest.mark.parametrize("dual", [True, False], ids=["dual", "single"])
    @pytest.mark.parametrize("noisy", [True, False], ids=["noise", "noiseless"])
    @pytest.mark.parametrize("phi", PHI_SETS.values(), ids=PHI_SETS)
    def test_same_bytes_as_the_byte_oracle(self, phi, noisy, dual, wrap_comp,
                                           discriminators):
        kernel, bad = sharing_ring(_tick_loop_fast, phi, noisy, dual, wrap_comp,
                                   discriminators)
        oracle, oracle_bad = sharing_ring(tick_loop, phi, noisy, dual, wrap_comp,
                                          discriminators)
        assert bad == oracle_bad == -1
        for name, a, b in zip(SERIES, kernel, oracle):
            assert a.tobytes() == b.tobytes(), name

    def test_signed_zero_phases_reach_the_series(self):
        # the signed-zero set shows a kernel that compares phases with ==
        out, _ = sharing_ring(tick_loop, PHI_SETS["signed-zeros"], False, True, True, True)
        r1, r2, r3, r4 = (math.copysign(1.0, series[1]) for series in out[3:])
        assert (r1, r2, r3, r4) == (1.0, -1.0, 1.0, -1.0)
        assert out[3][1] == out[4][1] == out[5][1] == out[6][1] == 0.0

    def test_default_delay_shares_both_pairs_and_fig22s_neither(self):
        # which traffic takes the shared path: every carrier at the default
        # tau_s = 0, and no two carriers at fig22's delay
        def bits(scn):
            return [np.float64(p).tobytes() for p in scn.prop_phases()]

        assert len(set(bits(Scenario()))) == 1
        (tau,) = {overrides["channel.tau_s"] for _, overrides in RECIPES["fig22"]}
        assert tau == 1.875e-8
        assert len(set(bits(Scenario(tau_s=tau)))) == 4


class TestRunReference:
    # run_reference fails unless run_scenario ran the oracle exactly once,
    # so that an agreement test cannot compare the kernel with itself
    @pytest.mark.filterwarnings("ignore:omega_n")
    @pytest.mark.parametrize("scn", [
        pytest.param(Scenario(duration_s=0.01), id="locks"),
        pytest.param(Scenario(duration_s=0.01, ideal_clocks=True, omega_m_hz=1e300),
                     id="diverges"),
    ])
    @pytest.mark.parametrize("oracle_runs", [0, 2])
    def test_fails_unless_the_oracle_ran_once(self, monkeypatch, scn, oracle_runs):
        real = nodes.run_scenario

        def run_scenario(scn, seed, **kw):
            # the oracle oracle_runs times, then the kernel in its place
            for _ in range(oracle_runs):
                outcome(real, scn, seed, kw["discriminators"])
            with monkeypatch.context() as m:
                m.setattr(nodes, "_tick_loop_fast", _tick_loop_fast)
                return real(scn, seed, **kw)

        monkeypatch.setattr(nodes, "run_scenario", run_scenario)
        with pytest.raises(AssertionError, match=f"ran the oracle {oracle_runs} times"):
            run_reference(scn, seed=1)


@RUNS
class TestLeanRing:
    # without discriminators a ring records the other three series bit for
    # bit, and diverges at the same tick
    @RING_PROPERTY
    @given(scn=SCENARIOS, seed=st.integers(0, 2**16))
    def test_lean_ring_matches_full_ring(self, run, scn, seed):
        full = outcome(run, scn, seed, True)
        lean = outcome(run, scn, seed, False)
        assert type(lean) is type(full)
        if isinstance(full, int):
            assert lean == full
            return
        for name in SERIES[:3]:
            assert getattr(lean, name).tobytes() == getattr(full, name).tobytes(), name
        assert all(getattr(full, name) is not None for name in SERIES[3:])
        assert all(getattr(lean, name) is None for name in SERIES[3:])

    @pytest.mark.filterwarnings("ignore:omega_n")
    @pytest.mark.parametrize("loop", [
        dict(omega_m_hz=4000.0, omega_s_hz=4000.0, initial_follower_phase_rad=1.0),
        dict(omega_m_hz=1e300),
    ])
    def test_lean_ring_diverges_at_the_full_rings_tick(self, run, loop):
        scn = Scenario(duration_s=1.0, ideal_clocks=True, **loop)
        full = outcome(run, scn, 1, True)
        assert isinstance(full, int)
        assert outcome(run, scn, 1, False) == full

    def test_ring_psd_sources_are_recorded(self, run):
        # output.psd_source reads its ring series from a lean ring
        lean = run(Scenario(duration_s=0.01), seed=1, discriminators=False)
        ring = [s for s in _PSD_SOURCES if s not in CLOCK_SOURCES]
        assert ring
        for name in ring:
            assert isinstance(getattr(lean, name), np.ndarray), name


class TestKernelInputType:
    # the run, the loop it calls and the module name it calls the loop
    # through; the subclass below checks the oracle
    run, module, name = staticmethod(run_scenario), nodes, "_tick_loop_fast"
    loop = staticmethod(_tick_loop_fast)

    @pytest.mark.parametrize("kw", [
        dict(snr_db=10.0, tau_s=3.3e-7, doppler_hz=1.5),
        dict(loop_latency_ticks=3, dual_carrier=False, wrap_compensation=False,
             tau_s=1e-7, doppler_hz=-2.0),
        dict(snr_db=5.0, loop_latency_ticks=3, wrap_compensation=False,
             initial_follower_phase_rad=3.0, follower_freq_offset_hz=0.3),
        dict(dual_carrier=False, theta_offset=0.1, doppler_hz=0.5, tau_s=5e-8),
    ])
    def test_memoryview_and_ndarray_inputs_give_identical_series(self, monkeypatch, kw):
        # run_scenario feeds the loop memoryviews (plain float elements);
        # the same inputs as ndarrays (numpy scalar elements) must give the
        # same bits, since the arithmetic is the same operation for operation
        calls = []

        def capture(*args):
            calls.append(args)
            return self.loop(*args)

        monkeypatch.setattr(self.module, self.name, capture)
        r = self.run(Scenario(duration_s=0.5, **kw), seed=11)
        (args,) = calls
        inputs = args[:-7]
        assert all(isinstance(inputs[k], memoryview) for k in (3, 4))  # th0, thx
        # noise: None for a noiseless ring, else one 1-D memoryview per quadrature
        noise = inputs[10]
        assert (noise is None) == (kw.get("snr_db", math.inf) == math.inf)
        inputs = [np.asarray(a) if isinstance(a, memoryview) else a for a in inputs]
        if noise is not None:
            assert len(noise) == 8
            assert all(isinstance(v, memoryview) and v.ndim == 1 for v in noise)
            inputs[10] = np.array(noise)
        out = [np.empty(r.n_ticks) for _ in range(7)]
        assert self.loop(*inputs, *out) == -1
        for name, series in zip(SERIES, out):
            assert np.array_equal(getattr(r, name), series), name


class TestReferenceInputType(TestKernelInputType):
    run, module, name = staticmethod(run_reference), oracles, "reference_loop"
    loop = staticmethod(reference_loop)


class TestReferenceBytes:
    # sha256 of the seven reference-engine series: a change to the oracle's
    # arithmetic, not only to its results beyond 1e-10, shows here
    @pytest.mark.parametrize("kw, digest", [
        pytest.param(dict(snr_db=10.0, loop_latency_ticks=2, tau_s=3.3e-7),
                     "ca3455f143c620fc7bf1d51889380407b85e352b71a01a99326fea8394ecf4bf",
                     id="dual-noise-clocks-latency2"),
        pytest.param(dict(ideal_clocks=True, dual_carrier=False, wrap_compensation=False,
                          snr_db=20.0, tau_s=1e-7, doppler_hz=-2.0),
                     "5bd18b6e941223574f8c4ffb62d98a5fc68c5334736db9460f60a801dea65f0e",
                     id="single-wrap-off-doppler"),
        pytest.param(dict(snr_db=15.0, initial_follower_phase_rad=2.5,
                          follower_freq_offset_hz=0.7, theta_offset=0.3),
                     "c5efc312d4976a5d48b71256d51bcf207abba22b4f47e5cf22cc159b2873517c",
                     id="follower-offsets-setpoint"),
    ])
    def test_reference_series_bytes_are_pinned(self, kw, digest):
        r = run_reference(Scenario(duration_s=0.3, **kw), seed=21)
        data = b"".join(getattr(r, name).tobytes() for name in SERIES)
        assert hashlib.sha256(data).hexdigest() == digest


class TestKernelBytes:
    # sha256 of the seven kernel series of single-carrier rings, which
    # never read the second forward carrier
    @pytest.mark.parametrize("kw, digest", [
        pytest.param(dict(snr_db=10.0, loop_latency_ticks=2, tau_s=3.3e-7),
                     "b483c34de10b06f1533df19c8dbd41b070d547b0dcfb618d8214adcae584ddc5",
                     id="noise-clocks-latency2"),
        pytest.param(dict(snr_db=10.0, wrap_compensation=False, doppler_hz=1.5),
                     "0cd738cc3a7970a4560bdb505c97ab45877b8cfa8e28c109c12bb75a19188ae7",
                     id="noise-clocks-wrap-off-doppler"),
    ])
    def test_single_carrier_series_bytes_are_pinned(self, kw, digest):
        r = run_scenario(Scenario(duration_s=0.3, dual_carrier=False, **kw), seed=21)
        data = b"".join(getattr(r, name).tobytes() for name in SERIES)
        assert hashlib.sha256(data).hexdigest() == digest


@RUNS
class TestRingChannel:
    def test_pure_rotation(self, run):
        # ideal clocks and both nodes' initial transmissions at phase zero:
        # the first tick's raw angles are the carriers' propagation phases
        plan = CarrierPlan()
        tau = 0.25 / plan.return_hz[0]
        r = run(Scenario(duration_s=0.01, ideal_clocks=True, tau_s=tau), seed=1)
        assert r.r3[0] == pytest.approx(-math.pi / 2, abs=1e-9)
        first = (r.r1[0], r.r2[0], r.r3[0], r.r4[0])
        expected = [prop_phase(f, tau) for f in plan.carriers_hz]
        assert first == pytest.approx(expected, abs=1e-12)

    def test_doppler_per_tick_rotation(self, run):
        # once the loops have pulled in, the master's raw return angle
        # turns by the one-way Doppler phase per tick
        scn = Scenario(duration_s=1.0, ideal_clocks=True, doppler_hz=1.0)
        r = run(scn, seed=1)
        steps = np.diff(np.unwrap(r.r3))[r.n_ticks // 2:]
        per_tick = TWO_PI * 1.0 * TICK  # 7.5084e-4 rad
        np.testing.assert_allclose(steps, per_tick, rtol=0, atol=1e-12)

    def test_noise_variance_calibration(self, run):
        # same propagation phase on every carrier: the difference of a
        # pair's raw angles is pure noise, two independent phase noises of
        # variance sigma**2/2 each
        scn = Scenario(duration_s=5.0, ideal_clocks=True, snr_db=10.0)
        r = run(scn, seed=3)
        sigma = sigma_from_snr(10.0, 10 * math.log10(32))
        for a, b in ((r.r1, r.r2), (r.r3, r.r4)):
            d = np.array([wrap_phase(v) for v in a - b])
            assert np.var(d) == pytest.approx(sigma**2, rel=0.03)


# a runnable value of each checked Scenario field (at least 50 ticks), and
# values no run can use, among them decimation 0, a NaN delay, Doppler or
# offset, an infinite baud, a 1e-9 s duration and a latency of 1.5 or True
# ticks, which used to construct
VALID_FIELDS = dict(
    duration_s=st.floats(1.0, 100.0), baud_hz=st.floats(1e5, 1e9),
    decimation=st.integers(33, 2000), zeta_m=st.floats(0.1, 5.0),
    omega_m_hz=st.floats(0.1, 1e4), zeta_s=st.floats(0.1, 5.0),
    omega_s_hz=st.floats(0.1, 1e4), theta_offset=st.floats(-10.0, 10.0),
    initial_follower_phase_rad=st.floats(-10.0, 10.0),
    follower_freq_offset_hz=st.floats(-1e3, 1e3), tau_s=st.floats(0.0, 1e-6),
    doppler_hz=st.floats(-1e3, 1e3), snr_db=st.just(math.inf) | st.floats(-20.0, 60.0),
    pilot_len=st.sampled_from([1, 2, 4, 8, 16, 32]), loop_latency_ticks=st.integers(1, 10),
)
NONPOSITIVE = [0.0, -1.0, math.nan, math.inf, -math.inf]
NONFINITE = [math.nan, math.inf, -math.inf]
BAD_FIELDS = dict(
    duration_s=[*NONPOSITIVE, 1e-9, 1e308], baud_hz=NONPOSITIVE,
    decimation=[0, -1, 1, math.nan, 100.5, True],
    zeta_m=NONPOSITIVE, omega_m_hz=NONPOSITIVE, zeta_s=NONPOSITIVE, omega_s_hz=NONPOSITIVE,
    theta_offset=NONFINITE, initial_follower_phase_rad=NONFINITE,
    follower_freq_offset_hz=NONFINITE, tau_s=[-1e-9, *NONFINITE],
    doppler_hz=NONFINITE, snr_db=[math.nan, -math.inf],
    pilot_len=[0, 3, 64, -2, 2.0, True], loop_latency_ticks=[0, -1, 1.5, 2.0, math.nan, True, "2"],
)


class TestScenarioChecks:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(fields=st.fixed_dictionaries(VALID_FIELDS))
    def test_constructs_a_valid_draw(self, fields):
        assert Scenario(**fields).n_ticks >= 1

    @pytest.mark.parametrize("name, value", [(name, value) for name, values in BAD_FIELDS.items()
                                             for value in values])
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(fields=st.fixed_dictionaries(VALID_FIELDS))
    def test_refuses_a_bad_field_by_name(self, name, value, fields):
        # each message starts with the field it is about
        with pytest.raises(ValueError, match=f"(^|; ){name} "):
            Scenario(**{**fields, name: value})

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(fields=st.fixed_dictionaries(VALID_FIELDS), latency=st.floats() | st.booleans())
    def test_refuses_a_latency_that_is_no_integer(self, fields, latency):
        # the delay line holds a whole number of ticks
        with pytest.raises(ValueError, match="(^|; )loop_latency_ticks must be an integer"):
            Scenario(**{**fields, "loop_latency_ticks": latency})

    def test_reports_every_problem(self):
        fields = {**vars(Scenario()), "zeta_m": 0.0, "tau_s": -1.0, "pilot_len": 64}
        assert Scenario.problems(fields) == [
            "zeta_m must be positive and finite", "tau_s must be nonnegative and finite",
            "pilot_len must be a power of two in 1..32"]
        assert Scenario.problems(vars(Scenario())) == []


class TestStreams:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**63), child=st.integers(0, 5))
    def test_each_stream_is_its_spawned_child(self, seed, child):
        # the one-stream helper keeps the bits of the six-way spawn it replaced
        spawned = np.random.SeedSequence(seed).spawn(6)[child]
        assert np.array_equal(nodes._stream(seed, child).generate_state(4),
                              spawned.generate_state(4))


class TestRunScenario:
    def test_noiseless_static_converges(self):
        scn = Scenario(duration_s=3.0, ideal_clocks=True)
        result = run_scenario(scn, seed=1)
        tail = result.theta_bf_minus_theta0[-1000:]
        assert np.max(np.abs(tail)) < 1e-3

    def test_deterministic_bytes(self):
        scn = Scenario(duration_s=0.5, snr_db=10.0)
        a = run_scenario(scn, seed=9)
        b = run_scenario(scn, seed=9)
        assert a.theta_bf_minus_theta0.tobytes() == b.theta_bf_minus_theta0.tobytes()
        assert a.alpha.tobytes() == b.alpha.tobytes()

    def test_seed_changes_noise(self):
        scn = Scenario(duration_s=0.5, snr_db=10.0)
        a = run_scenario(scn, seed=9)
        b = run_scenario(scn, seed=10)
        assert not np.array_equal(a.theta_bf_minus_theta0, b.theta_bf_minus_theta0)

    def test_lock_from_180_degrees_and_settling_ratio(self):
        def settle_time(f_hz, duration):
            scn = Scenario(duration_s=duration, ideal_clocks=True,
                           initial_follower_phase_rad=math.pi,
                           omega_m_hz=f_hz, omega_s_hz=f_hz)
            r = run_scenario(scn, seed=1)
            err = np.abs([wrap_phase(v) for v in r.theta_bf_minus_theta0])
            bad = np.nonzero(err > math.radians(1.0))[0]
            assert err[-1] < math.radians(1.0)
            return (bad[-1] + 1) / r.tick_rate_hz

        t_slow = settle_time(10.0, 6.0)
        t_fast = settle_time(100.0, 1.0)
        assert t_slow / t_fast == pytest.approx(10.0, rel=0.3)

    def test_fifty_hz_follower_offset_absorbed(self):
        scn = Scenario(duration_s=4.0, ideal_clocks=True, follower_freq_offset_hz=50.0)
        r = run_scenario(scn, seed=1)
        assert np.max(np.abs(r.theta_bf_minus_theta0[-1000:])) < 1e-3

    def test_doppler_locked_and_bounded(self):
        scn = Scenario(duration_s=10.0, ideal_clocks=True, doppler_hz=1.0,
                       snr_db=10.0)
        r = run_scenario(scn, seed=1)
        tail = r.theta_bf_minus_theta0[r.n_ticks // 2:]
        assert np.max(np.abs(tail)) < 0.05

    def test_divergent_configuration_raises_with_tick(self):
        # natural frequency near the tick rate: discrete loop unstable.  Both
        # engines raise, at different ticks (6105 on the kernel, 3019 on the
        # oracle): they differ by 9e-16 rad at tick 0, and the unstable loop
        # grows that to 1.4e-10 rad at tick 8 and past 1 rad at tick 24.
        # Only the NaN case below, at tick 0, gives both the same tick.
        scn = Scenario(duration_s=1.0, ideal_clocks=True, omega_m_hz=4000.0,
                       omega_s_hz=4000.0, initial_follower_phase_rad=1.0)
        for run in (run_scenario, run_reference):
            with pytest.warns(UserWarning):
                with pytest.raises(DivergenceError) as info:
                    run(scn, seed=1)
            assert 0 <= info.value.tick < scn.n_ticks, run.__name__

    def test_divergence_error_survives_pickle(self):
        # a library caller's process pool sends the error back to its parent by pickle
        err = pickle.loads(pickle.dumps(DivergenceError(5069)))
        assert type(err) is DivergenceError
        assert err.tick == 5069
        assert str(err) == str(DivergenceError(5069))

    @RUNS
    @pytest.mark.parametrize("loop", [dict(omega_m_hz=1e300),
                                      dict(zeta_s=1e300, omega_s_hz=1e200)])
    def test_nan_loop_state_raises_divergence_on_both_engines(self, run, loop):
        # omega**2 overflows to inf and inf*0 is NaN at the first tick
        scn = Scenario(duration_s=0.01, ideal_clocks=True, **loop)
        with pytest.warns(UserWarning):
            with pytest.raises(DivergenceError) as info:
                run(scn, seed=1)
        assert info.value.tick == 0

    def test_ring_clocks_are_the_clock_series(self, monkeypatch):
        # the ring's clocks come from _clock_series, which the CLI's clock
        # PSDs use too
        seen = {}

        def capture(n, cfg_m, cfg_s, th0, thx, *rest):
            seen["master"], seen["follower"] = np.array(th0), np.array(thx)
            return -1

        monkeypatch.setattr(nodes, "_tick_loop_fast", capture)
        scn = Scenario(duration_s=0.2)
        run_scenario(scn, seed=7)
        for side, series in seen.items():
            assert np.array_equal(series, nodes._clock_series(scn, 7, side, scn.n_ticks))
        assert not np.array_equal(seen["master"], seen["follower"])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**63), n=st.integers(0, 4097),
           side=st.sampled_from(["master", "follower"]),
           reference_hz=st.sampled_from([10e6, 1e3, 2200e6, 3.3e9, 1e-290, 1e300]))
    def test_clock_series_is_the_synthesis_times_the_rf_scale(self, seed, n, side,
                                                               reference_hz):
        # the RF scale applied in the synthesis pass, as a multiply after it
        mask = NoiseMask(reference_hz, getattr(Scenario(), f"{side}_mask").points)
        scn = Scenario(**{f"{side}_mask": mask})
        params = fit_two_state(mask, scn.baud_hz).rescaled(scn.decimation)
        rng = np.random.default_rng(nodes._stream(seed, nodes.CLOCK_STREAM[side]))
        want = oracles.one_shot_synthesis(params, n, rng) * (scn.plan.fc_hz / reference_hz)
        assert nodes._clock_series(scn, seed, side, n).tobytes() == want.tobytes()

    def test_result_time_axis(self):
        scn = Scenario(duration_s=0.1, ideal_clocks=True)
        r = run_scenario(scn, seed=1)
        assert r.n_ticks == int(round(0.1 * 8e6 / 956))
        assert r.t_s[1] - r.t_s[0] == pytest.approx(TICK)


class TestNoiseFloorMatchesAnalysis:
    # noise_factor: 0.5 for the L(f) = S_phi/2 convention, halved again in
    # dual mode, where each end averages two independent discriminators
    @pytest.mark.parametrize("dual_carrier, noise_factor",
                             [pytest.param(True, 0.25, id="dual"),
                              pytest.param(False, 0.5, id="single")])
    def test_awgn_floor_follows_ring_transfer_functions(self, dual_carrier, noise_factor):
        # superposition through the ring: the error-series PSD under AWGN
        # equals noise_factor*S_disc*|out_from_0|^2*(1+|G_c|^2); this ties
        # the simulator wiring to the analysis module quantitatively, and
        # shows dual_loop_tfs also describes single-carrier runs
        from dualsync.linear_analysis import closed_tf, dual_loop_tfs, gc_tf

        fs = 8e6 / 956
        scn = Scenario(duration_s=40.0, ideal_clocks=True, snr_db=10.0,
                       dual_carrier=dual_carrier)
        r = run_scenario(scn, seed=1)
        est = psd_estimate(r.theta_bf_minus_theta0, fs, block_len=2**13, n_blocks=16,
                           window=cheb_window(2**13, 120.0))
        band = (est.freqs_hz >= 3.0) & (est.freqs_hz <= 30.0)
        gm = closed_tf(scn.loop_config_master())
        tfs = dual_loop_tfs(gm, closed_tf(scn.loop_config_follower()))
        f = est.freqs_hz[band]
        t_f = tfs["out_from_0"].at_freq_hz(f)
        g_c = gc_tf(gm).at_freq_hz(f)
        s_disc = sigma_from_snr(10.0, 10 * math.log10(32)) ** 2 / fs
        predicted = 10 * np.log10(noise_factor * s_disc * np.abs(t_f) ** 2
                                  * (1 + np.abs(g_c) ** 2))
        measured = est.levels_dbc_hz[band]
        assert np.mean(measured) == pytest.approx(np.mean(predicted), abs=1.0)


class TestDelayMarginMatchesRing:
    # the analytic round-trip budget against the simulated ring: lock well
    # inside it, cycle slips well outside it (the ring does not diverge
    # past the margin, so the verdict is read off the error's tail spread)
    @pytest.mark.parametrize("omega_hz", [100.0, 30.0])
    @pytest.mark.parametrize("factor, locks", [(0.8, True), (1.2, False)])
    def test_lock_follows_delay_margin(self, omega_hz, factor, locks):
        from dualsync.linear_analysis import delay_margin

        margin_ticks = delay_margin(1.0, omega_hz, 1.0, omega_hz) / TICK
        # the round trip 2L is even: the largest below 0.8*margin, or the
        # smallest above 1.2*margin
        half = factor * margin_ticks / 2
        latency = math.floor(half) if locks else math.ceil(half)
        scn = Scenario(duration_s=6.0, ideal_clocks=True, omega_m_hz=omega_hz,
                       omega_s_hz=omega_hz, initial_follower_phase_rad=0.3,
                       loop_latency_ticks=latency)
        err = run_scenario(scn, seed=1).theta_bf_minus_theta0
        tail_std = float(np.std(err[err.size // 2:]))
        if locks:
            assert tail_std < 1e-6
        else:
            assert tail_std > 1.0


class TestQuarterTurnLock:
    def test_static_ring_locks_to_a_multiple_of_a_quarter_turn(self):
        # characterisation of the wrong-branch lock: each end averages two
        # wrapped carrier phases, a mean defined only modulo pi, and the
        # master's divide-by-two leaves theta_bf - theta_0 defined only
        # modulo pi/2.  Noiseless static rings over tau = 0..20 ns with
        # follower offsets 0..2 rad lock to k*pi/2, and 41 of the 84 to a
        # k other than 0 (mod 4).
        quarter = math.pi / 2
        off_zero = 0
        for tau_ns in range(21):
            for offset in (0.0, 0.5, 1.0, 2.0):
                scn = Scenario(duration_s=1.0, ideal_clocks=True, tau_s=tau_ns * 1e-9,
                               initial_follower_phase_rad=offset)
                locked = run_scenario(scn, seed=1).theta_bf_minus_theta0[-1]
                k = round(locked / quarter)
                assert abs(locked - k * quarter) < 1e-9, (tau_ns, offset)
                off_zero += k % 4 != 0
        assert off_zero == 41


class TestAmbiguityJumps:
    # at 20 Hz the 50 ms sampling reads every sample
    def test_constant_series_empty(self):
        assert detect_ambiguity_jumps(np.zeros(100), 20.0) == []

    def test_single_injected_step(self):
        x = np.zeros(200)
        x[120:] += math.pi / 2
        jumps = detect_ambiguity_jumps(x, 20.0)
        assert jumps == [(120, pytest.approx(math.pi / 2))]

    def test_step_reported_at_its_full_rate_tick(self):
        # 100 Hz: every 5th sample is read; the step lands between samples
        # 120 and 125 and is reported at 125
        x = np.zeros(200)
        x[123:] -= math.pi / 2
        assert detect_ambiguity_jumps(x, 100.0) == [(125, pytest.approx(-math.pi / 2))]

    def test_non_quantized_step_discarded(self):
        x = np.zeros(50)
        x[20:] += 1.0  # exceeds threshold but is not near k*pi/2
        assert detect_ambiguity_jumps(x, 20.0) == []

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            detect_ambiguity_jumps([0.0], 20.0)
        with pytest.raises(ValueError):  # two samples, but within 50 ms
            detect_ambiguity_jumps([0.0, 1.0], 100.0)

    def test_unbounded_drift_produces_quarter_turns(self):
        # anti-phase return legs isolate the wrap events so each ratchet
        # completes before the next; raw per-tick angles (no unwrap
        # tracking) then hop by exactly a quarter turn
        scn = Scenario(duration_s=15.0, ideal_clocks=True, doppler_hz=1.0,
                       tau_s=1.875e-8, wrap_compensation=False)
        r = run_scenario(scn, seed=1)
        jumps = detect_ambiguity_jumps(r.theta_bf_minus_theta0, r.tick_rate_hz)
        assert len(jumps) >= 5
        for _, mag in jumps:
            assert abs(mag) == pytest.approx(math.pi / 2, abs=1e-9)
