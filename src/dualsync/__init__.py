"""Dual-carrier remote carrier-phase synchronization: simulation and analysis."""

from .channel import CarrierPlan, prop_phase, sigma_from_snr
from .config import ConfigError, ScenarioConfig, parse_config
from .linear_analysis import (
    RationalDelayTF,
    asym_error,
    bode,
    closed_tf,
    delay_margin,
    dual_loop_tfs,
    gc_tf,
)
from .nodes import (
    DivergenceError,
    Scenario,
    ScenarioResult,
    detect_ambiguity_jumps,
    run_scenario,
)
from .oscillator import (
    MaskFitError,
    NoiseMask,
    TwoStateParams,
    fit_two_state,
    synthesize_phase,
)
from .pll import LoopConfig, LoopUnit, controller_step, discriminate, wrap_phase
from .spectral import PsdEstimate, cheb_window, psd_estimate

__version__ = "0.1.0"
