"""MMSE beamforming for full-duplex two-way amplify-and-forward MIMO relaying.

Simulates a two-source, one-relay full-duplex link in which imperfectly
canceled loopback self-interference re-enters the relay through every past
beamformer, and implements the closed-form per-slot joint relay/receive MMSE
design (with limited-memory variants and baselines) plus the Monte Carlo
harness that reproduces the resulting MSE/rate figures.
"""

from .beamforming import (
    BeamformingSolution,
    DegenerateObjectiveError,
    SlotOperators,
    alternate_optimize,
    build_slot_operators,
    evaluate_sum_mse,
    solve_receive_beamformers,
    solve_relay_beamformer,
)
from .channel import (
    MEMORY_AUTO,
    MEMORY_INFINITE,
    SystemConfig,
    TimeSlotChannels,
    config_from_snr_inr,
    draw_slot_channels,
    slot_rng,
)
from .harness import (
    SweepRecord,
    SweepResult,
    SweepSpec,
    emit_results,
    read_records_csv,
    read_records_json,
    run_sweep,
)
from .matrix_core import (
    SingularSystemError,
    chained_error_trace_mean,
    kron,
    mat,
    solve_linear,
    vec,
)
from .memory_select import MemoryProbe, MemorySelection, NoStableMemoryError, select_memory
from .metrics import SlotMetrics, achievable_sum_rate, duplex_mode_select, half_duplex_reference
from .si_propagation import ResidualSICovariance, residual_si_covariance
from .simulate import SCHEMES, TrajectoryResult, run_trajectory
from .validation import (
    SignalChainEnsemble,
    brute_force_relay_opt,
    chained_error_trace_sample_mean,
    run_oracle_suite,
    simulate_signal_chain,
)

__version__ = "0.1.0"
