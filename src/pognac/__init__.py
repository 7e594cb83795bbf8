"""Desk-scale simulator of a self-compensating Sagnac-loop polarization
encoder and the three-state BB84 link built around it."""

from .encoder import (
    DriftProfile,
    ElementParams,
    EmittedPulse,
    EncoderConfig,
    PatternSpec,
    Segment,
    db_to_power,
    emit_pulse,
    encode,
    loop_transit_lead,
    pattern_for_state,
    phase_from_voltage,
    phases_from_waveform,
    quantize_delay,
)
from .errors import ConfigFileError, ConfigurationError
from .polarization import (
    JonesVector,
    TransferMatrix,
    fidelity,
    normalize,
)
from .presets import PRESETS, preset_config, preset_expected_qber
from .receiver import (
    DetectionRecord,
    DetectorParams,
    click_probabilities,
    make_hwp,
    simulate_detection,
)
from .runner import (
    DriftComparisonResult,
    LabelStats,
    QberSeries,
    RunConfig,
    RunResult,
    WindowRow,
    drift_comparison,
    generate_sequence,
    run_experiment,
    sift_and_qber,
)

__version__ = "0.1.0"
