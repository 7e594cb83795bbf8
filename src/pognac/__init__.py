"""Desk-scale simulator of a self-compensating Sagnac-loop polarization
encoder and the three-state BB84 link built around it."""

from .encoder import (
    DriftProfile,
    ElementParams,
    EmittedPulse,
    EncoderConfig,
    db_to_power,
    emit_pulse,
    encode,
    loop_transit_lead,
    phase_from_voltage,
    phases_from_waveform,
)
from .errors import ConfigFileError, ConfigurationError
from .polarization import (
    JonesVector,
    TransferMatrix,
    fidelity,
    normalize,
)
from .presets import PRESETS, expected_qber, preset_config, preset_expected_qber
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
from .waveform import (
    PatternSpec,
    Segment,
    pattern_for_state,
    quantize_delay,
)

__version__ = "0.1.0"
