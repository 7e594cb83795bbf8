"""Desk-scale simulator of a self-compensating Sagnac-loop polarization
encoder and the three-state BB84 link built around it."""

from .elements import (
    ElementParams,
    db_to_power,
    make_hwp,
    phase_from_voltage,
)
from .encoder import (
    DriftProfile,
    EmittedPulse,
    EncoderConfig,
    emit_pulse,
    encode,
    encode_with_drift,
    inline_encoder_reference,
    loop_transit_lead,
    output_pc_mapping,
    phases_from_waveform,
)
from .errors import ConfigFileError, ConfigurationError
from .polarization import (
    ABSORBED,
    JonesVector,
    TransferMatrix,
    apply,
    fidelity,
    normalize,
)
from .presets import PRESETS, expected_qber, preset_config, preset_expected_qber
from .receiver import (
    DetectionRecord,
    DetectorParams,
    click_probabilities,
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
    Waveform,
    pattern_for_state,
    quantize_delay,
)

__version__ = "0.1.0"
