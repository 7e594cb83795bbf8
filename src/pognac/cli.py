"""Batch front-end: flat key=value configs, scenario presets, CSV time
series, and human-readable summaries.

Exit status: 0 success, 2 configuration problem, 3 I/O problem. All
diagnostics go to stderr. Identical inputs and seeds produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .elements import ElementParams
from .encoder import (
    DRIFT_LINEAR,
    DRIFT_NONE,
    DRIFT_SINUSOIDAL,
    DriftProfile,
    EncoderConfig,
)
from .errors import ConfigFileError, ConfigurationError
from .presets import PRESETS, preset_config
from .receiver import DetectorParams
from .runner import (
    DriftComparisonResult,
    RunConfig,
    RunResult,
    drift_comparison,
    run_experiment,
)

_GENERATOR_NOTES = {
    "hvd-pseudorandom": "numpy default_rng (PCG64); uniform integers 0..2 mapped to L,R,D",
    "da-alternating": "deterministic alternation D,A",
}


def _not_nan(value: float, text: str) -> float:
    if math.isnan(value):
        raise ValueError(f"expected a number, got {text!r}")
    return value


def _parse_float(text: str) -> float:
    try:
        return _not_nan(float(text), text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _scaled_in(exponent: int):
    """Parse a value given in a 10^exponent unit into the base unit.

    The decimal shift is exact, so parse/format round-trip bit for bit.
    """

    def parse(text: str) -> float:
        try:
            return _not_nan(float(Decimal(text).scaleb(exponent)), text)
        except (InvalidOperation, ValueError):
            raise ValueError(f"expected a number, got {text!r}") from None

    return parse


def _scaled_out(value: float, exponent: int) -> str:
    return format(Decimal(repr(value)).scaleb(exponent), "f")


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_choice(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return text

    return parse


def _rule(name: str, rule: str, ok):
    def check(v):
        if not ok(v):
            raise ValueError(f"{name} must be {rule}, got {v}")
        return v

    return check


def _finite(name):
    return _rule(name, "finite", math.isfinite)


def _nonneg(name):
    return _rule(name, ">= 0 and finite", lambda v: 0 <= v < math.inf)


def _positive(name):
    return _rule(name, "positive and finite", lambda v: 0 < v < math.inf)


def _identity(v):
    return v


def _unit_interval(name):
    return _rule(name, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)


# key -> (parser, validator). Every physical quantity carries its unit in
# the key name. Omitted keys take the documented defaults (see _DEFAULTS).
# Every float must be finite, except an ideal PBS's infinite extinction.
_KEY_TABLE = {
    "delta_l_m": (_parse_float, _nonneg("delta_l_m")),
    "fiber_index": (_parse_float, _positive("fiber_index")),
    "phi0_rad": (_parse_float, _finite("phi0_rad")),
    "vpi_volts": (_parse_float, _positive("vpi_volts")),
    "optical_fwhm_ns": (_scaled_in(-9), _positive("optical_fwhm_ns")),
    "electrical_pulse_width_ns": (_scaled_in(-9), _positive("electrical_pulse_width_ns")),
    "delay_granularity_ps": (_scaled_in(-12), _positive("delay_granularity_ps")),
    "encoding_mode": (_parse_choice("two-level", "four-level"), _identity),
    "a_pulse_direction": (_parse_choice("cw", "ccw"), _identity),
    "phase_jitter_sigma_rad": (_parse_float, _nonneg("phase_jitter_sigma_rad")),
    "drive_jitter_sigma_rad": (_parse_float, _nonneg("drive_jitter_sigma_rad")),
    "pc_misalignment_eps_rad": (_parse_float, _finite("pc_misalignment_eps_rad")),
    "pbs_extinction_db": (_parse_float, _rule("pbs_extinction_db", ">= 0 (inf: an ideal PBS)", lambda v: v >= 0)),
    "bs_insertion_loss_db": (_parse_float, _nonneg("bs_insertion_loss_db")),
    "modulator_insertion_loss_db": (_parse_float, _nonneg("modulator_insertion_loss_db")),
    "attenuator_loss_db": (_parse_float, _nonneg("attenuator_loss_db")),
    "source_mean_photon_number": (_parse_float, _nonneg("source_mean_photon_number")),
    "drift_kind": (_parse_choice(DRIFT_NONE, DRIFT_LINEAR, DRIFT_SINUSOIDAL), _identity),
    "drift_amplitude_rad": (_parse_float, _nonneg("drift_amplitude_rad")),
    "drift_rate_rad_per_s": (_parse_float, _finite("drift_rate_rad_per_s")),
    "drift_period_s": (_parse_float, _nonneg("drift_period_s")),
    "detector_efficiency": (_parse_float, _unit_interval("detector_efficiency")),
    "dark_count_prob": (_parse_float, _unit_interval("dark_count_prob")),
    "measure_basis": (_parse_choice("HV", "DA"), _identity),
    "double_click_policy": (_parse_choice("discard", "random"), _identity),
    "repetition_rate_hz": (_parse_float, _positive("repetition_rate_hz")),
    "duration_s": (_parse_float, _positive("duration_s")),
    "window_s": (_parse_float, _positive("window_s")),
    "sequence_mode": (_parse_choice("hvd-pseudorandom", "da-alternating"), _identity),
    "sequence_seed": (_parse_int, _rule("sequence_seed", ">= 0", lambda v: v >= 0)),
    "detection_seed": (_parse_int, _rule("detection_seed", ">= 0", lambda v: v >= 0)),
}

_DEFAULT_CONFIG = RunConfig()

_DEFAULTS = {
    "delta_l_m": _DEFAULT_CONFIG.encoder.delta_l_m,
    "fiber_index": _DEFAULT_CONFIG.encoder.fiber_index,
    "phi0_rad": _DEFAULT_CONFIG.encoder.phi0,
    "vpi_volts": _DEFAULT_CONFIG.encoder.vpi,
    # scaled keys hold the base-unit (seconds) value once parsed
    "optical_fwhm_ns": _DEFAULT_CONFIG.encoder.optical_fwhm_s,
    "electrical_pulse_width_ns": _DEFAULT_CONFIG.encoder.electrical_pulse_width_s,
    "delay_granularity_ps": _DEFAULT_CONFIG.encoder.delay_granularity_s,
    "encoding_mode": _DEFAULT_CONFIG.encoder.encoding_mode,
    "a_pulse_direction": _DEFAULT_CONFIG.encoder.a_pulse_direction,
    "phase_jitter_sigma_rad": _DEFAULT_CONFIG.encoder.phase_jitter_sigma,
    "drive_jitter_sigma_rad": _DEFAULT_CONFIG.encoder.drive_jitter_sigma,
    "pc_misalignment_eps_rad": _DEFAULT_CONFIG.encoder.elements.pc_misalignment_eps,
    "pbs_extinction_db": _DEFAULT_CONFIG.encoder.elements.pbs_extinction_db,
    "bs_insertion_loss_db": _DEFAULT_CONFIG.encoder.elements.bs_insertion_loss_db,
    "modulator_insertion_loss_db": _DEFAULT_CONFIG.encoder.elements.modulator_insertion_loss_db,
    "attenuator_loss_db": _DEFAULT_CONFIG.encoder.elements.attenuator_loss_db,
    "source_mean_photon_number": _DEFAULT_CONFIG.encoder.source_mean_photon_number,
    "drift_kind": _DEFAULT_CONFIG.encoder.drift.kind,
    "drift_amplitude_rad": _DEFAULT_CONFIG.encoder.drift.amplitude_rad,
    "drift_rate_rad_per_s": _DEFAULT_CONFIG.encoder.drift.rate_rad_per_s,
    "drift_period_s": _DEFAULT_CONFIG.encoder.drift.period_s,
    "detector_efficiency": _DEFAULT_CONFIG.detector.efficiency,
    "dark_count_prob": _DEFAULT_CONFIG.detector.dark_count_prob_per_gate,
    "measure_basis": _DEFAULT_CONFIG.detector.basis,
    "double_click_policy": _DEFAULT_CONFIG.detector.double_click_policy,
    "repetition_rate_hz": _DEFAULT_CONFIG.repetition_rate_hz,
    "duration_s": _DEFAULT_CONFIG.duration_s,
    "window_s": _DEFAULT_CONFIG.window_s,
    "sequence_mode": _DEFAULT_CONFIG.sequence_mode,
    "sequence_seed": _DEFAULT_CONFIG.sequence_seed,
    "detection_seed": _DEFAULT_CONFIG.detection_seed,
}


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from flat ``key = value`` lines.

    '#' starts a comment; blank lines are ignored; unknown keys, malformed
    lines, and out-of-range values are rejected with their line number. An
    empty document yields the full default configuration.
    """
    values = dict(_DEFAULTS)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"expected 'key = value', got {raw.strip()!r}", line_no)
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _KEY_TABLE:
            raise ConfigFileError(f"unknown key {key!r}", line_no)
        parser, validator = _KEY_TABLE[key]
        try:
            values[key] = validator(parser(value_text))
        except ValueError as exc:
            raise ConfigFileError(str(exc), line_no) from None
    return _build_config(values)


def _build_config(v: dict) -> RunConfig:
    elements = ElementParams(
        pbs_extinction_db=v["pbs_extinction_db"],
        pc_phase_phi0=v["phi0_rad"],
        pc_misalignment_eps=v["pc_misalignment_eps_rad"],
        bs_insertion_loss_db=v["bs_insertion_loss_db"],
        attenuator_loss_db=v["attenuator_loss_db"],
        modulator_vpi=v["vpi_volts"],
        modulator_insertion_loss_db=v["modulator_insertion_loss_db"],
    )
    drift = DriftProfile(
        kind=v["drift_kind"],
        amplitude_rad=v["drift_amplitude_rad"],
        rate_rad_per_s=v["drift_rate_rad_per_s"],
        period_s=v["drift_period_s"],
    )
    encoder = EncoderConfig(
        delta_l_m=v["delta_l_m"],
        fiber_index=v["fiber_index"],
        optical_fwhm_s=v["optical_fwhm_ns"],
        electrical_pulse_width_s=v["electrical_pulse_width_ns"],
        delay_granularity_s=v["delay_granularity_ps"],
        encoding_mode=v["encoding_mode"],
        a_pulse_direction=v["a_pulse_direction"],
        phase_jitter_sigma=v["phase_jitter_sigma_rad"],
        drive_jitter_sigma=v["drive_jitter_sigma_rad"],
        source_mean_photon_number=v["source_mean_photon_number"],
        elements=elements,
        drift=drift,
    )
    detector = DetectorParams(
        efficiency=v["detector_efficiency"],
        dark_count_prob_per_gate=v["dark_count_prob"],
        basis=v["measure_basis"],
        double_click_policy=v["double_click_policy"],
    )
    return RunConfig(
        encoder=encoder,
        detector=detector,
        repetition_rate_hz=v["repetition_rate_hz"],
        duration_s=v["duration_s"],
        window_s=v["window_s"],
        sequence_mode=v["sequence_mode"],
        sequence_seed=v["sequence_seed"],
        detection_seed=v["detection_seed"],
    )


def format_config(config: RunConfig) -> str:
    """Render a RunConfig as key = value lines; parse_config() round-trips it."""
    enc = config.encoder
    det = config.detector
    values = {
        "delta_l_m": enc.delta_l_m,
        "fiber_index": enc.fiber_index,
        "phi0_rad": enc.phi0,
        "vpi_volts": enc.vpi,
        "optical_fwhm_ns": _scaled_out(enc.optical_fwhm_s, 9),
        "electrical_pulse_width_ns": _scaled_out(enc.electrical_pulse_width_s, 9),
        "delay_granularity_ps": _scaled_out(enc.delay_granularity_s, 12),
        "encoding_mode": enc.encoding_mode,
        "a_pulse_direction": enc.a_pulse_direction,
        "phase_jitter_sigma_rad": enc.phase_jitter_sigma,
        "drive_jitter_sigma_rad": enc.drive_jitter_sigma,
        "pc_misalignment_eps_rad": enc.elements.pc_misalignment_eps,
        "pbs_extinction_db": enc.elements.pbs_extinction_db,
        "bs_insertion_loss_db": enc.elements.bs_insertion_loss_db,
        "modulator_insertion_loss_db": enc.elements.modulator_insertion_loss_db,
        "attenuator_loss_db": enc.elements.attenuator_loss_db,
        "source_mean_photon_number": enc.source_mean_photon_number,
        "drift_kind": enc.drift.kind,
        "drift_amplitude_rad": enc.drift.amplitude_rad,
        "drift_rate_rad_per_s": enc.drift.rate_rad_per_s,
        "drift_period_s": enc.drift.period_s,
        "detector_efficiency": det.efficiency,
        "dark_count_prob": det.dark_count_prob_per_gate,
        "measure_basis": det.basis,
        "double_click_policy": det.double_click_policy,
        "repetition_rate_hz": config.repetition_rate_hz,
        "duration_s": config.duration_s,
        "window_s": config.window_s,
        "sequence_mode": config.sequence_mode,
        "sequence_seed": config.sequence_seed,
        "detection_seed": config.detection_seed,
    }
    return "\n".join(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in values.items()) + "\n"


@dataclass(frozen=True)
class CliInvocation:
    scenario: str
    config_path: str | None = None
    seed_override: int | None = None
    output_path: str = "qber.csv"
    summary_format: str = "text"


def _load_config(inv: CliInvocation) -> RunConfig:
    if inv.scenario == "custom":
        if inv.config_path is None:
            raise ConfigurationError("the custom scenario requires --config")
        try:
            text = Path(inv.config_path).read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {inv.config_path}: {exc}") from None
        config = parse_config(text)
    else:
        if inv.config_path is not None:
            raise ConfigurationError("--config is only valid with --scenario custom")
        config = preset_config(inv.scenario)
    if inv.seed_override is not None:
        config = replace(
            config, sequence_seed=inv.seed_override, detection_seed=inv.seed_override
        )
    return config


def _provenance_header(inv: CliInvocation, config: RunConfig) -> str:
    lines = [f"# scenario = {inv.scenario}"]
    if inv.seed_override is not None:
        lines.append(f"# seed_override = {inv.seed_override}")
    lines.append(f"# sequence_generator = {_GENERATOR_NOTES[config.sequence_mode]}")
    lines += [f"# {line}" for line in format_config(config).splitlines()]
    return "\n".join(lines) + "\n"


def _format_stat(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.6f}"


def summary_text(result: RunResult) -> str:
    lines = [f"{'label':<6}{'n_correct':>10}{'n_error':>9}{'n_discarded':>13}{'qber':>10}{'stderr':>10}"]
    for label, s in result.summary.items():
        lines.append(
            f"{label:<6}{s.n_correct:>10}{s.n_error:>9}{s.n_discarded:>13}"
            f"{_format_stat(s.qber):>10}{_format_stat(s.stderr):>10}"
        )
    return "\n".join(lines) + "\n"


def summary_csv(result: RunResult) -> str:
    lines = ["sent_label,n_correct,n_error,n_discarded,qber,stderr"]
    for label, s in result.summary.items():
        lines.append(f"{label},{s.n_correct},{s.n_error},{s.n_discarded},{s.qber!r},{s.stderr!r}")
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def run(inv: CliInvocation) -> int:
    """Execute one invocation; returns the process exit status."""
    try:
        config = _load_config(inv)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = _provenance_header(inv, config)
    render = summary_csv if inv.summary_format == "csv" else summary_text
    out = Path(inv.output_path)
    try:
        if inv.scenario == "drift":
            paired: DriftComparisonResult = drift_comparison(config, config.encoder.drift)
            pog_path = out.with_name(out.stem + "_pognac" + (out.suffix or ".csv"))
            inl_path = out.with_name(out.stem + "_inline" + (out.suffix or ".csv"))
            _write(pog_path, header + paired.pognac.series.to_csv())
            _write(inl_path, header + paired.inline.series.to_csv())
            print(f"# loop encoder ({pog_path})")
            print(render(paired.pognac), end="")
            print(f"# inline reference ({inl_path})")
            print(render(paired.inline), end="")
        else:
            result = run_experiment(config)
            _write(out, header + result.series.to_csv())
            print(render(result), end="")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pognac",
        description="Simulate the Sagnac-loop polarization encoder link and report windowed QBER.",
    )
    parser.add_argument(
        "--scenario",
        default="fig2",
        choices=sorted(PRESETS) + ["custom"],
        help="preset scenario, or 'custom' with --config",
    )
    parser.add_argument("--config", default=None, help="config file for --scenario custom")
    parser.add_argument("--seed", type=int, default=None, help="override both run seeds")
    parser.add_argument("--out", default="qber.csv", help="output CSV path (drift writes *_pognac/*_inline)")
    parser.add_argument("--summary", default="text", choices=["text", "csv"], help="summary format on stdout")
    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    inv = CliInvocation(
        scenario=args.scenario,
        config_path=args.config,
        seed_override=args.seed,
        output_path=args.out,
        summary_format=args.summary,
    )
    sys.exit(run(inv))
