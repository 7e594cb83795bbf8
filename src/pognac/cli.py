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
from dataclasses import dataclass, fields, is_dataclass, replace
from decimal import Decimal, InvalidOperation
from functools import reduce
from pathlib import Path
from typing import Callable, NamedTuple

from .encoder import DRIFT_LINEAR, DRIFT_NONE, DRIFT_SINUSOIDAL
from .errors import ConfigFileError, ConfigurationError
from .presets import PRESETS, preset_config
from .receiver import BASIS_DA, BASIS_HV, POLICY_DISCARD, POLICY_RANDOM
from .runner import (
    SEQUENCE_DA,
    SEQUENCE_HVD,
    DriftComparisonResult,
    RunConfig,
    RunResult,
    drift_comparison,
    run_experiment,
)
from .waveform import MODE_FOUR_LEVEL, MODE_TWO_LEVEL

_GENERATOR_NOTES = {
    "hvd-pseudorandom": "numpy default_rng (PCG64); uniform integers 0..2 mapped to L,R,D",
    "da-alternating": "deterministic alternation D,A",
}


def _parse_number(text: str, convert=float) -> float:
    try:
        value = convert(text)
    except (InvalidOperation, ValueError):
        value = math.nan
    if math.isnan(value):
        raise ValueError(f"expected a number, got {text!r}")
    return value


def _parse_scaled(text: str, exponent: int) -> float:
    """Parse a value given in a 10^exponent unit into the base unit.

    The decimal shift is exact, so parse/format round-trip bit for bit.
    """
    return _parse_number(text, lambda t: float(Decimal(t).scaleb(exponent)))


def _scaled_out(value: float, exponent: int) -> str:
    return format(Decimal(repr(value)).scaleb(exponent), "f")


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


_PARSERS = {float: _parse_number, int: _parse_int, str: str}


class _Rule(NamedTuple):
    text: str
    ok: Callable


def _one_of(*choices: str) -> _Rule:
    return _Rule(f"one of {choices}", lambda v: v in choices)


_FINITE = _Rule("finite", math.isfinite)
_NONNEG = _Rule(">= 0 and finite", lambda v: 0 <= v < math.inf)
_POSITIVE = _Rule("positive and finite", lambda v: 0 < v < math.inf)
_UNIT_INTERVAL = _Rule("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_SEED = _Rule(">= 0", lambda v: v >= 0)


class _Key(NamedTuple):
    """One config key: the dotted path of its RunConfig field, the rule its
    value must meet, and the power of ten of its unit when that is not the
    field's base unit. The field's default value picks the parser."""

    path: str
    rule: _Rule
    exponent: int | None = None


# Every physical quantity carries its unit in the key name; rows are in
# provenance-header order. Omitted keys take the RunConfig() defaults.
# Every float must be finite, except an ideal PBS's infinite extinction.
_KEY_TABLE = {
    "delta_l_m": _Key("encoder.delta_l_m", _NONNEG),
    "fiber_index": _Key("encoder.fiber_index", _POSITIVE),
    "phi0_rad": _Key("encoder.elements.pc_phase_phi0", _FINITE),
    "vpi_volts": _Key("encoder.elements.modulator_vpi", _POSITIVE),
    "optical_fwhm_ns": _Key("encoder.optical_fwhm_s", _POSITIVE, -9),
    "electrical_pulse_width_ns": _Key("encoder.electrical_pulse_width_s", _POSITIVE, -9),
    "delay_granularity_ps": _Key("encoder.delay_granularity_s", _POSITIVE, -12),
    "encoding_mode": _Key("encoder.encoding_mode", _one_of(MODE_TWO_LEVEL, MODE_FOUR_LEVEL)),
    "a_pulse_direction": _Key("encoder.a_pulse_direction", _one_of("cw", "ccw")),
    "phase_jitter_sigma_rad": _Key("encoder.phase_jitter_sigma", _NONNEG),
    "drive_jitter_sigma_rad": _Key("encoder.drive_jitter_sigma", _NONNEG),
    "pc_misalignment_eps_rad": _Key("encoder.elements.pc_misalignment_eps", _FINITE),
    "pbs_extinction_db": _Key(
        "encoder.elements.pbs_extinction_db", _Rule(">= 0 (inf: an ideal PBS)", lambda v: v >= 0)
    ),
    "bs_insertion_loss_db": _Key("encoder.elements.bs_insertion_loss_db", _NONNEG),
    "modulator_insertion_loss_db": _Key("encoder.elements.modulator_insertion_loss_db", _NONNEG),
    "attenuator_loss_db": _Key("encoder.elements.attenuator_loss_db", _NONNEG),
    "source_mean_photon_number": _Key("encoder.source_mean_photon_number", _NONNEG),
    "drift_kind": _Key("encoder.drift.kind", _one_of(DRIFT_NONE, DRIFT_LINEAR, DRIFT_SINUSOIDAL)),
    "drift_amplitude_rad": _Key("encoder.drift.amplitude_rad", _FINITE),
    "drift_rate_rad_per_s": _Key("encoder.drift.rate_rad_per_s", _FINITE),
    "drift_period_s": _Key("encoder.drift.period_s", _NONNEG),
    "detector_efficiency": _Key("detector.efficiency", _UNIT_INTERVAL),
    "dark_count_prob": _Key("detector.dark_count_prob_per_gate", _UNIT_INTERVAL),
    "measure_basis": _Key("detector.basis", _one_of(BASIS_HV, BASIS_DA)),
    "double_click_policy": _Key("detector.double_click_policy", _one_of(POLICY_DISCARD, POLICY_RANDOM)),
    "repetition_rate_hz": _Key("repetition_rate_hz", _POSITIVE),
    "duration_s": _Key("duration_s", _POSITIVE),
    "window_s": _Key("window_s", _POSITIVE),
    "sequence_mode": _Key("sequence_mode", _one_of(SEQUENCE_HVD, SEQUENCE_DA)),
    "sequence_seed": _Key("sequence_seed", _SEED),
    "detection_seed": _Key("detection_seed", _SEED),
}


def _field(config, path: str):
    return reduce(getattr, path.split("."), config)


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from flat ``key = value`` lines.

    '#' starts a comment; blank lines are ignored; unknown keys, malformed
    lines, and out-of-range values are rejected with their line number. An
    empty document yields the full default configuration.
    """
    default = RunConfig()
    values = {}
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
        path, rule, exponent = _KEY_TABLE[key]
        try:
            if exponent is None:
                value = _PARSERS[type(_field(default, path))](value_text)
            else:
                value = _parse_scaled(value_text, exponent)
        except ValueError as exc:
            raise ConfigFileError(str(exc), line_no) from None
        if not rule.ok(value):
            raise ConfigFileError(f"{key} must be {rule.text}, got {value}", line_no)
        values[path] = value
    return _build(default, values)


def _build(default, values: dict, prefix: str = ""):
    """``default`` with the fields named in ``values`` (dotted path ->
    value) replaced, each nested dataclass constructed once, innermost
    first, so cross-field checks only ever see complete settings."""
    kwargs = {}
    for f in fields(default):
        path = prefix + f.name
        value = getattr(default, f.name)
        kwargs[f.name] = _build(value, values, path + ".") if is_dataclass(value) else values.get(path, value)
    return type(default)(**kwargs)


def format_config(config: RunConfig) -> str:
    """Render a RunConfig as key = value lines; parse_config() round-trips it."""
    lines = []
    for key, (path, _, exponent) in _KEY_TABLE.items():
        value = _field(config, path)
        if exponent is not None:
            value = _scaled_out(value, -exponent)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


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
