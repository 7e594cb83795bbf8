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
from decimal import Context, Decimal, InvalidOperation
from functools import reduce
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigFileError, ConfigurationError, Rule
from .presets import PRESETS, preset_config
from .runner import (
    DriftComparisonResult,
    QberSeries,
    RunConfig,
    RunResult,
    drift_comparison,
    run_experiment,
)

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


# Decimal context of the unit shift: an exponent beyond its range gives
# +-Infinity (then float inf, which the key's rule rejects), not an
# Overflow exception.
_SHIFT = Context(traps=[InvalidOperation])


def _parse_scaled(text: str, exponent: int) -> float:
    """Parse a value given in a 10^exponent unit into the base unit.

    The decimal shift is exact, so parse/format round-trip bit for bit.
    """
    return _parse_number(text, lambda t: float(Decimal(t).scaleb(exponent, _SHIFT)))


def _scaled_out(value: float, exponent: int) -> str:
    return format(Decimal(repr(value)).scaleb(exponent), "f")


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


_PARSERS = {float: _parse_number, int: _parse_int, str: str}


class _Key(NamedTuple):
    """One config key: the dotted path of its RunConfig field, and the power
    of ten of its unit when that is not the field's base unit. The field's
    default value picks the parser, and the rule declared on the field
    (errors.ruled) is the key's valid range."""

    path: str
    exponent: int | None = None


# Every physical quantity carries its unit in the key name; rows are in
# provenance-header order. Omitted keys take the RunConfig() defaults.
_KEY_TABLE = {
    "delta_l_m": _Key("encoder.delta_l_m"),
    "fiber_index": _Key("encoder.fiber_index"),
    "phi0_rad": _Key("encoder.elements.pc_phase_phi0"),
    "vpi_volts": _Key("encoder.elements.modulator_vpi"),
    "optical_fwhm_ns": _Key("encoder.optical_fwhm_s", -9),
    "electrical_pulse_width_ns": _Key("encoder.drive.pulse_width", -9),
    "delay_granularity_ps": _Key("encoder.drive.delay_granularity", -12),
    "encoding_mode": _Key("encoder.drive.mode"),
    "a_pulse_direction": _Key("encoder.drive.a_pulse_direction"),
    "phase_jitter_sigma_rad": _Key("encoder.phase_jitter_sigma"),
    "drive_jitter_sigma_rad": _Key("encoder.drive_jitter_sigma"),
    "pc_misalignment_eps_rad": _Key("encoder.elements.pc_misalignment_eps"),
    "pbs_extinction_db": _Key("encoder.elements.pbs_extinction_db"),
    "bs_insertion_loss_db": _Key("encoder.elements.bs_insertion_loss_db"),
    "modulator_insertion_loss_db": _Key("encoder.elements.modulator_insertion_loss_db"),
    "attenuator_loss_db": _Key("encoder.elements.attenuator_loss_db"),
    "source_mean_photon_number": _Key("encoder.source_mean_photon_number"),
    "drift_kind": _Key("encoder.drift.kind"),
    "drift_amplitude_rad": _Key("encoder.drift.amplitude_rad"),
    "drift_rate_rad_per_s": _Key("encoder.drift.rate_rad_per_s"),
    "drift_period_s": _Key("encoder.drift.period_s"),
    "detector_efficiency": _Key("detector.efficiency"),
    "dark_count_prob": _Key("detector.dark_count_prob_per_gate"),
    "measure_basis": _Key("detector.basis"),
    "double_click_policy": _Key("detector.double_click_policy"),
    "repetition_rate_hz": _Key("repetition_rate_hz"),
    "duration_s": _Key("duration_s"),
    "window_s": _Key("window_s"),
    "sequence_mode": _Key("sequence_mode"),
    "sequence_seed": _Key("sequence_seed"),
    "detection_seed": _Key("detection_seed"),
}


def _field(config, path: str):
    return reduce(getattr, path.split("."), config)


def _rule(config, path: str) -> Rule:
    """The rule declared on the field at ``path``."""
    *owners, name = path.split(".")
    return reduce(getattr, owners, config).__dataclass_fields__[name].metadata["rule"]


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from flat ``key = value`` lines.

    '#' starts a comment; blank lines are ignored; unknown or repeated
    keys, malformed lines, and out-of-range values are rejected with their
    line number. An empty document yields the full default configuration.
    """
    default = RunConfig()
    values = {}
    first_line = {}
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
        if key in first_line:
            raise ConfigFileError(f"repeated key {key!r}, first set on line {first_line[key]}", line_no)
        first_line[key] = line_no
        path, exponent = _KEY_TABLE[key]
        try:
            if exponent is None:
                value = _PARSERS[type(_field(default, path))](value_text)
            else:
                value = _parse_scaled(value_text, exponent)
            values[path] = _rule(default, path).check(key, value)
        except ValueError as exc:  # a ConfigurationError is one too
            raise ConfigFileError(str(exc), line_no) from None
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
    for key, (path, exponent) in _KEY_TABLE.items():
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
            # utf-8-sig drops the byte-order mark some editors put before the first key
            text = Path(inv.config_path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
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


def _check_writable(*paths: Path) -> None:
    """Fail before the run on an output path that is a directory or sits in
    a missing one, creating and truncating no file."""
    for path in paths:
        if path.is_dir():
            raise OSError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise OSError(f"cannot write {path}: no directory {path.parent}")


def _write(path: Path, header: str, series: QberSeries) -> None:
    """The provenance header, then the series' CSV piece by piece."""
    try:
        with path.open("w") as f:
            f.write(header)
            f.writelines(series.csv_chunks())
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
        _check_writable(out)  # before with_name, which raises on a path that names no file
        if inv.scenario == "drift":
            pog_path = out.with_name(out.stem + "_pognac" + (out.suffix or ".csv"))
            inl_path = out.with_name(out.stem + "_inline" + (out.suffix or ".csv"))
            _check_writable(pog_path, inl_path)
            paired: DriftComparisonResult = drift_comparison(config, config.encoder.drift)
            _write(pog_path, header, paired.pognac.series)
            _write(inl_path, header, paired.inline.series)
            print(f"# loop encoder ({pog_path})")
            print(render(paired.pognac), end="")
            print(f"# inline reference ({inl_path})")
            print(render(paired.inline), end="")
        else:
            result = run_experiment(config)
            _write(out, header, result.series)
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
