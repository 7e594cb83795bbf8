import contextlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pognac

from pognac.cli import (
    _KEY_TABLE,
    CliInvocation,
    build_parser,
    format_config,
    main,
    parse_config,
    run,
)
from pognac.encoder import DriftProfile
from pognac.errors import ConfigFileError, ConfigurationError
from pognac.presets import preset_config
from pognac.runner import RunConfig


def test_parse_sets_delay_line_length():
    cfg = parse_config("delta_l_m = 1.0\n")
    assert cfg.encoder.delta_l_m == 1.0


def test_parse_scaled_units():
    cfg = parse_config("optical_fwhm_ns = 1.2\ndelay_granularity_ps = 100\n")
    assert cfg.encoder.optical_fwhm_s == pytest.approx(1.2e-9, rel=1e-15)
    assert cfg.encoder.delay_granularity_s == pytest.approx(1e-10, rel=1e-15)


def test_parse_rejects_negative_vpi_with_line_number():
    with pytest.raises(ConfigFileError, match="line 2"):
        parse_config("# comment\nvpi_volts = -1\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigFileError, match="line 3"):
        parse_config("\n\nturbo_mode = on\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigFileError, match="key = value"):
        parse_config("this is not a config\n")


def test_empty_file_gives_defaults():
    assert parse_config("") == RunConfig()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n# full line comment\nwindow_s = 3.0  # trailing comment\n\n")
    assert cfg.window_s == 3.0


def test_round_trip_default():
    cfg = parse_config("")
    assert parse_config(format_config(cfg)) == cfg


def test_round_trip_presets():
    for name in ("fig2", "fig3", "fig4", "drift"):
        cfg = preset_config(name)
        assert parse_config(format_config(cfg)) == cfg


def test_round_trip_awkward_floats():
    text = "optical_fwhm_ns = 1.2345678901234567\nduration_s = 3.0000000001\nwindow_s=3.0\n"
    cfg = parse_config(text)
    again = parse_config(format_config(cfg))
    assert again == cfg


def _leaves(obj, prefix=""):
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_key_table_reaches_every_field_exactly_once():
    assert sorted(row.path for row in _KEY_TABLE.values()) == sorted(_leaves(RunConfig()))


def test_linear_drift_takes_a_negative_offset():
    drift = parse_config("drift_kind = linear\ndrift_amplitude_rad = -1\n").encoder.drift
    assert drift == DriftProfile.constant(-1.0)
    with pytest.raises(ConfigurationError, match="sinusoidal drift amplitude must be >= 0"):
        parse_config("drift_kind = sinusoidal\ndrift_amplitude_rad = -1\ndrift_period_s = 10\n")


def tiny_config_text(seed=9):
    return (
        "duration_s = 3\n"
        "repetition_rate_hz = 5e3\n"
        "phase_jitter_sigma_rad = 0.2\n"
        f"sequence_seed = {seed}\n"
        f"detection_seed = {seed}\n"
    )


def test_run_custom_scenario(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text())
    out_path = tmp_path / "out.csv"
    status = run(
        CliInvocation(scenario="custom", config_path=str(cfg_path), output_path=str(out_path))
    )
    assert status == 0
    text = out_path.read_text()
    lines = text.splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "window_start_s,sent_label,n_correct,n_error,n_discarded,qber"
    assert any(l.startswith("# scenario = custom") for l in lines)
    assert any("sequence_generator" in l for l in lines)
    summary = capsys.readouterr().out
    assert "label" in summary and "qber" in summary


def test_run_custom_requires_config(capsys):
    status = run(CliInvocation(scenario="custom"))
    assert status == 2
    assert "config" in capsys.readouterr().err


def test_run_rejects_config_with_preset(tmp_path, capsys):
    cfg_path = tmp_path / "x.cfg"
    cfg_path.write_text("")
    status = run(CliInvocation(scenario="fig2", config_path=str(cfg_path)))
    assert status == 2


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("vpi_volts = -3\n")
    status = run(CliInvocation(scenario="custom", config_path=str(cfg_path)))
    assert status == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("phase_jitter_sigma_rad = nan", "expected a number"),
        ("sequence_seed = -1", "sequence_seed must be >= 0"),
        ("duration_s = inf", "duration_s must be positive and finite"),
        ("delta_l_m = inf", "delta_l_m must be >= 0 and finite"),
        ("vpi_volts = inf", "vpi_volts must be positive and finite"),
        ("drift_rate_rad_per_s = inf", "drift_rate_rad_per_s must be finite"),
        ("phi0_rad = -inf", "phi0_rad must be finite"),
    ],
)
def test_run_rejects_unrunnable_values_with_line_number(tmp_path, capsys, line, message):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"window_s = 3.0\n{line}\n")
    status = run(
        CliInvocation(scenario="custom", config_path=str(cfg_path), output_path=str(tmp_path / "o.csv"))
    )
    assert status == 2
    assert f"line 2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_ideal_pbs_extinction_may_be_infinite():
    assert parse_config("pbs_extinction_db = inf\n").encoder.elements.pbs_extinction_db == float("inf")


@pytest.mark.parametrize(
    "text, message",
    [
        ("window_s = 1e-12\nrepetition_rate_hz = 1e5\n", "more than the cap of 1048576"),
        ("repetition_rate_hz = 1e300\n", "more than the cap of 1099511627776"),
        ("duration_s = 1e300\nrepetition_rate_hz = 1e300\n", "inf pulses"),
        ("duration_s = 1e300\nwindow_s = 1e-300\nrepetition_rate_hz = 1e-290\n", "inf windows"),
        # finite values whose products overflow inside the kernel
        (
            "repetition_rate_hz = 1e4\nduration_s = 0.02\nwindow_s = 1e-3\nphase_jitter_sigma_rad = 1e308\n",
            "the configuration takes the simulation out of floating-point range: overflow",
        ),
        (
            "repetition_rate_hz = 1e4\nduration_s = 0.02\nwindow_s = 1e-3\ndrift_kind = sinusoidal\n"
            "drift_amplitude_rad = 1e308\ndrift_period_s = 1e-308\n",
            "the configuration takes the simulation out of floating-point range: overflow",
        ),
    ],
)
def test_run_rejects_runs_above_the_caps(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text(text)
    status = run(
        CliInvocation(scenario="custom", config_path=str(cfg_path), output_path=str(tmp_path / "o.csv"))
    )
    assert status == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


# Run-size values: each run is at most a few hundred pulses and windows, or
# is over a cap, whatever the combination.
_RUN_SIZE_VALUES = {
    "repetition_rate_hz": ["1e4", "0.5", "1e300", "1e-300"],
    "duration_s": ["0.02", "5e-3", "1e300", "1e-300"],
    "window_s": ["1e-3", "0.02", "1e-300", "1e300"],
}
_CHOICES = {
    "encoding_mode": ["two-level", "four-level"],
    "a_pulse_direction": ["cw", "ccw"],
    "drift_kind": ["none", "linear", "sinusoidal"],
    "measure_basis": ["HV", "DA"],
    "double_click_policy": ["discard", "random"],
    "sequence_mode": ["hvd-pseudorandom", "da-alternating"],
}
_EXTREMES = ["0", "1", "-1", "5e-324", "1e-308", "1e308", "-1e308", "1.7976931348623157e308"]


def _value(key):
    if key in _RUN_SIZE_VALUES:
        return st.sampled_from(_RUN_SIZE_VALUES[key])
    if key in _CHOICES:
        return st.sampled_from(_CHOICES[key])
    if key.endswith("_seed"):
        return st.integers(-1, 2**70).map(str)
    return st.one_of(
        st.sampled_from(_EXTREMES),
        st.floats(min_value=0.0, allow_infinity=False).map(repr),
    )


_keys = st.sampled_from(sorted(_KEY_TABLE))
# Finite values, most of them in range, so runs reach the physics ...
_finite_lines = _keys.flatmap(lambda k: _value(k).map(lambda v: f"{k} = {v}"))
# ... and at most one line that must be rejected or ignored.
_odd_lines = st.one_of(
    st.tuples(_keys, st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "0x1.8p1", "abc", ""])).map(
        " = ".join
    ),
    st.sampled_from(["no equals sign", "turbo = on", "= 3", "# comment", ""]),
)


_DEFAULT_TEXT = dict(line.split(" = ") for line in format_config(RunConfig()).splitlines())
_SIGNED = {"phi0_rad", "pc_misalignment_eps_rad", "drift_rate_rad_per_s"}
# Ranges that keep every combination valid: fiber_index >= 1, probabilities
# in [0, 1], and a run of at most 1e11 pulses in at most 1e5 windows.
_IN_RANGE = {
    "fiber_index": (1, 10),
    "detector_efficiency": (0, 1),
    "dark_count_prob": (0, 1),
    "repetition_rate_hz": (1, 10**9),
    "duration_s": (1, 100),
    "window_s": ("0.001", 1),
}


def _off_default(key):
    """Text of a random in-range value of ``key`` other than its default.

    Numbers have at most 13 significant digits, so each is exactly the
    shortest repr of its float, in any decimal unit."""
    default = _DEFAULT_TEXT[key]
    if key in _CHOICES:
        return st.sampled_from([c for c in _CHOICES[key] if c != default])
    if key.endswith("_seed"):
        return st.integers(0, 2**70).map(str).filter(lambda v: v != default)
    lo, hi = _IN_RANGE.get(key, (-(10**6) if key in _SIGNED else "0.001", 10**6))
    return st.decimals(lo, hi, places=6).map(str).filter(lambda v: Decimal(v) != Decimal(default))


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({key: _off_default(key) for key in _KEY_TABLE}))
def test_round_trip_every_key_off_its_default(drawn):
    cfg = parse_config("".join(f"{key} = {value}\n" for key, value in drawn.items()))
    text = format_config(cfg)
    assert parse_config(text) == cfg
    lines = dict(line.split(" = ") for line in text.splitlines())
    assert lines.keys() == drawn.keys()
    for key, value in drawn.items():
        if key in _CHOICES:
            assert lines[key] == value
        else:
            assert Decimal(lines[key]) == Decimal(value), key


@settings(max_examples=500, deadline=None)
@given(st.lists(_finite_lines, max_size=5), st.lists(_odd_lines, max_size=1), st.randoms())
def test_fuzzed_config_exits_0_2_or_3_without_traceback(lines, odd, random):
    lines = lines + odd
    random.shuffle(lines)
    base = "repetition_rate_hz = 1e4\nduration_s = 0.02\nwindow_s = 1e-3\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "fuzz.cfg"
        cfg_path.write_text(base + "\n".join(lines) + "\n")
        stderr = io.StringIO()
        argv = ["--scenario", "custom", "--config", str(cfg_path), "--out", str(Path(tmp) / "o.csv")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
    assert exit_info.value.code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()


def test_negative_seed_override_exits_2(tmp_path, capsys):
    status = run(CliInvocation(scenario="fig4", seed_override=-1, output_path=str(tmp_path / "o.csv")))
    assert status == 2
    assert "seeds must be >= 0" in capsys.readouterr().err


def test_python_m_pognac_help():
    env = dict(os.environ, PYTHONPATH=str(Path(pognac.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pognac", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "usage: pognac" in proc.stdout


def test_run_unwritable_output_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text())
    status = run(
        CliInvocation(
            scenario="custom",
            config_path=str(cfg_path),
            output_path=str(tmp_path / "missing_dir" / "out.csv"),
        )
    )
    assert status == 3
    assert "error" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text())
    outputs = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        assert (
            run(
                CliInvocation(
                    scenario="custom", config_path=str(cfg_path), output_path=str(out_path)
                )
            )
            == 0
        )
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text())
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run(CliInvocation(scenario="custom", config_path=str(cfg_path), output_path=str(out_a)))
    run(
        CliInvocation(
            scenario="custom",
            config_path=str(cfg_path),
            seed_override=777,
            output_path=str(out_b),
        )
    )
    assert out_a.read_bytes() != out_b.read_bytes()
    assert b"seed_override = 777" in out_b.read_bytes()


def test_drift_scenario_writes_two_csvs(tmp_path, capsys):
    out_path = tmp_path / "drift.csv"
    status = run(CliInvocation(scenario="drift", output_path=str(out_path)))
    assert status == 0
    pog = tmp_path / "drift_pognac.csv"
    inl = tmp_path / "drift_inline.csv"
    assert pog.exists() and inl.exists()
    header = "window_start_s,sent_label,n_correct,n_error,n_discarded,qber"
    for path in (pog, inl):
        lines = path.read_text().splitlines()
        data_header = next(l for l in lines if not l.startswith("#"))
        assert data_header == header
    out = capsys.readouterr().out
    assert "loop encoder" in out and "inline reference" in out


def test_summary_csv_format(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text())
    status = run(
        CliInvocation(
            scenario="custom",
            config_path=str(cfg_path),
            output_path=str(tmp_path / "o.csv"),
            summary_format="csv",
        )
    )
    assert status == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "sent_label,n_correct,n_error,n_discarded,qber,stderr"


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.scenario == "fig2"
    assert args.summary == "text"
