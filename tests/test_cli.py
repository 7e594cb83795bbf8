import os
import subprocess
import sys
from pathlib import Path

import pytest

import pognac

from pognac.cli import (
    CliInvocation,
    build_parser,
    format_config,
    parse_config,
    run,
)
from pognac.errors import ConfigFileError
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
