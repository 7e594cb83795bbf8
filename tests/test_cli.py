import contextlib
import errno
import io
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import fields, is_dataclass
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pognac
from pognac import cli, runner
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
    assert cfg.encoder.drive.delay_granularity == pytest.approx(1e-10, rel=1e-15)


def test_parse_rejects_negative_vpi_with_line_number():
    with pytest.raises(ConfigFileError, match="line 2"):
        parse_config("# comment\nvpi_volts = -1\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigFileError, match="line 3"):
        parse_config("\n\nturbo_mode = on\n")


def test_parse_rejects_repeated_key_naming_its_first_line():
    with pytest.raises(ConfigFileError, match="^line 3: repeated key 'duration_s', first set on line 1$"):
        parse_config("duration_s = 6\nwindow_s = 3\nduration_s = 3\n")


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


def test_run_non_utf8_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "u.cfg"
    cfg_path.write_bytes(b"\xff\xfe = 3\n")
    status = run(CliInvocation(scenario="custom", config_path=str(cfg_path), output_path=str(tmp_path / "o.csv")))
    assert status == 2
    assert f"cannot read config {cfg_path}: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_run_reads_a_config_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    # some editors write UTF-8 with a leading byte-order mark
    text = "duration_s = 0.01\nwindow_s = 0.01\nrepetition_rate_hz = 2e4\n"
    csvs = []
    for name, data in [("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())]:
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_bytes(data)
        out_path = tmp_path / f"{name}.csv"
        assert run(CliInvocation(scenario="custom", config_path=str(cfg_path), output_path=str(out_path))) == 0
        csvs.append(out_path.read_bytes())
    assert csvs[0] == csvs[1]
    assert "# duration_s = 0.01" in csvs[1].decode()


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
        ("sequence_seed = -1", "sequence_seed must be an integer >= 0, got -1"),
        ("duration_s = inf", "duration_s must be positive and finite"),
        ("delta_l_m = inf", "delta_l_m must be >= 0 and finite"),
        ("vpi_volts = inf", "vpi_volts must be positive and finite"),
        ("drift_rate_rad_per_s = inf", "drift_rate_rad_per_s must be finite"),
        ("phi0_rad = -inf", "phi0_rad must be finite"),
        ("fiber_index = 0.5", "fiber_index must be >= 1"),
        # an exponent beyond the range of the decimal unit shift
        ("optical_fwhm_ns = 1e999999999", "optical_fwhm_ns must be positive and finite, got inf"),
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
        # no pulse can click, so only the range proof sends the phase difference to every pulse
        (
            "repetition_rate_hz = 1e4\nduration_s = 0.02\nwindow_s = 1e-3\ndetector_efficiency = 0\n"
            "dark_count_prob = 0\nphase_jitter_sigma_rad = 1e308\n",
            "the configuration takes the simulation out of floating-point range: overflow encountered in multiply",
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


def test_a_failure_late_in_the_run_leaves_no_file(tmp_path, monkeypatch, capsys):
    # one pulse per window; the drift's phase overflows about 0.29 s in
    cfg_path = tmp_path / "late.cfg"
    cfg_path.write_text(
        "repetition_rate_hz = 1e4\nduration_s = 1.0\nwindow_s = 1e-4\n"
        "drift_kind = sinusoidal\ndrift_amplitude_rad = 1.0\ndrift_period_s = 1e-308\n"
    )
    out_path = tmp_path / "o.csv"
    out_path.write_bytes(b"an earlier run\n")
    handed_out = []

    def hand_out(self, hi, labels, formula=runner._Tally.hand_out):
        handed_out.append(hi)
        return formula(self, hi, labels)

    monkeypatch.setattr(runner._Tally, "hand_out", hand_out)
    # blocks of _SEED_BATCH one-pulse windows, so pieces close before the
    # overflow, which a block of _BLOCK_WINDOWS windows would hold
    monkeypatch.setattr(runner, "_BLOCK_WINDOWS", runner._SEED_BATCH)
    status = run(CliInvocation(scenario="custom", config_path=str(cfg_path), output_path=str(out_path)))
    assert status == 2
    err = capsys.readouterr().err
    assert "the configuration takes the simulation out of floating-point range: overflow encountered in divide" in err
    # windows were handed out, and written, before the overflow
    assert handed_out
    # neither a CSV nor a temporary file; the file already there keeps its bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["late.cfg", "o.csv"]
    assert out_path.read_bytes() == b"an earlier run\n"


@pytest.mark.parametrize("scenario, refused", [("fig2", 0), ("drift", 0), ("drift", 1)])
def test_output_directory_refusing_the_temporary_file_exits_3_before_the_run(
    tmp_path, monkeypatch, capsys, scenario, refused
):
    monkeypatch.chdir(tmp_path)
    made = []

    def exclusive_open(name, mode="r", *args, **kwargs):
        if mode == "x":
            if len(made) == refused:
                raise PermissionError(13, "Permission denied")
            made.append(name)
        return open(name, mode, *args, **kwargs)

    def simulate(*args):
        raise AssertionError("the run started before every temporary file was made")

    monkeypatch.setattr(cli, "open", exclusive_open, raising=False)
    monkeypatch.setattr(cli, "_stream_csv", simulate)
    with pytest.raises(SystemExit) as exit_info:
        main(["--scenario", scenario, "--out", "run.csv"])
    assert exit_info.value.code == 3
    assert capsys.readouterr().err.startswith("error: cannot write ")
    # a temporary file made before the refusal is gone too
    assert len(made) == refused and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o444], ids=oct)
def test_a_file_already_at_the_output_path_keeps_its_mode(tmp_path, capsys, mode):
    out_path = tmp_path / "o.csv"
    out_path.write_bytes(b"an earlier run\n")
    out_path.chmod(mode)
    writable = os.access(out_path, os.W_OK)  # a read-only file is writable to root
    status = run(CliInvocation(scenario="fig2", output_path=str(out_path)))
    assert stat.S_IMODE(out_path.stat().st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv"]
    if writable:
        assert status == 0 and out_path.read_text().startswith("# scenario = fig2\n")
    else:
        # refused before the run, as open(path, "w") refuses it
        assert status == 3 and "permission denied" in capsys.readouterr().err
        assert out_path.read_bytes() == b"an earlier run\n"


def test_a_symlinked_output_path_writes_the_file_it_links_to(tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "qber.csv"
    target.write_bytes(b"an earlier run\n")
    link = tmp_path / "o.csv"
    link.symlink_to(target)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(CliInvocation(scenario="fig2", output_path=str(link))) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().startswith("# scenario = fig2\n")
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["qber.csv"]


def test_an_output_pipe_is_written_straight(tmp_path):
    # a device or a pipe (say /dev/null) takes the rows itself: nothing is
    # put in its place
    fifo = tmp_path / "o.csv"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    with contextlib.redirect_stdout(io.StringIO()):
        status = run(CliInvocation(scenario="fig2", output_path=str(fifo)))
    # a reader that read to the run's EOF may not have returned yet
    reader.join(timeout=10)
    if reader.is_alive() and stat.S_ISFIFO(fifo.stat().st_mode):
        # a writer, so a reader the run never met returns; opened without
        # blocking, since a reader that has just returned leaves none to meet
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError as exc:
            if exc.errno != errno.ENXIO:  # no reader
                raise
        reader.join(timeout=10)
    assert status == 0 and read and read[0].startswith("# scenario = fig2\n")
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["o.csv"]


def _memory_peak(tmp_path, n_windows, pulses_per_window=16):
    """tracemalloc's peak, in bytes, over a CLI run of ``n_windows``
    windows of ``pulses_per_window`` pulses, a power of two (exact binary
    window bounds)."""
    cfg_path = tmp_path / f"{n_windows}.cfg"
    rate = 2**20
    window_s, duration_s = pulses_per_window / rate, pulses_per_window * n_windows / rate
    cfg_path.write_text(f"repetition_rate_hz = {rate}\nwindow_s = {window_s!r}\nduration_s = {duration_s!r}\n")
    inv = CliInvocation(scenario="custom", config_path=str(cfg_path), output_path=str(tmp_path / "o.csv"))
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert run(inv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_cli_memory_does_not_grow_with_the_number_of_windows(tmp_path):
    # a run holds at most _SEED_BATCH windows plus one block's windows; with
    # the whole run's tally it grew about 720 B per window
    _memory_peak(tmp_path, 2**10)  # first-run caches and imports, untraced in effect
    peaks = [_memory_peak(tmp_path, n) for n in (2**11, 2**12, 2**13)]
    growth = [(b - a) / n for a, b, n in zip(peaks, peaks[1:], (2**11, 2**12))]
    assert max(growth) < 40, (peaks, growth)


def test_cli_memory_does_not_grow_with_the_number_of_pulses(tmp_path):
    # 20 windows of 2^15, 2^16 and 2^17 pulses (0.66 to 2.6 M): a run holds
    # one block's arrays whatever its length, so the peak read 780 KiB at
    # each; an array of one byte per pulse would grow it 1 B per pulse
    _memory_peak(tmp_path, 20)  # first-run caches and imports, untraced in effect
    sizes = [20 * 2**k for k in (15, 16, 17)]
    peaks = [_memory_peak(tmp_path, 20, n // 20) for n in sizes]
    growth = [(b - a) / (m - n) for a, b, n, m in zip(peaks, peaks[1:], sizes, sizes[1:])]
    assert max(growth) < 0.1, (peaks, growth)


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
    st.tuples(
        _keys, st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "1e999999999", "0x1.8p1", "abc", ""])
    ).map(" = ".join),
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
    base = ["repetition_rate_hz = 1e4", "duration_s = 0.02", "window_s = 1e-3"]
    # Each key once (a repeat is rejected before its value is read): a
    # fuzzed line takes the place of the earlier line with its key.
    by_key = {line.partition("=")[0].strip(): line for line in base + lines}
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "fuzz.cfg"
        cfg_path.write_text("\n".join(by_key.values()) + "\n")
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
    assert "sequence_seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_import_leaves_numpy_random_for_the_first_run():
    # numpy.random is imported by the first run, not at start-up, so its cost
    # is counted as run time wherever a run is timed apart from start-up
    env = dict(os.environ, PYTHONPATH=str(Path(pognac.__file__).parents[1]))
    code = "import sys, pognac, pognac.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


@pytest.mark.parametrize("out", [".", ""])
def test_drift_output_without_a_file_name_exits_3(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--scenario", "drift", "--out", out])
    assert exit_info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("out", ["a_dir", "missing_dir/run.csv"])
@pytest.mark.parametrize("scenario, simulation", [("fig2", "run_experiment"), ("drift", "drift_comparison")])
def test_unwritable_output_exits_3_before_the_run(tmp_path, monkeypatch, capsys, out, scenario, simulation):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_dir").mkdir()

    def simulate(*args):
        raise AssertionError(f"{simulation} ran before the output path was checked")

    # the CLI runs either pipeline set through the one streaming kernel
    monkeypatch.setattr(cli, "_stream_csv", simulate)
    with pytest.raises(SystemExit) as exit_info:
        main(["--scenario", scenario, "--out", out])
    assert exit_info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["a_dir"]


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
