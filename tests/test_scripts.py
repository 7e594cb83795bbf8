"""Smoke tests of the runnable experiments in scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pognac
from pognac import presets

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(pognac.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, csvs",
    [
        ("run_scenarios.py", ["fig2.csv", "fig3.csv", "fig4.csv"]),
        ("drift_study.py", ["drift_pognac.csv", "drift_inline.csv"]),
    ],
)
def test_script_writes_its_csvs(tmp_path, script, csvs):
    run_script(script, tmp_path)
    for name in csvs:
        assert (tmp_path / name).read_text().count("\n") > 1


def test_calibration_reproduces_the_preset_jitters():
    solved = dict(re.findall(r"^(\w+_JITTER) = ([0-9.]+)$", run_script("calibrate_presets.py"), re.M))
    assert sorted(solved) == ["DA_BASE_JITTER", "DA_DRIVE_JITTER", "HVD_BASE_JITTER", "HVD_DRIVE_JITTER"]
    for name, value in solved.items():
        assert round(float(value), 4) == getattr(presets, name)
