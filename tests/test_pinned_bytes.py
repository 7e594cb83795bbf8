"""Byte pins for the CLI: sha256 of every CSV file and of the stdout summary
for shortened preset runs and random-policy custom runs.

The pins were recorded with the per-pulse object pipeline that the
window-streamed kernel replaced, except the multi-word seed pin, recorded
with that kernel while it still built each window's generators with
np.random.default_rng; the fig3 pin, recorded with the kernel whose drive
model is a single pulse per slot, before presets were built by one
constructor; and the short_windows pin, recorded with the kernel that
handed over each window's seed words one window at a time. A run is a
pure function of (config, seeds), so however the work is chunked,
vectorised or seeded these bytes must not move; a change that moves one
changes results.
"""

import contextlib
import hashlib
import io
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from pognac import cli, presets

# Many short windows, most pulses click, double clicks coin-assigned.
RANDOM_POLICY_CONFIG = """\
phase_jitter_sigma_rad = 0.2259
drive_jitter_sigma_rad = 0.0436
attenuator_loss_db = 54.0
double_click_policy = random
repetition_rate_hz = 100000.0
duration_s = 0.2
window_s = 0.001
sequence_seed = 17
detection_seed = 18
"""

# The short_windows benchmark's shape, shortened to an odd 20511 pulses:
# windows of 100 pulses, D/A alternating into a DA analyzer, double clicks
# coin-assigned.
SHORT_WINDOWS_CONFIG = """\
phase_jitter_sigma_rad = 0.2259
drive_jitter_sigma_rad = 0.0436
attenuator_loss_db = 54.0
measure_basis = DA
double_click_policy = random
sequence_mode = da-alternating
repetition_rate_hz = 1000000.0
duration_s = 0.020511
window_s = 0.0001
sequence_seed = 7
detection_seed = 8
"""

# case -> (scenario, shortened preset duration in s or the config text of a
# custom run, --seed override or None)
CASES = {
    "fig2": ("fig2", 9.0, None),
    "fig3": ("fig3", 9.0, None),
    "fig4": ("fig4", 9.0, None),
    "drift": ("drift", 30.0, None),
    "random_policy": ("custom", RANDOM_POLICY_CONFIG, None),
    # 2**32 + 5: a detection seed of two uint32 words of entropy
    "multi_word_seed": ("custom", RANDOM_POLICY_CONFIG, 2**32 + 5),
    "short_windows": ("custom", SHORT_WINDOWS_CONFIG, None),
}

PINS = {
    "drift": {
        "out_inline.csv": "d6c56ec96d8b7e498d8f903aa7947d8a9e42b01cf96fb8dc851f872e9296fa69",
        "out_pognac.csv": "2689d301070dedf0d4f898ae8317cfc433902d3a4221fab2b8b3b026b862b7eb",
        "stdout": "760f08eeb6c446083230b0cb4fb2cf8b7c2731de62e1bf535e9f4d2ee36f07ea",
    },
    "fig2": {
        "out.csv": "0cf104133a2f161c2e1ef6000a85e426b61221b8bcae901dcc3ba69f5420b374",
        "stdout": "7461dd8022f703d22f4cf9c2fd2108cb8cd826d0da93d5b592a24240ee103246",
    },
    "fig3": {
        "out.csv": "e754c02beb50e56fe47df3827963818fa6662cb6cb7fe78c16d24a6a96906251",
        "stdout": "5375fe237f314abdbedf7416821a739d4250314d58ccd2bfdfe4fdb3996197cc",
    },
    "fig4": {
        "out.csv": "d7ed9bb6d678a50a22ababf58b02ab920b51d6902584fc1e13f34f25db84c86b",
        "stdout": "9199d10ccf77840d21fab66d46ca6d8ae6441378f4a995a5cc5e26d179d2b36e",
    },
    "multi_word_seed": {
        "out.csv": "edb15ac10e4721c60d60ab3171a594001685b1f44e601934219e2bbd10ce31f1",
        "stdout": "c2a25fdbe31e4d239c34714f51b423360ebf64d63153f042257a757d30706eea",
    },
    "short_windows": {
        "out.csv": "8d8ec7f40f8bee4599ebb77af970b9a25a3567f846010866140c6e909b6d27c8",
        "stdout": "d6e174cd08351dd226bd14a5a9c5a87ebe648879afc6183b637a4d3403c94f01",
    },
    "random_policy": {
        "out.csv": "c2f09fdd5a18fbf9be54e6cff70fd5419b28f54cc4590e3fabfa2f48b13de6b8",
        "stdout": "c83ab21007feaf6243219d7247526dbecc1add145204b77d22eaf4b2da973a21",
    },
}


def run_case(case: str, workdir: Path) -> dict[str, str]:
    """Run one case through cli.run in ``workdir``; sha256 of each written
    file and of stdout, by name."""
    scenario, duration, seed = CASES[case]
    config_path = None
    if scenario == "custom":
        config_path = workdir / "run.cfg"
        config_path.write_text(duration)
    shortened = lambda name: replace(presets.preset_config(name), duration_s=duration)
    stdout = io.StringIO()
    with mock.patch.object(cli, "preset_config", shortened), contextlib.redirect_stdout(stdout):
        status = cli.run(
            cli.CliInvocation(
                scenario=scenario,
                config_path=None if config_path is None else str(config_path),
                seed_override=seed,
                output_path=str(workdir / "out.csv"),
            )
        )
    assert status == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.glob("out*.csv"))}
    # The drift summary names its output files; pin it independent of workdir.
    text = stdout.getvalue().replace(str(workdir), "<workdir>")
    digests["stdout"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_pins(case, tmp_path):
    assert run_case(case, tmp_path) == PINS[case]
