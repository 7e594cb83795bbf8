#!/usr/bin/env python3
"""Solve the preset jitter constants from the reference QBER targets.

Each constant is solved by bisection on presets.preset_expected_qber, the
run kernel's own chain averaged over the jitter, with the trial sigma set
in the preset's encoder, so the calibration uses the model the run uses.
The two jitter knobs map onto the targets like this:

  * undriven D pulses see only the baseline jitter, so the baseline sigma
    is solved from the D target of each scenario;
  * driven pulses see baseline and drive jitter in quadrature, so the
    drive sigma is solved from the driven-state target with the solved
    baseline in place.

The H/V pair of the pseudorandom scenario shares one physical drive, so a
single expectation cannot match 1.23 % and 1.10 % simultaneously; the
compromise target 2ab/(a+b) keeps both within 6 % relative. Prints the
constants to paste into pognac/presets.py.
"""

from dataclasses import replace

from pognac.presets import REFERENCE_QBER, preset_config, preset_expected_qber

H, V = REFERENCE_QBER["fig2", "H"], REFERENCE_QBER["fig2", "V"]
HVD_D = REFERENCE_QBER["fig3", "D"]
DA_D, DA_A = REFERENCE_QBER["fig4", "D"], REFERENCE_QBER["fig4", "A"]


def expectation(name, label, base, drive):
    """preset_expected_qber of ``label`` in preset ``name`` with its
    (baseline, drive) jitter replaced."""
    config = preset_config(name)
    encoder = replace(config.encoder, phase_jitter_sigma=base, drive_jitter_sigma=drive)
    return preset_expected_qber(replace(config, encoder=encoder), label)


def solve_sigma(qber_at, target, lo=0.0, hi=1.0):
    """Bisection on the (monotone) analytic expectation ``qber_at(sigma)``."""
    if qber_at(lo) > target or qber_at(hi) < target:
        raise ValueError(f"target {target} not bracketed by sigma in [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if qber_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main():
    config = preset_config("fig2")
    mu, detector = config.encoder.mean_photon_out(), config.detector
    print(f"mu = {mu:.6f}, eta = {detector.efficiency}, dark = {detector.dark_count_prob_per_gate}")

    hv_target = 2 * H * V / (H + V)
    print(f"H/V compromise target: {hv_target:.6f}")

    hvd_base = solve_sigma(lambda s: expectation("fig3", "D", s, 0.0), HVD_D)
    hvd_drive = solve_sigma(lambda s: expectation("fig2", "H", hvd_base, s), hv_target)

    da_base = solve_sigma(lambda s: expectation("fig4", "D", s, 0.0), DA_D)
    da_drive = solve_sigma(lambda s: expectation("fig4", "A", da_base, s), DA_A)

    print(f"HVD_BASE_JITTER = {hvd_base:.6f}")
    print(f"HVD_DRIVE_JITTER = {hvd_drive:.6f}")
    print(f"DA_BASE_JITTER = {da_base:.6f}")
    print(f"DA_DRIVE_JITTER = {da_drive:.6f}")

    # round-trip check at the rounded values: (undriven, driven) labels
    for name, base, drive, labels, targets in [
        ("hvd", hvd_base, hvd_drive, (("fig3", "D"), ("fig2", "H")), {"D": HVD_D, "H/V": hv_target}),
        ("da", da_base, da_drive, (("fig4", "D"), ("fig4", "A")), {"D": DA_D, "A": DA_A}),
    ]:
        got_d, got_drv = (expectation(*label, round(base, 4), round(drive, 4)) for label in labels)
        print(f"{name}: rounded sigmas -> undriven {got_d:.6f}, driven {got_drv:.6f}, targets {targets}")


if __name__ == "__main__":
    main()
