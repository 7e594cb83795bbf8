#!/usr/bin/env python3
"""Solve the preset jitter constants from the reference QBER targets.

The two jitter knobs map onto the targets like this:

  * undriven D pulses see only the baseline jitter, so the baseline sigma
    is solved from the D target of each scenario;
  * driven pulses see baseline and drive jitter in quadrature, so the
    drive sigma is solved from the driven-state target on top of the
    baseline.

The H/V pair of the pseudorandom scenario shares one physical drive, so a
single expectation cannot match 1.23 % and 1.10 % simultaneously; the
compromise target 2ab/(a+b) keeps both within 6 % relative. Prints the
constants to paste into pognac/presets.py.
"""

import math

from pognac.presets import REFERENCE_QBER, expected_qber
from pognac.runner import RunConfig

MU = RunConfig().encoder.mean_photon_out()
DETECTOR = RunConfig().detector

H, V = REFERENCE_QBER["fig2", "H"], REFERENCE_QBER["fig2", "V"]
HVD_D = REFERENCE_QBER["fig3", "D"]
DA_D, DA_A = REFERENCE_QBER["fig4", "D"], REFERENCE_QBER["fig4", "A"]


def solve_sigma(target, lo=0.0, hi=1.0):
    """Bisection on the (monotone) analytic expectation."""
    f_lo = expected_qber(MU, DETECTOR, lo) - target
    f_hi = expected_qber(MU, DETECTOR, hi) - target
    if f_lo > 0 or f_hi < 0:
        raise ValueError(f"target {target} not bracketed by sigma in [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_qber(MU, DETECTOR, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main():
    print(f"mu = {MU:.6f}, eta = {DETECTOR.efficiency}, dark = {DETECTOR.dark_count_prob_per_gate}")

    hv_target = 2 * H * V / (H + V)
    print(f"H/V compromise target: {hv_target:.6f}")

    hvd_base = solve_sigma(HVD_D)
    hvd_total = solve_sigma(hv_target)
    hvd_drive = math.sqrt(hvd_total**2 - hvd_base**2)

    da_base = solve_sigma(DA_D)
    da_total = solve_sigma(DA_A)
    da_drive = math.sqrt(da_total**2 - da_base**2)

    print(f"HVD_BASE_JITTER = {hvd_base:.6f}")
    print(f"HVD_DRIVE_JITTER = {hvd_drive:.6f}")
    print(f"DA_BASE_JITTER = {da_base:.6f}")
    print(f"DA_DRIVE_JITTER = {da_drive:.6f}")

    # round-trip check at the rounded values
    for name, base, drive, targets in [
        ("hvd", round(hvd_base, 4), round(hvd_drive, 4), {"D": HVD_D, "H/V": hv_target}),
        ("da", round(da_base, 4), round(da_drive, 4), {"D": DA_D, "A": DA_A}),
    ]:
        got_d = expected_qber(MU, DETECTOR, base)
        got_drv = expected_qber(MU, DETECTOR, math.hypot(base, drive))
        print(f"{name}: rounded sigmas -> undriven {got_d:.6f}, driven {got_drv:.6f}, targets {targets}")


if __name__ == "__main__":
    main()
