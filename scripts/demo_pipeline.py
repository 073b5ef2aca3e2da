#!/usr/bin/env python3
"""End-to-end library demo on configs/default.json: exact absorption ->
fluorescence -> virtual channels -> Prony -> bearings, with the CRLB for
context."""
from pathlib import Path

import numpy as np

from rydberg_doa import config, scenarios, sensing
from rydberg_doa.estimation import estimate_doa
from rydberg_doa.experiments import crlb_std_for

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / \
    "default.json"


def main():
    sc = config.load_config(DEFAULT_CONFIG).scenario
    scene, geometry, params = sc.scene, sc.geometry, sc.params
    print(f"carrier {scene.carrier_freq / 1e9:.2f} GHz, "
          f"lambda {scene.rf_wavelength * 100:.2f} cm, "
          f"{geometry.channel_count} virtual channels over "
          f"{geometry.cell_length * 100:.1f} cm")

    report = sensing.check_sampling(geometry, scene.rf_wavelength)
    print(f"sampling compliant: {report.compliant}")

    measurement = sensing.simulate_measurements(scene, geometry, params)
    noisy = sensing.add_noise(measurement, snr_db=30.0, seed=0)

    result = estimate_doa(noisy, (scene.wavenumber, scene.lo.angle),
                          sc.prony)
    truth = np.rad2deg(scenarios.true_doas(scene))
    estimated = np.rad2deg(np.sort(result.doas))
    print(f"true bearings:      {truth[0]:8.3f}  {truth[1]:8.3f} deg")
    print(f"estimated bearings: {estimated[0]:8.3f}  {estimated[1]:8.3f} deg")

    single = scenarios.scene_from_angles((15.0,))
    bound = crlb_std_for(single, geometry, params, snr_db=30.0)[0]
    print(f"single-target bound at 15 deg, 30 dB SNR: "
          f"{np.rad2deg(bound):.4f} deg")


if __name__ == "__main__":
    main()
