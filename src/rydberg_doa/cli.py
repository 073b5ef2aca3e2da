"""Command-line entry point.

Subcommands: simulate, estimate, crlb, sweep, check-sampling. All runs are
driven by a JSON config (see config.py for the schema); flags override the
config's run section. Exit codes: 0 success, 2 config error, 3 domain
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, physics, scenarios, sensing, serialize
from .config import RunConfig, load_config
from .crlb import FimInputs, crlb_report
from .errors import ConfigParseError, RydbergDoaError, SchemaError
from .estimation import estimate_doa
from .experiments import (
    run_length_sweep,
    run_linearization_check,
    run_lo_ratio_sweep,
    run_sampling_demo,
    run_snr_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydberg-doa",
        description="Multi-target DoA estimation with a single Rydberg "
                    "atomic receiver: simulation, estimation, bounds, and "
                    "Monte Carlo sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int,
                       help="base seed (overrides config)")
        p.add_argument("--order", type=int,
                       help="prediction order override")
        p.add_argument("--format", choices=("csv", "json"),
                       help="measurement output format (overrides config)")

    common(sub.add_parser("simulate",
                          help="run the fluorescence pipeline and write "
                               "profile + measurement files"))
    est = sub.add_parser("estimate",
                         help="estimate DoAs from a measurement CSV")
    est.add_argument("measurement", help="measurement CSV path")
    common(est)
    common(sub.add_parser("crlb", help="compute the angle-domain bound"))
    common(sub.add_parser("sweep", help="run the configured sweep"))
    common(sub.add_parser("check-sampling",
                          help="report sampling-constraint compliance"))
    return parser


def _resolve(args) -> RunConfig:
    cfg = load_config(args.config)
    scenario = cfg.scenario
    if args.seed is not None:
        scenario = replace(scenario, base_seed=args.seed)
    if args.order is not None:
        try:
            scenario = replace(
                scenario, prony=replace(scenario.prony,
                                        model_order=args.order))
        except ValueError as exc:
            raise ConfigParseError(f"--order: {exc}") from exc
    out = args.out if args.out is not None else cfg.output_dir
    fmt = args.format if args.format is not None else cfg.output_format
    return RunConfig(scenario=scenario, sweep_kind=cfg.sweep_kind,
                     output_dir=out, output_format=fmt,
                     verbosity=cfg.verbosity, echo=cfg.echo,
                     absorption_model=cfg.absorption_model)


def _print_compliance(report) -> None:
    print(f"sampling compliance (lambda = {report.rf_wavelength:.6g} m):")
    print(f"  spacing {report.spacing:.6g} m: "
          f"{'ok' if report.spacing_ok else 'ALIASING RISK'} "
          f"(margin {report.spacing_margin:+.6g} m vs lambda/4)")
    print(f"  window width {report.window_width:.6g} m: "
          f"{'ok' if report.width_ok else 'NULL IN BAND'} "
          f"(margin {report.width_margin:+.6g} m vs lambda/2)")


def cmd_simulate(cfg: RunConfig) -> int:
    sc = cfg.scenario
    out = Path(cfg.output_dir)
    report = sensing.check_sampling(sc.geometry, sc.scene.rf_wavelength)
    _print_compliance(report)
    if cfg.absorption_model == "linearized":
        def alpha(x):
            return physics.absorption_linearized(sc.params, sc.scene, x)
    else:
        def alpha(x):
            return physics.absorption_exact(sc.params, sc.scene, x)
    profile = sensing.propagate_probe(alpha, sc.geometry,
                                      sc.scene.rf_wavelength)
    alpha_hat = sensing.recover_alpha(profile)
    raw = sensing.channel_measurements(alpha_hat, sc.geometry)
    measurement = sensing.calibrate(
        raw, sc.geometry, physics.absorption_dc(sc.params, sc.scene))
    if sc.snr_db is not None:
        measurement = sensing.add_noise(measurement, sc.snr_db, sc.base_seed)
    serialize.write_fluorescence_csv(profile, out / "fluorescence.csv")
    if cfg.output_format == "json":
        payload = {
            "centers_m": [float(v) for v in sc.geometry.centers],
            "y_tilde": [float(v) for v in measurement.values],
            "noise_sigma": measurement.noise_sigma,
            "source": measurement.source,
        }
        serialize.atomic_write_text(out / "measurement.json",
                                    json.dumps(payload, indent=2) + "\n")
    else:
        serialize.write_measurement_csv(measurement, out / "measurement.csv")
    print(f"wrote {out / 'fluorescence.csv'} "
          f"({len(profile.positions)} samples) and measurement "
          f"({sc.geometry.channel_count} channels)")
    return EXIT_OK


def cmd_estimate(cfg: RunConfig, measurement_path: str) -> int:
    sc = cfg.scenario
    centers, values = serialize.read_measurement_csv(measurement_path)
    geometry = serialize.geometry_from_centers(centers)
    mv = sensing.MeasurementVector(values=values, geometry=geometry,
                                   source=sensing.SIMULATED_FLUORESCENCE)
    result = estimate_doa(mv, (sc.scene.wavenumber, sc.scene.lo.angle),
                          sc.prony)
    out = Path(cfg.output_dir)
    serialize.write_estimation_json(result, out / "estimation.json")
    if cfg.verbosity >= 1:
        doas = ", ".join(f"{np.rad2deg(v):.4f}" for v in result.doas)
        print(f"estimated DoAs (deg): {doas}")
        if result.clamped_flags.any():
            print("warning: some frequencies mapped outside the visible "
                  "region and were clamped")
    print(f"wrote {out / 'estimation.json'}")
    return EXIT_OK


def cmd_crlb(cfg: RunConfig) -> int:
    sc = cfg.scenario
    if sc.snr_db is None:
        raise ConfigParseError("missing required key 'noise.snr_db' "
                               "(the bound needs a noise level)")
    scene, geometry, params = sc.scene, sc.geometry, sc.params
    clean = sensing.predicted_measurements(scene, geometry, params)
    sigma2 = sensing.signal_power(clean.values) / 10 ** (sc.snr_db / 10)
    inputs = FimInputs(
        geometry=geometry, delta_ks=scene.delta_ks,
        delta_phis=scene.delta_phis,
        amplitudes=physics.modulation_amplitudes(params, scene),
        noise_cov=sigma2 * np.eye(geometry.channel_count))
    thetas = np.array([s.angle for s in scene.signals])
    report = crlb_report(inputs, thetas, scene.wavenumber)
    if scene.n_signals == 1:
        # closed-form single-target cross-check
        geom_factor = 1.0 / (scene.wavenumber**2 * np.cos(thetas[0])**2)
        closed = np.sqrt(geom_factor / report.effective_fim_dk[0, 0])
        rel = abs(closed - report.per_target_std[0]) / closed
        print(f"single-target closed form: {np.rad2deg(closed):.6g} deg "
              f"(matrix path {np.rad2deg(report.per_target_std[0]):.6g} "
              f"deg, rel diff {rel:.2e})")
        if rel > 1e-10:
            raise RydbergDoaError(
                "matrix bound disagrees with the closed form")
    out = Path(cfg.output_dir)
    serialize.write_crlb_json(report, out / "crlb.json")
    serialize.write_crlb_csv(report, thetas, out / "crlb.csv")
    for theta, std in zip(thetas, report.per_target_std):
        print(f"theta {np.rad2deg(theta):8.3f} deg: bound std "
              f"{np.rad2deg(std):.6g} deg")
    print(f"wrote {out / 'crlb.json'} and {out / 'crlb.csv'}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    sc = cfg.scenario
    if sc.sweep is None:
        raise ConfigParseError("missing required key 'sweep'")
    out = Path(cfg.output_dir)
    started = time.perf_counter()
    report = sensing.check_sampling(sc.geometry, sc.scene.rf_wavelength)
    if not report.compliant:
        _print_compliance(report)
        print("warning: geometry violates sampling constraints; "
              "proceeding (demo configs do this on purpose)")
    kind = cfg.sweep_kind
    written: list[Path] = []
    if kind == "linearization_check":
        ratios = sorted(sc.sweep.values)
        grid = sc.geometry.grid(sc.scene.rf_wavelength)
        check = run_linearization_check(
            sc.params,
            scenarios.with_lo_ratio(sc.scene, ratios[0]),
            scenarios.with_lo_ratio(sc.scene, ratios[-1]),
            grid)
        path = out / "linearization_check.csv"
        serialize.write_linearization_csv(check, path)
        written.append(path)
        print(f"normalized RMS residual ratio (weak {ratios[0]:g} / strong "
              f"{ratios[-1]:g}): {check.residual_ratio:.3f}")
    elif kind == "rmse" and sc.sweep.axis == "lo_ratio":
        result = run_lo_ratio_sweep(sc)
        path = out / "lo_ratio_sweep.csv"
        serialize.write_sweep_csv(result, path)
        written.append(path)
    elif kind == "rmse" and sc.sweep.axis == "snr_db":
        results = run_snr_sweep(sc)
        for name, result in results.items():
            path = out / f"snr_sweep_{name}.csv"
            serialize.write_sweep_csv(result, path)
            written.append(path)
    elif kind == "crlb_length":
        results = run_length_sweep(sc)
        for angle, result in results.items():
            path = out / f"length_sweep_theta{angle:g}.csv"
            serialize.write_sweep_csv(result, path)
            written.append(path)
    elif kind == "sampling_demo":
        result = run_sampling_demo(sc)
        path = out / f"sampling_demo_{result.case}.csv"
        serialize.write_sampling_demo_csv(result, path)
        written.append(path)
    else:
        raise ConfigParseError(
            f"sweep axis {sc.sweep.axis!r} has no runner for kind {kind!r}")
    wall = time.perf_counter() - started
    manifest = {
        "config": cfg.echo,
        "code_version": __version__,
        "wall_time_s": wall,
        "outputs": [str(p) for p in written],
    }
    serialize.write_manifest_json(manifest, out / "manifest.json")
    for path in written:
        print(f"wrote {path}")
    print(f"wrote {out / 'manifest.json'} ({wall:.2f}s)")
    return EXIT_OK


def cmd_check_sampling(cfg: RunConfig) -> int:
    sc = cfg.scenario
    report = sensing.check_sampling(sc.geometry, sc.scene.rf_wavelength)
    _print_compliance(report)
    print("compliant" if report.compliant else "NOT compliant")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg, args.measurement)
        if args.command == "crlb":
            return cmd_crlb(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "check-sampling":
            return cmd_check_sampling(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RydbergDoaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
