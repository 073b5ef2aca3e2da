"""Command-line entry point.

Subcommands: simulate, estimate, crlb, sweep, check-sampling. All runs are
driven by a JSON config (see config.py for the schema); flags set their
config.FLAG_KEYS keys before parsing. Exit codes: 0 success, 2 config
error, 3 domain error or arithmetic overflow, 4 I/O error. Calls of main
in one process share the parser the first call builds.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, experiments, sensing, serialize
from .config import RunConfig, load_config
from .errors import ConfigParseError, RydbergDoaError, SchemaError
from .estimation import estimate_doa

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on first use; each
    parse_args call returns a fresh Namespace, and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="rydberg-doa",
        description="Multi-target DoA estimation with a single Rydberg "
                    "atomic receiver: simulation, estimation, bounds, and "
                    "Monte Carlo sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="JSON run configuration")
        p.add_argument("--out", help="output directory (run.output_dir)")
        p.add_argument("--seed", type=int, help="base seed (run.base_seed)")
        p.add_argument("--order", type=int,
                       help="prediction order (prony.model_order)")

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
    profile = sensing.propagate_probe(sc.scene, sc.geometry, sc.params)
    measurement = sensing.simulate_measurements(sc.scene, sc.geometry,
                                                sc.params)
    if sc.snr_db is not None:
        sensing.require_signal(sc.scene)
        measurement = sensing.add_noise(measurement, sc.snr_db, sc.base_seed)
    serialize.write_fluorescence_csv(profile, out / "fluorescence.csv")
    serialize.write_measurement_csv(measurement, out / "measurement.csv")
    print(f"wrote {out / 'fluorescence.csv'} "
          f"({len(profile.positions)} samples) and measurement "
          f"({sc.geometry.channel_count} channels)")
    return EXIT_OK


def cmd_estimate(cfg: RunConfig, measurement_path: str) -> int:
    sc = cfg.scenario
    centers, values = serialize.read_measurement_csv(measurement_path)
    geometry = serialize.geometry_from_centers(centers)
    mv = sensing.MeasurementVector(values=values, geometry=geometry)
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
    report = experiments.bound_report(sc.scene, sc.geometry, sc.params,
                                      experiments.required_snr(sc))
    thetas = np.array([s.angle for s in sc.scene.signals])
    out = Path(cfg.output_dir)
    serialize.write_crlb_json(report, out / "crlb.json")
    serialize.write_crlb_csv(report, thetas, out / "crlb.csv")
    for theta, std in zip(thetas, report.per_target_std):
        print(f"theta {np.rad2deg(theta):8.3f} deg: bound std "
              f"{np.rad2deg(std):.6g} deg")
    print(f"wrote {out / 'crlb.json'} and {out / 'crlb.csv'}")
    return EXIT_OK


def _sweep_study(sc: experiments.ScenarioConfig):
    """Run the configured study: its results by output file stem, in writing
    order, and their CSV writer, each looked up per call as main's are."""
    if sc.sweep.kind == "linearization_check":
        return ({"linearization_check":
                 experiments.run_linearization_check(sc)},
                serialize.write_linearization_csv)
    if sc.sweep.kind == "sampling_demo":
        demo = experiments.run_sampling_demo(sc)
        return ({f"sampling_demo_{sc.sweep.axis}": demo},
                serialize.write_sampling_demo_csv)
    if sc.sweep.kind == "crlb_length":
        results = {f"length_sweep_theta{angle:g}": result for angle, result
                   in experiments.run_length_sweep(sc).items()}
    elif sc.sweep.axis == "snr_db":
        results = {f"snr_sweep_{name}": result for name, result
                   in experiments.run_snr_sweep(sc).items()}
    else:
        results = {"lo_ratio_sweep": experiments.run_lo_ratio_sweep(sc)}
    return results, serialize.write_sweep_csv


def cmd_sweep(cfg: RunConfig) -> int:
    sc = cfg.scenario
    if sc.sweep is None:
        raise ConfigParseError("missing required key 'sweep'")
    out = Path(cfg.output_dir)
    started = time.perf_counter()
    report = sensing.check_sampling(sc.geometry, sc.scene.rf_wavelength)
    if not report.compliant:
        _print_compliance(report)
        print("warning: the configured geometry violates sampling "
              "constraints; proceeding")
    results, write = _sweep_study(sc)
    written = [out / f"{stem}.csv" for stem in results]
    for path, result in zip(written, results.values()):
        write(result, path)
    if sc.sweep.kind == "linearization_check":
        check = results["linearization_check"]
        print(f"normalized RMS residual ratio (weak {check.ratio_weak:g} / "
              f"strong {check.ratio_strong:g}): {check.residual_ratio:.3f}")
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
        cfg = load_config(args.config, vars(args))
        if args.command == "estimate":
            return cmd_estimate(cfg, args.measurement)
        # Built per call, so a cmd_* rebound after import is the one run.
        return {"simulate": cmd_simulate, "crlb": cmd_crlb, "sweep": cmd_sweep,
                "check-sampling": cmd_check_sampling}[args.command](cfg)
    except (ConfigParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RydbergDoaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError:
        print("error: a result overflowed the float range", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
