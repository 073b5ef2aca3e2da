"""External per-layer tracer.

Wraps the public functions of each layer from outside the program. A
function is wrapped at every binding inside the ``rydberg_doa.*`` modules,
because ``experiments`` and ``cli`` import functions by name: patching only
the defining module would miss their calls. Each wrapped call is a span;
a span's self time is its duration minus the time covered by traced child
spans. Functions absent at the measured commit are reported as absent.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

TRACED = {
    "physics": ("absorption_exact", "absorption_linearized", "absorption_dc",
                "modulation_amplitudes"),
    "sensing": ("simulate_measurements", "propagate_probe", "recover_alpha",
                "channel_measurements", "calibrate", "predicted_measurements",
                "add_noise"),
    "estimation": ("estimate_doa", "build_hankel", "solve_lpc",
                   "char_poly_roots", "select_signal_roots"),
    "crlb": ("crlb_report", "fisher_information", "effective_fim",
             "angle_crlb"),
    "experiments": ("mc_rmse", "match_errors", "crlb_std_for",
                    "run_snr_sweep", "run_lo_ratio_sweep", "run_length_sweep",
                    "run_sampling_demo", "run_linearization_check"),
    "config": ("load_config",),
    "serialize": ("write_fluorescence_csv", "write_measurement_csv",
                  "read_measurement_csv", "write_estimation_json",
                  "write_crlb_json", "write_crlb_csv", "write_sweep_csv",
                  "write_linearization_csv", "write_sampling_demo_csv",
                  "write_manifest_json"),
    "cli": ("main", "cmd_simulate", "cmd_estimate", "cmd_crlb", "cmd_sweep",
            "cmd_check_sampling"),
}
LAYERS = tuple(TRACED)

# Exception classes reported as per-layer metrics one by one; any other
# exception of these functions is reported under "other".
FAILURE_CLASSES = {
    "estimation.estimate_doa": ("InsufficientSignalRoots",
                                "RootfindingFailure"),
    "crlb.crlb_report": ("SingularNuisanceBlock", "EndFireSingularity"),
}


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    failed: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_points(tracer, args, kwargs, result):
    x = _arg(args, kwargs, 2, "x")
    tracer.counts["physics.absorption_exact.points"] += getattr(x, "size", 1)


def _count_windows(tracer, args, kwargs, result):
    geometry = _arg(args, kwargs, 1, "geometry")
    tracer.counts["sensing.channel_measurements.windows"] += \
        geometry.channel_count


def _count_estimate(tracer, args, kwargs, result):
    tracer.counts["estimation.estimate_doa.rank_deficient"] += \
        int(bool(result.rank_deficient))
    tracer.counts["estimation.estimate_doa.clamped"] += \
        int(sum(bool(f) for f in result.clamped_flags))


def _record_condition(tracer, args, kwargs, result):
    tracer.conditions.append(float(result.condition_number))


OBSERVERS = {
    "physics.absorption_exact": _count_points,
    "sensing.channel_measurements": _count_windows,
    "estimation.estimate_doa": _count_estimate,
    "crlb.crlb_report": _record_condition,
}

WORK_COUNTS = ("physics.absorption_exact.points",
               "sensing.channel_measurements.windows",
               "estimation.estimate_doa.rank_deficient",
               "estimation.estimate_doa.clamped")


class Tracer:
    """Collects spans and work counts; clock is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, Span] = {}
        self.counts: dict = {name: 0 for name in WORK_COUNTS}
        self.conditions: list[float] = []
        self.absent: list[str] = []
        self._children: list[float] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        observe = OBSERVERS.get(name)
        clock, children = self.clock, self._children

        def traced(*args, **kwargs):
            start = clock()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                cls = type(exc).__name__
                span.failed[cls] = span.failed.get(cls, 0) + 1
                raise
            else:
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result
            finally:
                duration = clock() - start
                span.self_s += duration - children.pop()
                span.calls += 1
                if children:
                    children[-1] += duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "rydberg_doa") -> None:
        """Wrap every TRACED function at each binding in package modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                full = f"{layer}.{fname}"
                orig = getattr(home, fname, None) if home else None
                if not callable(orig):
                    self.absent.append(full)
                    self.spans.setdefault(full, Span())
                    continue
                wrapper = self.wrap(full, orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
