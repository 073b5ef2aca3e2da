"""Metric names, units and directions, and the per-layer rollup.

BENCHMARK.json at the repository root lists the same metrics; the tests in
perfbench/tests keep the two in step.
"""

from __future__ import annotations

import statistics

from tracer import FAILURE_CLASSES, LAYERS, TRACED, WORK_COUNTS

# (name, unit, better, bound). The bound is the share of the parent's
# median by which the metric may worsen before a change is a regression.
# Timings get the largest bound the host's drift allows. success_share
# repeats exactly for a seed; its bound is three times its largest spread
# across ten seeds (0.036, on fluorescence_lo).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("call_p50_ms", "ms", "lower", 0.25),
    ("call_p90_ms", "ms", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("success_share", "ratio", "higher", 0.12),
)


def _per_layer():
    specs = []
    for layer in LAYERS:
        for fname in TRACED[layer]:
            specs.append((f"{layer}.{fname}.calls", "count", "lower"))
            specs.append((f"{layer}.{fname}.self_s", "s", "lower"))
    for fn, classes in FAILURE_CLASSES.items():
        for cls in (*classes, "other"):
            specs.append((f"{fn}.failed.{cls}", "count", "lower"))
    for name in WORK_COUNTS:
        specs.append((name, "count", "lower"))
    specs.append(("estimation.estimate_doa.success_ratio", "ratio", "higher"))
    specs.append(("crlb.crlb_report.cond_p50", "1", "lower"))
    for layer in LAYERS:
        specs.append((f"{layer}.self_s", "s", "lower"))
        specs.append((f"{layer}.share", "ratio", "lower"))
    specs.append(("trace.overhead_s", "s", "lower"))
    specs.append(("trace.overhead_share", "ratio", "lower"))
    return tuple(specs)


PER_LAYER = _per_layer()


def layer_values(tracer) -> dict:
    """Per-layer metric values of a traced sweep, keyed like PER_LAYER,
    except the trace overhead, which needs the untraced sweep too."""
    values = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for layer in LAYERS:
        for fname in TRACED[layer]:
            span = tracer.spans[f"{layer}.{fname}"]
            values[f"{layer}.{fname}.calls"] = span.calls
            values[f"{layer}.{fname}.self_s"] = span.self_s
            layer_self[layer] += span.self_s
    for fn, classes in FAILURE_CLASSES.items():
        failed = tracer.spans[fn].failed
        for cls in classes:
            values[f"{fn}.failed.{cls}"] = failed.get(cls, 0)
        values[f"{fn}.failed.other"] = sum(
            n for cls, n in failed.items() if cls not in classes)
    values.update(tracer.counts)
    est = tracer.spans["estimation.estimate_doa"]
    values["estimation.estimate_doa.success_ratio"] = (
        (est.calls - sum(est.failed.values())) / est.calls
        if est.calls else 0.0)
    values["crlb.crlb_report.cond_p50"] = (
        statistics.median(tracer.conditions) if tracer.conditions else 0.0)
    total = sum(layer_self.values())
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
        values[f"{layer}.share"] = layer_self[layer] / total if total else 0.0
    return values
