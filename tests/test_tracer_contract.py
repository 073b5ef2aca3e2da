"""perfbench's tracer sees every sweep study's runner and writers.

perfbench/tracer.py wraps each traced function at its module bindings
once, before the run, so a study that reached its runner or writer
through a table built at import would run unwrapped, and its spans would
read zero. No benchmark workload runs fig2's or fig3c's study, so this is
the check that each figure config's `sweep` stays visible to it.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from rydberg_doa import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    # Registered before it runs: its dataclasses look their module up.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer_module = _load_tracer()

STUDY_SPANS = ("experiments.run_linearization_check",
               "experiments.run_lo_ratio_sweep", "experiments.run_snr_sweep",
               "experiments.run_length_sweep", "experiments.run_sampling_demo",
               "experiments.crlb_std_for",
               "serialize.write_linearization_csv", "serialize.write_sweep_csv",
               "serialize.write_sampling_demo_csv",
               "serialize.write_manifest_json")


@pytest.mark.parametrize("name, spans", [
    ("fig2", {"experiments.run_linearization_check": 1,
              "serialize.write_linearization_csv": 1}),
    ("fig3c", {"experiments.run_lo_ratio_sweep": 1,
               "serialize.write_sweep_csv": 1}),
    ("fig4", {"experiments.run_snr_sweep": 1, "serialize.write_sweep_csv": 3,
              "experiments.crlb_std_for": 9}),
    ("fig6", {"experiments.run_length_sweep": 1,
              "serialize.write_sweep_csv": 3}),
    ("fig7a", {"experiments.run_sampling_demo": 1,
               "serialize.write_sampling_demo_csv": 1}),
    ("fig7b", {"experiments.run_sampling_demo": 1,
               "serialize.write_sampling_demo_csv": 1}),
])
def test_figure_sweep_spans(tmp_path, name, spans):
    # One span per runner call and per file written, the manifest's
    # included, and none of another study's runner or writer.
    with tracer_module.Tracer() as tracer:
        assert cli.main(["sweep", "--config", str(ROOT / "configs"
                                                  / f"{name}.json"),
                         "--out", str(tmp_path)]) == 0
    assert tracer.absent == []
    want = {**dict.fromkeys(STUDY_SPANS, 0), **spans,
            "serialize.write_manifest_json": 1}
    assert {span: tracer.spans[span].calls for span in STUDY_SPANS} == want
