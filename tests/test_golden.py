"""Regression of the Monte Carlo figure sweeps against committed outputs.

tests/golden holds the fig3c and fig4 sweep CSVs as the serial per-trial
estimator wrote them. Trial and failure counts must match exactly; RMSE
and bound columns within RECOMPUTE_RTOL, which allows for the batched
least-squares solve summing in another order than LAPACK's lstsq.
"""

import csv
import math
from pathlib import Path

import pytest

from rydberg_doa import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RECOMPUTE_RTOL = 1e-9

CASES = {
    "fig3c": ("lo_ratio_sweep.csv",),
    "fig4": ("snr_sweep_single_15.csv", "snr_sweep_wide_pair.csv",
             "snr_sweep_close_pair.csv"),
}


def read_rows(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows, f"{path} has no rows"
    return rows


def assert_close(got, want, where):
    if want == "":
        assert got == "", where
        return
    assert math.isclose(float(got), float(want), rel_tol=RECOMPUTE_RTOL,
                        abs_tol=0), f"{where}: {got} vs {want}"


@pytest.mark.parametrize("figure", sorted(CASES))
def test_sweep_matches_golden(tmp_path, figure):
    assert cli.main(["sweep", "--config",
                     str(ROOT / "configs" / f"{figure}.json"),
                     "--out", str(tmp_path)]) == 0
    for name in CASES[figure]:
        got = read_rows(tmp_path / name)
        want = read_rows(GOLDEN / f"{figure}_{name}")
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            where = f"{figure}/{name} at {w['axis_value']}"
            assert g["axis_value"] == w["axis_value"], where
            assert (g["trials"], g["failures"]) == \
                (w["trials"], w["failures"]), where
            assert_close(g["rmse_deg"], w["rmse_deg"], where)
            assert_close(g["crlb_deg"], w["crlb_deg"], where)
