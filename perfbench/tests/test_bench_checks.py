"""Output checks: a broken output fails its check and counts as failed."""

import shutil

import pytest

import run
from mdcl import pipeline
from mdcl.config import parse_config
from workloads import (PassOutcome, check_run_output, check_staged_output,
                       check_sweep_rows)

SMALL = """
[radar]
slow_samples = 256
fast_samples = 256
[detector]
render_rows = 128
[preprocessing]
predecimate_rows = 64
[run]
activities = S8,S12
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = pipeline.run_pipeline(parse_config(SMALL), out)
    assert manifest.status == "ok"
    return out


def failed_frac(outcomes):
    attempted, failed = run.tally(outcomes)
    return failed / attempted


def test_clean_run_passes_every_check(run_dir):
    outcome = check_run_output(run_dir, ["S8", "S12"])
    assert outcome.failed == 0
    assert len(outcome.emds) == 4 and len(outcome.psnr_r2tm_db) == 2
    assert failed_frac([outcome, check_run_output(run_dir, ["S8", "S12"])]) == 0


def test_corrupted_artifact_fails_its_activity(run_dir, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    rtm = out / "S12" / "rtm.mdcm"
    data = bytearray(rtm.read_bytes())
    data[-1] ^= 0xFF
    rtm.write_bytes(bytes(data))
    outcome = check_run_output(out, ["S8", "S12"])
    assert outcome.ops["S8"] is not None
    assert outcome.ops["S12"] is None
    assert failed_frac([outcome]) == pytest.approx(0.5)


def test_short_pc_rd_and_missing_manifest_fail(run_dir, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    pc_rd = out / "S8" / "pc_rd.csv"
    pc_rd.write_text("\n".join(pc_rd.read_text().splitlines()[:-1]) + "\n")
    assert check_run_output(out, ["S8", "S12"]).ops["S8"] is None
    (out / "manifest.txt").unlink()
    assert check_run_output(out, ["S8", "S12"]).failed == 2


def test_pass_that_differs_from_the_first_counts_as_failed():
    first = PassOutcome({"a": "x", "b": "y"})
    second = PassOutcome({"a": "x", "b": "z"})
    assert run.tally([first, second]) == (4, 1)


def sweep_rows(n_maps=2):
    expected = [("S8", m, d, 0) for m in ("r2tm", "d2tm")[:n_maps] for d in (0.0, 4.0)]
    rows = [{"activity": a, "map": m, "drop_db": d, "seed": s, "emd": 0.1 + i}
            for i, (a, m, d, s) in enumerate(expected)]
    return rows, expected


def test_sweep_extraction_with_30_corners_passes():
    rows, expected = sweep_rows()
    outcome = check_sweep_rows(rows, [30] * len(rows), expected)
    assert outcome.failed == 0
    assert outcome.emds == [1.1, 3.1]       # nonzero drops only


def test_non_30_corner_set_fails_its_extraction():
    rows, expected = sweep_rows()
    outcome = check_sweep_rows(rows, [30, 29, 30, 30], expected)
    assert outcome.ops["S8/r2tm/4.0/0"] is None
    assert outcome.failed == 1
    assert failed_frac([outcome]) == pytest.approx(0.25)


def test_missing_sweep_row_fails():
    rows, expected = sweep_rows()
    outcome = check_sweep_rows(rows[:-1], [30] * 3, expected)
    assert outcome.ops["S8/d2tm/4.0/0"] is None


def test_staged_nonzero_exit_and_missing_metrics_fail(run_dir, tmp_path):
    codes = {"S8/simulate": 0, "S8/evaluate": 0, "S12/evaluate": 0, "mncp-verify": 3}
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    (out / "S12" / "metrics.csv").unlink()
    outcome = check_staged_output(out, ["S8", "S12"], codes)
    assert outcome.ops["S8/evaluate"] is not None
    assert outcome.ops["S12/evaluate"] is None
    assert outcome.ops["mncp-verify"] is None
    assert failed_frac([outcome]) == pytest.approx(0.5)
