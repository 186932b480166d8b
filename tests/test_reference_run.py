"""The reference run: a committed reduced-size run the code must reproduce.

``tests/data/reference_run`` holds the manifest and every activity's
``metrics.csv`` of ``mdcl run --config run.cfg --seed 42`` (128 x 128 frames
and detection grid, all 12 activities, noise on) made with
``MDCL_THREADS=2``, the ``sweep.csv`` of ``mdcl sweep-noise --config
run.cfg --seed 42`` made with ``MDCL_THREADS=1``, and the numpy and scipy
versions that made them.  The tests rerun the run on one thread and the
sweep on two, so they also check that no output depends on the thread
count.  The config text and its digest involve no FFT, so they are
compared always.  FFT rounding may differ between numpy/scipy releases:
with other versions installed, only the file list, the config, the
metrics and the sweep's EMDs (within 1e-6) are compared, and a warning
says so.

The detector's bytes also depend on the SIMD loops numpy dispatches to.
So both commands run in a fresh interpreter with the environment in
``numpy_cpu_features.txt``, which disables every loop above numpy's
baseline (x86-64-v2): the reference is made and checked at that one
level, whatever the CPU offers.  numpy only warns about a name that is
not one of its dispatch targets (any of them on an arm64 build), so the
interpreter first checks that each name is a dispatch target that reads
as disabled, and fails naming the first that is not.

A change that moves outputs on purpose regenerates the reference in the
same commit: run both commands above into empty directories with that
environment, copy the run's ``manifest.txt`` and ``S*/metrics.csv`` and
the sweep's ``sweep.csv`` here and update ``versions.txt``.
"""
import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import mdcl

REFERENCE = Path(__file__).parent / "data" / "reference_run"


def settings(name: str) -> dict[str, str]:
    lines = (REFERENCE / name).read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ", 1) for line in lines)


# run in the child: every disabled feature must be one numpy dispatches and
# now reads as off, or the digests would be compared at another level
AT_REFERENCE_LEVEL = """
import os, sys
from numpy._core import _multiarray_umath as umath
for name in os.environ["NPY_DISABLE_CPU_FEATURES"].split():
    if name not in umath.__cpu_dispatch__ or umath.__cpu_features__.get(name, True):
        sys.exit(f"numpy did not disable the CPU feature {name} "
                 f"(its dispatch targets: {umath.__cpu_dispatch__})")
from mdcl.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_mdcl(args: list[str], threads: int) -> None:
    """``mdcl args`` on ``threads`` threads in a fresh interpreter at the
    reference's SIMD level (numpy reads it once, as it loads)."""
    src = str(Path(mdcl.__file__).parents[1])
    env = dict(os.environ, MDCL_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               **settings("numpy_cpu_features.txt"))
    done = subprocess.run([sys.executable, "-c", AT_REFERENCE_LEVEL, *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def manifest_artifacts(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    listed = lines[lines.index("[artifacts]") + 1:]
    return dict(line.split(" = ", 1) for line in listed if line)


def run_metrics(root: Path) -> dict[tuple[str, str], float]:
    values = {}
    for path in root.glob("S*/metrics.csv"):
        with open(path, newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                values[row["activity"], row["metric"]] = float(row["value"])
    return values


def config_sha256(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    return next(line for line in lines if line.startswith("config_sha256 = "))


def sweep_emds(path: Path) -> dict[tuple[str, ...], float]:
    with open(path, newline="", encoding="utf-8") as f:
        return {(row["activity"], row["map"], row["drop_db"], row["seed"]):
                float(row["emd"]) for row in csv.DictReader(f)}


def versions_match(compared: str) -> bool:
    """Whether the installed numpy and scipy are the reference's; warns
    with what ``compared`` instead when they are not."""
    recorded = settings("versions.txt")
    installed = {"numpy": np.__version__, "scipy": scipy.__version__}
    if recorded != installed:
        warnings.warn(f"installed {installed} differ from the reference's "
                      f"{recorded}: {compared}")
    return recorded == installed


def test_reference_run_reproduced(tmp_path):
    out = tmp_path / "run"
    run_mdcl(["run", "--config", str(REFERENCE / "run.cfg"), "--seed", "42",
              "--out", str(out)], threads=1)
    want = manifest_artifacts(REFERENCE / "manifest.txt")
    got = manifest_artifacts(out / "manifest.txt")
    assert sorted(got) == sorted(want)
    # a renamed, reordered or re-defaulted config key changes both
    assert got["config.txt"] == want["config.txt"]
    assert config_sha256(out / "manifest.txt") == config_sha256(REFERENCE / "manifest.txt")
    want_metrics, got_metrics = run_metrics(REFERENCE), run_metrics(out)
    assert got_metrics.keys() == want_metrics.keys()
    for key, value in want_metrics.items():
        assert got_metrics[key] == pytest.approx(value, rel=0, abs=1e-6), key

    if not versions_match("file list and metrics compared, digests not"):
        return
    assert sorted(rel for rel in want if got[rel] != want[rel]) == []
    assert ((out / "manifest.txt").read_text(encoding="utf-8")
            == (REFERENCE / "manifest.txt").read_text(encoding="utf-8"))


def test_reference_sweep_reproduced(tmp_path):
    out = tmp_path / "sweep"
    run_mdcl(["sweep-noise", "--config", str(REFERENCE / "run.cfg"), "--seed", "42",
              "--out", str(out)], threads=2)
    want, got = sweep_emds(REFERENCE / "sweep.csv"), sweep_emds(out / "sweep.csv")
    assert list(got) == list(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=0, abs=1e-6), key
    if not versions_match("sweep EMDs compared within 1e-6, bytes not"):
        return
    assert (out / "sweep.csv").read_bytes() == (REFERENCE / "sweep.csv").read_bytes()
