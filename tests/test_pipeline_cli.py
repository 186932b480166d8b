"""Pipeline orchestration and CLI tests on the reduced-size config."""

import hashlib
import os
import re
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdcl
from mdcl import artifacts, echo, pipeline
from mdcl.activities import activity_labels
from mdcl.cli import main
from mdcl.config import (PipelineConfig, drop_seed_keys, parse_config,
                         serialize_config)
from mdcl.fileio import read_matrix
from mdcl.groundtruth import groundtruth_corners
from mdcl.pipeline import run_activity, run_pipeline, sweep_noise, sweep_summary
from conftest import small_config


def write_small_config(tmp_path, **overrides):
    cfg = small_config()
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        setattr(getattr(cfg, section), key, value)
    cfg.validate()
    path = tmp_path / "config.txt"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return cfg, path


EXPECTED_FILES = {
    "echo.mdcm", "rtm.mdcm", "dtm.mdcm", "r2tm.mdcm", "d2tm.mdcm",
    "pc_r.csv", "pc_d.csv", "pc_rd.csv", "metrics.csv",
}

STAGE_COMMANDS = ("simulate", "preprocess", "square", "extract", "fuse",
                  "evaluate")

# an activity's files from simulate through fuse: all but evaluate's
BEFORE_EVALUATE = {
    "echo.mdcm", "pc_r.csv", "pc_d.csv", "pc_rd.csv",
    "r2tm_corners.pgm", "d2tm_corners.pgm",
    *(f"{m}{ext}" for m in ("rtm", "dtm", "r2tm", "d2tm")
      for ext in (".mdcm", ".axis.txt")),
}


# the maps the stages produce
MAP_NAMES = ("echo", "rtm", "dtm", "r2tm", "d2tm", "gt_r2tm", "gt_d2tm")


def step_maps(monkeypatch, keep=weakref.ref):
    """``{(label, name): keep(data)}`` for each map a stage leaves in its
    ``values``, filled while ``pipeline._step`` stays patched."""
    kept, real = {}, pipeline._step

    def recording(stage, cfg, label, values, *rest):
        real(stage, cfg, label, values, *rest)
        kept.update(((label, name), keep(values[name].data))
                    for name in stage.outputs if name in MAP_NAMES)

    monkeypatch.setattr(pipeline, "_step", recording)
    return kept


def files_under(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def logged_stages(out, label):
    """The stages ``run.log`` times for ``label``, in log order."""
    lines = (out / "run.log").read_text().splitlines()
    return [m[1] for line in lines
            if (m := re.fullmatch(rf"{label} (\w+) \d+\.\d{{3}}s", line))]


def unlisted_files(out, listed):
    """Files on disk the manifest does not list, and listed files not on disk."""
    on_disk = set(files_under(out)) - {"manifest.txt", "run.log"}
    return on_disk ^ set(listed)


def manifest_listing(out):
    """``manifest.txt``'s artifacts: relative path -> sha256."""
    lines = (out / "manifest.txt").read_text().splitlines()
    return dict(line.split(" = sha256:") for line in lines if " = sha256:" in line)


def assert_digests_match_disk(out):
    """Every ``sha256:`` in ``manifest.txt`` is that of the file on disk."""
    listed = manifest_listing(out)
    assert listed
    for rel, digest in listed.items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel


# CSV columns that hold names; every other cell is a number
TEXT_COLUMNS = {"map_id", "node", "map", "activity", "metric", "source"}


class TestRunPipeline:
    def test_single_activity_inventory(self, tmp_path):
        cfg, _ = write_small_config(tmp_path, **{"run.activities": "S8"})
        manifest = run_pipeline(cfg, tmp_path / "out")
        assert manifest.status == "ok"
        names = {rel.split("/")[-1] for rel in manifest.artifacts if "/" in rel}
        assert EXPECTED_FILES <= names
        out = tmp_path / "out"
        assert (out / "manifest.txt").exists()
        assert (out / "S8" / "echo.mdcm").exists()

    def test_manifest_covers_every_artifact_file(self, tmp_path):
        cfg, _ = write_small_config(tmp_path, **{"run.activities": "S1,S8"})
        manifest = run_pipeline(cfg, tmp_path / "out")
        on_disk = {str(p.relative_to(tmp_path / "out"))
                   for p in (tmp_path / "out").rglob("*") if p.is_file()}
        listed = set(manifest.artifacts) | {"manifest.txt", "run.log"}
        assert on_disk == listed
        assert_digests_match_disk(tmp_path / "out")

    def test_every_numeric_csv_cell_parses(self, tmp_path):
        cfg, _ = write_small_config(tmp_path, **{"run.activities": "S8,S9"})
        out = tmp_path / "out"
        assert run_pipeline(cfg, out).status == "ok"
        tables = sorted(out.rglob("*.csv"))
        assert len(tables) == 12
        for path in tables:
            header, *rows = path.read_text().splitlines()
            names = header.split(",")
            for row in rows:
                for name, cell in zip(names, row.split(","), strict=True):
                    if name not in TEXT_COLUMNS:
                        float(cell)

    def test_rerun_identical_digests(self, tmp_path):
        cfg, _ = write_small_config(tmp_path, **{"run.activities": "S5",
                                                 "noise.enabled": True})
        m1 = run_pipeline(cfg, tmp_path / "a")
        m2 = run_pipeline(cfg, tmp_path / "b")
        assert m1.artifacts == m2.artifacts
        assert m1.text() == m2.text()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_activity_manifest_lists_files_on_disk(self, tmp_path,
                                                          monkeypatch, threads):
        monkeypatch.setenv("MDCL_THREADS", threads)
        cfg, _ = write_small_config(tmp_path, **{"run.activities": "S5,S8"})
        real = pipeline.evaluate_activity

        def evaluate_failing_s8(cfg, label, *args):
            if label == "S8":
                raise RuntimeError("injected failure")
            return real(cfg, label, *args)

        monkeypatch.setattr(pipeline, "evaluate_activity", evaluate_failing_s8)
        out = tmp_path / "out"
        manifest = run_pipeline(cfg, out)
        assert manifest.status == "failed"
        assert manifest.failed_stage == "S8:evaluate"
        assert "S5/metrics.csv" in manifest.artifacts
        # the stages S8 finished keep their files, each listed with its digest
        s8_files = files_under(out / "S8")
        assert set(s8_files) == BEFORE_EVALUATE
        for name, data in s8_files.items():
            assert manifest.artifacts[f"S8/{name}"] == hashlib.sha256(data).hexdigest()
        assert not (out / "S8" / "metrics.csv").exists()
        assert unlisted_files(out, manifest.artifacts) == set()
        assert (out / "manifest.txt").read_text() == manifest.text()
        assert_digests_match_disk(out)
        assert "S8 evaluate failed: injected failure" in (out / "run.log").read_text()
        # one line per S8 record, the failed stage's included
        assert logged_stages(out, "S8") == list(STAGE_COMMANDS)

    def check_s8_pgm_write_error(self, tmp_path, monkeypatch, partial):
        """Fail S8's first PGM write, after a partial header when ``partial``
        and before the file exists otherwise; the failed record lists the
        path either way, and the manifest lists it only if it is on disk."""
        cfg, _ = write_small_config(tmp_path, **{"run.activities": "S5,S8"})
        real, real_run, errors = artifacts.write_pgm, pipeline.run_activity, []

        def write_pgm_failing_s8(path, *args, **kwargs):
            if Path(path).parent.name == "S8":
                if partial:
                    Path(path).write_bytes(b"P5\n")
                raise OSError("disk full")
            return real(path, *args, **kwargs)

        def recording(*args, **kwargs):
            try:
                return real_run(*args, **kwargs)
            except pipeline.StageError as exc:
                errors.append(exc)
                raise

        monkeypatch.setattr(artifacts, "write_pgm", write_pgm_failing_s8)
        monkeypatch.setattr(pipeline, "run_activity", recording)
        out = tmp_path / "out"
        manifest = run_pipeline(cfg, out)
        assert manifest.status == "failed"
        assert manifest.failed_stage == "S8:write"
        assert "S8/r2tm.mdcm" in manifest.artifacts
        assert ("S8/r2tm_corners.pgm" in manifest.artifacts) == partial
        assert "S8/metrics.csv" not in manifest.artifacts
        assert "S5/metrics.csv" in manifest.artifacts
        assert unlisted_files(out, manifest.artifacts) == set()
        assert_digests_match_disk(out)
        # the failed record holds the files its stage left on disk, plus
        # the listed path the failing writer never created
        [error] = errors
        *finished, failed = error.records
        assert failed.stage == "extract"
        earlier = {path.name for rec in finished for path in rec.files}
        on_disk = set(files_under(out / "S8")) - earlier
        never_created = set() if partial else {"r2tm_corners.pgm"}
        assert on_disk == {"pc_r.csv", "r2tm_corners.pgm"} - never_created
        assert {path.name for path in failed.files} == on_disk | never_created
        assert logged_stages(out, "S8") == [rec.stage for rec in error.records]

    def test_write_error_manifest_lists_partial_files(self, tmp_path, monkeypatch):
        self.check_s8_pgm_write_error(tmp_path, monkeypatch, partial=False)

    def test_write_error_after_partial_header_lists_the_file(self, tmp_path,
                                                             monkeypatch):
        self.check_s8_pgm_write_error(tmp_path, monkeypatch, partial=True)

    def test_log_lists_records_in_run_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MDCL_THREADS", "2")
        cfg, _ = write_small_config(tmp_path, **{"run.activities": "S8,S12"})
        out = tmp_path / "out"
        assert run_pipeline(cfg, out).status == "ok"
        lines = (out / "run.log").read_text().splitlines()
        assert [line.rpartition(" ")[0] for line in lines] == [
            f"{label} {stage}" for label in ("S8", "S12") for stage in STAGE_COMMANDS]

    @pytest.mark.parametrize("threads, s8_fails",
                             [("1", False), ("2", False), ("1", True), ("2", True)],
                             ids=["1", "2", "1-s8-fails", "2-s8-fails"])
    def test_no_maps_outlive_their_worker(self, tmp_path, monkeypatch, threads,
                                          s8_fails):
        """Every map of every activity, a failed one's included, is freed
        before the run's own files are written, the config first, which
        ``artifacts.write_run`` does after the pool returns."""
        monkeypatch.setenv("MDCL_THREADS", threads)
        cfg, _ = write_small_config(tmp_path, **{"run.activities": "S5,S8"})
        real_evaluate, real_write = pipeline.evaluate_activity, artifacts.write_config
        alive, writes = [], []

        def evaluate(cfg, label, *args):
            if s8_fails and label == "S8":
                raise RuntimeError("injected failure")
            return real_evaluate(cfg, label, *args)

        def write_config(rec, cfg):
            writes.append(rec.root)
            alive.extend(key for key, ref in refs.items() if ref() is not None)
            return real_write(rec, cfg)

        refs = step_maps(monkeypatch)
        monkeypatch.setattr(pipeline, "evaluate_activity", evaluate)
        monkeypatch.setattr(artifacts, "write_config", write_config)
        manifest = run_pipeline(cfg, tmp_path / "out")
        assert manifest.status == ("failed" if s8_fails else "ok")
        assert writes == [tmp_path / "out"]
        # a failed evaluate leaves no truth rasters
        assert len(refs) == 2 * len(MAP_NAMES) - 2 * s8_fails
        assert alive == []

    @pytest.mark.parametrize("name, partial", [("config.txt", False),
                                               ("report.txt", True)])
    def test_run_level_write_error_leaves_manifest_and_log(self, tmp_path,
                                                           monkeypatch, name,
                                                           partial):
        """A run-level file that cannot be written, before any byte or after
        a partial one, fails the run record like a stage: ``run`` exits 3
        and still writes a manifest that lists exactly the files on disk,
        and a log with the failure's message and traceback."""
        _, cfg_path = write_small_config(tmp_path, **{"run.activities": "S5"})
        real = Path.write_text

        def write_text(path, text, *args, **kwargs):
            if path.name == name:
                if partial:
                    real(path, text[:len(text) // 2], *args, **kwargs)
                raise OSError("injected write failure")
            return real(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "status = failed" in manifest
        assert "failed_stage = run:write" in manifest
        listed = manifest_listing(out)
        assert unlisted_files(out, listed) == set()
        assert_digests_match_disk(out)
        assert (name in listed) == partial
        assert "S5/metrics.csv" in listed
        log = (out / "run.log").read_text()
        assert logged_stages(out, "S5") == list(STAGE_COMMANDS)
        assert "run write failed: injected write failure\nTraceback" in log
        assert log.rstrip().endswith("OSError: injected write failure")

    def test_empty_scene_runs(self, tmp_path):
        cfg, _ = write_small_config(tmp_path, **{"run.activities": "S1",
                                                 "noise.enabled": True})
        manifest = run_pipeline(cfg, tmp_path / "out")
        assert manifest.status == "ok"

    def test_groundtruth_cardinality(self, cfg_small):
        res = run_activity(cfg_small, "S8")
        assert vars(res).keys() == {"label", "records", *pipeline.RESULT}
        assert res.truth.cloud_r.shape == (30, 2)
        assert res.truth.cloud_d.shape == (30, 2)
        assert len(res.pc_r) == len(res.pc_d) == 30
        assert res.pc_rd.points.shape == (60, 3)

    def test_s1_placeholder_grid(self, cfg_small):
        from mdcl.activities import activity
        truth = groundtruth_corners(cfg_small.scene_params(), activity("S1"),
                                    cfg_small.radar,
                                    None, None)
        assert truth.cloud_r.shape == (30, 2)
        assert np.array_equal(truth.cloud_r, truth.cloud_d)


@pytest.fixture(scope="module")
def full_catalog_s8(tmp_path_factory):
    """S8's files from a noisy small-config run of the whole catalog."""
    out = tmp_path_factory.mktemp("catalog")
    cfg = small_config()
    cfg.noise.enabled = True
    cfg.validate()
    assert run_pipeline(cfg, out).status == "ok"
    return files_under(out / "S8")


class TestNoiseKey:
    """An activity's echo noise depends only on ``run.seed`` and its label."""

    @settings(max_examples=8, deadline=None)
    @given(others=st.lists(st.sampled_from([a for a in activity_labels() if a != "S8"]),
                           max_size=4, unique=True),
           position=st.integers(0, 4),
           threads=st.sampled_from(["1", "2"]))
    def test_s8_artifacts_independent_of_run_list(self, full_catalog_s8,
                                                  tmp_path_factory, others,
                                                  position, threads):
        labels = list(others)
        labels.insert(min(position, len(labels)), "S8")
        cfg = small_config()
        cfg.noise.enabled = True
        cfg.run.activities = ",".join(labels)
        cfg.validate()
        out = tmp_path_factory.mktemp("subset")
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("MDCL_THREADS", threads)
            assert run_pipeline(cfg, out).status == "ok"
        assert files_under(out / "S8") == full_catalog_s8

    def test_staged_simulate_outside_run_list(self, full_catalog_s8, tmp_path):
        _, cfg_path = write_small_config(tmp_path, **{"run.activities": "S5",
                                                      "noise.enabled": True})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--activity", "S8"]) == 0
        assert (out / "S8" / "echo.mdcm").read_bytes() == full_catalog_s8["echo.mdcm"]

    def test_third_argument_ignored(self, tmp_path):
        cfg = small_config()
        cfg.noise.enabled = True
        cfg.run.activities = "S8"
        cfg.validate()
        for name, args in (("plain", ()), ("indexed", (5,))):
            run_activity(cfg, "S8", *args, out=tmp_path / name)
        assert files_under(tmp_path / "indexed") == files_under(tmp_path / "plain")

    @pytest.mark.parametrize("run_seed", [0, 42])
    def test_no_two_streams_share_a_state(self, monkeypatch, run_seed):
        """Every noise stream of a default ``mdcl run`` (one per frame) and
        ``mdcl sweep-noise`` (one per drop and sweep seed) starts from its own
        state.  One generator type serves both, and ``SeedSequence`` reads
        trailing zero entropy words as absent: [5] and [5, 0] share a state."""
        cfg = PipelineConfig()
        cfg.run.seed = run_seed
        entropies = [cfg.noise_config(label).seed for label in activity_labels()]

        def recorded(entropy):
            entropies.append(entropy)
            return echo.noise_generator(entropy)
        monkeypatch.setattr(pipeline, "noise_generator", recorded)
        for key in drop_seed_keys(cfg.snr_drops()):
            for seed in range(cfg.evaluation.sweep_seeds):
                pipeline.noise_field(cfg, (1,), key, seed)
        states = {tuple(np.random.SeedSequence(e).generate_state(4)) for e in entropies}
        assert len(entropies) == 12 + 3 * 10
        assert len(states) == len(entropies)


# A valid value off the default for every key the stage chain reads.
CHAIN_KEY_VALUES = {
    "scene": {"x1": 2.5, "y1": 0.5, "v1x": -0.4, "v1y": 0.8, "radar_height": 1.2,
              "torso_upper": 1.4, "torso_lower": 0.9, "arm_length": 0.6,
              "leg_length": 0.85, "gait_frequency": 1.5 * np.pi,
              "in_situ_quarter_time": 0.8, "wall_thickness": 0.2,
              "wall_rel_permittivity": 4.0},
    "radar": {"carrier_hz": 2.0e9, "bandwidth_hz": 1.5e9, "slow_samples": 96,
              "fast_samples": 96, "window_s": 3.0,
              "reflectivity_head": 0.5, "reflectivity_torso": 0.8,
              "reflectivity_hand": 0.4, "reflectivity_foot": 0.4,
              "wall_reflectivity": 5.0, "wall_range_m": 0.8, "max_range_m": 4.0},
    "noise": {"enabled": False, "target_snr_db": -10.0},
    "preprocessing": {"predecimate_rows": 32, "emd_sd_stop": 0.05,
                      "emd_max_sifts": 1},
    "detector": {"orientations": 6, "sigma_px": 2.5, "anisotropy": 1.2,
                 "nms_radius_px": 5, "render_rows": 96},
}
# Sections that set up a run rather than the stage chain: [run] (activity
# list, seed) and [evaluation] (the noise sweep).
CHAIN_EXTERNAL = {"run", "evaluation"}
# The files that hold a score or the corners it is computed from.
SCORED_FILES = ("metrics.csv", "pc_r.csv", "pc_d.csv")


class TestChainKeys:
    def test_every_chain_key_changes_the_output(self, tmp_path):
        """Moving any chain key off its default changes S5's or S8's scored
        files, so no key only rescales intermediate maps."""
        sections = {f.name: fields(f.default_factory) for f in fields(PipelineConfig)}
        assert set(sections) == set(CHAIN_KEY_VALUES) | CHAIN_EXTERNAL
        for section, values in CHAIN_KEY_VALUES.items():
            assert set(values) == {f.name for f in sections[section]}

        def digest(section=None, key=None, value=None):
            cfg = PipelineConfig()
            cfg.radar.slow_samples = cfg.radar.fast_samples = 128
            cfg.detector.render_rows = 128
            if section is not None:
                setattr(getattr(cfg, section), key, value)
            cfg.validate()
            out = tmp_path / f"{section}.{key}"
            for label in ("S5", "S8"):
                run_activity(cfg, label, out=out)
            scored = sorted((name, data) for name, data in files_under(out).items()
                            if Path(name).name in SCORED_FILES)
            assert len(scored) == 2 * len(SCORED_FILES)
            return hashlib.sha256(repr(scored).encode()).hexdigest()

        default = digest()
        inert = [f"{section}.{key}" for section, values in CHAIN_KEY_VALUES.items()
                 for key, value in values.items()
                 if digest(section, key, value) == default]
        assert inert == []


@pytest.fixture(scope="module")
def sweep_case():
    """Small config, clean results and sweep rows from a plain serial loop."""
    cfg = small_config()
    cfg.run.activities = "S1,S5,S8,S12"
    cfg.validate()
    labels = ("S5", "S8", "S12")
    results = {label: run_activity(cfg, label) for label in labels}
    det = cfg.detector
    reference = []
    for label in labels:
        res = results[label]
        for which, pm, truth in (("r2tm", res.r2tm, res.truth.cloud_r),
                                 ("d2tm", res.d2tm, res.truth.cloud_d)):
            for drop, key in ((0.0, 0), (4.0, 40), (8.0, 80)):
                for seed in ([0] if drop == 0.0 else range(2)):
                    noisy = pm if drop == 0.0 else pipeline.degrade_map(
                        pm, drop, pipeline.noise_field(cfg, pm.data.shape, key, seed))
                    cs = pipeline.extract_corners(noisy, f"{label}/{which}", det)
                    reference.append({"activity": label, "map": which,
                                      "drop_db": drop, "seed": seed,
                                      "emd": pipeline.emd_distance(cs.uv(), truth)})
    return cfg, results, reference


@pytest.fixture
def pools(monkeypatch):
    """``max_workers`` of each pool the pipeline builds, in order."""
    sizes = []
    real = pipeline.ThreadPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", recording)
    return sizes


class TestWorkerPool:
    def test_pool_map_keeps_order_and_clamps_workers(self, pools, monkeypatch):
        for threads, expected in (("1", []), ("4", [3]), ("2", [2])):
            pools.clear()
            monkeypatch.setenv("MDCL_THREADS", threads)
            assert pipeline.pool_map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]
            assert pools == expected, threads
        assert pipeline.pool_map(str, []) == []

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity on this platform")
    def test_default_follows_cpu_affinity(self, monkeypatch):
        # one usable CPU under an affinity mask, however many the machine has
        monkeypatch.delenv("MDCL_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert pipeline.thread_count() == 1

    @pytest.mark.parametrize("threads", ["abc", "-3", "1.5"])
    def test_malformed_thread_count_exits_2_before_any_file(self, tmp_path,
                                                            monkeypatch, threads):
        monkeypatch.setenv("MDCL_THREADS", threads)
        with pytest.raises(pipeline.ConfigError):
            pipeline.pool_map(str, [1])
        for command in ("run", "sweep-noise"):
            out = tmp_path / command
            assert main([command, "--out", str(out)]) == 2, command
            assert not out.exists(), command


class TestSweep:
    @pytest.mark.parametrize("given", [True, False], ids=["results", "no_results"])
    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_sweep_rows_independent_of_thread_count(self, sweep_case, monkeypatch,
                                                    threads, given):
        cfg, results, reference = sweep_case
        monkeypatch.setenv("MDCL_THREADS", threads)
        rows = sweep_noise(cfg, results if given else None,
                           drops=[4.0, 8.0], n_seeds=2)
        assert rows == reference

    def test_sweep_runs_on_one_pool_of_mdcl_threads(self, sweep_case, pools,
                                                    monkeypatch):
        cfg, results, reference = sweep_case
        monkeypatch.setenv("MDCL_THREADS", "2")
        assert sweep_noise(cfg, results, drops=[4.0, 8.0], n_seeds=2) == reference
        assert pools == [2]

    def test_one_draw_per_noise_field(self, sweep_case, monkeypatch):
        """Every map of one (drop, seed) shares its field, drawn once."""
        cfg, results, reference = sweep_case
        draws = []
        real = pipeline.noise_field

        def counted(cfg, shape, key, seed):
            draws.append((key, seed))
            return real(cfg, shape, key, seed)

        monkeypatch.setattr(pipeline, "noise_field", counted)
        monkeypatch.setenv("MDCL_THREADS", "2")
        assert sweep_noise(cfg, results, drops=[4.0, 8.0], n_seeds=2) == reference
        assert sorted(draws) == [(40, 0), (40, 1), (80, 0), (80, 1)]

    def test_one_extraction_per_row(self, sweep_case, monkeypatch):
        """Zero-drop rows included: each row extracts its corners once,
        through the pipeline module's name."""
        cfg, results, reference = sweep_case
        calls = []
        real = pipeline.extract_corners

        def counted(pm, map_id, det):
            calls.append(map_id)
            return real(pm, map_id, det)

        monkeypatch.setattr(pipeline, "extract_corners", counted)
        monkeypatch.setenv("MDCL_THREADS", "2")
        rows = sweep_noise(cfg, results, drops=[4.0, 8.0], n_seeds=2)
        assert rows == reference
        assert sorted(calls) == sorted(f"{r['activity']}/{r['map']}" for r in rows)
        assert sum(r["drop_db"] == 0.0 for r in rows) == 6

    def test_zero_drop_reproduces_baseline(self, cfg_small):
        cfg = small_config()
        cfg.run.activities = "S8"
        cfg.evaluation.sweep_seeds = 2
        cfg.validate()
        results = {"S8": run_activity(cfg, "S8")}
        rows = sweep_noise(cfg, results, drops=[0.0, 4.0], n_seeds=2)
        base = [r for r in rows if r["drop_db"] == 0.0]
        assert base[0]["emd"] == pytest.approx(results["S8"].metrics["emd_r"])
        assert base[1]["emd"] == pytest.approx(results["S8"].metrics["emd_d"])
        summary = sweep_summary(rows)
        assert set(summary) == {0.0, 4.0}

    def test_clean_results_only_for_swept_activities(self, monkeypatch):
        """Without results the sweep runs only the activities it sweeps, and
        keeps only their squared maps and truth."""
        cfg = small_config()
        cfg.run.activities = "S1,S8"
        cfg.validate()
        calls, draws = [], []
        draw, real_run = pipeline.noise_field, pipeline.run_activity

        def recorded(cfg, label):
            calls.append(label)
            return real_run(cfg, label)

        def field(*args):
            # every clean result is built, and trimmed, before a noise draw
            draws.append([name for (_, name), ref in refs.items()
                          if ref() is not None])
            return draw(*args)

        refs = step_maps(monkeypatch)
        monkeypatch.setattr(pipeline, "run_activity", recorded)
        monkeypatch.setattr(pipeline, "noise_field", field)
        rows = sweep_noise(cfg, drops=[4.0], n_seeds=1)
        assert calls == ["S8"]
        assert len(refs) == len(MAP_NAMES) and draws == [["r2tm", "d2tm"]]
        results = {"S8": run_activity(cfg, "S8")}
        assert rows == sweep_noise(cfg, results, drops=[4.0], n_seeds=1)

    @pytest.mark.parametrize("drops", ["4.0,4.05", "4,4.0"])
    def test_drops_sharing_a_noise_draw_rejected(self, tmp_path, drops):
        """Off-grid or repeated drops would reuse one noise seed key."""
        cfg = small_config()
        cfg.evaluation.snr_drops_db = drops
        with pytest.raises(ValueError, match="snr_drops_db"):
            cfg.validate()
        path = tmp_path / "config.txt"
        path.write_text(serialize_config(cfg), encoding="utf-8")
        assert main(["sweep-noise", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="SNR drops"):
            sweep_noise(small_config(), {}, drops=cfg.snr_drops())

    def test_cli_writes_the_config_beside_the_sweep(self, tmp_path, capsys):
        """``sweep-noise`` writes ``config.txt``, which parses back to the
        sweep's config, seed override included, and prints after its
        summary a ``wrote`` line for each file it adds, in record order."""
        cfg, cfg_path = write_small_config(tmp_path, **{
            "run.activities": "S1,S8", "evaluation.snr_drops_db": "4",
            "evaluation.sweep_seeds": 1})
        out = tmp_path / "out"
        assert main(["sweep-noise", "--config", str(cfg_path), "--seed", "7",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == ["drop   0.0 dB",
                                                              "drop   4.0 dB"]
        assert lines[2:] == [f"wrote {out / 'sweep.csv'}", f"wrote {out / 'config.txt'}"]
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "sweep.csv"]
        cfg.run.seed = 7
        assert parse_config((out / "config.txt").read_text(encoding="utf-8")) == cfg

    def test_cli_rejects_a_sweep_of_empty_scenes(self, tmp_path, capsys):
        _, cfg_path = write_small_config(tmp_path, **{"run.activities": "S1"})
        out = tmp_path / "out"
        assert main(["sweep-noise", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "no map to sweep" in capsys.readouterr().err
        assert not out.exists()

    def test_drop_seed_keys_are_tenths_of_a_db(self):
        # the keys of the default drops are those int(drop * 10) gave
        assert drop_seed_keys([0.0, 4.0, 8.0, 12.0, 0.3, 0.7]) == [0, 40, 80, 120, 3, 7]


def ran(request, size, **overrides):
    """A config, its file and the directory ``run`` wrote for it: the small
    config with ``overrides``, or the session's full-size run."""
    if size == "full":
        return request.getfixturevalue("full_run")
    tmp_path = request.getfixturevalue("tmp_path")
    cfg, cfg_path = write_small_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    return cfg, cfg_path, tmp_path / "run"


class TestCli:
    @pytest.mark.parametrize("size", ["small", "full"])
    def test_staged_chain(self, tmp_path, monkeypatch, request, size):
        """The six stage commands write exactly the files and bytes of ``run``,
        and ``run_activity`` holds each matrix as the staged reader returns it."""
        cfg, cfg_path, run_out = ran(request, size, **{"run.activities": "S5,S8",
                                                       "noise.enabled": True})
        staged_out = tmp_path / "staged"
        for label in cfg.activity_list():
            for command in STAGE_COMMANDS:
                code = main([command, "--config", str(cfg_path),
                             "--out", str(staged_out), "--activity", label])
                assert code == 0, (label, command)
            run_files = files_under(run_out / label)
            staged_files = files_under(staged_out / label)
            assert sorted(staged_files) == sorted(run_files), label
            differ = [name for name in run_files
                      if staged_files[name] != run_files[name]]
            assert differ == [], label
            with monkeypatch.context() as mp:
                held_maps = step_maps(mp, keep=lambda data: data)
                run_activity(cfg, label)
            assert [name for _, name in held_maps] == list(MAP_NAMES)
            for (_, name), held in held_maps.items():
                read = artifacts.ARTIFACTS[name].read(staged_out / label, name, cfg).data
                assert held.dtype == read.dtype, (label, name)
                assert held.tobytes() == read.tobytes(), (label, name)
        pc_r = (run_out / "S8" / "pc_r.csv").read_text().splitlines()
        assert pc_r[1].startswith("S8/r2tm,")
        metrics = (run_out / "S8" / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "activity,metric,value"

    @pytest.mark.parametrize("size", ["small", "full"])
    def test_staged_evaluate_reads_only_its_inputs(self, tmp_path, request, size):
        """``evaluate`` in a directory that holds only the squared maps and
        the corner CSVs writes ``run``'s bytes."""
        _, cfg_path, run_out = ran(request, size, **{"run.activities": "S8"})
        only = tmp_path / "only"
        (only / "S8").mkdir(parents=True)
        inputs = ["r2tm.mdcm", "r2tm.axis.txt", "d2tm.mdcm", "d2tm.axis.txt",
                  "pc_r.csv", "pc_d.csv"]
        for name in inputs:
            (only / "S8" / name).write_bytes((run_out / "S8" / name).read_bytes())
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(only),
                     "--activity", "S8"]) == 0
        run_files = files_under(run_out / "S8")
        wrote = set(run_files) - BEFORE_EVALUATE
        assert files_under(only / "S8") == {name: run_files[name]
                                             for name in wrote.union(inputs)}

    def test_staged_commands_print_their_stage_files(self, tmp_path, capsys):
        """Each stage command prints exactly the files its stage writes under
        ``run``, and they are the files it adds."""
        cfg, cfg_path = write_small_config(tmp_path)
        ran, out = run_activity(cfg, "S8", out=tmp_path / "run"), tmp_path / "staged"
        for rec in ran.records:
            before = set(files_under(out))
            capsys.readouterr()
            assert main([rec.stage, "--config", str(cfg_path), "--out", str(out),
                         "--activity", "S8"]) == 0
            wrote = [str(Path(line.removeprefix("wrote ")).relative_to(out))
                     for line in capsys.readouterr().out.splitlines()
                     if line.startswith("wrote ")]
            assert wrote == [str(path.relative_to(tmp_path / "run"))
                             for path in rec.files], rec.stage
            assert set(files_under(out)) - before == set(wrote), rec.stage

    def test_axis_window_is_configured_window(self, tmp_path):
        # 49 PRIs of 1.0 / 49 s span 0.9999999999999999 s in float64
        _, cfg_path = write_small_config(tmp_path, **{"radar.window_s": 1.0,
                                                      "radar.slow_samples": 49})
        out = tmp_path / "out"
        for command in ("simulate", "preprocess"):
            assert main([command, "--config", str(cfg_path), "--out", str(out),
                         "--activity", "S8"]) == 0
        for name in ("rtm", "dtm"):
            sidecar = (out / "S8" / f"{name}.axis.txt").read_text().splitlines()
            assert "window_s = 1.0" in sidecar, name

    def test_run_subcommand(self, tmp_path):
        _, cfg_path = write_small_config(tmp_path, **{"run.activities": "S5"})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "manifest.txt").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("[radar]\nbandwidth_hz = 0\n")
        assert main(["run", "--config", str(bad)]) == 2

    def test_scene_outside_unambiguous_range_exits_2_before_any_file(self, tmp_path):
        """A node of a synthesized activity at or beyond c * pri / 2 is a
        config error before any file is written.  ``validate`` accepts the
        scene, and a run that synthesizes no such node (S1 holds no active
        node) still runs."""
        _, cfg_path = write_small_config(tmp_path, **{"scene.x1": 1e7})
        out = tmp_path / "out"
        for argv in (["run"], ["run", "--activity", "S8"], ["simulate"],
                     ["simulate", "--activity", "S5"], ["sweep-noise"]):
            assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 2
            assert not out.exists()
        assert main(["run", "--activity", "S1", "--config", str(cfg_path),
                     "--out", str(out)]) == 0

    def test_unknown_activity_exit_code(self, tmp_path):
        _, cfg_path = write_small_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o"), "--activity", "S99"]) == 2

    def test_staged_writer_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        """A writer that fails in a staged command is the stage error
        "write", whatever it raises, and leaves the files written before it."""
        _, cfg_path = write_small_config(tmp_path)
        out = tmp_path / "out"
        args = ["--config", str(cfg_path), "--out", str(out), "--activity", "S8"]
        for command in ("simulate", "preprocess", "square"):
            assert main([command, *args]) == 0

        def failing_write_pgm(*_args, **_kwargs):
            raise RuntimeError("injected writer failure")

        monkeypatch.setattr(artifacts, "write_pgm", failing_write_pgm)
        capsys.readouterr()
        assert main(["extract", *args]) == 3
        assert "stage 'write' failed for S8" in capsys.readouterr().err
        assert (out / "S8" / "pc_r.csv").exists()
        assert not (out / "S8" / "pc_d.csv").exists()

    def test_missing_stage_input_exit_code(self, tmp_path):
        _, cfg_path = write_small_config(tmp_path)
        assert main(["preprocess", "--config", str(cfg_path),
                     "--out", str(tmp_path / "empty"), "--activity", "S8"]) == 3

    def test_render(self, tmp_path):
        _, cfg_path = write_small_config(tmp_path, **{"run.activities": "S8"})
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg_path), "--out", str(out),
              "--activity", "S8"])
        main(["preprocess", "--config", str(cfg_path), "--out", str(out),
              "--activity", "S8"])
        code = main(["render", str(out / "S8" / "rtm.mdcm"),
                     str(tmp_path / "rtm.pgm")])
        assert code == 0
        assert (tmp_path / "rtm.pgm").read_bytes()[:2] == b"P5"

        for command in ("square", "extract"):
            main([command, "--config", str(cfg_path), "--out", str(out),
                  "--activity", "S8"])
        code = main(["render", str(out / "S8" / "r2tm.mdcm"),
                     str(tmp_path / "overlay.pgm"),
                     "--corners", str(out / "S8" / "pc_r.csv")])
        assert code == 0
        overlay = (tmp_path / "overlay.pgm").read_bytes()
        assert overlay == (out / "S8" / "r2tm_corners.pgm").read_bytes()
        main(["render", str(out / "S8" / "r2tm.mdcm"), str(tmp_path / "plain.pgm")])
        assert (tmp_path / "plain.pgm").read_bytes() != overlay

    def test_default_config_warns_nothing(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--out", str(tmp_path / "out")]) == 0
            assert main(["mncp-verify"]) == 0

    def test_stage_dump_flag_rejected(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--stage-dump", "--activity", "S8", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_mncp_verify_takes_no_out(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["mncp-verify", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_mncp_verify_exit(self, tmp_path):
        _, cfg_path = write_small_config(tmp_path)
        assert main(["mncp-verify", "--config", str(cfg_path)]) == 0

    def test_seed_override_changes_noise(self, tmp_path):
        _, cfg_path = write_small_config(tmp_path, **{"run.activities": "S8",
                                                      "noise.enabled": True})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg_path), "--out", str(out_a),
              "--activity", "S8", "--seed", "1"])
        main(["simulate", "--config", str(cfg_path), "--out", str(out_b),
              "--activity", "S8", "--seed", "2"])
        a = read_matrix(out_a / "S8" / "echo.mdcm")
        b = read_matrix(out_b / "S8" / "echo.mdcm")
        assert not np.array_equal(a, b)


REFERENCE_CFG = Path(__file__).parent / "data" / "reference_run" / "run.cfg"
CLI_MAIN = "import sys\nfrom mdcl.cli import main\n"
SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def fresh_python(code, *args, **env):
    """Run ``code`` in a new interpreter that imports this ``mdcl``."""
    src = str(Path(mdcl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=600,
                          env={**os.environ, **env, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


class TestStartup:
    """Only the stages that use scipy import it, so the other commands
    start without it."""

    def test_import_loads_no_scipy(self):
        assert fresh_python(f"import sys, mdcl.cli\nprint({SCIPY_LOADED})") == ["[]"]

    def test_emd_loads_no_scipy(self):
        code = ("import sys\nimport numpy as np\nfrom mdcl.metrics import emd_distance\n"
                "a, b = np.random.default_rng(0).random((2, 30, 2))\n"
                f"print(emd_distance(a, b) > 0, {SCIPY_LOADED})")
        assert fresh_python(code) == ["True []"]

    def test_commands_without_scipy_load_none(self, tmp_path):
        cfg, out = str(REFERENCE_CFG), tmp_path / "out"
        assert main(["run", "--config", cfg, "--activity", "S8", "--out", str(out)]) == 0
        s8 = out / "S8"
        commands = [[command, "--config", cfg, "--activity", "S8", "--out", str(out)]
                    for command in ("simulate", "square", "fuse", "evaluate")]
        commands += [["mncp-verify", "--config", cfg],
                     ["render", str(s8 / "r2tm.mdcm"), str(tmp_path / "r2tm.pgm"),
                      "--corners", str(s8 / "pc_r.csv")]]
        lines = fresh_python(CLI_MAIN + f"codes = [main(argv) for argv in {commands!r}]\n"
                             f"print(codes, {SCIPY_LOADED})")
        assert lines[-1] == "[0, 0, 0, 0, 0, 0] []"

    def test_concurrent_first_imports(self, tmp_path, monkeypatch):
        """Both workers of a new process reach the first scipy imports
        together, and the run writes the bytes of a one-thread run."""
        args = ["run", "--config", str(REFERENCE_CFG), "--seed", "42", "--out"]
        fresh_python(CLI_MAIN + "sys.exit(main(sys.argv[1:]))",
                     *args, str(tmp_path / "two"), MDCL_THREADS="2")
        monkeypatch.setenv("MDCL_THREADS", "1")
        assert main(args + [str(tmp_path / "one")]) == 0
        assert ((tmp_path / "two" / "manifest.txt").read_bytes()
                == (tmp_path / "one" / "manifest.txt").read_bytes())
