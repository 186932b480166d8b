"""End-to-end orchestration: simulate -> preprocess -> square -> extract ->
fuse -> evaluate, artifact persistence, and the noise-robustness sweep.

``STAGES`` defines the chain once; ``_step`` runs one stage, passes each
output on as its file holds it, writes the stage's files as it ends when
given a directory, and leaves a ``StageRecord``, even on failure, from
which ``run``'s log and manifest and the staged commands' output derive.
``run_activity`` folds ``STAGES`` over the step, in memory or into
``run``'s directory, keeping each value only as long as ``STAGES`` or
``RESULT`` needs it, and ``run_stage`` (the staged commands) steps one
stage between artifact files.  ``run``'s activities and the sweep's noise
fields (one task per noise field, each degrading and re-extracting every
map) are tasks on one worker pool, ``pool_map`` (MDCL_THREADS); each task
owns its outputs and noise stream and results keep input order, so no
output depends on the thread count.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from mdcl import __version__
from mdcl.activities import activity
from mdcl.artifacts import ARTIFACTS, StageRecord
from mdcl.config import (ConfigError, PipelineConfig, config_digest, drop_seed_keys,
                         serialize_config)
from mdcl.corners import CornerSet, extract_corners, fuse_pc_rd
from mdcl.echo import noise_generator, synth_frame
from mdcl.groundtruth import groundtruth_corners, rasterize_dtm, rasterize_rtm
from mdcl.maps import ProfileMap, normalize
from mdcl.metrics import add_image_noise, emd_distance, psnr
from mdcl.preprocess import doppler_axis, preprocess_frame, range_axis
from mdcl.squaring import decimate_rows, render_squared


def thread_count() -> int:
    """Worker threads named by ``MDCL_THREADS``, a non-negative integer
    (unset, empty or 0: min(4, the CPUs this process may run on)); anything
    else is a ``ConfigError``."""
    raw = os.environ.get("MDCL_THREADS") or "0"
    try:
        workers = int(raw)
    except ValueError:
        workers = -1
    if workers < 0:
        raise ConfigError(f"MDCL_THREADS must be a non-negative integer, got {raw!r}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return workers or min(4, cpus)


def pool_map(fn: Callable, items: list) -> list:
    """``[fn(x) for x in items]`` on ``thread_count()`` threads, clamped to
    [1, len(items)]; one runs inline."""
    workers = max(1, min(thread_count(), len(items)))
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class StageError(RuntimeError):
    """A failed stage, with the activity's ``records`` through its own."""

    def __init__(self, stage: str, activity_label: str, cause: Exception,
                 records: list[StageRecord]):
        super().__init__(f"stage {stage!r} failed for {activity_label}: {cause}")
        self.stage = stage
        self.records = records


class ActivityResult(SimpleNamespace):
    """A ``label``, the ``records`` of the stages run and stage outputs,
    each an attribute named as in ``STAGES`` (``res.r2tm``): those of
    ``RESULT`` from ``run_activity``, the stage's own from ``run_stage``."""


def square_maps(cfg: PipelineConfig, rtm: ProfileMap,
                dtm: ProfileMap) -> tuple[ProfileMap, ProfileMap]:
    """Decimate, square and render both maps onto the detection grid."""
    pre = cfg.preprocessing.predecimate_rows
    rows = cfg.detector.render_rows
    return (render_squared(decimate_rows(rtm, pre), rows),
            render_squared(decimate_rows(dtm, pre), rows))


def evaluate_activity(cfg: PipelineConfig, label: str,
                      r2tm: ProfileMap, d2tm: ProfileMap,
                      pc_r: CornerSet, pc_d: CornerSet):
    """Analytic truth, ground-truth rasters on the ``[radar]`` axes and the
    per-activity metrics."""
    scene, radar, act = cfg.scene_params(), cfg.radar, activity(label)
    truth = groundtruth_corners(scene, act, radar, r2tm.axis, d2tm.axis)
    gt_rtm = rasterize_rtm(scene, act, radar, range_axis(radar))
    gt_dtm = rasterize_dtm(scene, act, radar, doppler_axis(radar))
    gt_r2, gt_d2 = square_maps(cfg, gt_rtm, gt_dtm)
    metrics = {
        "emd_r": emd_distance(pc_r.uv(), truth.cloud_r),
        "emd_d": emd_distance(pc_d.uv(), truth.cloud_d),
        "psnr_r2tm_db": psnr(r2tm.data, gt_r2.data),
        "psnr_d2tm_db": psnr(d2tm.data, gt_d2.data),
        "gt_clamped": float(truth.clamped),
    }
    return truth, gt_r2, gt_d2, metrics


# ---------------------------------------------------------------------------
# the stage table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """Inputs and outputs are artifact names; ``fn(cfg, label,
    *input_values)`` returns the output values in order; its docstring is
    the CLI help."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fn: Callable[..., tuple]


def _simulate(cfg: PipelineConfig, label: str):
    """synthesize an echo frame"""
    return (synth_frame(cfg.scene_params(), activity(label),
                        cfg.radar, cfg.noise_config(label)),)


def _preprocess(cfg: PipelineConfig, label: str, echo):
    """echo -> RTM and DTM"""
    return preprocess_frame(echo, emd_params=cfg.preprocessing.emd_params())


def _square(cfg: PipelineConfig, label: str, rtm, dtm):
    """RTM/DTM -> squared-axis maps"""
    return square_maps(cfg, rtm, dtm)


def _extract(cfg: PipelineConfig, label: str, r2tm, d2tm):
    """detect 30 corners per squared map"""
    return (extract_corners(r2tm, f"{label}/r2tm", cfg.detector),
            extract_corners(d2tm, f"{label}/d2tm", cfg.detector))


def _fuse(cfg: PipelineConfig, label: str, r2tm, d2tm, pc_r, pc_d):
    """fuse PC-R and PC-D into PC-RD"""
    return (fuse_pc_rd(pc_r, pc_d, r2tm, d2tm),)


def _evaluate(cfg: PipelineConfig, label: str, r2tm, d2tm, pc_r, pc_d):
    """score corners against ground truth"""
    return evaluate_activity(cfg, label, r2tm, d2tm, pc_r, pc_d)


STAGES = (
    Stage("simulate", (), ("echo",), _simulate),
    Stage("preprocess", ("echo",), ("rtm", "dtm"), _preprocess),
    Stage("square", ("rtm", "dtm"), ("r2tm", "d2tm"), _square),
    Stage("extract", ("r2tm", "d2tm"), ("pc_r", "pc_d"), _extract),
    Stage("fuse", ("r2tm", "d2tm", "pc_r", "pc_d"), ("pc_rd",), _fuse),
    Stage("evaluate", ("r2tm", "d2tm", "pc_r", "pc_d"),
          ("truth", "gt_r2tm", "gt_d2tm", "metrics"), _evaluate),
)

# what ``run_activity`` returns; every other value is dropped after the
# last stage that produces or reads it
RESULT = ("r2tm", "d2tm", "pc_r", "pc_d", "pc_rd", "truth", "metrics")


def _step(stage: Stage, cfg: PipelineConfig, label: str, values: dict,
          records: list[StageRecord], root: Path | None) -> None:
    """Appends the stage's record to ``records``, adds its outputs to
    ``values`` as their files hold them and writes them into ``root`` when
    given; a failing writer is a ``StageError`` of stage "write"."""
    rec = StageRecord(label, stage.name, root)
    records.append(rec)
    start, failing = time.perf_counter(), stage.name
    try:
        outs = stage.fn(cfg, label, *(values[name] for name in stage.inputs))
        values.update({name: ARTIFACTS[name].stored(value)
                       for name, value in zip(stage.outputs, outs, strict=True)})
        failing = "write"
        for name in stage.outputs if root is not None else ():
            ARTIFACTS[name].write(rec, name, values)
    except Exception as exc:
        raise StageError(failing, label, exc, records) from exc
    finally:
        rec.wall_s = time.perf_counter() - start


def run_activity(cfg: PipelineConfig, label: str, _index=None, *,
                 out: Path | None = None) -> ActivityResult:
    """Full stage chain for one activity; with ``out``, each stage's files
    are written into ``out/<label>`` as the stage ends.  The result holds
    the ``RESULT`` values: the echo is freed after ``preprocess``, the RTM
    and DTM after ``square`` and the truth rasters after ``evaluate``.

    ``_index`` is ignored: an activity's noise depends only on ``run.seed``
    and its label.  It is accepted until ``perfbench/workloads.py`` stops
    passing the activity's list position.
    """
    values: dict = {}
    records: list[StageRecord] = []
    root = None if out is None else Path(out) / label
    for i, stage in enumerate(STAGES):
        _step(stage, cfg, label, values, records, root)
        for name in set(values).difference(RESULT, *(s.inputs for s in STAGES[i + 1:])):
            del values[name]
    return ActivityResult(label=label, records=records, **values)


def run_stage(cfg: PipelineConfig, out: Path, label: str,
              name: str) -> ActivityResult:
    """One stage of one activity read from and written to ``out/<label>``
    by ``run``'s step; the result holds the stage's outputs and record."""
    stage = next(s for s in STAGES if s.name == name)
    if name == "simulate":
        cfg.check_echo_range([label])
    root, records = Path(out) / label, []
    values = {n: ARTIFACTS[n].read(root, n, cfg) for n in stage.inputs}
    _step(stage, cfg, label, values, records, root)
    return ActivityResult(label=label, records=records,
                          **{n: values[n] for n in stage.outputs})


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    config_hash: str
    version: str
    status: str
    artifacts: dict[str, str]           # relative path -> sha256
    failed_stage: str | None = None

    def text(self) -> str:
        lines = [
            "[manifest]",
            f"tool_version = {self.version}",
            f"config_sha256 = {self.config_hash}",
            f"status = {self.status}",
        ]
        if self.failed_stage:
            lines.append(f"failed_stage = {self.failed_stage}")
        lines.append("")
        lines.append("[artifacts]")
        for rel in sorted(self.artifacts):
            lines.append(f"{rel} = sha256:{self.artifacts[rel]}")
        lines.append("")
        return "\n".join(lines)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def _summary_report(metrics: dict[str, dict[str, float]]) -> str:
    """Per-activity metric table: corner-cloud distances and map PSNRs."""
    lines = ["activity   emd_r   emd_d  psnr_r2tm_db  psnr_d2tm_db"]
    for label in sorted(metrics, key=lambda label: int(label[1:])):
        m = metrics[label]
        lines.append(f"{label:<8} {m['emd_r']:7.4f} {m['emd_d']:7.4f} "
                     f"{m['psnr_r2tm_db']:13.2f} {m['psnr_d2tm_db']:13.2f}")
    lines.append("")
    return "\n".join(lines)


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path) -> RunManifest:
    """Execute all selected activities and persist every artifact in ``out_dir``.

    Every activity runs even when another fails, and a failed one keeps
    the files of the stages it finished; the manifest lists each file on
    disk that its stage records name, and names the first failure in
    activity order.  An activity's worker hashes the files its records
    name and returns neither a stage output nor an exception, so no maps
    outlive the worker.
    ``run.log`` has each record's wall time, in run order, then each
    failure's traceback (not part of the manifest, which must be
    bit-identical across reruns of one config).
    """
    cfg.validate()
    thread_count()      # a malformed MDCL_THREADS fails before any file
    labels = cfg.activity_list()
    cfg.check_echo_range(labels)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def one_activity(label: str):
        # a failure leaves its log text, not the exception, whose traceback
        # would hold the failed stage's values
        try:
            res = run_activity(cfg, label, out=out)
            records, metrics, failed, log = res.records, res.metrics, None, []
        except StageError as exc:
            records, metrics, failed = exc.records, None, f"{label}:{exc.stage}"
            log = [f"{label} {exc.stage} failed: {exc.__cause__}",
                   "".join(traceback.format_exception(exc.__cause__)).rstrip()]
        digests = {str(path.relative_to(out)): _sha256(path)
                   for rec in records for path in rec.files if path.is_file()}
        return SimpleNamespace(records=records, digests=digests,
                               metrics=metrics, failed=failed, log=log)

    jobs = pool_map(one_activity, labels)
    failed_stage = next((job.failed for job in jobs if job.failed), None)
    status = "failed" if failed_stage else "ok"
    artifacts = {rel: h for job in jobs for rel, h in job.digests.items()}

    config_path = out / "config.txt"
    config_path.write_text(serialize_config(cfg), encoding="utf-8")
    artifacts["config.txt"] = _sha256(config_path)

    if status == "ok" and jobs:
        report_path = out / "report.txt"
        metrics = {label: job.metrics for label, job in zip(labels, jobs)}
        report_path.write_text(_summary_report(metrics), encoding="utf-8")
        artifacts["report.txt"] = _sha256(report_path)

    manifest = RunManifest(config_digest(cfg), __version__, status,
                           artifacts, failed_stage)
    (out / "manifest.txt").write_text(manifest.text(), encoding="utf-8")
    log_lines = [f"{rec.label} {rec.stage} {rec.wall_s:.3f}s"
                 for job in jobs for rec in job.records]
    log_lines += [line for job in jobs for line in job.log]
    (out / "run.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# noise-robustness sweep
# ---------------------------------------------------------------------------

def noise_field(cfg: PipelineConfig, shape: tuple[int, ...], key: int,
                seed: int) -> np.ndarray:
    """The sweep's unit-normal noise field for drop key ``key`` and sweep
    seed ``seed``.

    Its stream is keyed by (run seed, sweep seed, drop key) only, so it
    depends on nothing else in the sweep, and every map of one (drop,
    seed) shares it.
    """
    return noise_generator((cfg.run.seed, seed, key)).standard_normal(shape)


def degrade_map(pm: ProfileMap, drop: float, noise: np.ndarray,
                out: np.ndarray | None = None) -> ProfileMap:
    """``pm`` with its image SNR lowered by ``drop`` dB with the
    unit-normal field ``noise``, min-max normalised in one buffer (``out``
    when given)."""
    buf = add_image_noise(pm.data, drop, noise, out=out)
    return ProfileMap(normalize(buf, out=buf), pm.axis, pm.window)


def sweep_noise(cfg: PipelineConfig,
                results: dict[str, ActivityResult] | None = None,
                drops: list[float] | None = None,
                n_seeds: int | None = None) -> list[dict]:
    """Re-extract corners from noise-degraded squared maps.

    Lowers the image SNR of both squared maps by each configured drop,
    reruns detection and reports the earth mover's distance to the analytic
    truth per (activity, map, drop, seed), in that order.  A zero drop
    reproduces the baseline exactly.  Drops that would share a noise draw
    (off the 0.1 dB grid, or repeated) raise ``ValueError``.  Each noise
    field, one per (drop, seed), is one ``pool_map`` task that draws the
    field once and degrades every map with it in one buffer; the zero-drop
    rows are one more task.  Missing clean results are built first, one
    task each, as ``run_activity`` returns them.  The rows do not depend
    on the thread count.
    """
    drops = cfg.snr_drops() if drops is None else drops
    if 0.0 not in drops:
        drops = [0.0] + list(drops)
    keys = drop_seed_keys(drops)
    labels = [a for a in cfg.activity_list() if not activity(a).is_empty]
    if results is None:
        cfg.check_echo_range(labels)
        results = dict(zip(labels, pool_map(lambda label: run_activity(cfg, label),
                                            labels)))
    n_seeds = cfg.evaluation.sweep_seeds if n_seeds is None else n_seeds
    maps = [(label, which, cloud) for label in labels
            for which, cloud in (("r2tm", "cloud_r"), ("d2tm", "cloud_d"))]
    fields = [(drop, key, seed) for drop, key in zip(drops, keys)
              for seed in ([0] if drop == 0.0 else range(n_seeds))]

    def field_rows(field) -> list[dict]:
        drop, key, seed = field
        noise = buf = None
        rows = []
        for label, which, cloud in maps:
            res = results[label]
            pm = getattr(res, which)
            if drop != 0.0:
                if noise is None:
                    noise = noise_field(cfg, pm.data.shape, key, seed)
                    buf = np.empty_like(noise)
                pm = degrade_map(pm, drop, noise, out=buf)
            cs = extract_corners(pm, f"{label}/{which}", cfg.detector)
            rows.append({"activity": label, "map": which, "drop_db": drop,
                         "seed": seed,
                         "emd": emd_distance(cs.uv(), getattr(res.truth, cloud))})
        return rows

    by_field = pool_map(field_rows, fields)
    return [rows[i] for i in range(len(maps)) for rows in by_field]


def sweep_summary(rows: list[dict]) -> dict[float, dict[str, float]]:
    """Mean EMD (and its standard error) per SNR drop over both maps."""
    by_drop: dict[float, list[float]] = {}
    for row in rows:
        by_drop.setdefault(row["drop_db"], []).append(row["emd"])
    out = {}
    for drop, values in sorted(by_drop.items()):
        v = np.asarray(values)
        out[drop] = {"mean": float(v.mean()),
                     "sem": float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0,
                     "count": int(v.size)}
    return out
