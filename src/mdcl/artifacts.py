"""Every file a command writes, each listed on a ``StageRecord`` first: one
codec per activity file kind, its writer beside its reader, and the run's own.

Matrix payloads are float32 on disk.  A codec's ``stored`` casts a value
to what its file holds (maps to float32, the echo to complex64) and the
readers return that dtype, so the in-memory chain holds exactly the file
payload, and ``mdcl run`` and the staged commands compute from, and write,
the same numbers.  A stage widens its input where a float64 or complex128
computation starts.  Kinds that no stage reads back have no reader.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mdcl import __version__
from mdcl.config import PipelineConfig, config_digest, serialize_config
from mdcl.corners import Corner, CornerSet
from mdcl.echo import EchoFrame
from mdcl.fileio import read_matrix, write_csv, write_matrix, write_pgm
from mdcl.maps import AxisSpec, ProfileMap


@dataclass
class StageRecord:
    """One stage of one activity, or a command's run-level writes: its wall
    time, writes included, each file it writes into ``root`` (None in
    memory), listed by ``file`` before it is written, so that a failed
    write stays on the record, and its failed step and error as text, not
    as the exception, whose frames hold the stage's values."""

    label: str
    stage: str
    root: Path | None = None
    files: list[Path] = field(default_factory=list)
    wall_s: float = 0.0
    failed: str | None = None
    error: str = ""

    def file(self, name: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        self.files.append(self.root / name)
        return self.files[-1]

    def fail(self, step: str, exc: Exception) -> None:
        self.failed = step
        self.error = f"{exc}\n" + "".join(traceback.format_exception(exc)).rstrip()


def write_heatmap(path: Path, img: np.ndarray, corners=()) -> None:
    """PGM of a [0, 1] map with the highest row on top, corners burned in."""
    write_pgm(path, np.flipud(img),
              [(img.shape[0] - 1 - c.row, c.col) for c in corners])


class Codec:
    """``write(rec, name, values)`` writes ``values[name]`` through the
    stage record ``rec``; ``read(root, name, cfg)``, where a stage reads
    the kind back, returns the value as that stage sees it."""

    def stored(self, value):
        return value


class EchoFile(Codec):
    """The echo matrix, held and read back as complex64."""

    def stored(self, frame):
        return EchoFrame(frame.data.astype(np.complex64), frame.config)

    def write(self, rec, name, values):
        write_matrix(rec.file(f"{name}.mdcm"), values[name].data)

    def read(self, root, name, cfg):
        return EchoFrame(read_matrix(root / f"{name}.mdcm"), cfg.radar)


class MapFile(Codec):
    """Matrix file plus an ``.axis.txt`` sidecar holding the map's axis; the
    map is held and read back as float32."""

    def stored(self, pm):
        return ProfileMap(pm.data.astype(np.float32), pm.axis, pm.window)

    def write(self, rec, name, values):
        pm = values[name]
        write_matrix(rec.file(f"{name}.mdcm"), pm.data)
        rec.file(f"{name}.axis.txt").write_text(
            f"kind = {pm.axis.kind}\nrows = {pm.rows}\ncols = {pm.cols}\n"
            f"value_lo = {float(pm.axis.lo)!r}\nvalue_hi = {float(pm.axis.hi)!r}\n"
            f"window_s = {float(pm.window)!r}\n", encoding="utf-8")

    def read(self, root, name, cfg):
        side = _read_sidecar(root / f"{name}.axis.txt")
        data = read_matrix(root / f"{name}.mdcm")
        if data.shape != (side["rows"], side["cols"]):
            raise ValueError(f"{name}.mdcm does not match its sidecar")
        axis = AxisSpec(side["kind"], side["value_lo"], side["value_hi"], side["rows"])
        return ProfileMap(data, axis, side["window_s"])


_SIDECAR_TYPES = {"kind": str, "rows": int, "cols": int,
                  "value_lo": float, "value_hi": float, "window_s": float}


def _read_sidecar(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = dict(line.split(" = ", 1) for line in lines if line)
    if fields.keys() != _SIDECAR_TYPES.keys():
        raise ValueError(f"{path}: expected the keys {list(_SIDECAR_TYPES)}")
    return {key: kind(fields[key]) for key, kind in _SIDECAR_TYPES.items()}


def read_corners(path: Path, shape: tuple[int, int] | None = None) -> CornerSet:
    """A corner CSV's pixels (its u, v columns derive from them).  ``shape``
    defaults to that of the map its map_id names (``S8/r2tm``), read from
    that map's sidecar beside the CSV."""
    corners, map_id = [], ""
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        map_id, row, col, _, _, resp, padded = line.split(",")
        corners.append(Corner(int(row), int(col), float(resp), bool(int(padded))))
    if shape is None:
        side = _read_sidecar(path.parent / f"{map_id.rpartition('/')[2]}.axis.txt")
        shape = (side["rows"], side["cols"])
    return CornerSet(tuple(corners), map_id, shape)


class CornerCsv(Codec):
    """Corner CSV, plus the overlay PGM of the corners on their source map."""

    def write(self, rec, name, values):
        cs = values[name]
        write_csv(rec.file(f"{name}.csv"),
                  ["map_id", "row", "col", "u", "v", "response", "padded"],
                  [[cs.map_id, c.row, c.col, u, v, c.response, int(c.padded)]
                   for c, (u, v) in zip(cs.corners, cs.uv())])
        source = cs.map_id.rpartition("/")[2]
        write_heatmap(rec.file(f"{source}_corners.pgm"), values[source].data,
                      cs.corners)

    def read(self, root, name, cfg):
        return read_corners(root / f"{name}.csv")


class PcRdCsv(Codec):
    def write(self, rec, name, values):
        cloud = values[name]
        write_csv(rec.file(f"{name}.csv"), ["index", "u", "v", "w", "source"],
                  [[i, *map(float, row), src] for i, (row, src) in
                   enumerate(zip(cloud.points, cloud.source))])


class TruthCsvs(Codec):
    """Ground-truth corner clouds and the key points they come from."""

    def write(self, rec, name, values):
        truth = values[name]
        write_csv(rec.file("gt_corners.csv"), ["map", "u", "v"],
                  [["r2", *map(float, row)] for row in truth.cloud_r]
                  + [["d2", *map(float, row)] for row in truth.cloud_d])
        write_csv(rec.file("gt_keypoints.csv"), ["node", "t_seconds", "value", "map"],
                  [[kp.node.value, kp.t, kp.value, "r2"] for kp in truth.keypoints_r]
                  + [[kp.node.value, kp.t, kp.value, "d2"] for kp in truth.keypoints_d])


class MetricsCsv(Codec):
    def write(self, rec, name, values):
        write_csv(rec.file(f"{name}.csv"), ["activity", "metric", "value"],
                  [[rec.label, k, float(v)] for k, v in sorted(values[name].items())])


ARTIFACTS: dict[str, Codec] = {
    "echo": EchoFile(),
    **{name: MapFile() for name in ("rtm", "dtm", "r2tm", "d2tm", "gt_r2tm", "gt_d2tm")},
    "pc_r": CornerCsv(),
    "pc_d": CornerCsv(),
    "pc_rd": PcRdCsv(),
    "truth": TruthCsvs(),
    "metrics": MetricsCsv(),
}


def on_disk(records: list[StageRecord], root: Path) -> dict[str, str]:
    """Each file the records name that is on disk, relative to ``root``: its SHA-256."""
    digests = {}
    for path in [path for rec in records for path in rec.files if path.is_file()]:
        h = hashlib.sha256()
        with open(path, "rb") as f:
            while chunk := f.read(1 << 20):
                h.update(chunk)
        digests[str(path.relative_to(root))] = h.hexdigest()
    return digests


def write_config(rec: StageRecord, cfg: PipelineConfig) -> None:
    rec.file("config.txt").write_text(serialize_config(cfg), encoding="utf-8")


def write_report(rec: StageRecord, metrics: dict[str, dict[str, float]]) -> None:
    """Per-activity metric table: corner-cloud distances and map PSNRs."""
    lines = ["activity   emd_r   emd_d  psnr_r2tm_db  psnr_d2tm_db"]
    lines += [f"{label:<8} {m['emd_r']:7.4f} {m['emd_d']:7.4f} "
              f"{m['psnr_r2tm_db']:13.2f} {m['psnr_d2tm_db']:13.2f}"
              for label, m in sorted(metrics.items(), key=lambda lm: int(lm[0][1:]))]
    rec.file("report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep(cfg: PipelineConfig, out: Path, rows: list[dict]) -> StageRecord:
    """``sweep.csv`` and the sweep's ``config.txt`` in ``out``."""
    rec = StageRecord("sweep", "write", out)
    columns = ["activity", "map", "drop_db", "seed", "emd"]
    write_csv(rec.file("sweep.csv"), columns, [[r[c] for c in columns] for r in rows])
    write_config(rec, cfg)
    return rec


@dataclass
class RunManifest:
    config_hash: str
    status: str
    artifacts: dict[str, str]           # relative path -> sha256
    failed_stage: str | None = None

    def text(self) -> str:
        head = [f"tool_version = {__version__}", f"config_sha256 = {self.config_hash}",
                f"status = {self.status}"]
        if self.failed_stage:
            head.append(f"failed_stage = {self.failed_stage}")
        listed = [f"{rel} = sha256:{h}" for rel, h in sorted(self.artifacts.items())]
        return "\n".join(["[manifest]", *head, "", "[artifacts]", *listed, ""])


def write_run(cfg: PipelineConfig, out: Path, records: list[StageRecord],
              digests: dict[str, str], metrics: dict[str, dict]) -> RunManifest:
    """``config.txt``, ``report.txt`` if no activity failed, then, even if
    those fail the run's record, the manifest of ``digests`` and the run's
    files, and ``run.log``: each record's time, then each failure (not in
    the manifest, which is bit-identical across reruns of one config)."""
    rec = StageRecord("run", "write", out)
    try:
        write_config(rec, cfg)
        if not any(r.failed for r in records):
            write_report(rec, metrics)
    except Exception as exc:
        rec.fail("write", exc)
    failed = next((f"{r.label}:{r.failed}" for r in [*records, rec] if r.failed), None)
    manifest = RunManifest(config_digest(cfg), "failed" if failed else "ok",
                           {**digests, **on_disk([rec], out)}, failed)
    rec.file("manifest.txt").write_text(manifest.text(), encoding="utf-8")
    log = [f"{r.label} {r.stage} {r.wall_s:.3f}s" for r in records]
    log += [f"{r.label} {r.failed} failed: {r.error}" for r in [*records, rec] if r.failed]
    rec.file("run.log").write_text("\n".join(log) + "\n", encoding="utf-8")
    return manifest
