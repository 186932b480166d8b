"""Per-activity artifact files: one codec per kind, its writer beside its reader.

Matrix payloads are float32 on disk.  A codec's ``stored`` casts a value
to what its file holds (maps to float32, the echo to complex64) and the
readers return that dtype, so the in-memory chain holds exactly the file
payload, and ``mdcl run`` and the staged commands compute from, and write,
the same numbers.  A stage widens its input where a float64 or complex128
computation starts.  Kinds that no stage reads back have no reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mdcl.corners import Corner, CornerSet
from mdcl.echo import EchoFrame
from mdcl.fileio import read_matrix, write_csv, write_matrix, write_pgm
from mdcl.maps import AxisSpec, ProfileMap


@dataclass
class StageRecord:
    """One stage of one activity: its wall time, writes included, and each
    file it writes into ``root`` (None in memory), listed by ``file`` before
    it is written, so that a failed write stays on the record."""

    label: str
    stage: str
    root: Path | None = None
    files: list[Path] = field(default_factory=list)
    wall_s: float = 0.0

    def file(self, name: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        self.files.append(self.root / name)
        return self.files[-1]


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
