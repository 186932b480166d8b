"""The three workloads: what each sets up, times and checks.

A workload builds its inputs from the seed in ``setup``, runs one timed
pass with ``run_pass`` (the only code inside the timer) and then checks
that pass's outputs with ``check``.  Every check failure is one failed
operation; an operation is an activity (run_full), an extraction (sweep)
or a CLI command (staged).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from mdcl import cli, pipeline
from mdcl.config import load_config

from tracing import Patches


@dataclass
class PassOutcome:
    """Checked result of one pass.

    ``ops`` maps each attempted operation to a digest of its output, or to
    None when the operation failed or its output failed a check.  Digests
    of two passes with the same seed must agree.
    """

    ops: dict[str, str | None]
    emds: list[float] = field(default_factory=list)
    psnr_r2tm_db: list[float] = field(default_factory=list)
    digest: str = ""

    @property
    def failed(self) -> int:
        return sum(d is None for d in self.ops.values())


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _finite(text: str) -> float | None:
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def read_metrics(path: Path) -> dict[str, float] | None:
    """metrics.csv as {metric: value}; None if missing or any value is not finite."""
    if not path.is_file():
        return None
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        cols = line.split(",")
        value = _finite(cols[2]) if len(cols) >= 3 else None
        if value is None:
            return None
        out[cols[1]] = value
    return out if {"emd_r", "emd_d", "psnr_r2tm_db"} <= out.keys() else None


def pc_rd_ok(path: Path) -> bool:
    """pc_rd.csv holds a 60x3 cloud of finite coordinates."""
    if not path.is_file():
        return False
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return len(rows) == 60 and all(
        len(cols) == 5 and all(_finite(v) is not None for v in cols[1:4])
        for cols in (r.split(",") for r in rows))


def parse_manifest(path: Path) -> tuple[str, dict[str, str]]:
    """(status, {relative path: sha256}) of a run manifest."""
    status, artifacts = "", {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        if key == "status":
            status = value
        elif value.startswith("sha256:"):
            artifacts[key] = value[len("sha256:"):]
    return status, artifacts


def check_run_output(out: Path, labels: list[str]) -> PassOutcome:
    """Checks of one ``run_pipeline`` output directory, one op per activity."""
    manifest = out / "manifest.txt"
    if not manifest.is_file():
        return PassOutcome({label: None for label in labels})
    status, artifacts = parse_manifest(manifest)
    outcome = PassOutcome({}, digest=_sha256_file(manifest))
    for label in labels:
        listed = {rel: h for rel, h in artifacts.items() if rel.startswith(f"{label}/")}
        ok = status == "ok" and bool(listed) and all(
            (out / rel).is_file() and _sha256_file(out / rel) == h
            for rel, h in listed.items())
        metrics = read_metrics(out / label / "metrics.csv") if ok else None
        ok = ok and metrics is not None and pc_rd_ok(out / label / "pc_rd.csv")
        outcome.ops[label] = _digest(sorted(listed.items())) if ok else None
        if ok:
            outcome.emds += [metrics["emd_r"], metrics["emd_d"]]
            outcome.psnr_r2tm_db.append(metrics["psnr_r2tm_db"])
    return outcome


def check_sweep_rows(rows: list[dict], corner_counts: list[int],
                     expected: list[tuple]) -> PassOutcome:
    """One op per expected extraction: present once, 30 corners, finite EMD.

    ``corner_counts`` are the sizes of the corner sets the sweep extracted,
    in call order, which is the order of ``rows``.
    """
    outcome = PassOutcome({})
    found = {}
    if len(corner_counts) == len(rows):
        for row, n in zip(rows, corner_counts):
            key = (row["activity"], row["map"], row["drop_db"], row["seed"])
            emd = row["emd"]
            good = n == 30 and math.isfinite(emd) and key not in found
            found[key] = emd if good else None
    for key in expected:
        emd = found.get(key)
        outcome.ops["/".join(map(str, key))] = None if emd is None else repr(emd)
        if emd is not None and key[2] != 0.0:
            outcome.emds.append(emd)
    outcome.digest = _digest(sorted(outcome.ops.items(), key=lambda kv: kv[0]))
    return outcome


def check_staged_output(out: Path, labels: list[str],
                        exit_codes: dict[str, int | None]) -> PassOutcome:
    """One op per command: exit code 0, and a valid metrics.csv per activity."""
    outcome = PassOutcome({})
    for op, code in exit_codes.items():
        outcome.ops[op] = "0" if code == 0 else None
    for label in labels:
        op = f"{label}/evaluate"
        metrics = read_metrics(out / label / "metrics.csv")
        if metrics is None:
            outcome.ops[op] = None
        elif outcome.ops.get(op) is not None:
            outcome.ops[op] = _sha256_file(out / label / "metrics.csv")
            outcome.emds += [metrics["emd_r"], metrics["emd_d"]]
            outcome.psnr_r2tm_db.append(metrics["psnr_r2tm_db"])
    outcome.digest = _digest(sorted((k, v or "") for k, v in outcome.ops.items()))
    return outcome


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class RunFull:
    """``run_pipeline`` with the default config: 12 activities, noise on."""

    name = "run_full"
    memory_labels = "S5,S8,S12"     # single-threaded tracemalloc pass

    def __init__(self, threads: int):
        self.threads = threads

    def setup(self, seed: int) -> None:
        self.cfg = load_config(None)
        self.cfg.run.seed = seed
        self.labels = self.cfg.activity_list()

    @property
    def items(self) -> int:
        return len(self.labels)

    def run_pass(self, out: Path) -> None:
        pipeline.run_pipeline(self.cfg, out)

    def check(self, out: Path) -> PassOutcome:
        return check_run_output(out, self.labels)

    def memory_pass(self, out: Path) -> PassOutcome:
        cfg = load_config(None)
        cfg.run.seed = self.cfg.run.seed
        cfg.run.activities = self.memory_labels
        saved = os.environ.get("MDCL_THREADS", "0")
        os.environ["MDCL_THREADS"] = "1"
        try:
            pipeline.run_pipeline(cfg, out)
        finally:
            os.environ["MDCL_THREADS"] = saved
        return check_run_output(out, cfg.activity_list())


class Sweep:
    """``sweep_noise`` over precomputed clean results of two activities."""

    name = "sweep"
    labels = ("S8", "S12")
    drops = (4.0, 8.0, 12.0)
    n_seeds = 1

    def __init__(self, threads: int):
        self.threads = threads

    def setup(self, seed: int) -> None:
        cfg = load_config(None)
        cfg.run.seed = seed
        full = cfg.activity_list()
        cfg.run.activities = ",".join(self.labels)
        self.cfg = cfg
        # the clean results are those of the same activities inside run_full
        self.results = {label: pipeline.run_activity(cfg, label, full.index(label))
                        for label in self.labels}
        self.expected = [(label, which, drop, s)
                         for label in self.labels
                         for which in ("r2tm", "d2tm")
                         for drop in (0.0, *self.drops)
                         for s in ([0] if drop == 0.0 else range(self.n_seeds))]

    @property
    def items(self) -> int:
        return len(self.expected)

    def run_pass(self, out: Path) -> None:
        self.counts: list[int] = []
        self.rows: list[dict] = []
        patches = Patches()
        extract = pipeline.extract_corners

        def counted(*args, **kwargs):
            cs = extract(*args, **kwargs)
            self.counts.append(len(cs.corners))
            return cs

        patches.replace(pipeline, "extract_corners", counted)
        try:
            self.rows = pipeline.sweep_noise(self.cfg, self.results,
                                             drops=list(self.drops),
                                             n_seeds=self.n_seeds)
        finally:
            patches.restore()

    def check(self, out: Path) -> PassOutcome:
        outcome = check_sweep_rows(self.rows, self.counts, self.expected)
        outcome.psnr_r2tm_db = [self.results[label].metrics["psnr_r2tm_db"]
                                for label in self.labels]
        return outcome

    def memory_pass(self, out: Path) -> PassOutcome:
        self.run_pass(out)
        return self.check(out)


class Staged:
    """The six stage commands per activity, then ``mncp-verify``, one thread."""

    name = "staged"
    labels = ("S5", "S8", "S12")
    stages = ("simulate", "preprocess", "square", "extract", "fuse", "evaluate")

    def __init__(self, threads: int):
        self.threads = threads

    def setup(self, seed: int) -> None:
        self.seed = seed

    @property
    def items(self) -> int:
        return len(self.labels)

    def _commands(self, out: Path, labels) -> list[tuple[str, list[str]]]:
        common = ["--out", str(out), "--seed", str(self.seed)]
        return [(f"{label}/{stage}", [stage, *common, "--activity", label])
                for label in labels for stage in self.stages]

    def _run(self, commands) -> None:
        self.exit_codes: dict[str, int | None] = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for op, argv in commands:
                try:
                    self.exit_codes[op] = cli.main(argv)
                except SystemExit as exc:       # argparse rejects the argv
                    self.exit_codes[op] = exc.code
                except Exception:               # noqa: BLE001 - counted as failed
                    self.exit_codes[op] = None

    def run_pass(self, out: Path) -> None:
        self._run(self._commands(out, self.labels)
                  + [("mncp-verify", ["mncp-verify", "--seed", str(self.seed)])])

    def check(self, out: Path) -> PassOutcome:
        return check_staged_output(out, list(self.labels), self.exit_codes)

    def memory_pass(self, out: Path) -> PassOutcome:
        self._run(self._commands(out, self.labels[:1]))
        return check_staged_output(out, list(self.labels[:1]), self.exit_codes)


WORKLOADS = {w.name: w for w in (RunFull, Sweep, Staged)}
