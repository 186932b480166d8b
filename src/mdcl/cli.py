"""Command-line interface.

Subcommands mirror the pipeline stages so intermediate artifacts can be
regenerated one step at a time; ``run`` executes the whole chain for every
selected activity and writes the run manifest.  Exit codes: 0 success,
2 configuration error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from mdcl import __version__
from mdcl.activities import activity
from mdcl.artifacts import read_corners, write_heatmap, write_sweep
from mdcl.config import ConfigError, PipelineConfig, load_config
from mdcl.fileio import read_matrix
from mdcl.maps import normalize
from mdcl.mncp import curve_models, verify_mncp
from mdcl.pipeline import (STAGES, StageError, run_pipeline, run_stage,
                           sweep_noise, sweep_summary)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mdcl",
        description="Through-wall radar micro-Doppler corner pipeline")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def configured(p):
        p.add_argument("--config", type=Path, default=None,
                       help="pipeline config file (defaults built in)")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        return p

    def writing(p):
        configured(p).add_argument("--out", type=Path, default=Path("out"),
                                   help="output directory (default out)")
        return p

    for stage in STAGES:
        writing(sub.add_parser(stage.name, help=stage.fn.__doc__)).add_argument(
            "--activity", default="S8", help="activity label S1..S12 (default S8)")

    configured(sub.add_parser("mncp-verify", help="verify curve reconstruction counts"))
    writing(sub.add_parser("sweep-noise", help="noise-robustness sweep"))

    p = sub.add_parser("render", help="render a matrix file as a PGM heatmap")
    p.add_argument("matrix", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--corners", type=Path, default=None,
                   help="corner CSV to overlay")

    p = writing(sub.add_parser("run", help="run every stage for all selected activities"))
    p.add_argument("--activity", default=None,
                   help="restrict to a comma-separated activity subset")
    return ap


def _load(args) -> PipelineConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.run.seed = args.seed
    if args.command == "run" and args.activity is not None:
        cfg.run.activities = args.activity
    cfg.validate()
    return cfg


def _cmd_mncp_verify(cfg: PipelineConfig) -> int:
    failures = 0
    for name, model in curve_models(cfg.scene_params()).items():
        report = verify_mncp(model)
        failures += not report.holds
        deficient = ("n/a" if report.deficient_below is None
                     else str(report.deficient_below).lower())
        print(f"{name:<16} mncp={model.mncp} sufficient={report.sufficient_at_mncp} "
              f"deficient_below={deficient} {report.criterion}="
              f"{getattr(report.fit, report.criterion):.3e} (tol {report.tolerance:.0e})")
    return failures


def _cmd_sweep(cfg: PipelineConfig, out: Path) -> None:
    rows = sweep_noise(cfg)
    rec = write_sweep(cfg, out, rows)
    for drop, stats in sweep_summary(rows).items():
        print(f"drop {drop:>5.1f} dB: mean EMD {stats['mean']:.4f} "
              f"(sem {stats['sem']:.4f}, n={stats['count']})")
    for path in rec.files:
        print(f"wrote {path}")


def _cmd_render(args) -> None:
    data = read_matrix(args.matrix)
    # widened first: the magnitude of a complex64 value is float32
    img = normalize(np.abs(data.astype(complex)) if np.iscomplexobj(data) else data)
    corners = (read_corners(args.corners, img.shape).corners
               if args.corners is not None else ())
    write_heatmap(args.output, img, corners)
    print(f"wrote {args.output}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "render":
            _cmd_render(args)
            return EXIT_OK
        cfg = _load(args)
        if args.command == "run":
            manifest = run_pipeline(cfg, args.out)
            print((args.out / "manifest.txt").resolve())
            return EXIT_OK if manifest.status == "ok" else EXIT_STAGE
        if args.command == "mncp-verify":
            return EXIT_STAGE if _cmd_mncp_verify(cfg) else EXIT_OK
        if args.command == "sweep-noise":
            _cmd_sweep(cfg, args.out)
            return EXIT_OK
        label = args.activity
        activity(label)     # validate the label before touching files
        res = run_stage(cfg, args.out, label, args.command)
        for path in res.records[0].files:
            print(f"wrote {path}")
        for k, v in sorted(getattr(res, "metrics", {}).items()):
            print(f"{label} {k} = {v:.4f}")
        return EXIT_OK
    except (ConfigError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StageError, OSError, ValueError) as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
