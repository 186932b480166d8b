"""Which mdcl functions are traced, and the per-layer metrics built from them.

``PER_LAYER`` is the single list of per-layer metric names and units; the
``per_layer`` section of BENCHMARK.json repeats it (a test keeps the two
equal).  Every metric is printed on every workload: a function a workload
never calls reports 0 calls, and a function a commit no longer defines is
listed as absent and reported as 0.
"""

from __future__ import annotations

import numpy as np

from tracing import PeakTracker, Patches, SpanStats, Target, Tracer, wrap_everywhere

TARGETS = (
    Target("echo", "synth_frame", stage=True),
    Target("motion", "node_distance"),
    Target("motion", "activity_keypoints"),
    Target("preprocess", "preprocess_frame", stage=True),
    Target("preprocess", "beat_spectrum"),
    Target("preprocess", "mti_filter"),
    Target("preprocess", "make_rtm"),
    Target("preprocess", "make_dtm"),
    Target("preprocess", "emd_denoise"),
    Target("preprocess", "stft_magnitude"),
    Target("pipeline", "square_maps", stage=True),
    Target("squaring", "decimate_rows"),
    Target("squaring", "square_range_axis"),
    Target("squaring", "square_doppler_axis"),
    Target("squaring", "resample_rows"),
    Target("corners", "corner_response"),
    Target("corners", "extract_corners", stage=True),
    Target("corners", "fuse_pc_rd", stage=True),
    Target("pipeline", "evaluate_activity", stage=True),
    Target("groundtruth", "groundtruth_corners"),
    Target("groundtruth", "rasterize_rtm"),
    Target("groundtruth", "rasterize_dtm"),
    Target("metrics", "emd_distance"),
    Target("metrics", "psnr"),
    Target("metrics", "add_image_noise"),
    Target("metrics", "verify_mncp"),
    Target("pipeline", "run_activity", stage=True),
    Target("pipeline", "write_activity_artifacts", stage=True),
    Target("pipeline", "run_pipeline"),
    Target("pipeline", "sweep_noise", stage=True),
    Target("fileio", "write_matrix"),
    Target("fileio", "read_matrix"),
    Target("fileio", "write_csv"),
    Target("fileio", "write_pgm"),
    Target("cli", "main", stage=True),
)

CLI_COMMANDS = ("simulate", "preprocess", "square", "extract", "fuse",
                "evaluate", "mncp-verify")

# spans that are an activity's work on a pool worker (for worker_busy_frac)
JOB_SPANS = ("pipeline.run_activity", "pipeline.write_activity_artifacts")


def _per_layer() -> tuple[tuple[str, str], ...]:
    out: list[tuple[str, str]] = []
    for t in TARGETS:
        if t.name == "cli.main":
            out.append(("cli.main.calls", "count"))
            out += [(f"cli.main.{c}.self_s", "s") for c in CLI_COMMANDS]
        else:
            out += [(f"{t.name}.calls", "count"), (f"{t.name}.self_s", "s")]
        if t.stage:
            out.append((f"{t.name}.peak_mib", "MiB"))
        if t.name == "pipeline.run_activity":
            out += [("pipeline.run_activity.p50_s", "s"),
                    ("pipeline.run_activity.max_s", "s")]
        if t.name == "fileio.read_matrix":
            out.append(("fileio.read_matrix.bytes", "B"))
    out += [
        ("preprocess.emd_denoise.mode_removed_frac", "frac"),
        ("corners.padded_frac", "frac"),
        ("corners.fuse_flagged_frac", "frac"),
        ("groundtruth.clamped", "count"),
        ("pipeline.worker_busy_frac", "frac"),
        ("trace_overhead_frac", "frac"),
        ("trace.steal_frac", "frac"),
        ("trace.uncovered_s.main", "s"),
        ("trace.uncovered_s.workers", "s"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# observers: counts taken where the work happens
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _observe_emd(tracer: Tracer, args, kwargs, result) -> None:
    x = np.asarray(_arg(args, kwargs, 0, "signal"))
    if not np.iscomplexobj(x):          # complex input recurses per component
        tracer.count("emd.attempts")
        tracer.count("emd.removed", float(not np.array_equal(result, x)))


def _observe_corners(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("corners.total", len(result.corners))
    tracer.count("corners.padded", sum(c.padded for c in result.corners))


def _observe_fuse(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("fuse.total", len(result.flagged))
    tracer.count("fuse.flagged", sum(result.flagged))


def _observe_truth(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("groundtruth.clamped", result.clamped)


def _observe_read(tracer: Tracer, args, kwargs, result) -> None:
    # header plus one little-endian float32 per real or imaginary part
    per_value = 8 if np.iscomplexobj(result) else 4
    tracer.count("read_matrix.bytes", 12 + per_value * result.size)


OBSERVERS = {
    "preprocess.emd_denoise": _observe_emd,
    "corners.extract_corners": _observe_corners,
    "corners.fuse_pc_rd": _observe_fuse,
    "groundtruth.groundtruth_corners": _observe_truth,
    "fileio.read_matrix": _observe_read,
}


def _cli_argv(args, kwargs) -> list[str]:
    argv = _arg(args, kwargs, 0, "argv")
    return list(argv) if argv else []


def _cli_activity(args, kwargs) -> str | None:
    argv = _cli_argv(args, kwargs)
    return argv[argv.index("--activity") + 1] if "--activity" in argv[:-1] else None


ACTIVITY_OF = {
    "pipeline.run_activity": lambda a, k: _arg(a, k, 1, "label"),
    "pipeline.evaluate_activity": lambda a, k: _arg(a, k, 1, "label"),
    "pipeline.write_activity_artifacts": lambda a, k: _arg(a, k, 1, "res").label,
    "corners.extract_corners": lambda a, k: str(_arg(a, k, 1, "map_id")).split("/")[0],
    "cli.main": _cli_activity,
}

NAMERS = {
    "cli.main": lambda a, k: "cli.main." + (_cli_argv(a, k) or ["?"])[0],
}


def _guarded(fn):
    """Attribute lookups on a later commit's types must not fail a call."""
    def safe(*args):
        try:
            return fn(*args)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError):
            return None
    return safe


def install_spans(tracer: Tracer, patches: Patches) -> list[str]:
    """Wrap every target with a span; returns the absent target names."""
    absent = []
    for t in TARGETS:
        def make(fn, t=t):
            return tracer.wrap(
                t.name, fn,
                namer=_guarded(NAMERS[t.name]) if t.name in NAMERS else None,
                activity_of=_guarded(ACTIVITY_OF[t.name]) if t.name in ACTIVITY_OF else None,
                observer=_guarded(OBSERVERS[t.name]) if t.name in OBSERVERS else None)
        if not wrap_everywhere(patches, t, make):
            absent.append(t.name)
    return absent


def install_peaks(tracker: PeakTracker, patches: Patches) -> None:
    """Wrap the stage-level targets with a tracemalloc peak."""
    for t in TARGETS:
        if t.stage:
            wrap_everywhere(patches, t, lambda fn, t=t: tracker.wrap(t.name, fn))


# ---------------------------------------------------------------------------
# assembling the per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(stats: dict[str, SpanStats], counters: dict[str, float],
                     peaks_mib: dict[str, float], *, overhead_frac: float,
                     steal_frac: float, uncovered_main: float,
                     uncovered_workers: float, workers: int) -> dict[str, float]:
    """Every name in PER_LAYER mapped to its value (0 where never called)."""
    def st(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    values: dict[str, float] = {}
    for t in TARGETS:
        if t.name == "cli.main":
            values["cli.main.calls"] = sum(
                s.calls for n, s in stats.items() if n.startswith("cli.main."))
            for c in CLI_COMMANDS:
                values[f"cli.main.{c}.self_s"] = st(f"cli.main.{c}").self_s
        else:
            values[f"{t.name}.calls"] = st(t.name).calls
            values[f"{t.name}.self_s"] = st(t.name).self_s
        if t.stage:
            values[f"{t.name}.peak_mib"] = peaks_mib.get(t.name, 0.0)
    values["pipeline.run_activity.p50_s"] = st("pipeline.run_activity").p50()
    values["pipeline.run_activity.max_s"] = st("pipeline.run_activity").max()
    values["fileio.read_matrix.bytes"] = counters.get("read_matrix.bytes", 0.0)

    c = counters.get
    values["preprocess.emd_denoise.mode_removed_frac"] = _ratio(
        c("emd.removed", 0.0), c("emd.attempts", 0.0))
    values["corners.padded_frac"] = _ratio(c("corners.padded", 0.0), c("corners.total", 0.0))
    values["corners.fuse_flagged_frac"] = _ratio(c("fuse.flagged", 0.0), c("fuse.total", 0.0))
    values["groundtruth.clamped"] = c("groundtruth.clamped", 0.0)
    pipeline_wall = sum(st("pipeline.run_pipeline").durations)
    job_time = sum(sum(st(n).durations) for n in JOB_SPANS)
    values["pipeline.worker_busy_frac"] = _ratio(job_time, workers * pipeline_wall)
    values["trace_overhead_frac"] = overhead_frac
    values["trace.steal_frac"] = steal_frac
    values["trace.uncovered_s.main"] = uncovered_main
    values["trace.uncovered_s.workers"] = uncovered_workers
    return values
