"""mdcl benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload run_full --seed 1 --seconds 15 --trace 0

Workloads are ``run_full``, ``sweep`` and ``staged`` (see README.md).  With
``--trace 0`` a run times whole passes until ``--seconds`` have passed and
prints the end-to-end metrics; with ``--trace 1`` it times one untraced
pass, one pass with a span around every traced mdcl function and one
single-threaded pass under ``tracemalloc``, and prints the per-layer
metrics.  Every pass's outputs are checked, and every pass after the first
must reproduce the first pass's outputs.  Times in the metrics leave out the
share of each interval that the hypervisor gave the machine's CPUs to other
guests (steal); the raw wall times are in the context line.  The last line
of standard output is the result; the line before it records the machine,
the code and the output digest the numbers belong to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("run_full", "sweep", "staged")
IMPORT_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "emd_mean": "uv",
    "emd_max": "uv",
    "psnr_r2tm_min_db": "dB",
    "ok_frac": "frac",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workload_threads(name: str) -> int:
    """run_full uses the pipeline's default pool; sweep and staged one thread."""
    return min(4, nproc()) if name == "run_full" else 1


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, busy + steal) CPU ticks of the machine from /proc/stat.

    busy is user, nice, system, irq and softirq: every tick a CPU wanted
    to run is either busy or stolen by the hypervisor for another guest.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
        user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields)
    except (OSError, ValueError):
        return None
    return steal, user + nice + system + irq + softirq + steal


def steal_frac(before, after) -> float:
    """Share of the ticks CPUs wanted to run in between that were stolen."""
    if before is None or after is None or after[1] == before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def machine_info() -> dict:
    import numpy
    import scipy
    return {"cpu": cpu_model(), "nproc": nproc(), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def fresh_import_s() -> float:
    """Wall time of ``import mdcl.cli`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mdcl.cli"], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def one_pass(wl, out: Path, log: list, instrument=None):
    """Run and check one pass; returns (start, wall s, unstolen s, PassOutcome).

    The unstolen time is the wall time less the share of it the hypervisor
    gave the machine's CPUs to other guests (steal, from /proc/stat).
    ``instrument``, when given, installs wrappers just before the pass and
    returns the Patches that remove them just after it.
    """
    patches = instrument() if instrument else None
    ticks = cpu_ticks()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        wl.run_pass(out)
    except Exception:           # noqa: BLE001 - the check counts the failure
        traceback.print_exc()
    finally:
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        stolen = steal_frac(ticks, cpu_ticks())
        if patches is not None:
            patches.restore()
    outcome = wl.check(out)
    shutil.rmtree(out, ignore_errors=True)
    unstolen = elapsed * (1.0 - stolen)
    log.append({"pass": out.name, "pass_s": elapsed, "cpu_s": cpu,
                "steal_frac": stolen, "unstolen_s": unstolen,
                "failed": outcome.failed, "ops": len(outcome.ops)})
    return start, elapsed, unstolen, outcome


def tally(outcomes, extra=()) -> tuple[int, int]:
    """(attempted, failed); a pass whose digests differ from the first fails."""
    reference = outcomes[0].ops
    attempted = failed = 0
    for o in outcomes:
        for op, d in o.ops.items():
            attempted += 1
            failed += d is None or (reference.get(op) is not None and d != reference[op])
    for o in extra:
        attempted += len(o.ops)
        failed += o.failed
    return attempted, failed


def end_to_end(wl, seconds: float, work: Path, setup_s: float, log: list):
    times, outcomes = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        _, _, t, o = one_pass(wl, work / f"pass{len(times)}", log)
        times.append(t)
        outcomes.append(o)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = tally(outcomes)
    first = outcomes[0]
    wall = statistics.median(times)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": wl.items / wall,
        "peak_rss_mib": peak_rss_mib,
        "emd_mean": statistics.fmean(first.emds) if first.emds else 0.0,
        "emd_max": max(first.emds, default=0.0),
        "psnr_r2tm_min_db": min(first.psnr_r2tm_db, default=0.0),
        "ok_frac": 1.0 - failed / attempted,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return attempted, failed, metrics, first.digest


def per_layer(wl, work: Path, log: list, details: dict):
    import layers
    from tracing import Patches, PeakTracker, Tracer, aggregate, uncovered_by_thread

    _, _, plain_s, plain = one_pass(wl, work / "plain", log)

    tracer = Tracer()
    absent: list[str] = []

    def install_spans() -> Patches:
        patches = Patches()
        absent.extend(layers.install_spans(tracer, patches))
        return patches

    start, traced_wall, traced_s, traced = one_pass(wl, work / "traced", log,
                                                    install_spans)

    spans = tracer.spans()
    uncovered = uncovered_by_thread(spans, tracer.main_thread,
                                    (start, start + traced_wall))
    stats = aggregate(spans)

    tracker, patches = PeakTracker(), Patches()
    tracemalloc.start()
    try:
        layers.install_peaks(tracker, patches)
        memory = wl.memory_pass(work / "memory")
    finally:
        patches.restore()
        tracemalloc.stop()
    shutil.rmtree(work / "memory", ignore_errors=True)

    values = layers.per_layer_values(
        stats, tracer.counters, tracker.peaks_mib,
        overhead_frac=traced_s / plain_s - 1.0,
        steal_frac=1.0 - traced_s / traced_wall,
        uncovered_main=uncovered.pop(tracer.main_thread),
        uncovered_workers=sum(uncovered.values()),
        workers=wl.threads)
    units = dict(layers.PER_LAYER)
    metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in layers.PER_LAYER}
    attempted, failed = tally([plain, traced], extra=[memory])

    per_activity: dict[str, dict[str, float]] = {}
    for s in spans:
        if s.activity:
            row = per_activity.setdefault(s.activity, {})
            row[s.name] = row.get(s.name, 0.0) + s.duration
    details.update(absent=absent, traced_over_plain=traced_s / plain_s,
                   uncovered_worker_s=sorted(uncovered.values()),
                   counters=tracer.counters, inclusive_s_by_activity=per_activity)
    if absent:
        print("absent per-layer functions (reported as 0): " + ", ".join(absent))
    return attempted, failed, metrics, plain.digest


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mdcl" / "__init__.py").is_file():
        print(f"error: mdcl sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = workload_threads(args.workload)
    os.environ["MDCL_THREADS"] = str(threads)
    if threads == 1:
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", "undulation amplitude is not small")

    import workloads

    ticks = cpu_ticks()
    import_s = [fresh_import_s() for _ in range(IMPORT_REPEATS)]
    wl = workloads.WORKLOADS[args.workload](threads)
    start = time.perf_counter()
    wl.setup(args.seed)
    build_s = time.perf_counter() - start
    setup_steal = steal_frac(ticks, cpu_ticks())
    setup_s = (statistics.median(import_s) + build_s) * (1.0 - setup_steal)

    work = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    log: list = []
    details: dict = {}
    try:
        if args.trace:
            attempted, failed, metrics, digest = per_layer(wl, work, log, details)
        else:
            attempted, failed, metrics, digest = end_to_end(
                wl, args.seconds, work, setup_s, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "MDCL_THREADS": threads,
        "git_sha": git_sha(ROOT), "src_sha256": source_digest(SRC),
        "output_digest": digest, "machine": machine_info(),
        "host_steal_frac": steal_frac(ticks, cpu_ticks()),
        "setup_steal_frac": setup_steal, "import_s": import_s,
        "build_s": build_s, "passes": log, **details,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
