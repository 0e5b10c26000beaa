"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds the per-layer metrics
of a traced run, whose spans are written to ``perfbench/.out/``.  The lines
before it are the human-readable report.  The exit code is non-zero when
any op failed the oracle or raised.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("ingest_images_per_s", "images/s"),
    ("session_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
)


def _import_program():
    """Put the checkout's ``src/`` first on the path; refuse any other mipp."""
    if not (SRC / "mipp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'mipp'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mipp

    if Path(mipp.__file__).resolve().parent != (SRC / "mipp").resolve():
        sys.exit(f"perfbench: imported mipp from {mipp.__file__}, not {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' outside a git checkout."""
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path``, from /proc/self/mountinfo."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    with open("/proc/self/mountinfo") as fh:
        for line in fh:
            left, _, right = line.partition(" - ")
            mount_point = left.split()[4]
            inside = target == mount_point or target.startswith(mount_point.rstrip("/") + "/")
            if inside and len(mount_point) >= len(best):
                best, fstype = mount_point, right.split()[0]
    return f"{fstype} at {best}"


def percentile_line(name: str, samples: list[float], scale: float, unit: str) -> str:
    """Median and p90, p90 only where at least ten samples lie beyond it."""
    if not samples:
        return f"{name}_p50: n/a (no samples)"
    values = sorted(v * scale for v in samples)
    text = f"{name}_p50: {statistics.median(values):.4f} {unit} (n={len(values)})"
    if len(values) >= 100:
        p90 = statistics.quantiles(values, n=10)[-1]
        beyond = sum(v > p90 for v in values)
        text += f"; {name}_p90: {p90:.4f} {unit} ({beyond} samples beyond)"
    else:
        text += f"; {name}_p90: not reported (n={len(values)} < 100)"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one process, one thread: keep numpy's BLAS from starting a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_program()
    import numpy as np
    from layers import REQUIRED_LAYERS, metric_names, per_layer_values
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    seed = f"perfbench:{args.workload}:{args.seed}".encode()
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        out = WORKLOADS[args.workload](seed, args.seconds, tracer, work)
        store_fs = filesystem_of(out.store_path) if out.store_path else "none (in memory)"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (BENCH_DIR / ".work").rmdir()
        except OSError:
            pass

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"provenance: git={git_sha()} python={platform.python_version()} "
          f"numpy={np.__version__} nproc={os.cpu_count()} "
          f"params_bits={out.params_bits} store_fs={store_fs}")

    if args.trace:
        values = per_layer_values(tracer)
        overhead = 0.0
        if out.session_s and out.traced_session_s:
            overhead = 1e3 * (statistics.median(out.traced_session_s)
                              - statistics.median(out.session_s))
        values["trace.session_overhead_ms"] = overhead
        print(f"tracing overhead: traced minus untraced session_ms_p50 = {overhead:.4f} ms "
              f"(traced n={len(out.traced_session_s)}, untraced n={len(out.session_s)})")
        missing = [layer for layer in REQUIRED_LAYERS[args.workload]
                   if layer not in tracer.called_layers()]
        for layer in missing:
            out.fail("zero-calls check", f"layer {layer} recorded no calls")
        spans_path = BENCH_DIR / ".out" / f"spans-{args.workload}.tsv"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in metric_names()
        }
    else:
        setup_s = statistics.median(out.setup_s) if out.setup_s else 0.0
        session_ms = 1e3 * statistics.median(out.session_s) if out.session_s else 0.0
        values = {
            "setup_s": setup_s,
            "ingest_images_per_s": out.ingest_images_per_s,
            "session_ms_p50": session_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"setup_s: {setup_s:.4f} s (median of n={len(out.setup_s)} set-ups)")
        print(f"ingest_images_per_s: {out.ingest_images_per_s:.4f} images/s")
        print(percentile_line("session_ms", out.session_s, 1e3, "ms"))
        if out.update_s:
            print(percentile_line("update_ms", out.update_s, 1e3, "ms"))
        if out.wire_bytes:
            print(f"wire_bytes_per_session: {statistics.median(out.wire_bytes):.0f} bytes "
                  f"(median, min {min(out.wire_bytes)}, max {max(out.wire_bytes)}, "
                  f"n={len(out.wire_bytes)})")
        if out.store_bytes_per_image is not None:
            print(f"store_bytes_per_image: {out.store_bytes_per_image:.1f} bytes")
        print(f"peak_rss_mb: {peak_rss_mb:.4f} MiB")

    ratio = out.failed / out.attempted if out.attempted else 1.0
    print(f"ops_failed_ratio: {ratio:.4f} ({out.failed} failed of {out.attempted} attempted)")
    print(f"transcript_digest: sha256={out.digest} ({out.digest_note})")
    correct = out.failed == 0 and out.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
