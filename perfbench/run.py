"""qsu2 benchmark: closed-loop, single-client runs of seeded CLI workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  Prints a human-readable report, then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS and OpenMP run one thread, set before numpy is first imported (here
# or in a child): the single client then needs one core, and its timings do
# not depend on whether the host leaves a second core free.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 7
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import qsu2.cli; qsu2.cli.main(['--version'])"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "git_sha": sha,
        "seed": seed,
    }


def measure_setup(runs: int = SETUP_RUNS) -> tuple[list[float], list[float]]:
    """Wall seconds for a fresh interpreter to import the CLI and answer
    --version, and reference-kernel times taken before each and after the last."""
    from speed import kernel_s

    times, samples = [], []
    kernel_s()  # first touch of the kernel's memory, not a sample
    for _ in range(runs):
        # the child has just evicted the kernel's arrays from the caches
        samples.append(min(kernel_s() for _ in range(3)))
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # a blocking wait: wait(timeout=...) polls, which rounds times up to 50 ms
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        rc = child.wait()
        times.append(time.perf_counter() - t0)
        watchdog.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, child.args)
    samples.append(min(kernel_s() for _ in range(3)))
    return times, samples


def run_rounds(workload: str, seed: int, seconds: float, scratch: Path, samples: list | None = None):
    """Warm up on one round, then run whole rounds until `seconds` have
    passed; returns (warm-up outcomes, measured outcomes).  With `samples`,
    the reference kernel is timed before each measured operation and after
    the last, into that list."""
    from speed import kernel_s
    from workloads import ANCHORS, execute, rounds

    def measured(op):
        if samples is not None:
            samples.append(kernel_s())
        return execute(op, scratch)

    gen = rounds(workload, seed)
    warm = [execute(op, scratch) for op in next(gen)]
    out = []
    t0 = time.perf_counter()
    for op in ANCHORS[workload]:
        out.append(measured(op))
    while not out or time.perf_counter() - t0 < seconds:
        out.extend(measured(op) for op in next(gen))
    if samples is not None:
        samples.append(kernel_s())
    return warm, out


def end_to_end(workload: str, seed: int, seconds: float, scratch: Path):
    """End-to-end metrics in reference-speed seconds (see speed.py), and
    the same figures in plain wall time for the report."""
    from speed import factors

    setup, setup_samples = measure_setup()
    samples = []
    warm, out = run_rounds(workload, seed, seconds, scratch, samples)
    for o, f in zip(out, factors(samples)):
        o.scale = f
    wall = [o.latency for o in out]
    lat = [o.latency * o.scale for o in out]
    ref_setup = [t * f for t, f in zip(setup, factors(setup_samples))]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    for prefix, times, setups in (("wall.", wall, setup), ("", lat, ref_setup)):
        metrics.update({
            prefix + "setup_s": (statistics.median(setups), "s", len(setups)),
            prefix + "ops_per_s": (len(times) / sum(times), "1/s", len(times)),
            prefix + "latency_p50_s": (float(np.percentile(times, 50)), "s", len(times)),
            prefix + "latency_p90_s": (float(np.percentile(times, 90)), "s", len(times)),
        })
    metrics["speed.kernel_s"] = (statistics.median(samples), "s", len(samples))
    metrics["peak_rss_mb"] = (rss, "MB", 1)
    return warm + out, out, metrics


def traced(workload: str, seed: int, seconds: float, scratch: Path):
    """Run the workload untraced for a quarter of the time, replay the same
    operations traced, then the size-keyed cliff table, traced."""
    from cliffs import CLIFFS, cliff_metrics
    from spans import Tracer
    from workloads import execute

    warm, plain = run_rounds(workload, seed, seconds / 4.0, scratch)
    tracer = Tracer()
    with tracer.installed():
        replay = [execute(o.op, scratch, lambda op, call, i=i: tracer.on_call(i, call))
                  for i, o in enumerate(plain)]
        base = len(replay)
        cliff_out = [execute(op, scratch, lambda op, call, i=base + j: tracer.on_call(i, call))
                     for j, (_, op) in enumerate(CLIFFS)]
    traced_s = sum(o.latency for o in replay)
    metrics = {name: (value, "", 0) for name, value in tracer.layer_metrics().items()}
    metrics.update(cliff_metrics(tracer, base))
    metrics["trace.overhead_s"] = (traced_s - sum(o.latency for o in plain), "s", len(replay))
    metrics["trace.coverage"] = (tracer.covered(set(range(base))) / traced_s, "ratio", len(replay))
    return warm + plain + replay + cliff_out, replay, metrics


def report(workload, seed, trace, env, outcomes, timed, metrics, declared):
    failed = [o for o in outcomes if o.error]
    print(f"perfbench env {json.dumps(env, sort_keys=True)}")
    print(f"perfbench workload={workload} seed={seed} trace={trace} "
          f"timed_ops={len(timed)} attempted={len(outcomes)} failed={len(failed)} "
          f"error_rate={len(failed) / len(outcomes):.6g}")
    kinds = {}
    for o in timed:
        kinds.setdefault(o.op.kind, []).append(o)
    for kind, outs in sorted(kinds.items()):
        lat = [o.latency for o in outs]
        line = f"  op {kind:<17} n={len(lat):<5} wall p50={statistics.median(lat):.6f} s  max={max(lat):.6f} s"
        if outs[0].scale is not None:
            line += f"  ref p50={statistics.median(o.latency * o.scale for o in outs):.6f} s"
        print(line)
    for name, (value, unit, n) in metrics.items():
        unit = declared.get(name, unit)
        print(f"  {name:<40} {value:>18.6f} {unit:<6}" + (f" n={n}" if n else ""))
    for o in failed[:5]:
        print(f"FAILED {o.op.kind} {o.op.params}: {o.error}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "qsu2" / "cli.py").is_file():
        print(f"perfbench: no qsu2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else end_to_end
        outcomes, timed, metrics = run(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    report(args.workload, args.seed, args.trace, environment(args.seed), outcomes, timed, metrics, declared)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    failed = sum(1 for o in outcomes if o.error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": declared[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
