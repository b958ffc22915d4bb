"""rankmin benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs one workload (see workloads.py) in this process, single-threaded,
for about S seconds and prints every metric with its unit; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced pass.  --out also writes the full
result (seed, samples, machine, check failures) for bench/compare.py.
The exit code is 0 only when every correctness check passed.

The package is imported from the src/ directory next to this one, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("grid-converge", "escape-certify")
SETUP_SAMPLES = 5
MIN_PASSES = 2
# share of --seconds the traced run spends on untraced passes, the
# baseline for the tracing overhead
UNTRACED_SHARE = 0.4


def parse_args(argv):
    p = argparse.ArgumentParser(description="rankmin benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the full result as JSON to this file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_package():
    """Pin BLAS to one thread, then import rankmin from ./src and the
    benchmark modules that depend on it (numpy reads the thread variables
    when it is first imported)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "rankmin", "__init__.py")):
        sys.exit(f"bench: no rankmin package under {SRC}")
    sys.path.insert(0, SRC)
    import rankmin
    if os.path.dirname(os.path.dirname(os.path.abspath(rankmin.__file__))) != SRC:
        sys.exit(f"bench: rankmin imported from {rankmin.__file__}, not from {SRC}")
    import hostspeed
    import workloads
    return hostspeed, workloads


def measure_setup(args) -> list:
    """Seconds from launching a fresh interpreter to rankmin imported and
    the workload inputs built, once per sample."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def one_pass(wl, pass_result):
    t0 = time.perf_counter()
    try:
        return wl.run_pass()
    except Exception as exc:   # a pass that raises fails all of its operations
        msg = f"pass raised {type(exc).__name__}: {exc}"
        return pass_result(time.perf_counter() - t0, wl.operations, [msg] * wl.operations, 0, [], "")


def run_passes(wl, pass_result, ref, seconds: float, min_passes: int) -> list:
    """Repeat the workload's pass until another one would overrun `seconds`,
    with reference slices interleaved (see hostspeed.py); pass times
    exclude the slices."""
    start = time.perf_counter()
    passes = []
    ref.run()
    with ref.interleaved(*wl.interleave):
        while True:
            before = ref.seconds
            p = one_pass(wl, pass_result)
            p.seconds -= ref.seconds - before
            passes.append(p)
            ref.run()
            elapsed = time.perf_counter() - start
            typical = elapsed / len(passes)
            if len(passes) >= min_passes and elapsed + typical > seconds:
                return passes


def machine_info() -> dict:
    import numpy as np
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "rankmin")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    hostspeed, workloads = load_package()
    os.makedirs(SCRATCH, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, SCRATCH)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    failures = []
    samples = {}
    ref = hostspeed.Reference()
    if args.trace:
        import micro
        import spans
        passes = run_passes(wl, workloads.PassResult, ref, UNTRACED_SHARE * args.seconds, 1)
        untraced = statistics.median(p.seconds for p in passes)
        metrics = micro.microbenchmarks()
        tracer = spans.Tracer().install(extra_modules=(workloads,))
        try:
            traced = one_pass(wl, workloads.PassResult)
        finally:
            tracer.uninstall()
        passes.append(traced)
        metrics.update(spans.layer_metrics(tracer))
        metrics.update(micro.per_iteration_counts())
        metrics["solvers.ok_runs"] = (traced.ok_runs, "count")
        metrics["trace.overhead_s"] = (traced.seconds - untraced, "s")
        if tracer.missing:
            print("note: not traced (absent from rankmin): " + ", ".join(tracer.missing))
        samples["untraced_wall_s"] = [p.seconds for p in passes[:-1]]
    else:
        setup = measure_setup(args)
        passes = run_passes(wl, workloads.PassResult, ref, args.seconds, MIN_PASSES)
        first = passes[0]
        scale = ref.scale()
        metrics = {
            "setup_s": (statistics.median(setup) * scale, "s"),
            "norm_wall_s": (statistics.fmean(p.seconds for p in passes) * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "iters_to_tol_p50": (float(statistics.median(first.iters)) if first.iters else 0.0, "iters"),
        }
        samples["setup_probe_s"] = setup
        samples["pass_s"] = [p.seconds for p in passes]
        samples["ref_iterations"] = ref.iterations
        samples["ref_s"] = ref.seconds
        samples["ok_runs"] = first.ok_runs

    attempted = sum(p.attempted for p in passes)
    failed = sum(min(len(p.failures), p.attempted) for p in passes)
    for p in passes:
        failures.extend(p.failures)
    # every pass must reproduce the first pass's outputs exactly
    mismatched = sum(p.fingerprint != passes[0].fingerprint for p in passes[1:])
    attempted += len(passes) - 1
    failed += mismatched
    if mismatched:
        failures.append(f"{mismatched} passes produced outputs that differ from the first")
    try:
        os.rmdir(SCRATCH)
    except OSError:
        pass

    correct = failed == 0
    machine = machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"passes = {len(passes)}; error_rate = {failed / attempted!r} ({failed}/{attempted})")
    for msg in failures[:20]:
        print(f"FAILED: {msg}")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        full = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, passes=len(passes), samples=samples,
                    failures=failures[:100], machine=machine)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
