"""Run one bicmlab benchmark workload and print its metrics.

    python3 bench/run.py --workload pinv-qam16 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run and its self-time
table.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# BLAS threads x harness workers must not exceed the cores, or the BLAS
# pool and the harness pool oversubscribe them (about 12k against 16k
# frames/s on pinv-qam16 with OpenBLAS's default).  The count is fixed when
# numpy loads OpenBLAS, so it is set here, before anything imports numpy.
# The divisor is workloads.SWEEP_WORKERS, which main() checks.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = max(1, NPROC // 2)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 3       # setup_s is the median of this many set-ups
MIN_OPS = 3             # timed operations per run, even past --seconds
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up and warm up, print setup_s, exit")
    return p.parse_args(argv)


def process_age_s() -> float:
    """Seconds since this process started, to the clock tick (10 ms)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime", encoding="ascii") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


# Process start on the perf_counter clock, so set-up times keep all digits.
T_START = time.perf_counter() - process_age_s()


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def blas_runtime_threads():
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import ctypes
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def provenance(args, workload) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": NPROC, "cpu": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": blas_runtime_threads(),
        "harness_workers": workload.workers, "git_commit": git_commit(),
    }


class Run:
    """Operations attempted and failed, with the outputs of those that passed."""

    def __init__(self, wl, workload, golden, workdir):
        self.wl, self.workload, self.golden = wl, workload, golden
        self.workdir = workdir
        self.attempted = self.failed = 0
        self.extra = None

    def op(self, seed, first=None, before=None, after=None, workers=None):
        """Run and check one operation; returns its OpResult or None."""
        self.attempted += 1
        try:
            if self.extra is None:
                self.extra = self.workload.prepare(self.workdir)
            if before:
                before()
            try:
                res = self.workload.run(seed, self.extra, self.workdir,
                                        workers)
            finally:
                if after:
                    after()
            self.wl.check_op(self.workload, res, self.golden, seed, first)
            return res
        except Exception:
            self.failed += 1
            log(f"operation failed (seed {seed}):\n{traceback.format_exc()}")
            return None

    def setup(self):
        """Write inputs, then one untimed warm-up at the reference seed.

        The warm-up runs on one harness worker: its counts must still equal
        the golden ones recorded with two, and with one worker no chunk past
        the stop point races for the estimator lock, which would make the
        set-up time jump between two and four chunk predictions.
        """
        warm = self.op(self.wl.REFERENCE_SEED, workers=1)
        return time.perf_counter() - T_START, warm


def child_setup_s(args) -> float | None:
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--setup-only"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("set-up child timed out")
        return None
    if out.returncode != 0:
        log(f"set-up child failed:\n{out.stderr}")
        return None
    return float(out.stdout.strip().splitlines()[-1])


def fps(results) -> float:
    """Frames per wall second over all operations.

    Not a median over operations: the wall time of one sbnd point takes two
    to four chunk predictions, depending on which chunk wins the estimator
    lock, and a median of a few such points jumps between those modes.
    """
    return sum(r.frames for r in results) / sum(r.wall_s for r in results)


def timed_ops(run, args, traced_every=0, tracer=None):
    """Operations at --seed until --seconds pass; returns (plain, traced)."""
    plain, traced = [], []
    first = None
    min_ops = MIN_OPS + (1 if traced_every else 0)
    t0 = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - t0 < args.seconds:
        hooks = {}
        if traced_every and i % traced_every == traced_every - 1:
            hooks = {"before": lambda: tracer.begin_op(
                         run.workload.kind, run.workload.batch_size),
                     "after": tracer.uninstall}
        res = run.op(args.seed, first, **hooks)
        if res is None and hooks:
            tracer.drop_op()
        elif res is not None:
            first = first or res
            if hooks:
                tracer.end_op(res.wall_s, res.frames, run.workload.workers)
                traced.append(res)
            else:
                plain.append(res)
        i += 1
    return plain, traced


def emit(run, metrics: dict, spec: list, summary: dict) -> None:
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in spec}
    for name, val in out.items():
        print(f"  {name:34s} {val['value']:14.6g} {val['unit']}")
    print(f"  {'ops_attempted':34s} {run.attempted:14d}")
    print(f"  {'ops_failed':34s} {run.failed:14d}")
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": out}), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "bicmlab")):
        log(f"no bicmlab sources under {SRC}; run from a repository checkout")
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads as wl
    if BLAS_THREADS != max(1, NPROC // wl.SWEEP_WORKERS):
        raise RuntimeError("run.py BLAS pin is out of step with "
                           "workloads.SWEEP_WORKERS")
    if args.workload not in wl.WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(wl.WORKLOADS)}")
        return 2
    workload = wl.WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        run = Run(wl, workload, wl.load_golden(), workdir)
        setup_s, warm = run.setup()
        if args.setup_only:
            if warm is None:
                return 1
            print(repr(setup_s))
            return 0
        return measure(args, run, setup_s, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, run, setup_s, spec) -> int:
    workload = run.workload
    prov = provenance(args, workload)
    summary = {"provenance": prov, "setup_s_main": setup_s}

    if args.trace:
        import spans
        tracer = spans.Tracer()
        plain, traced = timed_ops(run, args, traced_every=2, tracer=tracer)
        if not plain or not traced:
            return 1
        plain_fps, traced_fps = fps(plain), fps(traced)
        metrics = spans.per_layer_metrics(tracer, workload.model_config())
        metrics["trace.overhead_pct"] = 100 * (plain_fps - traced_fps) / plain_fps
        print(f"{workload.name} seed {args.seed}: traced self time\n"
              + spans.format_table(tracer))
        path = os.path.join(WORK_DIR,
                            f"trace-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(path)
        summary.update(untraced_frames_per_s=plain_fps,
                       traced_frames_per_s=traced_fps, spans=path)
        print(f"{workload.name}: {len(tracer.spans)} spans -> {path}")
        emit(run, metrics, spec["per_layer"], summary)
        return 0

    plain, _ = timed_ops(run, args)
    if not plain:
        return 1
    rates = [r.frames / r.wall_s for r in plain]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s]
    for _ in range(SETUP_REPEATS - 1):
        run.attempted += 1
        child = child_setup_s(args)
        if child is None:
            run.failed += 1
        else:
            setups.append(child)
    metrics = {"frames_per_s": fps(plain),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb}
    summary.update(frames_per_s_all=rates, setup_s_all=setups)
    if workload.kind == "train":
        steps_per_s = metrics["frames_per_s"] / workload.batch_size
        summary["train_steps_per_s"] = steps_per_s
        print(f"  {'train_steps_per_s':34s} {steps_per_s:14.6g} 1/s")
    print(f"{workload.name} seed {args.seed}: {len(rates)} timed ops")
    emit(run, metrics, spec["end_to_end"], summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
