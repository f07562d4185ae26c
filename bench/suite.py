"""Run every workload once, print its end-to-end metrics and check outputs.

    python3 bench/suite.py [--seed 1] [--trace] [--out FILE]

Each workload runs in its own process through run.py, for the run_seconds
of BENCHMARK.json.  The table gives the
throughput (frames_per_s, or train_steps_per_s on train-rnn), setup_s,
peak_rss_mb, ops_attempted and ops_failed; --trace adds a traced run per
workload.  Every metric, the provenance block and the per-layer metrics go
to --out as JSON.  Exits non-zero if any operation failed.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_workload(name: str, args, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=900)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{name}: run.py exited {out.returncode}")
    if trace:
        print("\n".join(lines[:-2]))
    result = json.loads(lines[-1])
    summary = json.loads(lines[-2].removeprefix("summary "))
    return {"result": result, "summary": summary}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", action="store_true",
                   help="also run each workload traced")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_work",
                                                 "results.json"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    report = {}
    header = (f"{'workload':18s} {'throughput':>22s} {'setup_s':>8s} "
              f"{'peak_rss_mb':>11s} {'ops_attempted':>13s} {'ops_failed':>10s}")
    rows, runs = [], []
    for name in names:
        entry = report[name] = run_workload(name, args, seconds, 0)
        runs.append(entry)
        if args.trace:
            entry["traced"] = run_workload(name, args, seconds, 1)
            runs.append(entry["traced"])
        res, summary = entry["result"], entry["summary"]
        m = {k: v["value"] for k, v in res["metrics"].items()}
        if "train_steps_per_s" in summary:
            rate = f"{summary['train_steps_per_s']:.3f} train_steps/s"
        else:
            rate = f"{m['frames_per_s']:.1f} frames/s"
        rows.append(f"{name:18s} {rate:>22s} {m['setup_s']:8.3f} "
                    f"{m['peak_rss_mb']:11.1f} {res['attempted']:13d} "
                    f"{res['failed']:10d}")
    print(header)
    print("\n".join(rows))
    if args.trace:
        for name, entry in report.items():
            traced = entry["traced"]["summary"]
            print(f"{name}: tracing overhead {traced['untraced_frames_per_s']:.1f}"
                  f" -> {traced['traced_frames_per_s']:.1f} frames/s")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"results -> {args.out}")
    return 1 if any(run["result"]["failed"] for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
