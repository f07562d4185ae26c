"""Record golden.json: the outputs of every workload at seeds 0..31.

    python3 bench/record_golden.py

Run it only when a change to the numerics is deliberate, and say why in
CHANGES.md.  It uses the same BLAS pin and harness workers as run.py.
"""

import json
import os
import sys
import tempfile

import run  # pins the BLAS threads before numpy is imported

sys.path[:0] = [run.SRC, run.BENCH_DIR]
import workloads as wl  # noqa: E402

SEEDS = 32


def main() -> None:
    golden = {}
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as workdir:
        for name, w in wl.WORKLOADS.items():
            extra = w.prepare(workdir)
            table = golden[name] = {}
            for seed in range(SEEDS):
                counts = w.run(seed, extra, workdir).counts
                w.check(counts, None)
                if w.kind == "train":
                    counts = {"losses": counts["losses"]}
                table[str(seed)] = counts
                print(name, seed, counts, flush=True)
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
