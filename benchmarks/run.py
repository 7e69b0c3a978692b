"""Episode-throughput benchmark of metadapt.

    python3 benchmarks/run.py --workload train-small --seed 1 --seconds 25 --trace 0

Runs one workload on inputs made from the seed, checks the program's
outputs, and prints as its last line a JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics, or with
`--trace 1` the per-layer ones).  The line before it describes the run:
BLAS library, thread count, versions and round count.  It imports the
package from `src/` of the checkout it sits in; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train-small", "eval-paper")
# one OpenBLAS thread: a second one buys nothing on these small matrix-vector
# products and lost 13-14% of the paper-shape evaluation rate (see README)
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cpus = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, cpus)
    # must be set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)

    src = ROOT / "src"
    if not (src / "metadapt" / "__init__.py").is_file():
        print(f"error: no metadapt package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    import scipy

    import metadapt
    import workloads

    if Path(metadapt.__file__).resolve().parent != (src / "metadapt").resolve():
        print(f"error: imported metadapt from {metadapt.__file__}, not {src}", file=sys.stderr)
        return 2

    work_dir = BENCH_DIR / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   work_dir)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report.update(blas=f"{blas.get('name')} {blas.get('version')}", blas_threads=threads,
                  cpus=cpus, python=sys.version.split()[0], numpy=np.__version__,
                  scipy=scipy.__version__)
    with open(work_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({k: report[k] for k in ("workload", "seed", "rounds", "blas",
                                             "blas_threads", "cpus", "numpy", "scipy")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
