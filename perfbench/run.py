"""Run one kframes benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run. The lines before it give every metric with
its unit and sample count, and the machine the numbers come from.
Workloads, metrics and what each per-layer metric should move are described
in perfbench/README.md.
"""

import os

# BLAS is pinned to one thread before numpy is first imported, here and in
# every process this one starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("simulate-batch", "redundancy-scan", "cli-interactive")


def seed_type(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_type, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kframes" / "__init__.py").is_file():
        print(f"perfbench: no kframes package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import kframes
    import harness
    import_s = time.perf_counter() - t0
    if Path(kframes.__file__).resolve().parent != SRC / "kframes":
        print(f"perfbench: imported kframes from {kframes.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      ROOT, import_s=import_s)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# environment " + json.dumps(harness.environment()))
    for line in out["report"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
