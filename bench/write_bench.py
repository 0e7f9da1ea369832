"""Run the layer benchmarks and write their medians as BENCH json.

    python bench/write_bench.py OUT.json

Run from the root of a checkout with BLAS pinned to one thread. Keys are
fixed per case: times in microseconds (test_<name> writes <name>_us, e.g.
verify_kframe_us, mrc_subset_us, is_canonical_us, run_analyze_us and
run_analyze_invertible_us; a parametrized case adds its parameter, as in
spark_6x12_us and run_simulate_10k_us), plan + apply as signals per second. src_lines,
the line count of the Python files under src/, stands beside them.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(out: str) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "bench.json"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        str(ROOT / "bench"), f"--benchmark-json={raw}"],
                       cwd=ROOT, env=env, check=True)
        cases = json.loads(raw.read_text())["benchmarks"]
    result = {}
    for case in cases:
        median = case["stats"]["median"]
        if "signals" in case["extra_info"]:
            key = f"plan_apply_{case['param']}_signals_per_s"
            result[key] = case["extra_info"]["signals"] / median
        else:
            key = case["name"].split("[")[0].removeprefix("test_")
            key += f"_{case['param']}" if case["param"] else ""
            result[f"{key}_us"] = median * 1e6
    result["src_lines"] = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src").rglob("*.py"))
    Path(out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
