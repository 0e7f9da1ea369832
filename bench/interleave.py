"""Time every layer benchmark on two checkouts, interleaved in one process.

    python bench/interleave.py BEFORE_ROOT ROUNDS OUT.json

BEFORE_ROOT is the root of another checkout, for example the parent commit
unpacked with `git archive`. Its src/kframes is imported as kframes_before
beside this checkout's kframes, and each case of this checkout's
bench/test_layers.py is built once on each package. ROUNDS rounds alternate
which side goes first; a timing repeats the call for at least 20 ms and keeps
the mean. OUT.json gets, per case, the median over the rounds of each side:
test_<name> is timed as <name>_us in microseconds per call (a parametrized
case adds its parameter, as in spark_6x12_us and run_simulate_10k_us), and
a plan + apply case as plan_apply_<param>_signals_per_s. A case that fails
on BEFORE_ROOT (a command its budget refused, or a function it lacks) is
timed on this checkout alone and reads null before. src_lines holds the
line count of the Python files under each checkout's src/. A shared host's
speed drifts by tens of percent within minutes, which separate runs cannot
tell from a change; interleaving exposes both sides to the same drift, so
this is the one writer of BENCH json. Run it with BLAS pinned to one thread.
"""

import inspect
import json
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = (ROOT / "bench" / "test_layers.py").read_text()


def src_lines(root: Path) -> int:
    """Newlines in the Python files under root/src."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src").rglob("*.py"))


def _layers(package: str, scratch: Path, may_fail: bool = False) -> dict:
    """Each case of test_layers.py on package: key -> (call, signals or None);
    with may_fail, a case whose assertion fails or whose function is missing is left out."""
    module = types.ModuleType(f"layers_{package}")
    source = LAYERS.replace("from kframes", f"from {package}")
    exec(compile(source.replace('@pytest.fixture(scope="module")\n', ""), module.__name__,
                 "exec"), module.__dict__)
    setup = module.setup()
    cases = {}
    for name, test in inspect.getmembers(module, inspect.isfunction):
        if not name.startswith("test_"):
            continue
        params = [(None, None)]
        for mark in getattr(test, "pytestmark", []):
            if mark.name == "parametrize":
                params = [(mark.args[0], value) for value in mark.args[1]]
        for argname, value in params:
            bench = _Capture()
            wanted = inspect.signature(test).parameters
            kwargs = {"benchmark": bench, **({argname: value} if argname else {})}
            if "setup" in wanted:
                kwargs["setup"] = setup
            if "tmp_path" in wanted:
                kwargs["tmp_path"] = Path(tempfile.mkdtemp(dir=scratch))
            try:
                test(**kwargs)
            except (AssertionError, AttributeError):
                if not may_fail:
                    raise
                continue
            signals = bench.extra_info.get("signals")
            key = name.removeprefix("test_") + (f"_{value}" if argname else "")
            cases[f"plan_apply_{value}_signals_per_s" if signals else f"{key}_us"] = (
                bench.call, signals)
    return cases


class _Capture:
    """Stands in for pytest-benchmark's fixture: runs the call once and keeps it."""

    def __init__(self):
        self.extra_info = {}
        self.call = None

    def __call__(self, fn, *args, **kwargs):
        self.call = lambda: fn(*args, **kwargs)
        return self.call()


def _mean_time(call) -> float:
    reps, start = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - start) < 0.02 or not reps:
        call()
        reps += 1
    return elapsed / reps


def main(before_root: str, rounds: int, out: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        shutil.copytree(Path(before_root) / "src" / "kframes", scratch / "kframes_before")
        sys.path[:0] = [str(ROOT / "src"), str(scratch)]
        sides = {"before": _layers("kframes_before", scratch, may_fail=True),
                 "after": _layers("kframes", scratch)}
        times = {key: {side: [] for side in sides} for key in sides["after"]}
        for i in range(rounds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for key in times:
                for side in order:
                    if key in sides[side]:
                        times[key][side].append(_mean_time(sides[side][key][0]))
    result = {}
    for key, per_side in times.items():
        signals = sides["after"][key][1]
        result[key] = {side: round(signals / statistics.median(t) if signals
                                   else statistics.median(t) * 1e6, 1) if t else None
                       for side, t in per_side.items()}
    result["src_lines"] = {"before": src_lines(Path(before_root)), "after": src_lines(ROOT)}
    Path(out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
