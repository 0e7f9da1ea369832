"""Set-up, the timed closed loop, the metrics and the report.

One client sends one command at a time, each after the previous one has
finished and been checked (a closed loop with a single client). A round is
one pass over the workload's command script; the timed phase runs whole
rounds until ``seconds`` have passed. Latencies cover ``run_command`` alone:
writing a round's input files, checking answers and probing the machine's
speed happen between commands, outside every measured interval.
End-to-end times are scaled to a reference machine speed (see probe.py).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from probe import REFERENCE_S, SpeedScale
from tracing import Tracer, layer_metrics
from workloads import SETUPS, Command, Workload, invoke

SETUP_REPS = 5
COLD_STARTS = 7
COLD_ARGV = ["-m", "kframes.cli", "fixtures", "--name", "FIX-D"]
MAX_REASONS = 5


@dataclass
class Phase:
    """Outcome of a timed phase; latencies are scaled, raw_round_s is not."""

    latencies: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    raw_round_s: list[float] = field(default_factory=list)
    # (scaled latency, signals) of each command that processes signals.
    signal_cmds: list[tuple[float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, reason: str | None, argv: list[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{argv[0]}: {reason}")


def run_checked(cmd: Command, phase: Phase, tracer: Tracer | None = None,
                commands: list | None = None) -> float:
    """Run and check one command; return its raw latency."""
    if tracer is not None:
        commands.append((len(tracer.start), cmd.argv[0], cmd.signals))
    t0 = time.perf_counter()
    code, out = invoke(cmd.argv)
    dt = time.perf_counter() - t0
    try:
        reason = cmd.check(code, out)
    except Exception as exc:  # a malformed answer must count, not crash the run
        reason = f"check raised {type(exc).__name__}: {exc}"
    phase.record(reason, cmd.argv)
    return dt


def measure(wl: Workload, seconds: float, speed: SpeedScale, first_round: int = 0,
            tracer: Tracer | None = None, commands: list | None = None) -> Phase:
    """Run whole rounds until ``seconds`` have passed (at least one round)."""
    phase = Phase()
    # (raw latency, probe sample before it, signals) of each command, by round.
    timed: list[list[tuple[float, int, int]]] = []
    deadline = time.perf_counter() + seconds
    i = first_round
    while True:
        timed.append([])
        for cmd in wl.round(i):
            before = speed.due()
            timed[-1].append((run_checked(cmd, phase, tracer, commands), before, cmd.signals))
        i += 1
        if time.perf_counter() >= deadline:
            break
    speed.sample()
    for cmds in timed:
        scaled = [speed.scale(dt, before) for dt, before, _ in cmds]
        phase.latencies += scaled
        phase.round_s.append(sum(scaled))
        phase.raw_round_s.append(sum(dt for dt, _, _ in cmds))
        phase.signal_cmds += [(dt, n) for dt, (_, _, n) in zip(scaled, cmds) if n]
    return phase


def set_up(name: str, seed: int, work: Path, small: bool,
           speed: SpeedScale) -> tuple[Workload, list[float]]:
    """Build the workload SETUP_REPS times from scratch; keep the last one.

    Each repetition generates inputs, writes files, finds recovery matrices,
    computes the oracles and runs the warm-up, so its time is the whole
    set-up cost; the warm-up answers are checked like any other. Returns the
    raw time of each repetition; probe samples bracket each one.
    """
    times = []
    for rep in range(SETUP_REPS):
        speed.sample()
        t0 = time.perf_counter()
        wl = SETUPS[name](seed, work / f"setup{rep}", small)
        warm = Phase()
        for cmd in wl.warmup:
            run_checked(cmd, warm)
        times.append(time.perf_counter() - t0)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.reasons}")
    speed.sample()
    return wl, times


def cold_start(root: Path) -> tuple[list[float], int]:
    """Wall time of fresh ``python -m kframes.cli fixtures`` processes.

    Not scaled: on a shared host these times vary by about 20% from one
    phase to the next, uncorrelated with the probe.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p)
    raw, failed = [], 0
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *COLD_ARGV], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        raw.append(time.perf_counter() - t0)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["name"] == "FIX-D"
        except (json.JSONDecodeError, KeyError, TypeError):
            ok = False
        failed += not ok
    return raw, failed


def environment() -> dict:
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        import_s: float = 0.0, small: bool = False, workload_hook=None) -> dict:
    """Run one workload; return the result object plus a human report.

    ``workload_hook`` is called on the built workload before the timed phase
    (tests use it to plant a wrong expectation).
    """
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    speed = SpeedScale()
    try:
        wl, setup_raw = set_up(name, seed, work, small, speed)
        setup_s = (import_s + statistics.median(setup_raw)) * speed.factor()
        if workload_hook is not None:
            workload_hook(wl)
        if trace:
            return _traced(wl, seconds, root, speed)
        return _untraced(wl, seconds, root, speed, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced(wl: Workload, seconds: float, root: Path, speed: SpeedScale,
              setup_s: float) -> dict:
    phase = measure(wl, seconds, speed)
    cold, cold_failed = cold_start(root)
    lat = phase.latencies
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPS),
        "wall_s": (statistics.median(phase.round_s), "s", len(phase.round_s)),
        "cmd_p50_ms": (statistics.median(lat) * 1e3, "ms", len(lat)),
        "cmd_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms", len(lat)),
        "ops_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    extra = {}
    if wl.name == "simulate-batch":
        rates = [n / dt for dt, n in phase.signal_cmds]
        extra["signals_per_s"] = (statistics.median(rates), "1/s", len(rates))
    attempted = phase.attempted + len(cold)
    failed = phase.failed + cold_failed
    extra["fail_frac"] = (failed / attempted, "fraction", attempted)
    extra["cold_start_ms"] = (statistics.median(cold) * 1e3, "ms", len(cold))
    extra["wall_raw_s"] = (statistics.median(phase.raw_round_s), "s", len(phase.raw_round_s))
    extra["probe_ms"] = (statistics.median(speed.samples) * 1e3, "ms", len(speed.samples))
    return _result(metrics, extra, attempted, failed, phase.reasons)


def _traced(wl: Workload, seconds: float, root: Path, speed: SpeedScale) -> dict:
    """Half the time untraced (the reference), then half traced.

    Per-layer times are raw; the overhead compares scaled round times.
    """
    ref = measure(wl, seconds / 2, speed)
    tracer = Tracer()
    commands: list = []
    with tracer.installed():
        traced = measure(wl, seconds / 2, speed, first_round=len(ref.round_s),
                         tracer=tracer, commands=commands)
    spans = tracer.arrays()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    np.savez(out_dir / f"trace-{wl.name}.npz", **spans,
             command_span=np.array([c[0] for c in commands]),
             command_name=np.array([c[1] for c in commands]))
    metrics = layer_metrics(spans, commands, len(traced.round_s))
    overhead = statistics.median(traced.round_s) / statistics.median(ref.round_s) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction", len(traced.round_s))
    attempted = ref.attempted + traced.attempted
    failed = ref.failed + traced.failed
    extra = {"fail_frac": (failed / attempted, "fraction", attempted)}
    return _result(metrics, extra, attempted, failed, ref.reasons + traced.reasons)


def _result(metrics: dict, extra: dict, attempted: int, failed: int,
            reasons: list[str]) -> dict:
    lines = [f"{'metric':<36} {'value':>14} {'unit':<9} samples"]
    for key, (value, unit, samples) in {**metrics, **extra}.items():
        lines.append(f"{key:<36} {float(value):>14.6g} {unit:<9} {samples}")
    lines.append(f"# times except cold_start_ms, wall_raw_s and per-layer ones are "
                 f"scaled to a {REFERENCE_S * 1e3:g} ms probe")
    lines += [f"failure: {r}" for r in reasons[:MAX_REASONS]]
    return {
        "report": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
        },
    }
