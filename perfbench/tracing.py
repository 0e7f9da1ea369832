"""Span tracing of the kframes layers, installed from outside the library.

The library's modules import each other's functions by name
(``from .linalg import rank_of``), so a function is traced by rebinding every
name bound to it in every loaded ``kframes`` module; ``numpy.linalg.svd`` is
rebound on ``numpy.linalg``, which is where the library looks it up. Nothing
under ``src/`` changes. Spans live in flat in-memory arrays (name, parent,
start, end, status) and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np
import numpy.linalg

# Public functions traced in each layer (module of kframes).
TRACED = {
    "cli": ("run_command",),
    "matrixio": ("load_matrix",),
    "frames": ("verify_kframe", "verify_kdual", "is_kframe"),
    "canonical": ("canonical_kdual", "canonical_kdual_restricted"),
    "redundancy": ("spark", "mrc_subset", "mrc_all", "uniform_excess", "is_maximal_robust"),
    "recovery": ("recover_side_info", "recover_blind", "recover_consistency",
                 "validate_rk_matrix", "find_rk_matrix"),
    "linalg": ("svd_factor", "rank_of", "pseudo_inverse", "range_basis",
               "null_space_basis", "operator_norm"),
}
SOLVES = ("recovery.recover_side_info", "recovery.recover_blind",
          "recovery.recover_consistency")
# Spans that enumerate subsets; "subsets visited" counts their per-subset work.
SCANS = ("redundancy.spark", "redundancy.mrc_all", "redundancy.uniform_excess",
         "redundancy.is_maximal_robust")

OK, RAISED, EXACT = 0, 1, 2


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, solve: bool):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, status = (
            self.name_id, self.parent, self.start, self.end, self.status)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            status.append(OK)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                status[idx] = RAISED
                raise
            end[idx] = clock()
            stack.pop()
            if solve and result.certified_exact:
                status[idx] = EXACT
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind the traced functions for the duration of the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "kframes" or key.startswith("kframes."))]
        try:
            for layer, functions in TRACED.items():
                home = importlib.import_module(f"kframes.{layer}")
                for fn_name in functions:
                    name = f"{layer}.{fn_name}"
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(name, original, name in SOLVES)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._undo.append((module, attr, original))
                                setattr(module, attr, wrapper)
            self._undo.append((numpy.linalg, "svd", numpy.linalg.svd))
            numpy.linalg.svd = self._wrap("linalg.svd", numpy.linalg.svd, False)
            yield self
        finally:
            for module, attr, original in reversed(self._undo):
                setattr(module, attr, original)
            self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "status": np.frombuffer(self.status, dtype=np.int8).copy(),
        }


def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if values.size else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(spans: dict[str, np.ndarray], commands: list[tuple[int, str, int]],
                  rounds: int) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as {name: (value, unit, samples)}.

    ``commands`` lists (index of the command's cli.run_command span, command
    name, signals). Counts and seconds are per round; ``_p50`` and ``_mean``
    values are over the spans of one function. Only spans under a
    ``cli.run_command`` span count, so the benchmark's own numpy calls never
    do.
    """
    names = list(spans["names"])
    nid, parent, status = spans["name_id"], spans["parent"], spans["status"]
    dur = spans["end"] - spans["start"]
    count = len(dur)
    # Spans are stored in call order, so each span's descendants are the
    # contiguous block of spans that start before it ends.
    last_desc = np.searchsorted(spans["start"], spans["end"], side="left")

    def covered(mask: np.ndarray) -> np.ndarray:
        """True for spans inside (or equal to) a span selected by mask."""
        marks = np.zeros(count + 1, dtype=np.int64)
        np.add.at(marks, np.flatnonzero(mask), 1)
        np.add.at(marks, last_desc[mask], -1)
        return np.cumsum(marks[:count]) > 0

    def sel(*wanted: str) -> np.ndarray:
        return np.isin(nid, [names.index(w) for w in wanted if w in names])

    nid = np.where(covered(sel("cli.run_command")), nid, -1)
    inside = (parent >= 0) & (nid >= 0)
    child = np.zeros(count)
    np.add.at(child, parent[inside], dur[inside])
    self_t = dur - child
    layer_of = np.array([n.split(".")[0] for n in names] + [""])[nid]

    def calls(*fns: str) -> tuple[float, str, int]:
        n = int(np.sum(sel(*fns)))
        return n / rounds, "count", n

    def p50_us(*fns: str) -> tuple[float, str, int]:
        mask = sel(*fns)
        return _median(dur[mask]) * 1e6, "us", int(np.sum(mask))

    def seconds(mask: np.ndarray, times: np.ndarray = dur) -> tuple[float, str, int]:
        return float(np.sum(times[mask])) / rounds, "s", int(np.sum(mask))

    run, svd, spark, solves = (sel("cli.run_command"), sel("linalg.svd"),
                               sel("redundancy.spark"), sel(*SOLVES))
    ikf = sel("frames.is_kframe")
    n_cmd, n_svd, n_solve = int(np.sum(run)), int(np.sum(svd)), int(np.sum(solves))
    spark_subsets = int(np.sum(svd & np.isin(parent, np.flatnonzero(spark))))
    scans = covered(sel(*SCANS))
    subsets = spark_subsets + int(np.sum(ikf & scans))
    signal_roots = [root for root, _, signals in commands if signals]
    signals = sum(c[2] for c in commands)
    in_signal_cmd = covered(np.isin(np.arange(count), signal_roots))
    return {
        "cli.calls": calls("cli.run_command"),
        "cli.self_ms_p50": (_median(self_t[run]) * 1e3, "ms", n_cmd),
        "matrixio.load_calls": calls("matrixio.load_matrix"),
        "matrixio.load_us_p50": p50_us("matrixio.load_matrix"),
        "frames.verify_kframe_calls": calls("frames.verify_kframe"),
        "frames.verify_kframe_us_p50": p50_us("frames.verify_kframe"),
        "frames.verify_kdual_calls": calls("frames.verify_kdual"),
        "frames.is_kframe_calls": calls("frames.is_kframe"),
        "frames.is_kframe_us_mean": (float(np.mean(dur[ikf])) * 1e6 if ikf.any() else 0.0,
                                     "us", int(np.sum(ikf))),
        "canonical.canonical_kdual_calls": calls("canonical.canonical_kdual"),
        "canonical.canonical_kdual_us_p50": p50_us("canonical.canonical_kdual"),
        "redundancy.spark_calls": calls("redundancy.spark"),
        "redundancy.spark_s": seconds(spark),
        "redundancy.spark_subsets": (spark_subsets / rounds, "count", spark_subsets),
        "redundancy.spark_us_per_subset": (_ratio(np.sum(dur[spark]), spark_subsets) * 1e6,
                                           "us", spark_subsets),
        "redundancy.uniform_excess_s": seconds(sel("redundancy.uniform_excess")),
        "redundancy.is_maximal_robust_s": seconds(sel("redundancy.is_maximal_robust")),
        "redundancy.mrc_all_s": seconds(sel("redundancy.mrc_all")),
        "redundancy.self_s": seconds(layer_of == "redundancy", self_t),
        "linalg.self_s": seconds(layer_of == "linalg", self_t),
        "recovery.solve_calls": calls(*SOLVES),
        "recovery.solve_us_p50": p50_us(*SOLVES),
        "recovery.validate_rk_s": seconds(sel("recovery.validate_rk_matrix")),
        "recovery.find_rk_s": seconds(sel("recovery.find_rk_matrix")),
        "recovery.exact_frac": (_ratio(np.sum(solves & (status == EXACT)), n_solve),
                                "fraction", n_solve),
        "recovery.skip_frac": (_ratio(np.sum(solves & (status == RAISED)), n_solve),
                               "fraction", n_solve),
        "linalg.svd_calls": calls("linalg.svd"),
        "linalg.svd_s": seconds(svd),
        "linalg.rank_of_calls": calls("linalg.rank_of"),
        "linalg.pseudo_inverse_calls": calls("linalg.pseudo_inverse"),
        "linalg.svd_per_command": (_ratio(n_svd, n_cmd), "count", n_cmd),
        "linalg.svd_per_signal": (_ratio(np.sum(svd & in_signal_cmd), signals), "count", signals),
        "linalg.svd_per_subset": (_ratio(np.sum(svd & scans), subsets), "count", subsets),
    }
