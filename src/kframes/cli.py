"""Command-line front end.

Commands: analyze, canonical-dual, check-dual, spark, mrc, recover,
find-rk, simulate, fixtures. Reports are JSON on stdout; human diagnostics
go to stderr. Exit codes: 0 success, 1 contract violation, 2 I/O or parse
error, 64 unknown command or bad usage.

All user-facing indices are 1-based; matrices use the JSON/CSV formats
documented in matrixio.
"""

from __future__ import annotations

import argparse
import json
import re
import sys as _sys
from pathlib import Path

import numpy as np

from . import matrixio
from .canonical import canonical_kdual, canonical_kdual_restricted
from .errors import BudgetExceededError, KFrameError, MatrixFormatError
from .fixtures import get_fixture
from .frames import (
    DualSystem,
    KFrameSystem,
    classify,
    frame_bounds,
    verify_kdual,
    verify_kframe,
)
from .linalg import TolerancePolicy, matvec_rows, row_norms
from .recovery import (
    STRATEGIES,
    erase,
    find_rk_matrix,
    plan_recovery,
    recover_blind,
    recover_consistency,
    recover_side_info,
    validate_rk_matrix,
)
from .redundancy import (
    INFINITE,
    SparkResult,
    is_maximal_robust,
    mrc_all,
    mrc_subset,
    spark,
    uniform_excess,
)

USAGE = """usage: kframes <command> [options]

commands:
  analyze         bounds, classification, spark and redundancy report
  canonical-dual  construct the canonical K-dual (douglas | restricted)
  check-dual      residual-based K-dual verification
  spark           spark of a matrix with a kernel witness
  mrc             minimal redundancy condition for a set or all r-sets
  recover         recover erased coefficients (side-info | blind | consistency)
  find-rk         search for a recovery matrix with a target erasure level
  simulate        seeded Monte-Carlo erasure/recovery experiment
  fixtures        emit a built-in reference system (FIX-A .. FIX-D)

common options: --tol-rank X --tol-res X --cap-subsets N --pretty
"""


def _at_least(low: int):
    """argparse type: an integer >= low; a smaller one is a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _base_parser(name: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"kframes {name}", add_help=True)
    parser.add_argument("--tol-rank", type=float, default=1e-10)
    parser.add_argument("--tol-res", type=float, default=1e-9)
    parser.add_argument("--cap-subsets", type=_at_least(1), default=10**6)
    parser.add_argument("--pretty", action="store_true")
    parser.add_argument("--json", dest="pretty", action="store_false",
                        help="compact JSON output (default)")
    return parser


def _policy(args) -> TolerancePolicy:
    return TolerancePolicy(rank_cutoff_rel=args.tol_rank, residual_rel=args.tol_res)


def _load_system(path, tol) -> KFrameSystem:
    f = matrixio.load_matrix(path, key="F")
    k = matrixio.load_matrix(path, key="K")
    return verify_kframe(f, k, tol)


def _load_dual(path, system: KFrameSystem) -> DualSystem:
    try:
        g = matrixio.load_matrix(path, key="G")
    except MatrixFormatError:
        g = matrixio.load_matrix(path)
    return verify_kdual(system, g)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        out = float(value)
        return "inf" if out == INFINITE else out
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _spark_obj(result: SparkResult) -> dict:
    return {
        "spark": "inf" if not result.finite else int(result.value),
        "witness": None if result.witness is None else _jsonable(result.witness),
    }


def _one_based(indices) -> list[int]:
    return [int(i) + 1 for i in indices]


def _emit(report: dict, pretty: bool) -> None:
    """Print the report as JSON; raises ValueError, printing nothing, on NaN or -inf."""
    indent = 2 if pretty else None
    print(json.dumps(_jsonable(report), indent=indent, allow_nan=False))


def _cmd_fixtures(argv) -> dict:
    parser = _base_parser("fixtures")
    parser.add_argument("--name", required=True)
    parser.add_argument("--with-dual", action="store_true")
    args = parser.parse_args(argv)
    fix = get_fixture(args.name)
    report = {
        "command": "fixtures",
        "name": fix.name,
        "F": matrixio.matrix_to_obj(fix.F),
        "K": matrixio.matrix_to_obj(fix.K),
    }
    if args.with_dual:
        report["G"] = None if fix.dual is None else matrixio.matrix_to_obj(fix.dual)
        report["note"] = fix.note
    return {"report": report, "pretty": args.pretty}


def _cmd_spark(argv) -> dict:
    parser = _base_parser("spark")
    parser.add_argument("--matrix", required=True)
    args = parser.parse_args(argv)
    mat = matrixio.load_matrix(args.matrix)
    result = spark(mat, _policy(args), cap=args.cap_subsets)
    report = {"command": "spark", "matrix": args.matrix, **_spark_obj(result)}
    return {"report": report, "pretty": args.pretty}


def _cmd_check_dual(argv) -> dict:
    parser = _base_parser("check-dual")
    parser.add_argument("--system", required=True)
    parser.add_argument("--dual", required=True)
    args = parser.parse_args(argv)
    system = _load_system(args.system, _policy(args))
    dual = _load_dual(args.dual, system)
    report = {
        "command": "check-dual",
        "residual": dual.residual,
        "is_valid": dual.is_valid,
    }
    return {"report": report, "pretty": args.pretty}


def _cmd_canonical_dual(argv) -> dict:
    parser = _base_parser("canonical-dual")
    parser.add_argument("--system", required=True)
    parser.add_argument("--method", choices=("douglas", "restricted"),
                        default="douglas")
    args = parser.parse_args(argv)
    system = _load_system(args.system, _policy(args))
    if args.method == "douglas":
        result = canonical_kdual(system)
        report = {
            "command": "canonical-dual",
            "method": "douglas",
            "G": matrixio.matrix_to_obj(result.dual.G),
            "residual": result.dual.residual,
            "analysis_norm": result.analysis_norm,
            "hypotheses": None,
        }
    else:
        result = canonical_kdual_restricted(system)
        report = {
            "command": "canonical-dual",
            "method": "restricted",
            "G": matrixio.matrix_to_obj(result.dual_image.G),
            "residual": result.dual_image.residual,
            "is_valid": result.dual_image.is_valid,
            "hypotheses": result.hypotheses,
            "variant": {
                "G": matrixio.matrix_to_obj(result.dual_domain.G),
                "residual": result.dual_domain.residual,
                "is_valid": result.dual_domain.is_valid,
            },
        }
    return {"report": report, "pretty": args.pretty}


def _mrc_all_obj(system: KFrameSystem, r: int, cap: int, tol: TolerancePolicy) -> dict:
    satisfied, failing = mrc_all(system.F, system.K, r, cap=cap, tol=tol)
    return {"r": r, "satisfied": satisfied,
            "first_failing": None if failing is None else _one_based(failing)}


def _cmd_analyze(argv) -> dict:
    parser = _base_parser("analyze")
    parser.add_argument("--system", required=True)
    parser.add_argument("--r", type=int, default=1)
    args = parser.parse_args(argv)
    tol = _policy(args)
    system = _load_system(args.system, tol)
    cls = classify(system)
    spark_f = spark(system.F, tol, cap=args.cap_subsets)
    excess = uniform_excess(system.F, system.K, cap=args.cap_subsets, tol=tol)
    try:
        bounds = list(frame_bounds(system))
    except KFrameError:
        bounds = None
    report = {
        "command": "analyze",
        "n": system.n,
        "m": system.m,
        "operator_rank": system.K.rank,
        "bounds": bounds,
        "classification": {
            "tight_alpha": cls.tight_alpha,
            "parseval": cls.parseval,
            "equal_norm": cls.equal_norm,
        },
        "spark": _spark_obj(spark_f),
        "uniform_excess": {
            "value": excess.value,
            "witness": None if excess.witness is None else _one_based(excess.witness),
        },
        "mrc": _mrc_all_obj(system, args.r, args.cap_subsets, tol),
        "maximal_robust": is_maximal_robust(system.F, system.K,
                                            cap=args.cap_subsets, tol=tol),
    }
    return {"report": report, "pretty": args.pretty}


def _cmd_mrc(argv) -> dict:
    parser = _base_parser("mrc")
    parser.add_argument("--system", required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", help="comma-separated 1-based indices")
    group.add_argument("--r", type=int)
    args = parser.parse_args(argv)
    tol = _policy(args)
    system = _load_system(args.system, tol)
    if args.sigma is not None:
        raw = [s.strip() for s in args.sigma.split(",") if s.strip()]
        sigma = _positions([int(s) if re.fullmatch(r"[+-]?\d+", s) else s for s in raw],
                           system.m, "--sigma")
        rep = mrc_subset(system.F, system.K, sigma, tol)
        report = {
            "command": "mrc",
            "sigma": _one_based(rep.sigma),
            "is_mrc": rep.is_mrc,
            "necessary_condition_i": rep.necessary_condition_i,
            "parseval_condition_ii": rep.parseval_condition_ii,
        }
    else:
        report = {"command": "mrc", **_mrc_all_obj(system, args.r, args.cap_subsets, tol)}
    return {"report": report, "pretty": args.pretty}


def _positions(values, m: int, what: str) -> list[int]:
    """0-based indices of distinct 1-based positions in 1..m; else exit code 2."""
    if not isinstance(values, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in values
    ):
        raise MatrixFormatError(f"{what} must be a list of integer positions, got {values!r}")
    outside = [i for i in values if not 1 <= i <= m]
    if outside:
        raise MatrixFormatError(f"{what} positions must lie in 1..{m}, got {outside}")
    repeated = sorted({i for i in values if values.count(i) > 1})
    if repeated:
        raise MatrixFormatError(f"{what} positions repeat: {repeated}")
    return [i - 1 for i in values]


def _load_coded(path, m: int):
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict) or "coefficients" not in obj:
        raise MatrixFormatError(f"{path}: expected an object with 'coefficients'")
    erased = obj.get("erased", [])
    mask = _positions(erased, m, f"{path}: 'erased'")
    coeffs = obj["coefficients"]
    if not isinstance(coeffs, list) or len(coeffs) != m:
        got = len(coeffs) if isinstance(coeffs, list) else type(coeffs).__name__
        raise MatrixFormatError(f"{path}: expected {m} coefficients, got {got}")
    nulls = [j + 1 for j, v in enumerate(coeffs) if v is None and j + 1 not in erased]
    if nulls:
        raise MatrixFormatError(
            f"{path}: null coefficients at surviving positions {nulls}; "
            f"list erased positions in 'erased'"
        )
    values = [0.0 if v is None else float(v) for v in coeffs]
    return erase(values, mask)


def _cmd_recover(argv) -> dict:
    parser = _base_parser("recover")
    parser.add_argument("--system", required=True)
    parser.add_argument("--dual", required=True)
    parser.add_argument("--coded", required=True)
    parser.add_argument("--strategy", default="consistency", choices=STRATEGIES)
    parser.add_argument("--rk-matrix", default=None)
    parser.add_argument("--side-info", default=None)
    args = parser.parse_args(argv)
    tol = _policy(args)
    system = _load_system(args.system, tol)
    dual = _load_dual(args.dual, system)
    coded = _load_coded(args.coded, system.m)
    m_mat = system.gramian if args.rk_matrix is None \
        else matrixio.load_matrix(args.rk_matrix)
    if args.strategy == "side-info":
        if args.side_info is None:
            raise KFrameError("side-info strategy requires --side-info")
        v = matrixio.vector_from_obj(
            json.loads(Path(args.side_info).read_text()), "side vector")
        result = recover_side_info(system, m_mat, coded, v, dual=dual, tol=tol)
    elif args.strategy == "blind":
        result = recover_blind(system, m_mat, coded, dual=dual, tol=tol)
    else:
        result = recover_consistency(system, dual, coded, tol=tol)
    report = {
        "command": "recover",
        "strategy": result.strategy,
        "erased": _one_based(coded.mask),
        "coefficients": list(result.coefficients),
        "reconstructed": list(result.reconstructed),
        "solver_residual": result.solver_residual,
        "certified_exact": result.certified_exact,
    }
    return {"report": report, "pretty": args.pretty}


def _cmd_find_rk(argv) -> dict:
    parser = _base_parser("find-rk")
    parser.add_argument("--system", required=True)
    parser.add_argument("--dual", required=True)
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--trials", type=int, default=64)
    parser.add_argument("--seed", type=_at_least(0), default=0)
    args = parser.parse_args(argv)
    tol = _policy(args)
    system = _load_system(args.system, tol)
    dual = _load_dual(args.dual, system)
    found = find_rk_matrix(system, dual, args.r, trials=args.trials, seed=args.seed,
                           cap=args.cap_subsets)
    cert = found.certificate
    report = {
        "command": "find-rk",
        "mode": found.mode,
        "trial": found.trial,
        "M": matrixio.matrix_to_obj(cert.M),
        "spark_M": _spark_obj(cert.spark_M),
        "spark_N": _spark_obj(cert.spark_N),
        "annihilation_residual": cert.annihilation_residual,
        "annihilation_ok": cert.annihilation_ok,
        "r_side_info": cert.r_side_info,
        "r_blind": cert.r_blind,
    }
    return {"report": report, "pretty": args.pretty}


def _simulate_strategy(system, dual, strategy, m_mat, signals, sets, which, tol):
    """Recover the signals (rows), signal i erased at sets[which[i]], with one plan.

    The draws of an ambiguous set are skipped. Each draw is rounded as if
    recovered alone and errors stay in draw order, so batching never shows.
    """
    coeffs = matvec_rows(dual.G.T, signals)
    targets = matvec_rows(system.K.matrix, signals)
    sides = matvec_rows(system.F.T, targets)
    plan = plan_recovery(system, strategy, sets, m_mat=m_mat, dual=dual, tol=tol)
    ok = plan.deficiency[which] == 0
    full, _, certified = plan.apply(coeffs[ok], which[ok], sides[ok])
    target = targets[ok]
    errors = np.full(len(signals), np.nan)
    errors[ok] = row_norms(matvec_rows(system.F, full) - target)
    close = errors[ok] <= 1e-8 * (1.0 + row_norms(target))
    exact = int(np.count_nonzero(certified & close))
    done = errors[~np.isnan(errors)].tolist()
    completed = len(done)
    entry = {
        "signals": len(signals),
        "completed": completed,
        "skipped": len(signals) - completed,
        "exact": exact,
        "exact_fraction": exact / len(signals),
        "max_error": max(done) if done else None,
        "mean_error": sum(done) / completed if done else None,
    }
    if completed == 0:
        entry["skipped_all"] = True
    return entry


def _cmd_simulate(argv) -> dict:
    parser = _base_parser("simulate")
    parser.add_argument("--system", required=True)
    parser.add_argument("--dual", default=None,
                        help="dual file; canonical dual when omitted")
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--signals", type=int, default=1000)
    parser.add_argument("--seed", type=_at_least(0), default=0)
    parser.add_argument("--strategies", default="side-info,blind,consistency")
    parser.add_argument("--rk-matrix", default=None)
    args = parser.parse_args(argv)
    tol = _policy(args)
    system = _load_system(args.system, tol)
    dual = canonical_kdual(system).dual if args.dual is None \
        else _load_dual(args.dual, system)
    if args.signals < 1:
        raise KFrameError("signals must be >= 1")
    if not (0 <= args.r < system.m):
        raise KFrameError(f"r must satisfy 0 <= r < m = {system.m}")
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies or any(s not in STRATEGIES or strategies.count(s) > 1 for s in strategies):
        raise KFrameError(f"--strategies needs distinct names of {', '.join(STRATEGIES)}, "
                          f"got {args.strategies!r}")
    m_mat = system.gramian if args.rk_matrix is None \
        else matrixio.load_matrix(args.rk_matrix)
    rng = np.random.default_rng(args.seed)
    signals = np.empty((args.signals, system.n))
    draws = np.empty((args.signals, args.r), dtype=np.intp)
    for i in range(args.signals):
        signals[i] = rng.standard_normal(system.n)
        draws[i] = np.sort(rng.choice(system.m, size=args.r, replace=False))
    sets, which = np.unique(draws, axis=0, return_inverse=True)
    certificate = None
    if {"side-info", "blind"} & set(strategies):
        cert = validate_rk_matrix(system, dual, m_mat, tol, cap=args.cap_subsets)
        certificate = {
            "spark_M": _spark_obj(cert.spark_M)["spark"],
            "spark_N": _spark_obj(cert.spark_N)["spark"],
            "annihilation_residual": cert.annihilation_residual,
            "annihilation_ok": cert.annihilation_ok,
            "r_side_info": cert.r_side_info,
            "r_blind": cert.r_blind,
        }
    report = {
        "command": "simulate",
        "config": {
            "system": args.system,
            "dual": args.dual,
            "r": args.r,
            "signals": args.signals,
            "seed": args.seed,
            "strategies": strategies,
            "rk_matrix": args.rk_matrix,
        },
        "certificate": certificate,
        "strategies": {
            s: _simulate_strategy(system, dual, s, m_mat, signals, sets, which, tol)
            for s in strategies
        },
    }
    return {"report": report, "pretty": args.pretty}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "canonical-dual": _cmd_canonical_dual,
    "check-dual": _cmd_check_dual,
    "spark": _cmd_spark,
    "mrc": _cmd_mrc,
    "recover": _cmd_recover,
    "find-rk": _cmd_find_rk,
    "simulate": _cmd_simulate,
    "fixtures": _cmd_fixtures,
}


def run_command(argv) -> int:
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, end="")
        return 0 if argv else 64
    name = argv[0]
    handler = _COMMANDS.get(name)
    if handler is None:
        _sys.stderr.write(f"unknown command: {name}\n{USAGE}")
        return 64
    try:
        outcome = handler(argv[1:])
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    except (MatrixFormatError, OSError, json.JSONDecodeError) as exc:
        _sys.stderr.write(f"kframes {name}: {exc}\n")
        return 2
    except (KFrameError, ValueError, KeyError) as exc:
        budget = isinstance(exc, BudgetExceededError)
        hint = "; --cap-subsets raises the limit" if budget else ""
        _sys.stderr.write(f"kframes {name}: {exc}{hint}\n")
        return 1
    try:
        _emit(outcome["report"], outcome["pretty"])
    except ValueError as exc:
        _sys.stderr.write(f"kframes {name}: report is not valid JSON: {exc}\n")
        return 1
    return 0


def main() -> None:
    _sys.exit(run_command(_sys.argv[1:]))


if __name__ == "__main__":
    main()
