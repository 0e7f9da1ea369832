"""Command-line front end.

Commands: analyze, canonical-dual, check-dual, spark, mrc, recover,
find-rk, simulate, fixtures. Reports are JSON on stdout; human diagnostics
go to stderr. Exit codes: 0 success, 1 contract violation or a computed
value out of float64 range, 2 I/O or parse error, 64 unknown command or bad
usage.

`_parsers` builds each command's parser once per process, with only the
common options the command reads, the handler as `args.run` and the check of
flags that depend on each other as `args.check`. A handler maps args to its
report body; `run_command` alone parses, checks, prints {"command": name,
**body} and maps exceptions to exit codes. Every usage error, a tolerance
outside TolerancePolicy's range among them, exits 64 before any file is read.

All user-facing indices are 1-based; matrices use the JSON/CSV formats
documented in matrixio.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys as _sys

import numpy as np

from . import matrixio
from .canonical import canonical_kdual, canonical_kdual_restricted
from .errors import BudgetExceededError, KFrameError, MatrixFormatError, ShapeMismatchError
from .fixtures import FIXTURES, get_fixture
from .frames import (
    DEFAULT_CAP,
    DualSystem,
    KFrameSystem,
    classify,
    frame_bounds,
    verify_kdual,
    verify_kframe,
)
from .linalg import DEFAULT_TOL, TolerancePolicy, matvec_rows, row_norms
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
    SparkResult,
    analyze_scans,
    mrc_all,
    mrc_subset,
    spark,
)

USAGE = """usage: kframes <command> [options]

commands:
  analyze         bounds, classification, spark and redundancy report
  canonical-dual  construct the canonical K-dual (douglas | restricted)
  check-dual      residual-based K-dual verification
  spark           spark of a matrix with a kernel witness
  mrc             minimal redundancy condition for a set or all r-sets
  recover         recover erased coefficients (side-info | blind | consistency)
  find-rk         build and certify a recovery matrix for a target erasure level
  simulate        seeded Monte-Carlo erasure/recovery experiment
  fixtures        emit a built-in reference system (FIX-A .. FIX-D)

options each command takes besides its own:
  --pretty          every command
  --tol-rank X      every command but fixtures
  --tol-res X       every command but fixtures and spark
  --cap-subsets N   spark, analyze, mrc, find-rk, simulate
"""


def _at_least(low: int):
    """argparse type: an integer >= low; a smaller one is a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _tolerance(field: str):
    """argparse type: a float that TolerancePolicy takes as field; else a usage error."""
    def tolerance(text: str) -> float:
        value = float(text)
        try:
            TolerancePolicy(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return tolerance


def _policy(args) -> TolerancePolicy:
    return TolerancePolicy(rank_cutoff_rel=args.tol_rank, residual_rel=args.tol_res)


def _load_system(args) -> KFrameSystem:
    try:
        return verify_kframe(*matrixio.load_matrix(args.system, key=("F", "K")), _policy(args))
    except ShapeMismatchError as exc:
        raise MatrixFormatError(f"{args.system}: {exc}") from None


def _sized(path, value: np.ndarray, shape: tuple) -> np.ndarray:
    """value, read from path, if shaped as the system needs; else exit 2 naming path."""
    if value.shape != shape:
        raise MatrixFormatError(f"{path}: expected shape {shape}, got {value.shape}")
    return value


def _load_dual(path, system: KFrameSystem) -> DualSystem:
    """The dual of a file holding {"G": matrix} or the bare matrix, parsed once."""
    return verify_kdual(system, _sized(path, matrixio.load_matrix(path, key="G", bare=True),
                                       system.F.shape))


def _rk_matrix(args, m: int) -> np.ndarray | None:
    """The --rk-matrix file's m x m matrix; None (the Gramian) when it is absent."""
    return None if args.rk_matrix is None else _sized(
        args.rk_matrix, matrixio.load_matrix(args.rk_matrix), (m, m))


def _spark_obj(result: SparkResult) -> dict:
    return {"spark": "inf" if not result.finite else int(result.value),
            "witness": result.witness}


def _certificate_obj(cert, spark_entry) -> dict:
    """A recovery-matrix certificate, each of its sparks written by spark_entry."""
    return {
        "spark_M": spark_entry(cert.spark_M),
        "spark_N": spark_entry(cert.spark_N),
        "annihilation_residual": cert.annihilation_residual,
        "annihilation_ok": cert.annihilation_ok,
        "r_side_info": cert.r_side_info,
        "r_blind": cert.r_blind,
    }


def _dual_obj(dual: DualSystem) -> dict:
    return {"G": matrixio.matrix_to_obj(dual.G), "residual": dual.residual,
            "is_valid": dual.is_valid}


def _one_based(indices) -> list[int]:
    return [int(i) + 1 for i in indices]


def _plain(value):
    """json.dumps' default hook: an ndarray or numpy scalar as its Python value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _non_finite_at(value, path: str = "") -> str | None:
    """'<path> is <value>' for the first non-finite float of a report value in
    print order, keys joined by '.' and list positions 1-based; else None."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        found = (_non_finite_at(v, f"{path}.{k}" if path else str(k)) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        found = (_non_finite_at(v, f"{path}[{i}]") for i, v in enumerate(value, start=1))
    else:
        bad = isinstance(value, (float, np.floating)) and not np.isfinite(value)
        return f"{path} is {value}" if bad else None
    return next(filter(None, found), None)


def _emit(report: dict, pretty: bool) -> None:
    """Print the report as one json.dumps, numpy values through _plain; on any
    non-finite float, print nothing and raise ValueError naming the first
    (_non_finite_at). spark's "inf" is written as that string where the
    report is built (_spark_obj)."""
    try:
        text = json.dumps(report, indent=2 if pretty else None, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise ValueError(_non_finite_at(report) or str(exc)) from None
    print(text)


def _cmd_fixtures(args) -> dict:
    fix = get_fixture(args.name)
    report = {
        "name": fix.name,
        "F": matrixio.matrix_to_obj(fix.F),
        "K": matrixio.matrix_to_obj(fix.K),
    }
    if args.with_dual:
        report["G"] = None if fix.dual is None else matrixio.matrix_to_obj(fix.dual)
        report["note"] = fix.note
    return report


def _cmd_spark(args) -> dict:
    mat = matrixio.load_matrix(args.matrix)
    tol = TolerancePolicy(rank_cutoff_rel=args.tol_rank)
    return {"matrix": args.matrix, **_spark_obj(spark(mat, tol, cap=args.cap_subsets))}


def _cmd_check_dual(args) -> dict:
    dual = _load_dual(args.dual, _load_system(args))
    return {"residual": dual.residual, "is_valid": dual.is_valid}


def _cmd_canonical_dual(args) -> dict:
    system = _load_system(args)
    if args.method == "douglas":
        result = canonical_kdual(system)
        return {
            "method": "douglas",
            "G": matrixio.matrix_to_obj(result.dual.G),
            "residual": result.dual.residual,
            "analysis_norm": result.analysis_norm,
            "hypotheses": None,
        }
    result = canonical_kdual_restricted(system)
    return {
        "method": "restricted",
        **_dual_obj(result.dual_image),
        "hypotheses": result.hypotheses,
        "variant": _dual_obj(result.dual_domain),
    }


def _mrc_all_obj(r: int, satisfied: bool, failing) -> dict:
    return {"r": r, "satisfied": satisfied,
            "first_failing": None if failing is None else _one_based(failing)}


def _cmd_analyze(args) -> dict:
    system = _load_system(args)
    if args.r > system.m:
        raise KFrameError(f"r must satisfy 0 <= r <= m = {system.m}")
    tol, cap = system.tol, args.cap_subsets
    cls = classify(system)
    spark_f, excess, mrc = analyze_scans(system.F, system.K, args.r, cap, tol)
    try:
        bounds = frame_bounds(system)
    except KFrameError:
        bounds = None
    return {
        "n": system.n,
        "m": system.m,
        "operator_rank": system.K.rank,
        "bounds": bounds,
        "classification": {"tight_alpha": cls.tight_alpha, "parseval": cls.parseval,
                           "equal_norm": cls.equal_norm},
        "spark": _spark_obj(spark_f),
        "uniform_excess": {
            "value": excess.value,
            "witness": None if excess.witness is None else _one_based(excess.witness),
        },
        "mrc": _mrc_all_obj(args.r, *mrc),
        "maximal_robust": excess.maximal_robust,
    }


def _cmd_mrc(args) -> dict:
    system = _load_system(args)
    if args.sigma is None:
        return _mrc_all_obj(args.r, *mrc_all(system.F, system.K, args.r, args.cap_subsets,
                                             system.tol))
    rep = mrc_subset(system.F, system.K, _positions(args.sigma, system.m, "--sigma"), system.tol)
    return {"sigma": _one_based(rep.sigma), "is_mrc": rep.is_mrc,
            "necessary_condition_i": rep.necessary_condition_i,
            "parseval_condition_ii": rep.parseval_condition_ii}


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
    obj = matrixio.read_json(path)
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
    return erase(matrixio.finite_entries([0.0 if v is None else v for v in coeffs],
                                         lambda j: f"{path}: coefficient {j}"), mask)


def _cmd_recover(args) -> dict:
    system = _load_system(args)
    dual = _load_dual(args.dual, system)
    coded = _load_coded(args.coded, system.m)
    m_mat = _rk_matrix(args, system.m)
    if args.strategy == "side-info":
        v = _sized(args.side_info, matrixio.vector_from_obj(
            matrixio.read_json(args.side_info), f"{args.side_info}: side vector"), (system.m,))
        result = recover_side_info(system, m_mat, coded, v, dual=dual)
    elif args.strategy == "blind":
        result = recover_blind(system, m_mat, coded, dual=dual)
    else:
        result = recover_consistency(system, dual, coded)
    return {
        "strategy": result.strategy,
        "erased": _one_based(coded.mask),
        "coefficients": result.coefficients,
        "reconstructed": result.reconstructed,
        "solver_residual": result.solver_residual,
        "certified_exact": result.certified_exact,
    }


def _cmd_find_rk(args) -> dict:
    system = _load_system(args)
    dual = _load_dual(args.dual, system)
    found = find_rk_matrix(system, dual, args.r, cap=args.cap_subsets)
    cert = found.certificate
    return {
        "mode": found.mode,
        "trial": found.trial,
        "M": matrixio.matrix_to_obj(cert.M),
        **_certificate_obj(cert, _spark_obj),
    }


def _simulate_strategy(system, dual, strategy, m_mat, products, sets, which):
    """Recover signal i, erased at sets[which[i]], from products[j][i], with one plan.

    products holds every signal's coefficients, K f and F^T K f, as rows.
    The draws of an ambiguous set are skipped. Each draw is rounded as if
    recovered alone and errors stay in draw order, so batching never shows.
    """
    coeffs, targets, sides = products
    count = len(coeffs)
    plan = plan_recovery(system, strategy, sets, m_mat=m_mat, dual=dual)
    ok = plan.deficiency[which] == 0
    if ok.all():  # no set is skipped: whole arrays, no masked copies
        ok = slice(None)
    full, _, certified = plan.apply(coeffs[ok], which[ok], sides[ok])
    target = targets[ok]
    errors = np.full(count, np.nan)
    errors[ok] = row_norms(matvec_rows(system.F, full) - target)
    close = system.tol.accepts(errors[ok], row_norms(target), factor=10)
    exact = int(np.count_nonzero(certified & close))
    done = errors[~np.isnan(errors)].tolist()
    completed = len(done)
    entry = {
        "signals": count,
        "completed": completed,
        "skipped": count - completed,
        "exact": exact,
        "exact_fraction": exact / count,
        "max_error": max(done) if done else None,
        "mean_error": sum(done) / completed if done else None,
    }
    if completed == 0:
        entry["skipped_all"] = True
    return entry


def _draw(rng, count: int, n: int, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """count signals in R^n and their erased slots, r distinct of m, unsorted.
    Per signal the rng sees rng.standard_normal(n), then rng.choice(m, size=r,
    replace=False); 0-d array arguments take choice's cheaper ndarray path."""
    signals = np.empty((count, n))
    draws = np.empty((count, r), dtype=np.intp)
    normal, choice = rng.standard_normal, rng.choice
    pool, size = np.array(m), np.array(r)
    for row, draw in zip(signals, draws):
        normal(out=row)
        draw[:] = choice(pool, size=size, replace=False)
    return signals, draws


def _cmd_simulate(args) -> dict:
    system = _load_system(args)
    dual = canonical_kdual(system).dual if args.dual is None \
        else _load_dual(args.dual, system)
    if not (0 <= args.r < system.m):
        raise KFrameError(f"r must satisfy 0 <= r < m = {system.m}")
    m_mat = _rk_matrix(args, system.m)
    signals, draws = _draw(np.random.default_rng(args.seed), args.signals,
                           system.n, system.m, args.r)
    draws.sort(axis=1)
    # The distinct sets in lexicographic order, and each draw's place among
    # them, as np.unique(draws, axis=0, return_inverse=True) gives them.
    order = np.lexsort(draws.T[::-1]) if args.r else np.arange(args.signals)
    ranked = draws[order]
    new = np.ones(args.signals, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    sets, which = ranked[new], np.empty(args.signals, dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    certificate = None
    if {"side-info", "blind"} & set(args.strategies):
        cert = validate_rk_matrix(system, dual, m_mat, cap=args.cap_subsets)
        certificate = _certificate_obj(cert, lambda s: _spark_obj(s)["spark"])
    coeffs, targets = matvec_rows(dual.G.T, signals), matvec_rows(system.K.matrix, signals)
    products = coeffs, targets, matvec_rows(system.F.T, targets)
    return {
        "config": {
            "system": args.system,
            "dual": args.dual,
            "r": args.r,
            "signals": args.signals,
            "seed": args.seed,
            "strategies": args.strategies,
            "rk_matrix": args.rk_matrix,
        },
        "certificate": certificate,
        "strategies": {
            s: _simulate_strategy(system, dual, s, m_mat, products, sets, which)
            for s in args.strategies
        },
    }


def _strategy_list(text: str) -> list[str]:
    """argparse type: a comma-separated list of distinct strategy names; else a usage error."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names or any(s not in STRATEGIES or names.count(s) > 1 for s in names):
        raise argparse.ArgumentTypeError(
            f"needs distinct names of {', '.join(STRATEGIES)}, got {text!r}")
    return names


def _sigma_list(text: str) -> list[int]:
    """argparse type: comma-separated integers, each an optional sign and decimal
    digits with spaces around; an empty or other item is a usage error. Whether
    each is a distinct position in 1..m is checked once the system is read."""
    items = [s.strip() for s in text.split(",")]
    if not all(re.fullmatch(r"[+-]?\d+", s) for s in items):
        raise argparse.ArgumentTypeError(f"needs comma-separated integer positions, got {text!r}")
    return [int(s) for s in items]


def _check_recover(args) -> str | None:
    """Why the strategy cannot run with these file flags; None when it can."""
    if args.strategy == "side-info" and args.side_info is None:
        return "side-info strategy requires --side-info"
    if args.strategy != "side-info" and args.side_info is not None:
        return "--side-info is read only by --strategy side-info"
    if args.strategy == "consistency" and args.rk_matrix is not None:
        return "--rk-matrix is read only by --strategy side-info or blind"
    return None


def _check_simulate(args) -> str | None:
    """Why --rk-matrix is refused: no strategy named would read it; else None."""
    if args.rk_matrix is not None and not {"side-info", "blind"} & set(args.strategies):
        return "--rk-matrix is read only when --strategies holds side-info or blind"
    return None


@functools.cache
def _parsers() -> dict[str, argparse.ArgumentParser]:
    """One parser per command, built once, taking only the common options the
    command reads; each holds its handler as `run` and its flag check as `check`."""
    common = {  # flag -> add_argument keywords
        "--tol-rank": {"type": _tolerance("rank_cutoff_rel"),
                       "default": DEFAULT_TOL.rank_cutoff_rel},
        "--tol-res": {"type": _tolerance("residual_rel"), "default": DEFAULT_TOL.residual_rel},
        "--cap-subsets": {"type": _at_least(1), "default": DEFAULT_CAP},
        "--pretty": {"action": "store_true"},
    }
    parsers = {}

    def command(name, run, options, *required, check=lambda args: None):
        parsers[name] = parser = argparse.ArgumentParser(prog=f"kframes {name}")
        parser.set_defaults(run=run, check=check)
        for flag in options.split():
            parser.add_argument(flag, **common[flag])
        for flag in required:
            parser.add_argument(flag, required=True)
        return parser

    every, tols = " ".join(common), "--tol-rank --tol-res --pretty"
    parser = command("fixtures", _cmd_fixtures, "--pretty")
    parser.add_argument("--name", required=True, type=str.upper, choices=sorted(FIXTURES))
    parser.add_argument("--with-dual", action="store_true")
    command("spark", _cmd_spark, "--tol-rank --cap-subsets --pretty", "--matrix")
    command("check-dual", _cmd_check_dual, tols, "--system", "--dual")
    command("canonical-dual", _cmd_canonical_dual, tols, "--system").add_argument(
        "--method", choices=("douglas", "restricted"), default="douglas")
    command("analyze", _cmd_analyze, every, "--system").add_argument(
        "--r", type=_at_least(0), default=1)
    group = command("mrc", _cmd_mrc, every, "--system").add_mutually_exclusive_group(
        required=True)
    group.add_argument("--sigma", type=_sigma_list, help="comma-separated 1-based indices")
    group.add_argument("--r", type=_at_least(0))
    parser = command("recover", _cmd_recover, tols, "--system", "--dual", "--coded",
                     check=_check_recover)
    parser.add_argument("--strategy", default="consistency", choices=STRATEGIES)
    parser.add_argument("--rk-matrix", default=None)
    parser.add_argument("--side-info", default=None)
    parser = command("find-rk", _cmd_find_rk, every, "--system", "--dual")
    parser.add_argument("--r", type=_at_least(0), required=True)
    parser = command("simulate", _cmd_simulate, every, "--system", check=_check_simulate)
    parser.add_argument("--dual", default=None, help="dual file; canonical dual when omitted")
    parser.add_argument("--r", type=_at_least(0), required=True)
    parser.add_argument("--signals", type=_at_least(1), default=1000)
    parser.add_argument("--seed", type=_at_least(0), default=0)
    parser.add_argument("--strategies", type=_strategy_list, default=",".join(STRATEGIES))
    parser.add_argument("--rk-matrix", default=None)
    return parsers


def run_command(argv) -> int:
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, end="")
        return 0 if argv else 64
    name = argv[0]
    parser = _parsers().get(name)
    if parser is None:
        _sys.stderr.write(f"unknown command: {name}\n{USAGE}")
        return 64
    try:
        args = parser.parse_args(argv[1:])
        if problem := args.check(args):
            parser.error(problem)
        with np.errstate(over="raise", invalid="raise"):
            body = args.run(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    except FloatingPointError as exc:
        _sys.stderr.write(f"kframes {name}: computed values leave the float64 range ({exc})\n")
        return 1
    except (MatrixFormatError, OSError) as exc:
        _sys.stderr.write(f"kframes {name}: {exc}\n")
        return 2
    except (KFrameError, ValueError) as exc:
        budget = isinstance(exc, BudgetExceededError)
        hint = "; --cap-subsets raises the limit" if budget else ""
        _sys.stderr.write(f"kframes {name}: {exc}{hint}\n")
        return 1
    try:
        _emit({"command": name, **body}, args.pretty)
    except ValueError as exc:
        _sys.stderr.write(f"kframes {name}: report is not valid JSON: {exc}\n")
        return 1
    return 0


def main() -> None:
    _sys.exit(run_command(_sys.argv[1:]))


if __name__ == "__main__":
    main()
