"""The benchmark workloads: inputs from a seed, round scripts, answer checks.

A workload is built by ``setup(seed, workdir)``: it generates its systems
from the seed, writes them as JSON files, finds recovery matrices through the
CLI's own ``find-rk`` and computes every expectation by a route the timed
commands do not take: numpy directly, the library's independent
``spark_via_kernel`` oracle, the generating signal, or a value the
construction fixes. ``Workload.round(i)`` then returns the commands of round
``i``; the round's randomness comes from ``(seed, i)`` alone, so a round
replays identically whatever ran before it.

Every command carries a check that returns ``None`` when the answer is right
and a short reason when it is not. Floats are compared with a tolerance, so a
change that moves last bits (batching, reordered sums) is not a failure.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import kframes.cli
from kframes.fixtures import get_fixture
from kframes.redundancy import spark_via_kernel

# The library's default relative rank cutoff and residual threshold.
RANK_REL = 1e-10
RES_REL = 1e-9
# Tolerance for reconstructions and re-derived floats: loose enough for
# reordered arithmetic, tight enough that any real error shows.
CLOSE_REL = 1e-7
# The FIX-C dual is published with a sign error; its residual is exactly 2.
FIXC_RESIDUAL = 2.0
# Round index reserved for warm-up, far beyond any timed round.
WARMUP_ROUND = 10**9


class SetupError(RuntimeError):
    """The generated inputs do not meet a precondition the checks rely on."""


@dataclass
class Command:
    argv: list[str]
    check: Callable[[int, str], str | None]
    signals: int = 0


@dataclass
class Workload:
    name: str
    round: Callable[[int], list[Command]]
    warmup: list[Command]
    # Expectations the checks read when they run; tests corrupt one to show
    # that the gate is not vacuous.
    expect: dict


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process and return (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = kframes.cli.run_command(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- inputs


def random_system(rng, n: int, m: int, rank_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Generic K-frame: K has rank rank_k, the first rank_k columns of F span
    R(K) and the other m - rank_k columns are free Gaussian vectors."""
    k = rng.standard_normal((n, rank_k)) @ rng.standard_normal((rank_k, n))
    f = np.hstack([k @ rng.standard_normal((n, rank_k)),
                   rng.standard_normal((n, m - rank_k))])
    return f, k


def matrix_obj(a: np.ndarray) -> dict:
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.tolist()}


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def rank(a: np.ndarray) -> int:
    """Rank under the library's relative cutoff, computed by numpy."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > RANK_REL * max(a.shape) * s[0]))


def canonical_dual(f: np.ndarray, k: np.ndarray) -> np.ndarray:
    return (np.linalg.pinv(f, rcond=RANK_REL * max(f.shape)) @ k).T


def op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def spark_value(mat: np.ndarray):
    """Spark by the kernel-support oracle, as the CLI prints it."""
    value = spark_via_kernel(mat).value
    return "inf" if value == math.inf else int(value)


def level(spark) -> int | None:
    """Erasures a recovery matrix tolerates; None for 'every erasure set'."""
    return None if spark == "inf" else spark - 1


def close(got, want, rel: float = CLOSE_REL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = 1.0 + (float(np.max(np.abs(want))) if want.size else 0.0)
    return bool(np.all(np.abs(got - want) <= rel * scale))


def run_setup_command(argv: list[str]) -> dict:
    code, out = invoke(argv)
    if code != 0:
        raise SetupError(f"set-up command {argv[0]} exited {code}")
    return json.loads(out)


def find_rk(system: str, dual: str, r: int) -> np.ndarray:
    report = run_setup_command(
        ["find-rk", "--system", system, "--dual", dual, "--r", str(r)])
    return np.array(report["M"]["data"], dtype=float)


def parsed(code: int, out: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON output: {exc}"


def checker(fn: Callable[[dict], str | None]) -> Callable[[int, str], str | None]:
    """Turn a check on the parsed report into a check on (exit code, stdout)."""
    def check(code: int, out: str) -> str | None:
        report, err = parsed(code, out)
        return err if err else fn(report)
    return check


def check_spark(report: dict, f: np.ndarray, want) -> str | None:
    if report["spark"] != want:
        return f"spark {report['spark']} != oracle {want}"
    w = np.array(report["witness"], dtype=float)
    if np.count_nonzero(np.abs(w) > 1e-9 * np.max(np.abs(w))) != want:
        return "spark witness support differs from the spark"
    if np.linalg.norm(f @ w) > CLOSE_REL * np.linalg.norm(f) * np.linalg.norm(w):
        return "spark witness is not in the kernel"
    return None


# ---------------------------------------------------------------- simulate-batch

SIM_R = (2, 4)
STRATEGIES = ("side-info", "blind", "consistency")


def setup_simulate_batch(seed: int, workdir: Path, small: bool = False) -> Workload:
    """Repeated ``simulate`` on a 6x12 system with rank(K) = 4.

    Rounds alternate --r 2 (66 erasure sets, high reuse) and --r 4 (495 sets,
    low reuse), all three strategies, with the canonical dual and a find-rk
    recovery matrix so that blind recovery is exercised (against the Gramian
    it is always skipped, because M - Gram = 0).
    """
    n, m, rank_k = 6, 12, 4
    signals = 40 if small else 1000
    workdir.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    f, k = random_system(rng, n, m, rank_k)
    g = canonical_dual(f, k)
    system = write_json(workdir / "system.json", {"F": matrix_obj(f), "K": matrix_obj(k)})
    dual = write_json(workdir / "dual.json", matrix_obj(g))
    m_mat = find_rk(system, dual, max(SIM_R))
    rk_path = write_json(workdir / "rk.json", matrix_obj(m_mat))

    expect = {
        "spark_M": spark_value(m_mat),
        "spark_N": spark_value(m_mat - f.T @ f),
        "signals": signals,
    }
    levels = {"side-info": level(expect["spark_M"]), "blind": level(expect["spark_N"])}
    for r in SIM_R:
        for strategy, lvl in levels.items():
            if lvl is not None and r > lvl:
                raise SetupError(f"{strategy} tolerates {lvl} < {r} erasures")
        # Consistency recovery is exact for an erasure set L exactly when the
        # surviving dual vectors still span R(K^T); check every L of size r.
        for lam in itertools.combinations(range(m), r):
            known = [i for i in range(m) if i not in lam]
            if rank(np.hstack([g[:, known], k.T])) != rank(g[:, known]):
                raise SetupError(f"consistency recovery is not exact for {lam}")
    expect["r_side_info"] = m if levels["side-info"] is None else levels["side-info"]
    expect["r_blind"] = m if levels["blind"] is None else levels["blind"]
    expect["max_error"] = CLOSE_REL * (1.0 + op_norm(k) * math.sqrt(n))

    def check(report: dict) -> str | None:
        cert = report["certificate"]
        for key in ("spark_M", "spark_N", "r_side_info", "r_blind"):
            if cert[key] != expect[key]:
                return f"certificate {key} {cert[key]} != {expect[key]}"
        if cert["annihilation_ok"] is not True:
            return "certificate reports failed annihilation"
        if set(report["strategies"]) != set(STRATEGIES):
            return f"strategies {sorted(report['strategies'])}"
        for name, entry in report["strategies"].items():
            want = expect["signals"]
            got = (entry["signals"], entry["completed"], entry["skipped"], entry["exact"])
            if got != (want, want, 0, want):
                return f"{name}: signals/completed/skipped/exact {got}, want all {want} exact"
            if not entry["max_error"] <= expect["max_error"]:
                return f"{name}: max_error {entry['max_error']}"
        return None

    def command(r: int, cmd_seed: int) -> Command:
        argv = ["simulate", "--system", system, "--dual", dual, "--rk-matrix", rk_path,
                "--r", str(r), "--signals", str(signals), "--seed", str(cmd_seed)]
        return Command(argv, checker(check), signals)

    def round_(i: int) -> list[Command]:
        return [command(r, seed * 1_000_003 + 2 * i + j) for j, r in enumerate(SIM_R)]

    return Workload("simulate-batch", round_, round_(WARMUP_ROUND)[:1], expect)


# ---------------------------------------------------------------- redundancy-scan


def setup_redundancy_scan(seed: int, workdir: Path, small: bool = False) -> Workload:
    """``analyze --r 2``, ``spark`` and ``find-rk --r 2`` on two 7x14 systems.

    One has K invertible (an ordinary frame: the maximal-robustness check
    walks every 7-column subset); the other has rank(K) = 5 (uniform excess
    walks the full 7-of-14 level, maximal robustness returns early). Their
    answers follow from the generic construction of ``random_system``:

    * spark(F) = n + 1, and the oracle must agree;
    * rank(K) = n: every n columns form a basis, so uniform excess is m - n
      and the frame is maximally robust;
    * rank(K) < n: a survivor set holding all rank(K) range columns plus a
      free one stays a K-frame after losing the free one, so no removal size
      qualifies (excess 0, first failure at column 1) and the second
      rank(K)-subset already fails maximal robustness;
    * any m - 2 >= n columns span R^n, so MRC holds for r = 2.
    """
    n, m = (4, 8) if small else (7, 14)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    commands: list[Command] = []
    expect: dict = {}
    for label, rank_k in (("invertible", n), ("deficient", n - 2)):
        f, k = random_system(rng, n, m, rank_k)
        g = canonical_dual(f, k)
        system = write_json(workdir / f"{label}.json", {"F": matrix_obj(f), "K": matrix_obj(k)})
        frame = write_json(workdir / f"{label}-F.json", matrix_obj(f))
        dual = write_json(workdir / f"{label}-dual.json", matrix_obj(g))
        spark_f = spark_value(f)
        if spark_f != rank(f) + 1:
            raise SetupError(f"{label}: spark {spark_f} != rank + 1, input not generic")
        # find-rk's first trial is Gram + A (I - P), A the first draw of
        # default_rng(0) and P the projector onto R(G^T).
        u, s, _ = np.linalg.svd(g.T)
        basis = u[:, : int(np.sum(s > RANK_REL * max(g.shape) * s[0]))]
        gram = f.T @ f
        m_mat = gram + np.random.default_rng(0).standard_normal((m, m)) @ (
            np.eye(m) - basis @ basis.T)
        spark_m, spark_n = spark_value(m_mat), spark_value(m_mat - gram)
        if level(spark_n) is not None and level(spark_n) < 2:
            raise SetupError(f"{label}: first find-rk trial misses r = 2")
        expect[label] = {
            "n": n, "m": m, "operator_rank": rank_k,
            "bounds": [1.0 / op_norm(np.linalg.pinv(f) @ k) ** 2, op_norm(f) ** 2],
            "spark": spark_f,
            "uniform_excess": {"value": m - n, "witness": None} if rank_k == n
            else {"value": 0, "witness": [1]},
            "mrc": {"r": 2, "satisfied": True, "first_failing": None},
            "maximal_robust": rank_k == n,
            "M": m_mat, "spark_M": spark_m, "spark_N": spark_n,
            "r_side_info": m if level(spark_m) is None else level(spark_m),
            "r_blind": m if level(spark_n) is None else level(spark_n),
        }
        commands += [
            Command(["analyze", "--system", system, "--r", "2"],
                    checker(_analyze_check(expect, label, f))),
            Command(["spark", "--matrix", frame],
                    checker(lambda rep, label=label, f=f: check_spark(rep, f, expect[label]["spark"]))),
            Command(["find-rk", "--system", system, "--dual", dual, "--r", "2"],
                    checker(_find_rk_check(expect, label))),
        ]
    return Workload("redundancy-scan", lambda i: list(commands), [commands[1]], expect)


def _analyze_check(expect: dict, label: str, f: np.ndarray):
    def check(report: dict) -> str | None:
        want = expect[label]
        for key in ("n", "m", "operator_rank", "uniform_excess", "mrc", "maximal_robust"):
            if report[key] != want[key]:
                return f"analyze {key} {report[key]} != {want[key]}"
        if not close(report["bounds"], want["bounds"]):
            return f"analyze bounds {report['bounds']} != {want['bounds']}"
        cls = report["classification"]
        if cls != {"tight_alpha": None, "parseval": False, "equal_norm": False}:
            return f"generic frame classified as {cls}"
        return check_spark(report["spark"], f, want["spark"])
    return check


def _find_rk_check(expect: dict, label: str):
    def check(report: dict) -> str | None:
        want = expect[label]
        if (report["mode"], report["trial"]) != ("both", 1):
            return f"find-rk mode/trial {report['mode']}/{report['trial']}"
        if not close(report["M"]["data"], want["M"]):
            return "find-rk matrix differs from Gram + A (I - P)"
        for key in ("r_side_info", "r_blind"):
            if report[key] != want[key]:
                return f"find-rk {key} {report[key]} != {want[key]}"
        for key in ("spark_M", "spark_N"):
            if report[key]["spark"] != want[key]:
                return f"find-rk {key} {report[key]['spark']} != oracle {want[key]}"
        if report["annihilation_ok"] is not True:
            return "find-rk certificate fails annihilation"
        return None
    return check


# ---------------------------------------------------------------- cli-interactive

FIXTURE_NAMES = ("FIX-A", "FIX-B", "FIX-C", "FIX-D")
MAX_ERASED = 3


def tolerated(mat: np.ndarray, most: int = MAX_ERASED) -> int:
    """Largest k <= most such that every k columns of mat are independent."""
    m = mat.shape[1]
    for k in range(1, most + 1):
        blocks = mat[:, list(itertools.combinations(range(m), k))].transpose(1, 0, 2)
        s = np.linalg.svd(blocks, compute_uv=False)
        if np.any(s[:, -1] <= RANK_REL * max(mat.shape) * np.max(s[:, 0])):
            return k - 1
    return most


@dataclass
class _System:
    name: str
    f: np.ndarray
    k: np.ndarray
    g: np.ndarray
    path: str
    dual: str
    rk: str | None = None
    n_mat: np.ndarray | None = None
    levels: dict = field(default_factory=dict)


def setup_cli_interactive(seed: int, workdir: Path, small: bool = False) -> Workload:
    """A long mix of small commands over FIX-A..FIX-D and generated 6x12 and
    8x16 systems: ``fixtures``, ``check-dual``, ``canonical-dual`` with both
    methods, ``mrc --sigma`` and single-signal ``recover``. Each ``recover``
    reads a coded file and a side file written for it alone."""
    workdir.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    matrices = [(fx.name, fx.F, fx.K, fx.dual) for fx in map(get_fixture, FIXTURE_NAMES)]
    sizes = ((4, 8, 2), (5, 10, 3)) if small else ((6, 12, 4), (8, 16, 5))
    for name, (n, m, rank_k) in zip(("gen6", "gen8"), sizes):
        f, k = random_system(rng, n, m, rank_k)
        matrices.append((name, f, k, canonical_dual(f, k)))
    systems = [
        _System(name, f, k, g,
                write_json(workdir / f"{name}.json", {"F": matrix_obj(f), "K": matrix_obj(k)}),
                write_json(workdir / f"{name}-dual.json", matrix_obj(g)))
        for name, f, k, g in matrices]
    by_name = {s.name: s for s in systems}

    # Recovery: side-info against the Gramian on FIX-D and both generated
    # systems; blind against a find-rk matrix on the generated systems (the
    # best FIX-D matrix tolerates no blind erasure); consistency on all three.
    # Erasure sets have at most MAX_ERASED entries, fewer where the recovery
    # matrix has a dependent column set that small.
    recover_plan = [("FIX-D", "side-info"), ("FIX-D", "consistency")]
    for s in systems[-2:]:
        m_mat = find_rk(s.path, s.dual, 2)
        s.rk = write_json(workdir / f"{s.name}-rk.json", matrix_obj(m_mat))
        s.n_mat = m_mat - s.f.T @ s.f
        s.levels["blind"] = tolerated(s.n_mat)
        recover_plan += [(s.name, "side-info"), (s.name, "blind"), (s.name, "consistency")]
    for s in (by_name["FIX-D"], *systems[-2:]):
        s.levels["side-info"] = tolerated(s.f.T @ s.f)
        s.levels["consistency"] = min(MAX_ERASED, s.f.shape[1] - 1)
    for name, strategy in recover_plan:
        if by_name[name].levels[strategy] == 0:
            raise SetupError(f"{name}: {strategy} tolerates no erasure")

    expect = {"fixc_residual": FIXC_RESIDUAL}
    fixed: list[Command] = []
    for name in FIXTURE_NAMES:
        fixed.append(Command(["fixtures", "--name", name],
                             checker(_fixture_check(by_name[name]))))
    for s in systems:
        fixed.append(Command(["check-dual", "--system", s.path, "--dual", s.dual],
                             checker(_check_dual_check(s, expect))))
        for method in ("douglas", "restricted"):
            fixed.append(Command(["canonical-dual", "--system", s.path, "--method", method],
                                 checker(_canonical_check(s, method))))
    rounds_dir = workdir / "rounds"
    rounds_dir.mkdir()

    def round_(i: int) -> list[Command]:
        r_rng = np.random.default_rng([seed, i])
        cmds = list(fixed)
        for s in systems:
            m = s.f.shape[1]
            size = int(r_rng.integers(1, min(2, m - 1) + 1))
            sigma = sorted(int(x) for x in r_rng.choice(m, size=size, replace=False))
            cmds.append(Command(
                ["mrc", "--system", s.path, "--sigma", ",".join(str(x + 1) for x in sigma)],
                checker(_mrc_check(s, sigma))))
        for j, (name, strategy) in enumerate(recover_plan):
            cmds.append(_recover_command(by_name[name], strategy, r_rng,
                                         rounds_dir / f"r{i}-{j}"))
        return cmds

    # Warm up with a whole round: its commands are cheap and cover every path.
    return Workload("cli-interactive", round_, round_(WARMUP_ROUND), expect)


def _fixture_check(s: _System):
    def check(report: dict) -> str | None:
        if report["name"] != s.name:
            return f"fixture name {report['name']}"
        if not (close(report["F"]["data"], s.f) and close(report["K"]["data"], s.k)):
            return f"{s.name}: emitted matrices differ from the registry"
        return None
    return check


def _check_dual_check(s: _System, expect: dict):
    residual = op_norm(s.f @ s.g.T - s.k)
    threshold = RES_REL * (1.0 + op_norm(s.k))

    def check(report: dict) -> str | None:
        want = expect["fixc_residual"] if s.name == "FIX-C" else residual
        if not abs(report["residual"] - want) <= CLOSE_REL * (1.0 + want):
            return f"{s.name}: dual residual {report['residual']} != {want}"
        if report["is_valid"] != (want <= threshold):
            return f"{s.name}: dual validity {report['is_valid']}"
        return None
    return check


def _canonical_check(s: _System, method: str):
    threshold = RES_REL * (1.0 + op_norm(s.k))
    x = np.linalg.pinv(s.f, rcond=RANK_REL * max(s.f.shape)) @ s.k

    def residual_ok(g_obj, residual, is_valid) -> str | None:
        g = np.array(g_obj["data"], dtype=float)
        want = op_norm(s.f @ g.T - s.k)
        if not abs(residual - want) <= CLOSE_REL * (1.0 + op_norm(s.k)):
            return f"{s.name} {method}: residual {residual} != {want}"
        if is_valid is not None and is_valid != (want <= threshold):
            return f"{s.name} {method}: validity {is_valid}"
        return None

    def check(report: dict) -> str | None:
        if report["method"] != method:
            return f"method {report['method']}"
        if method == "douglas":
            if not close(report["G"]["data"], x.T):
                return f"{s.name}: canonical dual differs from (F^+ K)^T"
            if not abs(report["analysis_norm"] - op_norm(x)) <= CLOSE_REL * (1.0 + op_norm(x)):
                return f"{s.name}: analysis norm {report['analysis_norm']}"
            return residual_ok(report["G"], report["residual"], True)
        variant = report["variant"]
        return (residual_ok(report["G"], report["residual"], report["is_valid"])
                or residual_ok(variant["G"], variant["residual"], variant["is_valid"]))
    return check


def _mrc_check(s: _System, sigma: list[int]):
    m = s.f.shape[1]
    survivors = s.f[:, [i for i in range(m) if i not in sigma]]
    is_mrc = rank(np.hstack([survivors, s.k])) == rank(survivors)

    def check(report: dict) -> str | None:
        if report["sigma"] != [x + 1 for x in sigma]:
            return f"{s.name}: sigma echoed as {report['sigma']}"
        if report["is_mrc"] != is_mrc:
            return f"{s.name}: is_mrc {report['is_mrc']} for {sigma}, want {is_mrc}"
        if is_mrc and not report["necessary_condition_i"]:
            return f"{s.name}: MRC holds but necessary condition (i) fails"
        return None
    return check


def _recover_command(s: _System, strategy: str, rng, stem: Path) -> Command:
    n, m = s.f.shape
    size = int(rng.integers(1, s.levels[strategy] + 1))
    lam = sorted(int(x) for x in rng.choice(m, size=size, replace=False))
    signal = rng.standard_normal(n)
    coeffs = s.g.T @ signal
    target = s.k @ signal
    known = [i for i in range(m) if i not in lam]
    coded = [None if i in lam else float(coeffs[i]) for i in range(m)]
    argv = ["recover", "--system", s.path, "--dual", s.dual, "--strategy", strategy,
            "--coded", write_json(stem.with_suffix(".coded.json"),
                                  {"coefficients": coded, "erased": [i + 1 for i in lam]})]
    if strategy == "side-info":
        side = s.f.T @ target
        argv += ["--side-info", write_json(stem.with_suffix(".side.json"), side.tolist())]
        exact = rank(s.f.T @ s.f[:, lam]) == size
    elif strategy == "blind":
        argv += ["--rk-matrix", s.rk]
        exact = rank(s.n_mat[:, lam]) == size
    else:
        g_known = s.g[:, known]
        exact = rank(np.hstack([g_known, s.k.T])) == rank(g_known)

    def check(report: dict) -> str | None:
        if report["strategy"] != strategy or report["erased"] != [i + 1 for i in lam]:
            return f"{s.name} {strategy}: echoed {report['strategy']} {report['erased']}"
        if not close(np.array(report["coefficients"])[known], coeffs[known]):
            return f"{s.name} {strategy}: surviving coefficients changed"
        if report["certified_exact"] != exact:
            return f"{s.name} {strategy}: certified_exact {report['certified_exact']}, want {exact}"
        if exact and not close(report["reconstructed"], target):
            err = float(np.linalg.norm(np.array(report["reconstructed"]) - target))
            return f"{s.name} {strategy}: ||K^f - Kf|| = {err:.3e}"
        return None

    return Command(argv, checker(check), 1)


SETUPS = {
    "simulate-batch": setup_simulate_batch,
    "redundancy-scan": setup_redundancy_scan,
    "cli-interactive": setup_cli_interactive,
}
