"""Layer benchmarks (pytest-benchmark), kept out of the tier-1 test paths.

    python -m pytest bench/ --benchmark-json=bench.json
    python bench/interleave.py BEFORE_ROOT 20 OUT.json   # two checkouts, interleaved

Every case runs on one seeded 6x12 system with rank(K) = 4, its canonical
dual and a find-rk recovery matrix that tolerates 4 erasures for both
side-info and blind recovery. test_verify_kframe times building the system
from F and K; test_mrc_subset one sigma of two columns, and
test_mrc_subset_parseval the same on a 6x12 Parseval system of rank(K) = 4,
where condition (ii) runs; test_canonical_kdual_restricted both
restricted-inverse duals and their hypotheses on the construction at 6x12 and
8x16 with rank(K) = n - 1; test_recover_side_info_gramian one single-signal
recover_side_info against the Gramian, with the dual's annihilation check,
as `recover --strategy side-info` without --rk-matrix makes it;
test_is_canonical the test on the canonical dual; test_run_analyze one `analyze` through
run_command, from reading the system file to printing the report, and
test_run_analyze_invertible the same on the seeded construction with
rank(K) = N = 6, where uniform excess reads the full 6-of-12 table, and
test_run_analyze_9x18 and test_run_analyze_10x20 on the same construction
at 9x18 and 10x20, both at the default cap, which admits 10x20 since the
budgets count only the levels from rank K on. test_analyze_8x16_rank5 times
`analyze --r 2` on the construction at 8x16 with rank(K) = 5, whose K-frame
levels of 8 columns or more (the r = 1 witness's T_15 and T_14, and the MRC
survivor sets) are read off spark's rank level as spans of R^8.
test_worst_erasure_error_6x12_r4 times worst_erasure_error at r = 4 on the
6x12 system and its canonical dual, over all C(12, 4) = 495 erasure sets.
test_run_simulate times one `simulate --r 4` through run_command on the same
system, dual and recovery matrix, at 1k and 10k signals, all three strategies.
test_spark times spark on seeded generic F of size 4x8, 6x12, 8x16 and 10x20
(full spark, so the scan certifies the rank level and names the first set
one larger untested), test_spark_dup_10x20 on the 10x20 F with its second
column a copy of its first, whose rank level and level 2 each answer at
their first set, which the SVD tests alone, and
test_spark_rank7_14x14 on find-rk's shape of N, a seeded 14x14 matrix of
rank 7, whose rank-level blocks are tall, 14x7. test_spark_via_kernel
times the kernel route, the benchmark's spark oracle, on the seeded 7x14
construction with K invertible (full spark, so every support of the top
size 7 is ranked), on that 14x14 matrix of rank 7 and on a seeded generic 8x16,
whose C(16, 8) = 12,870 top supports are ranked. test_rank_of times rank_of
on seeded generic F of size 6x12 and 8x16.
test_uniform_excess and test_mrc_all time the K-frame scans on a seeded 7x14
system, with K invertible and with rank(K) = 5: uniform excess with maximal
robustness, and mrc_all at r = 2. test_mrc_all_generic times mrc_all at r = 2
on seeded generic F of size 4x8, 6x12 and 8x16 with a K of rank n // 2, so
every survivor set goes through R(K)^perp, and test_mrc_all_invertible_10x20
at r = 2 on the seeded 10x20 construction with K invertible, whose 18-column
survivor sets are proven to span R^10. test_plan_consistency_all_4sets
times one consistency plan_recovery over all C(12, 4) = 495 erasure sets of
the 6x12 system, each with its F-ambiguity test. The per-command fixed cost
of the CLI: test_load_system_8x16 times reading the system file of the 8x16
construction with rank(K) = 5 (load_matrix of F and K, then verify_kframe),
test_check_dual reading the 6x12 system and its canonical dual from their
files (load_matrix, verify_kframe and verify_kdual, as `check-dual` does),
and test_emit_canonical_8x16 printing its `canonical-dual --method
restricted` report (_emit, to a sink that discards the text).
test_recover_consistency times one single-signal recover_consistency on
the 6x12 system, as `recover --strategy consistency` makes it.
test_draw_loop_1k times simulate's draw loop (cli._draw) for 1,000 signals
of the 6x12 system at r = 4, and test_column_blocks_7x14 one column_blocks
gather of the first 2,048 7-column subsets of the 7x14 F with K invertible,
a full scan chunk.
"""

import contextlib
import io
import itertools
import json

import numpy as np
import pytest

from kframes import (
    canonical_kdual,
    canonical_kdual_restricted,
    encode,
    erase,
    find_rk_matrix,
    is_canonical,
    mrc_all,
    mrc_subset,
    plan_recovery,
    rank_of,
    recover_consistency,
    recover_side_info,
    spark,
    spark_via_kernel,
    uniform_excess,
    verify_kdual,
    verify_kframe,
    worst_erasure_error,
)
from kframes import cli
from kframes.cli import _emit, _parsers, run_command
from kframes.linalg import column_blocks, pinv_and_rank
from kframes.matrixio import load_matrix, matrix_to_obj
from kframes.recovery import STRATEGIES

N, M, RANK_K, R, SIGNALS = 6, 12, 4, 4, 1000


def _kframe(rng, rank_k, n=N, m=M):
    """F with rank_k columns spanning R(K), K of rank rank_k, the rest free."""
    k = rng.standard_normal((n, rank_k)) @ rng.standard_normal((rank_k, n))
    f = np.hstack([k @ rng.standard_normal((n, rank_k)),
                   rng.standard_normal((n, m - rank_k))])
    return verify_kframe(f, k)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(5)
    system = _kframe(rng, RANK_K)
    dual = canonical_kdual(system).dual
    m_mat = find_rk_matrix(system, dual, R).certificate.M
    signals = rng.standard_normal((SIGNALS, N))
    draws = np.sort(np.array([rng.choice(M, size=R, replace=False) for _ in signals]), axis=1)
    sets, which = np.unique(draws, axis=0, return_inverse=True)
    return system, dual, m_mat, signals, sets, which


def test_recover_side_info(benchmark, setup):
    system, dual, m_mat, signals, sets, _ = setup
    f = signals[0]
    coded = erase(encode(dual, f), sets[0])
    v = system.F.T @ (system.K.matrix @ f)
    report = benchmark(recover_side_info, system, m_mat, coded, v)
    assert report.certified_exact


def test_recover_consistency(benchmark, setup):
    system, dual, _, signals, sets, _ = setup
    f = signals[0]
    coded = erase(encode(dual, f), sets[0])
    report = benchmark(recover_consistency, system, dual, coded)
    assert report.certified_exact


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_plan_and_apply(benchmark, setup, strategy):
    system, dual, m_mat, signals, sets, which = setup
    coeffs = signals @ dual.G
    sides = signals @ system.K.matrix.T @ system.F

    def run():
        plan = plan_recovery(system, strategy, sets, m_mat=m_mat, dual=dual)
        return plan.apply(coeffs, which, sides)

    benchmark.extra_info["signals"] = SIGNALS
    _, _, certified = benchmark(run)
    assert certified.all()


def test_pinv_and_rank(benchmark, setup):
    block = setup[2][:, :R]
    _, rank = benchmark(pinv_and_rank, block)
    assert rank == R


def test_verify_kframe(benchmark, setup):
    system = setup[0]
    built = benchmark(verify_kframe, system.F, system.K.matrix)
    assert built.K.rank == RANK_K


def test_mrc_subset(benchmark, setup):
    system = setup[0]
    report = benchmark(mrc_subset, system.F, system.K, [0, 5], system.tol)
    assert report.is_mrc and report.parseval_condition_ii is None


def test_mrc_subset_parseval(benchmark):
    """mrc_subset on a 6x12 Parseval system of rank(K) 4, where condition (ii) runs."""
    rng = np.random.default_rng(5)
    u, sv, _ = np.linalg.svd(rng.standard_normal((N, RANK_K)) @ rng.standard_normal((RANK_K, N)))
    q = np.linalg.qr(rng.standard_normal((M, RANK_K)))[0]
    system = verify_kframe(u[:, :RANK_K] @ np.diag(sv[:RANK_K]) @ q.T,
                           u[:, :RANK_K] @ np.diag(sv[:RANK_K]) @ u[:, :RANK_K].T)
    report = benchmark(mrc_subset, system.F, system.K, [0, 5], system.tol)
    assert report.parseval_condition_ii is not None


@pytest.mark.parametrize("shape", ["6x12", "8x16"])
def test_canonical_kdual_restricted(benchmark, shape):
    n, m = map(int, shape.split("x"))
    system = _kframe(np.random.default_rng(5), n - 1, n=n, m=m)
    report = benchmark(canonical_kdual_restricted, system)
    assert report.dual_image.G.shape == (n, m)


def test_recover_side_info_gramian(benchmark, setup):
    system, dual, _, signals, sets, _ = setup
    f = signals[0]
    coded = erase(encode(dual, f), sets[0])
    v = system.F.T @ (system.K.matrix @ f)
    report = benchmark(recover_side_info, system, None, coded, v, dual=dual)
    assert report.certified_exact


def test_is_canonical(benchmark, setup):
    system, dual = setup[:2]
    assert benchmark(is_canonical, system, dual)


def _run_analyze(benchmark, system, tmp_path, *options):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"F": matrix_to_obj(system.F),
                                "K": matrix_to_obj(system.K.matrix)}))

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run_command(["analyze", "--system", str(path), *options]) == 0
        return json.loads(out.getvalue())

    return benchmark(run)


def test_run_analyze(benchmark, setup, tmp_path):
    assert _run_analyze(benchmark, setup[0], tmp_path)["operator_rank"] == RANK_K


def test_run_analyze_invertible(benchmark, tmp_path):
    report = _run_analyze(benchmark, _kframe(np.random.default_rng(5), N), tmp_path)
    assert (report["uniform_excess"]["value"], report["maximal_robust"]) == (M - N, True)


def test_run_analyze_9x18(benchmark, tmp_path):
    report = _run_analyze(benchmark, _kframe(np.random.default_rng(5), 9, n=9, m=18), tmp_path)
    assert (report["uniform_excess"]["value"], report["maximal_robust"]) == (9, True)


def test_run_analyze_10x20(benchmark, tmp_path):
    report = _run_analyze(benchmark, _kframe(np.random.default_rng(5), 10, n=10, m=20), tmp_path)
    assert (report["uniform_excess"]["value"], report["maximal_robust"]) == (10, True)


def test_analyze_8x16_rank5(benchmark, tmp_path):
    system = _kframe(np.random.default_rng(5), 5, n=8, m=16)
    report = _run_analyze(benchmark, system, tmp_path, "--r", "2")
    assert (report["uniform_excess"]["value"], report["maximal_robust"]) == (0, False)
    assert report["mrc"]["satisfied"] is True


def test_worst_erasure_error_6x12_r4(benchmark, setup):
    system, dual = setup[:2]
    value, worst = benchmark(worst_erasure_error, system, dual, R)
    assert value > 0 and len(worst) == R


@pytest.mark.parametrize("signals", ["1k", "10k"])
def test_run_simulate(benchmark, setup, tmp_path, signals):
    system, dual, m_mat = setup[:3]
    files = {"system": {"F": matrix_to_obj(system.F), "K": matrix_to_obj(system.K.matrix)},
             "dual": matrix_to_obj(dual.G), "rk-matrix": matrix_to_obj(m_mat)}
    argv = ["simulate", "--r", str(R), "--seed", "3",
            "--signals", str(int(signals.removesuffix("k")) * 1000)]
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run_command(argv) == 0
        return json.loads(out.getvalue())

    report = benchmark(run)
    assert all(e["exact_fraction"] == 1.0 for e in report["strategies"].values())


@pytest.mark.parametrize("shape", ["4x8", "6x12", "8x16", "10x20"])
def test_spark(benchmark, shape):
    n, m = map(int, shape.split("x"))
    f = np.random.default_rng(5).standard_normal((n, m))
    assert benchmark(spark, f).value == n + 1


def test_spark_dup_10x20(benchmark):
    f = np.random.default_rng(5).standard_normal((10, 20))
    f[:, 1] = f[:, 0]
    assert benchmark(spark, f).value == 2


def test_spark_rank7_14x14(benchmark):
    a = np.random.default_rng(5).standard_normal((14, 7))
    assert benchmark(spark, a @ a.T).value == 8


@pytest.mark.parametrize("case", ["7x14", "rank7_14x14", "8x16"])
def test_spark_via_kernel(benchmark, case):
    if case == "7x14":
        mat = _kframe(np.random.default_rng(5), 7, n=7, m=14).F
    elif case == "8x16":
        mat = np.random.default_rng(5).standard_normal((8, 16))
    else:
        a = np.random.default_rng(5).standard_normal((14, 7))
        mat = a @ a.T
    assert benchmark(spark_via_kernel, mat).value == (9 if case == "8x16" else 8)


@pytest.mark.parametrize("shape", ["6x12", "8x16"])
def test_rank_of(benchmark, shape):
    n, m = map(int, shape.split("x"))
    f = np.random.default_rng(5).standard_normal((n, m))
    assert benchmark(rank_of, f) == n


# 7x14 systems for the K-frame scans: K invertible, and rank(K) = 5.
SCAN_RANKS = {"invertible": 7, "rank5": 5}


@pytest.mark.parametrize("kind", SCAN_RANKS)
def test_uniform_excess(benchmark, kind):
    system = _kframe(np.random.default_rng(5), SCAN_RANKS[kind], n=7, m=14)
    report = benchmark(uniform_excess, system.F, system.K)
    # Every 7 columns span R^7; with rank(K) < n, a free column can go.
    want = (7, True) if kind == "invertible" else (0, False)
    assert (report.value, report.maximal_robust) == want


@pytest.mark.parametrize("kind", SCAN_RANKS)
def test_mrc_all(benchmark, kind):
    system = _kframe(np.random.default_rng(5), SCAN_RANKS[kind], n=7, m=14)
    assert benchmark(mrc_all, system.F, system.K, 2) == (True, None)


def test_mrc_all_invertible_10x20(benchmark):
    system = _kframe(np.random.default_rng(5), 10, n=10, m=20)
    assert benchmark(mrc_all, system.F, system.K, 2) == (True, None)


@pytest.mark.parametrize("shape", ["4x8", "6x12", "8x16"])
def test_mrc_all_generic(benchmark, shape):
    n, m = map(int, shape.split("x"))
    rng = np.random.default_rng(5)
    f = rng.standard_normal((n, m))
    k = rng.standard_normal((n, n // 2)) @ rng.standard_normal((n // 2, n))
    # Any m - 2 >= n generic columns span R^n, so every 2-erasure meets MRC.
    assert benchmark(mrc_all, f, k, 2) == (True, None)


def test_plan_consistency_all_4sets(benchmark, setup):
    system, dual = setup[:2]
    sets = np.array(list(itertools.combinations(range(M), R)))
    plan = benchmark(plan_recovery, system, "consistency", sets, dual=dual)
    assert len(sets) == 495 and plan.range_ok.all()


def _write_system(system, path):
    path.write_text(json.dumps({"F": matrix_to_obj(system.F),
                                "K": matrix_to_obj(system.K.matrix)}))
    return str(path)


def test_load_system_8x16(benchmark, tmp_path):
    system = _kframe(np.random.default_rng(5), 5, n=8, m=16)
    path = _write_system(system, tmp_path / "system.json")
    loaded = benchmark(lambda: verify_kframe(*load_matrix(path, key=("F", "K"))))
    assert loaded.K.rank == 5 and np.array_equal(loaded.F, system.F)


def test_check_dual(benchmark, setup, tmp_path):
    system, dual = setup[:2]
    path = _write_system(system, tmp_path / "system.json")
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps({"G": matrix_to_obj(dual.G)}))

    def check():
        loaded = verify_kframe(*load_matrix(path, key=("F", "K")))
        return verify_kdual(loaded, load_matrix(dual_path, key="G", bare=True))

    assert benchmark(check).is_valid


class _Sink:
    """A stdout that discards what is printed to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_emit_canonical_8x16(benchmark, tmp_path):
    system = _kframe(np.random.default_rng(5), 5, n=8, m=16)
    argv = ["--system", _write_system(system, tmp_path / "system.json"), "--method", "restricted"]
    args = _parsers()["canonical-dual"].parse_args(argv)
    report = {"command": "canonical-dual", **args.run(args)}

    def emit():
        with contextlib.redirect_stdout(_Sink()):
            _emit(report, False)

    benchmark(emit)
    assert report["G"]["rows"] == 8 and report["G"]["cols"] == 16


def test_draw_loop_1k(benchmark):
    # cli._draw is looked up at call time: a checkout without it reads null
    # in bench/interleave.py instead of failing to import.
    signals, draws = benchmark(lambda: cli._draw(np.random.default_rng(3), SIGNALS, N, M, R))
    draws.sort(axis=1)
    assert signals.shape == (SIGNALS, N) and (np.diff(draws, axis=1) > 0).all()


def test_column_blocks_7x14(benchmark):
    f = _kframe(np.random.default_rng(5), 7, n=7, m=14).F
    subsets = np.array(list(itertools.islice(itertools.combinations(range(14), 7), 2048)))
    blocks = benchmark(column_blocks, f, subsets)
    assert blocks.shape == (2048, 7, 7) and np.array_equal(blocks[-1], f[:, subsets[-1]])
