"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned in the assertions.
"""

import itertools
import json
import math
import time

import numpy as np

from kframes import (
    canonical_kdual,
    canonical_kdual_restricted,
    dual_perturbation,
    encode,
    erase,
    find_rk_matrix,
    KFrameError,
    mrc_subset,
    null_space_basis,
    operator_norm,
    ranges_nested,
    recover_side_info,
    spark,
    spark_via_kernel,
    uniform_excess,
    verify_kdual,
    verify_kframe,
    worst_residual_error,
)
from kframes.cli import run_command
from kframes.fixtures import FIXTURES

from conftest import random_inrange_kframe, random_kframe, uniform_excess_construction


def _report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _system(name):
    fix = FIXTURES[name]
    return verify_kframe(fix.F, fix.K)


def test_criterion_1_fixture_reproduction():
    start = time.perf_counter()
    checks = []

    t0 = time.perf_counter()
    sys_a = _system("FIX-A")
    got = canonical_kdual(sys_a).dual.G
    expected_a = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    checks.append(np.max(np.abs(got - expected_a)) <= 1e-9)
    checks.append(time.perf_counter() - t0 < 1.0)

    t0 = time.perf_counter()
    sys_b = _system("FIX-B")
    restricted = canonical_kdual_restricted(sys_b)
    expected_b = np.array([
        [0.4, 0.0, 0.2, 0.6],
        [0.0, 1.0, 0.0, 0.0],
        [0.4, 0.0, 0.2, 0.6],
        [0.0, 0.5, 0.0, 0.0],
    ])
    checks.append(np.max(np.abs(restricted.dual_image.G - expected_b)) <= 1e-9)
    checks.append(not restricted.dual_image.is_valid)
    checks.append(time.perf_counter() - t0 < 1.0)

    t0 = time.perf_counter()
    mrc = mrc_subset(sys_b.F, sys_b.K, [0, 2])
    checks.append(mrc.is_mrc is False and mrc.necessary_condition_i is True)
    checks.append(time.perf_counter() - t0 < 1.0)

    t0 = time.perf_counter()
    sys_c = _system("FIX-C")
    gram_c = np.array([
        [2.0, -1.0, 1.0, 0.0],
        [-1.0, 1.0, -1.0, 0.5],
        [1.0, -1.0, 5.0, -0.5],
        [0.0, 0.5, -0.5, 0.5],
    ])
    checks.append(np.array_equal(sys_c.gramian, gram_c))
    checks.append(spark(sys_c.F).value == 3)
    checks.append(time.perf_counter() - t0 < 1.0)

    t0 = time.perf_counter()
    sys_d = _system("FIX-D")
    gram_d = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 2.0, 0.0],
        [1.0, 2.0, 5.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    checks.append(np.array_equal(sys_d.gramian, gram_d))
    checks.append(spark(sys_d.gramian).value == 3)
    dual_d = verify_kdual(sys_d, FIXTURES["FIX-D"].dual)
    checks.append(dual_d.is_valid)
    checks.append(not mrc_subset(dual_d.G, sys_d.K.matrix.T, [0]).is_mrc)
    checks.append(time.perf_counter() - t0 < 1.0)

    elapsed = time.perf_counter() - start
    _report(1, all(checks), f"fixture reproduction ({elapsed:.2f}s, "
                            f"{sum(checks)}/{len(checks)} checks)")


def test_criterion_2_two_erasure_recovery():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for name, dual_source in (("FIX-C", "canonical"), ("FIX-D", "published")):
        sys = _system(name)
        if dual_source == "canonical":
            dual = canonical_kdual(sys).dual
        else:
            dual = verify_kdual(sys, FIXTURES[name].dual)
        rng = np.random.default_rng(202)
        for lam in itertools.combinations(range(4), 2):
            for _ in range(100):
                f = rng.standard_normal(4)
                c = encode(dual, f)
                v = sys.F.T @ (sys.K.matrix @ f)
                report = recover_side_info(sys, sys.gramian, erase(c, lam), v)
                err = float(np.max(np.abs(report.coefficients - c)))
                worst = max(worst, err)
                cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(2, ok, f"{cases} two-erasure recoveries, worst coefficient error "
                   f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_documented_discrepancy():
    sys_c = _system("FIX-C")
    dual = verify_kdual(sys_c, FIXTURES["FIX-C"].dual)
    defect = sys_c.F @ dual.G.T - sys_c.K.matrix
    entry = defect[0, 3]
    ok = (
        abs(dual.residual - 2.0) <= 1e-9
        and abs(entry - 2.0) <= 1e-9
        and not dual.is_valid
    )
    _report(3, ok, f"published dual residual {dual.residual:.12f}, "
                   f"defect entry (1,4) = {entry:.12f}")


def test_criterion_4_uniform_excess_spark_law():
    rng = np.random.default_rng(404)
    failures = []
    count = 0
    for r in (1, 2):
        for _ in range(25):
            rank = int(rng.integers(2, 5))
            f, k = uniform_excess_construction(rng, rank, r, ambient=rank + 1)
            m = f.shape[1]
            value = spark(f).value
            count += 1
            if value != m - r + 1:
                failures.append((rank, r, value))
    # Spot-check that the construction really has the claimed excess.
    f, k = uniform_excess_construction(np.random.default_rng(405), 2, 2, ambient=3)
    excess_ok = uniform_excess(f, k).value == 2
    ok = not failures and excess_ok and count == 50
    _report(4, ok, f"{count} constructions, failures: {failures}")


def test_criterion_5_minimal_norm_and_dual_identity():
    rng = np.random.default_rng(505)
    norm_violations = 0
    identity_worst = 0.0
    systems = 0
    while systems < 100:
        n = int(rng.integers(3, 6))
        m = int(rng.integers(n, n + 4))
        rank = int(rng.integers(1, n))
        f, k = random_kframe(rng, n, m, rank)
        sys = verify_kframe(f, k)
        systems += 1
        result = canonical_kdual(sys)
        null = null_space_basis(sys.F)
        gram = result.dual.G @ result.dual.G.T
        for _ in range(3):
            coeffs = rng.standard_normal((sys.n, null.dim))
            other = dual_perturbation(sys, result.dual, coeffs)
            if result.analysis_norm > operator_norm(other.G.T) + 1e-9:
                norm_violations += 1
            identity_worst = max(
                identity_worst,
                operator_norm(gram - result.dual.G @ other.G.T),
            )
    ok = norm_violations == 0 and identity_worst <= 1e-8
    _report(5, ok, f"{systems} systems, norm violations {norm_violations}, "
                   f"worst dual identity residual {identity_worst:.2e}")


def test_criterion_6_blind_spark_survivor_property():
    rng = np.random.default_rng(606)
    checked = 0
    violations = 0
    for _ in range(15):
        n = int(rng.integers(3, 5))
        m = int(rng.integers(n, 9))
        rank = int(rng.integers(1, n))
        f, k = random_kframe(rng, n, m, rank)
        sys = verify_kframe(f, k)
        dual = canonical_kdual(sys).dual
        try:
            found = find_rk_matrix(sys, dual, 1)
        except KFrameError:
            continue
        cert = found.certificate
        if cert.spark_N.value == math.inf:
            continue
        s = int(cert.spark_N.value)
        checked += 1
        for size in range(0, s):
            for lam in itertools.combinations(range(m), size):
                survivors = [i for i in range(m) if i not in lam]
                if not ranges_nested(sys.K.matrix.T, dual.G[:, survivors], sys.tol):
                    violations += 1
    ok = checked > 0 and violations == 0
    _report(6, ok, f"{checked} certificates scanned exhaustively, "
                   f"violations {violations}")


def test_criterion_7_perfect_reconstruction_in_range_duals():
    rng = np.random.default_rng(707)
    worst = 0.0
    cases = 0
    for _ in range(10):
        n = int(rng.integers(3, 6))
        rank = int(rng.integers(1, n))
        m = int(rng.integers(rank + 1, rank + 4))
        f, k = random_inrange_kframe(rng, n, m, rank)
        sys = verify_kframe(f, k)
        dual = canonical_kdual(sys).dual
        # Construction guarantee: every dual vector lies in R(K).
        off_range = operator_norm(
            (np.eye(n) - sys.K.range.projector()) @ dual.G
        )
        worst = max(worst, off_range)
        for r in range(1, sys.m):
            value = worst_residual_error(sys, dual, r)[0]
            worst = max(worst, value)
            cases += 1
    ok = worst <= 1e-10
    _report(7, ok, f"{cases} (system, r) pairs, worst residual error {worst:.2e}")


def test_criterion_8_spark_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    mats = []
    for fix in FIXTURES.values():
        mats.extend([fix.F, fix.F.T @ fix.F, fix.K])
    while len(mats) < 212:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 13))
        rank = int(rng.integers(1, min(n, 4) + 1))
        mat = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
        style = rng.integers(0, 4)
        if style == 1 and m >= 2:
            mat[:, -1] = mat[:, 0]
        elif style == 2:
            mat[:, int(rng.integers(0, m))] = 0.0
        elif style == 3:
            mat = rng.standard_normal((max(n, m), m))
        mats.append(mat)
    disagreements = 0
    for mat in mats:
        a = spark(mat)
        b = spark_via_kernel(mat)
        if a.value != b.value:
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0
    _report(8, ok, f"{len(mats)} matrices through both routes, "
                   f"disagreements {disagreements}, {elapsed:.1f}s")


def test_criterion_9_simulate_determinism(tmp_path, capsys):
    fix = FIXTURES["FIX-D"]
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({
        "F": {"rows": 4, "cols": 4, "data": fix.F.tolist()},
        "K": {"rows": 4, "cols": 4, "data": fix.K.tolist()},
    }))
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps(
        {"G": {"rows": 4, "cols": 4, "data": fix.dual.tolist()}}
    ))
    argv = [
        "simulate", "--system", str(sys_path), "--dual", str(dual_path),
        "--r", "2", "--signals", "250", "--seed", "909",
    ]
    assert run_command(argv) == 0
    first = capsys.readouterr().out
    assert run_command(argv) == 0
    second = capsys.readouterr().out
    ok = first == second and first.strip()
    with capsys.disabled():
        _report(9, bool(ok), f"two runs, {len(first)} bytes each, "
                             f"identical: {first == second}")
