"""Batched recovery in `simulate` against an independent route.

For every draw, numpy's matrix_rank (with the library's relative cutoff) of
the erased block predicts whether side-info and blind recovery complete, and
the survivor range test predicts whether consistency recovery is exact. The
signals and erasure sets are redrawn here with simulate's rng call sequence.
The stacked plan itself is checked, bit for bit, against a plan built set by
set from one SVD per block, with the library's rank and exactness rules
written in numpy alone, and applied signal by signal.
"""

import contextlib
import io
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kframes import recovery, verify_kdual, verify_kframe
from kframes.cli import run_command
from kframes.fixtures import FIXTURES
from kframes.linalg import pinv_and_rank
from kframes.recovery import STRATEGIES, plan_recovery

from conftest import random_kframe

SIGNALS = 24


def _matrix(a):
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.tolist()}


def _rank(a):
    if a.size == 0:
        return 0
    return int(np.linalg.matrix_rank(a, rtol=1e-10 * max(a.shape)))


def _draws(seed, n, m, r):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(SIGNALS):
        f = rng.standard_normal(n)
        out.append((f, tuple(sorted(rng.choice(m, size=r, replace=False).tolist()))))
    return out


def _predicted(f_mat, k_mat, g, m_mat, draws):
    """(completed, skipped, exact) per strategy, from ranks alone."""
    m = f_mat.shape[1]
    blocks = {"side-info": m_mat, "blind": m_mat - f_mat.T @ f_mat}
    counts = {s: np.zeros(3, dtype=int) for s in STRATEGIES}
    for _, lam in draws:
        for name, mat in blocks.items():
            solvable = _rank(mat[:, list(lam)]) == len(lam)
            counts[name] += (solvable, not solvable, solvable)
        g_known = g[:, [i for i in range(m) if i not in lam]]
        spans = _rank(np.hstack([g_known, k_mat.T])) == _rank(g_known)
        counts["consistency"] += (1, 0, spans)
    return {s: tuple(c.tolist()) for s, c in counts.items()}


def _check_simulate(workdir, f_mat, k_mat, g, m_mat, r, seed):
    system = workdir / "system.json"
    system.write_text(json.dumps({"F": _matrix(f_mat), "K": _matrix(k_mat)}))
    dual = workdir / "dual.json"
    dual.write_text(json.dumps({"G": _matrix(g)}))
    rk = workdir / "rk.json"
    rk.write_text(json.dumps(_matrix(m_mat)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(["simulate", "--system", str(system), "--dual", str(dual),
                            "--rk-matrix", str(rk), "--r", str(r),
                            "--signals", str(SIGNALS), "--seed", str(seed)])
    assert code == 0
    report = json.loads(out.getvalue())["strategies"]

    draws = _draws(seed, *f_mat.shape, r)
    want = _predicted(f_mat, k_mat, g, m_mat, draws)
    got = {s: (e["completed"], e["skipped"], e["exact"]) for s, e in report.items()}
    assert got == want

    # Every certified reconstruction of the batched path matches Kf.
    sys = verify_kframe(f_mat, k_mat)
    dual_sys = verify_kdual(sys, g)
    sets, which = np.unique(np.array([lam for _, lam in draws], dtype=int).reshape(
        SIGNALS, r), axis=0, return_inverse=True)
    signals = np.array([f for f, _ in draws])
    for strategy in STRATEGIES:
        plan = plan_recovery(sys, strategy, sets, m_mat=m_mat, dual=dual_sys)
        ok = plan.deficiency[which] == 0
        full, _, certified = plan.apply((signals @ g)[ok], which[ok],
                                        (signals @ k_mat.T @ f_mat)[ok])
        recon = full @ f_mat.T
        kf = signals[ok] @ k_mat.T
        err = np.linalg.norm(recon - kf, axis=1)
        assert np.all(err[certified] <= 1e-8 * np.linalg.norm(kf, axis=1)[certified])
    return report


def _annihilating_matrix(rng, f_mat, g):
    """Gram + A (I - P), with P the projector onto the row space of the dual."""
    m = f_mat.shape[1]
    proj = g.T @ np.linalg.pinv(g.T)
    return f_mat.T @ f_mat + rng.standard_normal((m, m)) @ (np.eye(m) - proj)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(1, 4),
    rank_k=st.integers(1, 4),
    r=st.integers(0, 3),
    use_gramian=st.booleans(),
)
def test_simulate_matches_rank_prediction(
    tmp_path_factory, seed, n, extra, rank_k, r, use_gramian
):
    rng = np.random.default_rng(seed)
    m = n + extra
    f_mat, k_mat = random_kframe(rng, n, m, min(rank_k, n))
    g = (np.linalg.pinv(f_mat) @ k_mat).T
    m_mat = f_mat.T @ f_mat if use_gramian else _annihilating_matrix(rng, f_mat, g)
    report = _check_simulate(tmp_path_factory.mktemp("sim"), f_mat, k_mat, g, m_mat,
                             min(r, m - 1), seed)
    if use_gramian and r > 0:
        # M - Gram = 0 leaves blind recovery nothing to solve with.
        assert report["blind"]["skipped_all"] is True


def test_fixture_d_plans_that_must_raise(tmp_path):
    fix = FIXTURES["FIX-D"]
    gram = fix.F.T @ fix.F
    report = _check_simulate(tmp_path, fix.F, fix.K, fix.dual, gram, 3, 5)
    # spark(Gram) = 3 on FIX-D: some 3-erasure side-info blocks are singular.
    assert 0 < report["side-info"]["skipped"] < SIGNALS
    assert report["blind"]["skipped_all"] is True


@pytest.mark.parametrize("r", [1, 2])
def test_fixture_d_blind_against_gramian_all_skipped(tmp_path, r):
    fix = FIXTURES["FIX-D"]
    report = _check_simulate(tmp_path, fix.F, fix.K, fix.dual, fix.F.T @ fix.F, r, 11)
    assert report["blind"]["skipped"] == SIGNALS


def _cutoff(a):
    """The library's rank cutoff for a, from numpy's singular values of a."""
    s = np.linalg.svd(a, compute_uv=False)
    return max(1e-10 * max(a.shape) * s[0], np.finfo(float).tiny)


def _reference_plan(sys, dual, strategy, mat, lam):
    """(rank, range_ok, block, solver, coupling) of one set, from one SVD."""
    known = [i for i in range(sys.m) if i not in lam]
    valid = True
    if strategy == "consistency":
        # N = Q, the projector onto Ker G, from numpy's own SVD of G.
        _, s_g, vt_g = np.linalg.svd(dual.G, full_matrices=True)
        rank_g = int(np.sum(s_g > max(1e-10 * max(dual.G.shape) * s_g[0], np.finfo(float).tiny)))
        kernel = np.ascontiguousarray(vt_g[rank_g:].T)
        mat = kernel @ kernel.T
        valid = np.linalg.norm(sys.F @ dual.G.T - sys.K.matrix, 2) <= 1e-9 * (
            1.0 + np.linalg.norm(sys.K.matrix, 2))
    block, coupling = mat[:, list(lam)], mat[:, known]
    rank, solver, null = 0, np.zeros(block.shape[::-1]), np.eye(len(lam))
    if block.size:
        # Every block is ranked against its whole matrix's largest singular value.
        u, s, vt = np.linalg.svd(block, full_matrices=True)
        rank = int(np.sum(s > _cutoff(mat)))
        solver = vt.T[:, :rank] @ np.diag(1.0 / s[:rank]) @ u[:, :rank].T
        null = vt[rank:].T
    # Exact when F_L maps every null right singular vector of the block to 0,
    # against the rank cutoff at F's Frobenius norm, F scaled by a power of two
    # to unit size.
    f_unit = np.ldexp(sys.F, -np.frexp(np.abs(sys.F).max())[1])
    moved = np.linalg.norm(f_unit[:, list(lam)] @ null, axis=0)
    f_cutoff = max(1e-10 * max(f_unit.shape) * np.linalg.norm(f_unit), np.finfo(float).tiny)
    range_ok = bool(valid and np.all(moved <= f_cutoff))
    return rank, range_ok, block, solver, coupling


def _reference_apply(strategy, lam, plan, c, side):
    """One signal through one set's reference plan, with 2-D numpy products."""
    _, range_ok, block, solver, coupling = plan
    full = c.copy()
    if block.shape[1] == 0:
        return full, 0.0, range_ok
    known_values = c[[i for i in range(len(c)) if i not in lam]]
    if strategy == "side-info":
        rhs = side - coupling @ known_values
    else:
        rhs = -(coupling @ known_values)
    x = solver @ rhs
    residual = float(np.linalg.norm(block @ x - rhs))
    full[list(lam)] = x
    scale = np.linalg.norm(rhs)
    if strategy == "side-info":
        scale = max(scale, np.linalg.norm(side))
    return full, residual, range_ok and residual <= 1e-9 * (1.0 + scale)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(1, 4),
    rank_k=st.integers(1, 4),
    r=st.integers(0, 3),
    use_gramian=st.booleans(),
    duplicate=st.booleans(),
    zero=st.booleans(),
)
def test_stacked_plan_matches_per_set_reference(
    seed, n, extra, rank_k, r, use_gramian, duplicate, zero
):
    rng = np.random.default_rng(seed)
    m = n + extra
    r = min(r, m - 1)
    f_mat, k_mat = random_kframe(rng, n, m, min(rank_k, n))
    # Repeated and zero columns make some erased blocks rank deficient, and
    # consistency blocks of one size differ in rank.
    if duplicate:
        f_mat[:, m - 1] = f_mat[:, m - 2]
    if zero and m - 1 > rank_k:
        f_mat[:, rank_k] = 0.0
    sys = verify_kframe(f_mat, k_mat)
    dual = verify_kdual(sys, (np.linalg.pinv(f_mat) @ k_mat).T)
    m_mat = f_mat.T @ f_mat if use_gramian else _annihilating_matrix(rng, f_mat, dual.G)
    combos = list(itertools.combinations(range(m), r))
    sets = np.array(combos, dtype=int).reshape(len(combos), r)
    which = np.repeat(np.arange(len(sets)), 2)
    signals = rng.standard_normal((len(which), n))
    coeffs = signals @ dual.G
    sides = signals @ k_mat.T @ f_mat
    for strategy in STRATEGIES:
        mat = m_mat - f_mat.T @ f_mat if strategy == "blind" else m_mat
        plan = plan_recovery(sys, strategy, sets, m_mat=m_mat, dual=dual)
        refs = [_reference_plan(sys, dual, strategy, mat, tuple(lam)) for lam in sets]
        for g, (rank, range_ok, _, solver, _) in enumerate(refs):
            skip = strategy != "consistency" and rank < r
            assert (plan.deficiency[g] > 0) == skip
            assert plan.rank[g] == rank and plan.range_ok[g] == range_ok
            assert _same(plan.solver[g], solver)
        full, residual, certified = plan.apply(coeffs, which, sides)
        for i, g in enumerate(which):
            want = _reference_apply(strategy, tuple(sets[g]), refs[g], coeffs[i], sides[i])
            assert _same(full[i], want[0])
            assert residual[i] == want[1] and certified[i] == want[2]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(1, 4),
    rank_k=st.integers(1, 4),
    r=st.integers(1, 3),
    chunk=st.sampled_from([1, 3, 7]),
    passes=st.integers(2, 4),
    mixed=st.booleans(),
)
def test_apply_passes_match_reference(seed, n, extra, rank_k, r, chunk, passes, mixed):
    """apply reads SCAN_CHUNK at call time and recovers in passes of that many
    signals; across pass boundaries every row, residual and flag is the per-set
    reference's, and every solver is pinv_and_rank's where the two rank alike.
    A generic M ranks every side-info set alike, one rank class; zeroing its
    first column drops the sets that hold it one rank, two classes."""
    rng = np.random.default_rng(seed)
    m = n + extra
    r = min(r, m - 1)
    f_mat, k_mat = random_kframe(rng, n, m, min(rank_k, n))
    sys = verify_kframe(f_mat, k_mat)
    dual = verify_kdual(sys, (np.linalg.pinv(f_mat) @ k_mat).T)
    m_mat = _annihilating_matrix(rng, f_mat, dual.G)
    if mixed:
        m_mat[:, 0] = 0.0
    sets = np.array(list(itertools.combinations(range(m), r)), dtype=int)
    count = chunk * passes + int(rng.integers(chunk))
    which = rng.permutation(np.arange(count) % len(sets))
    signals = rng.standard_normal((count, n))
    coeffs = signals @ dual.G
    sides = signals @ k_mat.T @ f_mat
    for strategy in STRATEGIES:
        mat = m_mat - f_mat.T @ f_mat if strategy == "blind" else m_mat
        plan = plan_recovery(sys, strategy, sets, m_mat=m_mat, dual=dual)
        if strategy == "side-info":
            assert len(set(plan.rank.tolist())) == 1 + mixed
        for g, lam in enumerate(sets):
            solver, rank = pinv_and_rank(plan.matrix[:, lam], sys.tol)
            if rank == plan.rank[g]:
                assert _same(plan.solver[g], solver)
        refs = {g: _reference_plan(sys, dual, strategy, mat, tuple(sets[g]))
                for g in set(which.tolist())}
        with mock.patch.object(recovery, "SCAN_CHUNK", chunk), mock.patch.object(
                recovery, "matvec_rows", wraps=recovery.matvec_rows) as products:
            full, residual, certified = plan.apply(coeffs, which, sides)
        assert products.call_count == 3 * -(-count // chunk)  # three per pass
        for i, g in enumerate(which):
            want = _reference_apply(strategy, tuple(sets[g]), refs[g], coeffs[i], sides[i])
            assert _same(full[i], want[0])
            assert residual[i] == want[1] and certified[i] == want[2]


@pytest.mark.parametrize("strategy, sets, shown", [
    ("bogus", [[0]], "unknown strategy 'bogus'"),
    ("consistency", [[0]], "consistency recovery needs the dual"),
    ("side-info", [[0], [4]], "indices in 0..3"),
    ("blind", [[-1]], "indices in 0..3"),
    ("side-info", [[1, 1]], "repeats an index"),
])
def test_plan_refuses_bad_requests_before_any_work(sys_d, strategy, sets, shown):
    with pytest.raises(ValueError, match=shown):
        plan_recovery(sys_d, strategy, sets)
