"""Shared fixtures, random system generators and independent oracles."""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from kframes import redundancy, verify_kdual, verify_kframe
from kframes.frames import SubsetTable
from kframes.fixtures import FIXTURES


@pytest.fixture(scope="session")
def sys_a():
    fix = FIXTURES["FIX-A"]
    return verify_kframe(fix.F, fix.K)


@pytest.fixture(scope="session")
def sys_b():
    fix = FIXTURES["FIX-B"]
    return verify_kframe(fix.F, fix.K)


@pytest.fixture(scope="session")
def sys_c():
    fix = FIXTURES["FIX-C"]
    return verify_kframe(fix.F, fix.K)


@pytest.fixture(scope="session")
def sys_d():
    fix = FIXTURES["FIX-D"]
    return verify_kframe(fix.F, fix.K)


@pytest.fixture(scope="session")
def dual_c(sys_c):
    return verify_kdual(sys_c, FIXTURES["FIX-C"].dual)


@pytest.fixture(scope="session")
def dual_d(sys_d):
    return verify_kdual(sys_d, FIXTURES["FIX-D"].dual)


@contextmanager
def counting_subsets():
    """Count every subset handed out: each row of the chunks SubsetTable
    enumerates for test or certify, and each support spark_via_kernel draws
    from itertools.combinations. Index-table rows built but not handed out
    do not count."""
    seen = [0]
    chunks = SubsetTable._chunks

    def table_spy(*args):
        for chunk in chunks(*args):
            seen[0] += len(chunk)
            yield chunk

    def kernel_spy(pool, size):
        for subset in itertools.combinations(pool, size):
            seen[0] += 1
            yield subset

    kernel_itertools = SimpleNamespace(**{**vars(itertools), "combinations": kernel_spy})
    with mock.patch.object(SubsetTable, "_chunks", staticmethod(table_spy)), \
            mock.patch.object(redundancy, "itertools", kernel_itertools):
        yield seen


def random_operator(rng, n, rank):
    """Random n x n matrix of exact rank (generic factor product)."""
    if rank == 0:
        return np.zeros((n, n))
    a = rng.standard_normal((n, rank))
    b = rng.standard_normal((rank, n))
    return a @ b


def random_kframe(rng, n, m, rank_k):
    """Random system with R(K) inside the frame span.

    The first rank_k columns are random combinations of operator range
    vectors (so they span R(K) generically); the rest are unconstrained.
    """
    k = random_operator(rng, n, rank_k)
    span_part = k @ rng.standard_normal((n, rank_k))
    extra = rng.standard_normal((n, m - rank_k))
    f = np.hstack([span_part, extra]) if m > rank_k else span_part
    return f, k


def random_inrange_kframe(rng, n, m, rank_k):
    """System whose frame vectors all lie inside R(K) (projector operator)."""
    basis = np.linalg.qr(rng.standard_normal((n, rank_k)))[0]
    k = basis @ basis.T
    f = k @ rng.standard_normal((n, m))
    return f, k


def random_parseval_kframe(rng, n, m, rank_k):
    """Parseval system: F F^T = M_K M_K^T with R(F) = R(K)."""
    k = random_operator(rng, n, rank_k)
    u, s, _ = np.linalg.svd(k)
    q = np.linalg.qr(rng.standard_normal((m, rank_k)))[0]
    f = u[:, :rank_k] @ np.diag(s[:rank_k]) @ q.T
    return f, k


def uniform_excess_construction(rng, rank_k, r, ambient=None):
    """Frame of rank_k + r generic vectors inside a rank_k operator range.

    Every rank_k-column subsystem is then a basis of R(K), giving uniform
    excess exactly r. Retries fresh draws until all subset-rank conditions
    hold so seeded runs cannot go degenerate.
    """
    n = ambient or rank_k + 1
    m = rank_k + r
    for attempt in range(50):
        basis = np.linalg.qr(rng.standard_normal((n, rank_k)))[0]
        k = basis @ basis.T
        coeffs = rng.standard_normal((rank_k, m))
        if all(
            np.linalg.matrix_rank(coeffs[:, list(sub)]) == rank_k
            for sub in itertools.combinations(range(m), rank_k)
        ):
            return basis @ coeffs, k
    raise AssertionError("failed to draw a generic in-range frame")


def lower_bound_oracle(f_mat, k_mat, samples=4000, refine=60, seed=0):
    """Grid/refinement estimate of inf ||F^T f||^2 / ||K^T f||^2."""
    rng = np.random.default_rng(seed)
    n = f_mat.shape[0]
    best = np.inf
    best_f = None
    for _ in range(samples):
        f = rng.standard_normal(n)
        f /= np.linalg.norm(f)
        denom = np.linalg.norm(k_mat.T @ f) ** 2
        if denom < 1e-12:
            continue
        ratio = np.linalg.norm(f_mat.T @ f) ** 2 / denom
        if ratio < best:
            best, best_f = ratio, f
    sigma = 0.3
    for _ in range(refine):
        for _ in range(40):
            f = best_f + sigma * rng.standard_normal(n)
            f /= np.linalg.norm(f)
            denom = np.linalg.norm(k_mat.T @ f) ** 2
            if denom < 1e-12:
                continue
            ratio = np.linalg.norm(f_mat.T @ f) ** 2 / denom
            if ratio < best:
                best, best_f = ratio, f
        sigma *= 0.8
    return best


def spark_oracle_bruteforce(mat, tol=1e-9):
    """Reference spark: smallest support meeting the kernel, via svdvals."""
    m = mat.shape[1]
    s = np.linalg.svd(mat, compute_uv=False)
    cutoff = 1e-10 * max(mat.shape) * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    if rank == m:
        return np.inf
    for k in range(1, rank + 2):
        for subset in itertools.combinations(range(m), k):
            block = mat[:, list(subset)]
            vals = np.linalg.svd(block, compute_uv=False)
            if vals[-1] <= tol * max(1.0, vals[0]):
                return k
    raise AssertionError("unreachable")
