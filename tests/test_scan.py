"""The subset-scan engine: one budget rule for every scan, one enumerator.

Each scan entry point must run with cap equal to its worst-case count of
subset tests and refuse with cap one below it, before handing out a single
subset. The counts are written out here from the rule itself: one test per
subset; exactness at size s needs the K-frame tests of sizes s and s - 1,
of which only those of at least rank K columns are ever tested; and for the
spark family only the sizes that are sure to end the scan.
"""

import ast
import itertools
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kframes
from kframes import (
    BudgetExceededError,
    is_maximal_robust,
    mrc_all,
    spark,
    spark_via_kernel,
    uniform_excess,
    verify_kdual,
    verify_kframe,
    worst_erasure_error,
    worst_residual_error,
)
from kframes import frames
from kframes.frames import SCAN_CHUNK, SubsetTable

from conftest import counting_subsets, random_kframe


def _rank(a):
    return int(np.linalg.matrix_rank(a, rtol=1e-10 * max(a.shape)))


def _spark_count(mat):
    """Sizes 1..rank, the budget of both spark routes."""
    m, r = mat.shape[1], _rank(mat)
    return sum(comb(m, k) for k in range(1, r + 1))


def _cases(f, k, r):
    """(scan name, worst-case subset tests, call taking the cap) per entry point."""
    m = f.shape[1]
    sys = verify_kframe(f, k)
    dual = verify_kdual(sys, (np.linalg.pinv(f) @ k).T)
    rank_k = _rank(k)
    return [
        ("spark", _spark_count(f), lambda cap: spark(f, cap=cap)),
        ("spark_via_kernel", _spark_count(f),
         lambda cap: spark_via_kernel(f, cap=cap)),
        ("mrc_all", comb(m, r), lambda cap: mrc_all(f, k, r, cap=cap)),
        ("uniform_excess", sum(comb(m, s) for s in range(rank_k, m)),
         lambda cap: uniform_excess(f, k, cap=cap)),
        ("is_maximal_robust", comb(m, rank_k),
         lambda cap: is_maximal_robust(f, k, cap=cap)),
        ("worst_erasure_error", comb(m, r),
         lambda cap: worst_erasure_error(sys, dual, r, cap=cap)),
        ("worst_residual_error", comb(m, r),
         lambda cap: worst_residual_error(sys, dual, r, cap=cap)),
    ]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(1, 3),
    rank_k=st.integers(1, 4),
    r=st.integers(1, 3),
)
def test_every_scan_passes_at_its_count_and_refuses_below(seed, n, extra, rank_k, r):
    rng = np.random.default_rng(seed)
    m = n + extra
    f, k = random_kframe(rng, n, m, min(rank_k, n))
    for name, count, run in _cases(f, k, min(r, m - 1)):
        run(count)
        with counting_subsets() as seen, pytest.raises(BudgetExceededError) as exc:
            run(count - 1)
        assert seen[0] == 0, name
        assert str(exc.value) == (
            f"{name} needs {count} subset tests, more than the cap of {count - 1}")


def test_uniform_excess_counts_t_m_when_k_has_rank_m():
    """At rank K = m only maximal robustness tests a subset: the one m-set."""
    f, k = random_kframe(np.random.default_rng(0), 3, 3, 3)
    with counting_subsets() as seen:
        got = uniform_excess(f, k, cap=1)
    assert (got.value, got.witness, got.maximal_robust) == (0, (0,), True)
    assert seen[0] == 1
    with counting_subsets() as seen, pytest.raises(BudgetExceededError) as exc:
        uniform_excess(f, k, cap=0)
    assert seen[0] == 0
    assert str(exc.value) == "uniform_excess needs 1 subset tests, more than the cap of 0"


def _recorded(m, sizes, cap):
    """A table whose test records each chunk and gives each subset a unique code."""
    chunks = []

    def code(chunk):
        chunks.append(chunk)
        return chunk @ (m ** np.arange(chunk.shape[1]))

    return SubsetTable("t", m, sizes, cap, code), chunks


def test_enumerator_order_and_refusal():
    table, chunks = _recorded(4, [0, 1, 3], cap=9)
    for s in (0, 1, 3):
        assert len(table.results(s)) == comb(4, s)
    assert [c.shape for c in chunks] == [(1, 0), (1, 1), (3, 1), (1, 3), (3, 3)]
    assert [tuple(row) for c in chunks for row in c.tolist()] == [
        (), (0,), (1,), (2,), (3,), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    with pytest.raises(BudgetExceededError, match="needs 9 subset tests"):
        _recorded(4, [0, 1, 3], cap=8)
    # Within a level, chunks grow eightfold from one subset up to SCAN_CHUNK, in order.
    table, chunks = _recorded(16, [7], cap=comb(16, 7))
    codes = table.results(7)
    assert SCAN_CHUNK == 2048
    assert [len(c) for c in chunks] == [1, 8, 64, 512] + [SCAN_CHUNK] * 5 + [615]
    assert comb(16, 7) == 585 + 5 * SCAN_CHUNK + 615
    level = list(itertools.combinations(range(16), 7))
    assert [tuple(row) for c in chunks for row in c.tolist()] == level
    # first names a subset by its result, whichever chunk holds it, with no new test.
    for p in range(0, len(level), 97):
        assert table.first(7, codes[p]) == level[p]
    assert table.first(7, -1) is None and len(chunks) == 10


def _ramp(count, size=1):
    """Chunk lengths for count rows, growing eightfold from size up to SCAN_CHUNK."""
    lengths = []
    while count:
        lengths.append(min(size, count))
        count, size = count - lengths[-1], min(8 * size, SCAN_CHUNK)
    return lengths


@settings(max_examples=80, deadline=None)
@given(
    shape=st.integers(0, 16).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    certified=st.booleans(),
    rows=st.sampled_from([1, 20, 500, frames._TABLE_ROWS]),
    table_from=st.sampled_from([1, frames._TABLE_FROM]),
    stop=st.floats(0, 1),
)
@example(shape=(0, 0), certified=False, rows=1, table_from=1, stop=0.0)
@example(shape=(16, 8), certified=False, rows=frames._TABLE_ROWS,
         table_from=frames._TABLE_FROM, stop=0.5)
@example(shape=(16, 8), certified=True, rows=20, table_from=frames._TABLE_FROM, stop=0.9)
def test_enumerator_hands_out_each_level_in_lexicographic_chunks(
    shape, certified, rows, table_from, stop
):
    """Streamed or cut from an index table, a level's chunks are
    itertools.combinations in order, as intp arrays in the ramp's lengths; a
    table is built only for a level of at most _TABLE_ROWS subsets, once a
    chunk of _TABLE_FROM is due. On a certified level the first subset goes
    to test alone, and the rest to certify in SCAN_CHUNK blocks and their
    unproven rows to test. A first read that stops at a drawn row is resumed
    by results, each subset handed out once, and _subset(s, p) names row p."""
    m, s = shape
    level = np.array(list(itertools.combinations(range(m), s)), np.intp).reshape(comb(m, s), s)
    weights = (m + 1) ** np.arange(s)
    # Row p alone tests False; certify proves a third of the others.
    p = int(stop * (len(level) - 1))
    target = level[p] @ weights
    tested, blocks, built = [], [], []
    real_table = SubsetTable._table

    def test(chunk):
        tested.append(chunk)
        return chunk @ weights != target

    def certify(chunk):
        blocks.append(chunk)
        return (chunk @ weights != target) & (chunk @ weights % 3 == 0)

    def table_spy(*args):
        built.append(args)
        return real_table(*args)

    with (mock.patch.object(frames, "_TABLE_ROWS", rows),
          mock.patch.object(frames, "_TABLE_FROM", table_from),
          mock.patch.object(SubsetTable, "_table", staticmethod(table_spy))):
        table = SubsetTable("t", m, [s], comb(m, s), test, {s: certify} if certified else None)
        assert table.first(s, False) == tuple(level[p])
        assert np.array_equal(table.results(s), level @ weights != target)
    longest = max(len(c) for c in (blocks if certified and len(level) > 1 else tested))
    assert len(built) == (len(level) <= rows and longest >= table_from)
    assert all(c.dtype == np.intp and c.shape[1:] == (s,) for c in tested + blocks)
    if certified:
        proven = (level @ weights != target) & (level @ weights % 3 == 0)
        assert [len(b) for b in blocks] == _ramp(len(level) - 1, SCAN_CHUNK)
        assert np.array_equal(np.concatenate([level[:1]] + blocks), level)
        assert np.array_equal(np.concatenate(tested), np.vstack((level[:1], level[1:][~proven[1:]])))
        assert len(tested[0]) == 1
    else:
        assert [len(c) for c in tested] == _ramp(len(level))
        assert np.array_equal(np.concatenate(tested), level)
    for p in range(0, len(level), max(1, len(level) // 50)):
        assert table._subset(s, p) == tuple(level[p])


def test_first_reads_a_level_only_until_it_is_answered():
    """The first 7-set is in the first chunk; the last needs the whole level."""
    table, chunks = _recorded(16, [7], cap=comb(16, 7))
    assert table.first(7, sum(16**i * i for i in range(7))) == tuple(range(7))
    assert len(chunks) == 1
    assert table.first(7, sum(16**i * (i + 9) for i in range(7))) == tuple(range(9, 16))
    assert len(chunks) == 10


def test_certified_level_tests_only_its_unproven_subsets():
    """A certified level's first subset goes to test alone, and the level is
    proven in SCAN_CHUNK blocks from its second; test sees only the unproven
    subsets, in order and in chunks growing 1, 8, 64, ..., and a read that
    stopped inside a block resumes at its next unproven subset. Here the
    unproven 7-sets are the C(14, 5) = 2002 that hold 0 and 1, the first 2002
    of the level, and those that also hold 15 test False; the first of them,
    (0, 1, 2, 3, 4, 5, 15), is the 10th set."""
    level = np.array(list(itertools.combinations(range(16), 7)))
    proofs, chunks = [], []

    def certify(chunk):
        proofs.append(len(chunk))
        return ~((chunk == 0).any(axis=1) & (chunk == 1).any(axis=1))

    def test(chunk):
        chunks.append(chunk)
        return ~(chunk == 15).any(axis=1)

    table = SubsetTable("t", 16, [7], comb(16, 7), test, {7: certify})
    assert table.first(7, False) == (0, 1, 2, 3, 4, 5, 15)
    assert proofs == [SCAN_CHUNK] and [len(c) for c in chunks] == [1, 8, 64]
    holds = [(level == i).any(axis=1) for i in (0, 1, 15)]
    assert np.array_equal(table.results(7), ~(holds[0] & holds[1] & holds[2]))
    assert proofs == [SCAN_CHUNK] * 5 + [1199]
    assert [len(c) for c in chunks] == [1, 8, 64, 512, 1417]
    assert np.array_equal(np.concatenate(chunks), level[:comb(14, 5)])


def test_exactness_scans_stop_once_decided():
    """Levels are read only as far as their verdicts need, not to the budget."""
    rng = np.random.default_rng(5)
    f, k = random_kframe(rng, 2, 16, 2)
    # Size 2 is exact: T_2 is read whole, while T_0 and T_1 lie below rank K
    # and cost no subset, and sizes 3..15 are never read, against the
    # 2^16 - 1 tests of the budget.
    with counting_subsets() as seen:
        assert uniform_excess(f, k).value == 14
    assert seen[0] == comb(16, 2)
    f[:, 1] = f[:, 0]  # the first 2-set is no K-frame
    # T_2 is certified, but its first set, (0, 1), goes to the SVD alone and
    # answers before any block is proven.
    with counting_subsets() as seen:
        assert not is_maximal_robust(f, k)
    assert seen[0] == 1
    # rank K = 2 < n: T_1 is free, T_2 is read through the chunk of its
    # second 2-set, the first that is no K-frame, and T_3 and T_4 to their
    # first K-frame; the witness then reads T_5 and T_4 whole: 1 + 8 + 1 + 1 +
    # 6 + 14 subsets.
    f, k = random_kframe(np.random.default_rng(0), 3, 6, 2)
    with counting_subsets() as seen:
        got = uniform_excess(f, k)
    assert (got.value, got.maximal_robust) == (0, False)
    assert seen[0] == 31


# The only functions allowed to enumerate subsets or count them.
_ALLOWED = {
    ("frames.py", "SubsetTable"),
    ("frames.py", "scan_budget"),
    ("redundancy.py", "spark_via_kernel"),
}
_ENUMERATE_OR_COUNT = {("itertools", "combinations"), ("math", "comb")}


def test_subsets_are_enumerated_and_counted_in_one_place():
    found = set()
    for path in sorted(Path(kframes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = {(node.module, alias.name) for alias in node.names}
                    assert not names & _ENUMERATE_OR_COUNT, path.name
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and (node.value.id, node.attr) in _ENUMERATE_OR_COUNT):
                    found.add((path.name, owner))
    assert found <= _ALLOWED
