"""The subset-scan engine: one budget rule for every scan, one enumerator.

Each scan entry point must run with cap equal to its worst-case count of
subset tests and refuse with cap one below it, before handing out a single
subset. The counts are written out here from the rule itself: one test per
subset, column count + 1 per subset checked for being an exact K-frame, and
for the spark family only the sizes that are sure to end the scan.
"""

import ast
import itertools
from contextlib import contextmanager
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kframes
from kframes import (
    BudgetExceededError,
    is_maximal_robust,
    min_support_in_range,
    mrc_all,
    spark,
    spark_via_kernel,
    uniform_excess,
    verify_kdual,
    verify_kframe,
    worst_erasure_error,
    worst_residual_error,
)
from kframes.frames import scan_subsets

from conftest import random_kframe


def _rank(a):
    return int(np.linalg.matrix_rank(a, rtol=1e-10 * max(a.shape)))


def _spark_count(mat):
    m, r = mat.shape[1], _rank(mat)
    return sum(comb(m, k) for k in range(1, r + 2))


def _cases(f, k, r):
    """(scan name, worst-case subset tests, call taking the cap) per entry point.

    min_support_in_range is the spark of a complement basis, so its scan is spark's.
    """
    m = f.shape[1]
    sys = verify_kframe(f, k)
    dual = verify_kdual(sys, (np.linalg.pinv(f) @ k).T)
    rank_f, rank_k = _rank(f), _rank(k)
    return [
        ("spark", _spark_count(f), lambda cap: spark(f, cap=cap)),
        ("spark_via_kernel", _spark_count(f), lambda cap: spark_via_kernel(f, cap=cap)),
        ("spark", sum(comb(m, s) for s in range(1, m - rank_f + 2)),
         lambda cap: min_support_in_range(f.T, cap=cap)),
        ("mrc_all", comb(m, r), lambda cap: mrc_all(f, k, r, cap=cap)),
        ("uniform_excess", sum(comb(m, s) * (m - s + 1) for s in range(1, m)),
         lambda cap: uniform_excess(f, k, cap=cap)),
        ("is_maximal_robust", comb(m, rank_k) * (rank_k + 1),
         lambda cap: is_maximal_robust(f, k, cap=cap)),
        ("worst_erasure_error", comb(m, r),
         lambda cap: worst_erasure_error(sys, dual, r, cap=cap)),
        ("worst_residual_error", comb(m, r),
         lambda cap: worst_residual_error(sys, dual, r, cap=cap)),
    ]


@contextmanager
def _counting_subsets():
    """Count every subset that any itertools.combinations call hands out."""
    seen = [0]
    real = itertools.combinations

    def spy(pool, size):
        for subset in real(pool, size):
            seen[0] += 1
            yield subset

    with mock.patch.object(itertools, "combinations", spy):
        yield seen


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
        with _counting_subsets() as seen, pytest.raises(BudgetExceededError) as exc:
            run(count - 1)
        assert seen[0] == 0, name
        assert str(exc.value) == (
            f"{name} needs {count} subset tests, more than the cap of {count - 1}")


def test_enumerator_order_and_refusal():
    assert list(scan_subsets("t", 4, [1, 3], cap=8)) == [
        (0,), (1,), (2,), (3,), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    with pytest.raises(BudgetExceededError):
        scan_subsets("t", 4, [1, 3], cap=7)
    # Costs per size: 4 subsets of size 1 at 2 tests, 4 of size 3 at 4 tests.
    with pytest.raises(BudgetExceededError, match="needs 24 subset tests"):
        scan_subsets("t", 4, [1, 3], cap=23, cost=lambda size: size + 1)


# The only functions allowed to enumerate subsets or count them.
_ALLOWED = {
    ("frames.py", "scan_budget"),
    ("frames.py", "scan_subsets"),
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
