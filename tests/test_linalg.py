import ast
import importlib
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, event, example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kframes
from kframes import (
    KFrameError,
    TolerancePolicy,
    null_space_basis,
    operator_norm,
    pseudo_inverse,
    range_basis,
    rank_of,
    svd_factor,
)
from kframes.frames import OperatorK, kframe_flags
from kframes.linalg import (
    DEFAULT_TOL,
    _restricted_inverse,
    certified_full_rank,
    column_blocks,
    intersection_dims,
    pinv_and_rank,
    ranges_nested,
    row_norms,
    stacked_pinv_and_rank,
    stacked_ranks,
    unit_scaled,
)
from kframes.redundancy import mrc_subset
from kframes.fixtures import FIXTURES

from conftest import projector, random_kframe

FC = FIXTURES["FIX-C"].F
FB_K = FIXTURES["FIX-B"].K


def _collinear(u, v, atol=1e-9):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return np.linalg.norm(np.outer(u, v) - np.outer(v, u)) < atol * (
        1 + np.linalg.norm(u) * np.linalg.norm(v)
    )


# Where each field of TolerancePolicy may be read: the policy owns the rank
# rule and the residual rule, the CLI takes its flags' defaults from
# DEFAULT_TOL and builds the policy from its flags (spark's from --tol-rank
# alone), and spark_via_kernel keeps its own cutoff as the independent spark
# oracle.
_READERS = {
    "rank_cutoff_rel": {("linalg.py", "TolerancePolicy"), ("cli.py", "_policy"),
                        ("cli.py", "_cmd_spark"), ("cli.py", "_parsers"),
                        ("redundancy.py", "spark_via_kernel")},
    "residual_rel": {("linalg.py", "TolerancePolicy"), ("cli.py", "_policy"),
                     ("cli.py", "_parsers")},
}


# Calls that decide a rank, and calls that join matrices side by side.
_RANKS = {"rank_of", "stacked_ranks", "svd", "matrix_rank", "svd_factor", "range_basis",
          "null_space_basis", "pinv_and_rank", "stacked_pinv_and_rank"}
_JOINS = {"hstack", "concatenate", "column_stack", "block"}


def _called(function):
    """Names of every function that a def calls, as written at the call."""
    return {getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(function) if isinstance(node, ast.Call)}


class TestIntersectionDims:
    def test_known_intersections_at_any_scale(self):
        e = np.eye(4)
        perp = e[:, 2:]  # the subspace met is span(e1, e2)
        blocks = np.stack([e[:, [0, 1]], e[:, [0, 2]], e[:, [2, 3]],
                           e[:, [0, 0]] + [[0, 0], [0, 0], [0, 0], [0, 1e-20]]])
        for scale in (1e-300, 1.0, 1e300):
            assert intersection_dims(scale * blocks, perp).tolist() == [2, 1, 0, 1]
        assert intersection_dims(blocks, e[:, :0]).tolist() == [2, 2, 2, 1]
        assert intersection_dims(blocks[:, :, :0], perp).tolist() == [0, 0, 0, 0]

    def test_ranges_nested_ignores_both_scales(self):
        a = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
        b = np.array([[1.0], [1.0], [0.0]])
        for x in (1e-200, 1.0, 1e200):
            for y in (1e-200, 1.0, 1e200):
                assert ranges_nested(x * b, y * a) and not ranges_nested(x * a, y * b)
                assert ranges_nested(np.zeros((3, 0)), y * b)

    def test_only_the_kernel_ranks_joined_matrices(self):
        """No function ranks matrices joined side by side, as rank [B, A] == rank B
        would: range inclusions go through linalg.intersection_dims."""
        found = set()
        for path in sorted(Path(kframes.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and _called(node) & _RANKS \
                        and _called(node) & _JOINS:
                    found.add((path.name, node.name))
        assert found <= {("linalg.py", "intersection_dims")}

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        k=st.integers(0, 9),
        d=st.integers(0, 6),
        kinds=st.lists(st.sampled_from(["span", "deficient", "near"]), min_size=1, max_size=5),
        exponent=st.integers(-200, 200),
    )
    def test_capped_rule_matches_an_independent_svd(self, seed, n, k, d, kinds, exponent):
        """Each dimension is min(rank B - rank(Q^T B), dim V), both ranks by
        scipy's SVD at the policy's cutoff of B, on stacks that mix blocks that
        span R^n, blocks of lower rank that partly lie in V, and blocks with one
        column scaled to within 10^+-4 of the cutoff."""
        rng = np.random.default_rng(seed)
        d = min(d, n)
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        perp, inside = basis[:, :d], basis[:, d:]
        blocks = []
        for kind in kinds:
            if kind == "deficient":
                r = int(rng.integers(0, min(n, k) + 1)) if k else 0
                j = int(rng.integers(0, min(r, n - d) + 1))
                left = np.hstack([inside[:, :j], rng.standard_normal((n, r - j))])
                block = left @ rng.standard_normal((r, k))
            else:
                block = rng.standard_normal((n, k))
            if kind == "near" and k:
                col = int(rng.integers(k))
                top = np.linalg.norm(block, 2)
                scale = 1e-10 * max(n, k) * 10.0 ** rng.uniform(-4, 4)
                block[:, col] *= scale * top / (np.linalg.norm(block[:, col]) or 1.0)
            blocks.append(block)
        blocks = np.array(blocks).reshape(len(kinds), n, k) * 2.0**exponent
        want, far = [], True
        for block in blocks:
            s = scipy.linalg.svdvals(block) if block.size else np.zeros(0)
            cutoff = DEFAULT_TOL.rank_cutoff(s, block.shape)[0] if s.size else 0.0
            sq = scipy.linalg.svdvals(perp.T @ block) if d and k else np.zeros(0)
            values = np.concatenate([s, sq])
            far &= bool(((values > 1e2 * cutoff) | (values < 1e-2 * cutoff)).all())
            rank = np.count_nonzero(s > cutoff) - np.count_nonzero(sq > cutoff)
            want.append(min(rank, n - d))
        if not far:
            event("a ranked singular value within 1e2 of its cutoff, draw skipped")
            assume(False)
        assert intersection_dims(blocks, perp).tolist() == want

    def test_spanning_blocks_take_one_svd(self):
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        perp = basis[:, :2]
        blocks = rng.standard_normal((5, 4, 6))
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            assert intersection_dims(blocks, perp).tolist() == [2] * 5
        assert svd.call_count == 1
        # A block of rank 1 inside V: only it takes the second SVD.
        blocks[3] = np.outer(basis[:, 2], rng.standard_normal(6))
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            assert intersection_dims(blocks, perp).tolist() == [2, 2, 2, 1, 2]
        assert svd.call_count == 2 and svd.call_args.args[0].shape == (1, 2, 6)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        extra=st.integers(0, 3),
        rank_k=st.integers(0, 5),
        damage=st.sampled_from(["none", "duplicate", "zero", "faint"]),
        exponent=st.integers(-100, 100),
    )
    def test_verdicts_match_the_uncapped_rule(self, seed, n, extra, rank_k, damage, exponent):
        """kframe_flags, ranges_nested and mrc_subset's verdicts equal those of
        rank B - rank(Q^T B) from two stacked SVDs, the rule before the cap."""
        rng = np.random.default_rng(seed)
        m, rank_k = n + extra, min(rank_k, n)
        f, k = random_kframe(rng, n, m, rank_k)
        col = int(rng.integers(m))
        if damage == "duplicate":
            f[:, col] = f[:, 0]
        elif damage == "zero":
            f[:, col] = 0.0
        elif damage == "faint":
            f[:, col] *= 1e-11
        f, k = f * 2.0**exponent, k * 2.0**exponent

        def uncapped(blocks, perp):
            s = np.linalg.svd(blocks, compute_uv=False)
            cutoff = DEFAULT_TOL.rank_cutoff(s, blocks.shape)
            return (np.count_nonzero(s > cutoff, axis=1)
                    - stacked_ranks(perp.T @ blocks, cutoff=cutoff))

        def nested(a, b):
            u, s, _ = np.linalg.svd(a)
            r = np.count_nonzero(s > DEFAULT_TOL.rank_cutoff(s, a.shape)) if s.size else 0
            return bool(uncapped(b[None], u[:, r:])[0] >= r)

        op = OperatorK.from_matrix(k)
        for size in range(1, m + 1):
            subsets = np.array(list(itertools.combinations(range(m), size)))
            want = uncapped(column_blocks(f, subsets), op.range_perp) >= op.rank
            assert kframe_flags(f, op, subsets).tolist() == (want | (op.rank == 0)).tolist()
        for a, b in ((k, f), (f, k), (f[:, :1], f[:, 1:]), (f[:, 1:], k)):
            if a.shape[1] and b.shape[1]:
                assert ranges_nested(a, b) == nested(a, b)
        for sigma in map(list, itertools.combinations(range(m), min(2, m - 1))):
            if not sigma:
                continue
            survivors = [i for i in range(m) if i not in sigma]
            report = mrc_subset(f, k, sigma)
            coeffs = unit_scaled(f)[0].T @ op.range
            assert report.necessary_condition_i == (
                not uncapped(coeffs[None], np.eye(m)[:, survivors])[0])
            flags = uncapped(f[None][:, :, survivors], op.range_perp) >= op.rank
            assert report.is_mrc == bool(flags[0] or op.rank == 0)


def test_row_norms_rescale_only_rows_whose_squares_overflow():
    rows = np.random.default_rng(0).standard_normal((6, 5))
    base = row_norms(rows)
    assert base.tobytes() == np.array([np.linalg.norm(row) for row in rows]).tobytes()
    big = rows.copy()
    big[::2] *= 2.0**600
    got = row_norms(big)
    assert got[1::2].tobytes() == base[1::2].tobytes()
    assert got[::2].tobytes() == (base[::2] * 2.0**600).tobytes()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        row_norms(np.full((1, 2), 1.5e308))
    # Squares that underflow: rows at 2^-600 are redone at their unit size.
    small = rows.copy()
    small[::2] *= 2.0**-600
    got = row_norms(small)
    assert got[1::2].tobytes() == base[1::2].tobytes()
    assert got[::2].tobytes() == (base[::2] * 2.0**-600).tobytes()
    edge = np.array([[0.0, 0.0], [5e-324, 0.0], [np.inf, 1.0]])
    assert row_norms(edge).tolist() == [0.0, 5e-324, np.inf]


def test_only_linalg_derives_binary_exponents():
    """Unit size has one owner: no module but linalg calls or imports frexp, so
    every exact power-of-two rescaling goes through linalg.unit_scaled."""
    found = set()
    for path in sorted(Path(kframes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if getattr(node, "attr", None) == "frexp" or getattr(node, "name", None) == "frexp":
                found.add(path.name)
    assert found <= {"linalg.py"}


def test_benchmark_names_resolve():
    """Every name perfbench traces (TRACED of perfbench/tracing.py, read without
    importing perfbench) and every kframes name that bench/ or perfbench/
    imports resolves: a pruning that breaks them fails here, not only in a
    traced benchmark run."""
    root = Path(__file__).resolve().parent.parent
    tracing = ast.parse((root / "perfbench" / "tracing.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    wanted = {(f"kframes.{layer}", name) for layer, names in traced.items() for name in names}
    for path in sorted([*root.glob("bench/*.py"), *root.glob("perfbench/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("kframes"):
                wanted |= {(node.module, alias.name) for alias in node.names}
    assert len(wanted) > 30
    # Every module is imported before any name is looked up: `from kframes import
    # cli` resolves only once kframes.cli is imported, whatever the set's order.
    modules = {module: importlib.import_module(module) for module, _ in wanted}
    assert {(module, name) for module, name in wanted
            if not hasattr(modules[module], name)} == set()


class TestTolerancePolicy:
    def test_each_rule_is_read_in_one_place(self):
        found = {field: set() for field in _READERS}
        for path in sorted(Path(kframes.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Attribute):
                        name = node.attr
                    elif isinstance(node, ast.keyword):
                        name = node.arg
                    else:
                        continue
                    if name in found:
                        found[name].add((path.name, getattr(top, "name", None)))
        assert found == _READERS

    def test_rank_cutoff_is_per_block(self):
        """Purely relative: a zero block's cutoff is 0 and a subnormal one's is
        its own, with no floor."""
        tol = TolerancePolicy()
        s = np.array([[4.0, 1.0], [0.0, 0.0], [1e-300, 0.0]])
        np.testing.assert_array_equal(tol.rank_cutoff(s, (3, 5, 3)),
                                      [[1e-10 * 5 * 4.0], [0.0], [1e-10 * 5 * 1e-300]])
        np.testing.assert_array_equal(tol.rank_cutoff(s[0], (3, 7)), [1e-10 * 7 * 4.0])

    def test_accepts(self):
        """residual <= rel * factor * scale, the scale named by the caller, with
        no absolute term: a residual of 0 passes against scale 0, nothing else does."""
        tol = TolerancePolicy(residual_rel=1e-6)
        assert tol.accepts(1e-6, 1.0) and not tol.accepts(1.1e-6, 1.0)
        assert tol.accepts(1e-6 * 10, 1.0, factor=10) and not tol.accepts(1e-6 * 11, 1.0, factor=10)
        assert tol.accepts(1e-306, 1e-300) and not tol.accepts(1e-305, 1e-300)
        assert tol.accepts(0.0, 0.0) and not tol.accepts(5e-324, 0.0)
        # A NaN residual is refused, the safe side of every test.
        assert not tol.accepts(np.nan, 1.0)
        np.testing.assert_array_equal(
            tol.accepts(np.array([0.0, 1.0, np.nan]), np.array([0.0, 1e6, 0.0])),
            [True, True, False])

    def test_accepts_has_no_default_scale(self):
        with pytest.raises(TypeError):
            TolerancePolicy().accepts(0.0)

    def test_no_floor_decides_a_rank(self):
        """diag(1, 1e-9) has rank 2 at every scale: at 1e-300 its second singular
        value lies below the smallest normal double, and no floor reads it as 0."""
        for scale in (1.0, 1e-290, 1e-300, 2.0**-1040):
            assert rank_of(np.diag([1.0, 1e-9]) * scale) == 2
        assert rank_of(np.zeros((2, 3))) == 0

    def test_pseudo_inverse_whose_reciprocal_overflows_is_refused(self):
        """A kept singular value whose 1 / sigma leaves float64 is refused, never
        floored to a rank deficiency."""
        for a in (np.array([[1e-310]]), np.diag([1.0, 1e-9]) * 1e-300):
            with pytest.raises(KFrameError, match="leave the float64 range"):
                pseudo_inverse(a)
            with pytest.raises(KFrameError, match="leave the float64 range"):
                stacked_pinv_and_rank(a[None], np.zeros((1, 1)))
        assert pseudo_inverse(np.array([[2.0**-1000]]))[0, 0] == 2.0**1000


class TestSvdFactor:
    def test_identity(self):
        _, s, _ = svd_factor(np.eye(3))
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0])

    def test_zero_matrix(self):
        _, s, _ = svd_factor(np.zeros((2, 4)))
        np.testing.assert_allclose(s, [0.0, 0.0])

    def test_reconstruction_and_ordering(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3))
        u, s, v = svd_factor(m)
        sigma = np.zeros((5, 3))
        sigma[:3, :3] = np.diag(s)
        np.testing.assert_allclose(u @ sigma @ v.T, m, atol=1e-12)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_fixture_against_second_implementation(self):
        # Cross-check singular values with a different LAPACK driver and
        # with the eigendecomposition of the Gram matrix.
        _, s, _ = svd_factor(FC)
        _, s_gesvd, _ = scipy.linalg.svd(FC, lapack_driver="gesvd")
        np.testing.assert_allclose(s, s_gesvd, atol=1e-9)
        eigs = np.sort(np.linalg.eigvalsh(FC.T @ FC))[::-1]
        np.testing.assert_allclose(s, np.sqrt(np.clip(eigs, 0, None)), atol=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestRank:
    def test_identity(self):
        assert rank_of(np.eye(4)) == 4

    def test_operator_fixture(self):
        assert rank_of(FB_K) == 2

    def test_synthesis_fixture(self):
        # One kernel direction (column 4 = column 1 / 2 + column 2), so 3.
        assert rank_of(FC) == 3

    def test_scale_invariance(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert rank_of(m) == rank_of(1e8 * m) == rank_of(1e-8 * m) == 1


def _policy_ranks(blocks, tol=DEFAULT_TOL):
    """stacked_ranks with each block's own cutoff from tol.rank_cutoff: rank_of's rule."""
    return stacked_ranks(blocks, tol.rank_cutoff(np.linalg.svd(blocks, compute_uv=False),
                                                 blocks.shape))


class TestStackedRanks:
    """One stacked SVD decides each block as an SVD of that block alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 5),
        n=st.integers(1, 5),
        k=st.integers(0, 6),
        rank=st.integers(0, 5),
        exponent=st.integers(-300, 300),
    )
    def test_bit_equal_to_one_svd_per_block(self, seed, count, n, k, rank, exponent):
        rng = np.random.default_rng(seed)
        r = min(rank, n, k)
        blocks = rng.standard_normal((count, n, r)) @ rng.standard_normal((count, r, k))
        blocks = blocks * 2.0**exponent
        blocks[0] = 0.0
        cutoff = 1e-9 * 2.0**exponent
        fixed = stacked_ranks(blocks, cutoff)
        assert fixed.shape == (count,)
        if k == 0:
            assert not fixed.any()
            return
        ranks = _policy_ranks(blocks)
        stacked = np.linalg.svd(blocks, compute_uv=False)
        for i, block in enumerate(blocks):
            assert ranks[i] == rank_of(block)
            alone = np.linalg.svd(block, compute_uv=False)
            assert np.array_equal(stacked[i], alone)
            assert fixed[i] == np.count_nonzero(alone > cutoff)
        assert ranks[0] == 0

    def test_column_blocks(self):
        mat = np.arange(12.0).reshape(3, 4)
        subsets = np.array([[0, 2], [1, 3], [2, 3]])
        blocks = column_blocks(mat, subsets)
        assert blocks.shape == (3, 3, 2)
        for block, cols in zip(blocks, subsets):
            assert np.array_equal(block, mat[:, cols])
        assert column_blocks(mat, np.zeros((1, 0), dtype=int)).shape == (1, 3, 0)

    @settings(max_examples=100, deadline=None)
    @given(mat=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 10)),
                      elements=st.floats(-1e3, 1e3)),
           fortran=st.booleans(), data=st.data())
    def test_column_blocks_keep_the_fancy_index_layout(self, mat, fortran, data):
        """Same values and strides as m.T[subsets].transpose(0, 2, 1), so every
        matvec on the stack keeps its BLAS path and its bits."""
        mat = np.asfortranarray(mat) if fortran else mat
        subsets = data.draw(arrays(np.intp, st.tuples(st.integers(0, 6),
                                                       st.integers(0, mat.shape[1])),
                                   elements=st.integers(0, mat.shape[1] - 1)))
        blocks, want = column_blocks(mat, subsets), mat.T[subsets].transpose(0, 2, 1)
        assert blocks.strides == want.strides
        assert np.array_equal(blocks, want)


def _planted_blocks(rng, p, q, lows):
    """One p x q block per entry of lows, singular values in [low, 1] with low the smallest."""
    k = min(p, q)
    blocks = []
    for low in lows:
        s = np.r_[1.0, rng.uniform(low, 1.0, max(k - 2, 0)), low][-k:]
        u = np.linalg.qr(rng.standard_normal((p, k)))[0]
        v = np.linalg.qr(rng.standard_normal((q, k)))[0]
        blocks.append((u * s) @ v.T)
    return np.array(blocks)


def _parent_of(rng, blocks):
    """The blocks' columns side by side in a shuffled order, with the index
    array that gathers each block back (its columns in their own order)."""
    count, p, q = blocks.shape
    order = rng.permutation(count * q)
    parent = blocks.transpose(1, 0, 2).reshape(p, count * q)[:, order]
    return parent, np.argsort(order).reshape(count, q)


class TestCertifiedFullRank:
    """The certificate claims full rank only where stacked_ranks reads it."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 10),
        q=st.integers(1, 10),
        count=st.integers(1, 12),
        delta=st.one_of(st.sampled_from([-1e-3, 0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6]),
                        st.floats(-1e-3, 1e6)),
        odd_delta=st.one_of(st.none(), st.floats(-1e-3, 1e6)),
        fixed_exp=st.one_of(st.none(), st.integers(-15, -1)),
        coarse=st.booleans(),
        spread=st.sampled_from([0, 1, 40]),
        exponent=st.integers(-500, 500),
        wide=st.booleans(),
    )
    def test_proven_subsets_read_full_rank(self, seed, p, q, count, delta, odd_delta,
                                           fixed_exp, coarse, spread, exponent, wide):
        """Tall, square or wide blocks (the row side), each at its own scale
        2^c, |c| <= spread, side by side in one parent scaled by 2^exponent;
        sigma_min is planted at the block's cutoff times 1 + delta, in every
        block or in all but one. A fixed cutoff is 10^fixed_exp at the
        parent's scale, else the policy's rule."""
        rng = np.random.default_rng(seed)
        p, q = (min(p, q), max(p, q)) if wide else (max(p, q), min(p, q))
        tol = TolerancePolicy(1e-3, 1e-4) if coarse else TolerancePolicy()
        cutoff = None if fixed_exp is None else 10.0**fixed_exp
        scales = rng.integers(-spread, spread + 1, count)
        # Relative to the block's largest singular value, 1: its cutoff at that scale.
        base = tol.rank_cutoff(np.ones(1), (p, q))[0] if cutoff is None else (
            np.ldexp(cutoff, -scales))
        deltas = np.full(count, delta)
        if odd_delta is not None:
            deltas[rng.integers(count)] = odd_delta
        blocks = _planted_blocks(rng, p, q, np.minimum(1.0, base * (1.0 + deltas)))
        parent, subsets = _parent_of(rng, np.ldexp(blocks, scales[:, None, None]))
        parent = np.ldexp(parent, exponent)
        if cutoff is not None:
            cutoff = np.ldexp(cutoff, exponent)
        with np.errstate(over="raise", invalid="raise"):
            proven = certified_full_rank(parent, subsets, tol, cutoff)
        assert proven.shape == (count,) and proven.dtype == bool
        blocks = column_blocks(parent, subsets)
        ranks = _policy_ranks(blocks, tol) if cutoff is None else stacked_ranks(blocks, cutoff)
        assert np.all(ranks[proven] == min(p, q))

    @pytest.mark.parametrize("shape,level", [((7, 14), 7), ((8, 16), 8), ((14, 10), 7),
                                             ((10, 20), 1), ((7, 14), 10), ((5, 16), 14)])
    @pytest.mark.parametrize("scale", [2.0**-500, 1.0, 2.0**500, 1e300])
    def test_gaussian_level_is_proven(self, shape, level, scale):
        """Not vacuous: every subset of a Gaussian level is proven, at any scale."""
        mat = np.random.default_rng(3).standard_normal(shape) * scale
        subsets = np.array(list(itertools.combinations(range(shape[1]), level)))
        with np.errstate(over="raise", invalid="raise"):
            assert certified_full_rank(mat, subsets).all()
            assert certified_full_rank(mat, subsets, cutoff=1e-9 * scale).all()
            # A cutoff far above the blocks proves nothing, and does not overflow.
            assert not certified_full_rank(mat / 1e300, subsets, cutoff=1e-9 * scale).any()

    def test_unknown_where_deficient_or_below_the_floor(self):
        mat = np.random.default_rng(4).standard_normal((5, 9))
        mat[:, 4] = mat[:, 1]
        mat[:, 6] = 0.0
        mat[:, 2:4] *= 2.0**-290
        mat[:, 7:9] *= 2.0**-320
        subsets = np.array([[0, 1], [1, 4], [5, 6], [0, 7], [7, 8], [2, 3]])
        assert _policy_ranks(column_blocks(mat, subsets)).tolist() == [2, 1, 1, 1, 2, 2]
        # {7, 8} has rank 2, but ||B||_F^2 ~ 2^-640 at the parent's unit lies below the floor.
        assert certified_full_rank(mat, subsets).tolist() == [
            True, False, False, False, False, True]
        # A fixed cutoff at the parent's scale lies far above {2, 3}.
        assert certified_full_rank(mat, subsets, cutoff=1e-9).tolist() == [
            True, False, False, False, False, False]


_E = float(np.finfo(float).eps)


class TestPseudoInverse:
    def test_invertible_diagonal(self):
        p = pseudo_inverse(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(p, np.diag([0.5, 0.25]))

    def test_orthonormal_columns(self):
        f = FIXTURES["FIX-A"].F
        np.testing.assert_allclose(pseudo_inverse(f), f.T, atol=1e-12)

    def test_rank_one(self):
        p = pseudo_inverse(np.ones((2, 2)))
        np.testing.assert_allclose(p, 0.25 * np.ones((2, 2)), atol=1e-12)

    @seed(20240)
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            (4, 3),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    # Condition 6e8 and 1e8, inside the rank cutoff: even evaluated exactly, the
    # identities of the SVD's pseudo-inverse miss a relative 1e-8 by up to 1.7x.
    @example(np.array([[_E, _E, _E], [_E, 1e-8, _E], [_E, _E, _E], [_E, _E, 6.0]]))
    @example(np.array([[1.0, _E, _E], [_E, 1e-8, _E], [_E, _E, _E], [_E, _E, _E]]))
    # Rank one at 2.8e-192: p's entries are near 3e190, so their squares leave float64.
    @example(np.full((4, 3), 2.76481092e-192))
    def test_penrose_identities(self, m):
        p = pseudo_inverse(m)
        # A backward stable pseudo-inverse meets them to about eps times the condition
        # number of its numerical rank, which the cutoff lets reach 2.5e9: 1e-8 holds
        # up to condition 5.6e6, and the conditioned bound takes over only past it.
        rel = max(1e-8, 8 * _E * np.linalg.norm(m, 2) * np.linalg.norm(p, 2))

        def fro(a):
            """Frobenius norm by BLAS nrm2, which scales its sum of squares."""
            return scipy.linalg.norm(a.ravel())

        assert fro(m @ p @ m - m) <= rel * (1 + fro(m))
        assert fro(p @ m @ p - p) <= rel * (1 + fro(p))
        assert fro((m @ p).T - m @ p) <= rel * (1 + fro(m @ p))
        assert fro((p @ m).T - p @ m) <= rel * (1 + fro(p @ m))


class TestNullSpace:
    def test_identity_empty(self):
        assert null_space_basis(np.eye(3)).shape == (3, 0)

    def test_synthesis_fixture(self):
        basis = null_space_basis(FC)
        assert basis.shape == (4, 1)
        expected = np.array([0.5, 1.0, 0.0, -1.0]) / 1.5
        np.testing.assert_allclose(basis[:, 0], expected, atol=1e-10)

    def test_wide_row(self):
        basis = null_space_basis(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(
            basis[:, 0], np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12
        )

    @seed(20241)
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            (3, 5),
            elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
        )
    )
    def test_rank_nullity(self, m):
        assert rank_of(m) + null_space_basis(m).shape[1] == m.shape[1]

    def test_basis_annihilates(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 6))
        basis = null_space_basis(m)
        assert np.linalg.norm(m @ basis) < 1e-10


class TestRangeProjector:
    def test_operator_fixture(self):
        p = projector(range_basis(FIXTURES["FIX-A"].K))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_full_rank_square(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        np.testing.assert_allclose(projector(range_basis(m)), np.eye(4), atol=1e-10)

    def test_zero(self):
        np.testing.assert_allclose(projector(range_basis(np.zeros((3, 2)))), np.zeros((3, 3)))

    def test_matches_gramprojector(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 5))
            np.testing.assert_allclose(
                projector(range_basis(m)), projector(range_basis(m @ m.T)), atol=1e-8
            )

    def test_idempotent_and_fixing(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 2))
        p = projector(range_basis(m))
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p @ m, m, atol=1e-10)
        np.testing.assert_allclose(p, p.T, atol=1e-12)


def _damaged(rng, rows, cols, damage):
    """A Gaussian rows x cols matrix; with damage, a column past the first repeats
    the first, is zero, or is 1e-11 times what it was (faint)."""
    a = rng.standard_normal((rows, cols))
    if cols > 1 and damage != "none":
        j = int(rng.integers(1, cols))
        a[:, j] = {"duplicate": a[:, 0], "zero": 0.0, "faint": 1e-11 * a[:, j]}[damage]
    return a


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 6), cols=st.integers(0, 8),
       damage=st.sampled_from(["none", "duplicate", "zero", "faint"]),
       exponent=st.integers(-400, 400))
@example(seed=0, rows=0, cols=3, damage="none", exponent=0)
@example(seed=0, rows=3, cols=0, damage="none", exponent=0)
def test_bases_are_signed_orthonormal_arrays(seed, rows, cols, damage, exponent):
    """range_basis and null_space_basis of A (rows x cols), OperatorK.range and
    range_perp of K (rows x rows), both damaged alike and scaled by 2^exponent,
    are float64 arrays of shapes n x rank, m x (m - rank), n x rank K and
    n x (n - rank K), with columns orthonormal to 8 max(shape) eps and the span
    of scipy's orth or null_space at the policy's cutoff. All but range_perp,
    which is U past rank K as it is, carry the canonical signs."""
    rng = np.random.default_rng(seed)
    a = np.ldexp(_damaged(rng, rows, cols, damage), exponent)
    k = np.ldexp(_damaged(rng, rows, rows, damage), exponent)
    op = OperatorK.from_matrix(k)
    rank = rank_of(a)

    def rcond(mat):
        return DEFAULT_TOL.rank_cutoff_rel * max(mat.shape, default=0)

    cases = [
        (range_basis(a), (rows, rank), scipy.linalg.orth(a, rcond(a)), True),
        (null_space_basis(a), (cols, cols - rank), scipy.linalg.null_space(a, rcond(a)), True),
        (op.range, (rows, op.rank), scipy.linalg.orth(k, rcond(k)), True),
        (op.range_perp, (rows, rows - op.rank), scipy.linalg.null_space(k.T, rcond(k)), False),
    ]
    eps = np.finfo(float).eps
    for basis, shape, ref, signed in cases:
        assert type(basis) is np.ndarray and basis.dtype == np.float64
        assert basis.shape == shape == ref.shape
        assert np.abs(basis.T @ basis - np.eye(shape[1])).max(initial=0.0) <= (
            8 * max(rows, cols) * eps)
        assert np.abs(basis @ basis.T - ref @ ref.T).max(initial=0.0) <= 1e-8
        if signed and basis.size:
            mags = np.abs(basis)
            lead = np.argmax(mags >= (1.0 - 1e-12) * mags.max(axis=0), axis=0)
            assert (basis[lead, np.arange(shape[1])] > 0).all()


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0), (1, 0), (0, 1)])
def test_empty_matrices_take_the_generic_path(shape):
    """A matrix without rows or columns has rank 0, a zero pseudo-inverse of the
    transposed shape, a range basis without columns, the identity as its kernel
    basis and norm 0, as numpy's SVD of it gives them."""
    rows, cols = shape
    m = np.zeros(shape)
    assert type(rank_of(m)) is int and rank_of(m) == 0
    p, r = pinv_and_rank(m)
    assert (p.shape, p.dtype, r) == ((cols, rows), np.float64, 0)
    assert (pseudo_inverse(m).shape, range_basis(m).shape) == ((cols, rows), (rows, 0))
    np.testing.assert_array_equal(null_space_basis(m), np.eye(cols))
    assert type(operator_norm(m)) is float and operator_norm(m) == 0.0


@pytest.mark.parametrize("shape", [(4, 3, 0), (4, 0, 3), (0, 2, 2)])
def test_empty_stacks_have_rank_zero(shape):
    ranks = stacked_ranks(np.zeros(shape), 0.0)
    assert (ranks.shape, ranks.dtype) == ((shape[0],), np.intp)
    assert not ranks.any()


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_rank_one(self):
        u = np.array([1.0, 2.0, -2.0])
        v = np.array([0.5, 0.5])
        assert operator_norm(np.outer(u, v)) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v)
        )

    def test_dual_vector_outer(self):
        f1 = np.array([1.0, 0.0, 0.0])
        g1 = np.array([1.0, 1.0, 0.5])
        assert operator_norm(np.outer(f1, g1)) == pytest.approx(1.5)

    def test_submultiplicative(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10


class TestRestrictedInverse:
    def test_frame_operator_restriction_invertible(self):
        fb = FIXTURES["FIX-B"].F
        s = fb @ fb.T
        d = np.eye(4)[:, :2]
        r, inv = _restricted_inverse(fb, d)
        assert r.shape == (4, 2) and inv.shape == (2, 2)
        np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-12)
        # e1 goes to 2 e1 + e3, e2 stays fixed; r spans both images.
        np.testing.assert_allclose(s @ d, [[2.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(r @ (r.T @ s @ d), s @ d, atol=1e-12)
        np.testing.assert_allclose(inv @ (r.T @ s @ d), np.eye(2), atol=1e-12)

    def test_zero_operator(self):
        r, inv = _restricted_inverse(np.eye(3), np.zeros((3, 0)))
        assert r.shape == (3, 0) and inv.shape == (0, 0)


class TestPolicyAndBasis:
    def test_policy_bounds(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rank_cutoff_rel=0.0)
        with pytest.raises(ValueError):
            TolerancePolicy(residual_rel=0.5)

    def test_range_basis_spans(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 2))
        basis = range_basis(m)
        assert basis.shape == (4, 2)
        np.testing.assert_allclose(projector(basis) @ m, m, atol=1e-10)
