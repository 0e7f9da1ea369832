import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import kframes
import kframes.cli
from kframes.cli import run_command
from kframes.fixtures import FIXTURES
from kframes.matrixio import matrix_to_obj, save_matrix
from kframes.redundancy import analyze_scans

from conftest import (
    counting_subsets,
    counting_svds,
    random_kframe,
    random_parseval_kframe,
    unreachable_rk_system,
)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def system_d(tmp_path):
    fix = FIXTURES["FIX-D"]
    path = tmp_path / "sysd.json"
    path.write_text(json.dumps({
        "F": {"rows": 4, "cols": 4, "data": fix.F.tolist()},
        "K": {"rows": 4, "cols": 4, "data": fix.K.tolist()},
    }))
    dual_path = tmp_path / "gd.json"
    dual_path.write_text(json.dumps(
        {"G": {"rows": 4, "cols": 4, "data": fix.dual.tolist()}}
    ))
    return str(path), str(dual_path)


@pytest.fixture()
def system_a(tmp_path):
    fix = FIXTURES["FIX-A"]
    path = tmp_path / "sysa.json"
    path.write_text(json.dumps({
        "F": {"rows": 3, "cols": 2, "data": fix.F.tolist()},
        "K": {"rows": 3, "cols": 3, "data": fix.K.tolist()},
    }))
    return str(path)


class TestDispatch:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 64
        assert "unknown command" in err

    def test_no_args_usage(self, capsys):
        code, _, _ = run(capsys)
        assert code == 64

    def test_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "commands:" in out

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--system", "/nonexistent.json")
        assert code == 2

    def test_unparseable_file_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("")
        code, _, _ = run(capsys, "analyze", "--system", str(bad))
        assert code == 2

    def test_contract_violation_is_exit_one(self, capsys, system_d, tmp_path):
        """Blind recovery on FIX-D against the Gramian: M - Gram = 0, so every
        erasure is ambiguous."""
        fix = FIXTURES["FIX-D"]
        gram, coded = tmp_path / "gram.json", tmp_path / "c.json"
        gram.write_text(json.dumps(_matrix_obj(fix.F.T @ fix.F)))
        c = fix.dual.T @ np.ones(4)
        coded.write_text(json.dumps({"coefficients": [None, *c[1:].tolist()], "erased": [1]}))
        code, out, err = run(capsys, "recover", "--strategy", "blind", "--system", system_d[0],
                             "--dual", system_d[1], "--coded", str(coded),
                             "--rk-matrix", str(gram))
        assert (code, out) == (1, "")
        assert err == ("kframes recover: blind: erased columns are rank deficient (0 < 1); "
                       "recovery is ambiguous\n")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_report_exits_one_and_prints_nothing(
            self, capsys, monkeypatch, system_d, value):
        monkeypatch.setattr(kframes.cli, "verify_kdual",
                            lambda system, g: SimpleNamespace(residual=value, is_valid=False))
        code, out, err = run(capsys, "check-dual", "--system", system_d[0],
                             "--dual", system_d[1])
        assert (code, out) == (1, "")
        assert err == f"kframes check-dual: report is not valid JSON: residual is {value}\n"

    def test_every_report_opens_with_its_command(self, capsys, system_d, tmp_path):
        sys_path, dual_path = system_d
        coded = tmp_path / "c.json"
        coded.write_text(json.dumps({"coefficients": [None, 1.0, 2.0, 0.5], "erased": [1]}))
        gram = tmp_path / "gram.json"
        fix = FIXTURES["FIX-D"]
        gram.write_text(json.dumps({"rows": 4, "cols": 4, "data": (fix.F.T @ fix.F).tolist()}))
        system = ["--system", sys_path]
        commands = {
            "analyze": system,
            "canonical-dual": system,
            "check-dual": [*system, "--dual", dual_path],
            "spark": ["--matrix", str(gram)],
            "mrc": [*system, "--r", "1"],
            "recover": [*system, "--dual", dual_path, "--coded", str(coded)],
            "find-rk": [*system, "--dual", dual_path, "--r", "1"],
            "simulate": [*system, "--r", "1", "--signals", "4"],
            "fixtures": ["--name", "FIX-D"],
        }
        assert set(commands) == set(kframes.cli._parsers())
        for name, argv in commands.items():
            report = run_json(capsys, name, *argv)
            assert next(iter(report.items())) == ("command", name)

    def test_cached_parsers_keep_no_state(self, capsys, system_d):
        argvs = [["--sigma", "1"], ["--r", "1"], [], ["--sigma", "1"]]
        outcomes = [run(capsys, "mrc", "--system", system_d[0], *argv) for argv in argvs]
        assert [code for code, _, _ in outcomes] == [0, 0, 64, 0]
        assert outcomes[0] == outcomes[3]
        assert "one of the arguments --sigma --r is required" in outcomes[2][2]

    def test_unrecognized_argument_names_the_command(self, capsys):
        code, out, err = run(capsys, "spark", "--matrix", "x", "extra")
        assert (code, out) == (64, "")
        assert "kframes spark: error: unrecognized arguments: extra" in err

    def test_console_entry_matches_in_process_bytes(self, capsys):
        argv = ["fixtures", "--name", "FIX-D"]
        in_process = run(capsys, *argv)
        env = {**os.environ, "PYTHONPATH": str(Path(kframes.__file__).resolve().parents[1])}
        for args, code, out in ((argv, 0, in_process[1]), (["frobnicate"], 64, "")):
            done = subprocess.run([sys.executable, "-m", "kframes.cli", *args], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stdout) == (code, out), done.stderr


class TestFixturesCommand:
    def test_fixture_a_bytes(self, capsys):
        report = run_json(capsys, "fixtures", "--name", "FIX-A")
        assert report["F"]["data"] == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        assert report["K"]["data"][0] == [1.0, 1.0, 0.5]

    def test_all_fixtures_match_registry(self, capsys):
        for name, fix in FIXTURES.items():
            report = run_json(capsys, "fixtures", "--name", name)
            assert report["F"]["data"] == fix.F.tolist()
            assert report["K"]["data"] == fix.K.tolist()

    def test_with_dual(self, capsys):
        report = run_json(capsys, "fixtures", "--name", "FIX-D", "--with-dual")
        assert report["G"]["data"] == FIXTURES["FIX-D"].dual.tolist()

    def test_unknown_fixture(self, capsys):
        code, out, err = run(capsys, "fixtures", "--name", "FIX-Z")
        assert (code, out) == (64, "")
        assert "invalid choice: 'FIX-Z'" in err

    def test_name_is_case_insensitive(self, capsys):
        assert run_json(capsys, "fixtures", "--name", "fix-a") == run_json(
            capsys, "fixtures", "--name", "FIX-A")


class TestSparkCommand:
    def test_fixture_d_gramian(self, capsys, tmp_path):
        fix = FIXTURES["FIX-D"]
        gram = fix.F.T @ fix.F
        path = tmp_path / "gf.json"
        path.write_text(json.dumps(
            {"rows": 4, "cols": 4, "data": gram.tolist()}
        ))
        report = run_json(capsys, "spark", "--matrix", str(path))
        assert report["spark"] == 3
        witness = np.array(report["witness"])
        reference = np.array([1.0, 2.0, -1.0, 0.0])
        cross = np.outer(witness, reference) - np.outer(reference, witness)
        assert np.linalg.norm(cross) < 1e-8

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.0,1.0\n0.0,1.0,1.0\n")
        report = run_json(capsys, "spark", "--matrix", str(path))
        assert report["spark"] == 3

    def test_ragged_csv_rejected(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        code, _, _ = run(capsys, "spark", "--matrix", str(path))
        assert code == 2

    def test_csv_bad_cell_exits_two(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,1e999\n")
        code, out, err = run(capsys, "spark", "--matrix", str(path))
        assert (code, out) == (2, "")
        assert err == (f"kframes spark: {path}: line 2, column 2: "
                       "expected a finite number, got inf\n")

    def test_cap_subsets_below_count_refused(self, capsys, tmp_path):
        # Rank 1 over 30 columns: the scan tests level 1 only, 30 subset tests.
        path = tmp_path / "rank1.json"
        path.write_text(json.dumps({"rows": 2, "cols": 30, "data": [[1.0] * 30, [0.0] * 30]}))
        code, out, err = run(capsys, "spark", "--matrix", str(path),
                             "--cap-subsets", "29")
        assert code == 1 and out == ""
        assert "needs 30 subset tests" in err and "--cap-subsets" in err
        report = run_json(capsys, "spark", "--matrix", str(path), "--cap-subsets", "30")
        assert report["spark"] == 2
        # Rank 0: no level to test, so any cap admits it.
        path.write_text(json.dumps({"rows": 2, "cols": 30, "data": [[0.0] * 30] * 2}))
        with counting_subsets() as seen:
            report = run_json(capsys, "spark", "--matrix", str(path), "--cap-subsets", "1")
        assert (report["spark"], seen[0]) == (1, 0)


class TestAnalysisCommands:
    def test_canonical_dual_douglas(self, capsys, system_a):
        report = run_json(capsys, "canonical-dual", "--system", system_a)
        assert report["G"]["data"] == [[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]]
        assert report["residual"] == pytest.approx(0.0, abs=1e-12)

    def test_canonical_dual_restricted(self, capsys, tmp_path):
        fix = FIXTURES["FIX-B"]
        path = tmp_path / "sysb.json"
        path.write_text(json.dumps({
            "F": {"rows": 4, "cols": 4, "data": fix.F.tolist()},
            "K": {"rows": 4, "cols": 4, "data": fix.K.tolist()},
        }))
        report = run_json(
            capsys, "canonical-dual", "--system", str(path),
            "--method", "restricted",
        )
        assert report["is_valid"] is False
        assert set(report["hypotheses"]) == {
            "frame_in_operator_range",
            "operator_range_in_image",
            "frame_in_image",
        }
        got = np.array(report["G"]["data"])
        np.testing.assert_allclose(got, fix.dual, atol=1e-9)

    def test_restricted_dual_of_an_ill_conditioned_frame_is_reported(self, capsys, tmp_path):
        """F invertible with condition number about 6e4 and K invertible: S = F F^T
        squares it past the rank cutoff, where the restriction was once ranked and
        refused as singular. Each dual is reported with its residual, and is_valid
        is the residual test itself."""
        rng = np.random.default_rng(1029874448)
        a = rng.standard_normal((5, 5))
        f, k = a @ rng.standard_normal((5, 5)), a @ rng.standard_normal((5, 5))
        assert 5e4 < np.linalg.cond(f) < 7e4 and np.linalg.matrix_rank(k) == 5
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"F": matrix_to_obj(f), "K": matrix_to_obj(k)}))
        report = run_json(capsys, "canonical-dual", "--system", str(path),
                          "--method", "restricted")
        for dual in (report, report["variant"]):
            g = np.array(dual["G"]["data"])
            residual = np.linalg.norm(f @ g.T - k, 2)
            assert dual["residual"] == pytest.approx(residual, rel=1e-6)
            assert dual["is_valid"] is bool(residual <= 1e-9 * np.linalg.norm(k, 2))

    def test_check_dual_discrepancy(self, capsys, tmp_path):
        fix = FIXTURES["FIX-C"]
        sys_path = tmp_path / "sysc.json"
        sys_path.write_text(json.dumps({
            "F": {"rows": 4, "cols": 4, "data": fix.F.tolist()},
            "K": {"rows": 4, "cols": 4, "data": fix.K.tolist()},
        }))
        dual_path = tmp_path / "gc.json"
        dual_path.write_text(json.dumps(
            {"G": {"rows": 4, "cols": 4, "data": fix.dual.tolist()}}
        ))
        report = run_json(capsys, "check-dual", "--system", str(sys_path),
                          "--dual", str(dual_path))
        assert report["is_valid"] is False
        assert report["residual"] == pytest.approx(2.0, abs=1e-9)

    def test_dual_file_may_be_a_bare_matrix(self, capsys, system_d, tmp_path):
        keyed = run_json(capsys, "check-dual", "--system", system_d[0], "--dual", system_d[1])
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(json.loads(Path(system_d[1]).read_text())["G"]))
        assert run_json(capsys, "check-dual", "--system", system_d[0],
                        "--dual", str(bare)) == keyed
        assert keyed["is_valid"] is True

    def test_analyze_fixture_d(self, capsys, system_d):
        report = run_json(capsys, "analyze", "--system", system_d[0])
        assert report["spark"]["spark"] == 3
        assert report["uniform_excess"]["value"] == 0
        assert report["uniform_excess"]["witness"] == [4]
        assert report["mrc"]["satisfied"] is False
        assert report["mrc"]["first_failing"] == [4]
        assert report["maximal_robust"] is False

    def test_mrc_sigma_mode(self, capsys, tmp_path):
        fix = FIXTURES["FIX-B"]
        path = tmp_path / "sysb.json"
        path.write_text(json.dumps({
            "F": {"rows": 4, "cols": 4, "data": fix.F.tolist()},
            "K": {"rows": 4, "cols": 4, "data": fix.K.tolist()},
        }))
        report = run_json(capsys, "mrc", "--system", str(path),
                          "--sigma", "1,3")
        assert report["sigma"] == [1, 3]
        assert report["is_mrc"] is False
        assert report["necessary_condition_i"] is True

    def test_analyze_zero_operator_bounds_null(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "F": {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 1.0]]},
            "K": {"rows": 2, "cols": 2, "data": [[0.0, 0.0], [0.0, 0.0]]},
        }))
        report = run_json(capsys, "analyze", "--system", str(path))
        assert report["bounds"] is None
        assert report["operator_rank"] == 0

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_bounds_out_of_float64_range_read_null(self, capsys, tmp_path, scale):
        fix = FIXTURES["FIX-D"]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({
            "F": {"rows": 4, "cols": 4, "data": (scale * fix.F).tolist()},
            "K": {"rows": 4, "cols": 4, "data": (scale * fix.K).tolist()},
        }))
        report = run_json(capsys, "analyze", "--system", str(path))
        assert run_json(capsys, "canonical-dual", "--system", str(path))
        assert report["bounds"] is None
        assert report["spark"]["spark"] == 3
        assert report["classification"] == {
            "tight_alpha": None, "parseval": False, "equal_norm": False}

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_mrc_sigma_verdicts_do_not_depend_on_scale(self, capsys, tmp_path, scale):
        systems = [(fix.F, fix.K) for fix in FIXTURES.values()]
        systems.append(random_parseval_kframe(np.random.default_rng(5), 4, 6, 3))
        for i, (f, k) in enumerate(systems):
            reports = []
            for c in (1.0, scale):
                path = tmp_path / f"sys{i}-{c:g}.json"
                path.write_text(json.dumps({
                    "F": {"rows": f.shape[0], "cols": f.shape[1], "data": (c * f).tolist()},
                    "K": {"rows": k.shape[0], "cols": k.shape[1], "data": (c * k).tolist()},
                }))
                reports.append([
                    run_json(capsys, "mrc", "--system", str(path), "--sigma", sigma)
                    for sigma in ("1", "2", "1,2")])
            assert reports[0] == reports[1], i
        assert reports[0][0]["parseval_condition_ii"] is True

    @pytest.mark.parametrize("sigma, shown", [
        ("0", "must lie in 1..4, got [0]"),
        ("99", "must lie in 1..4, got [99]"),
        ("-1", "must lie in 1..4, got [-1]"),
        ("2,2", "repeat: [2]"),
        ("3, 1,+3", "repeat: [3]"),
    ])
    def test_bad_sigma_rejected(self, capsys, system_d, sigma, shown):
        code, out, err = run(capsys, "mrc", "--system", system_d[0], "--sigma", sigma)
        assert code == 2 and out == ""
        assert "--sigma" in err and shown in err

    @pytest.mark.parametrize("sigma", ["x", "1.5", "1,,2", ",", "", "1,", "1_0", "1e0", "0x1"])
    def test_malformed_sigma_is_a_usage_error_before_any_file_is_read(
            self, capsys, tmp_path, sigma):
        code, out, err = run(capsys, "mrc", "--system", str(tmp_path / "absent.json"),
                             "--sigma", sigma)
        assert (code, out) == (64, "")
        assert (f"kframes mrc: error: argument --sigma: needs comma-separated integer "
                f"positions, got {sigma!r}") in err

    def test_sigma_items_read_as_int_reads_them(self, capsys, system_d):
        """A sign, leading zeros and spaces around an item are accepted."""
        want = run_json(capsys, "mrc", "--system", system_d[0], "--sigma", "1,3")
        for sigma in ("+1,3", "01,003", " 1 , +03 "):
            assert run_json(capsys, "mrc", "--system", system_d[0], "--sigma", sigma) == want

    def test_mrc_scan_mode(self, capsys, tmp_path):
        fix = FIXTURES["FIX-B"]
        path = tmp_path / "sysb.json"
        path.write_text(json.dumps({
            "F": {"rows": 4, "cols": 4, "data": fix.F.tolist()},
            "K": {"rows": 4, "cols": 4, "data": fix.K.tolist()},
        }))
        report = run_json(capsys, "mrc", "--system", str(path), "--r", "2")
        assert report["satisfied"] is False
        assert report["first_failing"] == [1, 2]


class TestRecoverCommand:
    def test_side_info_roundtrip(self, capsys, system_d, tmp_path):
        sys_path, dual_path = system_d
        fix = FIXTURES["FIX-D"]
        f = np.array([1.0, 1.0, 1.0, 1.0])
        c = fix.dual.T @ f
        v = fix.F.T @ (fix.K @ f)
        coded = tmp_path / "coded.json"
        coded.write_text(json.dumps({
            "coefficients": [None, None, c[2], c[3]],
            "erased": [1, 2],
        }))
        side = tmp_path / "v.json"
        side.write_text(json.dumps(list(v)))
        report = run_json(
            capsys, "recover", "--system", sys_path, "--dual", dual_path,
            "--coded", str(coded), "--strategy", "side-info",
            "--side-info", str(side),
        )
        assert report["certified_exact"] is True
        np.testing.assert_allclose(report["coefficients"], c, atol=1e-9)
        assert report["erased"] == [1, 2]

    def test_check_dual_and_recover_sign_no_basis(self, capsys, system_d, tmp_path,
                                                  monkeypatch):
        """check-dual and recover (side-info, consistency) never read K's signed
        range basis nor sign a kernel basis: _canonical_signs, counted wherever
        a kframes module binds it, is not called; canonical-dual --method
        restricted, which reads R(K)'s signed basis, shows that the count sees a call."""
        sys_path, dual_path = system_d
        fix = FIXTURES["FIX-D"]
        f = np.array([1.0, -2.0, 0.5, 1.0])
        c = fix.dual.T @ f
        coded = tmp_path / "coded.json"
        coded.write_text(json.dumps({"coefficients": [None, *c[1:]], "erased": [1]}))
        side = tmp_path / "v.json"
        side.write_text(json.dumps(list(fix.F.T @ (fix.K @ f))))
        calls = []
        original = kframes.linalg._canonical_signs

        def counted(columns):
            calls.append(columns.shape)
            return original(columns)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("kframes") \
                    and getattr(module, "_canonical_signs", None) is original:
                monkeypatch.setattr(module, "_canonical_signs", counted)
        recover = ["recover", "--system", sys_path, "--dual", dual_path, "--coded", str(coded)]
        for argv in (["check-dual", "--system", sys_path, "--dual", dual_path],
                     recover + ["--strategy", "side-info", "--side-info", str(side)],
                     recover + ["--strategy", "consistency"]):
            assert run(capsys, *argv)[0] == 0
        assert calls == []
        restricted = ["canonical-dual", "--system", sys_path, "--method", "restricted"]
        assert run(capsys, *restricted)[0] == 0
        assert calls

    def test_consistency_default(self, capsys, system_d, tmp_path):
        sys_path, dual_path = system_d
        fix = FIXTURES["FIX-D"]
        f = np.array([0.5, -1.0, 2.0, 0.25])
        c = fix.dual.T @ f
        coded = tmp_path / "coded.json"
        coded.write_text(json.dumps({
            "coefficients": [c[0], c[1], None, c[3]],
            "erased": [3],
        }))
        report = run_json(
            capsys, "recover", "--system", sys_path, "--dual", dual_path,
            "--coded", str(coded),
        )
        assert report["strategy"] == "consistency"
        assert report["certified_exact"] is True
        np.testing.assert_allclose(
            report["reconstructed"], fix.K @ f, atol=1e-8
        )

    def _recover_coded(self, capsys, system_d, tmp_path, coded_obj):
        coded = tmp_path / "coded.json"
        coded.write_text(json.dumps(coded_obj))
        return run(capsys, "recover", "--system", system_d[0], "--dual", system_d[1],
                   "--coded", str(coded))

    def test_null_in_surviving_slot_rejected(self, capsys, system_d, tmp_path):
        code, out, err = self._recover_coded(capsys, system_d, tmp_path, {
            "coefficients": [None, 1.0, None, 0.5],
            "erased": [1],
        })
        assert code == 2 and out == ""
        assert "surviving positions [3]" in err

    @pytest.mark.parametrize("erased, shown", [
        ([0], "got [0]"),
        ([2, 5], "got [5]"),
        ([2, 2], "repeat: [2]"),
        ([1.0], "integer"),
        ("1", "integer"),
    ])
    def test_bad_erased_list_rejected(self, capsys, system_d, tmp_path, erased, shown):
        code, out, err = self._recover_coded(capsys, system_d, tmp_path, {
            "coefficients": [None, None, 1.0, 0.5],
            "erased": erased,
        })
        assert code == 2 and out == ""
        assert shown in err


# Report values: Python and numpy scalars (finite, +inf, -inf and NaN), float
# and int arrays, nested in dicts, lists and tuples as handlers build them.
_REPORT_LEAF = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    arrays(np.float64, array_shapes(max_dims=2, max_side=3)),
    arrays(np.int64, array_shapes(max_dims=2, max_side=3)),
)
_REPORT = st.dictionaries(st.text(max_size=3), st.recursive(
    _REPORT_LEAF, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=10), max_size=4)


def _non_finite(value) -> bool:
    """Whether a report value holds a float that is not finite, at any depth."""
    if isinstance(value, dict):
        return any(map(_non_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(_non_finite, value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f" and not np.isfinite(value).all()
    return isinstance(value, (float, np.floating)) and not math.isfinite(value)


@settings(max_examples=200, deadline=None)
@given(report=_REPORT, pretty=st.booleans())
@example(report={"spark": "inf", "M": np.array([[1.0, 2.0]]), "r": (np.int64(2),)},
         pretty=False)
@example(report={"spark": math.inf}, pretty=False)
@example(report={"M": np.array([[1.0, math.inf]])}, pretty=True)
@example(report={"residual": np.float64(-math.inf)}, pretty=True)
@example(report={"v": [np.float32(0.1), {"x": math.nan}]}, pretty=False)
def test_emit_prints_one_encoding_pass(report, pretty):
    """_emit prints json.dumps(report, default=_plain, allow_nan=False) byte for
    byte. A report holding +inf, -inf or NaN anywhere raises ValueError and
    prints nothing: no value is rewritten, so spark's "inf" string is the only
    infinity a report can hold."""
    indent = 2 if pretty else None
    out = io.StringIO()
    if _non_finite(report):
        with contextlib.redirect_stdout(out), pytest.raises(ValueError) as exc:
            kframes.cli._emit(report, pretty)
        assert out.getvalue() == ""
        assert str(exc.value).endswith((" is inf", " is -inf", " is nan"))
    else:
        want = json.dumps(report, indent=indent, default=kframes.cli._plain,
                          allow_nan=False) + "\n"
        with contextlib.redirect_stdout(out):
            kframes.cli._emit(report, pretty)
        assert out.getvalue() == want


# JSON values that are not a finite int or float, among them the ones json
# reads from NaN, Infinity and an integer beyond float range.
_BAD_ENTRIES = ["2.5", "x", True, False, None, [2.0], {"v": 1.0},
                float("nan"), float("inf"), -float("inf"), 10**400]


@settings(max_examples=60, deadline=None)
@given(place=st.sampled_from(["F", "K", "G", "coefficients", "side"]),
       position=st.integers(0, 15), bad=st.sampled_from(_BAD_ENTRIES))
def test_malformed_json_entry_exits_two_naming_its_position(tmp_path_factory, place, position,
                                                            bad):
    """One bad entry anywhere in the files of recover --strategy side-info."""
    fix = FIXTURES["FIX-D"]
    c = fix.dual.T @ np.ones(4)
    files = {
        "system": {"F": _matrix_obj(fix.F), "K": _matrix_obj(fix.K)},
        "dual": {"G": _matrix_obj(fix.dual)},
        "coded": {"coefficients": [None, *c[1:].tolist()], "erased": [1]},
        "side": (fix.F.T @ fix.K @ np.ones(4)).tolist(),
    }
    workdir = tmp_path_factory.mktemp("bad")
    if place in ("F", "K", "G"):
        row, col = divmod(position, 4)
        key = "dual" if place == "G" else "system"
        files[key][place]["data"][row][col] = bad
        shown = (f"{workdir / key}.json: {place}: row {row + 1}, column {col + 1}: "
                 "expected a finite number")
    elif bad is None and place == "coefficients":  # null is legal at the erased position 1
        files["coded"]["coefficients"][position % 3 + 1] = bad
        shown = (f"{workdir / 'coded'}.json: null coefficients at surviving positions "
                 f"[{position % 3 + 2}]")
    elif place == "coefficients":
        files["coded"]["coefficients"][position % 4] = bad
        shown = (f"{workdir / 'coded'}.json: coefficient {position % 4 + 1}: "
                 "expected a finite number")
    else:
        files["side"][position % 4] = bad
        shown = (f"{workdir / 'side'}.json: side vector entry {position % 4 + 1}: "
                 "expected a finite number")
    argv = ["recover", "--strategy", "side-info"]
    for key, obj in files.items():
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(obj))
        argv += ["--side-info" if key == "side" else f"--{key}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert (code, out.getvalue()) == (2, ""), err.getvalue()
    assert shown in err.getvalue()


@pytest.mark.parametrize("change, shown", [
    ({"rows": True}, "rows and cols must be positive integers"),
    ({"cols": 4.0}, "rows and cols must be positive integers"),
    ({"data": [1, 2, 3, 4]}, "data must be a list of rows"),
    ({"data": 5}, "data must be a list of rows"),
    ({"data": [[1.0] * 4, [1.0] * 3, [1.0] * 4, [1.0] * 4]}, "row 2 has 3 entries, expected 4"),
])
def test_malformed_matrix_object_exits_two(capsys, tmp_path, change, shown):
    fix = FIXTURES["FIX-D"]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"F": {**_matrix_obj(fix.F), **change}, "K": _matrix_obj(fix.K)}))
    code, out, err = run(capsys, "analyze", "--system", str(path))
    assert (code, out) == (2, "")
    assert shown in err


class TestFindRkCommand:
    def test_fixture_d_target_two(self, capsys, system_d):
        sys_path, dual_path = system_d
        report = run_json(
            capsys, "find-rk", "--system", sys_path, "--dual", dual_path,
            "--r", "2",
        )
        assert report["annihilation_ok"] is True
        assert report["r_side_info"] >= 2

    def test_search_failure_exits_one(self, capsys, tmp_path):
        sys, dual = unreachable_rk_system()
        save_matrix(dual.G, tmp_path / "g.csv")
        (tmp_path / "sys.json").write_text(json.dumps(
            {"F": matrix_to_obj(sys.F), "K": matrix_to_obj(sys.K.matrix)}))
        code, out, err = run(capsys, "find-rk", "--system", str(tmp_path / "sys.json"),
                             "--dual", str(tmp_path / "g.csv"), "--r", "5")
        assert (code, out) == (1, "")
        assert err == ("kframes find-rk: no recovery matrix with r >= 5: Gram + A (I - P) "
                       "reaches r_side_info 4 (spark_M witness on columns [1, 2, 3, 4, 5]) "
                       "and r_blind 3 (spark_N witness on columns [1, 2, 3, 4])\n")


class TestSimulateCommand:
    def test_side_info_two_erasures_exact(self, capsys, system_d):
        sys_path, dual_path = system_d
        report = run_json(
            capsys, "simulate", "--system", sys_path, "--dual", dual_path,
            "--r", "2", "--signals", "64", "--seed", "11",
            "--strategies", "side-info",
        )
        entry = report["strategies"]["side-info"]
        assert entry["exact_fraction"] == 1.0
        assert entry["max_error"] <= 1e-9
        assert report["certificate"]["spark_M"] == 3
        assert report["certificate"]["r_side_info"] == 2
        assert report["certificate"]["annihilation_ok"] is True

    def test_zero_erasures_trivially_exact(self, capsys, system_d):
        sys_path, dual_path = system_d
        report = run_json(
            capsys, "simulate", "--system", sys_path, "--dual", dual_path,
            "--r", "0", "--signals", "16", "--seed", "2",
        )
        for entry in report["strategies"].values():
            assert entry["exact_fraction"] == 1.0

    def test_consistency_partial_under_single_erasure(self, capsys, system_d):
        sys_path, dual_path = system_d
        report = run_json(
            capsys, "simulate", "--system", sys_path, "--dual", dual_path,
            "--r", "1", "--signals", "200", "--seed", "17",
            "--strategies", "consistency",
        )
        entry = report["strategies"]["consistency"]
        assert 0.0 < entry["exact_fraction"] < 1.0

    def test_blind_with_gramian_all_skipped(self, capsys, system_d):
        sys_path, dual_path = system_d
        report = run_json(
            capsys, "simulate", "--system", sys_path, "--dual", dual_path,
            "--r", "1", "--signals", "8", "--seed", "4",
            "--strategies", "blind",
        )
        entry = report["strategies"]["blind"]
        assert entry["skipped"] == 8
        assert entry["skipped_all"] is True

    def test_byte_identical_reports(self, capsys, system_d):
        sys_path, dual_path = system_d
        argv = [
            "simulate", "--system", sys_path, "--dual", dual_path,
            "--r", "2", "--signals", "100", "--seed", "42",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_pretty_flag_same_payload(self, capsys, system_d):
        sys_path, dual_path = system_d
        argv = ["simulate", "--system", sys_path, "--dual", dual_path,
                "--r", "1", "--signals", "10", "--seed", "1"]
        compact = run_json(capsys, *argv)
        pretty_code, pretty_out, _ = run(capsys, *argv, "--pretty")
        assert pretty_code == 0
        assert "\n  " in pretty_out
        assert json.loads(pretty_out) == compact

    def test_tolerance_flag_outside_policy_range(self, capsys, system_d):
        code, _, err = run(capsys, "analyze", "--system", system_d[0],
                           "--tol-res", "0.5")
        assert code == 64
        assert "argument --tol-res: residual_rel must lie in (0, 1e-2), got 0.5" in err

    @pytest.mark.parametrize("strategies",
                             ["bogus", ",", "blind,blind", "side-info, blind,side-info"])
    def test_bad_strategy_lists_rejected(self, capsys, system_d, strategies):
        code, out, err = run(capsys, "simulate", "--system", system_d[0], "--r", "1",
                             "--signals", "4", "--strategies", strategies)
        assert code == 64 and out == ""
        assert ("argument --strategies: needs distinct names of side-info, blind, "
                "consistency") in err

    def test_bad_strategy_list_rejected_before_any_file_is_read(self, capsys, tmp_path):
        code, out, err = run(capsys, "simulate", "--system", str(tmp_path / "absent.json"),
                             "--r", "1", "--strategies", "blind,blind")
        assert code == 64 and out == ""
        assert "argument --strategies: needs distinct names" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--cap-subsets", "0"),
        ("simulate", "--cap-subsets", "-5"),
        ("simulate", "--seed", "-1"),
        ("find-rk", "--cap-subsets", "0"),
        ("simulate", "--signals", "0"),
    ])
    def test_out_of_range_flags_are_usage_errors(self, capsys, system_d, command, flag, value):
        code, out, err = run(capsys, command, "--system", system_d[0], "--dual", system_d[1],
                             "--r", "1", flag, value)
        assert code == 64 and out == ""
        assert f"argument {flag}: must be at least" in err

    @pytest.mark.parametrize("command, flags", [
        ("find-rk", ["--trials", "3", "--seed", "1"]),
        ("find-rk", ["--json"]),
        ("simulate", ["--json"]),
    ], ids=["find-rk-trials-seed", "find-rk-json", "simulate-json"])
    def test_removed_flags_are_usage_errors(self, capsys, system_d, command, flags):
        code, out, err = run(capsys, command, "--system", system_d[0], "--dual", system_d[1],
                             "--r", "1", *flags)
        assert (code, out) == (64, "")
        assert f"kframes {command}: error: unrecognized arguments: {' '.join(flags)}" in err

    def test_exact_count_follows_the_residual_policy(self, capsys, tmp_path):
        """A dual that is off by 1e-7 recovers to about 1e-6: exact under
        --tol-res 1e-5, whose threshold is ten times the policy's residual."""
        rng = np.random.default_rng(3)
        f = rng.standard_normal((3, 6))
        k = rng.standard_normal((3, 3))
        g = (np.linalg.pinv(f) @ k).T + 1e-7 * np.random.default_rng(1).standard_normal((3, 6))
        sys_path, dual_path = tmp_path / "sys.json", tmp_path / "dual.json"
        sys_path.write_text(json.dumps({"F": _matrix_obj(f), "K": _matrix_obj(k)}))
        dual_path.write_text(json.dumps({"G": _matrix_obj(g)}))
        entry = run_json(
            capsys, "simulate", "--system", str(sys_path), "--dual", str(dual_path),
            "--r", "1", "--signals", "50", "--strategies", "consistency", "--tol-res", "1e-5",
        )["strategies"]["consistency"]
        assert 1e-7 < entry["max_error"] < 1e-5
        assert entry["exact"] == 50

    def test_canonical_dual_when_omitted(self, capsys, system_d):
        report = run_json(
            capsys, "simulate", "--system", system_d[0], "--r", "1",
            "--signals", "8", "--seed", "1", "--strategies", "side-info",
        )
        assert report["config"]["dual"] is None
        assert report["strategies"]["side-info"]["exact_fraction"] == 1.0


def _analyze(workdir, f, k):
    path = workdir / "system.json"
    path.write_text(json.dumps({
        "F": {"rows": f.shape[0], "cols": f.shape[1], "data": f.tolist()},
        "K": {"rows": k.shape[0], "cols": k.shape[1], "data": k.tolist()},
    }))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(["analyze", "--system", str(path)]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["generic", "parseval", "FIX-A", "FIX-B", "FIX-C", "FIX-D"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(0, 2),
    rank_k=st.integers(1, 4),
    exponent=st.integers(-60, 60),
)
def test_analyze_is_scale_invariant(tmp_path_factory, kind, seed, n, extra, rank_k,
                                    exponent):
    rng = np.random.default_rng(seed)
    if kind in FIXTURES:
        f, k = FIXTURES[kind].F, FIXTURES[kind].K
    elif kind == "generic":
        f, k = random_kframe(rng, n, n + extra, min(rank_k, n))
    else:
        f, k = random_parseval_kframe(rng, n, n + extra, min(rank_k, n))
    c = 10.0 ** exponent
    workdir = tmp_path_factory.mktemp("scale")
    base, scaled = _analyze(workdir, f, k), _analyze(workdir, c * f, c * k)
    for key in ("operator_rank", "uniform_excess", "mrc", "maximal_robust"):
        assert scaled[key] == base[key], key
    assert scaled["spark"]["spark"] == base["spark"]["spark"]
    alpha, scaled_alpha = (r["classification"].pop("tight_alpha") for r in (base, scaled))
    assert scaled["classification"] == base["classification"]
    assert (alpha is None) == (scaled_alpha is None)
    if alpha is not None:
        assert scaled_alpha == pytest.approx(alpha, rel=1e-9)
    assert scaled["bounds"] == pytest.approx([base["bounds"][0], c * c * base["bounds"][1]],
                                             rel=1e-9)


def test_analyze_tests_each_subset_once_per_scan(tmp_path):
    """Maximal robustness is read from uniform excess's tables, and T_3 and
    mrc_all's 5-column complements from spark's: spark alone hands out 20
    subsets here. F is full spark, so spark reads its rank level, C(6, 3) =
    20 sets, and names the first 4-set untested; a size-ascending scan would
    read sizes 1 to 3 and one 4-set, 42 subsets in all. K is invertible, so
    uniform excess needs only T_3: spark found each 3-set independent, so
    each is a K-frame, and no 1- or 2-set spans R^3, which the tables answer
    without a subset. Each 5-set holds an independent 3-set, so it spans R^3."""
    f, k = random_kframe(np.random.default_rng(0), 3, 6, 3)
    with counting_subsets() as seen:
        _analyze(tmp_path, f, k)
    assert seen[0] == 20


@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e300])
def test_certified_scans_keep_their_verdicts_at_extreme_scales(tmp_path, scale):
    """The full-rank certificate scales each block to unit size before it forms
    a norm, so F near the ends of the float64 range neither overflows nor moves
    a verdict of analyze --r 2 or spark (K invertible, so the K-frame scans
    take the certificate too)."""
    f, k = random_kframe(np.random.default_rng(2), 5, 10, 5)
    reports = []
    for c in (1.0, scale):
        analyzed = _report(tmp_path, "a", ["analyze", "--r", "2"], system={"F": c * f, "K": k})
        sparked = _report(tmp_path, "s", ["spark"], matrix=c * f)
        reports.append((analyzed["spark"]["spark"], analyzed["uniform_excess"],
                        analyzed["mrc"], analyzed["maximal_robust"], sparked["spark"],
                        _support(sparked)))
    assert reports[0] == reports[1]


def _outcome(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    return code, out.getvalue()


@settings(max_examples=25, deadline=None)
@given(
    a=st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.floats(-10, 10), min_size=n, max_size=n), min_size=n, max_size=n)),
    exponent=st.sampled_from([-100, 0, 100]),
)
def test_json_and_csv_inputs_give_the_same_reports(tmp_path_factory, a, exponent):
    """A matrix saved as CSV and as JSON reads the same through the CLI: a CSV
    system file is its own F and K, and spark echoes only the path."""
    mat = np.array(a) * 10.0 ** exponent
    workdir = tmp_path_factory.mktemp("formats")
    save_matrix(mat, workdir / "a.csv")
    save_matrix(mat, workdir / "a.json")
    system = workdir / "system.json"
    system.write_text(json.dumps({"F": matrix_to_obj(mat), "K": matrix_to_obj(mat)}))
    assert _outcome(["analyze", "--system", str(workdir / "a.csv")]) == _outcome(
        ["analyze", "--system", str(system)])
    sparks = []
    for name in ("a.csv", "a.json"):
        code, out = _outcome(["spark", "--matrix", str(workdir / name)])
        sparks.append((code, out.replace(json.dumps(str(workdir / name)), '"a"')))
    assert sparks[0] == sparks[1]


def test_no_command_writes_to_a_csv_system_array(tmp_path, monkeypatch):
    """A CSV system file is parsed once, and its one array serves as F and as K.
    Loaded read-only, it gives every command that reads a system the report of
    its JSON twin, so no command writes to it."""
    mat = np.random.default_rng(5).standard_normal((3, 3))
    save_matrix(mat, tmp_path / "a.csv")
    (tmp_path / "a.json").write_text(json.dumps({"F": matrix_to_obj(mat),
                                                 "K": matrix_to_obj(mat)}))
    dual, coded = tmp_path / "dual.json", tmp_path / "coded.json"
    dual.write_text(json.dumps({"G": matrix_to_obj(np.eye(3))}))
    coded.write_text(json.dumps({"coefficients": [None, 2.0, 3.0], "erased": [1]}))
    read = kframes.matrixio._matrix_from_csv

    def read_only(path):
        arr = read(path)
        arr.flags.writeable = False
        return arr

    monkeypatch.setattr(kframes.matrixio, "_matrix_from_csv", read_only)
    for argv in (["analyze"], ["canonical-dual"], ["canonical-dual", "--method", "restricted"],
                 ["mrc", "--sigma", "1"], ["mrc", "--r", "1"], ["check-dual", "--dual", dual],
                 ["recover", "--dual", dual, "--coded", coded, "--strategy", "consistency"],
                 ["find-rk", "--dual", dual, "--r", "1"],
                 ["simulate", "--dual", dual, "--r", "1", "--signals", "5"]):
        outcomes = []
        for name in ("a.csv", "a.json"):
            code, out = _outcome([argv[0], "--system", str(tmp_path / name), *map(str, argv[1:])])
            outcomes.append((code, out.replace(json.dumps(str(tmp_path / name)), '"a"')))
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == 0


def _report(workdir, name, argv, **matrices):
    """Report of one command whose inputs are written to workdir/name-<key>.json."""
    paths = []
    for key, value in matrices.items():
        path = workdir / f"{name}-{key}.json"
        obj = {part: _matrix_obj(m) for part, m in value.items()} if isinstance(value, dict) \
            else _matrix_obj(value)
        path.write_text(json.dumps(obj))
        paths += [f"--{key.replace('_', '-')}", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command([*argv, *paths]) == 0
    return json.loads(out.getvalue())


def _matrix_obj(a):
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.tolist()}


def _support(spark_obj):
    return None if spark_obj["witness"] is None else np.flatnonzero(spark_obj["witness"]).tolist()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    extra=st.integers(1, 3),
    rank_k=st.integers(1, 4),
    r=st.integers(1, 6),
    exponent=st.integers(-60, 60),
)
def test_rank_verdicts_outside_analyze_are_scale_invariant(
        tmp_path_factory, seed, n, extra, rank_k, r, exponent):
    """spark (value and witness support), mrc --r (verdict and first failing set)
    and the certificate sparks of find-rk's recovery matrix, at 10^exponent."""
    rng = np.random.default_rng(seed)
    f, k = random_kframe(rng, n, n + extra, min(rank_k, n))
    c = 10.0 ** exponent
    workdir = tmp_path_factory.mktemp("scale")
    dual = (np.linalg.pinv(f) @ k).T
    found = _report(workdir, "rk", ["find-rk", "--r", "1"],
                    system={"F": f, "K": k}, dual={"G": dual})
    m_mat = np.array(found["M"]["data"])
    reports = []
    for scale, name in ((1.0, "base"), (c, "scaled")):
        system = {"F": scale * f, "K": scale * k}
        spark_obj = _report(workdir, name, ["spark"], matrix=scale * f)
        mrc = _report(workdir, name, ["mrc", "--r", str(min(r, n + extra - 1))], system=system)
        certificate = _report(
            workdir, name, ["simulate", "--r", "1", "--signals", "1", "--strategies", "blind"],
            system=system, dual={"G": dual}, rk_matrix=scale * scale * m_mat)["certificate"]
        reports.append((spark_obj["spark"], _support(spark_obj), mrc["satisfied"],
                        mrc["first_failing"], certificate["spark_M"], certificate["spark_N"],
                        certificate["r_side_info"], certificate["r_blind"]))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", ["FIX-B", "FIX-D"])
def test_consistency_certificates_do_not_depend_on_scale(tmp_path, name):
    """The survivors' span of R(K^T) is judged through Ker K against the
    survivors' own scale, so a scale that shrinks K next to G (G does not
    scale) hides nothing."""
    fix = FIXTURES[name]
    argv = ["simulate", "--r", "2", "--signals", "20", "--seed", "5",
            "--strategies", "consistency"]
    exact = [_report(tmp_path, str(c), argv, system={"F": c * fix.F, "K": c * fix.K})
             ["strategies"]["consistency"]["exact"] for c in (1.0, 1e-150, 1e150)]
    assert exact == [exact[0]] * 3


def test_side_info_recovery_does_not_overflow_at_1e150(tmp_path):
    """F and K at 1e150 put the side vector F^T K f near 1e300, so the squares
    of a residual row leave float64 although its norm does not: simulate and
    recover still run, with the exact counts of scale 1."""
    f, k = random_kframe(np.random.default_rng(0), 3, 6, 2)
    dual = (np.linalg.pinv(f) @ k).T
    signal = np.random.default_rng(1).standard_normal(3)
    coded = tmp_path / "coded.json"
    coded.write_text(json.dumps({"coefficients": [None, *(dual.T @ signal)[1:].tolist()],
                                 "erased": [1]}))
    results = []
    for c in (1.0, 1e150):
        system = {"F": c * f, "K": c * k}
        side = tmp_path / f"side-{c}.json"
        side.write_text(json.dumps(((c * f).T @ (c * k) @ signal).tolist()))
        simulated = _report(tmp_path, f"sim-{c}", ["simulate", "--r", "1", "--strategies",
                                                   "side-info"], system=system, dual={"G": dual})
        recovered = _report(tmp_path, f"rec-{c}", ["recover", "--strategy", "side-info",
                                                   "--coded", str(coded), "--side-info", str(side)],
                            system=system, dual={"G": dual})
        results.append((simulated["strategies"]["side-info"]["exact"],
                        recovered["certified_exact"]))
    assert results == [(1000, True)] * 2


def test_side_info_certificates_survive_cancellation_at_scale(tmp_path):
    """At 1e100 and 1e150 the right-hand side v - M_known c_known of FIX-A's
    side-info solve cancels to round-off of the size of v, so each residual is
    judged against the size of those terms, ||M|| ||c_known|| + ||v||: every draw
    is certified, as at scale 1."""
    fix = FIXTURES["FIX-A"]
    argv = ["simulate", "--r", "1", "--signals", "200", "--strategies", "side-info"]
    exact = [_report(tmp_path, str(c), argv, system={"F": c * fix.F, "K": c * fix.K})
             ["strategies"]["side-info"]["exact"] for c in (1.0, 1e100, 1e150, 2.5e7)]
    assert exact == [200] * 4


def test_analyze_reads_the_system_file_once(capsys, system_d, monkeypatch):
    reads = []
    read_text = Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    run_json(capsys, "analyze", "--system", system_d[0])
    assert reads.count(system_d[0]) == 1


def test_bare_dual_file_is_read_once(capsys, system_d, tmp_path, monkeypatch):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(json.loads(Path(system_d[1]).read_text())["G"]))
    reads = []
    read_text = Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    assert run_json(capsys, "check-dual", "--system", system_d[0], "--dual", str(bare))["is_valid"]
    assert reads.count(str(bare)) == 1


@pytest.mark.parametrize("which", ["--coded", "--side-info"])
def test_undecodable_coded_or_side_file_exits_two_naming_it(capsys, system_d, tmp_path, which):
    files = {"--coded": tmp_path / "coded.json", "--side-info": tmp_path / "side.json"}
    files["--coded"].write_text(json.dumps({"coefficients": [None, 1.0, 2.0, 0.5],
                                            "erased": [1]}))
    files["--side-info"].write_text(json.dumps([1.0, 2.0, 3.0, 4.0]))
    files[which].write_text('{"coefficients": [1.0, 2.0]\n"erased": [1]}')
    code, out, err = run(capsys, "recover", "--strategy", "side-info", "--system", system_d[0],
                         "--dual", system_d[1], *(str(x) for pair in files.items() for x in pair))
    assert (code, out) == (2, "")
    assert f"{files[which]}: invalid JSON: Expecting ',' delimiter" in err


@pytest.mark.parametrize("suffix, text, byte", [
    ("json", b'\xff{"rows": 1}', 1), ("csv", b"1.0,2.0\n3.0,\xc3(\n", 13)])
@pytest.mark.parametrize("flag", ["--system", "--dual", "--coded", "--side-info",
                                  "--rk-matrix", "--matrix"])
def test_non_utf8_file_exits_two_naming_it(capsys, system_d, tmp_path, flag, suffix, text,
                                           byte):
    """A file that is not UTF-8, given to any file flag in either format, exits 2
    with its path and the 1-based offset of its first bad byte."""
    bad = tmp_path / f"bad.{suffix}"
    bad.write_bytes(text)
    coded = tmp_path / "coded.json"
    coded.write_text(json.dumps({"coefficients": [None, 1.0, 2.0, 0.5], "erased": [1]}))
    system, dual, bad_path = *system_d, str(bad)
    recover = ["recover", "--system", system, "--dual", dual]
    argv = {
        "--system": ["check-dual", "--system", bad_path, "--dual", dual],
        "--dual": ["check-dual", "--system", system, "--dual", bad_path],
        "--coded": recover + ["--coded", bad_path],
        "--side-info": recover + ["--coded", str(coded), "--strategy", "side-info",
                                  "--side-info", bad_path],
        "--rk-matrix": recover + ["--coded", str(coded), "--strategy", "blind",
                                  "--rk-matrix", bad_path],
        "--matrix": ["spark", "--matrix", bad_path],
    }[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{bad}: not UTF-8 text (byte {byte}: " in err


def _object(*pairs) -> str:
    """A JSON object written pair by pair, so a key may repeat."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"


@pytest.mark.parametrize("flag, key", [
    ("--system", "F"), ("--system", "rows"), ("--dual", "G"), ("--coded", "erased"),
    ("--side-info", "cols"), ("--rk-matrix", "data")])
def test_repeated_key_exits_two_naming_file_and_key(capsys, system_d, tmp_path, flag, key):
    """A repeated key in any file, at the top or inside a matrix object, exits 2
    with the file and the key, where json would keep the last value silently."""
    fix = FIXTURES["FIX-D"]

    def matrix(a, repeat=None):
        a = np.asarray(a, dtype=float)
        pairs = [("rows", a.shape[0]), ("cols", a.shape[1]), ("data", json.dumps(a.tolist()))]
        return _object(*pairs, *[p for p in pairs if p[0] == repeat])

    texts = {
        "--system": _object(("F", matrix(fix.F, key)), ("K", matrix(fix.K)),
                            *([("F", matrix(2 * fix.F))] if key == "F" else [])),
        "--dual": _object(("G", matrix(fix.dual)), ("G", matrix(2 * fix.dual))),
        "--coded": _object(("coefficients", "[null, 1.0, 2.0, 0.5]"), ("erased", "[1]"),
                           ("erased", "[2]")),
        "--side-info": matrix(np.ones((4, 1)), key),
        "--rk-matrix": matrix(fix.F.T @ fix.F, key),
    }
    bad = tmp_path / "bad.json"
    bad.write_text(texts[flag])
    coded = tmp_path / "coded.json"
    coded.write_text(json.dumps({"coefficients": [None, 1.0, 2.0, 0.5], "erased": [1]}))
    system, dual = system_d
    recover = ["recover", "--system", system, "--dual", dual]
    argv = {
        "--system": ["analyze", "--system", str(bad)],
        "--dual": ["check-dual", "--system", system, "--dual", str(bad)],
        "--coded": recover + ["--coded", str(bad)],
        "--side-info": recover + ["--coded", str(coded), "--strategy", "side-info",
                                  "--side-info", str(bad)],
        "--rk-matrix": recover + ["--coded", str(coded), "--strategy", "blind",
                                  "--rk-matrix", str(bad)],
    }[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"kframes {argv[0]}: {bad}: repeated key {key!r}\n"


def test_system_file_is_checked_f_before_k(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"F": {"rows": 1, "cols": 1, "data": [["x"]]}}))
    code, _, err = run(capsys, "analyze", "--system", str(path))
    assert code == 2 and f"{path}: F: row 1, column 1: expected a finite number" in err
    path.write_text(json.dumps({"F": _matrix_obj(np.eye(2))}))
    code, _, err = run(capsys, "analyze", "--system", str(path))
    assert code == 2 and f"{path}: missing key 'K'" in err


@pytest.mark.parametrize("strategy", ["consistency", "side-info", "blind"])
def test_overflow_exits_one_without_warnings(capsys, tmp_path, strategy):
    """FIX-A scaled by 1e200: a simulate whose products overflow float64 exits 1
    with one message, instead of printing RuntimeWarnings and reporting "inf"."""
    fix = FIXTURES["FIX-A"]
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"F": _matrix_obj(1e200 * fix.F),
                                "K": _matrix_obj(1e200 * fix.K)}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "simulate", "--system", str(path), "--r", "1",
                             "--signals", "5", "--strategies", strategy)
    assert (code, out, caught) == (1, "", [])
    assert "computed values leave the float64 range" in err
    assert "RuntimeWarning" not in err and "non-finite" not in err


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 6), cols=st.integers(2, 6), factor=st.floats(1.001, 1.999))
def test_overflowed_singular_value_decides_no_rank(tmp_path_factory, rows, cols, factor):
    """Equal entries of 2^1024 / k times factor, k = min(rows, cols) >= 2: the
    largest singular value passes float64, and LAPACK returns inf for it. Each
    rank decision refuses that, and spark --matrix exits 1. OperatorK factors
    K at unit size, so it reads the leading k x k block's rank, 1, at any scale."""
    k = min(rows, cols)
    block = np.full((rows, cols), math.ldexp(2.0 / k * factor, 1023))
    message = "computed values leave the float64 range"
    for decide in (kframes.spark, kframes.rank_of, kframes.null_space_basis):
        with pytest.raises(kframes.KFrameError, match=message):
            decide(block)
    assert kframes.OperatorK.from_matrix(block[:k, :k]).rank == 1
    path = tmp_path_factory.mktemp("overflow") / "block.json"
    path.write_text(json.dumps(_matrix_obj(block)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(["spark", "--matrix", str(path)])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith(f"kframes spark: {message}")


def test_check_dual_past_float64_exits_one(capsys, tmp_path):
    """F = 1e308 ones(2, 2), K = 0, G = I: ||F G^T - M_K|| overflows, so the
    residual is no float64 number and check-dual exits 1, printing nothing
    and naming the residual."""
    system, dual = tmp_path / "system.json", tmp_path / "dual.json"
    system.write_text(json.dumps({"F": _matrix_obj(np.full((2, 2), 1e308)),
                                  "K": _matrix_obj(np.zeros((2, 2)))}))
    dual.write_text(json.dumps({"G": _matrix_obj(np.eye(2))}))
    code, out, err = run(capsys, "check-dual", "--system", str(system), "--dual", str(dual))
    assert (code, out) == (1, "")
    assert err == "kframes check-dual: report is not valid JSON: residual is inf\n"


@pytest.mark.parametrize("name", ["FIX-A", "FIX-B", "FIX-C", "FIX-D"])
def test_gramian_underflow_exits_one_and_consistency_still_runs(capsys, tmp_path, name):
    """F and K scaled by 1e-200: every square of an entry of F underflows, so the
    commands that read F^T F refuse with one message instead of reading a zero
    Gramian, while consistency recovery, which never reads it, still runs."""
    fix = FIXTURES[name]
    m = fix.F.shape[1]
    files = {
        "system": {"F": _matrix_obj(1e-200 * fix.F), "K": _matrix_obj(1e-200 * fix.K)},
        "dual": _matrix_obj((np.linalg.pinv(fix.F) @ fix.K).T),
        "coded": {"coefficients": [None] + [1.0] * (m - 1), "erased": [1]},
        "side-info": [0.0] * m,
    }
    flags = {}
    for key, obj in files.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(obj))
        flags[key] = [f"--{key}", str(path)]
    system = [*flags["system"], *flags["dual"]]
    recover = ["recover", *system, *flags["coded"]]
    for argv in ([*recover, "--strategy", "side-info", *flags["side-info"]],
                 ["find-rk", *system, "--r", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv[0]
        assert "computed values leave the float64 range (F^T F underflows" in err
    assert run_json(capsys, *recover, "--strategy", "consistency")["strategy"] == "consistency"
    assert run_json(capsys, "simulate", *system, "--r", "1", "--signals", "5",
                    "--strategies", "consistency")["strategies"]["consistency"]["signals"] == 5


@pytest.mark.parametrize("command", ["analyze", "mrc", "find-rk", "simulate"])
def test_negative_r_is_a_usage_error(capsys, system_d, command):
    dual = ["--dual", system_d[1]] if command == "find-rk" else []
    code, out, err = run(capsys, command, "--system", system_d[0], *dual, "--r", "-1")
    assert (code, out) == (64, "")
    assert "argument --r: must be at least 0, got -1" in err


def test_analyze_refuses_r_above_m_before_any_scan(capsys, system_d, monkeypatch):
    assert run_json(capsys, "analyze", "--system", system_d[0], "--r", "4")["mrc"]["r"] == 4

    def scan(*args, **kwargs):
        raise AssertionError("analyze ran a scan before checking --r")

    for name in ("classify", "analyze_scans", "spark", "mrc_all"):
        monkeypatch.setattr(kframes.cli, name, scan)
    code, out, err = run(capsys, "analyze", "--system", system_d[0], "--r", "5")
    assert (code, out) == (1, "")
    assert "r must satisfy 0 <= r <= m = 4" in err


def test_check_dual_with_a_residual_past_float64_at_k_scale_is_invalid(capsys, tmp_path):
    """FIX-D with K x 1e-200 and the published dual x 1e200: the residual,
    about 1e200, overflows at K's unit size. It is far above any threshold,
    so the dual is invalid, and the finite residual is reported."""
    fix = FIXTURES["FIX-D"]
    f, k, g = fix.F, 1e-200 * fix.K, 1e200 * fix.dual
    sys_path, dual_path = tmp_path / "system.json", tmp_path / "dual.json"
    sys_path.write_text(json.dumps({"F": _matrix_obj(f), "K": _matrix_obj(k)}))
    dual_path.write_text(json.dumps(_matrix_obj(g)))
    report = run_json(capsys, "check-dual", "--system", str(sys_path), "--dual", str(dual_path))
    assert report["is_valid"] is False
    assert report["residual"] == pytest.approx(np.linalg.norm(f @ g.T - k, 2), rel=1e-12)


def test_analyze_checks_every_budget_before_any_scan(capsys, tmp_path):
    """A generic 10x20 system with rank K = 4: spark's budget, the 616,665
    tests of sizes 1..10, passes, and uniform excess needs the 2^20 - 1 - 1351
    tests of sizes 4..19. analyze refuses before spark hands out a subset;
    with a smaller cap spark's budget refuses first, as before. With K
    invertible, sizes 10..19 need 616,665 tests, which the default cap
    admits."""
    f, k = random_kframe(np.random.default_rng(0), 10, 20, 4)
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"F": _matrix_obj(f), "K": _matrix_obj(k)}))
    for cap, message in ((10**6, "uniform_excess needs 1047224 subset tests"),
                         (1000, "spark needs 616665 subset tests")):
        with counting_subsets() as seen:
            code, out, err = run(capsys, "analyze", "--system", str(path), "--r", "2",
                                 "--cap-subsets", str(cap))
        assert (code, out, seen[0]) == (1, "", 0)
        assert f"kframes analyze: {message}, more than the cap of {cap}" in err
    f, k = random_kframe(np.random.default_rng(0), 10, 20, 10)
    with counting_subsets() as seen:
        spark_f, excess, mrc = analyze_scans(f, k, 2)
    assert (spark_f.value, excess.value, excess.maximal_robust, mrc) == (11, 10, True, (True, None))
    # Level 10 is enumerated once, for spark, T_10 and mrc_all's 18-column complements.
    assert seen[0] == math.comb(20, 10)
    with counting_subsets() as seen, pytest.raises(kframes.BudgetExceededError) as exc:
        kframes.uniform_excess(f, k, cap=616664)
    assert seen[0] == 0
    assert str(exc.value) == "uniform_excess needs 616665 subset tests, more than the cap of 616664"


def _simulate_fix_d(capsys, tmp_path, monkeypatch, *flags):
    """simulate on FIX-D, 200 signals at seed 7, from a system file named as in the report."""
    fix = FIXTURES["FIX-D"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fix-d.json").write_text(json.dumps(
        {"F": _matrix_obj(fix.F), "K": _matrix_obj(fix.K)}))
    return run(capsys, "simulate", "--system", "fix-d.json", "--signals", "200", "--seed", "7",
               *flags)


def test_simulate_report_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    """One seed's report, byte for byte: the draws are sorted once after the
    loop, and the rng sees the calls it saw when each draw was sorted alone."""
    code, out, _ = _simulate_fix_d(capsys, tmp_path, monkeypatch,
                                   "--r", "1", "--strategies", "consistency")
    assert code == 0
    assert out == (
        '{"command": "simulate", "config": {"system": "fix-d.json", "dual": null, "r": 1, '
        '"signals": 200, "seed": 7, "strategies": ["consistency"], "rk_matrix": null}, '
        '"certificate": null, "strategies": {"consistency": {"signals": 200, '
        '"completed": 200, "skipped": 0, "exact": 150, "exact_fraction": 0.75, '
        '"max_error": 2.5325196480669656, "mean_error": 0.20352069100840503}}}\n')


_PINNED_ALL_STRATEGIES = {
    2: (
        '{"command": "simulate", "config": {"system": "fix-d.json", "dual": null, "r": 2, '
        '"signals": 200, "seed": 7, "strategies": ["side-info", "blind", "consistency"], '
        '"rk_matrix": null}, "certificate": {"spark_M": 3, "spark_N": 1, '
        '"annihilation_residual": 0.0, "annihilation_ok": true, "r_side_info": 2, '
        '"r_blind": 0}, "strategies": {"side-info": {"signals": 200, "completed": 200, '
        '"skipped": 0, "exact": 200, "exact_fraction": 1.0, '
        '"max_error": 1.7763568394002505e-15, "mean_error": 3.392781976886059e-16}, '
        '"blind": {"signals": 200, "completed": 0, "skipped": 200, "exact": 0, '
        '"exact_fraction": 0.0, "max_error": null, "mean_error": null, '
        '"skipped_all": true}, "consistency": {"signals": 200, "completed": 200, '
        '"skipped": 0, "exact": 0, "exact_fraction": 0.0, "max_error": 4.966960156822449, '
        '"mean_error": 0.9739168377480554}}}\n'),
    3: (
        '{"command": "simulate", "config": {"system": "fix-d.json", "dual": null, "r": 3, '
        '"signals": 200, "seed": 7, "strategies": ["side-info", "blind", "consistency"], '
        '"rk_matrix": null}, "certificate": {"spark_M": 3, "spark_N": 1, '
        '"annihilation_residual": 0.0, "annihilation_ok": true, "r_side_info": 2, '
        '"r_blind": 0}, "strategies": {"side-info": {"signals": 200, "completed": 147, '
        '"skipped": 53, "exact": 147, "exact_fraction": 0.735, '
        '"max_error": 1.3567800076261183e-15, "mean_error": 3.2216377239391537e-16}, '
        '"blind": {"signals": 200, "completed": 0, "skipped": 200, "exact": 0, '
        '"exact_fraction": 0.0, "max_error": null, "mean_error": null, '
        '"skipped_all": true}, "consistency": {"signals": 200, "completed": 200, '
        '"skipped": 0, "exact": 0, "exact_fraction": 0.0, "max_error": 4.500568724889326, '
        '"mean_error": 1.5478905385899404}}}\n'),
}


@pytest.mark.parametrize("r", sorted(_PINNED_ALL_STRATEGIES))
def test_simulate_report_bytes_are_pinned_for_every_strategy(capsys, tmp_path, monkeypatch, r):
    """FIX-D at r = 2 and 3 with all three strategies, byte for byte: r = 3
    skips side-info draws and blind skips every draw (M - Gram = 0)."""
    code, out, _ = _simulate_fix_d(capsys, tmp_path, monkeypatch, "--r", str(r))
    assert (code, out) == (0, _PINNED_ALL_STRATEGIES[r])


def _reference_draws(rng, count, n, m, r):
    signals, draws = np.empty((count, n)), np.empty((count, r), dtype=np.intp)
    for i in range(count):
        signals[i] = rng.standard_normal(n)
        draws[i] = rng.choice(m, size=r, replace=False)
    return signals, draws


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**128), count=st.integers(0, 5), data=st.data())
def test_simulate_draws_are_the_reference_calls(seed, count, data):
    """simulate's draw loop gives the signals and erased slots of one
    rng.standard_normal(n) and one rng.choice(m, size=r, replace=False) per
    signal, and leaves the rng where that loop leaves it."""
    n = data.draw(st.integers(1, 8), label="n")
    m = data.draw(st.integers(n + 1, 16), label="m")
    r = data.draw(st.integers(0, m - 1), label="r")
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    signals, draws = kframes.cli._draw(rng, count, n, m, r)
    want_signals, want_draws = _reference_draws(reference, count, n, m, r)
    assert np.array_equal(signals, want_signals) and np.array_equal(draws, want_draws)
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("report, named", [
    ({"command": "x", "G": {"rows": 2, "cols": 2, "data": [[1.0, 2.0], [-math.inf, 0.0]]}},
     "G.data[2][1] is -inf"),
    ({"command": "x", "ok": [1.0], "M": np.array([[0.5, 1.0], [2.0, np.nan]])},
     "M[2][2] is nan"),
])
def test_non_finite_matrix_entry_is_named(report, named):
    """The first non-finite entry is named by its keys and 1-based positions."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(ValueError) as exc:
        kframes.cli._emit(report, False)
    assert (out.getvalue(), str(exc.value)) == ("", named)


def _required(command: str, absent: Path) -> list[str]:
    """The flags command requires, every file among them the absent path."""
    files = {"spark": ["--matrix"], "check-dual": ["--system", "--dual"],
             "canonical-dual": ["--system"], "analyze": ["--system"], "mrc": ["--system"],
             "recover": ["--system", "--dual", "--coded"], "find-rk": ["--system", "--dual"],
             "simulate": ["--system"]}
    if command == "fixtures":
        return ["--name", "FIX-A"]
    r = ["--r", "1"] if command in ("mrc", "find-rk", "simulate") else []
    return [x for flag in files[command] for x in (flag, str(absent))] + r


@pytest.mark.parametrize("command, flag", [
    ("fixtures", "--tol-rank"), ("fixtures", "--tol-res"), ("fixtures", "--cap-subsets"),
    ("spark", "--tol-res"), ("check-dual", "--cap-subsets"), ("canonical-dual", "--cap-subsets"),
    ("recover", "--cap-subsets"),
])
def test_options_a_command_never_reads_are_usage_errors(capsys, tmp_path, command, flag):
    value = "5" if flag == "--cap-subsets" else "1e-6"
    code, out, err = run(capsys, command, *_required(command, tmp_path / "absent.json"),
                         flag, value)
    assert (code, out) == (64, "")
    assert f"kframes {command}: error: unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize("value", ["0", "0.5", "nan"])
@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command in ("spark", "check-dual", "canonical-dual", "analyze", "mrc", "recover",
                    "find-rk", "simulate")
    for flag in ("--tol-rank", "--tol-res") if (command, flag) != ("spark", "--tol-res")
])
def test_tolerance_outside_the_policy_is_refused_before_any_file_is_read(
        capsys, tmp_path, command, flag, value):
    """Each file is absent, which would exit 2 once read: the flag exits 64 first."""
    code, out, err = run(capsys, command, *_required(command, tmp_path / "absent.json"),
                         flag, value)
    assert (code, out) == (64, "")
    field = "rank_cutoff_rel" if flag == "--tol-rank" else "residual_rel"
    assert f"argument {flag}: {field} must lie in (0, 1e-2), got {float(value)!r}" in err


@pytest.mark.parametrize("argv, shown", [
    (["recover", "--strategy", "consistency", "--rk-matrix", "bad"],
     "--rk-matrix is read only by --strategy side-info or blind"),
    (["recover", "--rk-matrix", "bad"],
     "--rk-matrix is read only by --strategy side-info or blind"),
    (["recover", "--strategy", "consistency", "--side-info", "absent"],
     "--side-info is read only by --strategy side-info"),
    (["recover", "--strategy", "blind", "--side-info", "bad"],
     "--side-info is read only by --strategy side-info"),
    (["recover", "--strategy", "side-info"], "side-info strategy requires --side-info"),
    (["simulate", "--strategies", "consistency", "--rk-matrix", "bad"],
     "--rk-matrix is read only when --strategies holds side-info or blind"),
], ids=["recover-consistency-rk", "recover-default-rk", "recover-consistency-side",
        "recover-blind-side", "recover-side-info-without-side", "simulate-consistency-rk"])
def test_strategy_flags_no_strategy_reads_are_usage_errors(capsys, tmp_path, argv, shown):
    """A malformed or absent file behind a flag that the strategy never reads is
    refused as usage (64), not as a bad file (2), before any file is read: the
    system, dual and coded files are absent too."""
    (tmp_path / "bad").write_text("{")
    argv = [str(tmp_path / x) if x in ("bad", "absent") else x for x in argv]
    code, out, err = run(capsys, *argv, *_required(argv[0], tmp_path / "absent.json"))
    assert (code, out) == (64, "")
    assert f"kframes {argv[0]}: error: {shown}\n" in err


def test_mrc_sigma_keeps_the_cap_that_mrc_r_reads(capsys, system_d):
    report = run_json(capsys, "mrc", "--system", system_d[0], "--sigma", "1",
                      "--cap-subsets", "1")
    assert report["sigma"] == [1]


def test_blind_recovery_with_a_find_rk_matrix_is_exact_within_r_blind(capsys, tmp_path):
    f, k = random_kframe(np.random.default_rng(0), 3, 6, 3)
    dual = (np.linalg.pinv(f) @ k).T
    found = _report(tmp_path, "rk", ["find-rk", "--r", "1"], system={"F": f, "K": k},
                    dual={"G": dual})
    r_blind = found["r_blind"]
    assert r_blind == 3
    (tmp_path / "m.json").write_text(json.dumps(found["M"]))
    signal = np.random.default_rng(1).standard_normal(3)
    c = dual.T @ signal
    (tmp_path / "coded.json").write_text(json.dumps(
        {"coefficients": [None] * r_blind + c[r_blind:].tolist(),
         "erased": list(range(1, r_blind + 1))}))
    report = run_json(capsys, "recover", "--strategy", "blind", "--system",
                      str(tmp_path / "rk-system.json"), "--dual", str(tmp_path / "rk-dual.json"),
                      "--coded", str(tmp_path / "coded.json"),
                      "--rk-matrix", str(tmp_path / "m.json"))
    assert report["certified_exact"] is True
    np.testing.assert_allclose(report["reconstructed"], k @ signal, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(report["coefficients"], c, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("coded, shown", [
    ([None, 1.0, 2.0, 0.5], "expected an object with 'coefficients'"),
    ({"erased": [1]}, "expected an object with 'coefficients'"),
    ({"coefficients": [1.0, 2.0, 0.5]}, "expected 4 coefficients, got 3"),
    ({"coefficients": {"1": 1.0}}, "expected 4 coefficients, got dict"),
], ids=["list", "no-coefficients", "short", "not-a-list"])
def test_coded_file_without_m_coefficients_exits_two(capsys, system_d, tmp_path, coded, shown):
    path = tmp_path / "coded.json"
    path.write_text(json.dumps(coded))
    code, out, err = run(capsys, "recover", "--system", system_d[0], "--dual", system_d[1],
                         "--coded", str(path))
    assert (code, out) == (2, "")
    assert err == f"kframes recover: {path}: {shown}\n"


@pytest.mark.parametrize("bad, shown, argvs", [
    ({"G": {"rows": 4, "cols": 3, "data": [[1.0, 2.0, 3.0]] * 4}},
     "expected shape (4, 4), got (4, 3)",
     [["check-dual", "--dual", "BAD"],
      ["recover", "--dual", "BAD", "--coded", "CODED", "--strategy", "consistency"]]),
    ([1.0], "expected shape (4,), got (1,)",
     [["recover", "--dual", "DUAL", "--coded", "CODED", "--strategy", "side-info",
       "--side-info", "BAD"]]),
    ({"rows": 2, "cols": 2, "data": [[1.0, 2.0], [3.0, 4.0]]},
     "expected shape (4, 4), got (2, 2)",
     [["recover", "--dual", "DUAL", "--coded", "CODED", "--strategy", "blind",
       "--rk-matrix", "BAD"],
      ["simulate", "--r", "1", "--rk-matrix", "BAD"]]),
], ids=["dual", "side-info", "rk-matrix"])
def test_mis_sized_file_exits_two_naming_it(capsys, system_d, tmp_path, bad, shown, argvs):
    """A dual, side vector or recovery matrix whose shape disagrees with the
    system is an input error, exit 2, named by its file as a mis-sized coded
    signal is, and checked before any library call."""
    paths = {"BAD": tmp_path / "bad.json", "CODED": tmp_path / "coded.json",
             "DUAL": system_d[1]}
    paths["CODED"].write_text(json.dumps({"coefficients": [None, 1.0, 2.0, 0.5],
                                          "erased": [1]}))
    paths["BAD"].write_text(json.dumps(bad))
    for name, *flags in argvs:
        code, out, err = run(capsys, name, "--system", system_d[0],
                             *(str(paths.get(flag, flag)) for flag in flags))
        assert (code, out, err) == (2, "", f"kframes {name}: {paths['BAD']}: {shown}\n")


@pytest.mark.parametrize("f_shape, k_shape, shown", [
    ((4, 4), (4, 5), "K must be square, got (4, 5)"),
    ((4, 6), (5, 5), "F has 4 rows but K acts on dimension 5"),
], ids=["k-not-square", "k-other-dimension"])
@pytest.mark.parametrize("argv", [
    ["check-dual", "--dual", "DUAL"],
    ["canonical-dual"],
    ["canonical-dual", "--method", "restricted"],
    ["analyze"],
    ["mrc", "--r", "1"],
    ["mrc", "--sigma", "1"],
    ["recover", "--dual", "DUAL", "--coded", "CODED", "--strategy", "consistency"],
    ["find-rk", "--dual", "DUAL", "--r", "1"],
    ["simulate", "--r", "1", "--signals", "10"],
], ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
def test_mis_shaped_system_file_exits_two_naming_it(capsys, system_d, tmp_path, f_shape, k_shape,
                                                    shown, argv):
    """A system file whose K is not square, or whose F's rows differ from K's
    dimension, is an input error of that file for every command that reads
    --system: exit 2, the file named, nothing printed."""
    path = tmp_path / "bad-system.json"
    path.write_text(json.dumps({"F": matrix_to_obj(np.ones(f_shape)),
                                "K": matrix_to_obj(np.eye(*k_shape))}))
    coded = tmp_path / "coded.json"
    coded.write_text(json.dumps({"coefficients": [None, 1.0, 2.0, 0.5], "erased": [1]}))
    files = {"DUAL": system_d[1], "CODED": str(coded)}
    name, *flags = argv
    code, out, err = run(capsys, name, "--system", str(path), *(files.get(a, a) for a in flags))
    assert (code, out, err) == (2, "", f"kframes {name}: {path}: {shown}\n")


def test_side_info_off_side_vector_is_refused_at_small_scale(capsys, tmp_path):
    """FIX-D at 1e-5 with a side vector off by half its largest entry: the
    recovery is 24% off, and certified_exact is false, as at scale 1. An
    absolute term in the residual test once accepted it."""
    fix = FIXTURES["FIX-D"]
    signal = np.arange(1.0, 5.0)
    coded = tmp_path / "coded.json"
    coded.write_text(json.dumps({"coefficients": [None, *(fix.dual.T @ signal)[1:].tolist()],
                                 "erased": [1]}))
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"G": matrix_to_obj(fix.dual)}))
    for c in (1.0, 1e-5, 1e-100):
        f, k = c * fix.F, c * fix.K
        side = f.T @ (k @ signal)
        side[np.argmax(np.abs(side))] += 0.5 * np.abs(side).max()
        (tmp_path / "side.json").write_text(json.dumps(side.tolist()))
        (tmp_path / "sys.json").write_text(json.dumps({"F": matrix_to_obj(f),
                                                       "K": matrix_to_obj(k)}))
        report = run_json(capsys, "recover", "--system", str(tmp_path / "sys.json"),
                          "--dual", str(dual), "--coded", str(coded), "--strategy", "side-info",
                          "--side-info", str(tmp_path / "side.json"))
        error = np.linalg.norm(np.array(report["reconstructed"]) - k @ signal)
        assert error > 0.2 * np.linalg.norm(k @ signal)
        assert report["certified_exact"] is False


@pytest.mark.parametrize("scale", [1e-300, 3e-308, 1e-310])
def test_analyze_reads_a_subnormal_operator_at_its_rank(capsys, tmp_path, scale):
    """F = [[s, s]], K = [[s]]: no floor reads K, or a column of F, as zero, so
    operator_rank is 1 and the spark is 2 at every s where the report exists."""
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"F": matrix_to_obj(np.array([[scale, scale]])),
                                "K": matrix_to_obj(np.array([[scale]]))}))
    report = run_json(capsys, "analyze", "--system", str(path))
    assert (report["operator_rank"], report["spark"]["spark"]) == (1, 2)
    assert report["uniform_excess"] == {"value": 1, "witness": None}
    (tmp_path / "f.json").write_text(json.dumps(matrix_to_obj(np.array([[scale, scale]]))))
    assert run_json(capsys, "spark", "--matrix", str(tmp_path / "f.json"))["spark"] == 2


@pytest.mark.parametrize("r", ["4", "9"])
def test_simulate_refuses_r_of_m_or_more(capsys, system_d, r):
    code, out, err = run(capsys, "simulate", "--system", system_d[0], "--r", r)
    assert (code, out) == (1, "")
    assert err == "kframes simulate: r must satisfy 0 <= r < m = 4\n"


# np.linalg.svd calls per command, each stacked SVD counted once: the restricted
# dual ranks F once, without factors, factors S d once without ranking it and
# reads R(K)^perp from the system, mrc --sigma tests the whole frame only for a
# Parseval system, and side-info against the Gramian takes no SVD for its
# annihilation check, N = M - Gram being exactly zero.
SVD_CALLS = {
    ("FIX-D", "restricted"): 8, ("FIX-D", "mrc"): 7, ("FIX-D", "side-info"): 6,
    ("gen6x12", "restricted"): 7, ("gen6x12", "mrc"): 5, ("gen6x12", "side-info"): 5,
}


@pytest.mark.parametrize("name, command", sorted(SVD_CALLS))
def test_small_commands_factor_each_operand_once(capsys, tmp_path, name, command):
    """A later change that factors an operand again moves one of these counts."""
    if name == "FIX-D":
        f, k, g = FIXTURES["FIX-D"].F, FIXTURES["FIX-D"].K, FIXTURES["FIX-D"].dual
    else:
        f, k = random_kframe(np.random.default_rng(7), 6, 12, 4)
        g = (np.linalg.pinv(f) @ k).T
    system, dual = tmp_path / "sys.json", tmp_path / "dual.json"
    system.write_text(json.dumps({"F": matrix_to_obj(f), "K": matrix_to_obj(k)}))
    dual.write_text(json.dumps({"G": matrix_to_obj(g)}))
    signal = np.arange(1.0, f.shape[0] + 1)
    c = g.T @ signal
    coded, side = tmp_path / "coded.json", tmp_path / "side.json"
    coded.write_text(json.dumps({"coefficients": [None, *c[1:]], "erased": [1]}))
    side.write_text(json.dumps((f.T @ (k @ signal)).tolist()))
    argv = {
        "restricted": ["canonical-dual", "--system", str(system), "--method", "restricted"],
        "mrc": ["mrc", "--system", str(system), "--sigma", "1,3"],
        "side-info": ["recover", "--system", str(system), "--dual", str(dual), "--coded",
                      str(coded), "--strategy", "side-info", "--side-info", str(side)],
    }[command]
    with counting_svds() as svd:
        code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert svd.call_count == SVD_CALLS[name, command]
