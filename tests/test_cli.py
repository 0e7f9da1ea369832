import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kframes.cli
from kframes.cli import run_command
from kframes.fixtures import FIXTURES

from conftest import random_kframe, random_parseval_kframe


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
        sys_path, dual_path = system_d
        coded = tmp_path / "c.json"
        coded.write_text(json.dumps({
            "coefficients": [1.0, 2.0, 0.0, 1.0], "erased": [1],
        }))
        code, _, err = run(
            capsys, "recover", "--system", sys_path, "--dual", dual_path,
            "--coded", str(coded), "--strategy", "side-info",
        )
        assert code == 1
        assert "side-info" in err


    @pytest.mark.parametrize("value", [float("nan"), -float("inf")])
    def test_non_finite_report_exits_one_and_prints_nothing(
            self, capsys, monkeypatch, value):
        report = {"command": "fake", "value": [1.0, value]}
        monkeypatch.setitem(kframes.cli._COMMANDS, "fake",
                            lambda argv: {"report": report, "pretty": False})
        code, out, err = run(capsys, "fake")
        assert (code, out) == (1, "")
        assert "kframes fake: report is not valid JSON" in err


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
        code, _, _ = run(capsys, "fixtures", "--name", "FIX-Z")
        assert code == 1


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

    def test_cap_subsets_below_count_refused(self, capsys, tmp_path):
        # Rank 0 over 30 columns: the scan stops at size 1, 30 subset tests.
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({"rows": 2, "cols": 30, "data": [[0.0] * 30] * 2}))
        code, out, err = run(capsys, "spark", "--matrix", str(path),
                             "--cap-subsets", "29")
        assert code == 1 and out == ""
        assert "needs 30 subset tests" in err and "--cap-subsets" in err
        report = run_json(capsys, "spark", "--matrix", str(path), "--cap-subsets", "30")
        assert report["spark"] == 1


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


class TestFindRkCommand:
    def test_fixture_d_target_two(self, capsys, system_d):
        sys_path, dual_path = system_d
        report = run_json(
            capsys, "find-rk", "--system", sys_path, "--dual", dual_path,
            "--r", "2", "--trials", "64", "--seed", "3",
        )
        assert report["annihilation_ok"] is True
        assert report["r_side_info"] >= 2

    def test_search_failure_exits_one(self, capsys, system_d):
        sys_path, dual_path = system_d
        code, _, err = run(
            capsys, "find-rk", "--system", sys_path, "--dual", dual_path,
            "--r", "2", "--trials", "0",
        )
        assert code == 1
        assert "trials" in err


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
        assert code == 1
        assert "residual_rel" in err

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
