"""Scale-free verdicts: every verdict bit of the CLI is unchanged when F and K
are scaled by 2^k, wherever that scaling keeps every operand exact.

Both numerical rules are purely relative (rank_cutoff against sigma_1, accepts
against the size of the terms a residual sums), so scaling F and K by 2^k, the
Gramian, a recovery matrix M and the side vector F^T K f by 2^(2k), and leaving
the dual G and the coefficients G^T f as they are, must leave every verdict as
it is at scale 1. A command whose scaled run leaves the float64 range may exit 1
with that message instead; it is counted, not compared.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from kframes.cli import run_command

from conftest import random_kframe

# The scale-1 run is repeated with both tolerances this many times larger and
# smaller; a verdict that moves lies within this factor of a cutoff or threshold.
MARGIN = 100.0


def _matrix(a):
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.tolist()}


def _outcome(argv):
    """(exit code, verdict bits of the report or None) of one command, and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return (code, _verdicts(json.loads(out.getvalue())) if code == 0 else None), err.getvalue()


def _verdicts(report):
    """The verdict bits of a report, by command."""
    name = report["command"]
    if name == "recover":
        return report["certified_exact"]
    if name == "check-dual":
        return report["is_valid"]
    if name == "spark":
        return report["spark"]
    if name == "analyze":
        cls = report["classification"]
        return (report["operator_rank"], report["spark"]["spark"], report["uniform_excess"],
                report["mrc"], report["maximal_robust"], cls["tight_alpha"] is not None,
                cls["parseval"], cls["equal_norm"])
    if name == "mrc":
        return (report["is_mrc"], report["necessary_condition_i"],
                report["parseval_condition_ii"])
    cert = report["certificate"] and {key: value for key, value in report["certificate"].items()
                                      if key != "annihilation_residual"}
    return cert, {s: (e["completed"], e["skipped"], e["exact"])
                  for s, e in report["strategies"].items()}


def _exact(x, k):
    """Whether x scaled by 2^k, and back, keeps every entry."""
    with np.errstate(over="ignore", under="ignore"):
        return bool(np.array_equal(np.ldexp(np.ldexp(x, k), -k), x))


def _write(workdir, k, f, k_mat, side, m_mat):
    """The scale-2^k input files that depend on k: F alone, the system, the
    side vector and M. An operand that is not exact at 2^k is written but not read."""
    with np.errstate(over="ignore", under="ignore"):
        scaled = {"F": _matrix(np.ldexp(f, k)),
                  "system": {"F": _matrix(np.ldexp(f, k)), "K": _matrix(np.ldexp(k_mat, k))},
                  "side": np.ldexp(side, 2 * k).tolist(), "rk": _matrix(np.ldexp(m_mat, 2 * k))}
    paths = {}
    for name, obj in scaled.items():
        paths[name] = str(workdir / f"{name}-{k}.json")
        (workdir / f"{name}-{k}.json").write_text(json.dumps(obj))
    return paths


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    extra=st.integers(1, 3),
    rank_k=st.integers(0, 3),
    zero=st.booleans(),
    off_side=st.booleans(),
    dual_offset=st.sampled_from([0.0, 1e-4, 1.0]),
    size=st.integers(0, 2),
    k=st.integers(-1070, 1020),
)
@example(seed=0, n=3, extra=3, rank_k=2, zero=True, off_side=True, dual_offset=0.0, size=1,
         k=-17)
@example(seed=1, n=2, extra=2, rank_k=2, zero=False, off_side=False, dual_offset=0.0, size=2,
         k=-1020)
@example(seed=2, n=2, extra=3, rank_k=1, zero=False, off_side=True, dual_offset=0.0, size=1,
         k=505)
def test_every_verdict_is_scale_free(tmp_path_factory, seed, n, extra, rank_k, zero, off_side,
                                     dual_offset, size, k):
    """recover's certified_exact for each strategy (side-info against the Gramian
    and against M), check-dual's is_valid, analyze's ranks, sparks, scans and
    classification flags, spark, mrc --sigma and simulate's certificate and
    counts, at scale 1 and at 2^k. The system may have a zero column, the side
    vector may be off by half its largest entry, and the dual may be off K-duality."""
    rng = np.random.default_rng(seed)
    m = n + extra
    f, k_mat = random_kframe(rng, n, m, min(rank_k, n))
    if zero and m - 1 > rank_k:
        f[:, m - 1] = 0.0
    g = (np.linalg.pinv(f) @ k_mat).T
    q = np.eye(m) - g.T @ np.linalg.pinv(g.T)
    m_mat = f.T @ f + rng.standard_normal((m, m)) @ q
    g = g + dual_offset * rng.standard_normal(g.shape)
    signal = rng.standard_normal(n)
    side = f.T @ (k_mat @ signal)
    if off_side:
        j = int(np.argmax(np.abs(side)))
        side[j] += 0.5 * np.abs(side[j])
    lam = sorted(rng.choice(m, size=min(size, m - 1), replace=False).tolist())
    coeffs = g.T @ signal

    workdir = tmp_path_factory.mktemp("scale")
    (workdir / "dual.json").write_text(json.dumps({"G": _matrix(g)}))
    (workdir / "coded.json").write_text(json.dumps(
        {"coefficients": [None if i in lam else float(coeffs[i]) for i in range(m)],
         "erased": [i + 1 for i in lam]}))
    dual, coded = str(workdir / "dual.json"), str(workdir / "coded.json")
    sigma = ",".join(str(i + 1) for i in lam) or "1"

    def commands(p):
        """(argv, scaled operands read, takes --tol-res) of every command at paths p."""
        system = ["--system", p["system"]]
        recover = ["recover", *system, "--dual", dual, "--coded", coded, "--strategy"]
        simulate = ["simulate", *system, "--dual", dual, "--r", str(len(lam)),
                    "--signals", "12", "--seed", str(seed % 1000)]
        return [
            (["spark", "--matrix", p["F"]], "F", False),
            (["check-dual", *system, "--dual", dual], "FK", True),
            (["analyze", *system, "--r", "1"], "FK", True),
            (["mrc", *system, "--sigma", sigma], "FK", True),
            ([*recover, "consistency"], "FK", True),
            ([*recover, "side-info", "--side-info", p["side"]], "FKv", True),
            ([*recover, "side-info", "--side-info", p["side"], "--rk-matrix", p["rk"]],
             "FKvM", True),
            ([*recover, "blind", "--rk-matrix", p["rk"]], "FKM", True),
            ([*simulate, "--strategies", "consistency"], "FK", True),
            ([*simulate, "--rk-matrix", p["rk"]], "FKM", True),
        ]

    exact = {"F": _exact(f, k), "K": _exact(k_mat, k), "v": _exact(side, 2 * k),
             "M": _exact(m_mat, 2 * k)}
    base = commands(_write(workdir, 0, f, k_mat, side, m_mat))
    scaled = commands(_write(workdir, k, f, k_mat, side, m_mat))
    compared = 0
    for (argv, needs, res), (scaled_argv, _, _) in zip(base, scaled):
        if not all(exact[x] for x in needs):
            event(f"{argv[0]}: an operand is not exact at 2^k")
            continue
        outcome, err = _outcome(argv)
        for factor in (MARGIN, 1.0 / MARGIN):
            tols = ["--tol-rank", repr(1e-10 * factor)]
            tols += ["--tol-res", repr(1e-9 * factor)] if res else []
            if _outcome([*argv, *tols])[0] != outcome:
                event("skipped: a verdict within 1e2 of a cutoff or threshold")
                assume(False)
        got, got_err = _outcome(scaled_argv)
        if outcome[0] == 0 and got[0] == 1 and "leave the float64 range" in got_err:
            event(f"{argv[0]}: refused at 2^k, past float64")
            continue
        assert got == outcome, (argv, k, got_err, err)
        compared += outcome[0] == 0
    event(f"verdicts compared: {compared}")
