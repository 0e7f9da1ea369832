"""Run one fixed CLI corpus on two checkouts and list every command that differs.

    python bench/cli_compare.py BEFORE_ROOT OUT.json

BEFORE_ROOT is the root of another checkout, for example the parent commit
unpacked with `git archive`. The corpus is built once from fixed seeds with
numpy alone: FIX-A..D (each also at scales 1e-150 and 1e150), the 2x3
frame whose third vector repeats its first, generated K-frames with no
damage, a repeated column, a zero column or both, and a generated K-frame
whose F spans R^n only through a column scaled to 10 times its rank cutoff,
with its twin at a tenth of the cutoff, which reads rank deficient; each
with its pseudo-inverse dual and a recovery matrix Gram + A Q (Q the
projector onto Ker G). It runs every command: fixtures (also with a
lower-case and an unknown name), spark, check-dual, canonical-dual,
analyze, mrc (on the near-cutoff pair with every --sigma), find-rk,
recover with each strategy on many erasure sets, and simulate. Every
system with rank K < n also runs find-rk at each r up to m - 1 against a
dual perturbed off the pseudo-inverse one along Ker F, where the top
levels are often out of reach. FIX-D then runs find-rk with --trials and
--seed and a few commands with --json, flags the CLI once had. A 5x5
system with F of condition number about 6e4 and K invertible, whose frame
operator squares that past the rank cutoff, runs canonical-dual with each
method. The 2x2 system F = 1e308 ones(2, 2), K = 0 with G = I runs
check-dual, spark and analyze: its residual and F's largest singular value
lie past float64. mrc runs with every kind of --sigma spelling (signs,
leading zeros, empty items, non-integers, positions out of range or
repeated), on FIX-D's system and on a missing one. Malformed inputs on
FIX-D follow: invalid JSON, a JSON or CSV file that is not UTF-8, missing
keys, ragged rows, bool, string, null, 1e999 and 10**400 entries in every
file kind, bad erased positions, CSV matrices good and bad (a
non-numeric, blank, nan, inf or 1e999 cell), and a missing file, each
given by a plain, a ./-prefixed and a doubled-slash path, since messages
print the path. Each checkout runs the whole corpus in its own Python
process, which imports that checkout's src/, with BLAS on one thread; each
command runs in-process through kframes.cli.run_command.

OUT.json lists every command whose stdout, stderr or exit code differs, with
the changed fields of recover and simulate reports (JSON paths, array
entries folded into their array) and the before and after values of each
changed scalar field; counts per command name stand beside them. The script
writes only under a temporary directory and OUT.json.
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIGNALS = 100
# Generated systems: (n, m, rank K), each under every damage and seed.
SHAPES = ((2, 3, 1), (2, 4, 2), (3, 5, 1), (3, 6, 2), (3, 6, 3), (4, 7, 2), (4, 8, 4), (5, 9, 3))
DAMAGES = ("none", "duplicate", "zero", "both")
SEEDS = (0, 1)
# The 2x3 frame whose third vector repeats its first, K invertible.
REPEATED_2X3 = (
    [[-0.764254750996589, 0.17916326278032324, -0.764254750996589],
     [0.9903619228169993, 0.4417427045007605, 0.9903619228169993]],
    [[0.8887091635618033, -1.551005604072312], [0.5614535433138648, 2.0195652264454305]],
)


def _matrix(a) -> dict:
    a = np.asarray(a, dtype=float)
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.tolist()}


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return path.name


def _pinv_dual(f, k):
    return (np.linalg.pinv(f, rcond=1e-10 * max(f.shape)) @ k).T


def _generated(n, m, rank_k, damage, seed):
    """A K-frame: the first rank K columns span R(K), the others are free."""
    rng = np.random.default_rng([n, m, rank_k, seed])
    k = rng.standard_normal((n, rank_k)) @ rng.standard_normal((rank_k, n))
    f = np.hstack([k @ rng.standard_normal((n, rank_k)), rng.standard_normal((n, m - rank_k))])
    if damage in ("duplicate", "both"):
        f[:, m - 1] = f[:, m - 2]
    if damage in ("zero", "both") and m - 1 > rank_k:
        f[:, rank_k] = 0.0
    return f, k


def _near_cutoff(n, m, rank_k, power, seed):
    """A K-frame whose first m - 1 columns and R(K) lie in one hyperplane; the
    last column, normal to it, is 10^power times the rank cutoff of F."""
    rng = np.random.default_rng([n, m, rank_k, seed, 7])
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    plane = basis[:, : n - 1]
    k = plane @ rng.standard_normal((n - 1, rank_k)) @ rng.standard_normal((rank_k, n))
    f = plane @ rng.standard_normal((n - 1, m - 1))
    faint = 1e-10 * max(n, m) * np.linalg.norm(f, 2) * 10.0**power
    return np.hstack([f, faint * basis[:, n - 1:]]), k


def _systems():
    """(name, F, K, G, has recovery matrix) of every corpus system."""
    sys.path.insert(0, str(ROOT / "src"))
    from kframes.fixtures import FIXTURES

    out = []
    for name, fix in sorted(FIXTURES.items()):
        dual = _pinv_dual(fix.F, fix.K) if fix.dual is None else fix.dual
        out.append((name, fix.F, fix.K, dual, True))
        for scale in (1e-150, 1e150):
            out.append((f"{name}@{scale:g}", scale * fix.F, scale * fix.K, dual, False))
    f, k = (np.array(a) for a in REPEATED_2X3)
    out.append(("repeated-2x3", f, k, _pinv_dual(f, k), True))
    for (n, m, rank_k), damage, seed in itertools.product(SHAPES, DAMAGES, SEEDS):
        f, k = _generated(n, m, rank_k, damage, seed)
        out.append((f"gen{n}x{m}k{rank_k}-{damage}-{seed}", f, k, _pinv_dual(f, k), True))
    for power, seed in itertools.product((1, -1), SEEDS):
        f, k = _near_cutoff(4, 7, 2, power, seed)
        out.append((f"near4x7k2{power:+d}-{seed}", f, k, _pinv_dual(f, k), True))
    return out


def build_corpus(work: Path) -> list[list[str]]:
    """Write every input file under work and return the commands, in order."""
    commands = [["fixtures", "--name", f"FIX-{x}", *extra]
                for x in "ABCD" for extra in ([], ["--with-dual"])]
    commands += [["fixtures", "--name", name] for name in ("fix-a", "FIX-Z")]
    for index, (name, f, k, g, with_rk) in enumerate(_systems()):
        rng = np.random.default_rng(index)
        n, m = f.shape
        system = _write(work / f"{name}.json", {"F": _matrix(f), "K": _matrix(k)})
        dual = _write(work / f"{name}-dual.json", {"G": _matrix(g)})
        gram = f.T @ f
        q = np.eye(m) - g.T @ np.linalg.pinv(g.T, rcond=1e-10 * max(g.shape))
        m_mat = gram + (np.linalg.norm(gram, 2) or 1.0) * rng.standard_normal((m, m)) @ q
        rk = _write(work / f"{name}-rk.json", _matrix(m_mat)) if with_rk else None
        base = ["--system", system]
        commands += [
            ["spark", "--matrix", _write(work / f"{name}-F.json", _matrix(f))],
            ["check-dual", *base, "--dual", dual],
            ["canonical-dual", *base, "--method", "douglas"],
            ["canonical-dual", *base, "--method", "restricted"],
            ["analyze", *base, "--r", "1"],
            ["mrc", *base, "--r", "1"],
            ["mrc", *base, "--sigma", str(int(rng.integers(1, m + 1)))],
        ]
        if name.startswith("near"):
            commands += [["mrc", *base, "--sigma", str(j)] for j in range(1, m + 1)]
        if with_rk:
            commands += [["spark", "--matrix", rk],
                         *(["find-rk", *base, "--dual", dual, "--r", str(r)] for r in (1, 2))]
        if with_rk and np.linalg.matrix_rank(k) < n:
            # The pseudo-inverse dual plus a perturbation along Ker F: with rank K < n
            # no recovery matrix reaches the top levels, which find-rk refuses.
            _, sv, vt = np.linalg.svd(f)
            kernel = vt[np.count_nonzero(sv > 1e-10 * m * sv[0]):].T
            perturbed = g + np.random.default_rng([index, 1]).standard_normal(
                (n, kernel.shape[1])) @ kernel.T
            other = _write(work / f"{name}-perturbed-dual.json", {"G": _matrix(perturbed)})
            commands += [["find-rk", *base, "--dual", other, "--r", str(r)] for r in range(1, m)]
        for r in (1, 2):
            if r < m:
                sim = ["simulate", *base, "--r", str(r), "--signals", str(SIGNALS),
                       "--seed", str(index)]
                matrix = ["--rk-matrix", rk] if rk else ["--strategies", "side-info,consistency"]
                commands.append(sim + ["--dual", dual] + matrix)
                commands.append(sim + ["--strategies", "consistency"])
        sets = [lam for r in (0, 1, 2) for lam in itertools.combinations(range(m), r) if r < m]
        for j, lam in enumerate(sets):
            signal = rng.standard_normal(n)
            c = g.T @ signal
            coded = _write(work / f"{name}-c{j}.json",
                           {"coefficients": [None if i in lam else float(c[i]) for i in range(m)],
                            "erased": [i + 1 for i in lam]})
            side = _write(work / f"{name}-v{j}.json", (f.T @ (k @ signal)).tolist())
            recover = ["recover", *base, "--dual", dual, "--coded", coded, "--strategy"]
            commands.append(recover + ["side-info", "--side-info", side])
            if rk:
                commands.append(recover + ["blind", "--rk-matrix", rk])
            commands.append(recover + ["consistency"])
    fixd = ["--system", "FIX-D.json", "--dual", "FIX-D-dual.json"]
    for flags in (["--trials", "64"], ["--seed", "3"], ["--trials", "64", "--seed", "3"],
                  ["--json"], ["--pretty", "--json"]):
        commands.append(["find-rk", *fixd, "--r", "2", *flags])
    commands += [["spark", "--matrix", "FIX-D-F.json", "--json"],
                 ["analyze", "--system", "FIX-D.json", "--json"],
                 ["simulate", *fixd, "--r", "1", "--signals", "10", "--json"]]
    # F invertible with condition number about 6e4, K invertible: S = F F^T squares
    # it past the rank cutoff, where a ranked restriction reads singular.
    rng = np.random.default_rng(1029874448)
    a = rng.standard_normal((5, 5))
    f, k = a @ rng.standard_normal((5, 5)), a @ rng.standard_normal((5, 5))
    system = _write(work / "ill-5x5.json", {"F": _matrix(f), "K": _matrix(k)})
    commands += [["canonical-dual", "--system", system, "--method", method]
                 for method in ("douglas", "restricted")]
    big = np.full((2, 2), 1e308)
    system = _write(work / "overflow.json", {"F": _matrix(big), "K": _matrix(np.zeros((2, 2)))})
    commands += [["check-dual", "--system", system, "--dual",
                  _write(work / "overflow-dual.json", {"G": _matrix(np.eye(2))})],
                 ["spark", "--matrix", _write(work / "overflow-F.json", _matrix(big))],
                 ["analyze", "--system", system]]
    # Every kind of --sigma spelling, with FIX-D's system and with a missing one.
    commands += [["mrc", "--system", path, "--sigma", sigma]
                 for path in ("FIX-D.json", "missing.json") for sigma in SIGMAS]
    return commands + _malformed(work, "FIX-D.json", "FIX-D-dual.json")


SIGMAS = ("1", " 2 , 3 ", "+1", "01", "-1", "0", "5", "1,1", "3,1", "1,,2", ",", "", "1,",
          "1.5", "x", "1_0", "1e0", "\u0663")


# Bad entries: "1e999" is a placeholder for the bare JSON number 1e999, which
# json reads as inf.
BAD_ENTRIES = {"bool": True, "string": "2.5", "null": None, "1e999": "1e999", "big": 10**400}


def _bad_text(obj) -> str:
    return json.dumps(obj).replace('"1e999"', "1e999")


def _with_entry(rows, i, j, value):
    rows = [list(row) for row in rows]
    rows[i][j] = value
    return {"rows": len(rows), "cols": len(rows[0]), "data": rows}


def _malformed(work: Path, system: str, dual: str) -> list[list[str]]:
    """Commands on FIX-D whose system, dual, coded, side or recovery-matrix
    file is malformed, each file named by three spellings of its path."""
    from kframes.fixtures import FIXTURES

    fix = FIXTURES["FIX-D"]
    f, k, g = fix.F.tolist(), fix.K.tolist(), fix.dual.tolist()
    c = (fix.dual.T @ np.ones(4)).tolist()
    gram = (fix.F.T @ fix.F).tolist()
    csv = "\n".join(",".join(repr(x) for x in row) for row in gram)

    def csv_with(i, j, cell):
        """The Gramian as CSV text with entry (i, j), 0-based, written as cell."""
        rows = [[repr(x) for x in row] for row in gram]
        rows[i][j] = cell
        return "\n".join(",".join(row) for row in rows)

    bad_dir = work / "bad"
    bad_dir.mkdir()
    good_c = _write(work / "fixd-c.json", {"coefficients": [None, *c[1:]], "erased": [1]})
    files = {  # kind -> {file name: text}
        "system": {"not-json.json": '{"F": {"rows": 4,', "sys.csv": csv,
                   "no-F.json": _bad_text({"K": _matrix(k)}),
                   "no-K.json": _bad_text({"F": _matrix(f)}),
                   "ragged.json": _bad_text({"F": {"rows": 4, "cols": 4,
                                                   "data": [f[0], f[1][:3], f[2], f[3]]},
                                             "K": _matrix(k)})},
        "dual": {"not-json.json": "{", "no-G.json": _bad_text({"H": _matrix(g)})},
        "coded": {"not-json.json": "[1.0,", "no-coefficients.json": '{"erased": [1]}',
                  "short.json": _bad_text({"coefficients": c[:3]}),
                  "null-survivor.json": _bad_text({"coefficients": [None, *c[1:]]})},
        "side": {"not-json.json": "[", "short.json": _bad_text(c[:3])},
        "rk": {"not-json.json": "{}}", "m.csv": csv, "ragged.csv": "1.0,2.0\n3.0\n",
               "cell.csv": csv_with(1, 2, "x"), "inf.csv": csv_with(0, 0, "inf"),
               "nan.csv": csv_with(3, 3, "nan"), "1e999.csv": csv_with(1, 0, "1e999"),
               "blank-cell.csv": csv_with(2, 2, " "), "empty.csv": "\n"},
    }
    for named in files.values():  # bytes, written as they are: neither file is UTF-8
        named.update({"not-utf8.json": b'\xff{"rows": 1}',
                      "not-utf8.csv": b"1.0,2.0\n3.0,\xc3(\n"})
    for what, erased in {"outside": [5], "zero": [0], "repeat": [1, 1], "bool": [True],
                         "float": [1.0], "string": "1"}.items():
        files["coded"][f"erased-{what}.json"] = _bad_text(
            {"coefficients": [None, *c[1:]], "erased": erased})
    for what, value in BAD_ENTRIES.items():
        files["system"][f"F-{what}.json"] = _bad_text({"F": _with_entry(f, 1, 2, value),
                                                       "K": _matrix(k)})
        files["system"][f"K-{what}.json"] = _bad_text({"F": _matrix(f),
                                                       "K": _with_entry(k, 0, 0, value)})
        files["dual"][f"G-{what}.json"] = _bad_text({"G": _with_entry(g, 3, 1, value)})
        files["coded"][f"{what}.json"] = _bad_text(
            {"coefficients": [None, c[1], value, c[3]], "erased": [1]})
        files["side"][f"{what}.json"] = _bad_text([1.0, 2.0, value, 4.0])
        files["rk"][f"{what}.json"] = _bad_text(_with_entry(gram, 0, 3, value))
    recover = ["recover", "--system", system, "--dual", dual]
    uses = {
        "system": lambda p: [["check-dual", "--system", p, "--dual", dual]],
        "dual": lambda p: [["check-dual", "--system", system, "--dual", p]],
        "coded": lambda p: [recover + ["--coded", p, "--strategy", "consistency"]],
        "side": lambda p: [recover + ["--coded", good_c, "--strategy", "side-info",
                                      "--side-info", p]],
        "rk": lambda p: [["spark", "--matrix", p],
                         recover + ["--coded", good_c, "--strategy", "blind", "--rk-matrix", p]],
    }
    commands = []
    for kind, named in files.items():
        for name, text in {**named, "missing.json": None}.items():
            if isinstance(text, bytes):
                (bad_dir / f"{kind}-{name}").write_bytes(text)
            elif text is not None:
                (bad_dir / f"{kind}-{name}").write_text(text)
            for path in (f"bad/{kind}-{name}", f"./bad/{kind}-{name}", f"bad//{kind}-{name}"):
                commands += uses[kind](path)
    return commands


def run_corpus(root: str, commands_path: str, results_path: str) -> None:
    """Run every command on root's src/ in this process; write (code, out, err) of each."""
    sys.path.insert(0, str(Path(root) / "src"))
    from kframes.cli import run_command

    warnings.simplefilter("always")
    results = []
    for argv in json.loads(Path(commands_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
        results.append([code, out.getvalue(), err.getvalue()])
    Path(results_path).write_text(json.dumps(results))


def _leaves(obj, path=""):
    """JSON path -> value of every leaf; a list of numbers is one leaf."""
    if isinstance(obj, dict):
        return {k: v for key, value in obj.items()
                for k, v in _leaves(value, f"{path}.{key}" if path else key).items()}
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        return {k: v for i, value in enumerate(obj)
                for k, v in _leaves(value, f"{path}[{i}]").items()}
    return {path: obj}


def _changed_fields(before: str, after: str) -> dict:
    """Changed leaves of two JSON reports: path -> [before, after] for scalars, None for arrays."""
    try:
        old, new = _leaves(json.loads(before)), _leaves(json.loads(after))
    except json.JSONDecodeError:
        return {}
    return {path: None if isinstance(old.get(path), list) or isinstance(new.get(path), list)
            else [old.get(path), new.get(path)]
            for path in sorted(old.keys() | new.keys()) if old.get(path) != new.get(path)}


def main(before_root: str, out_path: str) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = build_corpus(work)
        (work / "commands.json").write_text(json.dumps(commands))
        sides = {}
        for side, root in (("before", Path(before_root).resolve()), ("after", ROOT)):
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run", str(root),
                            "commands.json", f"{side}.json"], cwd=work, env=env, check=True)
            sides[side] = json.loads((work / f"{side}.json").read_text())
    differ, counts = [], {}
    for argv, old, new in zip(commands, sides["before"], sides["after"]):
        count = counts.setdefault(argv[0], {"commands": 0, "differ": 0})
        count["commands"] += 1
        if old == new:
            continue
        count["differ"] += 1
        entry = {"argv": argv, "differs": [what for what, a, b in zip(
            ("exit", "stdout", "stderr"), old, new) if a != b]}
        if old[0] != new[0]:
            entry["exit"] = [old[0], new[0]]
        if argv[0] in ("recover", "simulate") and old[1] != new[1]:
            entry["fields"] = _changed_fields(old[1], new[1])
        differ.append(entry)
    report = {"before": str(Path(before_root).resolve()), "after": str(ROOT),
              "commands": len(commands), "differ": len(differ), "by_command": counts,
              "changed": differ}
    Path(out_path).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"commands": len(commands), "differ": len(differ), "by_command": counts},
                     indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "--run":
        run_corpus(*sys.argv[2:5])
    else:
        sys.exit(main(*sys.argv[1:3]))
