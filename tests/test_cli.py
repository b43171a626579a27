import csv
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gbbench
from gbbench import bench, cli, corpus
from gbbench.cli import main
from gbbench.ordering import degrevlex_weight_matrix, identity_weight_matrix, subtotal_weight_matrix

FAST = ["--min-measure", "1e-9", "--orders", "degrevlex,subtotal", "--reference", "degrevlex"]


def _non_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff2\n1 0\n0 1\n")
    return str(path)


def _write_matrix(tmp_path, name, w):
    path = tmp_path / name
    path.write_text(w.to_text())
    return str(path)


def test_run_text_to_stdout(capsys):
    code = main(["run", "--cyclic", "3"] + FAST)
    out = capsys.readouterr().out
    assert code == 0
    assert "cyclic-3" in out
    assert "subtotal/degrevlex" in out


def test_run_csv_to_file(tmp_path, capsys):
    dest = tmp_path / "report.csv"
    code = main(["run", "--cyclic", "3", "--katsura", "3",
                 "--format", "csv", "-o", str(dest)] + FAST)
    assert code == 0
    assert capsys.readouterr().out == ""
    with dest.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["name"] for r in rows} == {"cyclic-3", "katsura-3"}
    for r in rows:
        assert r["degrevlex aborted"] == "0"


def _under_ascii_locale(argv, cwd):
    """Run gbbench in a subprocess under an ASCII locale; output as bytes."""
    src = str(Path(gbbench.__file__).parents[1])
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "gbbench.cli", *argv],
                          env=env, capture_output=True, cwd=cwd)


def _non_ascii_system(tmp_path):
    system = tmp_path / "f.txt"
    system.write_text("name: Gröbner-ł\nvars: x y\npoly: x^2 + y\npoly: x*y - 1\n",
                      encoding="utf-8")
    return str(system)


def test_run_output_file_is_utf8_whatever_the_locale(tmp_path):
    # the reader requires UTF-8, so -o writes UTF-8 under an ASCII locale too
    dest = tmp_path / "out.txt"
    proc = _under_ascii_locale(["run", "--system", _non_ascii_system(tmp_path),
                                "-o", str(dest)] + FAST, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Gröbner-ł" in dest.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [["run"] + FAST, ["verify", "--strategies", "induced-order"]],
                         ids=["run", "verify"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, argv):
    proc = _under_ascii_locale(argv + ["--system", _non_ascii_system(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Gröbner-ł" in proc.stdout.decode("utf-8")


def test_non_ascii_path_is_echoed_as_given(tmp_path):
    # argv decodes with surrogateescape under an ASCII locale; stdout keeps
    # that handler, so the path's own bytes come back
    (tmp_path / "mł.txt").write_text(subtotal_weight_matrix(2).to_text())
    proc = _under_ascii_locale(["check-matrix", "mł.txt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("mł.txt: 2x2, admissible=yes\n".encode("utf-8"))


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_run_output_write_failure_is_one_line(capsys):
    # /dev/full opens, so the early check passes; the final write fails
    with pytest.raises(SystemExit) as exc:
        main(["run", "--cyclic", "3", "-o", "/dev/full"] + FAST)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("gbbench run: error: cannot write /dev/full: ")


def test_run_jsonl_format(capsys):
    code = main(["run", "--katsura", "2", "--format", "jsonl"] + FAST)
    assert code == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert recs[0]["type"] == "config"
    assert recs[1]["name"] == "katsura-2"


def test_run_bundled_system(capsys):
    code = main(["run", "--bundled", "lichtblau2"] + FAST)
    assert code == 0
    assert "Lichtblau 2" in capsys.readouterr().out


def test_run_system_file(tmp_path, capsys):
    path = tmp_path / "toy.txt"
    path.write_text("vars: x y\npoly: x^2 - y\npoly: x*y - 1\n")
    code = main(["run", "--system", str(path)] + FAST)
    assert code == 0
    assert "toy" in capsys.readouterr().out


def test_run_system_directory(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("vars: x y\npoly: x^2 - y\npoly: x*y - 1\n")
    (tmp_path / "b.txt").write_text("vars: u v\npoly: u + v\npoly: u*v - 2\n")
    code = main(["run", "--systems", str(tmp_path)] + FAST)
    out = capsys.readouterr().out
    assert code == 0
    assert "a" in out.split() and "b" in out.split()
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--systems", str(empty)] + FAST)
    assert exc.value.code == 2


def test_run_rational_system_needs_flag(tmp_path, capsys):
    path = tmp_path / "half.txt"
    path.write_text("vars: x\npoly: 1/2 x^2 - 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--system", str(path)] + FAST)
    assert exc.value.code == 2
    capsys.readouterr()
    code = main(["run", "--system", str(path), "--clear-denominators"] + FAST)
    assert code == 0


def test_run_all_aborted_exit_code(capsys):
    code = main(["run", "--cyclic", "6", "--time-limit", "1e-6"] + FAST)
    assert code == 3
    assert "ABORTED" in capsys.readouterr().out


def test_run_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"] + FAST)  # no systems selected
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--cyclic", "3", "--orders", "degrevlex,plex"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--cyclic", "3", "--orders", "degrevlex",
              "--reference", "subtotal"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bundled", "nosuch"] + FAST)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--system", str(tmp_path / "missing.txt")] + FAST)
    assert exc.value.code == 2
    vanishing = tmp_path / "vanishing.txt"
    vanishing.write_text("vars: x y\npoly: 32003*x^2 + 32003*y\n")
    latin = _non_utf8(tmp_path)
    missing = str(tmp_path / "missing" / "dir" / "r.csv")
    named = {latin: "read", str(tmp_path): "write", missing: "write"}
    for bad in (["--modulus", "4"], ["--modulus", str(2**89)], ["--time-limit", "0"],
                ["--time-limit", "nan"], ["--time-limit", "inf"], ["--min-measure", "nan"],
                ["--min-measure", "inf"], ["--seed", "1"], ["--system", str(vanishing)],
                ["--system", latin], ["-o", str(tmp_path)], ["-o", missing],
                ["--bundled", 'a"b'], ["--bundled", "x'"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["run", "--cyclic", "3"] + FAST + bad)
        assert exc.value.code == 2, bad
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: gbbench run "), bad
        if bad[1] in named:
            assert err.splitlines()[-1].startswith(
                f"gbbench run: error: cannot {named[bad[1]]} {bad[1]}: "), err
        if bad[0] == "--bundled":
            assert err.splitlines()[-1].startswith(
                f"gbbench run: error: unknown bundled system {bad[1]!r}; available: "), err
    assert not Path(missing).parent.exists()


def test_verify_usage_errors(tmp_path, capsys):
    vanishing = tmp_path / "vanishing.txt"
    vanishing.write_text("vars: x y\npoly: 32003*x^2 + 32003*y\n")
    latin = _non_utf8(tmp_path)
    superscript = tmp_path / "superscript.txt"
    superscript.write_text("vars: x\npoly: x²\n")
    long_int = tmp_path / "long.txt"
    long_int.write_text("vars: x\npoly: x + " + "1" * 5000 + "\n")
    for bad in (["--modulus", "4"], ["--time-limit", "-1"], ["--time-limit", "nan"],
                ["--time-limit", "inf"], ["--bundled", 'a"b'], ["--bundled", "x'"],
                ["--system", latin], ["--system", str(superscript)],
                ["--system", str(long_int)], ["--system", str(vanishing)]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--cyclic", "3"] + bad)
        assert exc.value.code == 2, bad
        out, err = capsys.readouterr()
        assert "ABORTED" not in out
        assert err.startswith("usage: gbbench verify "), bad
        if bad[1] == latin:
            assert err.splitlines()[-1].startswith(f"gbbench verify: error: cannot read {latin}: ")
        if bad[1] == str(superscript):
            assert err.splitlines()[-1] == (f"gbbench verify: error: {superscript}: "
                                            "line 2, column 8: unexpected character '²'"), err
        if bad[1] == str(long_int):
            assert err.splitlines()[-1] == (f"gbbench verify: error: {long_int}: line 2, "
                                            "column 11: integer of 5000 digits is too long"), err
        if bad[0] == "--bundled":
            assert err.splitlines()[-1].startswith(
                f"gbbench verify: error: unknown bundled system {bad[1]!r}; available: "), err
    assert "polynomial 1 vanishes mod 32003" in err


def test_verify_small_system(capsys):
    code = main(["verify", "--cyclic", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cyclic-3: OK" in out
    assert "bases=identical" in out
    assert "verified=yes" in out
    assert "weight-audit=clean" in out


def test_verify_single_strategy(capsys):
    code = main(["verify", "--katsura", "2", "--strategies", "induced-order"])
    out = capsys.readouterr().out
    assert code == 0
    assert "configs=6" in out


def test_verify_names_the_failing_check(monkeypatch, capsys):
    # a rejected basis is reported with the S-pair or input that failed
    for failure, shown in (((0, 2), "verified=NO (S-pair 0,2)"),
                           (("input", 1), "verified=NO (input 1)")):
        monkeypatch.setattr(bench, "verify_failure", lambda G, F=None, f=failure: f)
        code = main(["verify", "--cyclic", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "cyclic-3: FAILED" in out
        assert shown in out


def test_verify_reports_differing_bases_and_dirty_audit(monkeypatch, capsys):
    def stub(spec, **kwargs):
        return bench.RobustnessResult(spec.name, [("degrevlex", "induced-order")] * 12, [],
                                      bases_match=False, verified=True,
                                      audits_clean=False, basis_size=3)
    monkeypatch.setattr(cli, "verify_order_robustness", stub)
    code = main(["verify", "--cyclic", "3"])
    assert code == 1
    assert capsys.readouterr().out == ("cyclic-3: FAILED  configs=12  basis=3  bases=DIFFER  "
                                       "verified=yes  weight-audit=DIRTY\n")


def test_verify_reports_bases_that_differ(monkeypatch, capsys):
    # one configuration's reduced basis is short one element
    calls, reduce_basis = [], bench.reduce_basis

    def short_third(G):
        calls.append(G)
        red = reduce_basis(G)
        return red[:-1] if len(calls) == 3 else red

    monkeypatch.setattr(bench, "reduce_basis", short_third)
    code = main(["verify", "--cyclic", "3"])
    assert code == 1
    assert capsys.readouterr().out == ("cyclic-3: FAILED  configs=12  basis=3  bases=DIFFER  "
                                       "verified=yes  weight-audit=clean\n")


def test_verify_aborted_exit_code(capsys):
    code = main(["verify", "--cyclic", "6", "--time-limit", "1e-6"])
    assert code == 3
    assert "ABORTED" in capsys.readouterr().out


def test_verify_bundled_all_aborted(capsys):
    code = main(["verify", "--bundled", "all", "--time-limit", "1e-9"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert [line.split(":")[0] for line in lines] == [s.name for s in corpus.bundled_systems()]
    assert all(": ABORTED at degrevlex/induced-order after 0 completed configs" in line
               for line in lines)


def test_verify_time_limit_is_per_configuration(tmp_path, capsys):
    # each configuration gets the full limit and the first abort ends the
    # system, so one slow configuration costs about one limit
    path = tmp_path / "slow.txt"
    path.write_text("vars: x\npoly: x^10000000 - 1\npoly: x^3 - 1\n")
    start = time.perf_counter()
    code = main(["verify", "--system", str(path), "--time-limit", "1",
                 "--strategies", "induced-order"])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert capsys.readouterr().out == ("slow: ABORTED at degrevlex/induced-order "
                                       "after 0 completed configs\n")
    assert elapsed < 10.0, elapsed


def test_microbench(capsys):
    code = main(["microbench", "--vars", "3", "--samples", "10000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ratio subtotal/degrevlex:" in out
    for bad in (["--vars", "0"], ["--samples", "0"], ["--max-exponent", "-1"],
                ["--max-exponent", "256"]):
        with pytest.raises(SystemExit) as exc:
            main(["microbench"] + bad)
        assert exc.value.code == 2, bad
        assert capsys.readouterr().err.startswith("usage: gbbench microbench "), bad


def test_check_matrix_admissible(tmp_path, capsys):
    path = _write_matrix(tmp_path, "sub3.txt", subtotal_weight_matrix(3))
    code = main(["check-matrix", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "admissible=yes" in out
    assert "same order as subtotal(n=3): yes" in out
    assert "same order as degrevlex(n=3): yes" in out


def test_check_matrix_family_mismatch_is_informational(tmp_path, capsys):
    path = _write_matrix(tmp_path, "lex3.txt", identity_weight_matrix(3))
    code = main(["check-matrix", path])
    out = capsys.readouterr().out
    assert code == 0  # lex is a fine order, just not these families
    assert "admissible=yes" in out
    assert "same order as subtotal(n=3): no" in out
    assert "same order as degrevlex(n=3): no" in out


def test_check_matrix_inadmissible(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 1\n1 1\n")  # singular, so no order at all
    code = main(["check-matrix", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "admissible=no" in out
    assert "same order as subtotal(n=2): no" in out


def test_check_matrix_equivalence(tmp_path, capsys):
    sub = _write_matrix(tmp_path, "sub3.txt", subtotal_weight_matrix(3))
    grev = _write_matrix(tmp_path, "grev3.txt", degrevlex_weight_matrix(3))
    code = main(["check-matrix", sub, "--against", grev, "--oracle-degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "yes (lower-triangular certificate)" in out
    assert "orders agree" in out


def test_check_matrix_inequivalence(tmp_path, capsys):
    grev = _write_matrix(tmp_path, "grev3.txt", degrevlex_weight_matrix(3))
    lex = _write_matrix(tmp_path, "lex3.txt", identity_weight_matrix(3))
    code = main(["check-matrix", grev, "--against", lex, "--oracle-degree", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "no certificate" in out
    assert "oracle: orders differ on (0, 0, 2) vs (0, 1, 0)" in out.splitlines()


def test_check_matrix_against_a_singular_matrix(tmp_path, capsys):
    # a singular matrix has no certificate; that is a failed check, not an error
    m = _write_matrix(tmp_path, "m.txt", subtotal_weight_matrix(2))
    singular = tmp_path / "singular.txt"
    singular.write_text("2\n1 1\n1 1\n")
    code = main(["check-matrix", m, "--against", str(singular)])
    out, err = capsys.readouterr()
    assert code == 1
    assert f"equivalent to {singular}: no certificate" in out.splitlines()
    assert err == ""


def test_check_matrix_refuses_exponent_notation(tmp_path, capsys):
    # reading 1e999999999 as a Fraction would build 10**999999999 first
    path = tmp_path / "exp.txt"
    path.write_text("2\n1 0\n0 1e999999999\n")
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["check-matrix", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        f"gbbench check-matrix: error: {path}: line 3: bad rational '1e999999999'")


def test_check_matrix_input_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-matrix", str(tmp_path / "missing.txt")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: gbbench check-matrix ")
    latin = _non_utf8(tmp_path)
    ok = _write_matrix(tmp_path, "ok.txt", subtotal_weight_matrix(2))
    for argv in ([latin], [ok, "--against", latin]):
        with pytest.raises(SystemExit) as exc:
            main(["check-matrix"] + argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: gbbench check-matrix ")
        assert err.splitlines()[-1].startswith(f"gbbench check-matrix: error: cannot read {latin}: ")
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["check-matrix", str(bad)])
    assert exc.value.code == 2
    two = _write_matrix(tmp_path, "two.txt", subtotal_weight_matrix(2))
    three = _write_matrix(tmp_path, "three.txt", subtotal_weight_matrix(3))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["check-matrix", two, "--against", three])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    # (4 + 1)^(2 * 8) pairs is far above the oracle's bound
    sub8 = _write_matrix(tmp_path, "sub8.txt", subtotal_weight_matrix(8))
    grev8 = _write_matrix(tmp_path, "grev8.txt", degrevlex_weight_matrix(8))
    with pytest.raises(SystemExit) as exc:
        main(["check-matrix", sub8, "--against", grev8, "--oracle-degree", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    # the oracle compares against --against, so it is refused without it
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["check-matrix", two, "--oracle-degree", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "gbbench check-matrix: error: --oracle-degree needs --against"


def test_readme_command_lines_parse():
    # every example in README's "Command line" block is a valid invocation
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("gbbench ")]
    assert {shlex.split(ln)[1] for ln in lines} == {"run", "verify", "microbench", "check-matrix"}
    for line in lines:
        args, unknown = cli.build_parser().parse_known_args(shlex.split(line)[1:])
        assert unknown == [], line
        if args.command == "run":
            assert set(args.orders.split(",")) <= set(bench.ORDER_LABELS), line
        if args.command in ("run", "verify"):
            assert set(args.bundled) <= {"all", *corpus.BUNDLED_KEYS}, line


# a Python name, optionally dotted, optionally with a call's arguments
_README_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
_FILE_SUFFIXES = {"csv", "json", "md", "py", "toml", "txt"}


def _unresolved_names(text: str) -> list:
    """Backticked snake_case or dotted names in text that are no attribute of
    the gbbench package or of one of its modules. File names are skipped; a
    leading gbbench. is optional."""
    owners = [gbbench] + [importlib.import_module(f"gbbench.{m.name}")
                          for m in pkgutil.iter_modules(gbbench.__path__)]
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        m = _README_NAME.fullmatch(span)
        if m is None or not ("_" in m[1] or "." in m[1]):
            continue
        parts = m[1].split(".")
        if parts[-1] in _FILE_SUFFIXES:
            continue
        if parts[0] == "gbbench":
            parts = parts[1:]
        if not any(_has_path(obj, parts) for obj in owners):
            missing.append(m[1])
    return missing


def _has_path(obj, parts) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_names_resolve():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert _unresolved_names(readme) == []


def test_the_check_sees_a_stale_readme_name():
    text = ("`cmp_subtotal` and `ordering.cmp_by_matrix`, beside `poly.reduce`, "
            "`verify_failure(G, F)`, `gbbench.bench.published_reference_ratios()`, "
            "`_update`, `__init__.py`, `pyproject.toml` and `run -o`")
    assert _unresolved_names(text) == ["cmp_subtotal", "ordering.cmp_by_matrix"]
