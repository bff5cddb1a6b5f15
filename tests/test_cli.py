"""CLI behaviour: exit codes, report format, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spreadbent import __version__
from spreadbent.boolfun import anf, degree, load_tt
from spreadbent.cli import main
from spreadbent.quasifield import ConsistencyError, make_family


def run(argv):
    """main() but with argparse's SystemExit flattened to a return code."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def report(capsys):
    """Parse key=value stdout lines into a dict (stderr left alone)."""
    out = capsys.readouterr().out
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


# ---------------------------------------------------------------------------
# exit-code contract


def test_version_exits_zero(capsys):
    assert run(["--version"]) == 0
    assert "spreadbent 0.1.0" in capsys.readouterr().out


def test_qf_verify_kantor_m3(capsys):
    assert run(["qf", "verify", "--family", "kantor", "--m", "3"]) == 0
    rep = report(capsys)
    assert rep["passed"] == "true"
    assert rep["pre_semifield"] == "true"
    assert rep["right_distributive"] == "true"


def test_qf_verify_even_m_is_invalid(capsys):
    # knuth needs odd m; with or without beta this is a parameter error
    assert run(["qf", "verify", "--family", "knuth", "--m", "4",
                "--beta", "1"]) == 2
    assert run(["qf", "verify", "--family", "knuth", "--m", "4"]) == 2


def test_qf_verify_dm_passes_without_right_distributivity(capsys):
    assert run(["qf", "verify", "--family", "dm", "--m", "3", "--k", "1"]) == 0
    rep = report(capsys)
    assert rep["passed"] == "true"
    assert rep["right_distributive"] == "false"
    assert rep["pre_semifield"] == "false"


def test_unknown_family_is_invalid(capsys):
    assert run(["qf", "verify", "--family", "octonion", "--m", "3"]) == 2


def test_missing_required_flag_is_invalid(capsys):
    assert run(["qf", "verify", "--family", "field"]) == 2


@pytest.mark.parametrize("m,swept", [(7, "true"), (8, "skipped")])
def test_qf_verify_reports_skipped_division_sweep(m, swept, capsys):
    # the formula-vs-oracle sweep runs up to m = 7; above, nothing is checked
    assert run(["qf", "verify", "--family", "field", "--m", str(m)]) == 0
    rep = report(capsys)
    assert rep["division_consistent"] == swept
    assert rep["passed"] == "true"


def test_axiom_sweep_too_large_is_invalid(capsys):
    assert run(["qf", "verify", "--family", "kantor", "--m", "9"]) == 2


# ---------------------------------------------------------------------------
# qf divide


def test_divide_matches_library(capsys):
    assert run(["qf", "divide", "--family", "knuth", "--m", "3",
                "--beta", "3", "--x", "5", "--y", "6"]) == 0
    rep = report(capsys)
    Q = make_family("knuth", 3, beta=3)
    assert int(rep["result"], 16) == Q.qdiv_formula(6, 5)
    assert rep["method"] == "formula"


def test_divide_oracle_agrees_with_formula(capsys):
    argv = ["qf", "divide", "--family", "dm", "--m", "3", "--k", "1",
            "--x", "2", "--y", "1"]
    assert run(argv) == 0
    formula = report(capsys)["result"]
    assert run(argv + ["--method", "oracle"]) == 0
    assert report(capsys)["result"] == formula == "0x4"


def test_divide_solves_left_operand(capsys):
    run(["qf", "divide", "--family", "kantor", "--m", "5",
         "--x", "9", "--y", "1c"])
    a = int(report(capsys)["result"], 16)
    assert make_family("kantor", 5).mult_table()[a, 0x9] == 0x1C


@pytest.mark.parametrize("flag", ["--x", "--y"])
@pytest.mark.parametrize("value", ["-1", "8"])
def test_divide_rejects_non_elements(flag, value, capsys):
    argv = {"--x": "3", "--y": "5"}
    argv[flag] = value
    code = run(["qf", "divide", "--family", "field", "--m", "3",
                "--x", argv["--x"], "--y", argv["--y"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert flag in captured.err and "Traceback" not in captured.err


def test_divide_accepts_the_field_range(capsys):
    for x, y in (("0", "0"), ("7", "7")):
        assert run(["qf", "divide", "--family", "field", "--m", "3",
                    "--x", x, "--y", y]) == 0
        assert report(capsys)["x"] == f"0x{x}"


def test_modulus_override(capsys):
    assert run(["qf", "divide", "--family", "field", "--m", "3",
                "--modulus", "d", "--x", "2", "--y", "3"]) == 0
    rep = report(capsys)
    assert rep["modulus"] == "0xd"
    Q = make_family("field", 3, modulus=0xD)
    assert int(rep["result"], 16) == Q.qdiv_formula(3, 2)


# ---------------------------------------------------------------------------
# spread


def test_spread_verify_with_dump(tmp_path, capsys):
    dump = tmp_path / "spread.txt"
    assert run(["spread", "verify", "--family", "field", "--m", "2",
                "--dump", str(dump)]) == 0
    rep = report(capsys)
    assert rep["passed"] == "true"
    assert rep["component_count"] == "5"
    assert dump.read_text() == (
        "0x0: 0x0,0x1,0x2,0x3\n"
        "0x1: 0x0,0x5,0xa,0xf\n"
        "0x2: 0x0,0x7,0x9,0xe\n"
        "0x3: 0x0,0x6,0xb,0xd\n"
        "inf: 0x0,0x4,0x8,0xc\n")


def test_spread_verify_too_large_is_invalid(capsys):
    assert run(["spread", "verify", "--family", "field", "--m", "9"]) == 2


# ---------------------------------------------------------------------------
# poly


def test_dickson_inverse_pinned(capsys):
    assert run(["poly", "dickson-inv", "--m", "3", "--k", "5"]) == 0
    assert report(capsys)["kprime"] == "38"
    assert run(["poly", "dickson-inv", "--m", "5", "--k", "7"]) == 0
    assert report(capsys)["kprime"] == "877"


def test_dickson_inverse_needs_coprime_k(capsys):
    assert run(["poly", "dickson-inv", "--m", "3", "--k", "9"]) == 2


def test_invert_linearized_frobenius(capsys):
    assert run(["poly", "invert-linearized", "--m", "3",
                "--coeffs", "0,1,0"]) == 0
    rep = report(capsys)
    assert rep["bijective"] == "true"
    assert rep["inverse"] == "0x0,0x0,0x1"   # inverse of z^2 is z^4


def test_invert_linearized_singular_exits_one(capsys):
    # z + z^2 + z^4 is the trace map: far from bijective
    assert run(["poly", "invert-linearized", "--m", "3",
                "--coeffs", "1,1,1"]) == 1
    assert report(capsys)["bijective"] == "false"


def test_invert_linearized_at_max_m_reproduces_pinned_output(capsys):
    # the inverse of z^2 over GF(2^16) is z^(2^15)
    assert run(["poly", "invert-linearized", "--m", "16",
                "--coeffs", "0,1"]) == 0
    zeros = ",".join(["0x0"] * 14)
    assert capsys.readouterr().out == (
        "bijective=true\n"
        "command=poly invert-linearized\n"
        f"input=0x0,0x1,{zeros}\n"
        f"inverse=0x0,{zeros},0x1\n"
        "m=16\n"
        "modulus=0x1002b\n")


# ---------------------------------------------------------------------------
# bent pipeline


def test_build_then_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "f.tt"
    assert run(["bent", "build", "--family", "dm", "--m", "5", "--k", "3",
                "--g", "random:42", "--out", str(out)]) == 0
    rep = report(capsys)
    assert rep["bent"] == "true"
    assert rep["weight"] == "496"
    assert rep["degree"] == "5"
    assert run(["bent", "verify", "--tt", str(out)]) == 0
    rep = report(capsys)
    assert rep["bent"] == "true"
    assert rep["n"] == "10"


def test_build_plus_variant(tmp_path, capsys):
    out = tmp_path / "g.tt"
    assert run(["bent", "build", "--family", "kantor", "--m", "3",
                "--g", "support:1,2,4,7", "--out", str(out), "--plus"]) == 0
    rep = report(capsys)
    assert rep["weight"] == "36"
    assert rep["bent"] == "true"
    assert rep["g"] == "support:0x1,0x2,0x4,0x7"
    assert run(["bent", "verify", "--tt", str(out)]) == 0


def test_build_no_certify_skips_spectrum(tmp_path, capsys):
    out = tmp_path / "f.tt"
    assert run(["bent", "build", "--family", "field", "--m", "3",
                "--g", "random:0", "--out", str(out), "--no-certify"]) == 0
    rep = report(capsys)
    assert rep["bent"] == "skipped"
    assert rep["spectrum"] == "skipped"
    assert rep["certified"] == "false"
    assert out.exists()


def test_build_rejects_bad_selectors(tmp_path, capsys):
    out = str(tmp_path / "f.tt")
    base = ["bent", "build", "--family", "field", "--m", "3", "--out", out]
    assert run(base + ["--g", "support:0,1,2,4"]) == 2      # 0 in support
    assert run(base + ["--g", "support:1,2,4"]) == 2        # cardinality
    assert run(base + ["--g", "random:nope"]) == 2          # bad seed
    assert run(base + ["--g", "everything"]) == 2           # bad shape


@pytest.mark.parametrize("argv,named", [
    (["bent", "build", "--family", "field", "--m", "3", "--g", "support:zz",
      "--out", "{tmp}/f.tt"], "--g"),
    (["poly", "invert-linearized", "--m", "3", "--coeffs", "zz"], "--coeffs"),
    (["bent", "verify", "--tt", "{tmp}/bad.tt"], "{tmp}/bad.tt"),
    (["poly", "dickson-inv", "--m", "0", "--k", "5"], "--m"),
    (["poly", "dickson-inv", "--m", "3", "--k", "-1"], "--k"),
    (["qf", "verify", "--family", "dm", "--m", "5", "--k", "2"],
     "error: qf verify --m 5 --k 2: "),
    (["poly", "invert-linearized", "--m", "1", "--coeffs", "1"],
     "error: poly invert-linearized --m 1: "),
], ids=["g-support", "coeffs", "tt-not-hex", "dickson-m", "dickson-k",
        "dm-k", "field-m"])
def test_bad_values_name_their_flag(argv, named, tmp_path, capsys):
    (tmp_path / "bad.tt").write_text("# m=3\nzz\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named.format(tmp=tmp_path) in captured.err
    assert "Traceback" not in captured.err


BUILD = ["bent", "build", "--family", "field", "--m", "3", "--g", "random:1",
         "--out"]
MISSING = ("missing/f.tt", "No such file or directory")


DUMP = ["spread", "verify", "--family", "field", "--m", "3", "--dump"]


@pytest.mark.parametrize("argv,command,target", [
    (BUILD, "bent build --m 3", MISSING),
    (DUMP, "spread verify --m 3", MISSING),
    (["bent", "verify", "--tt"], "bent verify", MISSING),
    (BUILD, "bent build --m 3", ("", "Is a directory")),
    (DUMP, "spread verify --m 3", ("", "Is a directory")),
], ids=["build-out", "spread-dump", "verify-tt", "build-out-directory",
        "spread-dump-directory"])
def test_missing_directory_exits_two_naming_the_path(argv, command, target,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    def entered(*args, **kwargs):
        pytest.fail("the spread was built before the path was checked")

    monkeypatch.setattr("spreadbent.cli.build_spread", entered)
    leaf, reason = target
    path = str(tmp_path / leaf)  # the directory itself when leaf is ""
    assert run(argv + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {command}: {reason}: {path}" in captured.err.splitlines()
    assert "Traceback" not in captured.err
    # the path is checked before the family is built
    assert "elapsed_ms.table" not in captured.err


def test_build_overwrites_an_existing_file(tmp_path, capsys):
    out = tmp_path / "f.tt"
    out.write_text("stale\n")
    assert run(BUILD + [str(out)]) == 0
    assert load_tt(str(out)).n == 6


def test_verify_non_bent_exits_one(tmp_path, capsys):
    from spreadbent.boolfun import TruthTable, save_tt
    path = tmp_path / "flat.tt"
    save_tt(TruthTable(4, [0] * 16), str(path))
    assert run(["bent", "verify", "--tt", str(path)]) == 1
    assert report(capsys)["bent"] == "false"


def test_verify_odd_arity_reports_not_bent(tmp_path, capsys):
    # a valid file on odd n: its report says bent=false, with exit 1, as
    # for any function that is not bent, not an invalid-parameter exit 2
    from spreadbent.boolfun import TruthTable, save_tt
    path = tmp_path / "odd.tt"
    save_tt(TruthTable(5, [1] + [0] * 31), str(path))
    assert run(["bent", "verify", "--tt", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (f"balanced=false\nbent=false\ncommand=bent verify\n"
                            f"n=5\ntt={path}\nweight=1\n")
    assert "error" not in captured.err


def test_spectrum_full_dump_and_summary(tmp_path, capsys):
    out = tmp_path / "f.tt"
    run(["bent", "build", "--family", "knuth", "--m", "3", "--beta", "1",
        "--g", "random:7", "--out", str(out)])
    capsys.readouterr()
    assert run(["bent", "spectrum", "--tt", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 64
    assert lines[0].startswith("0x00=")
    assert all(line.split("=")[1] in ("8", "-8") for line in lines)
    assert run(["bent", "spectrum", "--tt", str(out), "--summary"]) == 0
    assert report(capsys)["summary"].count(":") == 2


# sha256 of the full `bent spectrum` dump of an n = 14 bent function
# (kantor m = 7, random:5; every line 0xWWWW=+-128) and of a seeded random
# function (values of several widths and both signs), pinned from the
# implementation that wrote one line at a time
GOLDEN_DUMPS = {
    "bent": "3d2b98911472e41121177d67121cfafec43db9e6f82e800a07d17bb840c202fd",
    "random": "50af7065abc7d15902a656d81f1255f19cb35ec72f1998796d3ec6edff7face6",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DUMPS))
@pytest.mark.parametrize("block", [None, 1000])
def test_spectrum_dump_reproduces_pinned_output(key, block, tmp_path,
                                                monkeypatch, capsys):
    # the dump is written a chunk at a time: in one chunk, and in chunks
    # of 1000 coefficients with a short last one
    import hashlib

    import spreadbent.cli as cli
    from spreadbent.boolfun import TruthTable, save_tt
    if block:
        monkeypatch.setattr(cli, "BLOCK", block)
    path = str(tmp_path / "f.tt")
    if key == "bent":
        run(["bent", "build", "--family", "kantor", "--m", "7",
             "--g", "random:5", "--out", path])
    else:
        rng = np.random.default_rng(14)
        save_tt(TruthTable(14, rng.integers(0, 2, 1 << 14, dtype=np.uint8)),
                path)
    capsys.readouterr()
    assert run(["bent", "spectrum", "--tt", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DUMPS[key]


def test_anf_report(tmp_path, capsys):
    out = tmp_path / "f.tt"
    run(["bent", "build", "--family", "field", "--m", "3",
        "--g", "support:1,2,4,7", "--out", str(out)])
    capsys.readouterr()
    assert run(["bent", "anf", "--tt", str(out)]) == 0
    rep = report(capsys)
    assert rep["degree"] == "3"
    assert int(rep["monomials"]) > 0


def test_anf_runs_one_mobius_transform(tmp_path, monkeypatch, capsys):
    import spreadbent.boolfun as boolfun
    import spreadbent.cli as cli
    out = tmp_path / "f.tt"
    run(["bent", "build", "--family", "kantor", "--m", "5",
         "--g", "random:3", "--out", str(out)])
    capsys.readouterr()
    f = load_tt(out)
    calls = []

    def counting(bits):
        calls.append(bits.size)
        return words(bits)

    words = boolfun._anf_words
    for module in (boolfun, cli):  # wherever it is looked up
        monkeypatch.setattr(module, "_anf_words", counting)
    assert run(["bent", "anf", "--tt", str(out)]) == 0
    rep = report(capsys)
    assert calls == [1 << 10]
    assert rep["degree"] == str(degree(f))
    assert rep["monomials"] == str(int(anf(f).sum()))


# ---------------------------------------------------------------------------
# determinism and packaging


def test_identical_argv_gives_byte_identical_output(tmp_path):
    argv = [sys.executable, "-m", "spreadbent.cli", "bent", "build",
            "--family", "knuth", "--m", "5", "--beta", "3",
            "--g", "random:11"]
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outs, files = [], []
    for name in ("a.tt", "b.tt"):
        path = tmp_path / name
        r = subprocess.run(argv + ["--out", str(path)],
                           capture_output=True, check=True, env=env)
        outs.append(r.stdout.replace(name.encode(), b"X.tt"))
        files.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert files[0] == files[1]
    assert b"elapsed_ms" not in outs[0]  # timing stays on stderr


def test_console_script_installed(tmp_path):
    """The [project.scripts] launcher works from a real install of the checkout.

    The checkout is installed into ``tmp_path`` through its own build backend
    (offline, no build isolation).  The launcher pip generated then runs with
    only ``tmp_path`` on the path, so neither PATH nor ``src/`` stands in for
    the installed package.
    """
    pytest.importorskip("pip")
    root = Path(__file__).resolve().parents[1]
    r = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--no-index", "--no-deps",
         "--no-build-isolation", "--no-cache-dir", "--disable-pip-version-check",
         "--quiet", "--target", str(tmp_path), str(root)],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr

    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    r = subprocess.run([str(tmp_path / "bin" / "spreadbent"), "--version"],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "spreadbent" in r.stdout
    assert r.stdout == f"spreadbent {__version__}\n"

    probe = ("import importlib.metadata, spreadbent; print(spreadbent.__file__); "
             "print(importlib.metadata.version('spreadbent'))")
    r = subprocess.run([sys.executable, "-c", probe],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    origin, version = r.stdout.splitlines()
    assert Path(origin).resolve().is_relative_to(tmp_path.resolve())
    assert version == __version__


def test_python_m_spreadbent(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r = subprocess.run([sys.executable, "-m", "spreadbent", "--version"],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == f"spreadbent {__version__}\n"
    r = subprocess.run([sys.executable, "-m", "spreadbent", "qf", "divide",
                        "--family", "field", "--m", "3", "--x", "9",
                        "--y", "1"],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 2 and "--x" in r.stderr


# stdout and .tt sha256 of `bent build ... --out <key>.tt`, pinned from
# the whole-array implementation that preceded the row-blocked tables; the
# m = 11 builds, where no oracle checks the table, from the per-family
# blocked tables that preceded the basis-row (linear) fill
GOLDEN_BUILDS = {
    "field": (["--family", "field", "--m", "7", "--g", "random:1"],
              "certified=true\ncommand=bent build\ndegree=7\nfamily=field\n"
              "g=random:1\nm=7\nmodulus=0x83\nn=14\nout=field.tt\n"
              "plus=false\nspectrum=-128:8128,128:8256\nweight=8128\n",
              "9c0096ff435d96c426e7bab527a6a57c7c6db6f5d3823bf59f35fa8e53baa6f0"),
    "dm": (["--family", "dm", "--m", "7", "--k", "3", "--g", "random:2"],
           "certified=true\ncommand=bent build\nd=4681\ndegree=7\ne=59\n"
           "family=dm\ng=random:2\nk=3\nm=7\nmodulus=0x83\nn=14\n"
           "out=dm.tt\nplus=false\nspectrum=-128:8128,128:8256\n"
           "weight=8128\n",
           "b5382ba2d548ac31d51d9360e78d6208ebee14dfacc47e3161b326fbfd3ad9ff"),
    "knuth": (["--family", "knuth", "--m", "7", "--beta", "5",
               "--g", "random:3", "--plus"],
              "beta=0x5\ncertified=true\ncommand=bent build\ndegree=7\n"
              "family=knuth\ng=random:3\nm=7\nmodulus=0x83\nn=14\n"
              "out=knuth.tt\nplus=true\nspectrum=-128:8256,128:8128\n"
              "weight=8256\n",
              "8d961067fd8cb7a08a3a82d5012092a1256e92ddb0d39eb69f3e19fceb1069d0"),
    "kantor": (["--family", "kantor", "--m", "7", "--g", "random:4"],
               "certified=true\ncommand=bent build\ndegree=7\n"
               "family=kantor\ng=random:4\nm=7\nmodulus=0x83\nn=14\n"
               "out=kantor.tt\nplus=false\nspectrum=-128:8128,128:8256\n"
               "weight=8128\n",
               "17794bf85ef0e1b54808490525fff97fad14e8a08271aee2cecb66d70f507420"),
    "field-m11": (["--family", "field", "--m", "11", "--g", "random:11"],
                  "certified=true\ncommand=bent build\ndegree=11\n"
                  "family=field\ng=random:11\nm=11\nmodulus=0x805\nn=22\n"
                  "out=field-m11.tt\nplus=false\n"
                  "spectrum=-2048:2096128,2048:2098176\nweight=2096128\n",
                  "9d209f07f5f5c43c945c43c06859c0b34cc94b57742d0d67fc24b88f134c2953"),
    "dm-m11": (["--family", "dm", "--m", "11", "--k", "3", "--g", "random:12"],
               "certified=true\ncommand=bent build\nd=3595117\ndegree=11\n"
               "e=1019\nfamily=dm\ng=random:12\nk=3\nm=11\nmodulus=0x805\n"
               "n=22\nout=dm-m11.tt\nplus=false\n"
               "spectrum=-2048:2096128,2048:2098176\nweight=2096128\n",
               "b5acee1c019bb0e3d8d0b26114dda1375a67ca0c33aba0e4ada2e73db53b8b58"),
    "knuth-m11": (["--family", "knuth", "--m", "11", "--beta", "5a5",
                   "--g", "random:13", "--plus"],
                  "beta=0x5a5\ncertified=true\ncommand=bent build\n"
                  "degree=11\nfamily=knuth\ng=random:13\nm=11\n"
                  "modulus=0x805\nn=22\nout=knuth-m11.tt\nplus=true\n"
                  "spectrum=-2048:2098176,2048:2096128\nweight=2098176\n",
                  "254b1fff6538ec54bb3691d9f433065767e0a6db78591d9f1342cd4ba27418b8"),
    "kantor-m11": (["--family", "kantor", "--m", "11", "--g", "random:14"],
                   "certified=true\ncommand=bent build\ndegree=11\n"
                   "family=kantor\ng=random:14\nm=11\nmodulus=0x805\n"
                   "n=22\nout=kantor-m11.tt\nplus=false\n"
                   "spectrum=-2048:2096128,2048:2098176\nweight=2096128\n",
                   "481d23d9bc946ad391e21f8b183fd70e879d727a2ed7b2765f04118e042c5837"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_BUILDS))
def test_build_reproduces_pinned_output(key, tmp_path, monkeypatch, capsys):
    import hashlib
    argv, stdout, sha = GOLDEN_BUILDS[key]
    monkeypatch.chdir(tmp_path)
    assert run(["bent", "build", *argv, "--out", f"{key}.tt"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "bent=true\n" + stdout
    # the stage timings go to stderr, next to the total
    timed = [line.split("=")[0] for line in captured.err.splitlines()]
    assert timed == ["elapsed_ms.table", "elapsed_ms.gather", "elapsed_ms.walsh",
                     "elapsed_ms.save", "elapsed_ms.degree", "elapsed_ms"]
    data = (tmp_path / f"{key}.tt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha


# stdout of `qf verify` and `spread verify` at m = 5, pinned from the
# implementation that checked the additive group and the counting identity
# (2^m + 1)(2^m - 1) + 1 = 2^(2m) in the sweeps
GOLDEN_VERIFY = {
    "qf-field": (
        ["qf", "verify", "--family", "field", "--m", "5"],
        "additive_group=true\ncommand=qf verify\ndivision_consistent=true\n"
        "family=field\nleft_bijective=true\nleft_distributive=true\nm=5\n"
        "modulus=0x25\npassed=true\npre_semifield=true\n"
        "right_bijective=true\nright_distributive=true\nzero_law=true\n"),
    "qf-dm": (
        ["qf", "verify", "--family", "dm", "--m", "5", "--k", "3"],
        "additive_group=true\ncommand=qf verify\nd=877\n"
        "division_consistent=true\ne=11\nfamily=dm\nk=3\n"
        "left_bijective=true\nleft_distributive=true\nm=5\nmodulus=0x25\n"
        "passed=true\npre_semifield=false\nright_bijective=true\n"
        "right_distributive=false\nzero_law=true\n"),
    "qf-knuth": (
        ["qf", "verify", "--family", "knuth", "--m", "5", "--beta", "3"],
        "additive_group=true\nbeta=0x3\ncommand=qf verify\n"
        "division_consistent=true\nfamily=knuth\nleft_bijective=true\n"
        "left_distributive=true\nm=5\nmodulus=0x25\npassed=true\n"
        "pre_semifield=true\nright_bijective=true\n"
        "right_distributive=true\nzero_law=true\n"),
    "qf-kantor": (
        ["qf", "verify", "--family", "kantor", "--m", "5"],
        "additive_group=true\ncommand=qf verify\ndivision_consistent=true\n"
        "family=kantor\nleft_bijective=true\nleft_distributive=true\nm=5\n"
        "modulus=0x25\npassed=true\npre_semifield=true\n"
        "right_bijective=true\nright_distributive=true\nzero_law=true\n"),
    "spread-field": (
        ["spread", "verify", "--family", "field", "--m", "5"],
        "command=spread verify\ncomponent_count=33\ncomponents_closed=33\n"
        "counting_identity=true\ncovers_space=true\nfamily=field\nm=5\n"
        "modulus=0x25\npairwise_trivial=true\npassed=true\nsizes_ok=true\n"),
    "spread-dm": (
        ["spread", "verify", "--family", "dm", "--m", "5", "--k", "3"],
        "command=spread verify\ncomponent_count=33\ncomponents_closed=33\n"
        "counting_identity=true\ncovers_space=true\nd=877\ne=11\n"
        "family=dm\nk=3\nm=5\nmodulus=0x25\npairwise_trivial=true\n"
        "passed=true\nsizes_ok=true\n"),
    "spread-knuth": (
        ["spread", "verify", "--family", "knuth", "--m", "5", "--beta", "3"],
        "beta=0x3\ncommand=spread verify\ncomponent_count=33\n"
        "components_closed=33\ncounting_identity=true\ncovers_space=true\n"
        "family=knuth\nm=5\nmodulus=0x25\npairwise_trivial=true\n"
        "passed=true\nsizes_ok=true\n"),
    "spread-kantor": (
        ["spread", "verify", "--family", "kantor", "--m", "5"],
        "command=spread verify\ncomponent_count=33\ncomponents_closed=33\n"
        "counting_identity=true\ncovers_space=true\nfamily=kantor\nm=5\n"
        "modulus=0x25\npairwise_trivial=true\npassed=true\nsizes_ok=true\n"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_VERIFY))
def test_verify_reproduces_pinned_output(key, capsys):
    argv, stdout = GOLDEN_VERIFY[key]
    assert run(argv) == 0
    assert capsys.readouterr().out == stdout


def test_build_runs_one_walsh_transform(tmp_path, monkeypatch, capsys):
    import spreadbent.boolfun as boolfun
    import spreadbent.cli as cli
    calls = []

    def counting(tt):
        calls.append(tt.n)
        return walsh(tt)

    walsh = boolfun.walsh_spectrum
    for module in (boolfun, cli):  # wherever it is looked up
        monkeypatch.setattr(module, "walsh_spectrum", counting)
    for plus in ([], ["--plus"]):
        calls.clear()
        assert run(["bent", "build", "--family", "kantor", "--m", "5",
                    "--g", "random:1", "--out", str(tmp_path / "f.tt"),
                    *plus]) == 0
        assert calls == [10]
        rep = report(capsys)
        assert rep["bent"] == "true"
        # the spectrum line is the written function's own spectrum
        assert run(["bent", "spectrum", "--tt", str(tmp_path / "f.tt"),
                    "--summary"]) == 0
        assert report(capsys)["summary"] == rep["spectrum"]


def test_build_certifies_from_the_counted_spectrum(tmp_path, monkeypatch,
                                                   capsys):
    # the verdict comes from the values the spectrum= line counts: no
    # second pass over the spectrum, and no second transform
    import spreadbent.boolfun as boolfun
    import spreadbent.cli as cli
    import spreadbent.construct as construct
    calls = []

    def counting(tt):
        calls.append(tt.n)
        return walsh(tt)

    def no_second_pass(*args):
        raise AssertionError("is_bent called")

    walsh = boolfun.walsh_spectrum
    monkeypatch.setattr(cli, "walsh_spectrum", counting)
    for module in (boolfun, construct, cli):
        monkeypatch.setattr(module, "is_bent", no_second_pass)
    for plus, weight in (([], "496"), (["--plus"], "528")):
        calls.clear()
        assert run(["bent", "build", "--family", "dm", "--m", "5", "--k", "3",
                    "--g", "random:2", "--out", str(tmp_path / "f.tt"),
                    *plus]) == 0
        assert calls == [10]
        rep = report(capsys)
        assert (rep["bent"], rep["weight"]) == ("true", weight)


def test_build_verdict_reads_every_block_of_the_spectrum(tmp_path,
                                                        monkeypatch, capsys):
    # the spectrum is counted in blocks of 16 here: one coefficient off
    # +-2^m in the first, a middle or the last block fails the certificate
    import spreadbent.cli as cli
    import spreadbent.construct as construct
    monkeypatch.setattr(construct, "BLOCK", 16)
    walsh, corrupt = cli.walsh_spectrum, []

    def spectrum(tt):
        s = walsh(tt)
        s[corrupt] = 0
        return s

    monkeypatch.setattr(cli, "walsh_spectrum", spectrum)
    argv = ["bent", "build", "--family", "field", "--m", "4", "--g",
            "random:1", "--out", str(tmp_path / "f.tt")]
    assert run(argv) == 0  # the n = 8 spectrum in 16 blocks
    assert report(capsys)["spectrum"] == "-16:120,16:136"
    for w in (0, 17, 255):
        corrupt[:] = [w]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "construction is not bent" in captured.err


def test_build_releases_the_family_before_the_walsh_transform(
        tmp_path, monkeypatch, capsys):
    # the family holds the cached q x q division table: at n = 26 that is
    # 256 MB that must not stay alive through the Walsh transform
    import weakref

    import spreadbent.cli as cli
    family, walsh = cli._family, cli.walsh_spectrum
    refs, alive = [], []

    def tracked(args):
        Q = family(args)
        refs.append(weakref.ref(Q))
        return Q

    def spectrum(tt):
        alive.append(refs[0]() is not None)
        return walsh(tt)

    monkeypatch.setattr(cli, "_family", tracked)
    monkeypatch.setattr(cli, "walsh_spectrum", spectrum)
    assert run(["bent", "build", "--family", "knuth", "--m", "5",
                "--beta", "3", "--g", "random:1",
                "--out", str(tmp_path / "f.tt")]) == 0
    assert alive == [False]
    assert report(capsys)["bent"] == "true"


def test_build_certification_failure_exits_one(tmp_path, monkeypatch, capsys):
    import spreadbent.cli as cli
    from spreadbent.field import field_ctx
    from spreadbent.quasifield import KantorFamily

    class BrokenDiv(KantorFamily):
        def _div_table_impl(self):
            D = super()._div_table_impl().copy()
            D[1, 1] ^= 1  # one wrong slope
            return D

    monkeypatch.setattr(cli, "_family",
                        lambda args: BrokenDiv(field_ctx(3), strict=False))
    assert run(["bent", "build", "--family", "kantor", "--m", "3",
                "--g", "random:0", "--out", str(tmp_path / "f.tt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kantor (m=3, {}): construction is not bent" in captured.err


@pytest.mark.parametrize("argv", [
    ["qf", "verify", "--family", "kantor", "--m", "9"],
    ["spread", "verify", "--family", "field", "--m", "9", "--dump", "s.txt"],
    ["bent", "build", "--family", "field", "--m", "14", "--g", "random:1",
     "--out", "f.tt"],
], ids=["qf-verify", "spread-verify", "bent-build"])
def test_size_caps_name_m_before_building(argv, tmp_path, monkeypatch,
                                          capsys):
    # above a cap the command exits 2 naming --m, and builds nothing: at
    # m = 14 a family's division table alone would take 1 GB
    import spreadbent.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("built something above the cap")

    for name in ("make_family", "build_spread"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"--m {argv[argv.index('--m') + 1]} is above" in err
    assert list(tmp_path.iterdir()) == []


def test_timing_goes_to_stderr(capsys):
    run(["poly", "dickson-inv", "--m", "3", "--k", "5"])
    captured = capsys.readouterr()
    assert "elapsed_ms" in captured.err
    assert "elapsed_ms" not in captured.out


@pytest.mark.parametrize("exc,message", [
    (ConsistencyError("kantor: 2 solutions of a <> 0x1 = 0x1"),
     "error: kantor: 2 solutions of a <> 0x1 = 0x1\n"),
    (MemoryError("Unable to allocate 256. MiB for an array"),
     "error: qf verify --m 5: out of memory (Unable to allocate 256. MiB for "
     "an array)\n"),
    (MemoryError(), "error: qf verify --m 5: out of memory\n"),
], ids=["consistency", "memory", "memory-bare"])
def test_library_errors_exit_one_without_traceback(exc, message, monkeypatch,
                                                   capsys):
    import spreadbent.cli as cli

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_family", fail)
    assert run(["qf", "verify", "--family", "kantor", "--m", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err


def test_memory_error_names_bent_build_and_m(tmp_path, monkeypatch, capsys):
    import spreadbent.cli as cli

    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 256. MiB for an array")

    monkeypatch.setattr(cli, "walsh_spectrum", fail)
    assert run(["bent", "build", "--family", "kantor", "--m", "5",
                "--g", "random:1", "--out", str(tmp_path / "f.tt")]) == 1
    err = capsys.readouterr().err
    assert "error: bent build --m 5: out of memory (Unable to allocate" in err
    assert "Traceback" not in err
    assert not (tmp_path / "f.tt").exists()
