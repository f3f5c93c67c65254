"""CLI contract tests: serialization round trips, exit codes, artifacts."""

import argparse
import ast
import contextlib
import importlib
import inspect
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from desknum import numcli, spectral
from desknum.errors import MalformedCsv, MalformedPgm, NonFinite
from desknum.ndcore import Matrix
from desknum.spectral import Image2D


def run(args, capsys):
    rc = numcli.run(args)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.mark.parametrize(
    "argv", [["eig"], ["xor", "--epochs", "50"], ["xor", "--eta", "0"]],
    ids=["eig", "xor", "xor-usage-error"],
)
def test_module_entry_point_runs_without_warnings(capsys, argv):
    # numcli used to be imported with the package, so runpy warned that
    # it was already in sys.modules before running it as __main__; xor
    # compiles its MLP kernel at run time, where a SyntaxWarning would show.
    # The process exits with run()'s code, usage errors included
    rc = numcli.run(argv)
    want = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(os.path.abspath(numcli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "desknum.numcli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, want.out, want.err)
    assert (rc, want.err) == (0, "") or (rc == 1 and want.err.startswith("usage error: "))


def test_console_script_is_the_main_that_dash_m_runs():
    # the installed `numcli` script calls the [project.scripts] target; it
    # must be the main() that the module's __main__ guard calls, which the
    # test above runs through -m
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        scripts = fh.read().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    ((name, module, attr),) = re.findall(r'^(\w+) = "([\w.]+):(\w+)"$', scripts, re.M)
    assert name == "numcli"
    assert getattr(importlib.import_module(module), attr) is numcli.main
    guard = ast.parse(inspect.getsource(numcli)).body[-1]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    sys.exit(main())"


# CSV serialization


def test_write_csv_golden():
    out = numcli.write_csv(["a", "b"], [[1, 2.5]])
    assert out == b"a,b\n1,2.5\n"
    assert numcli.write_csv(["a"], [[True]]) == b"a\n1\n"


def test_csv_round_trip_is_bitwise():
    rows = [
        [1.0 / 3.0, 0.1, -2.5e300],
        [5e-324, 123456789.123456789, -0.0],
    ]
    blob = numcli.write_csv(["p", "q", "r"], rows)
    headers, got = numcli.read_csv(blob)
    assert headers == ["p", "q", "r"]
    for want_row, got_row in zip(rows, got):
        for want, got_v in zip(want_row, got_row):
            assert math.copysign(1.0, want) == math.copysign(1.0, got_v)
            assert want == got_v
    assert numcli.write_csv(headers, got) == blob


def test_write_csv_rejects_non_finite():
    with pytest.raises(NonFinite):
        numcli.write_csv(["x"], [[float("nan")]])
    with pytest.raises(NonFinite):
        numcli.write_csv(["x"], [[float("inf")]])


def test_write_csv_rejects_ragged_rows():
    with pytest.raises(MalformedCsv):
        numcli.write_csv(["a", "b"], [[1.0]])


def test_write_csv_raises_for_the_first_bad_row():
    # rows are checked in order, each for its width before its cells
    nan = float("nan")
    with pytest.raises(MalformedCsv, match="^row of 1 cells under 2 headers$"):
        numcli.write_csv(["a", "b"], [[1.0, 2.0], [1.0], [nan, 2.0]])
    with pytest.raises(NonFinite, match="^refusing to serialize a non-finite value$"):
        numcli.write_csv(["a", "b"], [[1.0, 2.0], [nan, 2.0], [1.0]])
    with pytest.raises(MalformedCsv):
        numcli.write_csv(["a", "b"], [[nan, 2.0, 3.0]])


def test_write_csv_cells_of_every_kind():
    # exact floats first; bools as 0/1, ints as themselves, anything else
    # through float()
    class Half(float):
        pass

    rows = [[0.1, -0.0, 5e-324], [True, 2**70, Half(0.5)], ["1e3", False, -7]]
    assert numcli.write_csv(["a", "b", "c"], rows) == (
        b"a,b,c\n0.10000000000000001,-0,4.9406564584124654e-324\n1,1180591620717411303424,0.5\n1000,0,-7\n"
    )


def test_read_csv_rejects_garbage():
    with pytest.raises(MalformedCsv):
        numcli.read_csv(b"x,y\n1,banana\n")
    with pytest.raises(MalformedCsv):
        numcli.read_csv(b"x,y\n1\n")
    with pytest.raises(MalformedCsv):
        numcli.read_csv(b"")


def test_matrix_csv_round_trip():
    m = Matrix.from_rows([[1.5, -2.0, 3.25], [0.0, 1e-12, 7.0]])
    blob = numcli.write_matrix_csv(m)
    assert blob.startswith(b"2,3\n")
    back = numcli.read_matrix_csv(blob)
    assert back.rows == 2 and back.cols == 3
    assert back.data == m.data


def test_read_matrix_csv_rejects_wrong_body():
    with pytest.raises(MalformedCsv):
        numcli.read_matrix_csv(b"2,2\n1,2\n")


# PGM serialization


def test_write_pgm_one_pixel_golden():
    out = numcli.write_pgm(Image2D(1, 1, [0.0]))
    assert out == b"P2\n1 1\n255\n0\n"


def test_write_pgm_wrap_at_70_and_71_columns_golden():
    full = " ".join(["255"] * 17)  # 67 characters
    out = numcli.write_pgm(Image2D(1, 19, [255.0] * 17 + [12.0, 7.0]))
    assert out == ("P2\n19 1\n255\n" + full + " 12\n7\n").encode()
    out = numcli.write_pgm(Image2D(1, 19, [255.0] * 17 + [123.0, 7.0]))
    assert out == ("P2\n19 1\n255\n" + full + "\n123 7\n").encode()
    out = numcli.write_pgm(Image2D(1, 1, [254.9999999]))
    assert out == b"P2\n1 1\n255\n255\n"


def test_pgm_round_trip_exact():
    data = [float((13 * k + 7) % 256) for k in range(35)]
    img = Image2D(5, 7, data)
    blob = numcli.write_pgm(img)
    back = numcli.read_pgm(blob)
    assert (back.rows, back.cols) == (5, 7)
    assert back.data == data
    assert numcli.write_pgm(back) == blob


def test_pgm_lines_fit_in_70_columns():
    img = Image2D(1, 200, [255.0] * 200)
    for line in numcli.write_pgm(img).decode().split("\n"):
        assert len(line) <= 70


def test_write_pgm_rejects_bad_pixels():
    for bad in (256.0, -1.0, 3.5):
        with pytest.raises(MalformedPgm):
            numcli.write_pgm(Image2D(1, 1, [bad]))


def test_read_pgm_rejects_binary_and_bad_headers():
    with pytest.raises(MalformedPgm):
        numcli.read_pgm(b"P5\n1 1\n255\n\x00")
    with pytest.raises(MalformedPgm):
        numcli.read_pgm(b"P2\n1 1\n65535\n0\n")
    with pytest.raises(MalformedPgm):
        numcli.read_pgm(b"P2\n2 2\n255\n0 0 0\n")
    with pytest.raises(MalformedPgm):
        numcli.read_pgm(b"P2\n1 1\n255\n300\n")


def test_read_pgm_rejects_non_positive_dimensions():
    for blob in (b"P2\n-2 -2\n255\n1 2 3 4\n", b"P2\n0 3\n255\n", b"P2\n2 0\n255\n"):
        with pytest.raises(MalformedPgm):
            numcli.read_pgm(blob)


def test_read_pgm_allows_comments():
    img = numcli.read_pgm(b"P2\n# made by hand\n2 1\n255\n9 11\n")
    assert img.data == [9.0, 11.0]


# exit-code contract: run() returns 0 with no stderr, or 1 (usage error: a bad
# flag, a missing or unwritable file, or ValueError, the library's argument
# check) or 2 (a NumericsError or Python ArithmeticError, named by its class)
# with no stdout and one stderr line; it never raises


_STDERR_FORMS = {0: r"\Z", 1: r"usage error: .*\n\Z", 2: r"[A-Z]\w*: .*\n\Z"}


def _keeps_contract(rc, out, err):
    return rc in _STDERR_FORMS and re.match(_STDERR_FORMS[rc], err) and (rc == 0 or out == "")


_CHECKER = Image2D(8, 8, [float(((r + c) % 2) * 200 + 20) for r in range(8) for c in range(8)])
_CHECKER_PGM = numcli.write_pgm(_CHECKER)

# (argv, input files written to {tmp}, exit code, pattern): the call exits
# with the code, and the pattern is found in its stderr, or in its stdout
# when it exits 0
_EXITS = {
    "unknown-subcommand": (["bogus"], {}, 1, "invalid choice: 'bogus'"),
    "missing-required-flag": (["roots"], {}, 1, "required: --f"),
    "bad-choice": (["solve", "--method", "sorcery"], {}, 1, "invalid choice: 'sorcery'"),
    "missing-input-file": (["linalg", "--op", "det", "--in", "/nope/none.csv"], {}, 1, "none.csv"),
    "help": (["--help"], {}, 0, "linalg"),
    "seed-on-eig": (["eig", "--seed", "1"], {}, 1, "^usage error: unrecognized arguments: --seed 1$"),
    "heat-unstable": (["heat", "--alpha", "0.01", "--L", "1", "--nx", "100", "--nt", "10", "--t", "1"],
                      {}, 2, "^Unstable: .*unstable"),
    "stiff-explicit-euler": (["ode", "--problem", "stiff", "--method", "euler"], {}, 2, "^NonFinite: "),
    "bisection-no-sign-change": (["roots", "--f", "quad", "--method", "bisection"], {}, 2, "^NoSignChange: "),
    # a valid length near the float maximum: x / L is formed before pi * (x / L)
    "heat-huge-length": (["heat", "--L", "1e308", "--alpha", "1", "--nx", "10", "--nt", "100", "--t", "1e300"],
                         {}, 0, "\n1.1111111111111111e\\+307,0.34202014332566871\n"),
    # flag values out of their range
    "heat-nx-2": (["heat", "--alpha", "0.01", "--L", "10", "--nx", "2", "--nt", "100", "--t", "1"],
                  {}, 1, "^usage error: "),
    "ode-negative-h": (["ode", "--problem", "decay", "--method", "rk4", "--h", "-0.1"], {}, 1, "^usage error: "),
    "ode-subnormal-h": (["ode", "--problem", "decay", "--method", "rk4", "--h", "5e-324"], {}, 1, "^usage error: "),
    "xor-eta-0": (["xor", "--eta", "0"], {}, 1, "^usage error: "),
    "xor-eta-nan": (["xor", "--eta", "nan"], {}, 2, "^NonFinite: eta is not finite: nan$"),
    "qlearn-alpha-2": (["qlearn", "--alpha", "2"], {}, 1, "^usage error: "),
    "qlearn-alpha-nan": (["qlearn", "--alpha", "nan"], {}, 2, "^NonFinite: alpha is not finite: nan$"),
    "optimize-negative-eta": (["optimize", "--objective", "bowl2d", "--method", "adam", "--eta", "-1"],
                              {}, 1, "^usage error: "),
    "fft-infinite-freq": (["fft", "--freq", "inf"], {}, 1, "^usage error: "),
    # 2 pi freq alone overflows: k / fs is formed first, then freq (k / fs)
    "fft-huge-freq": (["fft", "--freq", "1e308", "--n", "2"], {}, 0,
                      "^freq,re,im,magnitude\n0,0.0340765027"),
    "roots-system-of-sin": (["roots", "--f", "sin", "--method", "system"], {}, 1, "requires --f circlepara"),
    "roots-newton-of-circlepara": (["roots", "--f", "circlepara", "--method", "newton"],
                                   {}, 1, "requires a scalar function"),
    "interp-num-1": (["interp", "--method", "linear", "--num", "1"], {}, 1, "need --num >= 2"),
    "interp-hi-below-lo": (["interp", "--method", "linear", "--lo", "2", "--hi", "0"], {}, 1, "--hi > --lo"),
    "out-in-missing-dir": (["eig", "--out", "{tmp}/missing/eig.csv"], {}, 1, "^usage error: "),
    "out-is-a-dir": (["eig", "--out", "{tmp}/."], {}, 1, "^usage error: "),
    # Python arithmetic errors
    "overflow": (["optimize", "--objective", "rosenbrock", "--method", "gd", "--eta", "1e10"],
                 {}, 2, "^OverflowError: "),
    "zero-division": (["fft", "--fs", "0"], {}, 2, "^ZeroDivisionError: "),
    # input files the library rejects
    "knots-without-rows": (["interp", "--method", "linear", "--knots", "{tmp}/knots.csv"],
                           {"knots.csv": b"x,y\n"}, 2, "^MalformedCsv: knot CSV has no data rows$"),
    "pgm-negative-dims": (["image-lowpass", "--in", "{tmp}/neg.pgm", "--keep", "1"],
                          {"neg.pgm": b"P2\n-2 -2\n255\n1 2 3 4\n"}, 2, "^MalformedPgm: "),
    "inv-singular": (["linalg", "--op", "inv", "--in", "{tmp}/sing.csv"],
                     {"sing.csv": b"2,2\n1,2\n2,4\n"}, 2, "^Singular: "),
    "fft-not-power-of-two": (["fft", "--in", "{tmp}/sig.csv"], {"sig.csv": b"v\n" + b"1\n" * 12},
                             2, "^NotPowerOfTwo: "),
    "lowpass-keep-0": (["image-lowpass", "--in", "{tmp}/in.pgm", "--keep", "0"],
                       {"in.pgm": _CHECKER_PGM}, 2, "^BadKeep: "),
}


@pytest.mark.parametrize("argv, files, code, pattern", _EXITS.values(), ids=list(_EXITS))
def test_exit_code_and_stderr(argv, files, code, pattern, tmp_path, capsys):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    rc, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert rc == code and _keeps_contract(rc, out, err), (rc, out, err)
    assert re.search(pattern, err if rc else out)


def test_out_flag_matches_stdout(tmp_path, capsys):
    rc, out, _ = run(["eig"], capsys)
    assert rc == 0
    path = tmp_path / "eig.csv"
    rc2, out2, _ = run(["eig", "--out", str(path)], capsys)
    assert rc2 == 0 and out2 == ""
    assert path.read_bytes() == out.encode()


# The sweep: every flag that build_parser() declares, moved through the values
# of its type (or to each of its choices), from one base argument list per
# subcommand, under every combination of the subcommand's choices. Whatever
# the value, run() keeps the contract.

_FLOAT_VALUES = [
    "0", "-0.0", "-1", "1", "3", "nan", "inf", "-inf",
    "1e308", "1e200", "1e10", "5e-324", "1e-200",
]
_COUNT_VALUES = ["-1", "0", "1", "3", "x"]
_INPUT_FILES = {
    "header-only.csv": b"x,y\n",
    "one-row.csv": b"x,y\n0,1\n",
    "duplicate-x.csv": b"x,y\n0,1\n0,2\n1,3\n",
    "wrong-columns.csv": b"x,y\n0,1,2\n",
    "empty-body.csv": b"2,2\n",
    "in.pgm": _CHECKER_PGM,
}
# the values of a flag by its argparse type; a path flag is read, unless
# its dest is one of _WRITTEN
_VALUES = {
    float: _FLOAT_VALUES,
    int: _COUNT_VALUES,
    None: [f"{{tmp}}/{name}" for name in _INPUT_FILES] + ["{tmp}/none.csv", "{tmp}"],
}
_WRITTEN = dict.fromkeys(["out", "spectrum"], ["{tmp}/written", "{tmp}/missing/written", "{tmp}"])

_SUBCOMMANDS = next(
    a.choices for a in numcli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
)

# the required flags of each subcommand, and small sizes
_BASE = {
    "linalg": ["--op", "det"],
    "solve": ["--method", "gauss"],
    "eig": [],
    "roots": ["--f", "x2m4", "--method", "bisection"],
    "interp": ["--method", "linear"],
    "integrate": ["--method", "simpson", "--f", "sin", "--a", "0", "--b", "3", "--n", "8"],
    "fft": [],
    "image-lowpass": ["--in", "{tmp}/in.pgm", "--keep", "3"],
    "optimize": ["--objective", "rosenbrock", "--method", "gd", "--iters", "20"],
    "ode": ["--problem", "decay", "--method", "rk4"],
    "heat": ["--alpha", "0.01", "--L", "10", "--nx", "21", "--nt", "100", "--t", "1"],
    "xor": ["--epochs", "20"],
    "qlearn": ["--episodes", "20"],
}


def _with_flag(argv, flag, value):
    if flag in argv:
        i = argv.index(flag) + 1
        return argv[:i] + [value] + argv[i + 1:]
    return argv + [flag, value]


def _flag_values(command):
    """Each flag of the subcommand but --help, the values the sweep gives it,
    and whether they are its choices."""
    flags = []
    for a in _SUBCOMMANDS[command]._actions:
        if not isinstance(a, argparse._HelpAction):
            assert a.nargs is None, f"no sweep values for {a.option_strings}"
            values = a.choices or _WRITTEN.get(a.dest) or _VALUES[a.type]
            flags.append((a.option_strings[0], values, bool(a.choices)))
    return flags


def _sweep(command):
    """Every argument list of the sweep of the subcommand."""
    flags = _flag_values(command)
    chosen = [(flag, values) for flag, values, choice in flags if choice]
    others = [(flag, values) for flag, values, choice in flags if not choice]
    for combo in itertools.product(*(values for _, values in chosen)):
        argv = [command, *_BASE[command]]
        for (flag, _), value in zip(chosen, combo):
            argv = _with_flag(argv, flag, value)
        yield argv
        for flag, values in others:
            for value in values:
                yield _with_flag(argv, flag, value)


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_no_flag_value_escapes_the_exit_contract(command, tmp_path, capsys):
    for name, data in _INPUT_FILES.items():
        (tmp_path / name).write_bytes(data)
    broken, moved = [], set()
    for argv in _sweep(command):
        moved.update(zip(argv[1::2], argv[2::2]))
        try:
            rc = numcli.run([a.replace("{tmp}", str(tmp_path)) for a in argv])
        except Exception as exc:  # the contract under test: nothing escapes
            broken.append((argv, repr(exc)))
            continue
        out, err = capsys.readouterr()
        if not _keeps_contract(rc, out, err):
            broken.append((argv, rc, err))
    assert broken == []
    assert {(flag, v) for flag, values, _ in _flag_values(command) for v in values} <= moved


# run() parses with one parser per process, so one session of calls, usage
# errors and --help included, must give what a parser built afresh for every
# call gives. The same session run in two fresh interpreters, in order under
# PYTHONHASHSEED=0 and in reverse under PYTHONHASHSEED=1, must give it again:
# no exit code, output or artifact may depend on the hash seed or on the calls
# made before it.

# (exit code, argv)
_SESSION = [
    (0, ["linalg", "--op", "inv"]),
    (0, ["solve", "--method", "cg", "--out", "{tmp}/solve.csv"]),
    (0, ["eig"]),
    (0, ["roots", "--f", "x2m4", "--method", "secant"]),
    (1, ["solve", "--method", "bogus"]),
    (0, ["roots", "--f", "circlepara", "--method", "broyden"]),
    (2, ["roots", "--f", "quad", "--method", "bisection"]),
    (0, ["interp", "--method", "spline", "--num", "9"]),
    (0, ["integrate", "--method", "simpson", "--f", "sin", "--a", "0", "--b", "3.14159", "--n", "64"]),
    (0, ["fft", "--n", "16", "--freq", "2", "--fs", "16"]),
    (0, ["xor", "--help"]),
    (0, ["fft", "--out", "{tmp}/fft.csv"]),
    (0, ["image-lowpass", "--in", "{tmp}/in.pgm", "--keep", "3",
         "--spectrum", "{tmp}/spec.pgm", "--out", "{tmp}/low.pgm"]),
    (0, ["optimize", "--objective", "rosenbrock", "--method", "adam", "--iters", "50"]),
    (0, ["ode", "--problem", "stiff", "--method", "backward_euler", "--out", "{tmp}/ode.csv"]),
    (0, ["heat", "--alpha", "0.01", "--L", "10", "--nx", "21", "--nt", "100", "--t", "1"]),
    (0, ["xor", "--epochs", "50", "--seed", "3"]),
    (0, ["qlearn", "--episodes", "200", "--out", "{tmp}/q.csv"]),
    (1, ["integrate", "--f", "sin"]),
    (0, ["linalg", "--op", "det"]),
    (0, ["image-lowpass", "--in", "{tmp}/checker.pgm", "--keep", "3",
         "--spectrum", "{tmp}/spec.pgm", "--out", "{tmp}/low.pgm"]),
    # every artifact through --out, with a usage error, a Python arithmetic
    # error and an unwritable --out (a directory) in between
    (0, ["xor", "--epochs", "200", "--out", "{tmp}/xor.csv"]),
    (0, ["linalg", "--op", "inv", "--out", "{tmp}/inv.csv"]),
    (0, ["eig", "--out", "{tmp}/eig.csv"]),
    (0, ["roots", "--f", "x2m4", "--method", "newton", "--out", "{tmp}/newton.csv"]),
    (0, ["roots", "--f", "circlepara", "--method", "system", "--out", "{tmp}/system.csv"]),
    (1, ["fft", "--n", "many"]),
    (0, ["roots", "--f", "circlepara", "--method", "broyden", "--out", "{tmp}/broyden.csv"]),
    (0, ["interp", "--method", "spline", "--num", "9", "--out", "{tmp}/spline.csv"]),
    (0, ["integrate", "--method", "simpson", "--f", "sin", "--a", "0", "--b", "3", "--n", "64",
         "--out", "{tmp}/simpson.csv"]),
    (1, ["xor", "--eta", "0"]),
    (0, ["fft", "--n", "16", "--freq", "2", "--fs", "16", "--out", "{tmp}/fft16.csv"]),
    (0, ["image-lowpass", "--in", "{tmp}/in.pgm", "--keep", "3", "--out", "{tmp}/low.pgm"]),
    (2, ["optimize", "--objective", "rosenbrock", "--method", "gd", "--eta", "1e10", "--iters", "3"]),
    (0, ["optimize", "--objective", "rosenbrock", "--method", "adam", "--iters", "50",
         "--out", "{tmp}/adam.csv"]),
    (0, ["heat", "--alpha", "0.01", "--L", "10", "--nx", "21", "--nt", "100", "--t", "1",
         "--out", "{tmp}/heat.csv"]),
    (1, ["eig", "--out", "{tmp}"]),
    (0, ["xor", "--epochs", "200", "--seed", "3", "--out", "{tmp}/xor3.csv"]),
    # one run of each remaining subcommand off its defaults
    (0, ["linalg", "--op", "matmul"]),
    (0, ["solve", "--method", "gauss_seidel"]),
    (0, ["roots", "--f", "sin", "--method", "secant"]),
    (0, ["integrate", "--method", "trapezoid", "--f", "quad", "--a", "0", "--b", "2", "--n", "100"]),
    (0, ["fft", "--n", "32", "--freq", "4", "--fs", "32"]),
    (0, ["optimize", "--objective", "rosenbrock", "--method", "adam", "--iters", "25",
         "--schedule", "cosine"]),
    (0, ["ode", "--problem", "lti", "--method", "rk4", "--h", "0.1"]),
    (0, ["heat", "--alpha", "0.01", "--L", "10", "--nx", "11", "--nt", "50", "--t", "1"]),
    (0, ["xor", "--epochs", "40", "--seed", "2"]),
    (0, ["qlearn", "--episodes", "60", "--seed", "5"]),
]
_SESSION_ARGS = [args for _, args in _SESSION]


def _session_inputs(tmp):
    """The session's input images: in.pgm, a ramp with no symmetry, and
    checker.pgm."""
    (tmp / "checker.pgm").write_bytes(_CHECKER_PGM)
    ramp = Image2D(8, 8, [float((r * 37 + c * 11) % 256) for r in range(8) for c in range(8)])
    (tmp / "in.pgm").write_bytes(numcli.write_pgm(ramp))


def _run_session(session, tmp):
    """Each call's exit code, stdout and stderr, with tmp written back as
    {tmp}, and, for a call that exits 0, the hex bytes of its --out and
    --spectrum files, which must exist and are removed. The fresh
    interpreters run this function's source."""
    results = []
    for args in session:
        argv = [a.replace("{tmp}", tmp) for a in args]
        outs = [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--spectrum")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = numcli.run(argv)
        files = []
        for path in outs if rc == 0 else ():
            with open(path, "rb") as fh:
                files.append(fh.read().hex())
            os.remove(path)
        results.append([rc, out.getvalue().replace(tmp, "{tmp}"),
                        err.getvalue().replace(tmp, "{tmp}"), files])
    return results


def _session_child(session, tmp, hash_seed):
    """A fresh interpreter running session in tmp; it prints the results
    as JSON."""
    script = "\n".join([
        "import contextlib, io, json, os, sys",
        "from desknum import numcli",
        inspect.getsource(_run_session),
        "print(json.dumps(_run_session(json.loads(sys.argv[1]), sys.argv[2])))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(numcli.__file__)))
    return subprocess.Popen(
        [sys.executable, "-c", script, json.dumps(session), str(tmp)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(hash_seed)),
    )


def test_reused_parser_matches_a_fresh_parser_per_call(tmp_path):
    """The session run with the reused parser, with a fresh parser per call,
    in the forward child and in the reverse child (put back in forward
    order): every call's results are the same in all four."""
    here, fwd_dir, rev_dir = dirs = [tmp_path / name for name in ("here", "fwd", "rev")]
    for tmp in dirs:
        tmp.mkdir()
        _session_inputs(tmp)
    with pytest.MonkeyPatch.context() as mp:
        # argparse wraps --help to the terminal width, read from COLUMNS here
        # and in the children
        mp.setenv("COLUMNS", "80")
        # the children run while this process runs the session twice
        with _session_child(_SESSION_ARGS, fwd_dir, 0) as fwd, \
                _session_child(_SESSION_ARGS[::-1], rev_dir, 1) as rev:
            try:
                assert numcli.build_parser() is not numcli.build_parser()
                reused = _run_session(_SESSION_ARGS, str(here))
                assert numcli._parser() is numcli._parser()
                mp.setattr(numcli, "_parser", numcli.build_parser)
                fresh = _run_session(_SESSION_ARGS, str(here))
                children = [proc.communicate(timeout=120) for proc in (fwd, rev)]
            except BaseException:
                # leaving the with block waits for the children, with no timeout
                fwd.kill()
                rev.kill()
                raise
    assert [(proc.returncode, err) for proc, (_, err) in zip((fwd, rev), children)] == [(0, "")] * 2
    runs = [reused, fresh, json.loads(children[0][0]), json.loads(children[1][0])[::-1]]
    assert [r[0] for r in reused] == [code for code, _ in _SESSION]
    assert all(_keeps_contract(rc, out, err) for rc, out, err, _ in reused)
    assert "numcli xor" in reused[_SESSION_ARGS.index(["xor", "--help"])][1]
    assert [args for args, *results in zip(_SESSION_ARGS, *runs) if any(r != results[0] for r in results)] == []


# subcommand outputs


def test_linalg_matmul_golden(capsys):
    rc, out, _ = run(["linalg", "--op", "matmul"], capsys)
    assert rc == 0
    assert out == "2,2\n19,22\n43,50\n"


def test_linalg_det_and_inv(capsys):
    rc, out, _ = run(["linalg", "--op", "det"], capsys)
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    assert abs(rows[0][0] - (-2.0)) < 1e-12

    rc, out, _ = run(["linalg", "--op", "inv"], capsys)
    m = numcli.read_matrix_csv(out.encode())
    want = [-2.0, 1.0, 1.5, -0.5]
    assert max(abs(a - b) for a, b in zip(m.data, want)) < 1e-12


def test_solve_direct_solution(capsys):
    for method in ("gauss", "lu", "qr", "inverse"):
        rc, out, _ = run(["solve", "--method", method], capsys)
        assert rc == 0
        _, rows = numcli.read_csv(out.encode())
        x = rows[0]
        # residual against the fixture system [[1,2],[3,4]] x = [5,6]
        assert abs(x[0] + 2 * x[1] - 5) < 1e-10
        assert abs(3 * x[0] + 4 * x[1] - 6) < 1e-10


def test_solve_iterative_reports_convergence(capsys):
    for method in ("jacobi", "gauss_seidel", "cg"):
        rc, out, _ = run(["solve", "--method", method], capsys)
        assert rc == 0
        headers, rows = numcli.read_csv(out.encode())
        assert headers == ["x0", "x1", "iterations", "residual", "converged"]
        x0, x1, _, _, converged = rows[0]
        assert converged == 1.0
        assert abs(x0 - 1.0 / 11.0) < 1e-8
        assert abs(x1 - 7.0 / 11.0) < 1e-8


def test_eig_fixture_eigenvalues(capsys):
    rc, out, _ = run(["eig"], capsys)
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    lams = [r[0] for r in rows]
    root = math.sqrt(33.0)
    assert abs(lams[0] - (5.0 + root) / 2.0) < 1e-10
    assert abs(lams[1] - (5.0 - root) / 2.0) < 1e-10


def test_roots_scalar_methods(capsys):
    for method in ("bisection", "newton", "secant", "fixed_point"):
        rc, out, _ = run(["roots", "--f", "x2m4", "--method", method], capsys)
        assert rc == 0
        _, rows = numcli.read_csv(out.encode())
        root, _, _, converged = rows[0]
        assert converged == 1.0
        assert abs(root - 2.0) < 1e-6


def test_roots_newton_finds_pi(capsys):
    rc, out, _ = run(["roots", "--f", "sin", "--method", "newton"], capsys)
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    assert abs(rows[0][0] - math.pi) < 1e-8


def test_roots_system_circle_parabola(capsys):
    # intersection obeys x^2 = y and x^2 + y^2 = 1, so y is the golden
    # ratio conjugate (sqrt(5) - 1) / 2
    y_want = (math.sqrt(5.0) - 1.0) / 2.0
    x_want = math.sqrt(y_want)
    for method in ("system", "broyden"):
        rc, out, _ = run(["roots", "--f", "circlepara", "--method", method], capsys)
        assert rc == 0
        _, rows = numcli.read_csv(out.encode())
        x, y, _, _, converged = rows[0]
        assert converged == 1.0
        assert abs(x - x_want) < 1e-6
        assert abs(y - y_want) < 1e-6


def test_interp_default_knots_polynomial_value(capsys):
    # quadratic through (0,1), (1,3), (2,2) evaluates to 2.875 at 1.5
    for method in ("lagrange", "newton"):
        rc, out, _ = run(
            ["interp", "--method", method, "--num", "5"], capsys
        )
        assert rc == 0
        _, rows = numcli.read_csv(out.encode())
        assert len(rows) == 5
        by_x = {r[0]: r[1] for r in rows}
        assert abs(by_x[1.5] - 2.875) < 1e-12


def test_interp_passes_through_knots(capsys):
    for method in ("spline", "linear"):
        rc, out, _ = run(["interp", "--method", method, "--num", "5"], capsys)
        assert rc == 0
        _, rows = numcli.read_csv(out.encode())
        by_x = {r[0]: r[1] for r in rows}
        for x, y in ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)):
            assert abs(by_x[x] - y) < 1e-12


def test_interp_reads_knot_file(tmp_path, capsys):
    path = tmp_path / "knots.csv"
    xs = [0.0, 1.0, 2.0, 3.0]
    path.write_bytes(numcli.write_csv(["x", "y"], [[x, x * x] for x in xs]))
    rc, out, _ = run(
        ["interp", "--method", "newton", "--knots", str(path), "--num", "7"],
        capsys,
    )
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    for x, y in rows:
        assert abs(y - x * x) < 1e-10


def test_integrate_reports_value_exact_error(capsys):
    rc, out, _ = run(
        ["integrate", "--method", "simpson", "--f", "sin",
         "--a", "0", "--b", str(math.pi), "--n", "64"],
        capsys,
    )
    assert rc == 0
    headers, rows = numcli.read_csv(out.encode())
    assert headers == ["value", "exact", "abs_error"]
    value, exact, abs_error = rows[0]
    assert exact == 2.0
    assert abs(value - 2.0) < 1e-6
    assert abs_error == abs(value - exact)


def test_integrate_gauss_is_tight(capsys):
    rc, out, _ = run(
        ["integrate", "--method", "gauss", "--f", "quad",
         "--a", "-1", "--b", "2", "--n", "8"],
        capsys,
    )
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    assert rows[0][2] < 1e-12


def test_fft_synthetic_peak_at_requested_frequency(capsys):
    rc, out, _ = run(["fft"], capsys)
    assert rc == 0
    headers, rows = numcli.read_csv(out.encode())
    assert headers == ["freq", "re", "im", "magnitude"]
    assert len(rows) == 128
    peak = max((r for r in rows if r[0] > 0), key=lambda r: r[3])
    assert peak[0] == 8.0


def test_fft_reads_signal_csv(tmp_path, capsys):
    n, fs = 16, 16.0
    signal = [math.sin(2.0 * math.pi * 3.0 * k / fs) for k in range(n)]
    path = tmp_path / "sig.csv"
    path.write_bytes(numcli.write_csv(["v"], [[s] for s in signal]))
    rc, out, _ = run(["fft", "--in", str(path), "--fs", "16"], capsys)
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    peak = max((r for r in rows if r[0] > 0), key=lambda r: r[3])
    assert peak[0] == 3.0


def _checker_pgm(tmp_path):
    path = tmp_path / "in.pgm"
    path.write_bytes(_CHECKER_PGM)
    return path, _CHECKER


def test_image_lowpass_keep_all_is_identity(tmp_path, capsys):
    path, img = _checker_pgm(tmp_path)
    out_path = tmp_path / "out.pgm"
    rc, _, _ = run(
        ["image-lowpass", "--in", str(path), "--keep", "8",
         "--out", str(out_path)],
        capsys,
    )
    assert rc == 0
    assert out_path.read_bytes() == path.read_bytes()


def test_image_lowpass_keep_one_is_flat(tmp_path, capsys):
    path, img = _checker_pgm(tmp_path)
    out_path = tmp_path / "out.pgm"
    rc, _, _ = run(
        ["image-lowpass", "--in", str(path), "--keep", "1",
         "--out", str(out_path)],
        capsys,
    )
    assert rc == 0
    back = numcli.read_pgm(out_path.read_bytes())
    mean = sum(img.data) / len(img.data)
    assert all(abs(v - mean) <= 0.5 + 1e-9 for v in back.data)


def test_image_lowpass_writes_spectrum_pgm(tmp_path, capsys):
    path, _ = _checker_pgm(tmp_path)
    spec_path = tmp_path / "spec.pgm"
    rc, out, _ = run(
        ["image-lowpass", "--in", str(path), "--keep", "4",
         "--spectrum", str(spec_path)],
        capsys,
    )
    assert rc == 0
    shot = numcli.read_pgm(spec_path.read_bytes())
    assert (shot.rows, shot.cols) == (8, 8)
    assert min(shot.data) == 0.0
    assert max(shot.data) == 255.0


def test_image_lowpass_spectrum_keeps_pooled_bytes(tmp_path, capsys):
    rng = random.Random(5)
    img = Image2D(8, 16, [float(rng.randrange(256)) for _ in range(128)])
    path = tmp_path / "in.pgm"
    path.write_bytes(numcli.write_pgm(img))
    for keep in (1, 3, 8):
        plain, with_spec = tmp_path / "plain.pgm", tmp_path / "with_spec.pgm"
        base = ["image-lowpass", "--in", str(path), "--keep", str(keep)]
        assert run(base + ["--out", str(plain)], capsys)[0] == 0
        spec = ["--spectrum", str(tmp_path / "spec.pgm"), "--out", str(with_spec)]
        assert run(base + spec, capsys)[0] == 0
        assert plain.read_bytes() == with_spec.read_bytes()


def test_optimize_gd_first_steps_match_hand_values(capsys):
    rc, out, _ = run(
        ["optimize", "--objective", "quadratic1d", "--method", "gd",
         "--eta", "0.1", "--iters", "2"],
        capsys,
    )
    assert rc == 0
    headers, rows = numcli.read_csv(out.encode())
    assert headers == ["step", "x0", "f", "lr"]
    assert rows[0][:3] == [0.0, 10.0, 144.0]
    assert abs(rows[1][1] - 7.6) < 1e-15
    assert abs(rows[1][2] - 92.16) < 1e-12
    assert len(rows) == 3


def test_optimize_adam_matches_library_stepper(capsys):
    from desknum import optimize as opt

    rc, out, _ = run(
        ["optimize", "--objective", "bowl2d", "--method", "adam",
         "--eta", "0.05", "--iters", "4"],
        capsys,
    )
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    theta = [0.0, 0.0]
    state = opt.OptState.zeros(2)
    cfg = opt.OptConfig(eta=0.05)
    for k in range(4):
        g = [2.0 * (theta[0] - 3.0), 2.0 * (theta[1] - 2.0)]
        vec, state = opt.optimizer_step("adam", theta, g, state, cfg)
        theta = list(vec.data)
        assert abs(rows[k + 1][1] - theta[0]) < 1e-15
        assert abs(rows[k + 1][2] - theta[1]) < 1e-15


def test_optimize_schedule_changes_lr_column(capsys):
    rc, out, _ = run(
        ["optimize", "--objective", "quadratic1d", "--method", "gd",
         "--eta", "0.1", "--iters", "12", "--schedule", "step"],
        capsys,
    )
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    lrs = [r[3] for r in rows]
    assert lrs[0] == 0.1
    assert lrs[-1] == 0.05


def test_ode_decay_rk4_tracks_exponential(capsys):
    rc, out, _ = run(["ode", "--problem", "decay", "--method", "rk4"], capsys)
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    for t, y in rows:
        assert abs(y - math.exp(-2.0 * t)) < 1e-5


def test_ode_stiff_backward_euler_end_value(capsys):
    rc, out, _ = run(
        ["ode", "--problem", "stiff", "--method", "backward_euler"], capsys
    )
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    t_end, y_end = rows[-1]
    assert t_end == 5.0
    exact = (
        3.0
        - (2000.0 / 999.0) * math.exp(-5.0)
        - (997.0 / 999.0) * math.exp(-5000.0)
    )
    assert abs(y_end - exact) < 0.01


def test_heat_matches_separated_solution(capsys):
    rc, out, _ = run(
        ["heat", "--alpha", "0.01", "--L", "1", "--nx", "51",
         "--nt", "2000", "--t", "1"],
        capsys,
    )
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    assert len(rows) == 51
    decay = math.exp(-0.01 * math.pi**2 * 1.0)
    for x, u in rows:
        assert abs(u - math.sin(math.pi * x) * decay) < 1e-3


def test_xor_loss_history_shrinks(capsys):
    rc, out, _ = run(["xor", "--epochs", "300"], capsys)
    assert rc == 0
    headers, rows = numcli.read_csv(out.encode())
    assert headers == ["epoch", "loss"]
    assert len(rows) == 300
    assert rows[-1][1] < rows[0][1]


def test_xor_zero_epochs_writes_header_only(capsys):
    rc, out, _ = run(["xor", "--epochs", "0"], capsys)
    assert rc == 0
    assert out == "epoch,loss\n"


def test_qlearn_table_shape_and_bounds(capsys):
    rc, out, _ = run(["qlearn", "--episodes", "300"], capsys)
    assert rc == 0
    headers, rows = numcli.read_csv(out.encode())
    assert headers == ["state", "q0", "q1"]
    assert [r[0] for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert rows[4][1] == 0.0 and rows[4][2] == 0.0
    assert all(abs(v) <= 110.0 for r in rows for v in r[1:])


def test_qlearn_zero_episodes_is_zero_table(capsys):
    rc, out, _ = run(["qlearn", "--episodes", "0"], capsys)
    assert rc == 0
    _, rows = numcli.read_csv(out.encode())
    assert all(v == 0.0 for r in rows for v in r[1:])


def test_qlearn_seed_changes_output(capsys):
    _, out_a, _ = run(["qlearn", "--episodes", "40", "--seed", "0"], capsys)
    _, out_b, _ = run(["qlearn", "--episodes", "40", "--seed", "1"], capsys)
    assert out_a != out_b


# image-lowpass bytes against the float formulas they were first written with


def _reference_spectrum(img: Image2D) -> bytes:
    """The --spectrum PGM from per-pixel float formulas, Image2D and write_pgm."""
    field = spectral.fft2(img)
    mags = [
        math.log1p(math.hypot(rowv.re[j], rowv.im[j]))
        for rowv in field
        for j in range(len(rowv))
    ]
    lo, hi = min(mags), max(mags)
    span = hi - lo
    scaled = [round(255.0 * (m - lo) / span) if span > 0 else 0 for m in mags]
    return numcli.write_pgm(Image2D(img.rows, img.cols, [float(v) for v in scaled]))


def _reference_pooled(img: Image2D, keep: int) -> bytes:
    """The pooled PGM from a per-pixel float round/min/max clamp."""
    pooled = spectral.spectral_pool2d(img, keep)
    clamped = [min(255.0, max(0.0, round(v))) for v in pooled.data]
    return numcli.write_pgm(Image2D(pooled.rows, pooled.cols, clamped))


def _lowpass_image(kind: str, rows: int, cols: int, seed: int) -> Image2D:
    if kind == "constant":
        return Image2D(rows, cols, [float(seed % 256)] * (rows * cols))
    if kind == "checker":
        # 3-pixel cells: no power-of-two symmetry cancels the ringing
        return Image2D(rows, cols, [255.0 * ((r // 3 + c // 3) % 2) for r in range(rows) for c in range(cols)])
    rng = random.Random(seed)
    return Image2D(rows, cols, [float(rng.randrange(256)) for _ in range(rows * cols)])


@settings(deadline=None, max_examples=12)
@given(
    a=st.integers(min_value=0, max_value=6),
    b=st.integers(min_value=0, max_value=6),
    kind=st.sampled_from(["random", "constant", "checker"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(a=4, b=4, kind="checker", seed=0)
@example(a=6, b=6, kind="random", seed=1)
@example(a=0, b=6, kind="constant", seed=77)
@example(a=6, b=1, kind="checker", seed=0)
def test_image_lowpass_bytes_match_float_reference(a, b, kind, seed):
    rows, cols = 1 << a, 1 << b
    img = _lowpass_image(kind, rows, cols, seed)
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.pgm")
        with open(src, "wb") as fh:
            fh.write(numcli.write_pgm(img))
        outs = [os.path.join(tmp, name) for name in ("plain.pgm", "pooled.pgm", "spec.pgm")]
        want_shot = _reference_spectrum(img)
        for keep in range(1, min(rows, cols) + 1):
            want_pooled = _reference_pooled(img, keep)
            base = ["image-lowpass", "--in", src, "--keep", str(keep)]
            assert numcli.run(base + ["--out", outs[0]]) == 0
            assert numcli.run(base + ["--spectrum", outs[2], "--out", outs[1]]) == 0
            got = []
            for path in outs:
                with open(path, "rb") as fh:
                    got.append(fh.read())
            assert got == [want_pooled, want_pooled, want_shot]


def test_checkerboard_pool_rings_outside_pixel_range():
    # the clamp in image-lowpass is reached: these pooled values leave [0, 255]
    img = _lowpass_image("checker", 16, 16, 0)
    pooled = spectral.spectral_pool2d(img, 14).data
    assert min(pooled) < -0.5 and max(pooled) > 255.5
