"""Command-line surface: formats, determinism, exit codes, label round-trips."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_acceptance import ACCEPTANCE_COMMANDS

from hecketree import cli, sl2, tree, verify
from hecketree.cli import main
from hecketree.core import HeckeAlgebra
from hecketree.endstab import HorocycleAlgebra, m_to_nf, toeplitz_bratteli
from hecketree.iwahori import IwahoriAlgebra
from hecketree.sl2 import SL2EndAlgebra, make_prufer
from hecketree.spherical import SphericalAlgebra, SphericalParams


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_python(*args):
    """Run a Python child process with this checkout's ``src`` first on its PYTHONPATH.

    pytest's ``pythonpath`` setting reaches this process alone, so without
    it the child would import whatever ``hecketree`` its environment finds,
    or none.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_table_spherical_contains_known_row(capsys):
    code, out = run_cli(capsys, "table", "spherical", "--q", "2", "--max", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    row = next(r for r in rows if r["key"] == ["G1", "G1"])
    assert row["value"] == [["G0", "3/1"], ["G2", "1/1"]]


def test_table_iwahori_contains_known_row(capsys):
    code, out = run_cli(capsys, "table", "iwahori", "--qs", "2", "--qt", "2", "--len", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    row = next(r for r in rows if r["key"] == ["s", "s"])
    assert row["value"] == [["1", "2/1"], ["s", "1/1"]]


def test_table_affine_contains_known_row(capsys):
    code, out = run_cli(capsys, "table", "affine", "--q", "3", "--max", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    row = next(r for r in rows if r["key"] == ["M1", "M1"])
    assert row["value"] == [["M0", "2/1"], ["M1", "1/1"]]


def _algebra_for(rec):
    family = rec["family"]
    if family == "spherical":
        return SphericalAlgebra(SphericalParams.homogeneous(2))
    if family == "iwahori":
        return IwahoriAlgebra(2, 2)
    if family == "sl2":
        return SL2EndAlgebra(5)
    return HorocycleAlgebra(3)


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "spherical", "--q", "2", "--max", "3"),
        ("table", "iwahori", "--qs", "2", "--qt", "2", "--len", "2"),
        ("table", "affine", "--q", "3", "--max", "2"),
        ("table", "sl2", "--p", "5", "--max", "2"),
    ],
)
def test_table_rows_reparse_and_reverify(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    for line in out.splitlines():
        rec = json.loads(line)
        algebra = _algebra_for(rec)
        a = algebra.parse_label(rec["key"][0])
        b = algebra.parse_label(rec["key"][1])
        recomputed = algebra.basis_element(a) * algebra.basis_element(b)
        parsed = algebra.element(
            {
                algebra.parse_label(label): Fraction(int(num), int(den))
                for label, text in rec["value"]
                for num, den in [text.split("/")]
            }
        )
        assert parsed == recomputed


def test_csv_format(capsys):
    code, out = run_cli(
        capsys, "table", "spherical", "--q", "2", "--max", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,left,right,value"
    assert "spherical,G1,G1,G0:3/1;G2:1/1" in lines


def test_mul_command(capsys):
    code, out = run_cli(capsys, "mul", "sl2", "1/5", "1/5", "--p", "5")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == [["0", "2/1"], ["2/5", "1/1"]]
    code, out = run_cli(capsys, "mul", "affine-nf", "(0,1)", "(1,0)", "--q", "2")
    assert json.loads(out)["value"] == [["(0,0)", "2/1"]]


def test_mul_iwahori_long_word_is_a_loop_not_a_recursion(capsys):
    # a 1,500-letter right word is rewritten letter by letter in one loop;
    # the rewriting never recurses, so it cannot hit the recursion limit
    word = "ts" * 750
    code, out = run_cli(capsys, "mul", "iwahori", "st", word, "--qs", "2", "--qt", "2")
    assert code == 0
    algebra = IwahoriAlgebra(2, 2)
    closed = algebra.multiply_closed(algebra.parse_label("st"), algebra.parse_label(word))
    expected = [[algebra.basis_label(idx), f"{c}/1"] for idx, c in closed.terms()]
    assert json.loads(out)["value"] == expected


def test_table_iwahori_keeps_one_word_product_per_pair(capsys, monkeypatch):
    built = []

    def algebra(qs, qt):
        built.append(IwahoriAlgebra(qs, qt))
        return built[-1]

    family = cli.FAMILIES["iwahori"]._replace(algebra=algebra)
    monkeypatch.setitem(cli.FAMILIES, "iwahori", family)
    code, out = run_cli(capsys, "table", "iwahori", "--qs", "2", "--qt", "3", "--len", "6")
    assert code == 0 and len(out.splitlines()) == 676
    # 13 words of length <= 6: one kept product per word pair and result
    # flag, none per prefix
    assert len(built[0]._word_products) <= 13 * 13 * 2


def test_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "spherical", "--q", "2", "--max", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out = run_cli(
        capsys, "verify", "spherical", "--q0", "2", "--q1", "3", "--max", "2"
    )
    assert code == 0


@pytest.mark.parametrize("p, depth", [(2, 4), (3, 4), (5, 3), (7, 2)])
def test_verify_sl2_passes(capsys, p, depth):
    code, out = run_cli(capsys, "verify", "sl2", "--p", str(p), "--max", str(depth))
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    assert doc["cells"] == len(SL2EndAlgebra(p).cosets_up_to_depth(depth)) ** 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "sl2", "--p", "4", "--max", "1"), "error: 4 is not prime"),
        (("table", "sl2", "--p", "7", "--max", "7"), "error: depth 7 exceeds the bound 6"),
        (("verify", "sl2", "--p", "4", "--max", "1"), "error: 4 is not prime"),
        # the depth bound of 6 does not bound p^depth
        (
            ("table", "sl2", "--p", "101", "--max", "3"),
            "error: depth 3 at p = 101 walks 1,040,603 points, over the limit of 50,000",
        ),
        (
            ("nu", "--p", "101", "--depth", "3"),
            "error: depth 3 at p = 101 walks 1,040,603 points, over the limit of 50,000",
        ),
        (
            ("mul", "sl2", "1/1030301", "1/101", "--p", "101"),
            "error: depth 3 at p = 101 walks 1,040,603 points, over the limit of 50,000",
        ),
        (
            ("verify", "sl2", "--p", "13", "--max", "3"),
            "error: verify sl2 at p = 13 and max 3 makes 4,826,809 additions,"
            " over the limit of 2,000,000",
        ),
        # primality is decided without trial division, and not guessed
        (
            ("mul", "sl2", "0", "0", "--p", "1000000000000000001"),
            "error: 1000000000000000001 is not prime",
        ),
        (
            ("nu", "--p", "3317044064679887385961981", "--depth", "0"),
            "error: cannot decide whether 3317044064679887385961981 is prime:"
            " the primality test is exact only below 3,317,044,064,679,887,385,961,981",
        ),
    ],
)
def test_sl2_invalid_input_exit_2(capsys, monkeypatch, argv, message):
    # each is rejected before the orbit of any nonzero point is enumerated
    def no_orbits(p, n):
        raise AssertionError("orbit enumeration started")

    monkeypatch.setattr(sl2, "unit_squares_mod", no_orbits)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


def test_verify_budget_flag(capsys):
    code, _ = run_cli(
        capsys,
        "verify",
        "spherical",
        "--q",
        "2",
        "--max",
        "5",
        "--max-ball-vertices",
        "10",
    )
    assert code == 2


def test_verify_budget_limits_visited_vertices(capsys):
    # the ball has radius 12 (27962026 vertices) but the counter visits at
    # most sphere 6, which has 5120
    code, out = run_cli(capsys, "verify", "spherical", "--q", "4", "--max", "6")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code = main(["verify", "spherical", "--q", "2", "--max", "5", "--max-ball-vertices", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "budget of 10" in captured.err


def test_ktheory_example(capsys):
    code, out = run_cli(capsys, "ktheory", "--example", "toeplitz", "--size", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["K0"]["description"] == "Z"
    assert doc["K1_rank"] == 0


def test_ktheory_file(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"levels": [[1], [1]], "maps": [[[2]]]}))
    code, out = run_cli(capsys, "ktheory", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["limit"]["composed_map"] == [[2]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["DIAGRAM", "--example", "toeplitz"], "not both"),
        (["--example", "toeplitz", "--depth", "1"], "--depth applies to"),
        (["DIAGRAM", "--size", "3"], "--size applies to --example only"),
        (["--size", "3"], "--size applies to --example only"),
    ],
)
def test_ktheory_unused_option_exit_2(capsys, tmp_path, argv, message):
    # an option the chosen mode would ignore is an error, not a no-op
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"levels": [[1], [1]], "maps": [[[2]]]}))
    code = main(["ktheory"] + [str(path) if x == "DIAGRAM" else x for x in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "table iwahori --qs 2 --qt 2 --len 1 --q 9 --max 4 --p 3",
            "--q does not apply to the iwahori family",
        ),
        ("mul affine M1 M2 --q 2 --max 7 --len 3", "--len does not apply to the affine family"),
        # sl2 has no tree model, so no ball to budget
        (
            "verify sl2 --p 3 --max 1 --max-ball-vertices 5",
            "--max-ball-vertices does not apply to the sl2 family",
        ),
        # mul multiplies the two labels it is given, so no extent bounds it
        ("mul spherical G1 G1 --q 2 --max 0", "--max does not apply to mul"),
        ("mul iwahori s t --qs 2 --qt 2 --len 3", "--len does not apply to mul"),
        ("mul sl2 1/3 1/3 --p 3 --max 2", "--max does not apply to mul"),
    ],
    ids=["table", "mul", "verify", "mul-spherical-max", "mul-iwahori-len", "mul-sl2-max"],
)
def test_unread_family_flag_exit_2(capsys, argv, message):
    # a family option the family never reads is an error, not a no-op
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ktheory_toeplitz_size_limit_exit_2(capsys):
    # the report grows as size^3 / 3 integers; size 80 holds about 184,000
    code, out = run_cli(capsys, "ktheory", "--example", "toeplitz", "--size", "80")
    assert code == 0 and json.loads(out)["size"] == 80
    for size in ("90", "100000"):
        code = main(["ktheory", "--example", "toeplitz", "--size", size])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"limit of {cli.MAX_TOEPLITZ_INTEGERS:,}" in captured.err
    for size in ("0", "-3"):
        code = main(["ktheory", "--example", "toeplitz", "--size", size])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --size must be >= 1, got {size}\n"


def test_ktheory_bad_input(capsys, tmp_path):
    code, _ = run_cli(capsys, "ktheory", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"levels": [[1], [1]], "maps": []}))
    code, _ = run_cli(capsys, "ktheory", str(bad))
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"levels": 3, "maps": []},
        [1, 2],
        {"levels": [[1], [1]], "maps": [[[1.5]]]},
        {"levels": [[1], [1]], "maps": [[[True]]]},
        {"levels": [["2"], [1]], "maps": [[[1]]]},
        {"levels": [[1], [1]]},
    ],
)
def test_ktheory_malformed_file_exit_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["ktheory", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(-2, 3, allow_nan=False)
    | st.text(max_size=2)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["levels", "maps"]), inner, max_size=2),
    max_leaves=10,
)
_entries = st.integers(-1, 3) | _json_scalars
_diagram_like = st.fixed_dictionaries(
    {
        "levels": st.lists(st.lists(_entries, max_size=3), max_size=3),
        "maps": st.lists(st.lists(st.lists(_entries, max_size=3), max_size=3), max_size=3),
    }
)



@st.composite
def _shaped_diagrams(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    levels = [draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)) for n in sizes]
    maps = [
        draw(st.lists(st.lists(st.integers(0, 3), min_size=a, max_size=a), min_size=b, max_size=b))
        for a, b in zip(sizes, sizes[1:])
    ]
    return {"levels": levels, "maps": maps}


@settings(max_examples=150, deadline=None)
@given(_json_values | _diagram_like | _shaped_diagrams(), st.none() | st.integers(-1, 3))
def test_ktheory_fuzzed_files_exit_0_or_2(doc, depth):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/d.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = ["ktheory", path] + ([] if depth is None else ["--depth", str(depth)])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


_small = st.integers(-1, 3)
_FLAGS = {
    "--q": st.integers(-1, 4),
    "--q0": st.integers(-1, 4),
    "--q1": st.integers(-1, 4),
    "--qs": st.integers(-1, 4),
    "--qt": st.integers(-1, 4),
    "--p": st.integers(-1, 11),
    "--max": _small,
    "--len": _small,
}
_ONE_IN_SIXTEEN = st.sampled_from((False,) * 15 + (True,))
_LABELS = st.sampled_from(
    ["G0", "G2", "G9", "M1", "1", "s", "ts", "ist", "tt", "0", "1/5", "2/7", "3/9"]
    + ["1/4", "1/0", "(0,1)", "(1,0)", "(1,", "x", ""]
)


#: Stands in a fuzzed ``ktheory`` argv for the path of a valid diagram file.
_DIAGRAM = "<diagram>"


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["table", "mul", "verify", "nu", "ktheory"]))
    if command == "nu":
        return ["nu", "--p", str(draw(_FLAGS["--p"])), "--depth", str(draw(_small))]
    if command == "ktheory":
        argv = ["ktheory"] + draw(st.sampled_from([[], [_DIAGRAM], ["missing.json"]]))
        for flag, values in (
            ("--example", st.just("toeplitz")),
            ("--size", st.integers(-1, 8)),
            ("--depth", _small),
        ):
            if draw(st.booleans()):
                argv += [flag, str(draw(values))]
        return argv
    family = draw(st.sampled_from([*cli.FAMILIES, "bogus"]))
    argv = [command, family]
    if command == "mul":
        argv += [draw(_LABELS), draw(_LABELS)]
    reads = cli.FAMILIES[family].flags if family in cli.FAMILIES else ()
    for flag, values in _FLAGS.items():
        # a flag the family reads is drawn half the time, one it rejects one time in
        # sixteen, so most argvs of a family reach its own checks
        if draw(st.booleans() if flag[2:] in reads else _ONE_IN_SIXTEEN):
            value = draw(values)
            if command == "verify" and flag == "--max":
                value = min(value, 2)  # verify sl2 makes about p^(2 max) additions
            argv += [flag, str(value)]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_fuzzed_argv_exit_0_or_2(argv):
    # no sweep in these ranges has a mismatch, so exit 1 would be a bug too
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/d.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"levels": [[1], [1], [2]], "maps": [[[1]], [[2]]]}, fh)
        argv = [path if x == _DIAGRAM else x for x in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a bad option value this way
                code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())


_WEIGHTS = st.integers(2, 4)


@st.composite
def _valid_argv(draw):
    """A table, mul or verify argv whose family reads every option given, each in range."""
    command = draw(st.sampled_from(["table", "mul", "verify"]))
    takes = {"table": "extent", "mul": "algebra", "verify": "verify"}[command]
    family = draw(st.sampled_from([n for n, f in cli.FAMILIES.items() if getattr(f, takes)]))
    top, size = "--max", st.integers(0, 3)
    if family == "spherical":
        if draw(st.booleans()):
            flags, step = ["--q", draw(_WEIGHTS)], 1
        else:
            flags, step = ["--q0", draw(_WEIGHTS), "--q1", draw(_WEIGHTS)], 2
        labels = st.integers(0, 4).map(lambda n: f"G{step * n}")
    elif family == "iwahori":
        flags, top = ["--qs", draw(_WEIGHTS), "--qt", draw(_WEIGHTS)], "--len"
        algebra = IwahoriAlgebra(2, 2)
        labels = st.sampled_from([algebra.basis_label(i) for i in algebra.words_up_to(4)])
    elif family == "affine":
        flags = ["--q", draw(_WEIGHTS)]
        labels = st.integers(0, 4).map(lambda n: f"M{n}")
    elif family == "affine-nf":
        flags = ["--q", draw(_WEIGHTS)]
        labels = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda ab: "(%d,%d)" % ab)
    else:  # sl2: p^(2 max) additions for verify, a few cosets for table
        p = draw(st.sampled_from([2, 3, 5, 7]))
        flags, size = ["--p", p], st.integers(0, 2)
        labels = st.just("0") | st.sampled_from([p, p * p]).flatmap(
            lambda den: st.integers(1, den - 1).map(lambda num: f"{num}/{den}")
        )
    argv = [command, family]
    if command == "mul":
        argv += [draw(labels), draw(labels)]
    else:
        flags += [top, draw(size)]
    return argv + [str(x) for x in flags]


@settings(max_examples=100, deadline=None)
@given(_valid_argv())
def test_fuzzed_valid_argv_exits_0(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    if argv[0] == "verify":
        assert json.loads(out.getvalue())["ok"] is True, argv
    else:  # one JSON record a line
        lines = out.getvalue().splitlines()
        assert lines and all(isinstance(json.loads(line), dict) for line in lines), argv


@pytest.mark.parametrize(
    "options, count, second, last",
    [
        ("spherical --q 2 --max 5", 21, ["G0", "G1"], ["G5", "G5"]),
        ("spherical --q0 2 --q1 3 --max 3", 10, ["G0", "G2"], ["G6", "G6"]),
        ("iwahori --qs 2 --qt 3 --len 4", 324, ["1", "i"], ["itsts", "itsts"]),
        ("affine --q 3 --max 4", 25, ["M0", "M1"], ["M4", "M4"]),
        ("sl2 --p 5 --max 2", 25, ["0", "1/5"], ["2/25", "2/25"]),
    ],
)
def test_table_and_verify_run_over_the_same_cells(
    capsys, monkeypatch, options, count, second, last
):
    # the keys of the table's records, in order, are the cells its sweep checks
    code, out = run_cli(capsys, "table", *options.split())
    assert code == 0
    keys = [json.loads(line)["key"] for line in out.splitlines()]
    swept = []
    family = options.split()[0]
    listed = verify.CELLS[family]

    def cells(algebra, top):
        for a, b in listed(algebra, top):
            swept.append([algebra.basis_label(a), algebra.basis_label(b)])
            yield a, b

    monkeypatch.setitem(verify.CELLS, family, cells)
    code, out = run_cli(capsys, "verify", *options.split())
    assert code == 0 and json.loads(out)["cells"] == count
    assert swept == keys
    assert len(keys) == count and keys[1] == second and keys[-1] == last


def test_nu_output(capsys):
    code, out = run_cli(capsys, "nu", "--p", "5", "--depth", "1")
    assert code == 0
    doc = json.loads(out)
    assert [c["orbit"] for c in doc["cosets"]] == [["0"], ["1/5", "4/5"], ["2/5", "3/5"]]
    code, out = run_cli(capsys, "nu", "--p", "3", "--depth", "1")
    doc = json.loads(out)
    assert [c["representative"] for c in doc["cosets"]] == ["0", "1/3", "2/3"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # a prime below 2 is refused as not prime, not as a branching number
        ("mul sl2 0 0 --p 1", "error: 1 is not prime"),
        ("nu --p 1 --depth 1", "error: 1 is not prime"),
        ("table sl2 --p 0 --max 1", "error: 0 is not prime"),
        (
            "table spherical --q 2 --q0 2 --q1 3 --max 1",
            "error: pass either --q or --q0/--q1, not both",
        ),
        ("table affine --q 1 --max 1", "error: branching number must be >= 2, got 1"),
        ("verify iwahori --qs 1 --qt 2 --len 1", "error: letter weights must be >= 2, got (1, 2)"),
        (
            "verify spherical --q0 2 --q1 1 --max 1",
            "error: branching numbers must be >= 2, got (2, 1)",
        ),
    ],
)
def test_parameter_errors_exit_2_with_their_message(capsys, argv, message):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        ("table spherical --q 2 --max abc", "--max", "abc"),
        ("nu --p 3 --depth x", "--depth", "x"),
        ("table iwahori --qs 2 --qt 2 --len 1.5", "--len", "1.5"),
    ],
)
def test_non_numeric_count_exit_2(capsys, argv, flag, text):
    with pytest.raises(SystemExit) as excinfo:  # argparse rejects a bad option value this way
        main(argv.split())
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {flag}: expected a nonnegative integer, got {text!r}"
    )

@pytest.mark.parametrize(
    "argv",
    [("nu", "--p", "3", "--depth", "7"), ("nu", "--p", "7", "--depth", "9"),
     ("table", "sl2", "--p", "3", "--max", "7")],
)
def test_sl2_depth_over_bound_exit_2(capsys, argv):
    # nu and table sl2 share the depth bound, and fail before any work
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: depth {argv[-1]} exceeds the bound 6\n"


def test_sl2_limits_admit_the_documented_commands(capsys):
    # nu --p 31 --depth 3 and verify sl2 --p 11 --max 3 run, and print the
    # bytes they printed when every point was a PruferElement
    SL2EndAlgebra(31).check_depth(3)
    with pytest.raises(ValueError, match="52,059 points"):
        SL2EndAlgebra(37).check_depth(3)
    assert 11**6 <= verify.MAX_SL2_SWEEP_ADDITIONS < 13**6
    code, out = run_cli(capsys, "verify", "sl2", "--p", "11", "--max", "3")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True and doc["cells"] == 49
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f395a19a9f0439602632d5e004c13e3b49e0d615f402c7d59cc56db171993760"
    )
    code, out = run_cli(capsys, "nu", "--p", "31", "--depth", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cc56b1c9ef0af5a38011a50ec9e75cf8326ed74c04581a0f3a386f22f98052b4"
    )


def test_sl2_large_prime_runs(capsys):
    # a prime of 19 digits is recognised at once; depth 0 walks no points
    code, out = run_cli(capsys, "mul", "sl2", "0", "0", "--p", "1000000000000000003")
    assert code == 0
    assert out == '{"family": "sl2", "key": ["0", "0"], "value": [["0", "1/1"]]}\n'
    code, out = run_cli(capsys, "nu", "--p", "1000000000000000003", "--depth", "0")
    assert code == 0 and json.loads(out)["cosets"][0]["nu"] == [["0", "1/1"]]


def test_nu_images_are_the_nu_map(capsys):
    # the nu command prints each image from the coset's members; sl2.nu
    # builds it in the Prüfer group algebra
    code, out = run_cli(capsys, "nu", "--p", "7", "--depth", "2")
    assert code == 0
    for doc in json.loads(out)["cosets"]:
        image = sl2.nu(sl2.parse_prufer(7, doc["representative"]))
        assert doc["nu"] == [[g.label(), f"{c}/1"] for g, c in image.terms()]
        assert [label for label, _ in doc["nu"]] == doc["orbit"]


def _readme_cli_lines() -> list:
    """The ``hecketree ...`` lines of the README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("hecketree ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path, line):
    # every example of the README's command-line block runs and exits 0;
    # diagram.json is written to the working directory first
    monkeypatch.chdir(tmp_path)
    (tmp_path / "diagram.json").write_text(json.dumps(toeplitz_bratteli(5).to_json()))
    code = main(shlex.split(line, comments=True)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out and not captured.err


def test_invalid_params_exit_2(capsys):
    assert run_cli(capsys, "table", "spherical", "--max", "2")[0] == 2
    assert run_cli(capsys, "table", "spherical", "--q", "1", "--max", "2")[0] == 2
    assert run_cli(capsys, "mul", "spherical", "G1", "Gx", "--q", "2")[0] == 2
    assert run_cli(capsys, "mul", "iwahori", "", "s", "--qs", "2", "--qt", "2")[0] == 2
    for flag, argv in (
        ("--max", ("table", "spherical", "--q", "2", "--max", "-1")),
        ("--len", ("table", "iwahori", "--qs", "2", "--qt", "2", "--len", "-1")),
        ("--max", ("verify", "affine", "--q", "2", "--max", "-1")),
        ("--depth", ("nu", "--p", "5", "--depth", "-1")),
        (
            "--max-ball-vertices",
            ("verify", "spherical", "--q", "2", "--max", "2", "--max-ball-vertices", "-5"),
        ),
    ):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects a bad option value this way
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err.strip().splitlines()[-1]



@pytest.mark.parametrize(
    "argv",
    [
        ("sl2", "1_0/5", "1/5", "--p", "5"),
        ("sl2", "1/05", "1/5", "--p", "5"),
        ("sl2", "\uff11/5", "1/5", "--p", "5"),  # fullwidth 1
        ("spherical", "G+2", "G1", "--q", "2"),
        ("spherical", "G\u0663", "G1", "--q", "2"),  # Arabic-Indic 3
        ("affine", "M01", "M1", "--q", "2"),
        ("affine", "M-0", "M1", "--q", "2"),
        ("affine-nf", "( 1, 2 )", "(0,0)", "--q", "2"),
        ("affine-nf", "(+1,0_2)", "(0,0)", "--q", "2"),
        ("affine-nf", "(1,2,3)", "(0,0)", "--q", "2"),
    ],
)
def test_mul_reads_label_integers_only_as_printed(capsys, argv):
    # int() would read each of these as some other label
    code, out = run_cli(capsys, "mul", *argv)
    assert code == 2
    assert out == ""


def test_mul_reads_any_prufer_fraction_in_canonical_digits(capsys):
    code, out = run_cli(capsys, "mul", "sl2", "5/25", "1/5", "--p", "5")
    assert code == 0
    assert json.loads(out)["key"] == ["1/5", "1/5"]


@pytest.mark.parametrize(
    "argv, term",
    [
        (("spherical", "G16000", "G16000", "--q", "2"), "G0 in G16000 * G16000"),
        (("affine-nf", "(0,15000)", "(15000,0)", "--q", "2"), "(0,0) in (0,15000) * (15000,0)"),
    ],
)
def test_mul_refuses_a_constant_over_the_int_printing_limit(capsys, argv, term):
    limit = sys.get_int_max_str_digits()
    assert main(["mul", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        f"error: the coefficient of {term} has more than {limit} digits, the"
        " interpreter's limit for printing an integer; set PYTHONINTMAXSTRDIGITS"
        " to a larger limit, or to 0 for none"
    )


def test_mul_prints_a_constant_under_the_int_printing_limit(capsys):
    # 2^14000 has 4,215 digits
    code, out = run_cli(capsys, "mul", "affine-nf", "(0,14000)", "(14000,0)", "--q", "2")
    assert code == 0
    assert json.loads(out)["value"] == [["(0,0)", f"{2**14000}/1"]]


def test_mul_prints_any_constant_with_the_int_printing_limit_off(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out = run_cli(capsys, "mul", "affine-nf", "(0,15000)", "(15000,0)", "--q", "2")
        expected = [["(0,0)", f"{2**15000}/1"]]
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert json.loads(out)["value"] == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_names_the_int_printing_limit_after_the_records_before(capsys, fmt):
    # at q = 10^1500 - 1 the coefficients of G3 * G3 have about 4,500 digits,
    # and table streams, so the nine records before that cell are written,
    # after the header row in CSV
    q = "9" * 1500
    assert main(["table", "spherical", "--q", q, "--max", "3", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == (fmt == "csv") + 9
    assert captured.err.startswith("error: a coefficient of G3 * G3 has more than")
    assert "set PYTHONINTMAXSTRDIGITS" in captured.err


def _long_int_diagram(path, rows) -> str:
    """Write a four-level diagram whose maps have 4,000-digit entries; return its path."""
    n = 10**3999 + 7
    maps = [[[n if x == "n" else x for x in row] for row in rows[k]] for k in range(3)]
    levels = [[1] * len(maps[0][0])] + [[1] * len(m) for m in maps]
    path.write_text(json.dumps({"levels": levels, "maps": maps}))
    return str(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        # three 1 x 1 maps: the composed map and its invariant factor have
        # 12,000 digits, and the factor's description is the first text
        ([[["n"]]] * 3, "error: an invariant factor has more than"),
        # the composed map [[n^3], [1]] has cokernel Z: only json.dumps
        # meets the long entry
        (
            [[["n"], [1]], [["n", 0], [0, 1]], [["n", 0], [0, 1]]],
            "error: the report holds an integer that has more than",
        ),
    ],
)
def test_ktheory_names_the_int_printing_limit(capsys, tmp_path, rows, message):
    path = _long_int_diagram(tmp_path / "long.json", rows)
    assert main(["ktheory", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert "set PYTHONINTMAXSTRDIGITS" in captured.err


@pytest.mark.parametrize(
    "content, message",
    [
        # json.load reads a map entry with int(), whose own error advises a
        # call a command line cannot make
        (
            '{"levels": [[1], [1]], "maps": [[[LONG]]]}',
            "error: PATH holds an integer of more than LIMIT digits, the interpreter's limit"
            " for reading an integer; set PYTHONINTMAXSTRDIGITS to a larger limit, or to 0"
            " for none",
        ),
        # the decoding errors are ValueErrors too, and keep their messages
        ('{"levels": [[1], [1]], "maps": [', "error: Expecting value: line 1 column 33 (char 32)"),
        (b"\xff", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        # the decoder stops on deep nesting with a RecursionError, not a ValueError
        ("[" * 100_000, "error: PATH is nested too deeply to decode as JSON"),
    ],
    ids=["int", "json", "utf-8", "deep"],
)
def test_ktheory_file_names_the_int_reading_limit(capsys, tmp_path, content, message):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "d.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content.replace("LONG", "1" * (limit + 1)))
    assert main(["ktheory", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message.replace("PATH", str(path)).replace("LIMIT", str(limit))


@pytest.mark.parametrize(
    "argv",
    [
        ("spherical", "G{}", "G0", "--q", "2"),
        ("affine-nf", "({},0)", "(0,0)", "--q", "2"),
        ("sl2", "{}/5", "1/5", "--p", "5"),
    ],
)
def test_mul_refuses_a_label_integer_over_the_int_reading_limit(capsys, argv):
    # int() would stop on such a label with advice a command line cannot follow
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 1)
    assert main(["mul", argv[0], argv[1].format(digits), *argv[2:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        f"error: the label integer 1111111111... has {limit + 1} digits, more than {limit},"
        " the interpreter's limit for reading an integer; set PYTHONINTMAXSTRDIGITS"
        " to a larger limit, or to 0 for none"
    )


def test_deterministic_output(capsys):
    args = ("table", "spherical", "--q", "3", "--max", "3")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_module_entry_point():
    proc = run_python("-m", "hecketree", "mul", "spherical", "G1", "G1", "--q", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == [["G0", "3/1"], ["G2", "1/1"]]


_IMPORT_FOOTPRINT = """
import sys
before = set(sys.modules)
import hecketree.cli
print(sorted({"dataclasses", "inspect", "csv"} & (set(sys.modules) - before)))
sys.exit(hecketree.cli.main(["table", "spherical", "--q", "2", "--max", "1", "--format", "csv"]))
"""


def test_import_loads_no_dataclasses_inspect_or_csv():
    # every command is a fresh process, so what an import loads is paid per
    # command; csv is imported by the CSV writer alone.  Only modules the
    # import adds count, so a module the interpreter preloads cannot trip this
    proc = run_python("-c", _IMPORT_FOOTPRINT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "[]\n"
        "family,left,right,value\n"
        "spherical,G0,G0,G0:1/1\n"
        "spherical,G0,G1,G1:1/1\n"
        "spherical,G1,G1,G0:3/1;G2:1/1\n"
    )


def test_reused_parser_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    monkeypatch.setattr(cli, "_PARSER", [])
    bad = ["verify", "spherical", "--q", "2", "--max", "-1"]
    good = ["verify", "affine", "--q", "2", "--max", "2"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    in_process = [(exc.value.code, *capsys.readouterr())]
    code = main(good)
    in_process.append((code, *capsys.readouterr()))
    fresh = [run_python("-m", "hecketree", *argv) for argv in (bad, good)]
    assert in_process == [(proc.returncode, proc.stdout, proc.stderr) for proc in fresh]
    assert in_process[0][0] == 2 and in_process[1][0] == 0
    assert builds == [1]


def test_verify_budget_limits_one_word_group(capsys):
    # the largest group climbed by verify iwahori --qs 2 --qt 3 --len 5, the
    # edges at the word tstst, has 108 edges, of the 41988 edges
    # of child depth <= 11; deeper witnesses are found without their groups
    argv = ["verify", "iwahori", "--qs", "2", "--qt", "3", "--len", "5"]
    code, out = run_cli(capsys, *argv, "--max-ball-vertices", "108")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ACCEPTANCE_STDOUT_SHA256[" ".join(argv)]
    code = main([*argv, "--max-ball-vertices", "107"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "budget of 107" in captured.err


@pytest.mark.parametrize(
    "argv, largest",
    [
        # class 7 of the 3-regular tree has 64 members
        (["verify", "affine", "--q", "2", "--max", "7"], 64),
        # sphere 8 of the 3-regular tree has 384 vertices
        (["verify", "spherical", "--q", "2", "--max", "8"], 384),
        # the edges at one word of length 5, the largest group climbed
        (["verify", "iwahori", "--qs", "2", "--qt", "3", "--len", "5"], 108),
    ],
    ids=["affine", "spherical", "iwahori"],
)
def test_verify_budget_checked_before_the_first_cell(capsys, monkeypatch, argv, largest):
    # a budget just below the largest block counted exits 2 before any block is climbed
    climbs = []
    anchored_climb = tree._anchored_climb
    monkeypatch.setattr(
        tree, "_anchored_climb", lambda *args: climbs.append(1) or anchored_climb(*args)
    )
    code = main([*argv, "--max-ball-vertices", str(largest - 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"budget of {largest - 1} vertices" in captured.err
    assert climbs == []
    code, out = run_cli(capsys, *argv, "--max-ball-vertices", str(largest))
    assert code == 0 and json.loads(out)["ok"] is True and climbs


def _add_one(out):
    """The element plus the unit, or the tree vector with every count 1 higher."""
    if isinstance(out, dict):
        return {idx: count + 1 for idx, count in out.items()}
    return out + out.algebra.one()


def _halve(out):
    """The element with every coefficient c made ``Fraction(c, 2)``."""
    return out.scale(Fraction(1, 2))


def _perturb(monkeypatch, owner, name, hit, change=_add_one):
    """Make the route ``owner.name`` return ``change(result)`` on the calls ``hit`` picks.

    ``hit`` sees the positional arguments.
    """
    original = getattr(owner, name)

    def route(*args, **kwargs):
        out = original(*args, **kwargs)
        return change(out) if hit(*args) else out

    monkeypatch.setattr(owner, name, route)


_NF_M1_M1 = m_to_nf(HorocycleAlgebra(3), 1) * m_to_nf(HorocycleAlgebra(3), 1)


@pytest.mark.parametrize(
    "argv, owner, name, hit, keys, routes",
    [
        (
            ("verify", "spherical", "--q", "2", "--max", "2"),
            SphericalAlgebra,
            "multiply_closed",
            lambda self, n, m: (n, m) == (1, 2),
            [["G1", "G2"]],
            ["closed", "recursive", "oracle"],
        ),
        (
            ("verify", "iwahori", "--qs", "2", "--qt", "2", "--len", "1"),
            IwahoriAlgebra,
            "multiply_closed",
            lambda self, a, b: (self.basis_label(a), self.basis_label(b)) == ("s", "t"),
            [["s", "t"]],
            ["generated", "closed", "oracle"],
        ),
        (
            ("verify", "affine", "--q", "3", "--max", "2"),
            verify,
            "nf_to_m",
            lambda x: x == _NF_M1_M1,  # no other cell at q = 3 has this product
            [["M1", "M1"]],
            ["table", "normal-form", "oracle"],
        ),
        (
            ("verify", "sl2", "--p", "5", "--max", "1"),
            SL2EndAlgebra,
            "multiply_basis",
            lambda self, a, b: (a.label(), b.label()) == ("1/5", "2/5"),
            [["1/5", "2/5"]],
            ["orbit", "convolution"],
        ),
        (
            ("verify", "iwahori", "--qs", "2", "--qt", "2", "--len", "1"),
            tree,
            "iwahori_product",
            lambda ball, w1, w2, iflags: (w1, w2, iflags) == ("s", "t", (0, 0)),
            [["s", "t"]],
            ["generated", "closed", "oracle"],
        ),
        (
            ("verify", "affine", "--q", "3", "--max", "2"),
            tree,
            "horocycle_product",
            lambda ball, m, n: (m, n) == (1, 2),
            [["M1", "M2"]],
            ["table", "normal-form", "oracle"],
        ),
        (
            # a decorated cell: i * s, whose oracle keys are (iflag, word) tuples
            ("verify", "iwahori", "--qs", "2", "--qt", "2", "--len", "1"),
            tree,
            "iwahori_product",
            lambda ball, w1, w2, iflags: (w1, w2, iflags) == ("", "s", (1, 0)),
            [["i", "s"]],
            ["generated", "closed", "oracle"],
        ),
    ],
)
def test_verify_reports_mismatch(capsys, monkeypatch, argv, owner, name, hit, keys, routes):
    _assert_mismatch_report(capsys, monkeypatch, argv, owner, name, hit, keys, routes, _add_one)


def _assert_mismatch_report(capsys, monkeypatch, argv, owner, name, hit, keys, routes, change):
    """The sweep ``argv``, with ``owner.name`` perturbed by ``change``, exits 1 and reports ``keys``.

    Each mismatch names ``routes`` and a replay line that exits 0; returns the report.
    """
    code, out = run_cli(capsys, *argv)
    assert code == 0
    clean = json.loads(out)
    _perturb(monkeypatch, owner, name, hit, change)
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code == 1
    assert doc["ok"] is False
    assert doc["cells"] == clean["cells"]
    assert [m["key"] for m in doc["mismatches"]] == keys
    for mismatch in doc["mismatches"]:
        assert list(mismatch["routes"]) == routes
        replay = shlex.split(mismatch["replay"])
        assert replay[:5] == ["hecketree", "mul", argv[1], *mismatch["key"]]
        assert run_cli(capsys, *replay[1:])[0] == 0
    return doc


@pytest.mark.parametrize(
    "argv, owner, name, hit, keys, routes, halved",
    [
        (
            ("verify", "spherical", "--q", "2", "--max", "2"),
            SphericalAlgebra,
            "multiply_recursive",
            lambda self, n, m: (n, m) == (1, 2),
            [["G1", "G2"]],
            ["closed", "recursive", "oracle"],
            "recursive",
        ),
        (
            ("verify", "iwahori", "--qs", "2", "--qt", "2", "--len", "1"),
            IwahoriAlgebra,
            "multiply_closed",
            lambda self, a, b: (self.basis_label(a), self.basis_label(b)) == ("s", "t"),
            [["s", "t"]],
            ["generated", "closed", "oracle"],
            "closed",
        ),
        (
            ("verify", "affine", "--q", "3", "--max", "2"),
            verify,
            "nf_to_m",
            lambda x: x == _NF_M1_M1,
            [["M1", "M1"]],
            ["table", "normal-form", "oracle"],
            "normal-form",
        ),
        (
            ("verify", "sl2", "--p", "5", "--max", "1"),
            SL2EndAlgebra,
            "multiply_basis",
            lambda self, a, b: (a.label(), b.label()) == ("1/5", "2/5"),
            [["1/5", "2/5"]],
            ["orbit", "convolution"],
            "orbit",
        ),
    ],
    ids=["spherical-recursive", "iwahori-closed", "affine-normal-form", "sl2-orbit"],
)
def test_verify_reports_a_non_integral_value_as_a_mismatch(
    capsys, monkeypatch, argv, owner, name, hit, keys, routes, halved
):
    # only the product cache checks structure constants; any other route is
    # checked by the comparison, so a halved coefficient is an ordinary
    # mismatch whose report prints it as a fraction string
    doc = _assert_mismatch_report(
        capsys, monkeypatch, argv, owner, name, hit, keys, routes, _halve
    )
    for mismatch in doc["mismatches"]:
        printed = {route: list(vec.values()) for route, vec in mismatch["routes"].items()}
        fractions = printed.pop(halved)
        assert all(type(c) is str for c in fractions)
        assert any("/" in c for c in fractions)
        assert all(type(c) is int for counts in printed.values() for c in counts)


def test_verify_iwahori_mismatch_labels_oracle_keys(capsys, monkeypatch):
    # the oracle hands over (iflag, word) tuples; the report labels them as
    # index_label labels the other routes' DeltaIndex keys
    _perturb(
        monkeypatch,
        tree,
        "iwahori_product",
        lambda ball, w1, w2, iflags: (w1, w2, iflags) == ("", "s", (1, 0)),
    )
    code, out = run_cli(capsys, "verify", "iwahori", "--qs", "2", "--qt", "2", "--len", "1")
    assert code == 1
    (mismatch,) = json.loads(out)["mismatches"]
    assert mismatch["key"] == ["i", "s"]
    assert mismatch["routes"] == {
        "generated": {"is": 1},
        "closed": {"is": 1},
        "oracle": {"is": 2},
    }
    assert mismatch["replay"] == "hecketree mul iwahori i s --qs 2 --qt 2"


@pytest.mark.parametrize(
    "point, convolution",
    [
        # one point of the orbit {2/5, 3/5} counted twice: uneven within the orbit
        (make_prufer(5, 2, 1), {"0": 2, "2/5": 2, "3/5": 1}),
        # a point deeper than both operands
        (make_prufer(5, 1, 2), {"0": 2, "2/5": 1, "3/5": 1, "1/25": 1}),
    ],
)
def test_verify_sl2_compares_point_by_point(capsys, monkeypatch, point, convolution):
    original = verify.orbit_convolution

    def route(a, b):
        counts = original(a, b)
        if (a.label(), b.label()) == ("1/5", "1/5"):
            counts[point] += 1
        return counts

    monkeypatch.setattr(verify, "orbit_convolution", route)
    code, out = run_cli(capsys, "verify", "sl2", "--p", "5", "--max", "1")
    doc = json.loads(out)
    assert code == 1
    assert [m["key"] for m in doc["mismatches"]] == [["1/5", "1/5"]]
    routes = doc["mismatches"][0]["routes"]
    assert routes["orbit"] == {"0": 2, "2/5": 1, "3/5": 1}
    assert routes["convolution"] == convolution
    assert doc["mismatches"][0]["replay"] == "hecketree mul sl2 1/5 1/5 --p 5"


def test_table_streams(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written = []  # stdout length when each product is computed
    original = HeckeAlgebra.multiply_basis

    def multiply_basis(*args):
        written.append(len(out.getvalue()))
        return original(*args)

    monkeypatch.setattr(HeckeAlgebra, "multiply_basis", multiply_basis)
    assert main(["table", "spherical", "--q", "2", "--max", "2"]) == 0
    assert len(written) == 6
    assert written[-1] > 0


# sha256 of the stdout of each ACCEPTANCE_COMMANDS entry.  Criterion 8 only
# compares two runs in one process; this pins the bytes across changes.
ACCEPTANCE_STDOUT_SHA256 = {
    "table spherical --q 2 --max 2": (
        "8e7f9c4a2002aed1f30bdac4e10f76e9de16ca5281ecdcece93491140c3e8706"
    ),
    "table iwahori --qs 2 --qt 2 --len 1": (
        "a09f9c1c932e28468f519facc6b208b3f5c4a75ec0d95afc7cef470a49a9f25c"
    ),
    "table affine --q 3 --max 1": (
        "c56302a27c52d094c6c67c92f3b779ab0efbd40ef89516ecb1d7a1bffb5faa65"
    ),
    "verify spherical --q 2 --max 5": (
        "ffeb799c9e57a88b5a3bb732d03e0e25209df4fd66ff56ab36be867d8aea53b0"
    ),
    "verify spherical --q 3 --max 5": (
        "464bfef5991a8c79080370d1e6726752199c83e0f808895c836ffe6d09fd7dc6"
    ),
    "verify spherical --q 4 --max 5": (
        "4b9484e91df959a9f157452c72adcc3ebdf2489fe6e5e8c7f43d9287b9d5e080"
    ),
    "verify spherical --q0 2 --q1 2 --max 3": (
        "0df6c654685eface70b526d2412c8e558f3693e213f85764a3f5250b1f656d1a"
    ),
    "verify spherical --q0 2 --q1 3 --max 3": (
        "c5ee2e87842d320076b0c22d1602fb3ac0e94be448573a0ea0a05549f81f4005"
    ),
    "verify spherical --q0 3 --q1 2 --max 3": (
        "2a49d2bbcb0785c645744bda5914672974dfb2d9cce250488ea8fa4aca86c94a"
    ),
    "verify iwahori --qs 2 --qt 2 --len 5": (
        "5b5bf904c5d3e96d3675b44f732c833040597a5fe3332a7e1a05f2c2c698862e"
    ),
    "verify iwahori --qs 2 --qt 3 --len 5": (
        "ce084dc1145572bf385f07efdaa3435f9d6de6c005515dc8d99807da4515dffb"
    ),
    "verify affine --q 2 --max 4": (
        "8f343eb3445aea4f908a17db985c18698168239bc7a902b503d148d0e3b587cf"
    ),
    "verify affine --q 3 --max 4": (
        "f8af930a30be22dd4d5d4b6a0dbad3b60f2dad51a506523d4880534569e6aedd"
    ),
    "verify affine --q 4 --max 4": (
        "d02b0681f5caa87006b5693d644cfad8f80ea4c72b634dcfe51d64b271cc7597"
    ),
    "ktheory --example toeplitz --size 6": (
        "7a218b8a3330e33ba9f69be37d166b10e04c62d3e8ff4b69c0c08bf8aad357b2"
    ),
    "nu --p 3 --depth 2": (
        "62224b0d1fe82c6a185af498805510f6bd7c21ada5697aed9117f5613217b3ae"
    ),
    "nu --p 5 --depth 2": (
        "07bc06d60f7f5a8e7b14c0d5443979d9d2c41f5a2d2782052bd5f5178d440ff4"
    ),
    "nu --p 7 --depth 2": (
        "6f10bd990e99f08cfa48978340158e2b9b421205ef0138f799f347905918c252"
    ),
}


# sha256 of the stdout of the deeper verify sweeps the acceptance commands
# leave out, one pair per oracle family.
VERIFY_STDOUT_SHA256 = {
    "verify spherical --q 2 --max 8": (
        "8b53df132f1949b4976e11ebcb89a649ff6ad7ce80ebf65593dcec52500defae"
    ),
    "verify spherical --q 3 --max 6": (
        "08c3b257dba77aa5339e29cbfd5922eefe0cc30566d1452ab065bbf8b2c3ee5c"
    ),
    "verify affine --q 2 --max 7": (
        "0e5c7ae26f98801a8d482c181a80c62768e0cf74b446a1abd5930acc36c9585e"
    ),
    "verify affine --q 3 --max 5": (
        "1cd9de3206ad5fb568998d0d77362e8af5c253f92803441f3b795b5087810fc5"
    ),
    "verify iwahori --qs 3 --qt 3 --len 4": (
        "23a3e0151828c46224a45f43bd1b3b9cceb853c42c0751d82c7da8bded10e519"
    ),
    "verify iwahori --qs 3 --qt 2 --len 4": (
        "66f0763f4882d22d96a7969d015c31dfc5b706d00972b8e62bcd14d28803e871"
    ),
}


def test_acceptance_output_pinned(capsys):
    assert len(ACCEPTANCE_STDOUT_SHA256) == len(ACCEPTANCE_COMMANDS)
    for argv in ACCEPTANCE_COMMANDS:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == ACCEPTANCE_STDOUT_SHA256[" ".join(argv)], argv


def test_verify_output_pinned(capsys):
    for command, expected in VERIFY_STDOUT_SHA256.items():
        code, out = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, command


# sha256 of the stdout of larger ktheory runs than the acceptance command:
# the Toeplitz example at size 40 and the ten-level diagram below, read from
# a file named bratteli.json in the working directory (the report echoes the
# path).
KTHEORY_STDOUT_SHA256 = {
    ("ktheory", "--example", "toeplitz", "--size", "40"): (
        "030c78755a2f3cf3ab2efa223ecc6c0b5bdb69b5380bd9c9cd14bfbf0a76b645"
    ),
    ("ktheory", "bratteli.json"): (
        "cb3d37488dedc0715f1c701df70f41c6cfab056f24af19894147a3a1be505abd"
    ),
}


def pinned_bratteli() -> dict:
    """A fixed ten-level diagram whose stage cokernels carry torsion."""
    widths = [2, 3, 4, 3, 5, 4, 3, 4, 5, 2]
    levels = [[1, 2]]
    maps = []
    for k in range(len(widths) - 1):
        rows = [
            [(i * j + i + 2 * j + k) % 3 for j in range(widths[k])] for i in range(widths[k + 1])
        ]
        for i, row in enumerate(rows):
            if not any(row):
                row[i % widths[k]] = 1
        maps.append(rows)
        levels.append([sum(r * x for r, x in zip(row, levels[-1])) for row in rows])
    return {"levels": levels, "maps": maps}


def test_ktheory_output_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bratteli.json").write_text(json.dumps(pinned_bratteli()))
    for argv, expected in KTHEORY_STDOUT_SHA256.items():
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, argv


def test_ktheory_largest_example_pinned(capsys):
    # the largest report --size admits, 3,327,759 bytes
    code, out = run_cli(capsys, "ktheory", "--example", "toeplitz", "--size", "89")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ad236ecd319fe43c74446c6606b5b311304c7e302a55bba649398c3dd17b55e2"
    )


SL2_STDOUT_SHA256 = {
    ("nu", "--p", "7", "--depth", "3"): (
        "18d10a4e94bde58cdf92077ffaae630f1b706039853814276cccbd8cf1b48023"
    ),
    ("nu", "--p", "5", "--depth", "3"): (
        "344afe70c1d73e7896f6c4b4dc10633f739523ce69ea99de72ecd0a39109b841"
    ),
    ("nu", "--p", "3", "--depth", "4"): (
        "7ff9521d408be3f87e7930a7a3db79fe3e01105cb434705497a7865bb0215368"
    ),
}


def test_sl2_output_pinned(capsys):
    # deeper SL2 tables than the acceptance commands pin
    for argv, expected in SL2_STDOUT_SHA256.items():
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, argv


# sha256 of the stdout of the cold-tables benchmark's table commands (its two
# nu commands are pinned above), of an equal-weight Iwahori table (the only
# pinned one with inversion-decorated cells) and of CSV tables of every table
# family: the bytes a table writer could change.
TABLE_STDOUT_SHA256 = {
    "table spherical --q 2 --max 40": (
        "f40af2ad5c14c80b4ed82163876b31c3b82d66e5216ab5b2277c432114c1e4bf"
    ),
    "table iwahori --qs 2 --qt 3 --len 6": (
        "a5ef76873dc3c28815da28784fcc63e308edbf6dfec82a0bd9053941fb35b027"
    ),
    "table iwahori --qs 2 --qt 2 --len 5": (
        "39a17517d76292294304f745fbd7afb5fca97175338f67a29ae33fb58decab7e"
    ),
    "table affine --q 3 --max 30": (
        "c6a46559bb25294d8bb0e182b6044ff12415c704c1ce198e98f6e16ac252bb50"
    ),
    "table spherical --q0 3 --q1 2 --max 4": (
        "0477a382c800204b15620ddec7315c390a4eb720768652bb321f837fd61d90a1"
    ),
    # q != 2 in homogeneous mode, and two-orbit mode (index step 1 in a row)
    # over every row length up to 20
    "table spherical --q 3 --max 20": (
        "3ab9eebcfa0a4d275472eae8b91caaa4fc96457a1c9133cd7a9c76d667d37401"
    ),
    "table spherical --q0 2 --q1 3 --max 20": (
        "ca44fa6b29bb3efeea159e65e84f2f498fd7d81c2d7fbe2aaf07c83e9c3f1906"
    ),
    # q = 2 zeroes every diagonal cell's G-term: dropped, never printed as 0/1
    "table affine --q 2 --max 12": (
        "d755b659c2fc9debf64bfe2f01e484a35f10ab9192722c5afb7e97afe5a2a8ff"
    ),
    "table sl2 --p 3 --max 3": (
        "9e9454daf31a21ebf0112150e3609a2c337baf95ef35b994fe14de305a8cd13a"
    ),
    "table spherical --q 2 --max 6 --format csv": (
        "c3ef76ce10aa4ff2fa11776661aaee4238bcd50bbe0a7667d67223a199ea6924"
    ),
    "table spherical --q0 2 --q1 3 --max 5 --format csv": (
        "09b96343d957ca002e9df4129a1b2cc23e4bff079dc3786704c46dc6f4ff3ed4"
    ),
    "table iwahori --qs 2 --qt 3 --len 3 --format csv": (
        "8ad8346c8aeb11b9cea6e4eac603917963c1d3c418bef8d1daef6627e9b7c7ff"
    ),
    "table affine --q 3 --max 6 --format csv": (
        "cb6a600c80127851f372202266b6a88dc6d0c0552682eb0c8bbcc820665ce58b"
    ),
    "table sl2 --p 5 --max 2 --format csv": (
        "26dcd3dff1893dcbf7e93ed97acd8e7f86b497eba9e03fe51723a2947c2528a4"
    ),
    "mul affine-nf (0,1) (1,0) --q 2": (
        "598f85151b83d5c5049b5ba9f80ca1ddedc078df908d5e9c07a5fe33c3f69c54"
    ),
    "mul affine-nf (2,1) (1,3) --q 3 --format csv": (
        "220082c4c44cf5a776cf6f256b90b57d027c252f2cb197c078b3e1f01c7d0f8a"
    ),
    "mul sl2 1/5 2/25 --p 5": (
        "eda8add3d708736fe82807f54ec07985b75bef2e8d7371e8a5301b8b34a6be72"
    ),
}


def test_table_output_pinned(capsys):
    for command, expected in TABLE_STDOUT_SHA256.items():
        code, out = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, command


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "spherical", "--q", "2", "--max", "3"),
        ("table", "spherical", "--q0", "2", "--q1", "3", "--max", "3"),
        ("table", "iwahori", "--qs", "2", "--qt", "3", "--len", "2"),
        ("table", "affine", "--q", "3", "--max", "3"),
        ("table", "sl2", "--p", "5", "--max", "2"),
        ("mul", "affine-nf", "(2,1)", "(1,3)", "--q", "3"),
        ("mul", "sl2", "3/25", "1/5", "--p", "5"),
    ],
)
def test_json_lines_are_canonical(capsys, argv):
    # each line is exactly what json.dumps makes of it with default separators
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out.endswith("\n")
    for line in out.splitlines():
        assert json.dumps(json.loads(line)) == line


def test_csv_quotes_labels_containing_commas(capsys):
    code, out = run_cli(
        capsys, "mul", "affine-nf", "(0,1)", "(1,0)", "--q", "2", "--format", "csv"
    )
    assert code == 0
    import csv as csv_mod
    import io

    rows = list(csv_mod.reader(io.StringIO(out)))
    assert rows[0] == ["family", "left", "right", "value"]
    assert rows[1] == ["affine-nf", "(0,1)", "(1,0)", "(0,0):2/1"]


@pytest.mark.parametrize(
    "family, algebra, flags, extent",
    [
        ("spherical", SphericalAlgebra(SphericalParams.homogeneous(3)), ["--q", "3"], 7),
        (
            "spherical",
            SphericalAlgebra(SphericalParams.two_orbit(2, 3)),
            ["--q0", "2", "--q1", "3"],
            7,
        ),
        # words_up_to lists the inversion-decorated words too
        ("iwahori", IwahoriAlgebra(2, 2), ["--qs", "2", "--qt", "2"], 3),
        ("iwahori", IwahoriAlgebra(2, 3), ["--qs", "2", "--qt", "3"], 3),
        ("affine", HorocycleAlgebra(2), ["--q", "2"], 5),
        ("affine", HorocycleAlgebra(3), ["--q", "3"], 5),
        ("sl2", SL2EndAlgebra(3), ["--p", "3"], 2),
        ("sl2", SL2EndAlgebra(5), ["--p", "5"], 1),
    ],
)
def test_table_writer_matches_json_dumps_and_csv(capsys, family, algebra, flags, extent):
    # every cell, rebuilt from multiply_basis(a, b).terms() with json.dumps and
    # csv.writer, independently of the writer's fragments and sort
    import csv as csv_mod

    flags = [*flags, "--" + cli.FAMILIES[family].extent, str(extent)]
    lines, rows = [], io.StringIO()
    writer = csv_mod.writer(rows, lineterminator="\n")
    writer.writerow(["family", "left", "right", "value"])
    for a, b in verify.CELLS[family](algebra, extent):
        key = [algebra.basis_label(a), algebra.basis_label(b)]
        terms = [(algebra.basis_label(idx), c) for idx, c in algebra.multiply_basis(a, b).terms()]
        value = [[label, f"{c}/1"] for label, c in terms]
        lines.append(json.dumps({"family": family, "key": key, "value": value}) + "\n")
        writer.writerow([family, *key, ";".join(f"{label}:{c}/1" for label, c in terms)])
    code, out = run_cli(capsys, "table", family, *flags)
    assert code == 0
    assert out.splitlines(keepends=True) == lines
    code, out = run_cli(capsys, "table", family, *flags, "--format", "csv")
    assert code == 0
    assert out == rows.getvalue()
