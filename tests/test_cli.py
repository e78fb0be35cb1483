import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qlocus.cli import main
from qlocus.verify import WORKED_CLASSES
from test_locus import generic_degree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_expression(capsys):
    code, out, err = run(
        capsys, "class", "--e", "4", "--f", "3", "--r", "2", "--symmetry", "sym"
    )
    assert code == 0
    assert out == "Q[2](F) + Q[1](F)*s[1](E-F)\n"
    assert err == ""


def test_class_polynomial_surjection(capsys):
    code, out, _ = run(
        capsys,
        "class",
        "--e", "2", "--f", "1", "--r", "0", "--symmetry", "sym",
        "--format", "polynomial",
    )
    assert code == 0
    # Q[2](F) + Q[1](F)*s[1](E-F) on roots (f; k) is 2f^2 + 2fk
    assert out == "2*f^2 + 2*f*k\n"


def test_class_polynomial_independent_mode(capsys):
    code, out, _ = run(
        capsys,
        "class",
        "--e", "2", "--f", "1", "--r", "0", "--symmetry", "sym",
        "--format", "polynomial", "--mode", "independent",
    )
    assert code == 0
    # same class with E - F a genuine difference: 2f(e1 + e2)
    assert out == "2*f*e1 + 2*f*e2\n"


def test_class_schur_pair_format(capsys):
    code, out, _ = run(
        capsys,
        "class",
        "--e", "4", "--f", "3", "--r", "2", "--symmetry", "skew",
        "--format", "schur-pair",
    )
    assert code == 0
    assert out == "1 * s[1](E)\n"


def test_class_structured_format(capsys):
    code, out, _ = run(
        capsys,
        "class",
        "--e", "4", "--f", "3", "--r", "2", "--symmetry", "sym",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "class"
    assert doc["parameters"] == {"e": 4, "f": 3, "r": 2, "symmetry": "sym"}
    assert doc["codim"] == 2
    assert doc["kind"] == "Q"
    assert doc["terms"] == [
        {"K": [2], "L": [], "coeff": 1},
        {"K": [1], "L": [1], "coeff": 1},
    ]


def test_chern_routes_agree(capsys):
    outs = []
    for route in ("closed", "skew", "oracle"):
        code, out, _ = run(
            capsys, "chern", "--e", "3", "--f", "2", "--kind", "wedge", "--route", route
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_degree_line(capsys):
    code, out, _ = run(
        capsys,
        "degree",
        "--e-twists", "1,1,1,1", "--f-twists", "1,1,1",
        "--r", "2", "--symmetry", "skew",
    )
    assert code == 0
    assert out == "codim=1 degree=4\n"


@pytest.mark.parametrize(
    "twists,e_twists,f_twists",
    [
        (["--e-twists", "-1,2", "--f-twists", "3"], (-1, 2), (3,)),
        (["--e-twists=-1,2", "--f-twists", "3"], (-1, 2), (3,)),
        (["--e-twists", "2,-1", "--f-twists", "-3,1"], (2, -1), (-3, 1)),
        (["--f-twists", "-3,1", "--e-twists", "-1,2"], (-1, 2), (-3, 1)),
    ],
)
def test_degree_accepts_a_negative_first_twist(capsys, twists, e_twists, f_twists):
    code, out, err = run(capsys, "degree", *twists, "--r", "0", "--symmetry", "sym")
    codim, degree = generic_degree(e_twists, f_twists, 0, "sym")
    assert (code, err) == (0, "")
    assert out == f"codim={codim} degree={degree}\n"


def test_expand_command(capsys):
    # Q[2](F) + Q[1](F)*s[1](E-F) telescopes to a single pair
    code, out, _ = run(
        capsys, "expand", "--e", "4", "--f", "3", "--r", "2", "--symmetry", "sym"
    )
    assert code == 0
    assert out == "2 * s[1](F) * s[1](E)\n"


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "schur", "--max-n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(l.startswith("CASE ") for l in lines[:-1])
    assert lines[-1].startswith("SUMMARY ")
    assert lines[-1].endswith(" PASS")


def test_verify_rejects_wrong_bound_flag(capsys):
    # schur takes max-n only: a bound it would ignore is refused, or the
    # default sweep would pass for the one asked for
    code, out, err = run(capsys, "verify", "--suite", "schur", "--max-p", "1", "--max-e", "9")
    assert (code, out) == (2, "")
    assert err == "error: suite schur takes no max_e, max_p (it takes max_n)\n"


@pytest.mark.parametrize("bound", ["--max-e", "--max-f", "--max-n", "--max-p", "--max-weight"])
def test_verify_rejects_a_negative_bound(capsys, bound):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "identities", bound, "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {bound}: not a non-negative integer: '-3'" in captured.err


def test_domain_error_exits_2(capsys):
    code, out, err = run(
        capsys, "class", "--e", "3", "--f", "3", "--r", "1", "--symmetry", "skew"
    )
    assert code == 2
    assert out == ""
    assert err == "error: skew with e=f requires even r\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["class", "--e", "3"])
    assert exc.value.code == 2


def test_bad_twist_list_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--e-twists", "1,x", "--f-twists", "1", "--r", "0", "--symmetry", "sym"])
    assert exc.value.code == 2


def test_determinism(capsys):
    args = ("class", "--e", "5", "--f", "3", "--r", "2", "--symmetry", "sym")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_removed_cache_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "class", "--e", "4", "--f", "2", "--r", "0", "--symmetry", "sym",
            "--cache-dir", "X",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "qlocus.cli", "degree",
         "--e-twists", "1,1,1", "--f-twists", "1,1",
         "--r", "1", "--symmetry", "skew"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout == "codim=1 degree=2\n"


def test_cli_start_imports_no_unused_stdlib_modules():
    # dataclasses brings in inspect (with ast, dis and tokenize), json serves
    # one output format, heapq only exact_div, and fractions (with decimal
    # and numbers) no coefficient at all: each would add start-up time to
    # every request.  The benchmark's tracer looks up gysin and verify after
    # importing the CLI, so those must stay loaded.
    src = Path(__file__).resolve().parents[1] / "src"
    names = [
        "dataclasses", "inspect", "json", "heapq", "fractions", "decimal", "numbers",
        "qlocus.gysin", "qlocus.verify",
    ]
    probe = "import sys, qlocus.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, *names],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "['qlocus.gysin', 'qlocus.verify']\n"


@pytest.mark.parametrize("argv", [
    # short output: the write fails at the final flush
    ["class", "--e", "4", "--f", "3", "--r", "2", "--symmetry", "sym"],
    # about 29 kB, past the stdout buffer: the write fails inside print
    ["chern", "--e", "6", "--f", "3", "--kind", "vee", "--route", "oracle"],
])
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "qlocus.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before the first write
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


# exit code and sha256 of stdout of every benchmark request, recorded in
# the benchmark's golden table; a change to the term order, to how a
# monomial is rendered or to any printed value changes these bytes
GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("request_line", sorted(GOLDEN))
def test_rendered_polynomials_keep_their_bytes(capsys, request_line):
    code, out, err = run(capsys, *request_line.split())
    assert (code, err) == (GOLDEN[request_line]["exit"], "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[request_line]["sha256"]


def test_full_verify_keeps_its_bytes(capsys):
    # every suite at its default bounds, 444 cases: the golden pool runs
    # only bounded suites, so this pins the rest of the check drivers
    code, out, err = run(capsys, "verify")
    assert (code, err) == (0, "")
    assert out.endswith("SUMMARY 444/444 PASS\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "553824147972ef24e3311a915a2f95c1ce5b545e0c3bc9577871e2bb72e4e560"
    )


def test_traced_layers_resolve_under_src():
    # every layer the benchmark's tracer wraps must still exist, or a
    # traced run dies on start-up
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("traced_cli", root / "perfbench" / "traced_cli.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for name, modname, path, *_ in traced.TARGETS:
        owner = importlib.import_module(modname)
        assert Path(owner.__file__).resolve().is_relative_to(root / "src"), name
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), name


def test_reproduce_examples_script_prints_the_worked_classes_and_degrees():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_examples.py")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("done in ")
    text = "\n".join(lines[:-1])
    for (e, f, r, sym), want in WORKED_CLASSES.items():
        header = rf"^\(e={e}, f={f}, r={r}, {sym}\)  codim \d+:\n  (.*)$"
        assert re.search(header, text, re.M)[1] == want
    assert "codim 11, 15 terms:" in text
    assert re.findall(r"codim=\d+ degree=(\d+)$", text, re.M) == ["4", "16", "2", "8"]
