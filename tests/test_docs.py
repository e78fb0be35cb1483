"""The README's examples run as written: every ``$ qlocus ...`` command
whose output is printed in full gives that output through the CLI, the
Python examples (with the package's own doctests) pass, and so does the
script it lists."""
import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qlocus
from qlocus.cli import main
from qlocus.locus import LocusProblem, class_of, class_schur_pair_expansion
from qlocus.schur import render_schur_pair

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def _cli_examples():
    """(argv, stdout) of each ``$ qlocus`` command, its output the lines up
    to the next ``$`` line or the end of the block; an output with a
    ``...`` line is abridged and left out."""
    out = []
    for _, body in BLOCKS:
        for command in re.split(r"^(?=\$ )", body, flags=re.M):
            head, _, shown = command.partition("\n")
            if not head.startswith("$ qlocus "):
                continue
            shown = shown.rstrip("\n") + "\n"
            if "..." not in shown.splitlines():
                out.append((shlex.split(head[len("$ qlocus ") :]), shown))
    return out


CLI_EXAMPLES = _cli_examples()


def test_readme_shows_cli_examples():
    assert len(CLI_EXAMPLES) >= 5


@pytest.mark.parametrize("argv,shown", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_readme_cli_example(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out == shown


def test_readme_python_examples():
    # the blocks share one namespace, as in one session
    globs: dict = {}
    runner = doctest.DocTestRunner()
    parser = doctest.DocTestParser()
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert blocks
    for i, body in enumerate(blocks):
        if ">>>" in body:
            test = parser.get_doctest(body, globs, f"README python block {i}", "README.md", 0)
            runner.run(test, clear_globs=False)
            globs = test.globs  # a doctest runs on a copy of the namespace
        else:
            exec(body, globs)
    assert runner.summarize(verbose=False).failed == 0


def test_package_doctests():
    result = doctest.testmod(qlocus)
    assert result.attempted and not result.failed


def test_reproduce_examples_script():
    # the script the README lists: each class it prints is class_of's,
    # and its table is the rendered Schur-pair expansion of the rank-(8,4)
    # class
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_examples.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    head = re.compile(r"\(e=(\d+), f=(\d+), r=(\d+), (sym|skew)\)  codim \d+:")
    heads = [(i, m) for i, line in enumerate(lines) if (m := head.fullmatch(line))]
    assert len(heads) == 7
    for i, m in heads:
        e, f, r = map(int, m.groups()[:3])
        assert lines[i + 1] == f"  {class_of(LocusProblem(e, f, r, m[4]))}"
    start = lines.index("Schur-pair table (independent E, F):") + 1
    table = lines[start : lines.index("", start)]
    want = render_schur_pair(class_schur_pair_expansion(LocusProblem(8, 4, 2, "sym")))
    assert table == ["  " + line for line in want.splitlines()]
