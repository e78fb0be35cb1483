"""The README's examples run as written: every ``$ qlocus ...`` command
whose output is printed in full gives that output through the CLI, and
the Python examples (with the package's own doctests) pass."""
import doctest
import re
import shlex
from pathlib import Path

import pytest

import qlocus
from qlocus.cli import main

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
