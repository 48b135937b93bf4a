"""README.md runs as written: its examples print what it says they print, its
pointers to measurements resolve, and it names no private identifier.

Both examples follow one rule: the comment lines directly under a statement
or command, with no blank line between, are the lines it prints. A Python
statement that prints must state all of it; a shell command with no comment
lines under it is only run, and must exit 0.
"""

import ast
import importlib
import io
import json
import pkgutil
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import bunchent
from bunchent.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(lang: str, first_word: str) -> list[str]:
    blocks = [b for b in re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M) if b.startswith(first_word)]
    assert len(blocks) == 1, f"one {lang} block starting with {first_word!r}"
    return blocks[0].splitlines()


def _stated(lines: list[str], last: int) -> list[str]:
    """The output stated under lines[last]: the comment lines directly below it, without "# "."""
    stated = []
    for line in lines[last + 1:]:
        if not line.startswith("#"):
            break
        stated.append(line.removeprefix("#").removeprefix(" "))
    return stated


def test_python_example_prints_what_it_states():
    lines = _block("python", "from bunchent import")
    namespace = {}
    for node in ast.parse("\n".join(lines)).body:
        out = io.StringIO()
        with redirect_stdout(out):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
        assert out.getvalue().splitlines() == _stated(lines, node.end_lineno - 1), ast.unparse(node)


def test_shell_example_prints_what_it_states(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _block("sh", "bunchent ")
    for i, line in enumerate(lines):
        if not line or line.startswith("#"):
            continue
        program, *argv = shlex.split(line, comments=True)  # a comment on the command line describes it
        assert program == "bunchent"
        assert main(argv) == 0, line
        out, err = capsys.readouterr()
        assert err == ""
        if stated := _stated(lines, i):
            assert out.splitlines() == stated, line


def test_figures_point_to_checked_in_files():
    # README quotes no time or RSS of its own; it names the BENCH file or CHANGES line that holds it
    assert not re.findall(r"\d\s*(?:ms|µs|us|s|MB|GB)\b", README)
    benches = set(re.findall(r"BENCH_(\d+)\.json", README))
    lines = {int(n) for n in re.findall(r"CHANGES\.md:(\d+)", README)}
    assert benches and lines
    for n in benches:
        json.loads((ROOT / f"BENCH_{n}.json").read_text())
    changes = (ROOT / "CHANGES.md").read_text().splitlines()
    for n in lines:
        assert 1 <= n <= len(changes) and changes[n - 1].strip(), f"CHANGES.md:{n}"


def test_names_no_private_identifier():
    # private names are the module docstrings' to describe; dunders such as __main__ are public
    modules = [bunchent] + [importlib.import_module(f"bunchent.{m.name}") for m in pkgutil.iter_modules(bunchent.__path__)]
    private = {name for module in modules for name in vars(module) if name.startswith("_") and not name.startswith("__")}
    assert "_plan" in private
    assert not sorted(private & set(re.findall(r"\w+", README)))
