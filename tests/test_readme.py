"""The README's examples, run as written: every ``$ braidshadow`` line of
the Command line section prints the lines under it, and the Library block
runs."""

import shlex
from pathlib import Path

from braidshadow.cli import run_command

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _command_examples():
    """(argv, printed lines) per command; the printed lines run to the next
    blank line or code fence."""
    lines = _section("Command line").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ braidshadow "):
            printed = []
            for follow in lines[i + 1:]:
                if not follow or follow.startswith("```"):
                    break
                printed.append(follow)
            examples.append((shlex.split(line)[2:], printed))
    return examples


def test_readme_commands_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # in order: the first command saves the subgroup files the others read
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BRAIDSHADOW_CACHE", raising=False)
    examples = _command_examples()
    assert len(examples) == 8
    for argv, printed in examples:
        assert run_command(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == printed, argv


def test_readme_library_block_runs():
    code = _section("Library").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
