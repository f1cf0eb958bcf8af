"""The README's command-line examples, run through the CLI and compared with the output shown."""

import re
import shlex
from pathlib import Path

import pytest

from conftest import mask
from subchains.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[str, str]]:
    """(command line, output shown) for each `$ subchains` line of the command-line block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif examples:
            examples[-1][1].append(line)
    return [(command, "\n".join(shown).strip() + "\n") for command, shown in examples]


EXAMPLES = readme_examples()


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example(command, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # oracle --dump writes into the working directory
    argv = shlex.split(command)
    assert argv[0] == "subchains"
    assert main(argv[1:]) == 0
    pattern = re.escape(mask(shown)).replace(re.escape("..."), ".*")
    assert re.fullmatch(pattern, mask(capsys.readouterr().out), re.DOTALL)
