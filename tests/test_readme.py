"""README's command-line and library examples, run as written.

Every ``pencilspec ...`` line of the README's command block goes through
``cli.main`` in a scratch directory, in order, and must exit with the code
its ``# exits N`` comment states (0 without one).  Every ``--flag`` the
README names on those lines or in inline code must be one that some
subcommand accepts, and the report version README states must be the
one the program writes.  The python block under "Library" runs line by
line, and each line's comment is a claim that must evaluate true after it.
"""

import re
import shlex
from pathlib import Path

import pytest

from pencilspec.cli import FORMAT_VERSION, main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines():
    """``(argv, expected exit code)`` per ``pencilspec`` line of the block
    under the "Command line" heading."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        words = shlex.split(code)
        if words[:1] != ["pencilspec"]:
            continue
        expected = re.match(r"\s*exits (\d)\b", comment)
        out.append((words[1:], int(expected.group(1)) if expected else 0))
    return out


def test_command_block_is_found():
    codes = [code for _, code in command_lines()]
    assert len(codes) >= 6 and {0, 1, 2, 3} <= set(codes)


def test_command_block_runs_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, expected in command_lines():
        assert main(argv) == expected, " ".join(argv)
        capsys.readouterr()


def documented_flags():
    """Flags on the command lines and in inline code spans of the README."""
    text = " ".join(re.findall(r"`([^`\n]+)`", README.read_text()))
    text += " " + " ".join(" ".join(argv) for argv, _ in command_lines())
    return sorted(set(re.findall(r"--[a-z][a-z-]*", text)))


@pytest.mark.parametrize("flag", documented_flags())
def test_documented_flag_exists(flag, capsys):
    accepted = set()
    for command in ("analyze", "decompose", "corollary", "generate"):
        assert main([command, "--help"]) == 0
        accepted |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flag in accepted


def test_stated_report_version_is_current():
    stated = re.findall(r'"version": (\d+)', README.read_text())
    assert stated and {int(v) for v in stated} == {FORMAT_VERSION}


def library_snippet():
    """The lines of the python block under the "Library" heading."""
    section = README.read_text().split("## Library", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0].strip().splitlines()


def test_library_snippet_runs_as_documented():
    namespace = {}
    claims = []
    for line in library_snippet():
        code, _, claim = line.partition("#")
        exec(code, namespace)
        if claim.strip():
            claims.append(claim.strip())
            assert eval(claim.strip(), namespace), claim
    assert 'report.overall == "pass"' in claims
    assert any(c.startswith("result.residual <") for c in claims)
