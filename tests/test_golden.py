"""The bytes the CLI writes, pinned against files in tests/golden/.

Certificates are accepted by re-deriving them, so a change in their
bytes makes every certificate written before it stop replaying; these
files make such a change show up as a failing test.  A file is
regenerated by running its command with the golden path as the output
argument (`table --json` prints to stdout).
"""

from pathlib import Path

import pytest

from unchoosable.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _verify(mode, row):
    return ["verify", "--case", row[0], "--t", row[1:], "--mode", mode, "--cert"]


# each file's command, with the file's path appended as its last argument
COMMANDS = {
    **{
        f"verify-direct-{row}.json": _verify("direct", row)
        for row in ("b1", "c1", "a1", "c2", "b2")
    },
    **{
        f"verify-compositional-{row}.json": _verify("compositional", row)
        for row in ("a2", "b3", "c3", "a33", "c100")
    },
    "build-a1.g6": ["build", "--case", "a", "--t", "1", "--graph"],
    "build-a1-lists.json": ["build", "--case", "a", "--t", "1", "--lists"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_written_file_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(COMMANDS[name] + [str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_table_json_matches_golden(capsys):
    assert main(["table", "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / "table.json").read_bytes()
