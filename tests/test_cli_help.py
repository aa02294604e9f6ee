"""The ``--help`` text of the command group and of each command, pinned.

tests/golden/help.txt holds the help of ``griddetect`` and then of each
command, in the order of HELP_ARGS, each block headed by the command line
that printed it. It pins every option's name, order, default and help
line, which no other test reads. Help is wrapped at 80 columns whatever
``COLUMNS`` says.

To rewrite the golden file after a deliberate change of the CLI, run
``PYTHONPATH=src python tests/test_cli_help.py``.
"""

from __future__ import annotations

from pathlib import Path

from click.testing import CliRunner

from griddetect.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "help.txt"
HELP_ARGS = [[]] + [[name] for name in ("errors", "bayes", "mp", "dist", "simulate", "estimate")]


def help_text() -> str:
    blocks = []
    for args in HELP_ARGS:
        result = CliRunner().invoke(main, args + ["--help"], prog_name="griddetect", terminal_width=80)
        assert result.exit_code == 0, result.output
        blocks.append(f"$ griddetect {' '.join(args + ['--help'])}\n{result.output}")
    return "\n".join(blocks)


def test_help_is_unchanged():
    assert help_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(help_text())
