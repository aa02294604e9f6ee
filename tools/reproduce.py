"""Regenerate every benchmark table, analytically and by simulation, in one interpreter.

    PYTHONPATH=src python3 tools/reproduce.py OUT      # or: make reproduce [OUT=out]

Runs the 14 commands that write out/ through ``griddetect.cli.main`` in turn,
each writing its table into the existing directory OUT. Start-up is paid once
instead of once per table. A failing command prints its one ``error: ...``
line, and the script exits with that command's code before the rest run.
tests/test_golden.py runs the same steps and compares each table with out/.
"""

from __future__ import annotations

import sys
from pathlib import Path

from griddetect.cli import main

ROOT = Path(__file__).resolve().parents[1]
NETWORKS = ("good", "weak")
# (command, network, file extension) of each table, in the order they are written
STEPS = [
    (command, network, ext)
    for ext in ("txt", "csv")
    for command in ("errors", "bayes", "mp")
    for network in NETWORKS
] + [("simulate", network, "csv") for network in NETWORKS]


def table_name(command: str, network: str, ext: str) -> str:
    """The file a step writes: errors_good.txt, ..., simulation_weak.csv."""
    return f"{'simulation' if command == 'simulate' else command}_{network}.{ext}"


def step_args(step: tuple[str, str, str], out: str | Path) -> list[str]:
    """The command line of one step, writing its table into the directory ``out``."""
    command, network, ext = step
    scenario = ROOT / "scenarios" / f"{network}_network.yaml"
    return [command, "--scenario", str(scenario), "--format", "csv" if ext == "csv" else "text",
            "--out", str(Path(out) / table_name(*step))]


def reproduce(out: str | Path) -> int:
    """Run every step into ``out``: 0, or the exit code of the first step that fails."""
    for step in STEPS:
        try:  # in standalone mode click prints a failure's message and exits, as the CLI process does
            main(step_args(step, out), prog_name="griddetect")
        except SystemExit as exc:
            if exc.code:
                return exc.code if isinstance(exc.code, int) else 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    sys.exit(reproduce(sys.argv[1]))
